"""Every public top-level function and class of gmclab has a caller outside
the tests.

Public names that only tests call are dead weight: they must be kept
working and documented, yet no experiment, demo or benchmark depends on
them.  A name counts as used when the package, ``perfbench/`` or ``demos/``
refers to it outside its own definition, as a name, an attribute, an import
alias or a string constant (``perfbench/spans.py`` rebinds functions by
attribute name).
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gmclab")
CALLER_DIRS = (PACKAGE, os.path.join(ROOT, "perfbench"),
               os.path.join(ROOT, "demos"))


def _sources(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path) as fh:
                yield path, ast.parse(fh.read(), filename=path)


def _public_definitions():
    """(path, node) for each public top-level def or class of the package."""
    for path, tree in _sources(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node


def _references(tree):
    """(name, line) for every name, attribute, import alias and string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_definition_has_a_non_test_caller():
    refs = {}
    for directory in CALLER_DIRS:
        for path, tree in _sources(directory):
            for name, line in _references(tree):
                refs.setdefault(name, []).append((path, line))
    unused = []
    for path, node in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(p != path or line not in own
                   for p, line in refs.get(node.name, [])):
            unused.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} "
                          f"{node.name}")
    assert not unused, "public names no program code uses: " + ", ".join(unused)
