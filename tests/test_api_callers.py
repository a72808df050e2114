"""Every public top-level function and class of gmclab has a caller outside
the tests, and no program file imports another module's private names.

Public names that only tests call are dead weight: they must be kept
working and documented, yet no experiment, demo or benchmark depends on
them.  A name counts as used when the package, ``perfbench/`` or ``demos/``
refers to it outside its own definition, as a name, an attribute, an import
alias or a string constant (``perfbench/spans.py`` rebinds functions by
attribute name).

An underscore name is private to its module.  A package module, demo or
benchmark file that imports one from another gmclab module depends on what
that module is free to change; such a name should be made public instead.
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


def _imported_module(node):
    """Dotted gmclab module an ``ImportFrom`` reads, or None for others.

    Relative imports occur only in the flat ``gmclab`` package, so each is
    ``gmclab`` or one of its modules.
    """
    if node.level:
        return ".".join(["gmclab"] + ([node.module] if node.module else []))
    if node.module == "gmclab" or node.module.startswith("gmclab."):
        return node.module
    return None


def _own_module(path):
    """Dotted name of a package file; None for demos and benchmarks."""
    if os.path.dirname(path) != PACKAGE:
        return None
    stem = os.path.splitext(os.path.basename(path))[0]
    return "gmclab" if stem == "__init__" else f"gmclab.{stem}"


def test_no_private_names_across_module_lines():
    crossings = []
    for directory in CALLER_DIRS:
        for path, tree in _sources(directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                module = _imported_module(node)
                if module is None or module == _own_module(path):
                    continue
                crossings += [
                    f"{os.path.relpath(path, ROOT)}:{node.lineno} "
                    f"{module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.startswith("__")]
    assert not crossings, ("private names imported from another module: "
                           + ", ".join(crossings))
