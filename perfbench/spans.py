"""Span tracing of gmclab from outside the package.

``install`` wraps public functions by rebinding names: every gmclab
module whose namespace holds the original function object gets the wrapper,
because ``from .x import y`` copies the binding into the importing module.
Methods are wrapped on their class.  ``Tracer.remove`` restores every binding.

Spans are kept in memory as (name, start, end, parent) and written out once at
the end of a run.  Self time is a span's duration minus the time covered by
its direct children; the workloads run single-threaded, so children nest
strictly inside their parent and never overlap.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np


class _TimedGenerator:
    """Proxy of a numpy Generator whose draws are recorded as ``rng.draw``."""

    def __init__(self, tracer: "Tracer", gen):
        self._tracer = tracer
        self._gen = gen

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def timed(*args, **kwargs):
            idx = tracer.open("rng.draw")
            try:
                out = attr(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts["rng.values_drawn"] += np.size(out)
            return out

        return timed


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.maxima = {}
        self.captured = {}
        self._undo = []

    # -- spans

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def record_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping

    def wrap(self, name: str, fn, hook=None):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def rebind(self, modules, orig, new) -> int:
        """Replace every module-level binding of ``orig`` with ``new``."""
        hits = 0
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))
                    hits += 1
        return hits

    def patch_function(self, modules, owner, attr: str, name: str, hook=None):
        """Rebind ``owner.attr`` in every module that holds the same object."""
        orig = getattr(owner, attr)
        if not self.rebind(modules, orig, self.wrap(name, orig, hook)):
            raise LookupError(f"{name}: no module binds the original function")

    def patch_method(self, cls, attr: str, name: str, hook=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, hook))
        self._undo.append((cls, attr, orig))

    def wrap_generator(self, gen):
        return _TimedGenerator(self, gen)

    def remove(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results

    def aggregate(self):
        """Per-name inclusive time, self time and span count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is None:
                raise RuntimeError(f"span {name} never closed")
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "spans": 0})
        for (name, start, end, _), covered in zip(self.spans, child):
            a = agg[name]
            a["s"] += end - start
            a["self_s"] += (end - start) - covered
            a["spans"] += 1
        return dict(agg)

    def dump(self, path: str):
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# --- what to wrap in gmclab, and the counts each wrapper records ---------------

def _pairwise(tr, a, out):
    tr.counts["kernels.pairwise.entries"] += len(a["pts_a"]) * len(a["pts_b"])


def _build_cov(tr, a, out):
    tr.record_max("fieldsim.nodes", out.dim)
    tr.record_max("fieldsim.jitter_used", out.jitter_used)


def _sample_field_batch(tr, a, out):
    dim, n = a["factor"].dim, a["n"]
    tr.counts["fieldsim.replicas"] += n
    tr.counts["fieldsim.node_replicas"] += dim * n
    # dense (dim x dim) @ (dim x n) per chunk; normals, products and the
    # concatenated output are each materialized once as float64
    tr.counts["fieldsim.gemm_flop"] += 2.0 * dim * dim * n
    tr.counts["fieldsim.bytes_materialized"] += 3 * 8 * dim * n


def _exp_count(region_key):
    def hook(tr, a, out):
        vals = a["field"]
        vals = getattr(vals, "values", vals)
        tr.counts["gmc.exp_count"] += np.size(a[region_key]) \
            * int(np.prod(np.shape(vals)[1:]))
    return hook


def _localized_survival_curve(tr, a, out):
    tr.counts["tailest.tilts"] += a["grid"].n_bdy
    tr.counts["tailest.tilted_replicas"] += a["grid"].n_bdy * a["n_per_point"]
    tr.captured["survival"] = out


def _sampler_init(tr, a, out):
    lat = a["self"].lateral
    tr.captured["min_eigenvalue"] = lat.clip_report["min_eigenvalue"]
    tr.captured["useful_ratio"] = lat.n_s / lat.n_p


def _lateral_sample(tr, a, out):
    lat = a["self"]
    tr.counts["radial.lateral.node_draws"] += lat.n_s * lat.m * a["n"]


def _conditioned_path(tr, a, out):
    tr.counts["radial.path_steps"] += a["n_paths"] * (out[1].shape[1] - 1)


def _sample_joint(tr, a, out):
    rel = out["bound_H"] / np.maximum(out["IH_inf"], 1e-300)
    tr.captured.setdefault("trunc_rel", []).append(rel)


def _stream_generator(tr, a, out):
    tr.counts["rng.streams"] += 1


def _expcli_run(tr, a, out):
    out_dir = os.path.join(a["config"].output_dir,
                           f"{out.experiment}-{out.config_hash}")
    tr.counts["expcli.bytes_written"] += sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    tr.captured["record"] = out


def install(tracer: Tracer, gm) -> None:
    """Wrap the public functions of every gmclab layer; ``gm`` is the package."""
    mods = [gm.kernels, gm.cellavg, gm.fieldsim, gm.rng, gm.gmc, gm.radial,
            gm.tailest, gm.expcli]
    plain = [
        (gm.kernels, "pairwise", "kernels.pairwise", _pairwise),
        (gm.cellavg, "neg_log_avg_tri", "cellavg.neg_log_avg_tri", None),
        (gm.cellavg, "neg_log_avg_segment", "cellavg.neg_log_avg_segment",
         None),
        (gm.fieldsim, "build_grid", "fieldsim.build_grid", None),
        (gm.fieldsim, "build_cov", "fieldsim.build_cov", _build_cov),
        (gm.fieldsim, "sample_field_batch", "fieldsim.sample_field_batch",
         _sample_field_batch),
        (gm.fieldsim, "shift_vector", "fieldsim.shift_vector", None),
        (gm.gmc, "bulk_mass", "gmc.bulk_mass", _exp_count("region")),
        (gm.gmc, "bdy_mass", "gmc.bdy_mass", _exp_count("interval")),
        (gm.tailest, "survival_curve", "tailest.survival_curve", None),
        (gm.tailest, "localized_survival_curve",
         "tailest.localized_survival_curve", _localized_survival_curve),
        (gm.tailest, "plain_survival", "tailest.plain_survival", None),
        (gm.tailest, "fit_tail", "tailest.fit_tail", None),
        (gm.tailest, "fixed_exponent_constant",
         "tailest.fixed_exponent_constant", None),
        (gm.tailest, "estimate_constant_radial",
         "tailest.estimate_constant_radial", None),
        (gm.tailest, "radial_constant_curve", "tailest.radial_constant_curve",
         None),
        (gm.radial, "sample_conditioned_path", "radial.sample_conditioned_path",
         _conditioned_path),
        (gm.radial, "williams_concatenate", "radial.williams_concatenate",
         None),
        (gm.radial, "compute_I", "radial.compute_I", None),
        (gm.expcli, "emit_plotdata", "expcli.emit_plotdata", None),
        (gm.expcli, "run", "expcli.run", _expcli_run),
    ]
    for owner, attr, name, hook in plain:
        tracer.patch_function(mods, owner, attr, name, hook)

    # generators come back wrapped so draws are timed where they happen
    orig_stream = gm.rng.stream_generator

    def stream_generator(seed, stream=0):
        return tracer.wrap_generator(orig_stream(seed, stream))

    stream_generator.__signature__ = inspect.signature(orig_stream)
    timed_stream = tracer.wrap("rng.stream_generator", stream_generator,
                               _stream_generator)
    tracer.rebind(mods, orig_stream, timed_stream)

    tracer.patch_method(gm.radial.RadialSampler, "__init__",
                        "radial.sampler_init", _sampler_init)
    tracer.patch_method(gm.radial.RadialSampler, "sample_joint",
                        "radial.sample_joint", _sample_joint)
    tracer.patch_method(gm.radial.LateralModel, "sample",
                        "radial.lateral.sample", _lateral_sample)
