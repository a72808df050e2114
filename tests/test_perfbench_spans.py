"""The benchmark's span tracer and workloads still bind to gmclab.

``perfbench/spans.py`` wraps gmclab functions by rebinding their names and
its hooks read call arguments by parameter name, so renaming or removing a
wrapped function or parameter breaks ``--trace 1`` runs.  This test installs
the tracer, drives every hooked call once at toy sizes, and removes it.  The
radial sampler runs on the ``RadialConfig`` that ``perfbench/workloads.py``
builds, so removing a field the benchmark sets fails here too.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest

import gmclab as gm

PERFBENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bindings():
    mods = [gm.kernels, gm.cellavg, gm.fieldsim, gm.rng, gm.gmc, gm.radial,
            gm.tailest, gm.expcli]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (gm.radial.RadialSampler, gm.radial.LateralModel):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_spans_install_wraps_and_restores(tmp_path):
    spans = _load_perfbench("spans")
    workloads = _load_perfbench("workloads")
    before = _bindings()
    tracer = spans.Tracer()
    # raises when a wrapped name no longer binds anywhere in gmclab
    spans.install(tracer, gm)
    try:
        grid = gm.fieldsim.build_grid(0.5, 2, 4)
        factor = gm.fieldsim.build_cov(grid)
        params = gm.gmc.GmcParams(gamma=1.0, r=0.5)
        x = gm.fieldsim.sample_field_batch(factor, 1, 8)
        gm.gmc.bulk_mass(x, factor, grid, params, gm.gmc.region_all_bulk(grid))
        gm.gmc.bdy_mass(x, factor, grid, params, gm.gmc.region_all_bdy(grid))
        gm.tailest.localized_survival_curve(params, grid, factor, [1.0, 2.0],
                                            8, 2)
        # the radial-constant workload's config, shrunk to toy sizes
        config = dataclasses.replace(workloads._radial_config(gm), T=4.0,
                                     ds=0.25, n_theta=8)
        assert config.eps == workloads.RADIAL_EPS
        gm.radial.RadialSampler(1.0, config).sample_joint(3, 8)
        gm.expcli.run(gm.expcli.ExperimentConfig(
            experiment="max-law", N=1000, seed=5, output_dir=str(tmp_path)))
    finally:
        tracer.remove()
    agg = tracer.aggregate()
    for name in ("kernels.pairwise", "fieldsim.build_cov",
                 "fieldsim.sample_field_batch", "fieldsim.shift_vector",
                 "gmc.bulk_mass", "gmc.bdy_mass",
                 "tailest.localized_survival_curve", "radial.sampler_init",
                 "radial.sample_joint", "radial.lateral.sample",
                 "radial.sample_conditioned_path", "radial.compute_I",
                 "rng.stream_generator", "rng.draw", "expcli.run"):
        assert name in agg, name
    assert tracer.counts["gmc.exp_count"] == 8 * (grid.n_bulk_cells
                                                  + grid.n_bdy)
    assert tracer.counts["tailest.tilted_replicas"] == grid.n_bdy * 8
    assert tracer.counts["radial.path_steps"] > 0
    # one integrand pass per chunk reads both cutoffs of the one-chunk draw
    assert tracer.counts["radial.compute_I.calls"] == 1
    # the names perfbench reads keep their meaning: exact factors only
    assert tracer.maxima["fieldsim.jitter_used"] == 0.0
    assert tracer.captured["min_eigenvalue"] > 0
    assert tracer.captured["useful_ratio"] == 1.0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


WORKLOADS = _load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warm_up_rep_passes_its_check(name, tmp_path):
    """Each workload's repetition at its warm-up size, run as the worker's
    warm-up runs it, passes the workload's own output check.  This drives
    the benchmark's own calls into gmclab, so a broken entry point fails
    here rather than as a failed benchmark run."""
    wl = WORKLOADS[name]
    out = wl.rep(gm, 12345, str(tmp_path), wl.warm_n)
    assert wl.check_rep(out) == []


def test_traced_radial_warm_up_rep(tmp_path):
    """The radial-constant warm-up repetition under the span tracer, as a
    ``--trace 1`` run makes it: its output check passes, no span name has
    negative self time (the worker refuses one beyond -1e-6 s), and the
    lateral field's Philox words are drawn through the traced Generator, one
    timed ``rng.draw`` per mode block."""
    spans = _load_perfbench("spans")
    wl = WORKLOADS["radial-constant"]
    tracer = spans.Tracer()
    spans.install(tracer, gm)
    try:
        out = wl.rep(gm, 12345, str(tmp_path), wl.warm_n)
    finally:
        tracer.remove()
    assert wl.check_rep(out) == []
    for name, a in tracer.aggregate().items():
        assert a["self_s"] >= -1e-6, name
    lat = gm.radial.RadialSampler(
        1.0, _load_perfbench("workloads")._radial_config(gm)).lateral
    sizes = gm.rng.chunk_sizes(wl.warm_n, gm.radial.RADIAL_CHUNK)
    # ceil(n_s size / 2) words per mode block
    lateral_words = lat.n_theta * sum((lat.n_s * size + 1) // 2
                                      for size in sizes)
    assert tracer.counts["rng.values_drawn"] >= lateral_words
    lateral = {i for i, (name, *_) in enumerate(tracer.spans)
               if name == "radial.lateral.sample"}
    assert len(lateral) == len(sizes)
    lateral_draws = sum(name == "rng.draw" and parent in lateral
                        for name, _, _, parent in tracer.spans)
    assert lateral_draws == lat.n_theta * len(sizes)


def test_worker_clears_the_cell_average_cache(monkeypatch):
    """``perfbench/worker.py`` drops the memoized cell averages before each
    repetition; losing the cache or renaming the function would crash every
    benchmark run."""
    monkeypatch.syspath_prepend(PERFBENCH_DIR)  # the worker's own imports
    worker = _load_perfbench("worker")
    cell = gm.cellavg.neg_log_avg_tri
    cell(0.25, -0.25, 0.25)
    assert cell.cache_info().currsize > 0
    worker.clear_caches()
    assert cell.cache_info().currsize == 0
