"""One benchmark run of one workload, in a fresh process.

run.py starts this script with the thread counts pinned and a fresh run
directory.  It warms up, repeats the workload for the measured interval,
checks every repetition, and prints its result as the last line of standard
output.  With ``--trace 1`` it then runs one more repetition under the span
tracer and the kernel microbenchmarks, and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gmclab as gm  # noqa: E402
import micro  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 10
REP_STRIDE = 4096      # repetition i of seed s runs at seed s * 4096 + i
TRACE_REP = REP_STRIDE - 1
WARM_UP_SEED = 2 ** 63
# held here because the tracer rebinds the module attribute to a wrapper
_CELL_AVERAGE = gm.cellavg.neg_log_avg_tri


def clear_caches():
    """Drop gmclab's memoized cell averages so every repetition pays for
    them, as a fresh process would."""
    _CELL_AVERAGE.cache_clear()


def warm_up(wl, run_dir):
    """One small repetition at the full geometry, unchecked and untimed.

    First BLAS and LAPACK calls pay library start-up, scipy imports some
    modules lazily, and FFT plans are built on first use; none of that
    belongs in a measured repetition.
    """
    out_dir = tempfile.mkdtemp(prefix="warm-up-", dir=run_dir)
    wl.rep(gm, WARM_UP_SEED, out_dir, wl.warm_n)
    if wl.setup is not None:
        wl.setup(gm)


def one_rep(wl, seed, run_dir):
    out_dir = tempfile.mkdtemp(prefix=f"rep-{seed}-", dir=run_dir)
    clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    out = wl.rep(gm, seed, out_dir, wl.n)
    wall = time.perf_counter() - t0
    if wl.setup is not None:
        probes = []
        for _ in range(SETUP_PROBES):
            clear_caches()
            t0 = time.perf_counter()
            wl.setup(gm)
            probes.append(time.perf_counter() - t0)
        out["setup_s"] = statistics.median(probes)
    return wall, out


def measure(wl, seed, seconds, run_dir):
    """Repeat the workload within ``seconds``, at least MIN_REPS times.

    A repetition starts only if the median repetition so far still fits in
    the interval, so a run lasts about ``seconds`` whatever the workload.
    """
    walls, setups, outs, reps = [], [], [], []
    failed = attempted = 0
    start = time.perf_counter()
    while attempted < MIN_REPS or walls and time.perf_counter() - start \
            + statistics.median(walls) <= seconds:
        rep_seed = seed * REP_STRIDE + attempted
        attempted += 1
        try:
            wall, out = one_rep(wl, rep_seed, run_dir)
            problems = wl.check_rep(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            reps.append({"seed": rep_seed, "error": traceback.format_exc()})
            continue
        reps.append({"seed": rep_seed, "wall_s": wall,
                     "setup_s": out["setup_s"], "problems": problems})
        if problems:
            print(f"repetition at seed {rep_seed} failed its check: "
                  f"{'; '.join(problems)}", file=sys.stderr)
            failed += 1
            continue
        walls.append(wall)
        setups.append(out["setup_s"])
        outs.append(out)
    return walls, setups, outs, reps, attempted, failed


def traced_rep(wl, seed, run_dir):
    """One repetition under the span tracer.

    An exception counts as a failed check, like in ``measure``; the spans
    recorded up to it are still reported.
    """
    tracer = spans.Tracer()
    spans.install(tracer, gm)
    out_dir = tempfile.mkdtemp(prefix=f"traced-{seed}-", dir=run_dir)
    clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    try:
        try:
            out = wl.rep(gm, seed, out_dir, wl.n)
        finally:
            wall = time.perf_counter() - t0
            tracer.remove()
        problems = wl.check_rep(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        problems = ["raised " + traceback.format_exc().strip().splitlines()[-1]]
    tracer.dump(os.path.join(run_dir, "spans.json"))
    return tracer, wall, problems


def layer_metrics(tracer, traced_wall, wall_s, rates, failed_ratio):
    agg = tracer.aggregate()
    counts, maxima, cap = tracer.counts, tracer.maxima, tracer.captured
    for name, a in agg.items():
        if a["self_s"] < -1e-6:
            raise RuntimeError(f"negative self time for {name}: children "
                               "overlap their parent")

    def s(name, key="s"):
        return agg.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict(rates)
    m["kernels.pairwise.s"] = s("kernels.pairwise")
    m["kernels.pairwise.entries"] = counts["kernels.pairwise.entries"]
    cell = ("cellavg.neg_log_avg_tri", "cellavg.neg_log_avg_segment")
    m["cellavg.s"] = sum(s(n) for n in cell)
    m["cellavg.calls"] = sum(counts[n + ".calls"] for n in cell)

    m["fieldsim.build_cov.s"] = s("fieldsim.build_cov")
    m["fieldsim.build_cov.self_s"] = s("fieldsim.build_cov", "self_s")
    m["fieldsim.nodes"] = maxima.get("fieldsim.nodes", 0)
    m["fieldsim.jitter_used"] = maxima.get("fieldsim.jitter_used", 0.0)
    sfb = "fieldsim.sample_field_batch"
    m[sfb + ".s"] = s(sfb)
    m[sfb + ".self_s"] = s(sfb, "self_s")
    m["fieldsim.replicas"] = counts["fieldsim.replicas"]
    m["fieldsim.ns_per_node_replica"] = 1e9 * ratio(
        s(sfb), counts["fieldsim.node_replicas"])
    gflop = counts["fieldsim.gemm_flop"] / 1e9
    m["fieldsim.gemm_gflop_computed"] = gflop
    # the batch's self time is what is left after the timed normal draws:
    # the GEMM and the block concatenation
    m["fieldsim.gemm_gflops"] = ratio(gflop, s(sfb, "self_s"))
    m["fieldsim.bytes_materialized_computed"] = \
        counts["fieldsim.bytes_materialized"]

    m["rng.streams"] = counts["rng.streams"]
    m["rng.draw.s"] = s("rng.draw")
    m["rng.values_drawn"] = counts["rng.values_drawn"]

    m["gmc.bulk_mass.s"] = s("gmc.bulk_mass")
    m["gmc.bdy_mass.s"] = s("gmc.bdy_mass")
    m["gmc.exp_count_computed"] = counts["gmc.exp_count"]

    lsc = "tailest.localized_survival_curve"
    m[lsc + ".s"] = s(lsc)
    m[lsc + ".self_s"] = s(lsc, "self_s")
    m["tailest.tilts"] = counts["tailest.tilts"]
    m["tailest.plain_survival.s"] = s("tailest.plain_survival")
    m["tailest.fit_tail.s"] = s("tailest.fit_tail")
    m["tailest.fit_tail.calls"] = counts["tailest.fit_tail.calls"]
    m["tailest.window_rel_se"] = m["tailest.exceed_ratio"] = 0.0
    surv, rec = cap.get("survival"), cap.get("record")
    if surv is not None and rec is not None and "window_lo" in rec.metrics:
        lo, hi = rec.metrics["window_lo"], rec.metrics["window_hi"]
        keep = (surv.ts >= lo) & (surv.ts <= hi) & (surv.phat > 0)
        m["tailest.window_rel_se"] = float(
            np.median(surv.stderr[keep] / surv.phat[keep]))
        entry = min(int(np.searchsorted(surv.ts, lo)), surv.ts.size - 1)
        m["tailest.exceed_ratio"] = ratio(
            float(surv.n_exceed[entry]), counts["tailest.tilted_replicas"])
    m["tailest.estimate_constant_radial.s"] = \
        s("tailest.estimate_constant_radial")
    m["tailest.radial_constant_curve.s"] = s("tailest.radial_constant_curve")

    m["radial.sampler_init.s"] = s("radial.sampler_init")
    m["radial.lateral.min_eigenvalue"] = cap.get("min_eigenvalue", 0.0)
    m["radial.lateral.sample.s"] = s("radial.lateral.sample")
    m["radial.lateral.node_draws"] = counts["radial.lateral.node_draws"]
    m["radial.lateral.ns_per_node"] = 1e9 * ratio(
        s("radial.lateral.sample"), counts["radial.lateral.node_draws"])
    m["radial.lateral.useful_ratio"] = cap.get("useful_ratio", 0.0)
    m["radial.sample_conditioned_path.s"] = s("radial.sample_conditioned_path")
    m["radial.path_steps"] = counts["radial.path_steps"]
    m["radial.ns_per_path_step"] = 1e9 * ratio(
        s("radial.sample_conditioned_path"), counts["radial.path_steps"])
    m["radial.compute_I.s"] = s("radial.compute_I")
    m["radial.compute_I.calls"] = counts["radial.compute_I.calls"]
    m["radial.sample_joint.self_s"] = s("radial.sample_joint", "self_s")
    rel = np.concatenate(cap["trunc_rel"]) if "trunc_rel" in cap \
        else np.zeros(1)
    m["radial.trunc_rel_p99"] = float(np.quantile(rel, 0.99))
    m["radial.trunc_rel_max"] = float(rel.max())
    m["radial.trunc_over_1e-3"] = int(np.sum(rel > 1e-3))

    m["expcli.run.self_s"] = s("expcli.run", "self_s")
    m["expcli.emit_plotdata.s"] = s("expcli.emit_plotdata")
    m["expcli.bytes_written"] = counts["expcli.bytes_written"]

    total_self = sum(a["self_s"] for a in agg.values())
    m["unattributed_s"] = traced_wall - total_self
    m["traced_wall_s"] = traced_wall
    m["trace_overhead"] = traced_wall / wall_s - 1.0
    m["failed_ratio"] = failed_ratio
    return m


def git_sha():
    """Commit of the checkout; None if it is not a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance():
    src = os.path.join(ROOT, "src", "gmclab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "GMCLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def emit(values: dict, spec: list) -> dict:
    """Metrics named in BENCHMARK.json, with their units, in its order."""
    missing = [d["name"] for d in spec if d["name"] not in values]
    extra = sorted(set(values) - {d["name"] for d in spec})
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"missing {missing}, unlisted {extra}")
    return {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
            for d in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wl = WORKLOADS[args.workload]

    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    warm_up(wl, args.run_dir)
    walls, setups, outs, reps, attempted, failed = measure(
        wl, args.seed, args.seconds, args.run_dir)
    if not walls:
        print("error: no repetition succeeded", file=sys.stderr)
        return 1
    rel_se, pooled_problems = wl.summarize(outs)
    for p in pooled_problems:
        print(f"pooled check failed: {p}", file=sys.stderr)
    wall_s = statistics.median(walls)
    e2e = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "s_to_1pct": wall_s * (rel_se / 0.01) ** 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    info = {"rel_se": rel_se, "reps": len(walls),
            "failed_ratio": failed / attempted}

    if args.trace:
        trace_seed = args.seed * REP_STRIDE + TRACE_REP
        tracer, traced_wall, problems = traced_rep(wl, trace_seed,
                                                   args.run_dir)
        reps.append({"seed": trace_seed, "traced": True,
                     "wall_s": traced_wall, "problems": problems})
        attempted += 1
        if problems:
            print(f"traced repetition failed its check: {'; '.join(problems)}",
                  file=sys.stderr)
            failed += 1
        rates = micro.run(gm)
        values = layer_metrics(tracer, traced_wall, wall_s, rates,
                               failed / attempted)
        metrics = emit(values, bench["per_layer"])
    else:
        metrics = emit(e2e, bench["end_to_end"])

    result = {"correct": failed == 0 and not pooled_problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(args.run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "provenance": prov, "info": info,
                   "end_to_end": e2e, "reps": reps,
                   "pooled_problems": pooled_problems, "result": result},
                  fh, indent=1)
    for key, val in info.items():
        print(f"{args.workload} {key} = {val:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
