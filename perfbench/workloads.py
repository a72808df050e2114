"""The three benchmark workloads, their output checks and precision statistics.

Each workload drives gmclab through its public entry points.  One repetition
(``rep``) is a complete, independent run at a seed; the worker repeats it for
the measured interval and pools the repetitions for the statistics below.

Precision statistic ``rel_se``: the relative standard error of one
repetition's main estimate, which turns wall time into time to accuracy,
``s_to_1pct = wall_s * (rel_se / 0.01)^2``.  It has to be steady across seeds,
or time to accuracy moves by luck:

- grid-tail: median of stderr/phat over the tail-fit window, averaged over
  repetitions as a variance (root mean square);
- radial-constant and fine-grid: the relative standard error of the mean of
  the upper-1e-2-trimmed sample (radial quotient, bulk mass), computed on the
  pooled repetitions and scaled back to one repetition.  Both samples are
  heavy-tailed (the radial quotient has infinite variance at gamma = 1), so
  the plain or 1e-3-trimmed standard errors swing too much between seeds.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

GAMMA = 1.0
R = 0.5
TRIM_REL_SE = 1e-2
# chance alarm of one pooled z-check is about 6e-5 at 4 sigma; at 3 sigma
# (criterion 03) the few dozen checks of a full benchmark round would raise
# a false failure in about one round out of ten
Z_MAX = 4.0

# grid-tail: the acceptance geometry of tail-fit (16 x 16 + 32 = 288 nodes)
GRID_TAIL_N = 10_000

# radial-constant: the radial defaults of constant-two-route at gamma = 1
RADIAL_N = 4096
RADIAL_T = 16.0
RADIAL_DS = 0.1
RADIAL_N_THETA = 32
RADIAL_EPS = 1e-3
# a typical grid-tail fit window at gamma = 1 (entry, middle, exit)
RADIAL_T_PROBE = (27.0, 150.0, 820.0)
# mean and standard deviation of the per-repetition trimmed constant
# (estimate_constant_radial, N = 4096, trim 1e-3) over 32 repetitions at
# seeds 2**62 + j, from `python3 perfbench/reference.py`
RADIAL_TRIMMED_REF = (4.1683, 0.1584)
RADIAL_TRIMMED_REF_REPS = 32

# fine-grid: 60 x 60 + 120 = 3720 nodes, just under MAX_DENSE_NODES
FINE_N_BULK = 60
FINE_N_BDY = 120
FINE_N = 4096


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    rep: Callable          # (gm, seed, out_dir, n) -> outputs dict
    check_rep: Callable    # outputs -> list of problems
    summarize: Callable    # list of outputs -> (rel_se, list of problems)
    n: int                 # replicas (draws) per measured repetition
    # replicas of the warm-up repetition: the full geometry and chunk shapes
    # of a measured one, at a fraction of its cost
    warm_n: int
    # builds the reusable state on its own, for workloads whose rep cannot
    # time its set-up (None: the rep reports "setup_s" itself)
    setup: Optional[Callable] = None


def _trimmed_rel_se(x: np.ndarray, trim: float) -> float:
    cut = np.quantile(x, 1.0 - trim)
    kept = x[x <= cut]
    return float(kept.std(ddof=1) / np.sqrt(kept.size) / kept.mean())


def _finite_positive(name, x, problems, allow_zero=False):
    x = np.asarray(x, dtype=float)
    ok = np.all(np.isfinite(x)) and (np.all(x >= 0) if allow_zero
                                     else np.all(x > 0))
    if not ok:
        problems.append(f"{name} has non-finite or non-positive entries")


# --- grid-tail ---------------------------------------------------------------

def _grid_tail_setup(gm):
    grid = gm.fieldsim.build_grid(R, 16, 32)
    gm.fieldsim.build_cov(grid)


def _grid_tail_rep(gm, seed, out_dir, n):
    cfg = gm.expcli.ExperimentConfig(
        experiment="tail-fit", gamma=GAMMA, r=R, n_bulk=16, n_bdy=32,
        N=n, seed=seed, output_dir=out_dir)
    rec = gm.expcli.run(cfg)
    lo, hi = rec.metrics["window_lo"], rec.metrics["window_hi"]
    path = os.path.join(out_dir, f"tail-fit-{rec.config_hash}",
                        "survival_is.csv")
    with open(path) as fh:
        rows = [(float(r["t"]), float(r["phat"]), float(r["stderr"]))
                for r in csv.DictReader(fh)]
    ratios = [s / p for t, p, s in rows if lo <= t <= hi and p > 0]
    return {"passed": rec.passed, "exponent": rec.metrics["exponent"],
            "window": (lo, hi),
            "rel_se": float(np.median(ratios)) if ratios else float("nan")}


def _grid_tail_check(out):
    problems = []
    if not out["passed"]:
        problems.append(f"tail-fit did not pass (exponent {out['exponent']})")
    if not (np.isfinite(out["rel_se"]) and out["rel_se"] > 0):
        problems.append("no usable survival points in the fit window")
    return problems


def _grid_tail_summary(outs):
    return float(np.sqrt(np.mean([o["rel_se"] ** 2 for o in outs]))), []


# --- radial-constant ---------------------------------------------------------

def _radial_config(gm):
    return gm.radial.RadialConfig(T=RADIAL_T, ds=RADIAL_DS,
                                  n_theta=RADIAL_N_THETA, eps=RADIAL_EPS)


def _radial_rep(gm, seed, out_dir, n):
    params = gm.gmc.GmcParams(gamma=GAMMA, r=R)
    t0 = time.perf_counter()
    sampler = gm.radial.RadialSampler(GAMMA, _radial_config(gm))
    setup_s = time.perf_counter() - t0
    draws = sampler.sample_joint(seed, n, want_truncated=True)
    est = gm.tailest.estimate_constant_radial(params, n, seed,
                                              draws=draws)
    curve = gm.tailest.radial_constant_curve(params, RADIAL_T_PROBE, seed,
                                             draws)
    return {"setup_s": setup_s, "draws": draws, "est": est, "curve": curve,
            "q": draws["IH_inf"] ** (2.0 / GAMMA ** 2) / draws["Ibdy_inf"]}


def _radial_check(out):
    problems = []
    d, est = out["draws"], out["est"]
    for key in ("IH_inf", "Ibdy_inf", "IH_M", "Ibdy_M"):
        _finite_positive(key, d[key], problems)
    _finite_positive("M", d["M"], problems, allow_zero=True)
    for key in ("bound_H", "bound_bdy"):
        if not np.all(np.isfinite(d[key])):
            problems.append(f"{key} has non-finite truncation bounds")
    _finite_positive("constant estimate",
                     [est.estimate, est.stderr, est.ci_low, est.ci_high,
                      est.trimmed_estimate], problems)
    _finite_positive("constant curve", [c for _, c, _ in out["curve"]],
                     problems, allow_zero=True)
    _finite_positive("constant curve stderr", [s for _, _, s in out["curve"]],
                     problems, allow_zero=True)
    return problems


def _radial_summary(outs):
    q = np.concatenate([o["q"] for o in outs])
    rel_se = _trimmed_rel_se(q, TRIM_REL_SE) * np.sqrt(len(outs))
    trimmed = np.array([o["est"].trimmed_estimate for o in outs])
    ref, ref_sd = RADIAL_TRIMMED_REF
    se = ref_sd * np.sqrt(1.0 / len(outs) + 1.0 / RADIAL_TRIMMED_REF_REPS)
    z = (trimmed.mean() - ref) / se
    problems = []
    if abs(z) > Z_MAX:
        problems.append(f"trimmed constant {trimmed.mean():.4f} is {z:.1f} "
                        f"sigma from the reference {ref}")
    return rel_se, problems


# --- fine-grid ---------------------------------------------------------------

def _fine_rep(gm, seed, out_dir, n):
    params = gm.gmc.GmcParams(gamma=GAMMA, r=R)
    t0 = time.perf_counter()
    grid = gm.fieldsim.build_grid(R, FINE_N_BULK, FINE_N_BDY)
    factor = gm.fieldsim.build_cov(grid)
    setup_s = time.perf_counter() - t0
    # the bulk of the plain mass law (mean 2) and its near tail
    ts = np.geomspace(0.5, 50.0, 25)
    curve, mb = gm.tailest.plain_survival(params, grid, factor, ts, n, seed)
    x = gm.fieldsim.sample_field_batch(factor, seed, n,
                                       stream_offset=1 << 32)
    md = gm.gmc.bdy_mass(x, factor, grid, params, gm.gmc.region_all_bdy(grid))
    return {"setup_s": setup_s, "mb": mb, "md": md,
            "phat": np.array([p for _, p, _ in curve]),
            "bulk_target": float(gm.gmc.bulk_weights(grid, params).sum()),
            "bdy_target": 2.0 * R}


def _fine_check(out):
    problems = []
    _finite_positive("bulk mass", out["mb"], problems)
    _finite_positive("boundary mass", out["md"], problems)
    p = out["phat"]
    if np.any(p < 0) or np.any(p > 1) or np.any(np.diff(p) > 0):
        problems.append("plain survival curve is not a survival function")
    return problems


def _fine_summary(outs):
    mb = np.concatenate([o["mb"] for o in outs])
    md = np.concatenate([o["md"] for o in outs])
    problems = []
    # exact renormalization: E[bulk] = sum of cell weights, E[bdy] = 2r
    for name, x, target in (("bulk", mb, outs[0]["bulk_target"]),
                            ("boundary", md, outs[0]["bdy_target"])):
        z = (x.mean() - target) / (x.std(ddof=1) / np.sqrt(x.size))
        if abs(z) > Z_MAX:
            problems.append(f"E[{name} mass] = {x.mean():.5f} is {z:.1f} "
                            f"sigma from {target:.5f}")
    return _trimmed_rel_se(mb, TRIM_REL_SE) * np.sqrt(len(outs)), problems


WORKLOADS = {
    "grid-tail": Workload(_grid_tail_rep, _grid_tail_check, _grid_tail_summary,
                          n=GRID_TAIL_N, warm_n=2048, setup=_grid_tail_setup),
    "radial-constant": Workload(_radial_rep, _radial_check, _radial_summary,
                                n=RADIAL_N, warm_n=128),
    "fine-grid": Workload(_fine_rep, _fine_check, _fine_summary,
                          n=FINE_N, warm_n=256),
}
