"""Experiment runner: configuration, dispatch, persistence, CSV plot data.

Every experiment is a pure function of (config, seed): re-running an identical
configuration reproduces every metric bit-exactly, including under worker
parallelism (fixed chunk-to-stream mapping, fixed-order reductions).  Results
land in an output directory as

    record.json   -- config echo (all defaults materialized), metrics map,
                     artifact list, wall time, code version, pass flag
    <name>.csv    -- tidy curves; survival curves use columns t,phat,stderr,
                     generic series use series,x,y,yerr

The command-line entry point exposes one subcommand per experiment with
``--config <json>``, ``--seed``, ``--out``, ``--threads`` overrides; the
process exits 0 iff every hard assertion of the experiment passed.  Thread
count defaults to the GMCLAB_THREADS environment variable (single-threaded
when unset).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import __version__ as code_version
from . import gmc, kernels, radial, tailest
from .errors import (ConfigInvalid, DegenerateWindow, GmclabError,
                     InvalidRho, IoFailure)
from .fieldsim import (MAX_DENSE_NODES, build_cov, build_grid,
                       map_field_chunks, shift_vector)
from .gmc import GmcParams
from .radial import DriftSpec, RadialConfig, RadialSampler
from .rng import stream_generator

STABILITY_WINDOWS = 8  # sliding half-decade windows of the tail-fit scan
WINDOW_P_ENTRY = 5e-3  # survival level where the tail-fit window may start

@dataclass
class ExperimentConfig:
    """Everything an experiment run depends on, with explicit defaults."""

    experiment: str = "max-law"
    gamma: float = 1.0
    r: float = 0.5
    n_bulk: int = 16
    n_bdy: int = 32
    radial_T: Optional[float] = None
    radial_ds: float = 0.1
    radial_n_theta: int = 32
    N: int = 100_000
    seed: int = 20_250_101
    t_grid: Optional[list] = None
    output_dir: str = "results"
    # experiment-specific knobs (all defaults are materialized into records)
    g_const: float = 0.5          # perturbed-g: constant g value
    rho: float = 0.25             # quotient-moments: localization radius
    rho_list: Optional[list] = None   # zeta-scaling sweep
    p_moment: float = 1.0
    q_moment: float = 1.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(f"unknown experiment {self.experiment!r}; "
                                f"choose from {EXPERIMENTS}")
        if not (0.0 < self.gamma < 2.0):
            raise ConfigInvalid(f"gamma must lie in (0, 2), got {self.gamma}")
        if self.r <= 0 or self.N <= 0 or self.n_bulk < 1 or self.n_bdy < 1:
            raise ConfigInvalid("r, N, n_bulk, n_bdy must be positive")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigInvalid("seed must fit in a u64")
        if not (self.radial_ds > 0 and self.radial_n_theta >= 2
                and (self.radial_T is None or self.radial_T > 0)):
            raise ConfigInvalid("need radial_ds > 0, radial_n_theta >= 2 "
                                "and radial_T null or > 0")
        if not (self.p_moment >= 0 and self.q_moment >= 0):
            raise ConfigInvalid("p_moment and q_moment must be >= 0")
        rhos = self.rho_list
        if rhos is not None and not (
                isinstance(rhos, list)
                and all(isinstance(r, (int, float)) and r > 0 for r in rhos)
                and len(set(rhos)) >= 2):
            raise ConfigInvalid("rho_list must be null or hold at least two "
                                "distinct positive values")

    def radial_config(self) -> RadialConfig:
        return RadialConfig(T=self.radial_T, ds=self.radial_ds,
                            n_theta=self.radial_n_theta)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
        return cls(**payload)

    def config_hash(self) -> str:
        canon = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class ResultRecord:
    """What a run produced; serialized next to its CSV artifacts."""

    config_hash: str
    experiment: str
    config: dict
    metrics: dict
    artifacts: list
    wall_time: float
    code_version: str
    passed: bool

    def validate(self):
        for key, val in self.metrics.items():
            if isinstance(val, bool):
                continue
            if isinstance(val, (int, float)) and not np.isfinite(val):
                if not key.endswith("_divergent_diag"):
                    raise IoFailure(
                        f"metric {key} is non-finite and not tagged "
                        "as a divergence diagnostic")


def emit_plotdata(curves: dict, out_dir: str) -> list:
    """Write tidy CSVs; survival curves get t,phat,stderr, the rest
    series,x,y,yerr.  Values carry 17 significant digits so a re-parse
    recovers them exactly."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    try:
        for name, rows in curves.items():
            path = os.path.join(out_dir, f"{name}.csv")
            survival_like = name.startswith("survival")
            header = "t,phat,stderr" if survival_like else "series,x,y,yerr"
            with open(path, "w") as fh:
                fh.write(header + "\n")
                for row in rows:
                    if survival_like:
                        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
                    else:
                        series, x, y, yerr = row
                        fh.write(f"{series},{x:.17g},{y:.17g},{yerr:.17g}\n")
            paths.append(path)
    except OSError as exc:
        raise IoFailure(f"could not write plot data: {exc}") from exc
    return paths


# --- experiment implementations ------------------------------------------------

def _exp_validate_kernels(cfg: ExperimentConfig):
    metrics, curves = {}, {}
    pairs = [(0.25, 0.5), (0.25, 1.0), (0.5, 2.0), (1.0, 2.0)]
    worst = 0.0
    rows = []
    for s, t in pairs:
        # raises QuadratureUnstable when the n and n/2 rules differ by > 1e-6
        q = kernels.quadrature_cov(s, t, 2048, tol=1e-6)
        err = abs(q - kernels.semicircle_avg_cov(s, t))
        worst = max(worst, err)
        rows.append(("quadrature_error", s * 10 + t, err, 0.0))
    metrics["semicircle_max_abs_err"] = worst
    rng = stream_generator(cfg.seed, 0)
    worst_shift = 0.0
    for _ in range(1000):
        t1, t2 = rng.random(2) * 3.0
        th1, th2 = rng.random(2) * np.pi
        c = 1.7
        a = kernels.eval_lateral(t1, th1, t2 + 0.01, th2)
        b = kernels.eval_lateral(t1 + c, th1, t2 + 0.01 + c, th2)
        worst_shift = max(worst_shift, abs(a - b))
    metrics["lateral_stationarity_max_err"] = worst_shift
    za = abs(kernels.lateral_avg_quadrature(0.3, 1.1, 512))
    zb = abs(kernels.lateral_avg_quadrature(0.05, 2.4, 512))
    metrics["lateral_zero_average_max"] = max(za, zb)
    passed = (worst <= 1e-6 and worst_shift <= 1e-12
              and metrics["lateral_zero_average_max"] <= 1e-5)
    curves["diagnostic"] = rows
    return metrics, curves, passed


def _joined(parts):
    """Per-chunk tuples of per-replica arrays, joined into one array each."""
    return [np.concatenate(p) for p in zip(*parts)]


def _exp_validate_girsanov(cfg: ExperimentConfig):
    """Two-estimator Girsanov check plus exact renormalization means."""
    grid = build_grid(cfg.r, min(cfg.n_bulk, 6), min(cfg.n_bdy, 12))
    factor = build_cov(grid)
    metrics, curves = {}, {}
    passed = True
    j = grid.n_bdy // 2
    v = float(grid.bdy_centers[j])
    node = grid.n_bulk_cells + j
    all_bdy = gmc.region_all_bdy(grid)
    couplings = (cfg.gamma, 1.5)
    pars = [GmcParams(gamma=g, r=cfg.r) for g in couplings]
    # boundary masses of X + s_v, the drift folded into the mass weights
    shifted_masses = [gmc.MassWeights(
        factor, grid, p, shift_vector(factor, grid, v, p.gamma / 2.0)[:, None],
        [], [all_bdy]) for p in pars]

    def likelihood_ratio(x, g):
        # e^{c X_v - c^2/2 Var X_v} of the tilt toward v with charge c = g/2
        c = g / 2.0
        return np.exp(c * x[node] - 0.5 * c ** 2 * factor.diag_var[node])

    # one batch per estimator serves both couplings: f(X) reweighted by the
    # likelihood ratio, and f(X + s_v), with the boundary-mass functional
    # f = e^{-mass}: bounded, smooth, and defined for every gamma < 2 (bulk
    # weights would diverge from sqrt(2) on)
    reweighted = _joined(map_field_chunks(
        factor, cfg.seed + 1, cfg.N,
        lambda x: [np.exp(-gmc.bdy_mass(x, factor, grid, p, all_bdy))
                   * likelihood_ratio(x, p.gamma) for p in pars]))
    shifted = _joined(map_field_chunks(
        factor, cfg.seed + 2, cfg.N,
        lambda x: [np.exp(-m(x)[1][0, 0]) for m in shifted_masses]))
    for tag, g, fa, fb in zip("ab", couplings, reweighted, shifted):
        est_a, se_a = fa.mean(), fa.std(ddof=1) / np.sqrt(cfg.N)
        est_b, se_b = fb.mean(), fb.std(ddof=1) / np.sqrt(cfg.N)
        z = (est_a - est_b) / np.hypot(se_a, se_b)
        metrics[f"girsanov_z_{tag}_gamma={g}"] = float(z)
        passed = passed and abs(z) <= 3.0
    grid = build_grid(cfg.r, min(cfg.n_bulk, 8), min(cfg.n_bdy, 16))
    factor = build_cov(grid)
    params = GmcParams(gamma=cfg.gamma, r=cfg.r)
    mb, md = _joined(map_field_chunks(
        factor, cfg.seed + 3, cfg.N,
        lambda x: (gmc.bulk_mass(x, factor, grid, params,
                                 gmc.region_all_bulk(grid)),
                   gmc.bdy_mass(x, factor, grid, params,
                                gmc.region_all_bdy(grid)))))
    target_b = float(gmc.bulk_weights(grid, params).sum())
    zb = (mb.mean() - target_b) / (mb.std(ddof=1) / np.sqrt(cfg.N))
    zd = (md.mean() - 2 * cfg.r) / (md.std(ddof=1) / np.sqrt(cfg.N))
    metrics["bulk_mean"] = float(mb.mean())
    metrics["bulk_mean_target"] = target_b
    metrics["bulk_mean_z"] = float(zb)
    metrics["bdy_mean_z"] = float(zd)
    passed = passed and abs(zb) <= 3.0 and abs(zd) <= 3.0
    return metrics, curves, passed


def _exp_max_law(cfg: ExperimentConfig):
    from scipy import stats
    spec = DriftSpec(cfg.gamma)
    n = max(cfg.N, 1_000_000)
    m = radial.sample_max(spec, cfg.seed, n=n)
    ks = stats.kstest(m, "expon", args=(0.0, 1.0 / spec.alpha)).statistic
    m_std = radial.sample_max_standard(1.0, cfg.seed + 1, n=n)
    p_emp = float(np.mean(np.exp(m_std) > 2.0))
    se = np.sqrt(0.25 * 0.75 / n)
    z = (p_emp - 0.25) / se
    # footnote identity: E[e^{-gM/2} 1{e^{gM} C > t}] = (1-g^2/4) C^{2/g^2} t^{-2/g^2}
    metrics = {"ks_distance": float(ks), "unit_tail_prob": p_emp,
               "unit_tail_z": float(z)}
    passed = ks <= 0.002 and abs(z) <= 3.0
    rows = []
    for g in (cfg.gamma, np.sqrt(2.0)):
        mg = radial.sample_max(DriftSpec(g), cfg.seed + 2, n=n)
        for ratio in (2.0, 10.0):
            est = np.exp(-g * mg / 2.0) * (np.exp(g * mg) > ratio)
            target = (1.0 - g * g / 4.0) * ratio ** (-2.0 / g ** 2)
            zf = (est.mean() - target) / (est.std(ddof=1) / np.sqrt(n))
            rows.append(("footnote", g * 100 + ratio, float(est.mean()),
                         float(est.std(ddof=1) / np.sqrt(n))))
            metrics[f"footnote_z_g={g:.3f}_t={ratio:g}"] = float(zf)
            passed = passed and abs(zf) <= 3.0
    return metrics, {"diagnostic": rows}, passed


def window_from_curve(curve: tailest.WeightedSurvival, mb_plain):
    """Default fit window for the asymptotic-tail exponent.

    Lower edge: past the 95th percentile of plain masses AND where the
    importance-sampled survival has dropped below ``WINDOW_P_ENTRY`` (the
    power law is an asymptotic statement; the pre-asymptotic shoulder with
    P ~ 1e-2 biases the slope well outside its error bars at desk
    resolution).  Upper edge: the last t where at least 50
    importance-sampler replicas have a tilt above t, capped at 1.75 decades
    above the lower edge.  The sliding-window stability scan is the honesty
    check on this choice.
    """
    t_lo = float(np.quantile(mb_plain, 0.95))
    deep = curve.ts[curve.phat <= WINDOW_P_ENTRY]
    if deep.size:
        t_lo = max(t_lo, float(deep.min()))
    good = curve.ts[curve.n_exceed >= 50]
    t_hi = float(good.max()) if good.size else float(curve.ts[-1])
    # fit over at most ~1.75 decades: far deeper the discrete field leaves the
    # continuum power law (single-cell lognormal regime steepens the slope)
    t_hi = min(t_hi, t_lo * 10.0 ** 1.75)
    return t_lo, t_hi


@dataclass(frozen=True)
class _TailFitRun:
    """What tail-fit, constant-two-route and perturbed-g share; ``metrics``
    and ``passed`` are tail-fit's record."""

    params: GmcParams
    curve: tailest.WeightedSurvival
    window: tuple
    metrics: dict
    passed: bool
    curves: dict


def _tail_fit_run(cfg: ExperimentConfig,
                  g: Optional[Callable] = None) -> _TailFitRun:
    """Shared machinery of tail-fit, constant-two-route and perturbed-g;
    ``g`` perturbs the kernel as in ``fieldsim.build_cov``."""
    grid = build_grid(cfg.r, cfg.n_bulk, cfg.n_bdy)
    factor = build_cov(grid, g)
    params = GmcParams(gamma=cfg.gamma, r=cfg.r)
    n_cal = min(cfg.N, 20000)
    _, mb_plain = tailest.plain_survival(params, grid, factor, [1.0], n_cal,
                                         cfg.seed + 999)
    if cfg.t_grid:
        ts = np.asarray(cfg.t_grid, dtype=float)
    else:
        t0 = np.quantile(mb_plain, 0.90)
        ts = np.geomspace(t0, t0 * 3000.0, 60)
    curve = tailest.localized_survival_curve(params, grid, factor, ts,
                                             cfg.N, cfg.seed)
    window = window_from_curve(curve, mb_plain)
    fit = tailest.fit_tail(curve, window)
    target = 2.0 / cfg.gamma ** 2
    c_anchor, c_se = tailest.fixed_exponent_constant(curve, target, window)
    # exact E[M^2] and its single-cell share: how far the grid is from the
    # continuum, with no Monte Carlo
    m2, m2_diag_share = gmc.bulk_second_moment(grid, params, g)
    # window-stability scan: sliding half-decade windows
    rows, stab = [], []
    lo, hi = np.log(window[0]), np.log(window[1])
    for a in np.linspace(lo, hi - np.log(10.0) / 2, STABILITY_WINDOWS):
        wnd = (float(np.exp(a)), float(np.exp(a + np.log(10.0) / 2)))
        try:
            f = tailest.fit_tail(curve, wnd)
            stab.append(f.exponent)
            rows.append(("window_exponent", np.sqrt(wnd[0] * wnd[1]),
                         f.exponent, f.stderr_exponent))
        except DegenerateWindow:  # too few curve points in this window
            pass
    metrics = {
        "exponent": fit.exponent,
        "exponent_stderr": fit.stderr_exponent,
        "exponent_target": target,
        "constant_free_fit": fit.constant,
        # exponent pinned to 2/g^2; its spread is not a sampling SE
        "constant_anchored": c_anchor,
        "constant_anchored_stderr": c_se,
        "window_lo": window[0],
        "window_hi": window[1],
        "stability_windows_skipped": STABILITY_WINDOWS - len(stab),
        "n_calibration_draws": n_cal,
        "second_moment": m2,
        "second_moment_diag_share": m2_diag_share,
    }
    if stab:  # with every window skipped there is no range to report
        metrics["stability_min"] = float(min(stab))
        metrics["stability_max"] = float(max(stab))
    tol = 0.15 if abs(cfg.gamma - 1.0) < 1e-9 else 0.20
    plateau_ok = bool(stab) and (min(stab) - 0.1 <= target <= max(stab) + 0.1)
    metrics["plateau_contains_target"] = plateau_ok
    curves = {
        "survival_is": list(zip(curve.ts, curve.phat, curve.stderr)),
        "fit_stability": rows,
    }
    return _TailFitRun(params=params, curve=curve, window=window,
                       metrics=metrics,
                       passed=abs(fit.exponent - target) <= tol and plateau_ok,
                       curves=curves)


def _exp_tail_fit(cfg: ExperimentConfig):
    run = _tail_fit_run(cfg)
    return run.metrics, run.curves, run.passed


def _exp_constant_two_route(cfg: ExperimentConfig):
    run = _tail_fit_run(cfg)
    params, curve, window = run.params, run.curve, run.window
    c_anchor = run.metrics["constant_anchored"]
    c_se = run.metrics["constant_anchored_stderr"]
    sampler = RadialSampler(cfg.gamma, cfg.radial_config())
    draws = sampler.sample_joint(cfg.seed + 7, cfg.N, want_truncated=True)
    est = tailest.estimate_constant_radial(params, cfg.N, cfg.seed + 7,
                                           draws=draws)
    rel = abs(c_anchor - est.estimate) / est.estimate
    overlap = (min(c_anchor + 3 * c_se, est.ci_high)
               >= max(c_anchor - 3 * c_se, est.ci_low))
    # matched-scale diagnostic: the radial finite-t constant curve at the
    # grid window quantifies how far the asymptote is from desk-scale t
    t_probe = [window[0], float(np.sqrt(window[0] * window[1])), window[1]]
    matched = tailest.radial_constant_curve(params, t_probe, cfg.seed + 8,
                                            draws)
    c_grid_entry, _ = tailest.fixed_exponent_constant(
        curve, 2.0 / cfg.gamma ** 2, (window[0], 3.0 * window[0]))
    matched_gap = abs(c_grid_entry - matched[0][1]) \
        / max(matched[0][1], 1e-300)
    # grid c(t) = t^{2/g^2} P(t) at the window midpoint, log-t interpolated
    # between curve points, to set beside the radial c(t) there
    scale = curve.ts ** (2.0 / cfg.gamma ** 2)
    log_mid, log_ts = np.log(t_probe[1]), np.log(curve.ts)
    c_grid_mid = float(np.interp(log_mid, log_ts, curve.phat * scale))
    c_grid_mid_se = float(np.interp(log_mid, log_ts, curve.stderr * scale))
    # the grid half is a tail-fit run: its record carries tail-fit's metrics
    metrics = {
        **run.metrics,
        "constant_radial": est.estimate,
        "constant_radial_stderr": est.stderr,
        "constant_radial_ci_low": est.ci_low,
        "constant_radial_ci_high": est.ci_high,
        "constant_radial_trimmed": est.trimmed_estimate,
        "relative_gap": float(rel),
        "max_truncation_rel": est.max_trunc_rel,
        "mean_truncation_rel": est.mean_trunc_rel,
        "radial_c_at_window_lo": matched[0][1],
        "window_mid": t_probe[1],
        "radial_c_at_window_mid": matched[1][1],
        "radial_c_at_window_mid_stderr": matched[1][2],
        "grid_c_at_window_mid": c_grid_mid,
        "grid_c_at_window_mid_stderr": c_grid_mid_se,
        "radial_c_at_window_hi": matched[2][1],
        "grid_c_at_window_entry": c_grid_entry,
        "matched_t_relative_gap": float(matched_gap),
    }
    curves = {**run.curves, "radial_constant_curve": [
        ("c_of_t", t, c, s) for t, c, s in matched]}
    passed = rel <= 0.30 or overlap
    metrics["intervals_overlap"] = bool(overlap)
    return metrics, curves, passed


def _exp_quotient_moments(cfg: ExperimentConfig):
    rho = cfg.rho
    if rho > cfg.r:
        raise InvalidRho(f"rho={rho} exceeds the cube half-width r={cfg.r}")
    # one radial draw feeds the eq-11 moment and both window diagnostics
    draws = RadialSampler(cfg.gamma, cfg.radial_config()).sample_joint(
        cfg.seed, cfg.N, want_truncated=True)
    # Eq-11 cross-check: E[mu_H_0(Q(0,rho))^0.3] by both routes
    mass_rad = radial.localized_masses(cfg.gamma, rho, cfg.seed, draws)[0]
    mom_rad = float((mass_rad ** 0.3).mean())
    se_rad = float((mass_rad ** 0.3).std(ddof=1) / np.sqrt(mass_rad.size))
    # odd segment count puts v = 0 on a midpoint, where the tilt is exact
    n_bulk = min(int(np.sqrt(MAX_DENSE_NODES - (cfg.n_bdy | 1))), 48)
    grid = build_grid(rho, n_bulk, max(cfg.n_bdy, n_bulk) | 1)
    n_grid = min(cfg.N, 30000)
    (loc,), _ = tailest.tilted_masses(
        GmcParams(gamma=cfg.gamma, r=rho), grid, build_cov(grid), 0.0,
        [gmc.region_halfdisk_bulk(grid, 0.0, rho)], [], n_grid, cfg.seed + 5)
    mom_grid = float((loc ** 0.3).mean())
    se_grid = float((loc ** 0.3).std(ddof=1) / np.sqrt(n_grid))
    rel = abs(mom_rad - mom_grid) / mom_grid
    # quotient-moment window diagnostics (running means); 2 p_in lies inside
    # the window of E[IH^{2p} / Ibdy^{2q}], so the inside estimate has finite
    # variance and a meaningful stderr
    q_in = 1.0
    p_in = 0.98 * min(2.0 / cfg.gamma ** 2 + q_in, 4.0 / cfg.gamma ** 2) / 2.0
    est_in = tailest.radial_quotient_moment(p_in, q_in, cfg.gamma, draws)
    p_out = min(2.0 / cfg.gamma ** 2 + q_in / 2.0, 4.0 / cfg.gamma ** 2) * 1.2
    est_out = tailest.radial_quotient_moment(p_out, q_in, cfg.gamma, draws)
    step = max(1, est_in.running_mean.size // 200)
    curves = {"running_mean": (
        [("inside_window", float(i), float(v), 0.0)
         for i, v in enumerate(est_in.running_mean[::step])]
        + [("outside_window", float(i), float(v), 0.0)
           for i, v in enumerate(est_out.running_mean[::step])])}
    # feasibility witnesses ride along (cheap, parameter-window artifacts)
    feas_ok = True
    for g in (0.5, 1.0, np.sqrt(2.0), 1.8):
        for system in (tailest.EQ16, tailest.EQ20):
            fp = tailest.feasible_params(g, system)
            feas_ok = feas_ok and tailest.verify_feasible(g, fp)
    metrics = {
        "eq11_moment_radial": mom_rad,
        "eq11_moment_radial_stderr": se_rad,
        "eq11_moment_grid": mom_grid,
        "eq11_moment_grid_stderr": se_grid,
        "n_grid_draws": n_grid,
        "eq11_relative_gap": float(rel),
        "inside_window_p": p_in,
        "inside_window_estimate": est_in.estimate,
        "inside_window_estimate_stderr": est_in.stderr,
        "inside_window_finite_predicted": est_in.finite_predicted,
        "outside_window_finite_predicted": est_out.finite_predicted,
        "outside_window_estimate_divergent_diag": est_out.estimate,
        "feasibility_all_verified": bool(feas_ok),
    }
    passed = rel <= 0.15 and feas_ok and est_in.finite_predicted \
        and not est_out.finite_predicted
    return metrics, curves, passed


def _exp_zeta_scaling(cfg: ExperimentConfig):
    rhos = [0.05, 0.1, 0.2, 0.4] if cfg.rho_list is None else cfg.rho_list
    n_grid = min(cfg.N, 30000)
    slope, se, rows = tailest.quotient_rho_scan(
        cfg.gamma, cfg.p_moment, cfg.q_moment, rhos, n_grid, cfg.seed)
    target = tailest.zeta_tilde(cfg.p_moment, cfg.q_moment, cfg.gamma)
    metrics = {"slope": slope, "slope_stderr": se, "zeta_tilde": target,
               "abs_gap": abs(slope - target), "n_grid_draws": n_grid}
    curves = {"rho_scan": [("quotient", r, v, s) for r, v, s in rows]}
    return metrics, curves, abs(slope - target) <= 0.2


def _exp_perturbed_g(cfg: ExperimentConfig):
    c = cfg.g_const
    exact = _tail_fit_run(cfg)

    def g_const(z, w):
        shape = np.broadcast(np.asarray(z)[..., 0], np.asarray(w)[..., 0]).shape
        return np.full(shape, c)

    perturbed = _tail_fit_run(cfg, g=g_const)
    c0 = exact.metrics["constant_anchored"]
    c1 = perturbed.metrics["constant_anchored"]
    ratio = c1 / c0
    target = float(np.exp((2.0 / cfg.gamma ** 2 - 1.0) * c))
    rel = abs(ratio - target) / target
    factor_quad = tailest.perturbed_constant_factor(lambda v: c, cfg.r,
                                                    cfg.gamma) / (2.0 * cfg.r)
    metrics = {
        "constant_exact_kernel": c0,
        "constant_perturbed_kernel": c1,
        "constant_ratio": float(ratio),
        "ratio_target": target,
        "relative_gap": float(rel),
        "quadrature_factor_per_length": float(factor_quad),
        "exponent_exact": exact.metrics["exponent"],
        "exponent_perturbed": perturbed.metrics["exponent"],
        "n_calibration_draws": exact.metrics["n_calibration_draws"],
    }
    for run, kind in ((exact, "exact"), (perturbed, "perturbed")):
        for key in ("second_moment", "second_moment_diag_share"):
            metrics[f"{key}_{kind}_kernel"] = run.metrics[key]
    curves = {"survival_is": exact.curves["survival_is"],
              "survival_is_perturbed": perturbed.curves["survival_is"]}
    return metrics, curves, rel <= 0.25


def _exp_locality_gap(cfg: ExperimentConfig):
    # odd segment count puts v = 0 exactly on a midpoint, so the tilt is the
    # exact discrete Girsanov column
    grid = build_grid(cfg.r, cfg.n_bulk, cfg.n_bdy | 1)
    factor = build_cov(grid)
    params = GmcParams(gamma=cfg.gamma, r=cfg.r)
    quants = (0.5, 0.9, 0.99)
    gaps = tailest.locality_gap(params, grid, factor, 0.0, cfg.r / 4.0, quants,
                                cfg.N, cfg.seed)
    ratios, rows = [], []
    for quant, (_, gap, se, local) in zip(quants, gaps):
        ratio = abs(gap) / local
        ratios.append(ratio)
        rows.append(("gap_ratio", quant, ratio, se / local))
    metrics = {"ratio_q50": ratios[0], "ratio_q90": ratios[1],
               "ratio_q99": ratios[2]}
    passed = ratios[0] > ratios[1] > ratios[2]
    return metrics, {"gap_trend": rows}, passed


_DISPATCH: dict[str, Callable] = {
    "validate-kernels": _exp_validate_kernels,
    "validate-girsanov": _exp_validate_girsanov,
    "max-law": _exp_max_law,
    "tail-fit": _exp_tail_fit,
    "constant-two-route": _exp_constant_two_route,
    "quotient-moments": _exp_quotient_moments,
    "zeta-scaling": _exp_zeta_scaling,
    "perturbed-g": _exp_perturbed_g,
    "locality-gap": _exp_locality_gap,
}
EXPERIMENTS = tuple(_DISPATCH)  # subcommand names, in this order


def run(config: ExperimentConfig) -> ResultRecord:
    """Dispatch an experiment, write record.json and CSV curves, return the
    record.  Identical (config, seed) reproduce identical metrics."""
    t0 = time.perf_counter()
    metrics, curves, passed = _DISPATCH[config.experiment](config)
    wall = time.perf_counter() - t0
    record = ResultRecord(
        config_hash=config.config_hash(),
        experiment=config.experiment,
        config=dataclasses.asdict(config),
        metrics=metrics,
        artifacts=[],
        wall_time=wall,
        code_version=code_version,
        passed=bool(passed),
    )
    record.validate()
    out_dir = os.path.join(config.output_dir,
                           f"{config.experiment}-{record.config_hash}")
    record.artifacts = emit_plotdata(curves, out_dir)
    try:
        with open(os.path.join(out_dir, "record.json"), "w") as fh:
            json.dump(dataclasses.asdict(record), fh, indent=2, sort_keys=True,
                      default=float)
    except OSError as exc:
        raise IoFailure(f"could not write record: {exc}") from exc
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gmclab",
        description="Monte Carlo experiments on boundary-singular GMC tails")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (defaults otherwise)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    if args.threads is not None:
        os.environ["GMCLAB_THREADS"] = str(args.threads)
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json(fh.read())
            cfg = dataclasses.replace(cfg, experiment=args.experiment)
        else:
            cfg = ExperimentConfig(experiment=args.experiment)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        record = run(cfg)
    except GmclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key in sorted(record.metrics):
        print(f"{key} = {record.metrics[key]}")
    print(f"passed = {record.passed} (wall {record.wall_time:.1f}s)")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
