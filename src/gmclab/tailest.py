"""Tail-probability estimation and the two routes to the tail constant.

The survival probability P[mu_H(Q_r) > t] decays like C t^{-2/gamma^2}.  Two
independent estimates of the constant live here:

1. the boundary-localization importance sampler: tilting by the boundary GMC
   mass turns the tail probability into

       P[mu_H(Q_r) > t] = sum_j seg_len E[ 1{mu_H(X + s_j) > t}
                                           / mu_bdy(X + s_j) ],

   with s_j the exact discrete Girsanov drift toward boundary midpoint v_j
   (this identity is exact for the cell-regularized Gaussian vector), fitted
   by weighted least squares on the log-log survival curve.  The drifts are
   deterministic, so every field draw is tilted toward all midpoints at once
   and contributes the sum over j; the replicas are streamed in chunks, in
   one block of streams per midpoint so that memory stays bounded, and the
   standard error comes from the per-replica sums because the tilts of one
   draw are correlated;

2. the radial route: 2r (1 - gamma^2/4) E[I_H(inf)^{2/gamma^2} / I_bdy(inf)],
   a Monte Carlo mean with finite expectation but possibly infinite variance,
   reported with bootstrap intervals and a trimmed-mean companion.

The radial estimators (this constant, its finite-t curve and the quotient
moments) read draws: the caller's one ``RadialSampler.sample_joint`` result.

Grid masses localized at a boundary point v come from ``tilted_masses``:
one streamed pass of the fields, with the tilt toward v folded into the
mass weights, gives the masses of every requested region.  The rho-scan of
the localized quotient, the locality-gap diagnostic and quotient-moments'
grid half read them.

Quotient moments, the rho-scaling exponent
zeta_tilde(p; q) = (2 - gamma^2/2)(p - q/2) - gamma^2 (p - q/2)^2, and the
feasibility systems for the proof-parameter windows round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gmc
from .errors import (ConfigInvalid, DegenerateWindow, EmptySample,
                     GeometryViolation, Infeasible, QuadratureUnstable)
from .fieldsim import (CovFactor, Grid, build_cov, build_grid,
                       map_field_chunks, shift_vector)
from .gmc import GmcParams
from .radial import localized_masses
from .rng import chunk_sizes, stream_generator

# radial-constant bootstrap resamples (drawn and averaged BOOT_ROWS at a
# time) and trimmed upper fraction
N_BOOT = 400
BOOT_ROWS = 16
TRIM = 1e-3
# quotient_rho_scan: geometrically similar grids with r = R_OVER_RHO * rho
RHO_SCAN_N_BULK = 24
RHO_SCAN_N_BDY = 25  # odd, so that v = 0 is a segment midpoint
R_OVER_RHO = 1.25


# --- survival curves ----------------------------------------------------------

def survival_curve(samples, ts):
    """Empirical survival P[X > t] with binomial standard errors.

    Returns a list of (t, phat, stderr); stderr is zero (flagged boundary)
    where phat hits 0 or 1 exactly.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EmptySample("survival_curve needs at least one sample")
    ts = np.asarray(ts, dtype=float)
    if ts.size > 1 and np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be strictly increasing")
    srt = np.sort(samples)
    n = samples.size
    exceed = n - np.searchsorted(srt, ts, side="right")
    phat = exceed / n
    se = np.sqrt(phat * (1.0 - phat) / n)
    return [(float(t), float(p), float(s)) for t, p, s in zip(ts, phat, se)]


@dataclass(frozen=True)
class WeightedSurvival:
    """Importance-sampled survival estimates on a t-grid."""

    ts: np.ndarray
    phat: np.ndarray
    stderr: np.ndarray
    n_exceed: np.ndarray  # raw exceedance counts across all tilted draws


# --- tail fits -----------------------------------------------------------------

@dataclass(frozen=True)
class TailFit:
    """Fitted tail P ~ constant * t^{-exponent} over [t_min, t_max]."""

    exponent: float
    constant: float
    stderr_exponent: float


def _wls_loglog(xs, ys, ses):
    """Weighted least-squares line ln y = intercept + slope ln x.

    The weights (y / se)^2 are the inverse variances of ln y.  Returns
    (slope, intercept, slope stderr).
    """
    x = np.log(xs)
    y = np.log(ys)
    w = (ys / ses) ** 2
    sw = w.sum()
    xb = (w * x).sum() / sw
    yb = (w * y).sum() / sw
    sxx = (w * (x - xb) ** 2).sum()
    slope = (w * (x - xb) * (y - yb)).sum() / sxx
    return slope, yb - slope * xb, np.sqrt(1.0 / sxx)


def fit_tail(curve: WeightedSurvival, window) -> TailFit:
    """Fit exponent and constant of a power tail by log-log WLS.

    Points of the survival ``curve`` inside ``window`` with 0 < phat < 1
    and stderr > 0 enter the fit.  The exponent is reported positive:
    P ~ constant * t^{-exponent}.
    """
    t_min, t_max = window
    if not t_min < t_max:
        raise DegenerateWindow(f"empty window {window}")
    ts, ps, ses = curve.ts, curve.phat, curve.stderr
    keep = (ts >= t_min) & (ts <= t_max) & (ps > 0.0) & (ps < 1.0) & (ses > 0.0)
    if keep.sum() < 8:
        raise DegenerateWindow(
            f"only {int(keep.sum())} usable curve points in window {window}")
    slope, inter, se_slope = _wls_loglog(ts[keep], ps[keep], ses[keep])
    return TailFit(exponent=float(-slope), constant=float(np.exp(inter)),
                   stderr_exponent=float(se_slope))


def fixed_exponent_constant(curve: WeightedSurvival, exponent: float, window):
    """Constant of P ~ c t^{-exponent} with the exponent pinned.

    Weighted mean of phat * t^exponent over the window; the anchored constant
    is what cross-route comparisons use (a free-exponent fit leaks exponent
    error through the window's distance from t = 1).

    The returned spread is max(noise floor, weighted scatter of
    phat * t^exponent over the window).  When the curve bends across the
    window the scatter term dominates, and it then measures that curvature,
    not Monte Carlo noise, so it is not a sampling error bar.
    """
    t_min, t_max = window
    keep = (curve.ts >= t_min) & (curve.ts <= t_max) & (curve.phat > 0) \
        & (curve.stderr > 0)
    if keep.sum() < 2:
        raise DegenerateWindow(f"no usable points in window {window}")
    vals = curve.phat[keep] * curve.ts[keep] ** exponent
    ses = curve.stderr[keep] * curve.ts[keep] ** exponent
    w = 1.0 / ses ** 2
    c = float((w * vals).sum() / w.sum())
    # curve points share the same draws, so the pure-noise floor 1/sum(w) is
    # optimistic; fold in the weighted scatter of the anchored values, which
    # also picks up curvature away from a clean power law
    scatter = float(np.sqrt((w * (vals - c) ** 2).sum() / w.sum()))
    se = float(max(np.sqrt(1.0 / w.sum()), scatter))
    return c, se


# --- boundary-localization importance sampler ----------------------------------

def _sum_above(a: np.ndarray, axis: int) -> np.ndarray:
    """Reverse cumulative sum: entry k holds the sum of entries k, k+1, ..."""
    return np.flip(np.cumsum(np.flip(a, axis), axis=axis), axis)


def localized_survival_curve(params: GmcParams, grid: Grid, factor: CovFactor,
                             ts, n_per_point: int, seed: int) -> WeightedSurvival:
    """Importance-sampled survival curve of mu_H(Q_r) on a t-grid.

    The tilts s_j are deterministic, so one field draw serves all of them:
    each of the ``n_bdy * n_per_point`` replicas X is tilted toward every
    boundary midpoint v_j and contributes

        Y(t) = sum_j 1{mu_H(X + s_j) > t} / mu_bdy(X + s_j),

    and phat(t) = seg_len * mean(Y(t)).  Replica block j (``n_per_point``
    replicas) draws from the streams of tilt j, in one ``map_field_chunks``
    call per block.  The blocks bound memory: ``map_field_chunks`` returns
    every chunk's result before they are reduced, and each result holds an
    (n_t + 1)^2 Gram matrix (30 kB at 60 t-values), so one call over all
    replicas would hold the Gram matrices of every chunk at once.  Measured
    on a 2-core x86_64 VM with perfbench's grid-tail workload, such a call
    raised the peak resident memory from 73.6-74.4 MB to 78.9-79.6 MB;
    per-replica sums in place of the Gram matrix kept memory flat but
    raised the wall time from 1.60-2.01 s to 1.89-2.75 s.

    The tilts of one replica are correlated, so the standard error is
    seg_len * sd(Y) / sqrt(replicas), taken over replicas.  ``n_exceed``
    counts the replicas with at least one tilt above t.  Exact in
    expectation for every t simultaneously (same draws reused across t),
    and nonincreasing in t.  Fields are streamed in chunks and the tilts
    fold into the mass weights (``gmc.MassWeights``); no (dim, replicas)
    array is built.
    """
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(ts, kind="stable")
    t_sorted = ts[order]
    n_t = ts.size
    shifts = np.column_stack([shift_vector(factor, grid, float(v),
                                           params.gamma / 2.0)
                              for v in grid.bdy_centers])
    masses = gmc.MassWeights(factor, grid, params, shifts,
                             [gmc.region_all_bulk(grid)],
                             [gmc.region_all_bdy(grid)])

    def chunk_sums(x):
        (mb,), (md,) = masses(x)  # (n_bdy, size) each
        size = x.shape[1]
        # tilt (j, r) lies above t_k exactly for k < b, its bin
        # b = searchsorted(t, mb[j, r]); replica r then has
        # Y_r(t_k) = sum over b > k of w[r, b].  Tilts at or below the
        # smallest t sit in bin 0 and add to no Y_r(t_k).
        hit = np.flatnonzero(mb > t_sorted[0])
        bins = np.searchsorted(t_sorted, mb.ravel()[hit], side="left")
        flat = bins + (n_t + 1) * (hit % size)
        w = np.bincount(flat, weights=1.0 / md.ravel()[hit],
                        minlength=size * (n_t + 1)).reshape(size, n_t + 1)
        top = np.bincount(np.searchsorted(t_sorted, mb.max(axis=0),
                                          side="left"), minlength=n_t + 1)
        return w.sum(axis=0), w.T @ w, top

    w_sum = np.zeros(n_t + 1)
    gram = np.zeros((n_t + 1, n_t + 1))
    top = np.zeros(n_t + 1, dtype=np.int64)
    for j in range(grid.n_bdy):
        for a, b, c in map_field_chunks(factor, seed, n_per_point, chunk_sums,
                                        stream_offset=j * (1 << 32)):
            w_sum += a
            gram += b
            top += c
    n = grid.n_bdy * n_per_point
    mean = _sum_above(w_sum, 0)[1:] / n
    y2 = np.diag(_sum_above(_sum_above(gram, 0), 1))[1:]  # sum_r Y_r(t_k)^2
    var = np.maximum(y2 / n - mean ** 2, 0.0) / n
    n_exc = _sum_above(top, 0)[1:]
    inv = np.empty_like(order)
    inv[order] = np.arange(n_t)
    return WeightedSurvival(ts=ts, phat=grid.seg_len * mean[inv],
                            stderr=grid.seg_len * np.sqrt(var)[inv],
                            n_exceed=n_exc[inv])


def plain_survival(params: GmcParams, grid: Grid, factor: CovFactor,
                   ts, N: int, seed: int):
    """Plain Monte Carlo survival of mu_H(Q_r) (the baseline estimator)."""
    region = gmc.region_all_bulk(grid)
    mb = np.concatenate(map_field_chunks(
        factor, seed, N,
        lambda x: gmc.bulk_mass(x, factor, grid, params, region)))
    return survival_curve(mb, ts), mb


# --- radial-route constant ------------------------------------------------------

def tail_constant_prefactor(gamma: float, r: float) -> float:
    """2r (1 - gamma^2/4), the deterministic factor of the tail constant."""
    return 2.0 * r * (1.0 - gamma ** 2 / 4.0)


@dataclass(frozen=True)
class ConstantEstimate:
    """Radial-route tail constant with heavy-tail-aware uncertainty.

    ``max_trunc_rel`` and ``mean_trunc_rel`` summarize, over the draws, the
    larger of the relative truncation bounds of I_H(inf) and I_bdy(inf)."""

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    trimmed_estimate: float
    n: int
    max_trunc_rel: float
    mean_trunc_rel: float


def estimate_constant_radial(params: GmcParams, N: int, seed: int,
                             draws: dict) -> ConstantEstimate:
    """Monte Carlo estimate of C = 2r (1-gamma^2/4) E[IH(inf)^{2/g^2}/Ibdy(inf)].

    ``draws`` are N draws from ``RadialSampler.sample_joint``; a different
    draw count raises ``ValueError``.  The integrand has finite
    mean but infinite variance near gamma = 1, so a bootstrap percentile
    interval (``N_BOOT`` resamples) and a trimmed mean (upper ``TRIM``
    fraction removed) accompany the plain average.
    """
    g = params.gamma
    if draws["IH_inf"].size != N:
        raise ValueError(f"N={N} but draws hold {draws['IH_inf'].size} samples")
    q = draws["IH_inf"] ** (2.0 / g ** 2) / draws["Ibdy_inf"]
    pref = tail_constant_prefactor(g, params.r)
    est = pref * float(q.mean())
    se = pref * float(q.std(ddof=1) / np.sqrt(N))
    # row blocks read the stream exactly as one (N_BOOT, N) draw would
    rng = stream_generator(seed, 2 ** 33)
    boot = pref * np.concatenate([
        q[rng.integers(0, N, size=(k, N))].mean(axis=1)
        for k in chunk_sizes(N_BOOT, BOOT_ROWS)])
    lo, hi = np.quantile(boot, [0.025, 0.975])
    cut = np.quantile(q, 1.0 - TRIM)
    trimmed = pref * float(q[q <= cut].mean())
    # Q divides by I_bdy too, so a draw's truncation error is the larger of
    # its two relative bounds
    rel = np.maximum(draws["bound_H"] / np.maximum(draws["IH_inf"], 1e-300),
                     draws["bound_bdy"] / np.maximum(draws["Ibdy_inf"], 1e-300))
    return ConstantEstimate(estimate=est, stderr=se, ci_low=float(lo),
                            ci_high=float(hi), trimmed_estimate=trimmed,
                            n=N, max_trunc_rel=float(rel.max()),
                            mean_trunc_rel=float(rel.mean()))


def radial_constant_curve(params: GmcParams, ts, seed: int, draws: dict):
    """Finite-t constant curve c(t) = 2r t^{2/g^2} E[1{mass > t}/bdy mass]
    from the radial representation of the measures localized to the
    half-disk of radius rho = r (``radial.localized_masses``, which draws
    N_rho from ``seed`` and needs 0 < r < 1).

    ``draws`` must come from ``sample_joint(..., want_truncated=True)``.  The
    curve rises toward the asymptotic tail constant as t grows; evaluated at
    the t-window of a grid fit, it makes the two routes comparable at matched
    scales.  Returns rows of (t, c(t), stderr).
    """
    g = params.gamma
    num, den = localized_masses(g, params.r, seed, draws)
    inv = 1.0 / den
    rows = []
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        vals = inv * (num > t)
        scale = 2.0 * params.r * t ** (2.0 / g ** 2)
        rows.append((float(t), scale * float(vals.mean()),
                     scale * float(vals.std(ddof=1) / np.sqrt(num.size))))
    return rows


# --- measures localized at a boundary point ---------------------------------------

def tilted_masses(params: GmcParams, grid: Grid, factor: CovFactor, v: float,
                  bulk_regions, bdy_regions, N: int, seed: int):
    """Masses of N fields tilted toward the boundary midpoint v.

    The tilt is the exact discrete Girsanov drift s = shift_vector(factor,
    grid, v, gamma/2), so these are the masses localized at v (see ``gmc``).
    It is folded into the weights of one ``gmc.MassWeights`` over all the
    regions, and fields are streamed in chunks from ``seed``.  Returns
    (bulk, bdy): one (N,) array per region of ``bulk_regions`` (bulk mass)
    and of ``bdy_regions`` (boundary mass), all from the same N fields.
    """
    masses = gmc.MassWeights(
        factor, grid, params,
        shift_vector(factor, grid, v, params.gamma / 2.0)[:, None],
        bulk_regions, bdy_regions)
    bulk, bdy = zip(*map_field_chunks(factor, seed, N, masses))
    return (list(np.concatenate(bulk, axis=-1)[:, 0]),
            list(np.concatenate(bdy, axis=-1)[:, 0]))


# --- quotient moments -------------------------------------------------------------

def zeta_tilde(p: float, q: float, gamma: float) -> float:
    """rho-scaling exponent (2 - g^2/2)(p - q/2) - g^2 (p - q/2)^2."""
    u = p - q / 2.0
    return (2.0 - gamma ** 2 / 2.0) * u - gamma ** 2 * u * u


def quotient_finite_predicted(p: float, q: float, gamma: float) -> bool:
    """Admissible window p < min(2/g^2 + q/2, 4/g^2) for E[IH^p / Ibdy^q]."""
    return p < min(2.0 / gamma ** 2 + q / 2.0, 4.0 / gamma ** 2)


@dataclass(frozen=True)
class QuotientMomentEstimate:
    p: float
    q: float
    estimate: float
    stderr: float
    n: int
    finite_predicted: bool
    running_mean: np.ndarray


def radial_quotient_moment(p: float, q: float, gamma: float,
                           draws: dict) -> QuotientMomentEstimate:
    """MC estimate of E[IH(inf)^p / Ibdy(inf)^q] over the ``sample_joint``
    ``draws``, with the running mean over the draws as the divergence
    diagnostic."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    vals = draws["IH_inf"] ** p / draws["Ibdy_inf"] ** q
    return QuotientMomentEstimate(
        p=p, q=q, estimate=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(vals.size)),
        n=int(vals.size),
        finite_predicted=quotient_finite_predicted(p, q, gamma),
        running_mean=np.cumsum(vals) / np.arange(1, vals.size + 1))


def quotient_rho_scan(gamma: float, p: float, q: float, rhos: Sequence[float],
                      N: int, seed: int):
    """log-log slope of the localized ball quotient against rho.

    At each rho the quotient is E[mu^H_0(A)^p / mu^bdy_0(I)^q], with A and I
    the half-disk and interval of radius rho at v = 0 and the measures those
    of the field tilted toward v = 0 (``tilted_masses``).  The tilt is the
    exact Girsanov drift only at a segment midpoint, so the segment count
    ``RHO_SCAN_N_BDY`` is odd.  Each rho runs on its own geometrically
    similar grid (r = R_OVER_RHO rho, fixed node counts), so the exact scale
    invariance of the kernel makes discretization bias a common factor and
    the fitted slope converges to zeta_tilde(p; q).  The 1.25 ratio keeps
    the largest cube inside the region where the log kernel stays positive
    definite.  Returns (slope, slope_stderr, rows) with rows of (rho,
    estimate, stderr).
    """
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    rows = []
    for i, rho in enumerate(rhos):
        grid = build_grid(R_OVER_RHO * rho, RHO_SCAN_N_BULK, RHO_SCAN_N_BDY)
        (num,), (den,) = tilted_masses(
            GmcParams(gamma=gamma, r=R_OVER_RHO * rho), grid, build_cov(grid),
            0.0, [gmc.region_halfdisk_bulk(grid, 0.0, rho)],
            [gmc.region_interval_bdy(grid, -rho, rho)], N, seed + i)
        vals = num ** p / den ** q
        rows.append((float(rho), float(vals.mean()),
                     float(vals.std(ddof=1) / np.sqrt(vals.size))))
    slope, _, se_slope = _wls_loglog(*np.array(rows).T)
    return float(slope), float(se_slope), rows


# --- locality gap ------------------------------------------------------------------

def locality_gap(params: GmcParams, grid: Grid, factor: CovFactor, v: float,
                 rho: float, quantiles, N: int, seed: int):
    """Paired MC estimate of the full-vs-local localized-tail difference.

    gap(t) = E[1{mu^H_v(Q_r) > t}/mu^bdy_v(I_r)]
           - E[1{mu^H_v(Q(v,rho)) > t}/mu^bdy_v(I(v,rho))]

    under the field tilted at v, from one pass over N fields; returns one
    row (t, gap, gap_stderr, local_term) per entry of ``quantiles``.  Each t
    is that quantile of the full-cube mass mu^H_v(Q_r) read from the same
    pass, so t depends on the draws it is tested against; that adds a bias
    of order 1/N to the gap.  The |gap| / local-term ratio should fall as t
    climbs the tail.
    """
    if not 2.0 * rho < min(grid.r - v, v + grid.r):
        raise GeometryViolation(
            f"need 2 rho < min(r - v, v + r); got rho={rho}, v={v}, r={grid.r}")
    (full, near), (full_d, near_d) = tilted_masses(
        params, grid, factor, v,
        [gmc.region_all_bulk(grid), gmc.region_halfdisk_bulk(grid, v, rho)],
        [gmc.region_all_bdy(grid),
         gmc.region_interval_bdy(grid, v - rho, v + rho)], N, seed)
    rows = []
    for t in np.quantile(full, quantiles):
        b = (near > t) / near_d
        diff = (full > t) / full_d - b
        rows.append((float(t), float(diff.mean()),
                     float(diff.std(ddof=1) / np.sqrt(N)), float(b.mean())))
    return rows


# --- perturbed-kernel factor ---------------------------------------------------------

def perturbed_constant_factor(g_diag, r: float, gamma: float) -> float:
    """integral over [-r, r] of exp((2/gamma^2 - 1) g(v, v)) dv.

    Multiplies the exact-scaling tail constant for Neumann kernels with a
    bounded perturbation g.
    """
    # imported here, its only use: scipy.integrate adds about 19 MB of
    # resident memory to every process that imports gmclab
    from scipy import integrate
    expo = 2.0 / gamma ** 2 - 1.0
    val, err = integrate.quad(lambda v: np.exp(expo * g_diag(v)), -r, r,
                              epsabs=1e-10, epsrel=1e-10, limit=200)
    if err > max(1e-8, 1e-6 * abs(val)):
        raise QuadratureUnstable(f"quad error {err:.2e} too large")
    return float(val)


# --- feasibility systems ---------------------------------------------------------------

EQ16 = "eq16"
EQ20 = "eq20"


@dataclass(frozen=True)
class FeasibleParams:
    """A strict-inequality witness for one of the proof-parameter systems."""

    p: float
    eta: float
    delta: float
    dp: float
    system: str
    slack: float


def _check_eq16(gamma, p, eta, delta, dp):
    thr = 2.0 / gamma ** 2
    cons = [p - thr, thr + dp - p, eta - delta, delta,
            p * (1.0 - eta) - thr - delta]
    return min(cons)


def _check_eq20(gamma, p, eta, delta, dp):
    thr = 2.0 / gamma ** 2
    upper = min(thr + dp, thr + 0.5, 4.0 / gamma ** 2)
    cons = [p - thr, upper - p, delta, 1.0 - eta, eta,
            p * (1.0 - eta) - thr * (1.0 - eta) - delta,
            eta * (thr + 0.5) - thr - delta]
    return min(cons)


_SYSTEMS = {EQ16: _check_eq16, EQ20: _check_eq20}
FEASIBLE_MIN_SLACK = 1e-9  # strict inequalities, up to rounding


def verify_feasible(gamma: float, fp: FeasibleParams) -> bool:
    """Independent re-check: every inequality of fp's system holds with at
    least ``FEASIBLE_MIN_SLACK`` to spare."""
    checker = _SYSTEMS.get(fp.system)
    if checker is None:
        raise ConfigInvalid(f"unknown system {fp.system!r}")
    return checker(gamma, fp.p, fp.eta, fp.delta, fp.dp) >= FEASIBLE_MIN_SLACK


def feasible_params(gamma: float, system: str) -> FeasibleParams:
    """Search a witness for the named parameter system.

    p sits a relative 1e-3 above the threshold 2/gamma^2, eta comes from the
    binding constraint, and delta takes half the remaining slack; the returned
    witness always passes ``verify_feasible``.
    """
    if not (0.0 < gamma < 2.0):
        raise ValueError("gamma must lie in (0, 2)")
    if system not in _SYSTEMS:
        raise ConfigInvalid(f"unknown system {system!r}; "
                            f"expected one of {sorted(_SYSTEMS)}")
    thr = 2.0 / gamma ** 2
    p = thr * (1.0 + 1e-3)
    dp = 2.0 * (p - thr)
    if system == EQ16:
        # p(1 - eta) > thr + delta needs eta below (p - thr)/p
        eta = 0.5 * (p - thr) / p
        delta = 0.5 * min(eta, p * (1.0 - eta) - thr)
    else:
        # eta slightly below 1, bounded below by the last constraint
        eta_min = thr / (thr + 0.5)
        eta = 0.5 * (eta_min + 1.0)
        delta = 0.5 * min((p - thr) * (1.0 - eta),
                          eta * (thr + 0.5) - thr)
    fp = FeasibleParams(p=float(p), eta=float(eta), delta=float(delta),
                        dp=float(dp), system=system,
                        slack=float(_SYSTEMS[system](gamma, p, eta, delta, dp)))
    if not verify_feasible(gamma, fp):
        raise Infeasible(
            f"no witness found for {system} at gamma={gamma} (slack "
            f"{fp.slack:.3e}); this signals a bug or a degenerate corner")
    return fp
