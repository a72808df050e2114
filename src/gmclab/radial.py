"""Radial decomposition samplers: maximum law, conditioned paths, lateral
densities, and the integrals behind the second route to the tail constant.

Around a boundary point the log-correlated field splits into an independent
Brownian motion in log-radius s plus a stationary lateral noise Y on the
semicircle cylinder.  The drifted motion sqrt(2) B_s - (2/gamma - gamma/2) s
has maximum M ~ Exponential(2/gamma - gamma/2), and conditionally on M the
path decomposes at its argmax into two independent halves conditioned to stay
negative (Williams).  The radial route assembles

    I_H(x)   = int_{-L_{-x}}^{inf} e^{gamma B_s} Z_H(s) ds,
    I_bdy(x) = int_{-L_{-x}}^{inf} e^{gamma/2 B_s} Z_bdy(s) ds,

with L_{-x} the last time the left half hits -x, Z_H the (sin theta)^{-gamma^2/2}
weighted lateral GMC density and Z_bdy the two boundary-ray densities.

Samplers:

- M by exact inverse-CDF on one Philox stream (so the maximum law is
  machine-exact); ``sample_max``, ``sample_max_standard`` and the joint
  sampler share this one exponential draw;
- conditioned-negative paths exactly on the grid, as -sqrt(2) times the
  norm of a 3-d Brownian motion with drift lambda / sqrt(2) (Rogers & Pitman
  1981): cumulative sums of Gaussian increments, started at the maximum
  itself (the Williams start) or at a given depth;
- the lateral field as its first ``n_theta`` cosine modes, independent
  Ornstein-Uhlenbeck processes in s, each sampled exactly on the slices by
  an AR(1) recursion, so the covariance is PSD by construction; the
  diagonal variances are the mode sums, so every renormalized exponential
  has mean one exactly.  Its float32 normals come from
  ``rng.fill_normal32`` (Box-Muller on raw Philox words), one mode's
  (n_s, n) block per call; the path normals stay numpy's float64 ziggurat.

Everything is batched: a batch of n draws holds paths and densities as
(n_s, n) arrays, one column per draw.  ``compute_I`` integrates a batch of
``williams_concatenate`` paths against ``LateralModel.sample`` densities
once per side and reads the suffix sums at every requested cutoff, so I(x)
at several cutoffs costs one integrand pass; ``RadialSampler.sample_joint``
reads I(infinity) and, on request, I(M) per draw from that one pass.

Estimators read draws: ``localized_masses`` and the radial estimators of
``tailest`` take the result of one ``sample_joint`` call made by the caller.

``sample_joint`` is the only place that cuts draws into chunks: each chunk
of ``RADIAL_CHUNK`` draws reads four Philox streams of its own (see
``RadialSampler``).  Below it, each sampler draws the whole batch it is asked
for from the one stream it is given: a lateral batch of n draws reads
n_theta blocks of ceil(n_s n / 2) words, one block per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betainc

from .errors import IndexMismatch, InvalidRho
from .gmc import sin_power_integral
from .rng import chunk_sizes, fill_normal32, stream_generator

EZ_BDY = 2.0  # E[Z_bdy(s)]: two unit-mean boundary rays
# draws per chunk of ``RadialSampler.sample_joint``; chunk c reads streams
# 4c to 4c + 3.  A chunk's lateral normals and field, which becomes its own
# exponentials, peak at 85 kB per draw at n_theta = 32 and 321 slices
# (tracemalloc over one chunk), so peak memory grows with it
RADIAL_CHUNK = 256


@dataclass(frozen=True)
class DriftSpec:
    """Coupling gamma and the drift rate of the comparison process.

    The radial process is sqrt(2) B_s - alpha s with alpha = 2/gamma - gamma/2
    (positive throughout gamma in (0, 2)); its maximum is Exponential(alpha).
    """

    gamma: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 2.0):
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")

    @property
    def alpha(self) -> float:
        return 2.0 / self.gamma - self.gamma / 2.0


# --- maximum law -------------------------------------------------------------

def _exp_draw(rate: float, seed: int, stream: int, n: int) -> np.ndarray:
    """n Exponential(rate) draws by inverse CDF on the Philox uniforms of
    ``(seed, stream)``: exact in law and a pure function of the stream."""
    u = stream_generator(seed, stream).random(n)
    return -np.log1p(-u) / rate


def sample_max(spec: DriftSpec, seed: int, n: int) -> np.ndarray:
    """n maxima of the radial drifted motion: Exponential(2/gamma - gamma/2).

    Inverse-CDF on Philox uniforms, so the law is exact and the draw is a pure
    function of the seed.  P[e^{gamma M} > t] = t^{-(2/gamma^2 - 1/2)}.
    """
    return _exp_draw(spec.alpha, seed, 0, n)


def sample_max_standard(alpha: float, seed: int, n: int) -> np.ndarray:
    """n maxima of the unit-variance drifted motion B_s - alpha s: Exp(2 alpha).

    The helper for the textbook identity P[e^M > t] = t^{-2 alpha}.
    """
    if alpha <= 0:
        raise ValueError("drift alpha must be positive")
    return _exp_draw(2.0 * alpha, seed, 0, n)


# --- conditioned-negative paths ----------------------------------------------

def _entrance_points(rng: np.random.Generator, mu: float, r0: float,
                     n: int) -> np.ndarray:
    """(3, n) starting points at radius r0 of the 3-d motion with drift
    mu e_1, from the Rogers-Pitman entrance law: von Mises-Fisher with mean
    e_1 and concentration kappa = mu r0, drawn from n uniforms for the cosine
    w (density prop. to e^{kappa w} on [-1, 1]) and n for the azimuth."""
    if r0 == 0.0:
        return np.zeros((3, n))
    kappa = mu * r0
    # inverse CDF of w, written so that large kappa cannot overflow
    w = 1.0 + np.log1p(rng.random(n) * np.expm1(-2.0 * kappa)) / kappa
    phi = 2.0 * np.pi * rng.random(n)
    perp = r0 * np.sqrt(np.maximum(1.0 - w * w, 0.0))
    return np.stack([r0 * w, perp * np.cos(phi), perp * np.sin(phi)])


def sample_conditioned_path(spec: DriftSpec, T: float, ds: float, eps: float,
                            seed: int, n_paths: int = 1, stream: int = 0):
    """Paths of the drifted motion conditioned to stay below zero.

    Returns ``(times, paths)`` with times k*ds for k = 0..T/ds and paths of
    shape (n_paths, len(times)); every path starts at depth ``eps >= 0`` and
    stays <= 0.  The law is exact on the grid (Rogers & Pitman 1981): with
    mu = lambda / sqrt(2), sqrt(2) B_s - lambda s conditioned to stay negative
    is -sqrt(2) |W_s + mu s e_1| for a 3-d Brownian motion W.  ``eps = 0`` is
    the Williams start at the maximum (W_0 = 0); for eps > 0, W_0 is drawn at
    radius eps / sqrt(2) by ``_entrance_points``.

    All paths come from Philox stream ``(seed, stream)``: for eps > 0 first
    n_paths uniforms for the entrance cosine and n_paths for its azimuth,
    then (n_paths, T/ds) normals for each of the three coordinates of W in
    turn.
    """
    if eps < 0.0:
        raise ValueError(f"start depth eps must be >= 0, got {eps}")
    if T <= 0 or ds <= 0 or ds > T:
        raise ValueError("need 0 < ds <= T")
    mu = spec.alpha / np.sqrt(2.0)
    n_steps = int(round(T / ds))
    rng = stream_generator(seed, stream)
    start = _entrance_points(rng, mu, eps / np.sqrt(2.0), n_paths)
    paths = np.zeros((n_paths, n_steps + 1))
    paths[:, 0] -= eps
    sq = paths[:, 1:]
    # |W_s + mu s e_1|^2 accumulates one coordinate at a time into the path
    # columns, so beyond the output only one scratch array is held
    coord = np.empty((n_paths, n_steps))
    for i, drift in enumerate((mu * ds, 0.0, 0.0)):
        rng.standard_normal(out=coord)
        coord *= np.sqrt(ds)
        coord += drift
        coord[:, 0] += start[i]
        np.cumsum(coord, axis=1, out=coord)
        coord *= coord
        sq += coord
    np.sqrt(sq, out=sq)
    sq *= -np.sqrt(2.0)
    times = ds * np.arange(n_steps + 1)
    return times, paths


# --- two-sided path ----------------------------------------------------------

@dataclass(frozen=True)
class TwoSidedPath:
    """A batch of conditioned-negative profiles around the maximum.

    ``b`` of shape (grid length, batch) holds B_s <= 0 on the symmetric grid
    ``s`` (descent for s >= 0, time-reversed ascent for s < 0); ``M`` holds
    the batch's maxima, so M + b is the drifted-motion picture attaining max
    M at s = 0.
    """

    s: np.ndarray
    b: np.ndarray
    M: np.ndarray

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])


def williams_concatenate(M: np.ndarray, descent,
                         reversed_ascent) -> TwoSidedPath:
    """Glue descent paths (s >= 0) and reversed ascents (s < 0).

    Both inputs are ``(times, paths)`` pairs from ``sample_conditioned_path``
    with matching batches; halves started at eps = 0 make the
    concatenation attain its maximum M exactly at s = 0.  The cutoff -L_{-M}
    is recovered later from the left half as its last visit above -M.
    """
    t_d, p_d = descent
    t_a, p_a = reversed_ascent
    ds_d = float(t_d[1] - t_d[0])
    ds_a = float(t_a[1] - t_a[0])
    if not np.isclose(ds_d, ds_a, rtol=1e-12, atol=0.0):
        raise IndexMismatch(f"descent ds={ds_d} vs ascent ds={ds_a}")
    if p_d.shape != p_a.shape:
        raise IndexMismatch("descent and ascent batches differ in shape")
    s = np.concatenate([-t_a[::-1], t_d[1:]])
    b = np.concatenate([p_a[:, ::-1], p_d[:, 1:]], axis=1).T
    return TwoSidedPath(s=s, b=b, M=M)


# --- lateral field -----------------------------------------------------------

class LateralModel:
    """Sampler of the lateral noise on the cylinder as independent OU modes.

    The grid covers s in [-T, T] with step ds (slices at -T + j ds) and theta
    in [0, pi] with two boundary rays plus ``n_theta`` interior cell midpoints.
    The covariance is sum_{k>=1} (2/k) e^{-k|tau|} cos k theta cos k theta':
    mode k is an Ornstein-Uhlenbeck process U_k in s with rate k and unit
    variance, scaled by ``amp[:, k-1] = sqrt(2/k) cos k theta``, and the
    modes are independent.  Keeping the K = ``n_theta`` modes the theta grid
    resolves regularizes the log singularity; each mode is sampled exactly
    on the slices by the AR(1) recursion

        U_k(s_{j+1}) = rho_k U_k(s_j) + sqrt(1 - rho_k^2) xi,
        rho_k = e^{-k ds},

    from a stationary N(0, 1) start, and Y = amp U.  Every mode variance 2/k
    is positive, so the sampled covariance is PSD by construction;
    ``clip_report`` records the smallest and largest, 2/K and 2.  A batch of
    fields comes from one Philox stream, mode by mode: ``_field`` gives the
    layout.
    """

    def __init__(self, gamma: float, T: float, ds: float, n_theta: int):
        if not (0.0 < gamma < 2.0):
            raise ValueError("gamma must lie in (0, 2)")
        if T <= 0 or ds <= 0 or n_theta < 2:
            raise ValueError("need T > 0, ds > 0, n_theta >= 2")
        self.gamma = float(gamma)
        self.T = float(T)
        self.ds = float(ds)
        self.n_theta = int(n_theta)
        self.n_s = 2 * int(round(T / ds)) + 1
        self.n_p = self.n_s  # normals per mode per sample
        self.s_grid = -self.T + self.ds * np.arange(self.n_s)
        h = np.pi / n_theta
        self.theta = np.concatenate([[0.0], h * (np.arange(n_theta) + 0.5),
                                     [np.pi]])
        self.m = n_theta + 2

        k = np.arange(1, self.n_theta + 1)
        self.amp = np.sqrt(2.0 / k) * np.cos(np.outer(self.theta, k))
        self.diag_var = (self.amp ** 2).sum(axis=1)
        self.clip_report = {"min_eigenvalue": 2.0 / self.n_theta,
                            "max_eigenvalue": 2.0}
        # sampling runs in float32: per-entry rounding is ~1e-7 of the
        # covariance scale, far below Monte Carlo resolution
        self._amp32 = self.amp.astype(np.float32)
        self._rho32 = np.exp(-k * self.ds).astype(np.float32)[:, None]
        self._innov32 = np.sqrt(-np.expm1(-2.0 * k * self.ds)) \
            .astype(np.float32)[:, None]

        # E[Z_H] = int (sin theta)^{-gamma^2/2} diverges from sqrt(2) on,
        # where this raises SupercriticalWeight
        self.zh_weights = self._theta_cell_weights(gamma ** 2 / 2.0)
        self.ez_h = float(self.zh_weights.sum())      # exact E[Z_H(s)]

    def _theta_cell_weights(self, p: float) -> np.ndarray:
        """Integrals of (sin theta)^{-p} over each interior theta cell.

        For theta <= pi/2, u = sin^2 t turns int_0^theta (sin t)^{-p} dt into
        B/2 I_{sin^2 theta}((1-p)/2, 1/2), with I the regularized incomplete
        beta function and B = ``sin_power_integral(p)``.  Cells up to pi/2
        are its differences; the rest mirror them about pi/2, and an odd
        middle cell takes what remains of B.
        """
        total = sin_power_integral(p)
        edges = np.pi / self.n_theta * np.arange(self.n_theta // 2 + 1)
        below = 0.5 * total * betainc((1.0 - p) / 2.0, 0.5,
                                      np.sin(edges) ** 2)
        half = np.diff(below)
        middle = [total - 2.0 * below[-1]] if self.n_theta % 2 else []
        return np.concatenate([half, middle, half[::-1]])

    def _field(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Y of shape (m, n_s, size) in float32 from (n_theta, n_s, size)
        normals: block k - 1 drives mode k, its slice 0 the stationary start
        and its slice j the innovation from s_{j-1} to s_j.  Each block is
        one ``fill_normal32`` call on ``rng``: ceil(n_s size / 2) words whose
        cosines fill the block's first half in C order and whose sines fill
        the rest."""
        u = np.empty((self.n_theta, self.n_s, size), dtype=np.float32)
        # one mode per call keeps the kernel's temporaries in cache
        for block in u:
            fill_normal32(rng, block)
        for j in range(1, self.n_s):
            u[:, j] *= self._innov32
            u[:, j] += self._rho32 * u[:, j - 1]
        return (self._amp32 @ u.reshape(self.n_theta, -1)) \
            .reshape(self.m, self.n_s, size)

    def sample(self, seed: int, n: int, stream: int = 0):
        """Draw n lateral fields; returns (Z_H, Z_bdy) of shape (n_s, n).

        All n fields come from Philox stream ``(seed, stream)``: for each
        mode in turn, ceil(n_s n / 2) words give the (n_s, n) block of float32
        normals, the stationary start (slice 0) and then the innovation into
        each later slice, one normal per draw; the words' cosines fill the
        block's first half in C order and their sines the rest.  So the first
        k of n draws are not the draws of ``sample(seed, k)``.
        """
        g = self.gamma
        w32 = self.zh_weights.astype(np.float32)
        dv32 = self.diag_var.astype(np.float32)
        y = self._field(stream_generator(seed, stream), n)
        # the interior rows become their exponentials in place
        e = y[1:-1]
        e *= g
        e -= 0.5 * g * g * dv32[1:-1, None, None]
        np.exp(e, out=e)
        # einsum, not a BLAS gemv, so the sums do not depend on the BLAS
        # thread count
        zh = np.einsum("k,kj->j", w32, e.reshape(self.n_theta, -1)) \
            .reshape(self.n_s, n).astype(np.float64)
        zbdy = (np.exp(0.5 * g * y[0] - 0.125 * g * g * dv32[0])
                + np.exp(0.5 * g * y[-1] - 0.125 * g * g * dv32[-1])) \
            .astype(np.float64)
        return zh, zbdy


# --- integrals ---------------------------------------------------------------

@dataclass(frozen=True)
class IntegralPair:
    """Per-draw I_H(x), I_bdy(x) plus truncation-tail bounds for the
    neglected ranges."""

    IH: np.ndarray
    Ibdy: np.ndarray
    bound_H: np.ndarray
    bound_bdy: np.ndarray


def compute_I(path: TwoSidedPath, ZH: np.ndarray, Zbdy: np.ndarray, cutoffs,
              gamma: float, ez_h: float) -> list[IntegralPair]:
    """Riemann sums of e^{gamma B} Z_H and e^{gamma/2 B} Z_bdy over s >= -L_{-x}.

    ``path.b``, ``ZH`` and ``Zbdy`` are (n_s, n) batches.  Returns one
    ``IntegralPair`` per entry of ``cutoffs``; each cutoff x is a scalar or a
    per-draw array, finite (cutoff at the left half's last visit above -x)
    or infinite (full truncated range).  Each side's integrand is built and
    summed once, then read at every cutoff.  The neglected-tail bound uses
    B <= 0 and the conservative drift estimate lambda/2:

        bound = E[Z] * e^{coupling * B(edge)} / (coupling * lambda/2),

    with E[Z_H] = ``ez_h`` and E[Z_bdy] = ``EZ_BDY``.  A finite x that the
    left half still exceeds at s = -T has its cutoff beyond the horizon: its
    bound is infinite.
    """
    b = path.b
    if b.shape[0] != ZH.shape[0] or b.shape[0] != Zbdy.shape[0]:
        raise IndexMismatch("path and lateral slices use different s-grids")
    n = b.shape[1]
    cols = np.arange(n)
    jc = int(np.argmin(np.abs(path.s)))  # index of s = 0
    lam_low = 0.5 * (2.0 / gamma - gamma / 2.0)

    cuts = []  # (lower index, finite, unreached) per cutoff
    for x in cutoffs:
        x = np.broadcast_to(np.asarray(x, dtype=float), (n,))
        finite = np.isfinite(x)
        above = b[:jc] >= -x[None, :]  # left half, s < 0
        # last visit above -x = first grid index (s ascending) still above -x;
        # if the path never rose above -x the cutoff collapses to s = 0
        first = np.where(above.any(axis=0), above.argmax(axis=0), jc)
        # still above -x at s = -T: the true L_{-x} lies beyond the horizon
        cuts.append((np.where(finite, first, 0), finite, finite & above[0]))

    sides = []
    for coupling, z, ez in ((gamma, ZH, ez_h), (0.5 * gamma, Zbdy, EZ_BDY)):
        # suffix sums: integral over s >= s_j, read at each cutoff; one side's
        # (n_s, n) suffix array is released before the next is built
        suffix = np.cumsum((path.ds * np.exp(coupling * b) * z)[::-1],
                           axis=0)[::-1]
        right = ez * np.exp(coupling * b[-1]) / (coupling * lam_low)
        left = ez * np.exp(coupling * b[0]) / (coupling * lam_low)
        sides.append([
            (suffix[lower, cols],
             np.where(unreached, np.inf,
                      right + np.where(finite, 0.0, left)))
            for lower, finite, unreached in cuts])
        del suffix
    return [IntegralPair(ih, ib, bound_h, bound_b)
            for (ih, bound_h), (ib, bound_b) in zip(*sides)]


# --- joint sampler -----------------------------------------------------------

def default_horizon(gamma: float) -> float:
    """Truncation horizon: a fixed multiple of the relaxation time 1/lambda.

    The integrands decay like e^{-gamma lambda s}, so T = 24/lambda keeps the
    neglected tail of a typical bulk draw around e^{-24 gamma} relative.  That
    holds neither per draw nor for the boundary integral, which decays only
    like e^{-gamma lambda s / 2}: at gamma = 1 (T = 16, ds = 0.1,
    n_theta = 32), in each of three seeds of 16,384 draws the relative
    boundary bound ``bound_bdy / I_bdy(inf)`` exceeds 1e-3 on 4.2-4.5% of
    draws, up to 0.15, and the bulk bound on at most 0.11%, up to 0.03.  A
    per-draw horizon that enforces a tolerance is ROADMAP item 3.
    """
    lam = 2.0 / gamma - gamma / 2.0
    return max(16.0, 24.0 / lam)


@dataclass(frozen=True)
class RadialConfig:
    """Discretization of the radial sampler; ``eps`` is the start depth of
    both path halves below the maximum (0: the exact Williams start).

    ``ds`` and ``n_theta`` have no default here: the lab's defaults live in
    ``expcli.ExperimentConfig`` alone."""

    ds: float
    n_theta: int
    T: Optional[float] = None
    eps: float = 0.0

    def horizon(self, gamma: float) -> float:
        return self.T if self.T is not None else default_horizon(gamma)


class RadialSampler:
    """Joint draws of (M, two-sided conditioned path, lateral densities).

    One instance owns an immutable LateralModel (shareable across threads) and
    produces independent samples of the integral pairs I(M) and I(infinity).
    Streams: ``sample_joint`` cuts n draws into chunks of ``RADIAL_CHUNK``,
    and chunk c reads Philox stream 4c for its lateral fields, 4c + 1 for its
    descents, 4c + 2 for its ascents and 4c + 3 for its maxima, one uniform
    per draw.  ``LateralModel.sample`` and ``sample_conditioned_path`` give
    each stream's layout.  Draws depend on n only through the last chunk: the
    first k * RADIAL_CHUNK draws are the same for every n >= k * RADIAL_CHUNK.
    """

    def __init__(self, gamma: float, config: RadialConfig):
        self.gamma = float(gamma)
        self.spec = DriftSpec(gamma)
        self.config = config
        T = config.horizon(gamma)
        self.T = float(int(round(T / config.ds)) * config.ds)
        self.lateral = LateralModel(gamma=gamma, T=self.T, ds=config.ds,
                                    n_theta=config.n_theta)

    def sample_joint(self, seed: int, n: int, want_truncated: bool = True):
        """Dict of arrays: M, IH_inf, Ibdy_inf (+ IH_M, Ibdy_M), bounds."""
        cfg = self.config
        out = {k: [] for k in ("M", "IH_inf", "Ibdy_inf", "IH_M", "Ibdy_M",
                               "bound_H", "bound_bdy")}
        for c, size in enumerate(chunk_sizes(n, RADIAL_CHUNK)):
            zh, zbdy = self.lateral.sample(seed, size, stream=4 * c)
            desc, asc = (sample_conditioned_path(
                self.spec, self.T, cfg.ds, cfg.eps, seed, size,
                stream=4 * c + k) for k in (1, 2))
            m = _exp_draw(self.spec.alpha, seed, 4 * c + 3, size)
            path = williams_concatenate(m, desc, asc)
            cutoffs = (np.inf, m) if want_truncated else (np.inf,)
            pair_inf, *truncated = compute_I(path, zh, zbdy, cutoffs,
                                             self.gamma,
                                             ez_h=self.lateral.ez_h)
            out["M"].append(m)
            out["IH_inf"].append(pair_inf.IH)
            out["Ibdy_inf"].append(pair_inf.Ibdy)
            out["bound_H"].append(pair_inf.bound_H)
            out["bound_bdy"].append(pair_inf.bound_bdy)
            for pair_m in truncated:
                out["IH_M"].append(pair_m.IH)
                out["Ibdy_M"].append(pair_m.Ibdy)
        return {k: np.concatenate(v) for k, v in out.items() if v}


def localized_masses(gamma: float, rho: float, seed: int, draws: dict):
    """(bulk, boundary) masses of the half-disk and interval of radius rho
    at the origin, by the radial representation:

        mu_H(Q(0, rho))   = rho^{2 - gamma^2/2} e^{gamma N_rho}
                            e^{gamma M} I_H(M),
        mu_bdy(I(0, rho)) = rho^{1 - gamma^2/4} e^{gamma N_rho / 2}
                            e^{gamma M / 2} I_bdy(M),

    one pair per draw of ``sample_joint(..., want_truncated=True)``.  N_rho
    ~ Normal(0, -2 ln rho) needs 0 < rho < 1; it takes one normal per draw
    from Philox stream ``(seed, 2**40)``, which no chunk of ``sample_joint``
    reads.
    """
    if not (0.0 < rho < 1.0):
        raise InvalidRho(f"need rho in (0, 1) so Var N_rho = -2 ln rho > 0; "
                         f"got rho={rho}")
    rng = stream_generator(seed, 2 ** 40)
    n_rho = np.sqrt(-2.0 * np.log(rho)) * rng.standard_normal(draws["M"].size)
    bulk = rho ** (2.0 - gamma * gamma / 2.0) * np.exp(gamma * n_rho) \
        * np.exp(gamma * draws["M"]) * draws["IH_M"]
    bdy = rho ** (1.0 - gamma * gamma / 4.0) * np.exp(0.5 * gamma * n_rho) \
        * np.exp(0.5 * gamma * draws["M"]) * draws["Ibdy_M"]
    return bulk, bdy
