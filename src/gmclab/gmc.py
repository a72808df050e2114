"""Bulk, boundary, and localized GMC masses of a field realization.

A realization on the grid turns into measures through renormalized
exponentials with exact discrete renormalization:

    bulk     sum_i  w_i exp(gamma X_i - gamma^2/2 Var X_i),
             w_i = integral of y^{-gamma^2/2} over cell i,
    boundary sum_j  seg_len exp(gamma/2 X_j - gamma^2/8 Var X_j),

so unshifted means are exactly sum w_i and the interval length.  Localized
variants carry the additional singular weights |z - v|^{-gamma^2} (bulk) and
|w - v|^{-gamma^2/2} (boundary) produced by the boundary Girsanov tilt; cell
weights near v are integrated by adaptive dyadic subdivision.

Integrability bookkeeping (all desk-scale runs use gamma <= 1.2):

- bulk cell weights need gamma^2/2 < 1, i.e. gamma < sqrt(2);
- the boundary localized weight at its own segment needs gamma^2/2 < 1;
- the joint bulk localized weight y^{-gamma^2/2}|z-v|^{-gamma^2} near v needs
  3 gamma^2/2 < 2, i.e. gamma < sqrt(4/3).

Beyond those thresholds the continuum object keeps an almost-surely finite
mass but an infinite mean, which a fixed grid cannot represent; the affected
cell then excludes an inner window around v (half the cell size), recorded in
the returned metadata rather than raised as an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .cellavg import _gauss_nodes
from .errors import RegionMismatch, SupercriticalWeight
from .fieldsim import CovFactor, Grid


@dataclass(frozen=True)
class GmcParams:
    """GMC coupling gamma in (0, 2) and the cube half-width r."""

    gamma: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 2.0):
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")


# --- regions ----------------------------------------------------------------

def region_all_bulk(grid: Grid) -> np.ndarray:
    return np.arange(grid.n_bulk_cells)


def region_all_bdy(grid: Grid) -> np.ndarray:
    return np.arange(grid.n_bdy)


def region_halfdisk_bulk(grid: Grid, v: float, rho: float,
                         fractions: bool = False):
    """Bulk cells meeting the half-disk |z - (v, 0)| < rho.

    With ``fractions`` the overlap fraction of each cell is estimated on an
    8 x 8 subcell lattice, for regions whose boundary cuts through cells.
    """
    c = grid.bulk_centers
    if not fractions:
        inside = np.hypot(c[:, 0] - v, c[:, 1]) < rho
        return np.flatnonzero(inside)
    half = np.hypot(grid.dx, grid.dy) / 2.0
    d = np.hypot(c[:, 0] - v, c[:, 1])
    full = d <= rho - half
    touch = (~full) & (d < rho + half)
    idx = np.flatnonzero(full | touch)
    frac = np.ones(idx.size)
    sub = (np.arange(8) + 0.5) / 8.0 - 0.5
    ox, oy = np.meshgrid(sub * grid.dx, sub * grid.dy, indexing="xy")
    for k, i in enumerate(idx):
        if not full[i]:
            px = c[i, 0] + ox
            py = c[i, 1] + oy
            frac[k] = np.mean(np.hypot(px - v, py) < rho)
    keep = frac > 0
    return idx[keep], frac[keep]


def region_interval_bdy(grid: Grid, a: float, b: float) -> np.ndarray:
    """Boundary segments whose midpoints lie in [a, b]."""
    m = grid.bdy_centers
    return np.flatnonzero((m >= a) & (m <= b))


def _check_region(region, n_max, what):
    region = np.asarray(region, dtype=int)
    if region.size and (region.min() < 0 or region.max() >= n_max):
        raise RegionMismatch(f"{what} region indices must lie in [0, {n_max})")
    return region


def _as_slice(idx: np.ndarray):
    """A slice for a non-empty run of consecutive indices, else ``idx``.

    Indexing with the slice gives a view, where ``idx`` would copy the rows.
    """
    if idx[-1] - idx[0] == idx.size - 1 and np.all(np.diff(idx) == 1):
        return slice(idx[0], idx[-1] + 1)
    return idx


def _renorm_exp(vals, diag, coupling):
    """exp(c X - c^2/2 Var X) for selected nodes, broadcasting over replicas."""
    d = diag.reshape((-1,) + (1,) * (vals.ndim - 1))
    out = coupling * vals
    out -= 0.5 * coupling * coupling * d
    return np.exp(out, out=out)


# --- plain masses -----------------------------------------------------------

def _require_finite_bulk_weights(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        raise SupercriticalWeight(
            "bulk weight integral diverges at y=0 for gamma >= sqrt(2); "
            "exclude the bottom row or lower gamma")


def bulk_weights(grid: Grid, params: GmcParams) -> np.ndarray:
    """Exact cell integrals of y^{-gamma^2/2}; bottom row is +inf once
    gamma^2/2 >= 1 (non-integrable boundary weight)."""
    p = params.gamma ** 2 / 2.0
    y0 = np.maximum(grid.bulk_centers[:, 1] - grid.dy / 2.0, 0.0)
    y1 = grid.bulk_centers[:, 1] + grid.dy / 2.0
    if abs(p - 1.0) < 1e-14:
        with np.errstate(divide="ignore"):
            integ = np.log(y1) - np.log(y0)
    else:
        with np.errstate(divide="ignore"):
            integ = (y1 ** (1.0 - p) - y0 ** (1.0 - p)) / (1.0 - p)
        if p > 1.0:
            integ[y0 == 0.0] = np.inf
    return grid.dx * integ


def _mass(field, factor: CovFactor, grid: Grid, params: GmcParams, region,
          bdy: bool, weights):
    """sum_i w_i exp(c X_i - c^2/2 Var X_i) over a bulk or boundary region.

    The coupling c is gamma on bulk cells and gamma/2 on boundary segments;
    ``weights(region)`` gives w for the checked region indices.  ``field`` is
    one realization (dim,), giving a float, or a (dim, n) batch, giving n
    masses.
    """
    if bdy:
        region = _check_region(region, grid.n_bdy, "boundary")
        idx, coupling = grid.n_bulk_cells + region, params.gamma / 2.0
    else:
        region = _check_region(region, grid.n_bulk_cells, "bulk")
        idx, coupling = region, params.gamma
    w = weights(region)
    vals = np.asarray(field)
    if not region.size:
        out = np.zeros(vals.shape[1:])
    else:
        rows = _as_slice(idx)
        ex = _renorm_exp(vals[rows], factor.diag_var[rows], coupling)
        out = np.einsum("i,i...->...", w, ex)
    return float(out) if np.ndim(out) == 0 else out


def bulk_mass(field, factor: CovFactor, grid: Grid, params: GmcParams,
              region):
    """Bulk GMC mass over a set of bulk cells.

    For an unshifted field the expectation is exactly the sum of the cell
    weights (the discrete renormalization identity).
    """
    def weights(cells):
        w = bulk_weights(grid, params)[cells]
        _require_finite_bulk_weights(w)
        return w

    return _mass(field, factor, grid, params, region, False, weights)


def bdy_mass(field, factor: CovFactor, grid: Grid, params: GmcParams,
             interval):
    """Boundary GMC mass (coupling gamma/2) over a set of segments."""
    return _mass(field, factor, grid, params, interval, True,
                 lambda segs: np.full(segs.size, grid.seg_len))


class TiltedMasses:
    """Whole-cube bulk and boundary masses of x + s_j for fixed shifts s_j.

    Since e^{c (X + s)} = e^{c X} e^{c s}, every shift and the
    renormalization e^{-c^2/2 Var X} fold into the mass weights: the bulk
    mass of x + s_j is sum_i w_i e^{gamma s_ij - gamma^2/2 Var X_i}
    e^{gamma x_i}, and the boundary mass is the same sum with seg_len and
    coupling gamma/2.  A batch then costs one exponential per node and
    replica plus two small GEMMs for all shifts.
    """

    def __init__(self, factor: CovFactor, grid: Grid, params: GmcParams,
                 shifts: np.ndarray):
        nb = grid.n_bulk_cells
        g = params.gamma
        w = bulk_weights(grid, params)
        _require_finite_bulk_weights(w)
        coupling = np.where(np.arange(factor.dim) < nb, g, 0.5 * g)[:, None]
        expo = coupling * np.asarray(shifts, dtype=float) \
            - 0.5 * coupling * coupling * factor.diag_var[:, None]
        self.n_bulk = nb
        self.coupling = coupling
        self.bulk_w = w[:, None] * np.exp(expo[:nb])
        self.bdy_w = grid.seg_len * np.exp(expo[nb:])

    def __call__(self, x: np.ndarray):
        """(bulk, boundary) masses, each (n_shifts, n), of the columns of x.

        ``x`` (dim, n) is overwritten with e^{c x}.
        """
        x *= self.coupling
        np.exp(x, out=x)
        nb = self.n_bulk
        return self.bulk_w.T @ x[:nb], self.bdy_w.T @ x[nb:]


# --- localized weights ------------------------------------------------------

def sin_power_integral(p: float) -> float:
    """Integral of (sin theta)^{-p} over [0, pi]; finite for p < 1.

    Equals sqrt(pi) Gamma((1-p)/2) / Gamma(1 - p/2) (a Beta integral).
    """
    if p >= 1.0:
        raise SupercriticalWeight(
            f"(sin theta)^(-p) is non-integrable for p={p} >= 1")
    return float(np.sqrt(np.pi) * gamma_fn((1.0 - p) / 2.0)
                 / gamma_fn(1.0 - p / 2.0))


def _joint_leaf(v, p, beta, x0, x1, y0, y1, delta, n=4) -> float:
    """Integral of y^{-p} |z - v|^{-beta} over [x0,x1] x [y0,y1] by a Gauss
    rule in (x, eta), eta = y^{1-p} absorbing the boundary weight."""
    gx, gw = _gauss_nodes(n)
    e0, e1 = y0 ** (1.0 - p), y1 ** (1.0 - p)
    xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * gx
    es = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * gx
    ys = es ** (1.0 / (1.0 - p))
    r2 = (xs[:, None] - v) ** 2 + (ys ** 2)[None, :]
    vals = r2 ** (-beta / 2.0)
    if delta > 0.0:
        vals = np.where(r2 < delta * delta, 0.0, vals)
    acc = (gw[:, None] * gw[None, :] * vals).sum()
    return float(acc * 0.25 * (x1 - x0) * (e1 - e0) / (1.0 - p))


def localized_bulk_cell_integrals(grid: Grid, params: GmcParams, v: float,
                                  region=None, tol: float = 1e-3):
    """Per-cell integrals of y^{-gamma^2/2} |z - v|^{-gamma^2} plus metadata.

    Far cells use a Gauss evaluation at the boundary-weighted centroid; cells
    near (v, 0) are subdivided dyadically until the singular-core bound drops
    below ``tol`` relative.  When the joint weight is non-integrable
    (3 gamma^2/2 >= 2) an inner window of radius min(dx, dy)/2 around v is
    excluded and reported in the metadata.
    """
    p = params.gamma ** 2 / 2.0
    beta = params.gamma ** 2
    if p >= 1.0:
        raise SupercriticalWeight(
            "bulk weight y^{-gamma^2/2} is non-integrable for gamma >= sqrt(2)")
    if region is None:
        region = region_all_bulk(grid)
    region = _check_region(region, grid.n_bulk_cells, "bulk")

    delta = 0.0
    if 2.0 - beta - p <= 1e-12:
        delta = 0.5 * min(grid.dx, grid.dy)
    meta = {"window_radius": delta, "tol": tol}

    c = grid.bulk_centers[region]
    x0 = c[:, 0] - grid.dx / 2.0
    x1 = c[:, 0] + grid.dx / 2.0
    y0 = np.maximum(c[:, 1] - grid.dy / 2.0, 0.0)
    y1 = c[:, 1] + grid.dy / 2.0
    diag = np.hypot(grid.dx, grid.dy)
    ddx = np.maximum(np.maximum(x0 - v, v - x1), 0.0)
    dist = np.hypot(ddx, y0)

    out = np.empty(region.size)
    far = dist >= 2.0 * diag
    if np.any(far):
        w = bulk_weights(grid, params)[region[far]]
        e0, e1 = y0[far] ** (1.0 - p), y1[far] ** (1.0 - p)
        ybar = ((y1[far] * e1 - y0[far] * e0) / (2.0 - p)) \
            / ((e1 - e0) / (1.0 - p))
        out[far] = w * ((c[far, 0] - v) ** 2 + ybar ** 2) ** (-beta / 2.0)

    sin_int = sin_power_integral(p)
    for k in np.flatnonzero(~far):
        total = 0.0
        stack = [(x0[k], x1[k], y0[k], y1[k])]
        while stack:
            a, b, lo, hi = stack.pop()
            dd = np.hypot(max(max(a - v, v - b), 0.0), lo)
            sz = np.hypot(b - a, hi - lo)
            if dd >= 1.5 * sz:
                total += _joint_leaf(v, p, beta, a, b, lo, hi, delta)
                continue
            if dd == 0.0:
                # remaining mass near the core fits inside the half-disk of
                # radius sz around (v, 0)
                if delta > 0.0 and sz <= delta:
                    continue
                expo = 2.0 - beta - p
                core = sin_int * (sz ** expo
                                  - (delta ** expo if delta > 0 else 0.0)) / expo
                if abs(core) < tol * max(total, 1e-300) or sz < 1e-9 * diag:
                    total += 0.5 * core
                    continue
            xm, ym = 0.5 * (a + b), 0.5 * (lo + hi)
            stack.extend([(a, xm, lo, ym), (xm, b, lo, ym),
                          (a, xm, ym, hi), (xm, b, ym, hi)])
        out[k] = total
    return out, meta


def localized_bulk_mass(field, factor: CovFactor, grid: Grid,
                        params: GmcParams, v: float, region,
                        cell_fractions=None):
    """Localized bulk mass: bulk_mass with the extra |z - v|^{-gamma^2} weight.

    ``cell_fractions`` scales each cell's weight by the fraction of it that
    lies in the region (see ``region_halfdisk_bulk``).
    """
    if not abs(v) < grid.r:
        raise ValueError(f"|v| must be < r, got v={v}")

    def weights(cells):
        w, _ = localized_bulk_cell_integrals(grid, params, v, cells)
        if cell_fractions is not None:
            w = w * np.asarray(cell_fractions)
        return w

    return _mass(field, factor, grid, params, region, False, weights)


def localized_bdy_segment_integrals(grid: Grid, params: GmcParams, v: float,
                                    interval=None):
    """Per-segment integrals of |w - v|^{-gamma^2/2} and window metadata.

    For gamma^2/2 >= 1 the integral over the segment containing v diverges;
    an inner window of half-width seg_len/2 around v is excluded instead and
    recorded in the metadata (the continuum measure stays finite through
    multifractal cancellations the grid cannot reproduce).
    """
    q = params.gamma ** 2 / 2.0
    if interval is None:
        interval = region_all_bdy(grid)
    interval = _check_region(interval, grid.n_bdy, "boundary")
    a = -grid.r + interval * grid.seg_len
    b = a + grid.seg_len
    delta = 0.5 * grid.seg_len if q >= 1.0 else 0.0
    meta = {"window_halfwidth": delta}

    def piece(lo, hi):
        # integral of |x - v|^{-q} over [lo, hi] with v outside (lo, hi)
        d0 = min(abs(lo - v), abs(hi - v))
        d1 = max(abs(lo - v), abs(hi - v))
        if abs(q - 1.0) < 1e-14:
            return np.log(d1) - np.log(d0)
        return (d1 ** (1.0 - q) - d0 ** (1.0 - q)) / (1.0 - q)

    out = np.empty(interval.size)
    for k in range(interval.size):
        lo, hi = a[k], b[k]
        if v <= lo or v >= hi:
            out[k] = piece(lo, hi)
        elif q < 1.0:
            out[k] = ((v - lo) ** (1.0 - q) + (hi - v) ** (1.0 - q)) / (1.0 - q)
        else:
            left = piece(lo, v - delta) if v - delta > lo else 0.0
            right = piece(v + delta, hi) if v + delta < hi else 0.0
            out[k] = left + right
            meta["window_segment"] = int(interval[k])
    return out, meta


def localized_bdy_mass(field, factor: CovFactor, grid: Grid,
                       params: GmcParams, v: float, interval):
    """Localized boundary mass: bdy_mass with the |w - v|^{-gamma^2/2} weight."""
    if not abs(v) < grid.r:
        raise ValueError(f"|v| must be < r, got v={v}")
    return _mass(field, factor, grid, params, interval, True,
                 lambda segs: localized_bdy_segment_integrals(
                     grid, params, v, segs)[0])
