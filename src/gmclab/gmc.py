"""Bulk and boundary GMC masses of a field realization.

A realization on the grid turns into measures through renormalized
exponentials with exact discrete renormalization:

    bulk     sum_i  w_i exp(gamma X_i - gamma^2/2 Var X_i),
             w_i = integral of y^{-gamma^2/2} over cell i,
    boundary sum_j  seg_len exp(gamma/2 X_j - gamma^2/8 Var X_j),

so unshifted means are exactly sum w_i and the interval length.  The
variances are those of the law sampled (see ``fieldsim``), so the identity
holds for the fields drawn, up to rounding.

Masses follow the precision of the field they are given: fieldsim's
float32 fields are exponentiated and summed in float32, as the radial
lateral field is, and every mass comes back in float64.

Measures localized at a boundary midpoint v are the masses of the tilted
field X + s, with s = ``fieldsim.shift_vector(factor, grid, v, gamma/2)``
the exact discrete Girsanov drift (gamma/2) Cov(., X_v).  Off-diagonal
covariances are kernel values at node centers, K(z, v) = -2 ln|z - v| for
the Neumann kernel, so the tilt multiplies each bulk weight w_i by
|c_i - v|^{-gamma^2} and each boundary segment j away from v by
|m_j - v|^{-gamma^2/2}; the segment at v takes e^{gamma^2/4 Var X_v} from
its cell-averaged self-covariance.  Localized masses are therefore finite
wherever the bulk weights are: bulk cell weights need gamma^2/2 < 1, i.e.
gamma < sqrt(2), and all desk-scale runs use gamma <= 1.2.
``tailest.tilted_masses`` is where grid masses localized at v are made: it
streams the tilted fields and reads the masses of any set of regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gamma as gamma_fn

from . import kernels
from .errors import RegionMismatch, SupercriticalWeight
from .fieldsim import CovFactor, Grid, diag_cell_averages

SECOND_MOMENT_ROWS = 512  # kernel rows per block of bulk_second_moment
MASS_ROWS = 256  # field rows per exponentiated block of a mass


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


def region_halfdisk_bulk(grid: Grid, v: float, rho: float) -> np.ndarray:
    """Bulk cells whose centers lie in the half-disk |z - (v, 0)| < rho."""
    c = grid.bulk_centers
    inside = np.hypot(c[:, 0] - v, c[:, 1]) < rho
    return np.flatnonzero(inside)


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


def _renorm_exp(vals, diag, coupling, out=None):
    """exp(c X - c^2/2 Var X) for selected nodes, broadcasting over replicas,
    in the precision of ``vals``, into ``out`` if given."""
    d = diag.astype(vals.dtype, copy=False) \
        .reshape((-1,) + (1,) * (vals.ndim - 1))
    out = np.multiply(coupling, vals, out=out)
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


def bulk_second_moment(grid: Grid, params: GmcParams,
                       kernel: Optional[kernels.KernelSpec] = None):
    """Exact E[M^2] of the whole-cube bulk mass, and its diagonal share.

    E[M^2] = sum_ij w_i w_j e^{gamma^2 Sigma_ij}, with Sigma the node
    covariance as ``fieldsim.build_cov`` assembles it before factoring:
    kernel values at cell centers off the diagonal, exact cell averages on
    it.  No factor is needed, so there is no positive-definiteness
    condition and no node cap; the kernel is evaluated in blocks of
    ``SECOND_MOMENT_ROWS`` rows.  The diagonal share is the part of E[M^2]
    from the single-cell terms w_i^2 e^{gamma^2 Var X_i}.  ``kernel``
    defaults to the Neumann kernel.
    """
    if kernel is None:
        kernel = kernels.KernelSpec()
    w = bulk_weights(grid, params)
    _require_finite_bulk_weights(w)
    g2 = params.gamma ** 2
    pts = grid.bulk_centers
    diag = diag_cell_averages(grid, kernel)[:grid.n_bulk_cells]
    total = 0.0
    for a in range(0, pts.shape[0], SECOND_MOMENT_ROWS):
        b = min(a + SECOND_MOMENT_ROWS, pts.shape[0])
        blk = kernels.pairwise(kernel, pts[a:b], pts)
        np.fill_diagonal(blk[:, a:b], diag[a:b])
        blk *= g2
        np.exp(blk, out=blk)
        total += float(w[a:b] @ blk @ w)
    return total, float(w @ (w * np.exp(g2 * diag))) / total


def _mass(field, factor: CovFactor, rows: np.ndarray, coupling: float,
          w: np.ndarray):
    """sum_i w_i exp(c X_i - c^2/2 Var X_i) over the given field rows.

    ``field`` is one realization (dim,), giving a float, or a (dim, n)
    batch, giving n float64 masses.  The sum runs in the field's precision,
    through einsum rather than a BLAS gemv, so it does not depend on the
    BLAS thread count.  Rows are exponentiated ``MASS_ROWS`` at a time into
    one small buffer, so no array the size of the selected rows is made.
    Row 0 of the buffer carries the running sum with weight 1, and einsum
    adds a batch's rows in order, so the blocks continue one sum over all
    rows.
    """
    vals = np.asarray(field)
    if not rows.size:
        return 0.0 if vals.ndim == 1 else np.zeros(vals.shape[1:])
    dtype = np.result_type(vals, coupling)
    k = min(MASS_ROWS, rows.size)
    buf = np.zeros((k + 1,) + vals.shape[1:], dtype=dtype)
    wts = np.ones(k + 1, dtype=dtype)
    for a in range(0, rows.size, MASS_ROWS):
        block = _as_slice(rows[a:a + MASS_ROWS])
        m = min(MASS_ROWS, rows.size - a)
        _renorm_exp(vals[block], factor.diag_var[block], coupling,
                    out=buf[1:m + 1])
        wts[1:m + 1] = w[a:a + m]
        buf[0] = np.einsum("i,i...->...", wts[:m + 1], buf[:m + 1])
    return float(buf[0]) if vals.ndim == 1 else buf[0].astype(np.float64)


def bulk_mass(field, factor: CovFactor, grid: Grid, params: GmcParams,
              region):
    """Bulk GMC mass (coupling gamma) over a set of bulk cells.

    For an unshifted field the expectation is exactly the sum of the cell
    weights (the discrete renormalization identity).
    """
    cells = _check_region(region, grid.n_bulk_cells, "bulk")
    w = bulk_weights(grid, params)[cells]
    _require_finite_bulk_weights(w)
    return _mass(field, factor, cells, params.gamma, w)


def bdy_mass(field, factor: CovFactor, grid: Grid, params: GmcParams,
             interval):
    """Boundary GMC mass (coupling gamma/2) over a set of segments."""
    segs = _check_region(interval, grid.n_bdy, "boundary")
    return _mass(field, factor, grid.n_bulk_cells + segs, params.gamma / 2.0,
                 np.full(segs.size, grid.seg_len))


class ShiftedCubeMasses:
    """Whole-cube bulk and boundary masses of x + s_j for fixed shifts s_j.

    Since e^{c (X + s)} = e^{c X} e^{c s}, every shift and the
    renormalization e^{-c^2/2 Var X} fold into the mass weights: the bulk
    mass of x + s_j is sum_i w_i e^{gamma s_ij - gamma^2/2 Var X_i}
    e^{gamma x_i}, and the boundary mass is the same sum with seg_len and
    coupling gamma/2.  A batch then costs one exponential per node and
    replica plus two small GEMMs for all shifts, in the precision of the
    field; the masses come back in float64.
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
        """(bulk, boundary) float64 masses, each (n_shifts, n), of the
        columns of x.

        ``x`` (dim, n) is overwritten with e^{c x}.
        """
        dtype, nb = x.dtype, self.n_bulk
        x *= self.coupling.astype(dtype)
        np.exp(x, out=x)
        return ((self.bulk_w.T.astype(dtype) @ x[:nb]).astype(np.float64),
                (self.bdy_w.T.astype(dtype) @ x[nb:]).astype(np.float64))


# --- angular weight ---------------------------------------------------------

def sin_power_integral(p: float) -> float:
    """Integral of (sin theta)^{-p} over [0, pi]; finite for p < 1.

    Equals sqrt(pi) Gamma((1-p)/2) / Gamma(1 - p/2) (a Beta integral).
    """
    if p >= 1.0:
        raise SupercriticalWeight(
            f"(sin theta)^(-p) is non-integrable for p={p} >= 1")
    return float(np.sqrt(np.pi) * gamma_fn((1.0 - p) / 2.0)
                 / gamma_fn(1.0 - p / 2.0))
