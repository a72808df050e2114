"""Bulk and boundary GMC masses of a field realization.

A realization on the grid turns into measures through renormalized
exponentials with exact discrete renormalization:

    bulk     sum_i  w_i exp(gamma X_i - gamma^2/2 Var X_i),
             w_i = integral of y^{-gamma^2/2} over cell i,
    boundary sum_j  seg_len exp(gamma/2 X_j - gamma^2/8 Var X_j),

so unshifted means are exactly sum w_i and the interval length.  The
variances are those of the law sampled (see ``fieldsim``), so the identity
holds for the fields drawn, up to rounding.

Every mass is sum_i W_i e^{c x_i}: the weights W of ``MassWeights`` fold
in w_i, the renormalization, any shift and the region, and the field rows
are exponentiated in the field's precision (float32 for fieldsim's fields)
and summed by GEMM.  Masses come back in float64.

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
The tilt folds into W, as e^{c (X + s)} = e^{c X} e^{c s}.
``tailest.tilted_masses`` is where grid masses localized at v are made: it
streams the fields and reads the masses of any set of regions.
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
    if np.unique(region).size != region.size:
        raise RegionMismatch(f"{what} region repeats an index")
    return region


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


def _exp_gemm(field, rows, coupling, weights):
    """sum_i weights[i, k] e^{c x_{rows[i]}} for every column k of weights.

    ``field`` is a (dim, n) batch, read and never written; the (k, n) sums
    come back in float64.  The rows are exponentiated ``MASS_ROWS`` at a
    time, in the field's precision, into one small buffer, and each block
    is added with one GEMM, so no array the size of the selected rows is
    made.  This is the one place where field rows become masses.
    """
    dtype = np.result_type(field, coupling)
    out = np.zeros((weights.shape[1], field.shape[1]), dtype=dtype)
    wts = weights.astype(dtype)
    buf = np.empty((min(MASS_ROWS, rows.size), field.shape[1]), dtype=dtype)
    for a in range(0, rows.size, MASS_ROWS):
        blk = buf[:min(MASS_ROWS, rows.size - a)]
        # rows are checked, and mode "raise" would buffer a copy of blk
        np.take(field, rows[a:a + MASS_ROWS], axis=0, out=blk, mode="clip")
        blk *= coupling
        np.exp(blk, out=blk)
        out += wts[a:a + MASS_ROWS].T @ blk
    return out.astype(np.float64)


class MassWeights:
    """Masses of x + s_j over regions R, for fixed shifts s_j and regions.

    As e^{c (X + s)} = e^{c X} e^{c s}, everything but e^{c x} folds into
    one weight matrix:

        mass(R, j) = sum_i W[i, (R, j)] e^{c x_i},
        W[i, (R, j)] = w_i e^{c s_ij - c^2/2 Var X_i} 1{i in R},

    with c = gamma and w_i = ``bulk_weights`` on bulk rows, c = gamma/2 and
    w_i = seg_len on boundary rows.  The two kinds of rows are kept apart,
    and only rows in some region are read (``_exp_gemm``).  ``shifts`` is
    (dim, n_shifts); the regions are index arrays as ``bulk_mass`` and
    ``bdy_mass`` take them.
    """

    def __init__(self, factor: CovFactor, grid: Grid, params: GmcParams,
                 shifts: np.ndarray, bulk_regions, bdy_regions):
        nb = grid.n_bulk_cells
        shifts = np.asarray(shifts, dtype=float)
        self.bulk = self._part(bulk_regions, "bulk", 0, params.gamma,
                               shifts[:nb], factor.diag_var[:nb],
                               bulk_weights(grid, params))
        _require_finite_bulk_weights(self.bulk[2])
        self.bdy = self._part(bdy_regions, "boundary", nb, params.gamma / 2.0,
                              shifts[nb:], factor.diag_var[nb:],
                              np.full(grid.n_bdy, grid.seg_len))
        self.n_shifts = shifts.shape[1]

    @staticmethod
    def _part(regions, what, offset, c, shifts, var, w):
        """(field rows, c, W) for one kind of row, whose first field row is
        ``offset``: W with its columns region-major, over the rows where it
        is not zero."""
        wts = w[:, None] * np.exp(c * shifts - 0.5 * c * c * var[:, None])
        full = np.zeros((w.size, len(regions), shifts.shape[1]))
        for k, r in enumerate(regions):
            r = _check_region(r, w.size, what)
            full[r, k] = wts[r]
        full = full.reshape(w.size, -1)
        rows = np.flatnonzero(full.any(axis=1))
        return offset + rows, c, full[rows]

    def __call__(self, field):
        """(bulk, boundary) float64 masses of a field (dim,) or a batch
        (dim, n): arrays (n_regions, n_shifts) + field.shape[1:], one per
        kind of region.  The field is not written."""
        x = np.asarray(field)
        batch = x.reshape(x.shape[0], -1)
        return tuple(
            _exp_gemm(batch, *part).reshape(-1, self.n_shifts, *x.shape[1:])
            for part in (self.bulk, self.bdy))


def bulk_mass(field, factor: CovFactor, grid: Grid, params: GmcParams,
              region):
    """Bulk GMC mass (coupling gamma) over a set of bulk cells.

    For an unshifted field the expectation is exactly the sum of the cell
    weights (the discrete renormalization identity).
    """
    bulk, _ = MassWeights(factor, grid, params, np.zeros((factor.dim, 1)),
                          [region], [])(field)
    return bulk[0, 0]


def bdy_mass(field, factor: CovFactor, grid: Grid, params: GmcParams,
             interval):
    """Boundary GMC mass (coupling gamma/2) over a set of segments."""
    _, bdy = MassWeights(factor, grid, params, np.zeros((factor.dim, 1)),
                         [], [interval])(field)
    return bdy[0, 0]


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
