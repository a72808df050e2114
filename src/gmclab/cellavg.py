"""Cell-averaged values of log-singular kernels.

Grid regularization replaces point values of a log-correlated covariance by
averages over cells, so the diagonal entries E[X_cell^2] need the average of
-ln|p - p'| (and image-point variants) over a cell paired with itself.  The
singular part always reduces, after substituting difference coordinates, to

    E[ -ln sqrt(U^2 + V^2) ],   U, V independent triangular variables,

which this module evaluates once per cell shape and caches.  It also caches
the Gauss-Legendre rules that the smooth cell integrals of ``gmc`` and
``radial`` use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

# average of -ln|x - x'| over [0, L]^2 is 3/2 - ln L
SEGMENT_LOG_CONST = 1.5


def neg_log_avg_segment(length: float) -> float:
    """Average of -ln|x - x'| for x, x' uniform on a segment of given length."""
    if length <= 0:
        raise ValueError("segment length must be positive")
    return SEGMENT_LOG_CONST - np.log(length)


def _tri_density(x, half_width):
    return (half_width - np.abs(x)) / half_width ** 2


@lru_cache(maxsize=4096)
def neg_log_avg_tri(a: float, v_lo: float, v_hi: float) -> float:
    """E[-ln sqrt(U^2 + V^2)] with U ~ tri[-a, a], V ~ tri[v_lo, v_hi].

    U is the difference of two uniforms on a length-``a`` interval; V is either
    another difference (``v_lo = -v_hi``) or a sum ``y + y'`` of two uniforms
    (then ``v_lo >= 0``).  The integrand has at worst a log singularity at the
    origin, which scipy's adaptive rule resolves.
    """
    if a <= 0 or v_hi <= v_lo:
        raise ValueError("degenerate triangular supports")
    if v_lo < 0 and not np.isclose(v_lo, -v_hi):
        raise ValueError("V support must be symmetric or non-negative")

    scale = max(a, abs(v_hi), abs(v_lo))
    a_s, lo_s, hi_s = a / scale, v_lo / scale, v_hi / scale
    mid, hw = 0.5 * (lo_s + hi_s), 0.5 * (hi_s - lo_s)

    if lo_s < 0:  # symmetric V: fold to v >= 0
        def inner(u, v):
            return -0.5 * np.log(u * u + v * v) * 2 * _tri_density(u, a_s) \
                * 2 * _tri_density(v, hw)

        val, err = integrate.dblquad(inner, 0.0, hw, 0.0, a_s,
                                     epsabs=1e-11, epsrel=1e-10)
    else:
        def inner(u, v):
            return -0.5 * np.log(u * u + v * v) * 2 * _tri_density(u, a_s) \
                * _tri_density(v - mid, hw)

        val, err = integrate.dblquad(inner, lo_s, hi_s, 0.0, a_s,
                                     epsabs=1e-11, epsrel=1e-10)
    if err > 1e-6:
        raise RuntimeError(f"cell-average quadrature did not converge (err={err})")
    return float(val) - np.log(scale)


@lru_cache(maxsize=64)
def _gauss_nodes(n: int):
    x, w = leggauss(n)
    return x, w

