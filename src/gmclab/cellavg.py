"""Cell-averaged values of log-singular kernels.

Grid regularization replaces point values of a log-correlated covariance by
averages over cells, so the diagonal entries E[X_cell^2] need the average of
-ln|p - p'| (and image-point variants) over a cell paired with itself.  The
singular part always reduces, after substituting difference coordinates, to

    E[ -ln sqrt(U^2 + V^2) ],   U, V independent triangular variables,

the mean log-distance between two rectangles.  It has a closed form as a
second difference in u and in v of one antiderivative; on far image rows,
where that difference cancels badly, a fixed Gauss-Legendre rule on the
smooth integrand is used instead.  Values are cached per cell shape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# average of -ln|x - x'| over [0, L]^2 is 3/2 - ln L
SEGMENT_LOG_CONST = 1.5
# the closed form loses about (v/a)^4 of relative precision to cancellation;
# beyond this many support widths from the origin the quadrature takes over
FAR_ROW_RATIO = 4.0
FAR_ROW_NODES = 12  # Gauss-Legendre nodes per smooth piece of each density
_FAR_ROW_RULE = leggauss(FAR_ROW_NODES)


def neg_log_avg_segment(length: float) -> float:
    """Average of -ln|x - x'| for x, x' uniform on a segment of given length."""
    if length <= 0:
        raise ValueError("segment length must be positive")
    return SEGMENT_LOG_CONST - np.log(length)


def _log_antiderivative(u: float, v: float) -> float:
    """G(u, v) for u, v >= 0, with d^4 G / du^2 dv^2 = ln(u^2 + v^2).

    G is even in u and in v and twice continuously differentiable in each,
    so second differences of G integrate the log against triangular
    densities across u = 0 and v = 0.
    """
    if v == 0.0:
        return 0.0 if u == 0.0 else -u ** 4 * np.log(u) / 12.0
    if u == 0.0:
        return -v ** 4 * np.log(v) / 12.0
    u2, v2 = u * u, v * v
    log_r2 = np.log(u2 + v2)
    return (-(u2 * u2 + v2 * v2) * log_r2 / 24.0
            + u2 * v2 * (log_r2 / 4.0 - 25.0 / 24.0)
            + u * v * (u2 * np.arctan(v / u) + v2 * np.arctan(u / v)) / 3.0)


def _closed_form(a: float, lo: float, mid: float, hi: float) -> float:
    """E[-ln sqrt(U^2 + V^2)] as a second difference of G in u and in v."""
    total = 0.0
    for v, cv in ((lo, 1.0), (mid, -2.0), (hi, 1.0)):
        v = abs(v)
        total += cv * (_log_antiderivative(a, v) - _log_antiderivative(0.0, v))
    # U's second difference over (-a, 0, a) is 2 G(a, .) - 2 G(0, .)
    hw = 0.5 * (hi - lo)
    return -total / (a * a * hw * hw)


def _far_row_quadrature(a: float, lo: float, mid: float, hi: float) -> float:
    """The same mean on V's support far from the origin, by Gauss-Legendre.

    The integrand is smooth there; each triangular density is split at its
    kink into linear pieces: U folded to [0, a], V at its midpoint.
    """
    x, w = _FAR_ROW_RULE
    hw = 0.5 * (hi - lo)
    # density times Jacobian: 2 (a - u)/a^2 * a/2 on u in [0, a], and
    # (hw - t)/hw^2 * hw/2 on v = mid -/+ t, t in [0, hw]
    u = 0.5 * a * (x + 1.0)
    wu = w * (a - u) / a
    t = 0.5 * hw * (x + 1.0)
    v = np.concatenate([mid - t, mid + t])
    wv = np.tile(w * (hw - t) / (2.0 * hw), 2)
    vals = -0.5 * np.log(u[:, None] ** 2 + v[None, :] ** 2)
    return float(wu @ vals @ wv)


@lru_cache(maxsize=4096)
def neg_log_avg_tri(a: float, v_lo: float, v_hi: float) -> float:
    """E[-ln sqrt(U^2 + V^2)] with U ~ tri[-a, a], V ~ tri[v_lo, v_hi].

    U is the difference of two uniforms on a length-``a`` interval; V is either
    another difference (``v_lo = -v_hi``) or a sum ``y + y'`` of two uniforms
    (then ``v_lo >= 0``).  This is the mean log-distance between two
    rectangles, evaluated in closed form, or by quadrature when V's support
    lies more than ``FAR_ROW_RATIO`` support widths from the origin.
    """
    if a <= 0 or v_hi <= v_lo:
        raise ValueError("degenerate triangular supports")
    if v_lo < 0 and not np.isclose(v_lo, -v_hi):
        raise ValueError("V support must be symmetric or non-negative")

    scale = max(a, abs(v_hi), abs(v_lo))
    a_s, lo_s, hi_s = a / scale, v_lo / scale, v_hi / scale
    mid = 0.0 if lo_s < 0 else 0.5 * (lo_s + hi_s)
    if lo_s > FAR_ROW_RATIO * max(a_s, hi_s - lo_s):
        val = _far_row_quadrature(a_s, lo_s, mid, hi_s)
    else:
        val = _closed_form(a_s, lo_s, mid, hi_s)
    return float(val) - np.log(scale)

