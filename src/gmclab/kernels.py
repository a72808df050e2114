"""Closed-form covariance kernels on the closed upper half-plane.

The exact-scaling Neumann kernel

    K_C(z, w) = -ln |z - w||z - conj(w)|,

its Neumann-type perturbations K_C + g, and the lateral (cylinder)
covariance left after removing the semicircle-average Brownian motion.
Points are (x, y) pairs with y >= 0; boundary points have y = 0 exactly, and
on the boundary K_C restricts to -2 ln|x - y|.

Kernels carry no GMC coupling parameter; they are pure covariances.  All
functions are pure and thread-safe.

Convention for semicircle averages: the *unnormalized* average
A_t = (1/pi) int_0^pi X(e^{-t} e^{i theta}) d theta has covariance
2 min(s, t); the standard Brownian motion used downstream is B_t = A_t/sqrt(2)
and the field decomposes as X = sqrt(2) B_t + Y with Y the lateral noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cellavg import SEGMENT_LOG_CONST
from .errors import DiagonalSingularity, QuadratureUnstable

PAIRWISE_BLOCK = 1 << 16  # output entries per row block of ``pairwise``


@dataclass(frozen=True)
class KernelSpec:
    """The covariance kernel: K_C when ``g`` is None, else K_C + g.

    ``g`` must be symmetric, g(z, w) = g(w, z), and vectorized: it is called
    with point arrays of shape (..., 2) that broadcast against each other and
    must return their broadcast shape.
    """

    g: Optional[Callable] = None


def _check_point(p) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if y < 0:
        raise ValueError(f"half-plane point needs y >= 0, got y={y}")
    return x, y


def _dists(z, w) -> tuple[float, float]:
    """(|z - w|, |z - conj(w)|) for half-plane points given as (x, y)."""
    zx, zy = _check_point(z)
    wx, wy = _check_point(w)
    d_direct = np.hypot(zx - wx, zy - wy)
    d_image = np.hypot(zx - wx, zy + wy)
    return d_direct, d_image


def eval_neumann(z, w) -> float:
    """Exact-scaling Neumann kernel -ln(|z - w| |z - conj(w)|)."""
    d_direct, d_image = _dists(z, w)
    if d_direct == 0.0 or d_image == 0.0:
        raise DiagonalSingularity(f"kernel singular at z={tuple(z)}, w={tuple(w)}")
    return float(-np.log(d_direct) - np.log(d_image))


def lateral_cov(t, theta, t2, theta2):
    """Vectorized lateral covariance; no coincident-point guard.

    ln[(e^{-t} v e^{-t'})^2 / (|e^{-t}e^{i th} - e^{-t'}e^{i th'}|
                               |e^{-t}e^{i th} - e^{-t'}e^{-i th'}|)].
    Depends on (t, t') only through |t - t'| and is symmetric in the two
    arguments.
    """
    t = np.asarray(t, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    theta = np.asarray(theta, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    r1 = np.exp(-t)
    r2 = np.exp(-t2)
    top = np.maximum(r1, r2) ** 2
    d1sq = r1 * r1 + r2 * r2 - 2 * r1 * r2 * np.cos(theta - theta2)
    d2sq = r1 * r1 + r2 * r2 - 2 * r1 * r2 * np.cos(theta + theta2)
    return np.log(top) - 0.5 * np.log(d1sq) - 0.5 * np.log(d2sq)


def eval_lateral(t: float, theta: float, t2: float, theta2: float) -> float:
    """Lateral covariance at two cylinder points (t, theta), (t2, theta2)."""
    for ang in (theta, theta2):
        if not 0.0 <= ang <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {ang}")
    if t == t2 and (theta == theta2 or theta + theta2 == 0.0
                    or theta + theta2 == 2 * np.pi):
        raise DiagonalSingularity(
            f"lateral kernel singular at coincident points (t={t}, theta={theta})")
    return float(lateral_cov(t, theta, t2, theta2))


def _g_matrix(g: Callable, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """g on every pair, in one call on broadcast (n_a, 1, 2), (1, n_b, 2) points."""
    out = np.asarray(g(pts_a[:, None, :], pts_b[None, :, :]), dtype=float)
    if out.shape != (len(pts_a), len(pts_b)):
        raise ValueError(f"perturbation g returned shape {out.shape} on "
                         f"broadcast points, not ({len(pts_a)}, {len(pts_b)}); "
                         "g must be vectorized")
    return out


def pairwise(spec: KernelSpec, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Kernel matrix K_C (+ g) at point centers (no diagonal regularization).

    ``pts_*`` are (n, 2) arrays of half-plane points.  Coincident pairs produce
    +inf; grid builders overwrite those entries with cell averages.  With
    ``spec.g`` set, g is called once on all pairs and added to K_C.

    Each entry takes one logarithm of squared distances, and the matrix is
    filled in blocks of rows, so no temporary is as large as the output.
    Every operation is symmetric in its two points, so ``pairwise(spec, p,
    p)`` is exactly symmetric.
    """
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)
    out = np.empty((len(pts_a), len(pts_b)))
    xb, yb = pts_b[:, 0], pts_b[:, 1]
    rows = max(1, PAIRWISE_BLOCK // max(1, len(pts_b)))
    with np.errstate(divide="ignore"):
        for i in range(0, len(pts_a), rows):
            blk = out[i:i + rows]
            xa = pts_a[i:i + rows, 0][:, None]
            ya = pts_a[i:i + rows, 1][:, None]
            dx2 = np.subtract(xa, xb)
            dx2 *= dx2
            d1sq = np.subtract(ya, yb)
            d1sq *= d1sq
            d1sq += dx2
            d2sq = np.add(ya, yb)
            d2sq *= d2sq
            d2sq += dx2
            # -ln(|z - w| |z - conj(w)|) = -1/2 ln(|z - w|^2 |z - conj(w)|^2)
            d1sq *= d2sq
            np.log(d1sq, out=blk)
            blk *= -0.5
    if spec.g is not None:
        # user code on the full broadcast, evaluated once
        out += _g_matrix(spec.g, pts_a, pts_b)
    return out


# --- semicircle averages ----------------------------------------------------

def semicircle_avg_cov(s: float, t: float) -> float:
    """Covariance 2 min(s, t) of the unnormalized semicircle average A_t."""
    if s < 0 or t < 0:
        raise ValueError("semicircle log-radii must be non-negative")
    return 2.0 * min(float(s), float(t))


def _gl_composite(n_nodes: int, lo: float, hi: float, panel: int = 16):
    """Composite Gauss-Legendre nodes/weights with about n_nodes points."""
    per = min(panel, max(2, n_nodes))
    n_panels = max(1, int(round(n_nodes / per)))
    x, w = leggauss(per)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def _semicircle_points(s: float, theta: np.ndarray) -> np.ndarray:
    """The points e^{-s} (cos theta, sin theta) as an (n, 2) array."""
    return np.exp(-s) * np.column_stack([np.cos(theta), np.sin(theta)])


def _quadrature_cov_once(s: float, t: float, n_nodes: int) -> float:
    if s != t:
        th1, w1 = _gl_composite(n_nodes, 0.0, np.pi)
        th2, w2 = _gl_composite(n_nodes, 0.0, np.pi)
        vals = pairwise(KernelSpec(), _semicircle_points(s, th1),
                        _semicircle_points(t, th2))
        return float(w1 @ vals @ w2) / np.pi ** 2

    # Equal radii: the integrand has a log singularity along theta = theta'.
    # Midpoint grids staggered by a half cell keep nodes apart (symmetric
    # offset); the model term -ln|dtheta| is subtracted node-wise and its
    # exact integral pi^2 (3/2 - ln pi) restored.
    n = max(4, n_nodes)
    h = np.pi / n
    th1 = (np.arange(n) + 0.5) * h
    th2 = (np.arange(2 * n) + 0.5) * (h / 2.0)
    vals = pairwise(KernelSpec(), _semicircle_points(s, th1),
                    _semicircle_points(t, th2))
    model = -np.log(np.abs(th1[:, None] - th2[None, :]))
    rule = np.sum(vals - model) * h * (h / 2.0)
    exact_model = np.pi ** 2 * (SEGMENT_LOG_CONST - np.log(np.pi))
    return float(rule + exact_model) / np.pi ** 2


def quadrature_cov(s: float, t: float, n_nodes: int,
                   tol: Optional[float] = None) -> float:
    """Double quadrature of eval_neumann over two semicircles, divided by pi^2.

    Converges to ``semicircle_avg_cov(s, t) = 2 min(s, t)``.  With ``tol``
    given, raises ``QuadratureUnstable`` when the n and n/2 refinements differ
    by more than ``tol``.
    """
    if s < 0 or t < 0:
        raise ValueError("semicircle log-radii must be non-negative")
    if n_nodes < 4:
        raise ValueError("n_nodes must be at least 4")
    fine = _quadrature_cov_once(s, t, n_nodes)
    if tol is not None:
        coarse = _quadrature_cov_once(s, t, max(4, n_nodes // 2))
        if abs(fine - coarse) > tol:
            raise QuadratureUnstable(
                f"refinements differ by {abs(fine - coarse):.3e} > tol={tol:.1e} "
                f"at n_nodes={n_nodes}")
    return fine


def lateral_avg_quadrature(t: float, t2: float, n_nodes: int = 256) -> float:
    """(1/pi^2) double angular integral of the lateral covariance at (t, t2).

    Vanishes identically (the lateral field has zero semicircle average);
    needs t != t2 so the integrand stays smooth.
    """
    if t == t2:
        raise ValueError("use distinct t, t2; the equal-radius integrand is singular")
    th1, w1 = _gl_composite(n_nodes, 0.0, np.pi)
    th2, w2 = _gl_composite(n_nodes, 0.0, np.pi)
    vals = lateral_cov(t, th1[:, None], t2, th2[None, :])
    return float(w1 @ vals @ w2) / np.pi ** 2
