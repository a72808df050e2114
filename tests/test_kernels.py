"""Kernel formulas, identities, and the semicircle-average quadrature oracle."""

import numpy as np
import pytest

from gmclab import kernels
from gmclab.errors import DiagonalSingularity, QuadratureUnstable


def test_neumann_values():
    # -ln(1 * 3) for a vertical pair at heights 1 and 2
    assert kernels.eval_neumann((0, 1), (0, 2)) == pytest.approx(-np.log(3.0))
    # boundary pair: |z - w| = |z - conj(w)| = 2
    assert kernels.eval_neumann((1, 0), (-1, 0)) == pytest.approx(
        -2.0 * np.log(2.0))


def test_neumann_diagonal_rejected():
    with pytest.raises(DiagonalSingularity):
        kernels.eval_neumann((0, 1), (0, 1))
    # conjugate-reflection coincidence on the boundary
    with pytest.raises(DiagonalSingularity):
        kernels.eval_neumann((0.3, 0.0), (0.3, 0.0))


def test_boundary_values():
    # on the boundary the Neumann kernel is -2 ln|x - y|
    def bdy(x, y):
        return kernels.eval_neumann((x, 0.0), (y, 0.0))

    assert bdy(0.0, 1.0) == pytest.approx(0.0)
    assert bdy(0.0, 0.5) == pytest.approx(2.0 * np.log(2.0))
    assert bdy(0.0, np.e) == pytest.approx(-2.0)
    for x, y in [(-0.4, 0.2), (0.1, 0.9), (-1.0, 1.5)]:
        assert bdy(x, y) == -2.0 * np.log(abs(x - y))


def test_lateral_hand_value():
    # z = i, w = 1: ln[1 / (sqrt(2) * sqrt(2))] = -ln 2, recomputed by hand
    assert kernels.eval_lateral(0.0, np.pi / 2, 0.0, 0.0) == pytest.approx(
        -np.log(2.0))


def test_lateral_stationarity_and_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        t1, t2 = rng.uniform(0, 3, size=2)
        th1, th2 = rng.uniform(0, np.pi, size=2)
        t2 += 0.01  # keep off the singular set
        a = kernels.eval_lateral(t1, th1, t2, th2)
        b = kernels.eval_lateral(t1 + 1.7, th1, t2 + 1.7, th2)
        assert a == pytest.approx(b, abs=1e-12)
        c = kernels.eval_lateral(t2, th2, t1, th1)
        assert a == pytest.approx(c, rel=1e-12)


def test_kernel_symmetry_randomized():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = (rng.uniform(-1, 1), rng.uniform(0.01, 2))
        w = (rng.uniform(-1, 1), rng.uniform(0.01, 2))
        assert kernels.eval_neumann(z, w) == pytest.approx(
            kernels.eval_neumann(w, z), rel=1e-12)
    # build_cov factors pairwise matrices as they are, so they must be
    # exactly symmetric, not only to rounding
    pts = np.column_stack([rng.uniform(-1, 1, 300), rng.uniform(0, 2, 300)])
    bdy = np.column_stack([rng.uniform(-1, 1, 300), np.zeros(300)])
    for spec, p in (
            (kernels.KernelSpec(), pts),
            (kernels.KernelSpec(), bdy),
            (kernels.KernelSpec(g=lambda a, b: a[..., 0] * b[..., 0]), pts)):
        k = kernels.pairwise(spec, p, p)
        assert np.array_equal(k, k.T), spec


def test_perturbed_reductions():
    """pairwise with g is the Neumann matrix plus g on every pair."""
    pts = np.array([[1.0, 1.0], [2.0, 1.0], [-0.3, 0.0], [0.4, 0.7]])
    base = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    off = ~np.eye(len(pts), dtype=bool)
    xx = np.outer(pts[:, 0], pts[:, 0])
    for c, k in ((0.0, 0.0), (3.25, 0.0), (0.0, 0.1)):  # f = c + k x x'
        spec = kernels.KernelSpec(g=lambda a, b: c + k * a[..., 0] * b[..., 0])
        pert = kernels.pairwise(spec, pts, pts)
        np.testing.assert_allclose(pert[off] - base[off], (c + k * xx)[off],
                                   rtol=1e-12, atol=1e-12)
        assert np.all(np.isposinf(np.diag(pert)))


def test_semicircle_avg_cov():
    assert kernels.semicircle_avg_cov(1.0, 2.0) == 2.0  # 2 min(s, t)
    assert kernels.semicircle_avg_cov(0.0, 5.0) == 0.0
    assert kernels.semicircle_avg_cov(3.0, 3.0) == 6.0


@pytest.mark.parametrize("s,t", [(0.25, 0.5), (0.25, 1.0), (0.5, 2.0),
                                 (1.0, 2.0), (0.25, 2.0), (0.5, 1.0)])
def test_quadrature_matches_analytic(s, t):
    q = kernels.quadrature_cov(s, t, 2048, tol=1e-6)
    assert abs(q - 2.0 * min(s, t)) <= 1e-6


def test_quadrature_diagonal_offset_rule():
    q = kernels.quadrature_cov(0.5, 0.5, 2048)
    assert abs(q - 1.0) <= 1e-4


def test_quadrature_unstable_when_coarse():
    with pytest.raises(QuadratureUnstable):
        kernels.quadrature_cov(1.0, 2.0, 8, tol=1e-9)


def test_lateral_zero_angular_average():
    for (t1, t2) in [(0.3, 1.1), (0.05, 2.4), (1.0, 1.5)]:
        assert abs(kernels.lateral_avg_quadrature(t1, t2, 512)) <= 1e-5


def test_pairwise_matches_scalar():
    pts = np.array([[0.0, 0.5], [0.3, 1.0], [-0.2, 0.0]])
    mat = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert mat[i, j] == pytest.approx(
                    kernels.eval_neumann(pts[i], pts[j]))


def test_pairwise_matches_scalar_kernels_randomized():
    """The Neumann kernel against its scalar form, on random points, on
    boundary points, and on pairs 1e-8 apart.  The scalar form adds two
    logarithms, so entries near zero carry an absolute rounding of a few
    ulps of ln d; hence the small atol."""
    rng = np.random.default_rng(23)
    n = 120
    bulk = np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(0, 1, n)])
    bulk[:10, 1] = 0.0  # boundary points among the bulk ones
    near = bulk[10:40] + rng.uniform(-1e-8, 1e-8, (30, 2))
    near[:, 1] = np.abs(near[:, 1])
    pts = np.vstack([bulk, near])
    line = np.column_stack([np.concatenate([pts[:, 0], pts[:40, 0] + 1e-8]),
                            np.zeros(len(pts) + 40)])
    for name, p in (("points", pts), ("line", line)):
        mat = kernels.pairwise(kernels.KernelSpec(), p, p)
        off = ~np.eye(len(p), dtype=bool)
        ref = np.array([[kernels.eval_neumann(a, b) if i != j else 0.0
                         for j, b in enumerate(p)] for i, a in enumerate(p)])
        np.testing.assert_allclose(mat[off], ref[off], rtol=1e-13, atol=1e-14,
                                   err_msg=name)
        assert np.all(np.isposinf(np.diag(mat))), name


def test_pairwise_coincident_points_are_infinite():
    pts = np.array([[0.1, 0.3], [0.1, 0.3], [-0.2, 0.0], [-0.2, 0.0]])
    with np.errstate(invalid="raise"):
        mat = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    assert np.isposinf(mat[0, 1]) and np.isposinf(mat[2, 3])
    assert np.all(np.isfinite(mat[:2, 2:]))


def test_pairwise_blocks_match_one_block(monkeypatch):
    """Row blocks change nothing: a one-row block gives the same matrix."""
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(0, 2, 50)])
    specs = (kernels.KernelSpec(),
             kernels.KernelSpec(g=lambda a, b: a[..., 1] * b[..., 1]))
    whole = [kernels.pairwise(s, pts, pts[:20]) for s in specs]
    monkeypatch.setattr(kernels, "PAIRWISE_BLOCK", 1)
    for s, m in zip(specs, whole):
        assert np.array_equal(kernels.pairwise(s, pts, pts[:20]), m), s


def test_unvectorized_perturbation_raises():
    """g is called once on broadcast points: a result of the wrong shape
    raises ValueError, and an error raised by g itself propagates."""
    pts = np.array([[0.0, 0.5], [0.3, 1.0], [-0.2, 0.0]])
    scalar = kernels.KernelSpec(g=lambda a, b: float(np.sum(a * b)))
    with pytest.raises(ValueError, match="shape"):
        kernels.pairwise(scalar, pts, pts)

    class Refused(Exception):
        pass

    def refuse(a, b):
        raise Refused("g refuses broadcast points")

    with pytest.raises(Refused):
        kernels.pairwise(kernels.KernelSpec(g=refuse), pts, pts)
