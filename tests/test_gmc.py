"""GMC masses: renormalization identities, localized masses of tilted
fields, scaling."""

import tracemalloc

import numpy as np
import pytest

from gmclab import fieldsim as fs
from gmclab import gmc
from gmclab.errors import RegionMismatch, SupercriticalWeight
from gmclab.gmc import GmcParams

U32, U64 = 2.0 ** -24, 2.0 ** -53  # unit roundoff of float32 and float64
# numpy's float32 exp is within 4 ulp, 8 U32 relative (2.54 ulp measured
# over 2e7 arguments in [-80, 80])
EXP32_REL = 8 * U32


def gamma_k(k, u=U32):
    """Higham's gamma_k = k u / (1 - k u).  A sum or dot product of k terms,
    in any order, is within gamma_k sum |term| of the exact one, and a
    product of k factors (1 + delta), |delta| <= u, is within gamma_k of 1."""
    return k * u / (1.0 - k * u)


def cov_rounding_bound(factor):
    """Entrywise bound on |L L^T - A| for the float32 factor L of the
    assembled matrix A (derived in test_fieldsim)."""
    a = np.abs(factor.lower_factor.astype(np.float64))
    return (gamma_k(2) + 3 * gamma_k(factor.dim + 1, U64)) / (1 - U32) ** 2 \
        * (a @ a.T)


@pytest.fixture(scope="module")
def setup():
    grid = fs.build_grid(0.5, 8, 16)
    factor = fs.build_cov(grid)
    return grid, factor


def test_params_validation():
    with pytest.raises(ValueError):
        GmcParams(gamma=0.0, r=0.5)
    with pytest.raises(ValueError):
        GmcParams(gamma=2.0, r=0.5)
    with pytest.raises(ValueError):
        GmcParams(gamma=1.0, r=-1.0)


def test_bulk_weights_exact(setup):
    grid, _ = setup
    params = GmcParams(1.0, 0.5)
    w = gmc.bulk_weights(grid, params)
    # sum over Q_r equals int y^{-1/2} over [-r,r]x[0,2r] = 2r * 2 sqrt(2r)
    assert w.sum() == pytest.approx(2.0 * 0.5 * 2.0 * np.sqrt(1.0))
    assert np.all(w > 0)


def test_gamma_to_zero_degeneracy(setup):
    grid, factor = setup
    params = GmcParams(1e-8, 0.5)
    x = fs.sample_field_batch(factor, 1, 4)
    mb = gmc.bulk_mass(x, factor, grid, params, gmc.region_all_bulk(grid))
    assert np.allclose(mb, 1.0, atol=1e-6)  # area of Q_{1/2}
    md = gmc.bdy_mass(x, factor, grid, params, gmc.region_all_bdy(grid))
    assert np.allclose(md, 1.0, atol=1e-6)  # |I_r| = 2r


def test_exact_means(setup):
    """E[bulk mass] = sum w_i and E[boundary mass] = 2r within 3 sigma.  The
    bulk mean is skewed, so at n = 1e5 |z| > 3 comes up on more seeds than
    the normal 0.3%: on 8 of 1,200 in a scan over two generators."""
    grid, factor = setup
    params = GmcParams(1.0, 0.5)
    n = 100_000
    x = fs.sample_field_batch(factor, 6, n)
    mb = gmc.bulk_mass(x, factor, grid, params, gmc.region_all_bulk(grid))
    md = gmc.bdy_mass(x, factor, grid, params, gmc.region_all_bdy(grid))
    target = gmc.bulk_weights(grid, params).sum()
    assert abs(mb.mean() - target) <= 3 * mb.std(ddof=1) / np.sqrt(n)
    assert abs(md.mean() - 1.0) <= 3 * md.std(ddof=1) / np.sqrt(n)


def test_synthetic_single_segment(setup):
    grid, factor = setup
    params = GmcParams(1.0, 0.5)
    vals = np.zeros(grid.n_nodes)
    fake = fs.CovFactor(dim=grid.n_nodes,
                        lower_factor=np.zeros((grid.n_nodes, grid.n_nodes)),
                        diag_var=np.zeros(grid.n_nodes),
                        jitter_used=0.0, kernel=factor.kernel)
    m = gmc.bdy_mass(vals, fake, grid, params, np.array([3]))
    assert m == pytest.approx(grid.seg_len)


def test_additivity_and_monotonicity(setup):
    grid, factor = setup
    params = GmcParams(1.2, 0.5)
    x = fs.sample_field_batch(factor, 9, 1)[:, 0]
    all_cells = gmc.region_all_bulk(grid)
    a, b = all_cells[: 20], all_cells[20:]
    total = gmc.bulk_mass(x, factor, grid, params, all_cells)
    parts = gmc.bulk_mass(x, factor, grid, params, a) \
        + gmc.bulk_mass(x, factor, grid, params, b)
    # float32 sums of 64, 20 and 44 positive terms, each within gamma_k of
    # the exact sum; the terms may differ by an exp rounding on each side
    rel = gamma_k(64) + gamma_k(44) + 2 * EXP32_REL
    assert total == pytest.approx(parts, rel=rel)
    assert gmc.bulk_mass(x, factor, grid, params, a) <= total
    assert gmc.bulk_mass(x, factor, grid, params, np.array([], int)) == 0.0


def test_region_mismatch(setup):
    grid, factor = setup
    params = GmcParams(1.0, 0.5)
    x = fs.sample_field_batch(factor, 3, 1)[:, 0]
    with pytest.raises(RegionMismatch):
        gmc.bulk_mass(x, factor, grid, params, np.array([grid.n_bulk_cells]))
    with pytest.raises(RegionMismatch):
        gmc.bdy_mass(x, factor, grid, params, np.array([-1]))


def test_supercritical_bulk_weight(setup):
    grid, factor = setup
    params = GmcParams(1.5, 0.5)  # gamma^2/2 > 1: bottom row diverges
    x = fs.sample_field_batch(factor, 3, 1)[:, 0]
    with pytest.raises(SupercriticalWeight):
        gmc.bulk_mass(x, factor, grid, params, gmc.region_all_bulk(grid))
    # excluding the bottom row is fine
    top = gmc.region_all_bulk(grid)[grid.n_bulk:]
    assert np.isfinite(gmc.bulk_mass(x, factor, grid, params, top))


@pytest.mark.parametrize("gamma", [1.0, 1.2])
def test_tilted_field_masses_are_localized_masses(gamma):
    """Masses of the field tilted toward a boundary midpoint v are the
    localized masses: each bulk cell weight times |c_i - v|^{-gamma^2}, and
    each segment j away from v weighted by |m_j - v|^{-gamma^2/2}.

    The drift is the sampled covariance L L^T of the float32 factor, off the
    kernel value by at most ``cov_rounding_bound``; the coupling c times the
    charge gamma/2 scales that into each exponent.  The masses, summed in
    float64, also differ by float64 rounding (1e-12)."""
    grid = fs.build_grid(0.5, 8, 17)
    factor = fs.build_cov(grid)
    params = GmcParams(gamma, 0.5)
    j = grid.n_bdy // 2
    v = float(grid.bdy_centers[j])
    # the identity is checked in float64, on float64 copies of the fields
    x = fs.sample_field_batch(factor, 51, 20).astype(np.float64)
    tilted = x + fs.shift_vector(factor, grid, v, gamma / 2.0)[:, None]
    var = factor.diag_var[:, None]
    drift_err = cov_rounding_bound(factor)[:, grid.n_bulk_cells + j]

    cells = gmc.region_all_bulk(grid)
    c = grid.bulk_centers
    w = gmc.bulk_weights(grid, params) \
        * np.hypot(c[:, 0] - v, c[:, 1]) ** -gamma ** 2
    ref = w @ np.exp(gamma * x[cells] - 0.5 * gamma ** 2 * var[cells])
    np.testing.assert_allclose(
        gmc.bulk_mass(tilted, factor, grid, params, cells), ref,
        rtol=np.expm1(gamma ** 2 / 2 * drift_err[cells].max()) + 1e-12,
        atol=0.0)

    segs = np.delete(gmc.region_all_bdy(grid), j)
    nodes = grid.n_bulk_cells + segs
    w = grid.seg_len * np.abs(grid.bdy_centers[segs] - v) ** (-gamma ** 2 / 2)
    ref = w @ np.exp(0.5 * gamma * x[nodes] - gamma ** 2 / 8 * var[nodes])
    np.testing.assert_allclose(
        gmc.bdy_mass(tilted, factor, grid, params, segs), ref,
        rtol=np.expm1(gamma ** 2 / 4 * drift_err[nodes].max()) + 1e-12,
        atol=0.0)


def test_localized_mass_scaling_ratio():
    """E[mu_H_0(Q(0, 2 rho))^p] / E[mu_H_0(Q(0, rho))^p] ~ 2^{zeta(p; 0)},
    with mu_H_0 the bulk mass of the field tilted toward v = 0."""
    from gmclab.tailest import zeta_tilde
    gamma = 1.0
    n = 20_000
    moments = {}
    for i, rho in enumerate((0.1, 0.2)):
        grid = fs.build_grid(2.5 * rho, 20, 21)
        factor = fs.build_cov(grid)
        params = GmcParams(gamma, 2.5 * rho)
        x = fs.sample_field_batch(factor, 31 + i, n)
        x += fs.shift_vector(factor, grid, 0.0, gamma / 2.0)[:, None]
        cells = gmc.region_halfdisk_bulk(grid, 0.0, rho)
        loc = gmc.bulk_mass(x, factor, grid, params, cells)
        moments[rho] = {p: np.mean(loc ** p) for p in (0.25, 0.4)}
    for p in (0.25, 0.4):
        ratio = moments[0.2][p] / moments[0.1][p]
        assert ratio == pytest.approx(2.0 ** zeta_tilde(p, 0.0, gamma),
                                      rel=0.15)


def test_girsanov_localization_bridge(setup):
    """E[f(mu_H) mu_bdy(I_r)] / E[mu_bdy(I_r)] equals the seg_len-weighted
    average of E[f(mu_H of the v_j-tilted field)] over boundary midpoints:
    the discrete boundary-localization identity behind the tail sampler."""
    from gmclab.fieldsim import shift_vector
    grid, factor = setup
    params = GmcParams(1.0, 0.5)
    n = 60_000
    x = fs.sample_field_batch(factor, 41, n)
    mb = gmc.bulk_mass(x, factor, grid, params, gmc.region_all_bulk(grid))
    md = gmc.bdy_mass(x, factor, grid, params, gmc.region_all_bdy(grid))
    lhs_vals = np.exp(-mb) * md / (2 * params.r)
    lhs, lhs_se = lhs_vals.mean(), lhs_vals.std(ddof=1) / np.sqrt(n)
    acc, var_acc = 0.0, 0.0
    n_j = n // grid.n_bdy
    for j in range(grid.n_bdy):
        delta = shift_vector(factor, grid, float(grid.bdy_centers[j]),
                             params.gamma / 2.0)
        xj = fs.sample_field_batch(factor, 42, n_j,
                                   stream_offset=(j + 1) << 32)
        fj = np.exp(-gmc.bulk_mass(xj + delta[:, None], factor, grid, params,
                                   gmc.region_all_bulk(grid)))
        acc += fj.mean()
        var_acc += fj.var(ddof=1) / n_j
    rhs = grid.seg_len * acc / (2 * params.r)
    rhs_se = grid.seg_len * np.sqrt(var_acc) / (2 * params.r)
    assert abs(lhs - rhs) <= 3 * np.hypot(lhs_se, rhs_se)


def test_shifted_cube_masses_match_shifted_fields():
    """Two GEMMs over e^{c x} give the masses of x + s_j for every tilt j.

    The reference runs in float64 on the float64 fields x + s_j.  The
    float32 path rounds each weight w e^{c s - c^2/2 Var X} once (u),
    computes c x with the rounded c (gamma_2 c |x| in the exponent), exp
    (EXP32_REL) and a GEMM sum of k positive terms (gamma_k)."""
    from gmclab.fieldsim import shift_vector
    grid = fs.build_grid(0.5, 6, 12)
    factor = fs.build_cov(grid)
    params = GmcParams(1.0, 0.5)
    shifts = np.column_stack([
        shift_vector(factor, grid, float(v), params.gamma / 2.0)
        for v in grid.bdy_centers])
    x = fs.sample_field_batch(factor, 31, 300)
    mb, md = gmc.ShiftedCubeMasses(factor, grid, params, shifts)(x.copy())
    assert mb.shape == md.shape == (grid.n_bdy, 300)
    assert mb.dtype == md.dtype == np.float64
    nb = grid.n_bulk_cells
    rel = [(1 + U32) * (1 + EXP32_REL) * (1 + gamma_k(k))
           * np.exp(gamma_k(2) * c * np.abs(x[rows]).max()) - 1 + 1e-12
           for k, rows, c in ((nb, slice(0, nb), params.gamma),
                              (grid.n_bdy, slice(nb, None),
                               params.gamma / 2))]
    for j in range(grid.n_bdy):
        y = x + shifts[:, j:j + 1]
        ref_b = gmc.bulk_mass(y, factor, grid, params,
                              gmc.region_all_bulk(grid))
        ref_d = gmc.bdy_mass(y, factor, grid, params,
                             gmc.region_all_bdy(grid))
        np.testing.assert_allclose(mb[j], ref_b, rtol=rel[0], atol=0.0)
        np.testing.assert_allclose(md[j], ref_d, rtol=rel[1], atol=0.0)


def test_masses_leave_the_field_unchanged(setup):
    """The renormalized exponent is built in place on a copy: every mass
    function leaves the caller's field as it was, batch or single field."""
    grid, factor = setup
    params = GmcParams(1.0, 0.5)
    x = fs.sample_field_batch(factor, 41, 50)
    bulk, bdy = gmc.region_all_bulk(grid), gmc.region_all_bdy(grid)
    calls = [
        lambda f: gmc.bulk_mass(f, factor, grid, params, bulk),
        lambda f: gmc.bdy_mass(f, factor, grid, params, bdy),
    ]
    for field in (x, x[:, 7]):
        before = field.copy()
        for call in calls:
            call(field)
            assert np.array_equal(field, before)
    # same float32 arithmetic, in the same order, as exp(c X - c^2/2 Var X)
    g = params.gamma
    w32 = gmc.bulk_weights(grid, params).astype(np.float32)
    var32 = factor.diag_var[bulk].astype(np.float32)[:, None]
    ref = np.einsum("i,i...->...", w32, np.exp(g * x[bulk] - 0.5 * g * g
                                               * var32))
    assert x.dtype == ref.dtype == np.float32
    assert np.array_equal(calls[0](x), ref.astype(np.float64))


def test_blocked_masses_continue_one_sum(monkeypatch):
    """A batch's mass over more rows than ``MASS_ROWS`` is built block by
    block in one small buffer whose row 0 carries the running sum: the
    masses are bit for bit those of one block over all rows, and the
    call never holds an array the size of the selected rows."""
    grid = fs.build_grid(0.5, 24, 48)
    factor = fs.build_cov(grid)
    params = GmcParams(1.0, 0.5)
    bulk = gmc.region_all_bulk(grid)
    x = fs.sample_field_batch(factor, 23, fs.SAMPLE_CHUNK)
    assert bulk.size > gmc.MASS_ROWS
    tracemalloc.start()
    mb = gmc.bulk_mass(x, factor, grid, params, bulk)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 0.5 * x[bulk].nbytes
    for rows in (7, bulk.size):  # 82 full blocks and a short one; one block
        monkeypatch.setattr(gmc, "MASS_ROWS", rows)
        assert np.array_equal(gmc.bulk_mass(x, factor, grid, params, bulk),
                              mb)


def test_bulk_second_moment_is_the_sampled_law():
    """E[M^2] = w^T e^{gamma^2 Sigma} w from kernel values and cell averages
    matches the same sum over the sampled covariance L L^T of the float32
    factor, within e^{gamma^2 max cov_rounding_bound} - 1 (about 1e-6 at
    8x8+16), and the reference values at r = 0.5, gamma = 1."""
    params = GmcParams(1.0, 0.5)
    for n, want in ((8, 31.2885), (16, 40.2893)):
        grid = fs.build_grid(0.5, n, 2 * n)
        m2, share = gmc.bulk_second_moment(grid, params)
        assert m2 == pytest.approx(want, abs=5e-5)
        assert 0.0 < share < 1.0
    assert share == pytest.approx(0.245, abs=5e-4)  # 16x16+32
    grid = fs.build_grid(0.5, 8, 16)
    factor = fs.build_cov(grid)
    nb = grid.n_bulk_cells
    w = gmc.bulk_weights(grid, params)
    sampled = w @ np.exp(factor.covariance()[:nb, :nb]) @ w
    rel = np.expm1(cov_rounding_bound(factor)[:nb, :nb].max())
    assert rel <= 1e-6
    m2, share = gmc.bulk_second_moment(grid, params)
    assert m2 == pytest.approx(sampled, rel=rel)
    diag = np.diag(factor.covariance())[:nb]
    assert share * m2 == pytest.approx(w @ (w * np.exp(diag)), rel=rel)


@pytest.mark.parametrize("gamma", [1.0, 1.2])
def test_bulk_second_moment_scaling(gamma):
    """Halving the cube scales E[M^2] by exactly 2^{-(4 - 3 gamma^2)}: the
    weights carry (1/2)^{2 - gamma^2/2} each and the Neumann kernel shifts
    by 2 ln 2, cell averages included."""
    m2 = [gmc.bulk_second_moment(fs.build_grid(r, 8, 16), GmcParams(gamma, r))
          for r in (0.5, 0.25)]
    assert m2[1][0] == pytest.approx(2.0 ** -(4 - 3 * gamma ** 2) * m2[0][0],
                                     rel=1e-12)
    assert m2[1][1] == pytest.approx(m2[0][1], rel=1e-12)


def test_bulk_second_moment_matches_monte_carlo():
    """At gamma = 0.5, where M^2 has finite variance and a light tail, the
    Monte Carlo mean of M^2 over 1e5 fields lies within 4 sigma of the
    exact E[M^2] (the z-score's sd over 20 seeds was 1.12)."""
    grid = fs.build_grid(0.5, 8, 16)
    factor = fs.build_cov(grid)
    params = GmcParams(0.5, 0.5)
    n = 100_000
    m = gmc.bulk_mass(fs.sample_field_batch(factor, 81, n), factor, grid,
                      params, gmc.region_all_bulk(grid))
    m2, _ = gmc.bulk_second_moment(grid, params)
    q = m * m
    assert abs(q.mean() - m2) <= 4 * q.std(ddof=1) / np.sqrt(n)
