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
# over 2e7 arguments in [-80, 80]); so is its float64 exp (0.68 ulp
# measured over 2e5 arguments in [-40, 40])
EXP32_REL = 8 * U32
EXP_REL = {np.float32: EXP32_REL, np.float64: 8 * U64}


def gamma_k(k, u=U32):
    """Higham's gamma_k = k u / (1 - k u).  A sum or dot product of k terms,
    in any order, is within gamma_k sum |term| of the exact one, and a
    product of k factors (1 + delta), |delta| <= u, is within gamma_k of 1."""
    return k * u / (1.0 - k * u)


def mass_rel_bound(k, c, xmax, dtype=np.float32):
    """Relative bound on a mass sum_i W_i e^{c x_i} of k positive terms
    computed in ``dtype`` (unit roundoff u): W rounded once to dtype (u),
    c x with c rounded to dtype (gamma_2 c |x| in the exponent), exp
    (``EXP_REL``) and a dot product of k terms, blocked in any order
    (gamma_k).  1e-12 more covers the float64 arithmetic that builds W and
    the float64 references (under 1e-13 at these sizes)."""
    u = np.finfo(dtype).eps / 2
    return (1 + u) * (1 + EXP_REL[dtype]) * (1 + gamma_k(k, u)) \
        * np.exp(gamma_k(2, u) * c * xmax) - 1 + 1e-12


def sampled_cov(factor):
    """The sampled covariance L L^T of the float32 factor, in float64."""
    lower = factor.lower_factor.astype(np.float64)
    return lower @ lower.T


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
                        jitter_used=0.0)
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
    # a repeated index would count its node twice
    with pytest.raises(RegionMismatch):
        gmc.bulk_mass(x, factor, grid, params, np.array([3, 5, 3]))
    with pytest.raises(RegionMismatch):
        gmc.MassWeights(factor, grid, params, np.zeros((factor.dim, 1)), [],
                        [gmc.region_all_bdy(grid), np.array([0, 0])])


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


def test_mass_weights_match_shifted_fields():
    """One ``MassWeights`` call gives the masses of x + s_j for every tilt j
    over overlapping regions (all bulk cells and a half-disk, all boundary
    segments and an interval), for batches and single fields, in float32
    and float64.  The reference sums w_i e^{c (x_i + s_ij) - c^2/2 Var X_i}
    over each region in float64; a region of k nodes is within
    ``mass_rel_bound`` of it.  gamma = 1.2 is not a float32 number, so the
    rounding of c is exercised too."""
    grid = fs.build_grid(0.5, 6, 12)
    factor = fs.build_cov(grid)
    params = GmcParams(1.2, 0.5)
    g = params.gamma
    shifts = np.column_stack([fs.shift_vector(factor, grid, float(v), g / 2.0)
                              for v in grid.bdy_centers])
    bulk = [gmc.region_all_bulk(grid),
            gmc.region_halfdisk_bulk(grid, 0.0, 0.3)]
    bdy = [gmc.region_all_bdy(grid),
           gmc.region_interval_bdy(grid, -0.25, 0.25)]
    assert 0 < bulk[1].size < bulk[0].size and 0 < bdy[1].size < bdy[0].size
    masses = gmc.MassWeights(factor, grid, params, shifts, bulk, bdy)
    kinds = ((bulk, 0, g, gmc.bulk_weights(grid, params)),
             (bdy, grid.n_bulk_cells, g / 2,
              np.full(grid.n_bdy, grid.seg_len)))
    var = factor.diag_var[:, None]
    x32 = fs.sample_field_batch(factor, 31, 300)
    for field in (x32, x32.astype(np.float64), x32[:, 7],
                  x32[:, 7].astype(np.float64)):
        x = field.astype(np.float64).reshape(factor.dim, -1)
        for (regions, offset, c, w), got in zip(kinds, masses(field)):
            assert got.dtype == np.float64
            assert got.shape == (2, grid.n_bdy) + field.shape[1:]
            for r, region in enumerate(regions):
                rows = offset + region
                rel = mass_rel_bound(region.size, c, np.abs(x[rows]).max(),
                                     field.dtype.type)
                for j in range(grid.n_bdy):
                    y = x[rows] + shifts[rows, j:j + 1]
                    ref = w[region] @ np.exp(c * y - 0.5 * c * c * var[rows])
                    np.testing.assert_allclose(
                        got[r, j], ref.reshape(field.shape[1:]), rtol=rel,
                        atol=0.0)


def test_masses_leave_the_field_unchanged(setup):
    """Fields are only read: every mass call leaves the caller's field as it
    was, batch or single field, shifted or not.  A mass within one block of
    ``MASS_ROWS`` rows is bit for bit one float32 GEMM of the weights
    w_i e^{-c^2/2 Var X_i} with e^{c x_i}."""
    grid, factor = setup
    params = GmcParams(1.0, 0.5)
    x = fs.sample_field_batch(factor, 41, 50)
    bulk, bdy = gmc.region_all_bulk(grid), gmc.region_all_bdy(grid)
    shift = fs.shift_vector(factor, grid, float(grid.bdy_centers[3]), 0.5)
    calls = [
        lambda f: gmc.bulk_mass(f, factor, grid, params, bulk),
        lambda f: gmc.bdy_mass(f, factor, grid, params, bdy),
        gmc.MassWeights(factor, grid, params, shift[:, None], [bulk], [bdy]),
    ]
    for field in (x, x[:, 7]):
        before = field.copy()
        for call in calls:
            call(field)
            assert np.array_equal(field, before)
    g = params.gamma
    w32 = (gmc.bulk_weights(grid, params)
           * np.exp(-0.5 * g * g * factor.diag_var[bulk])).astype(np.float32)
    ref = w32[:, None].T @ np.exp(g * x[bulk])
    assert bulk.size <= gmc.MASS_ROWS
    assert x.dtype == ref.dtype == np.float32
    assert np.array_equal(calls[0](x), ref[0].astype(np.float64))


def test_blocked_masses_continue_one_sum(monkeypatch):
    """A batch's mass over more rows than ``MASS_ROWS`` is built block by
    block in one small buffer, each block added by one GEMM, so the call
    never holds an array the size of the selected rows.  Every block size
    sums the same float32 products W_i e^{c x_i}, only in another order;
    each order is within gamma_k of their exact sum S (k terms, all
    positive), so two block sizes agree within 2 gamma_k / (1 - gamma_k)."""
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
    rel = 2 * gamma_k(bulk.size) / (1 - gamma_k(bulk.size))
    for rows in (7, bulk.size):  # 82 full blocks and a short one; one block
        monkeypatch.setattr(gmc, "MASS_ROWS", rows)
        np.testing.assert_allclose(
            gmc.bulk_mass(x, factor, grid, params, bulk), mb, rtol=rel,
            atol=0.0)


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
    sampled = w @ np.exp(sampled_cov(factor)[:nb, :nb]) @ w
    rel = np.expm1(cov_rounding_bound(factor)[:nb, :nb].max())
    assert rel <= 1e-6
    m2, share = gmc.bulk_second_moment(grid, params)
    assert m2 == pytest.approx(sampled, rel=rel)
    diag = np.diag(sampled_cov(factor))[:nb]
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
