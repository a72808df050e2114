"""GMC masses: renormalization identities, localized masses of tilted
fields, scaling."""

import numpy as np
import pytest

from gmclab import fieldsim as fs
from gmclab import gmc
from gmclab.errors import RegionMismatch, SupercriticalWeight
from gmclab.gmc import GmcParams


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
    assert total == pytest.approx(parts, rel=1e-12)
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
    each segment j away from v weighted by |m_j - v|^{-gamma^2/2}."""
    grid = fs.build_grid(0.5, 8, 17)
    factor = fs.build_cov(grid)
    params = GmcParams(gamma, 0.5)
    j = grid.n_bdy // 2
    v = float(grid.bdy_centers[j])
    x = fs.sample_field_batch(factor, 51, 20)
    tilted = x + fs.shift_vector(factor, grid, v, gamma / 2.0)[:, None]
    var = factor.diag_var[:, None]

    cells = gmc.region_all_bulk(grid)
    c = grid.bulk_centers
    w = gmc.bulk_weights(grid, params) \
        * np.hypot(c[:, 0] - v, c[:, 1]) ** -gamma ** 2
    ref = w @ np.exp(gamma * x[cells] - 0.5 * gamma ** 2 * var[cells])
    np.testing.assert_allclose(
        gmc.bulk_mass(tilted, factor, grid, params, cells), ref,
        rtol=1e-12, atol=0.0)

    segs = np.delete(gmc.region_all_bdy(grid), j)
    nodes = grid.n_bulk_cells + segs
    w = grid.seg_len * np.abs(grid.bdy_centers[segs] - v) ** (-gamma ** 2 / 2)
    ref = w @ np.exp(0.5 * gamma * x[nodes] - gamma ** 2 / 8 * var[nodes])
    np.testing.assert_allclose(
        gmc.bdy_mass(tilted, factor, grid, params, segs), ref,
        rtol=1e-12, atol=0.0)


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
    """Two GEMMs over e^{c x} give the masses of x + s_j for every tilt j."""
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
    for j in range(grid.n_bdy):
        y = x + shifts[:, j:j + 1]
        ref_b = gmc.bulk_mass(y, factor, grid, params,
                              gmc.region_all_bulk(grid))
        ref_d = gmc.bdy_mass(y, factor, grid, params,
                             gmc.region_all_bdy(grid))
        np.testing.assert_allclose(mb[j], ref_b, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(md[j], ref_d, rtol=1e-12, atol=0.0)


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
    # same arithmetic, in the same order, as exp(c X - c^2/2 Var X)
    g = params.gamma
    ref = np.einsum("i,i...->...", gmc.bulk_weights(grid, params),
                    np.exp(g * x[bulk] - 0.5 * g * g
                           * factor.diag_var[bulk][:, None]))
    assert np.array_equal(calls[0](x), ref)
