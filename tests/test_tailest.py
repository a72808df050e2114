"""Tail fits on known laws, the localization estimator, quotient moments,
feasibility systems, and the perturbed-kernel factor."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gmclab
from gmclab import fieldsim as fs
from gmclab import gmc, tailest
from gmclab.errors import (ConfigInvalid, DegenerateWindow, EmptySample,
                           GeometryViolation)
from gmclab.gmc import GmcParams
from gmclab.radial import DriftSpec, RadialConfig, RadialSampler, sample_max
from gmclab.rng import stream_generator

U32 = 2.0 ** -24  # float32 unit roundoff
EXP32_REL = 8 * U32  # numpy's float32 exp is within 4 ulp


def gamma_k(k, u=U32):
    """Higham's gamma_k = k u / (1 - k u): a dot product of k terms, in any
    order, is within gamma_k sum |term| of the exact one."""
    return k * u / (1.0 - k * u)


def curve_of(rows):
    """(t, phat, stderr) rows as the ``WeightedSurvival`` that ``fit_tail``
    reads; no exceedance counts are kept."""
    ts, phat, stderr = np.asarray(rows, dtype=float).T
    return tailest.WeightedSurvival(ts=ts, phat=phat, stderr=stderr,
                                    n_exceed=np.zeros(ts.size, dtype=int))


def test_survival_curve_basics():
    rows = tailest.survival_curve([1.0, 2.0, 3.0], [2.5])
    assert rows[0][1] == pytest.approx(1.0 / 3.0)
    rows = tailest.survival_curve([1.0, 2.0, 3.0], [0.5, 10.0])
    assert rows[0][1] == 1.0
    assert rows[1][1] == 0.0 and rows[1][2] == 0.0  # boundary flagged
    with pytest.raises(EmptySample):
        tailest.survival_curve([], [1.0])
    with pytest.raises(ValueError):
        tailest.survival_curve([1.0], [2.0, 1.0])


def test_fit_tail_pareto_oracle():
    """X = U^{-1/2} has survival t^{-2} exactly above 1 (inverse CDF)."""
    rng = stream_generator(99, 0)
    x = rng.random(100_000) ** -0.5
    ts = np.geomspace(1.2, 30.0, 40)
    fit = tailest.fit_tail(curve_of(tailest.survival_curve(x, ts)),
                           (1.5, 20.0))
    assert fit.exponent == pytest.approx(2.0, abs=0.05)
    assert fit.constant == pytest.approx(1.0, rel=0.05)


def test_fit_tail_exp_max_oracle():
    """e^{gamma M} with M ~ Exp(2/g - g/2) has index 2/g^2 - 1/2 = 1.5."""
    m = sample_max(DriftSpec(1.0), 7, n=100_000)
    y = np.exp(m)  # survival t^{-1.5} exactly for t >= 1
    ts = np.geomspace(1.5, 100.0, 30)
    fit = tailest.fit_tail(curve_of(tailest.survival_curve(y, ts)),
                           (1.5, 100.0))
    assert fit.exponent == pytest.approx(1.5, abs=0.05)
    assert fit.constant == pytest.approx(1.0, rel=0.05)


def test_fit_tail_errors():
    with pytest.raises(DegenerateWindow):
        tailest.fit_tail(curve_of([(1.0, 0.5, 0.01)] * 3), (0.5, 2.0))
    with pytest.raises(DegenerateWindow):
        # empty window
        tailest.fit_tail(curve_of([(1.0, 0.5, 0.01)] * 10), (2.0, 0.5))


@pytest.fixture(scope="module")
def grid_setup():
    grid = fs.build_grid(0.5, 6, 12)
    factor = fs.build_cov(grid)
    params = GmcParams(1.0, 0.5)
    return grid, factor, params


def _localized_point(params, grid, factor, t, n_per_point, seed):
    curve = tailest.localized_survival_curve(params, grid, factor, [t],
                                             n_per_point, seed)
    return float(curve.phat[0]), float(curve.stderr[0])


def test_localized_estimator_consistency(grid_setup):
    """IS and plain MC agree wherever plain MC has >= 100 exceedances."""
    grid, factor, params = grid_setup
    _, mb = tailest.plain_survival(params, grid, factor, [1.0], 100_000, 3)
    t = float(np.quantile(mb, 0.90))
    p_pl = float(np.mean(mb > t))
    se_pl = np.sqrt(p_pl * (1 - p_pl) / mb.size)
    p_is, se_is = _localized_point(params, grid, factor, t, 20_000, 5)
    assert abs(p_pl - p_is) <= 3 * np.hypot(se_pl, se_is)


def test_localized_estimator_t_zero(grid_setup):
    """At t = 0 the indicator is always one and the identity integrates to 1."""
    grid, factor, params = grid_setup
    p, se = _localized_point(params, grid, factor, 0.0, 20_000, 7)
    assert abs(p - 1.0) <= 4 * se


def test_localized_estimator_variance_win(grid_setup):
    """At deep t the IS relative error beats plain MC at equal field draws."""
    grid, factor, params = grid_setup
    n = 50_000
    _, mb = tailest.plain_survival(params, grid, factor, [1.0], n, 11)
    t = float(np.quantile(mb, 0.999))
    p_pl = float(np.mean(mb > t))
    se_pl = np.sqrt(p_pl * (1 - p_pl) / n)
    p_is, se_is = _localized_point(params, grid, factor, t,
                                   n // grid.n_bdy, 13)
    assert se_is / p_is < se_pl / p_pl


def test_localized_curve_monotone_any_t_order(grid_setup):
    """phat and n_exceed are nonincreasing in t, ties and t = 0 included, and
    an unsorted t-grid gives the sorted curve's values in its own order."""
    grid, factor, params = grid_setup
    ts = np.array([0.0, 1.0, 2.0, 2.0, 5.0, 20.0, 80.0, 400.0, 1e12])
    curve = tailest.localized_survival_curve(params, grid, factor, ts,
                                             3000, 19)
    assert np.all(np.diff(curve.phat) <= 0.0)
    assert np.all(np.diff(curve.n_exceed) <= 0)
    assert curve.n_exceed[0] == grid.n_bdy * 3000
    assert curve.phat[-1] == 0.0 and curve.n_exceed[-1] == 0
    assert curve.phat[2] == curve.phat[3]
    perm = np.array([4, 0, 8, 2, 6, 1, 3, 7, 5])
    shuffled = tailest.localized_survival_curve(params, grid, factor,
                                                ts[perm], 3000, 19)
    assert np.array_equal(shuffled.phat, curve.phat[perm])
    assert np.array_equal(shuffled.stderr, curve.stderr[perm])
    assert np.array_equal(shuffled.n_exceed, curve.n_exceed[perm])


def test_localized_curve_threads_bit_exact(grid_setup, monkeypatch):
    """Chunks run on the thread pool but reduce in chunk order."""
    grid, factor, params = grid_setup
    ts = np.geomspace(2.0, 2000.0, 20)
    curves = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GMCLAB_THREADS", threads)
        # 2500 replicas per tilt: two chunks per replica block
        curves.append(tailest.localized_survival_curve(params, grid, factor,
                                                       ts, 2500, 23))
    one, two = curves
    assert np.array_equal(one.phat, two.phat)
    assert np.array_equal(one.stderr, two.stderr)
    assert np.array_equal(one.n_exceed, two.n_exceed)


def test_loglogwls_recovers_is_curve(grid_setup):
    grid, factor, params = grid_setup
    ts = np.geomspace(2.0, 2000.0, 50)
    curve = tailest.localized_survival_curve(params, grid, factor, ts,
                                             10_000, 17)
    assert curve.phat[0] > curve.phat[-1] > 0
    assert np.all(np.diff(curve.phat) <= 1e-15)  # survival is nonincreasing


def test_constant_prefactor():
    assert tailest.tail_constant_prefactor(np.sqrt(2.0), 1.0) == \
        pytest.approx(1.0)  # 2 * 1 * (1 - 1/2), unit-integrand hook
    assert tailest.tail_constant_prefactor(1.0, 0.5) == pytest.approx(0.75)


def test_estimate_constant_radial_stability():
    params = GmcParams(1.0, 0.5)
    cfg = RadialConfig(ds=0.1, n_theta=16)  # the default horizon
    sampler = RadialSampler(1.0, cfg)
    draws = sampler.sample_joint(3, 4000, want_truncated=False)
    est = tailest.estimate_constant_radial(params, 4000, 3, draws=draws)
    assert est.ci_low < est.estimate < est.ci_high
    assert 0 < est.trimmed_estimate <= est.estimate * 1.2
    assert est.mean_trunc_rel < 1e-3
    # determinism
    again = tailest.estimate_constant_radial(
        params, 4000, 3, draws=sampler.sample_joint(3, 4000,
                                                    want_truncated=False))
    assert again.estimate == est.estimate
    # N must equal the draw count
    with pytest.raises(ValueError, match="N=3999"):
        tailest.estimate_constant_radial(params, 3999, 3, draws=draws)


@pytest.mark.parametrize("rows", [None, 7])
def test_bootstrap_blocks_match_one_shot_draw(monkeypatch, rows):
    """The bootstrap, drawn and averaged in row blocks (also blocks that do
    not divide N_BOOT), gives the interval of one (N_BOOT, N) index draw
    from the same stream, bit for bit."""
    if rows is not None:
        monkeypatch.setattr(tailest, "BOOT_ROWS", rows)
    params = GmcParams(1.0, 0.5)
    n, seed = 999, 8
    rng = np.random.default_rng(4)
    draws = {"IH_inf": rng.lognormal(size=n),
             "Ibdy_inf": rng.lognormal(size=n), "bound_H": np.zeros(n),
             "bound_bdy": np.zeros(n)}
    est = tailest.estimate_constant_radial(params, n, seed, draws=draws)
    q = draws["IH_inf"] ** 2.0 / draws["Ibdy_inf"]
    pref = tailest.tail_constant_prefactor(1.0, 0.5)
    idx = stream_generator(seed, 2 ** 33).integers(0, n,
                                                  size=(tailest.N_BOOT, n))
    lo, hi = np.quantile(pref * q[idx].mean(axis=1), [0.025, 0.975])
    assert est.ci_low == lo and est.ci_high == hi


def test_truncation_diagnostic_reads_both_integrals():
    """The quotient divides by I_bdy, so a draw's truncation error is the
    larger of its relative bounds on I_H and on I_bdy; here the boundary
    side dominates on two of the four draws."""
    draws = {"IH_inf": np.ones(4), "Ibdy_inf": np.full(4, 2.0),
             "bound_H": np.array([1e-6, 1e-6, 4e-3, 1e-6]),
             "bound_bdy": np.array([2e-3, 2e-5, 2e-5, 0.2])}
    est = tailest.estimate_constant_radial(GmcParams(1.0, 0.5), 4, 1, draws)
    rel = np.array([1e-3, 1e-5, 4e-3, 0.1])
    assert est.max_trunc_rel == pytest.approx(0.1, rel=1e-12)
    assert est.mean_trunc_rel == pytest.approx(rel.mean(), rel=1e-12)


def test_zeta_tilde_identities():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = rng.uniform(0, 3)
        u = rng.uniform(0, 2)
        g = rng.uniform(0.2, 1.9)
        # vanishes on the axis p = q/2 and satisfies the reflection identity
        assert tailest.zeta_tilde(q / 2.0, q, g) == pytest.approx(0.0)
        lhs = tailest.zeta_tilde(q / 2 + u, q, g) \
            - tailest.zeta_tilde(q / 2 - u, q, g)
        assert lhs == pytest.approx(2.0 * (2.0 - g * g / 2.0) * u, rel=1e-12)
    assert tailest.zeta_tilde(1.0, 1.0, 1.0) == pytest.approx(0.5)
    # Remark-A corner: p = 2/g^2, q = 2 stays above -1
    assert tailest.zeta_tilde(2.0, 2.0, 1.0) == pytest.approx(0.5)
    assert tailest.zeta_tilde(2.0, 2.0, 1.0) > -1.0


def test_quotient_window_predictions():
    assert tailest.quotient_finite_predicted(2.0, 1.0, 1.0)
    assert not tailest.quotient_finite_predicted(2.6, 1.0, 1.0)
    assert not tailest.quotient_finite_predicted(4.1, 10.0, 1.0)  # 4/g^2 cap


def test_radial_quotient_moment():
    sampler = RadialSampler(1.0, RadialConfig(T=8.0, ds=0.1, n_theta=8))
    draws = sampler.sample_joint(5, 2000, want_truncated=False)
    est = tailest.radial_quotient_moment(1.0, 1.0, 1.0, draws)
    assert est.finite_predicted and est.estimate > 0
    assert est.n == 2000 and est.running_mean.size == 2000
    assert est.running_mean[-1] == pytest.approx(est.estimate, rel=1e-12)
    # the estimate reads the draws and draws nothing itself
    assert est.estimate == float(np.mean(draws["IH_inf"] / draws["Ibdy_inf"]))
    with pytest.raises(ValueError):
        tailest.radial_quotient_moment(-1.0, 1.0, 1.0, draws)


def _tilted_setup():
    """8x8+17 grid: v = 0 is a segment midpoint; two regions of each kind."""
    grid = fs.build_grid(0.5, 8, 17)
    regions = ([gmc.region_all_bulk(grid),
                gmc.region_halfdisk_bulk(grid, 0.0, 0.2)],
               [gmc.region_all_bdy(grid),
                gmc.region_interval_bdy(grid, -0.2, 0.2)])
    return grid, fs.build_cov(grid), GmcParams(1.0, 0.5), regions


def test_tilted_masses_match_the_tilted_batch():
    """tilted_masses are the masses of the tilted fields x + s.  Against
    gmc's float64 masses of the float64 tilted batch, a region of k nodes
    is within the float32 bound of test_gmc's ``mass_rel_bound``:
    (1 + u)(1 + EXP32_REL)(1 + gamma_k) e^{gamma_2 c max|x|} - 1, plus
    1e-12 for the float64 side."""
    grid, factor, params, (cells, segs) = _tilted_setup()
    bulk, bdy = tailest.tilted_masses(params, grid, factor, 0.0, cells, segs,
                                      3000, 11)
    x = fs.sample_field_batch(factor, 11, 3000)
    y = x + fs.shift_vector(factor, grid, 0.0, params.gamma / 2.0)[:, None]
    assert y.dtype == np.float64
    assert len(bulk) == len(bdy) == 2

    def rel(rows, c):
        return (1 + U32) * (1 + EXP32_REL) * (1 + gamma_k(rows.size)) \
            * np.exp(gamma_k(2) * c * np.abs(x[rows]).max()) - 1 + 1e-12

    g = params.gamma
    for got, c in zip(bulk, cells):
        np.testing.assert_allclose(
            got, gmc.bulk_mass(y, factor, grid, params, c), rtol=rel(c, g),
            atol=0.0)
    for got, seg in zip(bdy, segs):
        np.testing.assert_allclose(
            got, gmc.bdy_mass(y, factor, grid, params, seg),
            rtol=rel(grid.n_bulk_cells + seg, g / 2), atol=0.0)


def test_tilted_masses_threads_bit_exact(monkeypatch):
    grid, factor, params, (cells, segs) = _tilted_setup()
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GMCLAB_THREADS", threads)
        # more than one SAMPLE_CHUNK, so the chunks can run on two workers
        runs.append(tailest.tilted_masses(params, grid, factor, 0.0, cells,
                                          segs, fs.SAMPLE_CHUNK + 500, 13))
    (bulk1, bdy1), (bulk2, bdy2) = runs
    for a, b in zip(bulk1 + bdy1, bulk2 + bdy2):
        assert np.array_equal(a, b)


def test_locality_gap_contract(grid_setup):
    grid, factor, params = grid_setup
    v = float(grid.bdy_centers[grid.n_bdy // 2])
    rho = grid.r / 4
    with pytest.raises(GeometryViolation):
        tailest.locality_gap(params, grid, factor, v, 0.3, [0.5], 100, 1)
    # quantile 1: t is the largest full-cube mass, and the local mass is
    # never larger (its region is a subset), so both terms vanish exactly
    [(t, gap, _, local)] = tailest.locality_gap(params, grid, factor, v, rho,
                                                [1.0], 5000, 5)
    assert t > 0 and gap == 0.0 and local == 0.0
    # t is read from the same pass: one three-quantile call gives the
    # one-quantile calls' rows, bit for bit
    quants = [0.99, 0.5, 0.9]
    rows = tailest.locality_gap(params, grid, factor, v, rho, quants, 3000, 7)
    assert rows == [tailest.locality_gap(params, grid, factor, v, rho, [q],
                                         3000, 7)[0] for q in quants]
    assert rows[1][0] < rows[2][0] < rows[0][0]


def test_feasible_params_systems():
    for g in (0.5, 1.0, np.sqrt(2.0), 1.8):
        for system in (tailest.EQ16, tailest.EQ20):
            fp = tailest.feasible_params(g, system)
            assert tailest.verify_feasible(g, fp)
            assert fp.slack >= 1e-9
    with pytest.raises(ConfigInvalid):
        tailest.feasible_params(1.0, "eq99")


def test_perturbed_constant_factor():
    assert tailest.perturbed_constant_factor(lambda v: 0.0, 0.5, 1.0) == \
        pytest.approx(1.0)
    assert tailest.perturbed_constant_factor(lambda v: 0.5, 0.5, 1.0) == \
        pytest.approx(np.exp(0.5))
    # exponent 2/gamma^2 - 1 vanishes at gamma = sqrt(2)
    assert tailest.perturbed_constant_factor(lambda v: v * v, 0.5,
                                             np.sqrt(2.0)) == pytest.approx(1.0)


def test_import_leaves_scipy_integrate_unloaded():
    """``scipy.integrate`` is imported by ``perturbed_constant_factor``
    alone, when first called, so ``import gmclab`` does not load it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gmclab.__file__)))
    code = ("import sys, gmclab; "
            "assert 'gmclab.tailest' in sys.modules; "
            "assert 'scipy.integrate' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_rho_scan_slope():
    slope, se, rows = tailest.quotient_rho_scan(1.0, 1.0, 1.0,
                                                [0.1, 0.2, 0.4], 4000, 3)
    assert slope == pytest.approx(tailest.zeta_tilde(1.0, 1.0, 1.0), abs=0.1)
    assert len(rows) == 3
    assert all(est > 0 and se > 0 for _, est, se in rows)
    with pytest.raises(ValueError):
        tailest.quotient_rho_scan(1.0, 1.0, -1.0, [0.1, 0.2], 10, 3)
