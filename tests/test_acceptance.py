"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line

    ACCEPTANCE <nn> <name>: PASS|FAIL (<detail>)

(visible with ``pytest -s``) before asserting, so the full scoreboard prints
even when a criterion fails.  Every criterion that checks a Monte Carlo or
quadrature result reads it from an ``expcli`` experiment run, and heavy runs
are shared through session fixtures.  All runs use the package default seed;
nothing here is tuned per seed.
"""

import time

import numpy as np
import pytest

from gmclab import expcli, tailest

SEED = 20_250_101  # package default seed (ExperimentConfig default)


def _line(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    return ok


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance"))


def _timed_run(out_dir, **config):
    """Run one experiment at the default seed; return (record, wall s)."""
    cfg = expcli.ExperimentConfig(seed=SEED, output_dir=out_dir, **config)
    t0 = time.perf_counter()
    rec = expcli.run(cfg)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def two_route_g1(out_dir):
    """constant-two-route at gamma = 1: its grid half is the tail-fit run
    of the same config, and its record carries tail-fit's metrics, so
    criteria 06 and 07 share it."""
    return _timed_run(out_dir, experiment="constant-two-route", gamma=1.0,
                      r=0.5, n_bulk=16, n_bdy=32, N=100_000)


@pytest.fixture(scope="session")
def girsanov_g1(out_dir):
    """validate-girsanov: the Girsanov pair on 6x6+12 and the
    renormalization means on 8x8+16, both at N = 1e5."""
    return _timed_run(out_dir, experiment="validate-girsanov", gamma=1.0,
                      r=0.5, n_bulk=16, n_bdy=32, N=100_000)


@pytest.fixture(scope="session")
def max_law_g1(out_dir):
    """max-law: 1e6 maxima per law, shared by criteria 04 and 05."""
    return _timed_run(out_dir, experiment="max-law", gamma=1.0,
                      N=1_000_000)


def test_criterion_01_kernel_identities(out_dir):
    """quadrature_cov vs 2 min(s,t) at 1e-6, with its n and n/2 rules within
    1e-6 of each other; lateral stationarity at 1e-12 and zero angular
    average at 1e-5; runtime < 10 s."""
    rec, wall = _timed_run(out_dir, experiment="validate-kernels")
    m = rec.metrics
    worst = m["semicircle_max_abs_err"]
    shift = m["lateral_stationarity_max_err"]
    zero = m["lateral_zero_average_max"]
    ok = worst <= 1e-6 and shift <= 1e-12 and zero <= 1e-5 and wall < 10
    assert _line(1, "kernel identities", ok,
                 f"quad err {worst:.1e}, shift {shift:.1e}, "
                 f"zero-avg {zero:.1e}, {wall:.1f}s")


def test_criterion_02_discrete_girsanov(girsanov_g1):
    """Reweight-vs-shift agreement within 3 combined sigma on a 6x6+12 grid
    at N = 1e5 for gamma in {1, 1.5}; runtime < 2 min."""
    rec, wall = girsanov_g1
    zs = [rec.metrics["girsanov_z_a_gamma=1.0"],
          rec.metrics["girsanov_z_b_gamma=1.5"]]
    ok = all(abs(z) <= 3.0 for z in zs) and wall < 120
    assert _line(2, "discrete Girsanov exactness", ok,
                 f"z = {zs[0]:+.2f} (g=1), {zs[1]:+.2f} (g=1.5), {wall:.0f}s")


def test_criterion_03_renormalization_means(girsanov_g1):
    """E[bulk mass] = sum w_i and E[boundary mass] = 2r within 3 sigma at
    N = 1e5 on an 8x8+16 grid; runtime < 1 min (of the shared run)."""
    rec, wall = girsanov_g1
    m = rec.metrics
    zb, zd = m["bulk_mean_z"], m["bdy_mean_z"]
    ok = abs(zb) <= 3.0 and abs(zd) <= 3.0 and wall < 60
    assert _line(3, "renormalization means", ok,
                 f"bulk z = {zb:+.2f} (target {m['bulk_mean_target']:.4f}), "
                 f"bdy z = {zd:+.2f}, {wall:.0f}s")


def test_criterion_04_maximum_law(max_law_g1):
    """KS distance of 1e6 maxima vs Exponential(2/g - g/2) <= 0.002 and the
    unit-drift case P[e^M > 2] = 0.25 within 3 sigma; runtime < 30 s."""
    rec, wall = max_law_g1
    m = rec.metrics
    ks, p, z = m["ks_distance"], m["unit_tail_prob"], m["unit_tail_z"]
    ok = ks <= 0.002 and abs(z) <= 3.0 and wall < 30
    assert _line(4, "maximum law", ok,
                 f"KS = {ks:.2e}, P[e^M>2] = {p:.5f} (z = {z:+.2f}), "
                 f"{wall:.0f}s")


def test_criterion_05_prefactor_identity(max_law_g1):
    """E[e^{-gM/2} 1{e^{gM} C > t}] = (1 - g^2/4) C^{2/g^2} t^{-2/g^2} within
    3 sigma at N = 1e6 for gamma in {1, sqrt 2}, t/C in {2, 10}."""
    rec, wall = max_law_g1
    zs = [v for k, v in rec.metrics.items() if k.startswith("footnote_z_")]
    worst = max(abs(z) for z in zs)
    ok = len(zs) == 4 and worst <= 3.0 and wall < 60
    assert _line(5, "prefactor identity", ok,
                 f"max |z| = {worst:.2f} over {len(zs)} cases, {wall:.0f}s")


def test_criterion_06_tail_exponent(two_route_g1, out_dir):
    """Importance-sampled tail exponent on the 16x16+32, r = 0.5 grid:
    within 0.15 of 2 at gamma = 1 and within 0.20 of 1.389 at gamma = 1.2,
    with a stability plateau containing the target; runtime <= 30 min.  The
    gamma = 1 values are the tail-fit metrics of the constant-two-route
    run."""
    rec1, wall1 = two_route_g1
    rec2, wall2 = _timed_run(out_dir, experiment="tail-fit", gamma=1.2,
                             r=0.5, n_bulk=16, n_bdy=32, N=100_000)
    wall = wall1 + wall2
    e1, e2 = rec1.metrics["exponent"], rec2.metrics["exponent"]
    ok = (abs(e1 - 2.0) <= 0.15 and abs(e2 - 2.0 / 1.2 ** 2) <= 0.20
          and rec1.metrics["plateau_contains_target"]
          and rec2.metrics["plateau_contains_target"] and wall <= 1800)
    assert _line(6, "tail exponent (two gammas)", ok,
                 f"g=1: {e1:.3f} (tgt 2.000), g=1.2: {e2:.3f} (tgt 1.389), "
                 f"{wall:.0f}s")


def test_criterion_07_two_route_constant(two_route_g1):
    """Grid-fit constant vs radial-formula constant: within 30% relative or
    overlapping intervals at N = 1e5 radial samples.

    The matched-scale diagnostics are printed alongside: the window-entry gap,
    and the grid and radial finite-t constants c(t) at the grid fit window's
    midpoint, which show how far below the radial curve the 16x16 grid sits
    inside its own window.  The spread printed next to the grid constant is
    that of ``fixed_exponent_constant``: max(noise floor, scatter of c(t)
    over the window).  Here the scatter term wins, so it measures how far
    c(t) bends across the window and is not a sampling error bar.
    """
    rec, wall = two_route_g1
    m = rec.metrics
    ok = bool(rec.passed) and wall <= 1800
    detail = (
        f"grid {m['constant_anchored']:.3f} (window spread "
        f"{m['constant_anchored_stderr']:.3f}, not a sampling error bar)"
        f" vs radial {m['constant_radial']:.3f} "
        f"[{m['constant_radial_ci_low']:.2f},{m['constant_radial_ci_high']:.2f}]"
        f", rel gap {m['relative_gap']:.1%}, overlap {m['intervals_overlap']}"
        f"; c(t) at window mid t={m['window_mid']:.0f}: grid "
        f"{m['grid_c_at_window_mid']:.2f}±{m['grid_c_at_window_mid_stderr']:.2f}"
        f" vs radial {m['radial_c_at_window_mid']:.2f}"
        f"±{m['radial_c_at_window_mid_stderr']:.2f}"
        f"; window-entry gap {m['matched_t_relative_gap']:.1%} "
        f"(radial c(t) at window {m['radial_c_at_window_lo']:.2f}->"
        f"{m['radial_c_at_window_hi']:.2f}), {wall:.0f}s")
    ok = _line(7, "two-route constant", ok, detail)
    assert ok, (
        "finite-window grid constant vs asymptotic radial constant: " + detail
        + "; the grid's c(t) sits below the radial c(t) inside the fit "
        "window and rises with grid resolution, so closing the gap needs "
        "grids past the dense sampler's node cap")


def test_criterion_08_radial_vs_grid_law(out_dir):
    """E[mu_H_0(Q(0, 0.25))^0.3] from the radial representation and from the
    grid agree within 15% at gamma = 1; runtime <= 10 min."""
    rec, wall = _timed_run(out_dir, experiment="quotient-moments", gamma=1.0,
                           rho=0.25, N=30_000)
    m = rec.metrics
    ok = m["eq11_relative_gap"] <= 0.15 and wall <= 600
    assert _line(8, "radial-vs-grid law (half-disk mass)", ok,
                 f"radial {m['eq11_moment_radial']:.4f} vs grid "
                 f"{m['eq11_moment_grid']:.4f}, gap "
                 f"{m['eq11_relative_gap']:.1%}, {wall:.0f}s")


def test_criterion_09_appendix_scaling(out_dir):
    """Fitted rho-slope of the localized quotient (p = q = 1, gamma = 1,
    rho in {0.05, 0.1, 0.2, 0.4}) within 0.2 of zeta_tilde = 0.5."""
    rec, wall = _timed_run(out_dir, experiment="zeta-scaling", gamma=1.0,
                           rho_list=[0.05, 0.1, 0.2, 0.4], N=30_000,
                           p_moment=1.0, q_moment=1.0)
    m = rec.metrics
    ok = m["abs_gap"] <= 0.2 and wall <= 900
    assert _line(9, "appendix rho-scaling", ok,
                 f"slope {m['slope']:.3f}±{m['slope_stderr']:.3f} vs "
                 f"zeta = {m['zeta_tilde']:.3f}, {wall:.0f}s")


def test_criterion_10_perturbed_kernel(out_dir):
    """Tail-constant ratio perturbed/exact for g = 0.5 equals e^{0.5} within
    25% at gamma = 1; runtime <= 30 min."""
    rec, wall = _timed_run(out_dir, experiment="perturbed-g", gamma=1.0,
                           g_const=0.5, N=50_000)
    m = rec.metrics
    ok = m["relative_gap"] <= 0.25 and wall <= 1800
    assert _line(10, "perturbed-kernel constant ratio", ok,
                 f"ratio {m['constant_ratio']:.3f} vs e^0.5 = "
                 f"{m['ratio_target']:.3f}, gap {m['relative_gap']:.1%}, "
                 f"{wall:.0f}s")


def test_criterion_11_locality_gap(out_dir):
    """|gap|/local-term decreases across the 50/90/99 percent t-quantiles at
    gamma = 1, v = 0, rho = r/4; runtime <= 10 min."""
    rec, wall = _timed_run(out_dir, experiment="locality-gap", gamma=1.0,
                           N=100_000)
    m = rec.metrics
    ok = bool(rec.passed) and wall <= 600
    assert _line(11, "locality gap trend", ok,
                 f"|gap|/local = {m['ratio_q50']:.3f} > {m['ratio_q90']:.3f} "
                 f"> {m['ratio_q99']:.3f}, {wall:.0f}s")


def test_criterion_12_feasibility_witnesses():
    """Verified witnesses for both parameter systems at gamma in
    {0.5, 1, sqrt 2, 1.8}; runtime < 1 s."""
    t0 = time.perf_counter()
    ok = True
    for g in (0.5, 1.0, np.sqrt(2.0), 1.8):
        for system in (tailest.EQ16, tailest.EQ20):
            fp = tailest.feasible_params(g, system)
            ok = ok and tailest.verify_feasible(g, fp)
    wall = time.perf_counter() - t0
    ok = ok and wall < 1.0
    assert _line(12, "feasibility witnesses", ok,
                 f"8 witnesses verified, {wall:.2f}s")
