"""Radial-route samplers: maximum law, conditioned paths, lateral noise,
Williams concatenation, and the truncated integrals."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, trapezoid

from gmclab import expcli, radial
from gmclab.errors import IndexMismatch, InvalidRho, SupercriticalWeight
from gmclab.gmc import sin_power_integral
from gmclab.kernels import lateral_cov
from gmclab.radial import DriftSpec, LateralModel, RadialConfig, RadialSampler
from gmclab.rng import stream_generator


def test_drift_spec():
    assert DriftSpec(1.0).alpha == pytest.approx(1.5)
    assert DriftSpec(np.sqrt(2.0)).alpha == pytest.approx(np.sqrt(2.0) / 2.0)
    with pytest.raises(ValueError):
        DriftSpec(2.5)


def test_max_law_exact():
    spec = DriftSpec(np.sqrt(2.0))
    m = radial.sample_max(spec, 1, n=1_000_000)
    # mean of Exp(sqrt(2)/2) is sqrt(2)
    assert m.mean() == pytest.approx(np.sqrt(2.0), rel=5e-3)
    ks = stats.kstest(m, "expon", args=(0.0, 1.0 / spec.alpha)).statistic
    assert ks <= 0.002
    assert np.array_equal(radial.sample_max(spec, 3, 1),
                          radial.sample_max(spec, 3, 1))


def test_max_law_standard_case():
    m = radial.sample_max_standard(1.0, 2, n=1_000_000)
    p = np.mean(np.exp(m) > 2.0)
    se = np.sqrt(0.25 * 0.75 / 1e6)
    assert abs(p - 0.25) <= 3 * se


def test_footnote_identity():
    """E[e^{-gM/2} 1{e^{gM} C > t}] = (1 - g^2/4) C^{2/g^2} t^{-2/g^2};
    hand-derived: e^{gM} is Pareto with index 2/g^2 - 1/2 and the partial
    moment integral gives the prefactor (verified symbolically)."""
    n = 1_000_000
    for gamma in (1.0, np.sqrt(2.0)):
        m = radial.sample_max(DriftSpec(gamma), 5, n=n)
        for c_fix, ratio in ((1.0, 2.0), (1.0, 10.0), (3.0, 2.0)):
            t = c_fix * ratio
            vals = np.exp(-gamma * m / 2.0) * (np.exp(gamma * m) * c_fix > t)
            target = (1.0 - gamma ** 2 / 4.0) * c_fix ** (2.0 / gamma ** 2) \
                * t ** (-2.0 / gamma ** 2)
            se = vals.std(ddof=1) / np.sqrt(n)
            assert abs(vals.mean() - target) <= 3 * se, (gamma, ratio)


def test_conditioned_path_contract():
    spec = DriftSpec(1.0)
    times, paths = radial.sample_conditioned_path(spec, 5.0, 0.05, 1e-3, 7,
                                                  n_paths=500)
    assert paths.shape == (500, 101)
    assert np.all(paths <= 0.0)
    assert np.all(paths[:, 0] == -1e-3)
    # eps = 0 is the exact Williams start at the maximum
    _, start0 = radial.sample_conditioned_path(spec, 5.0, 0.05, 0.0, 7,
                                               n_paths=500)
    assert np.all(start0[:, 0] == 0.0)
    assert np.all(start0[:, 1:] < 0.0)
    with pytest.raises(ValueError):
        radial.sample_conditioned_path(spec, 5.0, 0.05, -1e-3, 7)
    # determinism
    _, again = radial.sample_conditioned_path(spec, 5.0, 0.05, 1e-3, 7,
                                              n_paths=500)
    assert np.array_equal(paths, again)


def test_conditioned_path_lln_drift():
    spec = DriftSpec(1.0)
    _, paths = radial.sample_conditioned_path(spec, 50.0, 0.1, 1e-3, 11,
                                              n_paths=10_000)
    drift = paths[:, -1].mean() / 50.0
    assert abs(drift + spec.alpha) / spec.alpha <= 0.05


def test_conditioned_path_exact_law():
    """From the Williams start, path(s)^2 / (2 s) is noncentral chi-square
    with 3 degrees of freedom and noncentrality lambda^2 s / 2 (the squared
    norm of a 3-d Gaussian with mean lambda s / sqrt(2) e_1, variance s)."""
    spec = DriftSpec(1.0)
    lam, ds = spec.alpha, 0.1
    times, paths = radial.sample_conditioned_path(spec, 4.0, ds, 0.0, 13,
                                                  n_paths=20_000)
    for s in (0.1, 1.0, 4.0):
        k = int(round(s / ds))
        assert times[k] == pytest.approx(s)
        law = stats.ncx2(df=3, nc=lam ** 2 * s / 2.0)
        p = stats.kstest(paths[:, k] ** 2 / (2.0 * s), law.cdf).pvalue
        assert p > 1e-3, (s, p)


def test_conditioned_step_law_against_killed_kernel():
    """One ds-step from x < 0 matches the h-transformed killed density."""
    spec = DriftSpec(1.0)
    lam, ds, x0 = spec.alpha, 0.2, -0.8
    _, paths = radial.sample_conditioned_path(spec, ds, ds, -x0, 3,
                                              n_paths=200_000)
    assert np.all(paths[:, 0] == x0)
    y = paths[:, 1]
    var = 2.0 * ds

    def density(y_):
        free = np.exp(-(y_ - (x0 - lam * ds)) ** 2 / (2 * var)) \
            / np.sqrt(2 * np.pi * var)
        killed = free * (1.0 - np.exp(-2 * x0 * y_ / var))
        return killed * (1.0 - np.exp(lam * y_))

    grid_y = np.linspace(-4, 0, 2001)
    dens = density(grid_y)
    dens /= trapezoid(dens, grid_y)
    cdf = np.cumsum(dens) * (grid_y[1] - grid_y[0])
    for q in (0.1, 0.5, 0.9):
        emp = np.quantile(y, q)
        theo = grid_y[np.searchsorted(cdf, q)]
        assert emp == pytest.approx(theo, abs=0.01)


def test_williams_concatenate_contract():
    spec = DriftSpec(1.0)
    t, d = radial.sample_conditioned_path(spec, 3.0, 0.1, 1e-3, 1, n_paths=4)
    _, a = radial.sample_conditioned_path(spec, 3.0, 0.1, 1e-3, 2, n_paths=4)
    m = np.full(4, 1.3)
    path = radial.williams_concatenate(m, (t, d), (t, a))
    assert (path.M + path.b).max() == pytest.approx(1.3 - 1e-3)
    assert path.b.shape == (2 * len(t) - 1, 4)
    # a one-path batch stays a batch
    one = radial.williams_concatenate(m[:1], (t, d[:1]), (t, a[:1]))
    assert one.b.shape == (2 * len(t) - 1, 1)
    # M = 0 degenerates to a conditioned-negative path through 0
    path0 = radial.williams_concatenate(np.zeros(4), (t, d), (t, a))
    assert np.all(path0.M + path0.b <= 0.0)
    t_bad = t * 2.0
    with pytest.raises(IndexMismatch):
        radial.williams_concatenate(m, (t, d), (t_bad, a))


def test_williams_descent_law_brute_force():
    """Post-argmax increments of unconditioned drifted paths match the
    conditioned descent sampler (binned by the maximum)."""
    spec = DriftSpec(1.0)
    lam, ds, T = spec.alpha, 0.05, 30.0
    n = 100_000
    rng = stream_generator(17, 0)
    steps = int(T / ds)
    inc = -lam * ds + np.sqrt(2 * ds) * rng.standard_normal((n, steps))
    w = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
    arg = w.argmax(axis=1)
    keep = arg + int(1.0 / ds) < w.shape[1]
    sel = np.flatnonzero(keep)
    incr = w[sel, arg[sel] + int(1.0 / ds)] - w[sel, arg[sel]]
    _, desc = radial.sample_conditioned_path(spec, 1.0, ds, 1e-3, 19,
                                             n_paths=50_000)
    ref = desc[:, -1]
    se = np.hypot(incr.std(ddof=1) / np.sqrt(len(incr)),
                  ref.std(ddof=1) / np.sqrt(len(ref)))
    # the grid argmax sits below the continuum maximum by the discrete
    # overshoot -zeta(1/2)/sqrt(2 pi) * step_std (Asmussen-Glynn), so the
    # post-argmax increment is shallower by exactly that amount
    overshoot = 0.5826 * np.sqrt(2 * ds)
    assert abs((incr.mean() - ref.mean()) - overshoot) <= 4 * se
    assert incr.var(ddof=1) == pytest.approx(ref.var(ddof=1), rel=0.1)


@pytest.fixture(scope="module")
def small_lateral():
    return LateralModel(gamma=1.0, T=4.0, ds=0.25, n_theta=8)


def _mode_cov(lm, d):
    """Covariance of two slices d steps apart: amp diag(rho^d) amp^T with
    rho_k = e^{-k ds}."""
    k = np.arange(1, lm.n_theta + 1)
    return (lm.amp * np.exp(-k * d * lm.ds)) @ lm.amp.T


def test_lateral_modes_match_kernel(small_lateral):
    """The K = n_theta kept modes reproduce the kernel up to the dropped tail
    sum_{k>K} (2/k) e^{-k tau} cos k theta cos k theta', which is at most
    2 e^{-(K+1) tau} / ((K+1)(1 - e^{-tau})) in absolute value."""
    lm = small_lateral
    K = lm.n_theta
    for d in range(1, 6):
        tau = d * lm.ds
        kern = lateral_cov(0.0, lm.theta[:, None], tau, lm.theta[None, :])
        bound = 2 * np.exp(-(K + 1) * tau) / ((K + 1) * (1 - np.exp(-tau)))
        assert np.abs(_mode_cov(lm, d) - kern).max() <= bound, d


def test_lateral_mode_variances(small_lateral):
    lm = small_lateral
    assert np.array_equal(lm.diag_var, (lm.amp ** 2).sum(axis=1))
    # on a boundary ray every cosine is 1: the variance is 2 H_K
    harmonic = (1.0 / np.arange(1, lm.n_theta + 1)).sum()
    assert lm.diag_var[0] == pytest.approx(2 * harmonic, rel=1e-12)
    assert lm.clip_report["min_eigenvalue"] == 2 / lm.n_theta


def test_lateral_field_covariance(small_lateral):
    lm = small_lateral
    n = 30_000
    y = lm._field(stream_generator(6, 0), n).astype(np.float64)
    n_s, m = lm.n_s, lm.m
    flat = y.transpose(2, 1, 0).reshape(n, n_s * m)
    cov = np.empty((n_s * m, n_s * m))
    for i in range(n_s):
        for j in range(n_s):
            cov[i * m:(i + 1) * m, j * m:(j + 1) * m] = \
                _mode_cov(lm, abs(i - j))
    emp = (flat.T @ flat) / n
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    assert (np.abs(emp - cov) / se).max() <= 5.5


def test_lateral_z_means_and_stationarity(small_lateral):
    lm = small_lateral
    zh, zbdy = lm.sample(5, 30_000)
    assert lm.ez_h == pytest.approx(sin_power_integral(0.5), rel=1e-9)
    # the slices of one draw are correlated, the draws are not: the standard
    # error comes from the per-draw slice averages
    for z, mean in ((zh, lm.ez_h), (zbdy, 2.0)):
        per_draw = z.mean(axis=0)
        se = per_draw.std(ddof=1) / np.sqrt(per_draw.size)
        assert abs(per_draw.mean() - mean) <= 3 * se
    # stationarity: slice statistics agree along s
    mid = lm.n_s // 2
    n = zh.shape[1]
    for row in (0, mid, lm.n_s - 1):
        se = zh[row].std(ddof=1) / np.sqrt(n)
        assert abs(zh[row].mean() - lm.ez_h) <= 4 * se


def test_lateral_sample_ignores_blas_threads():
    """Z_H and Z_bdy are bit-identical for any BLAS thread count.  OpenBLAS
    reads its thread count when numpy loads, so each count runs in a fresh
    process; 88 draws at the acceptance discretization is a size at which a
    BLAS gemv for the Z_H sum rounds differently on two threads."""
    code = ("import hashlib; from gmclab.radial import LateralModel; "
            "zh, zb = LateralModel(1.0, 16.0, 0.1, 32).sample(7, 88); "
            "print(hashlib.sha256(zh.tobytes() + zb.tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        digests.add(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True, check=True,
                                   timeout=120).stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("n_theta", [8, 32, 64, 128])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.2, 1.3])
def test_theta_cell_weights(gamma, n_theta):
    """The incomplete-beta cell integrals of (sin theta)^{-gamma^2/2} sum to
    ``sin_power_integral`` and match adaptive quadrature cell by cell; the
    end cells' theta^{-p} singularity goes into quad's algebraic weight."""
    p = gamma ** 2 / 2.0
    w = LateralModel(gamma, 1.0, 0.5, n_theta).zh_weights
    total = sin_power_integral(p)
    assert abs(w.sum() - total) <= 1e-14 * total
    h = np.pi / n_theta
    end = quad(lambda t: np.sinc(t / np.pi) ** -p, 0.0, h, weight="alg",
               wvar=(-p, 0.0), epsabs=0.0, epsrel=1e-13)[0]
    inner = [quad(lambda t: np.sin(t) ** -p, i * h, (i + 1) * h,
                  epsabs=0.0, epsrel=1e-13)[0] for i in range(1, n_theta - 1)]
    np.testing.assert_allclose(w, [end, *inner, end], rtol=1e-12, atol=0.0)


def test_lateral_supercritical():
    with pytest.raises(SupercriticalWeight):
        LateralModel(gamma=1.5, T=2.0, ds=0.25, n_theta=8)


def test_compute_I_synthetic():
    """Z == 1 and path == -s: integral of e^{-gamma s} over [0, inf) = 1/g."""
    ds = 0.01
    s = np.arange(-1000, 1001) * ds
    b = -np.abs(s)[:, None]
    path = radial.TwoSidedPath(s=s, b=b, M=np.zeros(1))
    ones = np.ones_like(b)
    pair, full = radial.compute_I(path, ones, ones, (0.0, np.inf), 1.0,
                                  ez_h=1.0)
    # cutoff at x=0 leaves s >= 0 (L_0 = 0)
    assert pair.IH[0] == pytest.approx(1.0, rel=2e-2)
    assert full.IH[0] == pytest.approx(2.0, rel=2e-2)


def _two_sided_draws(seed, n, T=8.0, ds=0.1):
    """n Williams paths with their lateral densities, built as sample_joint
    builds them: (path, Z_H, Z_bdy, E[Z_H])."""
    spec = DriftSpec(1.0)
    lateral = LateralModel(gamma=1.0, T=T, ds=ds, n_theta=8)
    zh, zbdy = lateral.sample(seed, n)
    t, desc = radial.sample_conditioned_path(spec, T, ds, 1e-3, seed + 1, n)
    _, asc = radial.sample_conditioned_path(spec, T, ds, 1e-3, seed + 2, n)
    m = radial.sample_max(spec, seed + 3, n=n)
    path = radial.williams_concatenate(m, (t, desc), (t, asc))
    return path, zh, zbdy, lateral.ez_h


X_GRID = (0.5, 1.0, 2.0, 4.0, np.inf)


def test_compute_I_monotone_in_x():
    """On Williams paths (B <= 0, M > 0) with nonnegative lateral densities,
    I_H(x) and I_bdy(x) are nondecreasing in the cutoff x.  One call with
    several cutoffs, scalar and per-draw, returns exactly what one call per
    cutoff returns."""
    path, zh, zbdy, ez_h = _two_sided_draws(3, 256)
    cutoffs = X_GRID + (path.M,)
    pairs = radial.compute_I(path, zh, zbdy, cutoffs, 1.0, ez_h=ez_h)
    assert len(pairs) == len(cutoffs)
    for x, pair in zip(cutoffs, pairs):
        (single,) = radial.compute_I(path, zh, zbdy, (x,), 1.0, ez_h=ez_h)
        for field in ("IH", "Ibdy", "bound_H", "bound_bdy"):
            assert np.array_equal(getattr(pair, field),
                                  getattr(single, field)), (x, field)
    grid_pairs = pairs[:len(X_GRID)]
    for prev, pair in zip(grid_pairs, grid_pairs[1:]):
        assert np.all(pair.IH >= prev.IH - 1e-12)
        assert np.all(pair.Ibdy >= prev.Ibdy - 1e-12)
    sampler = RadialSampler(1.0, RadialConfig(T=8.0, ds=0.1, n_theta=8))
    d = sampler.sample_joint(3, 256, want_truncated=True)
    assert np.all(d["IH_inf"] >= d["IH_M"] - 1e-12)
    assert np.all(d["Ibdy_inf"] >= d["Ibdy_M"] - 1e-12)


def test_truncation_bound_and_error():
    path, zh, zbdy, ez_h = _two_sided_draws(5, 512)
    pair, deep = radial.compute_I(path, zh, zbdy, (np.inf, 100.0), 1.0,
                                  ez_h=ez_h)
    # typical paths end ~ lambda T deep, so the typical bound is negligible;
    # rare shallow-ended paths keep an O(1) bound, which is the point of
    # reporting it per sample
    assert np.median(pair.bound_H / pair.IH) < 1e-4
    assert np.all(np.isfinite(pair.bound_H))
    # a cutoff the left half never reaches within the horizon has an
    # infinite bound
    assert np.all(deep.bound_H == np.inf) and np.all(deep.bound_bdy == np.inf)


def test_doubling_T_within_bound():
    params = dict(ds=0.1, n_theta=8)
    a = RadialSampler(1.0, RadialConfig(T=8.0, **params))
    b = RadialSampler(1.0, RadialConfig(T=16.0, **params))
    da = a.sample_joint(9, 4000, want_truncated=False)
    db = b.sample_joint(9, 4000, want_truncated=False)
    gap = abs(da["IH_inf"].mean() - db["IH_inf"].mean())
    se = np.hypot(da["IH_inf"].std(ddof=1), db["IH_inf"].std(ddof=1)) \
        / np.sqrt(4000)
    bound = da["bound_H"].mean()
    assert gap <= 3 * se + bound


def test_localized_masses_contract(tmp_path):
    """``localized_masses`` needs 0 < rho < 1 and reads one draw: both
    masses share N_rho, one normal per draw from stream (seed, 2**40).  A
    rho above the cube half-width r is refused by the quotient-moments
    experiment, which owns r."""
    sampler = RadialSampler(1.0, RadialConfig(T=8.0, ds=0.1, n_theta=8))
    draws = sampler.sample_joint(4, 3, want_truncated=True)
    with pytest.raises(InvalidRho):
        radial.localized_masses(1.0, 1.5, 4, draws)
    with pytest.raises(InvalidRho):  # above r
        expcli.run(expcli.ExperimentConfig(
            experiment="quotient-moments", r=0.5, rho=0.7, N=1,
            output_dir=str(tmp_path)))
    rho = 0.25
    bulk, bdy = radial.localized_masses(1.0, rho, 4, draws)
    again = radial.localized_masses(1.0, rho, 4, draws)
    assert np.array_equal(bulk, again[0]) and np.array_equal(bdy, again[1])
    assert bulk.shape == bdy.shape == (3,) and np.all(bulk > 0)
    n_rho = np.sqrt(-2.0 * np.log(rho)) \
        * stream_generator(4, 2 ** 40).standard_normal(3)
    m = draws["M"]
    assert np.allclose(bulk, rho ** 1.5 * np.exp(n_rho + m) * draws["IH_M"],
                       rtol=1e-14, atol=0.0)
    assert np.allclose(bdy, rho ** 0.75 * np.exp(0.5 * (n_rho + m))
                       * draws["Ibdy_M"], rtol=1e-14, atol=0.0)


def test_radial_gamma_to_zero_area():
    """gamma -> 0: the localized half-disk mass tends to its area pi rho^2/2
    (all weights tend to one and the chaos to Lebesgue; the spec example's
    pi rho^2 misses the 1/2 from the one-sided e^{-2s} integral)."""
    sampler = RadialSampler(1e-4, RadialConfig(T=10.0, ds=0.01, n_theta=16))
    rho = 0.25
    draws = sampler.sample_joint(8, 64, want_truncated=True)
    vals = radial.localized_masses(1e-4, rho, 8, draws)[0]
    # rectangle-rule cutoff bias is +ds relative; allow 2.5%
    assert np.allclose(vals, np.pi * rho ** 2 / 2.0, rtol=2.5e-2)


def test_sampler_determinism():
    cfg = RadialConfig(T=6.0, ds=0.1, n_theta=8)
    s1 = RadialSampler(1.0, cfg).sample_joint(11, 300)
    s2 = RadialSampler(1.0, cfg).sample_joint(11, 300)
    for k in s1:
        assert np.array_equal(s1[k], s2[k])


def test_sample_joint_chunks_do_not_depend_on_n():
    """Chunk c of ``sample_joint`` reads its own streams, so the first chunk
    of a three-chunk draw (the last one short) is a one-chunk draw."""
    sampler = RadialSampler(1.0, RadialConfig(T=4.0, ds=0.25, n_theta=8))
    chunk = radial.RADIAL_CHUNK
    one = sampler.sample_joint(11, chunk)
    three = sampler.sample_joint(11, 2 * chunk + 7)
    assert one.keys() == three.keys()
    for k in one:
        assert three[k].shape == (2 * chunk + 7,)
        assert np.array_equal(three[k][:chunk], one[k]), k


def test_draw_radial_sample_tables():
    """One fully materialized radial sample: a Williams path (B <= 0, M > 0),
    nonnegative lateral densities, and I_H(x), I_bdy(x) tabulated on an
    x-grid that ends at infinity, both nondecreasing in x."""
    path, zh, zbdy, ez_h = _two_sided_draws(21, 1, T=6.0)
    assert path.M[0] > 0
    assert np.all(path.b <= 0)
    assert np.all(zh >= 0) and np.all(zbdy >= 0)
    pairs = radial.compute_I(path, zh, zbdy, X_GRID, 1.0, ez_h=ez_h)
    ih = [pair.IH[0] for pair in pairs]
    ib = [pair.Ibdy[0] for pair in pairs]
    assert np.all(np.diff(ih) >= -1e-12)   # increasing in x
    assert np.all(np.diff(ib) >= -1e-12)
