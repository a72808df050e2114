"""Grid geometry, covariance factorization, sampling, and Girsanov shifts."""

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from gmclab import fieldsim as fs
from gmclab import gmc, kernels
from gmclab.cellavg import neg_log_avg_segment
from gmclab.errors import ConfigInvalid, InvalidResolution, NotPositiveDefinite
from gmclab.gmc import GmcParams
from gmclab.rng import chunk_sizes, fill_normal32, stream_generator, \
    thread_count


def chunk_normals(seed, stream, dim, size):
    """The documented layout of one chunk's normals: blocks of 16 rows, each
    one ``fill_normal32`` call on the chunk's stream, top to bottom."""
    gen = stream_generator(seed, stream)
    z = np.empty((dim, size))
    for i in range(0, dim, 16):
        block = np.empty((min(16, dim - i), size), dtype=np.float32)
        fill_normal32(gen, block)
        z[i:i + block.shape[0]] = block
    return z


def test_grid_geometry_small():
    g = fs.build_grid(1.0, 2, 2)
    assert g.n_bulk_cells == 4
    assert g.cell_area == pytest.approx(1.0)
    assert g.seg_len == pytest.approx(1.0)
    assert np.all(g.bulk_centers[:, 1] > 0)
    g2 = fs.build_grid(0.5, 4, 4)
    assert g2.n_bulk_cells == 16
    assert g2.cell_area == pytest.approx(0.0625)


def test_grid_tiles_exactly():
    g = fs.build_grid(0.5, 8, 16)
    assert g.n_nodes == 64 + 16
    assert g.n_bulk_cells * g.cell_area == pytest.approx(1.0)  # area of Q_r
    assert g.n_bdy * g.seg_len == pytest.approx(1.0)
    assert np.all(np.abs(g.bdy_centers) < 0.5)


def test_grid_invalid():
    with pytest.raises(InvalidResolution):
        fs.build_grid(-1.0, 4, 4)
    with pytest.raises(InvalidResolution):
        fs.build_grid(0.5, 0, 4)
    with pytest.raises(InvalidResolution):
        fs.build_grid(0.5, 80, 80)  # beyond the dense ceiling


def test_cov_factor_reconstruction():
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    cov = f.covariance()
    rel = np.abs(f.lower_factor @ f.lower_factor.T - cov).max() \
        / np.abs(cov).max()
    assert rel <= 1e-10
    assert np.all(f.diag_var > 0)
    # off-diagonal entries are kernel values at centers
    pts = g.node_points()
    k = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    off = ~np.eye(g.n_nodes, dtype=bool)
    assert f.jitter_used == 0.0
    assert np.abs((cov - k)[off]).max() <= 1e-12
    # and the diagonal holds the cell averages: no jitter was added
    diag = fs._diag_cell_averages(g, kernels.KernelSpec())
    assert np.abs(np.diag(cov) - diag).max() <= 1e-12
    lower = f.lower_factor
    assert lower.flags["C_CONTIGUOUS"] and not np.any(np.triu(lower, 1))


def test_failed_cholesky_raises_not_positive_definite(monkeypatch):
    """The covariance is factored once: a failed factorization raises at
    once, with LAPACK's error as its cause, and no jittered retry follows."""
    calls = []
    cause = np.linalg.LinAlgError("leading minor not positive definite")

    def fail(a, *args, **kwargs):
        calls.append(a.shape)
        raise cause

    g = fs.build_grid(0.5, 6, 12)
    monkeypatch.setattr(scipy.linalg, "cholesky", fail)
    with pytest.raises(NotPositiveDefinite) as info:
        fs.build_cov(g)
    assert calls == [(g.n_nodes, g.n_nodes)]
    assert info.value.__cause__ is cause


def test_not_positive_definite_on_large_cube():
    g = fs.build_grid(1.5, 8, 8)
    with pytest.raises(NotPositiveDefinite):
        fs.build_cov(g)


def test_perturbed_additivity():
    g = fs.build_grid(0.5, 4, 8)
    base = fs.build_cov(g).covariance()
    c = 0.7
    pert = fs.build_cov(g, kernels.KernelSpec(
        g=lambda a, b: c + 0.0 * (
            np.asarray(a)[..., 0] * np.asarray(b)[..., 0])))
    assert np.allclose(pert.covariance(), base + c, atol=1e-9)


def test_neumann_boundary_block_is_log_interval_kernel():
    """The boundary block of the Neumann factor is the -2 ln|x - y|
    covariance of the boundary field, cell averages included."""
    # off-diagonal -2 ln 1 = 0 for boundary nodes at x = -0.5, +0.5
    g = fs.build_grid(1.0, 2, 2)  # midpoints at -0.5, +0.5
    pts = g.node_points()[g.n_bulk_cells:]
    k = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    assert k[0, 1] == pytest.approx(0.0, abs=1e-12)
    for grid in (fs.build_grid(0.25, 2, 4), fs.build_grid(0.5, 16, 32)):
        f = fs.build_cov(grid)
        assert f.dim == grid.n_nodes
        nb = grid.n_bulk_cells
        block = f.covariance()[nb:, nb:]
        x = grid.bdy_centers
        off = ~np.eye(grid.n_bdy, dtype=bool)
        with np.errstate(divide="ignore"):
            want = -2.0 * np.log(np.abs(x[:, None] - x[None, :]))
        assert np.abs(block - want)[off].max() <= 1e-9
        assert np.abs(np.diag(block) - 2.0 * neg_log_avg_segment(
            grid.seg_len)).max() <= 1e-9


def test_bulk_boundary_cross_block_nonzero():
    g = fs.build_grid(0.5, 4, 8)
    cov = fs.build_cov(g).covariance()
    nb = g.n_bulk_cells
    assert np.abs(cov[:nb, nb:]).max() > 0.1  # bulk and boundary are coupled


def test_sampling_determinism():
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    a = fs.sample_field_batch(f, 42, 1)[:, 0]
    b = fs.sample_field_batch(f, 42, 1)[:, 0]
    assert np.array_equal(a, b)
    c = fs.sample_field_batch(f, 43, 1)[:, 0]
    assert not np.array_equal(a, c)
    x1 = fs.sample_field_batch(f, 7, 3000)
    x2 = fs.sample_field_batch(f, 7, 3000)
    assert np.array_equal(x1, x2)
    # the streaming chunk map yields the same fields, chunk by chunk
    chunks = fs.map_field_chunks(f, 7, 3000, lambda x: x.copy())
    assert [c.shape[1] for c in chunks] == [fs.SAMPLE_CHUNK,
                                            3000 - fs.SAMPLE_CHUNK]
    assert np.array_equal(np.concatenate(chunks, axis=1), x1)


def test_batch_threads_invariance(monkeypatch):
    g = fs.build_grid(0.5, 4, 8)
    f = fs.build_cov(g)
    x1 = fs.sample_field_batch(f, 9, 5000)
    monkeypatch.setenv("GMCLAB_THREADS", "4")
    x2 = fs.sample_field_batch(f, 9, 5000)
    assert np.array_equal(x1, x2)


@pytest.fixture(scope="module")
def multi_block():
    """24x24+48 = 624 nodes."""
    return fs.build_cov(fs.build_grid(0.5, 24, 48))


def test_blocked_multiply_matches_full_product(multi_block):
    """The in-place triangular multiply agrees with the full product L z at
    288 and 624 nodes, over a full and a short chunk, and leaves L as it
    was."""
    n = fs.SAMPLE_CHUNK + 952
    for f in (fs.build_cov(fs.build_grid(0.5, 16, 32)), multi_block):
        lower = f.lower_factor.copy()
        x = fs.sample_field_batch(f, 17, n, stream_offset=5)
        assert np.array_equal(f.lower_factor, lower)
        for c, (a, b) in enumerate([(0, fs.SAMPLE_CHUNK),
                                    (fs.SAMPLE_CHUNK, n)]):
            full = lower @ chunk_normals(17, 5 + c, f.dim, b - a)
            assert np.abs(x[:, a:b] - full).max() <= 1e-12 * np.abs(full).max()


def test_blocked_multiply_threads_invariance(multi_block, monkeypatch):
    f = multi_block
    monkeypatch.setenv("GMCLAB_THREADS", "1")
    x1 = fs.sample_field_batch(f, 9, 5000)
    for workers in ("2", "4"):
        monkeypatch.setenv("GMCLAB_THREADS", workers)
        assert np.array_equal(fs.sample_field_batch(f, 9, 5000), x1)


def test_single_block_is_one_plain_product():
    """At 288 nodes each chunk is one triangular multiply of the whole factor
    by that chunk's normals, bit for bit, over a full and a short chunk."""
    f = fs.build_cov(fs.build_grid(0.5, 16, 32))
    x = fs.sample_field_batch(f, 4, 3000, stream_offset=2)
    for c, (a, b) in enumerate([(0, fs.SAMPLE_CHUNK), (fs.SAMPLE_CHUNK, 3000)]):
        z = chunk_normals(4, 2 + c, f.dim, b - a)
        fs._lower_times_inplace(f.lower_factor, z)
        assert np.array_equal(x[:, a:b], z)


def test_chunk_normals_are_row_blocks_of_fill_normal32():
    """Chunk c's normals are ``NORMAL_ROWS``-row blocks of ``fill_normal32``
    calls on stream ``stream_offset + c``, read here through an identity
    factor, over a full and a short chunk; 40 rows end in a short block."""
    assert fs.NORMAL_ROWS == 16
    dim, n = 40, fs.SAMPLE_CHUNK + 301
    ident = fs.CovFactor(dim=dim, lower_factor=np.eye(dim),
                         diag_var=np.ones(dim), jitter_used=0.0,
                         kernel=kernels.KernelSpec())
    x = fs.sample_field_batch(ident, 8, n, stream_offset=3)
    for c, (a, b) in enumerate([(0, fs.SAMPLE_CHUNK), (fs.SAMPLE_CHUNK, n)]):
        assert np.array_equal(x[:, a:b], chunk_normals(8, 3 + c, dim, b - a))


def test_masses_have_the_law_of_ziggurat_fields():
    """Whole-cube bulk and boundary masses at 16x16+32 from the sampler's
    Box-Muller normals and from numpy's float64 ziggurat normals pushed
    through the same factor have one law (two-sample KS on 30,000 fields
    each)."""
    grid = fs.build_grid(0.5, 16, 32)
    f = fs.build_cov(grid)
    params = GmcParams(1.0, 0.5)
    bulk, bdy = gmc.region_all_bulk(grid), gmc.region_all_bdy(grid)

    def masses(x):
        return (gmc.bulk_mass(x, f, grid, params, bulk),
                gmc.bdy_mass(x, f, grid, params, bdy))

    n = 30_000
    ours = fs.map_field_chunks(f, 61, n, masses)
    zig = [masses(f.lower_factor @ stream_generator(62, c).standard_normal(
        (f.dim, size))) for c, size in enumerate(
        chunk_sizes(n, fs.SAMPLE_CHUNK))]
    for k in (0, 1):
        a = np.concatenate([m[k] for m in ours])
        b = np.concatenate([m[k] for m in zig])
        assert scipy.stats.ks_2samp(a, b).pvalue >= 0.01


def test_multiply_rejects_bad_layouts():
    """BLAS gets raw pointers, so any layout but C-contiguous float64 with
    matching shapes must raise before the call, leaving both arrays as they
    were."""
    rng = np.random.default_rng(0)
    lower = np.tril(rng.standard_normal((6, 6)))
    z = rng.standard_normal((6, 8))
    bad = [(lower, z[:, ::2]), (lower, np.asfortranarray(z)),
           (lower.T, z), (lower, z.astype(np.float32)),
           (lower.astype(np.float32), z), (lower[:5, :5], z),
           (lower, z[:, :, None])]
    for a, b in bad:
        a0, b0 = a.copy(), b.copy()
        with pytest.raises(ValueError):
            fs._lower_times_inplace(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
    x = z.copy()
    fs._lower_times_inplace(lower, x)
    assert np.allclose(x, lower @ z, rtol=1e-14, atol=1e-14)


def test_thread_count_rejects_malformed_env(monkeypatch):
    monkeypatch.delenv("GMCLAB_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("GMCLAB_THREADS", "2")
    assert thread_count() == 2
    for bad in ("abc", "", "1.5", "0", "-3"):
        monkeypatch.setenv("GMCLAB_THREADS", bad)
        with pytest.raises(ConfigInvalid):
            thread_count()


def test_empirical_covariance_matches_factor():
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    cov = f.covariance()
    n = 100_000
    x = fs.sample_field_batch(f, 123, n)
    emp = (x @ x.T) / n
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    z = np.abs(emp - cov) / se
    assert z.max() <= 5.0  # 48^2 entries, 4 sigma envelope plus slack


def test_girsanov_shift_identities():
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    v = float(g.bdy_centers[3])
    x = fs.sample_field_batch(f, 11, 1)[:, 0]
    assert np.array_equal(fs.shift_vector(f, g, v, 0.0), np.zeros(g.n_nodes))
    # shifting by charge c and then by -c returns the field
    back = x + fs.shift_vector(f, g, v, 0.6) + fs.shift_vector(f, g, v, -0.6)
    assert np.allclose(back, x, atol=1e-12)
    # midpoint shift equals the factored covariance column
    delta = fs.shift_vector(f, g, v, 0.6)
    assert np.allclose(delta, 0.6 * f.cov_column(g.n_bulk_cells + 3))


def test_girsanov_two_estimator():
    """Reweighting by exp(c X_v - c^2/2 Var) equals shifting by c Cov(., X_v),
    checked for charges gamma/2 at gamma in {1, 1.5} (3 sigma, N = 1e5)."""
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    n = 100_000
    node = g.n_bulk_cells + 5
    v = float(g.bdy_centers[5])
    for gamma in (1.0, 1.5):
        charge = gamma / 2.0
        delta = fs.shift_vector(f, g, v, charge)
        xa = fs.sample_field_batch(f, 21, n)
        xb = fs.sample_field_batch(f, 22, n)
        w = np.exp(charge * xa[node] - 0.5 * charge ** 2 * f.diag_var[node])
        fa = np.exp(-np.abs(xa).mean(axis=0)) * w
        fb = np.exp(-np.abs(xb + delta[:, None]).mean(axis=0))
        za = fa.std(ddof=1) / np.sqrt(n)
        zb = fb.std(ddof=1) / np.sqrt(n)
        z = (fa.mean() - fb.mean()) / np.hypot(za, zb)
        assert abs(z) <= 3.0, f"gamma={gamma}: z={z}"


def test_shift_generic_v_and_endpoint():
    """Shifts exist at boundary midpoints only: an off-centre point and a
    segment endpoint both raise."""
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    for v in (float(g.bdy_centers[4]) + 0.3 * g.seg_len, -0.5 + g.seg_len):
        with pytest.raises(ValueError):
            fs.shift_vector(f, g, v, 1.0)


def test_semicircle_average_variance():
    """Averaging nodes near a semicircle reproduces ~2 ln(1/rho_eff)."""
    g = fs.build_grid(0.5, 16, 32)
    f = fs.build_cov(g)
    rho = 0.25
    c = g.bulk_centers
    rad = np.hypot(c[:, 0], c[:, 1])
    sel = np.flatnonzero(np.abs(rad - rho) <= g.dx / 2)
    assert sel.size >= 8
    wts = np.zeros(g.n_nodes)
    wts[sel] = 1.0 / sel.size
    exact = float(wts @ f.covariance() @ wts)
    rho_eff = float(np.exp(np.log(rad[sel]).mean()))
    target = -2.0 * np.log(rho_eff)
    assert abs(exact - target) / target <= 0.10
    # and the sampler reproduces the exact discrete variance
    x = fs.sample_field_batch(f, 5, 50_000)
    emp = (wts @ x).var(ddof=1)
    se = exact * np.sqrt(2.0 / 50_000)
    assert abs(emp - exact) <= 4 * se
