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


U32, U64 = 2.0 ** -24, 2.0 ** -53  # unit roundoff of float32 and float64
# numpy's float32 exp is within 4 ulp, 8 U32 relative (2.54 ulp measured
# over 2e7 arguments in [-80, 80])
EXP32_REL = 8 * U32


def gamma_k(k, u=U32):
    """Higham's gamma_k = k u / (1 - k u).  A sum or dot product of k terms,
    in any order, is within gamma_k sum |term| of the exact one, and a
    product of k factors (1 + delta), |delta| <= u, is within gamma_k of 1."""
    return k * u / (1.0 - k * u)


def float64_factor(grid):
    """The float64 Cholesky factor that ``build_cov`` rounds to float32: the
    same assembly, factored by the same LAPACK call."""
    pts = grid.node_points()
    cov = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    np.fill_diagonal(cov, fs.diag_cell_averages(grid, kernels.KernelSpec()))
    return cov, scipy.linalg.cholesky(cov.copy().T, check_finite=False).T


def cov_rounding_bound(f):
    """Entrywise bound on |L L^T - A|, for L the float32 factor and A the
    assembled float64 matrix, with L L^T summed in float64.

    L = fl32(L64), so each product L_ik L_jk is L64_ik L64_jk (1 + theta_2)
    (gamma_2); LAPACK's L64 L64^T = A + dA with |dA| <= gamma_{n+1}(u64)
    |L64||L64|^T (Higham, Thm 10.3); summing L L^T in float64 adds
    gamma_n(u64) |L||L|^T; and |L64| <= |L| / (1 - u).  Each term is thus a
    multiple of |L||L|^T.
    """
    a = np.abs(f.lower_factor.astype(np.float64))
    return (gamma_k(2) + 3 * gamma_k(f.dim + 1, U64)) / (1 - U32) ** 2 \
        * (a @ a.T)


def field_rounding_bound(lower64, z):
    """Entrywise bound on |x - L64 z| for x the float32 fields and
    L64 z their float64 product on the same normals.

    Row i of x is a float32 dot product of i + 1 terms of fl32(L64) and z,
    so |x_i - (L64 z)_i| <= gamma_{i+2} sum_j |L64_ij||z_j|: one rounding
    of the factor and i + 1 of the dot product.  The float64 product adds
    gamma_n(u64) of the same sum.
    """
    k = np.arange(lower64.shape[0]) + 2.0
    return (gamma_k(k) + gamma_k(lower64.shape[0], U64))[:, None] \
        * (np.abs(lower64) @ np.abs(z))


def chunk_normals(seed, stream, dim, size):
    """The documented layout of one chunk's normals: blocks of 16 rows, each
    one ``fill_normal32`` call on the chunk's stream, top to bottom."""
    gen = stream_generator(seed, stream)
    z = np.empty((dim, size), dtype=np.float32)
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
    """The factor is LAPACK's float64 factor rounded once to float32, and
    the covariance it samples is the assembled matrix up to that rounding:
    kernel values off the diagonal, cell averages on it, no jitter."""
    g = fs.build_grid(0.5, 6, 12)
    f = fs.build_cov(g)
    assembled, lower64 = float64_factor(g)
    lower = f.lower_factor
    assert lower.dtype == np.float32 and lower.flags["C_CONTIGUOUS"]
    assert np.array_equal(lower, lower64.astype(np.float32))
    assert not np.any(np.triu(lower, 1))
    cov = f.covariance()
    # both sum the same exact float64 products, in two orders
    np.testing.assert_allclose(f.diag_var, np.diag(cov),
                               rtol=2 * gamma_k(f.dim, U64), atol=0.0)
    assert np.all(f.diag_var > 0)
    assert f.jitter_used == 0.0
    # off-diagonal entries are kernel values at centers
    pts = g.node_points()
    k = kernels.pairwise(kernels.KernelSpec(), pts, pts)
    off = ~np.eye(g.n_nodes, dtype=bool)
    bound = cov_rounding_bound(f)
    assert np.all(np.abs(cov - k)[off] <= bound[off])
    # and the diagonal holds the cell averages: no jitter was added
    diag = fs.diag_cell_averages(g, kernels.KernelSpec())
    assert np.array_equal(np.diag(assembled), diag)
    assert np.all(np.abs(np.diag(cov) - diag) <= np.diag(bound))


def test_failed_cholesky_raises_not_positive_definite(monkeypatch):
    """The covariance is factored once: a failed factorization raises at
    once, with LAPACK's error as its cause, and no jittered retry follows."""
    calls = []
    cause = np.linalg.LinAlgError("leading minor not positive definite")

    def fail(a, *args, **kwargs):
        calls.append(a.shape)
        raise cause

    g = fs.build_grid(0.5, 6, 12)
    monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
    with pytest.raises(NotPositiveDefinite) as info:
        fs.build_cov(g)
    assert calls == [(g.n_nodes, g.n_nodes)]
    assert info.value.__cause__ is cause


def test_cov_assembles_lower_row_blocks(monkeypatch):
    """The kernel is evaluated on the row blocks [a:b, :b] of ``CAST_ROWS``
    rows only, the lower triangle that LAPACK reads, not on all dim^2
    pairs: 624 nodes make blocks of 256, 256 and 112 rows."""
    grid = fs.build_grid(0.5, 24, 48)
    pts = grid.node_points()
    calls = []
    pairwise = kernels.pairwise

    def counting(spec, pts_a, pts_b):
        calls.append((pts_a, pts_b))
        return pairwise(spec, pts_a, pts_b)

    monkeypatch.setattr(kernels, "pairwise", counting)
    f = fs.build_cov(grid)
    bounds = [(0, 256), (256, 512), (512, 624)]
    assert fs.CAST_ROWS == 256 and len(calls) == len(bounds)
    for (pts_a, pts_b), (a, b) in zip(calls, bounds):
        assert np.array_equal(pts_a, pts[a:b])
        assert np.array_equal(pts_b, pts[:b])
    entries = sum(len(pts_a) * len(pts_b) for pts_a, pts_b in calls)
    assert entries == 256 * 256 + 256 * 512 + 112 * 624 < f.dim ** 2


@pytest.mark.parametrize("n_bulk", [16, 32])
def test_factor_upper_triangle_is_zero(n_bulk):
    """The strict upper triangle of the factor is exactly zero, on both
    sides of the huge-page size: at 16x16+32 the float64 matrix (0.66 MB)
    and the factor are plain arrays, at 32x32+64 both (9.5 MB and 4.7 MB)
    lie on maps of their own, where nothing is written above the
    diagonal."""
    grid = fs.build_grid(0.5, n_bulk, 2 * n_bulk)
    f = fs.build_cov(grid)
    small = 8 * f.dim ** 2 < fs.HUGE_PAGE_BYTES
    assert small == (n_bulk == 16)
    assert small or 4 * f.dim ** 2 >= fs.HUGE_PAGE_BYTES
    # a plain array owns its data; one on a map is a view of the map
    assert f.lower_factor.flags.owndata == small
    assert not np.any(np.triu(f.lower_factor, 1))
    assert np.all(np.diag(f.lower_factor) > 0)


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
        # the factor's rounding, plus float64 slack between the two log
        # formulas
        bound = cov_rounding_bound(f)[nb:, nb:] + 1e-12
        x = grid.bdy_centers
        off = ~np.eye(grid.n_bdy, dtype=bool)
        with np.errstate(divide="ignore"):
            want = -2.0 * np.log(np.abs(x[:, None] - x[None, :]))
        assert np.all(np.abs(block - want)[off] <= bound[off])
        assert np.all(np.abs(np.diag(block) - 2.0 * neg_log_avg_segment(
            grid.seg_len)) <= np.diag(bound))


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


def test_batch_is_the_chunks_of_the_chunk_map(monkeypatch):
    """``sample_field_batch`` draws each chunk straight into its output
    columns; the result equals, bit for bit, the chunks that a copying
    ``fn`` receives from ``map_field_chunks``, over two full chunks and a
    short one, for 1, 2 and 4 workers."""
    f = fs.build_cov(fs.build_grid(0.5, 16, 32))
    n = 2 * fs.SAMPLE_CHUNK + 123
    x1 = None
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("GMCLAB_THREADS", workers)
        x = fs.sample_field_batch(f, 13, n, stream_offset=4)
        chunks = fs.map_field_chunks(f, 13, n, lambda c: c.copy(),
                                     stream_offset=4)
        assert [c.shape[1] for c in chunks] == [fs.SAMPLE_CHUNK,
                                                fs.SAMPLE_CHUNK, 123]
        assert np.array_equal(x, np.concatenate(chunks, axis=1))
        x1 = x if x1 is None else x1
        assert np.array_equal(x, x1)
    for bad in (np.empty((f.dim, n - 1), np.float32),
                np.empty((f.dim, n), np.float64)):
        with pytest.raises(ValueError):
            fs.map_field_chunks(f, 13, n, lambda c: None, out=bad)


def test_each_worker_refills_one_chunk_buffer(monkeypatch):
    """A call draws every chunk into one buffer per worker, so it holds
    ``thread_count()`` chunks of memory however many chunks it draws."""
    f = fs.build_cov(fs.build_grid(0.5, 4, 8))
    n = 5 * fs.SAMPLE_CHUNK + 10
    for workers in (1, 2):
        monkeypatch.setenv("GMCLAB_THREADS", str(workers))
        starts = fs.map_field_chunks(
            f, 3, n, lambda x: x.__array_interface__["data"][0])
        assert len(starts) == 6 and len(set(starts)) <= workers


@pytest.fixture(scope="module")
def multi_block():
    """24x24+48 = 624 nodes: the grid and its factor."""
    grid = fs.build_grid(0.5, 24, 48)
    return grid, fs.build_cov(grid)


def test_blocked_multiply_matches_full_product(multi_block):
    """The float32 fields agree with the float64 product L64 z of the
    unrounded factor and the same normals, entry by entry within the
    rounding bound, at 288 and 624 nodes, over a full and a short chunk;
    the multiply leaves L as it was."""
    n = fs.SAMPLE_CHUNK + 952
    small = fs.build_grid(0.5, 16, 32)
    for grid, f in ((small, fs.build_cov(small)), multi_block):
        lower = f.lower_factor.copy()
        _, lower64 = float64_factor(grid)
        x = fs.sample_field_batch(f, 17, n, stream_offset=5)
        assert x.dtype == np.float32
        assert np.array_equal(f.lower_factor, lower)
        for c, (a, b) in enumerate([(0, fs.SAMPLE_CHUNK),
                                    (fs.SAMPLE_CHUNK, n)]):
            z = chunk_normals(17, 5 + c, f.dim, b - a).astype(np.float64)
            err = np.abs(x[:, a:b] - lower64 @ z)
            assert np.all(err <= field_rounding_bound(lower64, z))


def test_blocked_multiply_threads_invariance(multi_block, monkeypatch):
    _, f = multi_block
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
    ident = fs.CovFactor(dim=dim, lower_factor=np.eye(dim, dtype=np.float32),
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


@pytest.mark.parametrize("n_bulk", [16, 24])
def test_float32_masses_match_float64_fields(n_bulk):
    """On the same normals, masses from the float32 path (fields,
    exponentials and sums in float32) match gmc's float64 masses of the
    float64 fields L64 z within the rounding bound, at 16x16+32 and
    24x24+48.

    At node i the float32 exponent c x_i - c^2/2 Var X_i is off the float64
    one by at most d_i = c e_i + gamma_4 (c |x_i| + c^2/2 Var X_i): e_i is
    the field bound, and gamma_4 covers rounding c, Var X and c^2/2, the two
    products and the subtraction.  The term w_i e^{...} is then within
    (1 + u)(1 + EXP32_REL) e^{d_i} - 1 relative (the weight's rounding and
    exp), the float32 sum of k positive terms adds gamma_k, and the float64
    reference gamma_{k+8}(u64).
    """
    grid = fs.build_grid(0.5, n_bulk, 2 * n_bulk)
    f = fs.build_cov(grid)
    _, lower64 = float64_factor(grid)
    params = GmcParams(1.0, 0.5)
    bulk, bdy = gmc.region_all_bulk(grid), gmc.region_all_bdy(grid)
    n = 600  # one chunk: stream 0
    x32 = fs.sample_field_batch(f, 71, n)
    z = chunk_normals(71, 0, f.dim, n).astype(np.float64)
    x64 = lower64 @ z
    err = field_rounding_bound(lower64, z)
    assert np.all(np.abs(x32 - x64) <= err)

    def mass_bound(rows, c, w):
        v = f.diag_var[rows][:, None]
        d = c * err[rows] + gamma_k(4) * (
            c * np.abs(x32[rows].astype(np.float64)) + 0.5 * c * c * v)
        terms = w[:, None] * np.exp(c * x64[rows] - 0.5 * c * c * v)
        k = len(rows)
        rho = (1 + U32) * (1 + EXP32_REL) * (1 + gamma_k(k)) * np.exp(d) \
            - 1 + gamma_k(k + 8, U64)
        return (terms * rho).sum(axis=0)

    g = params.gamma
    for ours, ref, bound in (
            (gmc.bulk_mass(x32, f, grid, params, bulk),
             gmc.bulk_mass(x64, f, grid, params, bulk),
             mass_bound(bulk, g, gmc.bulk_weights(grid, params))),
            (gmc.bdy_mass(x32, f, grid, params, bdy),
             gmc.bdy_mass(x64, f, grid, params, bdy),
             mass_bound(grid.n_bulk_cells + bdy, g / 2,
                        np.full(grid.n_bdy, grid.seg_len)))):
        assert ours.dtype == np.float64
        assert np.all(np.abs(ours - ref) <= bound)


def test_multiply_rejects_bad_layouts():
    """BLAS gets raw pointers, so the factor must be C-contiguous float32
    and the normals float32 with contiguous rows, of matching shapes: any
    other layout must raise before the call, float64 arrays included,
    leaving both arrays as they were.  A column block of a wider C-ordered
    array is accepted, and its product equals the contiguous one bit for
    bit, leaving the other columns as they were."""
    rng = np.random.default_rng(0)
    lower = np.tril(rng.standard_normal((6, 6))).astype(np.float32)
    z = rng.standard_normal((6, 8)).astype(np.float32)
    bad = [(lower, z[:, ::2]), (lower, np.asfortranarray(z)),
           (lower.T, z), (lower, z.astype(np.float64)),
           (lower.astype(np.float64), z), (lower[:5, :5], z),
           (lower, z[:, :, None])]
    for a, b in bad:
        a0, b0 = a.copy(), b.copy()
        with pytest.raises(ValueError):
            fs._lower_times_inplace(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
    x = z.copy()
    fs._lower_times_inplace(lower, x)
    # row i is a float32 dot product of i + 1 exact terms: gamma_{i+1}
    a64, z64 = np.abs(lower.astype(np.float64)), z.astype(np.float64)
    k = np.arange(6) + 1.0
    bound = (gamma_k(k) + gamma_k(6, U64))[:, None] * (a64 @ np.abs(z64))
    assert np.all(np.abs(x - lower.astype(np.float64) @ z64) <= bound)
    wide = rng.standard_normal((6, 20)).astype(np.float32)
    wide[:, 5:13] = z
    before = wide.copy()
    fs._lower_times_inplace(lower, wide[:, 5:13])
    assert np.array_equal(wide[:, 5:13], x)
    assert np.array_equal(np.delete(wide, np.s_[5:13], axis=1),
                          np.delete(before, np.s_[5:13], axis=1))


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
