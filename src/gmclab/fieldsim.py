"""Discretized log-correlated fields on a Carleson cube.

The cube Q_r = [-r, r] x [0, 2r] is tiled by n_bulk x n_bulk cells plus n_bdy
boundary segments on [-r, r].  Each node carries the cell average of the field,
so off-diagonal covariance entries are kernel values at cell centers while
diagonal entries are exact cell-averaged self-covariances (the log singularity
is integrable).  This cell regularization makes the discrete Girsanov identity
exact: reweighting by exp(c X_j - c^2/2 Var X_j) equals shifting every node by
c Cov(X_i, X_j).

One exact dense Cholesky factorization backs the sampler: LAPACK factors
the float64 matrix in place, with no diagonal jitter, and a matrix that is
not positive definite raises.  Only the lower triangle is assembled and
factored, and the factor is then rounded once to float32, the one
precision of grid fields.  On large grids both matrices lie on memory maps
of their own with 4 kB pages, so the untouched pages right of their
diagonals never become resident: memory holds about half of each.  The
law sampled is that of
L32 L32^T, positive semidefinite by construction, and the variances and
Girsanov drifts are computed from that same float32 factor, accumulated in
float64, so the renormalization and the drifts are exact for the law
sampled.  Resolutions beyond ~4e3 nodes are rejected rather than
approximated.  Fields are x = L z with L lower triangular: one BLAS
triangular multiply (strmm) per chunk overwrites the chunk's normals z with
x, so n draws cost dim^2 n flops, not the 2 dim^2 n of a full product, and
no second chunk-sized array is made; a batch is drawn straight into its
output, chunk by chunk.  The multiply is called through the C
pointer of ``scipy.linalg.cython_blas`` and releases the interpreter lock,
so chunks run in parallel on worker threads.  Sampling is a pure function
of (factor, seed) through counter-based streams, and replica batches are
chunked so results do not depend on the worker count.

The normals z are float32 Box-Muller draws on raw Philox words
(``rng.fill_normal32``), as for the radial lateral field: a chunk fills its
(dim, size) float32 block ``NORMAL_ROWS`` rows per call, and the multiply
turns it into the fields in place.  Rounding the factor moves covariance
entries by ~1e-7 of their scale, and the fields differ from the float64
product L z on the same normals by ~1e-6 of max |x|, far below Monte Carlo
resolution.  Like the radial draws, grid fields are bit-exact per machine
and numpy build.
"""

from __future__ import annotations

import ctypes
import mmap
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import cython_blas

from . import kernels
from .cellavg import neg_log_avg_segment, neg_log_avg_tri
from .errors import InvalidResolution, NotPositiveDefinite
from .rng import chunk_sizes, fill_normal32, stream_generator, thread_count

MAX_DENSE_NODES = 4096
SAMPLE_CHUNK = 2048  # replicas per RNG stream; fixed so results ignore threading
NORMAL_ROWS = 16  # normal rows per fill_normal32 call; fixed, it sets the streams
CAST_ROWS = 256  # rows per block when build_cov assembles and rounds the factor
# numpy asks for transparent huge pages (madvise) on every array of this many
# bytes or more; build_cov puts such matrices on maps of their own
HUGE_PAGE_BYTES = 1 << 22
# entries on and left of the diagonal of a diagonal block of CAST_ROWS rows
_CAST_MASK = np.tri(CAST_ROWS, dtype=bool)
_CAST_MASK.flags.writeable = False


@dataclass(frozen=True)
class Grid:
    """Uniform tiling of Q_r = [-r, r] x [0, 2r] plus boundary segments."""

    r: float
    n_bulk: int
    n_bdy: int
    bulk_centers: np.ndarray  # (n_bulk^2, 2), y > 0
    bdy_centers: np.ndarray   # (n_bdy,) midpoints on (-r, r)
    dx: float
    dy: float
    seg_len: float

    @property
    def n_bulk_cells(self) -> int:
        return self.n_bulk * self.n_bulk

    @property
    def n_nodes(self) -> int:
        return self.n_bulk_cells + self.n_bdy

    def node_points(self) -> np.ndarray:
        """All nodes as (n, 2) points, bulk first then boundary at y = 0."""
        bdy = np.column_stack([self.bdy_centers, np.zeros(self.n_bdy)])
        return np.vstack([self.bulk_centers, bdy])


def build_grid(r: float, n_bulk: int, n_bdy: int) -> Grid:
    """Tile Q_r exactly; cell centers at midpoints, segments tile [-r, r]."""
    if not np.isfinite(r) or not r > 0:
        raise InvalidResolution(f"cube half-width must be positive, got r={r}")
    if n_bulk < 1 or n_bdy < 1:
        raise InvalidResolution("need at least one bulk cell and one segment")
    if n_bulk * n_bulk + n_bdy > MAX_DENSE_NODES:
        raise InvalidResolution(
            f"{n_bulk}x{n_bulk}+{n_bdy} exceeds the dense ceiling of "
            f"{MAX_DENSE_NODES} nodes")
    dx = 2.0 * r / n_bulk
    dy = 2.0 * r / n_bulk
    xs = -r + dx * (np.arange(n_bulk) + 0.5)
    ys = dy * (np.arange(n_bulk) + 0.5)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    bulk = np.column_stack([gx.ravel(), gy.ravel()])
    seg = 2.0 * r / n_bdy
    bdy = -r + seg * (np.arange(n_bdy) + 0.5)
    return Grid(r=float(r), n_bulk=n_bulk, n_bdy=n_bdy, bulk_centers=bulk,
                bdy_centers=bdy, dx=dx, dy=dy, seg_len=seg)


@dataclass(frozen=True)
class CovFactor:
    """Dense lower-triangular float32 factor of the node covariance.

    The law sampled is L L^T for this float32 ``lower_factor``;
    ``diag_var`` and ``cov_column`` are that matrix's entries, summed in
    float64.  The strict upper triangle of ``lower_factor`` is exactly
    zero; on large grids it is untouched pages of a memory map of its own,
    which cost no resident memory (``_triangle_matrix``).  ``jitter_used``
    is always 0.0: the covariance is factored exactly, with no diagonal
    jitter.
    """

    dim: int
    lower_factor: np.ndarray
    diag_var: np.ndarray
    jitter_used: float

    def cov_column(self, j: int) -> np.ndarray:
        """Column j of the sampled covariance, L L^T e_j, in float64."""
        lower = self.lower_factor
        return np.einsum("ik,k->i", lower, lower[j], dtype=np.float64)


def diag_cell_averages(grid: Grid, g: Optional[Callable]) -> np.ndarray:
    """Exact cell-averaged self-covariances E[X_cell^2], bulk then boundary,
    of the kernel K_C, or of K_C + g with the perturbation ``g`` given."""
    nb2 = grid.n_bulk_cells
    # all bulk cells share the direct term; the image term depends on the row
    direct = neg_log_avg_tri(grid.dx, -grid.dy, grid.dy)
    yo_levels = grid.dy * np.arange(grid.n_bulk)
    image_by_row = np.array([
        neg_log_avg_tri(grid.dx, 2.0 * yo, 2.0 * yo + 2.0 * grid.dy)
        for yo in yo_levels])
    rows = np.arange(nb2) // grid.n_bulk
    diag = np.empty(grid.n_nodes)
    diag[:nb2] = direct + image_by_row[rows]
    # on the boundary K_C restricts to -2 ln|x - y|
    diag[nb2:] = 2.0 * neg_log_avg_segment(grid.seg_len)
    if g is not None:
        pts = grid.node_points()
        diag += g(pts, pts)
    return diag


def build_cov(grid: Grid, g: Optional[Callable] = None) -> CovFactor:
    """Assemble and factor the covariance of all grid nodes, in grid order.

    The kernel is the Neumann kernel K_C, or K_C + g with the perturbation
    ``g`` given (see ``kernels.pairwise``).  Off-diagonal entries are
    kernel values at node centers, bulk/boundary cross blocks included;
    diagonal entries are exact cell averages.  The boundary block is the
    -2 ln|x - y| covariance of the boundary field, so boundary masses read
    it directly.  Only the lower triangle is assembled, the only one LAPACK
    reads: one ``kernels.pairwise`` call per row block ``[a:b, :b]`` of
    ``CAST_ROWS`` rows.  Entries right of the diagonal are evaluated only
    inside the diagonal blocks and are never read, so the matrix does not
    rely on ``pairwise`` being symmetric.  LAPACK factors the float64
    matrix once, in place, writing nothing right of the diagonal; no
    jitter is added, and a matrix that is not positive definite raises
    ``NotPositiveDefinite``.  The factor is then rounded to a C-contiguous
    float32 array and the float64 one freed, so the factor keeps 4 dim^2
    bytes.  Only the lower triangle is rounded, in the same row blocks,
    each summed into ``diag_var`` while in cache; the strict upper
    triangle keeps the zeros of a fresh array.  Both matrices come from
    ``_triangle_matrix``, so on large grids the pages right of the
    diagonal are never made resident.
    """
    pts = grid.node_points()
    dim = len(pts)
    cov = _triangle_matrix(dim, np.float64)
    for a in range(0, dim, CAST_ROWS):
        b = min(a + CAST_ROWS, dim)
        cov[a:b, :b] = kernels.pairwise(pts[a:b], pts[:b], g)
    np.fill_diagonal(cov, diag_cell_averages(grid, g))
    try:
        # the lower triangle of the C-ordered cov is the upper triangle of
        # its Fortran-ordered transpose: LAPACK writes U = L^T over it, and
        # the C-ordered L comes back as the transpose of U
        upper, _ = scipy.linalg.cho_factor(cov.T, lower=False,
                                           overwrite_a=True,
                                           check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"covariance is not positive definite (grid r={grid.r}, "
            f"{grid.n_bulk}x{grid.n_bulk}+{grid.n_bdy}, "
            f"{'Neumann' if g is None else 'perturbed'} kernel); "
            "log kernels are positive definite only on small cubes") from exc
    lower = upper.T
    lower32 = _triangle_matrix(dim, np.float32)
    diag_var = np.empty(dim)
    for a in range(0, dim, CAST_ROWS):
        b = min(a + CAST_ROWS, dim)
        block = lower32[a:b, :b]
        block[:, :a] = lower[a:b, :a]
        # right of the diagonal lie kernel values: lower32 keeps its zeros
        # there, and its pages beside the diagonal block are never written
        np.copyto(block[:, a:], lower[a:b, a:b],
                  where=_CAST_MASK[:b - a, :b - a])
        diag_var[a:b] = np.einsum("ij,ij->i", block, block, dtype=np.float64)
    return CovFactor(dim=dim, lower_factor=lower32, diag_var=diag_var,
                     jitter_used=0.0)


def _capsule_pointer(capsule) -> int:
    """Address held by a Cython ``__pyx_capi__`` capsule."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                             ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)


# strmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb); a CFUNCTYPE
# call releases the interpreter lock while BLAS runs
_INT_P = ctypes.POINTER(ctypes.c_int)
_STRMM = ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
    _INT_P, _INT_P, ctypes.POINTER(ctypes.c_float), ctypes.c_void_p, _INT_P,
    ctypes.c_void_p, _INT_P)(
        _capsule_pointer(cython_blas.__pyx_capi__["strmm"]))


def _lower_times_inplace(lower: np.ndarray, z: np.ndarray) -> None:
    """Overwrite z with ``lower @ z`` for a lower-triangular ``lower``.

    BLAS reads the C-ordered (dim, dim) ``lower`` as U = L^T, and the
    (dim, size) z, whose rows are contiguous and ``ld`` entries apart, as
    the (size, dim) Fortran matrix B = z^T with leading dimension ``ld``,
    so B <- B U is (L z)^T, written over z.  z may thus be C-contiguous or
    a column block of a wider C-ordered array.  Both layouts are checked
    first: any other would make BLAS read or write outside the arrays.
    """
    if lower.dtype != np.float32 or lower.ndim != 2 \
            or not lower.flags.c_contiguous:
        raise ValueError(f"factor must be a C-contiguous 2-D float32 "
                         f"array, got {lower.dtype} {lower.shape}")
    if z.dtype != np.float32 or z.ndim != 2 or z.strides[1] != 4 \
            or z.strides[0] < 4 * z.shape[1] or z.strides[0] % 4:
        raise ValueError(f"normals must be a 2-D float32 array with "
                         f"contiguous rows, got {z.dtype} {z.shape} with "
                         f"strides {z.strides}")
    dim, size = z.shape
    if lower.shape != (dim, dim) or not z.flags.writeable:
        raise ValueError(f"factor {lower.shape} does not match writable "
                         f"normals {z.shape}")
    m, n = ctypes.c_int(size), ctypes.c_int(dim)
    ld = ctypes.c_int(z.strides[0] // 4)
    _STRMM(b"R", b"U", b"N", b"N", ctypes.byref(m), ctypes.byref(n),
           ctypes.byref(ctypes.c_float(1.0)), lower.ctypes.data,
           ctypes.byref(n), z.ctypes.data, ctypes.byref(ld))


def _mapped_buffer(shape, dtype=np.float32) -> np.ndarray:
    """Zero-filled array of ``shape`` on an anonymous memory map of its own,
    with 4 kB pages.

    Such an array holds resident only the pages written into it, and goes
    back to the system when it is freed, whatever was allocated before:
    - glibc raises its mmap threshold to the size of any mapped block under
      32 MB that it frees, so later blocks of that size come from its heap,
      and how much of the heap stays resident then depends on the order of
      earlier allocations;
    - numpy asks for transparent huge pages on every array of
      ``HUGE_PAGE_BYTES`` or more, so writing any part of a 2 MB page makes
      all of it resident.  The map opts out of them.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * dtype.itemsize))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _triangle_matrix(dim: int, dtype) -> np.ndarray:
    """Zero (dim, dim) matrix of which only the lower triangle is written.

    From ``HUGE_PAGE_BYTES`` up it lies on a map of its own
    (``_mapped_buffer``), whose untouched pages right of the diagonal never
    become resident, which saves about half its size; as a numpy array,
    huge pages would make the whole matrix resident.  Below that size a
    plain numpy array already has 4 kB pages, and it may come from glibc's
    recycled heap, whose pages are resident already: a fresh map costs a
    page fault per 4 kB touched, which at a few hundred nodes outweighs
    what the triangle saves.
    """
    if dim * dim * np.dtype(dtype).itemsize >= HUGE_PAGE_BYTES:
        return _mapped_buffer((dim, dim), dtype)
    return np.zeros((dim, dim), dtype=dtype)


def _draw_fields(gen: np.random.Generator, lower: np.ndarray,
                 x: np.ndarray) -> None:
    """Overwrite the (dim, size) x, whose rows are contiguous, with the
    fields L z of normals z drawn from ``gen``.

    z is filled in blocks of ``NORMAL_ROWS`` rows, top to bottom, one
    ``fill_normal32`` call each: straight into x when x is C-contiguous,
    else through one (NORMAL_ROWS, size) scratch block, since
    ``fill_normal32`` needs contiguous output.
    """
    dim, size = x.shape
    scratch = None if x.flags.c_contiguous \
        else np.empty((NORMAL_ROWS, size), dtype=np.float32)
    # a whole-chunk call would add a chunk of words and temporaries
    for i in range(0, dim, NORMAL_ROWS):
        rows = x[i:i + NORMAL_ROWS]
        if scratch is None:
            fill_normal32(gen, rows)
        else:
            block = scratch[:len(rows)]
            fill_normal32(gen, block)
            rows[...] = block
    _lower_times_inplace(lower, x)


def map_field_chunks(factor: CovFactor, seed: int, n: int,
                     fn: Callable[[np.ndarray], Any], stream_offset: int = 0,
                     out: Optional[np.ndarray] = None) -> list:
    """Draw n fields chunk by chunk; return ``fn(x)`` per chunk, in chunk order.

    Replicas are cut into fixed chunks of ``SAMPLE_CHUNK``; chunk c draws its
    normals z from stream ``stream_offset + c`` and x = L z is its (dim,
    size) float32 block of fields.  z is filled in blocks of
    ``NORMAL_ROWS`` rows (the last may be short), top to bottom: each block
    is one ``fill_normal32`` call on the chunk's generator.  A block of k
    rows reads ceil(k size / 2) words, whose cosines fill its first half in
    C order and whose sines the rest.  One in-place BLAS triangular
    multiply turns z into x, reading only the lower triangle of L.  Chunks
    run on a pool of ``thread_count()`` threads, and results come back in
    chunk order, so any reduction over them is identical for every worker
    count.

    With ``out``, a (dim, n) float32 array, chunk c is drawn straight into
    its columns ``out[:, a:b]`` and x is that view, so no chunk buffer is
    made.  Without ``out`` no (dim, n) array is built: each worker holds
    one chunk buffer for the whole call (``_mapped_buffer``) and refills
    it chunk after chunk, so ``fn`` may overwrite x but must not keep it,
    and the buffers are unmapped when the call returns.
    """
    lower, dim = factor.lower_factor, factor.dim
    sizes = chunk_sizes(n, SAMPLE_CHUNK)
    workers = min(thread_count(), len(sizes))
    if out is not None and (out.shape != (dim, n) or out.dtype != np.float32):
        raise ValueError(f"out must be a ({dim}, {n}) float32 array, got "
                         f"{out.dtype} {out.shape}")
    free = queue.SimpleQueue()
    if out is None:
        for _ in range(workers):
            free.put(_mapped_buffer(dim * sizes[0]))

    def run(c):
        a, b = c * SAMPLE_CHUNK, c * SAMPLE_CHUNK + sizes[c]
        gen = stream_generator(seed, stream_offset + c)
        if out is not None:
            x = out[:, a:b]
            _draw_fields(gen, lower, x)
            return fn(x)
        buf = free.get()
        try:
            x = buf[:dim * (b - a)].reshape(dim, b - a)
            _draw_fields(gen, lower, x)
            return fn(x)
        finally:
            free.put(buf)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(len(sizes))))
    return [run(c) for c in range(len(sizes))]


def sample_field_batch(factor: CovFactor, seed: int, n: int,
                       stream_offset: int = 0) -> np.ndarray:
    """(dim, n) float32 matrix of independent fields; column order is
    reproducible.

    Columns are the chunks of ``map_field_chunks`` in chunk order, each
    drawn straight into its columns of the output, so the output is
    identical for any worker count and no chunk buffer is made.
    """
    out = np.empty((factor.dim, n), dtype=np.float32)
    map_field_chunks(factor, seed, n, lambda x: None, stream_offset, out=out)
    return out


def shift_vector(factor: CovFactor, grid: Grid, v: float, charge: float) -> np.ndarray:
    """Girsanov drift charge * Cov(., X at boundary midpoint v).

    ``v`` must be a boundary segment midpoint; the drift is then exactly
    ``charge`` times the factored covariance column of that node (discrete
    Cameron-Martin).  Any other v raises ``ValueError``.
    """
    j = int(np.argmin(np.abs(grid.bdy_centers - v)))
    if not np.isclose(v, grid.bdy_centers[j], rtol=0.0,
                      atol=1e-12 * grid.seg_len):
        raise ValueError(f"v={v} is not a boundary segment midpoint")
    return charge * factor.cov_column(grid.n_bulk_cells + j)
