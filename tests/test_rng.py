"""Philox streams, chunking and the float32 Box-Muller normal kernel."""

import numpy as np
import pytest
from scipy import stats

from gmclab.rng import _normal_pairs, chunk_sizes, fill_normal32, \
    stream_generator

R_MAX = 7.54  # sqrt(82 ln 2) = 7.5391: the radius at u = 2^-41


def test_fill_normal32_is_standard_normal():
    """2^21 normals drawn one 65,536-entry block at a time, as the lateral
    field draws its mode blocks: KS against N(0, 1), and the mean, variance
    and excess kurtosis within 4 standard errors; the cosine and sine halves
    of the blocks are uncorrelated."""
    rng = stream_generator(20261019, 0)
    z = np.empty((32, 1 << 16), dtype=np.float32)
    for block in z:
        fill_normal32(rng, block)
    x = z.astype(np.float64).ravel()
    n = x.size
    assert stats.kstest(x, "norm").pvalue >= 1e-3
    assert abs(x.mean()) <= 4 * np.sqrt(1.0 / n)
    assert abs(x.var() - 1.0) <= 4 * np.sqrt(2.0 / n)
    assert abs(stats.kurtosis(x)) <= 4 * np.sqrt(24.0 / n)
    half = z.shape[1] // 2
    cos_half = z[:, :half].astype(np.float64).ravel()
    sin_half = z[:, half:].astype(np.float64).ravel()
    assert abs(np.corrcoef(cos_half, sin_half)[0, 1]) \
        <= 4 * np.sqrt(1.0 / cos_half.size)


def test_extreme_words_give_finite_bounded_normals():
    """The smallest uniform (low 40 bits zero) gives the largest radius,
    sqrt(82 ln 2); the largest rounds to u = 1 and radius 0."""
    words = np.array([0, 2 ** 40 - 1, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
    c = np.empty(4, dtype=np.float32)
    s = np.empty(4, dtype=np.float32)
    _normal_pairs(words, c, s)
    z = np.concatenate([c, s])
    assert np.all(np.isfinite(z))
    assert np.abs(z).max() <= R_MAX
    # word 0: angle 0 at the largest radius
    assert c[0] == pytest.approx(np.sqrt(82 * np.log(2)), rel=1e-6)
    assert s[0] == 0.0
    # word 2^40: the same radius, one angle step (2^-24 of a turn) on
    assert np.hypot(c[2], s[2]) == pytest.approx(c[0], rel=1e-6)
    assert s[2] == pytest.approx(c[0] * 2 * np.pi / 2 ** 24, rel=1e-5)
    # low 40 bits all ones: u = 1, so r = 0
    assert c[1] == 0.0 and s[1] == 0.0
    assert c[3] == 0.0 and s[3] == 0.0


def test_fill_normal32_layout_and_odd_size():
    """n normals read ceil(n/2) words: cosines first, then sines, and an odd
    n drops the last sine."""
    out = np.empty(7, dtype=np.float32)
    gen = stream_generator(3, 1)
    fill_normal32(gen, out)
    ref_gen = stream_generator(3, 1)
    words = ref_gen.integers(0, 2 ** 64, size=4, dtype=np.uint64)
    c = np.empty(4, dtype=np.float32)
    s = np.empty(3, dtype=np.float32)
    _normal_pairs(words, c, s)
    assert np.array_equal(out, np.concatenate([c, s]))
    assert np.all(np.isfinite(out))
    # exactly four words were consumed
    assert gen.integers(0, 2 ** 64, dtype=np.uint64) \
        == ref_gen.integers(0, 2 ** 64, dtype=np.uint64)
    # a block fills through its flat C order
    block = np.empty((3, 5), dtype=np.float32)
    fill_normal32(stream_generator(3, 1), block)
    flat = np.empty(15, dtype=np.float32)
    fill_normal32(stream_generator(3, 1), flat)
    assert np.array_equal(block.ravel(), flat)


def test_fill_normal32_streams():
    def draw(seed, stream):
        out = np.empty((4, 1001), dtype=np.float32)
        fill_normal32(stream_generator(seed, stream), out)
        return out

    a = draw(9, 2)
    assert np.array_equal(a.view(np.uint32), draw(9, 2).view(np.uint32))
    assert not np.array_equal(a, draw(9, 3))
    assert not np.array_equal(a, draw(10, 2))


def test_fill_normal32_refuses_other_outputs():
    gen = stream_generator(1, 0)
    with pytest.raises(ValueError):
        fill_normal32(gen, np.empty(8))
    with pytest.raises(ValueError):
        fill_normal32(gen, np.empty((4, 4), dtype=np.float32)[:, ::2])


@pytest.mark.parametrize("seed,stream", [(-1, 0), (2 ** 64, 0), (0, -1),
                                         (0, 2 ** 64)])
def test_stream_generator_range(seed, stream):
    with pytest.raises(ValueError):
        stream_generator(seed, stream)


def test_stream_generator_edges_are_valid():
    a = stream_generator(2 ** 64 - 1, 2 ** 64 - 1).random(3)
    assert np.array_equal(a, stream_generator(2 ** 64 - 1, 2 ** 64 - 1)
                          .random(3))


def test_chunk_sizes():
    assert chunk_sizes(0, 4) == []
    assert chunk_sizes(-3, 4) == []
    assert chunk_sizes(3, 4) == [3]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(9, 4) == [4, 4, 1]
