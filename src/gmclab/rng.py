"""Counter-based random number streams.

All randomness in the package flows through Philox (counter-based) generators
keyed by ``(seed, stream)``, so any replica can be regenerated bit-identically
and worker ``w`` of a parallel loop draws from stream ``(seed, w)`` without
coordination.  Reductions over streams are always done in stream order, which
makes results independent of the execution schedule.

``fill_normal32`` turns raw Philox words into float32 normals by Box-Muller:
one 64-bit word gives two normals, and only float32 log, sqrt, sin and cos
are evaluated, which numpy runs in SIMD.  Those functions round differently
across CPUs and numpy builds, so its bits are reproducible per machine and
numpy build, not across them.  Both routes draw their fields' normals with
it and keep the fields in float32: the grid fields
(``fieldsim.map_field_chunks``, one call per block of
``fieldsim.NORMAL_ROWS`` rows, straight into the chunk that the float32
factor then multiplies in place) and the radial lateral field
(``radial.LateralModel``, one call per mode).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigInvalid


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the Philox generator for ``(seed, stream)``.

    Same arguments, same sequence -- this is the package-wide reproducibility
    contract.
    """
    if not (0 <= seed < 2 ** 64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not (0 <= stream < 2 ** 64):
        raise ValueError("stream must fit in an unsigned 64-bit integer")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# word w: its top 24 bits are the angle in units of 2^-24 of a turn, its low
# 40 bits the uniform u = (w & (2^40 - 1)) 2^-40 + 2^-41 in (0, 1]
_ANGLE_STEP = np.float32(2.0 * np.pi / 2 ** 24)
_LOW_MASK = np.uint64(2 ** 40 - 1)
_U_STEP = np.float32(2.0 ** -40)
_U_OFFSET = np.float32(2.0 ** -41)


def _normal_pairs(words: np.ndarray, cos_out: np.ndarray,
                  sin_out: np.ndarray) -> None:
    """Box-Muller on 64-bit words: with r = sqrt(-2 ln u), word i writes
    r cos(angle) to ``cos_out[i]`` and r sin(angle) to ``sin_out[i]``.
    ``sin_out`` may be one shorter than ``words``, dropping the last sine.

    The pair is exactly N(0, 1) x N(0, 1) up to float32 rounding, on an angle
    grid of 2^-24 of a turn and with the radius capped at
    sqrt(82 ln 2) = 7.54 (u >= 2^-41), which loses P[R > 7.54] = 4.5e-13.
    """
    angle = (words >> np.uint64(40)).astype(np.float32)
    angle *= _ANGLE_STEP
    r = (words & _LOW_MASK).astype(np.float32)
    r *= _U_STEP
    r += _U_OFFSET
    np.log(r, out=r)
    r *= np.float32(-2.0)
    np.sqrt(r, out=r)
    np.cos(angle, out=cos_out)
    cos_out *= r
    m = sin_out.size
    np.sin(angle[:m], out=sin_out)
    sin_out *= r[:m]


def fill_normal32(gen: np.random.Generator, out: np.ndarray) -> None:
    """Fill the C-contiguous float32 array ``out`` with N(0, 1) normals.

    Draws ceil(n/2) raw Philox words from ``gen`` for n = ``out.size``; in
    C order the first ceil(n/2) entries are their cosine normals and the
    rest their sine normals (odd n drops the last sine).  Calls of tens of
    thousands of normals run fastest: the temporaries then stay in cache.
    """
    if out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float32 array")
    flat = out.reshape(-1)
    half = (flat.size + 1) // 2
    # full-range uint64 integers are the bit generator's raw words
    words = gen.integers(0, 2 ** 64, size=half, dtype=np.uint64)
    _normal_pairs(words, flat[:half], flat[half:])


def thread_count() -> int:
    """Worker count for replica loops: GMCLAB_THREADS, default 1.

    Raises ``ConfigInvalid`` unless the variable is a positive integer.
    """
    raw = os.environ.get("GMCLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigInvalid(
            f"GMCLAB_THREADS must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ConfigInvalid(
            f"GMCLAB_THREADS must be a positive integer, got {raw!r}")
    return n


def chunk_sizes(n_total: int, chunk: int) -> list[int]:
    """Split ``n_total`` replicas into fixed-size chunks (last may be short)."""
    if n_total <= 0:
        return []
    full, rem = divmod(n_total, chunk)
    out = [chunk] * full
    if rem:
        out.append(rem)
    return out
