"""Counter-based random number streams.

All randomness in the package flows through Philox (counter-based) generators
keyed by ``(seed, stream)``, so any replica can be regenerated bit-identically
and worker ``w`` of a parallel loop draws from stream ``(seed, w)`` without
coordination.  Reductions over streams are always done in stream order, which
makes results independent of the execution schedule.
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
