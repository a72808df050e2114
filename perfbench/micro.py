"""Kernel-rate microbenchmarks behind the per-layer metrics.

Shapes follow the grid sampler: one SAMPLE_CHUNK block of replicas against
the 288-node acceptance grid and the 3720-node fine grid.  Each rate is the
median over repeats, after one untimed call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(gm) -> dict:
    cols = gm.fieldsim.SAMPLE_CHUNK
    shape = (288, cols)
    gen = gm.rng.stream_generator(2 ** 63, 0)
    out = {}
    for dtype, key in ((np.float64, "rng.ns_per_normal_f64"),
                       (np.float32, "rng.ns_per_normal_f32")):
        t = _median_time(lambda: gen.standard_normal(shape, dtype=dtype), 15)
        out[key] = t / (shape[0] * shape[1]) * 1e9
    x = gen.standard_normal(shape)
    out["gmc.ns_per_exp"] = _median_time(lambda: np.exp(x), 15) \
        / x.size * 1e9
    for dim, repeats in ((288, 15), (3720, 3)):
        lower = np.tril(gen.standard_normal((dim, dim)))
        z = gen.standard_normal((dim, cols))
        t = _median_time(lambda: lower @ z, repeats)
        out[f"fieldsim.micro_gemm_gflops_{dim}"] = 2.0 * dim * dim * cols \
            / t / 1e9
    return out
