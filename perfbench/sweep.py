"""Per-layer sweep over grid size and derivative order (traced runs only).

Times the three per-step building blocks in isolation: the kernel-cache
build, the observation jet for one y, and one filter step with a
prebuilt cache.  Each figure is the median of a few repeats, in
microseconds.  A building block the library no longer has reads 0.
"""
from __future__ import annotations

import statistics
import time

import filterjet as fj
from workloads import THETA, make_model, observation_block, op_rng

SIZES = (24, 64, 256, 512)
ORDERS = (1, 2, 3)
SWEEP_ID = 0


def _median_us(fn, args_list) -> float:
    samples = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def sweep(seed: int) -> dict[str, float]:
    out = {}
    for cells in SIZES:
        repeats = 7 if cells <= 64 else (5 if cells <= 256 else 3)
        ys = observation_block(op_rng(SWEEP_ID, seed, cells), repeats)
        for order in ORDERS:
            tag = f"N{cells}.o{order}"
            model = make_model(cells, order)
            build = step = obs = 0.0
            if hasattr(fj, "KernelCache"):
                build = _median_us(fj.KernelCache, [(model, THETA)] * repeats)
                cache = fj.KernelCache(model, THETA)
                if hasattr(cache, "observation_vectors"):
                    obs = _median_us(cache.observation_vectors, [(y,) for y in ys])
                measure = fj.embed(fj.GridMeasure.uniform(model.grid), model.index_set())
                step = _median_us(
                    lambda y: fj.filter_step(model, THETA, y, measure, cache=cache), [(y,) for y in ys]
                )
            out[f"sweep.cache_build_us.{tag}"] = build
            out[f"sweep.obs_vectors_us.{tag}"] = obs
            out[f"sweep.step_us.{tag}"] = step
    return out
