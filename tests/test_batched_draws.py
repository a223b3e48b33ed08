"""Row-batched draws and phi rows against the one-at-a-time code they replace.

The ergodicity experiment draws every start x replica row of a step in
one call and scores phi over all rows at once.  Each piece must give
the bits the scalar code gives: the normal streams against scalar
standard_normal() draws, the batched samplers against loops over the
scalar samplers, the phi rows against the per-measure formulas, and the
whole probe against a copy of the row-major loop it replaced.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterjet import (
    GridMeasure,
    KernelCache,
    NormalStreams,
    StateGrid,
    VectorMeasure,
    bounded_lipschitz_phi,
    component_tv_phi,
    embed,
    ergodicity_experiment,
    labeled_rng,
    log_linear_fit,
    posterior_mean_phi,
    state_projection_phi,
)
from filterjet import models
from filterjet.filtering import _step
from filterjet.multiindex import enumerate_indices

from conftest import THETA, make_model, random_l0


def scalar_normals(seed, count):
    rng = np.random.default_rng(seed)
    return np.array([rng.standard_normal() for _ in range(count)])


@settings(max_examples=40, deadline=None)
@given(
    streams=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    reads=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 300), st.integers(0, 300)),
        min_size=1, max_size=25,
    ),
)
def test_stream_blocks_equal_scalar_draws(streams, reads):
    # each read peeks a block of one row, then moves its cursor on, into
    # the block or past it; the reads cross the 256-normal refills, the
    # segment growth and normals that every row of a stream skipped
    expected = [scalar_normals(seed, 8000) for seed in range(3)]
    normals = NormalStreams([np.random.default_rng(seed) for seed in range(3)], streams)
    cursors = [0] * len(streams)
    for row, width, consumed in reads:
        row = row % len(streams)
        block = normals.peek(np.array([row]), width)[0]
        start = cursors[row]
        assert np.array_equal(block, expected[streams[row]][start : start + width])
        normals.advance(np.array([row]), consumed)
        cursors[row] += consumed


def test_all_rows_read_their_streams_in_one_block():
    normals = NormalStreams([np.random.default_rng(seed) for seed in range(2)], [0, 1, 0])
    normals.advance(np.array([2]), 5)
    block = normals.peek(np.arange(3), 400)
    first, second = scalar_normals(0, 405), scalar_normals(1, 400)
    assert np.array_equal(block, np.stack([first[:400], second, first[5:]]))


def test_streams_must_index_the_generators():
    with pytest.raises(ValueError, match="generator indices"):
        NormalStreams([np.random.default_rng(0)], [0, 1])


def batched_and_scalar_paths(model, xs0, streams, skips, steps, seed=11):
    """Paths drawn by the batched samplers and by the scalar ones, row by row."""
    generators = [np.random.default_rng([seed, s]) for s in range(max(streams) + 1)]
    normals = NormalStreams(generators, streams)
    normals.advance(np.arange(len(streams)), skips)
    batched, xs = [], np.array(xs0, dtype=float)
    for _ in range(steps):
        xs = model.transition_samples(THETA, xs, normals)
        ys = model.observation_samples(THETA, xs, normals)
        batched.append((xs, ys))
    scalar = []
    rngs = []
    for stream, skip in zip(streams, skips):
        rng = np.random.default_rng([seed, stream])
        for _ in range(skip):
            rng.standard_normal()
        rngs.append(rng)
    xs = [float(x) for x in xs0]
    for _ in range(steps):
        xs = [model.transition_sample(THETA, x, rng) for x, rng in zip(xs, rngs)]
        ys = [model.observation_sample(THETA, x, rng) for x, rng in zip(xs, rngs)]
        scalar.append((np.array(xs), np.array(ys)))
    # the next normal of each row is the next scalar draw of its generator
    after = normals.peek(np.arange(len(streams)), 1)[:, 0]
    return batched, scalar, after, np.array([rng.standard_normal() for rng in rngs])


@pytest.mark.parametrize(
    "model_kwargs",
    [
        {},
        {"variant": "gaussian"},
        # a box 1/500 of the noise scale wide: about 900 trials per draw
        # and a few past 1024, so the rounds widen, the slowest rows go on
        # stream by stream, and the streams refill and grow
        {"obs_box": (-0.002, 0.002), "obs_scale": 2.0},
    ],
    ids=["compact", "gaussian", "tight-box"],
)
def test_batched_samplers_equal_scalar_loops(model_kwargs):
    model = make_model(cells=16, order=1, **model_kwargs)
    # rows 0, 2 and 4 share stream 0 at different cursors
    streams = [0, 1, 0, 2, 0]
    skips = [0, 3, 7, 0, 1]
    xs0 = [-2.9, 0.0, 1.5, 2.9, -0.4]
    batched, scalar, after, expected_after = batched_and_scalar_paths(model, xs0, streams, skips, 30)
    for (bx, by), (sx, sy) in zip(batched, scalar):
        assert np.array_equal(bx, sx)
        assert np.array_equal(by, sy)
    assert np.array_equal(after, expected_after)


def test_batched_cap_counts_trials_as_the_scalar_loop(monkeypatch):
    # about 900 trials per draw, so at a cap of 1,500 some rows give up and
    # others accept between the last full round and the cap
    monkeypatch.setattr(models, "SAMPLER_MAX_TRIALS", 1500)
    model = make_model(cells=16, order=1, obs_box=(-0.002, 0.002), obs_scale=2.0)
    xs = np.linspace(-2.5, 2.5, 40)
    with pytest.raises(ArithmeticError) as scalar:
        for r, x in enumerate(xs):
            model.observation_sample(THETA, x, np.random.default_rng([5, r]))
    normals = NormalStreams([np.random.default_rng([5, r]) for r in range(xs.size)], np.arange(xs.size))
    with pytest.raises(ArithmeticError) as batched:
        model.observation_samples(THETA, xs, normals)
    assert str(batched.value) == str(scalar.value)


def test_stuck_rows_of_several_streams_read_at_most_32_normals_each(monkeypatch):
    # In a box that no row reaches, every row stays pending; the widest
    # blocks go to one stream's rows at a time, which bounds the memory.
    monkeypatch.setattr(models, "SAMPLER_MAX_TRIALS", 4096)
    model = make_model(cells=16, order=1, obs_box=(5.0, 6.0), obs_scale=0.25)
    xs = np.linspace(-3.0, 3.0, 3000)
    streams = np.arange(xs.size) % 60
    normals = NormalStreams([np.random.default_rng([9, s]) for s in range(60)], streams)
    shared_widths = []
    peek = normals.peek

    def spy(rows, width):
        if np.unique(streams[rows]).size > 1:
            shared_widths.append(width)
        return peek(rows, width)

    monkeypatch.setattr(normals, "peek", spy)
    with pytest.raises(ArithmeticError, match="after 4096 trials"):
        model.observation_samples(THETA, xs, normals)
    assert shared_widths and max(shared_widths) <= 32


# The per-measure formulas of the built-in functionals before they took rows.
def mean_formula(x, y, m):
    return float(m.component(m.index_set.zero).mean()[0])


PER_MEASURE = {
    "posterior-mean": mean_formula,
    "bounded-lipschitz": lambda x, y, m: math.tanh(x + y + mean_formula(x, y, m)),
    "state-projection": lambda x, y, m: x,
    "component-tv-1_0": lambda x, y, m: m.component((1, 0)).tv_norm(),
}


def builtin_phis(model):
    return [
        posterior_mean_phi(model),
        bounded_lipschitz_phi(model),
        state_projection_phi(),
        component_tv_phi((1, 0)),
    ]


@pytest.mark.parametrize(
    "grid",
    [
        StateGrid.uniform([(-3.0, 3.0)], 24),
        StateGrid.uniform([(-3.0, 3.0)], 257),
        StateGrid.uniform([(-2.0, 2.0), (-1.0, 3.0)], (9, 14)),
    ],
    ids=["N24", "N257", "planar"],
)
def test_phi_rows_equal_the_per_measure_formulas(grid):
    model = make_model(cells=8, order=2)
    iset = enumerate_indices(2, 2)
    rng = np.random.default_rng(17)
    rows = 13
    components = rng.standard_normal((rows, len(iset), grid.size))
    xs, ys = rng.uniform(-3, 3, rows), rng.uniform(-6, 6, rows)
    for phi in builtin_phis(model):
        got = phi.fn(xs, ys, components, iset, grid)
        measures = [VectorMeasure(c, iset, grid) for c in components]
        formula = PER_MEASURE[phi.name]
        expected = [formula(x, y, m) for x, y, m in zip(xs.tolist(), ys.tolist(), measures)]
        assert np.array_equal(got, expected), phi.name
        assert [phi(x, y, m) for x, y, m in zip(xs, ys, measures)] == expected


def row_major_ergodicity(model, theta, phi_name, starts, record_ns, replicas, seed, chain):
    """The experiment as it ran row by row: draws per row, phi per measure view."""
    formula = PER_MEASURE[phi_name]
    cache = KernelCache(model, theta, starts[0][2].index_set)
    n_max = record_ns[-1]
    n_rows = len(starts) * replicas
    xs = np.empty((n_rows, n_max + 1))
    ys = np.empty_like(xs)
    for z_idx, (x0, y0, _) in enumerate(starts):
        for r in range(replicas):
            rng = labeled_rng(seed, "ergodicity", r)
            row = z_idx * replicas + r
            x, y = float(x0), float(y0)
            xs[row, 0], ys[row, 0] = x, y
            for n in range(1, n_max + 1):
                x = model.transition_sample(theta, x, rng)
                y = model.observation_sample(theta, x, rng)
                xs[row, n], ys[row, n] = x, y
    update_with = ys[:, 1:] if chain == "aligned" else ys[:, :-1]
    components = np.repeat([m.components for _, _, m in starts], replicas, axis=0)
    samples = np.empty((len(starts), len(record_ns), replicas))
    t_idx = 0
    for n in range(n_max + 1):
        if t_idx < len(record_ns) and n == record_ns[t_idx]:
            for row, (x, y) in enumerate(zip(xs[:, n].tolist(), ys[:, n].tolist())):
                z_idx, r = divmod(row, replicas)
                view = VectorMeasure(components[row], cache.index_set, cache.grid)
                samples[z_idx, t_idx, r] = formula(x, y, view)
            t_idx += 1
        if n < n_max:
            components = _step(cache, cache.observation_vectors(update_with[:, n]), components, n + 1)[0]
    estimates = samples.mean(axis=2)
    stderr = samples.std(axis=2, ddof=1) / math.sqrt(replicas)
    spreads = estimates.max(axis=0) - estimates.min(axis=0)
    positive = spreads > 0.0
    if positive.sum() >= 2:
        slope, _, r2 = log_linear_fit(np.asarray(record_ns)[positive], spreads[positive])
    else:
        slope, r2 = math.nan, math.nan
    return estimates, stderr, spreads, slope, r2


@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("chain", ["aligned", "shifted"])
def test_probe_equals_the_row_major_loop(variant, chain):
    model = make_model(cells=16, order=2, variant=variant)
    grid, iset = model.grid, model.index_set()
    starts = [
        (float(grid.axis(0)[0]), -1.0, embed(GridMeasure.point_mass(grid, 0), iset)),
        (0.3, 0.5, random_l0(model, iset, np.random.default_rng(3))),
        (float(grid.axis(0)[-1]), 1.0, embed(GridMeasure.uniform(grid), iset)),
    ]
    record_ns = [0, 2, 5, 9, 20]
    for phi in builtin_phis(model):
        probe = ergodicity_experiment(model, THETA, phi, starts, record_ns, 6, seed=29, chain=chain)
        estimates, stderr, spreads, slope, r2 = row_major_ergodicity(
            model, THETA, phi.name, starts, record_ns, 6, 29, chain
        )
        assert np.array_equal(probe.estimates, estimates), phi.name
        assert np.array_equal(probe.stderr, stderr), phi.name
        assert np.array_equal(probe.spreads, spreads), phi.name
        assert np.array_equal([probe.spread_slope, probe.spread_r_squared], [slope, r2], equal_nan=True)
