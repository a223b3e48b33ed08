"""The filter-step core against its references and its consumers.

The reference below builds the K joint-kernel matrices for every
observation and applies them slot by slot.  The factored step must give
the same Bayes filter and predictive mass bit for bit, and the same
derivative slots up to rounding.  The folds over an observation block
must equal chained calls of the core bit for bit.  The core's replica
axis must reproduce the single step: exactly at one replica, and to
rounding for a batch, whose slot 0 is factored rather than assembled.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterjet import (
    GridMeasure,
    KernelCache,
    StateGrid,
    embed,
    filter_iterate,
    filter_step_with_scalars,
    loglik_jet,
)
from filterjet.filtering import _prediction_update, _step, _update_plan
from filterjet.loglik import jet_increments_from_scalars
from filterjet.multiindex import pair_table

from conftest import THETA, make_model, random_l0
from test_grid2d_filter import PlanarTanhModel

SLOT_RTOL = 1e-12


def reference_step(cache, y, measure):
    """Assembled-matrix step: (components, s_masses, predictive)."""
    iset, grid = cache.index_set, cache.grid
    pairs = pair_table(iset)
    obs = cache.observation_vectors([y])[:, 0]
    mats = np.zeros_like(cache.trans)
    for k, row in enumerate(pairs):
        for coeff, b_slot, g_slot in row:
            mats[k] += coeff * obs[b_slot][:, None] * cache.trans[g_slot]
    weighted = measure.components * grid.weights
    n_slots = len(iset)
    r_update = {}
    for g in range(n_slots):
        for b in range(n_slots):
            if iset.degrees[g] + iset.degrees[b] <= iset.order:
                r_update[g, b] = mats[g] @ weighted[b]
    predictive = float(np.dot(r_update[0, 0], grid.weights))
    s_dens = np.zeros((n_slots, grid.size))
    for k, row in enumerate(pairs):
        for coeff, b_slot, g_slot in row:
            s_dens[k] += coeff * r_update[g_slot, b_slot]
        s_dens[k] /= predictive
    s_masses = s_dens @ grid.weights
    f_dens = np.zeros_like(s_dens)
    f_dens[0] = s_dens[0]
    for k in range(1, n_slots):
        acc = s_dens[k].copy()
        for coeff, b_slot, g_slot in pairs[k]:
            if b_slot != k:
                acc -= coeff * f_dens[b_slot] * s_masses[g_slot]
        f_dens[k] = acc
    return f_dens, s_masses, predictive


def single_step(cache, y, measure):
    """The step before it gained a replica axis: (components, s_masses, predictive)."""
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    grid = measure.grid
    weighted = measure.components * grid.weights
    obs = cache.observation_vectors([y])[:, 0]
    moved = np.empty((sum(count for _, count in blocks), grid.size))
    for q, (start, count) in enumerate(blocks):
        np.matmul(weighted[:count], cache.trans[q].T, out=moved[start : start + count])
    update = coeff @ (obs[obs_rows] * moved[moved_rows])
    update[0] = (obs[0][:, None] * cache.trans[0]) @ weighted[0]
    predictive = float(np.dot(update[0], grid.weights))
    f_dens = update / predictive
    s_masses = f_dens @ grid.weights
    for k, pairs in enumerate(pair_table(cache.index_set)):
        for c, b_slot, g_slot in pairs[:-1]:
            f_dens[k] -= c * f_dens[b_slot] * s_masses[g_slot]
    return f_dens, s_masses, predictive


def stacked_prediction_update(cache, ys, weighted):
    """The batched update before it went slot-major: (R, K, N).

    Per-replica stacked GEMMs for the moved slots and the pairing, and
    slot 0 from the assembled (R, N, N) slot-0 kernels.
    """
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    obs = cache.observation_vectors(ys)
    moved = np.empty((weighted.shape[0], sum(count for _, count in blocks), weighted.shape[2]))
    for q, (start, count) in enumerate(blocks):
        np.matmul(weighted[:, :count], cache.trans[q].T, out=moved[:, start : start + count])
    update = np.matmul(coeff, obs[obs_rows].transpose(1, 0, 2) * moved[:, moved_rows])
    kernels = obs[0][:, :, None] * cache.trans[0]
    update[:, 0] = np.matmul(kernels, weighted[:, 0, :, None])[..., 0]
    return update


class _PlanarModel(PlanarTanhModel):
    """The planar test model with a selectable derivative order."""

    def __init__(self, grid, order):
        super().__init__(grid)
        self._order = order

    @property
    def max_order(self):
        return self._order


PLANAR_SHAPES = {8: (2, 4), 24: (4, 6), 64: (8, 8)}


@lru_cache(maxsize=None)
def cached_kernel(kind, cells, order):
    if kind == "line":
        model = make_model(cells=cells, order=order)
    else:
        grid = StateGrid.uniform([(-2.0, 2.0), (-2.0, 2.0)], PLANAR_SHAPES[cells])
        model = _PlanarModel(grid, order)
    return KernelCache(model, THETA, model.index_set())


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", [8, 24, 64])
@pytest.mark.parametrize("kind", ["line", "planar"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), y=st.floats(-3.0, 3.0))
def test_factored_step_matches_assembled_kernels(kind, cells, order, seed, y):
    cache = cached_kernel(kind, cells, order)
    measure = random_l0(cache.model, cache.index_set, np.random.default_rng(seed))
    out, s_masses, predictive = filter_step_with_scalars(cache, y, measure)
    ref, ref_masses, ref_predictive = reference_step(cache, y, measure)
    assert predictive == ref_predictive
    assert np.array_equal(out.components[0], ref[0])
    for k in range(1, len(cache.index_set)):
        scale = np.max(np.abs(ref[k]))
        assert np.max(np.abs(out.components[k] - ref[k])) <= SLOT_RTOL * scale
    assert np.allclose(s_masses, ref_masses, rtol=0.0, atol=SLOT_RTOL * np.max(np.abs(ref_masses)))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", [8, 24])
@pytest.mark.parametrize("kind", ["line", "planar"])
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ys=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
)
def test_folds_equal_chained_core_steps(kind, cells, order, seed, ys):
    cache = cached_kernel(kind, cells, order)
    model, iset = cache.model, cache.index_set
    rng = np.random.default_rng(seed)
    measure = random_l0(model, iset, rng)
    chained = measure
    for j, y in enumerate(ys):
        chained = filter_step_with_scalars(cache, y, chained)[0]
        folded = filter_iterate(model, THETA, ys[: j + 1], measure).measure
        assert np.array_equal(folded.components, chained.components)

    lam0 = random_l0(model, iset, rng).component(iset.zero)
    increments = loglik_jet(model, THETA, ys, lam0, keep_increments=True).increments
    chained = embed(lam0, iset)
    for y, folded in zip(ys, increments):
        chained, s_masses, predictive = filter_step_with_scalars(cache, y, chained)
        assert np.array_equal(folded, jet_increments_from_scalars(s_masses, predictive, iset))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", [8, 24])
@pytest.mark.parametrize("kind", ["line", "planar"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), y=st.floats(-3.0, 3.0))
def test_one_replica_equals_the_single_step_exactly(kind, cells, order, seed, y):
    cache = cached_kernel(kind, cells, order)
    measure = random_l0(cache.model, cache.index_set, np.random.default_rng(seed))
    ref, ref_masses, ref_predictive = single_step(cache, y, measure)
    out, s_masses, predictive = _step(cache, np.array([y]), measure.components[None])
    assert np.array_equal(out[0], ref)
    assert np.array_equal(s_masses[0], ref_masses)
    assert predictive[0] == ref_predictive
    serial, serial_masses, serial_predictive = filter_step_with_scalars(cache, y, measure)
    assert np.array_equal(serial.components, ref)
    assert np.array_equal(serial_masses, ref_masses)
    assert serial_predictive == ref_predictive


def _assert_slots_close(got, ref):
    for k in range(ref.shape[0]):
        assert np.max(np.abs(got[k] - ref[k])) <= SLOT_RTOL * np.max(np.abs(ref[k]))


@pytest.mark.parametrize("replicas", [1, 2, 7, 60])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", [8, 24])
@pytest.mark.parametrize("kind", ["line", "planar"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_core_equals_chained_single_steps(kind, cells, order, replicas, seed):
    # every replica starts from its own measure and sees its own observations
    cache = cached_kernel(kind, cells, order)
    rng = np.random.default_rng(seed)
    starts = [random_l0(cache.model, cache.index_set, rng) for _ in range(replicas)]
    ys = rng.uniform(-3.0, 3.0, size=(3, replicas))
    batch = np.stack([measure.components for measure in starts])
    for j, row in enumerate(ys):
        batch, s_masses, predictive = _step(cache, row, batch, j + 1)
    for r, measure in enumerate(starts):
        for y in ys[:, r]:
            measure, ref_masses, ref_predictive = filter_step_with_scalars(cache, y, measure)
        _assert_slots_close(batch[r], measure.components)
        assert abs(predictive[r] - ref_predictive) <= SLOT_RTOL * ref_predictive
        scale = max(1.0, np.max(np.abs(ref_masses)))
        assert np.max(np.abs(s_masses[r] - ref_masses)) <= SLOT_RTOL * scale


@pytest.mark.parametrize("cells, order", [(32, 1), (64, 1), (64, 3), (256, 2)])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), y=st.floats(-3.0, 3.0))
def test_one_replica_keeps_its_bits_at_the_benchmark_shapes(cells, order, seed, y):
    # the perfbench references pin these bits at the workloads' shapes
    cache = cached_kernel("line", cells, order)
    measure = random_l0(cache.model, cache.index_set, np.random.default_rng(seed))
    ref = single_step(cache, y, measure)
    out = _step(cache, np.array([y]), measure.components[None])
    for got, want in zip(out, ref):
        assert np.array_equal(got[0], want)


def _assert_update_matches_stacked(cache, replicas, rng):
    starts = [random_l0(cache.model, cache.index_set, rng) for _ in range(replicas)]
    ys = rng.uniform(-3.0, 3.0, size=replicas)
    weighted = np.stack([m.components for m in starts]) * cache.grid.weights
    got = _prediction_update(cache, ys, weighted)
    ref = stacked_prediction_update(cache, ys, weighted)
    if replicas == 1:
        assert np.array_equal(got, ref)
    for r in range(replicas):
        _assert_slots_close(got[r], ref[r])


@pytest.mark.parametrize("replicas", [1, 2, 7, 60])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", [8, 24])
@pytest.mark.parametrize("kind", ["line", "planar"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_slot_major_update_matches_the_stacked_one(kind, cells, order, replicas, seed):
    _assert_update_matches_stacked(cached_kernel(kind, cells, order), replicas, np.random.default_rng(seed))


def test_slot_major_update_matches_the_stacked_one_at_criterion_7s_batch():
    _assert_update_matches_stacked(cached_kernel("line", 24, 1), 3000, np.random.default_rng(7))
