"""The filter-step core against its references and its consumers.

The reference below builds the K joint-kernel matrices for every
observation and applies them slot by slot.  The factored step must give
the same Bayes filter and predictive mass bit for bit, and the same
derivative slots up to rounding.  The folds over an observation block
must equal chained calls of the core bit for bit.  The core's replica
axis must reproduce the single step: exactly at one replica, and to
rounding for a batch, whose slot 0 is factored rather than assembled.
An order-0 step must run and keep the slot 0 of the higher orders.
A transition slot that is zero on the whole grid must never be read,
and skipping it must keep every byte of the steps that run its GEMM.
A one-point stack must step as its point does, byte for byte, and a
stack of several points takes one replica per point.
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
    VectorMeasure,
    embed,
    filter_iterate,
    filter_step,
    filter_step_with_scalars,
    loglik_jet,
)
from filterjet import filtering
from filterjet.filtering import _fold, _prediction_update, _step, _update_plan
from filterjet.loglik import jet_increments_from_scalars
from filterjet.multiindex import pair_table

from conftest import THETA, BrokenObservation, make_model, random_l0
from test_grid2d_filter import PlanarTanhModel

SLOT_RTOL = 1e-12
# (drift, observation) features: the shipped ones, where each factor reads
# one coordinate, and a mix where both factors read both.
FEATURES = {"shipped": (("tanh", "zero"), ("zero", "linear")), "mixed": (("tanh", "sin"), ("linear", "one"))}


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


def slot_major_update(cache, obs, weighted):
    """The slot-major update of a batch with one GEMM for every transition slot: (R, K, N).

    _prediction_update of one point at R > 1 before it skipped the
    all-zero slots; slot 0 is the factored obs[0] * moved[0].
    """
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    replicas, _, size = weighted.shape
    slots = np.ascontiguousarray(weighted.transpose(1, 0, 2))
    moved = np.empty((sum(count for _, count in blocks), replicas, size))
    for q, (start, count) in enumerate(blocks):
        out = moved[start : start + count].reshape(-1, size)
        np.matmul(slots[:count].reshape(-1, size), cache.trans[q].T, out=out)
    terms = obs[obs_rows] * moved[moved_rows]
    update = (coeff @ terms.reshape(len(terms), replicas * size)).reshape(-1, replicas, size)
    update[0] = obs[0] * moved[0]
    return update.transpose(1, 0, 2)


def serial_fold(model, theta, ys, start):
    """Components after folding the test-local single step over ys at one theta."""
    cache = KernelCache(model, theta, start.index_set)
    measure = start
    for y in ys:
        measure = VectorMeasure(single_step(cache, y, measure)[0], start.index_set, start.grid)
    return measure.components


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
        folded = filter_iterate(model, THETA, ys[: j + 1], measure)
        assert np.array_equal(folded.components, chained.components)

    lam0 = random_l0(model, iset, rng).component(iset.zero)
    increments = loglik_jet(model, THETA, ys, lam0).increments
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
    out, s_masses, predictive = _step(cache, cache.observation_vectors([y]), measure.components[None])
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
        batch, s_masses, predictive = _step(cache, cache.observation_vectors(row), batch, j + 1)
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
    out = _step(cache, cache.observation_vectors([y]), measure.components[None])
    for got, want in zip(out, ref):
        assert np.array_equal(got[0], want)


def slot0_runs(model, order, ys, starts):
    """Slot 0 after filter_step, filter_iterate, a batched _step at R = 1 and one at R = 3."""
    iset = model.index_set(order)
    first = embed(starts[0], iset)
    cache = KernelCache(model, THETA, iset)
    batch = np.stack([embed(lam, iset).components for lam in starts])
    return [
        filter_step(model, THETA, ys[0], first).components[0],
        filter_iterate(model, THETA, ys, first).components[0],
        _step(cache, cache.observation_vectors(ys[:1]), batch[:1])[0][0, 0],
        _step(cache, cache.observation_vectors(ys), batch)[0][:, 0],
    ]


@pytest.mark.parametrize("cells", [24, 33, 50, 129])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_order0_steps_keep_slot0_of_the_higher_orders(variant, cells):
    # The derivative sweep differences order-0 passes, so their slot 0 must
    # not see the order.  A batch of R > 1 is held to rounding only: its
    # GEMM over every slot's rows moves slot 0's last bits between orders 1
    # and 3 too, at N = 50 and 129.
    model = make_model(cells=cells, order=3, variant=variant)
    rng = np.random.default_rng(cells)
    starts = [random_l0(model, model.index_set(0), rng).component((0, 0)) for _ in range(3)]
    ys = np.array([0.4, -1.1, 2.3])
    *exact, batch = slot0_runs(model, 0, ys, starts)
    for order in (1, model.max_order):
        *want, want_batch = slot0_runs(model, order, ys, starts)
        for got, ref in zip(exact, want):
            assert np.array_equal(got, ref)
        _assert_slots_close(batch, want_batch)


def _assert_update_matches_stacked(cache, replicas, rng):
    starts = [random_l0(cache.model, cache.index_set, rng) for _ in range(replicas)]
    ys = rng.uniform(-3.0, 3.0, size=replicas)
    weighted = np.stack([m.components for m in starts]) * cache.grid.weights
    got = _prediction_update(cache, cache.observation_vectors(ys), weighted)
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


@lru_cache(maxsize=None)
def feature_model(features, cells):
    drift, obs = FEATURES[features]
    return make_model(cells=cells, order=3, drift=drift, obs=obs)


def fold_bytes(cache, ys, starts):
    """(components, s_masses, predictive) bytes of every _fold step over the (T, R) ys."""
    return [tuple(part.tobytes() for part in step) for step in _fold(cache, ys, starts)]


def theta2_slots(index_set):
    """Slots whose index has a theta[1] entry: the shipped drift's all-zero transition slots."""
    return [k for k, alpha in enumerate(index_set.indices) if alpha[1] > 0]


LAYOUTS = {"R=1": (THETA, 1), "R=3": (THETA, 3), "P=2": (np.array([THETA, [0.5, 1.2]]), 1)}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("order", [2, 3])
def test_all_zero_transition_slots_are_never_read(order, layout):
    model = feature_model("shipped", 33)
    iset = model.index_set(order)
    theta, replicas = LAYOUTS[layout]
    dead = theta2_slots(iset)
    clean, poisoned = KernelCache(model, theta, iset), KernelCache(model, theta, iset)
    assert not clean.trans[..., dead, :, :].any()
    poisoned.trans[..., dead, :, :] = np.nan
    rng = np.random.default_rng(order)
    starts = [random_l0(model, iset, rng) for _ in range(replicas)]
    ys = rng.uniform(-2.5, 2.5, size=(5, replicas))
    assert fold_bytes(poisoned, ys, starts) == fold_bytes(clean, ys, starts)


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("cells", [5, 33, 64, 129])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_skipping_steps_equal_full_gemm_steps_byte_for_byte(monkeypatch, features, order, cells, replicas):
    # tobytes, unlike array_equal, tells -0 from +0
    model = feature_model(features, cells)
    iset = model.index_set(order)
    cache = KernelCache(model, THETA, iset)
    rng = np.random.default_rng(100 * cells + order)
    starts = [random_l0(model, iset, rng) for _ in range(replicas)]
    ys = rng.uniform(-2.5, 2.5, size=(5, replicas))
    got = fold_bytes(cache, ys, starts)
    if replicas == 1:
        measure = starts[0]
        for j, y in enumerate(ys[:, 0]):
            components, s_masses, predictive = single_step(cache, y, measure)
            assert got[j] == (components.tobytes(), s_masses.tobytes(), np.float64(predictive).tobytes())
            measure = VectorMeasure(components, iset, model.grid)
    else:
        monkeypatch.setattr(filtering, "_prediction_update", slot_major_update)
        assert got == fold_bytes(cache, ys, starts)


@pytest.mark.parametrize("points", [2, 28])
@pytest.mark.parametrize("cells", [5, 33, 64, 129])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_a_skipping_stacked_pass_equals_serial_passes_byte_for_byte(features, order, cells, points):
    model = feature_model(features, cells)
    start = random_l0(model, model.index_set(order), np.random.default_rng(order))
    rng = np.random.default_rng(100 * cells + order)
    thetas = rng.uniform(0.3, 1.4, size=(points, 2))
    ys = rng.uniform(-2.5, 2.5, size=5)
    for theta, state in zip(thetas, filter_iterate(model, thetas, ys, start)):
        assert state.components.tobytes() == serial_fold(model, theta, ys, start).tobytes()


SHIPPED_DEAD_SLOTS = {0: [], 1: [1], 2: [1, 3, 4], 3: [1, 3, 4, 6, 7, 8]}


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_the_live_slots_are_the_nonzero_transition_slots(features, order):
    # the shipped drift skips exactly its theta[1] slots; the mixed one reads both coordinates
    model = feature_model(features, 33)
    iset = model.index_set(order)
    dead = SHIPPED_DEAD_SLOTS[order] if features == "shipped" else []
    if features == "shipped":
        assert dead == theta2_slots(iset)
    live = tuple(k not in dead for k in range(len(iset)))
    assert KernelCache(model, THETA, iset)._live == live
    assert KernelCache(model, [THETA, [0.5, 1.2], [1.3, 0.4]], iset)._live == live


class ZeroSlotAt(BrokenObservation):
    """Delegating model whose transition jet has slot `slot` zeroed at the parameter point `at` only."""

    def __init__(self, inner, slot, at):
        super().__init__(inner)
        self.slot, self.at = slot, np.asarray(at, dtype=float)

    def transition_grid_jet(self, theta, index_set):
        jet = super().transition_grid_jet(theta, index_set)
        if np.array_equal(theta, self.at):
            jet[self.slot] = 0.0
        return jet


def test_a_stack_skips_a_slot_only_when_it_is_zero_at_every_point():
    model = ZeroSlotAt(feature_model("mixed", 33), slot=2, at=THETA)
    iset = model.index_set(2)
    other = np.array([0.5, 1.2])
    assert not KernelCache(model, THETA, iset)._live[2]
    assert not KernelCache(model, [THETA, THETA], iset)._live[2]
    assert KernelCache(model, other, iset)._live[2]
    start = random_l0(model, iset, np.random.default_rng(5))
    ys = np.random.default_rng(6).uniform(-2.5, 2.5, size=5)
    for thetas in (np.array([THETA, other]), np.array([other, THETA])):
        assert KernelCache(model, thetas, iset)._live == (True,) * len(iset)
        for theta, state in zip(thetas, filter_iterate(model, thetas, ys, start)):
            assert state.components.tobytes() == serial_fold(model, theta, ys, start).tobytes()


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_a_one_point_stack_steps_as_its_point_byte_for_byte(order, replicas):
    # a (1, dim) stack reads its transition jet through the (P, K, N, N) view of the stack
    model = feature_model("mixed", 33)
    iset = model.index_set(order)
    rng = np.random.default_rng(10 * order + replicas)
    batch = np.stack([random_l0(model, iset, rng).components for _ in range(replicas)])
    ys = rng.uniform(-2.5, 2.5, size=replicas)
    point, stack = KernelCache(model, THETA, iset), KernelCache(model, [THETA], iset)
    got = _step(stack, stack.observation_vectors(ys), batch, 1)
    want = _step(point, point.observation_vectors(ys), batch, 1)
    assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


def test_a_stack_of_points_takes_one_replica_each():
    model = feature_model("shipped", 33)
    iset = model.index_set(1)
    cache = KernelCache(model, [THETA, [0.5, 1.2]], iset)
    start = random_l0(model, iset, np.random.default_rng(3))
    with pytest.raises(ValueError, match="a stack of 2 parameter points steps one replica per point, got 2"):
        next(_fold(cache, np.zeros((4, 2)), start))
