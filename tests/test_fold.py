"""The consumers that hold their parameter fixed run on filtering._fold.

The references are test-local copies of the loops _fold replaced:
loglik_jet's fold of filter_step_with_scalars and jet_increments_from_scalars
per observation, and the per-step _step loops of avg_loglik_rate,
forgetting_experiment and ergodicity_experiment.  Every comparison is
exact, also with JET_BLOCK shrunk so that the observation blocks end
inside the horizon and, for the batches, below one step's rows.
"""
import math
from functools import lru_cache

import numpy as np
import pytest

from filterjet import (
    GridMeasure,
    KernelCache,
    PredictiveMassError,
    avg_loglik_rate,
    embed,
    ergodicity_experiment,
    filter_step_with_scalars,
    forgetting_experiment,
    loglik_jet,
    posterior_mean_phi,
    simulate,
)
from filterjet import filtering
from filterjet.filtering import JET_BLOCK, _step
from filterjet.grid import vector_norms
from filterjet.loglik import jet_increments_from_scalars
from filterjet.seeding import NormalStreams, labeled_rng, labeled_seed

from conftest import THETA, BrokenObservation, make_model, random_l0, uniform_embedding

VARIANTS = ["compact", "gaussian"]
ORDERS = [1, 2, 3]
# None keeps JET_BLOCK; 3 and 13 end blocks inside every horizon below, and
# 3 is below the rows of every batch.
JET_BLOCKS = [None, 3, 13]


@lru_cache(maxsize=None)
def line_model(variant, order):
    return make_model(cells=24, order=order, variant=variant)


@pytest.fixture
def jet_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(filtering, "JET_BLOCK", request.param)
    return request.param


def reference_loglik_jet(model, theta, observations, lam0):
    """loglik_jet's values and increments by the serial step per observation."""
    measure = embed(lam0, model.index_set())
    cache = KernelCache(model, theta, measure.index_set)
    totals = np.zeros(len(measure.index_set))
    steps = []
    for y in observations:
        measure, s_masses, predictive = filter_step_with_scalars(cache, y, measure)
        increments = jet_increments_from_scalars(s_masses, predictive, measure.index_set)
        totals += increments
        steps.append(increments)
    return totals, np.array(steps)


def reference_avg_loglik_rate(model, theta, lam0, horizon, replicas, seed):
    """avg_loglik_rate's (mean, stderr) by one _step per step over all replicas."""
    paths = [
        simulate(model, theta, lam0, horizon, seed=labeled_seed(seed, "rate-replica", r)) for r in range(replicas)
    ]
    observations = np.stack([traj.observations for traj in paths])
    measure = embed(lam0, model.index_set())
    cache = KernelCache(model, theta, measure.index_set)
    components = np.repeat(measure.components[None], replicas, axis=0)
    totals = np.zeros((replicas, len(measure.index_set)))
    for j in range(horizon):
        components, s_masses, predictive = _step(cache, observations[:, j], components, j + 1)
        totals += jet_increments_from_scalars(s_masses, predictive, measure.index_set)
    rows = totals / horizon
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / math.sqrt(replicas)


def reference_forgetting_distances(model, theta, pairs, n_max, seed):
    """forgetting_experiment's (pairs, n_max) distances by one _step per step."""
    traj = simulate(model, theta, GridMeasure.uniform(model.grid), n_max, seed=labeled_seed(seed, "forgetting-path"))
    members = [measure for pair in pairs for measure in pair]
    cache = KernelCache(model, theta, members[0].index_set)
    components = np.stack([measure.components for measure in members])
    distances = np.empty((len(pairs), n_max))
    for j in range(n_max):
        ys = np.full(len(members), traj.observations[j])
        components = _step(cache, ys, components, j + 1)[0]
        distances[:, j] = vector_norms(components[0::2] - components[1::2], cache.grid)
    return distances


def reference_ergodicity(model, theta, phi, initial_conditions, record_ns, replicas, seed, chain):
    """ergodicity_experiment's (estimates, stderr) by one _step per step over all rows."""
    n_max = record_ns[-1]
    starts = len(initial_conditions)
    cache = KernelCache(model, theta, initial_conditions[0][2].index_set)
    normals = NormalStreams(
        [labeled_rng(seed, "ergodicity", r) for r in range(replicas)], np.tile(np.arange(replicas), starts)
    )
    xs = np.empty((n_max + 1, starts * replicas))
    ys = np.empty_like(xs)
    xs[0] = np.repeat([float(x0) for x0, _, _ in initial_conditions], replicas)
    ys[0] = np.repeat([float(y0) for _, y0, _ in initial_conditions], replicas)
    for n in range(1, n_max + 1):
        xs[n] = model.transition_samples(theta, xs[n - 1], normals)
        ys[n] = model.observation_samples(theta, xs[n], normals)
    update_with = ys[1:] if chain == "aligned" else ys[:-1]
    components = np.repeat([m.components for _, _, m in initial_conditions], replicas, axis=0)
    samples = np.empty((starts, len(record_ns), replicas))
    t_idx = 0
    for n in range(n_max + 1):
        if t_idx < len(record_ns) and n == record_ns[t_idx]:
            values = phi.fn(xs[n], ys[n], components, cache.index_set, cache.grid)
            samples[:, t_idx, :] = np.reshape(values, (starts, replicas))
            t_idx += 1
        if n < n_max:
            components = _step(cache, update_with[n], components, n + 1)[0]
    return samples.mean(axis=2), samples.std(axis=2, ddof=1) / math.sqrt(replicas)


@pytest.mark.parametrize("jet_block", JET_BLOCKS, indirect=True)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("keep_increments", [False, True])
def test_loglik_jet_equals_the_serial_step_fold(variant, order, jet_block, keep_increments):
    model = line_model(variant, order)
    lam0 = GridMeasure.uniform(model.grid)
    ys = simulate(model, THETA, lam0, 12, seed=order).observations
    jet = loglik_jet(model, THETA, ys, lam0, keep_increments=keep_increments)
    totals, increments = reference_loglik_jet(model, THETA, ys, lam0)
    assert np.array_equal(jet.values, totals)
    if keep_increments:
        assert np.array_equal(jet.increments, increments)
    else:
        assert jet.increments is None


@pytest.mark.parametrize("jet_block", JET_BLOCKS, indirect=True)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_avg_loglik_rate_equals_the_step_loop(variant, order, jet_block):
    model = line_model(variant, order)
    lam0 = GridMeasure.uniform(model.grid)
    rate = avg_loglik_rate(model, THETA, lam0, horizon=9, replicas=3, seed=order)
    mean, stderr = reference_avg_loglik_rate(model, THETA, lam0, 9, 3, seed=order)
    assert np.array_equal(rate.mean, mean)
    assert np.array_equal(rate.stderr, stderr)


@pytest.mark.parametrize("jet_block", JET_BLOCKS, indirect=True)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_forgetting_equals_the_step_loop(variant, order, jet_block):
    model = line_model(variant, order)
    rng = np.random.default_rng(order)
    iset = model.index_set()
    shared = random_l0(model, iset, rng)
    # The last pair starts both members from one measure: its curve is all zeros.
    pairs = [(random_l0(model, iset, rng), random_l0(model, iset, rng)), (shared, shared)]
    curves = forgetting_experiment(model, THETA, pairs, 20, seed=order)
    distances = reference_forgetting_distances(model, THETA, pairs, 20, seed=order)
    for curve, distance in zip(curves, distances):
        assert curve.truncated_at is None
        assert np.array_equal(curve.distance, distance)
    assert not distances[1].any()


@pytest.mark.parametrize("jet_block", JET_BLOCKS, indirect=True)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("chain", ["aligned", "shifted"])
def test_ergodicity_equals_the_step_loop(variant, order, jet_block, chain):
    model = line_model(variant, order)
    grid, iset = model.grid, model.index_set()
    starts = [
        (float(grid.axis(0)[0]), -1.0, embed(GridMeasure.point_mass(grid, 0), iset)),
        (float(grid.axis(0)[-1]), 1.0, uniform_embedding(model)),
    ]
    phi = posterior_mean_phi(model)
    record_ns = [0, 2, 5, 9]
    probe = ergodicity_experiment(model, THETA, phi, starts, record_ns, 3, seed=order, chain=chain)
    estimates, stderr = reference_ergodicity(model, THETA, phi, starts, record_ns, 3, order, chain)
    assert np.array_equal(probe.estimates, estimates)
    assert np.array_equal(probe.stderr, stderr)


@pytest.mark.parametrize("replicas", [1, 60, 300])
def test_a_jet_call_holds_at_most_jet_block_observations(monkeypatch, replicas):
    model = line_model("compact", 1)
    cache = KernelCache(model, THETA, model.index_set())
    span = max(1, JET_BLOCK // replicas)
    steps = 2 * span + 1
    block = np.random.default_rng(replicas).uniform(-2.0, 2.0, size=(steps, replicas))
    sizes = []
    evaluate = KernelCache.observation_vectors

    def counted(self, ys):
        sizes.append(np.size(ys))
        return evaluate(self, ys)

    monkeypatch.setattr(KernelCache, "observation_vectors", counted)
    for _ in filtering._fold(cache, block, uniform_embedding(model)):
        pass
    assert sum(sizes) == steps * replicas
    if replicas > JET_BLOCK:
        # A step's rows are never split: each step evaluates its own jets.
        assert sizes == [replicas] * steps
    else:
        assert max(sizes) <= JET_BLOCK
        assert len(sizes) == 3


@pytest.mark.parametrize("jet_block", [None, 2], indirect=True)
def test_a_rejected_observation_names_its_step_and_replica(jet_block):
    model = line_model("compact", 1)
    cache = KernelCache(model, THETA, model.index_set())
    block = np.array([[0.3, -0.2], [0.3, 7.0], [0.1, 0.2]])
    with pytest.raises(ValueError, match=r"7\.0 is not finite or lies outside \[-6\.0, 6\.0\] at replica 1, observation index 2$"):
        for _ in filtering._fold(cache, block, uniform_embedding(model)):
            pass


@pytest.mark.parametrize("jet_block", [None, 2], indirect=True)
def test_a_step_abort_in_a_later_jet_block_names_its_step(gaussian_model, jet_block):
    cache = KernelCache(BrokenObservation(gaussian_model), THETA, gaussian_model.index_set())
    block = np.array([[0.1, 0.2], [0.0, -0.1], [1e7, 0.3]])
    with pytest.raises(PredictiveMassError, match="at replica 0, observation index 3$") as info:
        for _ in filtering._fold(cache, block, uniform_embedding(gaussian_model)):
            pass
    assert (info.value.replica, info.value.observation_index) == (0, 3)


def test_loglik_jet_rejects_a_stack_of_points():
    model = line_model("compact", 1)
    with pytest.raises(ValueError, match="theta must have shape"):
        loglik_jet(model, np.stack([THETA, THETA]), [0.1, 0.2], GridMeasure.uniform(model.grid))
