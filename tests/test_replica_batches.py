"""Batched experiments against the per-replica loops they replaced.

Ergodicity, forgetting and the log-likelihood rate step all their
replicas through one call of the step core.  Each must give what
stepping every replica alone gives, up to rounding; the loops below
step them alone with the single-step function.
"""
import math

import numpy as np
import pytest

from filterjet import (
    GridMeasure,
    KernelCache,
    NormalStreams,
    avg_loglik_rate,
    bounded_lipschitz_phi,
    component_tv_phi,
    embed,
    ergodicity_experiment,
    filter_step_with_scalars,
    forgetting_experiment,
    labeled_rng,
    labeled_seed,
    loglik_jet,
    measure_distance,
    posterior_mean_phi,
    simulate,
    state_projection_phi,
)

from conftest import THETA, make_model, random_l0

RTOL = 1e-12


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= RTOL * max(1.0, np.max(np.abs(ref), initial=0.0))


def ergodicity_samples_one_by_one(model, theta, phi, starts, record_ns, replicas, seed, chain):
    """(starts, times, replicas) samples, drawing each replica alone by one-row sampler calls and stepping it alone."""
    cache = KernelCache(model, theta, starts[0][2].index_set)
    n_max = record_ns[-1]
    samples = np.empty((len(starts), len(record_ns), replicas))
    for z_idx, (x0, y0, measure0) in enumerate(starts):
        for r in range(replicas):
            normals = NormalStreams([labeled_rng(seed, "ergodicity", r)], [0])
            x, y, measure = float(x0), float(y0), measure0
            t_idx = 0
            for n in range(n_max + 1):
                if t_idx < len(record_ns) and n == record_ns[t_idx]:
                    samples[z_idx, t_idx, r] = phi(x, y, measure)
                    t_idx += 1
                if n == n_max:
                    break
                x_new = float(model.transition_samples(theta, np.array([x]), normals)[0])
                y_new = float(model.observation_samples(theta, np.array([x_new]), normals)[0])
                update_with = y_new if chain == "aligned" else y
                measure = filter_step_with_scalars(cache, update_with, measure)[0]
                x, y = x_new, y_new
    return samples


@pytest.fixture(scope="module")
def small():
    return make_model(cells=16, order=2)


def _starts(model):
    grid, iset = model.grid, model.index_set()
    rng = np.random.default_rng(3)
    return [
        (float(grid.axis(0)[0]), -1.0, embed(GridMeasure.point_mass(grid, 0), iset)),
        (0.3, 0.5, random_l0(model, iset, rng)),
        (float(grid.axis(0)[-1]), 1.0, embed(GridMeasure.uniform(grid), iset)),
    ]


@pytest.mark.parametrize("chain", ["aligned", "shifted"])
@pytest.mark.parametrize(
    "make_phi",
    [posterior_mean_phi, bounded_lipschitz_phi, lambda m: state_projection_phi(), lambda m: component_tv_phi((1, 0))],
    ids=["posterior-mean", "bounded-lipschitz", "state-projection", "component-tv"],
)
def test_ergodicity_equals_replicas_stepped_alone(small, chain, make_phi):
    phi, starts, record_ns = make_phi(small), _starts(small), [0, 2, 5, 9]
    probe = ergodicity_experiment(small, THETA, phi, starts, record_ns, 7, seed=23, chain=chain)
    samples = ergodicity_samples_one_by_one(small, THETA, phi, starts, record_ns, 7, 23, chain)
    assert_close(probe.estimates, samples.mean(axis=2))
    assert_close(probe.stderr, samples.std(axis=2, ddof=1) / math.sqrt(7))


def test_forgetting_equals_pairs_filtered_alone(small):
    iset = small.index_set()
    rng = np.random.default_rng(5)
    pairs = [(random_l0(small, iset, rng), random_l0(small, iset, rng)) for _ in range(3)]
    curves = forgetting_experiment(small, THETA, pairs, 30, seed=7)
    path = simulate(small, THETA, GridMeasure.uniform(small.grid), 30, seed=labeled_seed(7, "forgetting-path"))
    cache = KernelCache(small, THETA, iset)
    for (first, second), curve in zip(pairs, curves):
        distance = []
        for y in path.observations:
            first, second = (filter_step_with_scalars(cache, y, m)[0] for m in (first, second))
            distance.append(measure_distance(first, second))
        assert_close(curve.distance, distance[: len(curve.distance)])


@pytest.mark.parametrize("order", [1, 3])
def test_rate_equals_replicas_filtered_alone(order):
    model = make_model(cells=16, order=order)
    lam0 = GridMeasure.uniform(model.grid)
    data_lam0 = GridMeasure.point_mass(model.grid, 4)
    data_theta = np.array([0.5, 1.2])
    est = avg_loglik_rate(model, THETA, lam0, 12, 6, seed=31, data_theta=data_theta, data_lam0=data_lam0)
    rows = []
    for r in range(6):
        path = simulate(model, data_theta, data_lam0, 12, seed=labeled_seed(31, "rate-replica", r))
        rows.append(loglik_jet(model, THETA, path.observations, lam0).values / 12)
    rows = np.array(rows)
    assert_close(est.mean, rows.mean(axis=0))
    assert_close(est.stderr, rows.std(axis=0, ddof=1) / math.sqrt(6))
