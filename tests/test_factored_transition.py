"""The transition jet kept in factors against the full jet it replaced.

A model hands the filter its transition jet as bases, base_of and
scales; the step moves slot q as (rows * scales[q]) @ bases[base_of[q]].T.
Expanded, the factors must give the bytes of the jet the model built
before.  Against the per-slot update that read that full jet, slot 0 of
every update and every pass must keep its bytes, at one replica, at
several and in a stack of points, and every higher slot must agree to
1e-12 of its TV norm.
"""
from functools import lru_cache

import numpy as np
import pytest

from filterjet import KernelCache, filter_iterate, filtering
from filterjet.filtering import _prediction_update, _update_plan

from conftest import THETA, make_model, random_l0, transition_jets
from test_models import _parent_transition_jet, _unbuffered_transition_jet
from test_differential import underflow_model
from test_step_core import FEATURES

SLOT_TV_RTOL = 1e-12
CELLS = [24, 33, 50, 129, 256]
# (points, replicas) of the rows one update moves
LAYOUTS = {"R=1": (1, 1), "R=3": (1, 3), "P=2": (2, 1), "P=5": (5, 1)}


@lru_cache(maxsize=None)
def model_for(features, variant, cells):
    drift, obs = FEATURES[features]
    return make_model(cells=cells, order=3, variant=variant, drift=drift, obs=obs)


def per_slot_update(cache, obs, weighted):
    """The prediction-update that moved every row through the full (P, K, N, N) transition jet.

    A slot is skipped where the jet is zero on the whole grid at every
    point; otherwise the update is _prediction_update's, slot 0 included.
    """
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    rows, slots, size = weighted.shape
    trans = transition_jets(cache)
    points = len(trans)
    replicas = rows // points
    live = (True, *np.logical_or.reduce(trans.reshape(-1, slots, size, size)[:, 1:], axis=(0, 2, 3)).tolist())
    obs = obs.reshape(points, slots, replicas, size)
    batch = np.ascontiguousarray(weighted.reshape(points, replicas, slots, size).transpose(0, 2, 1, 3))
    moved = np.zeros((points, blocks[-1][0] + blocks[-1][1], replicas, size))
    for q, (start, count) in enumerate(blocks):
        if live[q]:
            out = moved[:, start : start + count].reshape(points, -1, size)
            np.matmul(batch[:, :count].reshape(points, -1, size), trans[:, q].transpose(0, 2, 1), out=out)
    terms = obs.take(obs_rows, 1) * moved.take(moved_rows, 1)
    terms = terms.reshape(points, len(obs_rows), replicas * size)
    update = np.matmul(coeff, terms).reshape(points, slots, replicas, size)
    if slots > 1 or replicas > 1:
        update[:, 0] = obs[:, 0] * moved[:, 0]
    else:
        for p in range(points):
            update[p, 0, 0] = (obs[p, 0, 0, :, None] * trans[p, 0]) @ weighted[p, 0]
    return update.transpose(0, 2, 1, 3).reshape(rows, slots, size)


def assert_matches_per_slot(got, want, weights):
    """Slot 0 byte for byte; slot k of each row within SLOT_TV_RTOL of its TV norm."""
    assert got[:, 0].tobytes() == want[:, 0].tobytes()
    gap = np.abs(got[:, 1:] - want[:, 1:]) @ weights
    assert np.all(gap <= SLOT_TV_RTOL * (np.abs(want[:, 1:]) @ weights))


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_the_expanded_factors_are_the_jet_built_before(features, variant, cells):
    model = model_for(features, variant, cells)
    for order in range(4):
        iset = model.index_set(order)
        jet = model.transition_grid_jet(THETA, iset)
        assert jet.tobytes() == _unbuffered_transition_jet(model, THETA, iset).tobytes()
        if order:
            assert jet.tobytes() == _parent_transition_jet(model, THETA, iset).tobytes()
        bases, base_of, scales = model.transition_grid_factors(THETA, iset)
        assert bases.shape == (order + 1, cells, cells)
        assert base_of.tolist() == list(iset.degrees)
        assert np.all(scales[0] == 1.0)


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_the_factored_update_keeps_slot_0_of_the_per_slot_update(features, variant, order, cells, layout):
    points, replicas = LAYOUTS[layout]
    model = model_for(features, variant, cells)
    iset = model.index_set(order)
    rng = np.random.default_rng([order, cells, points, replicas])
    theta = THETA if points == 1 else rng.uniform(0.3, 1.4, size=(points, 2))
    cache = KernelCache(model, theta, iset)
    rows = np.stack([random_l0(model, iset, rng).components for _ in range(points * replicas)])
    weighted = rows * model.grid.weights
    obs = cache.observation_vectors(rng.uniform(-2.5, 2.5, size=replicas))
    got = _prediction_update(cache, obs, weighted)
    assert_matches_per_slot(got, per_slot_update(cache, obs, weighted), model.grid.weights)


@pytest.mark.parametrize("cells", [33, 129])
@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_a_factored_pass_keeps_slot_0_of_the_per_slot_pass(monkeypatch, features, variant, order, cells):
    # slot 0 of a step reads slot 0 alone, so its bytes hold along the whole pass
    model = model_for(features, variant, cells)
    iset = model.index_set(order)
    rng = np.random.default_rng([order, cells])
    thetas = rng.uniform(0.3, 1.4, size=(3, 2))
    start = random_l0(model, iset, rng)
    ys = rng.uniform(-2.5, 2.5, size=6)
    got = [filter_iterate(model, THETA, ys, start), *filter_iterate(model, thetas, ys, start)]
    monkeypatch.setattr(filtering, "_prediction_update", per_slot_update)
    want = [filter_iterate(model, THETA, ys, start), *filter_iterate(model, thetas, ys, start)]
    for measure, ref in zip(got, want):
        assert measure.components[0].tobytes() == ref.components[0].tobytes()
        tv = np.abs(ref.components[1:]) @ model.grid.weights
        gap = np.abs(measure.components[1:] - ref.components[1:]) @ model.grid.weights
        assert np.all(gap <= SLOT_TV_RTOL * np.maximum(1.0, tv))


def test_only_the_old_states_whose_gaussians_all_underflow_are_shifted():
    model, theta = underflow_model()
    iset = model.index_set()
    with np.errstate(divide="ignore", invalid="ignore"):
        before = _unbuffered_transition_jet(model, theta, iset)
    # the build before the shift divided by a vanished normalizer at the outer old states
    kept = np.isfinite(before).all(axis=(0, 1))
    assert kept.tolist() == [False, True, True, True, True, False]
    jet = model.transition_grid_jet(theta, iset)
    assert jet[:, :, kept].tobytes() == before[:, :, kept].tobytes()
    # a shifted column is a probability, and its derivative columns have mass zero
    masses = np.tensordot(model.grid.weights, jet[:, :, ~kept], axes=([0], [1]))
    tv = np.tensordot(model.grid.weights, np.abs(jet[:, :, ~kept]), axes=([0], [1]))
    assert np.all(np.abs(masses[0] - 1.0) <= 1e-15)
    assert np.all(np.abs(masses[1:]) <= 1e-12 * np.maximum(1.0, tv[1:]))
