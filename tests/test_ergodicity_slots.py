"""The ergodicity probe steps only the filter slots its statistic reads.

phi reads the slots of degree <= phi.order, and those slots step as a
chain of their own, so the probe steps that prefix of its starts' slots.
The full-jet probe is the same phi declaring the starts' order.  The two
are byte-equal on the benchmark's shape and on the shipped config, and
equal to rounding elsewhere: a batched step's slot 0 depends on the
index-set order in the last bits.  The order-0 prediction-update skips
the empty Leibniz-term product; a copy of the code that ran it judges
its bytes.
"""
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterjet import (
    KernelCache,
    bounded_lipschitz_phi,
    component_tv_phi,
    ergodicity_experiment,
    posterior_mean_phi,
    state_projection_phi,
)
from filterjet import experiments, filtering
from filterjet.cli import _ergodicity_starts
from filterjet.config import RunConfig, build_model, load_config, reference_theta
from filterjet.experiments import PHI_BUILTINS, PhiSpec
from filterjet.filtering import _prediction_update, _step, _update_plan
from filterjet.multiindex import enumerate_indices

from conftest import THETA, make_model, random_l0

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "ergodicity.cfg"
# Truncated against full-jet estimates and stderr, relative to the largest
# estimate: 2.3e-15 at most over 3,600 drawn cases (N 8-129, orders 1-3,
# 50 steps, up to 18 rows), with default and with one BLAS thread.
ROUNDING_TOL = 1e-14


def replaced_prediction_update(cache, obs, weighted):
    """_prediction_update past its one-row-per-point branch as it was: the Leibniz-term product at every order."""
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    rows, slots, size = weighted.shape
    bases, base_of, scales = cache.bases, cache.base_of, cache.scales
    points = len(bases)
    replicas = rows // points
    obs = obs.reshape(points, slots, replicas, size)
    batch = np.ascontiguousarray(weighted.reshape(points, replicas, slots, size).transpose(0, 2, 1, 3))
    moved = np.zeros((points, blocks[-1][0] + blocks[-1][1], replicas, size))
    for q, (start, count) in enumerate(blocks):
        if cache._live[q]:
            out = moved[:, start : start + count].reshape(points, -1, size)
            moving = batch[:, :count] if q == 0 else batch[:, :count] * scales[:, q, None, None]
            np.matmul(moving.reshape(points, -1, size), bases[:, base_of[q]].transpose(0, 2, 1), out=out)
    terms = obs.take(obs_rows, 1) * moved.take(moved_rows, 1)
    terms = terms.reshape(points, len(obs_rows), replicas * size)
    update = np.matmul(coeff, terms).reshape(points, slots, replicas, size)
    update[:, 0] = obs[:, 0] * moved[:, 0]
    return update.transpose(0, 2, 1, 3).reshape(rows, slots, size)


def full_jet(phi, starts):
    """phi declaring the starts' order: the probe then steps every slot."""
    return dataclasses.replace(phi, order=starts[0][2].index_set.order)


def assert_same_probe(got, expected):
    assert np.array_equal(got.estimates, expected.estimates)
    assert np.array_equal(got.stderr, expected.stderr)
    assert np.array_equal(got.spreads, expected.spreads)
    assert np.array_equal(
        [got.spread_slope, got.spread_r_squared], [expected.spread_slope, expected.spread_r_squared], equal_nan=True
    )


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("replicas", [2, 3, 60])
@pytest.mark.parametrize("cells", [8, 24, 129])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_order0_update_keeps_the_bytes_of_the_leibniz_product(monkeypatch, variant, cells, replicas, points):
    model = make_model(cells=cells, order=1, variant=variant)
    iset = model.index_set(0)
    rng = np.random.default_rng(cells * replicas + points)
    theta = THETA if points == 1 else np.array([THETA, [0.4, 1.2], [1.3, 0.3]])
    cache = KernelCache(model, theta, iset)
    components = np.stack([random_l0(model, iset, rng).components for _ in range(points * replicas)])
    obs = cache.observation_vectors(rng.uniform(-2.0, 2.0, replicas))
    weighted = components * model.grid.weights
    expected = replaced_prediction_update(cache, obs, weighted)
    assert np.array_equal(_prediction_update(cache, obs, weighted), expected)
    if points == 1:
        got = _step(cache, obs, components)
        monkeypatch.setattr(filtering, "_prediction_update", replaced_prediction_update)
        for a, b in zip(got, _step(cache, obs, components)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("chain", ["aligned", "shifted"])
def test_truncated_probe_equals_the_full_jet_on_the_benchmark_shape(chain):
    # ergodicity-small-grid: the shipped model at N = 24, order 1, the CLI's
    # three starts, 20 replicas and record_ns 5 10 20 40
    cfg = RunConfig()
    grid, derivatives = dataclasses.replace(cfg.grid, cells=24), dataclasses.replace(cfg.derivatives, order=1)
    model = build_model(dataclasses.replace(cfg, grid=grid, derivatives=derivatives))
    theta = reference_theta(cfg)
    starts = _ergodicity_starts(model, model.index_set())
    phi = posterior_mean_phi(model)
    for seed in range(20):
        args = (starts, [5, 10, 20, 40], 20, seed)
        assert_same_probe(
            ergodicity_experiment(model, theta, phi, *args, chain=chain),
            ergodicity_experiment(model, theta, full_jet(phi, starts), *args, chain=chain),
        )


@pytest.mark.parametrize("order", [1, 2])
def test_truncated_probe_equals_the_full_jet_on_the_shipped_config(order):
    cfg = load_config(CONFIG_PATH)
    model = build_model(dataclasses.replace(cfg, derivatives=dataclasses.replace(cfg.derivatives, order=order)))
    theta = reference_theta(cfg)
    starts = _ergodicity_starts(model, model.index_set())
    phi = PHI_BUILTINS[cfg.experiment.phi](model)
    assert phi.order == 0
    for chain in ("aligned", "shifted"):
        args = (starts, cfg.experiment.record_ns, cfg.experiment.replicas, cfg.seed)
        assert_same_probe(
            ergodicity_experiment(model, theta, phi, *args, chain=chain),
            ergodicity_experiment(model, theta, full_jet(phi, starts), *args, chain=chain),
        )


@settings(max_examples=40, deadline=None)
@given(
    cells=st.integers(8, 129),
    order=st.integers(1, 3),
    variant=st.sampled_from(["compact", "gaussian"]),
    replicas=st.integers(2, 6),
    n_starts=st.integers(1, 3),
    pick=st.integers(0, 8),
    chain=st.sampled_from(["aligned", "shifted"]),
    seed=st.integers(0, 2**16),
)
def test_truncated_probe_is_the_full_jet_to_rounding(cells, order, variant, replicas, n_starts, pick, chain, seed):
    model = make_model(cells=cells, order=order, variant=variant)
    iset = model.index_set()
    rng = np.random.default_rng(seed)
    starts = [(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-1.0, 1.0)), random_l0(model, iset, rng))
              for _ in range(n_starts)]
    alpha = iset.indices[1 + pick % (len(iset) - 1)]
    phis = [posterior_mean_phi(model), bounded_lipschitz_phi(model), state_projection_phi(), component_tv_phi(alpha)]
    args = (starts, [0, 5, 20, 50], replicas, seed)
    for phi in phis:
        got = ergodicity_experiment(model, THETA, phi, *args, chain=chain)
        full = ergodicity_experiment(model, THETA, full_jet(phi, starts), *args, chain=chain)
        scale = np.abs(full.estimates).max()
        assert np.abs(got.estimates - full.estimates).max() <= ROUNDING_TOL * scale, phi.name
        assert np.abs(got.stderr - full.stderr).max() <= ROUNDING_TOL * scale, phi.name


def test_phi_gets_the_slots_of_its_order():
    model = make_model(cells=16, order=3)
    iset = model.index_set()
    seen = []

    def record(xs, ys, components, index_set, grid):
        seen.append((components.shape, index_set))
        return np.zeros(len(xs))

    phi = PhiSpec("record", record, phi_bound=1.0, growth_exponent=0.0, order=1)
    start = random_l0(model, iset, np.random.default_rng(5))
    ergodicity_experiment(model, THETA, phi, [(0.0, 0.0, start), (1.0, 0.5, start)], [0, 4], 3, seed=1)
    assert seen == [((6, 3, 16), enumerate_indices(2, 1))] * 2


def test_a_phi_above_the_starts_order_is_rejected_before_any_path(monkeypatch):
    model = make_model(cells=16, order=1)
    start = random_l0(model, model.index_set(), np.random.default_rng(6))
    monkeypatch.setattr(experiments, "_draw_paths", lambda *args: pytest.fail("a path was drawn"))
    message = r"^phi 'component-tv-2_0' reads slots of order 2, above the starts' order 1$"
    with pytest.raises(ValueError, match=message):
        ergodicity_experiment(model, THETA, component_tv_phi((2, 0)), [(0.0, 0.0, start)], [3], 2, seed=0)


def test_starts_on_different_index_sets_are_rejected_before_any_path(monkeypatch):
    model = make_model(cells=16, order=2)
    rng = np.random.default_rng(7)
    starts = [(0.0, 0.0, random_l0(model, model.index_set(order), rng)) for order in (2, 1)]
    monkeypatch.setattr(experiments, "_draw_paths", lambda *args: pytest.fail("a path was drawn"))
    with pytest.raises(ValueError, match="measure index set differs"):
        ergodicity_experiment(model, THETA, posterior_mean_phi(model), starts, [3], 2, seed=0)
