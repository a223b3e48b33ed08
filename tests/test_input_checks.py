"""Malformed inputs to the public entry points end in a ValueError.

The command line maps ValueError (and ArithmeticError) to exit status 3,
so an entry point that accepts a malformed input silently, or fails on
it with another exception type, breaks the documented exit codes.
"""
import numpy as np
import pytest

from filterjet import (
    GridMeasure,
    StateGrid,
    avg_loglik_rate,
    embed,
    ergodicity_experiment,
    filter_iterate,
    filter_step,
    filter_step_with_scalars,
    forgetting_experiment,
    KernelCache,
    loglik_jet,
    oracle_filter,
    oracle_log_likelihood,
    posterior_mean_phi,
    rml_demo,
    simulate,
)

from filterjet.multiindex import enumerate_indices

from conftest import THETA, make_model


@pytest.fixture(scope="module")
def model():
    return make_model(cells=24, order=1)


@pytest.fixture(scope="module")
def foreign(model):
    """The uniform law on a grid of the model's size over another box."""
    return GridMeasure.uniform(StateGrid.uniform([(-1.0, 1.0)], model.grid.size))


def _l0(lam, model):
    return embed(lam, model.index_set())


FOREIGN_GRID_CALLS = {
    "filter_step": lambda m, lam: filter_step(m, THETA, 0.2, _l0(lam, m)),
    "filter_iterate": lambda m, lam: filter_iterate(m, THETA, [0.2, -0.1], _l0(lam, m)),
    "loglik_jet": lambda m, lam: loglik_jet(m, THETA, [0.2, -0.1], lam),
    "ergodicity_experiment": lambda m, lam: ergodicity_experiment(
        m, THETA, posterior_mean_phi(m), [(0.0, 0.0, _l0(lam, m))], [1, 2], 2, seed=0
    ),
    "rml_demo": lambda m, lam: rml_demo(m, THETA, THETA, 0.1, 10.0, 3, seed=0, lam0=lam),
    "forgetting_experiment": lambda m, lam: forgetting_experiment(
        m, THETA, [(_l0(lam, m), _l0(lam, m))], 20, seed=0
    ),
    "avg_loglik_rate": lambda m, lam: avg_loglik_rate(
        m, THETA, lam, 3, 2, seed=0, data_lam0=GridMeasure.uniform(m.grid)
    ),
    "avg_loglik_rate-data_lam0": lambda m, lam: avg_loglik_rate(
        m, THETA, GridMeasure.uniform(m.grid), 3, 2, seed=0, data_lam0=lam
    ),
    "simulate": lambda m, lam: simulate(m, THETA, lam, 3, seed=0),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_GRID_CALLS))
def test_measure_on_another_grid_is_rejected(model, foreign, entry):
    with pytest.raises(ValueError, match="grid differs from the model grid"):
        FOREIGN_GRID_CALLS[entry](model, foreign)


@pytest.mark.parametrize("fold", [filter_iterate, loglik_jet])
def test_two_dimensional_observations_are_rejected(model, fold):
    lam = GridMeasure.uniform(model.grid)
    start = lam if fold is loglik_jet else _l0(lam, model)
    with pytest.raises(ValueError, match="observations must be one-dimensional"):
        fold(model, THETA, np.zeros((3, 2)), start)


@pytest.mark.parametrize(
    "step_a, step_b",
    [(np.nan, 10.0), (np.inf, 10.0), (-0.1, 10.0), (0.1, 0.0), (0.1, -5.0), (0.1, np.nan), (0.1, np.inf)],
)
def test_rml_step_sizes_out_of_range_are_rejected(model, step_a, step_b):
    with pytest.raises(ValueError, match="step_a .* step_b"):
        rml_demo(model, THETA, THETA, step_a, step_b, 3, seed=0)


def test_ergodicity_needs_an_initial_condition(model):
    with pytest.raises(ValueError, match="initial_conditions"):
        ergodicity_experiment(model, THETA, posterior_mean_phi(model), [], [1, 2], 2, seed=0)


SINGLE_STEP_CALLS = {
    "filter_step": lambda m, y: filter_step(m, THETA, y, _l0(GridMeasure.uniform(m.grid), m)),
    "filter_step_with_scalars": lambda m, y: filter_step_with_scalars(
        KernelCache(m, THETA), y, _l0(GridMeasure.uniform(m.grid), m)
    ),
}


@pytest.mark.parametrize("y", [np.zeros(2), [[0.1]], np.array([0.2])], ids=["pair", "nested", "one-element"])
@pytest.mark.parametrize("entry", sorted(SINGLE_STEP_CALLS))
def test_single_step_rejects_a_non_scalar_observation(model, entry, y):
    with pytest.raises(ValueError, match="y must be a scalar observation"):
        SINGLE_STEP_CALLS[entry](model, y)


@pytest.mark.parametrize("oracle", [oracle_filter, oracle_log_likelihood])
def test_path_sum_oracle_rejects_a_two_dimensional_block(oracle):
    small = make_model(cells=8, order=1)
    with pytest.raises(ValueError, match="observations must be one-dimensional"):
        oracle(small, THETA, np.zeros((2, 2)), GridMeasure.uniform(small.grid))


# Each slot would take the slope factors of another index.
@pytest.mark.parametrize("dimension, order", [(3, 1), (1, 2)])
def test_an_index_set_of_another_dimension_is_rejected(dimension, order):
    model = make_model(cells=24, order=2)
    start = embed(GridMeasure.uniform(model.grid), enumerate_indices(dimension, order))
    message = f"index set dimension {dimension} differs from the model's parameter dimension 2"
    with pytest.raises(ValueError, match=message):
        filter_iterate(model, THETA, [0.1, 0.3], start)
    with pytest.raises(ValueError, match=message):
        filter_step(model, THETA, 0.1, start)
