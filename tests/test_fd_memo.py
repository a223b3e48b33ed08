"""The derivative-identity sweep's finite-difference passes.

The sweep differences slot 0 of the filter through fd_derivatives, one
stacked pass per parameter point, and runs those passes on the order-0
index set.  The tests here guard both choices: slot 0 of the filter and
of the log-likelihood does not depend on the order, and the sweep
reports exactly what the plain per-alpha sweep with full-order passes
reports, with 2 passes instead of 94 at dimension 2 and order 3: one
full-order pass and one order-0 pass over the stack of 28 stencil points.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filterjet.experiments as experiments
from filterjet import (
    FDScheme,
    GridMeasure,
    StateGrid,
    derivative_identity_sweep,
    embed,
    fd_derivative,
    filter_iterate,
    loglik_jet,
    simulate,
)
from filterjet.experiments import SweepCell
from filterjet.seeding import labeled_seed

from conftest import THETA, make_model
from test_step_core import _PlanarModel

HORIZON = 6
thetas = st.tuples(st.floats(0.3, 1.4), st.floats(0.3, 1.4)).map(np.array)


@lru_cache(maxsize=None)
def line_model(variant, cells, order=3):
    return make_model(cells=cells, order=order, variant=variant)


@lru_cache(maxsize=None)
def observations(variant, cells):
    model = line_model(variant, cells)
    lam = GridMeasure.uniform(model.grid)
    return simulate(model, THETA, lam, HORIZON, seed=31).observations


def slot0(model, theta, ys, order):
    start = embed(GridMeasure.uniform(model.grid), model.index_set(order))
    return filter_iterate(model, theta, ys, start).components[0]


@pytest.mark.parametrize("cells", [8, 24, 33, 50, 64, 129])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@settings(max_examples=8, deadline=None)
@given(theta=thetas)
def test_slot0_does_not_depend_on_the_order(variant, cells, theta):
    model = line_model(variant, cells)
    ys = observations(variant, cells)
    full = slot0(model, theta, ys, model.max_order)
    lam = GridMeasure.uniform(model.grid)
    full_loglik = loglik_jet(model, theta, ys, lam).values[0]
    for order in range(model.max_order):
        assert np.array_equal(slot0(model, theta, ys, order), full)
        # filterjet loglik differences slot 0 of an order-0 build of its model
        lower = line_model(variant, cells, order)
        assert loglik_jet(lower, theta, ys, lam).values[0] == full_loglik


# Orders 1 and up only: the planar model sums its normalizers with its own
# np.tensordot, which reads a one-degree stack in another BLAS order, so its
# order-0 slot 0 differs in the last bits.  The sweep gives it the same
# verdict to rounding.
@pytest.mark.parametrize("max_order", [2, 3])
@settings(max_examples=5, deadline=None)
@given(theta=thetas)
def test_planar_slot0_does_not_depend_on_the_order(max_order, theta):
    model = _PlanarModel(StateGrid.uniform([(-2.0, 2.0), (-2.0, 2.0)], (6, 5)), max_order)
    ys = [0.4, -0.9, 1.3, 0.2]
    full = slot0(model, theta, ys, max_order)
    for order in range(1, max_order):
        assert np.array_equal(slot0(model, theta, ys, order), full)


def per_alpha_sweep(model, thetas, horizon, seed, scheme=FDScheme(), rel_tol=1e-4, abs_floor=1e-6):
    """The sweep before the memo: full-order passes, one fd_derivative cache per alpha."""
    lam0 = GridMeasure.uniform(model.grid)
    data_theta = np.asarray(model.parameter_box, dtype=float).mean(axis=1)
    traj = simulate(model, data_theta, lam0, horizon, seed=labeled_seed(seed, "identity-path"))
    index_set = model.index_set()
    weights = model.grid.weights
    floor_scale = abs_floor / rel_tol

    def zero_slot_masses(theta_point):
        state = filter_iterate(model, theta_point, traj.observations, embed(lam0, index_set))
        return state.components[0] * weights

    cells = []
    for t_idx, theta in enumerate(thetas):
        state = filter_iterate(model, theta, traj.observations, embed(lam0, index_set))
        slot_masses = state.components * weights
        for k, alpha in enumerate(index_set.indices):
            if alpha.degree == 0:
                reference = slot_masses[0]
            else:
                reference = fd_derivative(
                    zero_slot_masses, alpha, theta, scheme, bounds=model.parameter_box
                )
            gap = np.abs(slot_masses[k] - reference)
            scaled = float((gap / np.maximum(floor_scale, np.abs(reference))).max())
            cells.append(SweepCell(t_idx, alpha, float(gap.max()), scaled))
    return cells


# N = 33 is not a multiple of four, so BLAS sums its last rows in a tail loop.
@pytest.mark.parametrize("cells", [12, 33])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@settings(max_examples=4, deadline=None)
@given(theta=thetas, second=thetas)
def test_memoized_sweep_equals_the_per_alpha_sweep(variant, order, cells, theta, second):
    model = line_model(variant, cells, order)
    report = derivative_identity_sweep(model, [theta, second], horizon=4, seed=3)
    expected = per_alpha_sweep(model, [theta, second], horizon=4, seed=3)
    assert len(report.cells) == len(expected)
    for got, want in zip(report.cells, expected):
        assert got.theta_index == want.theta_index
        assert got.alpha == want.alpha
        assert got.max_abs_error == want.max_abs_error
        assert got.scaled_error == want.scaled_error
    assert report.worst_scaled == max(c.scaled_error for c in expected)
    assert report.worst_abs == max(c.max_abs_error for c in expected)


def test_one_full_pass_and_one_order0_pass_over_28_points(monkeypatch):
    model = line_model("compact", 12)
    passes = []

    def counted(model, theta, observations, measure, *args, **kwargs):
        points = len(theta) if np.ndim(theta) == 2 else None
        passes.append((measure.index_set.order, points))
        return filter_iterate(model, theta, observations, measure, *args, **kwargs)

    monkeypatch.setattr(experiments, "filter_iterate", counted)
    derivative_identity_sweep(model, [THETA], horizon=3, seed=5)
    assert passes == [(3, None), (0, 28)]

    # The same sweep without the shared stencil: each alpha on its own memo,
    # which holds a pass at theta and one pass per point of that alpha's stencil.
    def per_alpha_fds(f, alphas, theta, at_theta, scheme, bounds):
        def differenced(alpha):
            memo = {theta.tobytes(): f(theta[None])[0]}

            def one_point(point):
                key = point.tobytes()
                if key not in memo:
                    memo[key] = f(point[None])[0]
                return memo[key]

            return fd_derivative(one_point, alpha, theta, scheme, bounds)

        return [differenced(alpha) for alpha in alphas]

    passes.clear()
    monkeypatch.setattr(experiments, "fd_derivatives", per_alpha_fds)
    derivative_identity_sweep(model, [THETA], horizon=3, seed=5)
    assert len(passes) == 94
