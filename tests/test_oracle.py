import math

import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    embed,
    fd_derivative,
    filter_step,
    oracle_filter,
    oracle_log_likelihood,
    simulate,
    stationary_law,
    tv_norm,
)
from filterjet.multiindex import MultiIndex

from conftest import THETA, make_model


class TestFDScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            FDScheme(base_step=0.0)
        with pytest.raises(ValueError):
            FDScheme(richardson_levels=0)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, -math.inf, math.nan])
    def test_base_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="base step must be finite and positive"):
            FDScheme(step)

    @pytest.mark.parametrize("levels", [0, -1, 2.0, 1.5, True, np.float64(3.0)])
    def test_richardson_levels_must_be_an_integer_of_at_least_one(self, levels):
        with pytest.raises(ValueError, match="Richardson levels must be an integer of at least 1"):
            FDScheme(1e-3, levels)

    @pytest.mark.parametrize("step, levels", [(1e-3, 1), (0.25, 3), (1, np.int64(2)), (5e-324, 2)])
    def test_valid_schemes_pass(self, step, levels):
        scheme = FDScheme(step, levels)
        assert (scheme.base_step, scheme.richardson_levels) == (step, levels)


class TestFdDerivative:
    def test_exact_on_affine(self):
        f = lambda th: 3.0 * th[0] - 2.0 * th[1] + 1.0  # noqa: E731
        theta = np.array([0.4, 0.6])
        assert fd_derivative(f, (1, 0), theta) == pytest.approx(3.0, abs=1e-12)
        assert fd_derivative(f, (0, 1), theta) == pytest.approx(-2.0, abs=1e-12)

    def test_exact_on_quadratic(self):
        # truncation vanishes on quadratics, so a coarse step avoids the
        # rounding amplification of the 1/h^2 factor
        f = lambda th: 2.5 * th[0] ** 2 + th[0] * th[1]  # noqa: E731
        theta = np.array([0.7, -0.3])
        scheme = FDScheme(1e-2, 1)
        assert fd_derivative(f, (2, 0), theta, scheme) == pytest.approx(5.0, abs=1e-10)
        assert fd_derivative(f, (1, 1), theta, scheme) == pytest.approx(1.0, abs=1e-10)

    def test_sine_second_derivative(self):
        f = lambda th: math.sin(th[0])  # noqa: E731
        theta = np.array([0.9])
        got = fd_derivative(f, (2,), theta, FDScheme(1e-3, 2))
        assert got == pytest.approx(-math.sin(0.9), abs=1e-8)

    def test_third_derivative(self):
        f = lambda th: math.exp(th[0])  # noqa: E731
        theta = np.array([0.2])
        got = fd_derivative(f, (3,), theta, FDScheme(1e-3, 2))
        assert got == pytest.approx(math.exp(0.2), rel=1e-6)

    def test_zero_index_returns_value(self):
        f = lambda th: th[0] ** 2  # noqa: E731
        assert fd_derivative(f, (0,), np.array([1.5])) == pytest.approx(2.25)

    def test_commutes_with_linear_maps(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((3, 4))

        def f(th):
            return np.array([th[0] ** 2, math.sin(th[1]), th[0] * th[1], th[1] ** 3])

        theta = np.array([0.8, 0.5])
        scheme = FDScheme(0.05, 1)  # both sides share the truncation error exactly
        lhs = fd_derivative(lambda th: mat @ f(th), (1, 1), theta, scheme)
        rhs = mat @ fd_derivative(f, (1, 1), theta, scheme)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_grid_measure_codomain(self, model8, theta):
        lam = GridMeasure.uniform(model8.grid)
        iset = model8.index_set()

        def posterior(th):
            return filter_step(model8, th, 0.4, embed(lam, iset)).component(iset.zero)

        out = fd_derivative(posterior, (1, 0), theta, bounds=model8.parameter_box)
        assert isinstance(out, GridMeasure)
        direct = filter_step(model8, theta, 0.4, embed(lam, iset)).component((1, 0))
        assert np.max(np.abs(out.density - direct.density)) <= 1e-6

    def test_bounds_guard(self):
        f = lambda th: th[0]  # noqa: E731
        with pytest.raises(ValueError):
            fd_derivative(f, (1,), np.array([0.2001]), FDScheme(1e-3, 2), bounds=((0.2, 1.5),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda th: th[0], (1, 0), np.array([0.5]))


class TestOracleFilter:
    def test_one_step_equals_filter_step(self, model8, theta):
        lam = GridMeasure.uniform(model8.grid)
        iset = model8.index_set()
        y = 0.6
        via_filter = filter_step(model8, theta, y, embed(lam, iset)).component(iset.zero)
        via_oracle = oracle_filter(model8, theta, [y], lam)
        assert tv_norm(via_filter - via_oracle) <= 1e-12

    def test_scale_invariance(self, model8, theta):
        lam = GridMeasure.uniform(model8.grid)
        traj = simulate(model8, theta, lam, 4, seed=71)
        scaled = GridMeasure(5.0 * lam.density, lam.grid)
        a = oracle_filter(model8, theta, traj.observations, lam)
        b = oracle_filter(model8, theta, traj.observations, scaled)
        assert tv_norm(a - b) <= 1e-13

    def test_cost_guards(self, model8, model32, theta):
        lam8 = GridMeasure.uniform(model8.grid)
        with pytest.raises(ValueError):
            oracle_filter(model8, theta, np.zeros(7), lam8)
        with pytest.raises(ValueError):
            oracle_filter(model32, theta, np.zeros(3), GridMeasure.uniform(model32.grid))
        with pytest.raises(ValueError):
            oracle_log_likelihood(model8, theta, [], lam8)


class TestStationaryLaw:
    def test_fixed_point_and_gap(self, model32, theta):
        result = stationary_law(model32, theta)
        pi = result.law
        assert pi.is_probability(tol=1e-10)
        assert 0.0 < result.second_eigenvalue < 1.0
        # fixed point: one more transition application leaves pi unchanged
        trans = model32.transition_grid_jet(theta, model32.index_set(0))[0]
        pushed = trans @ (pi.density * model32.grid.weights)
        assert float(np.dot(np.abs(pushed - pi.density), model32.grid.weights)) < 1e-10

    def test_near_uniform_kernel_gives_near_uniform_law(self):
        # enormous noise scale flattens the transition kernel
        model = make_model(cells=16, trans_scale=1e6)
        result = stationary_law(model, THETA)
        uniform = GridMeasure.uniform(model.grid)
        assert tv_norm(result.law - uniform) <= 1e-8
        assert result.second_eigenvalue <= 1e-8


class TestOracleAgreement:
    def test_twenty_random_draws(self, model8):
        # recursive filter versus explicit path sum across random setups
        rng = np.random.default_rng(73)
        lam = GridMeasure.uniform(model8.grid)
        iset = model8.index_set()
        box = np.asarray(model8.parameter_box)
        from filterjet import filter_iterate

        for draw in range(20):
            th = box[:, 0] + (0.1 + 0.8 * rng.random(2)) * (box[:, 1] - box[:, 0])
            traj = simulate(model8, th, lam, 5, seed=1000 + draw)
            state = filter_iterate(model8, th, traj.observations, embed(lam, iset))
            reference = oracle_filter(model8, th, traj.observations, lam)
            assert tv_norm(state.measure.component(iset.zero) - reference) <= 1e-10
