import math

import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    embed,
    enumerate_indices,
    fd_derivative,
    filter_step,
    loglik_jet,
    oracle_filter,
    oracle_log_likelihood,
    simulate,
    stationary_law,
    tv_norm,
)
from filterjet.multiindex import MultiIndex
from filterjet.oracle import fd_derivatives, stencil_points

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

    def test_density_codomain(self, model8, theta):
        lam = GridMeasure.uniform(model8.grid)
        iset = model8.index_set()

        def posterior(th):
            return filter_step(model8, th, 0.4, embed(lam, iset)).component(iset.zero).density

        out = fd_derivative(posterior, (1, 0), theta, bounds=model8.parameter_box)
        assert out.shape == (model8.grid.size,)
        direct = filter_step(model8, theta, 0.4, embed(lam, iset)).component((1, 0))
        assert np.max(np.abs(out - direct.density)) <= 1e-6

    def test_bounds_guard(self):
        f = lambda th: th[0]  # noqa: E731
        with pytest.raises(ValueError):
            fd_derivative(f, (1,), np.array([0.2001]), FDScheme(1e-3, 2), bounds=((0.2, 1.5),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda th: th[0], (1, 0), np.array([0.5]))

    @pytest.mark.parametrize("levels", [60, 1100])
    def test_a_finest_step_that_cannot_move_theta_is_refused(self, levels):
        # at 60 levels theta + h == theta, and at 1100 h underflows to 0.0
        def never(_):
            raise AssertionError("f must not run")

        with pytest.raises(ValueError, match="cannot move theta"):
            fd_derivative(never, (1, 0), np.array([0.8, 0.9]), FDScheme(1e-3, levels))


class TestFdDerivatives:
    @staticmethod
    def f(th):
        return np.array([math.sin(3.0 * th[0]) * math.exp(th[1]), th[0] ** 3 * th[1] ** 2])

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_one_stacked_call_equals_per_alpha_differences(self, order, levels):
        scheme = FDScheme(1e-3, levels)
        theta = np.array([0.7, 0.4])
        bounds = ((0.2, 1.5), (0.2, 1.5))
        alphas = [a for a in enumerate_indices(2, order).indices if a.degree > 0]
        calls = []

        def on_stack(stack):
            calls.append(stack.copy())
            return [self.f(point) for point in stack]

        got = fd_derivatives(on_stack, alphas, theta, scheme, bounds)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.stack(stencil_points(alphas, theta, scheme, bounds)))
        assert len(got) == len(alphas)
        for alpha, value in zip(alphas, got):
            assert np.array_equal(value, fd_derivative(self.f, alpha, theta, scheme, bounds))

    def test_theta_takes_the_first_value_of_the_stack(self):
        # (2, 0) reads theta, the first row of the stack
        at_theta = np.array([5.0, -1.0])
        got = fd_derivatives(
            lambda stack: [at_theta] + [self.f(p) for p in stack[1:]], [(2, 0)], np.array([0.7, 0.4])
        )[0]
        want = fd_derivative(
            lambda th: at_theta if np.array_equal(th, [0.7, 0.4]) else self.f(th), (2, 0), np.array([0.7, 0.4])
        )
        assert np.array_equal(got, want)

    def test_stencil_points_lists_theta_first_and_each_point_once(self):
        theta = np.array([0.7, 0.4])
        points = stencil_points([(1, 0), (0, 1), (2, 0), (1, 1)], theta, FDScheme(1e-3, 2))
        assert np.array_equal(points[0], theta)
        # theta, 4 points each for (1, 0) and (0, 1), none new for (2, 0), 16 for (1, 1)
        assert len({p.tobytes() for p in points}) == len(points) == 1 + 4 + 4 + 16

    def test_a_stencil_outside_the_bounds_calls_nothing(self):
        def on_stack(stack):
            raise AssertionError("f must not run")

        with pytest.raises(ValueError, match="parameter box"):
            fd_derivatives(on_stack, [(1,)], np.array([0.2001]), FDScheme(1e-3, 2), ((0.2, 1.5),))


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

    @pytest.mark.parametrize("steps", [4, 5])
    def test_a_likelihood_below_the_smallest_double_matches_the_filter(self, steps):
        # Unscaled, the path sum lost precision at 4 steps (log-likelihood near -731)
        # and underflowed to 0 at 5 (near -803).
        model = make_model(
            cells=7, order=1, variant="gaussian", drift=("one", "one"), obs=("linear", "linear"),
            trans_scale=1.0, obs_scale=0.0605, theta_box=((-2.0, 2.0),) * 2,
        )
        theta = np.array([-1.8048, -1.4434])
        ys = np.array([9.691, 9.661, 7.638, 9.527, 7.620])[:steps]
        lam = GridMeasure.uniform(model.grid)
        want = loglik_jet(model, theta, ys, lam).values[0]
        assert want < math.log(np.finfo(float).tiny)
        assert abs(oracle_log_likelihood(model, theta, ys, lam) - want) <= 1e-9


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
            assert tv_norm(state.component(iset.zero) - reference) <= 1e-10
