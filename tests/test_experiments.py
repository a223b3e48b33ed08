import math

import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    PredictiveMassError,
    VectorMeasure,
    bounded_lipschitz_phi,
    component_tv_phi,
    derivative_identity_sweep,
    embed,
    ergodicity_experiment,
    fd_derivative,
    filter_iterate,
    forgetting_experiment,
    measure_distance,
    posterior_mean_phi,
    simulate,
    state_projection_phi,
    stationary_law,
)
from filterjet.experiments import PhiSpec, log_linear_fit
from filterjet.multiindex import enumerate_indices

from conftest import THETA, BrokenObservation, make_model, random_l0


@pytest.fixture(scope="module")
def small_model():
    return make_model(cells=16, order=1)


@pytest.fixture(scope="module")
def iset2():
    return enumerate_indices(2, 2)


def point_mass_pair(model, iset):
    grid = model.grid
    return (
        embed(GridMeasure.point_mass(grid, 0), iset),
        embed(GridMeasure.point_mass(grid, grid.size - 1), iset),
    )


class TestForgetting:
    def test_identical_pair_flagged_degenerate(self, model32, theta, iset2):
        vm = embed(GridMeasure.uniform(model32.grid), iset2)
        curves = forgetting_experiment(model32, theta, [(vm, vm)], 30, seed=1)
        curve = curves[0]
        assert curve.degenerate
        assert not curve.fitted
        assert np.all(curve.distance == 0.0)

    def test_point_mass_pair_decays_geometrically(self, model32, theta, iset2):
        curves = forgetting_experiment(
            model32, theta, [point_mass_pair(model32, iset2)], 60, seed=2
        )
        curve = curves[0]
        assert curve.fitted
        assert curve.slope < 0.0
        assert curve.rate <= 0.99
        assert curve.r_squared >= 0.9

    def test_derivative_only_pair_decays(self, model32, theta, iset2):
        # pair identical except in one derivative slot
        grid = model32.grid
        base = embed(GridMeasure.uniform(grid), iset2)
        bumped = np.array(base.components)
        bumped[2] = np.cos(2.0 * grid.axis(0))
        pair = (base, VectorMeasure(bumped, iset2, grid))
        curves = forgetting_experiment(model32, theta, [pair], 40, seed=3)
        curve = curves[0]
        dist = curve.distance
        live = dist > 1e-13
        for n in range(10, 40):
            if live[n - 1] and live[n]:
                assert dist[n] < dist[n - 1]
        assert curve.rate <= 0.99

    def test_bitwise_deterministic(self, model32, theta, iset2):
        pair = point_mass_pair(model32, iset2)
        a = forgetting_experiment(model32, theta, [pair], 25, seed=4)[0]
        b = forgetting_experiment(model32, theta, [pair], 25, seed=4)[0]
        assert np.array_equal(a.distance, b.distance)
        assert a.slope == b.slope and a.r_squared == b.r_squared

    def test_horizon_floor(self, model32, theta, iset2):
        with pytest.raises(ValueError):
            forgetting_experiment(model32, theta, [point_mass_pair(model32, iset2)], 10, seed=5)


class TestErgodicity:
    def test_constant_functional_has_zero_spread(self, small_model, theta):
        iset = small_model.index_set()
        one = PhiSpec("one", lambda x, y, m: 1.0, phi_bound=1.0, growth_exponent=0.0)
        zs = [point_mass_pair(small_model, iset)[0]]
        zs = [(-2.0, 0.0, zs[0]), (2.0, 0.0, zs[0])]
        probe = ergodicity_experiment(small_model, theta, one, zs, [0, 3, 6], 10, seed=6)
        assert np.all(probe.estimates == 1.0)
        assert np.all(probe.spreads == 0.0)
        assert np.all(probe.stderr == 0.0)

    def test_spread_contracts_between_horizons(self, small_model, theta):
        iset = small_model.index_set()
        grid = small_model.grid
        phi = posterior_mean_phi(small_model)
        zs = [
            (-2.8, 0.0, embed(GridMeasure.point_mass(grid, 0), iset)),
            (2.8, 0.0, embed(GridMeasure.point_mass(grid, grid.size - 1), iset)),
            (0.0, 1.0, embed(GridMeasure.uniform(grid), iset)),
        ]
        probe = ergodicity_experiment(
            small_model, theta, phi, zs, [5, 40], replicas=200, seed=7
        )
        assert probe.spread_at(5) / probe.spread_at(40) >= 5.0

    def test_aligned_and_shifted_limits_agree(self, small_model, theta):
        iset = small_model.index_set()
        grid = small_model.grid
        phi = posterior_mean_phi(small_model)
        zs = [
            (-2.8, 0.0, embed(GridMeasure.point_mass(grid, 0), iset)),
            (2.8, 0.0, embed(GridMeasure.point_mass(grid, grid.size - 1), iset)),
        ]
        a = ergodicity_experiment(small_model, theta, phi, zs, [40], 300, seed=8)
        b = ergodicity_experiment(small_model, theta, phi, zs, [40], 300, seed=8, chain="shifted")
        gap = abs(a.estimates[:, -1].mean() - b.estimates[:, -1].mean())
        band = 3.0 * math.sqrt(a.stderr[:, -1].max() ** 2 + b.stderr[:, -1].max() ** 2)
        assert gap <= band

    def test_state_only_functional_rate_tracks_spectral_gap(self, small_model, theta):
        # with a functional reading only the state, the probe reduces to
        # plain chain ergodicity; its rate should match the power-iteration
        # subdominant eigenvalue within a factor of two
        delta = stationary_law(small_model, theta).second_eigenvalue
        iset = small_model.index_set()
        grid = small_model.grid
        phi = state_projection_phi()
        zs = [
            (float(grid.axis(0)[0]), 0.0, embed(GridMeasure.point_mass(grid, 0), iset)),
            (float(grid.axis(0)[-1]), 0.0, embed(GridMeasure.point_mass(grid, grid.size - 1), iset)),
        ]
        probe = ergodicity_experiment(
            small_model, theta, phi, zs, list(range(0, 9)), replicas=400, seed=101
        )
        fitted = math.exp(probe.spread_slope)
        assert delta / 2.0 <= fitted <= 2.0 * delta

    def test_invalid_arguments(self, small_model, theta):
        iset = small_model.index_set()
        phi = posterior_mean_phi(small_model)
        z = (0.0, 0.0, embed(GridMeasure.uniform(small_model.grid), iset))
        with pytest.raises(ValueError):
            ergodicity_experiment(small_model, theta, phi, [z], [1], 1, seed=0)
        with pytest.raises(ValueError):
            ergodicity_experiment(small_model, theta, phi, [z], [1], 10, seed=0, chain="sideways")

    def test_abort_names_the_observation_index(self, gaussian_model, theta):
        # paths are drawn before any step: replica 0 draws observations 1-5,
        # so from the third draw on every density vanishes, and the batch
        # first aborts at the first step of replica 1
        broken = BrokenObservation(gaussian_model, outlier_from=3)
        z = (0.0, 0.0, embed(GridMeasure.uniform(broken.grid), broken.index_set(1)))
        phi = posterior_mean_phi(broken)
        with pytest.raises(PredictiveMassError) as info:
            ergodicity_experiment(broken, theta, phi, [z], [5], replicas=2, seed=0)
        assert info.value.replica == 1
        assert info.value.observation_index == 1


class TestPhiEnvelopes:
    def test_builtin_functionals_satisfy_their_envelopes(self, model32, theta, iset2):
        # polynomial bound and Lipschitz continuity in the measure argument
        rng = np.random.default_rng(11)
        grid = model32.grid
        specs = [
            posterior_mean_phi(model32),
            component_tv_phi((1, 0)),
            bounded_lipschitz_phi(model32),
        ]
        for _ in range(25):
            a = random_l0(model32, iset2, rng, derivative_scale=2.0)
            b = random_l0(model32, iset2, rng, derivative_scale=2.0)
            x, y = rng.uniform(-3, 3), rng.uniform(-6, 6)
            for spec in specs:
                na, nb = a.vector_norm(), b.vector_norm()
                assert abs(spec(x, y, a)) <= spec.phi_bound * na**spec.growth_exponent + 1e-12
                lhs = abs(spec(x, y, a) - spec(x, y, b))
                rhs = (
                    spec.phi_bound
                    * measure_distance(a, b)
                    * (na + nb) ** spec.growth_exponent
                )
                assert lhs <= rhs + 1e-12


class TestDerivativeIdentitySweep:
    def test_small_sweep_passes_tolerance(self, theta):
        model = make_model(cells=32, order=2)
        thetas = [theta, np.array([0.5, 1.2])]
        report = derivative_identity_sweep(model, thetas, horizon=5, seed=13)
        assert report.passed
        assert report.worst_scaled <= 1e-4

    def test_zero_order_rows_are_exact(self, theta):
        model = make_model(cells=16, order=1)
        report = derivative_identity_sweep(model, [theta], horizon=4, seed=17)
        zero_rows = [c for c in report.cells if c.alpha.degree == 0]
        assert zero_rows and all(c.max_abs_error == 0.0 for c in zero_rows)

    def test_single_level_fd_error_scales_quadratically(self, theta):
        # halve the plain central-difference step and the identity gap
        # should shrink at second order
        model = make_model(cells=16, order=1)
        lam = GridMeasure.uniform(model.grid)
        iset = model.index_set()
        traj = simulate(model, theta, lam, 5, seed=19)
        weights = model.grid.weights

        def masses(th):
            state = filter_iterate(model, th, traj.observations, embed(lam, iset))
            return state.measure.components[0] * weights

        direct = filter_iterate(model, theta, traj.observations, embed(lam, iset))
        exact = direct.measure.components[iset.slot((1, 0))] * weights
        steps = np.array([0.2, 0.1, 0.05, 0.025])
        errors = []
        for h in steps:
            fd = fd_derivative(masses, (1, 0), theta, FDScheme(h, 1))
            errors.append(np.max(np.abs(fd - exact)))
        slope, _, _ = log_linear_fit(np.log(steps), np.array(errors))
        assert abs(slope - 2.0) <= 0.3