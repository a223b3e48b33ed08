import math

import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    KernelCache,
    PredictiveMassError,
    VectorMeasure,
    avg_loglik_rate,
    embed,
    fd_derivative,
    filter_iterate,
    filter_step,
    filter_step_with_scalars,
    loglik_jet,
    oracle_log_likelihood,
    rml_demo,
    simulate,
)
from filterjet.loglik import jet_increments_from_scalars
from filterjet.models import ModelSpec
from filterjet.multiindex import enumerate_indices

from conftest import THETA, BrokenObservation, kernel_updates, make_model, normalized_updates, random_l0


@pytest.fixture(scope="module")
def iset():
    return enumerate_indices(2, 2)


@pytest.fixture(scope="module")
def uniform_l0(model32, iset):
    return embed(GridMeasure.uniform(model32.grid), iset)


class _ScaledKernel(ModelSpec):
    """Delegating model with the observation density multiplied by a constant."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor
        self.grid = inner.grid

    @property
    def dim_theta(self):
        return self.inner.dim_theta

    @property
    def max_order(self):
        return self.inner.max_order

    @property
    def parameter_box(self):
        return self.inner.parameter_box

    def transition_grid_jet(self, theta, index_set):
        return self.inner.transition_grid_jet(theta, index_set)

    def observation_grid_factory(self, theta, index_set):
        inner = self.inner.observation_grid_factory(theta, index_set)
        return lambda y: self.factor * inner(y)

    def transition_sample(self, theta, x, rng):
        return self.inner.transition_sample(theta, x, rng)

    def observation_sample(self, theta, x, rng):
        return self.inner.observation_sample(theta, x, rng)

    def transition_samples(self, theta, xs, normals):
        return self.inner.transition_samples(theta, xs, normals)

    def observation_samples(self, theta, xs, normals):
        return self.inner.observation_samples(theta, xs, normals)


def increments(model, theta, y, measure):
    """psi^alpha of one step by slot: the jet increments the log-likelihood folds add up."""
    cache = KernelCache(model, theta, measure.index_set)
    return jet_increments_from_scalars(*filter_step_with_scalars(cache, y, measure)[1:], measure.index_set)


class TestPsiZero:
    def test_constant_predictive_mass_gives_its_log(self, theta, iset):
        # with a constant observation map the predictive mass is the
        # observation density itself, uniformly over states
        model = make_model(obs=("zero", "zero"))
        measure = embed(GridMeasure.uniform(model.grid), iset)
        y = 1.1
        q = model.observation_grid_factory(theta, enumerate_indices(2, 0))(y)[0][0]
        assert increments(model, theta, y, measure)[0] == pytest.approx(math.log(q), abs=1e-12)

    def test_reads_only_the_zero_slot(self, model32, theta, iset, uniform_l0):
        noisy = np.array(uniform_l0.components)
        noisy[1:] = np.random.default_rng(0).standard_normal(noisy[1:].shape)
        perturbed = VectorMeasure(noisy, iset, model32.grid)
        assert increments(model32, theta, 0.4, perturbed)[0] == increments(model32, theta, 0.4, uniform_l0)[0]

    def test_kernel_scaling_shifts_by_log_factor(self, model32, theta, uniform_l0):
        base = increments(model32, theta, 0.4, uniform_l0)[0]
        scaled = increments(_ScaledKernel(model32, 3.0), theta, 0.4, uniform_l0)[0]
        assert scaled == pytest.approx(base + math.log(3.0), abs=1e-12)

    def test_mass_at_the_floor_is_rejected_like_the_step(self, model32, theta, uniform_l0):
        # a positive mass below PREDICTIVE_FLOOR aborts the increment exactly as it aborts the step
        tiny = _ScaledKernel(model32, 1e-301)
        with pytest.raises(PredictiveMassError) as from_psi:
            increments(tiny, theta, 0.4, uniform_l0)
        with pytest.raises(PredictiveMassError) as from_step:
            filter_step(tiny, theta, 0.4, uniform_l0)
        assert 0.0 < from_psi.value.mass <= 1e-300
        assert from_psi.value.mass == from_step.value.mass


class TestPsiAlpha:
    def test_degree_one_equals_update_mass(self, model32, theta, iset):
        rng = np.random.default_rng(1)
        measure = random_l0(model32, iset, rng)
        y = -0.6
        psi = increments(model32, theta, y, measure)
        s_all = normalized_updates(model32, theta, y, measure)
        for alpha in ((1, 0), (0, 1)):
            assert psi[iset.slot(alpha)] == pytest.approx(s_all[alpha].total_mass(), rel=1e-12)

    def test_degree_one_at_embedding_is_classical_score(self, model32, theta, iset):
        lam = GridMeasure.uniform(model32.grid)
        y = 0.9
        psi = increments(model32, theta, y, embed(lam, iset))
        r_all = kernel_updates(model32, theta, y, lam)
        denom = r_all[(0, 0)].total_mass()
        for alpha in ((1, 0), (0, 1)):
            assert psi[iset.slot(alpha)] == pytest.approx(r_all[alpha].total_mass() / denom, rel=1e-12)

    def test_derivative_of_increment_along_filter_path(self, model32, theta, iset):
        # the jet increment at the filter state equals the parameter
        # derivative of the plain increment evaluated along the filter
        lam = GridMeasure.uniform(model32.grid)
        traj = simulate(model32, theta, lam, 8, seed=17)
        ys, y_next = traj.observations[:-1], traj.observations[-1]
        state = filter_iterate(model32, theta, ys, embed(lam, iset))
        direct = increments(model32, theta, y_next, state)
        scheme = FDScheme(1e-3, 2)

        def increment(th):
            inner = filter_iterate(model32, th, ys, embed(lam, iset))
            return increments(model32, th, y_next, inner)[0]

        for k, alpha in enumerate(iset.indices):
            if alpha.degree == 0:
                continue
            fd = fd_derivative(increment, alpha, theta, scheme, bounds=model32.parameter_box)
            assert abs(direct[k] - fd) / max(abs(fd), 1e-2) <= 1e-4


class TestLogLikJet:
    def test_single_step_matches_direct_quadrature(self, model32, theta):
        lam = GridMeasure.uniform(model32.grid)
        y = 0.7
        jet = loglik_jet(model32, theta, [y], lam)
        direct = math.log(kernel_updates(model32, theta, y, lam)[(0, 0)].total_mass())
        assert jet.values[0] == pytest.approx(direct, abs=1e-12)

    def test_matches_path_sum_oracle(self, model8, theta):
        lam = GridMeasure.uniform(model8.grid)
        traj = simulate(model8, theta, lam, 5, seed=19)
        jet = loglik_jet(model8, theta, traj.observations, lam)
        reference = oracle_log_likelihood(model8, theta, traj.observations, lam)
        assert jet.values[0] == pytest.approx(reference, abs=1e-9)

    def test_telescoping_is_exact(self, model32, theta):
        lam = GridMeasure.uniform(model32.grid)
        traj = simulate(model32, theta, lam, 20, seed=23)
        jet = loglik_jet(model32, theta, traj.observations, lam)
        assert jet.increments.shape == (20, 6)
        assert np.allclose(jet.increments.sum(axis=0), jet.values, rtol=0, atol=0)

    def test_slots_match_finite_differences(self, model32, theta, iset):
        lam = GridMeasure.uniform(model32.grid)
        traj = simulate(model32, theta, lam, 15, seed=29)
        jet = loglik_jet(model32, theta, traj.observations, lam)
        scheme = FDScheme(1e-3, 2)
        f = lambda th: loglik_jet(model32, th, traj.observations, lam).values[0]  # noqa: E731
        for alpha in iset.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(f, alpha, theta, scheme, bounds=model32.parameter_box)
            assert abs(jet.value(alpha) - fd) / max(abs(fd), 1e-2) <= 1e-4

    def test_third_order_jet_matches_finite_differences(self, theta):
        model = make_model(cells=24, order=3)
        lam = GridMeasure.uniform(model.grid)
        traj = simulate(model, theta, lam, 6, seed=97)
        jet = loglik_jet(model, theta, traj.observations, lam)
        scheme = FDScheme(1e-3, 2)
        f = lambda th: loglik_jet(model, th, traj.observations, lam).values[0]  # noqa: E731
        iset = model.index_set()
        assert len(iset) == 10
        masses_ok = filter_iterate(
            model, theta, traj.observations, embed(lam, iset)
        ).masses()
        assert abs(masses_ok[0] - 1.0) <= 1e-10
        assert np.max(np.abs(masses_ok[1:])) <= 1e-10
        for alpha in iset.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(f, alpha, theta, scheme, bounds=model.parameter_box)
            assert abs(jet.value(alpha) - fd) / max(abs(fd), 1e-2) <= 1e-4

    def test_permutation_equivariance(self, theta):
        # swapping the parameter roles permutes the jet slots accordingly
        base = make_model(cells=24, drift=("tanh", "zero"), obs=("zero", "linear"))
        swapped = make_model(cells=24, drift=("zero", "tanh"), obs=("linear", "zero"))
        lam = GridMeasure.uniform(base.grid)
        traj = simulate(base, theta, lam, 10, seed=31)
        jet_a = loglik_jet(base, theta, traj.observations, lam)
        jet_b = loglik_jet(swapped, theta[::-1].copy(), traj.observations, lam)
        for alpha in jet_a.index_set.indices:
            mirrored = tuple(reversed(tuple(alpha)))
            assert jet_a.value(alpha) == pytest.approx(jet_b.value(mirrored), rel=1e-12)

    def test_requires_observations(self, model32, theta):
        with pytest.raises(ValueError):
            loglik_jet(model32, theta, [], GridMeasure.uniform(model32.grid))

    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_is_rejected(self, theta, variant, bad):
        model = make_model(cells=16, variant=variant)
        with pytest.raises(ValueError, match="observation"):
            loglik_jet(model, theta, [0.1, bad, 0.2], GridMeasure.uniform(model.grid))


@pytest.fixture(scope="module")
def small():
    return make_model(cells=24, order=1)


class TestAvgRate:
    def test_initial_law_independence(self, small, theta):
        uniform = GridMeasure.uniform(small.grid)
        point = GridMeasure.point_mass(small.grid, small.grid.size // 4)
        a = avg_loglik_rate(small, theta, uniform, horizon=200, replicas=24, seed=37)
        b = avg_loglik_rate(
            small, theta, point, horizon=200, replicas=24, seed=37, data_lam0=uniform
        )
        band = 3.0 * np.sqrt(a.stderr[0] ** 2 + b.stderr[0] ** 2)
        assert abs(a.mean[0] - b.mean[0]) <= max(band, 1e-12)

    def test_horizon_stability(self, small, theta):
        uniform = GridMeasure.uniform(small.grid)
        a = avg_loglik_rate(small, theta, uniform, horizon=200, replicas=24, seed=41)
        b = avg_loglik_rate(small, theta, uniform, horizon=400, replicas=24, seed=43)
        band = 3.0 * np.sqrt(a.stderr[0] ** 2 + b.stderr[0] ** 2)
        assert abs(a.mean[0] - b.mean[0]) <= band

    def test_score_vanishes_at_data_parameter(self, small, theta):
        uniform = GridMeasure.uniform(small.grid)
        est = avg_loglik_rate(small, theta, uniform, horizon=300, replicas=32, seed=47)
        for alpha in ((1, 0), (0, 1)):
            mean, stderr = est.slot(alpha)
            assert abs(mean) <= 3.0 * stderr

    def test_replica_floor(self, small, theta):
        with pytest.raises(ValueError):
            avg_loglik_rate(small, theta, GridMeasure.uniform(small.grid), 10, 1, 0)


class TestRmlDemo:
    def test_zero_step_size_keeps_trace_constant(self, small, theta):
        trace = rml_demo(small, theta, theta, step_a=0.0, step_b=100.0, n_steps=50, seed=53)
        assert np.all(trace.thetas == theta)

    def test_initialized_at_truth_stays_close(self, small, theta):
        trace = rml_demo(small, theta, theta, step_a=0.5, step_b=100.0, n_steps=10_000, seed=59)
        deviations = np.linalg.norm(trace.thetas - theta, axis=1)
        assert np.max(deviations) <= 0.2

    def test_offset_start_moves_toward_truth(self, small, theta):
        init = np.array([0.45, 1.25])
        trace = rml_demo(small, init, theta, step_a=3.0, step_b=300.0, n_steps=4000, seed=61)
        tail = trace.thetas[-500:].mean(axis=0)
        assert np.linalg.norm(tail - theta) < np.linalg.norm(init - theta)

    def test_trace_stays_inside_box(self, small, theta):
        init = np.array([0.45, 1.25])
        trace = rml_demo(small, init, theta, step_a=3.0, step_b=300.0, n_steps=500, seed=67)
        box = np.asarray(small.parameter_box)
        assert np.all(trace.thetas > box[:, 0]) and np.all(trace.thetas < box[:, 1])

    def test_a_kernel_build_abort_names_the_observation_index(self, small, theta, monkeypatch):
        # every step builds its own cache, so the fifth build is that of step 5
        build = type(small).transition_grid_jet
        calls = []

        def fifth_build_fails(model, point, index_set):
            calls.append(point)
            if len(calls) == 5:
                raise ValueError("transition normalizer vanished on the grid")
            return build(model, point, index_set)

        monkeypatch.setattr(type(small), "transition_grid_jet", fifth_build_fails)
        with pytest.raises(ValueError) as info:
            rml_demo(small, theta, theta, step_a=3.0, step_b=300.0, n_steps=6, seed=1)
        assert str(info.value) == "transition normalizer vanished on the grid at observation index 5"

    def test_abort_names_the_observation_index(self, gaussian_model, theta):
        # the fourth simulated observation has vanishing density
        broken = BrokenObservation(gaussian_model, outlier_from=4)
        with pytest.raises(PredictiveMassError) as info:
            rml_demo(broken, theta, theta, step_a=3.0, step_b=300.0, n_steps=6, seed=1)
        assert info.value.observation_index == 4
