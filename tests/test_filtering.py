import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    KernelCache,
    MassInvariantError,
    PredictiveMassError,
    VectorMeasure,
    assumption_constants,
    embed,
    fd_derivative,
    filter_iterate,
    filter_step,
    filter_step_with_scalars,
    kernel_matrix,
    loglik_jet,
    measure_distance,
    oracle_filter,
    rml_demo,
    simulate,
    tv_norm,
)
from filterjet import filtering
from filterjet.experiments import log_linear_fit
from filterjet.multiindex import enumerate_indices

from conftest import THETA, BrokenObservation, kernel_updates, make_model, normalized_updates, random_l0


@pytest.fixture(scope="module")
def iset():
    return enumerate_indices(2, 2)


@pytest.fixture(scope="module")
def uniform_l0(model32, iset):
    return embed(GridMeasure.uniform(model32.grid), iset)


class TestKernelUpdate:
    """R^alpha, the unnormalized prediction-update, as rows of the step core."""

    def test_zero_measure_maps_to_zero(self, model32, theta):
        for out in kernel_updates(model32, theta, 0.5, GridMeasure.zero(model32.grid)).values():
            assert np.all(out.density == 0.0)

    def test_probability_input_gives_nonnegative_output(self, model32, theta):
        out = kernel_updates(model32, theta, 0.5, GridMeasure.uniform(model32.grid))[(0, 0)]
        assert np.all(out.density >= 0.0)

    def test_mass_within_mixing_bounds(self, model32, theta):
        # two-sided envelope from the mixing constants, plus the exact
        # column-mass bracket evaluated on the grid
        y = 0.5
        lam = GridMeasure.uniform(model32.grid)
        mass = kernel_updates(model32, theta, y, lam)[(0, 0)].total_mass()
        constants = assumption_constants(model32, [theta], [y])
        volume = model32.grid.volume
        assert constants.epsilon * volume <= mass <= volume / constants.epsilon
        col = model32.grid.weights @ kernel_matrix(model32, (0, 0), theta, y)
        assert col.min() - 1e-12 <= mass <= col.max() + 1e-12

    def test_linearity(self, model32, theta):
        rng = np.random.default_rng(3)
        grid = model32.grid
        m1 = GridMeasure(rng.standard_normal(grid.size), grid)
        m2 = GridMeasure(rng.standard_normal(grid.size), grid)
        a, b = 1.7, -0.4
        lhs = kernel_updates(model32, theta, 0.5, a * m1 + b * m2)
        r1, r2 = (kernel_updates(model32, theta, 0.5, m) for m in (m1, m2))
        for alpha, out in lhs.items():
            rhs = a * r1[alpha] + b * r2[alpha]
            assert np.max(np.abs(out.density - rhs.density)) <= 1e-12


class TestTotalMass:
    def test_probability_and_negation(self, model32):
        lam = GridMeasure.uniform(model32.grid)
        assert lam.total_mass() == pytest.approx(1.0, abs=1e-14)
        assert (-1.0 * lam).total_mass() == pytest.approx(-1.0, abs=1e-14)

    def test_normalized_update_has_unit_mass(self, model32, theta, iset):
        rng = np.random.default_rng(4)
        for _ in range(5):
            measure = random_l0(model32, iset, rng)
            s0 = normalized_updates(model32, theta, rng.uniform(-4, 4), measure)[(0, 0)]
            assert s0.total_mass() == pytest.approx(1.0, abs=1e-12)


class TestNormalizedUpdate:
    """S^alpha, the normalized update before recentering, as rows of the step core."""

    def test_embedded_input_reduces_to_single_term(self, model32, theta, iset):
        lam = GridMeasure.uniform(model32.grid)
        y = -1.2
        direct = kernel_updates(model32, theta, y, lam)
        denom = direct[(0, 0)].total_mass()
        for alpha, s in normalized_updates(model32, theta, y, embed(lam, iset)).items():
            assert np.max(np.abs(s.density - direct[alpha].density / denom)) <= 1e-12

    def test_requires_l0(self, model32, theta, iset):
        comps = np.ones((len(iset), model32.grid.size))
        with pytest.raises(ValueError):
            normalized_updates(model32, theta, 0.5, VectorMeasure(comps, iset, model32.grid))

    def test_norm_bounded_by_score_envelope(self, model32, theta, iset):
        # Direct evaluation against the computed envelope: the constant is
        # 2^order / epsilon^2 with the empirical mixing ratio and score table.
        y = 0.5
        constants = assumption_constants(model32, [theta], [y])
        psi = float(constants.psi_values[0])
        envelope_const = 2.0**iset.order / constants.epsilon**2
        rng = np.random.default_rng(5)
        for _ in range(5):
            measure = random_l0(model32, iset, rng)
            norms = {a: tv_norm(measure.component(a)) for a in iset.indices}
            s_all = normalized_updates(model32, theta, y, measure)
            for alpha in iset.indices:
                bound = envelope_const * sum(
                    psi ** (alpha - gamma).degree * norms[gamma]
                    for gamma in iset.below(alpha)
                )
                assert tv_norm(s_all[alpha]) <= bound


class TestFilterStep:
    def test_slot_masses(self, model32, theta, uniform_l0):
        out = filter_step(model32, theta, 0.3, uniform_l0)
        masses = out.masses()
        assert abs(masses[0] - 1.0) <= 1e-12
        assert np.max(np.abs(masses[1:])) <= 1e-12

    def test_degree_one_slot_hand_rolled(self, model32, theta, uniform_l0, iset):
        # from an embedding, the degree-1 update is its normalized update
        # recentered by the posterior times the update mass
        y = 0.8
        out = filter_step(model32, theta, y, uniform_l0)
        s_all = normalized_updates(model32, theta, y, uniform_l0)
        s0 = s_all[(0, 0)]
        for alpha in ((1, 0), (0, 1)):
            s_a = s_all[alpha]
            expected = s_a.density - s0.density * s_a.total_mass()
            assert np.max(np.abs(out.component(alpha).density - expected)) <= 1e-12

    def test_single_step_derivative_identity(self, model32, theta, iset):
        # jet slots after one step against finite differences of the
        # normalized posterior density
        lam = GridMeasure.uniform(model32.grid)
        y = -0.4
        out = filter_step(model32, theta, y, embed(lam, iset))
        scheme = FDScheme(1e-3, 2)

        def posterior(th):
            return normalized_updates(model32, th, y, embed(lam, iset))[(0, 0)].density

        for alpha in iset.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(posterior, alpha, theta, scheme, bounds=model32.parameter_box)
            assert np.max(np.abs(out.component(alpha).density - fd)) <= 1e-5

    def test_mass_invariants_over_random_steps(self, model32, theta, iset):
        rng = np.random.default_rng(6)
        for _ in range(50):
            measure = random_l0(model32, iset, rng)
            out = filter_step(model32, theta, rng.uniform(-5, 5), measure)
            masses = out.masses()
            assert abs(masses[0] - 1.0) <= 1e-10
            assert np.max(np.abs(masses[1:])) <= 1e-10

    def test_scaled_derivative_slots_do_not_abort(self, theta):
        # valid inputs whose derivative slots are 1e4 times larger: rounding
        # alone exceeded an absolute 1e-10 in 29 of these 30 steps
        model = make_model(cells=64, order=2)
        iset = model.index_set()
        rng = np.random.default_rng(11)
        for _ in range(30):
            measure = random_l0(model, iset, rng, derivative_scale=1e4)
            out = filter_step(model, theta, rng.uniform(-5, 5), measure)
            tv = np.abs(out.components) @ model.grid.weights
            assert abs(out.masses()[0] - 1.0) <= 1e-10
            assert np.all(np.abs(out.masses()[1:]) <= 1e-10 * tv[1:])

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize(
        "run",
        [filter_step, lambda model, theta, y, measure: filter_iterate(model, theta, [y], measure)],
        ids=["filter_step", "filter_iterate"],
    )
    def test_corrupted_recentering_trips_the_guard(self, model32, theta, iset, run, scale, monkeypatch):
        # one recentering coefficient of slot 1 off by 1e-6 leaves mass behind
        filtering._update_plan(iset)  # cached before pair_table is patched
        table = filtering.pair_table(iset)

        def corrupted(index_set):
            rows = [list(row) for row in table]
            coeff, b_slot, g_slot = rows[1][0]
            rows[1][0] = (coeff * (1.0 + 1e-6), b_slot, g_slot)
            return rows

        measure = random_l0(model32, iset, np.random.default_rng(2), derivative_scale=scale)
        run(model32, theta, 0.3, measure)
        monkeypatch.setattr(filtering, "pair_table", corrupted)
        with pytest.raises(MassInvariantError, match="mass drifts"):
            run(model32, theta, 0.3, measure)

    def test_projective_invariance_of_posterior(self, model32, theta):
        # the normalized zero-slot update ignores positive rescaling of the
        # incoming density
        lam = GridMeasure.uniform(model32.grid)
        y = 0.9
        base = kernel_updates(model32, theta, y, lam)[(0, 0)].normalized()
        scaled = kernel_updates(model32, theta, y, 7.3 * lam)[(0, 0)].normalized()
        assert np.max(np.abs(base.density - scaled.density)) <= 1e-12

    @pytest.mark.parametrize("prebuilt", [False, True], ids=["own-cache", "given-cache"])
    def test_filter_step_is_the_measure_of_the_step_with_scalars(
        self, model32, theta, iset, prebuilt, monkeypatch
    ):
        measure = random_l0(model32, iset, np.random.default_rng(6))
        cache = KernelCache(model32, theta, iset)
        calls = []
        with_scalars = filtering.filter_step_with_scalars
        monkeypatch.setattr(
            filtering, "filter_step_with_scalars", lambda *args: calls.append(args) or with_scalars(*args)
        )
        out = filter_step(model32, theta, 0.4, measure, cache=cache if prebuilt else None)
        assert len(calls) == 1
        assert type(out) is VectorMeasure
        assert np.array_equal(out.components, with_scalars(cache, 0.4, measure)[0].components)

    def test_cache_mismatch_rejected(self, model32, theta, uniform_l0):
        other = KernelCache(model32, np.array([0.5, 0.5]), uniform_l0.index_set)
        with pytest.raises(ValueError):
            filter_step(model32, theta, 0.1, uniform_l0, cache=other)


class TestFilterIterate:
    def test_empty_block_returns_initial(self, model32, theta, uniform_l0):
        state = filter_iterate(model32, theta, [], uniform_l0)
        assert np.array_equal(state.components, uniform_l0.components)

    def test_returns_the_filtered_measure(self, model32, theta, uniform_l0):
        alone = filter_iterate(model32, theta, [0.1, -0.2], uniform_l0)
        assert type(alone) is VectorMeasure
        stacked = filter_iterate(model32, np.stack([theta, [0.7, 0.9], [0.8, 0.6]]), [0.1, -0.2], uniform_l0)
        assert type(stacked) is tuple and len(stacked) == 3
        assert all(type(measure) is VectorMeasure for measure in stacked)
        assert np.array_equal(stacked[0].components, alone.components)

    def test_empty_block_returns_the_start_measure_itself(self, model32, theta, uniform_l0):
        assert filter_iterate(model32, theta, [], uniform_l0) is uniform_l0
        stacked = filter_iterate(model32, np.stack([theta, [0.7, 0.9]]), [], uniform_l0)
        assert len(stacked) == 2 and all(measure is uniform_l0 for measure in stacked)

    def test_semigroup_composition(self, model32, theta, uniform_l0):
        lam = GridMeasure.uniform(model32.grid)
        traj = simulate(model32, theta, lam, 12, seed=77)
        ys = traj.observations
        full = filter_iterate(model32, theta, ys, uniform_l0)
        part = filter_iterate(model32, theta, ys[:5], uniform_l0)
        rest = filter_iterate(model32, theta, ys[5:], part)
        assert measure_distance(full, rest) <= 1e-12

    def test_zero_slot_matches_path_sum_oracle(self, model8, theta):
        iset = model8.index_set()
        lam = GridMeasure.uniform(model8.grid)
        traj = simulate(model8, theta, lam, 5, seed=80)
        state = filter_iterate(model8, theta, traj.observations, embed(lam, iset))
        reference = oracle_filter(model8, theta, traj.observations, lam)
        assert tv_norm(state.component(iset.zero) - reference) <= 1e-10

    def test_forgetting_rate_below_one(self, model32, theta, iset):
        # distance between runs from random initial conditions decays
        # geometrically
        grid = model32.grid
        lam = GridMeasure.uniform(grid)
        traj = simulate(model32, theta, lam, 40, seed=81)
        rng = np.random.default_rng(82)
        cache = KernelCache(model32, theta, iset)
        a, b = random_l0(model32, iset, rng), random_l0(model32, iset, rng)
        dist = []
        for y in traj.observations:
            a, b = (filter_step(model32, theta, y, m, cache=cache) for m in (a, b))
            dist.append(measure_distance(a, b))
        dist = np.array(dist)
        ns = np.arange(1, 41)
        window = (ns >= 5) & (ns <= 40) & (dist > 1e-14)
        slope, _, _ = log_linear_fit(ns[window], dist[window])
        assert slope < 0.0
        assert np.exp(slope) <= 0.99

    def test_underflow_reports_observation_index(self, gaussian_model, theta, uniform_l0):
        broken = BrokenObservation(gaussian_model)
        with pytest.raises(PredictiveMassError) as info:
            filter_iterate(broken, theta, [0.1, 0.2, 1e7], uniform_l0)
        assert info.value.observation_index == 3
        assert info.value.replica is None


class TestBatchAborts:
    """A batched step names the first replica that fails, with the observation."""

    def test_predictive_mass_names_the_replica(self, gaussian_model, theta, uniform_l0):
        cache = KernelCache(BrokenObservation(gaussian_model), theta, uniform_l0.index_set)
        batch = np.repeat(uniform_l0.components[None], 3, axis=0)
        with pytest.raises(PredictiveMassError, match="at replica 1, observation index 4") as info:
            filtering._step(cache, cache.observation_vectors([0.1, 1e7, 0.2]), batch, 4)
        assert (info.value.replica, info.value.observation_index) == (1, 4)

    def test_l0_check_names_the_replica(self, model32, theta, uniform_l0):
        cache = KernelCache(model32, theta, uniform_l0.index_set)
        batch = np.repeat(uniform_l0.components[None], 3, axis=0)
        batch[2, 0] *= 1.5
        with pytest.raises(ValueError, match="slot 0 must be a probability.* at replica 2, observation index 6"):
            filtering._step(cache, cache.observation_vectors(np.zeros(3)), batch, 6)

    def test_mass_guard_names_the_replica(self, model32, uniform_l0):
        batch = np.repeat(uniform_l0.components[None], 3, axis=0)
        batch[1, 0] *= 1.0 + 1e-6
        with pytest.raises(MassInvariantError, match="slot 0 .* at replica 1, observation index 7"):
            filtering._check_masses(batch, model32.grid, 7)

    def test_mass_guard_rejects_an_infinite_slot(self, model32, uniform_l0):
        batch = np.array(uniform_l0.components[None])
        batch[0, 1, 3] = np.inf
        with pytest.raises(MassInvariantError, match="slot 1"):
            filtering._check_masses(batch, model32.grid)


class TestSerialFoldAborts:
    """The serial folds name the observation of every abort, as the batched step does."""

    def test_non_probability_start_names_the_first_observation(self, model32, theta, uniform_l0):
        components = uniform_l0.components.copy()
        components[0] *= 1.5
        start = VectorMeasure(components, uniform_l0.index_set, uniform_l0.grid)
        with pytest.raises(ValueError, match="slot 0 must be a probability.* at observation index 1$"):
            filter_iterate(model32, theta, [0.1, 0.2], start)

    @pytest.mark.parametrize(
        "fold, index",
        [
            (lambda m, lam: filter_iterate(m, THETA, [0.1, 0.2], embed(lam, m.index_set())), 1),
            (lambda m, lam: loglik_jet(m, THETA, [0.1, 0.2], lam), 1),
            (lambda m, lam: rml_demo(m, THETA, THETA, 0.1, 1.0, 3, seed=1), 1),
        ],
        ids=["filter_iterate", "loglik_jet", "rml_demo"],
    )
    def test_slot_mass_abort_names_the_observation(self, model32, monkeypatch, fold, index):
        monkeypatch.setattr(filtering, "MASS_TOL", 0.0)
        with pytest.raises(MassInvariantError, match=f"beyond 0.0 at observation index {index}$"):
            fold(model32, GridMeasure.uniform(model32.grid))


class TestSharedScalars:
    def test_scalars_match_the_update_masses(self, model32, theta, iset):
        rng = np.random.default_rng(8)
        measure = random_l0(model32, iset, rng)
        y = 0.7
        cache = KernelCache(model32, theta, iset)
        _, s_masses, predictive = filter_step_with_scalars(cache, y, measure)
        s_all = normalized_updates(model32, theta, y, measure)
        for k, alpha in enumerate(iset.indices):
            assert s_masses[k] == pytest.approx(s_all[alpha].total_mass(), rel=1e-12, abs=1e-12)
        lam0 = measure.component(iset.zero)
        assert predictive == pytest.approx(
            kernel_updates(model32, theta, y, lam0)[(0, 0)].total_mass(), rel=1e-12
        )
