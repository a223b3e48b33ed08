import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterjet import (
    FDScheme,
    GridMeasure,
    ParameterPoint,
    Trajectory,
    assumption_constants,
    fd_derivative,
    kernel_matrix,
    simulate,
    stationary_law,
)
from filterjet import models
from filterjet.multiindex import enumerate_indices

from conftest import THETA, kslot_quotient_jet, make_model


class TestParameterPoint:
    def test_strict_interior_required(self):
        with pytest.raises(ValueError):
            ParameterPoint((0.2, 0.9), ((0.2, 1.5), (0.2, 1.5)))
        pp = ParameterPoint((0.8, 0.9), ((0.2, 1.5), (0.2, 1.5)))
        assert pp.array.tolist() == [0.8, 0.9]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ParameterPoint((0.5,), ((0.2, 1.5), (0.2, 1.5)))


class TestTrajectory:
    def test_length_consistency(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros(3), observations=np.zeros(3))
        t = Trajectory(states=np.zeros(4), observations=np.zeros(3))
        assert len(t) == 3


class TestKernelMatrix:
    def test_zero_index_nonnegative(self, model32, theta):
        mat = kernel_matrix(model32, (0, 0), theta, 0.5)
        assert np.all(mat >= 0.0)

    def test_column_sums_equal_observation_mass_for_constant_obs(self):
        # observation map identically zero: q(y | x') does not depend on x',
        # so every column integrates to that common observation density.
        model = make_model(obs=("zero", "zero"))
        theta = THETA
        y = 1.3
        mat = kernel_matrix(model, (0, 0), theta, y)
        col_sums = model.grid.weights @ mat
        iset = enumerate_indices(2, 0)
        q = model.observation_jet(theta, y, model.grid.axis(0)[:1], iset)[0][0]
        assert np.allclose(col_sums, q, rtol=1e-12, atol=1e-15)

    def test_first_derivative_matches_central_difference(self, model32, theta):
        h = 1e-4
        analytic = kernel_matrix(model32, (1, 0), theta, 0.5)
        up = kernel_matrix(model32, (0, 0), theta + np.array([h, 0.0]), 0.5)
        dn = kernel_matrix(model32, (0, 0), theta - np.array([h, 0.0]), 0.5)
        fd = (up - dn) / (2 * h)
        rel = np.max(np.abs(analytic - fd)) / np.max(np.abs(fd))
        assert rel <= 1e-6

    def test_order_and_domain_validation(self, model32, theta):
        with pytest.raises(ValueError):
            kernel_matrix(model32, (2, 1), theta, 0.5)  # degree 3 > order 2
        with pytest.raises(ValueError):
            kernel_matrix(model32, (0, 0), np.array([0.1, 0.9]), 0.5)
        with pytest.raises(ValueError):
            kernel_matrix(model32, (0, 0), theta, 9.5)  # y outside box


class TestTruncatedDensities:
    def test_transition_normalized_on_grid(self, model32, theta):
        x = model32.grid.axis(0)
        iset = enumerate_indices(2, 0)
        dens = model32.transition_jet(theta, x[:, None], x[None, :], iset)[0]
        masses = model32.grid.weights @ dens
        assert np.max(np.abs(masses - 1.0)) <= 1e-8

    def test_transition_density_strictly_positive(self, model32, theta):
        x = model32.grid.axis(0)
        iset = enumerate_indices(2, 0)
        dens = model32.transition_jet(theta, x[:, None], x[None, :], iset)[0]
        observed_min = dens.min()
        assert observed_min > 0.0

    def test_observation_normalized_on_quadrature(self, model32, theta):
        iset = enumerate_indices(2, 0)
        x = model32.grid.axis(0)
        nodes = model32._obs_nodes
        q = model32.observation_jet(theta, nodes[:, None], x[None, :], iset)[0]
        masses = model32._obs_weights @ q
        assert np.max(np.abs(masses - 1.0)) <= 1e-10

    def test_joint_kernel_integrates_to_one(self, model32, theta):
        # integrate the joint kernel over observation and new state
        nodes = model32._obs_nodes
        total = np.zeros(model32.grid.size)
        for y, wy in zip(nodes, model32._obs_weights):
            mat = kernel_matrix(model32, (0, 0), theta, y)
            total += wy * (model32.grid.weights @ mat)
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_unbounded_observation_density_proper(self, gaussian_model, theta):
        iset = enumerate_indices(2, 0)
        x = gaussian_model.grid.axis(0)
        ys = np.linspace(-12, 12, 2001)
        q = gaussian_model.observation_jet(theta, ys[:, None], x[None, :], iset)[0]
        masses = np.trapezoid(q, ys, axis=0)
        assert np.max(np.abs(masses - 1.0)) <= 1e-6

    def test_transition_first_derivative_fd(self, model32, theta):
        h = 1e-4
        x = model32.grid.axis(0)
        iset = enumerate_indices(2, 1)
        analytic = model32.transition_jet(theta, x[:, None], x[None, :], iset)
        up = model32.transition_jet(theta + np.array([h, 0]), x[:, None], x[None, :], iset)[0]
        dn = model32.transition_jet(theta - np.array([h, 0]), x[:, None], x[None, :], iset)[0]
        fd = (up - dn) / (2 * h)
        rel = np.max(np.abs(analytic[iset.slot((1, 0))] - fd)) / np.max(np.abs(fd))
        assert rel <= 1e-6

    def test_all_orders_match_richardson_differences(self, model32, theta):
        # every mixed derivative of the joint kernel against the oracle
        scheme = FDScheme(1e-3, 2)
        y = -0.7
        f = lambda th: kernel_matrix(model32, (0, 0), th, y)  # noqa: E731
        for alpha in enumerate_indices(2, 2).indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(f, alpha, theta, scheme, bounds=model32.parameter_box)
            analytic = kernel_matrix(model32, alpha, theta, y)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(analytic - fd)) / scale <= 1e-4

    def test_observation_first_derivative_fd(self, model32, theta):
        h = 1e-4
        x = model32.grid.axis(0)
        iset = enumerate_indices(2, 1)
        up = model32.observation_jet(theta + np.array([0, h]), 1.2, x, iset)[iset.slot((0, 0))]
        dn = model32.observation_jet(theta - np.array([0, h]), 1.2, x, iset)[iset.slot((0, 0))]
        fd = (up - dn) / (2 * h)
        analytic = model32.observation_jet(theta, 1.2, x, iset)[iset.slot((0, 1))]
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_symmetric_model_invariant_under_theta_swap(self):
        model = make_model(drift=("tanh", "tanh"), obs=("linear", "linear"))
        a = kernel_matrix(model, (0, 0), np.array([0.5, 0.9]), 0.4)
        b = kernel_matrix(model, (0, 0), np.array([0.9, 0.5]), 0.4)
        assert np.allclose(a, b, rtol=0, atol=1e-15)

    def test_kernel_positivity_across_samples(self, model32):
        # strong positivity of the joint kernel on the compact domains
        for th in ([0.8, 0.9], [0.3, 1.4], [1.4, 0.3]):
            for y in (-5.5, 0.0, 5.5):
                mat = kernel_matrix(model32, (0, 0), np.asarray(th), y)
                assert mat.min() > 0.0


FEATURE_SETS = {
    "default": {},
    "zero-one": {
        "drift": ("tanh", "one", "zero"),
        "obs": ("zero", "one", "linear"),
        "theta_box": ((0.2, 1.5),) * 3,
    },
}


def _hermite_ratios(z, order):
    """pdf^(k)(z) / pdf(z) for k = 0..order, signed Hermite polynomials
    from He_(k+1) = z He_k - k He_(k-1)."""
    out = [np.ones_like(z)]
    he_prev, he = out[0], z + 0.0
    for k in range(order):
        out.append(he if k % 2 else -he)
        he, he_prev = z * he - (k + 1) * he_prev, he
    return out


def _reference_location_jet(theta, feats, scale, index_set):
    """Evaluator target -> (K, ...) jet of pdf((target - theta . feats) / scale), slot by slot."""
    location = np.tensordot(np.asarray(theta, dtype=float), feats, axes=1)
    slopes = -feats / scale

    def at(target):
        z = (np.asarray(target, dtype=float) - location) / scale
        pdf = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
        pdf_derivs = [r * pdf for r in _hermite_ratios(z, index_set.order)]
        out = np.empty((len(index_set),) + z.shape)
        for k, alpha in enumerate(index_set.indices):
            factor = np.ones(feats.shape[1:])
            for i, a_i in enumerate(alpha):
                if a_i:
                    factor = factor * slopes[i] ** a_i
            out[k] = pdf_derivs[alpha.degree] * factor
        return out

    return at


def _reference_transition_jet(model, theta, x_new, x_old, index_set):
    """The transition jet built slot by slot: K numerator slots at the new
    states and on the grid nodes, the normalizer jet by quadrature, then
    the multi-index quotient recursion."""
    x_old = np.asarray(x_old, dtype=float)
    feats = model._features(model.drift_features, x_old)
    at = _reference_location_jet(theta, feats, model.trans_scale, index_set)
    nodes = model.grid.axis(0).reshape((-1,) + (1,) * x_old.ndim)
    den = np.tensordot(at(nodes), model.grid.weights, axes=([1], [0]))
    return kslot_quotient_jet(at(x_new), den, index_set)


def _reference_observation_jet(model, theta, y, x, index_set):
    """The observation jet built slot by slot, as for the transition, with
    the truncation normalizer by quadrature over the observation box."""
    x = np.asarray(x, dtype=float)
    feats = model._features(model.obs_features, x)
    at = _reference_location_jet(theta, feats, model.obs_scale, index_set)
    if model.obs_box is None:
        den = np.zeros((len(index_set),) + x.shape)
        den[0] = model.obs_scale
    else:
        nodes = model._obs_nodes.reshape((-1,) + (1,) * x.ndim)
        den = np.tensordot(at(nodes), model._obs_weights, axes=([1], [0]))
    return kslot_quotient_jet(at(y), den, index_set)


def _assert_matches_reference(jet, reference, slot0_exact=True):
    # Slot 0 takes the same operations in the same order, so it is bit for
    # bit equal; higher slots sum the same terms grouped by degree instead
    # of by multi-index, which moves float64 rounding only.  Without
    # slot0_exact, slot 0 may differ by rounding: a BLAS dot product rounds
    # the last rows of a product whose row count is not a multiple of four
    # differently, and the normalizer's row count is (order + 1) times the
    # number of old states, where the reference's is K times that.
    assert jet.shape == reference.shape
    if slot0_exact:
        assert np.array_equal(jet[0], reference[0])
    else:
        assert np.max(np.abs(jet[0] - reference[0])) <= 1e-15 * np.max(np.abs(reference[0]))
    for k in range(1, len(reference)):
        scale = np.max(np.abs(reference[k]))
        assert np.max(np.abs(jet[k] - reference[k])) <= 1e-13 * scale


@lru_cache(maxsize=None)
def _model(variant, order, cells=24, features="default"):
    return make_model(cells=cells, order=order, variant=variant, **FEATURE_SETS[features])


THETAS = st.lists(st.floats(0.25, 1.45), min_size=3, max_size=3)


class TestTransitionJetPaths:
    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("cells", [24, 33])
    @pytest.mark.parametrize("features", ["default", "zero-one"])
    @settings(max_examples=10, deadline=None)
    # old states on a 0.01 lattice: a subnormal state makes slots that
    # underflow, where a relative tolerance means nothing
    @given(theta=THETAS, x_off=st.lists(st.integers(-300, 300).map(lambda i: i / 100), min_size=1, max_size=3))
    def test_grid_and_point_paths_match_the_reference(
        self, variant, order, cells, features, theta, x_off
    ):
        model = _model(variant, order, cells, features)
        theta = theta[: model.dim_theta]
        iset = model.index_set()
        x = model.grid.axis(0)
        on_grid = model.transition_grid_jet(theta, iset)
        _assert_matches_reference(
            on_grid, _reference_transition_jet(model, theta, x[:, None], x[None, :], iset)
        )
        assert np.array_equal(model.transition_jet(theta, x[:, None], x[None, :], iset), on_grid)
        # off the grid: new states against a column of old states
        column = np.asarray(x_off)[:, None]
        _assert_matches_reference(
            model.transition_jet(theta, x, column, iset),
            _reference_transition_jet(model, theta, x, column, iset),
            slot0_exact=False,
        )


def _check_observation_paths(model, ys, theta):
    theta = theta[: model.dim_theta]
    iset = model.index_set()
    x = model.grid.axis(0)
    on_grid = model.observation_grid_factory(theta, iset)
    for y in ys:
        jet = on_grid(y)
        _assert_matches_reference(jet, _reference_observation_jet(model, theta, y, x, iset))
        assert np.array_equal(model.observation_jet(theta, y, x, iset), jet)
    column = np.asarray(ys)[:, None]
    for states in (x[None, :], x):
        _assert_matches_reference(
            model.observation_jet(theta, column, states, iset),
            _reference_observation_jet(model, theta, column, states, iset),
        )


OBSERVATIONS = st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4)


class TestObservationJetPaths:
    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(ys=OBSERVATIONS, theta=THETAS)
    def test_point_and_grid_paths_match_the_reference(self, variant, order, ys, theta):
        _check_observation_paths(_model(variant, order), ys, theta)

    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("cells, features", [(33, "default"), (24, "zero-one"), (33, "zero-one")])
    @settings(max_examples=10, deadline=None)
    @given(ys=OBSERVATIONS, theta=THETAS)
    def test_odd_grid_and_zero_one_features_match_the_reference(
        self, variant, order, cells, features, ys, theta
    ):
        _check_observation_paths(_model(variant, order, cells, features), ys, theta)


class TestSimulate:
    def test_deterministic_given_seed(self, model32, theta):
        lam = GridMeasure.uniform(model32.grid)
        a = simulate(model32, theta, lam, 50, seed=123)
        b = simulate(model32, theta, lam, 50, seed=123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)
        c = simulate(model32, theta, lam, 50, seed=124)
        assert not np.array_equal(a.observations, c.observations)

    def test_states_and_observations_stay_in_domains(self, model32, theta):
        lam = GridMeasure.uniform(model32.grid)
        traj = simulate(model32, theta, lam, 400, seed=5)
        lo, hi = model32.grid.bounds[0]
        assert np.all((traj.states >= lo) & (traj.states <= hi))
        olo, ohi = model32.obs_box
        assert np.all((traj.observations >= olo) & (traj.observations <= ohi))

    def test_tiny_noise_tracks_deterministic_map(self):
        model = make_model(trans_scale=1e-6, obs_scale=1e-6, obs_box=(-6.0, 6.0))
        theta = THETA
        lam = GridMeasure.point_mass(model.grid, model.grid.size // 2)
        traj = simulate(model, theta, lam, 30, seed=9)
        x = traj.states[0]
        for k in range(30):
            x = theta[0] * np.tanh(x)
            assert abs(traj.states[k + 1] - x) <= 1e-3

    def test_empirical_stationary_histogram(self, model32, theta):
        # long-run histogram against the power-iteration stationary law
        lam = GridMeasure.uniform(model32.grid)
        n = 100_000
        traj = simulate(model32, theta, lam, n, seed=31)
        grid = model32.grid
        lo, hi = grid.bounds[0]
        h = (hi - lo) / grid.size
        cells = np.clip(((traj.states[1:] - lo) / h).astype(int), 0, grid.size - 1)
        empirical = np.bincount(cells, minlength=grid.size) / n
        pi = stationary_law(model32, theta).law
        pi_cells = pi.density * grid.weights
        tv = 0.5 * np.sum(np.abs(empirical - pi_cells))
        assert tv <= 0.05

    def test_accepted_draws_follow_the_rejection_stream(self, model32, theta):
        # one standard normal per trial, first accepted draw returned
        rng, replay = np.random.default_rng(3), np.random.default_rng(3)
        lo, hi = model32.grid.bounds[0]
        for x in np.linspace(-3.0, 3.0, 25):
            loc = model32._scalar_location(model32._drift_scalars, theta, float(x))
            while True:
                expected = loc + model32.trans_scale * replay.standard_normal()
                if lo <= expected <= hi:
                    break
            assert model32.transition_sample(theta, x, rng) == expected

    def test_sampler_cap_names_box_and_location(self, theta, monkeypatch):
        monkeypatch.setattr(models, "SAMPLER_MAX_TRIALS", 1000)
        model = make_model(obs_box=(5.0, 6.0), obs_scale=0.1)
        with pytest.raises(ArithmeticError, match=r"\[5\.0, 6\.0\].*location 0\.0"):
            model.observation_sample(theta, 0.0, np.random.default_rng(0))

    def test_requires_probability_initial_law(self, model32, theta):
        bad = GridMeasure(np.full(model32.grid.size, 2.0), model32.grid)
        with pytest.raises(ValueError):
            simulate(model32, theta, bad, 5, seed=1)
        with pytest.raises(ValueError):
            simulate(model32, theta, GridMeasure.uniform(model32.grid), 0, seed=1)


@pytest.fixture(scope="module")
def compact(model32):
    thetas = [THETA, np.array([0.5, 1.2])]
    ys = np.linspace(-5.5, 5.5, 21)
    return assumption_constants(model32, thetas, ys)


@pytest.fixture(scope="module")
def unbounded(gaussian_model):
    thetas = [THETA, np.array([0.5, 1.2])]
    ys = np.geomspace(5.0, 500.0, 25)
    return assumption_constants(gaussian_model, thetas, ys)


class TestAssumptionConstants:
    def test_epsilon_strictly_inside_unit_interval(self, compact, unbounded):
        assert 0.0 < compact.epsilon < 1.0
        assert 0.0 < unbounded.epsilon < 1.0

    def test_compact_variant_has_uniform_envelope(self, compact):
        assert compact.variant == "compact"
        assert compact.envelope_holds
        assert np.all(compact.psi_values <= compact.psi_constant**2)

    def test_unbounded_growth_exponent_near_two(self, unbounded):
        assert unbounded.variant == "unbounded"
        assert 1.8 <= unbounded.growth_exponent <= 2.2
        assert unbounded.envelope_holds

    def test_score_table_positive_and_finite(self, compact, unbounded):
        for record in (compact, unbounded):
            assert np.all(np.isfinite(record.psi_values))
            assert np.all(record.psi_values > 0.0)

    def test_empty_samples_rejected(self, model32):
        with pytest.raises(ValueError):
            assumption_constants(model32, [], [0.0])
