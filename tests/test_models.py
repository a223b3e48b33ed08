import dataclasses
import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterjet import (
    FDScheme,
    GridMeasure,
    NormalStreams,
    StateGrid,
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


class TestValidateTheta:
    def test_plain_sequence_becomes_a_float_array(self, model32):
        arr = model32.validate_theta([0.8, 0.9])
        assert arr.dtype == float and arr.tolist() == [0.8, 0.9]

    def test_boundary_and_shape_rejected(self, model32):
        with pytest.raises(ValueError, match="open box"):
            model32.validate_theta([0.2, 0.9])
        with pytest.raises(ValueError, match="shape"):
            model32.validate_theta([0.5])


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
        q = model.observation_grid_factory(theta, iset)(y)[0][0]
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
    def test_a_rejected_column_names_its_first_offending_observation(self, model32):
        evaluate = model32.observation_grid_factory(THETA, model32.index_set())
        with pytest.raises(ValueError, match=r"^observation 9\.5 is not finite or lies outside \[-6\.0, 6\.0\]$"):
            evaluate(np.array([[0.1], [9.5], [np.nan]]))

    def test_transition_normalized_on_grid(self, model32, theta):
        dens = model32.transition_grid_jet(theta, enumerate_indices(2, 0))[0]
        masses = model32.grid.weights @ dens
        assert np.max(np.abs(masses - 1.0)) <= 1e-8

    def test_transition_density_strictly_positive(self, model32, theta):
        dens = model32.transition_grid_jet(theta, enumerate_indices(2, 0))[0]
        observed_min = dens.min()
        assert observed_min > 0.0

    def test_observation_normalized_on_quadrature(self, model32, theta):
        iset = enumerate_indices(2, 0)
        nodes = model32._obs_nodes
        q = model32.observation_grid_factory(theta, iset)(nodes[:, None])[0]
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
        ys = np.linspace(-12, 12, 2001)
        q = gaussian_model.observation_grid_factory(theta, iset)(ys[:, None])[0]
        masses = np.trapezoid(q, ys, axis=0)
        assert np.max(np.abs(masses - 1.0)) <= 1e-6

    def test_transition_first_derivative_fd(self, model32, theta):
        h = 1e-4
        iset = enumerate_indices(2, 1)
        analytic = model32.transition_grid_jet(theta, iset)
        up = model32.transition_grid_jet(theta + np.array([h, 0]), iset)[0]
        dn = model32.transition_grid_jet(theta - np.array([h, 0]), iset)[0]
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
        iset = enumerate_indices(2, 1)
        jet = lambda th: model32.observation_grid_factory(th, iset)(1.2)  # noqa: E731
        up = jet(theta + np.array([0, h]))[iset.slot((0, 0))]
        dn = jet(theta - np.array([0, h]))[iset.slot((0, 0))]
        fd = (up - dn) / (2 * h)
        analytic = jet(theta)[iset.slot((0, 1))]
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
    "single": {"drift": ("tanh",), "obs": ("linear",), "theta_box": ((0.2, 1.5),)},
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


def _assert_matches_reference(jet, reference):
    # Slot 0 takes the same operations in the same order, so it is bit for
    # bit equal; higher slots sum the same terms grouped by degree instead
    # of by multi-index, which moves float64 rounding only.
    assert jet.shape == reference.shape
    assert np.array_equal(jet[0], reference[0])
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
    @given(theta=THETAS)
    def test_grid_and_point_paths_match_the_reference(self, variant, order, cells, features, theta):
        model = _model(variant, order, cells, features)
        theta = theta[: model.dim_theta]
        iset = model.index_set()
        x = model.grid.axis(0)
        _assert_matches_reference(
            model.transition_grid_jet(theta, iset),
            _reference_transition_jet(model, theta, x[:, None], x[None, :], iset),
        )


def _check_observation_paths(model, ys, theta):
    theta = theta[: model.dim_theta]
    iset = model.index_set()
    x = model.grid.axis(0)
    on_grid = model.observation_grid_factory(theta, iset)
    for y in ys:
        _assert_matches_reference(on_grid(y), _reference_observation_jet(model, theta, y, x, iset))
    column = np.asarray(ys)[:, None]
    _assert_matches_reference(
        on_grid(column), _reference_observation_jet(model, theta, column, x, iset)
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


def _parent_location_jet(model, names, scale, theta, index_set):
    """The replaced build's location jet: feature values and slope powers
    computed on every call, theta . features by np.tensordot."""
    feats = model._features(names, model.grid.axis(0))
    location = np.tensordot(np.asarray(theta, dtype=float), feats, axes=1)
    factors = models._slope_powers(-feats / scale, index_set)

    def at(target):
        z = (np.asarray(target, dtype=float) - location) / scale
        return models._gauss_pdf_derivs(z, index_set.order)

    return at, factors


def _parent_transition_jet(model, theta, index_set):
    at, factors = _parent_location_jet(model, model.drift_features, model.trans_scale, theta, index_set)
    on_grid = at(model.grid.axis(0)[:, None])
    den = np.tensordot(on_grid, model.grid.weights, axes=([1], [0]))
    return models._expand_degrees(models._quotient_degrees(on_grid, den), factors, index_set)


def _parent_observation_jet(model, theta, index_set, y):
    """The replaced evaluator at y: location, factors and normalizer rebuilt per observation."""
    at, factors = _parent_location_jet(model, model.obs_features, model.obs_scale, theta, index_set)
    if model.obs_box is None:
        den = [model.obs_scale]
    else:
        den = np.tensordot(at(model._obs_nodes[:, None]), model._obs_weights, axes=([1], [0]))
    return models._expand_degrees(models._quotient_degrees(at(y), den), factors, index_set)


class TestBuildMatchesReplacedBuild:
    """The per-model tables and the explicit BLAS normalizers change no bit of a jet of order 1 or more."""

    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("cells", [24, 33])
    @settings(max_examples=8, deadline=None)
    @given(theta=THETAS, ys=OBSERVATIONS)
    def test_every_slot_is_bit_identical(self, variant, order, cells, theta, ys):
        model = _model(variant, order, cells)
        theta = np.asarray(theta[: model.dim_theta])
        column = np.asarray(ys)[:, None]
        for lower in range(1, order + 1):
            iset = model.index_set(lower)
            assert np.array_equal(
                model.transition_grid_jet(theta, iset), _parent_transition_jet(model, theta, iset)
            )
            evaluate = model.observation_grid_factory(theta, iset)
            for y in ys + [column]:
                assert np.array_equal(evaluate(y), _parent_observation_jet(model, theta, iset, y))
        # The order-0 normalizers sum like order 1 on purpose: an order-0 jet
        # is the slot-0 prefix of the order-1 jet.
        zero, one = model.index_set(0), model.index_set(1)
        assert np.array_equal(model.transition_grid_jet(theta, zero), model.transition_grid_jet(theta, one)[:1])
        evaluate, reference = model.observation_grid_factory(theta, zero), model.observation_grid_factory(theta, one)
        for y in ys + [column]:
            assert np.array_equal(evaluate(y), reference(y)[:1])

    def test_a_model_on_another_grid_has_its_own_tables(self):
        model = _model("compact", 2)
        iset = model.index_set()
        for other in (
            dataclasses.replace(model, grid=StateGrid.uniform([(-2.0, 2.5)], 24)),
            make_model(cells=24, order=2, state=(-2.0, 2.5)),
        ):
            assert other._drift_tables[0] is not model._drift_tables[0]
            assert np.array_equal(
                other.transition_grid_jet(THETA, iset), _parent_transition_jet(other, THETA, iset)
            )
            assert np.array_equal(
                other.observation_grid_factory(THETA, iset)(0.4),
                _parent_observation_jet(other, THETA, iset, 0.4),
            )
            assert not np.array_equal(
                other.transition_grid_jet(THETA, iset), model.transition_grid_jet(THETA, iset)
            )

    @pytest.mark.parametrize("lower_order", [0, 1])
    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    def test_a_lower_order_copy_has_the_same_jets(self, variant, lower_order):
        # the loglik experiment differences a dataclasses.replace(model, order=0) copy
        model = _model(variant, 3)
        lower = dataclasses.replace(model, order=lower_order)
        iset = lower.index_set()
        assert np.array_equal(lower.transition_grid_jet(THETA, iset), model.transition_grid_jet(THETA, iset))
        for y in (0.4, np.array([[-1.3], [2.2]])):
            assert np.array_equal(
                lower.observation_grid_factory(THETA, iset)(y), model.observation_grid_factory(THETA, iset)(y)
            )
        assert np.array_equal(lower._obs_nodes, model._obs_nodes)
        assert np.array_equal(lower._obs_weights, model._obs_weights)

    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    def test_quadrature_nodes_are_not_constructor_arguments(self, variant):
        # they follow obs_box alone: none without a box
        model = _model(variant, 1)
        init = {f.name: f.init for f in dataclasses.fields(model)}
        assert not init["_obs_nodes"] and not init["_obs_weights"]
        assert (model._obs_nodes is None) == (model._obs_weights is None) == (variant == "gaussian")


def _unbuffered_pdf_derivs(z, order):
    """_gauss_pdf_derivs as it was before it took an output buffer."""
    out = np.empty((order + 1,) + z.shape)
    out[0] = 1.0
    for k in range(order):
        out[k + 1] = -z * out[k]
        if k:
            out[k + 1] -= k * out[k - 1]
    out *= np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    return out


def _transposed_integrate(values, weights):
    """_integrate as it was: (D, N, M) values summed over axis 1 from a transposed (D * M, N) copy."""
    d, n, m = values.shape
    return np.dot(values.transpose(0, 2, 1).reshape(d * m, n), weights.reshape(n, 1)).reshape(d, m)


def _unbuffered_transition_jet(model, theta, index_set):
    """The transition build before it ran in its output buffer: Gaussians in
    (degree, new state, old state) layout, then the transposed copy, the
    quotient and a fresh (K, N, N) product array."""
    order = index_set.order
    location = models._location(model._drift_tables, theta)
    x = model.grid.axis(0)
    on_grid = _unbuffered_pdf_derivs((x[:, None] - location) / model.trans_scale, max(order, 1))
    den = _transposed_integrate(on_grid, model.grid.weights)[: order + 1]
    factors = model._drift_tables[1][: len(index_set)]
    return models._expand_degrees(models._quotient_degrees(on_grid[: order + 1], den), factors, index_set)


def _unbuffered_compact_normalizer(model, theta, order):
    """The compact observation normalizer from (degree, node, state) Gaussians and the transposed copy."""
    location = models._location(model._obs_tables, theta)
    on_nodes = _unbuffered_pdf_derivs((model._obs_nodes[:, None] - location) / model.obs_scale, max(order, 1))
    return _transposed_integrate(on_nodes, model._obs_weights)[: order + 1]


class TestBuildInItsOutputBuffer:
    """Building the transition jet inside the array it returns, and the
    normalizers in the layout their BLAS product reads, changes no bit."""

    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("features", ["single", "default", "zero-one"])
    @pytest.mark.parametrize("cells", [8, 33, 64, 256])
    @settings(max_examples=3, deadline=None)
    @given(theta=THETAS, ys=OBSERVATIONS)
    def test_jets_and_normalizers_are_bit_identical(self, variant, features, cells, theta, ys):
        model = _model(variant, 3, cells, features)
        theta = np.asarray(theta[: model.dim_theta])
        column = np.asarray(ys)[:, None]
        location = models._location(model._obs_tables, theta)
        for order in range(4):
            iset = model.index_set(order)
            jet = model.transition_grid_jet(theta, iset)
            assert jet.flags.c_contiguous
            assert np.array_equal(jet, _unbuffered_transition_jet(model, theta, iset))
            evaluate = model.observation_grid_factory(theta, iset)
            if variant == "compact":
                den = _unbuffered_compact_normalizer(model, theta, order)
                on_nodes = models._across_points(location, model._obs_nodes, model.obs_scale, max(order, 1))
                assert np.array_equal(models._integrate(on_nodes, model._obs_weights)[: order + 1], den)
            else:
                den = [model.obs_scale]
            at, factors = model._location_jet(model._obs_tables, model.obs_scale, location, iset)
            for y in ys + [column]:
                expected = models._expand_degrees(models._quotient_degrees(at(y), den), factors, iset)
                assert np.array_equal(evaluate(y), expected)
        zero, one = model.index_set(0), model.index_set(1)
        assert np.array_equal(model.transition_grid_jet(theta, zero), model.transition_grid_jet(theta, one)[:1])
        evaluate, reference = model.observation_grid_factory(theta, zero), model.observation_grid_factory(theta, one)
        for y in ys + [column]:
            assert np.array_equal(evaluate(y), reference(y)[:1])


_FAULT_PROBE = """
import json, resource
import numpy as np
import filterjet as fj

grid = fj.StateGrid.uniform([(-3.0, 3.0)], 256)
model = fj.TruncatedNonlinearModel(
    grid=grid, drift_features=("tanh", "zero"), obs_features=("zero", "linear"),
    trans_scale=0.5, obs_scale=0.7, theta_box=((0.2, 1.5), (0.2, 1.5)), obs_box=(-6.0, 6.0), order=2,
)
lam0 = fj.GridMeasure.uniform(grid)
ys = np.linspace(-2.0, 2.0, 40)
faults = []
for i in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fj.loglik_jet(model, np.array([0.6 + 0.05 * i, 0.9]), ys, lam0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[2:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page-fault counts are read on Linux only")
def test_a_large_grid_loglik_call_leaves_no_page_faults_behind():
    # A fresh interpreter: earlier tests raise glibc's mmap and trim thresholds,
    # which hides the faults of a build that frees its temporaries to the system.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout.splitlines()[-1])
    assert len(faults) == 4 and max(faults) < 100, faults


class TestObservationScores:
    """The observation scores d^b q / q behind the assumption_constants score table."""

    @pytest.mark.parametrize("variant", ["compact", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_score_table_is_the_joint_kernel_quotient(self, variant, order):
        model = _model(variant, order)
        ys = np.array([-4.0, -0.7, 0.3, 2.5, 5.0])
        table = assumption_constants(model, [THETA], ys).psi_values
        for y, psi in zip(ys, table):
            base = kernel_matrix(model, (0, 0), THETA, y)
            scores = [
                np.abs(kernel_matrix(model, alpha, THETA, y) / base).max()
                for alpha in model.index_set().indices
                if alpha.degree
            ]
            assert abs(psi - max(scores)) <= 1e-12 * max(scores)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_gaussian_scores_are_hermite_ratios_finite_where_the_density_underflows(self, order):
        model = _model("gaussian", order)
        iset = model.index_set()
        at, factors = model._location_jet(
            model._obs_tables, model.obs_scale, models._location(model._obs_tables, THETA), iset, ratios=True
        )
        density = model.observation_grid_factory(THETA, iset)
        ys = np.array([-6.0, -0.7, 0.3, 2.5, 6.0])[:, None]
        scores = models._expand_degrees(at(ys), factors, iset)
        jet = density(ys)
        for k in range(len(iset)):
            quotient = jet[k] / jet[0]
            assert np.max(np.abs(scores[k] - quotient)) <= 1e-12 * np.max(np.abs(quotient))
        # at y = 500 the density is 0.0 at every state, its scores are not
        assert np.all(density(500.0)[0] == 0.0)
        assert np.all(np.isfinite(models._expand_degrees(at(500.0), factors, iset)))
        far = assumption_constants(model, [THETA], [500.0]).psi_values
        assert np.all(np.isfinite(far)) and np.all(far > 0.0)


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
        rows = NormalStreams([np.random.default_rng(0)], [0, 0])
        with pytest.raises(ArithmeticError, match=r"\[5\.0, 6\.0\].*location 0\.0"):
            model.observation_samples(theta, np.array([0.0, 0.5]), rows)

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

    @pytest.mark.parametrize("obs_box", [(-6.0, 6.0), (-2.0, 3.0)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_compact_density_min_is_the_order0_minimum_at_the_nodes(self, order, obs_box):
        # eps1's observation half is slot 0 of the scan at the quadrature nodes,
        # bit for bit the order-0 jet evaluated there
        model = make_model(cells=24, order=order, obs_box=obs_box)
        thetas = [THETA, np.array([0.5, 1.2])]
        record = assumption_constants(model, thetas, np.linspace(-1.5, 1.5, 7))
        nodes = model._obs_nodes[:, None]
        q_min = min(float(model.observation_grid_factory(t, model.index_set(0))(nodes)[0].min()) for t in thetas)
        p_min = min(float(model.transition_grid_jet(t, model.index_set())[0].min()) for t in thetas)
        assert record.density_min == min(p_min, q_min)

    @pytest.mark.parametrize(
        "trans_scale, order, theta, named",
        [
            # eps2 = 1.0e-305: eps2 * eps2 underflows to 0
            (0.118, 2, 1.0, r"psi_constant = 2\*k2\*k3/eps2\*\*2 leaves float range at .*eps2 = 1\.0097"),
            (0.25, 3, 1.7738, r"score envelope to the power 3 leaves float range: .*psi_constant 3\.41"),
        ],
        ids=["eps2-squared-underflows", "envelope-cube-overflows"],
    )
    def test_a_constant_out_of_float_range_is_named(self, trans_scale, order, theta, named):
        model = make_model(
            cells=8, order=order, variant="gaussian", drift=("one",), obs=("linear",), trans_scale=trans_scale,
            obs_scale=0.4338, state=(-0.91, 5.85), theta_box=((0.969, 3.031),),
        )
        with pytest.raises(ArithmeticError, match=named):
            assumption_constants(model, [np.array([theta])], np.geomspace(5.0, 500.0, 6))

    def test_empty_samples_rejected(self, model32):
        with pytest.raises(ValueError):
            assumption_constants(model32, [], [0.0])
