"""rml_demo on the step core against the per-step wrapper path it replaced.

The reference below is the loop rml_demo ran before it called _step
directly: a kernel cache per step, filter_step_with_scalars, and the
degree-1 slots of jet_increments_from_scalars as the gradient, with the
same projection.  The rewrite claims every bit of its trace and every
abort's type and message.
"""
import numpy as np
import pytest

from filterjet import (
    GridMeasure,
    KernelCache,
    MassInvariantError,
    PredictiveMassError,
    embed,
    filter_step_with_scalars,
    filtering,
    rml_demo,
    simulate,
)
from filterjet.filtering import _where
from filterjet.loglik import PROJECTION_MARGIN, jet_increments_from_scalars
from filterjet.multiindex import MultiIndex, enumerate_indices
from filterjet.seeding import labeled_seed

from conftest import THETA, BrokenObservation, make_model


def reference_rml(model, theta_init, theta_true, step_a, step_b, n_steps, seed):
    """(thetas, projections) of the replaced loop: one filter_step_with_scalars per observation."""
    theta_true = model.validate_theta(theta_true)
    current = model.validate_theta(theta_init).copy()
    lam0 = GridMeasure.uniform(model.grid)
    iset = enumerate_indices(model.dim_theta, 1)
    grad_slots = [iset.slot(MultiIndex.unit(model.dim_theta, i)) for i in range(model.dim_theta)]
    box = np.asarray(model.parameter_box, dtype=float)
    margin = 1e-3 * (box[:, 1] - box[:, 0])
    traj = simulate(model, theta_true, lam0, n_steps, seed=labeled_seed(seed, "rml-path"))
    measure = embed(lam0, iset)
    trace = np.empty((n_steps + 1, model.dim_theta))
    trace[0] = current
    projections = 0
    for k, y in enumerate(traj.observations):
        try:
            cache = KernelCache(model, current, iset)
            measure, s_masses, predictive = filter_step_with_scalars(cache, y, measure)
        except PredictiveMassError as err:
            raise PredictiveMassError(err.mass, observation_index=k + 1) from err
        except (ValueError, MassInvariantError) as err:
            raise type(err)(f"{err}{_where(None, k + 1)}") from err
        increments = jet_increments_from_scalars(s_masses, predictive, iset)
        current = current + (step_a / (step_b + k)) * increments[grad_slots]
        clipped = np.clip(current, box[:, 0] + margin, box[:, 1] - margin)
        if not np.array_equal(clipped, current):
            projections += 1
            current = clipped
        trace[k + 1] = current
    return trace, projections


def assert_same_trace(model, theta_init, seed, n_steps=40):
    trace = rml_demo(model, theta_init, THETA, 3.0, 300.0, n_steps, seed)
    thetas, projections = reference_rml(model, theta_init, THETA, 3.0, 300.0, n_steps, seed)
    assert trace.thetas.tobytes() == thetas.tobytes()
    assert trace.projections == projections
    return projections


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", [24, 33])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_trace_is_bit_identical_to_the_wrapper_path(variant, cells, order, seed):
    model = make_model(cells=cells, order=order, variant=variant)
    assert_same_trace(model, [0.45, 1.25], seed)


def test_projected_trace_is_bit_identical_to_the_wrapper_path():
    # a start near theta_min[0] with the shipped gains leaves the box within 60 steps
    assert assert_same_trace(make_model(cells=24, order=1), [0.21, 1.25], seed=1, n_steps=60) > 0


def _raised(call):
    try:
        call()
    except (ArithmeticError, ValueError) as err:
        return err
    raise AssertionError("the run did not abort")


def assert_same_abort(make_run):
    """make_run(rml) -> a call of rml that aborts; both paths must raise alike."""
    new, old = _raised(make_run(rml_demo)), _raised(make_run(reference_rml))
    assert type(new) is type(old)
    assert str(new) == str(old)
    for name in ("observation_index", "replica", "point"):
        assert getattr(new, name, None) == getattr(old, name, None)
    return new


def test_a_predictive_mass_abort_matches_the_wrapper_path(gaussian_model):
    # the fourth simulated observation has vanishing density; each run draws afresh
    def make_run(rml):
        return lambda: rml(BrokenObservation(gaussian_model, outlier_from=4), THETA, THETA, 3.0, 300.0, 6, 1)

    err = assert_same_abort(make_run)
    assert type(err) is PredictiveMassError
    assert (err.observation_index, err.replica, err.point) == (4, None, None)


def test_a_mass_invariant_abort_matches_the_wrapper_path(model32, monkeypatch):
    # with no tolerance every step's slot-0 mass drifts beyond it, so step 1 aborts
    monkeypatch.setattr(filtering, "MASS_TOL", 0.0)

    def make_run(rml):
        return lambda: rml(model32, THETA, THETA, 3.0, 300.0, 6, 1)

    err = assert_same_abort(make_run)
    assert type(err) is MassInvariantError
    assert str(err).startswith("slot 0 mass drifts by ")
    assert str(err).endswith(", beyond 0.0 at observation index 1")


def test_a_kernel_build_abort_matches_the_wrapper_path(model32, monkeypatch):
    # every step builds its own cache, so each run's fifth build is that of step 5
    build = type(model32).transition_grid_factors
    calls = []

    def fifth_build_fails(model, point, index_set):
        calls.append(point)
        if len(calls) == 5:
            calls.clear()
            raise ValueError("transition normalizer vanished on the grid")
        return build(model, point, index_set)

    monkeypatch.setattr(type(model32), "transition_grid_factors", fifth_build_fails)

    def make_run(rml):
        return lambda: rml(model32, THETA, THETA, 3.0, 300.0, 6, 1)

    err = assert_same_abort(make_run)
    assert type(err) is ValueError
    assert str(err).endswith(" at observation index 5")


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_degree_one_increment_is_its_update_mass(dim, order, batched):
    # rml_demo reads its gradient off s_masses on this identity
    iset = enumerate_indices(dim, order)
    rng = np.random.default_rng([dim, order])
    s_masses = rng.standard_normal((5, len(iset)) if batched else len(iset))
    predictive = rng.uniform(0.1, 2.0, 5) if batched else float(rng.uniform(0.1, 2.0))
    increments = jet_increments_from_scalars(s_masses, predictive, iset)
    for i in range(dim):
        slot = iset.slot(MultiIndex.unit(dim, i))
        assert increments[..., slot].tobytes() == s_masses[..., slot].tobytes()


class TestStartRule:
    """theta_init must lie in the box shrunk by PROJECTION_MARGIN of its width at each end."""

    @pytest.fixture(scope="class")
    def interior(self, model32):
        box = np.asarray(model32.parameter_box, dtype=float)
        margin = PROJECTION_MARGIN * (box[:, 1] - box[:, 0])
        return box[:, 0] + margin, box[:, 1] - margin

    @pytest.mark.parametrize("start", [[0.20013, 0.9], [0.8, 1.4999]])
    def test_a_start_in_the_margin_is_rejected(self, model32, start):
        with pytest.raises(ValueError, match=r"outside the projection interior \[\(0.2013, 1.4987\), "):
            rml_demo(model32, start, THETA, 0.0, 300.0, 3, seed=1)

    def test_a_zero_gain_keeps_a_start_on_the_interior_edge(self, model32, interior):
        start = np.array([interior[0][0], interior[1][1]])
        trace = rml_demo(model32, start, start, 0.0, 300.0, 3, seed=1)
        assert np.all(trace.thetas == start) and trace.projections == 0
