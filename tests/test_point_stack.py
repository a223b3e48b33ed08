"""A filter pass over a stack of parameter points against serial passes.

filter_iterate over a (P, dim) stack of points must give every point the
bits of that point's pass alone, at every order, and the
derivative-identity sweep runs its difference passes that way.  The
references are the library's one-point passes (test_step_core's
serial_fold) and the serial per-point sweep built on them; the order-0
bytes of those passes are pinned to the assembled slot-0 kernel in
test_step_core.  A stacked cache builds one kernel factor per distinct
model.kernel_keys key; its factors are checked against one-point
caches, and its builds are counted.  A one-point cache computes no key
and keeps the transition jet it built.
"""
from functools import lru_cache

import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    KernelCache,
    PredictiveMassError,
    derivative_identity_sweep,
    embed,
    fd_derivative,
    filter_iterate,
    filter_step_with_scalars,
    simulate,
)
from filterjet.experiments import SweepCell
from filterjet.models import TruncatedNonlinearModel
from filterjet.oracle import stencil_points
from filterjet.seeding import labeled_seed

from conftest import THETA, BrokenObservation, make_model, random_l0
from test_step_core import FEATURES, serial_fold

HORIZON = 5


@lru_cache(maxsize=None)
def line_model(variant, cells, features="shipped"):
    drift, obs = FEATURES[features]
    return make_model(cells=cells, order=3, variant=variant, drift=drift, obs=obs)


@lru_cache(maxsize=None)
def observations(variant, cells, horizon=HORIZON):
    model = line_model(variant, cells)
    return simulate(model, THETA, GridMeasure.uniform(model.grid), horizon, seed=cells).observations


def point_stack(count, seed):
    return np.random.default_rng(seed).uniform(0.3, 1.4, size=(count, 2))


@pytest.mark.parametrize("points", [1, 2, 28])
@pytest.mark.parametrize("cells", [5, 33, 64, 129])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_stacked_pass_equals_serial_passes(variant, order, cells, points):
    model = line_model(variant, cells)
    ys = observations(variant, cells)
    start = random_l0(model, model.index_set(order), np.random.default_rng(order))
    thetas = point_stack(points, seed=100 * cells + order)
    states = filter_iterate(model, thetas, ys, start)
    assert isinstance(states, tuple) and len(states) == points
    for theta, state in zip(thetas, states):
        assert np.array_equal(state.components, serial_fold(model, theta, ys, start))


def serial_sweep(model, thetas, horizon, seed, scheme=FDScheme(), rel_tol=1e-4, abs_floor=1e-6):
    """The sweep before the point stack: one serial order-0 pass per stencil point."""
    lam0 = GridMeasure.uniform(model.grid)
    data_theta = np.asarray(model.parameter_box, dtype=float).mean(axis=1)
    traj = simulate(model, data_theta, lam0, horizon, seed=labeled_seed(seed, "identity-path"))
    index_set = model.index_set()
    weights = model.grid.weights
    floor_scale = abs_floor / rel_tol
    fd_start = embed(lam0, model.index_set(0))

    def zero_slot_masses(theta_point):
        # One memo for every alpha of a parameter point; theta, too, gets its order-0 pass.
        key = theta_point.tobytes()
        if key not in memo:
            memo[key] = serial_fold(model, theta_point, traj.observations, fd_start)[0] * weights
        return memo[key]

    cells = []
    for t_idx, theta in enumerate(thetas):
        slot_masses = serial_fold(model, theta, traj.observations, embed(lam0, index_set)) * weights
        memo = {}
        for k, alpha in enumerate(index_set.indices):
            if alpha.degree == 0:
                reference = slot_masses[0]
            else:
                reference = fd_derivative(zero_slot_masses, alpha, theta, scheme, bounds=model.parameter_box)
            gap = np.abs(slot_masses[k] - reference)
            scaled = float((gap / np.maximum(floor_scale, np.abs(reference))).max())
            cells.append(SweepCell(t_idx, alpha, float(gap.max()), scaled))
    return cells


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("cells", [33, 64])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_sweep_equals_the_serial_sweep(features, variant, cells, seed):
    model = line_model(variant, cells, features)
    thetas = list(point_stack(2, seed=seed))
    report = derivative_identity_sweep(model, thetas, horizon=4, seed=seed)
    expected = serial_sweep(model, thetas, horizon=4, seed=seed)
    assert len(report.cells) == len(expected)
    for got, want in zip(report.cells, expected):
        assert (got.theta_index, got.alpha) == (want.theta_index, want.alpha)
        assert got.max_abs_error == want.max_abs_error
        assert got.scaled_error == want.scaled_error


@pytest.mark.parametrize("cells", [5, 24, 33, 50, 64, 129, 256])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_block_observation_jets_equal_per_y_jets(variant, order, cells):
    model = line_model(variant, cells)
    iset = model.index_set(order)
    far = np.random.default_rng(cells).uniform(-5.5, 5.5, size=7)
    ys = np.concatenate([observations(variant, cells), far])
    for cache in (KernelCache(model, THETA, iset), KernelCache(model, point_stack(3, cells), iset)):
        per_y = np.concatenate([cache.observation_vectors(y) for y in ys], axis=-2)
        assert np.array_equal(cache.observation_vectors(ys), per_y)


def test_an_abort_in_a_stacked_pass_names_the_point():
    # y = 30 underflows the Gaussian observation density at every grid state.
    model = make_model(cells=32, order=2, variant="gaussian")
    start = embed(GridMeasure.uniform(model.grid), model.index_set())
    ys = [0.1, -0.3, 30.0, 0.2]
    thetas = np.array([THETA, [0.7, 1.0]])
    with pytest.raises(
        PredictiveMassError, match=r" at parameter point 0 \(theta \[0\.8, 0\.9\]\), observation index 3$"
    ) as stacked:
        filter_iterate(model, thetas, ys, start)
    index, theta = stacked.value.point
    assert (index, stacked.value.observation_index, stacked.value.replica) == (0, 3, None)
    assert np.array_equal(theta, THETA)
    with pytest.raises(PredictiveMassError, match=r"below 1e-300 at observation index 3$") as single:
        filter_iterate(model, THETA, ys, start)
    assert (single.value.point, single.value.observation_index) == (None, 3)


def test_a_rejected_observation_names_its_index():
    model = line_model("compact", 12)
    start = embed(GridMeasure.uniform(model.grid), model.index_set())
    # a stack evaluates a one-observation column, not a float, and still names its value
    with pytest.raises(ValueError, match=r"^observation 9\.0 is not finite or lies outside \[-6\.0, 6\.0\] at observation index 2$"):
        filter_iterate(model, point_stack(2, 0), [0.1, 9.0, 0.2], start)


def test_stack_edge_cases():
    model = line_model("compact", 12)
    start = embed(GridMeasure.uniform(model.grid), model.index_set())
    states = filter_iterate(model, point_stack(3, 0), [], start)
    assert len(states) == 3 and all(state is start for state in states)
    with pytest.raises(ValueError, match="at least one point"):
        filter_iterate(model, np.empty((0, 2)), [0.1], start)
    with pytest.raises(ValueError, match="outside the open box"):
        filter_iterate(model, [THETA, [0.1, 0.9]], [0.1], start)
    with pytest.raises(ValueError, match="one parameter point"):
        filter_step_with_scalars(KernelCache(model, point_stack(2, 0)), 0.1, start)


@pytest.mark.parametrize(
    "bad",
    [[0.2, 0.9], [0.8, 1.5], [0.1, 1.7], [0.8, np.nan], [np.inf, 0.9]],
    ids=["at-lo", "at-hi", "both", "nan", "inf"],
)
def test_a_bad_point_in_a_stack_gets_the_message_of_validate_theta(bad):
    # validate_theta checks the stack at once and names its first bad point and component as it names the point alone
    model = line_model("compact", 12)
    stack = np.array([THETA, [0.5, 1.2], bad, [0.3, 0.05]])
    with pytest.raises(ValueError) as alone:
        model.validate_theta(bad)
    with pytest.raises(ValueError) as stacked:
        KernelCache(model, stack)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError) as checked:
        model.validate_theta(stack, stack=True)
    assert str(checked.value) == str(alone.value)
    with pytest.raises(ValueError) as wide:
        KernelCache(model, np.hstack([stack, stack[:, :1]]))
    assert str(wide.value) == "theta must have shape (2,), got (3,)"


def test_a_stacked_cache_copies_its_points():
    stack = point_stack(3, 2)
    cache = KernelCache(line_model("compact", 12), stack)
    stack[1] = 0.5
    assert np.array_equal(cache.points, point_stack(3, 2))


def stencil_stack(model, order, theta=THETA):
    """The stencil points at theta up to order, theta left out."""
    alphas = [alpha for alpha in model.index_set(order).indices if alpha.degree > 0]
    return np.stack(stencil_points(alphas, theta, bounds=model.parameter_box)[1:])


STACKS = {
    "stencil-1": lambda model: stencil_stack(model, 1),
    "stencil-2": lambda model: stencil_stack(model, 2),
    "stencil-3": lambda model: stencil_stack(model, 3),
    "duplicates": lambda model: point_stack(3, 7)[[0, 1, 0, 2, 2, 1, 0]],
    "random": lambda model: point_stack(9, 8),
}


def assert_same_factors(cache, p, alone):
    """Point p of a stacked cache holds the transition factors of its one-point cache alone."""
    assert np.array_equal(cache.bases[p], alone.bases[0])
    assert np.array_equal(cache.base_of, alone.base_of)
    assert np.array_equal(cache.scales[p], alone.scales[0])


def count_builds(monkeypatch, cls):
    """{factor name: calls} of cls's two kernel-factor methods, counted from now on."""
    counts = {"transition_grid_factors": 0, "observation_grid_factory": 0}
    for name in counts:
        build = getattr(cls, name)

        def counted(self, theta, index_set, build=build, name=name):
            counts[name] += 1
            return build(self, theta, index_set)

        monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("stack", list(STACKS))
@pytest.mark.parametrize("order", [0, 3])
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_stacked_cache_factors_equal_one_point_caches(features, variant, order, stack):
    """Each point of a stack gets the factors of its one-point cache.

    The single observation ys[3] reaches every evaluator as a float, as it
    does a one-point cache's, and the block ys as one (R, 1) column.
    """
    model = line_model(variant, 33, features)
    iset = model.index_set(order)
    thetas = STACKS[stack](model)
    ys = np.concatenate([observations(variant, 33), [-2.5, 0.0, 4.0]])
    cache = KernelCache(model, thetas, iset)
    block, single = cache.observation_vectors(ys), cache.observation_vectors(ys[3])
    for p, theta in enumerate(thetas):
        alone = KernelCache(model, theta, iset)
        assert_same_factors(cache, p, alone)
        assert np.array_equal(block[p], alone.observation_vectors(ys))
        assert np.array_equal(single[p], alone.observation_vectors(ys[3]))


@pytest.mark.parametrize(
    "features, builds", [("shipped", (7, 7)), ("mixed", (28, 28))], ids=["shipped", "mixed"]
)
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_an_order3_stencil_builds_one_factor_per_distinct_location(monkeypatch, variant, features, builds):
    model = line_model(variant, 33, features)
    thetas = stencil_stack(model, 3)
    assert len(thetas) == 28
    counts = count_builds(monkeypatch, TruncatedNonlinearModel)
    KernelCache(model, thetas, model.index_set(0))
    assert (counts["transition_grid_factors"], counts["observation_grid_factory"]) == builds


@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_theta_adds_no_build_to_the_shipped_stencil(monkeypatch, variant):
    # The sweep's stacked pass puts theta first; the stencil already holds its keys.
    model = line_model(variant, 33, "shipped")
    thetas = np.vstack([THETA, stencil_stack(model, 3)])
    counts = count_builds(monkeypatch, TruncatedNonlinearModel)
    KernelCache(model, thetas, model.index_set(0))
    assert (counts["transition_grid_factors"], counts["observation_grid_factory"]) == (7, 7)


@pytest.mark.parametrize("stack", ["stencil-3", "duplicates"])
def test_the_default_keys_build_once_per_point(monkeypatch, stack):
    model = BrokenObservation(line_model("gaussian", 33))
    thetas = STACKS[stack](model)
    counts = count_builds(monkeypatch, BrokenObservation)
    cache = KernelCache(model, thetas, model.index_set(0))
    distinct = len(np.unique(thetas, axis=0))
    assert counts == {"transition_grid_factors": distinct, "observation_grid_factory": distinct}
    ys = np.array([0.3, 2e6, -1.0])
    block = cache.observation_vectors(ys)
    for p, theta in enumerate(thetas):
        alone = KernelCache(model, theta, model.index_set(0))
        assert_same_factors(cache, p, alone)
        assert np.array_equal(block[p], alone.observation_vectors(ys))


class RecordsTransition(BrokenObservation):
    """Delegating model that keeps the transition factors of every build."""

    def __init__(self, inner):
        super().__init__(inner)
        self.built = []

    def transition_grid_factors(self, theta, index_set):
        self.built.append(super().transition_grid_factors(theta, index_set))
        return self.built[-1]


@pytest.mark.parametrize("theta", [THETA, THETA[None]], ids=["point", "stack of one"])
def test_a_one_point_cache_computes_no_key(monkeypatch, theta):
    def no_keys(self, point):
        raise AssertionError("a one-point cache computes no kernel key")

    monkeypatch.setattr(TruncatedNonlinearModel, "kernel_keys", no_keys)
    model = line_model("gaussian", 33)
    KernelCache(model, theta, model.index_set())


@pytest.mark.parametrize("order", [0, 1, 3])
def test_a_one_point_cache_keeps_the_transition_bases_it_built(order):
    """No copy: the large-grid build stays free of page faults only if its buffer is the cache's."""
    model = RecordsTransition(line_model("gaussian", 33))
    iset = model.index_set(order)
    cache = KernelCache(model, THETA, iset)
    [(bases, _, _)] = model.built
    assert cache.bases.shape == (1, order + 1, 33, 33)
    assert np.shares_memory(cache.bases, bases)


class FailsAt(BrokenObservation):
    """Delegating model whose kernel factor `factor` raises at the parameter point `bad` only."""

    def __init__(self, inner, factor, bad):
        super().__init__(inner)
        self.factor, self.bad = factor, np.asarray(bad, dtype=float)

    def transition_grid_factors(self, theta, index_set):
        if self.factor == "transition" and np.array_equal(theta, self.bad):
            raise ValueError("transition normalizer vanished on the grid")
        return super().transition_grid_factors(theta, index_set)

    def observation_grid_factory(self, theta, index_set):
        if self.factor == "observation" and np.array_equal(theta, self.bad):
            raise ValueError("observation normalizer vanished on the quadrature")
        return super().observation_grid_factory(theta, index_set)


@pytest.mark.parametrize(
    "factor, message",
    [("transition", "transition normalizer vanished on the grid"),
     ("observation", "observation normalizer vanished on the quadrature")],
)
def test_a_failed_build_in_a_stack_names_its_point(factor, message):
    bad = [0.7, 1.1]
    model = FailsAt(line_model("compact", 12), factor, bad)
    thetas = np.array([THETA, [0.5, 0.6], bad, THETA, bad])
    named = rf"^{message} at parameter point 2 \(theta \[0\.7, 1\.1\]\)$"
    with pytest.raises(ValueError, match=named):
        KernelCache(model, thetas)
    start = embed(GridMeasure.uniform(model.grid), model.index_set())
    with pytest.raises(ValueError, match=named):
        filter_iterate(model, thetas, [0.1], start)
    with pytest.raises(ValueError, match=rf"^{message} at theta \[0\.7, 1\.1\]$"):
        KernelCache(model, bad)
    KernelCache(model, thetas[:2])
