"""The derivative-filter recursion on a grid.

One filter step maps a vector measure whose slot 0 is a probability
measure to another such vector measure.  Slot 0 receives the plain
Bayes prediction-update; higher slots receive the mixed parameter
derivatives of the updated filter, computed by a single forward pass in
index degree.  After every step, slot 0 has mass one and each higher
slot has signed mass zero; those invariants are asserted, not enforced,
so drift is a regression signal rather than silently hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import StateGrid, VectorMeasure
from .models import ModelSpec
from .multiindex import IndexSet, count_upto, pair_table

MASS_TOL = 1e-10
PREDICTIVE_FLOOR = 1e-300
# Observations whose jets _fold evaluates in one call, steps times rows
# (one step at least), bounding the (P, K, JET_BLOCK, N) block it holds.
JET_BLOCK = 256


class PredictiveMassError(ArithmeticError):
    """Predictive mass vanished numerically; usually a mis-specified setup.

    replica is the row of a batched step that aborted, None for a step of
    one replica; point is (index, theta) of the parameter point that
    aborted in a pass over several points, None for a pass over one.
    """

    def __init__(
        self, mass: float, observation_index: int | None = None, replica: int | None = None, point=None
    ):
        self.mass = mass
        self.observation_index = observation_index
        self.replica = replica
        self.point = point
        super().__init__(
            f"predictive mass {mass!r} below {PREDICTIVE_FLOOR}{_where(replica, observation_index, point)}"
        )


def _locate(row, rows: int, theta=None):
    """(replica, point) of the failing row of a step over `rows` rows.

    The rows stack the replicas of each point of a (P, dim) theta in
    turn; any other theta is one point.  replica is None when each point
    has one replica, and point, (index, theta), when there is one point.
    """
    points = theta if theta is not None and theta.ndim == 2 else None
    count = 1 if points is None else len(points)
    replicas = rows // count
    index, replica = divmod(int(row), replicas)
    return (replica if replicas > 1 else None), ((index, points[index]) if count > 1 else None)


def _where(replica: int | None, observation_index: int | None, point=None) -> str:
    """' at parameter point p (theta t), replica r, observation index j', naming only the known parts."""
    parts = []
    if point is not None:
        parts.append(f"parameter point {point[0]} (theta {point[1].tolist()})")
    if replica is not None:
        parts.append(f"replica {replica}")
    if observation_index is not None:
        parts.append(f"observation index {observation_index}")
    return " at " + ", ".join(parts) if parts else ""


class MassInvariantError(ArithmeticError):
    """A filter-step output violated the slot-mass invariants."""


class KernelCache:
    """Per-(model, theta) kernel jets reused across filter steps.

    The joint kernel factors as obs(y|x) trans(x|x'), and the transition
    jet does not depend on the observation.  So the cache builds, once
    per theta, the transition jet and the model's observation evaluator,
    which holds the observation jet's per-theta parts; the model itself
    holds what depends on neither theta nor y.  Each step only evaluates
    the observation jet at its y and pairs it with the transition-moved
    slots by the Leibniz rule.

    theta may also be a (P, dim) stack of parameter points.  The cache
    then holds a (P, K, N, N) transition stack and a step moves each
    point's replicas through that point's kernels.  Points whose
    model.kernel_keys agree share a factor, so the cache builds one
    transition jet and one observation evaluator per distinct key, in
    first-use order: for the shipped model, whose drift reads only
    theta[0] and whose observation map only theta[1], the 28 order-3
    stencil points of a sweep take 7 + 7 builds.  A failed build names the first
    point with its key when there is more than one point.
    """

    def __init__(self, model: ModelSpec, theta, index_set: IndexSet | None = None):
        self.model = model
        stacked = np.ndim(theta) == 2
        if stacked:
            if not len(theta):
                raise ValueError("a stack of parameter points needs at least one point")
            self.theta = np.stack([model.validate_theta(t) for t in theta])
        else:
            self.theta = model.validate_theta(theta)
        self.index_set = model.index_set() if index_set is None else index_set
        model.validate_order(self.index_set.order)
        self.grid = model.grid
        # (K, N, N), or (P, K, N, N) for a stack: slot k holds the transition jet row on the grid.
        if stacked:
            size = self.grid.size
            self.trans = np.empty((len(self.theta), len(self.index_set), size, size))
            # Per key, the first point that has it; per point, its evaluator's index in _obs_at.
            firsts, evaluators, self._obs_at, self._obs_index = {}, {}, [], []
            for p, point in enumerate(self.theta):
                trans_key, obs_key = model.kernel_keys(point)
                try:
                    if trans_key in firsts:
                        self.trans[p] = self.trans[firsts[trans_key]]
                    else:
                        firsts[trans_key] = p
                        self.trans[p] = model.transition_grid_jet(point, self.index_set)
                    if obs_key not in evaluators:
                        evaluators[obs_key] = len(self._obs_at)
                        self._obs_at.append(model.observation_grid_factory(point, self.index_set))
                except ValueError as err:
                    failing = _locate(p, len(self.theta), self.theta)[1]
                    raise ValueError(f"{err}{_where(None, None, failing)}") from err
                self._obs_index.append(evaluators[obs_key])
        else:
            self.trans = model.transition_grid_jet(self.theta, self.index_set)
            self._obs_at = model.observation_grid_factory(self.theta, self.index_set)

    def observation_vectors(self, ys) -> np.ndarray:
        """(K, R, N) observation-density jet on the grid at the (R,) observations ys.

        A cache of a (P, dim) stack returns (P, K, R, N), point by point:
        each distinct evaluator runs once and its points share its jet.
        """
        ys = np.asarray(ys, dtype=float)
        if self.theta.ndim == 2:
            jets = [_jet_at(at, ys) for at in self._obs_at]
            return np.stack([jets[i] for i in self._obs_index])
        return _jet_at(self._obs_at, ys)


def _jet_at(at, ys: np.ndarray) -> np.ndarray:
    """(K, R, N) jet of the observation evaluator `at` at the (R,) observations ys.

    One observation goes to the model as a float, whose domain check and
    grid broadcast skip NumPy's general path: 12% of an R = 1 step at
    N = 32, order 1 (BENCH_6.json, `r1_branches`).
    """
    return at(ys.item())[:, None] if ys.size == 1 else at(ys[:, None])


@dataclass(frozen=True, eq=False)
class FilterState:
    """Result of folding filter steps over an observation block."""

    measure: VectorMeasure


@lru_cache(maxsize=None)
def _update_plan(index_set: IndexSet):
    """Layout of the factored prediction-update: (blocks, obs_rows, moved_rows, coeff).

    For (start, count) = blocks[q], rows start .. start + count of a
    point's slot-major (M, R, N) moved array hold trans[q] @ weighted[b] for
    the slots b with deg q + deg b <= order, a prefix in graded order.
    Row k of the update is coeff[k] @ (obs[obs_rows] * moved[moved_rows])
    over the flattened replica and grid axes: the Leibniz pairing nested
    twice, slot k pairing measure slot b with kernel slot g = k - b, and
    g pairing observation slot beta with transition slot q = g - beta.
    """
    pairs = pair_table(index_set)
    counts = [count_upto(index_set.dimension, index_set.order - d) for d in index_set.degrees]
    starts = [sum(counts[:q]) for q in range(len(counts))]
    terms = np.array(
        [
            (k, c_outer * c_inner, beta, starts[q] + b)
            for k in range(1, len(index_set))
            for c_outer, b, g in pairs[k]
            for c_inner, beta, q in pairs[g]
        ],
        dtype=np.intp,
    ).reshape(-1, 4)
    coeff = np.zeros((len(index_set), len(terms)))
    coeff[terms[:, 0], np.arange(len(terms))] = terms[:, 1]
    plan = (tuple(zip(starts, counts)), terms[:, 2], terms[:, 3], coeff)
    for arr in plan[1:]:
        arr.flags.writeable = False
    return plan


def _prediction_update(cache: KernelCache, ys: np.ndarray, weighted: np.ndarray, obs=None) -> np.ndarray:
    """(R, K, N) unnormalized prediction-update of R replicas' weighted slots at ys.

    Row k sums, over beta + q + b = k, the multinomial weight times
    obs[beta] * (trans[q] @ weighted[b]), slot-major: one GEMM per
    transition slot q moves every replica, one GEMM pairs the products,
    and slot 0 of a batch is the factored obs[0] * moved[0].  Only one
    replica assembles a kernel, for slot 0.  obs is the jet that
    cache.observation_vectors(ys) returns, evaluated here unless given.
    A cache of P points takes (P·R, K, N) rows and runs _stacked_update;
    one point keeps this 2-D path, because the stack's 4-D bookkeeping
    cost rml-online 6-9% of its steps/s (BENCH_15.json).  Returns a
    transposed view of (K, R, N) memory.
    """
    plan = _update_plan(cache.index_set)
    obs = cache.observation_vectors(ys) if obs is None else obs
    if cache.theta.ndim == 2:
        return _stacked_update(plan, cache.trans, obs, weighted)
    blocks, obs_rows, moved_rows, coeff = plan
    replicas, _, size = weighted.shape
    slots = np.ascontiguousarray(weighted.transpose(1, 0, 2))
    moved = np.empty((sum(count for _, count in blocks), replicas, size))
    for q, (start, count) in enumerate(blocks):
        out = moved[start : start + count].reshape(-1, size)
        np.matmul(slots[:count].reshape(-1, size), cache.trans[q].T, out=out)
    terms = obs[obs_rows] * moved[moved_rows]
    update = (coeff @ terms.reshape(len(terms), replicas * size)).reshape(-1, replicas, size)
    if replicas == 1:
        # One replica keeps the assembled slot-0 kernel: the perfbench references and
        # test_factored_step_matches_assembled_kernels pin its bits until ROADMAP item 2's re-record.
        update[0, 0] = (obs[0, 0][:, None] * cache.trans[0]) @ weighted[0, 0]
    else:
        update[0] = obs[0] * moved[0]
    return update.transpose(1, 0, 2)


def _stacked_update(plan, trans: np.ndarray, obs: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """_prediction_update over the (P, K, N, N) transition stack of P parameter points.

    The (P·R, K, N) rows of weighted stack the R replicas of each point
    in turn, and obs is (P, K, R, N).  Slot-major per point: one stacked
    np.matmul per transition slot q moves every point's replicas through
    that point's kernel, and one stacked GEMM pairs the products.  When
    each point has one replica, each assembles its slot-0 kernel, in one
    reused (N, N) buffer.  A stacked np.matmul runs each point's slice
    through the GEMM of the one-point step, so every point keeps the bits
    of its pass alone; a batch factors slot 0, as one point does.
    """
    blocks, obs_rows, moved_rows, coeff = plan
    rows, _, size = weighted.shape
    points = len(trans)
    replicas = rows // points
    slots = np.ascontiguousarray(weighted.reshape(points, replicas, -1, size).transpose(0, 2, 1, 3))
    slots = slots.reshape(points, -1, size)
    total = blocks[-1][0] + blocks[-1][1]
    moved = np.empty((points, total * replicas, size))
    for q, (start, count) in enumerate(blocks):
        out = moved[:, start * replicas : (start + count) * replicas]
        np.matmul(slots[:, : count * replicas], trans[:, q].transpose(0, 2, 1), out=out)
    moved = moved.reshape(points, total, replicas, size)
    terms = obs[:, obs_rows] * moved[:, moved_rows]
    update = np.matmul(coeff, terms.reshape(points, len(obs_rows), replicas * size))
    update = update.reshape(points, -1, replicas, size)
    if replicas == 1:
        kernel = np.empty((size, size))
        for p in range(points):
            np.multiply(obs[p, 0, 0, :, None], trans[p, 0], out=kernel)
            np.matmul(kernel, weighted[p, 0], out=update[p, 0, 0])
    else:
        update[:, 0] = obs[:, 0] * moved[:, 0]
    return update.transpose(0, 2, 1, 3).reshape(rows, -1, size)


def _check_l0(components: np.ndarray, grid: StateGrid, observation_index, theta=None) -> None:
    """Slot 0 of every row must be a probability (tolerance 1e-8)."""
    slot0 = components[:, 0]
    drift = np.abs(np.matmul(slot0[:, None], grid.weights)[:, 0] - 1.0)
    # NaN fails both comparisons, as it propagates through min and max.
    if not (slot0.min() >= -1e-8 and drift.max() <= 1e-8):
        ok = np.all(slot0 >= -1e-8, axis=1) & (drift <= 1e-8)
        replica, point = _locate(np.argmin(ok), len(ok), theta)
        raise ValueError(
            "vector measure is not in the recursion state space (slot 0 must be a probability)"
            + _where(replica, observation_index, point)
        )


def _normalized_update(cache: KernelCache, ys, components, observation_index=None, obs=None):
    """Prediction-update of every slot divided by the slot-0 predictive mass, per row.

    ys is (R,) and components (P·R, K, N), as for _prediction_update,
    which also takes obs; returns the (P·R, K, N) update and the (P·R,)
    predictive masses.  Raises ValueError unless every slot 0 is a
    probability, and PredictiveMassError when a predictive mass is not
    above PREDICTIVE_FLOOR; both name the first failing row's parameter
    point (when there is more than one), its replica (when its point has
    more than one) and the observation index.
    """
    grid = cache.grid
    _check_l0(components, grid, observation_index, cache.theta)
    update = _prediction_update(cache, ys, components * grid.weights, obs)
    predictive = np.matmul(update[:, None, 0], grid.weights)[:, 0]
    if not predictive.min() > PREDICTIVE_FLOOR:
        row = int(np.argmin(predictive > PREDICTIVE_FLOOR))
        replica, point = _locate(row, len(predictive), cache.theta)
        raise PredictiveMassError(float(predictive[row]), observation_index, replica, point)
    return update / predictive[:, None, None], predictive


def _step(cache: KernelCache, ys, components, observation_index=None, obs=None):
    """One filter step of every row of a kernel cache; every filter pass runs it.

    The rows of components (P·R, K, N) are R replicas for each of the
    cache's P parameter points, point by point, and replica r updates
    with the observation ys[r]; obs, the observation jet at ys, may be
    given precomputed.  Returns (components, s_masses (P·R, K),
    predictive (P·R,)): s_masses[i, k] is the total mass of the k-th
    normalized prediction-update of row i and predictive[i] the
    unnormalized slot-0 mass that normalizes it.  Slot 0 becomes the
    Bayes-updated probability; each higher slot is its prediction-update
    minus the binomial-weighted recentering by lower slots, evaluated in
    increasing degree.  Aborts name the parameter point (when P > 1),
    the replica (when R > 1) and observation_index.
    """
    f_dens, predictive = _normalized_update(cache, ys, components, observation_index, obs)
    s_masses = f_dens @ cache.grid.weights
    # Recenter in place in increasing degree, so every slot b < k is final;
    # the last pair of each row is b == k itself.  Slot-major views let
    # each pair update every row at once; one row uses 1-D slots and
    # scalar masses, the same products in the same order, which saves
    # 5% of an R = 1 step at N = 64, order 3 (BENCH_6.json, `r1_branches`).
    if len(f_dens) == 1:
        slots, masses = f_dens[0], s_masses[0]
    else:
        slots, masses = f_dens.transpose(1, 0, 2), s_masses.T[:, :, None]
    for k, pairs in enumerate(pair_table(cache.index_set)):
        for coeff, b_slot, g_slot in pairs[:-1]:
            slots[k] -= coeff * slots[b_slot] * masses[g_slot]
    _check_masses(f_dens, cache.grid, observation_index, cache.theta)
    return f_dens, s_masses, predictive


def _check_masses(components: np.ndarray, grid: StateGrid, observation_index=None, theta=None) -> None:
    """Slot 0 of every row must have mass one and every other slot mass zero.

    Raises MassInvariantError naming the first failing row, located by
    _locate among the points of theta, and slot.
    The tolerance is MASS_TOL times the slot's TV norm where that exceeds
    one: rounding in a slot's mass grows with the slot's size, so an
    absolute bound would abort on valid inputs whose derivative slots are
    large, while unit-scale slots keep the absolute MASS_TOL.  A slot
    that is not finite fails too: its drift is NaN or infinite.
    """
    drift = components @ grid.weights
    drift[:, 0] -= 1.0
    tols = MASS_TOL * np.maximum(1.0, np.abs(components) @ grid.weights)
    ok = np.abs(drift) < tols
    if not ok.all():
        row, k = np.unravel_index(np.argmin(ok), ok.shape)
        replica, point = _locate(row, len(ok), theta)
        raise MassInvariantError(
            f"slot {k} mass drifts by {float(drift[row, k])!r}, beyond {float(tols[row, k])!r}"
            + _where(replica, observation_index, point)
        )


def _check_measure(measure: VectorMeasure, index_set: IndexSet, grid: StateGrid) -> None:
    """The measure must use the index set and grid a kernel cache was built for."""
    if measure.index_set != index_set:
        raise ValueError("measure index set differs from the kernel cache's")
    if not measure.grid.compatible(grid):
        raise ValueError("measure grid differs from the model grid")


def _serial_input(cache: KernelCache, y, measure: VectorMeasure):
    """The checked (1,) observation and (1, K, N) components of a single step.

    ValueError unless the cache holds one parameter point, the measure
    suits it and y is a scalar.
    """
    if cache.theta.ndim != 1:
        raise ValueError("a single step needs the kernel cache of one parameter point")
    _check_measure(measure, cache.index_set, cache.grid)
    ys = np.asarray(y, dtype=float)
    if ys.ndim != 0:
        raise ValueError(f"y must be a scalar observation, got shape {ys.shape}")
    return ys.reshape(1), measure.components[None]


def filter_step_with_scalars(cache: KernelCache, y, measure: VectorMeasure):
    """One step of the derivative filter: the batched step core at one replica.

    Returns (updated measure, s_masses, predictive_mass): s_masses[k] is
    the total mass of the k-th normalized prediction-update and
    predictive_mass the unnormalized slot-0 mass that normalizes
    everything.  The measure must use the cache's index set and grid
    and have a probability in slot 0, and y must be a scalar
    (ValueError otherwise).
    """
    components, s_masses, predictive = _step(cache, *_serial_input(cache, y, measure))
    return VectorMeasure(components[0], measure.index_set, measure.grid), s_masses[0], float(predictive[0])


def _indexed_step(cache: KernelCache, y, measure: VectorMeasure, observation_index: int):
    """filter_step_with_scalars, with every abort naming its observation.

    Only rml_demo steps through it: its parameter moves, so it builds a
    cache per step.  It keeps the public wrapper because the benchmark
    traces only the public step functions, and CI's traced rml-online run
    needs that step layer to count.  Re-raises the predictive-mass, input
    (ValueError) and slot-mass aborts with the observation index.
    """
    try:
        return filter_step_with_scalars(cache, y, measure)
    except PredictiveMassError as err:
        raise PredictiveMassError(err.mass, observation_index=observation_index) from err
    except (ValueError, MassInvariantError) as err:
        raise type(err)(f"{err}{_where(None, observation_index)}") from err


def _observation_block(observations) -> np.ndarray:
    """Observations as a 1-D float array; ValueError for any other shape."""
    block = np.atleast_1d(np.asarray(observations, dtype=float))
    if block.ndim != 1:
        raise ValueError(f"observations must be one-dimensional, got shape {block.shape}")
    return block


def filter_step(
    model: ModelSpec, theta, y, measure: VectorMeasure, cache: KernelCache | None = None
) -> VectorMeasure:
    """One full step of the derivative filter (see filter_step_with_scalars).

    Builds the kernel cache for (model, theta) unless one built for
    theta is given.
    """
    if cache is None:
        cache = KernelCache(model, theta, measure.index_set)
    elif not np.array_equal(cache.theta, model.validate_theta(theta)):
        raise ValueError("cache was built for a different parameter")
    components = _step(cache, *_serial_input(cache, y, measure))[0]
    return VectorMeasure(components[0], measure.index_set, measure.grid)


def _fold(cache: KernelCache, observations: np.ndarray, starts):
    """Fold the step core over a (T, R) observation block, yielding after each step.

    starts is one VectorMeasure for every row or a sequence of R, one per
    row, each checked once.  The (P·R, K, N) rows are R rows per point of
    the cache, point by point; row r takes observations[j, r] at step j.
    A call evaluates the jets of at most JET_BLOCK observations, that is
    max(1, JET_BLOCK // R) steps.  Yields _step's (components, s_masses,
    predictive).  Aborts name observation index j + 1 as _step's do; a
    rejected observation names its replica too when R > 1.
    """
    steps, replicas = observations.shape
    starts = [starts] if isinstance(starts, VectorMeasure) else starts
    for measure in dict.fromkeys(starts):
        _check_measure(measure, cache.index_set, cache.grid)
    rows = np.stack([measure.components for measure in starts])
    points = len(np.atleast_2d(cache.theta))
    components = np.broadcast_to(rows, (points, replicas) + rows.shape[1:]).reshape((-1,) + rows.shape[1:])
    span = max(1, JET_BLOCK // replicas)
    for first in range(0, steps, span):
        ys = observations[first : first + span]
        try:
            jets = cache.observation_vectors(ys.reshape(-1))
        except ValueError:
            for (j, r), y in np.ndenumerate(ys):
                try:
                    cache.observation_vectors(y)
                except ValueError as err:
                    raise ValueError(f"{err}{_where(r if replicas > 1 else None, first + j + 1)}") from err
            raise
        for j, row in enumerate(ys):
            step = _step(cache, row, components, first + j + 1, jets[..., j * replicas : (j + 1) * replicas, :])
            components = step[0]
            yield step


def filter_iterate(
    model: ModelSpec, theta, observations, measure: VectorMeasure
) -> FilterState | tuple[FilterState, ...]:
    """Fold the filter step over an observation block; returns a FilterState.

    theta may be a (P, dim) stack of parameter points: one pass then
    steps every point from the same initial measure and returns a tuple
    of P states, each bit for bit the state of the pass at that point
    alone.  It runs _fold with one row per point, whose aborts name the
    observation index and, for P > 1, the parameter point.  An empty
    block runs no step: it returns the initial condition unchecked.
    """
    cache = KernelCache(model, theta, measure.index_set)
    block = _observation_block(observations)
    if len(block):
        for components, _, _ in _fold(cache, block[:, None], measure):
            pass
        states = tuple(FilterState(VectorMeasure(c, measure.index_set, measure.grid)) for c in components)
    else:
        states = (FilterState(measure=measure),) * len(np.atleast_2d(cache.theta))
    return states if cache.theta.ndim == 2 else states[0]
