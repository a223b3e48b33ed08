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

    A (P, dim) theta of P > 1 points has one row per point, and point is
    that row's (index, theta); otherwise the rows are the replicas of one
    point.  replica is None for one replica, and point for one point.
    """
    if theta is not None and theta.ndim == 2 and len(theta) > 1:
        return None, (int(row), theta[row])
    return (int(row) if rows > 1 else None), None


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
    then holds a (P, K, N, N) transition stack and a step moves one row
    per point through that point's kernels.  Points whose
    model.kernel_keys agree share a factor, so the cache builds one
    transition jet and one observation evaluator per distinct key, in
    first-use order: for the shipped model, whose drift reads only
    theta[0] and whose observation map only theta[1], the 28 order-3
    stencil points of a sweep take 7 + 7 builds.  A failed build names the first
    point with its key when there is more than one point.  The build records
    the transition slots nonzero anywhere (at any point of a stack): a step
    moves only those.
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
        if self.index_set.dimension != model.dim_theta:
            raise ValueError(
                f"index set dimension {self.index_set.dimension} differs from the model's "
                f"parameter dimension {model.dim_theta}"
            )
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
        # Slot 0 always counts as live, so an order-0 cache scans nothing.  The bare
        # ufunc reduce skips np.any's wrapper: 2 of 7 us at N = 32, order 1.
        jet = self.trans.reshape((-1,) + self.trans.shape[-3:])
        self._live = (True, *np.logical_or.reduce(jet[:, 1:], axis=(0, 2, 3)).tolist())

    def observation_vectors(self, ys) -> np.ndarray:
        """(K, R, N) observation-density jet on the grid at the (R,) observations ys.

        One observation goes to a one-point cache's evaluator as a float,
        whose domain check and grid broadcast skip NumPy's general path:
        2-12% of a filter_step_with_scalars step and 2-10% of an
        rml-online op (BENCH_24.json, `r1_branches`).  A cache of a
        (P, dim) stack returns (P, K, R, N), point by point: each distinct
        evaluator runs once, on the (R, 1) column, and its points share
        its jet.
        """
        ys = np.asarray(ys, dtype=float)
        if self.theta.ndim == 2:
            jets = [at(ys.reshape(-1, 1)) for at in self._obs_at]
            return np.stack([jets[i] for i in self._obs_index])
        return self._obs_at(ys.item())[:, None] if ys.size == 1 else self._obs_at(ys[:, None])


@lru_cache(maxsize=None)
def _update_plan(index_set: IndexSet):
    """Layout of the factored prediction-update: (blocks, obs_rows, moved_rows, coeff).

    For (start, count) = blocks[q], rows start .. start + count of the
    slot-major moved array hold trans[q] @ weighted[b] for the slots b
    with deg q + deg b <= order, a prefix in graded order.
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


def _prediction_update(cache: KernelCache, obs: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """(rows, K, N) unnormalized prediction-update of the rows' weighted slots.

    Row k sums, over beta + q + b = k, the multinomial weight times
    obs[beta] * (trans[q] @ weighted[b]); obs is the jet that
    cache.observation_vectors(ys) returns at the R observations.  The
    rows are R replicas of each of the cache's P points, laid out
    (P, K, R, N): one stacked GEMM per transition slot q moves every
    replica of every point through that point's kernel, and one stacked
    GEMM pairs the products.  A transition slot that is zero on the
    whole grid moves nothing: its moved rows keep the +0 its GEMM would
    write.  Slot 0 of R > 1 replicas is the factored obs[0] * moved[0];
    with one row per point it applies each point's assembled kernel
    (obs[0][:, None] * trans[0]) @ weighted[0], built in one reused
    (N, N) buffer, so every point keeps the bits of its pass alone.
    """
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    rows, slots, size = weighted.shape
    trans = cache.trans.reshape(-1, slots, size, size)
    points = len(trans)
    replicas = rows // points
    obs = obs.reshape(points, slots, replicas, size)
    batch = np.ascontiguousarray(weighted.reshape(points, replicas, slots, size).transpose(0, 2, 1, 3))
    moved = np.zeros((points, blocks[-1][0] + blocks[-1][1], replicas, size))
    for q, (start, count) in enumerate(blocks):
        if cache._live[q]:
            out = moved[:, start : start + count].reshape(points, -1, size)
            np.matmul(batch[:, :count].reshape(points, -1, size), trans[:, q].transpose(0, 2, 1), out=out)
    # take gathers on axis 1 in half the time of fancy indexing there: 3 against 6 us at N = 32, order 1.
    terms = obs.take(obs_rows, 1) * moved.take(moved_rows, 1)
    terms = terms.reshape(points, len(obs_rows), replicas * size)
    update = np.matmul(coeff, terms).reshape(points, slots, replicas, size)
    if replicas > 1:
        update[:, 0] = obs[:, 0] * moved[:, 0]
    else:
        kernel = np.empty((size, size))
        for p in range(points):
            np.multiply(obs[p, 0, 0, :, None], trans[p, 0], out=kernel)
            np.matmul(kernel, weighted[p, 0], out=update[p, 0, 0])
    return update.transpose(0, 2, 1, 3).reshape(rows, slots, size)


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


def _normalized_update(cache: KernelCache, obs, components, observation_index=None):
    """Prediction-update of every slot divided by the slot-0 predictive mass, per row.

    obs and components (rows, K, N) are as for _step; returns the
    (rows, K, N) update and the (rows,) predictive masses.  Raises
    ValueError unless every slot 0 is a probability, and
    PredictiveMassError when a predictive mass is not above
    PREDICTIVE_FLOOR; both name the first failing row's parameter point
    or replica, when there is more than one, and the observation index.
    """
    grid = cache.grid
    _check_l0(components, grid, observation_index, cache.theta)
    update = _prediction_update(cache, obs, components * grid.weights)
    predictive = np.matmul(update[:, None, 0], grid.weights)[:, 0]
    if not predictive.min() > PREDICTIVE_FLOOR:
        row = int(np.argmin(predictive > PREDICTIVE_FLOOR))
        replica, point = _locate(row, len(predictive), cache.theta)
        raise PredictiveMassError(float(predictive[row]), observation_index, replica, point)
    return update / predictive[:, None, None], predictive


def _step(cache: KernelCache, obs, components, observation_index=None):
    """One filter step of every row of a kernel cache; every filter pass runs it.

    The rows of components (rows, K, N) are the R replicas of each of
    the cache's P points, point-major; replica r updates with ys[r]: obs
    is cache.observation_vectors(ys), the observation jet at the (R,)
    ys.  Returns (components, s_masses (rows, K), predictive (rows,)):
    s_masses[i, k] is the total mass of the k-th normalized
    prediction-update of row i and predictive[i] the unnormalized slot-0
    mass that normalizes it.  Slot 0 becomes the Bayes-updated
    probability; each higher slot is its prediction-update minus the
    binomial-weighted recentering by lower slots, evaluated in
    increasing degree on slot-major views of every row at once.  Aborts
    name the parameter point (when P > 1), the replica (when R > 1) and
    observation_index.
    """
    f_dens, predictive = _normalized_update(cache, obs, components, observation_index)
    s_masses = f_dens @ cache.grid.weights
    # Recenter in place in increasing degree, so every slot b < k is final;
    # the last pair of each row is b == k itself.  Slot-major views let
    # each pair update every row at once.
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


def filter_step_with_scalars(cache: KernelCache, y, measure: VectorMeasure):
    """One step of the derivative filter: the batched step core at one replica.

    Returns (updated measure, s_masses, predictive_mass): s_masses[k] is
    the total mass of the k-th normalized prediction-update and
    predictive_mass the unnormalized slot-0 mass that normalizes
    everything.  The cache must hold one parameter point, the measure
    must use its index set and grid and have a probability in slot 0,
    and y must be a scalar (ValueError otherwise).
    """
    if cache.theta.ndim != 1:
        raise ValueError("a single step needs the kernel cache of one parameter point")
    _check_measure(measure, cache.index_set, cache.grid)
    ys = np.asarray(y, dtype=float)
    if ys.ndim != 0:
        raise ValueError(f"y must be a scalar observation, got shape {ys.shape}")
    components, s_masses, predictive = _step(cache, cache.observation_vectors(ys), measure.components[None])
    return VectorMeasure(components[0], measure.index_set, measure.grid), s_masses[0], float(predictive[0])


def _observation_block(observations) -> np.ndarray:
    """Observations as a 1-D float array; ValueError for any other shape."""
    block = np.atleast_1d(np.asarray(observations, dtype=float))
    if block.ndim != 1:
        raise ValueError(f"observations must be one-dimensional, got shape {block.shape}")
    return block


def filter_step(
    model: ModelSpec, theta, y, measure: VectorMeasure, cache: KernelCache | None = None
) -> VectorMeasure:
    """The updated measure of filter_step_with_scalars, from (model, theta).

    Builds the kernel cache for (model, theta) unless one built for
    theta is given.
    """
    if cache is None:
        cache = KernelCache(model, theta, measure.index_set)
    elif not np.array_equal(cache.theta, model.validate_theta(theta)):
        raise ValueError("cache was built for a different parameter")
    return filter_step_with_scalars(cache, y, measure)[0]


def _fold(cache: KernelCache, observations: np.ndarray, starts):
    """Fold the step core over a (T, R) observation block, yielding after each step.

    starts is one VectorMeasure for every row or a sequence of R, one per
    row, each checked once.  The rows are the R replicas of a one-point
    cache, or one per point of a stack, which takes R = 1 (ValueError
    otherwise); row r takes observations[j, r] at step j.  A call
    evaluates the jets of at most JET_BLOCK observations, that is
    max(1, JET_BLOCK // R) steps.  Yields _step's (components, s_masses,
    predictive).  Aborts name observation index j + 1 as _step's do; a
    rejected observation names its replica too when R > 1.
    """
    steps, replicas = observations.shape
    points = len(np.atleast_2d(cache.theta))
    if points > 1 and replicas > 1:
        raise ValueError(f"a stack of {points} parameter points steps one replica per point, got {replicas}")
    starts = [starts] if isinstance(starts, VectorMeasure) else starts
    for measure in dict.fromkeys(starts):
        _check_measure(measure, cache.index_set, cache.grid)
    rows = np.stack([measure.components for measure in starts])
    components = np.broadcast_to(rows, (points * replicas,) + rows.shape[1:])
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
        for j in range(len(ys)):
            step = _step(cache, jets[..., j * replicas : (j + 1) * replicas, :], components, first + j + 1)
            components = step[0]
            yield step


def filter_iterate(
    model: ModelSpec, theta, observations, measure: VectorMeasure
) -> VectorMeasure | tuple[VectorMeasure, ...]:
    """Fold the filter step over an observation block; returns the filtered measure.

    theta may be a (P, dim) stack of parameter points: one pass then
    steps every point from the same initial measure and returns a tuple
    of P measures, each bit for bit the measure of the pass at that point
    alone.  It runs _fold with one row per point, whose aborts name the
    observation index and, for P > 1, the parameter point.  An empty
    block runs no step: it returns the initial measure itself, unchecked.
    """
    cache = KernelCache(model, theta, measure.index_set)
    block = _observation_block(observations)
    if len(block):
        for components, _, _ in _fold(cache, block[:, None], measure):
            pass
        measures = tuple(VectorMeasure(c, measure.index_set, measure.grid) for c in components)
    else:
        measures = (measure,) * len(np.atleast_2d(cache.theta))
    return measures if cache.theta.ndim == 2 else measures[0]
