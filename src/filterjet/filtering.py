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


class PredictiveMassError(ArithmeticError):
    """Predictive mass vanished numerically; usually a mis-specified setup.

    replica is the row of a batched step that aborted, None for a step of
    one replica.
    """

    def __init__(self, mass: float, observation_index: int | None = None, replica: int | None = None):
        self.mass = mass
        self.observation_index = observation_index
        self.replica = replica
        super().__init__(
            f"predictive mass {mass!r} below {PREDICTIVE_FLOOR}{_where(replica, observation_index)}"
        )


def _replica(row, rows: int) -> int | None:
    """The failing row of a step over `rows` replicas; None when there is one replica."""
    return int(row) if rows > 1 else None


def _where(replica: int | None, observation_index: int | None) -> str:
    """' at replica r, observation index j', naming only the parts that are known."""
    parts = []
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
    """

    def __init__(self, model: ModelSpec, theta, index_set: IndexSet | None = None):
        self.model = model
        self.theta = model.validate_theta(theta)
        self.index_set = model.index_set() if index_set is None else index_set
        model.validate_order(self.index_set.order)
        self.grid = model.grid
        # (K, N, N): slot k holds the transition jet row on the grid.
        self.trans = model.transition_grid_jet(self.theta, self.index_set)
        self._obs_at = model.observation_grid_factory(self.theta, self.index_set)

    def observation_vectors(self, ys) -> np.ndarray:
        """(K, R, N) observation-density jet on the grid at the (R,) observations ys.

        One observation goes to the model as a float, whose domain check
        and grid broadcast skip NumPy's general path: 12% of an R = 1
        step at N = 32, order 1 (BENCH_6.json, `r1_branches`).
        """
        ys = np.asarray(ys, dtype=float)
        if ys.size == 1:
            return self._obs_at(ys.item())[:, None]
        return self._obs_at(ys[:, None])


@dataclass(frozen=True, eq=False)
class FilterState:
    """Result of folding filter steps over an observation block."""

    measure: VectorMeasure


@lru_cache(maxsize=None)
def _update_plan(index_set: IndexSet):
    """Layout of the factored prediction-update: (blocks, obs_rows, moved_rows, coeff).

    For (start, count) = blocks[q], rows start .. start + count of the
    slot-major (M, R, N) moved array hold trans[q] @ weighted[b] for
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


def _prediction_update(cache: KernelCache, ys: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """(R, K, N) unnormalized prediction-update of R replicas' weighted slots at ys.

    Row k sums, over beta + q + b = k, the multinomial weight times
    obs[beta] * (trans[q] @ weighted[b]), slot-major: one GEMM per
    transition slot q moves every replica, one GEMM pairs the products,
    and slot 0 of a batch is the factored obs[0] * moved[0].  Only one
    replica assembles a kernel, for slot 0.  Returns a transposed view
    of (K, R, N) memory.
    """
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    obs = cache.observation_vectors(ys)
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


def _check_l0(components: np.ndarray, grid: StateGrid, observation_index) -> None:
    """Slot 0 of every replica must be a probability (tolerance 1e-8)."""
    slot0 = components[:, 0]
    drift = np.abs(np.matmul(slot0[:, None], grid.weights)[:, 0] - 1.0)
    # NaN fails both comparisons, as it propagates through min and max.
    if not (slot0.min() >= -1e-8 and drift.max() <= 1e-8):
        ok = np.all(slot0 >= -1e-8, axis=1) & (drift <= 1e-8)
        raise ValueError(
            "vector measure is not in the recursion state space (slot 0 must be a probability)"
            + _where(_replica(np.argmin(ok), len(ok)), observation_index)
        )


def _normalized_update(cache: KernelCache, ys, components, observation_index=None):
    """Prediction-update of every slot divided by the slot-0 predictive mass, per replica.

    ys is (R,) and components (R, K, N); returns the (R, K, N) update and
    the (R,) predictive masses.  Raises ValueError unless every slot 0 is
    a probability, and PredictiveMassError when a predictive mass is not
    above PREDICTIVE_FLOOR; both name the first failing replica (when
    there is more than one) and the observation index.
    """
    grid = cache.grid
    _check_l0(components, grid, observation_index)
    update = _prediction_update(cache, ys, components * grid.weights)
    predictive = np.matmul(update[:, None, 0], grid.weights)[:, 0]
    if not predictive.min() > PREDICTIVE_FLOOR:
        row = int(np.argmin(predictive > PREDICTIVE_FLOOR))
        raise PredictiveMassError(float(predictive[row]), observation_index, _replica(row, len(predictive)))
    return update / predictive[:, None, None], predictive


def _step(cache: KernelCache, ys, components, observation_index=None):
    """One filter step of R replicas sharing one kernel cache; every filter pass runs it.

    Replica r updates components[r] (R, K, N) with the observation ys[r].
    Returns (components, s_masses (R, K), predictive (R,)): s_masses[r, k]
    is the total mass of the k-th normalized prediction-update and
    predictive[r] the unnormalized slot-0 mass that normalizes it.  Slot
    0 becomes the Bayes-updated probability; each higher slot is its
    prediction-update minus the binomial-weighted recentering by lower
    slots, evaluated in increasing degree.  Aborts name the replica
    (when R > 1) and observation_index.
    """
    f_dens, predictive = _normalized_update(cache, ys, components, observation_index)
    s_masses = f_dens @ cache.grid.weights
    # Recenter in place in increasing degree, so every slot b < k is final;
    # the last pair of each row is b == k itself.  Slot-major views let
    # each pair update every replica at once; one replica uses 1-D slots
    # and scalar masses, the same products in the same order, which saves
    # 5% of an R = 1 step at N = 64, order 3 (BENCH_6.json, `r1_branches`).
    if len(f_dens) == 1:
        slots, masses = f_dens[0], s_masses[0]
    else:
        slots, masses = f_dens.transpose(1, 0, 2), s_masses.T[:, :, None]
    for k, pairs in enumerate(pair_table(cache.index_set)):
        for coeff, b_slot, g_slot in pairs[:-1]:
            slots[k] -= coeff * slots[b_slot] * masses[g_slot]
    _check_masses(f_dens, cache.grid, observation_index)
    return f_dens, s_masses, predictive


def _check_masses(components: np.ndarray, grid: StateGrid, observation_index=None) -> None:
    """Slot 0 of every replica must have mass one and every other slot mass zero.

    Raises MassInvariantError naming the first failing replica and slot.
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
        raise MassInvariantError(
            f"slot {k} mass drifts by {float(drift[row, k])!r}, beyond {float(tols[row, k])!r}"
            + _where(_replica(row, len(ok)), observation_index)
        )


def _check_measure(measure: VectorMeasure, index_set: IndexSet, grid: StateGrid) -> None:
    """The measure must use the index set and grid a kernel cache was built for."""
    if measure.index_set != index_set:
        raise ValueError("measure index set differs from the kernel cache's")
    if not measure.grid.compatible(grid):
        raise ValueError("measure grid differs from the model grid")


def _serial_input(cache: KernelCache, y, measure: VectorMeasure):
    """The checked (1,) observation and (1, K, N) components of a single step.

    ValueError unless the measure suits the cache and y is a scalar.
    """
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

    The serial folds step through the public wrapper, so that a traced
    run counts their steps in the benchmark's step layer; this re-raises
    its predictive-mass, input (ValueError) and slot-mass aborts with
    the observation index, as the batched consumers' aborts carry it.
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


def filter_iterate(model: ModelSpec, theta, observations, measure: VectorMeasure) -> FilterState:
    """Fold the filter step over an observation block.

    An empty block runs no step, so it returns the initial condition
    unchanged and unchecked.
    """
    cache = KernelCache(model, theta, measure.index_set)
    for j, y in enumerate(_observation_block(observations)):
        measure = _indexed_step(cache, y, measure, j + 1)[0]
    return FilterState(measure=measure)
