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

from .grid import GridMeasure, StateGrid, VectorMeasure
from .models import ModelSpec
from .multiindex import IndexSet, MultiIndex, count_upto, enumerate_indices, pair_table

MASS_TOL = 1e-10
PREDICTIVE_FLOOR = 1e-300


class PredictiveMassError(ArithmeticError):
    """Predictive mass vanished numerically; usually a mis-specified setup."""

    def __init__(self, mass: float, observation_index: int | None = None):
        self.mass = mass
        self.observation_index = observation_index
        where = "" if observation_index is None else f" at observation index {observation_index}"
        super().__init__(f"predictive mass {mass!r} below {PREDICTIVE_FLOOR}{where}")


class MassInvariantError(ArithmeticError):
    """A filter-step output violated the slot-mass invariants."""


class KernelCache:
    """Per-(model, theta) kernel jets reused across filter steps.

    The joint kernel factors as obs(y|x) trans(x|x'), and the transition
    jet does not depend on the observation, so it is built once; each
    step only evaluates the observation jet on the grid and pairs it
    with the transition-moved slots by the Leibniz rule.
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

    def observation_vectors(self, y) -> np.ndarray:
        """(K, N) observation-density jet at a single observation."""
        return self._obs_at(float(y))


@dataclass(frozen=True, eq=False)
class FilterState:
    """Result of folding filter steps over an observation block."""

    measure: VectorMeasure
    step: int
    origin: int
    theta: np.ndarray
    history: tuple[VectorMeasure, ...] | None = None


@lru_cache(maxsize=None)
def _update_plan(index_set: IndexSet):
    """Layout of the factored prediction-update: (blocks, obs_rows, moved_rows, coeff).

    For (start, count) = blocks[q], rows start .. start + count of the
    moved array hold trans[q] @ weighted[b] for the slots b with
    deg q + deg b <= order, which in graded order are a prefix.  Row k
    of the update is coeff[k] @ (obs[obs_rows] * moved[moved_rows]):
    the Leibniz pairing nested twice, slot k pairing measure slot b with
    kernel slot g = k - b, and g pairing observation slot beta with
    transition slot q = g - beta.
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


def _prediction_update(cache: KernelCache, y, weighted: np.ndarray) -> np.ndarray:
    """(K, N) unnormalized prediction-update of the weighted slots at y.

    Row k sums, over beta + q + b = k, the multinomial weight times
    obs[beta] * (trans[q] @ weighted[b]); the transition jet moves the
    slots with one product per q, and no per-observation N x N kernel
    is assembled.  Row 0 applies the assembled slot-0 kernel instead,
    so the Bayes filter and its predictive mass keep their rounding.
    """
    blocks, obs_rows, moved_rows, coeff = _update_plan(cache.index_set)
    obs = cache.observation_vectors(y)
    moved = np.empty((sum(count for _, count in blocks), weighted.shape[1]))
    for q, (start, count) in enumerate(blocks):
        np.matmul(weighted[:count], cache.trans[q].T, out=moved[start : start + count])
    update = coeff @ (obs[obs_rows] * moved[moved_rows])
    update[0] = (obs[0][:, None] * cache.trans[0]) @ weighted[0]
    return update


def _normalized_update(cache: KernelCache, y, measure: VectorMeasure) -> tuple[np.ndarray, float]:
    """Prediction-update of every slot divided by the slot-0 predictive mass.

    The one input check of a step: the measure must use the cache's
    index set and grid, and its slot 0 must be a probability.  Raises
    ValueError otherwise, and PredictiveMassError when the predictive
    mass is not above PREDICTIVE_FLOOR.
    """
    grid = measure.grid
    if measure.index_set != cache.index_set:
        raise ValueError("measure index set differs from the kernel cache's")
    if not grid.compatible(cache.grid):
        raise ValueError("measure grid differs from the model grid")
    if not measure.is_l0(tol=1e-8):
        raise ValueError("vector measure is not in the recursion state space (slot 0 must be a probability)")
    update = _prediction_update(cache, y, measure.components * grid.weights)
    predictive = float(np.dot(update[0], grid.weights))
    if not predictive > PREDICTIVE_FLOOR:
        raise PredictiveMassError(predictive)
    return update / predictive, predictive


def apply_R(model: ModelSpec, alpha, theta, y, lam: GridMeasure) -> GridMeasure:
    """One unnormalized prediction-update with a mixed kernel derivative.

    The output density at x is the integral of the alpha-derivative of
    the joint kernel at (y, x | x') against lam(dx').
    """
    alpha = MultiIndex(alpha)
    model.validate_order(alpha.degree)
    if not lam.grid.compatible(model.grid):
        raise ValueError("measure grid differs from the model grid")
    iset = enumerate_indices(model.dim_theta, alpha.degree)
    weighted = np.zeros((len(iset), lam.grid.size))
    weighted[0] = lam.density * lam.grid.weights
    update = _prediction_update(KernelCache(model, theta, iset), y, weighted)
    return GridMeasure(update[iset.slot(alpha)], lam.grid)


def filter_step_with_scalars(cache: KernelCache, y, measure: VectorMeasure):
    """One step of the derivative filter; every filter pass runs this function.

    Returns (updated measure, s_masses, predictive_mass): s_masses[k] is
    the total mass of the k-th normalized prediction-update and
    predictive_mass the unnormalized slot-0 mass that normalizes
    everything.  The measure must use the cache's index set and grid
    and have a probability in slot 0 (ValueError otherwise).  Slot 0
    becomes the Bayes-updated probability measure; each higher slot is
    its prediction-update minus the binomial-weighted recentering by
    lower slots, evaluated in increasing degree.
    """
    s_dens, predictive = _normalized_update(cache, y, measure)
    s_masses = s_dens @ measure.grid.weights
    # Recenter in place in increasing degree, so every slot b < k is final;
    # the last pair of each row is b == k itself.
    f_dens = s_dens
    for k, pairs in enumerate(pair_table(cache.index_set)):
        for coeff, b_slot, g_slot in pairs[:-1]:
            f_dens[k] -= coeff * f_dens[b_slot] * s_masses[g_slot]
    _check_masses(f_dens, measure.grid)
    return VectorMeasure(f_dens, measure.index_set, measure.grid), s_masses, predictive


def _check_masses(components: np.ndarray, grid: StateGrid) -> None:
    """Slot 0 must have mass one and every other slot mass zero.

    The tolerance is MASS_TOL times the slot's TV norm where that exceeds
    one: rounding in a slot's mass grows with the slot's size, so an
    absolute bound would abort on valid inputs whose derivative slots are
    large, while unit-scale slots keep the absolute MASS_TOL.
    """
    drift = components @ grid.weights
    drift[0] -= 1.0
    tols = MASS_TOL * np.maximum(1.0, np.abs(components) @ grid.weights)
    if np.any(np.abs(drift) > tols):
        k = int(np.argmax(np.abs(drift) / tols))
        raise MassInvariantError(
            f"slot {k} mass drifts by {float(drift[k])!r}, beyond {float(tols[k])!r}"
        )


def _indexed_step(cache: KernelCache, y, measure: VectorMeasure, observation_index: int):
    """filter_step_with_scalars, with a predictive-mass abort naming its observation."""
    try:
        return filter_step_with_scalars(cache, y, measure)
    except PredictiveMassError as err:
        raise PredictiveMassError(err.mass, observation_index=observation_index) from err


def _observation_block(observations) -> np.ndarray:
    """Observations as a 1-D float array; ValueError for any other shape."""
    block = np.atleast_1d(np.asarray(observations, dtype=float))
    if block.ndim != 1:
        raise ValueError(f"observations must be one-dimensional, got shape {block.shape}")
    return block


def compute_s(model: ModelSpec, alpha, theta, y, measure: VectorMeasure) -> GridMeasure:
    """Normalized multi-derivative prediction-update (before recentering).

    Sums, over beta below alpha, the binomial-weighted (alpha - beta)
    kernel updates of slot beta, all divided by the slot-0 predictive
    mass.
    """
    slot = measure.index_set.slot(alpha)
    s_dens, _ = _normalized_update(KernelCache(model, theta, measure.index_set), y, measure)
    return GridMeasure(s_dens[slot], measure.grid)


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
    return filter_step_with_scalars(cache, y, measure)[0]


def filter_iterate(
    model: ModelSpec,
    theta,
    observations,
    measure: VectorMeasure,
    keep_history: bool = False,
    origin: int = 0,
) -> FilterState:
    """Fold the filter step over an observation block.

    An empty block runs no step, so it returns the initial condition
    unchanged and unchecked.  With keep_history, every intermediate
    vector measure (including the initial one) is retained.
    """
    cache = KernelCache(model, theta, measure.index_set)
    observations = _observation_block(observations)
    history = [measure]
    for j, y in enumerate(observations):
        measure = _indexed_step(cache, y, measure, origin + j + 1)[0]
        if keep_history:
            history.append(measure)
    return FilterState(
        measure=measure,
        step=origin + len(observations),
        origin=origin,
        theta=cache.theta,
        history=tuple(history) if keep_history else None,
    )
