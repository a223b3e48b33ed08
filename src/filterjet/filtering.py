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

    Raises PredictiveMassError when that mass is not above PREDICTIVE_FLOOR.
    """
    grid = measure.grid
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
    theta = model.validate_theta(theta)
    iset = enumerate_indices(model.dim_theta, alpha.degree)
    weighted = np.zeros((len(iset), lam.grid.size))
    weighted[0] = lam.density * lam.grid.weights
    update = _prediction_update(KernelCache(model, theta, iset), y, weighted)
    return GridMeasure(update[iset.slot(alpha)], lam.grid)


def _require_l0(measure: VectorMeasure) -> None:
    if not measure.is_l0(tol=1e-8):
        raise ValueError("vector measure is not in the recursion state space (slot 0 must be a probability)")


def _step_core(model: ModelSpec, theta, y, measure: VectorMeasure, cache: KernelCache | None):
    """One validated filter step, shared by both public step functions.

    Returns (updated measure, s_masses, predictive_mass) where s_masses[k]
    is the total mass of the k-th normalized prediction-update and
    predictive_mass the unnormalized slot-0 mass that normalizes
    everything.
    """
    _require_l0(measure)
    if cache is None:
        cache = KernelCache(model, theta, measure.index_set)
    elif cache.index_set != measure.index_set or not np.array_equal(
        cache.theta, model.validate_theta(theta)
    ):
        raise ValueError("cache was built for a different index set or parameter")
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
    masses = components @ grid.weights
    if abs(masses[0] - 1.0) > MASS_TOL:
        raise MassInvariantError(f"slot-0 mass {masses[0]!r} differs from 1 beyond {MASS_TOL}")
    worst = float(np.max(np.abs(masses[1:]))) if masses.shape[0] > 1 else 0.0
    if worst > MASS_TOL:
        raise MassInvariantError(f"derivative-slot mass {worst!r} exceeds {MASS_TOL}")


def compute_s(model: ModelSpec, alpha, theta, y, measure: VectorMeasure) -> GridMeasure:
    """Normalized multi-derivative prediction-update (before recentering).

    Sums, over beta below alpha, the binomial-weighted (alpha - beta)
    kernel updates of slot beta, all divided by the slot-0 predictive
    mass.
    """
    alpha = MultiIndex(alpha)
    model.validate_order(alpha.degree)
    _require_l0(measure)
    if not measure.grid.compatible(model.grid):
        raise ValueError("measure grid differs from the model grid")
    s_dens, _ = _normalized_update(KernelCache(model, theta, measure.index_set), y, measure)
    return GridMeasure(s_dens[measure.index_set.slot(alpha)], measure.grid)


def filter_step(
    model: ModelSpec, theta, y, measure: VectorMeasure, cache: KernelCache | None = None
) -> VectorMeasure:
    """One full step of the derivative filter.

    Slot 0 becomes the Bayes-updated probability measure; each higher
    slot is its prediction-update minus the binomial-weighted recentering
    by lower slots, evaluated in increasing degree.
    """
    return _step_core(model, theta, y, measure, cache)[0]


def filter_step_with_scalars(
    model: ModelSpec, theta, y, measure: VectorMeasure, cache: KernelCache | None = None
):
    """Filter step plus the per-step scalars shared with the jet recursion.

    Returns (updated measure, s_masses, predictive_mass).
    """
    return _step_core(model, theta, y, measure, cache)


def filter_iterate(
    model: ModelSpec,
    theta,
    observations,
    measure: VectorMeasure,
    keep_history: bool = False,
    origin: int = 0,
) -> FilterState:
    """Fold the filter step over an observation block.

    An empty block returns the initial condition unchanged.  With
    keep_history, every intermediate vector measure (including the
    initial one) is retained.
    """
    _require_l0(measure)
    theta_arr = model.validate_theta(theta)
    observations = np.atleast_1d(np.asarray(observations, dtype=float))
    cache = KernelCache(model, theta_arr, measure.index_set)
    history = [measure] if keep_history else None
    current = measure
    for j, y in enumerate(observations):
        try:
            current = filter_step(model, theta_arr, y, current, cache=cache)
        except PredictiveMassError as err:
            raise PredictiveMassError(err.mass, observation_index=origin + j + 1) from err
        if keep_history:
            history.append(current)
    return FilterState(
        measure=current,
        step=origin + len(observations),
        origin=origin,
        theta=theta_arr,
        history=tuple(history) if keep_history else None,
    )
