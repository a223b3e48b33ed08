"""Log-likelihood increments and their parameter-derivative jets.

The log joint observation density telescopes into per-step increments:
the log predictive mass of each new observation given the running
filter.  Its mixed parameter derivatives satisfy their own recursion in
index degree, driven by the same per-step prediction-update masses the
filter already computes, so one filter pass yields the whole jet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import KernelCache, _fold, _observation_block, _step, _where
from .grid import GridMeasure, embed
from .models import ModelSpec, _simulate_rows, simulate
from .multiindex import IndexSet, MultiIndex, enumerate_indices, shifted_pair_table
from .seeding import labeled_seed

# Share of each parameter-box width that rml_demo's projection keeps clear at either end.
PROJECTION_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class LogLikJet:
    """Log-likelihood value (slot 0), its mixed derivatives by slot, and the (T, K) per-step increments."""

    values: np.ndarray
    index_set: IndexSet
    increments: np.ndarray

    def value(self, alpha) -> float:
        return float(self.values[self.index_set.slot(alpha)])


def jet_increments_from_scalars(s_masses: np.ndarray, predictive, index_set: IndexSet) -> np.ndarray:
    """Per-step jet increments from one step's prediction-update masses.

    Slot 0 is the log predictive mass; degree-1 slots equal their update
    mass; higher slots recenter by lower ones through the unit-shifted
    binomial pairing.  s_masses is (K,) and predictive a float, or
    (R, K) and (R,) for R replicas.
    """
    # Slot axis first, so that a single step works on NumPy scalars.
    slots = np.asarray(s_masses).T
    out = np.empty(slots.shape)
    # math.log, not np.log: the two differ in the last bit on about 0.1%
    # of inputs, and a replica's increments must not depend on its batch.
    out[0] = [math.log(p) for p in predictive] if slots.ndim > 1 else math.log(predictive)
    pairs = shifted_pair_table(index_set)
    for k in range(1, len(index_set)):
        acc = slots[k]
        for coeff, b_slot, g_slot in pairs[k]:
            acc = acc - coeff * out[b_slot] * slots[g_slot]
        out[k] = acc
    return out.T


def loglik_jet(model: ModelSpec, theta, observations, lam0: GridMeasure) -> LogLikJet | tuple[LogLikJet, ...]:
    """Accumulate the log-likelihood jet along the filter trajectory.

    Starts the filter from the embedding of lam0 and sums the per-step
    jet increments; slot 0 therefore equals the log joint observation
    density exactly (telescoping), and higher slots its derivatives.
    theta may be a (P, dim) stack of parameter points: one pass then
    returns a tuple of P jets, each bit for bit the jet of the pass at
    that point alone, as filter_iterate does.
    """
    observations = _observation_block(observations)
    if observations.shape[0] < 1:
        raise ValueError("at least one observation is required")
    iset = model.index_set()
    cache = KernelCache(model, theta, iset)
    points = len(cache.points)
    # One point takes the scalar path of jet_increments_from_scalars: 5 us
    # against 10 us for a one-row batch at order 2.
    rows = slice(None) if points > 1 else 0
    steps = np.empty((points, observations.shape[0], len(iset)))
    totals = np.zeros((points, len(iset)))
    for j, (_, s_masses, predictive) in enumerate(_fold(cache, observations[:, None], embed(lam0, iset))):
        steps[:, j] = jet_increments_from_scalars(s_masses[rows], predictive[rows], iset)
        totals += steps[:, j]
    jets = tuple(LogLikJet(values=v, index_set=iset, increments=inc) for v, inc in zip(totals, steps))
    return jets if cache.theta.ndim == 2 else jets[0]


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Monte-Carlo estimate of the per-step log-likelihood jet."""

    mean: np.ndarray
    stderr: np.ndarray
    index_set: IndexSet
    replicas: int
    horizon: int

    def slot(self, alpha) -> tuple[float, float]:
        k = self.index_set.slot(alpha)
        return float(self.mean[k]), float(self.stderr[k])


def avg_loglik_rate(
    model: ModelSpec,
    theta,
    lam0: GridMeasure,
    horizon: int,
    replicas: int,
    seed: int,
    data_theta=None,
    data_lam0: GridMeasure | None = None,
) -> RateEstimate:
    """Average per-step log-likelihood jet over simulated trajectories.

    Observations are simulated at data_theta (the evaluation parameter
    by default) started from data_lam0 (the evaluation initial law by
    default); each replica contributes its jet divided by the horizon.
    Keeping the seed and data arguments fixed while varying lam0 shares
    the trajectories, so initial-law comparisons are tightly coupled.
    """
    if replicas < 2:
        raise ValueError("at least two replicas are needed for a standard error")
    theta = model.validate_theta(theta)
    data_theta = theta if data_theta is None else model.validate_theta(data_theta)
    data_lam0 = lam0 if data_lam0 is None else data_lam0
    seeds = [labeled_seed(seed, "rate-replica", r) for r in range(replicas)]
    observations = _simulate_rows(model, data_theta, data_lam0, horizon, seeds)[1]
    measure = embed(lam0, model.index_set())
    cache = KernelCache(model, theta, measure.index_set)
    totals = np.zeros((replicas, len(measure.index_set)))
    for _, s_masses, predictive in _fold(cache, observations, measure):
        totals += jet_increments_from_scalars(s_masses, predictive, measure.index_set)
    rows = totals / horizon
    mean = rows.mean(axis=0)
    stderr = rows.std(axis=0, ddof=1) / math.sqrt(replicas)
    return RateEstimate(
        mean=mean,
        stderr=stderr,
        index_set=model.index_set(),
        replicas=replicas,
        horizon=horizon,
    )


@dataclass(frozen=True, eq=False)
class RmlTrace:
    """Parameter trace of the online gradient-ascent demonstration."""

    thetas: np.ndarray
    projections: int
    step_a: float
    step_b: float


def rml_demo(
    model: ModelSpec,
    theta_init,
    theta_true,
    step_a: float,
    step_b: float,
    n_steps: int,
    seed: int,
    lam0: GridMeasure | None = None,
) -> RmlTrace:
    """Online parameter estimation by stochastic gradient ascent.

    One long trajectory is simulated at theta_true; each step runs the
    step core on a kernel cache built at the current estimate, and its
    degree-1 update masses (the degree-1 jet increments) serve as the
    gradient estimate, with decreasing steps a / (b + k).  Estimates
    that leave the projection interior (the box shrunk by
    PROJECTION_MARGIN of its width at each end) are pulled back onto it
    and counted; theta_init must lie in it (ValueError otherwise).
    Every abort of a step names its observation index.
    """
    if model.max_order < 1:
        raise ValueError("gradient ascent needs derivative order >= 1")
    # A zero gain is allowed: it runs the filter and leaves theta where it starts.
    if not (0 <= step_a < math.inf and 0 < step_b < math.inf):
        raise ValueError(
            f"step_a must be finite and >= 0 and step_b finite and > 0, got {step_a!r} and {step_b!r}"
        )
    theta_true = model.validate_theta(theta_true)
    current = model.validate_theta(theta_init).copy()
    box = np.asarray(model.parameter_box, dtype=float)
    margin = PROJECTION_MARGIN * (box[:, 1] - box[:, 0])
    lo, hi = box[:, 0] + margin, box[:, 1] - margin
    if not np.all((lo <= current) & (current <= hi)):
        raise ValueError(
            f"theta_init {current.tolist()} lies outside the projection interior {list(zip(lo.tolist(), hi.tolist()))}"
        )
    lam0 = GridMeasure.uniform(model.grid) if lam0 is None else lam0
    iset = enumerate_indices(model.dim_theta, 1)
    grad_slots = [iset.slot(MultiIndex.unit(model.dim_theta, i)) for i in range(model.dim_theta)]

    traj = simulate(model, theta_true, lam0, n_steps, seed=labeled_seed(seed, "rml-path"))
    components = embed(lam0, iset).components[None]
    trace = np.empty((n_steps + 1, model.dim_theta))
    trace[0] = current
    projections = 0
    for k, y in enumerate(traj.observations):
        try:
            cache = KernelCache(model, current, iset)
            obs = cache.observation_vectors(y)
        except ValueError as err:
            raise ValueError(f"{err}{_where(None, k + 1)}") from err
        components, s_masses, _ = _step(cache, obs, components, k + 1)
        current = current + (step_a / (step_b + k)) * s_masses[0, grad_slots]
        clipped = np.clip(current, lo, hi)
        if not np.array_equal(clipped, current):
            projections += 1
            current = clipped
        trace[k + 1] = current
    return RmlTrace(thetas=trace, projections=projections, step_a=step_a, step_b=step_b)
