"""Desk-scale stability experiments for the derivative filter.

Three measurable reproductions: exponential forgetting of initial
conditions (decay-rate fits on filter-distance curves), geometric
ergodicity of the augmented state-observation-filter chain (Monte-Carlo
spread across initial conditions), and the derivative identity (filter
jet slots against finite differences of the plain filter).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filtering import KernelCache, _fold, filter_iterate
from .grid import GridMeasure, StateGrid, VectorMeasure, embed, measure_distance, vector_norms
from .models import ModelSpec, simulate
from .multiindex import IndexSet, MultiIndex
from .oracle import FDScheme, fd_derivatives
from .seeding import NormalStreams, labeled_rng, labeled_seed

DISTANCE_FLOOR = 1e-300
FIT_NOISE_FLOOR = 1e-14  # below this, distances are rounding noise, not decay
_FORGETTING_MIN_HORIZON = 20  # the decay fit needs the latter three quarters of a long enough curve


def log_linear_fit(ns: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """OLS fit of log(values) against ns; returns (slope, intercept, r_squared)."""
    ns = np.asarray(ns, dtype=float)
    logs = np.log(values)
    slope, intercept = np.polyfit(ns, logs, 1)
    fitted = slope * ns + intercept
    total = float(np.sum((logs - logs.mean()) ** 2))
    resid = float(np.sum((logs - fitted) ** 2))
    r2 = 1.0 if total == 0.0 else 1.0 - resid / total
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Distance between two filter runs per step, with its decay fit."""

    horizon: np.ndarray
    distance: np.ndarray
    fit_start: int
    fit_stop: int
    slope: float
    intercept: float
    rate: float
    r_squared: float
    truncated_at: int | None
    degenerate: bool

    @property
    def fitted(self) -> bool:
        return not self.degenerate and math.isfinite(self.slope)


def _fit_decay(horizon, distance, fit_start, fit_stop):
    mask = (horizon >= fit_start) & (horizon <= fit_stop) & (distance > FIT_NOISE_FLOOR)
    if mask.sum() < 2:
        return math.nan, math.nan, math.nan
    return log_linear_fit(horizon[mask], distance[mask])


def forgetting_experiment(
    model: ModelSpec,
    theta,
    pairs: Sequence[tuple[VectorMeasure, VectorMeasure]],
    n_max: int,
    seed: int,
    lam0: GridMeasure | None = None,
    fit_window: tuple[int, int] | None = None,
) -> list[DecayCurve]:
    """Distance curves between filter runs started from paired initial conditions.

    One observation sequence is simulated and shared by every pair; the
    decay fit runs over the latter three quarters of the horizon unless
    a window is given, skipping points already at rounding level.
    Identical pairs give an all-zero curve with the fit skipped;
    underflowed distances truncate the curve.
    """
    if n_max < _FORGETTING_MIN_HORIZON:
        raise ValueError(f"forgetting experiments need a horizon of at least {_FORGETTING_MIN_HORIZON}")
    theta = model.validate_theta(theta)
    lam0 = GridMeasure.uniform(model.grid) if lam0 is None else lam0
    fit_start, fit_stop = fit_window if fit_window is not None else (max(1, n_max // 4), n_max)
    traj = simulate(model, theta, lam0, n_max, seed=labeled_seed(seed, "forgetting-path"))
    if not pairs:
        return []

    # Both members of every pair filter the shared path as one batch:
    # rows 2i and 2i + 1 hold pair i.
    members = [measure for pair in pairs for measure in pair]
    cache = KernelCache(model, theta, members[0].index_set)
    block = np.broadcast_to(traj.observations[:, None], (n_max, len(members)))
    distances = np.empty((len(pairs), n_max))
    for j, (components, _, _) in enumerate(_fold(cache, block, members)):
        distances[:, j] = vector_norms(components[0::2] - components[1::2], cache.grid)

    curves = []
    for (first, second), distance in zip(pairs, distances):
        horizon = np.arange(1, n_max + 1)
        degenerate = measure_distance(first, second) == 0.0
        truncated_at = None
        under = np.nonzero(distance < DISTANCE_FLOOR)[0]
        if not degenerate and under.size:
            truncated_at = int(horizon[under[0]])
            horizon = horizon[: under[0]]
            distance = distance[: under[0]]
        if degenerate:
            slope = intercept = r2 = math.nan
        else:
            slope, intercept, r2 = _fit_decay(horizon, distance, fit_start, fit_stop)
        curves.append(
            DecayCurve(
                horizon=horizon,
                distance=distance,
                fit_start=fit_start,
                fit_stop=fit_stop,
                slope=slope,
                intercept=intercept,
                rate=math.exp(slope) if math.isfinite(slope) else math.nan,
                r_squared=r2,
                truncated_at=truncated_at,
                degenerate=degenerate,
            )
        )
    return curves


@dataclass(frozen=True, eq=False)
class PhiSpec:
    """A test functional of (state, observation, filter measure), over rows.

    fn(xs, ys, components, index_set, grid) scores R rows at once: (R,)
    states and observations and the (R, K, N) components of the rows'
    filter measures, returning (R,) values.  Calling the spec scores one
    state as one row.  phi_bound and growth_exponent describe its
    polynomial envelope in the filter measure: |phi| <= phi_bound *
    norm^growth_exponent, with the matching Lipschitz bound in the
    measure argument.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray, IndexSet, StateGrid], np.ndarray]
    phi_bound: float
    growth_exponent: float

    def __call__(self, x: float, y: float, measure: VectorMeasure) -> float:
        row = self.fn(
            np.array([float(x)]), np.array([float(y)]), measure.components[None],
            measure.index_set, measure.grid,
        )
        return float(row[0])


def _slot_zero_means(components, index_set, grid) -> np.ndarray:
    """Slot-0 mean of every row, with the float operations of GridMeasure.mean."""
    masses = components[:, index_set.slot(index_set.zero)] * grid.weights
    return (grid.points * masses[:, :, None]).sum(axis=1)[:, 0]


def posterior_mean_phi(model: ModelSpec) -> PhiSpec:
    """Mean of the slot-0 measure; bounded by the box radius, flat in the norm."""
    radius = float(np.max(np.abs(model.grid.bounds)))
    return PhiSpec(
        name="posterior-mean",
        fn=lambda xs, ys, components, index_set, grid: _slot_zero_means(components, index_set, grid),
        phi_bound=radius,
        growth_exponent=0.0,
    )


def component_tv_phi(alpha) -> PhiSpec:
    """Total variation of one derivative slot; linear growth in the norm."""
    alpha = MultiIndex(alpha)

    def tv_norms(xs, ys, components, index_set, grid):
        # One dot per row, as GridMeasure.tv_norm: a matrix product sums in another order.
        rows = np.abs(components[:, index_set.slot(alpha)])
        return np.array([np.dot(row, grid.weights) for row in rows])

    return PhiSpec(
        name=f"component-tv-{'_'.join(map(str, alpha))}",
        fn=tv_norms,
        phi_bound=1.0,
        growth_exponent=1.0,
    )


def bounded_lipschitz_phi(model: ModelSpec) -> PhiSpec:
    """A bounded statistic of the full augmented state, Lipschitz in the measure."""
    radius = max(1.0, float(np.max(np.abs(model.grid.bounds))))

    def tanh_of_sum(xs, ys, components, index_set, grid):
        sums = xs + ys + _slot_zero_means(components, index_set, grid)
        return np.array([math.tanh(v) for v in sums.tolist()])

    return PhiSpec(
        name="bounded-lipschitz",
        fn=tanh_of_sum,
        phi_bound=radius,
        growth_exponent=0.0,
    )


def state_projection_phi() -> PhiSpec:
    """The state coordinate itself; ignores the filter measure entirely."""
    return PhiSpec(
        name="state-projection",
        fn=lambda xs, ys, components, index_set, grid: np.array(xs, dtype=float),
        phi_bound=math.inf,
        growth_exponent=0.0,
    )


PHI_BUILTINS = {
    "posterior-mean": lambda model: posterior_mean_phi(model),
    "bounded-lipschitz": lambda model: bounded_lipschitz_phi(model),
    "state-projection": lambda model: state_projection_phi(),
}


@dataclass(frozen=True, eq=False)
class ErgodicityProbe:
    """Monte-Carlo estimates of the iterated-kernel averages per start point."""

    chain: str
    phi_name: str
    record_ns: np.ndarray
    estimates: np.ndarray  # (starts, times)
    stderr: np.ndarray
    spreads: np.ndarray  # (times,) across-start spread
    spread_slope: float
    spread_r_squared: float
    replicas: int

    def spread_at(self, n: int) -> float:
        """Across-start spread at the recorded horizon n; ValueError for any other n."""
        hits = np.nonzero(self.record_ns == n)[0]
        if not hits.size:
            raise ValueError(f"horizon {n} was not recorded; recorded horizons are {self.record_ns.tolist()}")
        return float(self.spreads[hits[0]])


def ergodicity_experiment(
    model: ModelSpec,
    theta,
    phi: PhiSpec,
    initial_conditions: Sequence[tuple[float, float, VectorMeasure]],
    record_ns: Sequence[int],
    replicas: int,
    seed: int,
    chain: str = "aligned",
) -> ErgodicityProbe:
    """Estimate the iterated-kernel averages of phi from several start points.

    The augmented chain carries (state, observation, filter measure).
    The aligned variant updates the filter with the freshly drawn
    observation; the shifted variant updates it with the observation
    already in the state, so the filter lags one step.  The across-start
    spread of the estimates per horizon is fitted to a geometric decay.

    Replica streams are shared across start points (common random
    numbers), so the spread measures contraction instead of independent
    Monte-Carlo noise; each estimate is still unbiased.  Row
    s * replicas + r runs replica r from start s: it reads replica r's
    normals from their start, so its path is the one that drawing it
    alone from replica r's generator gives.  The paths of all rows are
    drawn step by step, then all rows filter as one batch and phi scores
    them together; an abort names the row as its replica.
    """
    if replicas < 2:
        raise ValueError("at least two replicas are required")
    if chain not in ("aligned", "shifted"):
        raise ValueError("chain must be 'aligned' or 'shifted'")
    theta = model.validate_theta(theta)
    record_ns = np.asarray(sorted(set(int(n) for n in record_ns)))
    if record_ns.size == 0:
        raise ValueError("record_ns must name at least one horizon")
    if record_ns[0] < 0:
        raise ValueError("record_ns must be non-negative")
    n_max = int(record_ns[-1])
    if len(initial_conditions) == 0:
        raise ValueError("initial_conditions must name at least one start point")
    cache = KernelCache(model, theta, initial_conditions[0][2].index_set)
    starts = len(initial_conditions)
    rows = starts * replicas

    # (steps, rows) paths of (x, y); row s * replicas + r reads stream r.
    normals = NormalStreams(
        [labeled_rng(seed, "ergodicity", r) for r in range(replicas)],
        np.tile(np.arange(replicas), starts),
    )
    xs = np.empty((n_max + 1, rows))
    ys = np.empty_like(xs)
    xs[0] = np.repeat([float(x0) for x0, _, _ in initial_conditions], replicas)
    ys[0] = np.repeat([float(y0) for _, y0, _ in initial_conditions], replicas)
    for n in range(1, n_max + 1):
        xs[n] = model.transition_samples(theta, xs[n - 1], normals)
        ys[n] = model.observation_samples(theta, xs[n], normals)
    # The aligned chain updates with the fresh observation, the shifted one
    # with the observation already in the state.
    update_with = ys[1:] if chain == "aligned" else ys[:-1]

    # The rows at n = 0, then after each step; the loop runs the fold to its end, which checks the starts.
    row_starts = [m for _, _, m in initial_conditions for _ in range(replicas)]
    stepped = (step[0] for step in _fold(cache, update_with, row_starts))
    samples = np.empty((starts, record_ns.size, replicas))
    t_idx = 0
    for n, components in enumerate(itertools.chain([np.stack([m.components for m in row_starts])], stepped)):
        if t_idx < record_ns.size and n == record_ns[t_idx]:
            values = phi.fn(xs[n], ys[n], components, cache.index_set, cache.grid)
            if np.shape(values) != (rows,):
                raise ValueError(
                    f"phi {phi.name!r} must return ({rows},) values, got shape {np.shape(values)}"
                )
            samples[:, t_idx, :] = np.reshape(values, (starts, replicas))
            t_idx += 1

    estimates = samples.mean(axis=2)
    stderr = samples.std(axis=2, ddof=1) / math.sqrt(replicas)
    spreads = estimates.max(axis=0) - estimates.min(axis=0)
    positive = spreads > 0.0
    if positive.sum() >= 2:
        slope, _, r2 = log_linear_fit(record_ns[positive], spreads[positive])
    else:
        slope, r2 = math.nan, math.nan
    return ErgodicityProbe(
        chain=chain,
        phi_name=phi.name,
        record_ns=record_ns,
        estimates=estimates,
        stderr=stderr,
        spreads=spreads,
        spread_slope=slope,
        spread_r_squared=r2,
        replicas=replicas,
    )


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Worst-case identity discrepancy for one (theta, index) pair."""

    theta_index: int
    alpha: MultiIndex
    max_abs_error: float
    scaled_error: float


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Derivative-identity sweep: filter jet slots versus finite differences."""

    cells: tuple[SweepCell, ...]
    worst_scaled: float
    worst_abs: float
    rel_tol: float
    abs_floor: float

    @property
    def passed(self) -> bool:
        return self.worst_scaled <= self.rel_tol


def derivative_identity_sweep(
    model: ModelSpec,
    thetas: Sequence,
    horizon: int,
    seed: int,
    lam0: GridMeasure | None = None,
    scheme: FDScheme = FDScheme(),
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-6,
    data_theta=None,
) -> IdentityReport:
    """Compare every jet slot against finite differences of the plain filter.

    For each parameter point, the filter runs once to produce all slot
    cell masses; the zero-slot cell-mass vector is then differenced in
    the parameters, and the per-cell discrepancy is scaled by
    max(abs_floor / rel_tol, |finite difference|) so the report's worst
    scaled error compares directly against rel_tol.

    The finite differences of one parameter point come from
    fd_derivatives, seeded with slot 0 of the full-order pass: it runs
    one filter_iterate pass over the stack of the other stencil points,
    each of which equals its serial pass bit for bit.  So at dimension 2,
    order 3 and the default two Richardson levels a parameter point
    costs 1 full-order pass and 1 pass over 28 stencil points, where
    differencing each alpha on its own, from its own pass at theta,
    costs 94 passes.  That pass builds
    one kernel factor per distinct model.kernel_keys key, not per point:
    7 transition jets and 7 observation evaluators for the bundled
    model's shipped features, whose drift and observation map each read
    one coordinate.  The difference passes run on the order-0 index set
    (1 slot instead of 10 at dimension 2, order 3).  For the bundled
    model an order-0 jet is the slot-0 prefix of the order-1 jet, as both
    normalizers sum a stack of at least two degrees, and slot 0 does not
    depend on the order from 1 up; so the report is the one full-order
    passes give, bit for bit.  rel_tol must be finite and positive and
    abs_floor finite and non-negative (ValueError otherwise).
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    if not 0.0 <= abs_floor < math.inf:
        raise ValueError(f"abs_floor must be finite and non-negative, got {abs_floor!r}")
    lam0 = GridMeasure.uniform(model.grid) if lam0 is None else lam0
    thetas = [model.validate_theta(t) for t in thetas]
    if not thetas:
        raise ValueError("thetas must name at least one parameter point")
    if data_theta is None:
        box = np.asarray(model.parameter_box, dtype=float)
        data_theta = box.mean(axis=1)
    data_theta = model.validate_theta(data_theta)
    traj = simulate(model, data_theta, lam0, horizon, seed=labeled_seed(seed, "identity-path"))
    index_set = model.index_set()
    weights = model.grid.weights
    floor_scale = abs_floor / rel_tol
    fd_start = embed(lam0, model.index_set(0))

    def zero_slot_masses(stack):
        return [m.components[0] * weights for m in filter_iterate(model, stack, traj.observations, fd_start)]

    differenced = [alpha for alpha in index_set.indices if alpha.degree > 0]
    cells = []
    for t_idx, theta in enumerate(thetas):
        measure = filter_iterate(model, theta, traj.observations, embed(lam0, index_set))
        slot_masses = measure.components * weights
        references = [slot_masses[0]] + fd_derivatives(
            zero_slot_masses, differenced, theta, slot_masses[0], scheme, model.parameter_box
        )
        for k, (alpha, reference) in enumerate(zip(index_set.indices, references)):
            gap = np.abs(slot_masses[k] - reference)
            max_abs = float(gap.max())
            scaled = float((gap / np.maximum(floor_scale, np.abs(reference))).max())
            cells.append(
                SweepCell(
                    theta_index=t_idx, alpha=alpha, max_abs_error=max_abs, scaled_error=scaled
                )
            )
    return IdentityReport(
        cells=tuple(cells),
        worst_scaled=max(c.scaled_error for c in cells),
        worst_abs=max(c.max_abs_error for c in cells),
        rel_tol=rel_tol,
        abs_floor=abs_floor,
    )
