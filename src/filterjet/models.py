"""Parametric state-space models with analytic parameter derivatives.

ModelSpec is the contract the filter consumes: the transition jet and
an observation-jet evaluator tabulated on the model grid, plus the two
samplers that simulation draws from.

The concrete family is a nonlinear Gaussian model truncated to a box:
the next state is drift(x) plus scaled noise, the observation is an
observation map of the state plus scaled noise, and both the drift and
the observation map are linear combinations of fixed feature functions
with the parameter vector as coefficients.  That linear structure makes
every mixed parameter derivative of the unnormalized kernels a Hermite
polynomial times the kernel itself, with no symbolic algebra; the
truncation normalizers and their derivatives come from grid quadrature.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridMeasure, StateGrid
from .multiindex import (
    IndexSet,
    MultiIndex,
    enumerate_indices,
    pair_table,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rejection trials a truncated sampler makes before it gives up.
SAMPLER_MAX_TRIALS = 10**6

FEATURE_FUNCTIONS = {
    "zero": lambda x: np.zeros_like(x),
    "one": lambda x: np.ones_like(x),
    "linear": lambda x: np.asarray(x, dtype=float) + 0.0,
    "tanh": np.tanh,
    "sin": np.sin,
}

_FEATURE_SCALARS = {
    "zero": lambda x: 0.0,
    "one": lambda x: 1.0,
    "linear": float,
    "tanh": math.tanh,
    "sin": math.sin,
}


def _gauss_ratio_derivs(z: np.ndarray, order: int) -> np.ndarray:
    """(order + 1, ...) ratios pdf^(k)(z) / pdf(z) for the standard normal.

    These are signed Hermite polynomials via the recurrence
    r_(k+1) = -z r_k - k r_(k-1); they stay representable even where
    the pdf itself underflows.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty((order + 1,) + z.shape)
    out[0] = 1.0
    for k in range(order):
        out[k + 1] = -z * out[k]
        if k:
            out[k + 1] -= k * out[k - 1]
    return out


def _gauss_pdf_derivs(z: np.ndarray, order: int) -> np.ndarray:
    """(order + 1, ...) derivatives of the standard normal pdf at z."""
    out = _gauss_ratio_derivs(z, order)
    out *= np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / _SQRT_2PI
    return out


@dataclass(frozen=True)
class ParameterPoint:
    """A parameter vector strictly inside its open box."""

    theta: tuple[float, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds))
        if len(self.theta) != len(self.bounds):
            raise ValueError("theta and bounds must have the same length")
        for t, (lo, hi) in zip(self.theta, self.bounds):
            if not lo < t < hi:
                raise ValueError(f"theta component {t} not strictly inside ({lo}, {hi})")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)


def theta_array(theta) -> np.ndarray:
    if isinstance(theta, ParameterPoint):
        return theta.array
    return np.asarray(theta, dtype=float)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated path: states X_0..X_n and observations Y_1..Y_n."""

    states: np.ndarray
    observations: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        object.__setattr__(self, "observations", np.asarray(self.observations, dtype=float))
        if self.states.shape[0] != self.observations.shape[0] + 1:
            raise ValueError("a trajectory needs exactly one more state than observations")

    def __len__(self) -> int:
        return self.observations.shape[0]


class ModelSpec(abc.ABC):
    """What the filter needs from a parametric state-space model on a grid.

    The joint kernel factors into a transition density (in the new
    state, given the old) and an observation density (in the
    observation, given the new state).  The filter consumes the whole
    derivative jets of both factors tabulated on the model grid and
    pairs them by the Leibniz rule itself; simulation consumes the two
    samplers.  A subclass sets ``grid`` and provides the seven abstract
    members; the parameter checks and the index set come with the base.
    """

    grid: StateGrid

    @property
    @abc.abstractmethod
    def dim_theta(self) -> int: ...

    @property
    @abc.abstractmethod
    def max_order(self) -> int: ...

    @property
    @abc.abstractmethod
    def parameter_box(self) -> tuple[tuple[float, float], ...]: ...

    @abc.abstractmethod
    def transition_grid_jet(self, theta, index_set: IndexSet) -> np.ndarray:
        """(K, N, N) transition jet on the grid: slot, new state, old state."""

    @abc.abstractmethod
    def observation_grid_factory(self, theta, index_set: IndexSet):
        """Evaluator y -> (K, N) observation-density jet on the grid.

        A float y gives (K, N); an (R, 1) column of observations, which a
        step over R replicas passes, gives (K, R, N).  Everything that
        depends only on theta is built once here, since the filter
        evaluates the observations of every step at a fixed theta.
        """

    @abc.abstractmethod
    def transition_sample(self, theta, x: float, rng: np.random.Generator) -> float: ...

    @abc.abstractmethod
    def observation_sample(self, theta, x: float, rng: np.random.Generator) -> float: ...

    def validate_theta(self, theta) -> np.ndarray:
        arr = theta_array(theta)
        if arr.shape != (self.dim_theta,):
            raise ValueError(f"theta must have shape ({self.dim_theta},), got {arr.shape}")
        for t, (lo, hi) in zip(arr, self.parameter_box):
            if not lo < t < hi:
                raise ValueError(f"theta component {t} outside the open box ({lo}, {hi})")
        return arr

    def validate_order(self, degree: int) -> None:
        if degree > self.max_order:
            raise ValueError(f"derivative order {degree} exceeds model order {self.max_order}")

    def index_set(self, order: int | None = None) -> IndexSet:
        return enumerate_indices(self.dim_theta, self.max_order if order is None else order)


def _quotient_degrees(num: np.ndarray, den) -> np.ndarray:
    """Derivatives 0..order of num / den in one variable, from those of num and den.

    Solves the Leibniz rule N_d = sum_j C(d, j) G_j D_(d-j) for G_d in
    increasing degree, overwriting num with the G_d.  den may list fewer
    derivatives than num; the missing ones are zero.
    """
    inv = 1.0 / den[0]
    scaled = [d_k * inv for d_k in den]
    for d, acc in enumerate(num):
        acc *= inv
        for j in range(max(0, d + 1 - len(den)), d):
            acc -= (math.comb(d, j) * scaled[d - j]) * num[j]
    return num


def _expand_degrees(by_degree, factors: np.ndarray, index_set: IndexSet) -> np.ndarray:
    """(K, ...) jet whose slot a is by_degree[|a|] times factors[a]."""
    out = np.empty((len(index_set),) + by_degree[0].shape)
    for k, degree in enumerate(index_set.degrees):
        np.multiply(by_degree[degree], factors[k], out=out[k])
    return out


def _slope_powers(slopes: np.ndarray, index_set: IndexSet) -> np.ndarray:
    """Per index a, the product over coordinates i of slopes[i] ** a_i."""
    out = np.empty((len(index_set),) + slopes.shape[1:])
    for k, alpha in enumerate(index_set.indices):
        factor = np.ones(slopes.shape[1:])
        for i, a_i in enumerate(alpha):
            if a_i:
                factor = factor * slopes[i] ** a_i
        out[k] = factor
    return out


def _truncated_normal(loc: float, scale: float, box, rng: np.random.Generator) -> float:
    """Rejection draw of loc + scale * N(0, 1) in the box, one normal per trial.

    The trials are capped, so a box far in the tail raises instead of hanging.
    """
    lo, hi = box
    for _ in range(SAMPLER_MAX_TRIALS):
        draw = loc + scale * rng.standard_normal()
        if lo <= draw <= hi:
            return draw
    raise ArithmeticError(
        f"no draw inside [{lo}, {hi}] after {SAMPLER_MAX_TRIALS} trials "
        f"from location {loc!r} with scale {scale!r}"
    )


@dataclass(frozen=True, eq=False)
class TruncatedNonlinearModel(ModelSpec):
    """Nonlinear Gaussian state-space model truncated to a box.

    Scalar state and observation.  The drift is theta . drift_features(x)
    with unit-variance Gaussian noise scaled by trans_scale; the
    observation map is theta . obs_features(x) with noise scaled by
    obs_scale.  The transition density is truncated and renormalized on
    the grid's box; the observation density is truncated to obs_box when
    one is given, and left as a proper Gaussian density on the whole
    real line otherwise.  transition_jet and observation_jet also evaluate
    the densities at broadcast points off the grid, for assumption_constants.
    """

    grid: StateGrid
    drift_features: tuple[str, ...]
    obs_features: tuple[str, ...]
    trans_scale: float
    obs_scale: float
    theta_box: tuple[tuple[float, float], ...]
    obs_box: tuple[float, float] | None = None
    order: int = 2
    obs_quad_cells: int = 161
    _obs_nodes: np.ndarray | None = field(default=None, repr=False)
    _obs_weights: np.ndarray | None = field(default=None, repr=False)
    _drift_scalars: tuple = field(init=False, repr=False)
    _obs_scalars: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.grid.dim != 1:
            raise ValueError("this model family is scalar-state; grid must be 1-D")
        if len(self.drift_features) != len(self.obs_features):
            raise ValueError("drift and observation need one feature per parameter")
        for name in self.drift_features + self.obs_features:
            if name not in FEATURE_FUNCTIONS:
                raise ValueError(f"unknown feature function {name!r}")
        if not (self.trans_scale > 0.0 and self.obs_scale > 0.0):
            raise ValueError("noise scales must be positive (gain invertibility)")
        if self.order not in (1, 2, 3):
            raise ValueError("supported derivative orders are 1, 2, 3")
        if len(self.theta_box) != len(self.drift_features):
            raise ValueError("theta_box needs one interval per parameter")
        if self.obs_box is not None:
            lo, hi = self.obs_box
            if not hi > lo:
                raise ValueError("obs_box must be a nondegenerate interval")
            n = int(self.obs_quad_cells)
            h = (hi - lo) / n
            nodes = lo + h * (np.arange(n) + 0.5)
            object.__setattr__(self, "_obs_nodes", nodes)
            object.__setattr__(self, "_obs_weights", np.full(n, h))
        for attr, names in (("_drift_scalars", self.drift_features), ("_obs_scalars", self.obs_features)):
            object.__setattr__(self, attr, tuple(_FEATURE_SCALARS[n] for n in names))

    @property
    def dim_theta(self) -> int:
        return len(self.drift_features)

    @property
    def max_order(self) -> int:
        return self.order

    @property
    def parameter_box(self) -> tuple[tuple[float, float], ...]:
        return self.theta_box

    @property
    def compact_observations(self) -> bool:
        return self.obs_box is not None

    # -- feature maps --------------------------------------------------------
    def _features(self, names: tuple[str, ...], x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([FEATURE_FUNCTIONS[n](x) for n in names])

    def observation_map(self, theta, x) -> np.ndarray:
        theta = theta_array(theta)
        return np.tensordot(theta, self._features(self.obs_features, x), axes=1)

    # -- kernel jets by degree ------------------------------------------------
    def _location_jet(self, names, scale, theta, x, index_set, ratios=False):
        """(evaluator, factors) for the jet of pdf((target - theta . features(x)) / scale).

        The location is affine in theta, so the mixed derivative for
        index a is pdf^(|a|) times factors[a], the product of the
        per-coordinate slopes raised to the entries of a.  Only the
        order + 1 Gaussian derivatives depend on the target; the
        evaluator returns them by degree, with the target broadcast
        against x.  With ratios=True they are divided by the pdf itself,
        which stays finite arbitrarily far into the tails.
        """
        feats = self._features(names, x)
        location = np.tensordot(theta_array(theta), feats, axes=1)
        factors = _slope_powers(-feats / scale, index_set)
        derivs = _gauss_ratio_derivs if ratios else _gauss_pdf_derivs
        order = index_set.order

        def at(target):
            return derivs((np.asarray(target, dtype=float) - location) / scale, order)

        return at, factors

    def observation_score_jet(self, theta, y, x, index_set) -> np.ndarray:
        """Observation jet divided by the density itself (slot 0 becomes one).

        On an unbounded observation domain the normalizer is constant in
        theta, so the scores are pure Hermite ratios and stay finite in
        the far tails where the density underflows.
        """
        theta = self.validate_theta(theta)
        self.validate_order(index_set.order)
        if self.obs_box is None:
            at, factors = self._location_jet(
                self.obs_features, self.obs_scale, theta, x, index_set, ratios=True
            )
            return _expand_degrees(at(y), factors, index_set)
        jet = self.observation_jet(theta, y, x, index_set)
        return jet / jet[0]

    # -- truncated densities ---------------------------------------------------
    def _transition_quotient(self, num, on_nodes, factors, index_set) -> np.ndarray:
        """Transition jet from the Gaussian derivatives by degree at the new states and the nodes.

        The normalizer's derivatives are the grid quadrature of on_nodes
        over its axis 1.  One tensordot over the whole stack keeps the
        degree-0 rows first in one BLAS product, as they always were, so
        slot 0 on the grid keeps its bits.
        """
        den = np.tensordot(on_nodes, self.grid.weights, axes=([1], [0]))
        if np.any(den[0] <= 0.0):
            raise ValueError("transition normalizer vanished on the grid")
        return _expand_degrees(_quotient_degrees(num, den), factors, index_set)

    def transition_jet(self, theta, x_new, x_old, index_set) -> np.ndarray:
        """Transition-density jet at (x_new | x_old), renormalized on the grid."""
        theta = self.validate_theta(theta)
        self.validate_order(index_set.order)
        x_old = np.asarray(x_old, dtype=float)
        at, factors = self._location_jet(
            self.drift_features, self.trans_scale, theta, x_old, index_set
        )
        nodes = self.grid.axis(0).reshape((-1,) + (1,) * x_old.ndim)
        return self._transition_quotient(at(x_new), at(nodes), factors, index_set)

    def transition_grid_jet(self, theta, index_set) -> np.ndarray:
        # The new states are the quadrature nodes, so one Gaussian
        # evaluation on the N x N grid serves the numerator and the normalizer.
        theta = self.validate_theta(theta)
        self.validate_order(index_set.order)
        x = self.grid.axis(0)
        at, factors = self._location_jet(self.drift_features, self.trans_scale, theta, x, index_set)
        on_grid = at(x[:, None])
        return self._transition_quotient(on_grid, on_grid, factors, index_set)

    def _observation_evaluator(self, theta, x, index_set):
        """Evaluator y -> observation-density jet at the states x.

        The feature values, slope powers and truncation normalizer depend
        only on theta and x, so they are built once; each observation
        then costs one Gaussian evaluation plus the quotient recursion.
        y may be an array that broadcasts against x.
        """
        theta = self.validate_theta(theta)
        self.validate_order(index_set.order)
        x = np.asarray(x, dtype=float)
        at, factors = self._location_jet(self.obs_features, self.obs_scale, theta, x, index_set)
        if self.obs_box is None:
            # Lebesgue normalizer over the real line: constant in theta.
            den = [self.obs_scale]
        else:
            nodes = self._obs_nodes.reshape((-1,) + (1,) * x.ndim)
            den = np.tensordot(at(nodes), self._obs_weights, axes=([1], [0]))
            if np.any(den[0] <= 0.0):
                raise ValueError("observation normalizer vanished on the quadrature")

        def evaluate(y):
            self._check_obs_domain(y)
            return _expand_degrees(_quotient_degrees(at(y), den), factors, index_set)

        return evaluate

    def observation_jet(self, theta, y, x, index_set) -> np.ndarray:
        """Observation-density jet at (y | x); y broadcasts against x."""
        return self._observation_evaluator(theta, x, index_set)(y)

    def observation_grid_factory(self, theta, index_set):
        return self._observation_evaluator(theta, self.grid.axis(0), index_set)

    def _check_obs_domain(self, y) -> None:
        # NaN fails every comparison.  A scalar y, one per filter step, skips NumPy.
        lo, hi = self.obs_box or (-math.inf, math.inf)
        if isinstance(y, float):
            inside = lo <= y <= hi and math.isfinite(y)
        else:
            y = np.asarray(y, dtype=float)
            inside = bool(np.all(np.isfinite(y) & (lo <= y) & (y <= hi)))
        if not inside:
            raise ValueError(f"observation {y!r} is not finite or lies outside [{lo}, {hi}]")

    # -- sampling ---------------------------------------------------------------
    def _scalar_location(self, features, theta, x: float) -> float:
        """theta . features(x) for one state, summed left to right as Python floats."""
        loc = 0.0
        for t, f in zip(theta_array(theta).tolist(), features):
            loc += t * f(x)
        return loc

    def transition_sample(self, theta, x, rng) -> float:
        loc = self._scalar_location(self._drift_scalars, theta, float(x))
        return _truncated_normal(loc, self.trans_scale, self.grid.bounds[0], rng)

    def observation_sample(self, theta, x, rng) -> float:
        loc = self._scalar_location(self._obs_scalars, theta, float(x))
        if self.obs_box is None:
            return loc + self.obs_scale * rng.standard_normal()
        return _truncated_normal(loc, self.obs_scale, self.obs_box, rng)


def kernel_matrix(model: ModelSpec, alpha, theta, y) -> np.ndarray:
    """Mixed kernel derivative tabulated on the model grid.

    Entry (i, j) is the alpha-derivative of the joint kernel at
    (y, x_i | x_j).  The filter never assembles this matrix; the
    path-sum oracle and the tests do.
    """
    alpha = MultiIndex(alpha)
    model.validate_order(alpha.degree)
    theta = model.validate_theta(theta)
    iset = enumerate_indices(model.dim_theta, alpha.degree)
    trans = model.transition_grid_jet(theta, iset)
    obs = model.observation_grid_factory(theta, iset)(y)
    out = np.zeros(trans.shape[1:])
    for coeff, b_slot, g_slot in pair_table(iset)[iset.slot(alpha)]:
        out += coeff * obs[b_slot][:, None] * trans[g_slot]
    return out


def simulate(model: ModelSpec, theta, lam0: GridMeasure, n: int, seed: int) -> Trajectory:
    """Sample a trajectory of the model dynamics, deterministic given the seed.

    X_0 is drawn from lam0 restricted to the grid nodes; each later step
    draws the state transition and then the observation.
    """
    if n < 1:
        raise ValueError("trajectory length must be >= 1")
    theta = model.validate_theta(theta)
    if not lam0.is_probability():
        raise ValueError("initial law must be a probability measure")
    if not lam0.grid.compatible(model.grid):
        raise ValueError("initial law grid differs from the model grid")
    rng = np.random.default_rng(seed)
    pmf = np.clip(lam0.density * lam0.grid.weights, 0.0, None)
    pmf = pmf / pmf.sum()
    states = np.empty(n + 1)
    observations = np.empty(n)
    states[0] = lam0.grid.axis(0)[rng.choice(lam0.grid.size, p=pmf)]
    for k in range(n):
        states[k + 1] = model.transition_sample(theta, states[k], rng)
        observations[k] = model.observation_sample(theta, states[k + 1], rng)
    return Trajectory(states=states, observations=observations, seed=seed)


@dataclass(frozen=True, eq=False)
class AssumptionConstants:
    """Empirical estimates of the mixing and score-envelope constants.

    epsilon is the two-sided mixing ratio built from grid extrema of the
    factor densities; psi_constant is the per-unit-degree score envelope;
    psi_values tabulates max_{a, x, x'} |d^a r| / r per sampled y;
    envelope_holds records whether the constructed envelope dominates
    the table at every sampled point.
    """

    variant: str
    epsilon: float
    psi_constant: float
    phi_bound: float
    density_min: float
    deriv_max: float
    psi_values: np.ndarray
    y_values: np.ndarray
    growth_exponent: float
    envelope_holds: bool


def assumption_constants(
    model: TruncatedNonlinearModel, theta_samples, y_samples
) -> AssumptionConstants:
    """Estimate the mixing/envelope constants by scanning grids and samples.

    Transition and observation densities (with all derivatives up to the
    model order) are evaluated on the grid for each sampled theta; the
    per-observation score table is the max ratio |d^a r| / r over states.
    """
    theta_samples = [model.validate_theta(t) for t in theta_samples]
    y_values = np.atleast_1d(np.asarray(y_samples, dtype=float))
    if len(theta_samples) == 0 or y_values.size == 0:
        raise ValueError("sample sets must be nonempty")

    iset = model.index_set()
    x = model.grid.axis(0)
    compact = model.compact_observations
    degrees = np.asarray(iset.degrees)

    p_min = math.inf
    p_deriv_max = 0.0
    q_max = 0.0
    q_all_max = 0.0
    q_scaled_ratio = 0.0
    ratio_max = np.zeros((y_values.size, len(iset)))
    table = pair_table(iset)
    for theta in theta_samples:
        trans = model.transition_grid_jet(theta, iset)
        if float(trans[0].min()) <= 0.0:
            raise ValueError("joint kernel vanished on the grid; mixing assumption fails")
        p_min = min(p_min, float(trans[0].min()))
        p_deriv_max = max(p_deriv_max, float(np.abs(trans).max()))
        p_scores = trans / trans[0]
        # Level constants come from the observation density over a scan set:
        # the quadrature nodes for a compact domain, a central probe band
        # plus the samples otherwise.
        if compact:
            y_scan = np.concatenate([y_values, model._obs_nodes])
        else:
            obs_locations = model.observation_map(theta, x)
            pad = 4.0 * model.obs_scale
            probe = np.linspace(obs_locations.min() - pad, obs_locations.max() + pad, 41)
            y_scan = np.concatenate([y_values, probe])
        obs = model.observation_jet(theta, y_scan[:, None], x[None, :], iset)
        q_max = max(q_max, float(obs[0].max()))
        q_all_max = max(q_all_max, float(np.abs(obs).max()))
        obs_scores = model.observation_score_jet(theta, y_scan[:, None], x[None, :], iset)
        if not compact:
            # Smallest constant dominating |d^b q| / (q (1+|y|)^(2|b|)).
            growth = (1.0 + np.abs(y_scan))[:, None]
            for k in range(1, len(iset)):
                scaled = np.abs(obs_scores[k]) / growth ** (2 * degrees[k])
                q_scaled_ratio = max(q_scaled_ratio, float(scaled.max()))
        # Joint-kernel score ratios on the sampled y only, assembled from the
        # factor scores so the far observation tails stay representable.
        score_y = obs_scores[:, : y_values.size, :]
        for k in range(1, len(iset)):
            num = np.zeros((y_values.size, x.size, x.size))
            for coeff, b_slot, g_slot in table[k]:
                num += coeff * score_y[b_slot][:, :, None] * p_scores[g_slot][None, :, :]
            ratio_max[:, k] = np.maximum(ratio_max[:, k], np.abs(num).max(axis=(1, 2)))
    psi_table = ratio_max.max(axis=1)

    if compact:
        eps1 = min(p_min, _compact_q_min(model, theta_samples, x))
        if eps1 <= 0.0:
            raise ValueError("zero kernel encountered; mixing assumption fails on the grid")
        k1 = max(p_deriv_max, q_all_max)
        epsilon = min(eps1 * eps1, 1.0 / (k1 * k1))
        psi_constant = 2.0 * k1 * k1 / (eps1 * eps1)
        phi_bound = k1 * k1
        envelope = np.full(y_values.size, psi_constant)
        density_min = eps1
        deriv_max = k1
    else:
        eps2 = p_min
        if eps2 <= 0.0:
            raise ValueError("zero kernel encountered; mixing assumption fails on the grid")
        k2 = p_deriv_max
        k3 = max(q_max, q_scaled_ratio, 1.0)
        epsilon = min(eps2, 1.0 / k2)
        psi_constant = 2.0 * k2 * k3 / (eps2 * eps2)
        phi_bound = k2 * k3
        envelope = psi_constant * (1.0 + np.abs(y_values)) ** 2
        density_min = eps2
        deriv_max = k2

    envelope_holds = True
    for k in range(1, len(iset)):
        if np.any(ratio_max[:, k] > envelope ** degrees[k] * (1.0 + 1e-9)):
            envelope_holds = False
    growth_exponent = _loglog_slope(1.0 + np.abs(y_values), psi_table)

    return AssumptionConstants(
        variant="compact" if compact else "unbounded",
        epsilon=float(epsilon),
        psi_constant=float(psi_constant),
        phi_bound=float(phi_bound),
        density_min=float(density_min),
        deriv_max=float(deriv_max),
        psi_values=psi_table,
        y_values=y_values,
        growth_exponent=float(growth_exponent),
        envelope_holds=envelope_holds,
    )


def _compact_q_min(model: TruncatedNonlinearModel, theta_samples, x) -> float:
    q_min = math.inf
    iset = enumerate_indices(model.dim_theta, 0)
    for theta in theta_samples:
        obs = model.observation_jet(theta, model._obs_nodes[:, None], x[None, :], iset)
        q_min = min(q_min, float(obs[0].min()))
    return q_min


def _loglog_slope(scale: np.ndarray, values: np.ndarray) -> float:
    mask = (values > 0.0) & (scale > 0.0)
    if mask.sum() < 2 or np.ptp(np.log(scale[mask])) == 0.0:
        return 0.0
    return float(np.polyfit(np.log(scale[mask]), np.log(values[mask]), 1)[0])
