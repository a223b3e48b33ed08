"""Parametric state-space models with analytic parameter derivatives.

ModelSpec is the contract the filter consumes: the transition jet and
an observation-jet evaluator tabulated on the model grid, plus the
samplers that simulation draws from, one state at a time and over rows.

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
from .seeding import NormalStreams

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rejection trials a truncated sampler makes before it gives up.
SAMPLER_MAX_TRIALS = 10**6
# Widest block of its stream a pending row reads in one rejection round:
# alone, and with the rows of other streams.
_ROUND_WIDTH_MAX, _SHARED_WIDTH_MAX = 1024, 32
# Midpoint cells of the compact observation normalizer's quadrature over obs_box.
_OBS_QUAD_CELLS = 161

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


def _gauss_ratio_derivs(z: np.ndarray, order: int, out: np.ndarray | None = None) -> np.ndarray:
    """(order + 1, ...) ratios pdf^(k)(z) / pdf(z) for the standard normal, in out if given.

    These are signed Hermite polynomials via the recurrence
    r_(k+1) = -z r_k - k r_(k-1); they stay representable even where
    the pdf itself underflows.
    """
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty((order + 1,) + z.shape)
    out[0] = 1.0
    for k in range(order):
        np.multiply(-z, out[k], out=out[k + 1])
        if k:
            out[k + 1] -= k * out[k - 1]
    return out


def _gauss_pdf_derivs(z: np.ndarray, order: int, out: np.ndarray | None = None) -> np.ndarray:
    """(order + 1, ...) derivatives of the standard normal pdf at z, in out if given."""
    out = _gauss_ratio_derivs(z, order, out)
    out *= np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / _SQRT_2PI
    return out


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
    samplers.  A subclass sets ``grid`` and provides the nine abstract
    members; the checks, index set and kernel keys come with the base.
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
        """(K, N, N) transition jet on the grid: slot, new state, old state.

        theta is a (dim_theta,) array that validate_theta has passed,
        and index_set's order is within max_order.  The callers
        (KernelCache, kernel_matrix, assumption_constants) check both
        once, so the model does not check them again.  The derivative
        sweep differences slot 0 of order-0 passes; a model whose slot 0
        depends on the order gets the same sweep verdict, to rounding.
        """

    @abc.abstractmethod
    def observation_grid_factory(self, theta, index_set: IndexSet):
        """Evaluator y -> (K, N) observation-density jet on the grid.

        A float y gives (K, N); an (R, 1) column of observations, which a
        step over R replicas passes, gives (K, R, N).  The factory runs
        once per kernel_keys observation key and the evaluator once per
        step: build everything that depends only on theta here, and
        everything that depends on neither theta nor y once per model.
        theta and index_set come checked, as for transition_grid_jet.
        """

    @abc.abstractmethod
    def transition_sample(self, theta, x: float, rng: np.random.Generator) -> float: ...

    @abc.abstractmethod
    def observation_sample(self, theta, x: float, rng: np.random.Generator) -> float: ...

    @abc.abstractmethod
    def transition_samples(self, theta, xs: np.ndarray, normals: NormalStreams) -> np.ndarray:
        """(R,) next states of the (R,) states xs; row i reads row i of normals.

        Row i's draw and the normals it consumes equal those of
        transition_sample at xs[i] with row i's stream as the generator.
        """

    @abc.abstractmethod
    def observation_samples(self, theta, xs: np.ndarray, normals: NormalStreams) -> np.ndarray:
        """(R,) observations of the (R,) states xs, row for row as observation_sample."""

    def kernel_keys(self, theta) -> tuple[bytes, bytes]:
        """(transition_key, observation_key) of a checked theta.

        Points with equal keys must get bit-identical transition jets
        (observation evaluators): a stacked cache builds one per key.
        The default, theta's bytes, builds one per point.
        """
        key = theta.tobytes()
        return key, key

    def validate_theta(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=float)
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


def _integrate(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(D, M) sums over the last axis of C-contiguous (D, M, N) values against (N,) weights.

    One BLAS matrix-vector product on a (D * M, N) row-major view, the matrix
    np.tensordot sums for the tests' reference build.  BLAS rounds the last
    rows of a product by its row count, so the normalizers pass D >= 2.
    """
    d, m, n = values.shape
    return np.dot(values.reshape(d * m, n), weights.reshape(n, 1)).reshape(d, m)


def _across_points(location: np.ndarray, points: np.ndarray, scale: float, order: int, out=None) -> np.ndarray:
    """(order + 1, N, M) pdf derivatives at (points - location) / scale, the layout _integrate sums."""
    return _gauss_pdf_derivs((points[None, :] - location[:, None]) / scale, order, out)


def _location(tables, theta) -> np.ndarray:
    """(N,) theta . features on the grid, as np.tensordot sums it: a (1, dim) row times the table."""
    return np.dot(np.reshape(theta, (1, -1)), tables[0]).reshape(-1)


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


def _trials_exhausted(box, loc: float, scale: float) -> ArithmeticError:
    lo, hi = box
    return ArithmeticError(
        f"no draw inside [{lo}, {hi}] after {SAMPLER_MAX_TRIALS} trials "
        f"from location {loc!r} with scale {scale!r}"
    )


def _truncated_normal(loc: float, scale: float, box, rng: np.random.Generator) -> float:
    """Rejection draw of loc + scale * N(0, 1) in the box, one normal per trial.

    The trials are capped, so a box far in the tail raises instead of hanging.
    """
    lo, hi = box
    for _ in range(SAMPLER_MAX_TRIALS):
        draw = loc + scale * rng.standard_normal()
        if lo <= draw <= hi:
            return draw
    raise _trials_exhausted(box, loc, scale)


def _rejection_round(locs, scale, box, normals, rows, width, out) -> np.ndarray:
    """Rows try the next width normals of their streams; returns those still pending.

    An accepting row takes its first in-box draw and consumes the normals
    up to it, as the one-at-a-time loop does.
    """
    lo, hi = box
    draws = locs[rows][:, None] + scale * normals.peek(rows, width)
    inside = (lo <= draws) & (draws <= hi)
    hit = inside.any(axis=1)
    first = inside.argmax(axis=1)
    # A pending row's entry is a rejected draw until a later round overwrites it.
    out[rows] = draws[np.arange(rows.size), first]
    normals.advance(rows, np.where(hit, first + 1, width))
    return rows[~hit]


def _truncated_normals(locs: np.ndarray, scale: float, box, normals: NormalStreams) -> np.ndarray:
    """_truncated_normal for every row, in vectorized rounds over the rows still pending.

    Row i draws locs[i] + scale * z over row i's normals z, so it accepts
    the draw and consumes the normals that the scalar loop does, and it
    gives up after the same number of trials with the same error.  The
    pending rows read blocks of 1, 2, 4, ..., 32 normals together; rows
    still pending sit in a tail and go on one stream at a time.  So in a
    box no row reaches, the first stream's rows raise after their own
    trials, and no block of every stuck row is wider than 32.
    """
    out = np.empty(locs.shape)
    rows, trials, width = np.arange(locs.size), 0, 1
    while rows.size and width <= _SHARED_WIDTH_MAX and trials < SAMPLER_MAX_TRIALS:
        width = min(width, SAMPLER_MAX_TRIALS - trials)
        rows = _rejection_round(locs, scale, box, normals, rows, width, out)
        trials += width
        width *= 2
    streams = normals.streams[rows]
    for stream in dict.fromkeys(streams.tolist()):
        group, spent = rows[streams == stream], trials
        while group.size:
            if spent == SAMPLER_MAX_TRIALS:
                raise _trials_exhausted(box, float(locs[group[0]]), scale)
            width = min(_ROUND_WIDTH_MAX, SAMPLER_MAX_TRIALS - spent)
            group = _rejection_round(locs, scale, box, normals, group, width, out)
            spent += width
    return out


@dataclass(frozen=True, eq=False)
class TruncatedNonlinearModel(ModelSpec):
    """Nonlinear Gaussian state-space model truncated to a box.

    Scalar state and observation.  The drift is theta . drift_features(x)
    with unit-variance Gaussian noise scaled by trans_scale; the
    observation map is theta . obs_features(x) with noise scaled by
    obs_scale.  The transition density is truncated and renormalized on
    the grid's box; the observation density is truncated to obs_box when
    one is given, and left as a proper Gaussian density on the whole
    real line otherwise.  Both kernel jets are evaluated at the grid
    states only.  order, the highest derivative degree, is 0 to 3; an
    order-0 build computes slot 0 alone, to the bit of a higher order.

    Their work splits by what it depends on.  Per model: the feature
    values on the grid and the slope powers of every index (the
    (features, factors) tables).  Per theta: the locations, the whole
    transition jet and the observation normalizer.  Per observation: the
    Gaussian derivatives at y, the quotient recursion and the products
    with the slope powers.
    """

    grid: StateGrid
    drift_features: tuple[str, ...]
    obs_features: tuple[str, ...]
    trans_scale: float
    obs_scale: float
    theta_box: tuple[tuple[float, float], ...]
    obs_box: tuple[float, float] | None = None
    order: int = 2
    _obs_nodes: np.ndarray | None = field(default=None, init=False, repr=False)
    _obs_weights: np.ndarray | None = field(default=None, init=False, repr=False)
    _drift_scalars: tuple = field(init=False, repr=False)
    _obs_scalars: tuple = field(init=False, repr=False)
    _drift_tables: tuple = field(init=False, repr=False)
    _obs_tables: tuple = field(init=False, repr=False)

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
        if self.order not in (0, 1, 2, 3):
            raise ValueError("supported derivative orders are 0, 1, 2, 3")
        if len(self.theta_box) != len(self.drift_features):
            raise ValueError("theta_box needs one interval per parameter")
        nodes = weights = None
        if self.obs_box is not None:
            lo, hi = self.obs_box
            if not hi > lo:
                raise ValueError("obs_box must be a nondegenerate interval")
            h = (hi - lo) / _OBS_QUAD_CELLS
            nodes, weights = lo + h * (np.arange(_OBS_QUAD_CELLS) + 0.5), np.full(_OBS_QUAD_CELLS, h)
        object.__setattr__(self, "_obs_nodes", nodes)
        object.__setattr__(self, "_obs_weights", weights)
        for attr, names in (("_drift_scalars", self.drift_features), ("_obs_scalars", self.obs_features)):
            object.__setattr__(self, attr, tuple(_FEATURE_SCALARS[n] for n in names))
        # (features, factors) on the grid states: the feature values and, per
        # index of the full index set, the slope powers.  Index sets are
        # graded, so a lower-order set's factors are a prefix of these.
        full = self.index_set()
        for attr, names, scale in (
            ("_drift_tables", self.drift_features, self.trans_scale),
            ("_obs_tables", self.obs_features, self.obs_scale),
        ):
            feats = self._features(names, self.grid.axis(0))
            object.__setattr__(self, attr, (feats, _slope_powers(-feats / scale, full)))

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

    # -- kernel jets by degree on the grid -----------------------------------
    def _location_jet(self, tables, scale, location, index_set, ratios=False):
        """(evaluator, factors) for the jet of pdf((target - theta . features(x)) / scale).

        x runs over the grid states, and tables is the model's (features,
        factors) of the drift or of the observation map.  The location is
        affine in theta, so the mixed derivative for index a is
        pdf^(|a|) times factors[a], the product of the per-coordinate
        slopes raised to the entries of a.  Only the order + 1 Gaussian
        derivatives depend on the target; the evaluator returns them by
        degree, with the target broadcast against the states.  With
        ratios=True they are divided by the pdf itself, which stays
        finite arbitrarily far into the tails.
        """
        derivs = _gauss_ratio_derivs if ratios else _gauss_pdf_derivs

        def at(target):
            return derivs((np.asarray(target, dtype=float) - location) / scale, index_set.order)

        return at, tables[1][: len(index_set)]

    def kernel_keys(self, theta) -> tuple[bytes, bytes]:
        """The bytes of the drift and the observation location, the arrays the jets are computed from.

        The shipped drift and observation map each read one coordinate of
        theta, so their keys repeat along a finite-difference stencil.
        """
        return _location(self._drift_tables, theta).tobytes(), _location(self._obs_tables, theta).tobytes()

    def transition_grid_jet(self, theta, index_set) -> np.ndarray:
        # The new states are the quadrature nodes, so one Gaussian evaluation on
        # the grid serves numerator and normalizer; two degrees at least, so an
        # order-0 jet is the slot-0 prefix of the order-1 jet (see _integrate).
        # The build runs in the array it returns: a temporary that large would be
        # unmapped after every build and page-fault in again at the next.  Its
        # first slots hold the degrees as (old state, new state); the slots
        # overwrite them from the last down, and slot k has degree at most k.
        order, n, size = index_set.order, self.grid.size, len(index_set)
        degrees = max(order, 1) + 1
        out = np.empty((max(size, degrees), n, n))
        location = _location(self._drift_tables, theta)
        num = _across_points(location, self.grid.axis(0), self.trans_scale, degrees - 1, out[:degrees])
        den = _integrate(num, self.grid.weights)[: order + 1]
        if np.any(den[0] <= 0.0):
            raise ValueError("transition normalizer vanished on the grid")
        _quotient_degrees(num[: order + 1], den[:, :, None])
        for k in reversed(range(size)):
            np.multiply(num[index_set.degrees[k]].T, self._drift_tables[1][k], out=out[k])
        return out[:size]

    def observation_grid_factory(self, theta, index_set):
        """Evaluator y -> observation-density jet at the grid states.

        This builds the location and the truncation normalizer; each y
        then costs one Gaussian evaluation, the quotient recursion and
        the products with the slope powers.
        """
        location = _location(self._obs_tables, theta)
        at, factors = self._location_jet(self._obs_tables, self.obs_scale, location, index_set)
        if self.obs_box is None:
            # Lebesgue normalizer over the real line: constant in theta.
            den = [self.obs_scale]
        else:
            order = index_set.order
            on_nodes = _across_points(location, self._obs_nodes, self.obs_scale, max(order, 1))
            den = _integrate(on_nodes, self._obs_weights)[: order + 1]
            if np.any(den[0] <= 0.0):
                raise ValueError("observation normalizer vanished on the quadrature")

        def evaluate(y):
            self._check_obs_domain(y)
            return _expand_degrees(_quotient_degrees(at(y), den), factors, index_set)

        return evaluate

    def _check_obs_domain(self, y) -> None:
        # NaN fails every comparison.  A scalar y, one per filter step, skips NumPy.
        lo, hi = self.obs_box or (-math.inf, math.inf)
        if isinstance(y, float):
            if lo <= y <= hi and math.isfinite(y):
                return
        else:
            y = np.asarray(y, dtype=float)
            inside = np.isfinite(y) & (lo <= y) & (y <= hi)
            if inside.all():
                return
            y = float(y[~inside][0])
        raise ValueError(f"observation {y!r} is not finite or lies outside [{lo}, {hi}]")

    # -- sampling ---------------------------------------------------------------
    def _scalar_location(self, features, theta, x: float) -> float:
        """theta . features(x) for one state, summed left to right as Python floats."""
        loc = 0.0
        for t, f in zip(np.asarray(theta, dtype=float).tolist(), features):
            loc += t * f(x)
        return loc

    def _row_locations(self, features, theta, xs) -> np.ndarray:
        """_scalar_location of every row: the same feature floats, summed in the same order."""
        xs = np.asarray(xs, dtype=float).tolist()
        loc = np.zeros(len(xs))
        for t, f in zip(np.asarray(theta, dtype=float).tolist(), features):
            loc += t * np.fromiter(map(f, xs), float, len(xs))
        return loc

    def transition_sample(self, theta, x, rng) -> float:
        loc = self._scalar_location(self._drift_scalars, theta, float(x))
        return _truncated_normal(loc, self.trans_scale, self.grid.bounds[0], rng)

    def observation_sample(self, theta, x, rng) -> float:
        loc = self._scalar_location(self._obs_scalars, theta, float(x))
        if self.obs_box is None:
            return loc + self.obs_scale * rng.standard_normal()
        return _truncated_normal(loc, self.obs_scale, self.obs_box, rng)

    def transition_samples(self, theta, xs, normals) -> np.ndarray:
        locs = self._row_locations(self._drift_scalars, theta, xs)
        return _truncated_normals(locs, self.trans_scale, self.grid.bounds[0], normals)

    def observation_samples(self, theta, xs, normals) -> np.ndarray:
        locs = self._row_locations(self._obs_scalars, theta, xs)
        if self.obs_box is None:
            rows = np.arange(locs.size)
            draws = locs + self.obs_scale * normals.peek(rows, 1)[:, 0]
            normals.advance(rows, 1)
            return draws
        return _truncated_normals(locs, self.obs_scale, self.obs_box, normals)


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

    p_min = q_min = math.inf
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
        # Level constants come from the observation density over a scan set: the
        # samples plus the quadrature nodes for a compact domain, where slot 0 at
        # the nodes bounds the density below, or plus a central probe band.
        if compact:
            y_scan = np.concatenate([y_values, model._obs_nodes])
        else:
            obs_locations = _location(model._obs_tables, theta)
            pad = 4.0 * model.obs_scale
            probe = np.linspace(obs_locations.min() - pad, obs_locations.max() + pad, 41)
            y_scan = np.concatenate([y_values, probe])
        obs = model.observation_grid_factory(theta, iset)(y_scan[:, None])
        q_max = max(q_max, float(obs[0].max()))
        q_all_max = max(q_all_max, float(np.abs(obs).max()))
        # Observation scores d^b q / q.  On an unbounded observation domain
        # the normalizer is constant in theta, so they are pure Hermite
        # ratios and stay finite in the far tails where q underflows.
        if compact:
            if not obs[0].min() > 0.0:
                j, i = np.unravel_index(np.argmin(obs[0]), obs[0].shape)
                where = f"at y = {float(y_scan[j])!r}, grid state x = {float(x[i])!r}"
                raise ArithmeticError(f"observation density underflows to 0 {where}; mixing assumption fails there")
            q_min = min(q_min, float(obs[0, y_values.size :].min()))
            obs_scores = obs / obs[0]
        else:
            at, factors = model._location_jet(
                model._obs_tables, model.obs_scale, obs_locations, iset, ratios=True
            )
            obs_scores = _expand_degrees(at(y_scan[:, None]), factors, iset)
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
        eps1 = min(p_min, q_min)
        k1 = max(p_deriv_max, q_all_max)
        epsilon = min(eps1 * eps1, 1.0 / (k1 * k1))
        psi_constant = _envelope_constant("2*k1**2/eps1**2", 2.0 * k1 * k1, eps1, k1=k1, eps1=eps1)
        phi_bound = k1 * k1
        envelope = np.full(y_values.size, psi_constant)
        density_min = eps1
        deriv_max = k1
    else:
        eps2 = p_min
        k2 = p_deriv_max
        k3 = max(q_max, q_scaled_ratio, 1.0)
        epsilon = min(eps2, 1.0 / k2)
        psi_constant = _envelope_constant("2*k2*k3/eps2**2", 2.0 * k2 * k3, eps2, k2=k2, k3=k3, eps2=eps2)
        phi_bound = k2 * k3
        with np.errstate(over="ignore"):
            envelope = psi_constant * (1.0 + np.abs(y_values)) ** 2
        density_min = eps2
        deriv_max = k2

    envelope_holds = True
    for k in range(1, len(iset)):
        with np.errstate(over="ignore"):
            bound = envelope ** degrees[k] * (1.0 + 1e-9)
        if not np.isfinite(bound).all():
            top = f"envelope up to {float(envelope.max())!r} from psi_constant {psi_constant!r}"
            raise ArithmeticError(f"score envelope to the power {degrees[k]} leaves float range: {top}")
        if np.any(ratio_max[:, k] > bound):
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


def _envelope_constant(formula: str, num: float, eps: float, **inputs) -> float:
    """num / eps**2, the score-envelope constant; ArithmeticError naming it and its inputs outside float range."""
    value = num / (eps * eps) if eps * eps > 0.0 else math.inf
    if not math.isfinite(value):
        named = ", ".join(f"{key} = {v!r}" for key, v in inputs.items())
        raise ArithmeticError(f"score-envelope constant psi_constant = {formula} leaves float range at {named}")
    return value


def _loglog_slope(scale: np.ndarray, values: np.ndarray) -> float:
    mask = (values > 0.0) & (scale > 0.0)
    if mask.sum() < 2 or np.ptp(np.log(scale[mask])) == 0.0:
        return 0.0
    return float(np.polyfit(np.log(scale[mask]), np.log(values[mask]), 1)[0])
