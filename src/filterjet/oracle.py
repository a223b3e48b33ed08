"""Independent ground-truth generators.

Everything here is deliberately dumb and expensive: the filter and the
likelihood by explicit kernel-product quadrature, parameter derivatives
by nested central differences with Richardson extrapolation, and the
stationary law by power iteration.  Cost guards are hard errors so the
oracles stay cheap enough to trust.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .filtering import _observation_block
from .grid import GridMeasure
from .models import ModelSpec, kernel_matrix
from .multiindex import MultiIndex

ORACLE_MAX_STEPS = 6
ORACLE_MAX_POINTS = 16


@dataclass(frozen=True)
class FDScheme:
    """Central differencing plan: base step, Richardson levels."""

    base_step: float = 1e-3
    richardson_levels: int = 2

    def __post_init__(self):
        # NaN fails the comparison; an infinite step would difference to nan.
        if not 0.0 < self.base_step < math.inf:
            raise ValueError(f"base step must be finite and positive, got {self.base_step!r}")
        levels = self.richardson_levels
        if isinstance(levels, bool) or not isinstance(levels, numbers.Integral) or levels < 1:
            raise ValueError(f"Richardson levels must be an integer of at least 1, got {levels!r}")


def _path_sum(model: ModelSpec, theta, observations, lam: GridMeasure):
    """(raw, mass, log_scale): the n-step kernel product r(y_1..y_n, x | x') applied to lam, and its mass.

    Both are their true values over exp(log_scale): after every step the
    running (N, N) product is divided by its largest entry, whose logs
    log_scale sums, so a likelihood far below the smallest double neither
    underflows nor loses precision.  ArithmeticError unless mass > 0.
    """
    if not lam.grid.compatible(model.grid):
        raise ValueError("initial measure grid differs from the model grid")
    observations = _observation_block(observations)
    n = observations.shape[0]
    grid = model.grid
    if n < 1:
        raise ValueError("the path-sum oracle needs at least one observation")
    if n > ORACLE_MAX_STEPS:
        raise ValueError(f"path-sum oracle limited to {ORACLE_MAX_STEPS} steps, got {n}")
    if grid.size > ORACLE_MAX_POINTS:
        raise ValueError(
            f"path-sum oracle limited to {ORACLE_MAX_POINTS} grid points, got {grid.size}"
        )
    zero = MultiIndex.zero(model.dim_theta)
    mat, log_scale = None, 0.0
    for y in observations:
        step = kernel_matrix(model, zero, theta, y)
        mat = step if mat is None else step @ (grid.weights[:, None] * mat)
        scale = float(mat.max())
        if not scale > 0.0:
            raise ArithmeticError("path-sum mass is not positive")
        mat, log_scale = mat / scale, log_scale + math.log(scale)
    raw = mat @ (lam.density * lam.grid.weights)
    mass = float(np.dot(raw, lam.grid.weights))
    if not mass > 0.0:
        raise ArithmeticError("path-sum mass is not positive")
    return raw, mass, log_scale


def oracle_filter(model: ModelSpec, theta, observations, lam: GridMeasure) -> GridMeasure:
    """Filtering distribution by explicit path-sum quadrature.

    Multiplies the one-step kernel matrices through the observation
    block, applies the initial measure, and normalizes; scaling lam by
    any positive constant leaves the result unchanged.
    """
    raw, mass, _ = _path_sum(model, theta, observations, lam)
    return GridMeasure(raw / mass, lam.grid)


def oracle_log_likelihood(model: ModelSpec, theta, observations, lam: GridMeasure) -> float:
    """log of the joint observation density by explicit path-sum quadrature."""
    _, mass, log_scale = _path_sum(model, theta, observations, lam)
    return math.log(mass) + log_scale


_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


def _stencil_eval(f, theta, axis, order, h):
    """Second-order central stencil for one coordinate, one derivative order."""
    acc = None
    for offset, coeff in _STENCILS[order]:
        point = np.array(theta, dtype=float)
        point[axis] += offset * h
        val = coeff * f(point)
        acc = val if acc is None else acc + val
    return acc / h**order


def _richardson(samples):
    """Extrapolate a sequence D(h), D(h/2), ... with error series in h^2."""
    table = list(samples)
    level = 1
    while len(table) > 1:
        factor = 4.0**level
        table = [(factor * b - a) / (factor - 1.0) for a, b in zip(table, table[1:])]
        level += 1
    return table[0]


def fd_derivative(f, alpha, theta, scheme: FDScheme = FDScheme(), bounds=None):
    """Mixed parameter derivative of f by nested central differences.

    Coordinates are differenced one at a time following the entries of
    alpha, each with Richardson extrapolation by step halving.  f
    returns a float or an ndarray; the result has the same shape.
    Every evaluation of f is memoized by the bytes of its parameter
    point, so a repeated stencil point costs one call.
    """
    alpha = MultiIndex(alpha)
    theta = np.asarray(theta, dtype=float)
    if len(alpha) != theta.shape[0]:
        raise ValueError("alpha and theta dimensions differ")
    if bounds is not None:
        for t, a, (lo, hi) in zip(theta, alpha, bounds):
            margin = 2.0 * a * scheme.base_step
            if not (lo + margin < t < hi - margin):
                raise ValueError("finite-difference stencil would leave the parameter box")

    memo = {}

    def derive(point, remaining):
        for axis in range(len(remaining)):
            if remaining[axis] > 0:
                break
        else:
            key = point.tobytes()
            if key not in memo:
                memo[key] = np.asarray(f(point.copy()), dtype=float)
            return memo[key]
        order = remaining[axis]
        rest = list(remaining)
        rest[axis] = 0
        inner = lambda q: derive(q, rest)  # noqa: E731 - tiny closure
        levels = []
        for level in range(scheme.richardson_levels):
            h = scheme.base_step / 2.0**level
            levels.append(_stencil_eval(inner, point, axis, order, h))
        return _richardson(levels)

    return derive(theta, list(alpha))


def stencil_points(alphas, theta, scheme: FDScheme = FDScheme(), bounds=None) -> list[np.ndarray]:
    """theta, then the other distinct points at which fd_derivative evaluates f for alphas at theta.

    Runs fd_derivative itself over the alphas with a recording f, so the
    points after theta, in first-use order, are those of its stencils
    exactly.  Raises fd_derivative's ValueError when a stencil would
    leave the bounds.
    """
    theta = np.asarray(theta, dtype=float)
    points = {theta.tobytes(): theta}

    def record(point):
        points.setdefault(point.tobytes(), point)
        return 0.0

    for alpha in alphas:
        fd_derivative(record, alpha, theta, scheme, bounds)
    return list(points.values())


def fd_derivatives(f, alphas, theta, at_theta, scheme: FDScheme = FDScheme(), bounds=None) -> list:
    """fd_derivative of every alpha at theta, from one call of f on a stack of points.

    at_theta is f's value at theta, which the caller already has.  f
    takes the (P, dim) stack of the other stencil_points and returns
    their P values in order.  It runs once, inside the first
    fd_derivative that needs a point other than theta, and each result
    equals that of fd_derivative with f evaluated point by point,
    provided f gives each point of a stack the value it gives the point
    alone.
    """
    points = stencil_points(alphas, theta, scheme, bounds)
    values = {points[0].tobytes(): at_theta}

    def lookup(point):
        key = point.tobytes()
        if key not in values:
            values.update(zip((p.tobytes() for p in points[1:]), f(np.stack(points[1:]))))
        return values[key]

    return [fd_derivative(lookup, alpha, theta, scheme, bounds) for alpha in alphas]


@dataclass(frozen=True, eq=False)
class StationaryLaw:
    """Stationary law of the truncated transition kernel on the grid."""

    law: GridMeasure
    second_eigenvalue: float
    iterations: int


def stationary_law(
    model: ModelSpec,
    theta,
    tol: float = 1e-12,
    max_iterations: int = 100_000,
) -> StationaryLaw:
    """Power iteration for the stationary density and the spectral gap.

    Iterates the transition operator to a fixed point in total
    variation, then runs a second power iteration on the mass-deflated
    operator to estimate the second-largest eigenvalue modulus.
    """
    grid = model.grid
    theta = model.validate_theta(theta)
    iset = model.index_set(0)
    trans = model.transition_grid_jet(theta, iset)[0]
    if trans.min() <= 0.0:
        raise ValueError("transition kernel is not positive on the grid")
    w = grid.weights

    dens = np.full(grid.size, 1.0 / grid.volume)
    steps = 0
    while True:
        new = trans @ (dens * w)
        new /= np.dot(new, w)
        steps += 1
        if float(np.dot(np.abs(new - dens), w)) < tol:
            dens = new
            break
        dens = new
        if steps >= max_iterations:
            raise ArithmeticError(f"power iteration did not converge in {max_iterations} steps")

    # Deflate the unit eigenvalue: the operator preserves total mass, so
    # restricting to zero-mass densities isolates the subdominant mode.
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.size)
    v -= np.dot(v, w) / grid.volume
    v /= np.dot(np.abs(v), w)
    rate = 0.0
    for k in range(max_iterations):
        image = trans @ (v * w)
        image -= dens * np.dot(image, w)
        norm = float(np.dot(np.abs(image), w))
        if norm == 0.0:
            rate = 0.0
            break
        new_rate = norm
        v = image / norm
        if k > 0 and abs(new_rate - rate) <= 1e-12 * max(new_rate, 1e-30):
            rate = new_rate
            break
        rate = new_rate
    else:
        raise ArithmeticError("second-eigenvalue power iteration did not converge")

    return StationaryLaw(law=GridMeasure(dens, grid), second_eigenvalue=rate, iterations=steps)
