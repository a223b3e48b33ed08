"""Independent ground-truth generators.

Everything here is deliberately dumb and expensive: the filter and the
likelihood by explicit kernel-product quadrature, parameter derivatives
by nested central differences with Richardson extrapolation, and the
stationary law by power iteration.  Cost guards are hard errors so the
oracles stay cheap enough to trust.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _fd_plan(alphas, dim, scheme):
    """The stencil points of alphas and each alpha's grid of them: (offsets, touched, reach, steps, folds).

    The nested difference of alpha runs one central stencil (_STENCILS)
    per differenced coordinate, in axis order, at h = steps[level] =
    base_step / 2**level for each Richardson level, so its points are
    the product of each coordinate's (level, shift) offsets shift * h,
    levels outer.  Point p, in the recursion's first-use order and
    listed once, is theta + offsets[p] where touched[p] and theta
    elsewhere; reach[i] is the largest order of coordinate i.
    folds[j] = (orders, rows) holds alphas[j]'s grid of point indices
    with the innermost differenced coordinate's axis first, and the
    orders of its coordinates in that order, as _difference takes them.
    """
    alphas = [MultiIndex(alpha) for alpha in alphas]
    if any(len(alpha) != dim for alpha in alphas):
        raise ValueError("alpha and theta dimensions differ")
    steps = tuple(math.ldexp(scheme.base_step, -level) for level in range(scheme.richardson_levels))
    index, folds = {}, []
    for alpha in alphas:
        axes = [i for i, order in enumerate(alpha) if order]
        shifts = [[shift * h for h in steps for shift, _ in _STENCILS[alpha[i]]] for i in axes]
        rows = [
            index.setdefault(tuple(dict(zip(axes, point)).get(i) for i in range(dim)), len(index))
            for point in itertools.product(*shifts)
        ]
        rows = np.array(rows, dtype=np.intp).reshape([len(s) for s in shifts]).T
        folds.append((tuple(alpha[i] for i in reversed(axes)), rows))
    offsets = np.array([[0.0 if s is None else s for s in p] for p in index], dtype=float).reshape(-1, dim)
    touched = np.array([[s is not None for s in p] for p in index], dtype=bool).reshape(-1, dim)
    reach = tuple(max(column) for column in zip(*alphas))
    for arr in (offsets, touched, *(rows for _, rows in folds)):
        arr.flags.writeable = False
    return offsets, touched, reach, steps, tuple(folds)


def _difference(values, orders, steps):
    """The nested differences of values along their leading axes, one per order, innermost first.

    Axis 0 holds a coordinate's points, levels outer and stencil shifts
    inner.  Each fold forms the stencil's terms, sums them left to right,
    divides each level by steps[level]**order and combines the levels by
    Richardson extrapolation: the recursion's IEEE operations in its
    order, so the bits are the recursion's.  Returns the remaining axes,
    flattened once a fold has run.
    """
    for order in orders:
        weights = np.array([weight for _, weight in _STENCILS[order]])
        terms = weights[:, None] * values.reshape(len(steps), len(weights), -1)
        acc = terms[:, 0]
        for j in range(1, len(weights)):
            acc = acc + terms[:, j]
        table = acc / np.array([h**order for h in steps])[:, None]
        for level in range(1, len(steps)):
            factor = 4.0**level
            table = (factor * table[1:] - table[:-1]) / (factor - 1.0)
        values = table[0]
    return values


def _plan_points(alphas, theta, scheme, bounds):
    """(points, steps, folds): the distinct stencil points of alphas at theta, the steps, and each alpha's fold.

    Each differenced coordinate of a point is theta_i + offset * h and
    every other one is theta_i itself.  points lists them once by their
    bytes, in first-use order, and each fold's rows index into points.
    ValueError when an alpha and theta differ in dimension, when bounds
    does not give one (lo, hi) per coordinate, when a stencil would come
    within 2 * alpha_i * base_step of a bound, or when the finest step
    is 0.0 or a nonzero offset leaves its coordinate of theta unchanged.
    """
    theta = np.asarray(theta, dtype=float)
    offsets, touched, reach, steps, folds = _fd_plan(tuple(map(tuple, alphas)), theta.shape[0], scheme)
    if bounds is not None:
        if len(bounds) != theta.shape[0]:
            raise ValueError(f"bounds has {len(bounds)} (lo, hi) pairs for {theta.shape[0]} parameters")
        for t, a, (lo, hi) in zip(theta, reach, bounds):
            margin = 2.0 * a * scheme.base_step
            if not (lo + margin < t < hi - margin):
                raise ValueError("finite-difference stencil would leave the parameter box")
    # every nonzero offset is at least h and rounding is monotone, so if theta_i +- h moves, all do
    h = steps[-1]
    if h == 0.0 or any(a and (t + h == t or t - h == t) for t, a in zip(theta.tolist(), reach)):
        raise ValueError(f"finite-difference step {h!r} cannot move theta {tuple(theta.tolist())}")
    points = np.where(touched, theta + offsets, theta)
    index = {}
    rows = np.array([index.setdefault(point.tobytes(), len(index)) for point in points], dtype=np.intp)
    # the keys are the distinct points' bytes, in first-use order
    points = np.frombuffer(b"".join(index)).reshape(-1, theta.shape[0])
    return points, steps, [(orders, rows[grid]) for orders, grid in folds]


def fd_derivative(f, alpha, theta, scheme: FDScheme = FDScheme(), bounds=None):
    """Mixed parameter derivative of f by nested central differences.

    Coordinates are differenced one at a time following the entries of
    alpha, each with Richardson extrapolation by step halving: f's
    values on alpha's grid of stencil points (_fd_plan) are folded one
    coordinate at a time, the innermost first (_difference).  f returns
    a float or an ndarray; the result has the same shape.  f runs once
    per distinct parameter point, compared by its bytes (_plan_points).
    alpha may also be a sequence of multi-indices, which share their
    evaluations: the result is then the list of their derivatives.
    """
    many = not len(alpha) or np.ndim(alpha[0]) > 0
    points, steps, folds = _plan_points(alpha if many else [alpha], theta, scheme, bounds)
    table = np.array([np.asarray(f(point.copy()), dtype=float) for point in points])
    results = list(np.array([_difference(table[rows], orders, steps).reshape(table.shape[1:]) for orders, rows in folds]))
    return results if many else results[0]


def stencil_points(alphas, theta, scheme: FDScheme = FDScheme(), bounds=None) -> list[np.ndarray]:
    """theta, then the other distinct points at which fd_derivative evaluates f for alphas at theta.

    The points after theta are those of the alphas' grids (_fd_plan), in
    the order the nested differences first use them, each listed once by
    its bytes (_plan_points).  Raises fd_derivative's ValueError when a
    stencil would leave the bounds or its finest step cannot move theta.
    """
    points = _plan_points(alphas, theta, scheme, bounds)[0]
    theta = np.asarray(theta, dtype=float)
    key = theta.tobytes()
    return [theta] + [point for point in points if point.tobytes() != key]


def fd_derivatives(f, alphas, theta, scheme: FDScheme = FDScheme(), bounds=None) -> list:
    """fd_derivative of every alpha at theta, from one call of f on a stack of points.

    f takes the (P, dim) stack of stencil_points, theta first, and
    returns their P values in order.  It runs once, inside the one
    fd_derivative call over all alphas, and each result equals that of
    fd_derivative with f evaluated point by point, provided f gives each
    point of a stack the value it gives the point alone.
    """
    points = stencil_points(alphas, theta, scheme, bounds)
    values = {}

    def lookup(point):
        if not values:
            values.update(zip((p.tobytes() for p in points), f(np.stack(points))))
        return values[point.tobytes()]

    return fd_derivative(lookup, alphas, theta, scheme, bounds)


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
