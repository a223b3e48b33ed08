"""Discretized state space and the signed-measure vocabulary built on it.

The reference measure is a midpoint-rule quadrature on a uniform grid
over a box: integrating any function against it is a weighted dot
product.  Signed measures are stored as densities with respect to that
quadrature; vector measures stack one density per multi-index slot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multiindex import IndexSet

PROBABILITY_TOL = 1e-12


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StateGrid:
    """Midpoint quadrature over a box in 1 or 2 dimensions.

    points : (N, dim) cell midpoints
    weights : (N,) positive cell measures summing to the box volume
    bounds : (dim, 2) the box itself
    """

    points: np.ndarray
    weights: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(np.atleast_2d(self.points)))
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "bounds", _readonly(np.atleast_2d(self.bounds)))
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights must have matching length")
        if np.any(self.weights <= 0.0):
            raise ValueError("all quadrature weights must be positive")
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        if np.any(self.points < lo) or np.any(self.points > hi):
            raise ValueError("grid points must lie inside the bounds box")

    @classmethod
    def uniform(cls, bounds, shape) -> "StateGrid":
        """Uniform midpoint grid; `shape` gives the cell count per axis."""
        bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
        if np.isscalar(shape):
            shape = (int(shape),)
        shape = tuple(int(n) for n in shape)
        if bounds.shape[0] != len(shape):
            raise ValueError("one cell count is required per axis")
        if any(n < 1 for n in shape):
            raise ValueError("cell counts must be >= 1")
        axes = []
        cell = 1.0
        for (lo, hi), n in zip(bounds, shape):
            if not hi > lo:
                raise ValueError(f"degenerate box axis [{lo}, {hi}]")
            h = (hi - lo) / n
            axes.append(lo + h * (np.arange(n) + 0.5))
            cell *= h
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        weights = np.full(points.shape[0], cell)
        return cls(points=points, weights=weights, bounds=bounds)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def volume(self) -> float:
        return float(np.sum(self.weights))

    def axis(self, k: int = 0) -> np.ndarray:
        """Coordinate k of every grid point, shape (N,)."""
        return self.points[:, k]

    def compatible(self, other: "StateGrid") -> bool:
        return self is other or (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


def _require_same_grid(a: StateGrid, b: StateGrid) -> None:
    if not a.compatible(b):
        raise ValueError("operands live on different grids")


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """A finite signed measure stored as a density against the grid quadrature."""

    density: np.ndarray
    grid: StateGrid

    def __post_init__(self):
        object.__setattr__(self, "density", _readonly(self.density))
        if self.density.shape != (self.grid.size,):
            raise ValueError(
                f"density shape {self.density.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.density)):
            raise ValueError("density must be finite")

    @classmethod
    def uniform(cls, grid: StateGrid) -> "GridMeasure":
        return cls(np.full(grid.size, 1.0 / grid.volume), grid)

    @classmethod
    def point_mass(cls, grid: StateGrid, index: int) -> "GridMeasure":
        density = np.zeros(grid.size)
        density[index] = 1.0 / grid.weights[index]
        return cls(density, grid)

    @classmethod
    def zero(cls, grid: StateGrid) -> "GridMeasure":
        return cls(np.zeros(grid.size), grid)

    def total_mass(self) -> float:
        return float(np.dot(self.density, self.grid.weights))

    def tv_norm(self) -> float:
        return float(np.dot(np.abs(self.density), self.grid.weights))

    def is_probability(self, tol: float = PROBABILITY_TOL) -> bool:
        return bool(np.all(self.density >= -tol)) and abs(self.total_mass() - 1.0) <= tol

    def normalized(self) -> "GridMeasure":
        mass = self.total_mass()
        if mass <= 0.0:
            raise ValueError("cannot normalize a measure with non-positive mass")
        return GridMeasure(self.density / mass, self.grid)

    def mean(self) -> np.ndarray:
        """First moment, shape (dim,)."""
        return (self.grid.points * (self.density * self.grid.weights)[:, None]).sum(axis=0)

    def __add__(self, other: "GridMeasure") -> "GridMeasure":
        _require_same_grid(self.grid, other.grid)
        return GridMeasure(self.density + other.density, self.grid)

    def __sub__(self, other: "GridMeasure") -> "GridMeasure":
        _require_same_grid(self.grid, other.grid)
        return GridMeasure(self.density - other.density, self.grid)

    def __mul__(self, scalar: float) -> "GridMeasure":
        return GridMeasure(self.density * float(scalar), self.grid)

    __rmul__ = __mul__

    def __neg__(self) -> "GridMeasure":
        return GridMeasure(-self.density, self.grid)


@dataclass(frozen=True, eq=False)
class VectorMeasure:
    """One signed measure per multi-index slot, sharing a single grid.

    components : (K, N) densities, row k belonging to index_set.indices[k]
    """

    components: np.ndarray
    index_set: IndexSet
    grid: StateGrid

    def __post_init__(self):
        object.__setattr__(self, "components", _readonly(np.atleast_2d(self.components)))
        expected = (len(self.index_set), self.grid.size)
        if self.components.shape != expected:
            raise ValueError(
                f"components shape {self.components.shape} does not match {expected}"
            )
        if not np.all(np.isfinite(self.components)):
            raise ValueError("components must be finite")

    def component(self, alpha) -> GridMeasure:
        return GridMeasure(self.components[self.index_set.slot(alpha)], self.grid)

    def masses(self) -> np.ndarray:
        """Total signed mass per slot, shape (K,)."""
        return self.components @ self.grid.weights

    def vector_norm(self) -> float:
        return float(vector_norms(self.components, self.grid))

    def is_l0(self, tol: float = PROBABILITY_TOL) -> bool:
        """Membership in the recursion's state space: slot 0 is a probability."""
        return self.component(self.index_set.zero).is_probability(tol)

    def __sub__(self, other: "VectorMeasure") -> "VectorMeasure":
        _require_compatible(self, other)
        return VectorMeasure(self.components - other.components, self.index_set, self.grid)

    def __add__(self, other: "VectorMeasure") -> "VectorMeasure":
        _require_compatible(self, other)
        return VectorMeasure(self.components + other.components, self.index_set, self.grid)

    def __mul__(self, scalar: float) -> "VectorMeasure":
        return VectorMeasure(self.components * float(scalar), self.index_set, self.grid)

    __rmul__ = __mul__


def _require_compatible(a: VectorMeasure, b: VectorMeasure) -> None:
    _require_same_grid(a.grid, b.grid)
    if a.index_set != b.index_set:
        raise ValueError("operands use different index sets")


def tv_norm(measure: GridMeasure) -> float:
    """Total variation norm: integral of the absolute density."""
    return measure.tv_norm()


def embed(lam: GridMeasure, index_set: IndexSet) -> VectorMeasure:
    """Lift a probability measure: slot 0 carries it, every other slot is zero."""
    if not lam.is_probability():
        raise ValueError("embed requires a probability measure")
    components = np.zeros((len(index_set), lam.grid.size))
    components[0] = lam.density
    return VectorMeasure(components, index_set, lam.grid)


def vector_norms(components: np.ndarray, grid: StateGrid) -> np.ndarray:
    """Vector norm of every measure in a (..., K, N) stack: the largest slot TV norm."""
    return np.max(np.abs(components) @ grid.weights, axis=-1)


def measure_distance(a: VectorMeasure, b: VectorMeasure) -> float:
    """Vector norm of the componentwise difference."""
    _require_compatible(a, b)
    return (a - b).vector_norm()


__all__ = [
    "StateGrid",
    "GridMeasure",
    "VectorMeasure",
    "tv_norm",
    "embed",
    "measure_distance",
    "vector_norms",
    "PROBABILITY_TOL",
]
