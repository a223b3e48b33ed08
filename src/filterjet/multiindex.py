"""Exact multi-index combinatorics for mixed partial derivatives.

Multi-indices are d-tuples of non-negative integers.  The degree of an
index is the sum of its entries; comparison is componentwise.  An
:class:`IndexSet` enumerates every index of degree <= `order` and fixes
the slot layout used by the vector-measure and jet machinery.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Iterator


class MultiIndex(tuple):
    """A d-tuple of non-negative integers.

    Behaves like a tuple (hashable, ordered) but adds componentwise
    vector arithmetic, so ``alpha - beta`` is the index difference, not
    tuple slicing or concatenation.
    """

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        values = tuple(int(e) for e in entries)
        if any(e < 0 for e in values):
            raise ValueError(f"multi-index entries must be non-negative, got {values}")
        return tuple.__new__(cls, values)

    @classmethod
    def zero(cls, dimension: int) -> "MultiIndex":
        return cls((0,) * dimension)

    @classmethod
    def unit(cls, dimension: int, axis: int) -> "MultiIndex":
        if not 0 <= axis < dimension:
            raise ValueError(f"axis {axis} out of range for dimension {dimension}")
        return cls(tuple(1 if i == axis else 0 for i in range(dimension)))

    @property
    def degree(self) -> int:
        return sum(self)

    def __add__(self, other) -> "MultiIndex":
        _check_dimensions(self, other)
        return MultiIndex(a + b for a, b in zip(self, other))

    def __sub__(self, other) -> "MultiIndex":
        _check_dimensions(self, other)
        return MultiIndex(a - b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"MultiIndex{tuple(self)}"


def _check_dimensions(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def leq(beta, alpha) -> bool:
    """Componentwise order: True iff beta_i <= alpha_i for every i."""
    _check_dimensions(beta, alpha)
    return all(b <= a for b, a in zip(beta, alpha))


def multinomial(alpha, beta) -> int:
    """Product of per-coordinate binomials C(alpha_i, beta_i), exact integer.

    Requires beta <= alpha componentwise.
    """
    if not leq(beta, alpha):
        raise ValueError(f"multinomial requires beta <= alpha, got {tuple(beta)} vs {tuple(alpha)}")
    out = 1
    for a, b in zip(alpha, beta):
        out *= comb(a, b)
    return out


def unit_selector(alpha) -> MultiIndex:
    """Standard unit vector along the first coordinate where alpha is nonzero."""
    for i, a in enumerate(alpha):
        if a >= 1:
            return MultiIndex.unit(len(alpha), i)
    raise ValueError("unit_selector is undefined for the zero index")


def count_upto(dimension: int, order: int) -> int:
    """Closed-form count of indices with degree <= order in the given dimension."""
    return sum(comb(dimension + k - 1, k) for k in range(order + 1))


class IndexSet:
    """All multi-indices of degree <= `order` in `dimension` coordinates.

    Indices are stored in graded order (degree ascending, plain tuple
    order within a degree) so the derivative recursions can run as a
    single forward pass; slot 0 always holds the zero index.  Instances
    are immutable and safe to share.
    """

    __slots__ = ("dimension", "order", "indices", "position", "degrees")

    def __init__(self, dimension: int, order: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "order", order)
        all_indices: list[MultiIndex] = []
        for degree in range(order + 1):
            all_indices.extend(sorted(_indices_of_degree(dimension, degree)))
        object.__setattr__(self, "indices", tuple(all_indices))
        object.__setattr__(self, "position", {a: k for k, a in enumerate(all_indices)})
        object.__setattr__(self, "degrees", tuple(a.degree for a in all_indices))

    def __setattr__(self, name, value):
        raise AttributeError("IndexSet is immutable")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.dimension == other.dimension
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self.order))

    def __repr__(self) -> str:
        return f"IndexSet(dimension={self.dimension}, order={self.order}, size={len(self)})"

    @property
    def zero(self) -> MultiIndex:
        return self.indices[0]

    def slot(self, alpha) -> int:
        try:
            return self.position[MultiIndex(alpha)]
        except KeyError:
            raise ValueError(f"{tuple(alpha)} not in index set of order {self.order}") from None

    def below(self, alpha) -> tuple[MultiIndex, ...]:
        """All indices beta with beta <= alpha, in graded order."""
        alpha = MultiIndex(alpha)
        return tuple(b for b in self.indices if leq(b, alpha))


def _indices_of_degree(dimension: int, degree: int) -> Iterator[MultiIndex]:
    if dimension == 1:
        yield MultiIndex((degree,))
        return
    for first in range(degree + 1):
        for rest in _indices_of_degree(dimension - 1, degree - first):
            yield MultiIndex((first,) + tuple(rest))


@lru_cache(maxsize=None)
def enumerate_indices(dimension: int, order: int) -> IndexSet:
    """Build the index set; count always matches :func:`count_upto`."""
    return IndexSet(dimension, order)


@lru_cache(maxsize=None)
def pair_table(index_set: IndexSet) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Leibniz pairing per slot: (multinomial(a, b), slot(b), slot(a - b)) for b <= a.

    Pairs are listed in graded order of b, so b == a always comes last.
    """
    rows = []
    for alpha in index_set.indices:
        row = []
        for beta in index_set.below(alpha):
            row.append((multinomial(alpha, beta), index_set.slot(beta), index_set.slot(alpha - beta)))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def shifted_pair_table(index_set: IndexSet) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Pairing with the leading unit direction removed, used by the
    log-derivative recursion: for each slot a with degree >= 2, the pairs
    (multinomial(a - e, b - e), slot(b), slot(a - b)) over e <= b <= a, b != a,
    where e is the unit selector of a.  Slots of degree <= 1 get empty rows.
    """
    rows = []
    for alpha in index_set.indices:
        if alpha.degree < 2:
            rows.append(())
            continue
        e = unit_selector(alpha)
        row = []
        for beta in index_set.below(alpha):
            if beta == alpha or not leq(e, beta):
                continue
            coeff = multinomial(alpha - e, beta - e)
            row.append((coeff, index_set.slot(beta), index_set.slot(alpha - beta)))
        rows.append(tuple(row))
    return tuple(rows)
