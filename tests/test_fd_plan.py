"""The finite-difference fold against the recursion it replaced.

fd_derivative evaluates f once per distinct stencil point and folds each
alpha's grid of values one differenced coordinate at a time, innermost
first: the stencil sums, the division by h**order and the Richardson
table over step halvings.  The reference here is a test-local copy of
the recursion that ran before: a memo of f by the bytes of its point,
one stencil per coordinate in axis order, and the Richardson table.  The
fold must give its bits for every alpha, list its points in the same
order, and call f once per distinct point.  The shapes the program runs
(dimension 2, orders 2 and 3, FDScheme(1e-3, 2)) are explicit examples,
so they are checked on every run, not only when a draw hits them.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterjet import FDScheme, fd_derivative
from filterjet.multiindex import enumerate_indices
from filterjet.oracle import _fd_plan, fd_derivatives, stencil_points

_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


def _stencil_eval(f, theta, axis, order, h):
    acc = None
    for offset, coeff in _STENCILS[order]:
        point = np.array(theta, dtype=float)
        point[axis] += offset * h
        val = coeff * f(point)
        acc = val if acc is None else acc + val
    return acc / h**order


def _richardson(samples):
    table = list(samples)
    level = 1
    while len(table) > 1:
        factor = 4.0**level
        table = [(factor * b - a) / (factor - 1.0) for a, b in zip(table, table[1:])]
        level += 1
    return table[0]


def recursive_fd(f, alpha, theta, scheme):
    """The replaced fd_derivative, without its bounds check."""
    theta = np.asarray(theta, dtype=float)
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


def recorded_points(alphas, theta, scheme):
    """The replaced stencil_points: theta, then the recursion's points in first-use order."""
    theta = np.asarray(theta, dtype=float)
    points = {theta.tobytes(): theta}

    def record(point):
        points.setdefault(point.tobytes(), point)
        return 0.0

    for alpha in alphas:
        recursive_fd(record, alpha, theta, scheme)
    return list(points.values())


def vector_f(th):
    return np.array([math.sin(3.0 * th[0]) * math.exp(th[-1]), float(np.prod(th)) ** 3, 1.0 / (1.0 + th.sum() ** 2)])


def scalar_f(th):
    return math.cos(th.sum()) * math.exp(th[0])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(0, 3))
    scheme = FDScheme(draw(st.floats(2.3e-4, 0.1)), draw(st.integers(1, 4)))
    # -0.0 is its own key: theta_i + 0.0 is +0.0, an untouched coordinate keeps -0.0
    coordinate = st.one_of(st.floats(-2.0, 2.0, allow_subnormal=False), st.just(-0.0))
    theta = np.array([draw(coordinate) for _ in range(dim)])
    alphas = list(enumerate_indices(dim, order).indices)
    alphas = draw(st.permutations(alphas)) if draw(st.booleans()) else alphas
    return alphas, theta, scheme, draw(st.sampled_from([vector_f, scalar_f]))


def shipped(order, theta, f, scheme=FDScheme(1e-3, 2)):
    return list(enumerate_indices(2, order).indices), np.array(theta), scheme, f


@settings(max_examples=150, deadline=None)
@given(case=cases())
@example(case=shipped(2, (0.8, 0.9), vector_f))
@example(case=shipped(3, (0.8, 0.9), vector_f))
@example(case=shipped(3, (0.8, 0.9), scalar_f))
@example(case=shipped(3, (-0.0, 0.9), vector_f))
@example(case=shipped(2, (0.8, -0.0), scalar_f))
# at base step 1e-3 these stencils sum exactly in any order, at 0.05 they do not
@example(case=shipped(3, (0.8, 0.9), vector_f, FDScheme(0.05, 2)))
def test_the_plan_gives_the_bits_of_the_recursion(case):
    alphas, theta, scheme, f = case
    want = [recursive_fd(f, alpha, theta, scheme) for alpha in alphas]
    assert all(same_bits(fd_derivative(f, alpha, theta, scheme), w) for alpha, w in zip(alphas, want))

    seen = []
    many = fd_derivative(lambda p: seen.append(p.tobytes()) or f(p), alphas, theta, scheme)
    assert len(many) == len(alphas)
    assert all(same_bits(got, w) for got, w in zip(many, want))
    assert len(seen) == len(set(seen))

    points = stencil_points(alphas, theta, scheme)
    recorded = recorded_points(alphas, theta, scheme)
    assert [p.tobytes() for p in points] == [p.tobytes() for p in recorded]
    # every point but theta is one the plan asks for; theta only if a stencil reads it
    assert set(seen) | {theta.tobytes()} == {p.tobytes() for p in points}

    nonzero = [alpha for alpha in alphas if sum(alpha)]
    stacks = []

    def on_stack(stack):
        stacks.append(stack.copy())
        return [f(p) for p in stack]

    stacked = fd_derivatives(on_stack, nonzero, theta, scheme)
    assert len(stacked) == len(nonzero)
    assert all(same_bits(got, recursive_fd(f, alpha, theta, scheme)) for alpha, got in zip(nonzero, stacked))
    if nonzero:
        assert len(stacks) == 1
        assert stacks[0].tobytes() == np.stack(recorded_points(nonzero, theta, scheme)).tobytes()
    else:
        assert stacks == []


def test_empty_alphas_call_nothing():
    def never(_):
        raise AssertionError("f must not run")

    theta = np.array([0.7, 0.4])
    assert fd_derivatives(never, [], theta) == []
    assert fd_derivative(never, [], theta) == []
    assert [p.tobytes() for p in stencil_points([], theta)] == [theta.tobytes()]


@pytest.mark.parametrize("bounds", [((0.2, 1.5), (0.2, 0.4015)), ((0.2, 1.5), (0.3996, 1.5))])
def test_a_failing_bounds_check_calls_nothing(bounds):
    def never(_):
        raise AssertionError("f must not run")

    theta = np.array([0.7, 0.4])
    alphas = [(1, 0), (0, 1), (2, 1)]
    with pytest.raises(ValueError, match="parameter box"):
        fd_derivatives(never, alphas, theta, FDScheme(1e-3, 2), bounds)
    with pytest.raises(ValueError, match="parameter box"):
        fd_derivative(never, alphas, theta, FDScheme(1e-3, 2), bounds)
    with pytest.raises(ValueError, match="parameter box"):
        stencil_points(alphas, theta, FDScheme(1e-3, 2), bounds)
    # (1, 0) alone leaves theta_1 untouched, which then needs only to lie inside its interval
    fd_derivative(lambda th: th.sum(), (1, 0), theta, FDScheme(1e-3, 2), ((0.2, 1.5), (0.3979, 0.4021)))


def test_the_margin_grows_with_the_largest_order_of_a_coordinate():
    theta, box = np.array([0.7, 0.4]), ((0.2, 1.5), (0.3959, 0.4041))
    fd_derivative(lambda th: th.sum(), [(0, 2), (1, 1)], theta, FDScheme(1e-3, 2), box)
    with pytest.raises(ValueError, match="parameter box"):
        fd_derivative(lambda th: th.sum(), [(1, 1), (0, 3)], theta, FDScheme(1e-3, 2), box)


@pytest.mark.parametrize("bounds", [((0.2, 1.5),), ((0.2, 1.5),) * 3])
def test_bounds_must_give_one_pair_per_coordinate(bounds):
    # A short bounds once left the later coordinates unchecked.
    def never(_):
        raise AssertionError("f must not run")

    with pytest.raises(ValueError, match="bounds"):
        fd_derivative(never, (0, 1), np.array([0.7, 0.4]), FDScheme(1e-3, 2), bounds)
    with pytest.raises(ValueError, match="bounds"):
        fd_derivatives(never, [(0, 1)], np.array([0.7, 0.4]), FDScheme(1e-3, 2), bounds)


def test_a_second_call_reuses_the_plan():
    scheme = FDScheme(3.7e-3, 3)
    alphas = [(1, 0, 2), (0, 3, 0)]
    theta = np.array([0.1, -0.2, 0.3])
    fd_derivative(scalar_f, alphas, theta, scheme)
    before = _fd_plan.cache_info()
    fd_derivatives(lambda stack: [scalar_f(p) for p in stack], [list(a) for a in alphas], theta + 0.5, scheme)
    after = _fd_plan.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
