"""The transition bases in the layout the step's GEMM reads.

From order 1 on, the model builds its quotient table (degree, old state,
new state) C-contiguous and returns the transposed view, so a step's
GEMM reads bases[d].T with no transpose.  A step over that layout must
agree with the same step over a C-contiguous (new, old) copy of the same
factors to rounding, slot by slot against the slot's TV norm.  At order
0 the bases stay C-contiguous (new, old), which the assembled order-0
kernel reads.  A stack of points keeps each point's strides, so a
stacked pass keeps the bytes of its one-point passes (tests/test_step_core.py
and tests/test_point_stack.py pin those bytes), and transition_grid_jet
returns a C-contiguous jet whatever strides the bases have.
"""
import copy

import numpy as np
import pytest

from filterjet import KernelCache
from filterjet.filtering import _step

from conftest import THETA, BrokenObservation, random_l0
from test_factored_transition import model_for

# Measured worst gap over the equivalence cover below: 7.8e-14 of a slot's TV norm (N = 33, order 3).
LAYOUT_TV_RTOL = 1e-12
CELLS = [5, 24, 33, 64, 256]


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
@pytest.mark.parametrize("features", ["shipped", "mixed"])
def test_a_step_agrees_with_the_step_over_c_contiguous_bases(features, variant, cells, order, points, replicas):
    model = model_for(features, variant, cells)
    iset = model.index_set(order)
    rng = np.random.default_rng([cells, order, points, replicas])
    cache = KernelCache(model, THETA if points == 1 else rng.uniform(0.3, 1.4, size=(points, 2)), iset)
    dense = copy.copy(cache)
    dense.bases = np.ascontiguousarray(cache.bases)
    assert np.array_equal(dense.bases, cache.bases)
    rows = np.stack([random_l0(model, iset, rng).components for _ in range(points * replicas)])
    obs = cache.observation_vectors(rng.uniform(-2.5, 2.5, size=replicas))
    got, got_masses, got_predictive = _step(cache, obs, rows)
    want, want_masses, want_predictive = _step(dense, obs, rows)
    weights = model.grid.weights
    assert np.all(np.abs(got - want) @ weights <= LAYOUT_TV_RTOL * (np.abs(want) @ weights))
    assert np.allclose(got_masses, want_masses, rtol=0.0, atol=LAYOUT_TV_RTOL)
    assert np.allclose(got_predictive, want_predictive, rtol=LAYOUT_TV_RTOL, atol=0.0)


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("variant", ["compact", "gaussian"])
def test_the_bases_are_transposed_views_of_a_c_contiguous_table_from_order_1(variant, cells):
    model = model_for("mixed", variant, cells)
    bases = model.transition_grid_factors(THETA, model.index_set(0))[0]
    assert bases.flags.c_contiguous
    for order in (1, 2, 3):
        bases = model.transition_grid_factors(THETA, model.index_set(order))[0]
        assert bases.shape == (order + 1, cells, cells)
        assert bases.transpose(0, 2, 1).flags.c_contiguous
        assert all(base.T.flags.c_contiguous for base in bases)


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("cells", [33, 64])
def test_a_stack_of_points_keeps_each_points_strides(cells, order):
    model = model_for("mixed", "compact", cells)
    iset = model.index_set(order)
    thetas = np.random.default_rng([cells, order]).uniform(0.3, 1.4, size=(3, 2))
    stack = KernelCache(model, thetas, iset)
    for p, theta in enumerate(thetas):
        alone = KernelCache(model, theta, iset).bases[0]
        assert stack.bases[p].strides == alone.strides
        assert stack.bases[p].tobytes(order="A") == alone.tobytes(order="A")


def every_other_column(bases):
    wide = np.zeros(bases.shape[:2] + (2 * bases.shape[2],))
    wide[..., ::2] = bases
    return wide[..., ::2]


# Non-contiguous (new, old) layouts of the same bases.  A ufunc's output keeps
# the transposed one's strides; the other has no contiguous axis.
STRIDES = {
    "transposed": lambda bases: np.ascontiguousarray(bases.transpose(0, 2, 1)).transpose(0, 2, 1),
    "every-other-column": every_other_column,
}


class StridedBases(BrokenObservation):
    """Delegating model that returns the inner bases in a non-contiguous layout."""

    def __init__(self, inner, layout):
        super().__init__(inner)
        self.layout = layout

    def transition_grid_factors(self, theta, index_set):
        bases, base_of, scales = self.inner.transition_grid_factors(theta, index_set)
        return self.layout(bases), base_of, scales


@pytest.mark.parametrize("strides", list(STRIDES))
@pytest.mark.parametrize("order", [0, 1, 3])
def test_the_transition_jet_is_c_contiguous_for_any_strides(order, strides):
    model = StridedBases(model_for("mixed", "compact", 33), STRIDES[strides])
    iset = model.index_set(order)
    bases, base_of, scales = model.transition_grid_factors(THETA, iset)
    assert not bases.flags.c_contiguous
    jet = model.transition_grid_jet(THETA, iset)
    assert jet.flags.c_contiguous
    assert np.array_equal(jet, bases[base_of] * scales[:, None, :])
    assert np.array_equal(jet, model.inner.transition_grid_jet(THETA, iset))
