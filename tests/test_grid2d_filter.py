"""Filtering on a 2-D state grid with a purpose-built separable model.

Each parameter drives the drift of one state coordinate, so every mixed
parameter derivative of the transition kernel is a product of Hermite
factors per axis; the observation is a scalar linear readout of both
coordinates.  This exercises the vector-measure and filter machinery on
a planar grid end to end.
"""
import math

import numpy as np
import pytest

from filterjet import (
    FDScheme,
    GridMeasure,
    StateGrid,
    embed,
    fd_derivative,
    filter_iterate,
    filter_step,
    loglik_jet,
)
from filterjet.models import ModelSpec, _gauss_pdf_derivs
from filterjet.multiindex import enumerate_indices, pair_table

from conftest import kslot_quotient_jet


class PlanarTanhModel(ModelSpec):
    """2-D state, scalar observation; drift coordinate i follows theta_i."""

    def __init__(self, grid: StateGrid, trans_scale=0.6, obs_scale=0.8,
                 theta_box=((0.2, 1.5), (0.2, 1.5))):
        assert grid.dim == 2
        self.grid = grid
        self.trans_scale = trans_scale
        self.obs_scale = obs_scale
        self._theta_box = theta_box

    @property
    def dim_theta(self):
        return 2

    @property
    def max_order(self):
        return 2

    @property
    def parameter_box(self):
        return self._theta_box

    def _axis_numerator_jet(self, theta_i, new, old, order):
        # jet in one parameter of pdf((new - theta_i tanh(old)) / scale)
        z = (new - theta_i * np.tanh(old)) / self.trans_scale
        slope = -np.tanh(old) / self.trans_scale
        pdf = _gauss_pdf_derivs(z, order)
        return [pdf[k] * slope**k for k in range(order + 1)]

    def transition_grid_jet(self, theta, index_set):
        theta = self.validate_theta(theta)
        pts = self.grid.points
        new = (pts[:, None, 0], pts[:, None, 1])
        old = (pts[None, :, 0], pts[None, :, 1])
        per_axis = [
            self._axis_numerator_jet(theta[i], new[i], old[i], index_set.order)
            for i in range(2)
        ]
        num = np.stack([per_axis[0][a[0]] * per_axis[1][a[1]] for a in index_set.indices])
        node = (pts[:, None, None, 0], pts[:, None, None, 1])
        node_axis = [
            self._axis_numerator_jet(theta[i], node[i], (old[i])[None], index_set.order)
            for i in range(2)
        ]
        node_jet = np.stack(
            [node_axis[0][a[0]] * node_axis[1][a[1]] for a in index_set.indices]
        )
        den = np.tensordot(node_jet, self.grid.weights, axes=([1], [0]))
        assert np.all(den[0] > 0.0)
        return kslot_quotient_jet(num, den, index_set)

    def observation_grid_factory(self, theta, index_set):
        theta = self.validate_theta(theta)
        pts = self.grid.points
        location = theta[0] * pts[:, 0] + theta[1] * pts[:, 1]
        slopes = -pts / self.obs_scale  # (N, 2)
        factors = np.stack(
            [slopes[:, 0] ** a[0] * slopes[:, 1] ** a[1] for a in index_set.indices]
        )
        degrees = index_set.degrees

        def at(y):
            z = (np.asarray(y, dtype=float) - location) / self.obs_scale
            pdf = _gauss_pdf_derivs(z, index_set.order)
            return np.stack(
                [pdf[degrees[k]] * factors[k] for k in range(len(index_set))]
            ) / self.obs_scale

        return at

    def transition_sample(self, theta, x, rng):
        raise NotImplementedError

    def observation_sample(self, theta, x, rng):
        raise NotImplementedError


@pytest.fixture(scope="module")
def planar():
    return PlanarTanhModel(StateGrid.uniform([(-2.0, 2.0), (-2.0, 2.0)], (10, 10)))


@pytest.fixture(scope="module")
def theta2():
    return np.array([0.7, 1.1])


OBSERVATIONS = [0.4, -0.9, 1.3]


class TestPlanarFiltering:
    def test_transition_columns_normalized(self, planar, theta2):
        iset = planar.index_set()
        jet = planar.transition_grid_jet(theta2, iset)
        masses = planar.grid.weights @ jet[0]
        assert np.max(np.abs(masses - 1.0)) <= 1e-12
        deriv_masses = np.tensordot(jet[1:], planar.grid.weights, axes=([1], [0]))
        assert np.max(np.abs(deriv_masses)) <= 1e-12

    def test_filter_step_masses_on_planar_grid(self, planar, theta2):
        iset = planar.index_set()
        measure = embed(GridMeasure.uniform(planar.grid), iset)
        out = filter_step(planar, theta2, 0.4, measure)
        masses = out.masses()
        assert abs(masses[0] - 1.0) <= 1e-12
        assert np.max(np.abs(masses[1:])) <= 1e-12

    def test_derivative_identity_on_planar_grid(self, planar, theta2):
        iset = planar.index_set()
        lam = GridMeasure.uniform(planar.grid)
        state = filter_iterate(planar, theta2, OBSERVATIONS, embed(lam, iset))
        weights = planar.grid.weights
        scheme = FDScheme(1e-3, 2)

        def masses(th):
            inner = filter_iterate(planar, th, OBSERVATIONS, embed(lam, iset))
            return inner.measure.components[0] * weights

        for alpha in iset.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(masses, alpha, theta2, scheme, bounds=planar.parameter_box)
            direct = state.measure.components[iset.slot(alpha)] * weights
            gap = np.abs(direct - fd)
            assert (gap / np.maximum(1e-2, np.abs(fd))).max() <= 1e-4

    def test_loglik_jet_on_planar_grid(self, planar, theta2):
        lam = GridMeasure.uniform(planar.grid)
        jet = loglik_jet(planar, theta2, OBSERVATIONS, lam)
        scheme = FDScheme(1e-3, 2)
        f = lambda th: loglik_jet(planar, th, OBSERVATIONS, lam).values[0]  # noqa: E731
        for alpha in jet.index_set.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(f, alpha, theta2, scheme, bounds=planar.parameter_box)
            assert abs(jet.value(alpha) - fd) / max(abs(fd), 1e-2) <= 1e-4
