import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filterjet import (
    GridMeasure,
    StateGrid,
    VectorMeasure,
    embed,
    measure_distance,
    tv_norm,
)
from filterjet.grid import vector_norms
from filterjet.multiindex import enumerate_indices


@pytest.fixture(scope="module")
def grid():
    return StateGrid.uniform([(-2.0, 2.0)], 16)


@pytest.fixture(scope="module")
def iset():
    return enumerate_indices(2, 2)


class TestStateGrid:
    def test_uniform_1d_weights_sum_to_volume(self, grid):
        assert grid.size == 16
        assert grid.volume == pytest.approx(4.0, abs=1e-14)
        assert np.allclose(grid.weights, 0.25)

    def test_uniform_2d(self):
        g = StateGrid.uniform([(-1.0, 1.0), (0.0, 3.0)], (8, 6))
        assert g.size == 48
        assert g.dim == 2
        assert g.volume == pytest.approx(6.0, abs=1e-14)
        assert np.all(g.points[:, 0] >= -1.0) and np.all(g.points[:, 1] <= 3.0)

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            StateGrid.uniform([(1.0, 1.0)], 4)
        with pytest.raises(ValueError):
            StateGrid.uniform([(-1.0, 1.0)], (4, 4))

    def test_immutable_arrays(self, grid):
        with pytest.raises(ValueError):
            grid.points[0] = 99.0


class TestTvNorm:
    def test_probability_measure_is_one(self, grid):
        assert tv_norm(GridMeasure.uniform(grid)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_measure(self, grid):
        assert tv_norm(GridMeasure.zero(grid)) == 0.0

    def test_signed_two_cell_example(self):
        g = StateGrid.uniform([(0.0, 1.0)], 2)  # two cells of weight 0.5
        m = GridMeasure(np.array([1.0, -1.0]), g)
        assert tv_norm(m) == pytest.approx(1.0, abs=1e-15)
        assert m.total_mass() == pytest.approx(0.0, abs=1e-15)

    def test_homogeneity(self, grid):
        rng = np.random.default_rng(1)
        m = GridMeasure(rng.standard_normal(grid.size), grid)
        for a in (-2.5, 0.0, 0.3):
            assert tv_norm(a * m) == pytest.approx(abs(a) * tv_norm(m), rel=1e-13)

    def test_triangle_inequality(self, grid):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m1 = GridMeasure(rng.standard_normal(grid.size), grid)
            m2 = GridMeasure(rng.standard_normal(grid.size), grid)
            assert tv_norm(m1 + m2) <= tv_norm(m1) + tv_norm(m2) + 1e-12


class TestVectorMeasure:
    def test_embed_uniform(self, grid, iset):
        lam = GridMeasure.uniform(grid)
        vm = embed(lam, iset)
        assert np.array_equal(vm.components[0], lam.density)
        assert np.all(vm.components[1:] == 0.0)
        assert vm.vector_norm() == pytest.approx(1.0, abs=1e-12)

    def test_embed_point_mass(self, grid, iset):
        lam = GridMeasure.point_mass(grid, 3)
        vm = embed(lam, iset)
        assert vm.component(iset.zero).density[3] == pytest.approx(1.0 / grid.weights[3])
        assert vm.vector_norm() == pytest.approx(1.0, abs=1e-12)

    def test_embed_requires_probability(self, grid, iset):
        with pytest.raises(ValueError):
            embed(GridMeasure(np.full(grid.size, 2.0), grid), iset)

    def test_vector_norm_is_max_over_components(self, grid, iset):
        comps = np.zeros((len(iset), grid.size))
        comps[0] = GridMeasure.uniform(grid).density
        comps[3] = 3.5 / grid.volume  # slot with TV norm 3.5
        comps[5] = 0.25 / grid.volume
        vm = VectorMeasure(comps, iset, grid)
        assert vm.vector_norm() == pytest.approx(3.5, rel=1e-13)

    def test_vector_norms_of_a_stack_match_each_measure(self, grid, iset):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(2, 3, len(iset), grid.size))
        norms = vector_norms(stack, grid)
        assert norms.shape == (2, 3)
        for index in np.ndindex(norms.shape):
            assert norms[index] == pytest.approx(VectorMeasure(stack[index], iset, grid).vector_norm(), rel=1e-14)

    def test_is_l0(self, grid, iset):
        assert embed(GridMeasure.uniform(grid), iset).is_l0()
        comps = np.zeros((len(iset), grid.size))
        comps[0] = -GridMeasure.uniform(grid).density
        assert not VectorMeasure(comps, iset, grid).is_l0()


class TestMeasureDistance:
    def test_zero_for_equal(self, grid, iset):
        vm = embed(GridMeasure.uniform(grid), iset)
        assert measure_distance(vm, vm) == 0.0

    def test_embed_difference_reduces_to_tv(self, grid, iset):
        a = GridMeasure.uniform(grid)
        b = GridMeasure.point_mass(grid, 0)
        assert measure_distance(embed(a, iset), embed(b, iset)) == pytest.approx(
            tv_norm(a - b), rel=1e-13
        )

    def test_grid_mismatch_rejected(self, grid, iset):
        other = StateGrid.uniform([(-2.0, 2.0)], 8)
        with pytest.raises(ValueError):
            measure_distance(
                embed(GridMeasure.uniform(grid), iset),
                embed(GridMeasure.uniform(other), iset),
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_triangle_inequality_on_random_triples(self, grid, iset, seed):
        rng = np.random.default_rng(seed)
        vms = [
            VectorMeasure(rng.standard_normal((len(iset), grid.size)), iset, grid)
            for _ in range(3)
        ]
        a, b, c = vms
        assert measure_distance(a, c) <= measure_distance(a, b) + measure_distance(b, c) + 1e-12


class TestOwnCopies:
    """A grid or measure holds its own copy of its arrays: it neither freezes nor follows the caller's."""

    def test_building_a_measure_leaves_the_callers_array_writable(self):
        grid = StateGrid.uniform([(-1.0, 1.0)], 4)
        density = np.full(4, 0.5)
        measure = GridMeasure(density, grid)
        density[0] = 2.0
        assert measure.density[0] == 0.5
        assert not np.shares_memory(measure.density, density)

    def test_a_measure_does_not_follow_the_array_under_its_view(self):
        grid = StateGrid.uniform([(-1.0, 1.0)], 4)
        buf = np.zeros((2, 4))
        buf[0] = 0.5
        measure = VectorMeasure(buf[:], enumerate_indices(1, 1), grid)
        buf[0] = 9.0
        assert measure.masses().tolist() == [1.0, 0.0]
        assert not np.shares_memory(measure.components, buf)

    def test_a_grid_shares_no_memory_with_its_inputs(self):
        points, weights, bounds = np.array([[0.25], [0.75]]), np.array([0.5, 0.5]), np.array([[0.0, 1.0]])
        grid = StateGrid(points, weights, bounds)
        points[0, 0], weights[0], bounds[0, 0] = 0.5, 2.0, -1.0
        assert grid.points[0, 0] == 0.25 and grid.weights[0] == 0.5 and grid.bounds[0, 0] == 0.0
        for own, given_array in [(grid.points, points), (grid.weights, weights), (grid.bounds, bounds)]:
            assert not np.shares_memory(own, given_array)
