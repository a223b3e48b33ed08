import numpy as np
import pytest

from filterjet import GridMeasure, KernelCache, StateGrid, TruncatedNonlinearModel, embed
from filterjet import filtering
from filterjet.models import ModelSpec
from filterjet.multiindex import pair_table


def make_model(cells=32, order=2, variant="compact", drift=("tanh", "zero"),
               obs=("zero", "linear"), trans_scale=0.5, obs_scale=0.7,
               state=(-3.0, 3.0), obs_box=(-6.0, 6.0), theta_box=((0.2, 1.5), (0.2, 1.5))):
    grid = StateGrid.uniform([state], cells)
    return TruncatedNonlinearModel(
        grid=grid,
        drift_features=drift,
        obs_features=obs,
        trans_scale=trans_scale,
        obs_scale=obs_scale,
        theta_box=theta_box,
        obs_box=obs_box if variant == "compact" else None,
        order=order,
    )


THETA = np.array([0.8, 0.9])


@pytest.fixture(scope="session")
def model32():
    return make_model(cells=32)


@pytest.fixture(scope="session")
def model8():
    return make_model(cells=8)


@pytest.fixture(scope="session")
def gaussian_model():
    return make_model(cells=32, variant="gaussian")


@pytest.fixture(scope="session")
def theta():
    return THETA.copy()


def random_l0(model, index_set, rng, derivative_scale=1.0):
    """A random element of the recursion state space."""
    grid = model.grid
    base = np.abs(rng.standard_normal(grid.size)) + 0.05
    components = derivative_scale * rng.standard_normal((len(index_set), grid.size))
    components[0] = base / np.dot(base, grid.weights)
    from filterjet import VectorMeasure

    return VectorMeasure(components, index_set, grid)


def transition_jets(cache):
    """(P, K, N, N) transition jet of each point of a kernel cache, expanded from its factors as transition_grid_jet expands them."""
    return cache.bases[:, cache.base_of] * cache.scales[:, :, None, :]


def kernel_updates(model, theta, y, lam):
    """{alpha: R^alpha lam} at y over the model's index set.

    Rows of the step core's prediction-update with lam in slot 0 and
    every higher slot zero: row alpha integrates the alpha-derivative
    of the joint kernel at (y, x | x') against lam(dx').
    """
    iset = model.index_set()
    weighted = np.zeros((1, len(iset), lam.grid.size))
    weighted[0, 0] = lam.density * lam.grid.weights
    cache = KernelCache(model, theta, iset)
    update = filtering._prediction_update(cache, cache.observation_vectors([y]), weighted)[0]
    return {tuple(alpha): GridMeasure(row, lam.grid) for alpha, row in zip(iset.indices, update)}


def normalized_update(cache, y, measure):
    """(K, N) S^alpha at y: the step core's prediction-update of every slot over its slot-0 mass, before recentering."""
    weighted = measure.components[None] * measure.grid.weights
    update = filtering._prediction_update(cache, cache.observation_vectors([y]), weighted)[0]
    return update / (update[0] @ measure.grid.weights)


def normalized_updates(model, theta, y, measure):
    """{alpha: S^alpha} at y, the rows of normalized_update."""
    update = normalized_update(KernelCache(model, theta, measure.index_set), y, measure)
    return {tuple(alpha): GridMeasure(row, measure.grid) for alpha, row in zip(measure.index_set.indices, update)}


def kslot_quotient_jet(num, den, index_set):
    """Jet of num/den slot by slot from the jets of num and den (recursion in degree).

    The general multi-index quotient, with one Leibniz sum per slot;
    den may have fewer axes than num, its axes after the slot axis
    aligning with the trailing axes of num.
    """
    if den.ndim < num.ndim:
        den = den.reshape(den.shape[:1] + (1,) * (num.ndim - den.ndim) + den.shape[1:])
    out = np.empty_like(np.broadcast_arrays(num, den)[0])
    inv = 1.0 / den[0]
    for k, pairs in enumerate(pair_table(index_set)):
        acc = num[k].copy()
        for coeff, b_slot, g_slot in pairs:
            if b_slot == k:
                continue
            acc -= coeff * out[b_slot] * den[g_slot]
        out[k] = acc * inv
    return out


def uniform_embedding(model, order=None):
    iset = model.index_set(order)
    return embed(GridMeasure.uniform(model.grid), iset)


class BrokenObservation(ModelSpec):
    """Delegating model whose observation density vanishes for y above 1e6.

    With outlier_from=n, the n-th and every later observation draw
    returns such a y (after consuming the inner draw), so a filter run on
    the simulated observations aborts at step n.  A batched draw counts
    as one draw per row, in row order.
    """

    def __init__(self, inner, outlier_from=None):
        self.inner = inner
        self.grid = inner.grid
        self.outlier_from = outlier_from
        self.draws = 0

    @property
    def dim_theta(self):
        return self.inner.dim_theta

    @property
    def max_order(self):
        return self.inner.max_order

    @property
    def parameter_box(self):
        return self.inner.parameter_box

    def transition_grid_factors(self, theta, index_set):
        return self.inner.transition_grid_factors(theta, index_set)

    def observation_grid_factory(self, theta, index_set):
        inner = self.inner.observation_grid_factory(theta, index_set)

        def at(y):
            return np.where(np.asarray(y) > 1e6, 0.0, inner(y))

        return at

    def transition_samples(self, theta, xs, normals):
        return self.inner.transition_samples(theta, xs, normals)

    def observation_samples(self, theta, xs, normals):
        ys = self.inner.observation_samples(theta, xs, normals)
        numbers = self.draws + 1 + np.arange(ys.size)
        self.draws += ys.size
        if self.outlier_from is not None:
            ys[numbers >= self.outlier_from] = 1e7
        return ys
