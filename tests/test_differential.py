"""The filter against its oracles on random models.

One derandomized property draws a TruncatedNonlinearModel, a parameter
inside its box and a few observations along one path of that model, and
judges loglik_jet there: slot 0 against the path-sum log-likelihood and
every derivative slot against finite differences of slot 0.
"""
import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from filterjet import FDScheme, GridMeasure, loglik_jet, oracle_log_likelihood
from filterjet.models import FEATURE_FUNCTIONS
from filterjet.oracle import ORACLE_MAX_POINTS, ORACLE_MAX_STEPS, fd_derivatives

from conftest import make_model

BOX = (-2.0, 2.0)
# Criterion 6: slot 0 against the path-sum log-likelihood, absolute.
SLOT0_TOL = 1e-9
# `filterjet loglik` divides a slot's gap by max(|FD|, abs_floor / rel_tol) at its defaults.
FD_FLOOR = 1e-6 / 1e-4
# Per derivative order, the scheme whose differences are most accurate at
# that order (a finer step for order 1, more Richardson levels above it) and
# the bound on the scaled gap.  Over 9,000 drawn models (6,019, 3,592 and
# 1,752 of order 1, 2 and 3 at least) the worst gaps were 4.0e-9, 2.5e-6 and
# 1.4e-2, and slot 0's worst was 5.7e-14.  Rounding slot 1 of the
# observation jet to float32 moves the order-1 gap above 2e-8 in 29% of them.
SCHEMES = {1: FDScheme(5e-4, 3), 2: FDScheme(4e-3, 4), 3: FDScheme(4e-3, 4)}
FD_TOL = {1: 2e-8, 2: 1e-5, 3: 5e-2}
# Rejection trials of one draw of the test-local path.
PATH_TRIALS = 1000


def _box_draw(rng, loc, scale, box):
    """loc + scale * N(0, 1) inside box by rejection, None after PATH_TRIALS trials."""
    lo, hi = box
    for _ in range(PATH_TRIALS):
        draw = loc + scale * rng.standard_normal()
        if lo <= draw <= hi:
            return draw
    return None


def path_observations(model, theta, length, rng):
    """Observations along one path of the model from a uniform start, or None where a draw finds no box.

    Drawn with numpy here rather than by filterjet.simulate, so the
    library's sampler caps stay out of what the property tests.
    """
    x = rng.uniform(*model.grid.bounds[0])
    obs_box = model.obs_box or (-math.inf, math.inf)
    ys = []
    for _ in range(length):
        drift = sum(t * FEATURE_FUNCTIONS[name](x) for t, name in zip(theta, model.drift_features))
        x = _box_draw(rng, drift, model.trans_scale, model.grid.bounds[0])
        if x is None:
            return None
        location = sum(t * FEATURE_FUNCTIONS[name](x) for t, name in zip(theta, model.obs_features))
        y = _box_draw(rng, location, model.obs_scale, obs_box)
        if y is None:
            return None
        ys.append(float(y))
    return ys


@st.composite
def cases(draw):
    """(model, theta, observations): a random model of the family, a parameter clear of the FD stencil."""
    dim = draw(st.integers(1, 2))
    features = st.sampled_from(sorted(FEATURE_FUNCTIONS))
    log_scales = st.floats(math.log(0.05), math.log(3.0))
    model = make_model(
        cells=draw(st.integers(6, ORACLE_MAX_POINTS)),
        order=draw(st.integers(0, 3)),
        variant=draw(st.sampled_from(["compact", "gaussian"])),
        drift=tuple(draw(features) for _ in range(dim)),
        obs=tuple(draw(features) for _ in range(dim)),
        trans_scale=math.exp(draw(log_scales)),
        obs_scale=math.exp(draw(log_scales)),
        theta_box=(BOX,) * dim,
    )
    # A scheme's order-k stencil reaches 2 * k * its base step past theta.
    margin = max(2 * k * scheme.base_step for k, scheme in SCHEMES.items())
    coordinate = st.floats(BOX[0] + margin, BOX[1] - margin, exclude_min=True, exclude_max=True)
    theta = np.array([draw(coordinate) for _ in range(dim)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ys = path_observations(model, theta, draw(st.integers(1, ORACLE_MAX_STEPS - 1)), rng)
    assume(ys is not None)
    return model, theta, ys


def oracle_gaps(model, theta, ys):
    """(slot-0 gap to the path sum, {order: worst scaled gap to FD}) of loglik_jet at theta.

    Each order's FD runs its own scheme over one order-0 stacked pass, as
    `filterjet loglik` differences slot 0.  The path sum rescales its
    running product, so the slot-0 gap is two-sided at every likelihood,
    also below the smallest normal double.
    """
    lam0 = GridMeasure.uniform(model.grid)
    jet = loglik_jet(model, theta, ys, lam0)
    slot0_gap = abs(jet.values[0] - oracle_log_likelihood(model, theta, ys, lam0))
    order0 = replace(model, order=0)
    slot0 = lambda stack: [j.values[0] for j in loglik_jet(order0, stack, ys, lam0)]  # noqa: E731
    worst = {}
    for order, scheme in SCHEMES.items():
        alphas = [alpha for alpha in model.index_set().indices if alpha.degree == order]
        if alphas:
            fds = fd_derivatives(slot0, alphas, theta, scheme, model.parameter_box)
            worst[order] = max(abs(jet.value(a) - fd) / max(abs(fd), FD_FLOOR) for a, fd in zip(alphas, fds))
    return slot0_gap, worst


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(case=cases())
def test_loglik_jet_agrees_with_its_oracles_on_random_models(case):
    model, theta, ys = case
    slot0_gap, worst = oracle_gaps(model, theta, ys)
    assert slot0_gap <= SLOT0_TOL
    for order, scaled in worst.items():
        assert scaled <= FD_TOL[order], (order, scaled)


def underflow_model():
    """A drawn model whose drift takes the old states +-2.5 so far out that every new state's Gaussian underflows."""
    model = make_model(
        cells=6, order=3, drift=("tanh", "linear"), obs=("one", "one"), trans_scale=0.0515, obs_scale=1.0,
        theta_box=(BOX,) * 2,
    )
    return model, np.array([0.0620, -1.9331])


def test_an_old_state_whose_transition_gaussians_all_underflow_agrees_with_its_oracles():
    # it aborted with "transition normalizer vanished on the grid" before its column was shifted
    model, theta = underflow_model()
    ys = path_observations(model, theta, 4, np.random.default_rng(1))
    slot0_gap, worst = oracle_gaps(model, theta, ys)
    assert slot0_gap <= SLOT0_TOL
    assert sorted(worst) == [1, 2, 3]
    for order, scaled in worst.items():
        assert scaled <= FD_TOL[order], (order, scaled)
