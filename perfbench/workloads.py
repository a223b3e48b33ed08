"""The four benchmark workloads: inputs from a seed, one op, its checks.

Each workload scales down one shipped experiment so that a run holds
many ops.  An op's inputs come only from the benchmark seed and the op
index, never from the library's own random streams, so the inputs stay
fixed while the program changes.  Steps are counted from the inputs,
never from what the program did, so doing less work for the same answer
shows as a gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import filterjet as fj
from filterjet.config import RunConfig, build_model, reference_theta

CONFIG = RunConfig()
THETA = reference_theta(CONFIG)


def make_model(cells: int, order: int):
    """The shipped compact model at the given grid size and derivative order."""
    return build_model(
        replace(
            CONFIG,
            grid=replace(CONFIG.grid, cells=cells),
            derivatives=replace(CONFIG.derivatives, order=order),
        )
    )


def op_rng(workload_id: int, seed: int, index: int) -> np.random.Generator:
    """Stream for one op; index -1 is the untimed warm-up op."""
    return np.random.default_rng([workload_id, seed, index + 1])


def theta_inside_box(model, rng, fd_step: float = 0.0) -> np.ndarray:
    """Uniform draw in the parameter box, kept clear of its edges."""
    box = np.asarray(model.parameter_box, dtype=float)
    width = box[:, 1] - box[:, 0]
    margin = np.maximum(0.05 * width, 8.0 * fd_step)
    lo, hi = box[:, 0] + margin, box[:, 1] - margin
    return lo + rng.random(box.shape[0]) * (hi - lo)


def _truncated_normal(rng, loc: float, scale: float, lo: float, hi: float) -> float:
    while True:
        draw = loc + scale * rng.standard_normal()
        if lo <= draw <= hi:
            return draw


def observation_block(rng, length: int) -> np.ndarray:
    """Observations of the shipped model at its reference parameter.

    Drawn here rather than by filterjet.simulate, so the inputs do not
    move when the library's samplers change.  The shipped model has
    drift theta_1 tanh(x) and observation map theta_2 x.
    """
    m = CONFIG.model
    if m.drift_features != ("tanh", "zero") or m.obs_features != ("zero", "linear"):
        raise ValueError("observation_block assumes the shipped feature maps")
    x = rng.uniform(m.state_min, m.state_max)
    ys = np.empty(length)
    for k in range(length):
        x = _truncated_normal(rng, THETA[0] * math.tanh(x), m.trans_scale, m.state_min, m.state_max)
        ys[k] = _truncated_normal(rng, THETA[1] * x, m.obs_scale, m.obs_min, m.obs_max)
    return ys


@dataclass(frozen=True)
class Tolerance:
    """Agreement with the recorded reference: |v - ref| <= atol + rtol |ref|."""

    rtol: float
    atol: float

    def agrees(self, values: np.ndarray, reference) -> bool:
        reference = np.asarray(reference, dtype=float)
        if values.shape != reference.shape:
            return False
        return bool(np.all(np.abs(values - reference) <= self.atol + self.rtol * np.abs(reference)))


class Workload:
    """One set of inputs the benchmark runs.

    Subclasses set the model size and define: the inputs of op i, the
    op itself, the steps it represents, the summary values compared
    against the reference, and the op's own verdict on its output.
    """

    name: str
    workload_id: int
    cells: int
    order: int
    tolerance: Tolerance
    trace_ops: int  # fixed op count of each pass of the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.model = make_model(self.cells, self.order)

    def working_set_bytes(self) -> int:
        """Computed per-step working set: transition jet plus assembled kernel jet."""
        return 2 * len(self.model.index_set()) * self.cells**2 * 8

    def rng(self, index: int) -> np.random.Generator:
        return op_rng(self.workload_id, self.seed, index)

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def steps(self, inputs) -> int:
        raise NotImplementedError

    def summary(self, output) -> np.ndarray:
        raise NotImplementedError

    def verdict(self, output) -> bool:
        """The op's own judgement of its output, valid for any seed."""
        return bool(np.all(np.isfinite(self.summary(output))))


class ErgodicitySmallGrid(Workload):
    """Ergodicity probe on a small grid: one cached kernel, many cheap steps."""

    name = "ergodicity-small-grid"
    workload_id = 1
    cells = 24
    order = 1
    replicas = 20
    record_ns = (5, 10, 20, 40)
    tolerance = Tolerance(rtol=1e-9, atol=1e-10)
    trace_ops = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        grid, iset = self.model.grid, self.model.index_set()
        mid = grid.size // 2
        # The CLI's three start points: both grid ends and the middle.
        self.starts = [
            (float(grid.axis(0)[0]), -1.0, fj.embed(fj.GridMeasure.point_mass(grid, 0), iset)),
            (float(grid.axis(0)[-1]), 1.0, fj.embed(fj.GridMeasure.point_mass(grid, grid.size - 1), iset)),
            (float(grid.axis(0)[mid]), 0.0, fj.embed(fj.GridMeasure.uniform(grid), iset)),
        ]
        self.phi = fj.posterior_mean_phi(self.model)

    def make_input(self, index):
        chain = "aligned" if index % 2 == 0 else "shifted"
        return chain, int(self.rng(index).integers(2**62))

    def run(self, inputs):
        chain, seed = inputs
        return fj.ergodicity_experiment(
            self.model, THETA, self.phi, self.starts, self.record_ns, self.replicas, seed, chain=chain
        )

    def steps(self, inputs):
        return len(self.starts) * self.replicas * max(self.record_ns)

    def summary(self, output):
        return np.asarray(output.estimates, dtype=float).ravel()

    def verdict(self, output):
        lo, hi = self.model.grid.bounds[0]
        values = self.summary(output)
        return bool(np.all(np.isfinite(values)) and np.all((values >= lo) & (values <= hi)))


class LoglikLargeGrid(Workload):
    """Log-likelihood jet of a fresh block at a fresh parameter, large grid."""

    name = "loglik-large-grid"
    workload_id = 2
    cells = 256
    order = 2
    block = 40
    tolerance = Tolerance(rtol=1e-9, atol=1e-9)
    trace_ops = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        self.lam0 = fj.GridMeasure.uniform(self.model.grid)

    def make_input(self, index):
        rng = self.rng(index)
        theta = theta_inside_box(self.model, rng)
        return theta, observation_block(rng, self.block)

    def run(self, inputs):
        theta, observations = inputs
        return fj.loglik_jet(self.model, theta, observations, self.lam0)

    def steps(self, inputs):
        return self.block

    def summary(self, output):
        return np.asarray(output.values, dtype=float)


class RmlOnline(Workload):
    """Short online gradient-ascent runs: the parameter changes every step."""

    name = "rml-online"
    workload_id = 3
    cells = 32
    order = 1
    n_steps = 50
    tolerance = Tolerance(rtol=1e-9, atol=1e-12)
    trace_ops = 96

    def make_input(self, index):
        rng = self.rng(index)
        return theta_inside_box(self.model, rng), int(rng.integers(2**62))

    def run(self, inputs):
        theta_init, seed = inputs
        e = CONFIG.experiment
        return fj.rml_demo(self.model, theta_init, THETA, e.rml_step_a, e.rml_step_b, self.n_steps, seed)

    def steps(self, inputs):
        return self.n_steps

    def summary(self, output):
        thetas = np.asarray(output.thetas, dtype=float)
        return np.concatenate([thetas[-1], thetas.mean(axis=0), [float(output.projections)]])

    def verdict(self, output):
        box = np.asarray(self.model.parameter_box, dtype=float)
        thetas = np.asarray(output.thetas, dtype=float)
        inside = np.all((thetas > box[:, 0]) & (thetas < box[:, 1]))
        return bool(np.all(np.isfinite(thetas)) and inside)


class FdCheckOrder3(Workload):
    """Derivative-identity sweep at order 3, one parameter point per op."""

    name = "fd-check-order3"
    workload_id = 4
    cells = 64
    order = 3
    horizon = 10
    # Order-3 finite differences amplify rounding by about 1/h^3, so the
    # scaled cell errors are compared loosely; the report's verdict is
    # the strict check.
    tolerance = Tolerance(rtol=0.05, atol=2e-6)
    # The oracle's own error at order 3 reaches 1.1e-4 (worst of 120 random
    # points; a third Richardson level makes it worse, not better), so the
    # verdict uses 1e-3.  abs_floor keeps the shipped scaling floor
    # abs_floor / rel_tol = 1e-2, so the scaled errors are the shipped ones.
    rel_tol = 1e-3
    abs_floor = 1e-5
    trace_ops = 4

    def make_input(self, index):
        rng = self.rng(index)
        return theta_inside_box(self.model, rng, CONFIG.derivatives.fd_step), int(rng.integers(2**62))

    def run(self, inputs):
        theta, seed = inputs
        return fj.derivative_identity_sweep(
            self.model, [theta], self.horizon, seed,
            rel_tol=self.rel_tol, abs_floor=self.abs_floor, data_theta=THETA,
        )

    def steps(self, inputs):
        return self.horizon

    def summary(self, output):
        return np.array([cell.scaled_error for cell in output.cells], dtype=float)

    def verdict(self, output):
        return bool(np.all(np.isfinite(self.summary(output))) and output.passed)


WORKLOADS = {cls.name: cls for cls in (ErgodicitySmallGrid, LoglikLargeGrid, RmlOnline, FdCheckOrder3)}
