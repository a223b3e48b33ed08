"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria marked with runtime budgets assert them.
"""
import time

import numpy as np
import pytest

from filterjet import (
    GridMeasure,
    VectorMeasure,
    assumption_constants,
    avg_loglik_rate,
    embed,
    ergodicity_experiment,
    fd_derivative,
    filter_iterate,
    filter_step,
    forgetting_experiment,
    derivative_identity_sweep,
    loglik_jet,
    oracle_filter,
    oracle_log_likelihood,
    posterior_mean_phi,
    simulate,
    tv_norm,
)
from filterjet.cli import run
from filterjet.config import load_config_text
from filterjet.oracle import FDScheme
from filterjet.seeding import labeled_rng
from filterjet.multiindex import enumerate_indices

from conftest import make_model, random_l0

SEED = 20260808


def report(name, budget, started, detail):
    elapsed = time.time() - started
    print(f"\nacceptance {name}: PASS ({detail}; {elapsed:.1f}s of {budget}s budget)")
    assert elapsed <= budget, f"{name} exceeded its {budget}s runtime budget"


def draw_thetas(model, count, label, margin=0.065):
    rng = labeled_rng(SEED, label)
    box = np.asarray(model.parameter_box)
    lo, hi = box[:, 0] + margin, box[:, 1] - margin
    return [lo + rng.random(2) * (hi - lo) for _ in range(count)]


@pytest.fixture(scope="module")
def default_model():
    # the configured default: 1-D tanh drift / linear observation, N=64, order 2
    return make_model(cells=64, order=2)


def test_criterion_1_derivative_identity(default_model):
    started = time.time()
    thetas = draw_thetas(default_model, 10, "acc1")
    report_obj = derivative_identity_sweep(
        default_model,
        thetas,
        horizon=10,
        seed=SEED,
        scheme=FDScheme(1e-3, 2),
        rel_tol=1e-4,
        abs_floor=1e-6,
        data_theta=np.array([0.8, 0.9]),
    )
    assert report_obj.passed, f"worst scaled error {report_obj.worst_scaled}"
    # Same identity over arbitrary grid-cell unions: the worst union
    # discrepancy is the sum of one sign of the per-cell gaps.
    lam = GridMeasure.uniform(default_model.grid)
    iset = default_model.index_set()
    traj = simulate(default_model, np.array([0.8, 0.9]), lam, 10, seed=SEED + 1)
    weights = default_model.grid.weights
    union_worst = 0.0
    for theta in thetas[:3]:
        state = filter_iterate(default_model, theta, traj.observations, embed(lam, iset))
        f = lambda th: (  # noqa: E731
            filter_iterate(default_model, th, traj.observations, embed(lam, iset))
            .components[0] * weights
        )
        for alpha in iset.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(f, alpha, theta, FDScheme(1e-3, 2))
            gap = state.components[iset.slot(alpha)] * weights - fd
            worst_union = max(gap[gap > 0].sum() if np.any(gap > 0) else 0.0,
                              -gap[gap < 0].sum() if np.any(gap < 0) else 0.0)
            scale = max(np.abs(fd[fd > 0].sum()) if np.any(fd > 0) else 0.0,
                        np.abs(fd[fd < 0].sum()) if np.any(fd < 0) else 0.0, 1e-2)
            union_worst = max(union_worst, worst_union / scale)
    assert union_worst <= 1e-4
    report(
        "1 derivative-identity", 60, started,
        f"worst scaled error {report_obj.worst_scaled:.2e} <= 1e-4 over 10 thetas, all |a|<=2"
        f"; worst cell-union error {union_worst:.2e}",
    )


def test_criterion_2_mass_invariants(default_model):
    started = time.time()
    iset = default_model.index_set()
    rng = labeled_rng(SEED, "acc2")
    box = np.asarray(default_model.parameter_box)
    worst_zero, worst_deriv = 0.0, 0.0
    theta = None
    for step in range(1000):
        if step % 50 == 0:
            theta = box[:, 0] + (0.05 + 0.9 * rng.random(2)) * (box[:, 1] - box[:, 0])
        measure = random_l0(default_model, iset, rng)
        y = rng.uniform(-5.5, 5.5)
        out = filter_step(default_model, theta, y, measure)
        masses = out.masses()
        worst_zero = max(worst_zero, abs(masses[0] - 1.0))
        worst_deriv = max(worst_deriv, float(np.max(np.abs(masses[1:]))))
    assert worst_zero <= 1e-10 and worst_deriv <= 1e-10
    report(
        "2 mass-invariants", 10, started,
        f"1000 random steps, |slot0-1| <= {worst_zero:.1e}, |slots| <= {worst_deriv:.1e}",
    )


def test_criterion_3_oracle_equivalence(model8):
    started = time.time()
    iset = model8.index_set()
    lam = GridMeasure.uniform(model8.grid)
    rng = labeled_rng(SEED, "acc3")
    box = np.asarray(model8.parameter_box)
    worst = 0.0
    for draw in range(20):
        theta = box[:, 0] + (0.05 + 0.9 * rng.random(2)) * (box[:, 1] - box[:, 0])
        traj = simulate(model8, theta, lam, 5, seed=SEED + draw)
        state = filter_iterate(model8, theta, traj.observations, embed(lam, iset))
        reference = oracle_filter(model8, theta, traj.observations, lam)
        worst = max(worst, tv_norm(state.component(iset.zero) - reference))
    assert worst <= 1e-10
    report("3 oracle-equivalence", 5, started, f"20 draws, worst TV gap {worst:.1e} <= 1e-10")


def test_criterion_4_forgetting(default_model):
    started = time.time()
    iset = default_model.index_set()
    rng = labeled_rng(SEED, "acc4")
    pairs = [
        (random_l0(default_model, iset, rng), random_l0(default_model, iset, rng))
        for _ in range(5)
    ]
    curves = forgetting_experiment(
        default_model,
        np.array([0.8, 0.9]),
        pairs,
        n_max=60,
        seed=SEED,
        fit_window=(15, 60),
    )
    rates = []
    for curve in curves:
        assert curve.slope < 0.0
        assert curve.r_squared >= 0.9
        assert curve.rate <= 0.99
        rates.append(curve.rate)
    report(
        "4 forgetting", 30, started,
        f"5 random pairs over n in [15, 60], rates {min(rates):.3f}..{max(rates):.3f}, r2 >= 0.9",
    )


def test_criterion_5_loglik_jet(default_model):
    started = time.time()
    lam = GridMeasure.uniform(default_model.grid)
    data_theta = np.array([0.8, 0.9])
    traj = simulate(default_model, data_theta, lam, 30, seed=SEED + 5)
    scheme = FDScheme(1e-3, 2)
    iset = default_model.index_set()
    worst = 0.0
    for theta in draw_thetas(default_model, 5, "acc5"):
        jet = loglik_jet(default_model, theta, traj.observations, lam)
        f = lambda th: loglik_jet(default_model, th, traj.observations, lam).values[0]  # noqa: E731
        for alpha in iset.indices:
            if alpha.degree == 0:
                continue
            fd = fd_derivative(f, alpha, theta, scheme, bounds=default_model.parameter_box)
            worst = max(worst, abs(jet.value(alpha) - fd) / max(abs(fd), 1e-2))
    assert worst <= 1e-4
    report(
        "5 loglik-jet", 60, started,
        f"5 thetas at n=30, all |a|<=2, worst relative error {worst:.1e} <= 1e-4",
    )


def test_criterion_6_brute_force_likelihood(model8):
    started = time.time()
    lam = GridMeasure.uniform(model8.grid)
    worst = 0.0
    for draw, theta in enumerate(draw_thetas(model8, 4, "acc6")):
        traj = simulate(model8, theta, lam, 5, seed=SEED + 10 + draw)
        for n in range(1, 6):
            jet = loglik_jet(model8, theta, traj.observations[:n], lam)
            direct = oracle_log_likelihood(model8, theta, traj.observations[:n], lam)
            worst = max(worst, abs(jet.values[0] - direct))
    assert worst <= 1e-9
    report(
        "6 brute-force-likelihood", 5, started,
        f"n = 1..5 at N=8, worst |telescoped - direct| {worst:.1e} <= 1e-9",
    )


def test_criterion_7_ergodicity():
    started = time.time()
    model = make_model(cells=24, order=1)
    theta = np.array([0.8, 0.9])
    iset = model.index_set()
    grid = model.grid
    phi = posterior_mean_phi(model)
    starts = [
        (float(grid.axis(0)[0]), -1.0, embed(GridMeasure.point_mass(grid, 0), iset)),
        (float(grid.axis(0)[-1]), 1.0, embed(GridMeasure.point_mass(grid, grid.size - 1), iset)),
        (0.0, 0.0, embed(GridMeasure.uniform(grid), iset)),
    ]
    aligned = ergodicity_experiment(
        model, theta, phi, starts, [5, 40], replicas=1000, seed=SEED, chain="aligned"
    )
    shifted = ergodicity_experiment(
        model, theta, phi, starts, [5, 40], replicas=1000, seed=SEED, chain="shifted"
    )
    shrink = aligned.spread_at(5) / aligned.spread_at(40)
    assert shrink >= 5.0
    gap = abs(aligned.estimates[:, -1].mean() - shifted.estimates[:, -1].mean())
    band = 3.0 * np.sqrt(aligned.stderr[:, -1].max() ** 2 + shifted.stderr[:, -1].max() ** 2)
    assert gap <= band
    report(
        "7 ergodicity", 120, started,
        f"spread shrink x{shrink:.0f} >= 5, chain gap {gap:.3f} <= 3SE {band:.3f}, 1000 replicas",
    )


def test_criterion_8_assumption_constants():
    started = time.time()
    compact = make_model(cells=48, order=2)
    unbounded = make_model(cells=48, order=2, variant="gaussian")
    thetas = [np.array([0.8, 0.9])] + draw_thetas(compact, 2, "acc8")
    cc = assumption_constants(compact, thetas, np.linspace(-5.8, 5.8, 25))
    assert 0.0 < cc.epsilon < 1.0
    assert cc.envelope_holds, "constant envelope must dominate the score table uniformly in y"
    uc = assumption_constants(unbounded, thetas, np.geomspace(5.0, 500.0, 25))
    assert 0.0 < uc.epsilon < 1.0
    assert 1.8 <= uc.growth_exponent <= 2.2
    report(
        "8 assumption-constants", 30, started,
        f"compact eps {cc.epsilon:.1e} with uniform envelope; tail exponent {uc.growth_exponent:.2f}",
    )


FAST_CFG = """
[run]
seed = 424242
outdir = {outdir}

[model]
variant = {variant}

[grid]
cells = 16

[derivatives]
order = 1

[experiment]
horizon = {horizon}
replicas = 30
theta_draws = 2
pairs = 2
record_ns = 2 8
rml_steps = 80
y_samples = 9
"""


def test_criterion_9_determinism(tmp_path):
    started = time.time()
    cases = [
        ("simulate", "compact", 12),
        ("check-derivs", "compact", 4),
        ("forgetting", "compact", 25),
        ("ergodicity", "compact", 8),
        ("loglik", "compact", 6),
        ("rml", "compact", 4),
        ("assumptions", "compact", 4),
        ("assumptions", "gaussian", 4),
    ]
    for experiment, variant, horizon in cases:
        blobs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{experiment}-{variant}-{attempt}"
            cfg = tmp_path / f"{experiment}-{variant}-{attempt}.cfg"
            cfg.write_text(FAST_CFG.format(outdir=outdir, variant=variant, horizon=horizon))
            code = run(experiment, str(cfg))
            assert code in (0, 1), f"{experiment} aborted with {code}"
            payload = (outdir / "results.csv").read_bytes()
            payload += (outdir / "summary.txt").read_bytes()
            blobs.append(payload)
        assert blobs[0] == blobs[1], f"{experiment} CSV output not reproducible"
    report("9 determinism", 120, started, f"{len(cases)} experiments re-run byte-identical")
