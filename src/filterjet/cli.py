"""Command-line front door: config in, CSV plus pass/fail summary out.

Each subcommand's runner is a pure function of the config that returns
its tables and checks; `run` alone writes files.  It writes the resolved
config echo (resolved.cfg) first, and the tables (results.csv, fits.csv,
derivatives.csv) and summary.txt only when the run completes.  Exit
status: 0 when all thresholds pass, 1 when a threshold fails, 2 on config
errors, an output file that cannot be written included (the error names
the file), 3 on numerical aborts.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    build_model,
    load_config,
    reference_theta,
    render_config,
)
from .experiments import (
    _FORGETTING_MIN_HORIZON,
    PHI_BUILTINS,
    derivative_identity_sweep,
    ergodicity_experiment,
    forgetting_experiment,
)
from .grid import GridMeasure, VectorMeasure, embed
from .loglik import loglik_jet, rml_demo
from .models import assumption_constants, simulate
from .oracle import FDScheme, fd_derivatives, stencil_points
from .reporting import Check, csv_text, format_value, summarize
from .seeding import labeled_rng, labeled_seed

OUTDIR_ENV = "FILTERJET_OUTDIR"


def _scheme(cfg: RunConfig) -> FDScheme:
    return FDScheme(cfg.derivatives.fd_step, cfg.derivatives.fd_levels)


def _theta_draws(cfg: RunConfig, model, count: int) -> list[np.ndarray]:
    """Uniform parameter draws inside the box, shrunk clear of the boundary."""
    rng = labeled_rng(cfg.seed, "theta-draws")
    box = np.asarray(model.parameter_box, dtype=float)
    width = box[:, 1] - box[:, 0]
    margin = np.maximum(0.05 * width, 8.0 * cfg.derivatives.fd_step)
    lo, hi = box[:, 0] + margin, box[:, 1] - margin
    if not np.all(lo < hi):
        raise ConfigError(
            f"[derivatives] fd_step: {cfg.derivatives.fd_step} leaves no theta box interior "
            "clear of the margin max(5% of the width, 8 * fd_step)"
        )
    return [lo + rng.random(box.shape[0]) * (hi - lo) for _ in range(count)]


def _random_l0(model, index_set, rng) -> VectorMeasure:
    grid = model.grid
    base = np.abs(rng.standard_normal(grid.size)) + 0.05
    components = rng.standard_normal((len(index_set), grid.size))
    components[0] = base / np.dot(base, grid.weights)
    return VectorMeasure(components, index_set, grid)


def _run_simulate(cfg: RunConfig) -> tuple[dict, list[Check]]:
    model = build_model(cfg)
    theta = reference_theta(cfg)
    lam0 = GridMeasure.uniform(model.grid)
    traj = simulate(model, theta, lam0, cfg.experiment.horizon, labeled_seed(cfg.seed, "simulate"))
    rows = [(0, traj.states[0], "")]
    rows += [(k + 1, traj.states[k + 1], traj.observations[k]) for k in range(len(traj))]
    lo, hi = model.grid.bounds[0]
    inside = bool(np.all(traj.states >= lo) and np.all(traj.states <= hi))
    return {"results.csv": (["step", "state", "observation"], rows)}, [
        Check("trajectory-length", f"{len(traj)} == {cfg.experiment.horizon}", len(traj) == cfg.experiment.horizon),
        Check("states-in-box", f"all states within [{lo}, {hi}]", inside),
    ]


def _run_check_derivs(cfg: RunConfig) -> tuple[dict, list[Check]]:
    model = build_model(cfg)
    thetas = _theta_draws(cfg, model, cfg.experiment.theta_draws)
    report = derivative_identity_sweep(
        model,
        thetas,
        cfg.experiment.horizon,
        seed=cfg.seed,
        scheme=_scheme(cfg),
        rel_tol=cfg.experiment.rel_tol,
        abs_floor=cfg.experiment.abs_floor,
        data_theta=reference_theta(cfg),
    )
    rows = [
        (c.theta_index, " ".join(map(str, c.alpha)), c.max_abs_error, c.scaled_error)
        for c in report.cells
    ]
    return {"results.csv": (["theta_index", "alpha", "max_abs_error", "scaled_error"], rows)}, [
        Check(
            "derivative-identity",
            f"worst scaled error {format_value(report.worst_scaled)} <= {format_value(report.rel_tol)}",
            report.passed,
        )
    ]


def _run_forgetting(cfg: RunConfig) -> tuple[dict, list[Check]]:
    if cfg.experiment.horizon < _FORGETTING_MIN_HORIZON:
        need = f"at least {_FORGETTING_MIN_HORIZON} for forgetting"
        raise ConfigError(f"[experiment] horizon: must be {need}, got {cfg.experiment.horizon}")
    model = build_model(cfg)
    theta = reference_theta(cfg)
    iset = model.index_set()
    grid = model.grid
    pairs = [
        (
            embed(GridMeasure.point_mass(grid, 0), iset),
            embed(GridMeasure.point_mass(grid, grid.size - 1), iset),
        )
    ]
    # A pair differing only in one derivative slot, while pairs has room for it.
    if len(iset) > 1 and len(pairs) < cfg.experiment.pairs:
        plain = embed(GridMeasure.uniform(grid), iset)
        bumped = np.array(plain.components)
        bumped[1] = np.sin(3.0 * grid.axis(0))
        pairs.append((plain, VectorMeasure(bumped, iset, grid)))
    rng = labeled_rng(cfg.seed, "forgetting-pairs")
    while len(pairs) < cfg.experiment.pairs:
        pairs.append((_random_l0(model, iset, rng), _random_l0(model, iset, rng)))
    curves = forgetting_experiment(model, theta, pairs, cfg.experiment.horizon, seed=cfg.seed)

    rows = []
    for idx, curve in enumerate(curves):
        for n, dist in zip(curve.horizon, curve.distance):
            rows.append((idx, n, dist))
    fit_rows = [
        (i, c.slope, c.rate, c.r_squared, c.fit_start, c.fit_stop) for i, c in enumerate(curves)
    ]
    tables = {
        "results.csv": (["pair", "n", "distance"], rows),
        "fits.csv": (["pair", "slope", "rate", "r_squared", "fit_start", "fit_stop"], fit_rows),
    }
    checks = []
    for i, c in enumerate(curves):
        if c.degenerate:
            checks.append(Check(f"pair-{i}", "identical pair, fit skipped", True))
            continue
        ok = c.slope < 0.0 and c.r_squared >= 0.9 and c.rate <= 0.99
        checks.append(
            Check(
                f"pair-{i}",
                f"rate {format_value(c.rate)} <= 0.99, r2 {format_value(c.r_squared)} >= 0.9",
                ok,
            )
        )
    return tables, checks


def _ergodicity_starts(model, iset):
    """(x0, y0, start) per start; the shifted chain filters y0, so it lies in the observation box."""
    grid = model.grid
    mid = grid.size // 2
    lo, hi = model.obs_box or (-np.inf, np.inf)
    y0 = [min(max(y, lo), hi) for y in (-1.0, 1.0, 0.0)]
    return [
        (float(grid.axis(0)[0]), y0[0], embed(GridMeasure.point_mass(grid, 0), iset)),
        (float(grid.axis(0)[-1]), y0[1], embed(GridMeasure.point_mass(grid, grid.size - 1), iset)),
        (float(grid.axis(0)[mid]), y0[2], embed(GridMeasure.uniform(grid), iset)),
    ]


def _run_ergodicity(cfg: RunConfig) -> tuple[dict, list[Check]]:
    model = build_model(cfg)
    theta = reference_theta(cfg)
    iset = model.index_set()
    phi = PHI_BUILTINS[cfg.experiment.phi](model)
    starts = _ergodicity_starts(model, iset)
    ns = cfg.experiment.record_ns
    probes = {
        chain: ergodicity_experiment(
            model, theta, phi, starts, ns, cfg.experiment.replicas, cfg.seed, chain=chain
        )
        for chain in ("aligned", "shifted")
    }
    rows = []
    for chain, probe in probes.items():
        for z_idx in range(len(starts)):
            for t_idx, n in enumerate(probe.record_ns):
                rows.append(
                    (
                        chain,
                        z_idx,
                        int(n),
                        probe.estimates[z_idx, t_idx],
                        probe.stderr[z_idx, t_idx],
                    )
                )
        for t_idx, n in enumerate(probe.record_ns):
            rows.append((chain, "spread", int(n), probe.spreads[t_idx], 0.0))
    aligned, shifted = probes["aligned"], probes["shifted"]
    first, last = aligned.spreads[0], aligned.spreads[-1]
    shrink = first / last if last > 0.0 else np.inf
    gap = abs(aligned.estimates[:, -1].mean() - shifted.estimates[:, -1].mean())
    band = 3.0 * np.sqrt(aligned.stderr[:, -1].max() ** 2 + shifted.stderr[:, -1].max() ** 2)
    return {"results.csv": (["chain", "start", "n", "estimate", "stderr"], rows)}, [
        Check(
            "spread-shrink",
            f"spread factor {format_value(float(shrink))} >= 5 from n={int(aligned.record_ns[0])} to n={int(aligned.record_ns[-1])}",
            shrink >= 5.0,
        ),
        Check(
            "chain-agreement",
            f"aligned/shifted gap {format_value(float(gap))} <= {format_value(float(band))}",
            gap <= band,
        ),
    ]


def _run_loglik(cfg: RunConfig) -> tuple[dict, list[Check]]:
    model = build_model(cfg)
    theta = reference_theta(cfg)
    scheme = _scheme(cfg)
    iset = model.index_set()
    differenced = [alpha for alpha in iset.indices if alpha.degree > 0]
    try:
        stencil_points(differenced, theta, scheme, model.parameter_box)
    except ValueError as err:
        raise ConfigError(
            f"[model] theta: the {err} at [derivatives] fd_step = {cfg.derivatives.fd_step}"
        ) from err
    lam0 = GridMeasure.uniform(model.grid)
    traj = simulate(model, theta, lam0, cfg.experiment.horizon, labeled_seed(cfg.seed, "loglik-path"))
    jet = loglik_jet(model, theta, traj.observations, lam0)
    header = ["step"] + ["psi_" + "_".join(map(str, a)) for a in iset.indices]
    rows = [
        tuple([k + 1] + [jet.increments[k, s] for s in range(len(iset))])
        for k in range(jet.increments.shape[0])
    ]

    # The difference passes read slot 0 only, which an order-0 build of the
    # model computes as the same float, in one pass over the stencil points.
    order0 = replace(model, order=0)
    slot0 = lambda stack: [j.values[0] for j in loglik_jet(order0, stack, traj.observations, lam0)]  # noqa: E731
    fds = fd_derivatives(slot0, differenced, theta, jet.values[0], scheme, model.parameter_box)
    worst = 0.0
    deriv_rows = []
    for alpha, fd in zip(differenced, fds):
        rel = abs(jet.value(alpha) - fd) / max(abs(fd), cfg.experiment.abs_floor / cfg.experiment.rel_tol)
        worst = max(worst, rel)
        deriv_rows.append((" ".join(map(str, alpha)), jet.value(alpha), fd, rel))
    tables = {
        "results.csv": (header, rows),
        "derivatives.csv": (["alpha", "jet", "finite_difference", "rel_error"], deriv_rows),
    }
    return tables, [
        Check(
            "jet-vs-fd",
            f"worst relative error {format_value(worst)} <= {format_value(cfg.experiment.rel_tol)}",
            worst <= cfg.experiment.rel_tol,
        )
    ]


def _run_rml(cfg: RunConfig) -> tuple[dict, list[Check]]:
    model = build_model(cfg)
    truth = reference_theta(cfg)
    init = np.asarray(cfg.experiment.rml_init, dtype=float)
    trace = rml_demo(
        model,
        init,
        truth,
        step_a=cfg.experiment.rml_step_a,
        step_b=cfg.experiment.rml_step_b,
        n_steps=cfg.experiment.rml_steps,
        seed=cfg.seed,
    )
    rows = [
        tuple([k] + list(trace.thetas[k])) for k in range(trace.thetas.shape[0])
    ]
    header = ["step"] + [f"theta_{i+1}" for i in range(trace.thetas.shape[1])]
    tail = trace.thetas[-500:].mean(axis=0)
    tail_dist = float(np.linalg.norm(tail - truth))
    init_dist = float(np.linalg.norm(init - truth))
    if init_dist == 0.0:
        max_dev = float(np.max(np.linalg.norm(trace.thetas - truth, axis=1)))
        ok = max_dev <= 0.2
        statement = f"started at truth, max deviation {format_value(max_dev)} <= 0.2"
    else:
        ok = tail_dist < init_dist
        statement = (
            f"tail distance {format_value(tail_dist)} < initial distance {format_value(init_dist)}"
        )
    return {"results.csv": (header, rows)}, [
        Check("estimate-improves", statement, ok),
        Check("projections", f"{trace.projections} boundary projections", True),
    ]


def _run_assumptions(cfg: RunConfig) -> tuple[dict, list[Check]]:
    model = build_model(cfg)
    thetas = [reference_theta(cfg)] + _theta_draws(cfg, model, 2)
    if model.compact_observations:
        lo, hi = model.obs_box
        pad = 0.02 * (hi - lo)
        ys = np.linspace(lo + pad, hi - pad, cfg.experiment.y_samples)
    else:
        ys = np.geomspace(5.0, 500.0, cfg.experiment.y_samples)
    constants = assumption_constants(model, thetas, ys)
    rows = list(zip(constants.y_values, constants.psi_values))
    checks = [
        Check(
            "mixing-ratio",
            f"epsilon {format_value(constants.epsilon)} strictly inside (0, 1)",
            0.0 < constants.epsilon < 1.0,
        ),
        Check(
            "score-envelope",
            f"constructed envelope dominates the score table (constant {format_value(constants.psi_constant)})",
            constants.envelope_holds,
        ),
    ]
    if not model.compact_observations:
        checks.append(
            Check(
                "tail-growth",
                f"log-log growth exponent {format_value(constants.growth_exponent)} within 2 +- 0.2",
                1.8 <= constants.growth_exponent <= 2.2,
            )
        )
    return {"results.csv": (["y", "psi"], rows)}, checks


_RUNNERS = {
    "simulate": _run_simulate,
    "check-derivs": _run_check_derivs,
    "forgetting": _run_forgetting,
    "ergodicity": _run_ergodicity,
    "loglik": _run_loglik,
    "rml": _run_rml,
    "assumptions": _run_assumptions,
}


def _write(outdir: str, source: str, files: dict[str, str]) -> bool:
    """Write each named text into outdir, creating it; an OSError is a config error naming the file.

    A call that fails removes the files it opened, so it leaves none of them behind.
    """
    path, opened = outdir, []
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(outdir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(path)
                fh.write(text)
    except OSError as err:
        for done in opened:
            with contextlib.suppress(OSError):
                os.remove(done)
        print(f"config error: {source}: cannot write {path!r}: {err.strerror or err}", file=sys.stderr)
        return False
    return True


def run(experiment: str, config_path: str) -> int:
    """Load the config, run one experiment, write artifacts, return exit status."""
    try:
        cfg = load_config(config_path)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    from_env = os.environ.get(OUTDIR_ENV)
    outdir = from_env or cfg.outdir
    source = OUTDIR_ENV if from_env else "[run] outdir"
    resolved = render_config(cfg)
    if not _write(outdir, source, {"resolved.cfg": resolved}):
        return 2
    sys.stdout.write(resolved)
    try:
        # a floating-point fault aborts the same way under every warning filter
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tables, checks = _RUNNERS[experiment](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    ok, summary = summarize(checks)
    files = {name: csv_text(header, rows) for name, (header, rows) in tables.items()}
    if not _write(outdir, source, {**files, "summary.txt": summary}):
        return 2
    sys.stdout.write(summary)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="filterjet",
        description="Grid filtering with parameter-derivative jets: desk-scale experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("config", help="path to the INI config file")
    args = parser.parse_args(argv)
    return run(args.experiment, args.config)


if __name__ == "__main__":
    sys.exit(main())
