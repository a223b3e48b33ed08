import configparser
import contextlib
import io
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from filterjet import FDScheme, GridMeasure, fd_derivative, loglik_jet, models, simulate
from filterjet.cli import _RUNNERS, _ergodicity_starts, main, run
from filterjet.config import (
    VARIANTS,
    ConfigError,
    RunConfig,
    build_grid,
    build_model,
    load_config_text,
    reference_theta,
    render_config,
)
from filterjet.experiments import PHI_BUILTINS
from filterjet.models import FEATURE_FUNCTIONS
from filterjet.reporting import format_value
from filterjet.seeding import labeled_seed

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

FAST = """
[run]
seed = 777
outdir = {outdir}

[grid]
cells = 16

[derivatives]
order = 1

[experiment]
horizon = {horizon}
replicas = 20
theta_draws = 2
pairs = 2
record_ns = 2 8
rml_steps = 60
"""


def fast_config(outdir, horizon=4):
    return FAST.format(outdir=outdir, horizon=horizon)


class TestConfigParsing:
    def test_defaults_from_empty_text(self):
        cfg = load_config_text("")
        assert cfg == RunConfig()
        assert cfg.model.variant == "compact"
        assert cfg.grid.cells == 64

    def test_round_trip_through_render(self):
        cfg = load_config_text(fast_config("somewhere"))
        again = load_config_text(render_config(cfg))
        assert again == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config_text("[nonsense]\na = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_text("[grid]\nspacing = 2\n")

    def test_unparseable_value_names_the_key(self):
        with pytest.raises(ConfigError, match=r"\[grid\] cells"):
            load_config_text("[grid]\ncells = many\n")

    def test_theta_outside_box_rejected(self):
        text = "[model]\ntheta = 0.1 0.9\n"
        with pytest.raises(ConfigError, match="theta"):
            load_config_text(text)

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError, match="order"):
            load_config_text("[derivatives]\norder = 4\n")

    def test_feature_validation(self):
        with pytest.raises(ConfigError, match="feature"):
            load_config_text("[model]\ndrift_features = warp zero\n")

    def test_inline_comments_allowed(self):
        cfg = load_config_text("[grid]\ncells = 32  # refinement\n")
        assert cfg.grid.cells == 32


class TestBuilders:
    def test_grid_and_model_follow_config(self):
        cfg = load_config_text("[grid]\ncells = 24\n[model]\nvariant = gaussian\n")
        grid = build_grid(cfg)
        assert grid.size == 24
        model = build_model(cfg, grid)
        assert model.obs_box is None
        assert model.max_order == cfg.derivatives.order

    def test_compact_model_has_box(self):
        model = build_model(load_config_text(""))
        assert model.obs_box == (-6.0, 6.0)


class TestRun:
    def test_missing_config_exits_2(self, capsys):
        assert run("simulate", "/nonexistent/path.cfg") == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\ncells = -3\n")
        assert run("simulate", str(bad)) == 2
        assert "config error" in capsys.readouterr().err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\ncells 16\n")
        assert run("simulate", str(bad)) == 2
        assert "line" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("check-derivs", "theta_draws", "0"),
            ("assumptions", "y_samples", "0"),
            ("ergodicity", "record_ns", ""),
            ("rml", "rml_steps", "0"),
        ],
    )
    def test_empty_experiment_setting_exits_2(self, tmp_path, capsys, experiment, key, value):
        # each value parses but leaves its experiment nothing to run
        lines = [ln for ln in fast_config(tmp_path / "out").splitlines() if not ln.startswith(key)]
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert run(experiment, str(cfg)) == 2
        assert f"[experiment] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, section, key, value",
        [
            ("rml", "experiment", "rml_step_b", "0"),
            ("rml", "experiment", "rml_step_b", "-5"),
            ("rml", "experiment", "rml_step_b", "inf"),
            ("rml", "experiment", "rml_step_a", "nan"),
            ("rml", "experiment", "rml_step_a", "0"),
            ("rml", "experiment", "rml_step_a", "inf"),
            ("loglik", "experiment", "rel_tol", "0"),
            ("check-derivs", "experiment", "rel_tol", "-1e-4"),
            ("rml", "experiment", "rml_init", "5.0 1.25"),
            ("rml", "experiment", "rml_init", "0.2 1.25"),
            ("simulate", "experiment", "phi", "median"),
        ],
    )
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, experiment, section, key, value):
        # each value parses, but the run would divide by it or step with it into a numerical abort
        setting = f"{key} = {value}\n" if section == "experiment" else f"[{section}]\n{key} = {value}\n"
        cfg = tmp_path / "range.cfg"
        cfg.write_text(fast_config(tmp_path / "out") + setting)
        assert run(experiment, str(cfg)) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    def test_ergodicity_runs_in_a_narrow_observation_box(self, tmp_path, capsys):
        # the fixed start observations -1 and 1 lie outside [-0.5, 0.5]
        outdir = tmp_path / "out"
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(fast_config(outdir) + "[model]\nobs_min = -0.5\nobs_max = 0.5\n")
        assert run("ergodicity", str(cfg)) in (0, 1)
        assert (outdir / "results.csv").exists()

    @pytest.mark.parametrize(
        "trans_scale, order, named",
        [
            # eps2 = 5.3e-256, so eps2 * eps2 underflows to 0
            ("0.118", 2, "psi_constant = 2*k2*k3/eps2**2 leaves float range at k2 = "),
            # eps2 = 1.1e-158: the quotient overflows to inf
            ("0.15", 2, "psi_constant = 2*k2*k3/eps2**2 leaves float range at k2 = "),
            ("0.25", 3, "score envelope to the power 3 leaves float range"),
        ],
        ids=["eps2-squared-underflows", "psi-constant-overflows", "envelope-cube-overflows"],
    )
    def test_assumption_constants_out_of_float_range_are_named(self, tmp_path, capsys, trans_scale, order, named):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(
            f"[run]\nseed = 265524\noutdir = {tmp_path / 'out'}\n"
            f"[model]\nvariant = gaussian\ndrift_features = one\nobs_features = linear\n"
            f"trans_scale = {trans_scale}\nobs_scale = 0.4338\nstate_min = -0.91\nstate_max = 5.85\n"
            "theta_min = 0.969\ntheta_max = 3.031\ntheta = 1.7738\n"
            f"[grid]\ncells = 8\n[derivatives]\norder = {order}\nfd_step = 0.000229\n"
            "[experiment]\nrml_init = 2.0\ny_samples = 6\n"
        )
        assert run("assumptions", str(cfg)) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("obs_scale", ["0.2", "0.1", "0.05"])
    def test_an_underflowing_compact_observation_density_is_named(self, tmp_path, capsys, obs_scale):
        # the shipped compact config with a narrower observation noise: q(y | x)
        # underflows to 0 far from the observation map, where d^b q / q was 0/0
        cfg = tmp_path / "narrow-noise.cfg"
        cfg.write_text(
            f"[run]\nseed = 20260808\noutdir = {tmp_path / 'out'}\n[model]\nvariant = compact\n"
            f"obs_scale = {obs_scale}\n[grid]\ncells = 48\n[derivatives]\norder = 2\n[experiment]\ny_samples = 25\n"
        )
        assert run("assumptions", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "observation density underflows to 0 at y = " in err
        assert "grid state x = " in err and "mixing assumption fails there" in err
        assert "invalid value" not in err

    def test_single_y_sample_exits_2(self, tmp_path, capsys):
        # one sample gives no log-log slope, so the Gaussian growth
        # exponent could not be measured, let alone judged
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            fast_config(tmp_path / "out") + "y_samples = 1\n[model]\nvariant = gaussian\n"
        )
        assert run("assumptions", str(cfg)) == 2
        assert "[experiment] y_samples" in capsys.readouterr().err

    def test_numerical_abort_exits_3(self, tmp_path, capsys):
        # a state box vastly wider than the noise makes the truncation
        # normalizer underflow when the kernel is first evaluated
        cfg = tmp_path / "abort.cfg"
        cfg.write_text(
            "[run]\noutdir = {}\n[model]\nstate_min = -100\nstate_max = 100\n"
            "[grid]\ncells = 4\n[experiment]\nhorizon = 2\ntheta_draws = 1\n".format(
                tmp_path / "out"
            )
        )
        assert run("check-derivs", str(cfg)) == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_unreachable_observation_box_exits_3(self, tmp_path, capsys):
        # observations can only land in [5, 6] more than 20 noise scales
        # above every location, so the rejection sampler hits its cap
        cfg = tmp_path / "tail.cfg"
        cfg.write_text(
            "[run]\noutdir = {}\n[model]\nobs_min = 5\nobs_max = 6\nobs_scale = 0.1\n".format(
                tmp_path / "out"
            )
        )
        assert run("simulate", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "numerical abort" in err and "[5.0, 6.0]" in err

    def test_unreachable_observation_box_aborts_ergodicity(self, tmp_path, capsys):
        # at obs_scale 0.25 the observation normalizer stays representable,
        # so the batched sampler of every row hits its cap
        cfg = tmp_path / "tail.cfg"
        cfg.write_text(
            fast_config(tmp_path / "out")
            + "[model]\nobs_min = 5\nobs_max = 6\nobs_scale = 0.25\n"
        )
        assert run("ergodicity", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "numerical abort" in err and "[5.0, 6.0]" in err

    def test_simulate_writes_artifacts_and_passes(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        outdir = tmp_path / "out"
        cfg.write_text(fast_config(outdir, horizon=6))
        assert run("simulate", str(cfg)) == 0
        for name in ("results.csv", "summary.txt", "resolved.cfg"):
            assert (outdir / name).exists()
        summary = (outdir / "summary.txt").read_text()
        assert "overall: PASS" in summary
        echoed = load_config_text((outdir / "resolved.cfg").read_text())
        assert echoed == load_config_text(cfg.read_text())

    def test_env_var_overrides_outdir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(fast_config(tmp_path / "ignored", horizon=3))
        override = tmp_path / "override"
        monkeypatch.setenv("FILTERJET_OUTDIR", str(override))
        assert run("simulate", str(cfg)) == 0
        assert (override / "results.csv").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("from_env", [False, True], ids=["config", "env"])
    def test_outdir_that_cannot_be_created_exits_2(self, tmp_path, monkeypatch, capsys, from_env):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "sim.cfg"
        if from_env:
            cfg.write_text(fast_config(tmp_path / "out", horizon=3))
            monkeypatch.setenv("FILTERJET_OUTDIR", str(blocker / "sub"))
        else:
            cfg.write_text(fast_config(blocker / "sub", horizon=3))
            monkeypatch.delenv("FILTERJET_OUTDIR", raising=False)
        assert run("simulate", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert ("FILTERJET_OUTDIR" if from_env else "[run] outdir") in err
        assert not (tmp_path / "out").exists()

    def test_main_entry_point(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(fast_config(tmp_path / "out", horizon=3))
        assert main(["simulate", str(cfg)]) == 0

    @pytest.mark.parametrize("experiment", ["check-derivs", "loglik", "forgetting"])
    def test_reruns_are_byte_identical(self, tmp_path, experiment):
        horizon = 25 if experiment == "forgetting" else 4
        outs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"{tag}.cfg"
            outdir = tmp_path / tag
            cfg.write_text(fast_config(outdir, horizon=horizon))
            code = run(experiment, str(cfg))
            assert code in (0, 1)
            outs.append((outdir / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_forgetting_runs_the_configured_pairs(self, tmp_path, pairs):
        outdir = tmp_path / "out"
        cfg = tmp_path / "f.cfg"
        cfg.write_text(fast_config(outdir, horizon=25).replace("pairs = 2", f"pairs = {pairs}"))
        assert run("forgetting", str(cfg)) in (0, 1)
        assert len((outdir / "fits.csv").read_text().splitlines()) == 1 + pairs
        assert f"pair-{pairs - 1}:" in (outdir / "summary.txt").read_text()
        assert f"pair-{pairs}:" not in (outdir / "summary.txt").read_text()

    def test_loglik_csv_has_increment_columns(self, tmp_path):
        cfg = tmp_path / "ll.cfg"
        outdir = tmp_path / "out"
        cfg.write_text(fast_config(outdir, horizon=5))
        assert run("loglik", str(cfg)) == 0
        header = (outdir / "results.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "step"
        assert "psi_0_0" in header
        body = (outdir / "results.csv").read_text().splitlines()[1:]
        assert len(body) == 5

    def test_loglik_fd_column_equals_per_alpha_differences(self, tmp_path):
        # the memo the alpha share must not move a bit of derivatives.csv
        cfg_path = tmp_path / "ll.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(fast_config(outdir, horizon=5).replace("order = 1", "order = 2"))
        assert run("loglik", str(cfg_path)) == 0
        cfg = load_config_text(cfg_path.read_text())
        model = build_model(cfg)
        theta = reference_theta(cfg)
        lam0 = GridMeasure.uniform(model.grid)
        traj = simulate(model, theta, lam0, 5, labeled_seed(cfg.seed, "loglik-path"))
        slot0 = lambda th: loglik_jet(model, th, traj.observations, lam0).values[0]  # noqa: E731
        scheme = FDScheme(cfg.derivatives.fd_step, cfg.derivatives.fd_levels)
        lines = (outdir / "derivatives.csv").read_text().splitlines()[1:]
        assert len(lines) == len(model.index_set()) - 1
        for line in lines:
            alpha, _, fd, _ = line.split(",")
            want = fd_derivative(slot0, tuple(map(int, alpha.split())), theta, scheme)
            assert float(fd) == want

    @pytest.mark.parametrize("name", ["results.csv", "summary.txt"])
    def test_an_output_file_that_cannot_be_written_exits_2(self, tmp_path, monkeypatch, capsys, name):
        # a directory in the way of the file makes its open raise IsADirectoryError
        outdir = tmp_path / "blocked"
        (outdir / name).mkdir(parents=True)
        monkeypatch.setenv("FILTERJET_OUTDIR", str(outdir))
        assert run("simulate", os.path.join(CONFIGS, "simulate.cfg")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: FILTERJET_OUTDIR: cannot write ")
        assert repr(str(outdir / name)) in err

    def test_an_aborted_loglik_run_leaves_only_its_resolved_config(self, tmp_path, monkeypatch, capsys):
        # the jet pass has completed when the difference passes abort
        def abort(*args, **kwargs):
            raise ArithmeticError("difference pass aborted")

        monkeypatch.setattr("filterjet.cli.fd_derivatives", abort)
        outdir = tmp_path / "out"
        monkeypatch.setenv("FILTERJET_OUTDIR", str(outdir))
        assert run("loglik", os.path.join(CONFIGS, "loglik.cfg")) == 3
        assert capsys.readouterr().err == "numerical abort: difference pass aborted\n"
        assert os.listdir(outdir) == ["resolved.cfg"]

    def test_failing_threshold_exits_1(self, tmp_path):
        # an absurdly tight tolerance forces a FAIL verdict
        cfg = tmp_path / "tight.cfg"
        outdir = tmp_path / "out"
        cfg.write_text(fast_config(outdir, horizon=4) + "rel_tol = 1e-18\nabs_floor = 1e-20\n")
        assert run("check-derivs", str(cfg)) == 1
        assert "overall: FAIL" in (outdir / "summary.txt").read_text()


def _any(v):
    return True


def _positive(v):
    return 0 < v


# Every numeric key: (section, an experiment that reads it, int key?, the
# values its domain accepts).  Finite floats are the base domain of reals.
NUMERIC_KEYS = {
    "seed": ("run", "simulate", True, _any),
    "trans_scale": ("model", "loglik", False, _positive),
    "obs_scale": ("model", "loglik", False, _positive),
    "state_min": ("model", "loglik", False, _any),
    "state_max": ("model", "loglik", False, _any),
    "obs_min": ("model", "loglik", False, _any),
    "obs_max": ("model", "loglik", False, _any),
    "theta_min": ("model", "rml", False, _any),
    "theta_max": ("model", "rml", False, _any),
    "theta": ("model", "loglik", False, _any),
    "cells": ("grid", "loglik", True, lambda v: v >= 2),
    "order": ("derivatives", "loglik", True, lambda v: v in (1, 2, 3)),
    "fd_step": ("derivatives", "check-derivs", False, _positive),
    "fd_levels": ("derivatives", "check-derivs", True, _positive),
    "horizon": ("experiment", "simulate", True, _positive),
    "replicas": ("experiment", "ergodicity", True, lambda v: v >= 2),
    "theta_draws": ("experiment", "check-derivs", True, _positive),
    "pairs": ("experiment", "forgetting", True, _positive),
    "record_ns": ("experiment", "ergodicity", True, lambda v: v >= 0),
    "rel_tol": ("experiment", "check-derivs", False, lambda v: 0 < v < 1),
    "abs_floor": ("experiment", "check-derivs", False, lambda v: v >= 0),
    "rml_step_a": ("experiment", "rml", False, _positive),
    "rml_step_b": ("experiment", "rml", False, _positive),
    "rml_steps": ("experiment", "rml", True, _positive),
    "rml_init": ("experiment", "rml", False, _any),
    "y_samples": ("experiment", "assumptions", True, lambda v: v >= 2),
}
EXTREMES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300"]


def _setting_config(tmp_path, settings):
    """The fast config, resolved, with each (section, key, text) of settings set."""
    parser = configparser.ConfigParser()
    parser.read_string(render_config(load_config_text(fast_config(tmp_path / "out"))))
    for section, key, text in settings:
        parser.set(section, key, text)
    path = tmp_path / "setting.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return str(path)


@pytest.mark.parametrize(
    "variant, box, y0",
    [
        ("compact", (-6.0, 6.0), [-1.0, 1.0, 0.0]),
        ("gaussian", None, [-1.0, 1.0, 0.0]),
        ("compact", (-0.5, 0.5), [-0.5, 0.5, 0.0]),
        ("compact", (5.0, 6.0), [5.0, 5.0, 5.0]),
        ("compact", (-3.0, -2.0), [-2.0, -2.0, -2.0]),
    ],
)
def test_ergodicity_starts_observe_inside_the_box(tmp_path, variant, box, y0):
    text = fast_config(tmp_path) + f"[model]\nvariant = {variant}\n"
    if box is not None:
        text += f"obs_min = {box[0]}\nobs_max = {box[1]}\n"
    model = build_model(load_config_text(text))
    assert [y for _, y, _ in _ergodicity_starts(model, model.index_set())] == y0


class TestEveryValueGetsAnExitCode:
    @pytest.mark.parametrize("value", EXTREMES)
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_extreme_value(self, tmp_path, capsys, key, value):
        # a value outside its key's domain is a config error naming the key;
        # any other value runs or aborts with a defined code, never raises
        section, experiment, integral, accepts = NUMERIC_KEYS[key]
        fast = load_config_text(fast_config(tmp_path / "out"))
        current = getattr(fast if section == "run" else getattr(fast, section), key)
        text = value
        if isinstance(current, tuple):
            text = " ".join([value] + [format_value(v) for v in current[1:]])
        number = float(value)
        in_domain = math.isfinite(number) and accepts(number)
        if integral:
            in_domain = in_domain and value.lstrip("-").isdigit()
        code = run(experiment, _setting_config(tmp_path, [(section, key, text)]))
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        if not in_domain:
            assert code == 2 and f"[{section}] {key}" in err
        elif code == 2:
            assert key in err

    @pytest.mark.parametrize(
        "experiment, settings, named",
        [
            (
                "simulate",
                [("model", "drift_features", ""), ("model", "obs_features", "")],
                "[model] drift_features",
            ),
            # 8 * fd_step exceeds half the box width, so no parameter point
            # clears the margin the finite differences need
            ("check-derivs", [("derivatives", "fd_step", "0.5")], "[derivatives] fd_step"),
            # theta sits 5e-4 inside the box, nearer than the stencil's 2 * fd_step
            ("loglik", [("model", "theta", "0.2005 0.9")], "[derivatives] fd_step"),
            ("simulate", [("run", "outdir", "")], "[run] outdir"),
            # the decay fit needs 20 steps at least
            ("forgetting", [("experiment", "horizon", "10")], "[experiment] horizon"),
            ("forgetting", [("experiment", "horizon", "19")], "[experiment] horizon"),
            # the compact normalizer's quadrature has one fixed size
            ("loglik", [("model", "obs_quad_cells", "161")], "[model] obs_quad_cells: unknown key"),
            ("rml", [("model", "obs_quad_cells", "-3")], "[model] obs_quad_cells: unknown key"),
        ],
    )
    def test_setting_out_of_reach_exits_2(self, tmp_path, capsys, experiment, settings, named):
        assert run(experiment, _setting_config(tmp_path, settings)) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()


def _floats(draw, lo, hi, count):
    return [draw(st.floats(lo, hi)) for _ in range(count)]


@st.composite
def in_domain_configs(draw):
    """INI text of a random in-domain config at desk scale, with an {outdir} field."""
    d = draw(st.integers(1, 3))
    features = st.lists(st.sampled_from(sorted(FEATURE_FUNCTIONS)), min_size=d, max_size=d)
    theta_min = _floats(draw, -2.0, 1.0, d)
    theta_max = [lo + w for lo, w in zip(theta_min, _floats(draw, 0.5, 3.0, d))]

    def inside():
        return [lo + u * (hi - lo) for lo, hi, u in zip(theta_min, theta_max, _floats(draw, 0.05, 0.95, d))]

    state_min, obs_min = draw(st.floats(-4.0, 1.0)), draw(st.floats(-8.0, 2.0))
    sections = {
        "run": {"seed": draw(st.integers(0, 2**31 - 1)), "outdir": "{outdir}"},
        "model": {
            "variant": draw(st.sampled_from(VARIANTS)),
            "drift_features": draw(features),
            "obs_features": draw(features),
            "trans_scale": draw(st.floats(0.1, 3.0)),
            "obs_scale": draw(st.floats(0.1, 3.0)),
            "state_min": state_min,
            "state_max": state_min + draw(st.floats(0.5, 8.0)),
            "obs_min": obs_min,
            "obs_max": obs_min + draw(st.floats(1.0, 12.0)),
            "theta_min": theta_min,
            "theta_max": theta_max,
            "theta": inside(),
        },
        "grid": {"cells": draw(st.integers(2, 20))},
        "derivatives": {
            "order": draw(st.integers(1, 3)),
            "fd_step": draw(st.floats(1e-4, 1e-2)),
            "fd_levels": draw(st.integers(1, 2)),
        },
        "experiment": {
            "horizon": draw(st.integers(1, 8) | st.integers(20, 30)),
            "replicas": draw(st.integers(2, 6)),
            "theta_draws": draw(st.integers(1, 2)),
            "pairs": draw(st.integers(1, 3)),
            "record_ns": draw(st.lists(st.integers(0, 8), min_size=1, max_size=3)),
            "phi": draw(st.sampled_from(sorted(PHI_BUILTINS))),
            "rml_steps": draw(st.integers(1, 30)),
            "rml_init": inside(),
            "y_samples": draw(st.integers(2, 6)),
        },
    }
    text = ""
    for section, keys in sections.items():
        text += f"[{section}]\n"
        for key, value in keys.items():
            words = value if isinstance(value, list) else [value]
            text += f"{key} = {' '.join(map(format_value, words))}\n"
    return text


def _run_in_process(experiment, path):
    """(exit code, stderr) of one in-process run; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(experiment, path)
    return code, err.getvalue()


@pytest.mark.parametrize("experiment", sorted(_RUNNERS))
@settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=in_domain_configs())
def test_every_in_domain_config_gets_a_truthful_exit(tmp_path_factory, monkeypatch, experiment, text):
    # exit 2 names its key, exit 3 names its cause, and a completed run repeats byte for byte;
    # a tenth of the sampler cap keeps an unreachable observation box at 40 ms, not 0.4 s
    monkeypatch.delenv("FILTERJET_OUTDIR", raising=False)
    monkeypatch.setattr(models, "SAMPLER_MAX_TRIALS", 10**5)
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "fuzz.cfg"
    path.write_text(text.format(outdir=root / "out"))
    code, err = _run_in_process(experiment, str(path))
    assert code in (0, 1, 2, 3), err
    if code == 2:
        assert re.search(r"\[(run|model|grid|derivatives|experiment)\] \w+", err), err
    if code == 3:
        assert err.startswith("numerical abort: "), err
        assert "division by zero" not in err and "encountered in" not in err, err
    if code in (0, 1):
        first = [(root / "out" / name).read_bytes() for name in ("results.csv", "summary.txt")]
        assert _run_in_process(experiment, str(path)) == (code, "")
        assert [(root / "out" / name).read_bytes() for name in ("results.csv", "summary.txt")] == first
