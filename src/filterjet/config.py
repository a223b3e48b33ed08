"""Structured run configuration: parsing, validation, echo, model building.

Configs are INI files with one section per concern.  Parsed configs are
plain frozen dataclasses of floats, ints, and tuples, so value equality
holds and an echoed config re-parses to an equal object.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import StateGrid
from .models import FEATURE_FUNCTIONS, TruncatedNonlinearModel


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the spot."""


VARIANTS = ("compact", "gaussian")

@dataclass(frozen=True)
class ModelConfig:
    variant: str = "compact"
    drift_features: tuple[str, ...] = ("tanh", "zero")
    obs_features: tuple[str, ...] = ("zero", "linear")
    trans_scale: float = 0.5
    obs_scale: float = 0.7
    state_min: float = -3.0
    state_max: float = 3.0
    obs_min: float = -6.0
    obs_max: float = 6.0
    theta_min: tuple[float, ...] = (0.2, 0.2)
    theta_max: tuple[float, ...] = (1.5, 1.5)
    theta: tuple[float, ...] = (0.8, 0.9)
    obs_quad_cells: int = 161


@dataclass(frozen=True)
class GridConfig:
    cells: int = 64


@dataclass(frozen=True)
class DerivativesConfig:
    order: int = 2
    fd_step: float = 1e-3
    fd_levels: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: int = 10
    replicas: int = 1000
    theta_draws: int = 10
    pairs: int = 5
    record_ns: tuple[int, ...] = (5, 10, 20, 40)
    rel_tol: float = 1e-4
    abs_floor: float = 1e-6
    phi: str = "posterior-mean"
    rml_step_a: float = 3.0
    rml_step_b: float = 300.0
    rml_steps: int = 6000
    rml_init: tuple[float, ...] = (0.45, 1.25)
    y_samples: int = 25


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260808
    outdir: str = "out"
    model: ModelConfig = ModelConfig()
    grid: GridConfig = GridConfig()
    derivatives: DerivativesConfig = DerivativesConfig()
    experiment: ExperimentConfig = ExperimentConfig()


_SECTIONS = {
    "run": None,
    "model": ModelConfig,
    "grid": GridConfig,
    "derivatives": DerivativesConfig,
    "experiment": ExperimentConfig,
}


def _convert(section: str, key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        # tuple types: whitespace-separated values, element type from the annotation
        elem = str if "str" in kind else (int if "int" in kind else float)
        return tuple(elem(tok) for tok in raw.split())
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from err


def _parse_section(parser, section: str, cls):
    kwargs = {}
    if not parser.has_section(section):
        return cls()
    known = {f.name: f for f in fields(cls)}
    for key, raw in parser.items(section):
        if key not in known:
            raise ConfigError(f"[{section}] {key}: unknown key")
        ann = known[key].type
        kind = {"int": int, "float": float, "str": str}.get(ann, ann)
        kwargs[key] = _convert(section, key, raw, kind)
    return cls(**kwargs)


def load_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(str(err)) from err
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")

    seed = 20260808
    outdir = "out"
    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key == "seed":
                seed = _convert("run", "seed", raw, int)
            elif key == "outdir":
                outdir = raw.strip()
            else:
                raise ConfigError(f"[run] {key}: unknown key")

    cfg = RunConfig(
        seed=seed,
        outdir=outdir,
        model=_parse_section(parser, "model", ModelConfig),
        grid=_parse_section(parser, "grid", GridConfig),
        derivatives=_parse_section(parser, "derivatives", DerivativesConfig),
        experiment=_parse_section(parser, "experiment", ExperimentConfig),
    )
    validate_config(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return load_config_text(text)


def validate_config(cfg: RunConfig) -> None:
    m = cfg.model
    if m.variant not in VARIANTS:
        raise ConfigError(f"[model] variant: must be one of {VARIANTS}")
    for name in m.drift_features + m.obs_features:
        if name not in FEATURE_FUNCTIONS:
            raise ConfigError(f"[model] features: unknown feature {name!r}")
    if len(m.drift_features) != len(m.obs_features):
        raise ConfigError("[model] obs_features: must match drift_features in length")
    d = len(m.drift_features)
    if not (len(m.theta_min) == len(m.theta_max) == len(m.theta) == d):
        raise ConfigError("[model] theta/theta_min/theta_max: one value per parameter")
    if not m.state_max > m.state_min:
        raise ConfigError("[model] state_max: state box is degenerate")
    if m.variant == "compact" and not m.obs_max > m.obs_min:
        raise ConfigError("[model] obs_max: observation box is degenerate")
    if not (m.trans_scale > 0 and m.obs_scale > 0):
        raise ConfigError("[model] trans_scale/obs_scale: must be positive")
    for t, lo, hi in zip(m.theta, m.theta_min, m.theta_max):
        if not lo < t < hi:
            raise ConfigError(f"[model] theta: {t} not strictly inside ({lo}, {hi})")
    if m.obs_quad_cells < 1:
        raise ConfigError("[model] obs_quad_cells: must be >= 1")
    if cfg.grid.cells < 2:
        raise ConfigError("[grid] cells: need at least 2 cells")
    if cfg.derivatives.order not in (1, 2, 3):
        raise ConfigError("[derivatives] order: must be 1, 2, or 3")
    if not cfg.derivatives.fd_step > 0:
        raise ConfigError("[derivatives] fd_step: must be positive")
    if cfg.derivatives.fd_levels < 1:
        raise ConfigError("[derivatives] fd_levels: must be >= 1")
    e = cfg.experiment
    if e.horizon < 1:
        raise ConfigError("[experiment] horizon: must be >= 1")
    if e.replicas < 2:
        raise ConfigError("[experiment] replicas: must be >= 2")
    for key in ("theta_draws", "rml_steps"):
        if getattr(e, key) < 1:
            raise ConfigError(f"[experiment] {key}: must be >= 1")
    if not e.rel_tol > 0:
        raise ConfigError("[experiment] rel_tol: must be positive")
    for key in ("rml_step_a", "rml_step_b"):
        if not 0 < getattr(e, key) < math.inf:
            raise ConfigError(f"[experiment] {key}: must be finite and positive")
    if e.y_samples < 2:
        # the Gaussian tail-growth exponent is a log-log slope: two points at least
        raise ConfigError("[experiment] y_samples: must be >= 2")
    if not e.record_ns or min(e.record_ns) < 0:
        raise ConfigError("[experiment] record_ns: need at least one horizon, none negative")
    if len(e.rml_init) != d:
        raise ConfigError("[experiment] rml_init: one value per parameter")


def render_config(cfg: RunConfig) -> str:
    """Echo the resolved config as INI text that parses back equal."""

    def fmt(value):
        if isinstance(value, tuple):
            return " ".join(fmt(v) for v in value)
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    out = io.StringIO()
    out.write("[run]\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"outdir = {cfg.outdir}\n")
    for section, obj in (
        ("model", cfg.model),
        ("grid", cfg.grid),
        ("derivatives", cfg.derivatives),
        ("experiment", cfg.experiment),
    ):
        out.write(f"\n[{section}]\n")
        for f in fields(obj):
            out.write(f"{f.name} = {fmt(getattr(obj, f.name))}\n")
    return out.getvalue()


def build_grid(cfg: RunConfig) -> StateGrid:
    return StateGrid.uniform([(cfg.model.state_min, cfg.model.state_max)], cfg.grid.cells)


def build_model(cfg: RunConfig, grid: StateGrid | None = None) -> TruncatedNonlinearModel:
    m = cfg.model
    grid = build_grid(cfg) if grid is None else grid
    return TruncatedNonlinearModel(
        grid=grid,
        drift_features=m.drift_features,
        obs_features=m.obs_features,
        trans_scale=m.trans_scale,
        obs_scale=m.obs_scale,
        theta_box=tuple(zip(m.theta_min, m.theta_max)),
        obs_box=(m.obs_min, m.obs_max) if m.variant == "compact" else None,
        order=cfg.derivatives.order,
        obs_quad_cells=m.obs_quad_cells,
    )


def reference_theta(cfg: RunConfig) -> np.ndarray:
    return np.asarray(cfg.model.theta, dtype=float)
