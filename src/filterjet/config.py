"""Structured run configuration: parsing, validation, echo, model building.

Configs are INI files with one section per concern.  Parsed configs are
plain frozen dataclasses of floats, ints, and tuples, so value equality
holds and an echoed config re-parses to an equal object.  Each key is
declared once, as a dataclass field whose metadata holds its `Domain`:
how its text parses and which values it accepts.  Parsing, validation
and the echo all walk those fields; only the checks across keys are
written out.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .experiments import PHI_BUILTINS
from .grid import StateGrid
from .loglik import PROJECTION_MARGIN
from .models import FEATURE_FUNCTIONS, TruncatedNonlinearModel
from .reporting import format_value


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the spot."""


VARIANTS = ("compact", "gaussian")


@dataclass(frozen=True)
class Domain:
    """How one key's text becomes a value, and which values the key accepts."""

    parse: Callable[[str], object]
    accepts: Callable[[object], bool]
    need: str


def _key(default, parse, accepts=lambda v: True, need=""):
    return field(default=default, metadata={"domain": Domain(parse, accepts, need)})


def _words(kind):
    return lambda raw: tuple(kind(tok) for tok in raw.split())


def _real(default, accepts=lambda v: True, need=""):
    need = f"a finite number {need}".strip()
    return _key(default, float, lambda v: math.isfinite(v) and accepts(v), need)


def _reals(default):
    return _key(default, _words(float), lambda v: all(map(math.isfinite, v)), "finite numbers")


def _count(default, least):
    return _key(default, int, lambda v: v >= least, f"an integer >= {least}")


def _one_of(default, choices):
    return _key(default, str, lambda v: v in choices, f"one of {', '.join(choices)}")


def _names(default, choices):
    need = f"one or more of {', '.join(choices)}"
    return _key(default, _words(str), lambda v: bool(v) and set(v) <= set(choices), need)


@dataclass(frozen=True)
class ModelConfig:
    variant: str = _one_of("compact", VARIANTS)
    drift_features: tuple[str, ...] = _names(("tanh", "zero"), FEATURE_FUNCTIONS)
    obs_features: tuple[str, ...] = _names(("zero", "linear"), FEATURE_FUNCTIONS)
    trans_scale: float = _real(0.5, lambda v: v > 0, "> 0")
    obs_scale: float = _real(0.7, lambda v: v > 0, "> 0")
    state_min: float = _real(-3.0)
    state_max: float = _real(3.0)
    obs_min: float = _real(-6.0)
    obs_max: float = _real(6.0)
    theta_min: tuple[float, ...] = _reals((0.2, 0.2))
    theta_max: tuple[float, ...] = _reals((1.5, 1.5))
    theta: tuple[float, ...] = _reals((0.8, 0.9))


@dataclass(frozen=True)
class GridConfig:
    cells: int = _count(64, 2)


@dataclass(frozen=True)
class DerivativesConfig:
    order: int = _key(2, int, lambda v: v in (1, 2, 3), "one of 1, 2, 3")
    fd_step: float = _real(1e-3, lambda v: v > 0, "> 0")
    fd_levels: int = _count(2, 1)


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: int = _count(10, 1)
    replicas: int = _count(1000, 2)
    theta_draws: int = _count(10, 1)
    pairs: int = _count(5, 1)
    record_ns: tuple[int, ...] = _key(
        (5, 10, 20, 40), _words(int), lambda v: bool(v) and min(v) >= 0, "one or more integers >= 0"
    )
    # a relative tolerance of 1 or more passes every check
    rel_tol: float = _real(1e-4, lambda v: 0 < v < 1, "in (0, 1)")
    abs_floor: float = _real(1e-6, lambda v: v >= 0, ">= 0")
    phi: str = _one_of("posterior-mean", PHI_BUILTINS)
    rml_step_a: float = _real(3.0, lambda v: v > 0, "> 0")
    rml_step_b: float = _real(300.0, lambda v: v > 0, "> 0")
    rml_steps: int = _count(6000, 1)
    rml_init: tuple[float, ...] = _reals((0.45, 1.25))
    # the Gaussian tail-growth exponent is a log-log slope: two points at least
    y_samples: int = _count(25, 2)


@dataclass(frozen=True)
class RunConfig:
    """[run] holds the keys with a domain; every other field is a section."""

    seed: int = _key(20260808, int)
    outdir: str = _key("out", str, bool, "a non-empty path")
    model: ModelConfig = ModelConfig()
    grid: GridConfig = GridConfig()
    derivatives: DerivativesConfig = DerivativesConfig()
    experiment: ExperimentConfig = ExperimentConfig()


def _sections(cfg: RunConfig):
    """(name, object) of each INI section in file order."""
    yield "run", cfg
    for f in fields(cfg):
        if "domain" not in f.metadata:
            yield f.name, getattr(cfg, f.name)


def _domains(obj) -> dict[str, Domain]:
    return {f.name: f.metadata["domain"] for f in fields(obj) if "domain" in f.metadata}


def _read_section(parser, section: str, obj):
    """obj with each key the section sets replaced by its parsed value."""
    if not parser.has_section(section):
        return obj
    domains = _domains(obj)
    values = {}
    for key, raw in parser.items(section):
        if key not in domains:
            raise ConfigError(f"[{section}] {key}: unknown key")
        raw = raw.strip()
        try:
            values[key] = domains[key].parse(raw)
        except ValueError as err:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from err
    return replace(obj, **values)


def load_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(str(err)) from err
    defaults = dict(_sections(RunConfig()))
    for section in parser.sections():
        if section not in defaults:
            raise ConfigError(f"[{section}]: unknown section")
    cfg = _read_section(parser, "run", defaults.pop("run"))
    cfg = replace(cfg, **{name: _read_section(parser, name, obj) for name, obj in defaults.items()})
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
    """Check every key against its domain, then the checks across keys."""
    for section, obj in _sections(cfg):
        for key, domain in _domains(obj).items():
            value = getattr(obj, key)
            if not domain.accepts(value):
                raise ConfigError(f"[{section}] {key}: must be {domain.need}, got {value!r}")
    m, e = cfg.model, cfg.experiment
    d = len(m.drift_features)
    if len(m.obs_features) != d:
        raise ConfigError("[model] obs_features: must match drift_features in length")
    points = {"[model] theta": m.theta, "[experiment] rml_init": e.rml_init}
    lengths = {"[model] theta_min": m.theta_min, "[model] theta_max": m.theta_max, **points}
    for name, values in lengths.items():
        if len(values) != d:
            raise ConfigError(f"{name}: need one value per parameter ({d}), got {len(values)}")
    boxes = {"state": (m.state_min, m.state_max)}
    if m.variant == "compact":
        boxes["obs"] = (m.obs_min, m.obs_max)
    for box, (lo, hi) in boxes.items():
        if not lo < hi:
            raise ConfigError(f"[model] {box}_max: need {box}_min < {box}_max, got {lo} and {hi}")
    for name, values in points.items():
        for t, lo, hi in zip(values, m.theta_min, m.theta_max):
            if not lo < t < hi:
                raise ConfigError(f"{name}: {t} not strictly inside theta_min..theta_max ({lo}, {hi})")
    # the finest Richardson step must move every theta in the box, hence its end of largest magnitude
    finest = math.ldexp(cfg.derivatives.fd_step, 1 - cfg.derivatives.fd_levels)
    for lo, hi in zip(m.theta_min, m.theta_max):
        end, key = (lo, "theta_min") if abs(lo) > abs(hi) else (hi, "theta_max")
        if end + finest == end:
            raise ConfigError(
                f"[derivatives] fd_levels: the finest step fd_step / 2**(fd_levels - 1) = {finest!r} "
                f"leaves [model] {key} {end!r} unchanged"
            )
    # rml_demo refuses a start its projection would move
    for t, lo, hi in zip(e.rml_init, m.theta_min, m.theta_max):
        margin = PROJECTION_MARGIN * (hi - lo)
        if not lo + margin <= t <= hi - margin:
            raise ConfigError(
                f"[experiment] rml_init: {t} outside the projection interior [{lo + margin!r}, {hi - margin!r}]"
            )


def render_config(cfg: RunConfig) -> str:
    """Echo the resolved config as INI text that parses back equal."""

    def fmt(value):
        return " ".join(map(format_value, value)) if isinstance(value, tuple) else format_value(value)

    return "\n".join(
        f"[{section}]\n" + "".join(f"{key} = {fmt(getattr(obj, key))}\n" for key in _domains(obj))
        for section, obj in _sections(cfg)
    )


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
    )


def reference_theta(cfg: RunConfig) -> np.ndarray:
    return np.asarray(cfg.model.theta, dtype=float)
