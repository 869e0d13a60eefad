"""Run configuration: a flat key = value text file.

Schema (one `key = value` per line, '#' starts a comment, keys are
dot-namespaced, values are scalars or comma-separated pairs):

  model                 minkowski | euclidean
  omega.kind            ball | ellipse
  omega.center          x, y
  omega.radius          R                (ball)
  omega.semi_axes       a, b             (ellipse)
  omega_tilde.*         same as omega.*
  grid.n_rho            int >= 8
  grid.n_phi            even int >= 16
  solve.tol_residual    float            (default: SolveOptions)
  solve.max_newton      int              (default: SolveOptions)
  homotopy.enabled      true | false     (default false)
  homotopy.steps        int >= 2         (default 12)
  homotopy.t_min        auto | float     (default auto: solve at t = 1, walk only if that
                                          fails; a number in (0, 1] forces the walk from it)
  seed.strategy         radial | quadratic | file   (default radial)
  seed.path             path             (required for, and only for, seed.strategy = file)
  output.dir            path             (default ".")

seed.strategy starts a solve without homotopy: radial from a ball pair's radial
profile and any other pair's transport seed (radial.seed_field), quadratic from
the transport seed for ball pairs too, file from a stored field.  The homotopy
always starts from the radial seed, so it takes no other strategy.

Unknown keys are rejected; every number must be finite, and all numeric
fields are validated against their admissible ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domains import Ball, ConvexDomain, Ellipse
from .errors import ConfigError
from .kernel import ModelKind
from .solver import SolveOptions

_KNOWN_KEYS = {
    "model",
    "omega.kind", "omega.center", "omega.radius", "omega.semi_axes",
    "omega_tilde.kind", "omega_tilde.center", "omega_tilde.radius",
    "omega_tilde.semi_axes",
    "grid.n_rho", "grid.n_phi",
    "solve.tol_residual", "solve.max_newton",
    "homotopy.enabled", "homotopy.steps", "homotopy.t_min",
    "seed.strategy", "seed.path",
    "output.dir",
}


@dataclass
class RunConfig:
    model: ModelKind
    omega: ConvexDomain
    omega_tilde: ConvexDomain
    n_rho: int
    n_phi: int
    options: SolveOptions
    homotopy_enabled: bool
    homotopy_steps: int
    homotopy_t_min: float | None   # None = auto
    seed_strategy: str
    seed_path: str | None
    output_dir: Path


def _parse_lines(path) -> dict:
    entries = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _to_float(key, text):
    """The one place a config number is parsed: finite floats only."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {text!r}")
    return value


def _get_float(entries, key, default=None):
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return _to_float(key, entries[key])


def _get_int(entries, key, default=None):
    v = _get_float(entries, key, default)
    if v != int(v):
        raise ConfigError(f"{key}: expected an integer, got {v}")
    return int(v)


def _get_pair(entries, key):
    if key not in entries:
        raise ConfigError(f"missing required key {key!r}")
    parts = entries[key].split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two comma-separated numbers")
    return _to_float(key, parts[0]), _to_float(key, parts[1])


def _parse_domain(entries, prefix) -> ConvexDomain:
    kind = entries.get(f"{prefix}.kind")
    if kind is None:
        raise ConfigError(f"missing required key {prefix}.kind")
    center = _get_pair(entries, f"{prefix}.center")
    try:
        if kind == "ball":
            return Ball(center, _get_float(entries, f"{prefix}.radius"))
        if kind == "ellipse":
            return Ellipse(center, _get_pair(entries, f"{prefix}.semi_axes"))
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc
    raise ConfigError(f"{prefix}.kind: unknown domain kind {kind!r}")


def parse_config(path) -> RunConfig:
    entries = _parse_lines(path)

    model_name = entries.get("model")
    if model_name not in ("minkowski", "euclidean"):
        raise ConfigError(f"model must be minkowski or euclidean, got {model_name!r}")
    model = ModelKind(model_name)

    omega = _parse_domain(entries, "omega")
    omega_tilde = _parse_domain(entries, "omega_tilde")

    n_rho = _get_int(entries, "grid.n_rho")
    n_phi = _get_int(entries, "grid.n_phi")
    if n_rho < 8:
        raise ConfigError(f"grid.n_rho must be >= 8, got {n_rho}")
    if n_phi < 16 or n_phi % 2:
        raise ConfigError(f"grid.n_phi must be even and >= 16, got {n_phi}")

    try:
        options = SolveOptions(
            tol_residual=_get_float(entries, "solve.tol_residual",
                                    SolveOptions.tol_residual),
            max_newton=_get_int(entries, "solve.max_newton", SolveOptions.max_newton))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    hom_enabled = entries.get("homotopy.enabled", "false").lower()
    if hom_enabled not in ("true", "false"):
        raise ConfigError(f"homotopy.enabled must be true or false, got {hom_enabled!r}")
    t_min = (None if entries.get("homotopy.t_min", "auto") == "auto"
             else _get_float(entries, "homotopy.t_min"))
    if t_min is not None and not 0.0 < t_min <= 1.0:
        raise ConfigError(f"homotopy.t_min must lie in (0, 1], got {t_min}")
    steps = _get_int(entries, "homotopy.steps", 12)
    if steps < 2:   # a one-point schedule from t_min < 1 never reaches t = 1
        raise ConfigError(f"homotopy.steps must be >= 2, got {steps}")

    strategy = entries.get("seed.strategy", "radial")
    if strategy not in ("radial", "quadratic", "file"):
        raise ConfigError(f"seed.strategy must be radial, quadratic or file, "
                          f"got {strategy!r}")
    seed_path = entries.get("seed.path")
    if strategy == "file" and seed_path is None:
        raise ConfigError("seed.strategy = file requires seed.path")
    if strategy != "file" and seed_path is not None:
        raise ConfigError("seed.path is read only with seed.strategy = file")
    if strategy != "radial" and hom_enabled == "true":
        raise ConfigError(f"seed.strategy = {strategy} is not read with "
                          f"homotopy.enabled = true, which seeds radial")

    return RunConfig(model=model, omega=omega, omega_tilde=omega_tilde,
                     n_rho=n_rho, n_phi=n_phi, options=options,
                     homotopy_enabled=hom_enabled == "true",
                     homotopy_steps=steps, homotopy_t_min=t_min,
                     seed_strategy=strategy, seed_path=seed_path,
                     output_dir=Path(entries.get("output.dir", ".")))
