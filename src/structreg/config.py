"""Run configuration: schema-validated experiment settings.

Configs are plain nested mappings read from YAML or JSON files. Unknown keys
are rejected so typos fail loudly, and the canonical serialized form (sorted
keys) doubles as the reproducibility snapshot written next to results.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import yaml

EXPERIMENTS = ("auction", "entry-exit", "demand")

ESTIMATOR_CHOICES = {
    "auction": ("statistical", "structural", "sre"),
    "entry-exit": ("statistical", "structural", "sre"),
    "demand": ("rf", "structural", "sre"),
}

SCENARIO_CHOICES = {
    "auction": (1, 2, 3),
    "entry-exit": (1, 2, 3),
    "demand": (1, 2, 3, 4),
}

# entry-exit scenario indices follow the experiment ordering of the study
# design: 1 = perfect foresight, 2 = adaptive expectations, 3 = myopic.
ENTRY_EXIT_REGIMES = {1: "perfect_foresight", 2: "adaptive", 3: "myopic"}

# the optional blocks each experiment reads (cv.K is the auction forward-CV fold count)
STUDY_BLOCKS = {"auction": ("auction", "cv"), "entry-exit": ("entry_exit",), "demand": ("demand",)}
AUCTION_SCENARIO_KEYS = {"beta_shape": 2, "overbid_sigma": 3}  # keys one scenario reads

_NUMBER = {"type": "number"}
_INT = {"type": "integer"}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "scenario", "trials", "base_seed"],
    "properties": {
        "experiment": {"type": "string", "enum": list(EXPERIMENTS)},
        "scenario": _INT,
        "trials": {"type": "integer", "minimum": 1},
        "base_seed": {"type": "integer", "minimum": 0},
        "estimators": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "lambda_grid": {"type": "array", "items": _NUMBER, "minItems": 1},
        "cv": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"K": {"type": "integer", "minimum": 2}},
        },
        "auction": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "M": {"type": "integer", "minimum": 1},
                "n_train": {"type": "array", "items": _INT, "minItems": 2, "maxItems": 2},
                "n_test": {"type": "array", "items": _INT, "minItems": 2, "maxItems": 2},
                "overbid_sigma": _NUMBER,
                "beta_shape": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
            },
        },
        "entry_exit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mu": _NUMBER,
                "alpha": _NUMBER,
                "entry_cost": {"type": "number", "minimum": 0},
                "discount": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "n_firms": {"type": "integer", "minimum": 2},
                "t_total": {"type": "integer", "minimum": 2},
                "t_train": {"type": "integer", "minimum": 1},
                "r0": _NUMBER,
                "trend": _NUMBER,
                "ar_coef": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
                "innovation_sd": {"type": "number", "minimum": 0},
            },
        },
        "demand": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": _NUMBER,
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "a": _NUMBER,
                "b": _NUMBER,
                "lambda_markup": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "z_low": _NUMBER,
                "z_high": _NUMBER,
                "eps_sd": {"type": "number", "minimum": 0},
                "M": {"type": "integer", "minimum": 1},
            },
        },
    },
}


# built once: jsonschema.validate would re-check the schema itself on every call
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


class ConfigError(ValueError):
    pass


class _ConfigLoader(yaml.SafeLoader):
    """YAML 1.1 loader that also reads exponent-form floats such as ``1e12``,
    which plain YAML 1.1 takes for strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration."""

    experiment: str
    scenario: int
    trials: int
    base_seed: int
    estimators: tuple[str, ...] = ()
    lambda_grid: tuple[float, ...] | None = None
    cv: dict = field(default_factory=dict)
    auction: dict = field(default_factory=dict)
    entry_exit: dict = field(default_factory=dict)
    demand: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.estimators:
            object.__setattr__(self, "estimators", ESTIMATOR_CHOICES[self.experiment])

    def to_mapping(self) -> dict:
        out = {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "estimators": list(self.estimators),
        }
        if self.lambda_grid is not None:
            out["lambda_grid"] = list(self.lambda_grid)
        for key in ("cv", "auction", "entry_exit", "demand"):
            block = getattr(self, key)
            if block:
                out[key] = dict(block)
        return out


def _non_finite_paths(value, path: str = ""):
    """Key paths of the non-finite numbers (YAML ``.inf``, ``.nan``) in a parsed config."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite_paths(item, f"{path}.{key}" if path else str(key))


def validate_mapping(raw: dict) -> None:
    """Schema-check a raw config mapping; errors name the offending key."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        if error.validator == "additionalProperties":
            raise ConfigError(f"unknown config key: {error.message}") from error
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"invalid config value at {path}: {error.message}") from error
    path = next(_non_finite_paths(raw), None)
    if path is not None:
        raise ConfigError(f"invalid config value at {path}: must be finite")
    experiment = raw["experiment"]
    if raw["scenario"] not in SCENARIO_CHOICES[experiment]:
        raise ConfigError(
            f"scenario {raw['scenario']} invalid for {experiment}; "
            f"choose from {SCENARIO_CHOICES[experiment]}"
        )
    for block in ("cv", "auction", "entry_exit", "demand"):
        if block in raw and block not in STUDY_BLOCKS[experiment]:
            raise ConfigError(f"config key {block!r} does not apply to {experiment}")
    for key, scenario in AUCTION_SCENARIO_KEYS.items():
        if key in raw.get("auction", {}) and raw["scenario"] != scenario:
            raise ConfigError(
                f"config key 'auction.{key}' applies only to auction scenario {scenario}"
            )
    allowed = set(ESTIMATOR_CHOICES[experiment])
    for name in raw.get("estimators", []):
        if name not in allowed:
            raise ConfigError(
                f"unknown estimator {name!r} for {experiment}; choose from {sorted(allowed)}"
            )
    grid = raw.get("lambda_grid")
    if grid is not None:
        if any(v < 0 for v in grid) or sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ConfigError("lambda_grid must be nonnegative and strictly increasing")


def config_from_mapping(raw: dict) -> RunConfig:
    validate_mapping(raw)
    return RunConfig(
        experiment=raw["experiment"],
        scenario=int(raw["scenario"]),
        trials=int(raw["trials"]),
        base_seed=int(raw["base_seed"]),
        estimators=tuple(raw.get("estimators", ())),
        lambda_grid=tuple(raw["lambda_grid"]) if "lambda_grid" in raw else None,
        cv=dict(raw.get("cv", {})),
        auction=dict(raw.get("auction", {})),
        entry_exit=dict(raw.get("entry_exit", {})),
        demand=dict(raw.get("demand", {})),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML or JSON config file."""
    text = Path(path).read_text()
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return config_from_mapping(raw)
