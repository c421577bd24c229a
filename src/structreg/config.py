"""Run configuration: schema-validated experiment settings.

Configs are plain nested mappings read from YAML or JSON files. Unknown keys
are rejected so typos fail loudly, and the canonical serialized form (sorted
keys) doubles as the reproducibility snapshot written next to results.
"""

from __future__ import annotations

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
        "out_dir": {"type": "string"},
    },
}


class ConfigError(ValueError):
    pass


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
    out_dir: str | None = None

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
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out


def validate_mapping(raw: dict) -> None:
    """Schema-check a raw config mapping; errors name the offending key."""
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        if exc.validator == "additionalProperties":
            raise ConfigError(f"unknown config key: {exc.message}") from exc
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"invalid config value at {path}: {exc.message}") from exc
    experiment = raw["experiment"]
    if raw["scenario"] not in SCENARIO_CHOICES[experiment]:
        raise ConfigError(
            f"scenario {raw['scenario']} invalid for {experiment}; "
            f"choose from {SCENARIO_CHOICES[experiment]}"
        )
    if "cv" in raw and experiment != "auction":
        # cv.K is the auction study's forward-CV fold count; no other study reads cv
        raise ConfigError(f"config key 'cv' does not apply to {experiment}")
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
        out_dir=raw.get("out_dir"),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML or JSON config file."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return config_from_mapping(raw)
