"""Run configuration: type-checked experiment settings.

Configs are plain nested mappings read from YAML or JSON files. Every key is
checked against :data:`CONFIG_KEYS`, so typos and values of the wrong type
fail loudly, and the canonical serialized form (sorted keys) doubles as the
reproducibility snapshot written next to results. Config checks only the
bounds no study checks; the ranges of a study block's keys are checked by the
study's parameter classes, which :func:`structreg.harness.configured_study`
builds for ``structreg validate`` and ``structreg run`` alike.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

EXPERIMENTS = ("auction", "entry-exit", "demand")
REQUIRED_KEYS = ("experiment", "scenario", "trials", "base_seed")

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

# the optional blocks each experiment reads (cv.K is the auction forward-CV fold count)
STUDY_BLOCKS = {"auction": ("auction", "cv"), "entry-exit": ("entry_exit",), "demand": ("demand",)}
# the block keys only some scenarios read: (block, key) -> those scenarios
SCENARIO_KEYS = {("auction", "beta_shape"): (2,), ("auction", "overbid_sigma"): (3,),
                 ("demand", "lambda_markup"): (2, 4)}

# the accepted keys and the kind of value each takes: a kind of _KINDS, a
# ("pair" | "list", kind) tuple for a list of two or of at least one such
# values, or the keys of a block
CONFIG_KEYS = {
    "experiment": "string",
    "scenario": "integer",
    "trials": "integer",
    "base_seed": "integer",
    "estimators": ("list", "string"),
    "lambda_grid": ("list", "number"),
    "cv": {"K": "integer"},
    "auction": {"M": "integer", "n_train": ("pair", "integer"), "n_test": ("pair", "integer"),
                "overbid_sigma": "number", "beta_shape": ("pair", "number")},
    "entry_exit": {
        **dict.fromkeys(("mu", "alpha", "entry_cost", "discount"), "number"),
        **dict.fromkeys(("n_firms", "t_total", "t_train"), "integer"),
        **dict.fromkeys(("r0", "trend", "ar_coef", "innovation_sd"), "number"),
    },
    "demand": {**dict.fromkeys(("alpha", "beta", "a", "b", "lambda_markup", "z_low", "z_high",
                                "eps_sd"), "number"), "M": "integer"},
}

# kind: (test of a value, what the value must be); bools are not numbers here
_KINDS = {
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "string": (lambda v: isinstance(v, str), "a string"),
}


class ConfigError(ValueError):
    pass


def _config_loader(base: type) -> type:
    """The PyYAML safe loader ``base`` that also reads exponent-form floats
    such as ``1e12``, which plain YAML 1.1 takes for strings."""
    loader = type("_ConfigLoader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return loader


# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# both resolve and construct values in Python, so they read the same mapping
_ConfigLoader = _config_loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


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
        """The raw mapping of this config, without an unset grid or empty blocks."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(value) if isinstance(value, tuple) else
                dict(value) if isinstance(value, dict) else value
                for key, value in out.items() if value is not None and value != {}}


def _check_keys(raw: dict, keys: dict, prefix: str = "") -> None:
    """Reject a key that ``keys`` does not name, or a value not of its kind."""
    for key, value in raw.items():
        path, kind = f"{prefix}{key}", keys.get(key)
        if kind is None:
            raise ConfigError(f"unknown config key: {path}")
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"invalid config value at {path}: must be a mapping")
            _check_keys(value, kind, f"{path}.")
            continue
        items = [(path, value)]
        if isinstance(kind, tuple):
            shape, kind = kind
            if not isinstance(value, list) or not (len(value) == 2 if shape == "pair" else value):
                what = "a list of two" if shape == "pair" else "a nonempty list of"
                raise ConfigError(f"invalid config value at {path}: must be {what} {kind}s")
            items = [(f"{path}.{i}", item) for i, item in enumerate(value)]
        test, what = _KINDS[kind]
        for item_path, item in items:
            if not test(item):
                raise ConfigError(f"invalid config value at {item_path}: must be {what}")
            if isinstance(item, float) and not math.isfinite(item):  # YAML .inf and .nan
                raise ConfigError(f"invalid config value at {item_path}: must be finite")


def validate_mapping(raw: dict) -> None:
    """Check a raw config mapping; errors name the offending key."""
    _check_keys(raw, CONFIG_KEYS)
    missing = [key for key in REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError("missing config keys: " + ", ".join(missing))
    K = raw.get("cv", {}).get("K", 2)  # the bounds no study checks; cv.K may be unset
    for path, value, least in (("trials", raw["trials"], 1), ("base_seed", raw["base_seed"], 0),
                               ("cv.K", K, 2)):
        if value < least:
            raise ConfigError(f"invalid config value at {path}: must be >= {least}")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"invalid config value at experiment: must be one of {EXPERIMENTS}")
    if raw["scenario"] not in SCENARIO_CHOICES[experiment]:
        raise ConfigError(
            f"scenario {raw['scenario']} invalid for {experiment}; "
            f"choose from {SCENARIO_CHOICES[experiment]}"
        )
    for block in ("cv", "auction", "entry_exit", "demand"):
        if block in raw and block not in STUDY_BLOCKS[experiment]:
            raise ConfigError(f"config key {block!r} does not apply to {experiment}")
    for (block, key), scenarios in SCENARIO_KEYS.items():
        if key in raw.get(block, {}) and raw["scenario"] not in scenarios:
            raise ConfigError(f"config key '{block}.{key}' applies only to {experiment} "
                              f"scenario {' or '.join(map(str, scenarios))}")
    allowed = set(ESTIMATOR_CHOICES[experiment])
    estimators = raw.get("estimators", [])
    for name in estimators:
        if name not in allowed:
            raise ConfigError(
                f"unknown estimator {name!r} for {experiment}; choose from {sorted(allowed)}"
            )
    if len(set(estimators)) != len(estimators):
        raise ConfigError("estimators must name each estimator once")
    grid = raw.get("lambda_grid")
    if grid is not None:
        if any(v < 0 for v in grid) or sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ConfigError("lambda_grid must be nonnegative and strictly increasing")


def config_from_mapping(raw: dict) -> RunConfig:
    validate_mapping(raw)
    # the keys of CONFIG_KEYS are the fields of RunConfig
    return RunConfig(**{key: tuple(value) if isinstance(value, list) else
                        dict(value) if isinstance(value, dict) else value
                        for key, value in raw.items()})


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
