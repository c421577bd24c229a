"""Command-line interface: run experiments, validate configs, list experiments.

Exit code 0 on success; failures print one machine-readable JSON error line
to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import (
    ESTIMATOR_CHOICES,
    EXPERIMENTS,
    REQUIRED_KEYS,
    SCENARIO_CHOICES,
    ConfigError,
    config_from_mapping,
    load_config,
    read_mapping,
)
from .harness import configured_study, emit_outputs, run_monte_carlo


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structreg",
        description="Structural-regularization Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write result files")
    run.add_argument("--experiment", choices=EXPERIMENTS)
    run.add_argument("--scenario", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--config", help="YAML/JSON config file; flags override it")
    run.add_argument("--out", required=True, help="output directory")

    validate = sub.add_parser("validate", help="check a config file as a run would")
    validate.add_argument("--config", required=True)

    sub.add_parser("list-experiments", help="list experiments and scenarios")
    return parser


def _merged_config(args: argparse.Namespace):
    """The config file's mapping with the flags laid over it, validated once,
    so flags may complete or correct the file."""
    base = read_mapping(args.config) if args.config else {}
    overrides = {
        "experiment": args.experiment,
        "scenario": args.scenario,
        "trials": args.trials,
        "base_seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    missing = [k for k in REQUIRED_KEYS if k not in base]
    if missing:
        raise ConfigError(
            "missing required settings (pass flags or a config file): " + ", ".join(missing)
        )
    return config_from_mapping(base)


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            scenarios = ",".join(str(s) for s in SCENARIO_CHOICES[name])
            estimators = ",".join(ESTIMATOR_CHOICES[name])
            print(f"{name}\tscenarios: {scenarios}\testimators: {estimators}")
        return 0
    if args.command == "validate":
        try:
            configured_study(load_config(args.config))
        except (ConfigError, OSError) as exc:
            return _fail(str(exc))
        print(f"{args.config}: ok")
        return 0
    try:
        config = _merged_config(args)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))
    try:
        report = run_monte_carlo(config)
        emit_outputs(report, args.out)
    except ConfigError as exc:  # worded as validate words it
        return _fail(str(exc))
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    for row in report.aggregates:
        print(
            f"{report.experiment} scenario={report.scenario} {row.estimator:>12s} "
            f"{row.domain:>4s}  bias={row.bias:.6g}  var={row.variance:.6g}  "
            f"mse={row.mse:.6g}"
        )
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
