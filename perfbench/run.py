"""structreg benchmark: Monte Carlo study throughput, set-up time and memory.

Run from the repository root:

    python3 perfbench/run.py --workload auction --seed 3 --seconds 10 --trace 0

Each workload is a set of study configs under ``perfbench/configs/<name>``.
The benchmark runs them as a user does, through ``structreg.cli.main`` in a
fresh process with ``SRE_THREADS`` unset and BLAS pinned to one thread, and
checks every run's outputs. ``--seed`` picks the study seed: ``seed mod 16``
is passed to ``structreg run --seed``, and ``reference.json`` holds the
expected ``summary.csv`` for each of those 16 seeds.

With ``--trace 0`` it reports the end-to-end metrics, with both times scaled
to a core of fixed speed by a reference work timed beside the program; with
``--trace 1`` it runs the workload under the outside tracer and reports
per-layer metrics.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records provenance and output digests. NOTES.md explains
the workloads and metrics.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SEED_TABLE = 16
SETUP_PROCESSES = 3  # set-up is timed in this many fresh processes
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SRE_THREADS", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",  # every process compiles structreg alike
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(mode: str, args, base_seed: int, work: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--base-seed", str(base_seed), "--seconds", str(args.seconds), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def end_to_end(args, base_seed: int, work: Path, deadline: float) -> tuple[dict, dict]:
    setups = [run_worker("setup", args, base_seed, work, deadline)
              for _ in range(SETUP_PROCESSES - 1)]
    result = run_worker("timed", args, base_seed, work, deadline)
    setups.append(result)
    rates = result["trials_per_s"]
    for name in ("setup_s", "raw_setup_s"):
        print(f"{name} per process: {[s[name] for s in setups]}", file=sys.stderr)
    for name in ("trials_per_s", "raw_trials_per_s", "reference_s"):
        print(f"{name} per pass: {result[name]}", file=sys.stderr)
    if not rates:
        raise BenchError(f"no pass succeeded: {result['failures'][:3]}")
    result["raw"] = {
        "trials_per_s": statistics.median(result["raw_trials_per_s"]),
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "reference_s": statistics.median(result["reference_s"]),
    }
    metrics = {
        "trials_per_s": (statistics.median(rates), "trials/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    return metrics, result


def per_layer(args, base_seed: int, work: Path, deadline: float) -> tuple[dict, dict]:
    from layers import PER_LAYER  # beside this script, so on sys.path

    result = run_worker("traced", args, base_seed, work, deadline)
    values = result["layers"]
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise BenchError(f"traced run did not produce {missing}: {result['failures'][:3]}")
    metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    return metrics, result


def main() -> int:
    parser = argparse.ArgumentParser(description="structreg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "structreg" / "__init__.py").is_file():
        print(f"no structreg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (HERE / "configs" / args.workload).is_dir():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    base_seed = args.seed % SEED_TABLE
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, result = measure(args, base_seed, work, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"benchmark failed: non-finite {bad}: {result['failures'][:3]}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)

    provenance = dict(result["provenance"], git_sha=git_sha(), workload=args.workload,
                      seed=args.seed, base_seed=base_seed, digests=result["digests"],
                      unscaled=result.get("raw"))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
