"""Print every end-to-end metric, and its run-to-run spread. From the repository root:

    python3 perfbench/report.py                                  # every workload, seed 0
    python3 perfbench/report.py --workloads auction --seeds 0 1 2 3 4 5 6 7 8 9

Runs the untraced benchmark once per workload and seed, and prints each
end-to-end metric with its unit, plus the error rate (failed / attempted CLI
runs). With two or more seeds it also prints, per workload and metric, the
median and the distance between the first and third quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: benchmark failed\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                status = 1
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            rows.append(("error_rate", result["failed"] / result["attempted"], "fraction"))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{name}={value:.6g} {unit}" for name, value, unit in rows),
                  flush=True)
            for name, value, _ in rows:
                values.setdefault(name, []).append(value)
        if len(values.get("setup_s", ())) < 2:
            continue
        for metric in spec["end_to_end"]:
            q1, median, q3 = statistics.quantiles(values[metric["name"]], n=4)
            print(f"{workload} {metric['name']}: median {median:.6g}, "
                  f"spread {(q3 - q1) / median:.4f}, bound {metric['bound']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
