"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py                 # every workload (a few minutes)
    python3 perfbench/selftest.py --workloads demand

Checks that the tracer leaves no wrapper behind and wraps the names other
modules imported, that self time is right on a synthetic span tree, that two
traced runs repeat their per-layer counts exactly and write the same
summary.csv/curves.csv bytes as a plain ``structreg run`` of the same config,
that every metric name is well formed, and that the benchmark refuses to run
without the program's source. Runs every test and exits nonzero if any failed.
"""

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from worker import CONFIGS, workload_configs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class SelfTestError(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def attribute_snapshot(package: str) -> dict:
    import inspect

    snap = {}
    for module in tracer.package_modules(package):
        for name, obj in vars(module).items():
            snap[(module.__name__, name)] = obj
            if inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    snap[(module.__name__, name, attr)] = raw
    return snap


def test_tracer_restores_everything() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import structreg.cli  # noqa: F401  (imports every module)
    from structreg import demand, entry_exit, tuning

    before = attribute_snapshot("structreg")
    t = tracer.Tracer()
    patch = tracer.install(t, "structreg")
    try:
        for fn in (tuning.fit_theta_m, tuning.sre_ridge, entry_exit.rolling_cv,
                   demand.sre_gmm, tuning.Dataset.subset):
            check(hasattr(fn, tracer.ORIGINAL_ATTR), f"{fn.__qualname__} was not wrapped")
        data = tuning.Dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 4.0])
        data.subset([0, 1])
        tuning.standardize(data)
    finally:
        patch.restore()
    names = [s[0] for s in t.take() if s[3] == -1]
    check(names == ["data.Dataset.subset", "data.standardize"], f"unexpected spans {names}")
    check(not tracer.leftover_wrappers("structreg"), "wrappers left behind")
    after = attribute_snapshot("structreg")
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed, f"attributes not restored: {changed[:5]}")


def test_self_time_on_synthetic_tree() -> None:
    spans = [
        ["harness.run_monte_carlo", 0, 100, -1],
        ["auction.auction_experiment", 10, 90, 0],
        ["auction.simulate_auctions", 10, 20, 1],
        ["sre.sre_ridge", 20, 30, 1],
        ["sre.sre_ridge", 25, 35, 1],  # overlaps its sibling: the union counts once
        ["auction.simulate_auctions", 50, 60, 1],
        ["sre.fit_theta_m", 52, 58, 5],  # nested in the second simulate call
    ]
    got = tracer.self_times(spans)
    check(got == [20, 45, 10, 10, 10, 4, 6], f"self times {got}")
    view = layers.SpanView(spans)
    check(view.trial_durations_s() == [40e-9, 40e-9], "trial boundaries")
    check(abs(view.busy_s({"sre.sre_ridge"}) - 20e-9) < 1e-18, "busy time")
    check(abs(view.busy_s({"auction.simulate_auctions", "sre.fit_theta_m"}) - 20e-9) < 1e-18,
          "nested spans of one group count once")
    check(view.calls({"sre.fit_theta_m"}, within={"auction.simulate_auctions"}) == 1, "within")
    check(abs(view.module_self_s()["auction"] - 59e-9) < 1e-18, "module self time")
    check(layers.tail_percentile(20) == 50 and layers.tail_percentile(100) == 90, "tail pct")


def bench(workload: str, seed: int, cwd: Path = ROOT, trace: int = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def plain_run_digests(workload: str, base_seed: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work-") as tmp:
        for path in workload_configs(workload):
            subprocess.run(
                [sys.executable, "-m", "structreg.cli", "run", "--config", str(path),
                 "--seed", str(base_seed), "--out", tmp],
                cwd=ROOT, env=run.worker_env(), check=True, capture_output=True, timeout=600)
            summary = Path(tmp, "summary.csv").read_bytes()
            curves = Path(tmp, "curves.csv").read_bytes()
            out[path.name] = hashlib.sha256(summary + b"\0" + curves).hexdigest()
    return out


def test_traced_runs(workload: str, seed: int) -> None:
    results = []
    for _ in range(2):
        proc = bench(workload, seed)
        check(proc.returncode == 0, f"{workload}: traced run failed: {proc.stderr[-1500:]}")
        prov, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        check(result["correct"] and result["failed"] == 0, f"{workload}: {proc.stderr[-1500:]}")
        results.append((prov["provenance"], result["metrics"]))
    (prov_a, m_a), (prov_b, m_b) = results
    bad = [n for n in m_a if not NAME.fullmatch(n)]
    check(not bad, f"malformed metric names {bad}")
    print(f"  {workload}: solves/trial {m_a['sre.solves_per_trial']['value']}, "
          f"theta_m/trial {m_a['sre.theta_m_per_trial']['value']}, "
          f"cv share {m_a['tuning.cv_share']['value']:.3f}, "
          f"demand sre share {m_a['demand.sre_share']['value']:.3f}")
    plain = [plain_run_digests(workload, seed % run.SEED_TABLE) for _ in range(2)]
    unstable = sorted(k for k in plain[0] if plain[0][k] != plain[1][k])
    differ = [k for k in plain[0] if k not in unstable
              and not prov_a["digests"][k] == plain[0][k] == prov_b["digests"][k]]
    check(not differ, f"{workload}: traced outputs of {differ} differ from a plain structreg run")
    check(not unstable, f"{workload}: two plain structreg runs of {unstable} wrote different "
          "bytes, so the program itself is not byte-reproducible across processes")
    counts = [n for n, (unit, _) in layers.PER_LAYER.items() if unit in ("count", "bytes")]
    differ = [n for n in counts if m_a[n]["value"] != m_b[n]["value"]]
    check(not differ, f"{workload}: per-layer counts differ between traced runs: {differ}")


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    check(not bad, f"malformed names in BENCHMARK.json: {bad}")
    check(len(set(names)) == len(names), "a name is used twice in BENCHMARK.json")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(declared == layers.PER_LAYER, "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    workloads = sorted(p.name for p in CONFIGS.iterdir() if p.is_dir())
    check(sorted(w["name"] for w in spec["workloads"]) == workloads, "workload list")


def test_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("demand", 0, cwd=Path(tmp), trace=0)
    check(proc.returncode != 0, "benchmark ran without the program's source")
    check('"metrics"' not in proc.stdout, "benchmark printed a result without source")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--workloads", nargs="*",
                        default=sorted(p.name for p in CONFIGS.iterdir() if p.is_dir()))
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    tests = [test_tracer_restores_everything, test_self_time_on_synthetic_tree,
             test_metric_names, test_refuses_without_source]
    for w in args.workloads:
        tests.append(lambda w=w: test_traced_runs(w, args.seed))
        tests[-1].__name__ = f"test_traced_runs[{w}]"
    failed = 0
    for test in tests:
        name = test.__name__
        try:
            test()
        except SelfTestError as exc:
            print(f"FAIL {name}: {exc}", flush=True)
            failed += 1
        else:
            print(f"PASS {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
