"""One benchmark process: set up a workload, then run it the way a user does.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and BLAS pinned to one thread. Modes:

- ``setup``: import structreg, load and validate the workload's configs, do
  the studies' one-time work, report the time taken and exit.
- ``timed``: the same set-up, then repeat passes over the configs through
  ``structreg.cli.main(["run", ...])`` for ``--seconds``, checking every
  run's outputs. The reference work runs before the first pass and after
  each one.
- ``traced``: as ``timed``, but passes run under the outside tracer, with
  one untraced pass before and after them to measure the tracing overhead.

The last stdout line is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference.json"

MIN_PASSES = 3
MIN_TRACED_TRIALS = 20
# summary.csv numbers may differ from the reference at ulp level (solver
# reordering); a changed penalty choice moves them by far more than this
SUMMARY_RTOL = 1e-6
SUMMARY_ATOL = 1e-12
NUMERIC_COLUMNS = (4, 5, 6)  # bias, variance, mse
# Times are scaled to a core on which reference_s() reads this many seconds.
# The shared host changes a core's speed for seconds to minutes at a time; the
# reference work, timed next to the program's, measures that speed.
REFERENCE_S = 0.3


def workload_configs(workload: str) -> list[Path]:
    paths = sorted((CONFIGS / workload).glob("*.yaml"))
    if not paths:
        raise SystemExit(f"unknown workload {workload!r}: no configs under {CONFIGS}")
    return paths


def prepare_study(config, base_seed: int) -> None:
    """The study's one-time work, through public functions, filling its caches."""
    from structreg import auction, demand
    from structreg.data import SeededRng

    if config.experiment == "auction":
        if config.auction:
            raise SystemExit("benchmark auction configs must use the default auction block")
        scenario = auction.AuctionScenario.from_index(config.scenario)
        for lo, hi in (scenario.n_range_train, scenario.n_range_test):
            for n in range(lo, hi + 1):
                auction.true_expected_winning_bid(scenario, n)
    elif config.experiment == "demand":
        if config.demand:
            raise SystemExit("benchmark demand configs must use the default demand block")
        params = demand.DemandParams(lambda_markup=demand.DAMPENED_MARKUP)
        sim_params, _ = demand.scenario_params(config.scenario, params)
        demand.evaluation_grid(sim_params, SeededRng(base_seed))


def reference_s() -> float:
    """Time a fixed piece of work like the program's: interpreted Python and
    small dense solves through numpy and scipy."""
    import numpy as np
    import scipy.linalg

    x = np.linspace(-1.0, 1.0, 1600).reshape(200, 8)
    y = np.cos(np.arange(200.0))
    started = time.perf_counter()
    total = 0
    for i in range(1_700_000):
        total += i * i
    for k in range(2000):
        scipy.linalg.solve(x.T @ x + (1.0 + k % 7) * np.eye(8), x.T @ y, assume_a="pos")
    return time.perf_counter() - started


def compare_summary(text: str, reference: str) -> str | None:
    """None when ``text`` matches the reference summary.csv within tolerance."""
    rows = [line.split(",") for line in text.strip().splitlines()]
    ref = [line.split(",") for line in reference.strip().splitlines()]
    if len(rows) != len(ref) or rows[0] != ref[0]:
        return "summary.csv layout differs from the reference"
    for row, expected in zip(rows[1:], ref[1:]):
        for col, (got, want) in enumerate(zip(row, expected)):
            if col in NUMERIC_COLUMNS:
                a, b = float(got), float(want)
                if abs(a - b) > SUMMARY_RTOL * max(abs(a), abs(b)) + SUMMARY_ATOL:
                    return f"summary.csv {row[2]}/{row[3]} {ref[0][col]}={got}, reference {want}"
            elif got != want:
                return f"summary.csv column {ref[0][col]} is {got}, reference {want}"
    return None


def recompute_mismatch(out: Path, summary: str) -> str | None:
    """None when curves.csv re-aggregates to exactly the emitted summary."""
    from structreg.harness import recompute_aggregates_from_curves

    g = lambda v: format(float(v), ".17g")  # noqa: E731
    rows = recompute_aggregates_from_curves(out / "curves.csv")
    recomputed = [(r.estimator, r.domain, g(r.bias), g(r.variance), g(r.mse), str(r.trials))
                  for r in rows]
    emitted = [tuple(line.split(",")[2:8]) for line in summary.strip().splitlines()[1:]]
    return None if recomputed == emitted else "curves.csv does not re-aggregate to summary.csv"


class Runner:
    """Runs passes over one workload's configs and checks every output."""

    def __init__(self, workload: str, base_seed: int, work: Path):
        from structreg import config as config_mod

        self.paths = workload_configs(workload)
        self.configs = [config_mod.load_config(p) for p in self.paths]
        self.base_seed = base_seed
        self.work = work
        self.reference = json.loads(REFERENCE.read_text())[workload][str(base_seed)]
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.records = 0
        self.emit_bytes = 0

    @property
    def trials(self) -> int:
        return sum(c.trials for c in self.configs)

    def run_pass(self, on_done=None) -> float | None:
        """One pass; returns its throughput in trials/s, or None if a run crashed.

        A run whose outputs fail a check still has a valid time; the failure
        is counted. ``on_done`` is called right after the last timed run,
        before the output checks.
        """
        import structreg.cli

        wall, outs = 0.0, []
        for path in self.paths:
            out = self.work / path.stem
            argv = ["run", "--config", str(path), "--seed", str(self.base_seed),
                    "--out", str(out)]
            shutil.rmtree(out, ignore_errors=True)  # never check a previous pass's files
            sink = io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = structreg.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash counts as a failed run
                code = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - started
            outs.append((path, out, code, sink.getvalue()))
        if on_done is not None:
            on_done()
        self.records = self.emit_bytes = 0
        for path, out, code, log in outs:
            self.attempted += 1
            problem = self._check(path, out, code, log)
            if problem:
                self.failed += 1
                self.failures.append(f"{path.parent.name}/{path.name}: {problem}")
        return self.trials / wall if all(o[2] == 0 for o in outs) else None

    def _check(self, path: Path, out: Path, code, log: str) -> str | None:
        if code != 0:
            return f"structreg run exited with {code}: {log.strip()[-300:]}"
        summary = (out / "summary.csv").read_text()
        curves = (out / "curves.csv").read_bytes()
        self.records += curves.count(b"\n") - 1
        self.emit_bytes += len(summary.encode()) + len(curves) + (
            out / "config.snapshot").stat().st_size
        digest = hashlib.sha256(summary.encode() + b"\0" + curves).hexdigest()
        if self.digests.setdefault(path.name, digest) != digest:
            return "summary.csv/curves.csv bytes differ between runs of one invocation"
        return (compare_summary(summary, self.reference[path.name])
                or recompute_mismatch(out, summary))


def blas_versions() -> dict:
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            out[mod.__name__] = "unknown"
    return out


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_versions(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sre_threads": os.environ.get("SRE_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed(runner: Runner, seconds: float, first_reference_s: float) -> dict:
    """Passes for ``seconds``. Each pass's throughput is scaled by the mean of
    the reference times just before and just after it."""
    raw, scaled, refs = [], [], [first_reference_s]
    started = time.perf_counter()
    while len(raw) < MIN_PASSES or time.perf_counter() - started < seconds:
        rate = runner.run_pass()
        refs.append(reference_s())
        if rate is not None:
            raw.append(rate)
            scaled.append(rate * (refs[-2] + refs[-1]) / (2 * REFERENCE_S))
        elif runner.attempted >= 4 * len(runner.paths) and not raw:
            break  # nothing succeeds; stop early and report the failures
    return {"trials_per_s": scaled, "raw_trials_per_s": raw, "reference_s": refs,
            "peak_rss_mb": peak_rss_mb()}


def traced(runner: Runner, tracer, seconds: float) -> dict:
    import layers
    from tracer import install

    def median_of(values):
        return statistics.median(values) if values else float("nan")

    untraced = [runner.run_pass()]
    passes, durations, rates = [], [], []
    started = time.perf_counter()
    while (len(passes) < 2 or len(durations) < MIN_TRACED_TRIALS
           or time.perf_counter() - started < seconds):
        patch = install(tracer, "structreg")
        spans = []
        try:
            rate = runner.run_pass(on_done=lambda: spans.extend(tracer.take()))
        finally:
            patch.restore()
        tracer.take()  # drop spans of the output checks
        if rate is None:
            break
        view = layers.SpanView(spans)
        durations.extend(view.trial_durations_s())
        metrics = layers.pass_metrics(spans, runner.trials)
        metrics["metrics.records"] = runner.records
        metrics["harness.emit_bytes"] = runner.emit_bytes
        passes.append(metrics)
        rates.append(rate)
    untraced.append(runner.run_pass())
    untraced = [r for r in untraced if r is not None]

    result = {}
    counts = [n for n, (unit, _) in layers.PER_LAYER.items() if unit in ("count", "bytes")]
    for name in passes[0] if passes else ():
        values = [p[name] for p in passes]
        if name in counts and len(set(values)) != 1:
            runner.failures.append(f"per-layer count {name} differs between passes: {values}")
        result[name] = values[0] if name in counts else statistics.median(values)
    durations.sort()
    pct = layers.tail_percentile(len(durations))
    result.update({
        "harness.trials": len(durations),
        "harness.trial_s.p50": median_of(durations),
        "harness.trial_s.ptail": (durations[max(0, -(-pct * len(durations) // 100) - 1)]
                                  if durations else float("nan")),
        "harness.trial_s.ptail_pct": pct,
        "trace.trials_per_s": median_of(rates),
        "trace.overhead_share": 1.0 - median_of(rates) / median_of(untraced),
    })
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", type=Path, required=True, help="output directory")
    args = parser.parse_args()

    import structreg  # noqa: F401  (import time is part of set-up)
    import structreg.cli  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(structreg.__file__).resolve().parents:
        raise SystemExit(f"structreg imported from {structreg.__file__}, not from {src}")

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, install, leftover_wrappers

        tracer = Tracer()
        patch = install(tracer, "structreg")
    try:
        runner = Runner(args.workload, args.base_seed, args.work)
        for config in runner.configs:
            prepare_study(config, args.base_seed)
    finally:
        if tracer is not None:
            patch.restore()
    setup_s = time.perf_counter() - T0
    result = {"raw_setup_s": setup_s}
    if args.mode != "traced":
        ref = reference_s()
        result["setup_s"] = setup_s * REFERENCE_S / ref

    if args.mode == "timed":
        result.update(timed(runner, args.seconds, ref))
    elif args.mode == "traced":
        import layers

        setup_layers = layers.setup_metrics(tracer.take())
        result["layers"] = traced(runner, tracer, args.seconds) | setup_layers
        left = leftover_wrappers("structreg")
        if left:
            runner.failures.append(f"tracer left wrappers behind: {left[:5]}")
    if args.mode != "setup":
        result.update(attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures, digests=runner.digests,
                      provenance=provenance())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
