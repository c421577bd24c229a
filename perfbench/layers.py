"""Per-layer metrics of structreg, computed from the spans of one traced pass.

A pass runs every config of a workload once. Times are in seconds per pass,
counts are calls per pass, and ``*_per_trial`` values divide a count by the
trials of the pass. A ``*_s`` time is the busy time of the named functions:
the summed duration of their outermost spans, so a function that calls
another of the same group is not counted twice.
"""

from __future__ import annotations

from tracer import self_times

MODULES = (
    "auction", "cli", "config", "data", "demand", "entry_exit", "estimators",
    "harness", "metrics", "sre", "tuning",
)

CV = {"tuning.kfold_cv", "tuning.forward_cv", "tuning.rolling_cv", "tuning.run_cv"}
SOLVE = {"sre.sre_ridge", "sre.sre_gmm"}
BASELINES = {
    "estimators.fit_ols", "estimators.fit_polynomial", "estimators.select_degree_aic",
    "estimators.fit_arx", "estimators.select_arx_order_aic", "estimators.fit_2sls",
}
TRUTH = {"auction.true_expected_winning_bid", "auction.overbid_truth_with_se"}
EXPERIMENTS = {
    "auction.auction_experiment", "entry_exit.entry_exit_experiment",
    "demand.demand_experiment",
}
# the study's per-trial simulate call, seen as a direct child of the
# experiment loop (demand also simulates a reference sample for its grid)
TRIAL_MARKERS = {
    "auction.simulate_auctions", "entry_exit.draw_profit_path", "demand.simulate_markets",
}

# name -> (unit, better); every traced run reports all of them
PER_LAYER = {
    "tuning.cv_s": ("s", "lower"),
    "tuning.cv_share": ("fraction", "lower"),
    "tuning.fits_per_trial": ("count", "lower"),
    "sre.solve.calls": ("count", "lower"),
    "sre.solve_s": ("s", "lower"),
    "sre.solves_per_trial": ("count", "lower"),
    "sre.fit_theta_m.calls": ("count", "lower"),
    "sre.fit_theta_m_s": ("s", "lower"),
    "sre.theta_m_per_trial": ("count", "lower"),
    "data.standardize.calls": ("count", "lower"),
    "data.standardize_s": ("s", "lower"),
    "data.subset.calls": ("count", "lower"),
    "estimators.lstsq.calls": ("count", "lower"),
    "estimators.lstsq_s": ("s", "lower"),
    "estimators.baseline_s": ("s", "lower"),
    "auction.truth_s": ("s", "lower"),
    "auction.simulate_s": ("s", "lower"),
    "entry_exit.simulate_s": ("s", "lower"),
    "entry_exit.regime_s": ("s", "lower"),
    "entry_exit.structural_s": ("s", "lower"),
    "demand.simulate_s": ("s", "lower"),
    "demand.rf_s": ("s", "lower"),
    "demand.structural_s": ("s", "lower"),
    "demand.sre_s": ("s", "lower"),
    "demand.sre_share": ("fraction", "lower"),
    "demand.instrument_basis.calls": ("count", "lower"),
    "demand.projection_weight.calls": ("count", "lower"),
    "metrics.aggregate_s": ("s", "lower"),
    "metrics.records": ("count", "lower"),
    "harness.run_s": ("s", "lower"),
    "harness.emit_s": ("s", "lower"),
    "harness.emit_bytes": ("bytes", "lower"),
    "harness.trials": ("count", "higher"),
    "harness.trial_s.p50": ("s", "lower"),
    "harness.trial_s.ptail": ("s", "lower"),
    "harness.trial_s.ptail_pct": ("%", "higher"),
    "config.load_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace.trials_per_s": ("trials/s", "higher"),
    "trace.overhead_share": ("fraction", "lower"),
}


class SpanView:
    """Queries over one list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self._by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self._by_name.setdefault(span[0], []).append(i)

    def _indices(self, names: set[str]):
        return sorted(i for name in names for i in self._by_name.get(name, ()))

    def _ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def calls(self, names: set[str], within: set[str] | None = None) -> int:
        return sum(
            1 for i in self._indices(names)
            if within is None or any(self.spans[a][0] in within for a in self._ancestors(i))
        )

    def busy_s(self, names: set[str], parents: set[str] | None = None) -> float:
        """Outermost time of ``names``; with ``parents``, direct children of those only."""
        total = 0
        for i in self._indices(names):
            _, start, end, parent = self.spans[i]
            if parents is not None and (parent < 0 or self.spans[parent][0] not in parents):
                continue
            if any(self.spans[a][0] in names for a in self._ancestors(i)):
                continue
            total += end - start
        return total * 1e-9

    def trial_durations_s(self) -> list[float]:
        """Per-trial wall time, from one trial's simulate call to the next."""
        out = []
        marks = self._indices(TRIAL_MARKERS)
        for i in self._indices(EXPERIMENTS):
            starts = [self.spans[m][1] for m in marks if self.spans[m][3] == i]
            bounds = starts + [self.spans[i][2]]
            out.extend((b - a) * 1e-9 for a, b in zip(bounds, bounds[1:]))
        return out

    def module_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(MODULES, 0)
        for span, own in zip(self.spans, self_times(self.spans)):
            module = span[0].split(".", 1)[0]
            if module in totals:
                totals[module] += own
        return {m: ns * 1e-9 for m, ns in totals.items()}


def pass_metrics(spans: list[list], trials: int) -> dict[str, float]:
    """Counts and times of one traced pass over a workload's configs."""
    v = SpanView(spans)
    run_s = v.busy_s({"harness.run_monte_carlo"})
    cv_s = v.busy_s(CV)
    solves = v.calls(SOLVE)
    theta_m = v.calls({"sre.fit_theta_m"})
    ee = {"entry_exit.entry_exit_experiment"}
    dm = {"demand.demand_experiment"}
    sre_demand_s = v.busy_s({"demand.sre_demand"})
    out = {
        "tuning.cv_s": cv_s,
        "tuning.cv_share": cv_s / run_s,
        "tuning.fits_per_trial": v.calls(SOLVE, within=CV) / trials,
        "sre.solve.calls": solves,
        "sre.solve_s": v.busy_s(SOLVE),
        "sre.solves_per_trial": solves / trials,
        "sre.fit_theta_m.calls": theta_m,
        "sre.fit_theta_m_s": v.busy_s({"sre.fit_theta_m"}),
        "sre.theta_m_per_trial": theta_m / trials,
        "data.standardize.calls": v.calls({"data.standardize"}),
        "data.standardize_s": v.busy_s({"data.standardize"}),
        "data.subset.calls": v.calls({"data.Dataset.subset"}),
        "estimators.lstsq.calls": v.calls({"estimators.solve_least_squares"}),
        "estimators.lstsq_s": v.busy_s({"estimators.solve_least_squares"}),
        "estimators.baseline_s": v.busy_s(BASELINES),
        "auction.simulate_s": v.busy_s({"auction.simulate_auctions"}),
        "entry_exit.simulate_s": v.busy_s(
            {"entry_exit.draw_profit_path", "entry_exit.simulate_market",
             "entry_exit.merge_panels"}, ee),
        "entry_exit.regime_s": v.busy_s(
            {"entry_exit.expected_regime_path", "entry_exit.regime_ccps"}, ee),
        "entry_exit.structural_s": v.busy_s(
            {"entry_exit.estimate_ccp_euler", "entry_exit.DdcBenchmark.from_estimates",
             "entry_exit.DdcBenchmark.step_shares"},
            ee | {"entry_exit.sre_entry_exit"}),
        "demand.simulate_s": v.busy_s({"demand.simulate_markets"}, dm),
        "demand.rf_s": v.busy_s({"demand.rf_demand", "demand.RfDemandFit.predict"}, dm),
        "demand.structural_s": v.busy_s(
            {"demand.structural_estimate_demand", "demand.DemandEstimates.implied_demand"},
            dm),
        "demand.sre_s": sre_demand_s,
        "demand.sre_share": sre_demand_s / run_s,
        "demand.instrument_basis.calls": v.calls({"demand.instrument_basis"}),
        "demand.projection_weight.calls": v.calls({"demand.projection_weight"}),
        "metrics.aggregate_s": v.busy_s({"metrics.metrics", "metrics.sort_curves"}),
        "harness.run_s": run_s,
        "harness.emit_s": v.busy_s({"harness.emit_outputs"}),
    }
    out.update({f"{m}.self_s": s for m, s in v.module_self_s().items()})
    return out


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Layer times of the one-time set-up (config load and study caches)."""
    v = SpanView(spans)
    return {
        "config.load_s": v.busy_s({"config.load_config"}),
        "auction.truth_s": v.busy_s(TRUTH),
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return 100 * (n - 10) // n if n > 10 else 0
