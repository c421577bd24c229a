"""Demand estimation with instruments at demo scale.

Prices are set by a monopolist, so the price-quantity scatter is confounded
(it can even slope upward); a cost shifter identifies the true demand curve.
Four scenarios cross {optimal, dampened-markup} pricing with {linear,
log-log} reduced forms, so each of the reduced-form and structural models is
correct in two scenarios and misspecified in the other two. The regularized
moment fit stays close to the truth in all four.
"""

import numpy as np

from structreg.data import SeededRng
from structreg.demand import DemandParams, demand_experiment, simulate_markets
from structreg.metrics import metrics_table

# confounding, visibly: naive regression of price on quantity slopes upward.
# The simulated markets are a Dataset: price is its input, quantity its
# outcome and the cost shifter its instrument.
scatter = simulate_markets(DemandParams(lambda_markup=1.0, M=20_000), SeededRng(1))
slope = np.polyfit(scatter.outcome, scatter.inputs[:, 0], 1)[0]
print(f"naive price-on-quantity slope: {slope:+.3f} (true demand slope is -2)\n")

TRIALS = 30
for scenario, label in (
    (1, "optimal pricing, linear reduced form (both correct)"),
    (2, "dampened markup, linear reduced form (structural wrong)"),
    (3, "optimal pricing, log-log reduced form (reduced form wrong)"),
    (4, "dampened markup, log-log reduced form (both wrong)"),
):
    records, _ = demand_experiment(scenario, trials=TRIALS, rng=SeededRng(2))
    table = metrics_table(records)
    print(f"scenario {scenario}: {label}")
    print(f"  {'estimator':>12s} {'bias':>9s} {'var':>10s} {'mse':>12s}")
    for (name, _), row in sorted(table.items()):
        print(f"  {name:>12s} {row.bias:9.3f} {row.variance:10.3f} {row.mse:12.3f}")
    print()

print("whichever side is misspecified pays a large bias; the regularized fit")
print("keeps a low bias in every scenario, including when both sides are wrong.")
