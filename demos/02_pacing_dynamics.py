"""Budget pacing in a contested market.

Two agents with tight budgets repeatedly meet in a second-price auction.
Each starts unshaded, overspends, raises its multiplier until per-round
spend matches the budget rate, and the multiplier path partitions into
epochs whose spend averages out to the target.

Run: python demos/02_pacing_dynamics.py
"""

import numpy as np

from pacesim import (
    PacedAgent,
    SimulationConfig,
    ValueModel,
    liquid_welfare,
    run_simulation,
    second_price,
    verify_epoch_value_bound,
)
from pacesim.simulation import check_stopping_bound

T = 2000
model = ValueModel(probs=[0.5, 0.5], profiles=[[1.0, 1.0], [0.6, 0.6]])
config = SimulationConfig(
    mechanism=second_price(),
    agents=(PacedAgent(budget=T / 4), PacedAgent(budget=T / 4)),
    value_model=model,
    horizon=T,
    seed=42,
)
trace = run_simulation(config)

print(f"== {T} rounds, two paced agents, budgets {T / 4:g} each ==")
for k in range(2):
    spend = trace.payments[:, k].sum()
    mu_path = trace.multipliers[:, k]
    live = mu_path[~np.isnan(mu_path)]
    print(
        f"agent {k}: spent {spend:8.1f} of {trace.budgets[k]:g}, "
        f"final multiplier {live[-1]:.3f}, stopped at round {trace.stop_rounds[k]}"
    )

report = liquid_welfare(trace)
print(f"liquid welfare realized: {report.total:g} "
      f"(per agent {np.round(report.liquid_values, 1)})")

print()
print("== epochs: maximal stretches starting from an unshaded round ==")
for k in range(2):
    bound = verify_epoch_value_bound(trace, k)
    lengths = bound.ends - bound.starts
    print(
        f"agent {k}: {len(lengths)} epochs, longest {lengths.max()}, "
        f"trivial (length-1) {(lengths == 1).sum()}"
    )
    print(
        f"   per-epoch value floor: {bound.n_checked} checked, "
        f"{bound.n_violations} violations, min slack {bound.min_slack:.3e}, "
        f"{bound.n_skipped} final epoch(s) skipped"
    )

print()
print("== the early-stopping guarantee ==")
for rep in check_stopping_bound(trace):
    print(
        f"agent {rep.agent}: missed {rep.missed_rounds} rounds, "
        f"bound {rep.bound} (hypotheses hold: {rep.applicable})"
    )

print()
print("== multiplier path sketch (every 100th round) ==")
steps = np.arange(0, T, 100)
for k in range(2):
    path = np.nan_to_num(trace.multipliers[steps, k])
    bars = "".join("#" if x > 0.5 else "+" if x > 0.25 else "." for x in path)
    print(f"agent {k}: {bars}   (. <0.25, + <0.5, # >0.5)")
