"""Aggregate welfare against the exact ex-ante benchmark.

Replicates a bundled scenario, solves the linearized ex-ante program with
the built-in simplex, and checks the half-of-optimum guarantee.  Then
rebuilds the cautionary scenario where individually fine (zero-regret)
scripts destroy nearly all liquid welfare, and shows that pacing both
agents repairs it.

Run: python demos/03_welfare_benchmark.py
"""

import numpy as np

from pacesim import (
    PacedAgent,
    SimulationConfig,
    counterexample_report,
    counterexample_scenario,
    liquid_welfare,
    replicate,
    solve_ex_ante_optimum,
    verify_welfare_bound,
)
from pacesim.scenarios import load_scenario

print("== bundled symmetric second-price scenario ==")
scenario = load_scenario("welfare_symmetric_second_price")
config = scenario.config
R = 100

samples = [liquid_welfare(t).total for t in replicate(config, R)]
rule = solve_ex_ante_optimum(
    config.value_model,
    config.mechanism.feasible,
    [a.budget for a in config.agents],
    config.horizon,
)
report = verify_welfare_bound(
    samples, rule.value, config.n_agents, config.value_model.value_cap,
    config.horizon, min_replications=R,
)
print(f"optimal ex-ante welfare: {rule.value:g}")
print(f"optimal per-scenario rule:\n{np.round(rule.allocations, 3)}")
print(f"realized welfare over {R} replications: {report.mean:g} +- {report.stderr:.2g}")
print(f"ratio {report.ratio:.4f}; half-of-optimum check: "
      f"{'PASS' if report.passed else 'FAIL'}{' VACUOUS' if report.vacuous else ''} "
      f"(rhs {report.rhs:.1f})")

print()
print("== scripted no-regret bidding can be terrible ==")
for cap in (1.0, 9.0, 99.0):
    row = counterexample_report(cap, 1000)
    print(
        f"multiplier cap {cap:>4g}: welfare {row['realized_welfare']:>7.1f} "
        f"vs benchmark {row['benchmark_welfare']:g} -> ratio {row['ratio']:.3g}"
    )

print()
print("== pacing both agents repairs the same market ==")
base = counterexample_scenario(99.0, 10_000)
paced = SimulationConfig(
    base.mechanism,
    tuple(PacedAgent(budget=a.budget) for a in base.agents),
    base.value_model,
    base.horizon,
    seed=7,
)
samples = [liquid_welfare(t).total for t in replicate(paced, 50)]
rule = solve_ex_ante_optimum(
    paced.value_model, paced.mechanism.feasible,
    [a.budget for a in paced.agents], paced.horizon,
)
print(f"welfare now {np.mean(samples):.0f} of optimum {rule.value:.0f} "
      f"(ratio {np.mean(samples) / rule.value:.3f}, was 0.01 with the scripts)")
