"""Liquid welfare: realized reports, the exact ex-ante benchmark, and the
no-regret-but-terrible-welfare counterexample scenario.

The ex-ante benchmark maximizes, over one allocation rule applied to every
support point, the sum over agents of min(budget, horizon * expected
per-round value).  The min is linearized with one auxiliary welfare
variable per agent and the resulting LP is solved exactly by the dense
simplex in `lp`; a frontier grid search over the same program serves as an
independent oracle on two-agent instances.  Each scenario's allocation
lies in the polymatroid of the positive click rates alpha_1 >= ... >=
alpha_m, written without enumerating subsets: y is in it exactly when
y = D alpha for a nonnegative n x m slot-share matrix D whose rows and
columns each sum to at most 1 (weak majorization, Marshall-Olkin-Arnold),
so the LP has n * m share columns and m + n rows per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .auctions import Polymatroid, second_price
from .constants import SURE_TOL, WELFARE_BOUND_CONSTANT, Z99
from .errors import (
    CapacityError,
    ConfigurationError,
    InvariantViolationError,
    StatisticsError,
)
from .lp import solve_lp_max
from .simulation import ScriptedAgent, SimulationConfig, Trace, ValueModel, run_simulation
from .simulation import _mean_stderr, _write_csv

#: Largest support_size * n * m (slot-share columns) the exact solver accepts.
SOLVER_VARIABLE_CAP = 10_000


@dataclass(frozen=True)
class LiquidWelfareReport:
    """Per-agent liquid value min(budget, total value won) and total spend.

    Spend can exceed liquid value on a single realization (only the
    expectation is ordered), but can never exceed the budget; that is
    asserted here.
    """

    liquid_values: np.ndarray
    spends: np.ndarray
    budgets: np.ndarray

    def __post_init__(self):
        if np.any(self.spends > self.budgets + SURE_TOL):
            raise InvariantViolationError("agent spend exceeds its budget")

    @property
    def total(self) -> float:
        return float(self.liquid_values.sum())


def liquid_welfare(trace: Trace) -> LiquidWelfareReport:
    """The trace's liquid welfare: each agent's value won and spend as
    running sums over the rounds (axis 0), the one formula behind every
    liquid welfare pacesim reports.  For C-order arrays of two or more
    agents, einsum's column loop adds each round's row in turn, as
    sum(axis=0) does there, bit for bit and without a call per round; for
    one agent or Fortran order sum(axis=0) adds pairwise, so it stays."""
    x, v, z = trace.allocations, trace.values, trace.payments
    if x.shape[1] > 1 and x.flags.c_contiguous and v.flags.c_contiguous and z.flags.c_contiguous:
        totals, spends = np.einsum("ij,ij->j", x, v), np.einsum("ij->j", z)
    else:
        totals, spends = (x * v).sum(axis=0), z.sum(axis=0)
    return LiquidWelfareReport(
        liquid_values=np.minimum(trace.budgets, totals),
        spends=spends,
        budgets=trace.budgets.copy(),
    )


@dataclass(frozen=True)
class ExAnteRule:
    """A per-scenario allocation rule with its ex-ante liquid welfare."""

    allocations: np.ndarray  # (support, agents)
    liquid_values: np.ndarray  # per-agent min(budget, horizon * expected value)
    value: float


def ex_ante_value(
    allocations: np.ndarray,
    model: ValueModel,
    budgets: Sequence[float],
    horizon: int,
) -> float:
    """Ex-ante liquid welfare of an arbitrary per-scenario rule."""
    y = np.asarray(allocations, dtype=np.float64)
    b = np.asarray(budgets, dtype=np.float64)
    expected = (model.probs[:, None] * y * model.profiles).sum(axis=0)
    return float(np.minimum(b, horizon * expected).sum())


def solve_ex_ante_optimum(
    model: ValueModel,
    feasible: Polymatroid,
    budgets: Sequence[float],
    horizon: int,
) -> ExAnteRule:
    """Maximize ex-ante liquid welfare exactly over per-scenario allocations.

    Scenario s shares out the m slots with positive rate among the n agents:
    D[s, k, j] >= 0 is agent k's share of slot j, every slot and (for m > 1)
    every agent shares out at most 1, and the allocation is y_s = D_s alpha.
    Beside these n * m share columns per scenario there is one welfare
    variable w_k per agent with w_k <= budget_k and w_k <= horizon *
    expected value.  `SOLVER_VARIABLE_CAP` bounds the S * n * m share columns.
    """
    S, n = model.support_size, model.n_agents
    b = np.asarray(budgets, dtype=np.float64)
    if b.shape != (n,):
        raise ConfigurationError("one budget per agent required")
    if not np.all((b >= 0) & (b < np.inf)):
        raise ConfigurationError("budgets must be finite and non-negative")
    if not 0 <= horizon < math.inf:
        raise ConfigurationError("horizon must be finite and non-negative")
    alpha = np.array([a for a in feasible.rates(n) if a > 0])
    m = len(alpha)
    shares = S * n * m
    if shares > SOLVER_VARIABLE_CAP:
        raise CapacityError(f"{shares} allocation variables exceed {SOLVER_VARIABLE_CAP}")

    if horizon == 0 or not np.any(model.profiles > 0):
        return ExAnteRule(np.zeros((S, n)), np.zeros(n), 0.0)

    # Rows: w_k <= b_k and w_k - T E[v_k y_k] <= 0 per agent, then per scenario m
    # slot rows and n agent rows (implied by the slot row when m = 1).  Each
    # reshape splits only a contiguous axis, so it is a view and writes into A.
    per_scenario = m + n if m > 1 else m
    A = np.zeros((2 * n + S * per_scenario, shares + n))
    A[np.arange(2 * n), shares + np.arange(2 * n) // 2] = 1.0
    value = -horizon * (model.probs[:, None] * model.profiles)
    welfare_rows = A[1 : 2 * n : 2, :shares].reshape(n, S, n, m)
    welfare_rows[np.arange(n), :, np.arange(n)] = np.multiply.outer(value.T, alpha)
    share_rows = A[2 * n :, :shares].reshape(S, per_scenario, S, n, m)
    s, j, k = np.arange(S)[:, None], np.arange(m), np.arange(n)
    share_rows[s, j, s, :, j] = 1.0
    if m > 1:
        share_rows[s, m + k, s, k] = 1.0
    rhs = np.ones(len(A))
    rhs[: 2 * n] = np.column_stack([b, np.zeros(n)]).ravel()

    sol = solve_lp_max(np.repeat([0.0, 1.0], [shares, n]), A, rhs)
    D = np.clip(sol.x[:shares].reshape(S, n, m), 0.0, None)
    return ExAnteRule((D * alpha).sum(axis=2), sol.x[shares:].copy(), sol.value)


def _frontier_grid(feasible: Polymatroid, n: int, step: float) -> np.ndarray:
    """Maximal-boundary allocations for <= 2 agents on a regular grid.

    The objective is non-decreasing in every coordinate, so the optimum is
    attained on the maximal frontier of the (downward-closed) feasible set;
    for one or two agents that frontier is a segment.
    """
    top = feasible.click_rates[0]
    if n == 1:
        grid = np.arange(0.0, top + step / 2, step)
        return np.clip(grid, 0.0, top)[:, None]
    if n != 2:
        raise CapacityError("the grid oracle handles at most two agents")
    total = top + float(feasible.rates(2)[1])
    lo, hi = total - top, top
    first = np.arange(lo, hi + step / 2, step)
    first = np.clip(first, lo, hi)
    if first[-1] < hi - 1e-15:
        first = np.append(first, hi)
    return np.column_stack([first, total - first])


def ex_ante_grid_oracle(
    model: ValueModel,
    feasible: Polymatroid,
    budgets: Sequence[float],
    horizon: int,
    step: float = 0.01,
) -> tuple[float, np.ndarray]:
    """Brute-force the ex-ante program over a grid of frontier allocations.

    Independent of the simplex path: pure enumeration over the Cartesian
    product of per-scenario grids.  Restricted to n <= 2 and a small
    support so the product stays desk-sized.
    """
    S, n = model.support_size, model.n_agents
    b = np.asarray(budgets, dtype=np.float64)
    if n > 2:
        raise CapacityError("the grid oracle handles at most two agents")
    grid = _frontier_grid(feasible, n, step)
    if len(grid) ** S > 5_000_000:
        raise CapacityError("grid enumeration too large; coarsen the step")

    choice_axes = np.indices((len(grid),) * S).reshape(S, -1)  # (S, combos)
    expected = np.zeros((choice_axes.shape[1], n))
    for s in range(S):
        expected += model.probs[s] * grid[choice_axes[s]] * model.profiles[s]
    welfare = np.minimum(b[None, :], horizon * expected).sum(axis=1)
    best = int(np.argmax(welfare))
    rule = grid[choice_axes[:, best]]
    return float(welfare[best]), rule


def rule_to_csv(allocations: np.ndarray, path) -> None:
    """Write a per-scenario allocation rule as CSV: scenario index followed
    by one allocation column per agent, 17 significant digits."""
    y = np.asarray(allocations, dtype=np.float64)
    header = ["scenario"] + [f"agent_{k}" for k in range(y.shape[1])]
    _write_csv(path, header, np.column_stack([np.arange(len(y)), y]), 1)


@dataclass(frozen=True)
class WelfareBoundReport:
    mean: float
    stderr: float
    optimum: float
    ratio: float
    slack: float
    rhs: float
    passed: bool
    replications: int

    @property
    def vacuous(self) -> bool:
        """rhs <= 0: the bound passes at any welfare, 0 included."""
        return bool(self.rhs <= 0)

    def as_dict(self) -> dict:
        return {
            "expected_welfare": self.mean,
            "stderr": self.stderr,
            "optimum": self.optimum,
            "ratio": self.ratio,
            "slack": self.slack,
            "rhs": self.rhs,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "replications": self.replications,
        }


def welfare_bound_slack(n_agents: int, value_cap: float, horizon: int) -> float:
    if horizon < 1:
        raise ConfigurationError(f"the welfare bound needs a horizon of at least 1, got {horizon}")
    return WELFARE_BOUND_CONSTANT * n_agents * value_cap * math.sqrt(
        horizon * math.log(value_cap * n_agents * horizon)
    )


def verify_welfare_bound(
    welfare_samples: Sequence[float],
    optimum: float,
    n_agents: int,
    value_cap: float,
    horizon: int,
    min_replications: int = 200,
) -> WelfareBoundReport:
    """Check the half-of-optimum guarantee on replicated welfare samples.

    Passes when the sample mean, minus its 99% Monte Carlo error, is at
    least optimum/2 minus the additive implementation slack.  The ratio is
    mean / optimum, nan when both are 0.
    """
    samples = np.asarray(welfare_samples, dtype=np.float64)
    if len(samples) < max(2, min_replications):
        raise StatisticsError(
            f"need at least {max(2, min_replications)} replications, got {len(samples)}"
        )
    mean, stderr = _mean_stderr(samples)
    slack = welfare_bound_slack(n_agents, value_cap, horizon)
    rhs = optimum / 2.0 - slack
    passed = mean - Z99 * stderr >= rhs
    if optimum > 0:
        ratio = mean / optimum
    else:
        ratio = math.nan if mean == 0 else math.inf
    return WelfareBoundReport(
        mean, stderr, optimum, ratio, slack, rhs, passed, len(samples)
    )


def counterexample_scenario(mu_cap: float, horizon: int) -> SimulationConfig:
    """The scripted scenario where individually no-regret bidding wrecks
    liquid welfare.

    Values are (2, 1) every round; agent 1 (budget horizon/(1 + mu_cap))
    always bids 2 and agent 2 (budget horizon) always bids 0, so agent 1
    wins everything for free and total liquid welfare is stuck at its
    budget, a 1/(1 + mu_cap) fraction of the welfare of handing every item
    to agent 2.
    """
    if not 0 <= mu_cap < math.inf:  # NaN fails both
        raise ConfigurationError(f"mu_cap must be finite and non-negative, got {mu_cap}")
    if horizon < 1:
        raise ConfigurationError("horizon must be positive")
    model = ValueModel(probs=[1.0], profiles=[[2.0, 1.0]])
    return SimulationConfig(
        mechanism=second_price(),
        agents=(
            ScriptedAgent(budget=horizon / (1.0 + mu_cap), bid=2.0),
            ScriptedAgent(budget=float(horizon), bid=0.0),
        ),
        value_model=model,
        horizon=horizon,
        seed=0,
    )


def counterexample_report(mu_cap: float, horizon: int) -> dict:
    """Run the counterexample and report realized welfare against the
    benchmark of allocating every item to the budget-unconstrained agent."""
    config = counterexample_scenario(mu_cap, horizon)
    trace = run_simulation(config)
    report = liquid_welfare(trace)
    benchmark = float(horizon)
    return {
        "mu_cap": mu_cap,
        "horizon": horizon,
        "realized_welfare": report.total,
        "benchmark_welfare": benchmark,
        "ratio": report.total / benchmark,
        "expected_ratio": 1.0 / (1.0 + mu_cap),
    }
