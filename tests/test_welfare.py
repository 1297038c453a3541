"""Liquid welfare reports, the exact ex-ante program against its grid
oracle, and the counterexample scenario."""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from pacesim import (
    PacedAgent,
    Polymatroid,
    ScriptedAgent,
    SimulationConfig,
    SingleSlot,
    Trace,
    ValueModel,
    counterexample_report,
    counterexample_scenario,
    ex_ante_grid_oracle,
    ex_ante_value,
    liquid_welfare,
    replicate,
    run_simulation,
    second_price,
    solve_ex_ante_optimum,
    verify_welfare_bound,
)
from pacesim import simulation, welfare
from pacesim.errors import CapacityError, StatisticsError
from pacesim.welfare import welfare_bound_slack


class TestLiquidWelfare:
    def test_budget_clamp(self):
        trace = run_simulation(counterexample_scenario(99.0, 1000))
        report = liquid_welfare(trace)
        # agent 1 collects value 2T = 2000, clamped at its budget of 10
        assert report.liquid_values[0] == 10.0
        assert report.liquid_values[1] == 0.0
        assert report.total == 10.0

    def test_zero_value_agent(self):
        trace = run_simulation(counterexample_scenario(9.0, 50))
        report = liquid_welfare(dataclasses.replace(trace, budgets=np.array([1000.0, 1000.0])))
        assert report.liquid_values[0] == 100.0  # sum of x*v, unclamped
        assert report.liquid_values[1] == 0.0

    def test_spend_within_budget_asserted(self):
        trace = run_simulation(counterexample_scenario(9.0, 50))
        report = liquid_welfare(trace)
        assert np.all(report.spends <= report.budgets + 1e-9)


def _summed_trace(x, v, z):
    # A trace of the given allocations, values and payments, budgets
    # unbounded so the liquid values are the sums themselves.
    T, n = x.shape
    return Trace(
        values=v, multipliers=np.zeros((T, n)), bids=v, allocations=x, payments=z,
        remaining_budgets=np.zeros((T, n)), budgets=np.full(n, np.inf),
        agent_kinds=("paced",) * n, target_rates=np.ones(n), learning_rates=np.ones(n),
        mu_caps=np.ones(n), value_cap=1.0, stop_rounds=np.full(n, T + 1),
    )


def _spread(rng, T, n):
    # Entries whose exponents span 10^-150..10^150, so any other summation
    # order (pairwise, say) rounds differently.
    return rng.random((T, n)) * 10.0 ** rng.integers(-150, 150, (T, n))


@pytest.mark.parametrize("T", [1, 8191, 8192, 8193, 70000])
def test_liquid_welfare_adds_the_rounds_in_order(T):
    # Each agent's value won and spend are running sums over the rounds,
    # row after row, bit for bit.
    rng = np.random.default_rng(T)
    for n in range(2, 9):
        x = rng.random((T, n)) * (rng.random((T, n)) < 0.8)
        v, z = _spread(rng, T, n), _spread(rng, T, n)
        won, spent = np.zeros(n), np.zeros(n)
        for xv_row, z_row in zip(x * v, z):
            won += xv_row
            spent += z_row
        report = liquid_welfare(_summed_trace(x, v, z))
        assert report.liquid_values.tobytes() == won.tobytes(), n
        assert report.spends.tobytes() == spent.tobytes(), n


@pytest.mark.parametrize("T", [1, 8192, 8193, 70000])
def test_liquid_welfare_of_one_agent_or_fortran_order_is_numpys_sum(T):
    # There sum(axis=0) adds pairwise, which liquid_welfare keeps.
    rng = np.random.default_rng(T + 1)
    for n, order in ((1, "C"), (1, "F"), (2, "F"), (5, "F")):
        x, v, z = (np.asarray(a, order=order) for a in (
            rng.random((T, n)), _spread(rng, T, n), _spread(rng, T, n)))
        report = liquid_welfare(_summed_trace(x, v, z))
        assert report.liquid_values.tobytes() == (x * v).sum(axis=0).tobytes(), (n, order)
        assert report.spends.tobytes() == z.sum(axis=0).tobytes(), (n, order)


def _tiny_instances():
    # (model, feasible, budgets, horizon)
    yield (
        ValueModel([1.0], [[1.0]]),
        SingleSlot(),
        [5.0],
        10,
    )
    yield (
        ValueModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),
        SingleSlot(),
        [100.0, 100.0],
        10,
    )
    yield (  # the counterexample instance: fractional split beats pure allocation
        ValueModel([1.0], [[2.0, 1.0]]),
        SingleSlot(),
        [1.0, 10.0],
        10,
    )
    yield (
        ValueModel([0.25, 0.5, 0.25], [[1.0, 0.2], [0.5, 0.8], [0.1, 0.4]]),
        SingleSlot(),
        [2.0, 3.0],
        10,
    )
    yield (
        ValueModel([0.6, 0.4], [[0.9, 0.5], [0.3, 1.0]]),
        Polymatroid((1.0, 0.4)),
        [4.0, 3.0],
        10,
    )
    yield (
        ValueModel([1.0], [[0.0, 0.0]]),
        SingleSlot(),
        [5.0, 5.0],
        10,
    )


class TestExAnteOptimum:
    def test_single_agent_budget_clamp(self):
        rule = solve_ex_ante_optimum(ValueModel([1.0], [[1.0]]), SingleSlot(), [500.0], 1000)
        assert rule.value == pytest.approx(500.0)
        assert rule.allocations[0, 0] >= 0.5

    def test_disjoint_demand(self):
        model = ValueModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        rule = solve_ex_ante_optimum(model, SingleSlot(), [1000.0, 1000.0], 1000)
        assert rule.value == pytest.approx(1000.0)

    def test_counterexample_instance_true_optimum(self):
        # The pure allocate-to-agent-2 rule yields exactly the horizon; the
        # exact optimum adds the budget-capped fractional slice for agent 1.
        T, cap = 1000, 99.0
        model = ValueModel([1.0], [[2.0, 1.0]])
        budgets = [T / (1.0 + cap), float(T)]
        rule = solve_ex_ante_optimum(model, SingleSlot(), budgets, T)
        assert rule.value == pytest.approx(T * (1.0 + 1.0 / (2.0 * (1.0 + cap))))
        assert rule.value >= T

    @pytest.mark.parametrize("case", list(range(6)))
    def test_matches_grid_oracle(self, case):
        model, feasible, budgets, horizon = list(_tiny_instances())[case]
        step = 0.01
        rule = solve_ex_ante_optimum(model, feasible, budgets, horizon)
        grid_value, _ = ex_ante_grid_oracle(model, feasible, budgets, horizon, step)
        slack = model.n_agents * model.value_cap * horizon * step
        assert rule.value >= grid_value - 1e-6
        assert rule.value <= grid_value + slack + 1e-6

    def test_rule_value_consistency(self):
        model, feasible, budgets, horizon = next(iter(_tiny_instances()))
        rule = solve_ex_ante_optimum(model, feasible, budgets, horizon)
        assert ex_ante_value(rule.allocations, model, budgets, horizon) == pytest.approx(
            rule.value
        )

    def test_scaling_invariance(self):
        model = ValueModel([0.5, 0.5], [[1.0, 0.4], [0.2, 0.9]])
        budgets = [2.0, 3.0]
        base = solve_ex_ante_optimum(model, SingleSlot(), budgets, 10)
        c = 3.7
        scaled_model = ValueModel([0.5, 0.5], [[c, 0.4 * c], [0.2 * c, 0.9 * c]])
        scaled = solve_ex_ante_optimum(scaled_model, SingleSlot(), [c * b for b in budgets], 10)
        assert scaled.value == pytest.approx(c * base.value, rel=1e-9)

    def test_removing_an_agent_never_helps(self):
        model = ValueModel([0.5, 0.5], [[1.0, 0.4], [0.2, 0.9]])
        both = solve_ex_ante_optimum(model, SingleSlot(), [2.0, 3.0], 10)
        solo = solve_ex_ante_optimum(ValueModel([0.5, 0.5], [[1.0], [0.2]]), SingleSlot(), [2.0], 10)
        assert solo.value <= both.value + 1e-9

    def test_degenerate_all_zero_values(self):
        rule = solve_ex_ante_optimum(ValueModel([1.0], [[0.0, 0.0]]), SingleSlot(), [1.0, 1.0], 10)
        assert rule.value == 0.0
        assert np.all(rule.allocations == 0.0)

    def test_random_instances_match_oracle(self):
        # Randomized dual-route sweep: exact simplex vs frontier-grid
        # enumeration on small two-agent programs, both feasible-set kinds.
        rng = np.random.default_rng(31)
        step = 0.02
        for trial in range(30):
            S = int(rng.integers(1, 4))
            probs = rng.dirichlet(np.ones(S))
            profiles = rng.uniform(0.0, 1.5, (S, 2))
            horizon = int(rng.integers(4, 20))
            budgets = rng.uniform(0.2, 1.0, 2) * horizon
            if trial % 2:
                feasible = SingleSlot()
            else:
                a1 = float(rng.uniform(0.4, 1.0))
                feasible = Polymatroid((a1, float(rng.uniform(0.0, a1))))
            model = ValueModel(probs / probs.sum(), profiles)
            exact = solve_ex_ante_optimum(model, feasible, budgets, horizon)
            grid_value, _ = ex_ante_grid_oracle(model, feasible, budgets, horizon, step)
            slack = 2 * model.value_cap * horizon * step
            assert exact.value >= grid_value - 1e-6
            assert exact.value <= grid_value + slack + 1e-6

    def test_capacity_guards(self):
        big_model = ValueModel(
            [1.0 / 128] * 128, np.ones((128, 112)) * 0.5
        )
        with pytest.raises(CapacityError):
            solve_ex_ante_optimum(big_model, SingleSlot(), [1.0] * 112, 10)
        # 100 scenarios x 40 agents x 3 slots = 12,000 share columns.
        poly_model = ValueModel([1.0 / 100] * 100, np.ones((100, 40)) * 0.5)
        with pytest.raises(CapacityError):
            solve_ex_ante_optimum(poly_model, Polymatroid((1.0, 0.6, 0.3)), [1.0] * 40, 10)


class TestWelfareBound:
    def test_uncontested_trivially_passes(self):
        model = ValueModel([1.0], [[1.0, 0.0]])
        config = SimulationConfig(
            second_price(),
            (PacedAgent(budget=4000.0), ScriptedAgent(budget=1.0, bid=0.0)),
            model,
            horizon=4000,
            seed=3,
        )
        samples = [liquid_welfare(t).total for t in replicate(config, 10)]
        report = verify_welfare_bound(samples, 4000.0, 2, 1.0, 4000, min_replications=10)
        assert report.passed
        assert report.ratio == pytest.approx(1.0)

    def test_insufficient_replications(self):
        with pytest.raises(StatisticsError):
            verify_welfare_bound([1.0] * 5, 1.0, 1, 1.0, 10, min_replications=200)

    def test_expected_spend_at_most_expected_welfare(self):
        # Holds in expectation for conforming agents even when single
        # realizations can overspend their realized liquid value.
        model = ValueModel([1.0], [[2.0, 1.0]])
        config = SimulationConfig(
            second_price(),
            (PacedAgent(budget=20.0), PacedAgent(budget=2000.0)),
            model,
            horizon=2000,
            seed=17,
        )
        rows = [
            (liquid_welfare(t).total, t.payments.sum()) for t in replicate(config, 50)
        ]
        welfare = np.array([w for w, _ in rows])
        spend = np.array([p for _, p in rows])
        margin = 2.5758 * (welfare - spend).std(ddof=1) / math.sqrt(len(rows))
        assert spend.mean() <= welfare.mean() + margin

    def test_slack_formula(self):
        n, v, T = 2, 1.0, 10_000
        assert welfare_bound_slack(n, v, T) == pytest.approx(
            3.0 * n * v * math.sqrt(T * math.log(v * n * T))
        )


class TestCounterexample:
    @pytest.mark.parametrize("cap,expected", [(1.0, 0.5), (9.0, 0.1), (99.0, 0.01), (0.0, 1.0)])
    def test_exact_ratios(self, cap, expected):
        report = counterexample_report(cap, 1000)
        assert report["ratio"] == expected
        assert report["expected_ratio"] == expected

    def test_scenario_shape(self):
        config = counterexample_scenario(9.0, 100)
        assert config.agents[0].bid == 2.0
        assert config.agents[1].bid == 0.0
        assert config.agents[0].budget == pytest.approx(10.0)
        assert config.agents[1].budget == 100.0


def test_rule_to_csv_round_trip(tmp_path):
    from pacesim.welfare import rule_to_csv

    rule = np.array([[0.25, 0.75], [1.0 / 3.0, 0.0]])
    path = tmp_path / "rule.csv"
    rule_to_csv(rule, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,agent_0,agent_1"
    parsed = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    assert np.array_equal(parsed, rule)


def test_rule_to_csv_writes_the_csv_module_bytes(tmp_path):
    # Every CSV goes through one 17-digit writer (simulation._write_csv),
    # whose bytes are those csv.writer gave with format(v, ".17g"): signed
    # zero, nan, inf and tiny values included.
    rule = np.array([[-0.0, math.nan], [math.inf, 1e-300], [1.0 / 3.0, 0.0]])
    header = ["scenario", "agent_0", "agent_1"]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s, row in enumerate(rule):
            writer.writerow([s] + [format(v, ".17g") for v in row])
    welfare.rule_to_csv(rule, tmp_path / "rule.csv")
    simulation._write_csv(tmp_path / "direct.csv", header, np.column_stack([np.arange(3), rule]), 1)
    assert (tmp_path / "rule.csv").read_bytes() == expected.read_bytes()
    assert (tmp_path / "direct.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "feasible, rows_per_scenario, slots",
    [(SingleSlot(), 1, 1), (Polymatroid((1.0, 0.6, 0.3)), 8, 3)],
    ids=["single-slot", "gsp-three-slots"],
)
def test_ex_ante_lp_writes_only_the_rank_rows_that_can_bind(
    monkeypatch, feasible, rows_per_scenario, slots
):
    # Two welfare rows per agent, then per scenario one row per slot and,
    # with more than one slot, one per agent (3 + 5), over one share
    # column per (scenario, agent, slot) and one welfare column per agent.
    shapes = []
    real_solve = welfare.solve_lp_max

    def recording_solve(c, A, b):
        shapes.append(A.shape)
        return real_solve(c, A, b)

    monkeypatch.setattr(welfare, "solve_lp_max", recording_solve)
    n, S = 5, 3
    rng = np.random.default_rng(8)
    model = ValueModel(rng.dirichlet(np.ones(S)), rng.uniform(0.1, 1.0, (S, n)))
    solve_ex_ante_optimum(model, feasible, [2.0] * n, 10)
    assert shapes == [(2 * n + rows_per_scenario * S, S * n * slots + n)]


def _highs_ex_ante_value(model, feasible, budgets, horizon):
    """The ex-ante program with one row for every agent subset of every
    scenario, solved by HiGHS."""
    from scipy.optimize import linprog

    S, n = model.profiles.shape
    rank = np.cumsum((list(feasible.click_rates) + [0.0] * n)[:n])
    rows, rhs = [], []
    for k in range(n):
        row = np.zeros(S * n + n)
        row[S * n + k] = 1.0
        row[k : S * n : n] = -horizon * model.probs * model.profiles[:, k]
        rows.append(row)
        rhs.append(0.0)
    for s in range(S):
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                row = np.zeros(S * n + n)
                row[[s * n + k for k in subset]] = 1.0
                rows.append(row)
                rhs.append(rank[size - 1])
    c = np.concatenate([np.zeros(S * n), -np.ones(n)])
    bounds = [(0.0, None)] * (S * n) + [(0.0, float(b)) for b in budgets]
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_ex_ante_optimum_matches_highs_over_every_subset():
    # The slot shares must reach the optimum of the full program: the
    # single slot up to 10 agents, polymatroids of 1-4 rates up to 8.
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2024)
    for trial in range(30):
        S = int(rng.integers(1, 5))
        if trial % 3 == 0:
            n = int(rng.integers(1, 11))
            feasible = SingleSlot()
        else:
            n = int(rng.integers(1, 9))
            rates = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 5))))[::-1]
            if rng.random() < 0.3:
                rates[0] = 1.0
            feasible = Polymatroid(tuple(rates))
        model = ValueModel(rng.dirichlet(np.ones(S)), rng.uniform(0.0, 1.0, (S, n)))
        horizon = int(rng.integers(5, 50))
        budgets = rng.uniform(0.1, 0.6, n) * horizon
        rule = solve_ex_ante_optimum(model, feasible, budgets, horizon)
        reference = _highs_ex_ante_value(model, feasible, budgets, horizon)
        assert rule.value == pytest.approx(reference, rel=1e-9, abs=1e-12), (trial, feasible, n, S)
    # Sizes the subset enumeration could not reach: 9-12 agents with up to
    # as many rates as agents, where every subset of every size can bind.
    for trial in range(8):
        S = int(rng.integers(1, 4))
        n = int(rng.integers(9, 13))
        rates = np.sort(rng.uniform(0.05, 1.0, int(rng.integers(2, n + 1))))[::-1]
        feasible = Polymatroid(tuple(rates))
        model = ValueModel(rng.dirichlet(np.ones(S)), rng.uniform(0.0, 1.0, (S, n)))
        horizon = int(rng.integers(5, 50))
        budgets = rng.uniform(0.1, 0.6, n) * horizon
        rule = solve_ex_ante_optimum(model, feasible, budgets, horizon)
        reference = _highs_ex_ante_value(model, feasible, budgets, horizon)
        assert rule.value == pytest.approx(reference, rel=1e-9, abs=1e-12), (trial, feasible, n, S)


def test_ex_ante_optimum_scales_to_sixteen_gsp_agents():
    n, S, horizon = 16, 4, 1_000
    rng = np.random.default_rng(16)
    model = ValueModel(rng.dirichlet(np.ones(S)), rng.uniform(0.0, 1.0, (S, n)))
    budgets = 0.3 * horizon * (model.probs[:, None] * model.profiles).sum(axis=0)
    feasible = Polymatroid((1.0, 0.6, 0.3))
    rule = solve_ex_ante_optimum(model, feasible, budgets, horizon)
    assert all(feasible.contains(y) for y in rule.allocations)
    assert ex_ante_value(rule.allocations, model, budgets, horizon) == pytest.approx(
        rule.value, rel=1e-9
    )
