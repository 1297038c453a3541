"""The refusals and early returns no other test reaches, each through the
public API: the exception class and message, or the value returned."""

import types

import numpy as np
import pytest

from pacesim import auctions, lp, pacing, regret, scenarios, simulation, svgplot, verify, welfare
from pacesim.auctions import first_price, second_price
from pacesim.cli import main
from pacesim.config import Scenario, SchemaError, apply_overrides, validate_scenario
from pacesim.errors import (
    CapacityError,
    ConfigurationError,
    EnvironmentError_,
    InvariantViolationError,
)
from pacesim.simulation import PacedAgent, ScriptedAgent, SimulationConfig, ValueModel

_CFG = pacing.AgentConfig(budget=10.0, horizon=10, learning_rate=0.1, mu_cap=4.0, value_cap=1.0)
_ENV = regret.uniform_opponent_env()


def _pacing_runs(horizon):
    return regret.simulate_pacing(_ENV, 0.25 * horizon, 0.1, 4.0, horizon=horizon)


def _regret_scenario(horizon, opponent):
    """One paced agent and one opponent, at the given horizon."""
    config = SimulationConfig(
        first_price(), (PacedAgent(budget=5.0), opponent),
        ValueModel([1.0], [[1.0, 0.5]]), horizon=horizon,
    )
    return Scenario(config=config, replications=None, smoothing_eta=None, doc={})


def _regret_doc(horizon):
    return {
        "mechanism": {"type": "first_price"},
        "agents": [{"budget": 5.0}, {"budget": 100.0, "script": {"bid": 0.5}}],
        "value_model": {"support": [{"prob": 1.0, "values": [1.0, 0.0]}]},
        "horizon": horizon,
    }


REFUSALS = {
    # name: (call, exception class, message)
    "polymatroid-without-rates": (
        lambda: auctions.Polymatroid(()), ConfigurationError, "at least one click rate"),
    "mechanism-feasible-not-a-polymatroid": (
        lambda: auctions.Mechanism("first_price", (1.0,)), ConfigurationError,
        "the feasible set must be a polymatroid"),
    "allocate-empty-profile": (
        lambda: auctions.allocate(second_price(), []), ConfigurationError, "empty bid profile"),
    "check-ir-dimensions": (
        lambda: auctions.check_ir(auctions.allocate(second_price(), [1.0, 0.5]), [1.0]),
        ConfigurationError, "outcome and bid profile dimensions differ"),
    "check-core-deviation-dimensions": (
        lambda: auctions.check_core(second_price(), [1.0, 0.5], [0], [1.0]),
        ConfigurationError, "deviation and bid profile dimensions differ"),
    "check-core-subset-index": (
        lambda: auctions.check_core(second_price(), [1.0, 0.5], [2], [1.0, 0.0]),
        ConfigurationError, "subset index out of range"),
    "check-mbb-agent-index": (
        lambda: auctions.check_mbb(second_price(), 2, 0.1, 0.2, [0.3]),
        ConfigurationError, "agent index out of range"),
    "welfare-one-replication": (
        lambda: main(["welfare", "welfare_gsp_five", "-R", "1"]), None,
        "welfare needs at least 2 replications"),
    "regret-horizons-not-integers": (
        lambda: main(["regret", "regret_switching", "--horizons", "100,abc"]), None,
        "bad --horizons value '100,abc'"),
    "regret-horizons-not-positive": (
        lambda: main(["regret", "regret_switching", "--horizons", "0,100"]), None,
        "horizons must be positive integers"),
    "override-without-equals": (
        lambda: apply_overrides({}, ["horizon"]), SchemaError,
        "override 'horizon' must look like path=value"),
    "lp-dimensions": (
        lambda: lp.solve_lp_max([1.0, 2.0], [[1.0, 0.0]], [1.0, 1.0]), ConfigurationError,
        "inconsistent LP dimensions"),
    "bid-above-value-cap": (
        lambda: pacing.compute_bid(pacing.init_state(_CFG), 1.5), ConfigurationError,
        r"value outside \[0, value_cap\]"),
    "conformance-lengths": (
        lambda: pacing.check_generalized_pacing([1.0], [0.5], [], [0.0, 0.0], _CFG),
        ConfigurationError, "trace sequences have inconsistent lengths"),
    "environment-agent-index": (
        lambda: regret.EnvironmentStep(first_price(), [1.0], [1.0], [[0.5]], agent_index=2),
        ConfigurationError, "agent_index out of range"),
    "environment-competing-rows": (
        lambda: regret.EnvironmentStep(
            first_price(), [0.5, 0.5], [1.0, 0.8], [[0.1], [0.2], [0.3]]),
        ConfigurationError, "need one value and one row of competing bids"),
    "environments-against-horizon": (
        lambda: regret.simulate_pacing([_ENV] * 10, 2.5, 0.1, 4.0, horizon=5),
        ConfigurationError, "environment list length must equal the horizon"),
    "regret-runs-of-two-horizons": (
        lambda: regret.dynamic_regret_batch(_pacing_runs(10) + _pacing_runs(20), [_ENV] * 10),
        ConfigurationError, "all runs must share one horizon"),
    "regret-environment-horizon-0": (
        lambda: scenarios.regret_environment(validate_scenario(_regret_doc(0))),
        EnvironmentError_, "regret analysis needs a positive horizon"),
    # A scenario file holds paced and scripted agents only; a hand-built
    # config can hold an opponent of neither kind.
    "regret-environment-opponent-of-neither-kind": (
        lambda: scenarios.regret_environment(
            _regret_scenario(10, types.SimpleNamespace(budget=1.0))),
        EnvironmentError_, "opponents must be scripted"),
    "value-model-probabilities-against-profiles": (
        lambda: ValueModel([0.5, 0.5], [[1.0]]), ConfigurationError,
        "need one probability per value profile"),
    "value-model-empty-support": (
        lambda: ValueModel([], np.empty((0, 2))), ConfigurationError, "empty support"),
    "value-model-labels": (
        lambda: ValueModel([1.0], [[1.0]], labels=("a", "b")), ConfigurationError,
        "one label per support point"),
    "script-without-bid-or-schedule": (
        lambda: ScriptedAgent(budget=1.0), ConfigurationError,
        "give exactly one of bid or schedule"),
    "agent-config-of-a-scripted-agent": (
        lambda: welfare.counterexample_scenario(1.0, 10).agent_config(0), ConfigurationError,
        "agent 0 is scripted"),
    "sgd-empty-domain": (
        lambda: verify.SGDTestProblem((1.0, 0.0), [0.5]), ConfigurationError, "empty domain"),
    "sgd-minimizer-outside-domain": (
        lambda: verify.SGDTestProblem((0.0, 1.0), [2.0]), ConfigurationError,
        "minimizers must lie in the domain"),
    "sgd-negative-noise": (
        lambda: verify.SGDTestProblem((0.0, 1.0), [0.5], noise_width=-1.0), ConfigurationError,
        "noise width must be non-negative"),
    "piecewise-one-breakpoint": (
        lambda: verify.PiecewiseLinear([0.0], [0.0]), ConfigurationError,
        "need matching breakpoint arrays"),
    "piecewise-repeated-breakpoint": (
        lambda: verify.PiecewiseLinear([0.0, 0.0], [0.0, 1.0]), ConfigurationError,
        "breakpoints must strictly increase"),
    "piecewise-not-straddling-0": (
        lambda: verify.PiecewiseLinear([1.0, 2.0], [0.0, 1.0]), ConfigurationError,
        "breakpoints must straddle 0"),
    "gsp-core-empty-profile": (
        lambda: verify.gsp_core_slack([1.0], []), ConfigurationError, "empty bid profile"),
    "diagnostic-rule-too-short": (
        lambda: verify.benchmark_value_diagnostic(
            simulation.run_simulation(welfare.counterexample_scenario(1.0, 10)),
            np.zeros((0, 2)), 0),
        ConfigurationError, "scenario index outside the rule support"),
    "liquid-spend-over-budget": (
        lambda: welfare.LiquidWelfareReport(np.zeros(1), np.array([2.0]), np.array([1.0])),
        InvariantViolationError, "agent spend exceeds its budget"),
    "ex-ante-budget-count": (
        lambda: welfare.solve_ex_ante_optimum(
            ValueModel([1.0], [[1.0, 1.0]]), auctions.SingleSlot(), [1.0], 10),
        ConfigurationError, "one budget per agent required"),
    # Past two agents the oracle refuses before building its grid; with
    # none the grid refuses.
    "grid-oracle-no-agents": (
        lambda: welfare.ex_ante_grid_oracle(
            ValueModel([1.0], np.empty((1, 0))), auctions.SingleSlot(), [], 10),
        CapacityError, "at most two agents"),
    "grid-oracle-three-agents": (
        lambda: welfare.ex_ante_grid_oracle(
            ValueModel([1.0], [[1.0] * 3]), auctions.SingleSlot(), [1.0] * 3, 10),
        CapacityError, "at most two agents"),
    "grid-oracle-too-large": (
        lambda: welfare.ex_ante_grid_oracle(
            ValueModel([0.25] * 4, [[0.2], [0.4], [0.6], [0.8]]), auctions.SingleSlot(), [1.0], 10),
        CapacityError, "grid enumeration too large"),
    "counterexample-horizon-0": (
        lambda: welfare.counterexample_scenario(1.0, 0), ConfigurationError,
        "horizon must be positive"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case, capsys):
    call, exc, message = REFUSALS[case]
    if exc is None:  # a command: exit 2 with the message
        assert call() == 2
        assert message in capsys.readouterr().err
        return
    with pytest.raises(exc, match=message):
        call()


EARLY_RETURNS = {
    # name: (call, what it returns)
    "conformance-multiplier-not-starting-at-0": (
        lambda: pacing.check_generalized_pacing([1.0], [0.5], [0.1], [0.5, 0.4], _CFG),
        pacing.ConformanceReport(True, True, False, "multiplier must start at 0")),
    # Unshaded bidding spends 1, within BISECTION_TOL of the target.
    "perfect-multiplier-at-0-within-tolerance": (
        lambda: regret.perfect_multiplier(_ENV, 1 - 5e-10, 4.0), 0.0),
    "regret-of-no-runs": (lambda: regret.dynamic_regret_batch([], _ENV), []),
}


@pytest.mark.parametrize("case", EARLY_RETURNS)
def test_early_returns(case):
    call, want = EARLY_RETURNS[case]
    assert call() == want


def test_an_error_without_a_document_has_no_line():
    with pytest.raises(SchemaError, match="mechanism is required") as err:
        validate_scenario({"agents": []})
    assert err.value.line is None


@pytest.mark.parametrize(
    "series, x_ticks",
    [([], ["0", "0.25", "0.5", "0.75", "1"]),
     ([("one", [3.0], [2.0])], ["3", "3.25", "3.5", "3.75", "4"])],
    ids=["no-points", "one-x"],
)
def test_a_chart_without_an_x_range_spans_one(series, x_ticks, tmp_path):
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, series)
    labels = [line.split(">")[1].split("<")[0] for line in path.read_text().splitlines()
              if 'text-anchor="middle">' in line and "<text" in line]
    assert labels == x_ticks


def test_scripted_agents_are_skipped_by_the_trace_checks():
    # A scripted agent first, then a paced one, whose epochs and stopping
    # bound are all the two checks count.
    config = SimulationConfig(
        second_price(), (ScriptedAgent(budget=1e6, bid=0.3), PacedAgent(budget=80.0)),
        ValueModel([0.5, 0.5], [[0.0, 1.0], [0.0, 0.1]]), horizon=400, seed=3,
    )
    trace = simulation.run_simulation(config)
    assert [r.agent for r in simulation.check_stopping_bound(trace)] == [1]
    (report,) = verify.SUITES["epoch"](1, 0, False, lambda: [trace])
    checked, _violations, _min_slack = simulation.epoch_bound_stats(trace, 1)
    assert report.trials == checked > 0
