"""Pacing state machine: bid rule, projected update, stopping bound, and
the generalized-pacing conformance checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacesim import (
    AgentConfig,
    ScriptedAgent,
    SimulationConfig,
    ValueModel,
    check_generalized_pacing,
    compute_bid,
    first_price,
    init_state,
    run_simulation,
    update,
)
from pacesim.errors import ConfigurationError, InvariantViolationError, StoppedAgentError
from pacesim.pacing import _stopping_bound, _stopping_rule


def _bound_params(cfg):
    return cfg.learning_rate, cfg.mu_cap, cfg.target_rate, cfg.value_cap


class TestInitAndBid:
    def test_init_state(self):
        cfg = AgentConfig(budget=100, horizon=100)
        state = init_state(cfg)
        assert state.multiplier == 0.0
        assert state.remaining_budget == 100.0
        assert state.round == 1
        assert cfg.target_rate == 1.0

    def test_tiny_target_rate(self):
        cfg = AgentConfig(budget=1, horizon=1000)
        assert init_state(cfg).multiplier == 0.0
        assert cfg.target_rate == 0.001

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            AgentConfig(budget=0, horizon=10)
        with pytest.raises(ConfigurationError):
            AgentConfig(budget=5, horizon=0)

    @pytest.mark.parametrize("kwargs, field", [
        ({"mu_cap": math.nan}, "mu_cap"),
        ({"value_cap": math.nan}, "value_cap"),
        ({"learning_rate": math.nan}, "learning_rate"),
        ({"learning_rate": math.inf}, "learning_rate"),
        ({"horizon": True}, "horizon"),
        ({"horizon": math.nan}, "horizon"),
    ], ids=["nan-mu-cap", "nan-value-cap", "nan-rate", "inf-rate", "bool-horizon",
            "nan-horizon"])
    def test_the_oracle_config_refuses_what_paced_agent_refuses(self, kwargs, field):
        # A NaN mu_cap was accepted and update ran uncapped (min(x, nan) is
        # x); a horizon of True ran as horizon 1.
        with pytest.raises(ConfigurationError, match=field):
            AgentConfig(**{"budget": 10.0, "horizon": 10, **kwargs})

    def test_defaults(self):
        cfg = AgentConfig(budget=25, horizon=100, value_cap=2.0)
        assert cfg.learning_rate == 0.1  # 1/sqrt(100)
        assert cfg.mu_cap == 2.0 / 0.25  # value_cap / target_rate
        assert _stopping_rule(*_bound_params(cfg))

    def test_bid_examples(self):
        cfg = AgentConfig(budget=10, horizon=10, value_cap=2.0)
        state = init_state(cfg)
        assert compute_bid(state, 1.0) == 1.0

        shaded = update(init_state(AgentConfig(budget=10, horizon=10, learning_rate=0.5,
                                               mu_cap=2.0, value_cap=2.0)), 3.0)
        # spend 3 vs rate 1 raises the multiplier to 1
        assert shaded.multiplier == 1.0
        assert compute_bid(shaded, 2.0) == 1.0

        poor = init_state(AgentConfig(budget=0.5, horizon=1, value_cap=2.0))
        assert compute_bid(poor, 2.0) == 0.5

    def test_bid_never_exceeds_value_or_budget(self):
        cfg = AgentConfig(budget=3, horizon=10, value_cap=2.0)
        state = init_state(cfg)
        for _ in range(6):
            bid = compute_bid(state, 1.7)
            assert bid <= 1.7 + 1e-15
            assert bid <= state.remaining_budget
            state = update(state, bid * 0.9)
            if state.stopped:
                break

    def test_stopped_agent_cannot_bid(self):
        cfg = AgentConfig(budget=1.0, horizon=2, value_cap=1.0)
        state = init_state(cfg)
        state = update(state, 1.0)  # exhausts the budget
        assert state.stopped
        with pytest.raises(StoppedAgentError):
            compute_bid(state, 1.0)
        with pytest.raises(StoppedAgentError):
            update(state, 0.0)


class TestUpdate:
    def test_update_arithmetic(self):
        cfg = AgentConfig(budget=10, horizon=10, learning_rate=0.1, mu_cap=5.0)
        # mu 0.5, rate 1, spend 2 -> mu rises to 0.6
        base = init_state(cfg)
        seeded = base.__class__(cfg, 0.5, base.remaining_budget, 1)
        assert update(seeded, 2.0).multiplier == pytest.approx(0.6)

    def test_lower_projection(self):
        cfg = AgentConfig(budget=10, horizon=10, learning_rate=0.1, mu_cap=5.0)
        state = init_state(cfg)
        assert update(state, 0.0).multiplier == 0.0

    def test_upper_projection(self):
        cfg = AgentConfig(budget=50, horizon=10, learning_rate=0.1, mu_cap=2.0)
        base = init_state(cfg)
        pinned = base.__class__(cfg, 2.0, 50.0, 1)
        assert update(pinned, 5.0).multiplier == 2.0

    def test_overspend_is_an_invariant_violation(self):
        cfg = AgentConfig(budget=1.0, horizon=5)
        with pytest.raises(InvariantViolationError):
            update(init_state(cfg), 1.5)

    def test_horizon_elapsed_stops(self):
        cfg = AgentConfig(budget=10, horizon=1)
        state = update(init_state(cfg), 0.0)
        assert state.stopped and state.round == 2


class TestStoppingBound:
    def test_formula(self):
        cfg = AgentConfig(budget=1000, horizon=1000, learning_rate=0.01, mu_cap=9.0,
                          value_cap=10.0)
        assert _stopping_rule(*_bound_params(cfg))
        assert _stopping_bound(*_bound_params(cfg)) == 910

    def test_degenerate(self):
        cfg = AgentConfig(budget=1, horizon=1, learning_rate=1.0, mu_cap=0.0,
                          value_cap=1.0)
        assert _stopping_rule(*_bound_params(cfg))
        assert _stopping_bound(*_bound_params(cfg)) == 1

    def test_hypotheses_enforced(self):
        cfg = AgentConfig(budget=1000, horizon=1000, learning_rate=0.5, mu_cap=9.0,
                          value_cap=10.0)  # eps * v = 5 > 1
        assert not _stopping_rule(*_bound_params(cfg))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.1, 50, allow_nan=False),
    st.integers(2, 200),
    st.floats(0.001, 0.5),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
)
def test_recurrence_replay_is_bit_exact(budget, horizon, eps, spend_fracs):
    cfg = AgentConfig(budget=budget, horizon=horizon, learning_rate=eps)
    state = init_state(cfg)
    multipliers = [state.multiplier]
    spends = []
    for frac in spend_fracs:
        if state.stopped:
            break
        spend = frac * min(state.remaining_budget, 1.0)
        state = update(state, spend)
        spends.append(spend)
        multipliers.append(state.multiplier)
    # replay
    mu = 0.0
    for spend, recorded in zip(spends, multipliers[1:]):
        mu = min(max(mu - cfg.learning_rate * (cfg.target_rate - spend), 0.0), cfg.mu_cap)
        assert mu == recorded


class TestPolicies:
    def test_constant_and_schedule_scripts(self):
        fixed = ScriptedAgent(budget=3.0, bid=2.0)
        assert list(fixed.bids_over(3)) == [2.0, 2.0, 2.0]
        # The engine clamps scripted bids to the remaining budget.
        alone = SimulationConfig(first_price(), (fixed,), ValueModel([1.0], [[0.0]]), 3)
        assert list(run_simulation(alone).bids[:, 0]) == [2.0, 1.0, 0.0]

        sched = ScriptedAgent(budget=1.0, schedule=((2, 1.0), (4, 0.25)))
        assert list(sched.bids_over(5)) == [1.0, 1.0, 0.25, 0.25, 0.25]

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            ScriptedAgent(budget=1.0, schedule=((3, 1.0), (2, 0.5)))

    def test_pacing_policy_records_conformant_trace(self):
        cfg = AgentConfig(budget=5, horizon=20, learning_rate=0.1, value_cap=1.0)
        state = init_state(cfg)
        rng = np.random.default_rng(0)
        values, bids, spends, mus = [], [], [], [state.multiplier]
        for _ in range(20):
            v = float(rng.uniform(0, 1))
            b = 0.0 if state.stopped else compute_bid(state, v)
            z = b * float(rng.random() < 0.5)
            if not state.stopped:
                state = update(state, z)
            values.append(v)
            bids.append(b)
            spends.append(z)
            mus.append(state.multiplier)
        report = check_generalized_pacing(values, bids, spends, mus, cfg)
        assert report.conformant

    def test_conformance_flags_each_violation(self):
        cfg = AgentConfig(budget=10, horizon=4, learning_rate=0.1, value_cap=1.0)
        values = [0.5, 0.5, 0.5, 0.5]
        spends = [0.0, 0.0, 0.0, 0.0]
        good_mus = [0.0]
        mu = 0.0
        for z in spends:
            mu = min(max(mu - 0.1 * (2.5 - z), 0.0), cfg.mu_cap)
            good_mus.append(mu)

        overbid = check_generalized_pacing(values, [0.5, 0.9, 0.5, 0.5], spends, good_mus, cfg)
        assert not overbid.no_overbidding

        shaded = check_generalized_pacing(values, [0.5, 0.4, 0.5, 0.5], spends, good_mus, cfg)
        assert not shaded.no_unnecessary_pacing

        broken = list(good_mus)
        broken[2] += 1e-9
        drifted = check_generalized_pacing(values, [0.5] * 4, spends, broken, cfg)
        assert not drifted.recurrence
