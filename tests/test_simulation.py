"""Market simulation: determinism, trace invariants, epochs, persistence."""

import numpy as np
import pytest

from pacesim import (
    Epoch,
    PacedAgent,
    ScriptedAgent,
    SimulationConfig,
    Trace,
    ValueModel,
    counterexample_scenario,
    extract_epochs,
    first_price,
    gsp,
    load_trace,
    replicate,
    run_simulation,
    save_trace,
    second_price,
    verify_epoch_value_bound,
)
from pacesim.errors import ConfigurationError
from pacesim.simulation import check_stopping_bound


def _contested_config(horizon=400, seed=5, mechanism=None):
    model = ValueModel(
        probs=[0.5, 0.5], profiles=[[1.0, 1.0], [0.6, 0.6]]
    )
    return SimulationConfig(
        mechanism=mechanism or second_price(),
        agents=(PacedAgent(budget=horizon / 4), PacedAgent(budget=horizon / 4)),
        value_model=model,
        horizon=horizon,
        seed=seed,
    )


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_simulation(_contested_config())
        b = run_simulation(_contested_config())
        for field in ("values", "multipliers", "bids", "allocations", "payments"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)

    def test_different_seed_differs(self):
        a = run_simulation(_contested_config(seed=5))
        b = run_simulation(_contested_config(seed=6))
        assert not np.array_equal(a.values, b.values)

    def test_replications_independent_of_chunking_and_workers(self):
        config = _contested_config(horizon=100)
        welfare = lambda t, i: t.payments.sum()
        one = replicate(config, 7, welfare, chunk_size=1)
        big = replicate(config, 7, welfare, chunk_size=7)
        assert one == big


class TestTraceInvariants:
    def test_hand_trace_uncontested(self):
        # Lone bidder against a zero script: wins everything, pays nothing,
        # multiplier pinned at zero by the lower projection.
        model = ValueModel([1.0], [[1.0, 0.0]])
        config = SimulationConfig(
            second_price(),
            (PacedAgent(budget=60.0), ScriptedAgent(budget=1.0, bid=0.0)),
            model,
            horizon=60,
            seed=1,
        )
        trace = run_simulation(config)
        assert np.all(trace.allocations[:, 0] == 1.0)
        assert np.all(trace.payments == 0.0)
        assert np.all(trace.multipliers[:, 0] == 0.0)
        assert np.all(np.isnan(trace.multipliers[:, 1]))

    def test_counterexample_script(self):
        trace = run_simulation(counterexample_scenario(99.0, 500))
        assert np.all(trace.allocations[:, 0] == 1.0)
        assert np.all(trace.payments == 0.0)

    def test_zero_horizon_gives_empty_trace(self):
        config = SimulationConfig(
            second_price(),
            (PacedAgent(budget=5.0), ScriptedAgent(budget=1.0, bid=0.0)),
            ValueModel([1.0], [[1.0, 0.0]]),
            horizon=0,
            seed=0,
        )
        trace = run_simulation(config)
        assert trace.horizon == 0
        assert trace.values.shape == (0, 2)

    @pytest.mark.parametrize(
        "mechanism", [second_price(), first_price(), gsp([1.0, 0.5])]
    )
    def test_ir_budget_and_feasibility(self, mechanism):
        config = _contested_config(horizon=300, mechanism=mechanism)
        trace = run_simulation(config)
        assert np.all(trace.payments <= trace.bids * trace.allocations + 1e-9)
        assert np.all(trace.payments.sum(axis=0) <= trace.budgets + 1e-9)
        for t in range(0, trace.horizon, 17):
            assert mechanism.feasible.contains(trace.allocations[t])

    def test_batch_multipliers_match_scalar_replay(self):
        config = _contested_config(horizon=200)
        trace = run_simulation(config)
        for k in range(2):
            cfg = config.agent_config(k)
            mu = 0.0
            for t in range(trace.horizon):
                if np.isnan(trace.multipliers[t, k]):
                    break
                assert trace.multipliers[t, k] == mu
                z = trace.payments[t, k]
                mu = min(max(mu - cfg.learning_rate * (cfg.target_rate - z), 0.0), cfg.mu_cap)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                second_price(),
                (PacedAgent(budget=1.0),),
                ValueModel([1.0], [[1.0, 2.0]]),
                horizon=5,
                seed=0,
            )


class TestEpochs:
    def _trace_with_multipliers(self, mus, rho=1.0, xv=None, z=None):
        T = len(mus)
        xv = np.ones(T) if xv is None else np.asarray(xv, dtype=np.float64)
        z = np.zeros(T) if z is None else np.asarray(z, dtype=np.float64)
        values = xv.copy()
        return Trace(
            values=values[:, None],
            multipliers=np.asarray(mus, dtype=np.float64)[:, None],
            bids=values[:, None],
            allocations=np.ones((T, 1)),
            payments=z[:, None],
            remaining_budgets=np.full((T, 1), 100.0),
            budgets=np.array([100.0]),
            agent_kinds=("paced",),
            target_rates=np.array([rho]),
            learning_rates=np.array([0.1]),
            mu_caps=np.array([10.0]),
            value_cap=2.0,
            stop_rounds=np.array([T + 1]),
        )

    def test_epoch_extraction_examples(self):
        trace = self._trace_with_multipliers([0.0, 0.0, 0.1, 0.2, 0.0])
        assert extract_epochs(trace, 0) == [Epoch(1, 2, 0), Epoch(2, 5, 0), Epoch(5, 6, 0)]

        trivial = self._trace_with_multipliers([0.0, 0.0, 0.0])
        assert extract_epochs(trivial, 0) == [Epoch(1, 2, 0), Epoch(2, 3, 0), Epoch(3, 4, 0)]

        single = self._trace_with_multipliers([0.0, 0.3, 0.3, 0.2])
        assert extract_epochs(single, 0) == [Epoch(1, 5, 0)]

    def test_scripted_agent_has_no_epochs(self):
        trace = run_simulation(counterexample_scenario(9.0, 20))
        with pytest.raises(ConfigurationError):
            extract_epochs(trace, 0)

    def test_trivial_epoch_slack_is_first_round_spend(self):
        trace = self._trace_with_multipliers([0.0, 0.0], xv=[0.4, 0.4], z=[0.25, 0.0])
        report = verify_epoch_value_bound(trace, 0)
        assert report.passed
        assert report.slacks[0] == pytest.approx(0.25)

    def test_hand_built_epoch_inequality(self):
        # Epoch [1, 3): the first round nets its own value, the second must
        # cover one target-rate round.
        trace = self._trace_with_multipliers(
            [0.0, 0.2, 0.0], rho=1.0, xv=[0.5, 2.0, 1.0], z=[0.5, 2.0, 0.0]
        )
        report = verify_epoch_value_bound(trace, 0)
        assert report.epochs[0] == Epoch(1, 3, 0)
        assert report.checked[0]
        assert report.slacks[0] == pytest.approx(2.5 - (0.5 - 0.5 + 1.0))
        assert report.passed

    def test_simulated_traces_have_zero_epoch_violations(self):
        for mech in (second_price(), first_price(), gsp([1.0, 0.5])):
            for seed in range(3):
                trace = run_simulation(_contested_config(horizon=500, seed=seed, mechanism=mech))
                for k in range(trace.n_agents):
                    report = verify_epoch_value_bound(trace, k)
                    assert not report.violations
                    epochs = extract_epochs(trace, k)
                    # epochs partition the live rounds
                    assert epochs[0].start == 1
                    for a, b in zip(epochs, epochs[1:]):
                        assert a.end == b.start

    def test_stopping_bound_on_simulated_traces(self):
        for seed in range(3):
            trace = run_simulation(_contested_config(horizon=600, seed=seed))
            for report in check_stopping_bound(trace):
                assert report.passed


def _scalar_reference(config):
    """Independent round-by-round simulation through the scalar pacing
    primitives and the mechanism module; the vectorized engine must match
    it bit for bit."""
    from pacesim import allocate, compute_bid, init_state, update
    from pacesim.pacing import EXHAUSTION_FRACTION

    T = config.horizon
    n = config.n_agents
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    idx = config.value_model.sample_indices(rng, T)
    profiles = config.value_model.profiles

    states = {}
    script_remaining = {}
    for k, spec in enumerate(config.agents):
        if isinstance(spec, PacedAgent):
            states[k] = init_state(config.agent_config(k))
        else:
            script_remaining[k] = spec.budget

    rows = {name: np.zeros((T, n)) for name in ("mu", "bid", "x", "z")}
    for t in range(T):
        values = profiles[idx[t]]
        bids = []
        for k, spec in enumerate(config.agents):
            if k in states:
                state = states[k]
                if state.stopped:
                    rows["mu"][t, k] = np.nan
                    bids.append(0.0)
                else:
                    rows["mu"][t, k] = state.multiplier
                    bids.append(compute_bid(state, float(values[k])))
            else:
                rows["mu"][t, k] = np.nan
                bids.append(min(spec.bids_over(T)[t], script_remaining[k]))
        outcome = allocate(config.mechanism, bids)
        for k in range(n):
            rows["bid"][t, k] = bids[k]
            rows["x"][t, k] = outcome.allocations[k]
            rows["z"][t, k] = outcome.payments[k]
            if k in states and not states[k].stopped:
                states[k] = update(states[k], outcome.payments[k])
            elif k in script_remaining:
                script_remaining[k] -= outcome.payments[k]
    return idx, rows


@pytest.mark.parametrize(
    "mechanism", [second_price(), first_price(), gsp([1.0, 0.5])]
)
def test_vectorized_engine_matches_scalar_reference(mechanism):
    model = ValueModel(
        probs=[0.4, 0.35, 0.25],
        profiles=[[1.0, 1.0, 0.3], [0.6, 0.9, 0.8], [0.2, 0.0, 1.0]],
    )
    config = SimulationConfig(
        mechanism,
        (
            PacedAgent(budget=30.0),
            PacedAgent(budget=18.0, learning_rate=0.07, mu_cap=3.0),
            ScriptedAgent(budget=40.0, schedule=((80, 0.5), (150, 0.9))),
        ),
        model,
        horizon=150,
        seed=23,
    )
    trace = run_simulation(config)
    idx, rows = _scalar_reference(config)
    assert np.array_equal(trace.scenario_indices, idx)
    assert np.array_equal(trace.multipliers, rows["mu"], equal_nan=True)
    assert np.array_equal(trace.bids, rows["bid"])
    assert np.array_equal(trace.allocations, rows["x"])
    assert np.array_equal(trace.payments, rows["z"])


class TestPersistence:
    def test_csv_json_round_trip_bit_exact(self, tmp_path):
        trace = run_simulation(_contested_config(horizon=50))
        csv_path = tmp_path / "trace.csv"
        env_path = tmp_path / "trace.json"
        save_trace(trace, csv_path, env_path)
        loaded = load_trace(csv_path, env_path)
        for field in (
            "values",
            "multipliers",
            "bids",
            "allocations",
            "payments",
            "remaining_budgets",
        ):
            assert np.array_equal(getattr(trace, field), getattr(loaded, field), equal_nan=True)
        assert np.array_equal(trace.budgets, loaded.budgets)
        assert np.array_equal(trace.stop_rounds, loaded.stop_rounds)
        assert trace.agent_kinds == loaded.agent_kinds

    def test_seventeen_digit_cells(self, tmp_path):
        trace = run_simulation(_contested_config(horizon=5))
        csv_path = tmp_path / "t.csv"
        save_trace(trace, csv_path)
        body = csv_path.read_text().splitlines()
        assert body[0] == "round,agent,value,multiplier,bid,allocation,payment,remaining_budget"
        assert len(body) == 1 + 5 * 2

    def test_unexpected_columns_rejected(self, tmp_path):
        trace = run_simulation(_contested_config(horizon=3))
        csv_path = tmp_path / "t.csv"
        env_path = tmp_path / "t.json"
        save_trace(trace, csv_path, env_path)
        mangled = csv_path.read_text().replace("payment", "cost")
        csv_path.write_text(mangled)
        with pytest.raises(ConfigurationError):
            load_trace(csv_path, env_path)
