"""The lockstep round played a record block at a time: agents that stop on
a block's edges, the bids and opening budgets each trace derives from its
record, and cached outcome kernels that share no state."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacesim import (
    EnvironmentStep,
    PacedAgent,
    Polymatroid,
    ScriptedAgent,
    SimulationConfig,
    ValueModel,
    allocate,
    check_core,
    check_ir,
    check_mbb,
    first_price,
    gsp,
    replicate,
    run_simulation,
    second_price,
    simulate_pacing,
)
from pacesim import simulation
from pacesim.auctions import outcomes
from pacesim.errors import ConfigurationError
from pacesim.pacing import EXHAUSTION_FRACTION, AgentConfig, compute_bid, init_state, update
from pacesim.simulation import _RECORD_ROUNDS

TRACE_FIELDS = ("values", "multipliers", "bids", "allocations", "payments", "remaining_budgets")
DUST_PRICE = 1.0 - 1e-13

# (horizon, round from 0 in which agent 0 stops): the last round of the
# first record block, the first round of the second, and the horizon's
# last round, inside a block and at the end of a full one.
STOPS = [
    (300, _RECORD_ROUNDS - 1),
    (300, _RECORD_ROUNDS),
    (300, 299),
    (2 * _RECORD_ROUNDS, 2 * _RECORD_ROUNDS - 1),
]


def _stop_config(horizon, stop):
    """Agent 0 is paced with a budget of stop + 1 and bids at least 1.2
    until its budget binds: it wins every round, paying the scripted
    opponent's 1.0, until round `stop`, where its last 1.0 of budget meets
    a price of 1 - 1e-13 and leaves dust below the exhaustion threshold.
    Agent 1, paced, bids below 1 and wins against the script's 0.5 only
    once agent 0 has stopped."""
    return SimulationConfig(
        second_price(),
        (
            PacedAgent(budget=stop + 1.0, mu_cap=4.0),
            PacedAgent(budget=horizon / 8, learning_rate=0.05),
            ScriptedAgent(
                budget=1e6, schedule=((stop, 1.0), (stop + 1, DUST_PRICE), (horizon + 1, 0.5))
            ),
        ),
        ValueModel([0.6, 0.4], [[10.0, 0.95, 0.0], [6.0, 0.6, 0.0]]),
        horizon=horizon,
        seed=17,
    )


def _market_replay(config, seed_child):
    """Round-by-round replay through the scalar allocate and the pacing
    state transition, remaining budgets included."""
    T, n = config.horizon, config.n_agents
    rng = np.random.Generator(np.random.Philox(seed_child))
    idx = config.value_model.sample_indices(rng, T)
    states = {
        k: init_state(config.agent_config(k))
        for k, spec in enumerate(config.agents) if isinstance(spec, PacedAgent)
    }
    scripted = {
        k: spec.budget for k, spec in enumerate(config.agents) if isinstance(spec, ScriptedAgent)
    }
    rows = {f: np.zeros((T, n)) for f in TRACE_FIELDS}
    stop_rounds = np.full(n, T + 1)
    for t in range(T):
        values = config.value_model.profiles[idx[t]]
        bids = []
        for k in range(n):
            if k in scripted:
                rows["multipliers"][t, k] = math.nan
                rows["remaining_budgets"][t, k] = scripted[k]
                bids.append(min(config.agents[k].bids_over(T)[t], scripted[k]))
            else:
                state = states[k]
                rows["remaining_budgets"][t, k] = state.remaining_budget
                if stop_rounds[k] <= t + 1:
                    rows["multipliers"][t, k] = math.nan
                    bids.append(0.0)
                else:
                    rows["multipliers"][t, k] = state.multiplier
                    bids.append(compute_bid(state, float(values[k])))
        outcome = allocate(config.mechanism, bids)
        for k in range(n):
            rows["values"][t, k] = values[k]
            rows["bids"][t, k] = bids[k]
            rows["allocations"][t, k] = outcome.allocations[k]
            rows["payments"][t, k] = outcome.payments[k]
            if k in scripted:
                scripted[k] -= outcome.payments[k]
            elif stop_rounds[k] > t + 1:
                states[k] = state = update(states[k], outcome.payments[k])
                if state.remaining_budget < EXHAUSTION_FRACTION * state.config.budget:
                    stop_rounds[k] = t + 2
    return rows, stop_rounds


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("horizon, stop", STOPS, ids=lambda v: str(v))
def test_replicate_stop_on_a_block_edge_matches_one_row_chunks_and_scalar_replay(
    horizon, stop, replicate_one_row
):
    config = _stop_config(horizon, stop)
    chunked = replicate(config, 4)
    single = replicate_one_row(config, 4)
    children = np.random.SeedSequence(config.seed).spawn(4)
    for trace, one, child in zip(chunked, single, children):
        rows, stop_rounds = _market_replay(config, child)
        assert trace.stop_rounds[0] == stop + 2
        assert np.array_equal(trace.stop_rounds, stop_rounds)
        assert np.array_equal(one.stop_rounds, stop_rounds)
        for field in TRACE_FIELDS:
            assert _same_bits(getattr(trace, field), rows[field]), field
            assert _same_bits(getattr(one, field), rows[field]), field
        if stop + 1 < horizon:
            # The dust a stopped agent keeps is its opening budget to the end.
            dust = trace.remaining_budgets[stop + 1 :, 0]
            assert np.all(dust == dust[0]) and 0.0 < dust[0] < 1e-12
            assert np.all(trace.bids[stop + 1 :, 0] == 0.0)
            assert np.any(trace.allocations[stop + 1 :, 1] > 0.0)


# (budget, round from 0 in which agent 0 stops).  Agent 0 bids and pays
# its value of 1 each round, so a block opens with a budget just above the
# threshold plus nb * top (nb = _RECORD_ROUNDS, top = 1) when the stop
# falls in the next block's first round, at or just below it when the stop
# falls in the block's last round, and far below it when the stop falls
# inside the first block.
GATE_EDGES = [
    (256 + 2**-20, 256),
    (256.0, 255),
    (256 - 2**-20, 255),
    (512 + 2**-20, 512),
    (512.0, 511),
    (100.0, 99),
]


@pytest.mark.parametrize("budget, stop", GATE_EDGES, ids=lambda v: str(v))
def test_the_stop_gate_skips_no_stop(budget, stop):
    # mu_cap 0 keeps the multiplier at 0: the bid is the whole value, and
    # first price against a script of 0 charges it in full, dust included.
    config = SimulationConfig(
        first_price(),
        (PacedAgent(budget=budget, mu_cap=0.0), ScriptedAgent(budget=1e6, bid=0.0)),
        ValueModel([1.0], [[1.0, 0.0]]),
        horizon=3 * _RECORD_ROUNDS,
        seed=4,
    )
    for trace, child in zip(replicate(config, 2), np.random.SeedSequence(4).spawn(2)):
        rows, stop_rounds = _market_replay(config, child)
        assert trace.stop_rounds[0] == stop_rounds[0] == stop + 2
        for field in TRACE_FIELDS:
            assert _same_bits(getattr(trace, field), rows[field]), field


_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])


@st.composite
def _random_markets(draw):
    """One to three agents, each paced or scripted (a constant bid or a
    schedule), on budgets small enough that agents run out, under any of
    the three mechanisms, at horizons on and around a record block."""
    horizon = draw(st.sampled_from([0, 1, _RECORD_ROUNDS - 1, _RECORD_ROUNDS, _RECORD_ROUNDS + 1]))
    n = draw(st.integers(1, 3))
    agents = []
    for _ in range(n):
        budget = draw(st.sampled_from([0.3, 2.0, 20.0, 200.0]))
        kind = draw(st.sampled_from(["paced", "bid", "schedule"]))
        if kind == "paced":
            rate = draw(st.sampled_from([None, 0.05, 0.5]))
            agents.append(PacedAgent(budget=budget, learning_rate=rate))
        elif kind == "bid":
            agents.append(ScriptedAgent(budget=budget, bid=draw(_VALUES)))
        else:
            cut = draw(st.integers(1, 300))
            segments = ((cut, draw(_VALUES)), (cut + draw(st.integers(1, 300)), draw(_VALUES)))
            agents.append(ScriptedAgent(budget=budget, schedule=segments))
    support = draw(st.integers(1, 3))
    model = ValueModel(
        [1.0 / support] * support, [[draw(_VALUES) for _ in range(n)] for _ in range(support)]
    )
    mechanism = draw(st.sampled_from([second_price(), first_price(), gsp([1.0, 0.5])]))
    config = SimulationConfig(mechanism, tuple(agents), model, horizon, draw(st.integers(0, 999)))
    return config, None


@st.composite
def _stopping_markets(draw):
    """_stop_config with agent 0 stopping at a drawn round: the first, one
    inside the block, or the horizon's last."""
    horizon = draw(st.sampled_from([_RECORD_ROUNDS - 1, _RECORD_ROUNDS, _RECORD_ROUNDS + 1]))
    stop = draw(st.sampled_from([1, horizon // 2, horizon - 1]) | st.integers(1, horizon - 1))
    config = dataclasses.replace(_stop_config(horizon, stop), seed=draw(st.integers(0, 999)))
    return config, stop


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_random_markets() | _stopping_markets())
def test_derived_bids_and_opening_budgets_match_the_scalar_replay(case):
    config, stop = case
    T, n = config.horizon, config.n_agents
    traces = replicate(config, 3)
    children = np.random.SeedSequence(config.seed).spawn(3)
    for trace, child in zip(traces, children):
        if T:
            rows, stop_rounds = _market_replay(config, child)
        else:  # paced agents have no pacing parameters to replay at horizon 0
            rows, stop_rounds = {f: np.zeros((0, n)) for f in TRACE_FIELDS}, np.ones(n)
        assert np.array_equal(trace.stop_rounds, stop_rounds)
        if stop is not None:
            assert trace.stop_rounds[0] == stop + 2
        for field in TRACE_FIELDS:  # bit for bit: signed zeros and NaNs count
            assert _same_bits(getattr(trace, field), rows[field]), field


def test_derived_fields_are_computed_once_into_arrays_of_their_own(monkeypatch):
    calls = []
    for name in ("_opening_budgets", "_derived_bids"):
        def counted(*args, name=name, derive=getattr(simulation, name)):
            calls.append(name)
            return derive(*args)

        monkeypatch.setattr(simulation, name, counted)
    trace = replicate(_stop_config(300, 100), 2)[1]
    assert calls == []
    bids = trace.bids  # reads the opening budgets too
    assert trace.bids is bids
    assert trace.remaining_budgets is trace.remaining_budgets
    assert sorted(calls) == ["_derived_bids", "_opening_budgets"]
    for array in (trace.bids, trace.remaining_budgets):
        assert array.flags.c_contiguous and array.flags.owndata and array.flags.writeable


def test_replace_carries_the_derived_arrays_it_read():
    trace = run_simulation(_stop_config(300, 100))
    other = dataclasses.replace(trace, payments=np.zeros_like(trace.payments))
    assert other.bids is trace.bids
    assert other.remaining_budgets is trace.remaining_budgets
    # Derived again from no payments, every budget would still be whole.
    assert not np.array_equal(other.remaining_budgets[-1], other.budgets)


def _pacing_envs(horizon, stop):
    """The same construction for simulate_pacing: the agent pays the one
    opponent's 1.0 until round `stop`, where it leaves dust."""
    def env(price):
        return EnvironmentStep(second_price(), [0.6, 0.4], [10.0, 6.0], [[price], [price]])

    return [env(1.0)] * stop + [env(DUST_PRICE)] + [env(0.5)] * (horizon - stop - 1)


def _pacing_replay(envs, budget, learning_rate, mu_cap, seed_child):
    T = len(envs)
    cfg = AgentConfig(budget=budget, horizon=T, learning_rate=learning_rate, mu_cap=mu_cap,
                      value_cap=max(env.value_cap for env in envs))
    rng = np.random.Generator(np.random.Philox(seed_child))
    atom_u = rng.random(T)
    rng.random((T, envs[0].n_opponents))  # the noise draws; eta is 0
    rows = {f: np.zeros(T) for f in ("multipliers", "values", "bids", "allocations", "payments")}
    state, stop_round = init_state(cfg), T + 1
    for t, env in enumerate(envs):
        atom = int(np.searchsorted(np.cumsum(env.probs), atom_u[t], side="right"))
        value = float(env.values[min(atom, env.n_atoms - 1)])
        if stop_round <= t + 1:
            mu, bid = math.nan, 0.0
        else:
            mu, bid = state.multiplier, compute_bid(state, value)
        outcome = allocate(env.mechanism, [bid, float(env.competing_bids[0][0])])
        for f, v in zip(rows, (mu, value, bid, outcome.allocations[0], outcome.payments[0])):
            rows[f][t] = v
        if stop_round > t + 1:
            state = update(state, outcome.payments[0])
            if state.remaining_budget < EXHAUSTION_FRACTION * budget:
                stop_round = t + 2
    return rows, stop_round


@pytest.mark.parametrize("horizon, stop", STOPS, ids=lambda v: str(v))
def test_simulate_pacing_stop_on_a_block_edge_matches_scalar_replay(horizon, stop):
    envs = _pacing_envs(horizon, stop)
    budget, learning_rate, mu_cap = stop + 1.0, 0.05, 4.0
    runs = simulate_pacing(envs, budget, learning_rate, mu_cap, seed=9, replications=3)
    (one,) = simulate_pacing(envs, budget, learning_rate, mu_cap, seed=9, replications=1)
    children = np.random.SeedSequence(9).spawn(3)
    for r, (run, child) in enumerate(zip(runs, children)):
        rows, stop_round = _pacing_replay(envs, budget, learning_rate, mu_cap, child)
        assert run.stop_round == stop_round == stop + 2
        for field, expected in rows.items():
            assert _same_bits(getattr(run, field), expected), (r, field)
            if r == 0:
                assert _same_bits(getattr(one, field), expected), field


def test_the_round_writes_its_own_stop_mask():
    # One paced column that wins every round at the script's second-price
    # 0.5 until its budget of 150 is spent, on round 300 of 600 (in the
    # second of three record blocks), and one scripted column.
    T, budget, learning_rate, mu_cap = 600, 150.0, 0.01, 0.5
    values = np.random.default_rng(3).choice([1.0, 2.0], size=(T, 2, 2))
    values[..., 1] = 0.5  # the scripted column's bid
    game = simulation._Lockstep(
        2, T, second_price(), np.array([True, False]), np.array([budget, 1e6]),
        np.array([learning_rate, np.nan]), np.array([budget / T, np.nan]),
        np.array([mu_cap, np.nan]),
    )
    mus, bids = np.empty((2, T, 2, 2))
    for t0 in range(0, T, _RECORD_ROUNDS):
        t1 = min(t0 + _RECORD_ROUNDS, T)
        game.play(values[t0:t1])
        mus[t0:t1], bids[t0:t1] = game.mus[: t1 - t0], game.b[: t1 - t0]
    cfg = AgentConfig(budget=budget, horizon=T, learning_rate=learning_rate, mu_cap=mu_cap,
                      value_cap=2.0)
    for r in range(2):
        assert game.stop_round[r, 0] == 301 and game.stop_round[r, 1] == T + 1
        assert np.all(np.isnan(mus[:, r, 1]))  # the scripted column, from row 0
        assert np.all(np.isnan(mus[300:, r, 0])) and np.all(bids[300:, r, 0] == 0.0)
        state = init_state(cfg)
        for t in range(300):
            assert _same_bits(mus[t, r, 0], np.float64(state.multiplier)), (r, t)
            bid = compute_bid(state, float(values[t, r, 0]))
            assert bids[t, r, 0] == bid
            state = update(state, allocate(second_price(), [bid, 0.5]).payments[0])
        assert state.stopped and state.round == 301


def _driven_game(T, n=2):
    """Two rows of one paced column and n - 1 scripted ones; with two
    columns the paced one wins every round at the script's second-price
    0.5 until its budget of 150 is spent, on round 300 (in the second
    record block when T > 2 * _RECORD_ROUNDS), and alone it wins for
    nothing.  Returned with the fill rule that gives each block's values,
    the scripted columns holding the script."""
    values = np.random.default_rng(5).choice([1.0, 2.0], size=(T, 2, n))
    values[..., 1:] = 0.5  # the scripted columns' bids
    scripted = np.full(n - 1, np.nan)
    game = simulation._Lockstep(
        2, T, second_price(), np.arange(n) == 0, np.r_[150.0, np.full(n - 1, 1e6)],
        np.r_[0.01, scripted], np.r_[150.0 / T, scripted], np.r_[0.5, scripted],
    )
    return game, lambda t0, t1: values[t0:t1]


def _hand_driven(T, n=2):
    """The (T, rows, n) multipliers, allocations and payments of a play
    loop that copies each block out of the round's buffers itself."""
    game, fill = _driven_game(T, n)
    record = np.empty((3, T, 2, n))
    for t0 in range(0, T, _RECORD_ROUNDS):
        t1 = min(t0 + _RECORD_ROUNDS, T)
        game.play(fill(t0, t1))
        for out, block in zip(record, (game.mus, game.x, game.z)):
            out[t0:t1] = block[: t1 - t0]
    return game, record


def _check_run_copies(T, n):
    """run's copy-out, as raw rows and as one column, against _hand_driven;
    the blocks run asked fill for."""
    reference, expected = _hand_driven(T, n)

    # Per-row arrays of every column, as the market engine records.
    game, fill = _driven_game(T, n)
    blocks = []

    def logged_fill(t0, t1):
        blocks.append((t0, t1))
        return fill(t0, t1)

    per_row = [[np.empty((T, n)) for _ in range(3)] for _ in range(2)]
    game.run(logged_fill, list(enumerate(per_row)), None)
    assert np.array_equal(game.stop_round, reference.stop_round)
    for r, arrays in enumerate(per_row):
        for i, array in enumerate(arrays):
            assert _same_bits(array, expected[i, :, r].copy()), (r, i)

    # Row views of one record of the paced column, as simulate_pacing records.
    game, fill = _driven_game(T, n)
    record = np.empty((3, 2, T))
    game.run(fill, [(slice(None), record)], 0)
    assert np.array_equal(game.stop_round, reference.stop_round)
    for i in range(3):
        assert _same_bits(record[i], expected[i, :, :, 0].T.copy()), i
    return reference, expected, blocks


def test_run_copies_out_what_a_hand_driven_play_loop_does():
    T = 2 * _RECORD_ROUNDS + 1
    reference, expected, blocks = _check_run_copies(T, 2)
    assert np.all(reference.stop_round[:, 0] == 301) and np.all(reference.stop_round[:, 1] == T + 1)
    assert np.all(np.isnan(expected[0, 300:, :, 0])) and not np.isnan(expected[0, 299, :, 0]).any()
    assert blocks == [(0, _RECORD_ROUNDS), (_RECORD_ROUNDS, T - 1), (T - 1, T)]


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("T", [_RECORD_ROUNDS - 1, 2 * _RECORD_ROUNDS + 1])
def test_run_copies_out_raw_rows_of_any_width(T, n):
    # A raw row is one 8 * n-byte item: 8 bytes for one agent, 40 for five.
    reference, expected, blocks = _check_run_copies(T, n)
    assert blocks == [(t0, min(t0 + _RECORD_ROUNDS, T)) for t0 in range(0, T, _RECORD_ROUNDS)]
    stop = 301 if T > 300 and n > 1 else T + 1
    assert np.all(reference.stop_round[:, 0] == stop)
    assert np.all(np.isnan(expected[0, :, :, 0]).sum(axis=0) == T + 1 - stop)
    assert np.isnan(expected[0, :, :, 1:]).all()


_MECHANISMS = [
    first_price(),
    first_price(Polymatroid((0.9, 0.4, 0.2))),
    second_price(),
    gsp([1.0, 0.5]),
    gsp([0.8, 0.6, 0.3, 0.1]),
]


def test_cached_kernels_share_no_state():
    # Calls alternate between mechanisms and row counts, so that each
    # kernel is fetched from the cache between calls of the others; every
    # result must equal the scalar oracle's, byte for byte.
    rng = np.random.default_rng(41)
    cases = []
    for mech, rows, n in itertools.product(_MECHANISMS, (1, 7, 64), (1, 3, 5)):
        bids = np.round(rng.uniform(0, 2, (rows, n)), 1)
        bids[rng.random(bids.shape) < 0.25] = 0.0
        expected = [allocate(mech, row) for row in bids]
        cases.append((mech, bids, np.array([o.allocations for o in expected]),
                      np.array([o.payments for o in expected])))
    for _ in range(3):
        for mech, bids, x_ref, z_ref in cases:
            x, z = outcomes(mech, bids)
            assert x.tobytes() == x_ref.tobytes() and z.tobytes() == z_ref.tobytes()
        for mech, bids, x_ref, z_ref in reversed(cases):
            x, z = outcomes(mech, bids)
            assert x.tobytes() == x_ref.tobytes() and z.tobytes() == z_ref.tobytes()


@pytest.mark.parametrize(
    "mech", _MECHANISMS,
    ids=["first-price", "first-price-polymatroid", "second-price", "gsp-two", "gsp-four"],
)
def test_infinite_bids_are_rejected_by_every_scalar_entry_point(mech):
    inf = math.inf
    bids = [1.0, inf, 0.5]
    with pytest.raises(ConfigurationError):
        allocate(mech, bids)
    with pytest.raises(ConfigurationError):
        check_ir(allocate(mech, [1.0, 0.7, 0.5]), bids)
    with pytest.raises(ConfigurationError):
        check_core(mech, bids, {0, 2}, [0.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        check_mbb(mech, 0, 0.2, 0.4, [inf, 0.5])
    with pytest.raises(ConfigurationError):
        check_mbb(mech, 0, 0.2, inf, [1.0, 0.5])


# (budget, round from 0 in which agent 0's scripted bid of 1 is first
# clamped).  It pays its bid in full each round, so a block opens with a
# budget just above nb * top when the clamp falls in the next block's
# first round, and at or just below it when the clamp falls in the
# block's last round.
CLAMP_EDGES = [
    (256 + 2**-20, 256),
    (256.0, 256),
    (256 - 2**-20, 255),
    (512 + 2**-20, 512),
    (512 - 2**-20, 511),
]


@pytest.mark.parametrize("budget, clamp", CLAMP_EDGES, ids=lambda v: str(v))
def test_the_gate_skips_no_clamp_of_a_scripted_budget(budget, clamp):
    # First price against a paced agent valuing 0.5 (which wins once the
    # script's clamped bid falls below its own): the script pays its bid.
    config = SimulationConfig(
        first_price(),
        (ScriptedAgent(budget=budget, bid=1.0), PacedAgent(budget=1e6)),
        ValueModel([1.0], [[0.0, 0.5]]),
        horizon=3 * _RECORD_ROUNDS,
        seed=6,
    )
    for trace, child in zip(replicate(config, 2), np.random.SeedSequence(6).spawn(2)):
        rows, stop_rounds = _market_replay(config, child)
        assert np.all(trace.payments[:clamp, 0] == 1.0) and trace.payments[clamp, 0] < 1.0
        assert np.array_equal(trace.stop_rounds, stop_rounds)
        for field in TRACE_FIELDS:
            assert _same_bits(getattr(trace, field), rows[field]), field


# (budget, round from 0 from which agent 0's budget state lies between its
# stop threshold and its bid of 1).
PACED_CLAMPS = [
    (256 - 2**-20, 255),
    (256 + 2**-20, 256),
    (512 - 2**-20, 511),
    (100.5, 100),
]


@pytest.mark.parametrize("budget, clamp", PACED_CLAMPS, ids=lambda v: str(v))
def test_a_paced_cell_clamped_above_its_threshold_plays_on(budget, clamp):
    # mu_cap 0 holds agent 0's bid at its value of 1: it ties the script's
    # 1.0 and wins on the lower index, paying 1.0 at second price, until
    # its budget state falls below 1.  From then on it bids that budget,
    # loses, pays nothing and never stops, and the script pays its bid.
    config = SimulationConfig(
        second_price(),
        (PacedAgent(budget=budget, mu_cap=0.0), ScriptedAgent(budget=1e6, bid=1.0)),
        ValueModel([1.0], [[1.0, 0.0]]),
        horizon=3 * _RECORD_ROUNDS,
        seed=8,
    )
    left = budget - clamp
    for trace, child in zip(replicate(config, 2), np.random.SeedSequence(8).spawn(2)):
        rows, stop_rounds = _market_replay(config, child)
        assert trace.stop_rounds[0] == stop_rounds[0] == config.horizon + 1
        assert EXHAUSTION_FRACTION * budget < left < 1.0
        assert np.all(trace.bids[clamp:, 0] == left) and np.all(trace.payments[clamp:, 1] == left)
        assert not trace.allocations[clamp:, 0].any()
        for field in TRACE_FIELDS:
            assert _same_bits(getattr(trace, field), rows[field]), field


NAN_BITS = 0x7FF8000000000000


def test_unpaced_and_stopped_columns_record_numpys_nan():
    # Agent 0 stops in round 100, the scripted agent 2 never plays a
    # multiplier; over three record blocks both are held from block 1 on.
    horizon, stop = 3 * _RECORD_ROUNDS, 100
    for trace in replicate(_stop_config(horizon, stop), 2):
        mus = trace.multipliers.view(np.uint64)
        assert trace.stop_rounds[0] == stop + 2
        assert np.all(mus[:, 2] == NAN_BITS) and np.all(mus[stop + 1 :, 0] == NAN_BITS)
        assert np.isfinite(trace.multipliers[: stop + 1, 0]).all()
    for run in simulate_pacing(_pacing_envs(horizon, stop), stop + 1.0, 0.05, 4.0, replications=2):
        assert run.stop_round == stop + 2
        assert np.all(run.multipliers[stop + 1 :].view(np.uint64) == NAN_BITS)
        assert np.isfinite(run.multipliers[: stop + 1]).all()


def test_the_gate_clamps_only_blocks_near_a_stop_or_a_clamp(monkeypatch):
    # One paced column valuing 1 and paying the script's 0.25 at second
    # price each round from a budget of 300: the first block opens more
    # than 256 above its threshold, the next two do not; a budget of 10^4
    # never comes near.
    calls = []
    fmin = np.fmin
    monkeypatch.setattr(np, "fmin", lambda *args, **kw: calls.append(1) or fmin(*args, **kw))
    T, values = 3 * _RECORD_ROUNDS, np.ones((_RECORD_ROUNDS, 2, 2))
    values[..., 1] = 0.25  # the scripted column's bid
    for budget, clamped in ((300.0, 2 * _RECORD_ROUNDS), (1e4, 0)):
        calls.clear()
        game = simulation._Lockstep(
            2, T, second_price(), np.array([True, False]), np.array([budget, 1e6]),
            np.array([0.01, np.nan]), np.array([0.0, np.nan]), np.array([0.0, np.nan]),
        )
        for _ in range(3):
            game.play(values)
        assert len(calls) == clamped and np.all(game.stop_round == T + 1)
        assert np.all(game.rems[game.closed, :, 0] == budget - 0.25 * T)


def test_the_gates_rounding_factor_covers_a_budget_far_above_its_values():
    # A paced cell with a budget of 1e19 opens its block a few ulps (u =
    # 2**-29 at its threshold of about 1e7) above thresh + nb * top, bidding
    # and paying 0.75 - 2**-30 = (k + 1/2) u a round, k odd: each rem - z is
    # a tie that rounds to the even rem - (k + 1) u, a loss of 0.75, beyond
    # top = 0.75 - 2**-32.  After nb rounds the block has lost 192 and the
    # cell stops in its last round, which the gate sees only through its
    # rounding factor.  The reference plays the same cell beside a second
    # row that opens on its threshold, so that its block always binds.
    nb, u, value = _RECORD_ROUNDS, 2.0**-29, 0.75 - 2.0**-30
    budget = np.array([1e19])
    params = np.array([0.01]), np.array([0.0]), np.array([0.0])  # mu held at 0

    def played(rows):
        game = simulation._Lockstep(rows, 2 * nb, first_price(), np.array([True]), budget, *params)
        thresh = game.thresh[0, 0]
        rem = thresh + 192.0 - 16 * u
        rem -= u * (rem / u % 2)  # an even multiple of u
        game.rems[0] = thresh
        game.rems[0, 0] = rem
        game.play(np.full((nb, rows, 1), value))
        return game, rem - thresh

    game, opening = played(1)
    reference, _ = played(2)
    top = value * (1 + 2**-30)
    assert nb * top <= opening < 192.0  # the gate without its factor skips the block
    assert game.stop_round[0, 0] == reference.stop_round[0, 0] == nb + 1
    for name in ("mus", "rems", "b", "x", "z"):
        assert _same_bits(getattr(game, name)[:, 0], getattr(reference, name)[:, 0]), name


@st.composite
def _gated_markets(draw):
    """_random_markets over two or three record blocks with every budget
    scaled, so that blocks open on both sides of the gate."""
    config, _ = draw(_random_markets())
    scale = draw(st.sampled_from([1.0, 2.0, 4.0, 64.0]))
    return dataclasses.replace(
        config,
        agents=tuple(dataclasses.replace(a, budget=a.budget * scale) for a in config.agents),
        horizon=draw(st.sampled_from([2 * _RECORD_ROUNDS + 1, 3 * _RECORD_ROUNDS])),
    )


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(_gated_markets())
def test_gated_blocks_match_the_scalar_replay(config):
    children = np.random.SeedSequence(config.seed).spawn(2)
    for trace, child in zip(replicate(config, 2), children):
        rows, stop_rounds = _market_replay(config, child)
        assert np.array_equal(trace.stop_rounds, stop_rounds)
        for field in TRACE_FIELDS:
            assert _same_bits(getattr(trace, field), rows[field]), field
