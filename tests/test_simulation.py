"""Market simulation: determinism, trace invariants, epochs, persistence."""

import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from pacesim import (
    PacedAgent,
    Polymatroid,
    ScriptedAgent,
    SimulationConfig,
    Trace,
    ValueModel,
    counterexample_scenario,
    first_price,
    gsp,
    liquid_welfare,
    load_trace,
    replicate,
    run_simulation,
    save_trace,
    second_price,
    verify_epoch_value_bound,
)
from pacesim import simulation
from pacesim.verify import verification_traces
from pacesim.config import validate_scenario
from pacesim.constants import SURE_TOL
from pacesim.errors import ConfigurationError
from pacesim.scenarios import BUNDLED, load_scenario
from pacesim.simulation import TRACE_COLUMNS, check_stopping_bound, epoch_bound_stats

TRACE_FIELDS = ("values", "multipliers", "bids", "allocations", "payments", "remaining_budgets")


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

    def test_replications_independent_of_chunking_and_workers(self, replicate_one_row):
        config = _contested_config(horizon=100)
        welfare = lambda t, i: t.payments.sum()
        one = replicate_one_row(config, 7, welfare)
        big = replicate(config, 7, welfare)  # one chunk of seven rows
        assert one == big

    @pytest.mark.parametrize(
        "replications", [2.5, math.nan, -1, None], ids=["fractional", "nan", "negative", "none"]
    )
    def test_replication_count_must_be_a_non_negative_integer(self, replications):
        with pytest.raises(ConfigurationError, match="replications must be"):
            replicate(_contested_config(horizon=10), replications)

    @pytest.mark.parametrize("field", ["horizon", "seed"])
    def test_a_config_refuses_a_horizon_or_seed_of_none(self, field):
        # A seed of None would otherwise seed the run from OS entropy.
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            dataclasses.replace(_contested_config(), **{field: None})


def _block_edge_config(horizon):
    """Two paced agents (one exhausts its budget partway through) and a
    scheduled scripted opponent."""
    model = ValueModel(
        probs=[0.5, 0.3, 0.2],
        profiles=[[1.0, 0.8, 0.3], [0.6, 0.9, 0.7], [0.2, 0.1, 1.0]],
    )
    return SimulationConfig(
        first_price(),
        (
            PacedAgent(budget=max(horizon, 1) / 4),
            PacedAgent(budget=60.0, learning_rate=0.05, mu_cap=3.0),
            ScriptedAgent(budget=50.0, schedule=((200, 0.5), (400, 0.8))),
        ),
        model,
        horizon=horizon,
        seed=31,
    )


def _array_fields(trace):
    return {
        f.name: getattr(trace, f.name)
        for f in dataclasses.fields(trace)
        if isinstance(getattr(trace, f.name), np.ndarray)
    }


class TestChunking:
    @pytest.mark.parametrize("horizon", [0, 1, 255, 256, 257, 513])
    def test_default_chunk_matches_one_row_chunks(self, horizon, replicate_one_row):
        config = _block_edge_config(horizon)
        chunked = replicate(config, 5)
        single = replicate_one_row(config, 5)
        for a, b in zip(chunked, single):
            _assert_same_trace(a, b)
            assert np.array_equal(a.stop_rounds, b.stop_rounds)
            assert np.array_equal(a.scenario_indices, b.scenario_indices)
        if horizon == 513:
            # Stops land inside the second record block, off its edges.
            stops = np.concatenate([t.stop_rounds[:2] for t in chunked])
            assert np.all((stops > 257) & (stops < 513))

    def test_traces_of_one_chunk_share_no_memory(self):
        traces = replicate(_block_edge_config(300), 4)
        arrays = [
            (r, name, array) for r, trace in enumerate(traces)
            for name, array in _array_fields(trace).items()
        ]
        assert len(arrays) == 4 * 12
        for r, name, array in arrays:
            assert array.flags.c_contiguous and array.flags.writeable, (r, name)
            # Not a view: a kept trace must not keep its whole chunk alive.
            assert array.flags.owndata, (r, name)
        for (r, name, a), (s, other, b) in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b), ((r, name), (s, other))

    def test_memory_budget_sets_the_chunk_rows(self, monkeypatch):
        config = _block_edge_config(100)
        whole = replicate(config, 5)  # one chunk of five rows
        row_bytes = 8 * 6 * 100 * 3
        monkeypatch.setattr(simulation, "_CHUNK_BYTES", 2 * row_bytes + row_bytes // 2)
        sizes = []
        inner = simulation._simulate_chunk

        def spy(cfg, children):
            sizes.append(len(children))
            return inner(cfg, children)

        monkeypatch.setattr(simulation, "_simulate_chunk", spy)
        traces = replicate(config, 5)
        assert sizes == [2, 2, 1]
        for a, b in zip(traces, whole):
            _assert_same_trace(a, b)

    def test_bundled_gsp_five_runs_at_least_64_rows_a_chunk(self):
        config = load_scenario("welfare_gsp_five").config
        assert (config.horizon, config.n_agents) == (10**4, 5)
        assert simulation._chunk_rows(config) >= 64


@pytest.mark.parametrize(
    "probs",
    [
        [1.0],
        [0.3, 0.7],
        [0.0, 0.25, 0.0, 0.5, 0.25, 0.0],  # zero-probability atoms, first and last too
        [0.1] * 10,  # the cdf ends at 0.9999999999999999
        np.random.default_rng(3).dirichlet(np.ones(40)),
    ],
    ids=lambda p: f"{len(p)}-atoms",
)
def test_atom_indices_match_clamped_searchsorted(probs):
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs)
    on = np.concatenate([cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)])
    u = np.concatenate([[0.0], on[on < 1.0], np.random.default_rng(4).random(2000)])
    for shaped in (u, u[:2000].reshape(40, 50)):
        reference = np.minimum(np.searchsorted(cdf, shaped, side="right"), len(probs) - 1)
        got = simulation.atom_indices(probs, shaped)
        assert got.dtype == reference.dtype and got.shape == reference.shape
        assert np.array_equal(got, reference)
    if cdf[-1] < 1.0:  # uniforms past the cdf's end take the last atom
        tail = np.array([cdf[-1], 1 - 2**-53])
        assert np.all(simulation.atom_indices(probs, tail) == len(probs) - 1)


def test_sample_indices_are_the_atom_indices_as_int64():
    model = ValueModel(probs=[0.2, 0.5, 0.3], profiles=[[1.0], [0.5], [0.2]])
    got = model.sample_indices(np.random.default_rng(8), 1000)
    expected = simulation.atom_indices(model.probs, np.random.default_rng(8).random(1000))
    assert got.dtype == np.int64
    assert got.tobytes() == expected.astype(np.int64).tobytes()


class TestReducedChunks:
    def test_derived_values_are_the_profiles_at_the_indices(self):
        config = _block_edge_config(300)
        trace = run_simulation(config)
        assert (trace.horizon, trace.n_agents) == (300, 3)
        assert callable(trace.__dict__["values"])  # the shape did not derive them
        # A copy without indices, made before the first read, still derives
        # them: the indices were captured when the trace was built.
        bare = Trace(**{**trace.__dict__, "scenario_indices": None})
        expected = config.value_model.profiles.take(trace.scenario_indices, axis=0)
        for t in (trace, bare):
            assert t.values.dtype == expected.dtype
            assert t.values.tobytes() == expected.tobytes()
            assert t.values.flags.owndata and t.values.flags.writeable
        assert not np.shares_memory(trace.values, bare.values)

    def test_replicate_lets_go_of_each_reduced_trace(self):
        # Six rows in one chunk; the odd replications' reducer keeps its trace.
        config = _block_edge_config(300)
        assert simulation._chunk_rows(config) >= 6
        refs, kept = [], []

        def reduce(trace, index):
            alive = [ref() is not None for ref in refs]
            refs.append(weakref.ref(trace))
            if index % 2:
                kept.append(trace)
            return alive

        for j, alive in enumerate(replicate(config, 6, reduce)):
            assert alive == [i % 2 == 1 for i in range(j)], j
        assert [ref() is not None for ref in refs] == [False, True] * 3

    def test_reduced_chunk_peak_holds_the_record_not_the_values(self):
        # A chunk holds each row's recorded fields and scenario indices plus
        # the record block; one trace's values at a time come on top, so the
        # peak stays short of the recorded fields plus a chunk of values.
        config = _block_edge_config(2000)
        rows, T, n, B = 16, 2000, 3, simulation._RECORD_ROUNDS
        assert simulation._chunk_rows(config) >= rows
        recorded = 8 * len(simulation._RECORDED) * rows * T * n
        indices = 8 * rows * T
        block = 8 * rows * n * (5 * B + 2 * (B + 1))  # values, b, x, z, scripts; mus, rems
        values_chunk = 8 * rows * T * n

        def reduce(trace, _index):
            return float((trace.allocations * trace.values).sum())

        replicate(config, 1, reduce)  # numpy.random imports some modules on first use
        tracemalloc.start()
        try:
            replicate(config, rows, reduce)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < recorded + indices + block + values_chunk // 2


def _dirty_empty(real_empty):
    """np.empty that hands back garbage, which it is free to do: any read
    of a cell before it is written shows up as a wrong value."""

    def empty(*args, **kwargs):
        array = real_empty(*args, **kwargs)
        array.fill({"f": 7.25e9, "b": True, "i": -12345}.get(array.dtype.kind, 0))
        return array

    return empty


def test_dirty_record_block_matches_one_row_chunks(monkeypatch, replicate_one_row):
    # Five rows over three record blocks: the second and third blocks
    # reuse a buffer full of the first's rounds, the third fills one row
    # of it, and every fresh buffer starts as garbage.
    config = _block_edge_config(513)
    single = replicate_one_row(config, 5)
    monkeypatch.setattr(np, "empty", _dirty_empty(np.empty))
    dirty = replicate(config, 5)
    monkeypatch.undo()
    for a, b in zip(dirty, single):
        _assert_same_trace(a, b)
        assert np.array_equal(a.stop_rounds, b.stop_rounds)
    assert np.all(np.isnan(dirty[0].multipliers[:, 2]))  # the scripted column
    stops = np.concatenate([t.stop_rounds[:2] for t in dirty])
    assert np.all((stops > 257) & (stops < 513))


def test_stopped_agent_with_dust_left_bids_zero():
    # A second-price charge leaves about 1e-13 of a unit budget: below the
    # exhaustion threshold, so the agent stops, and from then on it bids 0
    # although its dust would still buy the now uncontested slot.
    config = SimulationConfig(
        second_price(),
        (PacedAgent(budget=1.0), ScriptedAgent(budget=5.0, schedule=((1, 1.0 - 1e-13), (4, 0.0)))),
        ValueModel([1.0], [[10.0, 1.0]]),
        horizon=4,
    )
    trace = run_simulation(config)
    assert trace.stop_rounds[0] == 2
    assert 0.0 < trace.remaining_budgets[1, 0] < 1e-12
    assert np.all(trace.bids[1:, 0] == 0.0)
    assert np.all(trace.allocations[1:] == 0.0)
    assert np.all(np.isnan(trace.multipliers[1:, 0])) and trace.multipliers[0, 0] == 0.0


@pytest.mark.parametrize(
    "mechanism",
    [second_price(), first_price(), first_price(Polymatroid((1.0, 0.5))), gsp([1.0, 0.5])],
    ids=["second-price", "first-price", "first-price-polymatroid", "gsp"],
)
def test_negative_zero_values_and_bids_give_the_traces_of_positive_zero(mechanism):
    # -0.0 in the value profiles and the scripts must not reach a trace:
    # the auction's payments and allocations would carry its sign.
    def config(zero):
        return SimulationConfig(
            mechanism,
            (
                PacedAgent(budget=20.0),
                ScriptedAgent(budget=20.0, bid=zero),
                ScriptedAgent(budget=20.0, schedule=((7, 0.5), (20, zero))),
            ),
            ValueModel([0.5, 0.5], [[1.0, zero, 0.5], [zero, 0.7, zero]]),
            horizon=40,
            seed=5,
        )

    for signed, plain in zip(replicate(config(-0.0), 2), replicate(config(0.0), 2)):
        for field in TRACE_FIELDS:
            assert getattr(signed, field).tobytes() == getattr(plain, field).tobytes(), field


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        cases = [
            lambda: ValueModel([bad, 1.0], [[1.0], [0.5]]),
            lambda: ValueModel([0.5, 0.5], [[1.0, bad], [0.5, 0.5]]),
            lambda: PacedAgent(budget=bad),
            lambda: PacedAgent(budget=5.0, learning_rate=bad),
            lambda: PacedAgent(budget=5.0, mu_cap=bad),
            lambda: ScriptedAgent(budget=bad, bid=0.5),
            lambda: ScriptedAgent(budget=5.0, bid=bad),
            lambda: ScriptedAgent(budget=5.0, schedule=((10, 0.5), (20, bad))),
        ]
        for make in cases:
            with pytest.raises(ConfigurationError, match="finite|positive"):
                make()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                second_price(),
                (PacedAgent(budget=1.0),),
                ValueModel([1.0], [[1.0, 2.0]]),
                horizon=5,
                seed=0,
            )


def _assert_stats_match_the_report(trace, k):
    # epoch_bound_stats sums only through the last checked epoch, which is
    # every epoch but the last; its figures are the report's, bit for bit.
    report = verify_epoch_value_bound(trace, k)
    n = len(report.starts)
    assert report.checked.tolist() == [True] * (n - 1) + [False] * bool(n)
    checked, violations, min_slack = epoch_bound_stats(trace, k)
    assert (checked, violations) == (report.n_checked, report.n_violations)
    assert type(min_slack) is float
    assert np.float64(min_slack).tobytes() == np.float64(report.min_slack).tobytes()
    return checked, violations, min_slack


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
        def epochs(mus):
            report = verify_epoch_value_bound(self._trace_with_multipliers(mus), 0)
            return report.starts.tolist(), report.ends.tolist()

        assert epochs([0.0, 0.0, 0.1, 0.2, 0.0]) == ([1, 2, 5], [2, 5, 6])
        assert epochs([0.0, 0.0, 0.0]) == ([1, 2, 3], [2, 3, 4])
        assert epochs([0.0, 0.3, 0.3, 0.2]) == ([1], [5])

    def test_scripted_agent_has_no_epochs(self):
        trace = run_simulation(counterexample_scenario(9.0, 20))
        with pytest.raises(ConfigurationError):
            verify_epoch_value_bound(trace, 0)

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
        assert (report.starts[0], report.ends[0]) == (1, 3)
        assert report.checked[0]
        assert report.slacks[0] == pytest.approx(2.5 - (0.5 - 0.5 + 1.0))
        assert report.passed

    def test_simulated_traces_have_zero_epoch_violations(self):
        for mech in (second_price(), first_price(), gsp([1.0, 0.5])):
            for seed in range(3):
                trace = run_simulation(_contested_config(horizon=500, seed=seed, mechanism=mech))
                for k in range(trace.n_agents):
                    report = verify_epoch_value_bound(trace, k)
                    assert report.n_violations == 0
                    # epochs partition the live rounds
                    assert report.starts[0] == 1
                    assert np.array_equal(report.ends[:-1], report.starts[1:])

    def test_stopping_bound_on_simulated_traces(self):
        for seed in range(3):
            trace = run_simulation(_contested_config(horizon=600, seed=seed))
            for report in check_stopping_bound(trace):
                assert report.passed

    @pytest.mark.parametrize(
        "mus, expected",
        [
            ([0.0] * 6, 5),  # every round opens an epoch
            ([0.0, 0.3, 0.3, 0.2], 0),  # one epoch, never checked
            ([0.0, 0.2, 0.0, 0.1, 0.0, 0.4, 0.4], 2),
        ],
        ids=["always-zero", "single-epoch", "mixed"],
    )
    def test_hand_built_multiplier_paths(self, mus, expected):
        rng = np.random.default_rng(len(mus))
        xv, z = rng.uniform(0, 2, len(mus)), rng.uniform(0, 2, len(mus))
        trace = self._trace_with_multipliers(mus, rho=0.7, xv=xv, z=z)
        assert _assert_stats_match_the_report(trace, 0)[0] == expected

    def test_violations_are_counted(self):
        # Epoch [1, 3) collects 0.5 + 0.1 against a need of 0.5 - 0 + 1.0.
        trace = self._trace_with_multipliers([0.0, 0.2, 0.0, 0.0], xv=[0.5, 0.1, 1.0, 1.0])
        assert _assert_stats_match_the_report(trace, 0)[:2] == (2, 1)

    def test_a_stop_inside_an_epoch_leaves_it_unchecked(self):
        mus = [0.0, 0.0, 0.2, 0.3, np.nan, np.nan]
        trace = dataclasses.replace(self._trace_with_multipliers(mus), stop_rounds=np.array([5]))
        assert _assert_stats_match_the_report(trace, 0)[0] == 1

    def test_no_live_round_has_no_epoch(self):
        stopped = self._trace_with_multipliers([np.nan] * 3)
        trace = dataclasses.replace(stopped, stop_rounds=np.array([1]))
        assert len(verify_epoch_value_bound(trace, 0).starts) == 0
        assert _assert_stats_match_the_report(trace, 0) == (0, 0, math.inf)

    def test_a_first_multiplier_that_is_not_zero_is_refused(self):
        trace = self._trace_with_multipliers([0.1, 0.0, 0.0])
        for check in (epoch_bound_stats, verify_epoch_value_bound):
            with pytest.raises(ConfigurationError, match="start at 0"):
                check(trace, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_welfare_suite_at_horizon_2000(self, seed):
        stats = [
            _assert_stats_match_the_report(trace, k)
            for trace in verification_traces(seed)
            for k in range(trace.n_agents)
            if trace.agent_kinds[k] == "paced"
        ]
        assert sum(s[0] for s in stats) > 0 and sum(s[1] for s in stats) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_checked_slacks_match_a_loop_over_rounds(self, seed):
        # Random multiplier paths with runs of zeros, stopped mid-run: the
        # epochs open on the live zero rounds, and each checked epoch
        # [s, e) collects sum x*v over its rounds against a need of
        # v_s*x_s - z_s + rho*(e - s - 1), summed here one round at a time.
        rng = np.random.default_rng(seed)
        T = int(rng.integers(30, 200))
        live = int(rng.integers(1, T + 1))
        mus = np.where(rng.random(T) < 0.4, 0.0, rng.uniform(0.01, 3.0, T))
        mus[0], mus[live:] = 0.0, np.nan
        v, x, z = rng.uniform(0, 2, T), rng.uniform(0, 1, T), rng.uniform(0, 1, T)
        rho = float(rng.uniform(0.1, 1.0))
        trace = dataclasses.replace(
            self._trace_with_multipliers(mus, rho=rho, z=z),
            values=v[:, None],
            allocations=x[:, None],
            stop_rounds=np.array([live + 1]),
        )
        zeros = [t for t in range(1, live + 1) if mus[t - 1] == 0.0]
        slacks = []
        for s, e in zip(zeros, zeros[1:]):
            collected = 0.0
            for t in range(s, e):
                collected += x[t - 1] * v[t - 1]
            slacks.append(collected - (v[s - 1] * x[s - 1] - z[s - 1] + rho * (e - s - 1)))

        report = verify_epoch_value_bound(trace, 0)
        assert report.starts.tolist() == zeros
        assert report.ends.tolist() == zeros[1:] + [live + 1]
        assert math.isnan(report.slacks[-1])
        np.testing.assert_allclose(
            report.slacks[:-1], slacks, rtol=1e-12, atol=1e-12 * float(x @ v)
        )
        assert report.n_checked == len(slacks) and report.n_skipped == 1
        assert report.n_violations == sum(s < -SURE_TOL for s in slacks)
        for field in (report.starts, report.ends, report.slacks):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0
        _assert_stats_match_the_report(trace, 0)


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
        save_trace(trace, csv_path, tmp_path / "t.json")
        body = csv_path.read_text().splitlines()
        assert body[0] == "round,agent,value,multiplier,bid,allocation,payment,remaining_budget"
        assert len(body) == 1 + 5 * 2

    @pytest.mark.parametrize("name", ["welfare_gsp_five", "welfare_symmetric_second_price"])
    def test_envelope_summary_is_liquid_welfare(self, name):
        # One formula: the envelope reports what summary.json, pacesim
        # welfare and the acceptance fixture compute, bit for bit.
        config = dataclasses.replace(load_scenario(name).config, horizon=300)
        for trace in replicate(config, 3):
            report = liquid_welfare(trace)
            assert simulation.trace_envelope(trace)["summary"] == {
                "total_spend": report.spends.tolist(),
                "liquid_value": report.liquid_values.tolist(),
                "liquid_welfare": report.total,
            }

    def test_envelope_is_strict_json(self, tmp_path):
        trace = run_simulation(_contested_config(horizon=5))
        env_path = tmp_path / "t.json"
        doc = {"eta": math.nan, "caps": [math.inf, -math.inf, 1.5]}
        save_trace(trace, tmp_path / "t.csv", env_path, config_doc=doc)

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        envelope = json.loads(env_path.read_text(), parse_constant=refuse)
        assert envelope["config"] == {"eta": None, "caps": [None, None, 1.5]}
        assert load_trace(tmp_path / "t.csv", env_path).horizon == 5

    def test_unexpected_columns_rejected(self, tmp_path):
        trace = run_simulation(_contested_config(horizon=3))
        csv_path = tmp_path / "t.csv"
        env_path = tmp_path / "t.json"
        save_trace(trace, csv_path, env_path)
        mangled = csv_path.read_text().replace("payment", "cost")
        csv_path.write_text(mangled)
        with pytest.raises(ConfigurationError):
            load_trace(csv_path, env_path)

    def test_rows_in_any_order_load(self, tmp_path):
        trace, csv_path, env_path = _saved(tmp_path)
        header, *rows = _lines(csv_path)
        rows.reverse()
        _write_lines(csv_path, [header, rows[3], *rows[:3], *rows[4:]])
        _assert_same_trace(trace, load_trace(csv_path, env_path))

    @pytest.mark.parametrize("keep", [0, 4, 7])
    def test_wrong_row_count_rejected(self, tmp_path, keep):
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        _write_lines(csv_path, lines[: 1 + keep])
        with pytest.raises(ConfigurationError, match=f"{keep} rows, expected 8"):
            load_trace(csv_path, env_path)

    def test_extra_row_rejected(self, tmp_path):
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        _write_lines(csv_path, lines + [lines[1]])
        with pytest.raises(ConfigurationError, match="9 rows, expected 8"):
            load_trace(csv_path, env_path)

    def test_duplicated_pair_rejected(self, tmp_path):
        # Row count is right, but (1, 0) replaces (4, 1): one pair twice, one missing.
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        _write_lines(csv_path, lines[:-1] + [lines[1]])
        message = r"\(1, 0\) appears 2 times; 1 pair\(s\) missing"
        with pytest.raises(ConfigurationError, match=message):
            load_trace(csv_path, env_path)

    @pytest.mark.parametrize("key", ["0,0", "5,0", "1,2", "1,-1", "inf,0"])
    def test_pair_out_of_range_rejected(self, tmp_path, key):
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        lines[3] = key + lines[3][len("2,0") :]
        _write_lines(csv_path, lines)
        with pytest.raises(ConfigurationError, match="data row 3: .* outside 4 rounds x 2 agents"):
            load_trace(csv_path, env_path)

    @pytest.mark.parametrize("key", ["1.5,0", "2,0.5", "nan,0", "2,nan"])
    def test_non_integer_round_or_agent_rejected(self, tmp_path, key):
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        lines[3] = key + lines[3][len("2,0") :]
        _write_lines(csv_path, lines)
        with pytest.raises(ConfigurationError, match="data row 3: round and agent must be"):
            load_trace(csv_path, env_path)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda row: row.replace(",", ",x", 3), "could not convert string 'x1' .* at row"),
            (lambda row: row.rsplit(",", 1)[0] + ",", "could not convert string '' .* at row"),
            (lambda row: row.rsplit(",", 1)[0], "number of columns changed from 8 to 7 at row 2"),
        ],
        ids=["letters", "empty-cell", "short-row"],
    )
    def test_unparseable_cell_rejected(self, tmp_path, mangle, message):
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        lines[2] = mangle(lines[2])
        _write_lines(csv_path, lines)
        with pytest.raises(ConfigurationError, match=message) as err:
            load_trace(csv_path, env_path)
        assert str(csv_path) in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)

    def test_rows_past_the_first_read_block_are_numbered_from_the_file_start(self, tmp_path):
        # 1200 data rows span two read blocks.
        _, csv_path, env_path = _saved(tmp_path, horizon=600)
        lines = _lines(csv_path)
        bad_key = lines.copy()
        bad_key[1100] = "1.5" + bad_key[1100][bad_key[1100].index(",") :]
        _write_lines(csv_path, bad_key)
        with pytest.raises(ConfigurationError, match="data row 1100: round and agent must"):
            load_trace(csv_path, env_path)
        bad_cell = lines.copy()
        bad_cell[1100] = bad_cell[1100] + "x"
        _write_lines(csv_path, bad_cell)
        with pytest.raises(ConfigurationError, match="data rows 1025-1200: could not convert"):
            load_trace(csv_path, env_path)

    @pytest.mark.parametrize(
        "mangle",
        [lambda row: row.replace(",", ",x", 3), lambda row: row.rsplit(",", 1)[0]],
        ids=["letters", "short-row"],
    )
    def test_bad_line_is_named_by_its_data_row(self, tmp_path, mangle):
        # Data row 1100 is the 76th line of the second 1,024-line read block;
        # numpy numbers it 75 (bad cell) or 76 (short row) inside the block.
        _, csv_path, env_path = _saved(tmp_path, horizon=600)
        lines = _lines(csv_path)
        lines[1100] = mangle(lines[1100])
        _write_lines(csv_path, lines)
        with pytest.raises(ConfigurationError, match=r"first bad line: data row 1100\)$"):
            load_trace(csv_path, env_path)

    def test_blank_line_rejected(self, tmp_path):
        _, csv_path, env_path = _saved(tmp_path)
        lines = _lines(csv_path)
        _write_lines(csv_path, lines[:3] + [""] + lines[3:])
        with pytest.raises(ConfigurationError, match="data rows 1-9: blank line"):
            load_trace(csv_path, env_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda env: env.update(horizon=-1), "non-negative integer, got -1"),
            (lambda env: env.update(horizon=2.5), "non-negative integer, got 2.5"),
            (lambda env: env.update(horizon="4"), "non-negative integer, got '4'"),
            (lambda env: env["agents"][1].pop("stop_round"), "agent 1 has no stop_round"),
            (lambda env: env["agents"][0].pop("kind"), "agent 0 has no kind"),
            (lambda env: env["agents"][1].pop("budget"), "agent 1 has no budget"),
            (lambda env: env.update(agents={}), "agents must be a list"),
            (lambda env: env.pop("value_cap"), "not a trace envelope"),
            (lambda env: env.update(value_cap="1.0"), "value_cap must be a finite number"),
            (lambda env: env.update(value_cap=math.inf), "value_cap must be a finite number"),
            (lambda env: env.update(value_cap=None), "value_cap must be a finite number"),
            (lambda env: env["agents"][0].update(kind=7), "agent 0: kind must be 'paced' or"),
            (lambda env: env["agents"][1].update(budget="abc"), "agent 1: budget must be a number"),
            (lambda env: env["agents"][0].update(mu_cap=[1.0]), "agent 0: mu_cap must be a number"),
            (lambda env: env["agents"][1].update(learning_rate=True), "learning_rate must be a"),
            (lambda env: env["agents"][0].update(stop_round=2.5), "integer in 1..5, got 2.5"),
            (lambda env: env["agents"][0].update(stop_round=None), "integer in 1..5, got None"),
            (lambda env: env["agents"][0].update(stop_round=True), "integer in 1..5, got True"),
            (lambda env: env["agents"][1].update(stop_round=0), "in 1..5, got 0"),
            (lambda env: env["agents"][1].update(stop_round=6), "in 1..5, got 6"),
        ],
        ids=["negative-horizon", "fractional-horizon", "string-horizon",
             "no-stop-round", "no-kind", "no-budget", "agents-not-a-list", "no-value-cap",
             "string-value-cap", "infinite-value-cap", "null-value-cap", "numeric-kind",
             "string-budget", "list-mu-cap", "bool-learning-rate", "fractional-stop-round",
             "null-stop-round", "bool-stop-round", "zero-stop-round", "late-stop-round"],
    )
    def test_bad_envelope_rejected(self, tmp_path, edit, message):
        _, csv_path, env_path = _saved(tmp_path)
        env = json.loads(env_path.read_text())
        edit(env)
        env_path.write_text(json.dumps(env))
        with pytest.raises(ConfigurationError, match=message) as err:
            load_trace(csv_path, env_path)
        assert str(err.value).startswith(f"{env_path}: ")

    def test_envelope_that_is_not_json_rejected(self, tmp_path):
        _, csv_path, env_path = _saved(tmp_path)
        env_path.write_text('{"horizon": 4,')
        with pytest.raises(ConfigurationError, match="invalid JSON") as err:
            load_trace(csv_path, env_path)
        assert str(err.value).startswith(f"{env_path}: ")

    def test_wrong_cells_per_row_rejected(self, tmp_path):
        _, csv_path, env_path = _saved(tmp_path)
        header, *rows = _lines(csv_path)
        _write_lines(csv_path, [header] + [row + ",0" for row in rows])
        with pytest.raises(ConfigurationError, match="9 cells per row, expected 8"):
            load_trace(csv_path, env_path)


def _saved(tmp_path, horizon=4):
    trace = run_simulation(_contested_config(horizon=horizon))
    csv_path = tmp_path / "t.csv"
    env_path = tmp_path / "t.json"
    save_trace(trace, csv_path, env_path)
    return trace, csv_path, env_path


def _lines(csv_path) -> list[str]:
    return csv_path.read_bytes().decode().split("\r\n")[:-1]


def _write_lines(csv_path, lines) -> None:
    csv_path.write_bytes("".join(line + "\r\n" for line in lines).encode())


def _assert_same_trace(a, b):
    for field in TRACE_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), field


def _reference_csv(trace) -> bytes:
    """The row-at-a-time writer save_trace replaced: csv.writer rows of
    format(x, ".17g") cells.  save_trace must produce the same bytes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for t in range(trace.horizon):
        for k in range(trace.n_agents):
            writer.writerow(
                [t + 1, k] + [format(float(getattr(trace, f)[t, k]), ".17g") for f in TRACE_FIELDS]
            )
    return buf.getvalue().encode()


def _short_bundled_trace(name, horizon, seed):
    """A bundled scenario cut to `horizon` rounds, budgets scaled with it."""
    doc = copy.deepcopy(load_scenario(name).doc)
    for agent in doc["agents"]:
        agent["budget"] *= horizon / doc["horizon"]
    doc.update(horizon=horizon, seed=seed)
    return run_simulation(validate_scenario(doc).config)


def _special_values_trace():
    trace = run_simulation(_contested_config(horizon=6))
    # Columns the envelope does not sum, so inf - inf raises no warning there.
    planted = {
        "bids": [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308],
        "remaining_budgets": [0.1, 1 / 3, 2.0**-1074 * 3, -2.5e-310, 1e16 + 2, 123456789.0],
    }
    arrays = {}
    for field, cells in planted.items():
        array = getattr(trace, field).copy()
        array[:, 1] = cells
        arrays[field] = array
    return dataclasses.replace(trace, **arrays)


_GOLDEN_CASES = [
    *(
        pytest.param(
            lambda n=name, s=seed: _short_bundled_trace(n, 300, s), id=f"{name}-seed{seed}"
        )
        for name in BUNDLED
        for seed in (11, 12)
    ),
    pytest.param(
        lambda: run_simulation(
            SimulationConfig(
                gsp((1.0, 0.5)),
                (
                    PacedAgent(budget=40.0),
                    ScriptedAgent(budget=30.0, schedule=((50, 0.9), (120, 0.3))),
                    ScriptedAgent(budget=5.0, bid=0.7),
                ),
                ValueModel([0.3, 0.7], [[1.0, 0.8, 0.2], [0.4, 0.9, 0.6]]),
                horizon=150,
                seed=3,
            )
        ),
        id="scripted-opponents",
    ),
    pytest.param(_special_values_trace, id="special-values"),
]


@pytest.mark.parametrize("make_trace", _GOLDEN_CASES)
def test_save_trace_bytes_match_reference_writer(tmp_path, make_trace):
    trace = make_trace()
    csv_path = tmp_path / "t.csv"
    env_path = tmp_path / "t.json"
    save_trace(trace, csv_path, env_path)
    assert csv_path.read_bytes() == _reference_csv(trace)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_trace(csv_path, env_path)
    _assert_same_trace(trace, loaded)


def test_horizon_zero_round_trips_to_empty_arrays(tmp_path):
    trace = run_simulation(dataclasses.replace(_contested_config(horizon=4), horizon=0))
    csv_path = tmp_path / "t.csv"
    env_path = tmp_path / "t.json"
    save_trace(trace, csv_path, env_path)
    assert csv_path.read_bytes() == _reference_csv(trace)
    assert csv_path.read_bytes().count(b"\r\n") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_trace(csv_path, env_path)
    for field in TRACE_FIELDS:
        assert getattr(loaded, field).shape == (0, 2)
