"""Scenario-file validation and the command-line surface: schemas, dotted
overrides, exit codes, and byte-identical outputs across chunk sizes."""

import contextlib
import io
import json
import os
import re
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacesim.cli import EXIT_INTERNAL, main
from pacesim.config import SchemaError, _line_of, apply_overrides, parse_scenario
from pacesim.errors import IterationLimitError, UnboundedError
from pacesim.scenarios import (
    BUNDLED,
    WELFARE_SUITE,
    load_scenario,
    regret_environment,
    scenario_text,
)
from pacesim import cli, simulate_pacing, simulation, verify
from pacesim.simulation import PacedAgent, ScriptedAgent

GOOD = """{
  "mechanism": {"type": "second_price"},
  "agents": [
    {"budget": 25.0},
    {"budget": 10.0, "script": {"bid": 0.5}}
  ],
  "value_model": {"support": [
    {"prob": 0.5, "values": [1.0, 0.0]},
    {"prob": 0.5, "values": [0.5, 0.5]}
  ]},
  "horizon": 100,
  "seed": 4,
  "replications": 3
}"""


class TestSchema:
    def test_valid_scenario(self):
        scenario = parse_scenario(GOOD)
        assert scenario.config.horizon == 100
        assert scenario.replications == 3
        assert isinstance(scenario.config.agents[0], PacedAgent)
        assert isinstance(scenario.config.agents[1], ScriptedAgent)

    def test_unknown_key_rejected_with_line(self):
        bad = GOOD.replace('"seed": 4,', '"seed": 4,\n  "extra_knob": 1,')
        with pytest.raises(SchemaError) as err:
            parse_scenario(bad)
        assert "extra_knob" in str(err.value)
        assert err.value.line is not None

    def test_probabilities_must_sum_to_one(self):
        bad = GOOD.replace('"prob": 0.5, "values": [1.0, 0.0]',
                           '"prob": 0.4, "values": [1.0, 0.0]')
        with pytest.raises(SchemaError) as err:
            parse_scenario(bad)
        assert "sum" in str(err.value)

    def test_value_dimension_checked(self):
        bad = GOOD.replace('"values": [0.5, 0.5]', '"values": [0.5]')
        with pytest.raises(SchemaError):
            parse_scenario(bad)

    def test_gsp_needs_click_rates(self):
        bad = GOOD.replace('{"type": "second_price"}', '{"type": "gsp"}')
        with pytest.raises(SchemaError):
            parse_scenario(bad)

    def test_invalid_json_carries_line(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario("{\n  broken\n}")
        assert err.value.line == 2

    def test_overrides(self):
        doc = json.loads(GOOD)
        apply_overrides(doc, ["agents.0.budget=50", "horizon=10"])
        assert doc["agents"][0]["budget"] == 50
        assert doc["horizon"] == 10
        with pytest.raises(SchemaError):
            apply_overrides(doc, ["agents.7.budget=1"])
        with pytest.raises(SchemaError):
            apply_overrides(doc, ["no_such_key=1"])
        with pytest.raises(SchemaError, match="override path 'mechanism.type.0' not found at '0'"):
            apply_overrides(doc, ["mechanism.type.0=x"])  # a string has no members


class TestBundled:
    def test_all_bundled_scenarios_parse(self):
        for name in BUNDLED:
            scenario = load_scenario(name)
            assert scenario.config.horizon > 0

    def test_regret_environment_reconstruction(self):
        scenario = load_scenario("regret_first_price_uniform")
        agent, envs, params = regret_environment(scenario)
        assert agent == 0
        assert len(envs) == scenario.config.horizon
        assert envs[0] is envs[-1]  # time-invariant: one shared environment
        assert params["target_rate"] == pytest.approx(0.25)

    def test_switching_scenario_has_two_segments(self):
        scenario = load_scenario("regret_switching")
        _agent, envs, _params = regret_environment(scenario)
        distinct = {id(e) for e in envs}
        assert len(distinct) == 2


class TestCliExitCodes:
    def test_run_ok_and_outputs(self, tmp_path):
        out = tmp_path / "runout"
        code = main(["run", "counterexample", "-o", str(out), "-R", "2"])
        assert code == 0
        assert (out / "trace_0001.csv").exists()
        assert (out / "trace_0002.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["welfare_mean"] == pytest.approx(10.0)

    def test_run_zero_horizon(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(GOOD.replace('"horizon": 100', '"horizon": 0'))
        out = tmp_path / "zout"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["welfare_mean"] == 0.0
        assert summary["per_agent"][0]["spend_mean"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "welfare_contested_paced_pair", "--summary-only"],
            ["welfare", "welfare_contested_paced_pair"],
            ["regret", "regret_first_price_uniform"],
        ],
        ids=["run", "welfare", "regret"],
    )
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_replications_below_one_exit_2(self, tmp_path, capsys, argv, reps):
        # Small horizon, so a run that wrongly falls back to the default is quick.
        code = main(argv + ["-R", reps, "--set", "horizon=50", "-o", str(tmp_path / "out")])
        assert code == 2
        assert f"-R/--replications must be at least 1, got {reps}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_welfare_zero_horizon_exits_2(self, capsys):
        code = main(["welfare", "welfare_symmetric_second_price", "-R", "2", "--set", "horizon=0"])
        assert code == 2
        assert "horizon of at least 1, got 0" in capsys.readouterr().err

    def test_welfare_zero_horizon_exits_2_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("ran work for a horizon the bound cannot use")

        monkeypatch.setattr("pacesim.cli.replicate", refuse)
        monkeypatch.setattr("pacesim.cli.solve_ex_ante_optimum", refuse)
        code = main(["welfare", "welfare_symmetric_second_price", "-R", "2", "--set", "horizon=0"])
        assert code == 2
        assert "horizon of at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "value_model.support.0.values.0=NaN",
            "value_model.support.1.prob=NaN",
            "agents.0.budget=Infinity",
            "agents.1.budget=-Infinity",
            "horizon=Infinity",
            "horizon=NaN",
            "seed=NaN",
        ],
    )
    def test_non_finite_override_exits_2(self, capsys, override):
        code = main(["welfare", "welfare_symmetric_second_price", "-R", "2",
                     "--set", "horizon=200", "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: welfare_symmetric_second_price:")
        assert "finite" in err

    @pytest.mark.parametrize(
        "old, new",
        [
            ('{"budget": 25.0}', '{"budget": 25.0, "learning_rate": NaN}'),
            ('{"budget": 25.0}', '{"budget": 25.0, "mu_cap": Infinity}'),
            ('{"bid": 0.5}', '{"bid": NaN}'),
            ('{"bid": 0.5}', '{"schedule": [[50, 0.5], [100, Infinity]]}'),
            ('{"bid": 0.5}', '{"schedule": [[Infinity, 0.5]]}'),
        ],
        ids=["learning-rate", "mu-cap", "scripted-bid", "schedule-bid", "schedule-round"],
    )
    def test_non_finite_agent_field_exits_2(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "bad.json"
        cfg.write_text(GOOD.replace(old, new))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
        assert f"error: {cfg}:" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(GOOD.replace('"prob": 0.5, "values": [0.5, 0.5]',
                                    '"prob": 0.4, "values": [0.5, 0.5]'))
        assert main(["run", str(cfg), "-o", str(tmp_path / "x")]) == 2

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "-o", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "args",
        [
            "run welfare_symmetric_second_price -R 2 --summary-only -o {file}/out",
            "run welfare_symmetric_second_price -R 2 --set horizon=50 -o {tmp}/traces",
            "run welfare_symmetric_second_price -R 2 --summary-only -o {tmp}/summary",
            "welfare {welfare} -o {missing}/w.json",
            "welfare {welfare} --rule-csv {missing}/rule.csv",
            "regret {regret} -o {missing}/r.json",
            "regret {regret} --curves {missing}/curves.csv",
            "regret {regret} --svg {missing}/path.svg",
            "verify gsp-core --trials 10 -o {missing}/v.json",
            "counterexample --horizon 10 -o {missing}/c.json",
            "run {tmp} -o {tmp}/out",
        ],
        ids=["run-out", "run-trace-files", "run-summary", "welfare-out", "welfare-rule-csv",
             "regret-out", "regret-curves", "regret-svg", "verify-out", "counterexample-out",
             "config-is-a-directory"],
    )
    def test_every_unreadable_or_unwritable_file_exits_3(self, tmp_path, capsys, args):
        # The first trace file and summary.json are directories, so opening
        # them for writing fails; {file} is a regular file, {missing} absent.
        (tmp_path / "traces" / "trace_0001.csv").mkdir(parents=True)
        (tmp_path / "summary" / "summary.json").mkdir(parents=True)
        (tmp_path / "file").write_text("")
        fast = "-R 2 --set horizon=50"
        argv = args.format(
            tmp=tmp_path, file=tmp_path / "file", missing=tmp_path / "missing",
            welfare=f"welfare_symmetric_second_price {fast}",
            regret=f"regret_first_price_uniform {fast}",
        ).split()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err

    @pytest.mark.parametrize("mu_cap", ["nan", "inf", "-1"])
    def test_counterexample_bad_mu_cap_exits_2(self, capsys, mu_cap):
        assert main(["counterexample", f"--mu-cap={mu_cap}", "--horizon", "10"]) == 2
        assert "mu_cap must be finite and non-negative" in capsys.readouterr().err

    def test_capacity_exits_4(self, tmp_path):
        # 420 support points x 12 agents x 2 slots = 10,080 share columns.
        agents = ",\n".join('{"budget": 10.0}' for _ in range(12))
        support = ",\n".join(
            '{"prob": %r, "values": [%s]}' % (1 / 420, ",".join(["0.5"] * 12))
            for _ in range(420)
        )
        doc = """{
          "mechanism": {"type": "gsp", "click_rates": [1.0, 0.5]},
          "agents": [%s],
          "value_model": {"support": [%s]},
          "horizon": 100
        }""" % (agents, support)
        cfg = tmp_path / "big.json"
        cfg.write_text(doc)
        assert main(["welfare", str(cfg), "-R", "2"]) == 4

    def test_regret_two_paced_agents_exits_5(self, tmp_path):
        cfg = tmp_path / "two.json"
        cfg.write_text(GOOD.replace('{"budget": 10.0, "script": {"bid": 0.5}}',
                                    '{"budget": 10.0}'))
        assert main(["regret", str(cfg)]) == 5

    def test_verify_unknown_suite_exits_2(self):
        assert main(["verify", "no-such-suite"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_trials_below_one_exit_2(self, capsys, trials):
        assert main(["verify", "concentration", "--trials", trials]) == 2
        assert f"--trials must be at least 1, got {trials}" in capsys.readouterr().err

    def test_verify_suite_table_is_shared_with_cli_in_verify_all_order(self):
        # The benchmark's tracer wraps the entries of cli._SUITES in place,
        # and its certify workload runs one operation per entry, in order.
        assert cli._SUITES is verify.SUITES
        assert list(verify.SUITES) == [
            "concentration", "sgd", "lipschitz-integral", "gsp-core", "mbb-core", "epoch",
            "stopping",
        ]

    @pytest.mark.parametrize(
        "suite", [s for s in verify.SUITES if s not in verify.WITHOUT_CONTROL]
    )
    def test_verify_negative_control_exits_1(self, suite):
        assert main(["verify", suite, "--negative"]) == 1

    def test_verify_all_negative_runs_only_the_negative_controls(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify, "replicate", lambda *a, **k: pytest.fail("simulated traces"))
        out = tmp_path / "negative.json"
        assert main(["verify", "all", "--negative", "-o", str(out)]) == 1
        checkers = {r["checker"] for r in json.loads(out.read_text())}
        assert {"gsp_core_negative", "ir_fuzz[gsp]"} <= checkers
        assert not checkers & {"epoch_value_bound", "stopping_bound"}

    @pytest.mark.parametrize("suite", verify.WITHOUT_CONTROL)
    def test_verify_negative_without_a_control_exits_2(self, capsys, suite):
        assert main(["verify", suite, "--negative"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has no negative control" in captured.err

    def test_verify_negative_seed_exits_2(self, capsys):
        assert main(["verify", "concentration", "--trials", "10", "--seed", "-1"]) == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err

    def test_verify_mbb_core_negative_control_fails_ir(self, capsys):
        # The fuzz over an overcharging kernel: IR fails for every kind.
        assert main(["verify", "mbb-core", "--negative"]) == 1
        out = capsys.readouterr().out
        for kind in ("first_price", "second_price", "gsp"):
            assert f"[FAIL] ir_fuzz[{kind}]" in out

    def test_verify_gsp_core_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "gsp-core", "--trials", "200", "-o", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert all(set(r) >= {"checker", "trials", "statistic", "bound", "pass"}
                   for r in reports)

    def test_regret_zero_horizon_exits_2_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated for a horizon the budgets cannot be scaled to")

        monkeypatch.setattr("pacesim.cli.simulate_pacing", refuse)
        code = main(["regret", "regret_first_price_uniform", "--set", "horizon=0", "-R", "2"])
        assert code == 2
        assert "regret needs a horizon of at least 1, got 0" in capsys.readouterr().err

    def test_regret_repeated_horizon_exits_2_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated although no exponent can be fitted")

        monkeypatch.setattr("pacesim.cli.simulate_pacing", refuse)
        code = main(["regret", "regret_first_price_uniform", "--horizons", "200,200", "-R", "2"])
        assert code == 2
        assert "--horizons repeats a horizon: '200,200'" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [UnboundedError, IterationLimitError])
    def test_lp_failure_exits_internal(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error("solver fault")

        monkeypatch.setattr("pacesim.welfare.solve_lp_max", fail)
        code = main(["welfare", "welfare_symmetric_second_price", "-R", "2",
                     "--set", "horizon=50"])
        assert code == EXIT_INTERNAL == 6
        assert f"internal error: {error.__name__}: solver fault" in capsys.readouterr().err

    def test_invariant_violation_exits_internal(self, monkeypatch, capsys):
        # A fuzz generator that draws an infeasible deviation is a bug in
        # the checker, not a failed bound.
        monkeypatch.setattr(
            "pacesim.verify._feasible_deviations",
            lambda rng, feasible, rows, n: np.full((rows, n), 2.0),
        )
        assert main(["verify", "mbb-core", "--trials", "10"]) == EXIT_INTERNAL
        assert "InvariantViolationError" in capsys.readouterr().err

    def test_uncaught_exception_exits_internal_with_traceback(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr("pacesim.cli.counterexample_report", crash)
        assert main(["counterexample", "--horizon", "10"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "ZeroDivisionError: boom" in err

    def test_mbb_core_trials_capped_at_100k(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            "pacesim.verify.fuzz_mechanisms", lambda instances, seed: seen.append(instances) or []
        )
        main(["verify", "mbb-core"])
        main(["verify", "mbb-core", "--trials", "1000000"])
        main(["verify", "mbb-core", "--trials", "300"])
        assert seen == [100_000, 100_000, 300]

    def test_concentration_trials_capped_at_100k(self, monkeypatch):
        # Each check holds three float arrays of --trials entries.
        seen = []
        monkeypatch.setattr(
            "pacesim.verify.concentration_check",
            lambda setup, theta, trials, seed: seen.append(trials)
            or verify.CheckReport("concentration", trials, 0.0, 1.0, True),
        )
        main(["verify", "concentration"])
        main(["verify", "concentration", "--trials", "1000000"])
        main(["verify", "concentration", "--trials", "300", "--negative"])
        main(["verify", "concentration", "--trials", "1000000", "--negative"])
        assert seen == [100_000] * 3 + [100_000] * 3 + [300, 100_000]

    def test_verify_simulates_the_verification_traces_once(self, monkeypatch, tmp_path):
        calls = []
        real = verify.replicate
        monkeypatch.setattr(
            verify, "replicate", lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs)
        )
        assert main(["verify", "epoch", "stopping", "-o", str(tmp_path / "a.json")]) == 0
        assert len(calls) == len(WELFARE_SUITE) == 5
        # A second invocation in the same process simulates afresh.
        assert main(["verify", "stopping", "-o", str(tmp_path / "b.json")]) == 0
        assert len(calls) == 10
        both = json.loads((tmp_path / "a.json").read_text())
        assert json.loads((tmp_path / "b.json").read_text()) == both[1:]

    def test_counterexample_json(self, tmp_path):
        out = tmp_path / "cex.json"
        assert main(["counterexample", "--horizon", "100", "-o", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["ratio"] for r in rows] == [0.5, 0.1, 0.01]


class TestDeterministicOutputs:
    def test_run_output_byte_identical_across_chunk_sizes(self, tmp_path, monkeypatch):
        # One default chunk of six rows, then six one-row chunks: every saved
        # trace, envelope and the summary must match byte for byte.
        sizes = []
        inner = simulation._simulate_chunk

        def spy(config, children):
            sizes.append(len(children))
            return inner(config, children)

        monkeypatch.setattr(simulation, "_simulate_chunk", spy)
        outs = []
        for sub in ("default", "one_row"):
            if sub == "one_row":
                monkeypatch.setattr(simulation, "_CHUNK_BYTES", 1)
            out = tmp_path / sub
            assert main(["run", "welfare_symmetric_second_price", "-o", str(out),
                         "-R", "6", "--set", "horizon=200",
                         "--set", "agents.0.budget=50",
                         "--set", "agents.1.budget=50"]) == 0
            outs.append(out)
        assert sizes == [6] + [1] * 6
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and len(names) == 13
        for name in names:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs across chunk sizes"

    def test_regret_cli_switching_scenario(self, tmp_path):
        out = tmp_path / "sw.json"
        curves = tmp_path / "sw_curves.csv"
        code = main(["regret", "regret_switching", "-R", "4",
                     "-o", str(out), "--curves", str(curves)])
        assert code == 0
        payload = json.loads(out.read_text())
        entry = payload["per_horizon"][0]
        assert entry["path_length"] > 0  # the opponent switch moves the target
        segments = {line.split(",")[0] for line in curves.read_text().splitlines()[1:]}
        assert segments == {"0", "1"}

    def test_regret_cli_report(self, tmp_path):
        out = tmp_path / "reg.json"
        svg = tmp_path / "mu.svg"
        curves = tmp_path / "curves.csv"
        code = main(["regret", "regret_first_price_uniform", "-R", "4",
                     "-o", str(out), "--svg", str(svg), "--curves", str(curves)])
        assert code == 0
        payload = json.loads(out.read_text())
        entry = payload["per_horizon"][0]
        assert entry["path_length"] == 0.0
        assert entry["sgd_regret_mean"] <= entry["sgd_bound"]
        assert svg.read_text().startswith("<svg")
        header = curves.read_text().splitlines()[0]
        assert header == "segment,mu,Z,V,H,W"


def test_regret_lets_go_of_each_horizons_runs_before_the_next(tmp_path, monkeypatch):
    # A weak reference to each horizon's first run and to the record it is
    # a row of; the next horizon may not start while either is alive.
    refs, alive = [], []

    def spy(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        runs = simulate_pacing(*args, **kwargs)
        refs.extend([weakref.ref(runs[0]), weakref.ref(runs[0].multipliers.base)])
        return runs

    monkeypatch.setattr("pacesim.cli.simulate_pacing", spy)
    svg = tmp_path / "mu.svg"
    assert main(["regret", "regret_switching", "-R", "2", "--horizons", "200,400",
                 "--svg", str(svg), "--curves", str(tmp_path / "curves.csv")]) == 0
    assert alive == [[], [False, False]]
    assert svg.read_text().startswith("<svg")


def test_regret_without_smoothing_on_atomic_environment_exits_2(tmp_path, capsys):
    # A constant competing bid makes the spend curve a step function; the
    # perfect multiplier cannot be bisected to tolerance and the CLI must
    # say so rather than traceback.
    doc = """{
      "mechanism": {"type": "second_price"},
      "agents": [
        {"budget": 25.0},
        {"budget": 100.0, "script": {"bid": 0.5}}
      ],
      "value_model": {"support": [{"prob": 1.0, "values": [1.0, 0.0]}]},
      "horizon": 100
    }"""
    cfg = tmp_path / "atomic.json"
    cfg.write_text(doc)
    assert main(["regret", str(cfg), "-R", "2"]) == 2
    assert "noise" in capsys.readouterr().err


def test_dump_curves_writes_segments_in_first_appearance_order(tmp_path):
    from pacesim.cli import _dump_curves
    from pacesim.regret import uniform_opponent_env

    loud = uniform_opponent_env(low=0.5, width=0.5)
    quiet = uniform_opponent_env(low=0.0, width=0.5)
    path = tmp_path / "curves.csv"
    _dump_curves(str(path), [loud] * 3 + [quiet] * 2 + [loud], {"mu_cap": 4.0, "target_rate": 0.3})
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0"] * 201 + ["1"] * 201
    for segment, env in enumerate((loud, quiet)):
        block = rows[201 * segment : 201 * (segment + 1)]
        mus = np.array([float(row[1]) for row in block])
        assert [float(row[2]) for row in block] == env.spend_value(mus)[0].tolist()


_ANNOTATED = (
    GOOD.replace('{"budget": 25.0}', '{"budget": 25.0, "learning_rate": 0.1, "mu_cap": 2.0}')
    .replace('{"bid": 0.5}', '{"schedule": [[50, 0.5], [100, 0.2]]}')
    .replace('"support": [', '"labels": ["low", "high"], "support": [')
)


@pytest.mark.parametrize(
    "override",
    [
        'value_model.support.0.values=["a",1]',
        "value_model.support.0.values=[null,1]",
        "value_model.support.0.values=[true,1]",
        "value_model.labels=5",
        'value_model.labels=[NaN,"high"]',  # json reads NaN; a label must be a string
        "seed=-3",
        "agents.1.script.schedule=[]",
        "agents.0.learning_rate=0",
        "agents.0.learning_rate=-0.5",
        "agents.0.mu_cap=-1",
        "agents.0.budget=5e-324",  # underflows to zero per round
        "mechanism.type.0=x",  # an override walks into objects and lists only
    ],
)
def test_bad_scenario_input_exits_2_with_a_line_anchor(tmp_path, capsys, override):
    cfg = tmp_path / "annotated.json"
    cfg.write_text(_ANNOTATED)
    assert main(["run", str(cfg), "-o", str(tmp_path / "ok")]) == 0
    code = main(["run", str(cfg), "-o", str(tmp_path / "out"), "--set", override])
    err = capsys.readouterr().err
    assert code == 2, err
    assert re.match(rf"error: {re.escape(str(cfg))}:\d+: ", err), err
    assert not (tmp_path / "out").exists()


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


# Horizons stay at most 20 so that every example simulates in milliseconds.
_SMALL = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.floats(-3, 20), st.text(max_size=3)
)
_LEAF = st.one_of(
    st.floats(0, 2),  # in range for most leaves, so that many mutants simulate
    _SMALL,
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(-1, 3)), max_size=3),
    st.just({}),
)


@st.composite
def _mutated_scenarios(draw):
    doc = json.loads(scenario_text(draw(st.sampled_from(BUNDLED))))
    doc["horizon"] = 20
    leaves = list(_leaf_paths(doc))
    for path in draw(st.lists(st.sampled_from(leaves), max_size=3)):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = draw(_SMALL if path == ("horizon",) else _LEAF)
    overrides = []
    for path in draw(st.lists(st.sampled_from(leaves), max_size=2)):
        value = draw(_SMALL if path == ("horizon",) else _LEAF)
        overrides += ["--set", ".".join(map(str, path)) + "=" + json.dumps(value)]
    return doc, overrides


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_mutated_scenarios())
def test_mutated_scenarios_run_or_exit_2_with_a_line_anchor(case):
    doc, overrides = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "mutated.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh, indent=2)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", cfg, "-R", "1", "--summary-only", "-o", os.path.join(tmp, "out"),
                         *overrides])
    assert "Traceback" not in err.getvalue()
    assert code == 0 or (
        code == 2 and re.match(rf"error: {re.escape(cfg)}:\d+: ", err.getvalue())
    ), (code, err.getvalue())


def test_huge_integer_literal_exits_2_with_a_line_anchor(tmp_path, capsys):
    # json.loads refuses integers of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError.
    cfg = tmp_path / "huge.json"
    cfg.write_text(GOOD.replace('"horizon": 100', '"horizon": ' + "7" * 5001))
    code = main(["run", str(cfg), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {cfg}:1: invalid JSON: "), err
    assert "Traceback" not in err
    with pytest.raises(SchemaError) as raised:
        parse_scenario(cfg.read_text())
    assert raised.value.line == 1


# One agent, and one support point, a line; every error names its own line.
_ONE_PER_LINE = """{
  "mechanism": {"type": "first_price"},
  "agents": [
    {"budget": 25.0, "learning_rate": 0.1},
    {"budget": 20.0, "learning_rate": 0.2, "mu_cap": 3.0},
    {"budget": 10.0, "script": {"bid": 0.5}}
  ],
  "value_model": {"support": [
    {"prob": 0.5, "values": [1.0, 0.5, 0.0]},
    {"prob": 0.5, "values": [0.5, 1.0, 0.5]}
  ]},
  "horizon": 50
}"""


@pytest.mark.parametrize(
    "override, line",
    [
        ("agents.1.learning_rate=-1", 5),
        ("agents.1.mu_cap=-1", 5),
        ("agents.1.budget=0", 5),
        ("agents.1.budget=5e-324", 5),  # refused by the resolved pacing parameters
        ("agents.1.learning_rate=true", 5),
        ("agents.2.budget=-1", 6),
        ("agents.2.script.bid=-1", 6),
        ("value_model.support.1.values=[true,1,0]", 10),
        ("value_model.support.1.values=[1,1]", 10),
        ("value_model.support.1.prob=-0.5", 10),
        ("horizon=-1", 12),
    ],
)
def test_errors_are_anchored_at_the_entry_at_fault(tmp_path, capsys, override, line):
    cfg = tmp_path / "lines.json"
    cfg.write_text(_ONE_PER_LINE)
    assert main(["run", str(cfg), "-o", str(tmp_path / "ok"), "--summary-only"]) == 0
    code = main(["run", str(cfg), "-o", str(tmp_path / "out"), "--set", override])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {cfg}:{line}: "), err


def test_error_in_the_file_itself_is_anchored_at_its_entry():
    bad = _ONE_PER_LINE.replace('"learning_rate": 0.2', '"learning_rate": -1')
    with pytest.raises(SchemaError, match="learning_rate") as raised:
        parse_scenario(bad)
    assert raised.value.line == 5
    bad = _ONE_PER_LINE.replace("[0.5, 1.0, 0.5]", '[0.5, "x", 0.5]')
    with pytest.raises(SchemaError) as raised:
        parse_scenario(bad)
    assert raised.value.line == 10


#: Nested far past the recursion limit: json.loads raises RecursionError,
#: which is no ValueError.
_DEEP = "[" * 10**5 + "]" * 10**5


def test_deep_nesting_exits_2_with_a_line_anchor(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(GOOD.replace('"horizon": 100', '"horizon": ' + _DEEP))
    code = main(["run", str(cfg), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {cfg}:1: invalid JSON: "), err
    with pytest.raises(SchemaError, match="invalid JSON") as raised:
        parse_scenario(cfg.read_text())
    assert raised.value.line == 1


def test_deeply_nested_override_exits_2_with_a_line_anchor(tmp_path, capsys):
    cfg = tmp_path / "good.json"
    cfg.write_text(GOOD)
    code = main(["run", str(cfg), "-o", str(tmp_path / "out"), "--set", "horizon=" + _DEEP])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {cfg}:1: override 'horizon': value nested too deeply"), err
    with pytest.raises(SchemaError, match="nested too deeply"):
        apply_overrides(json.loads(GOOD), ["agents.0.budget=" + _DEEP])


def test_line_of_stops_at_a_value_too_deep_to_scan():
    # The scan of the top-level object stops at the horizon's value: what it
    # found by then is the anchor.
    text = GOOD.replace('"horizon": 100', '"horizon": ' + _DEEP)
    assert _line_of(text, ("horizon",)) == 11
    assert _line_of(text, ("agents", 1)) == 3
    assert _line_of(text, ("seed",)) == 1


_REGRET_SCENARIOS = tuple(name for name in BUNDLED if name.startswith("regret_"))


@st.composite
def _mutated_regret_scenarios(draw):
    doc = json.loads(scenario_text(draw(st.sampled_from(_REGRET_SCENARIOS))))
    doc["horizon"] = 20
    leaves = list(_leaf_paths(doc))
    for path in draw(st.lists(st.sampled_from(leaves), max_size=3)):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = draw(_SMALL if path == ("horizon",) else _LEAF)
    overrides = []
    for path in draw(st.lists(st.sampled_from(leaves), max_size=2)):
        value = draw(_SMALL if path == ("horizon",) else _LEAF)
        overrides += ["--set", ".".join(map(str, path)) + "=" + json.dumps(value)]
    return doc, overrides


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_mutated_regret_scenarios())
def test_mutated_regret_scenarios_run_or_exit_2_with_a_line_anchor(case):
    doc, overrides = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "mutated.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh, indent=2)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["regret", cfg, "-R", "2", *overrides])
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 5) or (
        code == 2 and re.match(rf"error: {re.escape(cfg)}:\d+: ", err.getvalue())
    ), (code, err.getvalue())


@pytest.mark.parametrize("override", ["agents.0.mu_cap=1e200", "agents.0.budget=1e300"])
def test_regret_bounds_too_large_for_a_float_are_inf(tmp_path, capsys, override):
    # mu_cap**2 or (rho + value_cap)**2 overflows: the bound is vacuous, not a crash.
    # JSON has no Infinity, so the report writes it as null.
    out = tmp_path / "regret.json"
    code = main(["regret", "regret_first_price_uniform", "-R", "2", "--set", "horizon=50",
                 "--set", override, "-o", str(out)])
    assert code == 0, capsys.readouterr().err
    (entry,) = json.loads(out.read_text())["per_horizon"]
    assert entry["sgd_bound"] is entry["value_bound"] is None
    assert "(bound inf)" in capsys.readouterr().out


# The bundled regret scenario, whose first agent (budget and mu_cap) is on line 4.
@pytest.mark.parametrize(
    "override, message",
    [
        # budget * T / H overflows when the scenario is rescaled to horizon T
        ("agents.0.budget=1e308", "bad agents[0]: budget must be finite, got inf"),
        # at horizon 50, rho = 250 / 50 and value_cap / rho = 0.2
        ("agents.0.mu_cap=0.1", "regret needs mu_cap >= value_cap / rho = 0.2, got 0.1"),
    ],
)
def test_regret_refusals_are_anchored_at_the_entry_at_fault(tmp_path, capsys, override, message):
    cfg = tmp_path / "regret.json"
    cfg.write_text(scenario_text("regret_first_price_uniform"))
    code = main(["regret", str(cfg), "-R", "2", "--set", "horizon=50", "--set", override])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"error: {cfg}:4: {message}\n"


def test_regret_values_too_large_to_analyse_exit_2_with_a_line_anchor(tmp_path, capsys):
    # A value of sqrt(float max) overflows the relative spend floor: the
    # value model (line 7) is at fault, and no number is reported.
    cfg = tmp_path / "regret.json"
    cfg.write_text(scenario_text("regret_switching"))
    out = tmp_path / "regret-out.json"
    code = main(["regret", str(cfg), "-R", "2", "--set", "horizon=20", "--set",
                 "value_model.support.0.values.0=1.3407807929942597e+154", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith(
        f"error: {cfg}:7: values too large for the regret analysis (overflow"
    ), captured.err
    assert captured.out == ""
    assert not out.exists()


def test_regret_overflows_that_saturate_still_report(tmp_path, capsys):
    # A learning rate of 1e308 overflows the multiplier step to -inf, which
    # the projection clips to 0 as it does the step of 1e300; a tiny eta
    # overflows the noise CDF's argument, which its clip saturates, as with
    # eta = 1e-300.  Neither is blamed on the value model.
    doc = json.loads(scenario_text("regret_switching"))
    doc["agents"][0].update(learning_rate=0.05, mu_cap=20.0)
    cfg = tmp_path / "regret.json"
    cfg.write_text(json.dumps(doc, indent=2))

    def report(*overrides):
        out = tmp_path / "regret-out.json"
        args = ["regret", str(cfg), "-R", "2", "--set", "horizon=20", "-o", str(out)]
        for override in overrides:
            args += ["--set", override]
        code = main(args)
        assert code == 0, capsys.readouterr().err
        return json.loads(out.read_text())

    huge = report("agents.0.learning_rate=1e308")
    large = report("agents.0.learning_rate=1e300")
    assert [e.pop("learning_rate") for e in huge["per_horizon"] + large["per_horizon"]] == [
        1e308, 1e300]
    assert huge == large
    bids = ("mechanism.type=second_price", "agents.1.script.schedule.0.0=1",
            "agents.1.script.schedule.0.1=0.5")
    for mechanism in ("first_price", "second_price"):
        bids = (f"mechanism.type={mechanism}",) + bids[1:]
        assert report(*bids, "smoothing.eta=5e-324") == report(*bids, "smoothing.eta=1e-300")


def test_run_multiplier_step_overflow_saturates_without_a_warning(tmp_path, capsys):
    # A learning rate of 1e308 overflows the multiplier step, which the
    # projection saturates as it does the step of 1e300; under the
    # error::RuntimeWarning filter a warning would fail the run.
    doc = json.loads(scenario_text("welfare_symmetric_second_price"))
    cfg = tmp_path / "huge.json"

    def summary(learning_rate):
        doc["agents"][0]["learning_rate"] = learning_rate
        cfg.write_text(json.dumps(doc, indent=2))
        out = tmp_path / str(learning_rate)
        code = main(["run", str(cfg), "-R", "2", "--summary-only", "--set", "horizon=50",
                     "-o", str(out)])
        assert code == 0, capsys.readouterr().err
        return json.loads((out / "summary.json").read_text())

    assert summary(1e308) == summary(1e300)


def _strict_json(path):
    """The JSON at path, parsed with Infinity and NaN refused (RFC 8259)."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_non_finite_numbers_are_written_as_null(tmp_path, capsys):
    # Zero values make the welfare ratio (0/0, undefined: nan), the relative
    # spend floor and the value bound non-finite: stdout prints them, JSON
    # gets null.
    welfare = tmp_path / "w.json"
    assert main(["welfare", "welfare_symmetric_second_price", "-R", "2", "--set", "horizon=50",
                 "--set", "value_model.support.0.values=[0,0]",
                 "--set", "value_model.support.1.values=[0,0]", "-o", str(welfare)]) == 0
    assert "ratio nan" in capsys.readouterr().out
    assert _strict_json(welfare)["ratio"] is None

    regret = tmp_path / "z.json"
    assert main(["regret", "regret_first_price_uniform", "-R", "2", "--set", "horizon=200",
                 "--set", "value_model.support.0.values=[0,0.5]", "-o", str(regret)]) == 0
    capsys.readouterr()
    (entry,) = _strict_json(regret)["per_horizon"]
    assert entry["delta_relative"] is entry["value_bound"] is None


@pytest.mark.parametrize(
    "argv, vacuous",
    [(["welfare_gsp_five", "--set", "horizon=2000"], True),  # rhs -375.842
     (["welfare_symmetric_second_price"], False)],  # rhs 611.812 at its bundled horizon
    ids=["gsp-five-at-2000", "symmetric-second-price"],
)
def test_welfare_says_when_its_bound_is_vacuous(argv, vacuous, tmp_path, capsys):
    # A right-hand side of at most 0 passes at any welfare: the verdict line
    # says so, the JSON says so either way, and the exit code is unchanged.
    out = tmp_path / "w.json"
    assert main(["welfare", *argv, "-R", "2", "-o", str(out)]) == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.endswith("-> PASS VACUOUS" if vacuous else "-> PASS")
    report = _strict_json(out)
    assert report["vacuous"] is vacuous and report["passed"] is True
    assert (report["rhs"] <= 0) is vacuous
