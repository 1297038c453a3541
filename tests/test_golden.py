"""Bit-pinned engine output: the same seeds give the same bits across versions.

The oracle tests check that the vectorized engine agrees with the scalar
pacing rule and `allocate`.  These pin the engine's output itself: the
sha256 over every trace array and stop round of each bundled scenario at
a short horizon, over a few `simulate_pacing` runs, over the JSON that
`pacesim verify all` writes, and over every file that short runs of
`welfare`, `regret`, `run` and `counterexample` write.  A change to any
bit of any of them fails here.  If a change to the traces is deliberate, recompute the
digests with `_trace_digest` / `_pacing_digest` and declare the change.
"""

import copy
import hashlib

import numpy as np
import pytest

from pacesim import gsp, replicate, simulate_pacing, uniform_opponent_env
from pacesim.cli import main
from pacesim.config import validate_scenario
from pacesim.regret import EnvironmentStep
from pacesim.scenarios import BUNDLED, load_scenario, regret_environment

HORIZON = 300  # crosses one 256-round record block
REPLICATIONS = 3

TRACE_ARRAYS = (
    "values", "multipliers", "bids", "allocations", "payments", "remaining_budgets",
    "stop_rounds", "scenario_indices",
)
PACING_ARRAYS = ("multipliers", "values", "bids", "allocations", "payments")


def _short(name, horizon=HORIZON):
    """The bundled scenario cut to `horizon` rounds, budgets scaled with it."""
    doc = copy.deepcopy(load_scenario(name).doc)
    for agent in doc["agents"]:
        agent["budget"] *= horizon / doc["horizon"]
    doc["horizon"] = horizon
    return validate_scenario(doc)


def _trace_digest(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        for field in TRACE_ARRAYS:
            h.update(np.ascontiguousarray(getattr(trace, field)).tobytes())
    return h.hexdigest()


def _pacing_digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        for field in PACING_ARRAYS:
            h.update(np.ascontiguousarray(getattr(run, field)).tobytes())
        h.update(np.int64(run.stop_round).tobytes())
    return h.hexdigest()


BUNDLED_DIGESTS = {
    "welfare_uncontested_second_price": "f50dfecdc5145a12b7562884c61da4cb401d67861e9e389cd97d4cf72d7de817",
    "welfare_symmetric_second_price": "acb4e1e93209a0dbda328dfbc90fee0374d7c0b4440e0ce612367c7fecaa9cf9",
    "welfare_first_price_three": "3677e55f992bfe1edca6c7141497c387b36b7775719f2585904903dfc3b924e0",
    "welfare_gsp_five": "49ca4446fa318720ff733f665598de715bcf9862c73abd1c1eb3c32f5aa04d80",
    "welfare_contested_paced_pair": "6b4919fd7afdc4da9c74ba7790f4cf7ae06547720f3672849833633b33ab876f",
    "counterexample": "c83108836d0ff17fc1981740064e72a036f9745b761fa3a705f93b9b6401cd6b",
    "regret_first_price_uniform": "a29bee3197c2b14858865b7ffad8e17ffd6d0d90e6c17b75dc5a9d3b0667ce6d",
    "regret_switching": "81404f207ea2315b622470dffa47484fdfe83305c065ac59361ea0e522537061",
}


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_traces_are_pinned(name):
    traces = replicate(_short(name).config, REPLICATIONS)
    assert _trace_digest(traces) == BUNDLED_DIGESTS[name]


def _regret_run(name):
    _agent, envs, params = regret_environment(_short(name, 400))
    return envs, params["budget"], params["learning_rate"], params["mu_cap"]


_GSP_AGENT_ONE = EnvironmentStep(
    gsp([1.0, 0.6]), [0.3, 0.45, 0.25], [1.0, 1.6, 0.4],
    [[0.5, 0.9], [1.2, 0.2], [0.4, 0.4]], agent_index=1,
)

PACING_CASES = {
    # name: (environments, budget, learning rate, mu_cap)
    "regret_first_price_uniform": lambda: _regret_run("regret_first_price_uniform"),
    "regret_switching": lambda: _regret_run("regret_switching"),
    "gsp-agent-one": lambda: ([_GSP_AGENT_ONE] * 300, 90.0, 0.06, 8.0),
    # mu_cap 0.1 cannot shade bids enough: every run exhausts its budget.
    "budget-runs-out": lambda: ([uniform_opponent_env()] * 300, 120.0, 0.05, 0.1),
}

PACING_DIGESTS = {
    "regret_first_price_uniform": "0b89e6f2cd9ee2de1e3c2aea72e89150172f27457d294577344a2727ebfd2ab5",
    "regret_switching": "294b76fc0cce64dfa3a83ef42c35baa95ff8ce957a2cf7311efdaf29cca7f10e",
    "gsp-agent-one": "55d6987c084f3ea669d4dcee1d522a82d775f2769c4dcd54e8dfc0ea5f6152d6",
    "budget-runs-out": "7e41f660c41e65730a7a9581a3a722681a13c0e308582aa4301b1991d3a74812",
}


@pytest.mark.parametrize("case", PACING_CASES)
def test_simulate_pacing_runs_are_pinned(case):
    envs, budget, learning_rate, mu_cap = PACING_CASES[case]()
    runs = simulate_pacing(envs, budget, learning_rate, mu_cap, seed=17, replications=REPLICATIONS)
    assert _pacing_digest(runs) == PACING_DIGESTS[case]


VERIFY_DIGESTS = {
    # name: (extra `verify all` arguments, exit code, sha256 of the JSON it writes)
    "default": ((), 0, "18784da05e71c973aa2e7069dfd31ab76d07f90eb5d6a40480184be637fc528d"),
    # One trial makes every batched checker run on one-row batches.
    "one-trial": (
        ("--trials", "1"), 0, "a084654d92fcc6759f8c72be40135b6bf6384b5d27bfaacb4ce92930622e4399"
    ),
    "negative": (
        ("--negative",), 1, "a65b3f6500cec45e5f0c126b31e31d85db0a616bfc80ced65edc0e963cb0a74d"
    ),
}


@pytest.mark.parametrize("case", VERIFY_DIGESTS)
def test_verify_all_reports_are_pinned(case, tmp_path, capsys):
    extra, code, digest = VERIFY_DIGESTS[case]
    out = tmp_path / "verify.json"
    assert main(["verify", "all", "--seed", "0", *extra, "-o", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


COMMAND_DIGESTS = {
    # name: (command, {output file: sha256}); every output is written under tmp_path.
    "welfare": (
        ["welfare", "welfare_gsp_five", "-R", "4", "--set", "horizon=2000",
         "-o", "{out}/w.json", "--rule-csv", "{out}/w.csv"],
        {
            "w.json": "099c77e805be21a9c689809c8781efb9aaf3e0495d3c648dce87d5bf1dd955c6",
            "w.csv": "4897e6d6fd6d51f4f88b5ae799aa14338694db4764fdc77be03a68ca5fcd389d",
        },
    ),
    "regret": (
        ["regret", "regret_switching", "-R", "4", "--horizons", "200,400",
         "-o", "{out}/r.json", "--curves", "{out}/r.csv"],
        {
            "r.json": "75dfb4f4bb76675e0e1faccb67c9c8c92b1f99d9f0cbe657af15504b99177018",
            "r.csv": "23024b85886b8fa3144238a37e394880080f85d93852a92266bbb7fc11c5a82d",
        },
    ),
    "run": (
        ["run", "welfare_first_price_three", "-R", "3", "--set", "horizon=300", "-o", "{out}"],
        {
            "summary.json": "570b19ad1accaf471f82acfa6ac943e945130a205955e742bd264c6709c29196",
            "trace_0001.csv": "70c7866ad15c45dc1b81dffed1bbc3e69bfedb5e4adeddacdfe37a27d224fb70",
            "trace_0001.json": "53e5b33850ccaf1a5fdf23c5e6c87e53e8b860afdcc032c0e436948609479391",
        },
    ),
    "counterexample": (
        ["counterexample", "-o", "{out}/c.json"],
        {"c.json": "6975049824848d4d7b926749f6a40d99d544d5179ed35a31b0aad0083610ff4f"},
    ),
}


@pytest.mark.parametrize("case", COMMAND_DIGESTS)
def test_command_outputs_are_pinned(case, tmp_path, capsys):
    argv, digests = COMMAND_DIGESTS[case]
    assert main([arg.format(out=tmp_path) for arg in argv]) == 0
    capsys.readouterr()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
