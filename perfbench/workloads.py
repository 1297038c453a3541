"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `__init__` (the
set-up that `setup_s` times), then exposes `ops()`: the named operations
of one timed pass, run back to back on one thread.  `check(name, output,
deep)` runs outside the timed section and returns (ok, digest bytes);
the expensive reference checks run when `deep` is set, on the first pass,
and every later pass must reproduce the first pass's digest.

Why these four: `market` is the replicated market engine at the bundled
horizon (what `pacesim welfare` and the slowest test fixture run);
`trace_io` is trace persistence, the one workload that writes and reads
files and the one with few rows per engine chunk; `regret` is the
single-agent pipeline, where the market engine does not run; `certify`
is everything that certifies a result: the checkers and the exact LP.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import os

import numpy as np

from pacesim import cli, config, regret, scenarios, simulation, welfare
from pacesim.auctions import Polymatroid, SingleSlot

import checks


def _child_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _with_seed(name: str, seed: int):
    """Load a bundled scenario and override its seed as `--set seed=...`
    does."""
    doc = copy.deepcopy(scenarios.load_scenario(name).doc)
    doc = config.apply_overrides(doc, [f"seed={seed}"])
    return config.validate_scenario(doc)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _noop_span(_name):
    return contextlib.nullcontext()


class Market:
    """The five bundled welfare scenarios at their bundled horizon: the
    exact ex-ante optimum, R replications through the market engine with
    the acceptance fixture's reducer, and the half-of-optimum check."""

    name = "market"
    #: Two engine chunks of 32 rows per scenario, so the chunk size shows.
    REPLICATIONS = 64

    def __init__(self, seed: int, out_dir: str, span=_noop_span):
        self.span = span
        self.scenarios = [
            _with_seed(name, _child_seed(seed, i))
            for i, name in enumerate(scenarios.WELFARE_SUITE)
        ]
        self.keep = seed % self.REPLICATIONS

    def ops(self):
        for name, scen in zip(scenarios.WELFARE_SUITE, self.scenarios):
            yield name, lambda scen=scen: self._run(scen.config)

    def _run(self, cfg):
        kept = []

        def reduce(trace, index):
            with self.span("bench.reduce"):
                checked = violations = stopping_bad = 0
                for k in range(trace.n_agents):
                    if trace.agent_kinds[k] == "paced":
                        c, v, _slack = simulation.epoch_bound_stats(trace, k)
                        checked += c
                        violations += v
                for rep in simulation.check_stopping_bound(trace):
                    stopping_bad += int(rep.applicable and not rep.passed)
                if index == self.keep:
                    kept.append(trace)
                return (
                    welfare.liquid_welfare(trace).total,
                    float(trace.payments.sum()),
                    checked,
                    violations,
                    stopping_bad,
                )

        rule = welfare.solve_ex_ante_optimum(
            cfg.value_model,
            cfg.mechanism.feasible,
            [a.budget for a in cfg.agents],
            cfg.horizon,
        )
        rows = simulation.replicate(cfg, self.REPLICATIONS, reduce)
        samples = np.array([r[0] for r in rows])
        report = welfare.verify_welfare_bound(
            samples,
            rule.value,
            cfg.n_agents,
            cfg.value_model.value_cap,
            cfg.horizon,
            min_replications=2,
        )
        return cfg, rule, rows, report, kept[0]

    def check(self, name, output, deep):
        cfg, rule, rows, report, trace = output
        totals = {
            "epochs_checked": sum(r[2] for r in rows),
            "epoch_violations": sum(r[3] for r in rows),
            "stopping_violations": sum(r[4] for r in rows),
        }
        ok = checks.market_ok(report, totals)
        if deep:
            child = np.random.SeedSequence(cfg.seed).spawn(self.REPLICATIONS)[self.keep]
            ok &= checks.replay_matches(trace, checks.scalar_replay(cfg, child))
        digest = _digest(
            rule.value,
            rule.allocations,
            np.array(rows, dtype=np.float64),
            report.as_dict(),
            *(getattr(trace, f) for f in checks.TRACE_ARRAYS),
        )
        return ok, digest


class TraceIO:
    """What `pacesim run welfare_gsp_five` does when it writes traces: a
    few replications, each saved with `save_trace` and read back with
    `load_trace`; the round trip is compared bit for bit after the pass."""

    name = "trace_io"
    TRACES = 4
    SCENARIO = "welfare_gsp_five"

    def __init__(self, seed: int, out_dir: str, span=_noop_span):
        self.scenario = _with_seed(self.SCENARIO, _child_seed(seed, 0))
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.traces = []

    def _paths(self, i):
        stem = os.path.join(self.out_dir, f"trace_{i + 1:04d}")
        return stem + ".csv", stem + ".json"

    def ops(self):
        yield "replicate", self._replicate
        for i in range(self.TRACES):
            yield f"roundtrip_{i}", lambda i=i: self._roundtrip(i)

    def _replicate(self):
        self.traces = simulation.replicate(self.scenario.config, self.TRACES)
        return len(self.traces)

    def _roundtrip(self, i):
        csv_path, env_path = self._paths(i)
        trace = self.traces[i]
        simulation.save_trace(trace, csv_path, env_path, config_doc=self.scenario.doc)
        return trace, simulation.load_trace(csv_path, env_path)

    def check(self, name, output, deep):
        if name == "replicate":
            return output == self.TRACES, _digest(output)
        trace, loaded = output
        i = int(name.rsplit("_", 1)[1])
        paths = self._paths(i)
        with open(paths[1], "rb") as fh:
            envelope = fh.read()
        for path in paths:
            os.remove(path)
        ok = checks.traces_identical(trace, loaded)
        return ok, _digest(*(getattr(loaded, f) for f in checks.TRACE_ARRAYS), envelope)


class Regret:
    """The acceptance regret sweep (uniform opponent, three horizons, 50
    replications, step 1/sqrt(T)) and the bundled switching scenario, each
    simulated with `simulate_pacing` and analysed with
    `dynamic_regret_batch`.  Environments are rebuilt in every pass, as
    each CLI run builds them, so their lazy caches start cold each time."""

    name = "regret"
    HORIZONS = (1_000, 4_000, 16_000)
    REPLICATIONS = 50
    RHO = 0.25
    MU_CAP = 4.0

    def __init__(self, seed: int, out_dir: str, span=_noop_span):
        self.seeds = {T: _child_seed(seed, T) for T in self.HORIZONS}
        self.switching = _with_seed("regret_switching", _child_seed(seed, 0))

    def ops(self):
        for T in self.HORIZONS:
            yield f"sweep_T{T}", lambda T=T: self._sweep(T)
        yield "switching", self._switching

    def _sweep(self, T):
        env = regret.uniform_opponent_env()
        runs = regret.simulate_pacing(
            env,
            budget=self.RHO * T,
            learning_rate=1.0 / math.sqrt(T),
            mu_cap=self.MU_CAP,
            horizon=T,
            seed=self.seeds[T],
            replications=self.REPLICATIONS,
        )
        return runs, regret.dynamic_regret_batch(runs, env, self.RHO, self.MU_CAP)

    def _switching(self):
        scen = self.switching
        _agent, envs, params = scenarios.regret_environment(scen)
        runs = regret.simulate_pacing(
            envs,
            budget=params["budget"],
            learning_rate=params["learning_rate"],
            mu_cap=params["mu_cap"],
            seed=scen.config.seed,
            replications=scen.replications,
        )
        return runs, regret.dynamic_regret_batch(
            runs, envs, params["target_rate"], params["mu_cap"]
        )

    def check(self, name, output, deep):
        runs, reports = output
        ok = checks.regret_ok(reports, regret.BISECTION_TOL)
        digest = _digest(
            np.array([r.multipliers for r in runs]),
            [r.as_dict() for r in reports],
            reports[0].perfect.multipliers,
        )
        return ok, digest


class Certify:
    """`pacesim verify all`, in process through `pacesim.cli.main` one
    suite at a time, then a seeded ladder of ex-ante LPs in the
    single-slot and GSP-polymatroid families through
    `solve_ex_ante_optimum`."""

    name = "certify"
    HORIZON = 1_000
    #: (family, agents, support size).  Many mid-sized LPs rather than one
    #: large one: pivot counts vary from seed to seed, and a sum over
    #: several instances keeps the pass time steady across seeds.
    LADDER = (
        ("single", 10, 50),
        ("single", 10, 75),
        ("single", 10, 100),
        ("single", 10, 125),
        ("polymatroid", 7, 4),
        ("polymatroid", 8, 3),
        ("polymatroid", 8, 4),
        ("polymatroid", 9, 2),
    )
    #: Each budget is this share of the agent's unconstrained value over
    #: the horizon, so budgets bind.
    BUDGET_SHARE = 0.3
    CLICK_RATES = (1.0, 0.6, 0.3)

    def __init__(self, seed: int, out_dir: str, span=_noop_span):
        self.verify_seed = _child_seed(seed, 0)
        self.instances = [
            self._instance(family, n, S, np.random.default_rng([seed, i]))
            for i, (family, n, S) in enumerate(self.LADDER)
        ]

    def _instance(self, family, n, S, rng):
        probs = rng.dirichlet(np.ones(S))
        model = simulation.ValueModel(probs, rng.uniform(0.0, 1.0, (S, n)))
        feasible = SingleSlot() if family == "single" else Polymatroid(self.CLICK_RATES)
        expected = self.HORIZON * (model.probs[:, None] * model.profiles).sum(axis=0)
        budgets = self.BUDGET_SHARE * expected
        return f"{family}_n{n}_S{S}", model, feasible, budgets

    def ops(self):
        # `verify all` runs every suite of the CLI's table in turn; one
        # operation per suite, so that no timed operation runs for long.
        for suite in cli._SUITES:
            yield f"verify_{suite}", lambda suite=suite: self._verify(suite)
        for label, model, feasible, budgets in self.instances:
            yield f"lp_{label}", lambda m=model, f=feasible, b=budgets: (
                m, f, b, welfare.solve_ex_ante_optimum(m, f, b, self.HORIZON)
            )

    def _verify(self, suite):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", suite, "--seed", str(self.verify_seed)])
        return code, buf.getvalue()

    def check(self, name, output, deep):
        if name.startswith("verify_"):
            code, text = output
            return checks.verify_ok(code, text), _digest(code, text)
        model, feasible, budgets, rule = output
        recomputed = welfare.ex_ante_value(rule.allocations, model, budgets, self.HORIZON)
        ok = checks.ex_ante_ok(rule.value, recomputed)
        if deep:
            reference = checks.reference_ex_ante_value(model, feasible, budgets, self.HORIZON)
            ok &= checks.lp_ok(rule.value, reference)
        return ok, _digest(rule.value, rule.allocations)


#: Each takes (seed, out_dir, span); only trace_io writes files.
WORKLOADS = {w.name: w for w in (Market, TraceIO, Regret, Certify)}
