"""Negative controls for every output check of the benchmark.

Run from the root of a checkout:  python3 perfbench/selftest.py

Each control first shows that the check accepts a genuine output, then
feeds it a deliberately broken one (a trace with one bit flipped, a
perturbed LP value, a regret report past its bound, ...) and requires the
check to count it as failed.  It also checks that BENCHMARK.json names
exactly the metrics the benchmark prints.  Exits 0 only when every
control behaves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import numpy as np

from run import END_TO_END, _import_pacesim


def _flip_bit(a: np.ndarray, index) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    bits = out.view(np.uint64)
    bits[index] ^= np.uint64(1)
    return out


def controls():
    """Yield (name, accepts genuine output, rejects broken output)."""
    import checks
    import workloads
    from layers import PER_LAYER
    from pacesim import cli, regret, scenarios, simulation, welfare

    # market: scalar replay, welfare bound, epoch and stopping counts
    cfg = dataclasses.replace(
        scenarios.load_scenario("welfare_gsp_five").config, horizon=400, seed=7
    )
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    trace = simulation.replicate(cfg, 3)[2]
    replay = checks.scalar_replay(cfg, children[2])
    broken = dataclasses.replace(trace, payments=_flip_bit(trace.payments, (123, 1)))
    yield (
        "market: engine trace vs scalar replay, one payment bit flipped",
        checks.replay_matches(trace, replay),
        not checks.replay_matches(broken, replay),
    )
    other = checks.scalar_replay(cfg, children[1])
    yield (
        "market: replay on another replication's substream",
        True,
        not checks.replay_matches(trace, other),
    )

    # at the bundled horizon, where the bound's right-hand side is positive
    sym = scenarios.load_scenario("welfare_symmetric_second_price").config
    samples = np.array([
        welfare.liquid_welfare(t).total for t in simulation.replicate(sym, 4)
    ])
    rule = welfare.solve_ex_ante_optimum(
        sym.value_model, sym.mechanism.feasible, [a.budget for a in sym.agents], sym.horizon
    )
    args = (rule.value, sym.n_agents, sym.value_model.value_cap, sym.horizon)
    good = welfare.verify_welfare_bound(samples, *args, min_replications=2)
    bad = welfare.verify_welfare_bound(samples * 0.1, *args, min_replications=2)
    clean = {"epochs_checked": 10, "epoch_violations": 0, "stopping_violations": 0}
    yield (
        "market: welfare far below half the optimum",
        checks.market_ok(good, clean),
        not checks.market_ok(bad, clean),
    )
    for key, value in (
        ("epoch_violations", 1),
        ("stopping_violations", 1),
        ("epochs_checked", 0),
    ):
        yield (
            f"market: {key} = {value}",
            checks.market_ok(good, clean),
            not checks.market_ok(good, {**clean, key: value}),
        )

    # trace_io: bit-for-bit round trip, NaN included
    out_dir = os.path.join(".perfbench_out", f"selftest-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        csv_path = os.path.join(out_dir, "t.csv")
        env_path = os.path.join(out_dir, "t.json")
        simulation.save_trace(trace, csv_path, env_path)
        loaded = simulation.load_trace(csv_path, env_path)
    finally:
        for path in (csv_path, env_path):
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(out_dir)
    for field, index in (("values", (5, 0)), ("remaining_budgets", (399, 4))):
        broken = dataclasses.replace(loaded, **{field: _flip_bit(getattr(loaded, field), index)})
        yield (
            f"trace_io: one bit of {field} flipped",
            checks.traces_identical(trace, loaded),
            not checks.traces_identical(trace, broken),
        )
    nan_at = np.argwhere(np.isnan(loaded.multipliers))
    payload = tuple(nan_at[0]) if len(nan_at) else (0, 0)
    mus = loaded.multipliers.copy()
    mus[payload] = np.nan
    broken = dataclasses.replace(loaded, multipliers=_flip_bit(mus, payload))
    yield (
        "trace_io: a NaN with another payload",
        checks.traces_identical(trace, loaded) and bool(np.isnan(broken.multipliers[payload])),
        not checks.traces_identical(trace, broken),
    )

    # regret: both bounds and the bisection residual
    env = regret.uniform_opponent_env()
    runs = regret.simulate_pacing(
        env, budget=250.0, learning_rate=1 / 1000**0.5, mu_cap=4.0, horizon=1000, seed=3,
        replications=3,
    )
    reports = regret.dynamic_regret_batch(runs, env, 0.25, 4.0)
    tol = regret.BISECTION_TOL
    r0 = reports[0]
    perfect = dataclasses.replace(r0.perfect, residuals=r0.perfect.residuals + 2 * tol)
    for label, broken in (
        ("value regret past its bound", dataclasses.replace(r0, value_regret=2 * r0.value_bound)),
        ("sgd regret past its bound", dataclasses.replace(r0, sgd_regret=2 * r0.sgd_bound)),
        ("perfect-sequence residual past tolerance", dataclasses.replace(r0, perfect=perfect)),
    ):
        yield (
            f"regret: {label}",
            checks.regret_ok(reports, tol),
            not checks.regret_ok([broken] + reports[1:], tol),
        )

    # certify: verify exit code and output, LP against HiGHS, ex-ante value
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code_ok = cli.main(["verify", "gsp-core", "--trials", "200"])
    good_text = buf.getvalue()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code_bad = cli.main(["verify", "gsp-core", "--negative"])
    yield (
        "certify: a verify suite run on its negative control",
        checks.verify_ok(code_ok, good_text),
        not checks.verify_ok(code_bad, buf.getvalue()),
    )
    yield (
        "certify: a FAIL line under exit code 0",
        checks.verify_ok(code_ok, good_text),
        not checks.verify_ok(0, good_text + "[FAIL] x: statistic 1 vs bound 0\n"),
    )
    certify = workloads.Certify(seed=5, out_dir=None)
    for label, model, feasible, budgets in certify.instances[::4]:
        rule = welfare.solve_ex_ante_optimum(model, feasible, budgets, certify.HORIZON)
        ref = checks.reference_ex_ante_value(model, feasible, budgets, certify.HORIZON)
        yield (
            f"certify: {label} optimum perturbed by 1e-6 relative",
            checks.lp_ok(rule.value, ref),
            not checks.lp_ok(rule.value * (1 + 1e-6), ref),
        )
        recomputed = welfare.ex_ante_value(rule.allocations, model, budgets, certify.HORIZON)
        yield (
            f"certify: {label} returned value off its rule by 1e-6 relative",
            checks.ex_ante_ok(rule.value, recomputed),
            not checks.ex_ante_ok(rule.value * (1 + 1e-6), recomputed),
        )

    # the metric names BENCHMARK.json declares are the ones printed
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    yield (
        "BENCHMARK.json names the printed metrics",
        [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
        and [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
        and sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
        True,
    )


def main() -> int:
    _import_pacesim(os.getcwd())
    failed = 0
    for name, accepts, rejects in controls():
        ok = bool(accepts) and bool(rejects)
        failed += not ok
        detail = "" if ok else f" (accepts genuine: {accepts}, rejects broken: {rejects})"
        print(f"[{'ok' if ok else 'FAIL'}] {name}{detail}")
    print(f"{failed} control(s) misbehaved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
