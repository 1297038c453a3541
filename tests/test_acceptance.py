"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [criterion N] PASS/FAIL line with the measured
statistic (run pytest with -s to see them inline).  The heavy simulation
batches are shared through module-scoped fixtures: the welfare runs feed
criteria 2, 3, and 4, and the regret sweep feeds criteria 4 and 5.
"""

import math
import time

import numpy as np
import pytest

from pacesim import (
    MartingaleSetup,
    PiecewiseLinear,
    Polymatroid,
    SGDTestProblem,
    SingleSlot,
    UniformValues,
    ValueModel,
    concentration_check,
    counterexample_report,
    dynamic_regret_batch,
    ex_ante_grid_oracle,
    expected_curves,
    fit_growth_exponent,
    lipschitz_integral_check,
    liquid_welfare,
    perfect_multiplier,
    replicate,
    sgd_regret_check,
    simulate_pacing,
    solve_ex_ante_optimum,
    stochastic_value,
    uniform_opponent_env,
    verify_welfare_bound,
)
from pacesim.constants import REGRET_BOUND_CONSTANT
from pacesim.regret import surrogate_objective
from pacesim.scenarios import WELFARE_SUITE, load_scenario
from pacesim.simulation import check_stopping_bound, epoch_bound_stats
from pacesim.verify import fuzz_mechanisms, gsp_exhaustive_core_fuzz


def _emit(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# Shared heavy runs

REPLICATIONS = 200


@pytest.fixture(scope="module")
def welfare_runs():
    """R=200 replications of every bundled welfare scenario, reduced to
    welfare samples plus epoch value-bound and stopping-bound statistics."""
    results = {}
    started = time.monotonic()
    for name in WELFARE_SUITE:
        scenario = load_scenario(name)
        config = scenario.config

        def reduce(trace, _index):
            checked = violations = 0
            min_slack = math.inf
            stopping_bad = 0
            stopping_checked = 0
            for k in range(trace.n_agents):
                if trace.agent_kinds[k] != "paced":
                    continue
                c, v, s = epoch_bound_stats(trace, k)
                checked += c
                violations += v
                min_slack = min(min_slack, s)
            for rep in check_stopping_bound(trace):
                if rep.applicable:
                    stopping_checked += 1
                    stopping_bad += 0 if rep.passed else 1
            return (
                liquid_welfare(trace).total,
                trace.payments.sum(),
                checked,
                violations,
                min_slack,
                stopping_checked,
                stopping_bad,
            )

        rows = replicate(config, REPLICATIONS, reduce)
        rule = solve_ex_ante_optimum(
            config.value_model,
            config.mechanism.feasible,
            [a.budget for a in config.agents],
            config.horizon,
        )
        results[name] = {
            "config": config,
            "samples": np.array([r[0] for r in rows]),
            "spends": np.array([r[1] for r in rows]),
            "epochs_checked": sum(r[2] for r in rows),
            "epoch_violations": sum(r[3] for r in rows),
            "epoch_min_slack": min(r[4] for r in rows),
            "stopping_checked": sum(r[5] for r in rows),
            "stopping_violations": sum(r[6] for r in rows),
            "optimum": rule.value,
        }
    results["_elapsed"] = time.monotonic() - started
    return results


REGRET_HORIZONS = (1_000, 4_000, 16_000)
REGRET_REPLICATIONS = 50
RHO = 0.25
MU_CAP = 4.0


@pytest.fixture(scope="module")
def regret_sweep():
    """The smoothed first-price environment at three horizons with
    step size 1/sqrt(T), 50 replications each."""
    env = uniform_opponent_env()
    out = {}
    started = time.monotonic()
    for T in REGRET_HORIZONS:
        eps = 1.0 / math.sqrt(T)
        runs = simulate_pacing(
            env,
            budget=RHO * T,
            learning_rate=eps,
            mu_cap=MU_CAP,
            horizon=T,
            seed=4200 + T,
            replications=REGRET_REPLICATIONS,
        )
        reports = dynamic_regret_batch(runs, env, RHO, MU_CAP)
        value = np.array([r.value_regret for r in reports])
        sgd = np.array([r.sgd_regret for r in reports])
        missed = np.array([T - run.stop_round + 1 for run in runs])
        out[T] = {
            "value_mean": float(value.mean()),
            "value_stderr": float(value.std(ddof=1) / math.sqrt(len(value))),
            "sgd_mean": float(sgd.mean()),
            "sgd_max": float(sgd.max()),
            "sgd_bound": reports[0].sgd_bound,
            "missed_max": int(missed.max()),
            "eps": eps,
        }
    out["_elapsed"] = time.monotonic() - started
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_counterexample_reproduction():
    started = time.monotonic()
    rows = [counterexample_report(cap, 1000) for cap in (1.0, 9.0, 99.0)]
    elapsed = time.monotonic() - started
    exact = all(row["ratio"] == 1.0 / (row["mu_cap"] + 1.0) for row in rows)
    _emit(
        1,
        exact and elapsed < 1.0,
        f"ratios {[row['ratio'] for row in rows]} exact, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_welfare_half_bound(welfare_runs):
    lines = []
    ok = True
    for name in WELFARE_SUITE:
        data = welfare_runs[name]
        config = data["config"]
        report = verify_welfare_bound(
            data["samples"],
            data["optimum"],
            config.n_agents,
            config.value_model.value_cap,
            config.horizon,
        )
        ok &= report.passed
        lines.append(f"{name}: mean {report.mean:.1f} vs rhs {report.rhs:.1f} ratio {report.ratio:.3f}")
        if name in (
            "welfare_uncontested_second_price",
            "welfare_symmetric_second_price",
        ):
            ok &= report.ratio >= 0.5
    elapsed = welfare_runs["_elapsed"]
    ok &= elapsed < 300.0
    _emit(2, ok, "; ".join(lines) + f"; elapsed {elapsed:.1f}s < 300s")


def test_criterion_3_epoch_bound_zero_violations(welfare_runs):
    total_checked = sum(welfare_runs[n]["epochs_checked"] for n in WELFARE_SUITE)
    total_violations = sum(welfare_runs[n]["epoch_violations"] for n in WELFARE_SUITE)
    min_slack = min(welfare_runs[n]["epoch_min_slack"] for n in WELFARE_SUITE)
    _emit(
        3,
        total_violations == 0 and total_checked > 0,
        f"{total_checked} epochs checked, {total_violations} violations, "
        f"min slack {min_slack:.3e}",
    )


def test_criterion_4_stopping_bound(welfare_runs, regret_sweep):
    checked = sum(welfare_runs[n]["stopping_checked"] for n in WELFARE_SUITE)
    violations = sum(welfare_runs[n]["stopping_violations"] for n in WELFARE_SUITE)
    details = [f"market traces: {violations} violations in {checked} checks"]
    ok = violations == 0 and checked > 0
    for T in REGRET_HORIZONS:
        eps = regret_sweep[T]["eps"]
        bound = math.ceil(MU_CAP / (eps * RHO) + 1.0 / RHO)
        missed = regret_sweep[T]["missed_max"]
        ok &= missed <= bound
        details.append(f"T={T}: worst missed {missed} <= {bound}")
    _emit(4, ok, "; ".join(details))


def test_criterion_5_dynamic_regret_growth(regret_sweep):
    means = [regret_sweep[T]["value_mean"] for T in REGRET_HORIZONS]
    ok = all(m > 0 for m in means)
    detail = [f"value regret means {['%.1f' % m for m in means]}"]
    if ok:
        exponent = fit_growth_exponent(REGRET_HORIZONS, means)
        ok &= exponent <= 0.8
        detail.append(f"exponent {exponent:.3f} <= 0.8")
    for T in REGRET_HORIZONS:
        bound = REGRET_BOUND_CONSTANT * (MU_CAP**2 + (RHO + 1.0) ** 2) * math.sqrt(T)
        sgd = regret_sweep[T]["sgd_mean"]
        assert abs(bound - regret_sweep[T]["sgd_bound"]) < 1e-6
        ok &= sgd <= bound
        detail.append(f"T={T}: REG1 {sgd:.1f} <= {bound:.0f}")
    elapsed = regret_sweep["_elapsed"]
    ok &= elapsed < 600.0
    detail.append(f"elapsed {elapsed:.1f}s < 600s")
    _emit(5, ok, "; ".join(detail))


def test_criterion_6_perfect_multiplier_oracle():
    env = uniform_opponent_env()
    mu_star = perfect_multiplier(env, RHO, MU_CAP)
    step = 1e-3
    hi = surrogate_objective(env, RHO, mu_star + step)
    lo = surrogate_objective(env, RHO, mu_star - step)
    derivative = (hi - lo) / (2 * step)
    ok = abs(mu_star - 1.0) <= 1e-6 and abs(derivative) <= 1e-6
    _emit(6, ok, f"mu* = {mu_star:.9f} (target 1), H'(mu*) = {derivative:.2e}")


def test_criterion_7_mbb_core_fuzzing():
    started = time.monotonic()
    reports = fuzz_mechanisms(instances=10_000, seed=77)
    gsp_report = gsp_exhaustive_core_fuzz(instances=2_000, seed=78)
    elapsed = time.monotonic() - started
    bad = [r.checker for r in reports + [gsp_report] if not r.passed]
    _emit(
        7,
        not bad and elapsed < 60.0,
        f"10^4 instances x 3 mechanisms clean, GSP exhaustive clean "
        f"(min slack {gsp_report.detail['min_slack']:.2e}), {elapsed:.1f}s < 60s",
    )


def test_criterion_8_ex_ante_solver_vs_oracle():
    instances = [
        (ValueModel([1.0], [[1.0]]), SingleSlot(), [5.0], 10),
        (ValueModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]), SingleSlot(), [100.0, 100.0], 10),
        (ValueModel([1.0], [[2.0, 1.0]]), SingleSlot(), [1.0, 10.0], 10),
        (
            ValueModel([0.25, 0.5, 0.25], [[1.0, 0.2], [0.5, 0.8], [0.1, 0.4]]),
            SingleSlot(),
            [2.0, 3.0],
            10,
        ),
        (
            ValueModel([0.6, 0.4], [[0.9, 0.5], [0.3, 1.0]]),
            Polymatroid((1.0, 0.4)),
            [4.0, 3.0],
            10,
        ),
        (ValueModel([1.0], [[0.0, 0.0]]), SingleSlot(), [5.0, 5.0], 10),
    ]
    step = 0.01
    worst = 0.0
    ok = True
    for model, feasible, budgets, horizon in instances:
        exact = solve_ex_ante_optimum(model, feasible, budgets, horizon)
        grid_value, _rule = ex_ante_grid_oracle(model, feasible, budgets, horizon, step)
        slack = model.n_agents * model.value_cap * horizon * step
        ok &= exact.value >= grid_value - 1e-6
        ok &= exact.value <= grid_value + slack + 1e-6
        worst = max(worst, abs(exact.value - grid_value))
    _emit(8, ok, f"{len(instances)} instances, worst |LP - grid| = {worst:.4f} within slack")


def test_criterion_9_concentration():
    rho, T, trials = 0.5, 200, 100_000
    theta_full = math.sqrt(T) * rho
    setups = [
        ("uniform", MartingaleSetup(UniformValues(0.0, 1.0), "always", T, 1.0, rho), theta_full),
        (
            "discrete",
            MartingaleSetup(
                __import__("pacesim").DiscreteValues((0.0, 2.0), (0.75, 0.25)),
                "always",
                T,
                2.0,
                rho,
            ),
            theta_full,
        ),
        (
            "adversarial",
            MartingaleSetup(UniformValues(0.0, 1.0), "adversarial", T, 1.0, rho),
            0.5 * theta_full,
        ),
    ]
    ok = True
    details = []
    for i, (name, setup, theta) in enumerate(setups):
        report = concentration_check(setup, theta, trials=trials, seed=900 + i)
        ok &= report.passed
        details.append(f"{name}: {report.statistic:.4g} <= {report.bound:.4g}")
    hot = MartingaleSetup(UniformValues(0.8, 1.2), "always", T, 2.0, rho)
    negative = concentration_check(hot, 0.5 * theta_full, trials=10_000, seed=999)
    ok &= not negative.passed
    details.append(f"negative control exceeds bound: {negative.statistic:.3f} > {negative.bound:.3f}")
    _emit(9, ok, "; ".join(details))


def test_criterion_10_sgd_proposition():
    horizon = 3000
    static = SGDTestProblem((0.0, 1.0), np.full(horizon, 0.7), noise_width=0.5, trials=100)
    drift = SGDTestProblem(
        (0.0, 1.0),
        np.where((np.arange(horizon) // 300) % 2 == 0, 0.2, 0.8),
        noise_width=0.5,
        trials=100,
    )
    r_static = sgd_regret_check(static, static.tuned_step_size(), seed=1001)
    r_drift = sgd_regret_check(drift, drift.tuned_step_size(), seed=1002)
    control = SGDTestProblem((0.0, 1.0), np.full(horizon, 1.0), noise_width=0.0, trials=10)
    r_zero = sgd_regret_check(control, 0.0, seed=1003)
    ok = r_static.passed and r_drift.passed and not r_zero.passed
    _emit(
        10,
        ok,
        f"static {r_static.statistic:.1f} <= {r_static.bound:.0f}, "
        f"drifting {r_drift.statistic:.1f} <= {r_drift.bound:.0f}, "
        f"zero-rate control {r_zero.statistic:.0f} > {r_zero.bound:.0f}",
    )


def test_criterion_11_lipschitz_integral_and_stochastic_value():
    rng = np.random.default_rng(1100)
    failures = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, k))])
        slopes = rng.uniform(0.0, 2.5, k)
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
        lam = max(float(slopes.max()), 1e-9)
        x = float(rng.uniform(0.0, xs[-1]))
        if not lipschitz_integral_check(PiecewiseLinear(xs, ys), x, lam).passed:
            failures += 1

    env = uniform_opponent_env()
    T = 400
    mu_star = perfect_multiplier(env, RHO, MU_CAP)
    _, v_star = expected_curves(env, mu_star)
    ceiling = T * v_star + env.value_cap**2 / RHO
    value_failures = 0
    for i, mu in enumerate(np.linspace(0.0, MU_CAP, 9)):
        mean, stderr = stochastic_value(
            env, float(mu), RHO * T, T, replications=2_000, seed=1200 + i
        )
        if mean > ceiling + 3.0 * stderr + 1e-9:
            value_failures += 1
    ok = failures == 0 and value_failures == 0
    _emit(
        11,
        ok,
        f"lipschitz-integral fuzz 10^4 violations={failures}; "
        f"stochastic value grid violations={value_failures} (ceiling {ceiling:.1f})",
    )
