"""Command-line entry point.

Subcommands: run (simulate and dump traces), welfare (replications against
the exact ex-ante optimum), regret (single-agent dynamic regret), verify
(inequality checkers and simulation invariants), counterexample (the
no-regret-but-bad-welfare scenario).  Every command prints a human-readable
summary and can write machine-readable JSON; outputs are byte-identical
for identical config and seed.

Exit codes: 0 success, 1 a verified bound or checker failed (and nothing
else), 2 schema or usage error, 3 I/O failure, 4 exact-solver capacity
exceeded, 5 the environment is not reconstructible for regret analysis,
6 internal failure: an unbounded LP, the simplex pivot limit, a broken
invariant, or any other uncaught exception (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import traceback

import numpy as np

from . import scenarios, verify
from .config import Scenario, SchemaError, anchored, apply_overrides, decode_json, validate_scenario
from .constants import Z99
from .errors import (
    CapacityError,
    ConfigurationError,
    EnvironmentError_,
    InvariantViolationError,
    IterationLimitError,
    PreconditionError,
    SmoothingRequiredError,
    StatisticsError,
    UnboundedError,
)
from .regret import (
    _distinct,
    dynamic_regret_batch,
    fit_growth_exponent,
    objective_values,
    simulate_pacing,
    throttled_value_curve,
)
from .simulation import check_stopping_bound, epoch_bound_stats, replicate, save_trace
from .svgplot import line_chart
from .verify import (
    CheckReport,
    DiscreteValues,
    MartingaleSetup,
    PiecewiseLinear,
    SGDTestProblem,
    UniformValues,
    concentration_check,
    fuzz_mechanisms,
    gsp_core_slack,
    gsp_exhaustive_core_fuzz,
    lipschitz_integral_check,
    sgd_regret_check,
)
from .welfare import (
    counterexample_report,
    liquid_welfare,
    rule_to_csv,
    solve_ex_ante_optimum,
    verify_welfare_bound,
    welfare_bound_slack,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_CAPACITY = 4
EXIT_ENV = 5
EXIT_INTERNAL = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_config_text(path: str) -> str:
    if os.path.exists(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot read {path}: {exc}")
    try:
        return scenarios.scenario_text(path)
    except ConfigurationError:
        raise CliError(EXIT_IO, f"no such config file or bundled scenario: {path}")


def _load_scenario(path: str, overrides: list[str]) -> tuple[Scenario, str]:
    """The scenario at path with the --set overrides applied, and its text."""
    text = _read_config_text(path)
    return validate_scenario(apply_overrides(decode_json(text), overrides), text), text


def _write_json(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}")


def _replications(args, scenario: Scenario, default: int) -> int:
    """-R if given (at least 1), else the scenario's count, else default."""
    if args.replications is None:
        return scenario.replications if scenario.replications is not None else default
    if args.replications < 1:
        raise CliError(
            EXIT_SCHEMA, f"-R/--replications must be at least 1, got {args.replications}"
        )
    return args.replications


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    scenario, _text = _load_scenario(args.config, args.set)
    config = scenario.config
    reps = _replications(args, scenario, 1)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot create {args.out}: {exc}")

    def reduce(trace, index):
        if not args.summary_only:
            stem = os.path.join(args.out, f"trace_{index + 1:04d}")
            try:
                save_trace(trace, stem + ".csv", stem + ".json", config_doc=scenario.doc)
            except OSError as exc:
                raise CliError(EXIT_IO, f"cannot write trace files: {exc}")
        report = liquid_welfare(trace)
        return report.spends, report.liquid_values

    results = replicate(config, reps, reduce)
    spends = np.array([s for s, _ in results])
    liquids = np.array([w for _, w in results])
    welfare = liquids.sum(axis=1)
    summary = {
        "horizon": config.horizon,
        "seed": config.seed,
        "replications": reps,
        "per_agent": [
            {
                "spend_mean": float(spends[:, k].mean()),
                "liquid_value_mean": float(liquids[:, k].mean()),
            }
            for k in range(config.n_agents)
        ],
        "welfare_mean": float(welfare.mean()),
        "welfare_stderr": float(welfare.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"ran {reps} replication(s) of horizon {config.horizon}")
    for k, row in enumerate(summary["per_agent"]):
        print(
            f"  agent {k}: mean spend {row['spend_mean']:.6g}, "
            f"mean liquid value {row['liquid_value_mean']:.6g}"
        )
    print(f"  welfare mean {summary['welfare_mean']:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# welfare


def cmd_welfare(args) -> int:
    scenario, _text = _load_scenario(args.config, args.set)
    config = scenario.config
    reps = _replications(args, scenario, 200)
    if reps < 2:
        raise CliError(EXIT_SCHEMA, "welfare needs at least 2 replications")
    # The bound needs horizon >= 1; check it before the solve and the runs.
    welfare_bound_slack(config.n_agents, config.value_model.value_cap, config.horizon)

    try:
        rule = solve_ex_ante_optimum(
            config.value_model,
            config.mechanism.feasible,
            [a.budget for a in config.agents],
            config.horizon,
        )
    except CapacityError as exc:
        raise CliError(EXIT_CAPACITY, str(exc))

    results = replicate(
        config, reps, lambda trace, _i: (liquid_welfare(trace).total, trace.payments.sum())
    )
    samples = np.array([w for w, _ in results])
    spends = np.array([p for _, p in results])
    try:
        report = verify_welfare_bound(
            samples,
            rule.value,
            config.n_agents,
            config.value_model.value_cap,
            config.horizon,
            min_replications=2,
        )
    except StatisticsError as exc:
        raise CliError(EXIT_SCHEMA, str(exc))

    payload = report.as_dict()
    payload["mean_total_spend"] = float(spends.mean())
    payload["spend_at_most_welfare"] = bool(
        spends.mean() - Z99 * spends.std(ddof=1) / math.sqrt(reps) <= report.mean
    )
    payload["optimum_rule"] = rule.allocations.tolist()
    if args.rule_csv:
        try:
            rule_to_csv(rule.allocations, args.rule_csv)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {args.rule_csv}: {exc}")
    _write_json(args.out, payload)
    print(f"expected welfare {report.mean:.6g} +- {report.stderr:.3g} over {reps} reps")
    print(f"ex-ante optimum {report.optimum:.6g}, ratio {report.ratio:.4f}")
    print(f"bound rhs {report.rhs:.6g} -> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# regret


def _at_horizon(scenario: Scenario, T: int, text: str = "", **fields) -> Scenario:
    """The scenario at horizon T, each budget scaled by T over its own
    horizon (which must be positive, keeping the per-round target), with
    the given top-level fields replaced; errors are anchored in text, the
    scenario's own."""
    if scenario.config.horizon < 1:
        raise ConfigurationError(
            f"regret needs a horizon of at least 1, got {scenario.config.horizon}", ("horizon",)
        )
    doc = copy.deepcopy(scenario.doc)
    doc["horizon"] = T
    for agent_doc in doc["agents"]:
        agent_doc["budget"] = agent_doc["budget"] * T / scenario.config.horizon
    doc.update(fields)
    return validate_scenario(doc, text)


def _parse_horizons(raw: str | None, default: int) -> list[int]:
    if not raw:
        return [default]
    try:
        horizons = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise CliError(EXIT_SCHEMA, f"bad --horizons value {raw!r}")
    if not horizons or any(h < 1 for h in horizons):
        raise CliError(EXIT_SCHEMA, "horizons must be positive integers")
    return horizons


def cmd_regret(args) -> int:
    scenario, text = _load_scenario(args.config, args.set)
    horizons = _parse_horizons(args.horizons, scenario.config.horizon)
    reps = _replications(args, scenario, 20)

    per_horizon = []
    last = None
    for T in horizons:
        # Regret's own refusals of the scenario, at the line at fault.
        with anchored(text):
            scen = _at_horizon(scenario, T, text)
            try:
                agent, envs, params = scenarios.regret_environment(scen)
            except EnvironmentError_ as exc:
                raise CliError(EXIT_ENV, str(exc))
            eps = params["learning_rate"] if len(horizons) == 1 else 1.0 / math.sqrt(T)
            # A huge learning rate can overflow the multiplier step, which the
            # projection onto [0, mu_cap] clips, so only the analysis is
            # guarded: there an overflow means values too large to analyse.
            runs = simulate_pacing(
                envs, budget=params["budget"], learning_rate=eps, mu_cap=params["mu_cap"],
                seed=scen.config.seed, replications=reps)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    reports = dynamic_regret_batch(
                        runs, envs, params["target_rate"], params["mu_cap"]
                    )
                    value_regrets = np.array([r.value_regret for r in reports])
                    sgd_regrets = np.array([r.sgd_regret for r in reports])
                    entry = {
                        "horizon": T,
                        "replications": reps,
                        "learning_rate": eps,
                        "value_regret_mean": float(value_regrets.mean()),
                        "value_regret_stderr": float(value_regrets.std(ddof=1) / math.sqrt(reps))
                        if reps > 1
                        else 0.0,
                        "sgd_regret_mean": float(sgd_regrets.mean()),
                        "sgd_regret_max": float(sgd_regrets.max()),
                        "sgd_bound": reports[0].sgd_bound,
                        "value_bound": reports[0].value_bound,
                        "path_length": reports[0].path_length,
                        "lambda": reports[0].smoothing.lipschitz,
                        "delta_absolute": reports[0].smoothing.floor_absolute,
                        "delta_relative": reports[0].smoothing.floor_relative,
                    }
            except SmoothingRequiredError as exc:  # the spend curve steps: smoothing.eta is short
                raise ConfigurationError(str(exc), ("smoothing", "eta")) from exc
            except FloatingPointError as exc:
                raise ConfigurationError(
                    f"values too large for the regret analysis ({exc})", ("value_model",)
                ) from exc
        per_horizon.append(entry)
        last = (scen, envs, params, runs, reports)

    payload: dict = {"per_horizon": per_horizon}
    if len(horizons) > 1:
        means = [e["value_regret_mean"] for e in per_horizon]
        if all(m > 0 for m in means):
            payload["exponent_fit"] = fit_growth_exponent(horizons, means)
        else:
            payload["exponent_fit"] = None

    scen, envs, params, runs, reports = last
    if args.curves:
        _dump_curves(args.curves, envs, params)
    if args.svg:
        run = runs[0]
        rounds = list(range(1, run.horizon + 1))
        line_chart(
            args.svg,
            [
                ("multiplier", rounds, np.nan_to_num(run.multipliers).tolist()),
                ("perfect", rounds, reports[0].perfect.multipliers.tolist()),
            ],
            title="pacing multiplier vs perfect sequence",
            xlabel="round",
            ylabel="multiplier",
        )
    _write_json(args.out, payload)
    for entry in per_horizon:
        print(
            f"T={entry['horizon']}: value regret {entry['value_regret_mean']:.4g} "
            f"+- {entry['value_regret_stderr']:.3g}, sgd regret {entry['sgd_regret_mean']:.4g} "
            f"(bound {entry['sgd_bound']:.4g}), P={entry['path_length']:.4g}"
        )
    if "exponent_fit" in payload:
        print(f"fitted growth exponent: {payload['exponent_fit']}")
    return EXIT_OK


def _dump_curves(path: str, envs, params) -> None:
    import csv as _csv

    mu_cap = params["mu_cap"]
    grid = np.linspace(0.0, mu_cap, 201)
    try:
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["segment", "mu", "Z", "V", "H", "W"])
            for i, (env, _rounds) in enumerate(_distinct(envs)):
                z, v = env.spend_value(grid)
                h = objective_values(env, params["target_rate"], grid)
                w = throttled_value_curve(env, params["target_rate"], grid)
                for row in zip(grid, z, v, h, w):
                    writer.writerow([i, *(format(c, ".17g") for c in row)])
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}")


# ---------------------------------------------------------------------------
# verify


def _suite_concentration(trials, seed, negative, traces):
    horizon = 200
    rho = 0.5
    theta = math.sqrt(horizon) * rho
    if negative:
        hot = MartingaleSetup(UniformValues(0.8, 1.2), "always", horizon, 2.0, rho)
        return [concentration_check(hot, theta * 0.5, trials, seed)]
    setups = [
        MartingaleSetup(UniformValues(0.0, 2 * rho), "always", horizon, 2 * rho, rho),
        MartingaleSetup(
            DiscreteValues((0.0, 2.0), (0.75, 0.25)), "always", horizon, 2.0, rho
        ),
        MartingaleSetup(UniformValues(0.0, 2 * rho), "adversarial", horizon, 2 * rho, rho),
    ]
    return [
        concentration_check(s, theta if i < 2 else theta * 0.5, trials, seed + i)
        for i, s in enumerate(setups)
    ]


def _suite_sgd(trials, seed, negative, traces):
    horizon = 2000
    if negative:
        problem = SGDTestProblem((0.0, 1.0), np.full(horizon, 1.0), 0.0, trials=20)
        return [sgd_regret_check(problem, 0.0, seed)]
    static = SGDTestProblem((0.0, 1.0), np.full(horizon, 0.7), 0.5, trials=50)
    drifting = SGDTestProblem(
        (0.0, 1.0),
        np.where((np.arange(horizon) // 250) % 2 == 0, 0.2, 0.8),
        0.5,
        trials=50,
    )
    return [
        sgd_regret_check(static, static.tuned_step_size(), seed),
        sgd_regret_check(drifting, drifting.tuned_step_size(), seed + 1),
    ]


def _suite_lipschitz_integral(trials, seed, negative, traces):
    if negative:
        jump = PiecewiseLinear([0.0, 1e-9, 1.0], [0.0, 1.0, 1.0])
        return [lipschitz_integral_check(jump, 1e-9, 1.0, validate=False)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    reports = [lipschitz_integral_check(PiecewiseLinear([0.0, 2.0], [0.0, 6.0]), 2.0, 3.0)]
    failures = 0
    count = min(trials, 5000)
    for _ in range(count):
        k = int(rng.integers(2, 8))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, k))])
        slopes = rng.uniform(0.0, 2.0, k)
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
        lam = float(slopes.max()) if slopes.max() > 0 else 1.0
        x = float(rng.uniform(0.0, xs[-1]))
        if not lipschitz_integral_check(PiecewiseLinear(xs, ys), x, lam).passed:
            failures += 1
    reports.append(CheckReport("lipschitz_integral_fuzz", count, float(failures), 0.0, failures == 0))
    return reports


def _suite_gsp_core(trials, seed, negative, traces):
    if negative:
        slack = gsp_core_slack([1.0, 0.5, 0.0], [5.0, 1.0, 10.0], assume_sorted=True)
        return [
            CheckReport("gsp_core_negative", 1, slack, 0.0, slack >= -1e-9)
        ]
    example = gsp_core_slack([1.0, 0.5], [3.0, 2.0, 1.0])
    return [
        CheckReport("gsp_core_example", 1, example, 0.0, example >= -1e-9),
        gsp_exhaustive_core_fuzz(min(trials, 2000), seed),
    ]


def _suite_mbb_core(trials, seed, negative, traces):
    if negative:
        # The same batched fuzz on a small sample, over an overcharging
        # kernel: individual rationality must fail for every kind.
        return verify._fuzz(1_000, seed, 6, verify._overcharging_outcomes)
    return fuzz_mechanisms(min(trials, 100_000), seed)


def _verification_traces(seed) -> list:
    """Three replications of every WELFARE_SUITE scenario at horizon 2000,
    the input of the epoch and stopping suites."""
    traces = []
    for name in scenarios.WELFARE_SUITE:
        small = _at_horizon(scenarios.load_scenario(name), 2000, seed=seed)
        traces.extend(replicate(small.config, 3))
    return traces


def _suite_epoch(trials, seed, negative, traces):
    checked = 0
    violations = 0
    worst = math.inf
    for trace in traces():
        for k in range(trace.n_agents):
            if trace.agent_kinds[k] != "paced":
                continue
            n_checked, n_violations, min_slack = epoch_bound_stats(trace, k)
            checked += n_checked
            violations += n_violations
            worst = min(worst, min_slack)
    return [
        CheckReport(
            "epoch_value_bound", checked, float(violations), 0.0, violations == 0,
            {"min_slack": worst},
        )
    ]


def _suite_stopping(trials, seed, negative, traces):
    checked = 0
    violations = 0
    for trace in traces():
        for report in check_stopping_bound(trace):
            if report.applicable:
                checked += 1
                violations += 0 if report.passed else 1
    return [CheckReport("stopping_bound", checked, float(violations), 0.0, violations == 0)]


_SUITES = {
    "concentration": _suite_concentration,
    "sgd": _suite_sgd,
    "lipschitz-integral": _suite_lipschitz_integral,
    "gsp-core": _suite_gsp_core,
    "mbb-core": _suite_mbb_core,
    "epoch": _suite_epoch,
    "stopping": _suite_stopping,
}
_WITHOUT_NEGATIVE = ("epoch", "stopping")


def cmd_verify(args) -> int:
    names = args.suites or ["all"]
    if names == ["all"]:
        names = [s for s in _SUITES if not (args.negative and s in _WITHOUT_NEGATIVE)]
    for name in names:
        if name not in _SUITES:
            raise CliError(EXIT_SCHEMA, f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
        if args.negative and name in _WITHOUT_NEGATIVE:
            raise CliError(EXIT_SCHEMA, f"{name} has no negative control")
    if args.trials < 1:
        raise CliError(EXIT_SCHEMA, f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise CliError(EXIT_SCHEMA, f"--seed must be non-negative, got {args.seed}")
    # Every suite takes `traces`, which simulates the verification traces
    # on its first call and hands the same list to later suites of this
    # invocation.
    shared: list = []

    def traces() -> list:
        if not shared:
            shared.extend(_verification_traces(args.seed))
        return shared

    reports = []
    for name in names:
        reports.extend(_SUITES[name](args.trials, args.seed, args.negative, traces))
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"[{status}] {report.checker}: statistic {report.statistic:.6g} "
            f"vs bound {report.bound:.6g} ({report.trials} trials)"
        )
    _write_json(args.out, [r.as_dict() for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# ---------------------------------------------------------------------------
# counterexample


def cmd_counterexample(args) -> int:
    caps = args.mu_cap or [1.0, 9.0, 99.0]
    rows = [counterexample_report(cap, args.horizon) for cap in caps]
    for row in rows:
        print(
            f"mu_cap {row['mu_cap']:g}: welfare {row['realized_welfare']:.6g} "
            f"of benchmark {row['benchmark_welfare']:.6g} -> ratio {row['ratio']:.6g}"
        )
    _write_json(args.out, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacesim",
        description="budget-pacing dynamics in repeated auctions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and dump traces")
    run.add_argument("config", help="scenario file path or bundled name")
    run.add_argument("-o", "--out", default="pacesim-out", help="output directory")
    run.add_argument("-R", "--replications", type=int)
    run.add_argument("--summary-only", action="store_true", help="skip per-trace CSVs")
    run.add_argument("--set", action="append", default=[], metavar="PATH=VALUE")
    run.set_defaults(fn=cmd_run)

    wel = sub.add_parser("welfare", help="welfare replications vs the ex-ante optimum")
    wel.add_argument("config")
    wel.add_argument("-R", "--replications", type=int)
    wel.add_argument("-o", "--out", help="write the JSON report here")
    wel.add_argument("--rule-csv", help="write the optimal per-scenario rule here")
    wel.add_argument("--set", action="append", default=[], metavar="PATH=VALUE")
    wel.set_defaults(fn=cmd_welfare)

    reg = sub.add_parser("regret", help="dynamic regret of a single pacing agent")
    reg.add_argument("config")
    reg.add_argument("-R", "--replications", type=int)
    reg.add_argument("--horizons", help="comma-separated horizons for an exponent fit")
    reg.add_argument("-o", "--out", help="write the JSON report here")
    reg.add_argument("--curves", help="write a mu,Z,V,H,W CSV here")
    reg.add_argument("--svg", help="write a multiplier-path SVG here")
    reg.add_argument("--set", action="append", default=[], metavar="PATH=VALUE")
    reg.set_defaults(fn=cmd_regret)

    ver = sub.add_parser("verify", help="run inequality checkers")
    ver.add_argument("suites", nargs="*", help=f"subset of {sorted(_SUITES)} or 'all'")
    ver.add_argument("--trials", type=int, default=100_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--negative", action="store_true", help="run negative controls")
    ver.add_argument("-o", "--out", help="write JSON reports here")
    ver.set_defaults(fn=cmd_verify)

    cex = sub.add_parser("counterexample", help="no-regret, low-welfare scenario")
    cex.add_argument("--mu-cap", type=float, action="append")
    cex.add_argument("--horizon", type=int, default=1000)
    cex.add_argument("-o", "--out", help="write the JSON report here")
    cex.set_defaults(fn=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UnboundedError, IterationLimitError, InvariantViolationError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SchemaError as exc:  # raised for the scenario file alone
        print(f"error: {args.config}:{exc.line or 1}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EnvironmentError_ as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENV
    except (
        ConfigurationError,
        PreconditionError,
        SmoothingRequiredError,
        StatisticsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
