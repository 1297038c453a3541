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
import functools
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
    _curve_points,
    _distinct,
    _throttle,
    dynamic_regret_batch,
    fit_growth_exponent,
    simulate_pacing,
)
from .simulation import replicate, save_trace, trace_envelope
from .simulation import _mean_stderr, _write_csv, _write_json
from .svgplot import line_chart
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


def _read_config_text(path: str) -> str:
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    try:
        return scenarios.scenario_text(path)
    except ConfigurationError:
        raise FileNotFoundError(f"no such config file or bundled scenario: {path}")


def _load_scenario(path: str, overrides: list[str]) -> tuple[Scenario, str]:
    """The scenario at path with the --set overrides applied, and its text."""
    text = _read_config_text(path)
    return validate_scenario(apply_overrides(decode_json(text), overrides), text), text


def _replications(args, scenario: Scenario, default: int) -> int:
    """-R if given (at least 1), else the scenario's count, else default."""
    if args.replications is None:
        return scenario.replications if scenario.replications is not None else default
    if args.replications < 1:
        raise ConfigurationError(f"-R/--replications must be at least 1, got {args.replications}")
    return args.replications


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    scenario, _text = _load_scenario(args.config, args.set)
    config = scenario.config
    reps = _replications(args, scenario, 1)
    os.makedirs(args.out, exist_ok=True)

    def reduce(trace, index):
        stem = os.path.join(args.out, f"trace_{index + 1:04d}")
        envelope = trace_envelope(trace) if args.summary_only else save_trace(
            trace, stem + ".csv", stem + ".json", config_doc=scenario.doc)
        return envelope["summary"]["total_spend"], envelope["summary"]["liquid_value"]

    results = replicate(config, reps, reduce)
    spends = np.array([s for s, _ in results])
    liquids = np.array([w for _, w in results])
    welfare_mean, welfare_stderr = _mean_stderr(liquids.sum(axis=1))
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
        "welfare_mean": welfare_mean,
        "welfare_stderr": welfare_stderr,
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
        raise ConfigurationError("welfare needs at least 2 replications")
    # The bound needs horizon >= 1; check it before the solve and the runs.
    welfare_bound_slack(config.n_agents, config.value_model.value_cap, config.horizon)

    rule = solve_ex_ante_optimum(
        config.value_model,
        config.mechanism.feasible,
        [a.budget for a in config.agents],
        config.horizon,
    )

    results = replicate(
        config, reps, lambda trace, _i: (liquid_welfare(trace).total, trace.payments.sum())
    )
    samples = np.array([w for w, _ in results])
    spends = np.array([p for _, p in results])
    report = verify_welfare_bound(
        samples,
        rule.value,
        config.n_agents,
        config.value_model.value_cap,
        config.horizon,
        min_replications=2,
    )

    payload = report.as_dict()
    payload["mean_total_spend"] = float(spends.mean())
    payload["spend_at_most_welfare"] = bool(
        spends.mean() - Z99 * spends.std(ddof=1) / math.sqrt(reps) <= report.mean
    )
    payload["optimum_rule"] = rule.allocations.tolist()
    if args.rule_csv:
        rule_to_csv(rule.allocations, args.rule_csv)
    _write_json(args.out, payload)
    print(f"expected welfare {report.mean:.6g} +- {report.stderr:.3g} over {reps} reps")
    print(f"ex-ante optimum {report.optimum:.6g}, ratio {report.ratio:.4f}")
    print(f"bound rhs {report.rhs:.6g} -> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# regret


def _parse_horizons(raw: str | None, default: int) -> list[int]:
    if not raw:
        return [default]
    try:
        horizons = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise ConfigurationError(f"bad --horizons value {raw!r}")
    if not horizons or any(h < 1 for h in horizons):
        raise ConfigurationError("horizons must be positive integers")
    if len(set(horizons)) < len(horizons):
        raise ConfigurationError(f"--horizons repeats a horizon: {raw!r}")
    return horizons


def cmd_regret(args) -> int:
    scenario, text = _load_scenario(args.config, args.set)
    horizons = _parse_horizons(args.horizons, scenario.config.horizon)
    reps = _replications(args, scenario, 20)

    per_horizon = []
    for T in horizons:
        # Regret's own refusals of the scenario, at the line at fault.
        with anchored(text):
            scen = scenarios._at_horizon(scenario, T, text)
            _agent, envs, params = scenarios.regret_environment(scen)
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
                    value_mean, value_stderr = _mean_stderr([r.value_regret for r in reports])
                    sgd_regrets = np.array([r.sgd_regret for r in reports])
                    shared = reports[0].as_dict()  # the figures every run of T shares
                    entry = {
                        "horizon": T,
                        "replications": reps,
                        "learning_rate": eps,
                        "value_regret_mean": value_mean,
                        "value_regret_stderr": value_stderr,
                        "sgd_regret_mean": float(sgd_regrets.mean()),
                        "sgd_regret_max": float(sgd_regrets.max()),
                        **{key: shared[key] for key in (
                            "sgd_bound", "value_bound", "path_length", "lambda",
                            "delta_absolute", "delta_relative")},
                    }
            except SmoothingRequiredError as exc:  # the spend curve steps: smoothing.eta is short
                raise ConfigurationError(str(exc), ("smoothing", "eta")) from exc
            except FloatingPointError as exc:
                raise ConfigurationError(
                    f"values too large for the regret analysis ({exc})", ("value_model",)
                ) from exc
        per_horizon.append(entry)
        if args.svg:  # copies: a run's row would keep the whole record alive
            chart = (runs[0].multipliers.copy(), reports[0].perfect.multipliers.copy())
        del runs, reports  # before the next horizon plays

    payload: dict = {"per_horizon": per_horizon}
    if len(horizons) > 1:
        means = [e["value_regret_mean"] for e in per_horizon]
        if all(m > 0 for m in means):
            payload["exponent_fit"] = fit_growth_exponent(horizons, means)
        else:
            payload["exponent_fit"] = None

    if args.curves:  # the last horizon's environments
        _dump_curves(args.curves, envs, params)
    if args.svg:
        played, perfect = chart
        rounds = list(range(1, len(played) + 1))
        line_chart(
            args.svg,
            [
                ("multiplier", rounds, np.nan_to_num(played).tolist()),
                ("perfect", rounds, perfect.tolist()),
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
    grid = np.linspace(0.0, params["mu_cap"], 201)
    rho = params["target_rate"]
    segments = []
    for i, (env, _rounds) in enumerate(_distinct(envs)):
        z, v, h = _curve_points(env, rho, grid)
        segments.append(np.column_stack([np.full(len(grid), i), grid, z, v, h, _throttle(z, v, rho)]))
    _write_csv(path, ("segment", "mu", "Z", "V", "H", "W"), np.concatenate(segments), 1)


# ---------------------------------------------------------------------------
# verify

#: `verify.SUITES` itself, not a copy: cmd_verify calls every suite through it.
_SUITES = verify.SUITES


def cmd_verify(args) -> int:
    everything = args.suites in ([], ["all"])
    names = []
    for name in _SUITES if everything else args.suites:
        if name not in _SUITES:
            raise ConfigurationError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
        if not (args.negative and name in verify.WITHOUT_CONTROL):
            names.append(name)
        elif not everything:
            raise ConfigurationError(f"{name} has no negative control")
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    # Every suite takes `traces`, which simulates the verification traces
    # on its first call and hands the same list to later suites of this
    # invocation.
    traces = functools.cache(functools.partial(verify.verification_traces, args.seed))
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
    except OSError as exc:  # any file a command reads or writes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
