"""Per-layer metrics of a traced run, computed from the tracer's spans and
counts.  Every metric is reported on every workload; one that a workload
never exercises reads 0 there.  Times are seconds per traced pass (the
median over traced passes), counts are per pass."""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import MODULES

#: Modules whose self time is reported; `pacing` is left out because the
#: engines inline its update, so it only runs in the output checks.
SELF_TIME_MODULES = tuple(m for m in MODULES if m != "pacing") + ("bench",)

PER_LAYER = (
    ("simulation.replicate_s", "s"),
    ("simulation.ns_per_agent_round", "ns"),
    ("simulation.row_rounds", "count"),
    ("simulation.sample_s", "s"),
    ("simulation.record_mb_computed", "MB_computed"),
    ("simulation.epoch_stats_s", "s"),
    ("simulation.epochs_checked", "count"),
    ("simulation.epoch_violations", "count"),
    ("simulation.save_trace_s", "s"),
    ("simulation.load_trace_s", "s"),
    ("simulation.trace_bytes", "bytes"),
    ("simulation.trace_mb_per_s", "MB/s"),
    ("welfare.liquid_welfare_s", "s"),
    ("welfare.solve_s", "s"),
    ("welfare.build_s", "s"),
    ("lp.solve_s", "s"),
    ("lp.pivots", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("regret.simulate_s", "s"),
    ("regret.row_rounds", "count"),
    ("regret.analysis_s", "s"),
    ("regret.perfect_sequence_s", "s"),
    ("regret.perfect_multiplier_calls", "count"),
    ("regret.spend_value_calls", "count"),
    ("regret.spend_value_points", "count"),
    ("regret.quadrature_s", "s"),
    ("regret.smoothing_s", "s"),
    ("verify.fuzz_mechanisms_s", "s"),
    ("auctions.allocate_calls", "count"),
    ("auctions.allocate_us", "us"),
    ("verify.concentration_s", "s"),
    ("verify.gsp_core_fuzz_s", "s"),
    ("verify.lipschitz_s", "s"),
    ("verify.sgd_s", "s"),
    ("verify.trace_suites_s", "s"),
    ("config.load_s", "s"),
) + tuple((f"module.{m}.self_s", "s") for m in SELF_TIME_MODULES) + (
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.spans_per_pass", "count"),
    ("bench.unaccounted_s", "s"),
)


def span_times(spans, pass_ids) -> tuple[dict, dict, dict]:
    """Per span name, over the spans of the given passes: inclusive time of
    the outermost calls, self time (duration minus the part its direct
    children cover), and call count."""
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_cover = defaultdict(float)
    for span in spans:
        if span[4] in pass_ids and span[3] >= 0:
            child_cover[span[3]] += span[2] - span[1]
    for i, (name, start, end, parent, pid) in enumerate(spans):
        if pid not in pass_ids:
            continue
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - child_cover.get(i, 0.0)
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            inclusive[name] += duration
    return inclusive, self_time, calls


def module_of(span_name: str) -> str:
    return span_name.split(".")[0]


def _outer_time(spans, pass_ids, modules) -> float:
    """Time in spans of the given modules, counting only those without an
    ancestor from the same modules."""
    total = 0.0
    for name, start, end, parent, pid in spans:
        if pid not in pass_ids or module_of(name) not in modules:
            continue
        p = parent
        while p >= 0 and module_of(spans[p][0]) not in modules:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _one_pass(tracer, pid, wall) -> dict:
    inc, self_time, calls = span_times(tracer.spans, {pid})
    count = lambda name: tracer.total(name, {pid})  # noqa: E731
    agent_rounds = count("simulation.agent_rounds")
    replicate_s = self_time.get("simulation.replicate", 0.0)
    allocate_calls = calls.get("auctions.allocate", 0)
    lp_s = inc.get("lp.solve_lp_max", 0.0)
    solve_s = inc.get("welfare.solve_ex_ante_optimum", 0.0)
    moved = count("simulation.bytes_written") + count("simulation.bytes_read")
    out = {
        "simulation.replicate_s": replicate_s,
        "simulation.ns_per_agent_round": 1e9 * replicate_s / agent_rounds if agent_rounds else 0.0,
        "simulation.row_rounds": count("simulation.row_rounds"),
        "simulation.sample_s": inc.get("simulation.ValueModel.sample_indices", 0.0),
        "simulation.record_mb_computed": agent_rounds * 6 * 8 / 1e6,
        "simulation.epoch_stats_s": inc.get("simulation.epoch_bound_stats", 0.0)
        + inc.get("simulation.check_stopping_bound", 0.0),
        "simulation.epochs_checked": count("simulation.epochs_checked"),
        "simulation.epoch_violations": count("simulation.epoch_violations"),
        "simulation.save_trace_s": inc.get("simulation.save_trace", 0.0),
        "simulation.load_trace_s": inc.get("simulation.load_trace", 0.0),
        "simulation.trace_bytes": count("simulation.bytes_written"),
        "simulation.trace_mb_per_s": moved / 1e6 / wall,
        "welfare.liquid_welfare_s": inc.get("welfare.liquid_welfare", 0.0),
        "welfare.solve_s": solve_s,
        "welfare.build_s": solve_s - lp_s if solve_s else 0.0,
        "lp.solve_s": lp_s,
        "lp.pivots": count("lp.pivots"),
        "lp.rows": count("lp.rows"),
        "lp.cols": count("lp.cols"),
        "regret.simulate_s": inc.get("regret.simulate_pacing", 0.0),
        "regret.row_rounds": count("regret.row_rounds"),
        "regret.analysis_s": inc.get("regret.dynamic_regret_batch", 0.0),
        "regret.perfect_sequence_s": inc.get("regret.perfect_sequence", 0.0),
        "regret.perfect_multiplier_calls": calls.get("regret.perfect_multiplier", 0),
        "regret.spend_value_calls": calls.get("regret.EnvironmentStep.spend_value", 0),
        "regret.spend_value_points": count("regret.spend_value_points"),
        "regret.quadrature_s": inc.get("regret.objective_values", 0.0)
        + inc.get("regret.surrogate_objective", 0.0),
        "regret.smoothing_s": inc.get("regret.measure_smoothing", 0.0),
        "verify.fuzz_mechanisms_s": inc.get("verify.fuzz_mechanisms", 0.0),
        "auctions.allocate_calls": allocate_calls,
        "auctions.allocate_us": 1e6 * inc.get("auctions.allocate", 0.0) / allocate_calls
        if allocate_calls
        else 0.0,
        "verify.concentration_s": inc.get("verify.concentration_check", 0.0),
        "verify.gsp_core_fuzz_s": inc.get("verify.gsp_exhaustive_core_fuzz", 0.0),
        "verify.lipschitz_s": inc.get("verify.lipschitz_integral_check", 0.0),
        "verify.sgd_s": inc.get("verify.sgd_regret_check", 0.0),
        "verify.trace_suites_s": inc.get("cli.suite.epoch", 0.0)
        + inc.get("cli.suite.stopping", 0.0),
        "bench.spans_per_pass": sum(calls.values()),
    }
    for m in SELF_TIME_MODULES:
        out[f"module.{m}.self_s"] = sum(
            t for name, t in self_time.items() if module_of(name) == m
        )
    # The module self times plus the benchmark's own add up to the pass.
    out["bench.unaccounted_s"] = wall - sum(out[f"module.{m}.self_s"] for m in SELF_TIME_MODULES)
    return out


def per_layer(tracer, traced: dict, untraced: dict) -> dict:
    """Median over traced passes of each per-layer number.

    traced and untraced map pass ids to pass wall times."""
    rows = [_one_pass(tracer, pid, wall) for pid, wall in traced.items()]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["config.load_s"] = _outer_time(tracer.spans, {"setup"}, {"config", "scenarios"})
    traced_wall = statistics.median(traced.values())
    untraced_wall = statistics.median(untraced.values())
    out["bench.traced_wall_s"] = traced_wall
    out["bench.untraced_wall_s"] = untraced_wall
    out["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}
