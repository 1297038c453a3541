"""Output checks behind the benchmark's failure count, with the independent
references they compare against.

Each check takes an output and returns True when it is correct; the
negative controls in selftest.py feed every one of them a broken output.
Bit-for-bit comparisons look at the raw 64-bit patterns, so NaN payloads
and signed zeros count.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TRACE_ARRAYS = (
    "values",
    "multipliers",
    "bids",
    "allocations",
    "payments",
    "remaining_budgets",
)

#: Relative agreement required between the built-in simplex and HiGHS.
LP_REL_TOL = 1e-7

#: Relative agreement between an ex-ante rule's value and its recomputation.
EX_ANTE_REL_TOL = 1e-9


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def traces_identical(a, b) -> bool:
    """All six per-round arrays of two traces agree bit for bit."""
    return all(same_bits(getattr(a, f), getattr(b, f)) for f in TRACE_ARRAYS)


# ---------------------------------------------------------------------------
# market


def scalar_replay(config, seed_child) -> dict:
    """Replay one replication round by round through the scalar
    `auctions.allocate` and `pacing.compute_bid`/`pacing.update`, drawing
    its values from the replication's spawned substream."""
    from pacesim.auctions import allocate
    from pacesim.pacing import EXHAUSTION_FRACTION, compute_bid, init_state, update
    from pacesim.simulation import PacedAgent

    T, n = config.horizon, config.n_agents
    rng = np.random.Generator(np.random.Philox(seed_child))
    idx = config.value_model.sample_indices(rng, T)
    profiles = config.value_model.profiles
    states, script_left, script_bids = {}, {}, {}
    for k, spec in enumerate(config.agents):
        if isinstance(spec, PacedAgent):
            states[k] = init_state(config.agent_config(k))
        else:
            script_left[k] = spec.budget
            script_bids[k] = spec.bids_over(T)
    out = {f: np.empty((T, n)) for f in TRACE_ARRAYS}
    stop_rounds = np.full(n, T + 1, dtype=np.int64)
    for t in range(T):
        values = profiles[idx[t]]
        bids = []
        for k in range(n):
            if k in states:
                state = states[k]
                out["remaining_budgets"][t, k] = state.remaining_budget
                if state.stopped:
                    out["multipliers"][t, k] = np.nan
                    bids.append(0.0)
                else:
                    out["multipliers"][t, k] = state.multiplier
                    bids.append(compute_bid(state, float(values[k])))
            else:
                out["remaining_budgets"][t, k] = script_left[k]
                out["multipliers"][t, k] = np.nan
                bids.append(min(script_bids[k][t], script_left[k]))
        outcome = allocate(config.mechanism, bids)
        out["values"][t] = values
        out["bids"][t] = bids
        out["allocations"][t] = outcome.allocations
        out["payments"][t] = outcome.payments
        for k in range(n):
            pay = outcome.payments[k]
            if k in states and not states[k].stopped:
                states[k] = update(states[k], pay)
                budget = states[k].config.budget
                if states[k].remaining_budget < EXHAUSTION_FRACTION * budget:
                    stop_rounds[k] = t + 2
            elif k in script_left:
                script_left[k] -= pay
    out["scenario_indices"] = idx
    out["stop_rounds"] = stop_rounds
    return out


def replay_matches(trace, replay: dict) -> bool:
    """The engine's trace equals the scalar replay bit for bit."""
    return (
        all(same_bits(getattr(trace, f), replay[f]) for f in TRACE_ARRAYS)
        and np.array_equal(trace.scenario_indices, replay["scenario_indices"])
        and np.array_equal(trace.stop_rounds, replay["stop_rounds"])
    )


def market_ok(report, totals: dict) -> bool:
    """Half-of-optimum bound passed, epochs were checked, and no epoch or
    stopping-bound violation occurred."""
    return (
        bool(report.passed)
        and totals["epochs_checked"] > 0
        and totals["epoch_violations"] == 0
        and totals["stopping_violations"] == 0
    )


# ---------------------------------------------------------------------------
# regret


def regret_ok(reports, tol: float) -> bool:
    """Every run stays within both analytic bounds and every perfect-
    sequence spend residual is within the bisection tolerance."""
    return bool(reports) and all(
        r.sgd_regret <= r.sgd_bound
        and r.value_regret <= r.value_bound
        and float(np.max(r.perfect.residuals)) <= tol
        for r in reports
    )


# ---------------------------------------------------------------------------
# certify


def verify_ok(exit_code: int, output: str) -> bool:
    """A `pacesim verify` run exited 0 and printed no failing checker."""
    return exit_code == 0 and "[FAIL]" not in output and "[PASS]" in output


def reference_ex_ante_value(model, feasible, budgets, horizon) -> float:
    """The ex-ante program solved by HiGHS, formulated here independently:
    max sum w_k  s.t.  w_k <= B_k,  w_k <= T sum_s p_s v_sk y_sk, and each
    scenario's y_s in the feasible set (single slot: sum_k y_sk <= 1;
    polymatroid: every agent subset A has sum_{k in A} y_sk <= the sum of
    the |A| largest click rates)."""
    from scipy.optimize import linprog

    from pacesim.auctions import SingleSlot

    S, n = model.profiles.shape
    nv = S * n + n
    rows, rhs = [], []
    for k in range(n):
        row = np.zeros(nv)
        row[S * n + k] = 1.0
        row[[s * n + k for s in range(S)]] = -horizon * model.probs * model.profiles[:, k]
        rows.append(row)
        rhs.append(0.0)
    if isinstance(feasible, SingleSlot):
        subsets = [tuple(range(n))]
        caps = [1.0]
    else:
        rates = sorted(feasible.click_rates, reverse=True) + [0.0] * n
        subsets = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
        caps = [float(sum(rates[: len(c)])) for c in subsets]
    for s in range(S):
        for subset, cap in zip(subsets, caps):
            row = np.zeros(nv)
            row[[s * n + k for k in subset]] = 1.0
            rows.append(row)
            rhs.append(cap)
    c = np.zeros(nv)
    c[S * n :] = -1.0
    bounds = [(0.0, None)] * (S * n) + [(0.0, float(b)) for b in budgets]
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def close(value: float, reference: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rel * max(1.0, abs(reference))


def lp_ok(value: float, reference: float) -> bool:
    return close(value, reference, LP_REL_TOL)


def ex_ante_ok(rule_value: float, recomputed: float) -> bool:
    return close(rule_value, recomputed, EX_ANTE_REL_TOL)
