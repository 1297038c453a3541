"""Seeded market simulation: paced and scripted agents in a repeated auction.

Value profiles are drawn i.i.d. across rounds from a finite-support joint
distribution, every agent submits a bid, the mechanism allocates and
charges, and each pacing agent updates its multiplier.  The full per-round
record (values, multipliers, bids, allocations, payments, remaining
budgets) is a Trace.  The engine records values, multipliers, allocations
and payments; bids and remaining budgets are exact functions of those, so
each trace derives them on first read, with the round's own ufuncs in the
round's order.

Replications run in lockstep as rows of vectorized state arrays, one
counter-based RNG substream per replication, so a batch of runs of any
chunk size is bit-identical to running each replication alone.  The
lockstep round (bids, the auction, the projected multiplier update and
budget exhaustion) is _Lockstep.play, which regret.simulate_pacing plays
too, its agent the one paced column.  One play call runs a whole record
block of _RECORD_ROUNDS rounds, time-major, into buffers its caller owns;
the state lives in the block's B + 1 rows of multipliers and opening
budgets, round j reading row j and writing row j + 1, and x and z are
zeroed once a block.  Each replication's recorded arrays are allocated up
front; its values are taken from the profiles in one call, and its
multipliers, allocations and payments are filled from the block, so a
chunk holds its record once; replicate sizes its chunks from the
_CHUNK_BYTES memory budget.  The block holds multipliers unmasked; each
trace then gets, once, NaN multipliers in the scripted columns and, in
each paced agent's column, from its stop on.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .auctions import Mechanism, _kernel
from .errors import ConfigurationError
from .pacing import EXHAUSTION_FRACTION, AgentConfig, _stopping_bound, _stopping_rule

EPOCH_TOL = 1e-9


def atom_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup: the support point each uniform in u selects
    under the finite distribution probs (any shape of u)."""
    return np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), len(probs) - 1)


@dataclass(frozen=True)
class ValueModel:
    """Finite-support joint distribution over per-agent value profiles.

    Each support point is a probability and one value per agent; points may
    carry impression-type labels.  Profiles are drawn independently across
    rounds.  An error's path is that in a scenario's value_model entry, down
    to the first probability or value at fault.
    """

    probs: np.ndarray
    profiles: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        profiles = np.atleast_2d(np.asarray(self.profiles, dtype=np.float64)) + 0.0  # -0.0 -> 0.0
        if probs.ndim != 1 or profiles.ndim != 2 or len(probs) != len(profiles):
            raise ConfigurationError("need one probability per value profile", ("support",))
        if len(probs) == 0:
            raise ConfigurationError("empty support", ("support",))
        for field, entries in (("prob", probs), ("values", profiles)):
            bad = ~(entries >= 0) | (entries == math.inf)  # NaN fails >= 0
            if bad.any():
                i, *k = map(int, np.unravel_index(np.argmax(bad), bad.shape))
                raise ConfigurationError(
                    f"probabilities and values must be finite and >= 0, got {entries[bad][0]}",
                    ("support", i, field, *k),
                )
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ConfigurationError(f"probabilities sum to {probs.sum()}, not 1", ("support",))
        if self.labels is not None and len(self.labels) != len(probs):
            raise ConfigurationError("one label per support point", ("labels",))
        probs.flags.writeable = False
        profiles.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "profiles", profiles)

    @property
    def n_agents(self) -> int:
        return self.profiles.shape[1]

    @property
    def support_size(self) -> int:
        return self.profiles.shape[0]

    @property
    def value_cap(self) -> float:
        """Uniform value bound, at least 1 by the scaling convention."""
        return max(1.0, float(self.profiles.max()))

    def sample_indices(self, rng: np.random.Generator, horizon: int) -> np.ndarray:
        return atom_indices(self.probs, rng.random(horizon)).astype(np.int64)


def _check_number(spec, name: str, positive=False, integer=False, path=None) -> None:
    """Refuse a number field of spec (None passes) that is not finite, is
    negative, is 0 if positive or is fractional if integer; an integer
    field is stored as an int.  The error's path is path, else (name,)."""
    value, path = getattr(spec, name), path or (name,)
    if value is None:
        return
    what = ".".join(path)
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value}", path)
    if integer and int(value) != value:
        raise ConfigurationError(f"{what} must be an integer, got {value}", path)
    if value < 0 or (positive and value == 0):
        rule = "positive" if positive else "non-negative"
        raise ConfigurationError(f"{what} must be {rule}, got {value}", path)
    if integer:
        object.__setattr__(spec, name, int(value))


@dataclass(frozen=True)
class PacedAgent:
    """An agent running the gradient pacing algorithm.

    learning_rate and mu_cap default at simulation time to 1/sqrt(horizon)
    and value_cap/target_rate.
    """

    budget: float
    learning_rate: float | None = None
    mu_cap: float | None = None

    def __post_init__(self):
        _check_number(self, "budget", positive=True)
        _check_number(self, "learning_rate", positive=True)
        _check_number(self, "mu_cap")


@dataclass(frozen=True)
class ScriptedAgent:
    """A fixed-script opponent: a constant bid or a piecewise-constant schedule.

    schedule entries are (last_round, bid) with increasing integer
    boundaries; bids are clamped to the remaining budget so scripted agents
    also satisfy the ex-post budget constraint.  An error's path is that in
    a scenario's agent entry, where bid and schedule sit under "script".
    """

    budget: float
    bid: float | None = None
    schedule: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        _check_number(self, "budget", positive=True)
        if (self.bid is None) == (self.schedule is None):
            raise ConfigurationError("give exactly one of bid or schedule", ("script",))
        _check_number(self, "bid", path=("script", "bid"))
        if self.schedule is not None:
            if not self.schedule:
                raise ConfigurationError(
                    "a schedule needs at least one segment", ("script", "schedule")
                )
            last = 0
            for j, (until, bid) in enumerate(self.schedule):
                at = ("script", "schedule", j)
                if not (last < until < math.inf and int(until) == until):
                    raise ConfigurationError(
                        f"schedule rounds must be increasing integers, got {until}", (*at, 0)
                    )
                if not 0 <= bid < math.inf:
                    raise ConfigurationError(
                        f"schedule bids must be finite and non-negative, got {bid}", (*at, 1)
                    )
                last = until
            object.__setattr__(self, "schedule", tuple((int(u), b) for u, b in self.schedule))

    def bids_over(self, horizon: int) -> np.ndarray:
        """The script's bid in each round, with -0.0 read as 0.0."""
        if self.bid is not None:
            return np.full(horizon, float(self.bid) + 0.0)
        out = np.empty(horizon)
        start = 0
        for until, bid in self.schedule:
            out[start : min(until, horizon)] = bid + 0.0
            start = min(until, horizon)
        if start < horizon:
            out[start:] = self.schedule[-1][1] + 0.0
        return out


AgentSpec = PacedAgent | ScriptedAgent


@dataclass(frozen=True)
class SimulationConfig:
    """A market over a horizon, seeded: both are non-negative integers.  An
    error on a paced agent's resolved AgentConfig has path ("agents", k, ...)."""

    mechanism: Mechanism
    agents: tuple[AgentSpec, ...]
    value_model: ValueModel
    horizon: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        _check_number(self, "horizon", integer=True)
        _check_number(self, "seed", integer=True)  # as SeedSequence takes it
        if len(self.agents) != self.value_model.n_agents:
            raise ConfigurationError(
                f"{len(self.agents)} agents but value model has dimension "
                f"{self.value_model.n_agents}"
            )
        for k, spec in enumerate(self.agents):
            if isinstance(spec, PacedAgent) and self.horizon > 0:
                try:
                    self.agent_config(k)  # the resolved pacing parameters must be valid
                except ConfigurationError as exc:
                    raise ConfigurationError(f"agent {k}: {exc}", ("agents", k, *exc.path)) from exc

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def agent_config(self, k: int) -> AgentConfig:
        """Resolved pacing parameters for agent k (must be paced)."""
        spec = self.agents[k]
        if not isinstance(spec, PacedAgent):
            raise ConfigurationError(f"agent {k} is scripted")
        return AgentConfig(
            budget=spec.budget,
            horizon=self.horizon,
            learning_rate=spec.learning_rate,
            mu_cap=spec.mu_cap,
            value_cap=self.value_model.value_cap,
        )


class _Derived:
    """A Trace field that may be given as a function of the trace: the
    first read calls it and caches the array in its place.  The value is
    stored under the field's own name in the instance dict, so
    Trace(**trace.__dict__) copies a trace whether or not it was read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, trace, owner=None):
        if trace is None:
            raise AttributeError(self.name)  # no class-level default: the field stays required
        value = trace.__dict__[self.name]
        if callable(value):
            value = trace.__dict__[self.name] = value(trace)
        return value

    def __set__(self, trace, value):
        trace.__dict__[self.name] = value


@dataclass(frozen=True)
class Trace:
    """Per-round record of one simulation run.

    Arrays are (horizon, n_agents); multipliers are NaN for scripted agents
    and for paced agents after they stop.  remaining_budgets holds each
    agent's budget at the start of the round.  stop_rounds is the first
    round an agent could no longer bid (horizon + 1 if it never ran out).

    values, multipliers, allocations and payments are recorded.  bids and
    remaining_budgets may be given as arrays (load_trace does) or, as the
    engine gives them, as functions of the trace, computed on first read
    and cached: remaining_budgets from budgets and payments
    (_opening_budgets), bids from values, multipliers, remaining_budgets
    and stop_rounds plus the scripted agents' bids (_derived_bids).
    """

    values: np.ndarray
    multipliers: np.ndarray
    bids: np.ndarray = _Derived()
    allocations: np.ndarray
    payments: np.ndarray
    remaining_budgets: np.ndarray = _Derived()
    budgets: np.ndarray
    agent_kinds: tuple[str, ...]
    target_rates: np.ndarray
    learning_rates: np.ndarray
    mu_caps: np.ndarray
    value_cap: float
    stop_rounds: np.ndarray
    scenario_indices: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]


#: The Trace's per-round (T, n) arrays, in the order of the CSV's value columns.
_TRACE_FIELDS = ("values", "multipliers", "bids", "allocations", "payments", "remaining_budgets")
#: The fields the engine copies out of each record block; values come from
#: the profiles and the other two fields are derived.
_RECORDED = ("multipliers", "allocations", "payments")


def _opening_budgets(trace: Trace) -> np.ndarray:
    """Each agent's budget at the start of each round: the budget less the
    payments before it, subtracted one round at a time as the round does
    (a stopped agent pays +0.0, so its last budget carries forward)."""
    out = np.empty(trace.payments.shape)
    if len(out):
        out[0] = trace.budgets
        out[1:] = trace.payments[:-1]
        np.subtract.accumulate(out, axis=0, out=out)
    return out


def _derived_bids(script_bids: np.ndarray, trace: Trace) -> np.ndarray:
    """The bids the round made: value/(1 + mu) for paced agents and the
    script for the others (script_bids, (T, n), read in the scripted
    columns), clamped to the opening budget; 0 from a paced agent's stop on."""
    bids = np.add(trace.multipliers, 1.0)
    np.divide(trace.values, bids, out=bids)
    paced = np.array(trace.agent_kinds) == "paced"
    bids[:, ~paced] = script_bids[:, ~paced]
    np.minimum(bids, trace.remaining_budgets, out=bids)
    for k in np.flatnonzero(paced):
        bids[trace.stop_rounds[k] - 1 :, k] = 0.0
    return bids


def _resolve_params(config: SimulationConfig):
    n = config.n_agents
    paced = np.array([isinstance(a, PacedAgent) for a in config.agents])
    budgets = np.array([a.budget for a in config.agents], dtype=np.float64)
    eps = np.full(n, np.nan)
    mu_cap = np.full(n, np.nan)
    rho = np.full(n, np.nan)
    v_cap = config.value_model.value_cap
    for k, spec in enumerate(config.agents):
        if isinstance(spec, PacedAgent) and config.horizon >= 1:
            cfg = config.agent_config(k)
            eps[k] = cfg.learning_rate
            mu_cap[k] = cfg.mu_cap
            rho[k] = cfg.target_rate
    return paced, budgets, eps, mu_cap, rho, v_cap


#: Rounds recorded into the shared time-major block before it is copied
#: out to each replication's own trace arrays.
_RECORD_ROUNDS = 256
#: Trace memory one replicate chunk may hold: six float64 (T, n) arrays a row,
#: so a caller that reads the derived fields too stays within it.
_CHUNK_BYTES = 160 * 2**20


def _chunk_rows(config: SimulationConfig) -> int:
    """Replications per engine chunk whose traces fit in _CHUNK_BYTES."""
    row_bytes = 8 * len(_TRACE_FIELDS) * max(config.horizon, 1) * max(config.n_agents, 1)
    return max(1, _CHUNK_BYTES // row_bytes)


class _Lockstep:
    """Pacing state of `rows` runs of n agents in lockstep.  Each round,
    paced agents bid value/(1 + mu) and unpaced ones their given bid,
    clamped to the budget state; the mechanism runs; paced agents take the
    projected multiplier step and stop once their budget falls below
    EXHAUSTION_FRACTION of the start.

    The per-agent parameters are (rows, n) arrays built once, so no operand
    of a round is broadcast; every cell takes the multiplier step, and the
    stop threshold is -inf where no stop can come.  A stopping agent's
    budget state becomes 0, so the clamp makes it bid 0 and pay 0.0 from
    then on.  The caller writes NaN multipliers into the unpaced columns,
    and into each paced column from round stop_round - 1 on (from 0)."""

    def __init__(self, rows, horizon, paced, budgets, eps, rho, mu_cap):
        shape = (rows, len(budgets))
        self.budgets, self.closed = budgets, 0
        self.unpaced = np.tile(~paced, (rows, 1))
        self.any_unpaced = bool(self.unpaced.any())
        self.eps, self.rho, self.mu_cap = (np.tile(a, (rows, 1)) for a in (eps, rho, mu_cap))
        self.thresh = np.tile(np.where(paced, EXHAUSTION_FRACTION * budgets, -np.inf), (rows, 1))
        self.stop_round = np.full(shape, horizon + 1, dtype=np.int64)
        self.step, self.newly = np.empty(shape), np.empty(shape, dtype=bool)

    def play(self, t0, mechanism, values, bids, mus, rems, b, x, z) -> None:
        """Rounds t0 ... t0 + nb - 1 (from 0), one record block, for values
        (paced agents) and bids (unpaced ones, or None), each (nb, rows, n).
        Round j reads row j of the multipliers mus and opening budgets rems
        and writes row j + 1; row 0 is the start for t0 == 0, else the row
        the last block closed on, so every block passes the same buffers.
        Bids, allocations and payments go to row j of b, x and z."""
        nb = len(values)
        mus[0], rems[0] = (0.0, self.budgets) if t0 == 0 else (mus[self.closed], rems[self.closed])
        self.closed = nb
        x[:nb] = 0.0
        z[:nb] = 0.0
        kernel = _kernel(mechanism, *self.eps.shape)
        add, divide, subtract, multiply, minimum, maximum, less, copyto, count = (
            np.add, np.divide, np.subtract, np.multiply, np.minimum, np.maximum, np.less,
            np.copyto, np.count_nonzero)
        eps, rho, mu_cap, thresh, step, newly = (
            self.eps, self.rho, self.mu_cap, self.thresh, self.step, self.newly)
        bids, unpaced = (bids, self.unpaced) if self.any_unpaced else (None, None)
        for j in range(nb):
            mu, mu_next, rem, rem_next, bj, zj = mus[j], mus[j + 1], rems[j], rems[j + 1], b[j], z[j]
            add(mu, 1.0, out=bj)
            divide(values[j], bj, out=bj)
            if bids is not None:
                copyto(bj, bids[j], where=unpaced)
            minimum(bj, rem, out=bj)
            kernel(bj, x[j], zj)
            # mu <- clip(mu - eps * (rho - z), 0, mu_cap)
            subtract(rho, zj, out=step)
            multiply(eps, step, out=step)
            subtract(mu, step, out=mu_next)
            maximum(mu_next, 0.0, out=mu_next)
            minimum(mu_next, mu_cap, out=mu_next)
            subtract(rem, zj, out=rem_next)
            if count(less(rem_next, thresh, out=newly)):
                self.stop_round[newly] = t0 + j + 2
                rem_next[newly] = 0.0
                thresh[newly] = -np.inf


def _simulate_chunk(config: SimulationConfig, seed_children: Sequence) -> list[Trace]:
    T = config.horizon
    n = config.n_agents
    rc = len(seed_children)
    paced, budgets, eps, mu_cap, rho, v_cap = _resolve_params(config)

    idx = [
        config.value_model.sample_indices(np.random.Generator(np.random.Philox(child)), T)
        for child in seed_children
    ]

    script_bids = np.zeros((T, n))
    for k, spec in enumerate(config.agents):
        if isinstance(spec, ScriptedAgent):
            script_bids[:, k] = spec.bids_over(T)

    game = _Lockstep(rc, T, paced, budgets, eps, rho, mu_cap)

    # Each replication owns its (T, n) arrays: values taken from the
    # profiles, and the _RECORDED fields copied out of each record block.
    profiles = config.value_model.profiles
    taken = [profiles.take(i, axis=0) for i in idx]
    records = [[np.empty((T, n)) for _ in _RECORDED] for _ in range(rc)]
    B = min(_RECORD_ROUNDS, T)
    values, b, x, z = np.empty((4, B, rc, n))
    mus, rems = np.empty((2, B + 1, rc, n))
    block = (mus, x, z)
    scripts = np.empty((B, rc, n)) if game.any_unpaced else None  # the unpaced bids

    for t0 in range(0, T, _RECORD_ROUNDS):
        t1 = min(t0 + B, T)
        np.take(profiles, np.stack([i[t0:t1] for i in idx], axis=1), axis=0, out=values[: t1 - t0])
        if scripts is not None:
            scripts[: t1 - t0] = script_bids[t0:t1, None]
        game.play(t0, config.mechanism, values[: t1 - t0], scripts, mus, rems, b, x, z)
        for r, arrays in enumerate(records):
            for array, rows in zip(arrays, block):
                array[t0:t1] = rows[: t1 - t0, r]

    # Multipliers exist only for paced agents while they are live.
    for r, (multipliers, _x, _z) in enumerate(records):
        multipliers[:, ~paced] = np.nan
        for k in np.flatnonzero(paced):
            multipliers[game.stop_round[r, k] - 1 :, k] = np.nan

    kinds = tuple("paced" if p else "scripted" for p in paced)
    bids = functools.partial(_derived_bids, script_bids)
    return [
        Trace(
            values=taken[r],
            **dict(zip(_RECORDED, arrays)),
            bids=bids,
            remaining_budgets=_opening_budgets,
            budgets=budgets.copy(),
            agent_kinds=kinds,
            target_rates=rho.copy(),
            learning_rates=eps.copy(),
            mu_caps=mu_cap.copy(),
            value_cap=v_cap,
            stop_rounds=game.stop_round[r].copy(),
            scenario_indices=idx[r],
        )
        for r, arrays in enumerate(records)
    ]


def run_simulation(config: SimulationConfig) -> Trace:
    """Run one seeded simulation; identical config and seed give a
    bit-identical trace."""
    return _simulate_chunk(config, [np.random.SeedSequence(config.seed)])[0]


def replicate(
    config: SimulationConfig,
    replications: int,
    reducer: Callable[[Trace, int], object] | None = None,
    chunk_size: int | None = None,
) -> list:
    """Run independent replications on spawned RNG substreams.

    Replication r always uses substream r of the config seed, so results
    are bit-identical for any chunk size.  Replications run in lockstep
    chunks of chunk_size rows; by default as many as keep one chunk's
    traces within _CHUNK_BYTES (at least one).  reducer(trace, rep_index)
    is applied per replication and each chunk's traces are dropped before
    the next chunk runs, keeping memory flat; by default the traces
    themselves are returned.
    """
    if replications < 0:
        raise ConfigurationError("replications must be non-negative")
    if chunk_size is None:
        chunk_size = _chunk_rows(config)
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be at least 1, got {chunk_size}")
    children = np.random.SeedSequence(config.seed).spawn(max(replications, 1))
    results: list = []
    for start in range(0, replications, chunk_size):
        traces = _simulate_chunk(config, children[start : start + chunk_size])
        results.extend(
            trace if reducer is None else reducer(trace, start + j)
            for j, trace in enumerate(traces)
        )
        del traces  # free this chunk before the next one is simulated
    return results


# ---------------------------------------------------------------------------
# Epochs


@dataclass(frozen=True)
class Epoch:
    """Half-open round interval [start, end): multiplier zero at start,
    strictly positive strictly inside, end maximal."""

    start: int
    end: int
    agent: int

    @property
    def length(self) -> int:
        return self.end - self.start


def _live_rounds(trace: Trace, agent: int) -> int:
    return min(int(trace.stop_rounds[agent]) - 1, trace.horizon)


def extract_epochs(trace: Trace, agent: int) -> list[Epoch]:
    """Partition the agent's live rounds [1, stop) into maximal epochs."""
    starts, ends, _checked, _slacks = _epoch_bound_arrays(trace, agent)
    return [Epoch(int(a), int(b), agent) for a, b in zip(starts, ends)]


@dataclass(frozen=True)
class EpochBoundReport:
    agent: int
    epochs: tuple[Epoch, ...]
    checked: tuple[bool, ...]
    slacks: tuple[float, ...]
    tol: float = EPOCH_TOL

    @property
    def n_checked(self) -> int:
        return sum(self.checked)

    @property
    def n_skipped(self) -> int:
        return len(self.epochs) - self.n_checked

    @property
    def min_slack(self) -> float:
        vals = [s for s, c in zip(self.slacks, self.checked) if c]
        return min(vals) if vals else math.inf

    @property
    def violations(self) -> list[Epoch]:
        return [
            e
            for e, s, c in zip(self.epochs, self.slacks, self.checked)
            if c and s < -self.tol
        ]

    @property
    def passed(self) -> bool:
        return not self.violations


def _epoch_bound_arrays(trace: Trace, agent: int):
    """Vectorized epoch boundaries and slacks for one agent: arrays of
    (start, end, checked, slack), where checked means the epoch ends on a
    live round so the sure inequality applies."""
    if trace.agent_kinds[agent] != "paced":
        raise ConfigurationError(f"agent {agent} is scripted and has no multipliers")
    live = _live_rounds(trace, agent)
    if live == 0:
        empty = np.empty(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty.astype(bool), empty
    mus = trace.multipliers[:live, agent]
    zeros = np.flatnonzero(mus == 0.0) + 1
    if len(zeros) == 0 or zeros[0] != 1:
        raise ConfigurationError("pacing multipliers must start at 0")
    bounds = np.append(zeros, live + 1)
    starts = bounds[:-1]
    ends = bounds[1:]
    checked = ends <= live
    rho = float(trace.target_rates[agent])
    xv = trace.allocations[:, agent] * trace.values[:, agent]
    z = trace.payments[:, agent]
    cum = np.concatenate([[0.0], np.cumsum(xv)])
    totals = cum[ends - 1] - cum[starts - 1]
    needs = xv[starts - 1] - z[starts - 1] + rho * (ends - starts - 1)
    return starts, ends, checked, totals - needs


def epoch_bound_stats(trace: Trace, agent: int, tol: float = EPOCH_TOL):
    """(epochs checked, violations, min slack) without materializing epoch
    objects; the fast path for sweeping thousands of replications."""
    _starts, _ends, checked, slacks = _epoch_bound_arrays(trace, agent)
    if not checked.any():
        return 0, 0, math.inf
    used = slacks[checked]
    return int(checked.sum()), int((used < -tol).sum()), float(used.min())


def verify_epoch_value_bound(trace: Trace, agent: int) -> EpochBoundReport:
    """Check, per epoch, that the value collected is at least the first
    round's value net of its spend plus the target rate for every later
    round of the epoch.

    Epochs whose end falls on a stopped round (including the horizon's end)
    are skipped and reported as such; the inequality is a sure statement
    only while the agent is live at the epoch's right endpoint.
    """
    starts, ends, checked, slacks = _epoch_bound_arrays(trace, agent)
    epochs = tuple(
        Epoch(int(a), int(b), agent) for a, b in zip(starts, ends)
    )
    return EpochBoundReport(
        agent, epochs, tuple(bool(c) for c in checked), tuple(float(s) for s in slacks)
    )


# ---------------------------------------------------------------------------
# The sure early-stopping bound on traces


@dataclass(frozen=True)
class StoppingBoundReport:
    agent: int
    applicable: bool
    bound: int | None
    missed_rounds: int
    passed: bool


def check_stopping_bound(trace: Trace) -> list[StoppingBoundReport]:
    """Per paced agent: the number of rounds lost to budget exhaustion must
    stay within the analytic stopping bound whenever its hypotheses hold.

    The stopping time is the round on which the budget ran out (the round
    before the first unplayable one); agents who never ran out miss zero
    rounds.
    """
    reports = []
    T = trace.horizon
    v = trace.value_cap
    for k in range(trace.n_agents):
        if trace.agent_kinds[k] != "paced":
            continue
        params = (trace.learning_rates[k], trace.mu_caps[k], trace.target_rates[k], v)
        applicable = _stopping_rule(*map(float, params))
        bound = _stopping_bound(*map(float, params)) if applicable else None
        missed = max(0, T - int(trace.stop_rounds[k]) + 1)
        passed = bound is None or missed <= bound
        reports.append(StoppingBoundReport(k, applicable, bound, missed, passed))
    return reports


# ---------------------------------------------------------------------------
# Persistence

TRACE_COLUMNS = (
    "round",
    "agent",
    "value",
    "multiplier",
    "bid",
    "allocation",
    "payment",
    "remaining_budget",
)


#: One CSV row: round, agent, then the six per-round cells at 17
#: significant digits ('%.17g' % x == format(x, ".17g"), nan and -0 included),
#: with the CRLF line end of the csv module's default dialect.
_ROW_FORMAT = "%d,%d," + ",".join(["%.17g"] * 6) + "\r\n"
#: Rows formatted per write and parsed per read.  Small blocks keep every
#: temporary small; larger ones leave a fragmented heap and raise peak memory.
_BLOCK_ROWS = 1024


def save_trace(trace: Trace, csv_path, envelope_path=None, config_doc=None) -> None:
    """Write the per-round CSV and (optionally) the JSON envelope.

    Rows run round by round, agents in order within a round.  Floats are
    serialized with 17 significant digits so a round-trip through
    load_trace is bit-exact.
    """
    T, n = trace.horizon, trace.n_agents
    table = np.empty((T, n, len(TRACE_COLUMNS)))
    table[:, :, 0] = np.arange(1, T + 1)[:, None]
    table[:, :, 1] = np.arange(n)
    for j, name in enumerate(_TRACE_FIELDS, start=2):
        table[:, :, j] = getattr(trace, name)
    table = table.reshape(T * n, len(TRACE_COLUMNS))
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write((_ROW_FORMAT * len(block)) % tuple(block.ravel().tolist()))
    if envelope_path is not None:
        with open(envelope_path, "w") as fh:
            json.dump(trace_envelope(trace, config_doc), fh, indent=2, sort_keys=True)
            fh.write("\n")


def trace_envelope(trace: Trace, config_doc=None) -> dict:
    """JSON-serializable envelope: agent metadata plus a spend/welfare summary."""
    liquid = [
        min(float(b), float((trace.allocations[:, k] * trace.values[:, k]).sum()))
        for k, b in enumerate(trace.budgets)
    ]
    env = {
        "horizon": trace.horizon,
        "value_cap": trace.value_cap,
        "agents": [
            {
                "kind": trace.agent_kinds[k],
                "budget": float(trace.budgets[k]),
                "target_rate": _nan_none(trace.target_rates[k]),
                "learning_rate": _nan_none(trace.learning_rates[k]),
                "mu_cap": _nan_none(trace.mu_caps[k]),
                "stop_round": int(trace.stop_rounds[k]),
            }
            for k in range(trace.n_agents)
        ],
        "summary": {
            "total_spend": [float(s) for s in trace.payments.sum(axis=0)],
            "liquid_value": liquid,
            "liquid_welfare": float(sum(liquid)),
        },
    }
    if config_doc is not None:
        env["config"] = config_doc
    return env


def _nan_none(x: float):
    x = float(x)
    return None if math.isnan(x) else x


def load_trace(csv_path, envelope_path) -> Trace:
    """Rebuild a Trace from its CSV and envelope (scenario indices are not
    persisted).

    Rows may come in any order, but there must be exactly one per (round,
    agent) pair of the envelope's horizon and agent count; anything else
    raises ConfigurationError, as does a cell that does not parse.
    """
    env = _read_envelope(envelope_path)
    T = env["horizon"]
    n = len(env["agents"])
    with open(csv_path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise ConfigurationError(f"unexpected trace columns {header}")
        arrays = _read_body(fh, T, n, csv_path)

    def meta(field, default=np.nan):
        return np.array(
            [a[field] if a[field] is not None else default for a in env["agents"]],
            dtype=np.float64,
        )

    return Trace(
        **dict(zip(_TRACE_FIELDS, arrays)),
        budgets=meta("budget"),
        agent_kinds=tuple(a["kind"] for a in env["agents"]),
        target_rates=meta("target_rate"),
        learning_rates=meta("learning_rate"),
        mu_caps=meta("mu_cap"),
        value_cap=env["value_cap"],
        stop_rounds=np.array([a["stop_round"] for a in env["agents"]], dtype=np.int64),
    )


#: Keys every agent entry of an envelope carries (see trace_envelope).
_AGENT_KEYS = ("kind", "budget", "target_rate", "learning_rate", "mu_cap", "stop_round")


def _read_envelope(envelope_path) -> dict:
    """The envelope's JSON, with the fields load_trace reads checked."""
    with open(envelope_path) as fh:
        try:
            env = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{envelope_path}: invalid JSON: {exc}") from exc
    if not isinstance(env, dict) or "value_cap" not in env:
        raise ConfigurationError(f"{envelope_path}: not a trace envelope (no value_cap)")
    horizon = env.get("horizon")
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 0:
        raise ConfigurationError(
            f"{envelope_path}: horizon must be a non-negative integer, got {horizon!r}"
        )
    agents = env.get("agents")
    if not isinstance(agents, list):
        raise ConfigurationError(f"{envelope_path}: agents must be a list")
    for k, agent in enumerate(agents):
        missing = [key for key in _AGENT_KEYS if not isinstance(agent, dict) or key not in agent]
        if missing:
            raise ConfigurationError(f"{envelope_path}: agent {k} has no {', '.join(missing)}")
    return env


def _read_body(fh, T: int, n: int, csv_path) -> list[np.ndarray]:
    """Parse the rows after the header, a block of lines at a time, into
    the six (T, n) arrays, each (round, agent) cell written exactly once."""
    arrays = [np.empty((T, n)) for _ in _TRACE_FIELDS]
    flat_arrays = [a.reshape(-1) for a in arrays]
    counts = np.zeros(T * n, dtype=np.int64)
    done = 0
    while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
        where = f"{csv_path}: data rows {done + 1}-{done + len(lines)}"
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            row = done + _first_bad_line(lines) + 1
            raise ConfigurationError(f"{where}: {exc} (first bad line: data row {row})") from exc
        if len(rows) != len(lines):
            raise ConfigurationError(f"{where}: blank line")
        if rows.shape[1] != len(TRACE_COLUMNS):
            raise ConfigurationError(
                f"{where}: {rows.shape[1]} cells per row, expected {len(TRACE_COLUMNS)}"
            )
        flat = _cell_index(rows[:, :2], T, n, done, csv_path)
        np.add.at(counts, flat, 1)
        for target, column in zip(flat_arrays, rows[:, 2:].T):
            target[flat] = column
        done += len(rows)
    if done != T * n:
        raise ConfigurationError(
            f"{csv_path}: {done} rows, expected {T * n} ({T} rounds x {n} agents)"
        )
    if np.any(counts != 1):
        dup = int(np.flatnonzero(counts > 1)[0])
        raise ConfigurationError(
            f"{csv_path}: (round, agent) = ({dup // n + 1}, {dup % n}) appears "
            f"{counts[dup]} times; {int(np.sum(counts == 0))} pair(s) missing"
        )
    return arrays


def _first_bad_line(lines: list[str]) -> int:
    """Index of the first non-blank line that is not one full row by itself
    (numpy counts a block's rows from 0 or from 1, by the defect)."""
    for i, line in enumerate(lines):
        if line.strip("\r\n"):
            try:
                if np.loadtxt([line], delimiter=",", comments=None).size != len(TRACE_COLUMNS):
                    return i
            except ValueError:
                return i
    return 0


def _cell_index(keys: np.ndarray, T: int, n: int, done: int, csv_path) -> np.ndarray:
    """Row-major (round, agent) cell of each row, from its round and agent cells."""
    bad = np.flatnonzero(np.any(keys != np.trunc(keys), axis=1))
    if len(bad):
        raise ConfigurationError(
            f"{csv_path}: data row {done + bad[0] + 1}: round and agent must be integers"
        )
    t = keys[:, 0] - 1
    k = keys[:, 1]
    bad = np.flatnonzero((t < 0) | (t >= T) | (k < 0) | (k >= n))
    if len(bad):
        round_, agent = keys[bad[0]]
        raise ConfigurationError(
            f"{csv_path}: data row {done + bad[0] + 1}: (round, agent) = "
            f"({round_:g}, {agent:g}) outside {T} rounds x {n} agents"
        )
    return t.astype(np.int64) * n + k.astype(np.int64)
