"""Seeded market simulation: paced and scripted agents in a repeated auction.

Value profiles are drawn i.i.d. across rounds from a finite-support joint
distribution, every agent submits a bid, the mechanism allocates and
charges, and each pacing agent updates its multiplier.  The full per-round
record (values, multipliers, bids, allocations, payments, remaining
budgets) is a Trace.  The engine records multipliers, allocations and
payments, and each round's scenario index; values are the profiles at
those indices, and bids and remaining budgets are exact functions of the
record, so each trace derives all three on first read, bids and budgets
with the round's own ufuncs in the round's order.

Replications run in lockstep as rows of vectorized state arrays, one
counter-based RNG substream per replication, so a batch of runs of any
chunk size is bit-identical to running each replication alone.  The
lockstep round (bids, the auction, the projected multiplier update and
budget exhaustion) is _Lockstep, which regret.simulate_pacing plays too,
its agent the one paced column.  It owns a time-major record block of
_RECORD_ROUNDS rounds and the round counter; its run plays the horizon a
block at a time from the values and bids a caller's fill rule gives, and
copies each block out into the caller's arrays.  The multipliers it
records are NaN in the scripted columns and in each paced column from
its stop on.  Each replication's arrays are allocated up front, so a
chunk holds its record once; replicate sizes its chunks from the
_CHUNK_BYTES memory budget and lets go of each trace once it is reduced.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .auctions import Mechanism, _kernel
from .constants import SURE_TOL
from .errors import ConfigurationError
from .pacing import EXHAUSTION_FRACTION, AgentConfig, _stopping_bound, _stopping_rule


def atom_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup: the support point each uniform in u selects
    under the finite distribution probs (any shape of u).

    That is searchsorted(cdf, u, "right") clamped to the last atom.  As the
    cdf never decreases, it equals the count of the cdf's entries but the
    last that are <= u, computed here as one comparison pass per atom.
    Measured (numpy 2.4.6, 2 vCPUs) at the 10^4 to 10^5 uniforms a call
    that the engine and concentration pass, that is 3-14x faster than the
    binary search over supports of 2-4 atoms (no bundled support has
    more); the two are even at about 48 atoms, and at 1,000 atoms the
    comparisons are 10x slower."""
    cdf = np.cumsum(probs)
    out = np.zeros(np.shape(u), dtype=np.intp)
    for c in cdf[:-1]:
        out += u >= c
    return out


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
        return atom_indices(self.probs, rng.random(horizon)).astype(np.int64, copy=False)


def _check_number(spec, name: str, positive=False, integer=False, path=None) -> None:
    """Refuse a number field of spec (None passes unless integer: a count
    or seed, stored as an int) that is not finite, is negative, is 0 if
    positive or is fractional or a bool if integer; the path is path, else (name,)."""
    value, path = getattr(spec, name), path or (name,)
    if value is None and not integer:
        return
    what = ".".join(path)
    if value is None or not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value}", path)
    if integer and (isinstance(value, bool) or int(value) != value):
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
    """A record field (of a Trace or a regret.PacingRun) that may be given
    as a function of the record: the first read calls it and caches the
    array in its place.  The value is stored under the field's own name in
    the instance dict, so Trace(**trace.__dict__) copies a trace whether or
    not it was read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)  # no class-level default: the field stays required
        value = record.__dict__[self.name]
        if callable(value):
            value = record.__dict__[self.name] = value(record)
        return value

    def __set__(self, record, value):
        record.__dict__[self.name] = value


@dataclass(frozen=True)
class Trace:
    """Per-round record of one simulation run.

    Arrays are (horizon, n_agents); multipliers are NaN for scripted agents
    and for paced agents after they stop.  remaining_budgets holds each
    agent's budget at the start of the round.  stop_rounds is the first
    round an agent could no longer bid (horizon + 1 if it never ran out).

    multipliers, allocations and payments are recorded.  values, bids and
    remaining_budgets may be given as arrays (load_trace does) or, as the
    engine gives them, as functions of the trace, computed on first read
    and cached: values from the profiles at the scenario indices, captured
    when the trace is built (_taken_values), remaining_budgets from budgets
    and payments (_opening_budgets), bids from values, multipliers,
    remaining_budgets and stop_rounds plus the scripted agents' bids
    (_derived_bids).
    """

    values: np.ndarray = _Derived()
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
        return self.multipliers.shape[0]

    @property
    def n_agents(self) -> int:
        return self.multipliers.shape[1]


#: The Trace's per-round (T, n) arrays, in the order of the CSV's value columns.
_TRACE_FIELDS = ("values", "multipliers", "bids", "allocations", "payments", "remaining_budgets")
#: The fields the engine copies out of each record block; the other three
#: are derived.
_RECORDED = ("multipliers", "allocations", "payments")


def _taken_values(profiles: np.ndarray, indices: np.ndarray, _record) -> np.ndarray:
    """Each round's value profile: the profiles at the round's scenario index."""
    return profiles.take(indices, axis=0)


def _budget_path(budgets, payments: np.ndarray) -> np.ndarray:
    """The budget at the start of each round (axis 0 of payments): the
    budget less the payments before it, subtracted one round at a time as
    the round does (a stopped agent pays +0.0, so its last budget carries
    forward)."""
    out = np.empty(payments.shape)
    if len(out):
        out[0] = budgets
        out[1:] = payments[:-1]
        np.subtract.accumulate(out, axis=0, out=out)
    return out


def _played_bids(values, multipliers, opening, stop_rounds, paced, script_bids=None):
    """The bids the lockstep round made, (T, n), or (T,) for one paced
    column: value/(1 + mu), or script_bids in the unpaced columns, clamped
    to the opening budget; 0 from each paced column's stop round on."""
    bids = np.add(multipliers, 1.0)
    np.divide(values, bids, out=bids)
    if script_bids is not None:
        bids[:, ~paced] = script_bids[:, ~paced]
    np.fmin(bids, opening, out=bids)
    columns = bids.reshape(len(bids), len(paced))  # a view of bids
    for k in np.flatnonzero(paced):
        columns[stop_rounds[k] - 1 :, k] = 0.0
    return bids


def _opening_budgets(trace: Trace) -> np.ndarray:
    """Each agent's budget at the start of each round."""
    return _budget_path(trace.budgets, trace.payments)


def _derived_bids(script_bids: np.ndarray, trace: Trace) -> np.ndarray:
    """The bids the round made, the scripted agents' from script_bids
    ((T, n), read in the scripted columns)."""
    paced = np.array(trace.agent_kinds) == "paced"
    return _played_bids(
        trace.values, trace.multipliers, trace.remaining_budgets, trace.stop_rounds, paced,
        script_bids,
    )


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
    """Pacing state of `rows` runs of n agents in lockstep over a horizon.
    Each round, paced agents bid value/(1 + mu) and unpaced ones their
    given bid, clamped to the budget state; the mechanism runs; paced
    agents take the projected multiplier step and stop once their budget
    falls below EXHAUSTION_FRACTION of the start.

    The round owns its record block: B + 1 rows of multipliers mus and
    opening budgets rems, round j of a block reading row j and writing row
    j + 1, and B rows of bids b, allocations x and payments z, where B is
    _RECORD_ROUNDS or the horizon if shorter; rounds zips each round's
    seven row views once.  run fills each block by its caller's rule,
    plays it and copies out what the caller records.

    The per-agent parameters and the constants 1 and 0 are (rows, n)
    arrays built once, so no operand of a round is broadcast, and every
    cell bids value/(1 + mu) and takes the multiplier step.  An unpaced
    cell's value is its bid, and its multiplier is held at +0 (eps = rho =
    mu_cap = 0), so that it bids it bit for bit; a stopped cell's is held
    at +inf (eps 0, mu_cap +inf), so that it bids
    +0.0.  A block clamps bids to the budget state and tests for stops
    only if a cell opens it with rem * (1 - nb * 2**-50) - thresh < nb *
    top, thresh 0 in the unpaced cells and -inf in the stopped ones, top
    the largest value times 1 + 2**-30: a cell pays at most a click rate
    (stored <= 1) times a bid <= value, rounded, so at most top, and as
    rounding is monotone each round's rem - z then loses at most top +
    2**-53 * (rem + top); the wider factors cover the test's own roundings
    too.  In a block where no cell meets the test, every round so opens
    on a budget of at least thresh + top, over any bid, and closes on one
    of at least thresh (an unpaced cell, paying at most its clamped bid,
    never falls below 0), and the closing budgets are the payments
    subtracted in turn.  The multipliers a block records are NaN (np.nan's
    bits) in the cells held when it opens, and in a cell that stops in it
    from its stop on, when its budget state becomes 0, so that the clamp
    takes its NaN bid to 0.0; the next block holds it at +inf."""

    def __init__(self, rows, horizon, mechanism, paced, budgets, eps, rho, mu_cap):
        shape = (rows, len(budgets))
        B = min(_RECORD_ROUNDS, horizon)
        self.mus, self.rems = np.empty((2, B + 1, *shape))
        self.b, self.x, self.z = np.empty((3, B, *shape))
        self.mus[0], self.rems[0] = 0.0, budgets
        self.rounds = list(zip(
            self.mus[:-1], self.mus[1:], self.rems[:-1], self.rems[1:], self.b, self.x, self.z))
        self.horizon = horizon
        self.kernel = _kernel(mechanism, *shape)
        self.played = self.closed = 0  # rounds played; the row the last block closed on
        self.eps, self.rho, self.mu_cap = (
            np.tile(np.where(paced, a, 0.0), (rows, 1)) for a in (eps, rho, mu_cap))
        self.held = np.tile(np.where(paced, -np.inf, 0.0), (rows, 1))  # -inf: not held
        self.one, self.zero = np.ones(shape), np.zeros(shape)
        self.thresh = np.tile(np.where(paced, EXHAUSTION_FRACTION * budgets, 0.0), (rows, 1))
        self.stop_round = np.full(shape, horizon + 1, dtype=np.int64)
        self.step, self.newly = np.empty(shape), np.empty(shape, dtype=bool)

    def run(self, fill, out, column) -> None:
        """Play the horizon a record block at a time: fill(t0, t1) gives
        rounds t0..t1's values for play, then each (rows, arrays)
        of out takes array[..., t0:t1] = plane[:t1 - t0, rows].T, plane
        the block's mus, x or z at column `column`.  For column None, block
        and arrays are viewed with each (rows, n) row as one raw n * 8-byte
        item, so that a copy moves t1 - t0 items however few the agents.
        The (array, source) pairs, source a full block's plane[:B, rows].T,
        are built once; a partial last block copies its first t1 - t0."""
        raw = np.dtype((np.void, 8 * self.mus.shape[-1]))
        planes = [a[..., column] if column is not None else a.view(raw)[..., 0]
                  for a in (self.mus, self.x, self.z)]
        if column is None:
            out = [(rows, [a.view(raw)[..., 0] for a in arrays]) for rows, arrays in out]
        B = len(self.b)
        pairs = [(array, plane[:B, rows].T)
                 for rows, arrays in out for array, plane in zip(arrays, planes)]
        for t0 in range(0, self.horizon, _RECORD_ROUNDS):
            t1 = min(t0 + _RECORD_ROUNDS, self.horizon)
            self.play(fill(t0, t1))
            for array, source in pairs:
                array[..., t0:t1] = source if t1 - t0 == B else source[..., : t1 - t0]

    def play(self, values) -> None:
        """The next nb rounds, one record block, for values, (nb, rows, n),
        the unpaced columns holding those cells' bids.  Row 0 of mus and
        rems is the row the last block closed on."""
        nb, t0, mus, rems, held = len(values), self.played, self.mus, self.rems, self.held
        np.fmax(mus[self.closed], held, out=mus[0])
        rems[0], held_at_open = rems[self.closed], held > -np.inf
        self.closed, self.played = nb, t0 + nb
        self.x[:nb] = self.z[:nb] = 0.0
        add, divide, subtract, multiply, fmin, minimum, maximum, less, count = (
            np.add, np.divide, np.subtract, np.multiply, np.fmin, np.minimum, np.maximum,
            np.less, np.count_nonzero)
        kernel, eps, rho, mu_cap, one, zero, thresh, step, newly = (
            self.kernel, self.eps, self.rho, self.mu_cap, self.one, self.zero, self.thresh,
            self.step, self.newly)
        top = float(values.max()) * (1 + 2**-30)  # an overflow to inf keeps the test
        may_bind = count(less(rems[0] * (1 - nb * 2**-50) - thresh, nb * top))
        # A huge learning rate can overflow eps * (rho - z) to +-inf, which the
        # projection onto [0, mu_cap] saturates to the right multiplier, so
        # the overflow is no error; one errstate covers the whole block.
        with np.errstate(over="ignore"):
            for j, (mu, mu_next, rem, rem_next, bj, xj, zj) in enumerate(self.rounds[:nb]):
                add(mu, one, out=bj)
                divide(values[j], bj, out=bj)
                if may_bind:
                    fmin(bj, rem, out=bj)
                kernel(bj, xj, zj)
                # mu <- clip(mu - eps * (rho - z), 0, mu_cap)
                subtract(rho, zj, out=step)
                multiply(eps, step, out=step)
                subtract(mu, step, out=mu_next)
                maximum(mu_next, zero, out=mu_next)
                minimum(mu_next, mu_cap, out=mu_next)
                if may_bind:
                    subtract(rem, zj, out=rem_next)
                    if count(less(rem_next, thresh, out=newly)):
                        self.stop_round[newly] = t0 + j + 2
                        mu_next[newly], rem_next[newly], eps[newly] = np.nan, 0.0, 0.0
                        thresh[newly], mu_cap[newly], held[newly] = -np.inf, np.inf, np.inf
        if not may_bind:  # rows 1 to nb - 1 of rems are left holding payments
            rems[1 : nb + 1] = self.z[:nb]
            subtract.reduce(rems[: nb + 1], axis=0, out=rems[nb])
        mus[:nb, held_at_open] = np.nan


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

    game = _Lockstep(rc, T, config.mechanism, paced, budgets, eps, rho, mu_cap)
    profiles = config.value_model.profiles
    records = [[np.empty((T, n)) for _ in _RECORDED] for _ in range(rc)]  # each replication's own

    def fill(t0, t1):  # the block's value profiles, the scripted columns holding their bids
        rounds = np.stack([i[t0:t1] for i in idx], axis=1)
        block = profiles.take(rounds, axis=0)
        block[..., ~paced] = script_bids[t0:t1, None, ~paced]
        return block

    game.run(fill, list(enumerate(records)), None)

    kinds = tuple("paced" if p else "scripted" for p in paced)
    bids = functools.partial(_derived_bids, script_bids)
    return [
        Trace(
            values=functools.partial(_taken_values, profiles, idx[r]),
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
) -> list:
    """Run independent replications on spawned RNG substreams.

    Replication r always uses substream r of the config seed, so results
    are bit-identical for any chunk size.  Replications run in lockstep
    chunks of as many rows as keep one chunk's traces within _CHUNK_BYTES
    (at least one).  reducer(trace, rep_index) is applied per replication
    in order, and replicate lets go of each trace as soon as its reducer
    returns, so a chunk holds only the record of the traces not yet
    reduced (plus whatever a reducer keeps); by default the traces
    themselves are returned.
    """
    spec = SimpleNamespace(replications=replications)
    _check_number(spec, "replications", integer=True)
    replications = spec.replications
    rows = _chunk_rows(config)
    children = np.random.SeedSequence(config.seed).spawn(max(replications, 1))
    results: list = []
    for start in range(0, replications, rows):
        traces = _simulate_chunk(config, children[start : start + rows])
        if reducer is None:
            results.extend(traces)
            continue
        traces.reverse()  # pop in replication order; only the list holds a trace
        for j in range(len(traces)):
            results.append(reducer(traces.pop(), start + j))
    return results


def _mean_stderr(samples) -> tuple[float, float]:
    """The mean of replicated samples and its standard error (0.0 for one)."""
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    return float(x.mean()), (float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)


# ---------------------------------------------------------------------------
# Epochs


def _epoch_table(trace: Trace, agent: int):
    """The agent's live-round count, the 1-based rounds that open its epochs
    (each live round whose multiplier is 0; an epoch ends where the next one
    opens, or after the last live round) and the slack of every epoch but
    the last: the value collected less the value the bound needs, with
    prefix sums only through the last epoch's start."""
    if trace.agent_kinds[agent] != "paced":
        raise ConfigurationError(f"agent {agent} is scripted and has no multipliers")
    live = min(int(trace.stop_rounds[agent]) - 1, trace.horizon)
    starts = np.flatnonzero(trace.multipliers[:live, agent] == 0.0) + 1
    if live and (len(starts) == 0 or starts[0] != 1):
        raise ConfigurationError("pacing multipliers must start at 0")
    if len(starts) < 2:
        return live, starts, np.empty(0)
    a, b = starts[:-1], starts[1:]
    last = int(b[-1]) - 1
    xv = trace.allocations[:last, agent] * trace.values[:last, agent]
    cum = np.zeros(last + 1)
    np.cumsum(xv, out=cum[1:])
    rho = float(trace.target_rates[agent])
    needs = xv[a - 1] - trace.payments[a - 1, agent] + rho * (b - a - 1)
    return live, starts, cum[b - 1] - cum[a - 1] - needs


@dataclass(frozen=True, eq=False)
class EpochBoundReport:
    """One agent's epochs [starts, ends) in 1-based rounds and their slacks.
    The bound is a sure statement only while the agent is live at an
    epoch's right endpoint, so the last epoch, which ends on a stopped round
    or after the horizon, is not checked and its slack is NaN."""

    agent: int
    starts: np.ndarray
    ends: np.ndarray
    slacks: np.ndarray

    @property
    def checked(self) -> np.ndarray:
        return np.arange(len(self.slacks)) < len(self.slacks) - 1

    @property
    def n_checked(self) -> int:
        return max(len(self.slacks) - 1, 0)

    @property
    def n_skipped(self) -> int:
        return len(self.slacks) - self.n_checked

    @property
    def n_violations(self) -> int:
        return int((self.slacks[:-1] < -SURE_TOL).sum())

    @property
    def min_slack(self) -> float:
        return float(self.slacks[:-1].min()) if self.n_checked else math.inf

    @property
    def passed(self) -> bool:
        return not self.n_violations


def epoch_bound_stats(trace: Trace, agent: int):
    """verify_epoch_value_bound's (n_checked, n_violations, min_slack),
    without building the report."""
    slacks = _epoch_table(trace, agent)[2]
    if not len(slacks):
        return 0, 0, math.inf
    return len(slacks), int((slacks < -SURE_TOL).sum()), float(slacks.min())


def verify_epoch_value_bound(trace: Trace, agent: int) -> EpochBoundReport:
    """Check, per epoch but the last, that the value collected is at least
    the first round's value net of its spend plus the target rate for every
    later round of the epoch."""
    live, starts, slacks = _epoch_table(trace, agent)
    n = len(starts)
    arrays = starts, np.append(starts[1:], live + 1)[:n], np.append(slacks, np.nan)[:n]
    for a in arrays:
        a.flags.writeable = False
    return EpochBoundReport(agent, *arrays)


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


#: Rows formatted per write and parsed per read.  Small blocks keep every
#: temporary small; larger ones leave a fragmented heap and raise peak memory.
_BLOCK_ROWS = 1024


def _write_csv(path, header, table: np.ndarray, ints: int) -> None:
    """Write the rows of table under header: the first `ints` columns as
    integers, the rest at 17 significant digits ('%.17g' % x ==
    format(x, ".17g"), nan and -0 included), with the CRLF line end of the
    csv module's default dialect, _BLOCK_ROWS rows a write."""
    row = ",".join(["%d"] * ints + ["%.17g"] * (table.shape[1] - ints)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _finite(obj):
    """obj with each non-finite float as None: JSON (RFC 8259) has no Infinity or NaN."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, payload) -> None:
    """Write payload as strict JSON (sorted keys, indent 2, each non-finite
    float as null); with path None, only check that it serializes."""
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def save_trace(trace: Trace, csv_path, envelope_path, config_doc=None) -> dict:
    """Write the per-round CSV and the JSON envelope; return the envelope.

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
    _write_csv(csv_path, TRACE_COLUMNS, table.reshape(T * n, len(TRACE_COLUMNS)), 2)
    envelope = trace_envelope(trace, config_doc)
    _write_json(envelope_path, envelope)
    return envelope


def trace_envelope(trace: Trace, config_doc=None) -> dict:
    """JSON-serializable envelope: agent metadata plus the spend and
    liquid-welfare summary of welfare.liquid_welfare."""
    from .welfare import liquid_welfare  # welfare imports this module

    report = liquid_welfare(trace)
    env = {
        "horizon": trace.horizon,
        "value_cap": trace.value_cap,
        "agents": [
            {
                "kind": trace.agent_kinds[k],
                "budget": float(trace.budgets[k]),
                "target_rate": float(trace.target_rates[k]),
                "learning_rate": float(trace.learning_rates[k]),
                "mu_cap": float(trace.mu_caps[k]),
                "stop_round": int(trace.stop_rounds[k]),
            }
            for k in range(trace.n_agents)
        ],
        "summary": {
            "total_spend": report.spends.tolist(),
            "liquid_value": report.liquid_values.tolist(),
            "liquid_welfare": report.total,
        },
    }
    if config_doc is not None:
        env["config"] = config_doc
    return env


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


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_envelope(envelope_path) -> dict:
    """The envelope's JSON, with the fields load_trace reads checked: a
    finite value_cap and, per agent, a kind of "paced" or "scripted", a
    number or null (read as NaN) for the budget and each rate, and an
    integer stop_round in 1..horizon + 1."""
    with open(envelope_path) as fh:
        try:
            env = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{envelope_path}: invalid JSON: {exc}") from exc
    if not isinstance(env, dict) or "value_cap" not in env:
        raise ConfigurationError(f"{envelope_path}: not a trace envelope (no value_cap)")
    cap = env["value_cap"]
    if not (_is_number(cap) and math.isfinite(cap)):
        raise ConfigurationError(f"{envelope_path}: value_cap must be a finite number, got {cap!r}")
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
        where, kind, stop = f"{envelope_path}: agent {k}", agent["kind"], agent["stop_round"]
        if kind not in ("paced", "scripted"):
            raise ConfigurationError(f"{where}: kind must be 'paced' or 'scripted', got {kind!r}")
        for key in ("budget", "target_rate", "learning_rate", "mu_cap"):
            if agent[key] is not None and not _is_number(agent[key]):
                raise ConfigurationError(
                    f"{where}: {key} must be a number or null, got {agent[key]!r}"
                )
        if isinstance(stop, bool) or not isinstance(stop, int) or not 1 <= stop <= horizon + 1:
            raise ConfigurationError(
                f"{where}: stop_round must be an integer in 1..{horizon + 1}, got {stop!r}"
            )
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
