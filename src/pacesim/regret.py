"""Single-agent regret analysis against the perfect pacing sequence.

The agent faces, each round, a joint finite-support distribution over her
own value and the competing bids.  From that distribution the module
computes the exact expected spend Z and expected value V as functions of
the pacing multiplier, the perfect multiplier where expected spend equals
the target rate, the convex surrogate objective the pacing update descends
(target_rate * mu minus the integral of Z), the throttled value curve W,
and finally the dynamic regret of a simulated pacing run together with the
analytic right-hand sides it should stay under.

Raw finite-support environments make Z a step function of the multiplier;
adding uniform noise of width eta to every competing bid makes it
continuous and Lipschitz.  Z is piecewise polynomial in the bid, so the
second-price payment under the noise and the integral of Z in H are exact
to rounding, both from one piece table (EnvironmentStep._pieces).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .auctions import FIRST_PRICE, SECOND_PRICE, Mechanism, SingleSlot, outcomes
from .constants import REGRET_BOUND_CONSTANT
from .errors import ConfigurationError, PreconditionError, SmoothingRequiredError
from .pacing import AgentConfig
from .simulation import (
    PacedAgent,
    ValueModel,
    _budget_path,
    _check_number,
    _Derived,
    _Lockstep,
    _mean_stderr,
    _played_bids,
    _taken_values,
    atom_indices,
)

BISECTION_TOL = 1e-9
BISECTION_MAX_ITER = 200

@dataclass(frozen=True)
class EnvironmentStep:
    """One round's environment: joint atoms over (own value, competing bids).

    The atoms are kept as a ValueModel over joint bid profiles, the focal
    agent's value in column agent_index and the competing bids in the
    others, so they obey its rules; probs, values and competing_bids are
    read-only arrays taken from it.  eta > 0 adds independent U[0, eta]
    noise to every competing bid, which smooths the expected-spend curve;
    it is supported for single-slot first-price and second-price
    mechanisms (GSP curves are exact but unsmoothed).  agent_index fixes
    deterministic tie-breaking at eta = 0.
    """

    mechanism: Mechanism
    probs: np.ndarray
    values: np.ndarray
    competing_bids: np.ndarray
    eta: float = 0.0
    agent_index: int = 0

    def __post_init__(self):
        k = self.agent_index
        comp = np.atleast_2d(np.asarray(self.competing_bids, dtype=np.float64))
        if not 0 <= k <= comp.shape[-1]:
            raise ConfigurationError("agent_index out of range")
        others = np.arange(comp.shape[-1] + 1) != k
        profiles = np.empty((len(self.values), len(others)))
        try:
            profiles[:, k] = self.values
            profiles[:, others] = comp
        except ValueError:
            raise ConfigurationError(
                "need one value and one row of competing bids (or one shared row) per atom"
            ) from None
        _check_number(self, "eta")
        if self.eta > 0 and not (
            isinstance(self.mechanism.feasible, SingleSlot)
            and self.mechanism.kind in (FIRST_PRICE, SECOND_PRICE)
        ):
            raise ConfigurationError(
                "bid-noise smoothing is supported for single-slot "
                "first-price and second-price only"
            )
        model = ValueModel(self.probs, profiles)
        comp = model.profiles[:, others]
        comp.flags.writeable = False
        object.__setattr__(self, "_model", model)
        object.__setattr__(self, "_others", others)
        object.__setattr__(self, "probs", model.probs)
        object.__setattr__(self, "values", model.profiles[:, k])
        object.__setattr__(self, "competing_bids", comp)

    @property
    def n_atoms(self) -> int:
        return len(self.probs)

    @property
    def n_opponents(self) -> int:
        return self.competing_bids.shape[1]

    @property
    def value_cap(self) -> float:
        return max(1.0, float(self.values.max(initial=0.0)))

    def spend_value(self, mu) -> tuple[np.ndarray, np.ndarray]:
        """Exact expected payment and expected value at each multiplier, each
        point on its own: a batch gives what its points give one at a time."""
        mu_arr = np.atleast_1d(_multipliers(mu))
        curves = self._curves_noised if self.eta > 0 else self._curves_exact
        return curves(mu_arr)

    def _curves_noised(self, mu_arr: np.ndarray):
        bids = self.values[:, None] / (1.0 + mu_arr[None, :])  # (S, M)
        gap = bids[:, :, None] - self.competing_bids[:, None, :]
        with np.errstate(over="ignore"):  # a gap over a tiny eta saturates the clip
            g = np.clip(gap / self.eta, 0.0, 1.0)
        win = g.prod(axis=2) * (bids > 0)  # the empty product of no opponents is 1
        # Atom by atom: sum(axis=0) adds pairwise over one column (M = 1).
        v = functools.reduce(np.add, self.probs[:, None] * self.values[:, None] * win)
        if self.mechanism.kind == FIRST_PRICE:
            z = functools.reduce(np.add, self.probs[:, None] * bids * win)
        else:  # each paying atom's Z on the piece of _pieces that holds its bid
            z = np.zeros_like(mu_arr)
            for s, (_v, edges, pieces) in zip(self._paying, self._pieces):
                at, pay = np.searchsorted(edges, bids[s]), np.empty_like(mu_arr)
                for i in np.unique(at):
                    (x0, r, zc, _c), on = pieces[i], at == i
                    pay[on] = np.polyval(zc, (bids[s][on] - x0) / r)
                z += pay
        return z, v

    def _curves_exact(self, mu_arr: np.ndarray):
        bids = self.values[:, None] / (1.0 + mu_arr[None, :])  # (S, M)
        x, pay = _focal_outcome(self, self._model.profiles[:, None, :], bids)
        z = np.zeros_like(mu_arr)
        v = np.zeros_like(mu_arr)
        for s in range(self.n_atoms):  # atom by atom, as the scalar sums run
            z += self.probs[s] * pay[s]
            v += self.probs[s] * self.values[s] * x[s]
        return z, v

    def curve_breakpoints(self, mu_max: float) -> np.ndarray:
        """Multipliers where the spend curve can kink or jump: each bid
        crossing of a competing-bid edge."""
        edges = [self.competing_bids]
        if self.eta > 0:
            edges.append(self.competing_bids + self.eta)
        pts = []
        for edge in edges:
            with np.errstate(over="ignore"):  # a bid that small is past any mu_max
                m = self.values[:, None] / np.where(edge > 0, edge, np.inf) - 1.0
            pts.append(m[(m > 0) & (m < mu_max)])
        return np.unique(np.concatenate(pts))

    @functools.cached_property
    def _paying(self) -> list[int]:
        """The atoms that can pay: positive value, and first price or an opponent."""
        first = self.mechanism.kind == FIRST_PRICE
        return np.flatnonzero(self.values > 0).tolist() if first or self.n_opponents else []

    @functools.cached_property
    def _pieces(self) -> list:
        """Per atom of _paying: its value, its ascending bid edges and, on
        each piece of bids b around them, (x0, r, z, c): Z is the polynomial
        z in y = (b - x0)/r (None at eta = 0), and Z/b^2 integrates to
        -c[-1]/b + c[-2] log b + the polynomial c[:-2] in y.  On a piece at
        least twice its width above 0, where monomials in b would cancel by
        up to (b/eta)^J, x0 is its middle and r its half-width, and 1/b^2
        goes in as its power series in y r/x0 <= 1/5, 27 terms of it."""
        first, eta, table = self.mechanism.kind == FIRST_PRICE, self.eta, []
        noised = eta > 0 and self.n_opponents > 0
        for s in self._paying:
            p, comp = self.probs[s], self.competing_bids[s]
            edges = np.unique(np.concatenate([comp, comp + eta]) if noised else comp[comp > 0])
            edges = edges[edges >= comp.max() - 1e-15] if noised else edges  # from the top bid up
            bounds = np.concatenate([[0.0], edges, [2.0 * edges.max(initial=1.0)]])
            pieces = [(0.0, 1.0, np.zeros(1), np.zeros(3))] if noised else []  # F = 0 below
            if eta == 0:  # Z = p x b (first price) or p z, with the piece's outcome
                x, z = _focal_outcome(self, self._model.profiles[s], (bounds[:-1] + bounds[1:]) / 2)
                coefs = np.column_stack([0 * x, x, 0 * x] if first else [0 * z, 0 * z, z])
                pieces = [(0.0, 1.0, None, p * c) for c in coefs]
            below = 0.0  # the integral of F up to the piece
            for i in range(len(pieces), len(edges) + 1) if eta > 0 else ():
                e0, e1 = bounds[i], bounds[i + 1]
                centred = i < len(edges) and e0 >= 2 * (e1 - e0)
                x0, r = ((e0 + e1) / 2, (e1 - e0) / 2) if centred else (0.0, 1.0)
                live = comp[comp + eta > (e0 + e1) / 2]  # F's factors (b - d)/eta
                f = functools.reduce(np.polymul, [[r / eta, (x0 - d) / eta] for d in live], [1.0])
                z = np.polymul([r, x0], f)  # b F(b)
                if not first:  # b F(b) minus the integral of F up to b
                    fint = r * np.polyint(f)
                    lo, hi = np.polyval(fint, (bounds[i : i + 2] - x0) / r)
                    z = z - fint
                    z[-1] -= below - lo
                    below += hi - lo
                c = z
                if centred:  # r Z/b^2 = (r/x0^2) Z (1 + y r/x0)^-2
                    series = np.arange(27, 0, -1) * (-r / x0) ** np.arange(26, -1, -1)
                    c = np.append(np.polymul(c, series) * (r / x0**2), [0.0, 0.0])
                c = np.pad(c, (2, 0))
                pieces.append((x0, r, p * z, p * np.append(np.polyint(c[:-2]), c[-2:])))
            table.append((self.values[s], edges, pieces))
        return table

    def spend_integrals(self, grid: np.ndarray) -> np.ndarray:
        """The integral of Z over each segment of the ascending grid of
        multipliers, which holds every breakpoint inside it: with b = v/(1 + mu),
        each atom adds v times that of Z/b^2 on the piece of its _pieces that
        holds the segment's middle bid.  Pieces come in runs along the grid."""
        segs = np.zeros(len(grid) - 1)
        for v, edges, pieces in self._pieces:
            b = v / (1.0 + grid)
            at = np.searchsorted(edges, (b[:-1] + b[1:]) / 2)
            starts = np.flatnonzero(np.diff(at, prepend=-1))
            for i, j in zip(starts, np.append(starts[1:], len(at))):
                (x0, r, _z, c), mu = pieces[at[i]], grid[i : j + 1]  # 1/b, log b from mu:
                anti = np.polyval(c[:-2], (b[i : j + 1] - x0) / r)  # b can underflow to 0
                anti -= c[-1] * (1.0 + mu) / v if c[-1] else 0.0
                anti -= c[-2] * np.log1p(mu) if c[-2] else 0.0  # log b, less the constant log v
                segs[i:j] -= v * np.diff(anti)
        return segs


def _multipliers(mu) -> np.ndarray:
    """mu as float64, refused unless finite and non-negative."""
    mu_arr = np.asarray(mu, dtype=np.float64)
    if not np.all((mu_arr >= 0) & (mu_arr < np.inf)):
        raise PreconditionError("multipliers must be finite and non-negative")
    return mu_arr


def _noised_profiles(table, widths, others, idx, noise) -> np.ndarray:
    """The joint profiles table[idx], each competing bid (the columns of
    the mask others) raised by its atom's noise width times its uniform in
    noise (idx.shape + (opponents,), or a scalar)."""
    profiles = table.take(idx, axis=0)  # about 3x faster than table[idx] on a block
    profiles[..., others] += widths.take(idx)[..., None] * noise
    return profiles


def expected_curves(env: EnvironmentStep, mu):
    """Expected (payment, value) at multiplier mu; scalars in, scalars out."""
    z, v = env.spend_value(mu)
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return float(z[0]), float(v[0])
    return z, v


def uniform_opponent_env(
    mechanism_kind: str = FIRST_PRICE,
    value: float = 1.0,
    low: float = 0.0,
    width: float = 1.0,
    agent_index: int = 0,
) -> EnvironmentStep:
    """Single-slot environment against one opponent bidding low + U[0, width]."""
    mech = Mechanism(mechanism_kind, SingleSlot())
    return EnvironmentStep(
        mechanism=mech,
        probs=[1.0],
        values=[value],
        competing_bids=[[low]],
        eta=width,
        agent_index=agent_index,
    )


@dataclass(frozen=True, eq=False)
class EnvironmentSequence:
    """The environments of T rounds as a table: steps, the distinct
    environments in order of first appearance, and index, the read-only
    (T,) integer array of each round's step.  len, indexing and iteration
    give one environment per round."""

    steps: tuple
    index: np.ndarray

    def __post_init__(self):
        index = np.array(self.index)
        if not self.steps or not index.size:
            raise ConfigurationError("empty environment sequence: it needs at least one round")
        # In order of first appearance, every step: the running maximum of
        # the index takes each number 0 to len(steps) - 1.
        top = np.maximum.accumulate(index) if index.ndim == 1 and index.dtype.kind in "iu" else []
        if not np.array_equal(np.unique(top), range(len(self.steps))) or index.min() < 0:
            raise ConfigurationError("index must number the steps 0, 1, ... as they first appear")
        index.flags.writeable = False
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, t) -> EnvironmentStep:
        return self.steps[self.index[t]]

    def rounds(self) -> list[np.ndarray]:
        """Each step's rounds, ascending."""
        order = np.argsort(self.index, kind="stable")
        return np.split(order, np.cumsum(np.bincount(self.index))[:-1])


def _sequence(envs, horizon: int | None = None) -> EnvironmentSequence:
    """envs as an EnvironmentSequence: one EnvironmentStep played for
    horizon rounds, a sequence as it is, or a list of steps, one per round,
    grouped by object identity.  A given horizon must be a positive integer
    and equal the length."""
    if horizon is not None:  # the rule replications and seed are checked by
        _check_number(SimpleNamespace(horizon=horizon), "horizon", positive=True, integer=True)
    if isinstance(envs, EnvironmentStep):
        if horizon is None:
            raise ConfigurationError("horizon required with a single environment")
        envs = EnvironmentSequence((envs,), np.zeros(int(horizon), dtype=np.intp))
    elif not isinstance(envs, EnvironmentSequence):
        groups = {}  # id -> (number, step); holding each step keeps its id unique
        index = [groups.setdefault(id(env), (len(groups), env))[0] for env in envs]
        envs = EnvironmentSequence(tuple(env for _number, env in groups.values()), index)
    if horizon is not None and horizon != len(envs):
        raise ConfigurationError("environment list length must equal the horizon")
    return envs


def _draw_runs(envs: EnvironmentSequence, R: int, seed: int):
    """Every step's joint profiles in one table, each atom's noise width
    beside it, each step's atoms offset by the atoms of the steps before
    it, and R runs of the sequence's T rounds drawn from it: (R, T) indices
    into the table, in the smallest unsigned dtype that holds them, and the
    raw (R, T, opponents) noise uniforms.  Run r draws on substream r of
    seed: one uniform per round picks the atom, then one per round and
    competing bid realizes the noise."""
    steps, T = envs.steps, len(envs)
    table = np.concatenate([env._model.profiles for env in steps])
    widths = np.concatenate([np.full(env.n_atoms, env.eta) for env in steps])
    offsets = np.cumsum([0] + [env.n_atoms for env in steps[:-1]])
    rounds = envs.rounds()
    atoms = np.empty((R, T), dtype=np.min_scalar_type(len(table) - 1))
    noise = np.empty((R, T, steps[0].n_opponents))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(R)):
        rng = np.random.Generator(np.random.Philox(child))
        uniforms = rng.random(T)
        noise[r] = rng.random(noise.shape[1:])
        for env, at, offset in zip(steps, rounds, offsets):
            atoms[r, at] = atom_indices(env.probs, uniforms[at]) + offset
    return table, widths, atoms, noise


# ---------------------------------------------------------------------------
# Perfect pacing multipliers


def perfect_multiplier(env: EnvironmentStep, rho: float, mu_cap: float) -> float:
    """Bisect the non-increasing spend curve for Z(mu) = rho on [0, mu_cap].

    Returns 0 when even unshaded bidding spends below the target.  A step
    discontinuity at the root cannot meet the residual tolerance, in which
    case the caller is told to smooth the environment.
    """
    if not 0 < rho < math.inf:
        raise PreconditionError(f"target rate must be positive and finite, got {rho}")
    if not math.isfinite(mu_cap):
        raise PreconditionError(f"mu_cap must be finite, got {mu_cap}")
    if mu_cap < env.value_cap / rho:
        raise PreconditionError("need mu_cap >= value_cap / rho")
    z0 = float(env.spend_value(0.0)[0][0])
    if z0 < rho:
        return 0.0
    if abs(z0 - rho) <= BISECTION_TOL:
        return 0.0
    lo, hi = 0.0, float(mu_cap)
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        zm = float(env.spend_value(mid)[0][0])
        if abs(zm - rho) <= BISECTION_TOL:
            return mid
        if zm > rho:
            lo = mid
        else:
            hi = mid
    raise SmoothingRequiredError(
        f"spend residual {zm - rho:+.3e} after bisection; "
        "the curve is discontinuous at the root - add bid noise"
    )


@dataclass(frozen=True)
class PerfectPacingSequence:
    """Per-round perfect multipliers, their path length, and spend residuals."""

    multipliers: np.ndarray
    residuals: np.ndarray

    @property
    def path_length(self) -> float:
        return float(np.abs(np.diff(self.multipliers)).sum())


def perfect_sequence(envs, rho: float, mu_cap: float) -> PerfectPacingSequence:
    """Perfect multiplier per round of envs (an EnvironmentSequence, or a
    list of steps, one per round); each step is solved, and its residual
    evaluated, once."""
    envs = _sequence(envs)
    per_step = []
    for env in envs.steps:
        mu = perfect_multiplier(env, rho, mu_cap)
        per_step.append((mu, abs(float(env.spend_value(mu)[0][0]) - rho)))
    mus, res = (np.array(col)[envs.index] for col in zip(*per_step))
    return PerfectPacingSequence(mus, res)


# ---------------------------------------------------------------------------
# The surrogate objective and throttled value curve


def _curve_points(env: EnvironmentStep, rho: float, mus, curves: bool = True):
    """Z and V (when curves) and the surrogate objective H at each
    multiplier of mus.  spend_value and spend_integrals each run once on
    the ascending grid of 0, the distinct multipliers and the breakpoints
    among them."""
    mus = _multipliers(mus)
    uniq, at = np.unique(mus, return_inverse=True)
    grid = uniq if uniq[0] == 0.0 else np.concatenate([[0.0], uniq])
    at = at + (len(grid) - len(uniq))
    inner = env.curve_breakpoints(float(grid[-1]))
    if len(inner):
        merged = np.unique(np.concatenate([grid, inner]))
        at = np.searchsorted(merged, grid)[at]
        grid = merged
    values = env.spend_value(grid) if curves else ()
    h = rho * grid - np.concatenate([[0.0], np.cumsum(env.spend_integrals(grid))])
    return tuple(c[at].reshape(mus.shape) for c in (*values, h))


def surrogate_objective(env: EnvironmentStep, rho: float, mu) -> float | np.ndarray:
    """The convex surrogate rho*mu - integral of the spend curve on [0, mu],
    at a multiplier (a float out) or at an array of them, which share one
    cumulative integral along the sorted grid.

    Its derivative is rho - Z(mu), which is exactly the expected drift of
    the pacing update, so the pacing algorithm is projected SGD on this
    objective.
    """
    return _curve_points(env, rho, mu, curves=False)[0][()]


def _throttle(z: np.ndarray, v: np.ndarray, rho: float) -> np.ndarray:
    return np.where(z < rho, v, np.where(z > 0, v * (rho / np.where(z > 0, z, 1.0)), v))


def throttled_value_curve(env: EnvironmentStep, rho: float, mu) -> float | np.ndarray:
    """Throttled per-round value: V when spending under the target rate,
    otherwise V scaled by rho/Z (the pace at which budget would actually
    sustain the rounds)."""
    w = _throttle(*env.spend_value(mu), rho)
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return float(w[0])
    return w


@dataclass(frozen=True)
class SmoothingSpec:
    """The measured Lipschitz constant and spend floors of the smoothed
    curve; the relative floor is against expected value over the value
    cap."""

    lipschitz: float
    floor_absolute: float
    floor_relative: float


def measure_smoothing(env_or_envs, mu_cap: float) -> SmoothingSpec:
    if not 0 < mu_cap < math.inf:
        raise PreconditionError(f"mu_cap must be finite and positive, got {mu_cap}")
    single = isinstance(env_or_envs, EnvironmentStep)  # needs no horizon here
    steps = _sequence([env_or_envs] if single else env_or_envs).steps
    lam = 0.0
    floor_abs = math.inf
    floor_rel = math.inf
    mus = np.linspace(0.0, mu_cap, 2001)
    for env in steps:
        z, v = env.spend_value(mus)
        slopes = np.abs(np.diff(z)) / np.diff(mus)
        rel = z[0] * env.value_cap / v[0] if v[0] > 0 else math.inf
        lam = max(lam, float(slopes.max()))
        floor_abs = min(floor_abs, float(z[0]))
        floor_rel = min(floor_rel, float(rel))
    return SmoothingSpec(lam, floor_abs, floor_rel)


# ---------------------------------------------------------------------------
# Single-agent pacing simulation


@dataclass(frozen=True)
class PacingRun:
    """Trace of one pacing agent against an environment sequence.

    multipliers are NaN from the stop round on; stop_round is horizon + 1
    when the budget never ran out.  multipliers, allocations and payments
    are recorded; values and bids may be given as arrays or, as
    simulate_pacing gives them, as functions of the run, computed on first
    read and cached (simulation._Derived): values from the environments'
    values at the run's atom indices, bids by the market engine's rule
    (_run_bids).
    """

    multipliers: np.ndarray
    values: np.ndarray = _Derived()
    bids: np.ndarray = _Derived()
    allocations: np.ndarray
    payments: np.ndarray
    stop_round: int
    budget: float
    learning_rate: float
    mu_cap: float

    @property
    def horizon(self) -> int:
        return len(self.multipliers)

    @property
    def target_rate(self) -> float:
        return self.budget / self.horizon

    @property
    def live_rounds(self) -> int:
        return min(self.stop_round - 1, self.horizon)


def _run_bids(run: PacingRun) -> np.ndarray:
    """The bids the run made: value/(1 + mu) clamped to the budget left,
    and 0 from the stop round on, as the market engine's trace derives
    them (simulation._played_bids)."""
    opening = _budget_path(run.budget, run.payments)
    return _played_bids(run.values, run.multipliers, opening, [run.stop_round], [True])


def _focal_outcome(env: EnvironmentStep, profiles: np.ndarray, bids: np.ndarray):
    """The focal agent's allocation and payment when it bids `bids` (any
    shape) in the joint profiles (that shape, or one broadcasting to it,
    plus an agent axis): a copy of the profiles takes the bids in column
    agent_index, and each profile goes through the core auction kernel."""
    k = env.agent_index
    profile = np.broadcast_to(profiles, bids.shape + profiles.shape[-1:]).copy()
    profile[..., k] = bids
    x, z = outcomes(env.mechanism, profile.reshape(-1, profile.shape[-1]))
    return x[:, k].reshape(bids.shape), z[:, k].reshape(bids.shape)


def simulate_pacing(
    envs,
    budget: float,
    learning_rate: float,
    mu_cap: float,
    horizon: int | None = None,
    seed: int = 0,
    replications: int = 1,
) -> list[PacingRun]:
    """Run the pacing agent against envs (as _sequence takes them), whose
    steps must share one mechanism, agent_index and opponent count.

    Replications advance in lockstep on spawned substreams through the
    market engine's round (simulation._Lockstep), the agent a paced column
    and each opponent an unpaced one with an infinite budget; each run's
    update arithmetic matches the scalar pacing state transition bit for
    bit.  Replication r's joint profiles are drawn by _draw_runs on
    substream r and noised a block at a time by _noised_profiles.  The
    agent's parameters obey PacedAgent's and AgentConfig's rules, and the
    replication count and seed must be non-negative integers.
    """
    counts = SimpleNamespace(replications=replications, seed=seed)
    _check_number(counts, "replications", integer=True)
    _check_number(counts, "seed", integer=True)
    envs = _sequence(envs, horizon)
    first = envs.steps[0]
    k, n_opp = first.agent_index, first.n_opponents
    shape = (first.mechanism, k, n_opp)
    if any((e.mechanism, e.agent_index, e.n_opponents) != shape for e in envs.steps):
        raise ConfigurationError("environments must share mechanism, agent_index and n_opponents")
    T, R = len(envs), counts.replications
    spec = PacedAgent(budget, learning_rate, mu_cap)
    value_cap = max(env.value_cap for env in envs.steps)
    cfg = AgentConfig(spec.budget, T, spec.learning_rate, spec.mu_cap, value_cap)

    table, widths, atoms, noise = _draw_runs(envs, R, counts.seed)

    # Per column: paced, budget, learning rate, target rate, mu_cap.
    params = np.full((5, n_opp + 1), [[0.0], [np.inf], [np.nan], [np.nan], [np.nan]])
    params[:, k] = 1.0, cfg.budget, cfg.learning_rate, cfg.target_rate, cfg.mu_cap
    game = _Lockstep(R, T, first.mechanism, params[0] == 1.0, *params[1:])
    # Each block's joint profiles (the agent's value in column k, the
    # opponents' noised bids) are the values play reads, bids included.
    def fill(t0, t1):
        return _noised_profiles(
            table, widths, first._others, atoms[:, t0:t1].T, noise[:, t0:t1].transpose(1, 0, 2)
        )

    record = np.empty((3, R, T))
    game.run(fill, [(slice(None), record)], k)
    multipliers, allocations, payments = record
    return [
        PacingRun(
            multipliers=multipliers[r],
            values=functools.partial(_taken_values, table[:, k], atoms[r]),
            bids=_run_bids,
            allocations=allocations[r],
            payments=payments[r],
            stop_round=int(game.stop_round[r, k]),
            budget=float(cfg.budget),
            learning_rate=cfg.learning_rate,
            mu_cap=cfg.mu_cap,
        )
        for r in range(R)
    ]


# ---------------------------------------------------------------------------
# Dynamic regret


@dataclass(frozen=True)
class RegretReport:
    value_regret: float
    sgd_regret: float
    path_length: float
    value_bound: float
    sgd_bound: float
    smoothing: SmoothingSpec
    perfect: PerfectPacingSequence
    live_rounds: int
    horizon: int

    def as_dict(self) -> dict:
        return {
            "value_regret": self.value_regret,
            "sgd_regret": self.sgd_regret,
            "path_length": self.path_length,
            "value_bound": self.value_bound,
            "sgd_bound": self.sgd_bound,
            "lambda": self.smoothing.lipschitz,
            "delta_absolute": self.smoothing.floor_absolute,
            "delta_relative": self.smoothing.floor_relative,
            "live_rounds": self.live_rounds,
            "horizon": self.horizon,
        }


def regret_bounds(
    path_length: float,
    mu_cap: float,
    rho: float,
    value_cap: float,
    horizon: int,
    smoothing: SmoothingSpec,
) -> tuple[float, float]:
    """Analytic right-hand sides: the SGD-regret bound and the value-regret
    bound it feeds, with the implementation constant applied.  Both are
    inf when a square in the SGD bound exceeds float range."""
    c = REGRET_BOUND_CONSTANT
    try:
        reg1 = ((path_length + 1.0) * mu_cap**2 + (rho + value_cap) ** 2) * math.sqrt(horizon)
    except OverflowError:
        return math.inf, math.inf
    sgd_bound = c * reg1
    delta = min(smoothing.floor_absolute, rho)
    if delta <= 0 or smoothing.lipschitz < 0:
        value_bound = math.inf
    else:
        value_bound = c * (
            (value_cap / delta) * math.sqrt(2.0 * smoothing.lipschitz * horizon * reg1)
            + value_cap * mu_cap * math.sqrt(horizon) / rho
        )
    return sgd_bound, value_bound


def dynamic_regret_batch(
    runs: Sequence[PacingRun],
    envs,
    rho: float | None = None,
    mu_cap: float | None = None,
) -> list[RegretReport]:
    """Dynamic regret reports for runs that faced the same environment
    sequence; perfect multipliers and curve integrals are computed once.

    Value regret compares the exact per-round expected value at the perfect
    multiplier against the expected value at the multipliers actually
    played (stopped rounds contribute zero).  SGD regret sums the surrogate
    objective gaps over live rounds; each summand is non-negative because
    the perfect multiplier minimizes the surrogate.
    """
    if not runs:
        return []
    T = runs[0].horizon
    if any(r.horizon != T for r in runs):
        raise ConfigurationError("all runs must share one horizon")
    envs = _sequence(envs, T)
    rho = runs[0].target_rate if rho is None else rho
    mu_cap = runs[0].mu_cap if mu_cap is None else mu_cap

    rounds = envs.rounds()
    perfect = perfect_sequence(envs, rho, mu_cap)
    smoothing = measure_smoothing(envs, mu_cap)
    # Each step's expected value and surrogate objective at its perfect
    # multiplier, spread over its rounds.
    per_step = []
    for env, at in zip(envs.steps, rounds):
        mu_star = perfect.multipliers[at[:1]]
        per_step.append((env.spend_value(mu_star)[1][0], surrogate_objective(env, rho, mu_star)[0]))
    v_star, h_star = (np.array(col)[envs.index] for col in zip(*per_step))

    sgd_bound, value_bound = regret_bounds(
        perfect.path_length, mu_cap, rho, max(env.value_cap for env in envs.steps), T, smoothing
    )
    # One run at a time: its expected value and surrogate objective at the
    # multipliers it played, written over its live rounds of two buffers
    # every run reuses (only live rounds are read).
    v_run = np.empty(T)
    h_run = np.empty(T)
    reports = []
    for run in runs:
        live = ~np.isnan(run.multipliers)
        for env, at in zip(envs.steps, rounds):
            played = at[live[at]]
            if len(played) == 0:
                continue
            _z, v_run[played], h_run[played] = _curve_points(env, rho, run.multipliers[played])
        value_regret = float(v_star.sum() - v_run[live].sum())
        sgd_regret = float((h_run[live] - h_star[live]).sum())
        reports.append(
            RegretReport(
                value_regret=value_regret,
                sgd_regret=sgd_regret,
                path_length=perfect.path_length,
                value_bound=value_bound,
                sgd_bound=sgd_bound,
                smoothing=smoothing,
                perfect=perfect,
                live_rounds=int(live.sum()),
                horizon=T,
            )
        )
    return reports


def fit_growth_exponent(horizons: Sequence[int], regrets: Sequence[float]) -> float:
    """Least-squares slope of log regret against log horizon."""
    h = np.asarray(horizons, dtype=np.float64)
    r = np.asarray(regrets, dtype=np.float64)
    if len(np.unique(h)) < 2:
        raise PreconditionError("a growth exponent needs at least two distinct horizons")
    if not np.all((h > 0) & (h < np.inf)):
        raise PreconditionError("horizons must be finite and positive for a log-log fit")
    if not np.all((r > 0) & (r < np.inf)):
        raise PreconditionError("regrets must be finite and positive for a log-log fit")
    slope = np.polyfit(np.log(h), np.log(r), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Fixed-multiplier stochastic value (time-invariant environments)


def stochastic_value(
    env: EnvironmentStep,
    mu: float,
    budget: float,
    horizon: int,
    replications: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo expected total value of pacing at a fixed multiplier
    until the budget runs out.

    The agent bids value/(1 + mu) every round without clamping; the round
    on which cumulative spend first reaches the budget still counts toward
    the total, matching the stopped-process accounting of the analytic
    upper bound.  Replication r draws on substream r of seed, as
    simulate_pacing's do.  mu, budget, horizon and seed must be finite and
    non-negative, horizon and seed integers, and replications at least 1.
    """
    spec = SimpleNamespace(mu=mu, budget=budget, horizon=horizon, replications=replications,
                           seed=seed)
    _check_number(spec, "mu")
    _check_number(spec, "budget")
    _check_number(spec, "horizon", integer=True)
    _check_number(spec, "replications", positive=True, integer=True)
    _check_number(spec, "seed", integer=True)
    T, R = spec.horizon, spec.replications
    if budget == 0 or T == 0:
        return 0.0, 0.0
    table, widths, atoms, noise = _draw_runs(_sequence(env, T), R, spec.seed)
    profiles = _noised_profiles(table, widths, env._others, atoms, noise)
    vals = profiles[..., env.agent_index]
    x, z = _focal_outcome(env, profiles, vals / (1.0 + mu))
    gained = x * vals
    spend_cum = np.cumsum(z, axis=1)
    alive = np.concatenate([np.ones((R, 1), dtype=bool), spend_cum[:, :-1] < budget], axis=1)
    return _mean_stderr((gained * alive).sum(axis=1))
