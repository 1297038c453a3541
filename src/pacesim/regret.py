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
continuous and Lipschitz, and all noise integrals are evaluated in closed
form (piecewise Gauss-Legendre, exact for the piecewise-polynomial win
probabilities involved).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .auctions import FIRST_PRICE, SECOND_PRICE, Mechanism, SingleSlot, outcomes
from .constants import REGRET_BOUND_CONSTANT
from .errors import ConfigurationError, PreconditionError, SmoothingRequiredError
from .simulation import _RECORD_ROUNDS, ValueModel, _check_number, _Lockstep, atom_indices

BISECTION_TOL = 1e-9
BISECTION_MAX_ITER = 200
QUADRATURE_TOL = 1e-8

#: Default bid-noise width as a fraction of the value cap.
DEFAULT_SMOOTHING_FRACTION = 0.05


class _NoisedMax:
    """Distribution of the largest competing bid after uniform noise.

    Competing bids d_j each get independent U[0, eta] noise; the CDF of the
    max is a piecewise polynomial of degree at most J between the edges
    d_j and d_j + eta, so its integral is evaluated exactly by fixed-order
    Gauss-Legendre per piece.
    """

    def __init__(self, comp: np.ndarray, eta: float):
        self.comp = comp
        self.eta = eta
        self.dmax = float(comp.max())
        edges = np.unique(np.concatenate([comp, comp + eta]))
        self.pts = edges[edges >= self.dmax - 1e-15]
        nodes, weights = np.polynomial.legendre.leggauss(len(comp) // 2 + 1)
        self._gl = (nodes, weights)
        self.cum = np.zeros(len(self.pts))
        for i in range(len(self.pts) - 1):
            piece = self._gl_piece(self.pts[i : i + 1], self.pts[i + 1 : i + 2])
            self.cum[i + 1] = self.cum[i] + piece[0]

    def cdf(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a gap over a tiny eta saturates the clip
            g = np.clip((u[..., None] - self.comp) / self.eta, 0.0, 1.0)
        return g.prod(axis=-1)

    def integral_cdf(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        inside = b > self.pts[0]
        if not np.any(inside):
            return out
        bi = b[inside]
        seg = np.minimum(np.searchsorted(self.pts, bi, side="right") - 1, len(self.pts) - 1)
        lo = self.pts[seg]
        partial = np.where(
            seg == len(self.pts) - 1,
            bi - lo,  # CDF is 1 beyond the last edge
            self._gl_piece(lo, bi),
        )
        out[inside] = self.cum[seg] + partial
        return out

    def _gl_piece(self, lo: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integral of the CDF over each [lo_i, b_i] inside one piece."""
        nodes, weights = self._gl
        half = (b - lo) / 2.0
        pts = lo[:, None] + half[:, None] * (nodes[None, :] + 1.0)
        return half * (self.cdf(pts) * weights[None, :]).sum(axis=1)

    def expected_below(self, b: np.ndarray) -> np.ndarray:
        """E[max 1{max < b}] = b F(b) - integral of F up to b."""
        return b * self.cdf(b) - self.integral_cdf(b)


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

    @functools.cached_property
    def _noised(self) -> list[_NoisedMax]:
        """Each atom's largest competing bid under the noise."""
        return [_NoisedMax(comp, self.eta) for comp in self.competing_bids]

    def spend_value(self, mu) -> tuple[np.ndarray, np.ndarray]:
        """Exact expected payment and expected value at each multiplier."""
        mu_arr = np.atleast_1d(np.asarray(mu, dtype=np.float64))
        if np.any(mu_arr < 0):
            raise PreconditionError("multipliers must be non-negative")
        curves = self._curves_noised if self.eta > 0 else self._curves_exact
        return curves(mu_arr)

    def spend(self, mu):
        return self.spend_value(mu)[0]

    def _curves_noised(self, mu_arr: np.ndarray):
        bids = self.values[:, None] / (1.0 + mu_arr[None, :])  # (S, M)
        if self.n_opponents == 0:
            win = (bids > 0).astype(np.float64)
        else:
            gap = bids[:, :, None] - self.competing_bids[:, None, :]
            with np.errstate(over="ignore"):  # a gap over a tiny eta saturates the clip
                g = np.clip(gap / self.eta, 0.0, 1.0)
            win = g.prod(axis=2) * (bids > 0)
        v = (self.probs[:, None] * self.values[:, None] * win).sum(axis=0)
        if self.mechanism.kind == FIRST_PRICE:
            z = (self.probs[:, None] * bids * win).sum(axis=0)
        else:
            z = np.zeros_like(mu_arr)
            if self.n_opponents > 0:
                for s in range(self.n_atoms):
                    pay = self._noised[s].expected_below(bids[s])
                    z += self.probs[s] * pay * (bids[s] > 0)
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
            m = self.values[:, None] / np.where(edge > 0, edge, np.inf) - 1.0
            pts.append(m[(m > 0) & (m < mu_max)])
        return np.unique(np.concatenate(pts))

    def draw(self, rng: np.random.Generator, rounds: int, replications: int) -> np.ndarray:
        """Sample joint profiles, competing bids noised, of shape
        (replications, rounds, opponents + 1)."""
        idx = atom_indices(self.probs, rng.random((replications, rounds)))
        profiles = self._model.profiles[idx]
        if self.eta > 0 and self.n_opponents > 0:
            profiles[..., self._others] += self.eta * rng.random(idx.shape + (self.n_opponents,))
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


def _distinct(envs: Sequence[EnvironmentStep]) -> list[tuple[EnvironmentStep, np.ndarray]]:
    """Each distinct environment object of the sequence, in order of first
    appearance, with the (ascending) rounds it covers."""
    groups: dict[int, tuple[EnvironmentStep, list[int]]] = {}
    for t, env in enumerate(envs):
        groups.setdefault(id(env), (env, []))[1].append(t)
    return [(env, np.asarray(rounds, dtype=np.int64)) for env, rounds in groups.values()]


# ---------------------------------------------------------------------------
# Perfect pacing multipliers


def perfect_multiplier(
    env: EnvironmentStep,
    rho: float,
    mu_cap: float,
    tol: float = BISECTION_TOL,
) -> float:
    """Bisect the non-increasing spend curve for Z(mu) = rho on [0, mu_cap].

    Returns 0 when even unshaded bidding spends below the target.  A step
    discontinuity at the root cannot meet the residual tolerance, in which
    case the caller is told to smooth the environment.
    """
    if rho <= 0:
        raise PreconditionError("target rate must be positive")
    if mu_cap < env.value_cap / rho:
        raise PreconditionError("need mu_cap >= value_cap / rho")
    z0 = float(env.spend(np.array([0.0]))[0])
    if z0 < rho:
        return 0.0
    if abs(z0 - rho) <= tol:
        return 0.0
    lo, hi = 0.0, float(mu_cap)
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        zm = float(env.spend(np.array([mid]))[0])
        if abs(zm - rho) <= tol:
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


def perfect_sequence(
    envs: Sequence[EnvironmentStep],
    rho: float,
    mu_cap: float,
    tol: float = BISECTION_TOL,
) -> PerfectPacingSequence:
    """Perfect multiplier per round; repeated env objects are solved (and
    their residual evaluated) once."""
    mus = np.empty(len(envs))
    res = np.empty(len(envs))
    for env, rounds in _distinct(envs):
        mu = perfect_multiplier(env, rho, mu_cap, tol)
        mus[rounds] = mu
        res[rounds] = abs(float(env.spend(np.array([mu]))[0]) - rho)
    return PerfectPacingSequence(mus, res)


# ---------------------------------------------------------------------------
# The surrogate objective and throttled value curve


def _simpson_segments(f, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Adaptive Simpson integral of f over each [lo_i, hi_i], vectorized
    across segments; per-segment tolerance is allocated by width."""
    k = len(lo)
    total = np.zeros(k)
    if k == 0:
        return total
    width = hi - lo
    span = float(width.sum())
    if span <= 0:
        return total
    a, b = lo.copy(), hi.copy()
    owner = np.arange(k)
    seg_tol = tol * width / span
    depth = np.zeros(k, dtype=np.int64)
    while len(a):
        m = 0.5 * (a + b)
        m1 = 0.5 * (a + m)
        m2 = 0.5 * (m + b)
        vals = f(np.concatenate([a, m1, m, m2, b]))
        fa, f1, fm, f2, fb = np.split(vals, 5)
        s1 = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        s2 = (m - a) / 6.0 * (fa + 4.0 * f1 + fm) + (b - m) / 6.0 * (fm + 4.0 * f2 + fb)
        err = np.abs(s2 - s1)
        done = (err <= 15.0 * seg_tol) | (depth >= 28) | (b - a < 1e-14)
        np.add.at(total, owner[done], s2[done] + (s2[done] - s1[done]) / 15.0)
        keep = ~done
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        seg_tol = np.concatenate([seg_tol[keep] / 2.0, seg_tol[keep] / 2.0])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
    return total


def _spend_integrals(env: EnvironmentStep, pts: np.ndarray, tol: float) -> np.ndarray:
    """Cumulative integral of the spend curve from 0 to each point of the
    ascending grid pts (pts[0] must be 0)."""
    inner = env.curve_breakpoints(float(pts[-1])) if len(pts) else np.empty(0)
    grid = np.unique(np.concatenate([pts, inner]))
    segs = _simpson_segments(env.spend, grid[:-1], grid[1:], tol)
    cum = np.concatenate([[0.0], np.cumsum(segs)])
    return cum[np.searchsorted(grid, pts)]


def surrogate_objective(
    env: EnvironmentStep, rho: float, mu: float, tol: float = QUADRATURE_TOL
) -> float:
    """The convex surrogate rho*mu - integral of the spend curve on [0, mu].

    Its derivative is rho - Z(mu), which is exactly the expected drift of
    the pacing update, so the pacing algorithm is projected SGD on this
    objective.
    """
    return float(objective_values(env, rho, np.array([mu], dtype=np.float64), tol)[0])


def objective_values(
    env: EnvironmentStep, rho: float, mus: np.ndarray, tol: float = QUADRATURE_TOL
) -> np.ndarray:
    """Surrogate objective at many multipliers, sharing one cumulative
    integration pass along the sorted grid."""
    mus = np.asarray(mus, dtype=np.float64)
    if np.any(mus < 0):
        raise PreconditionError("multipliers must be non-negative")
    uniq, inverse = np.unique(mus, return_inverse=True)
    grid = uniq if uniq[0] == 0.0 else np.concatenate([[0.0], uniq])
    cum = _spend_integrals(env, grid, tol)
    h = rho * grid - cum
    offset = 0 if uniq[0] == 0.0 else 1
    return h[inverse + offset].reshape(mus.shape)


def throttled_value_curve(env: EnvironmentStep, rho: float, mu) -> float | np.ndarray:
    """Throttled per-round value: V when spending under the target rate,
    otherwise V scaled by rho/Z (the pace at which budget would actually
    sustain the rounds)."""
    z, v = env.spend_value(mu)
    w = np.where(z < rho, v, np.where(z > 0, v * (rho / np.where(z > 0, z, 1.0)), v))
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return float(w[0])
    return w


@dataclass(frozen=True)
class SmoothingSpec:
    """Noise width plus the measured Lipschitz constant and spend floors of
    the smoothed curve; the relative floor is against expected value over
    the value cap."""

    eta: float
    lipschitz: float
    floor_absolute: float
    floor_relative: float


def measure_smoothing(
    env_or_envs, mu_cap: float, grid_points: int = 2001
) -> SmoothingSpec:
    envs = [env_or_envs] if isinstance(env_or_envs, EnvironmentStep) else list(env_or_envs)
    lam = 0.0
    floor_abs = math.inf
    floor_rel = math.inf
    eta = 0.0
    mus = np.linspace(0.0, mu_cap, grid_points)
    for env, _rounds in _distinct(envs):
        z, v = env.spend_value(mus)
        slopes = np.abs(np.diff(z)) / np.diff(mus)
        rel = z[0] * env.value_cap / v[0] if v[0] > 0 else math.inf
        lam = max(lam, float(slopes.max()))
        floor_abs = min(floor_abs, float(z[0]))
        floor_rel = min(floor_rel, float(rel))
        eta = max(eta, env.eta)
    return SmoothingSpec(eta, lam, floor_abs, floor_rel)


# ---------------------------------------------------------------------------
# Single-agent pacing simulation


@dataclass(frozen=True)
class PacingRun:
    """Trace of one pacing agent against an environment sequence.

    multipliers are NaN from the stop round on; stop_round is horizon + 1
    when the budget never ran out.
    """

    multipliers: np.ndarray
    values: np.ndarray
    bids: np.ndarray
    allocations: np.ndarray
    payments: np.ndarray
    stop_round: int
    budget: float
    learning_rate: float
    mu_cap: float

    @property
    def horizon(self) -> int:
        return len(self.values)

    @property
    def target_rate(self) -> float:
        return self.budget / self.horizon

    @property
    def live_rounds(self) -> int:
        return min(self.stop_round - 1, self.horizon)


def _as_env_list(envs, horizon: int | None) -> list[EnvironmentStep]:
    if isinstance(envs, EnvironmentStep):
        if horizon is None:
            raise ConfigurationError("horizon required with a single environment")
        return [envs] * horizon
    envs = list(envs)
    if horizon is not None and horizon != len(envs):
        raise ConfigurationError("environment list length must equal the horizon")
    if not envs:
        raise ConfigurationError("empty environment sequence")
    return envs


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
    """Run the pacing agent against the environment sequence, whose
    environments must share one mechanism, agent_index and opponent count.

    Replications advance in lockstep on spawned substreams through the
    market engine's round (simulation._Lockstep), the agent a paced column
    and each opponent an unpaced one with an infinite budget; each run's
    update arithmetic matches the scalar pacing state transition bit for
    bit.
    """
    env_list = _as_env_list(envs, horizon)
    groups = _distinct(env_list)
    first = env_list[0]
    k, n_opp = first.agent_index, first.n_opponents
    shape = (first.mechanism, k, n_opp)
    if any((e.mechanism, e.agent_index, e.n_opponents) != shape for e, _rounds in groups):
        raise ConfigurationError("environments must share mechanism, agent_index and n_opponents")
    T, R = len(env_list), replications

    # Rows in PacingRun's field order: multipliers, values, bids, allocations
    # and payments.  Per replication's substream one uniform per round picks
    # the atom, then one per round and competing bid realizes the noise;
    # each is overwritten by the value or bid it draws.
    record = np.empty((5, R, T))
    values = record[1]
    comp = np.empty((R, T, n_opp))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(R)):
        rng = np.random.Generator(np.random.Philox(child))
        values[r] = rng.random(T)
        comp[r] = rng.random((T, n_opp))
    for env, rounds in groups:
        idx = atom_indices(env.probs, values[:, rounds])
        values[:, rounds] = env.values[idx]
        drawn = env.competing_bids[idx]
        if env.eta > 0:
            drawn += env.eta * comp[:, rounds]
        comp[:, rounds] = drawn

    # Per column: paced, budget, learning rate, target rate, mu_cap.
    params = np.full((5, n_opp + 1), [[0.0], [np.inf], [np.nan], [np.nan], [np.nan]])
    params[:, k] = 1.0, budget, learning_rate, budget / T, mu_cap
    game = _Lockstep(R, T, params[0] == 1.0, *params[1:])
    # A record block of all columns: joint profiles in (the agent's value in
    # column k, the opponents' bids around it), which play reads as both the
    # values and the bids; multipliers, budgets, b, x, z out.
    B = min(_RECORD_ROUNDS, T)
    profiles = np.empty((B, R, n_opp + 1))
    mus, rems = np.empty((2, B + 1, R, n_opp + 1))
    played = np.empty((3, B, R, n_opp + 1))  # bids, x, z
    for t0 in range(0, T, _RECORD_ROUNDS):
        t1 = min(t0 + B, T)
        profiles[: t1 - t0, :, k] = values[:, t0:t1].T
        profiles[: t1 - t0, :, first._others] = comp[:, t0:t1].transpose(1, 0, 2)
        game.play(t0, first.mechanism, profiles[: t1 - t0], profiles, mus, rems, *played)
        record[0, :, t0:t1] = mus[: t1 - t0, :, k].T
        record[2:, :, t0:t1] = played[:, : t1 - t0, :, k].transpose(0, 2, 1)
    for r in range(R):
        record[0, r, game.stop_round[r, k] - 1 :] = np.nan  # no multiplier once stopped
    return [
        PacingRun(*record[:, r], int(game.stop_round[r, k]), float(budget), learning_rate, mu_cap)
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


def dynamic_regret(
    run: PacingRun,
    envs,
    rho: float | None = None,
    mu_cap: float | None = None,
    tol: float = QUADRATURE_TOL,
) -> RegretReport:
    return dynamic_regret_batch([run], envs, rho, mu_cap, tol)[0]


def dynamic_regret_batch(
    runs: Sequence[PacingRun],
    envs,
    rho: float | None = None,
    mu_cap: float | None = None,
    tol: float = QUADRATURE_TOL,
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
    env_list = _as_env_list(envs, T)
    rho = runs[0].target_rate if rho is None else rho
    mu_cap = runs[0].mu_cap if mu_cap is None else mu_cap

    groups = _distinct(env_list)
    distinct = [env for env, _rounds in groups]
    smoothing = measure_smoothing(distinct, mu_cap)
    perfect = perfect_sequence(env_list, rho, mu_cap)

    v_star = np.empty(T)
    h_star = np.empty(T)
    v_run = [np.zeros(T) for _ in runs]
    h_run = [np.zeros(T) for _ in runs]
    live_mask = [~np.isnan(run.multipliers) for run in runs]
    for env, rounds_arr in groups:
        mu_star = perfect.multipliers[rounds_arr[0]]
        zs, vs = env.spend_value(np.array([mu_star]))
        hs = objective_values(env, rho, np.array([mu_star]), tol)[0]
        v_star[rounds_arr] = vs[0]
        h_star[rounds_arr] = hs
        for i, run in enumerate(runs):
            mask = live_mask[i][rounds_arr]
            mus = run.multipliers[rounds_arr[mask]]
            if len(mus) == 0:
                continue
            _, vv = env.spend_value(mus)
            hh = objective_values(env, rho, mus, tol)
            v_run[i][rounds_arr[mask]] = vv
            h_run[i][rounds_arr[mask]] = hh

    sgd_bound, value_bound = regret_bounds(
        perfect.path_length, mu_cap, rho, smoothing_value_cap(distinct), T, smoothing
    )
    reports = []
    for i, run in enumerate(runs):
        mask = live_mask[i]
        value_regret = float(v_star.sum() - v_run[i][mask].sum())
        sgd_regret = float((h_run[i][mask] - h_star[mask]).sum())
        reports.append(
            RegretReport(
                value_regret=value_regret,
                sgd_regret=sgd_regret,
                path_length=perfect.path_length,
                value_bound=value_bound,
                sgd_bound=sgd_bound,
                smoothing=smoothing,
                perfect=perfect,
                live_rounds=int(mask.sum()),
                horizon=T,
            )
        )
    return reports


def smoothing_value_cap(env_list: Sequence[EnvironmentStep]) -> float:
    return max(env.value_cap for env in env_list)


def fit_growth_exponent(horizons: Sequence[int], regrets: Sequence[float]) -> float:
    """Least-squares slope of log regret against log horizon."""
    h = np.asarray(horizons, dtype=np.float64)
    r = np.asarray(regrets, dtype=np.float64)
    if np.any(r <= 0):
        raise PreconditionError("regrets must be positive for a log-log fit")
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
    upper bound.
    """
    if budget <= 0 or horizon == 0:
        return 0.0, 0.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    profiles = env.draw(rng, horizon, replications)
    vals = profiles[..., env.agent_index]
    x, z = _focal_outcome(env, profiles, vals / (1.0 + mu))
    gained = x * vals
    spend_cum = np.cumsum(z, axis=1)
    alive = np.concatenate(
        [np.ones((replications, 1), dtype=bool), spend_cum[:, :-1] < budget], axis=1
    )
    totals = (gained * alive).sum(axis=1)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    return mean, stderr
