"""Executable checkers for the standalone probabilistic and deterministic
inequalities the rest of the package relies on.

Each checker computes its statistic and the analytic bound from the same
formula, with any implementation constants taken from `constants`; Monte
Carlo checkers pass with MC_SIGMA standard errors of slack, deterministic
ones with SURE_TOL.  In SUITES, the table of `pacesim verify`, every suite
but those in WITHOUT_CONTROL has a negative control: a deliberately
violating input that must fail.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import auctions, scenarios
from .constants import MC_SIGMA, SGD_BOUND_CONSTANT, SURE_TOL
from .errors import ConfigurationError, InvariantViolationError, PreconditionError
from .simulation import Trace, ValueModel, _check_number, atom_indices, replicate
from .simulation import check_stopping_bound, epoch_bound_stats

# ---------------------------------------------------------------------------
# Concentration of predictably-selected bounded sums


@dataclass(frozen=True)
class UniformValues:
    """Values uniform on [low, high], finite and non-negative."""

    low: float
    high: float

    def __post_init__(self):
        _check_number(self, "low")
        _check_number(self, "high")
        if self.low > self.high:
            raise ConfigurationError(f"low must be at most high, got {self.low} > {self.high}")

    def draw(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n draws, into out if given, by the formula of `rng.uniform`."""
        u = rng.random(n, out=out)
        u *= self.high - self.low
        u += self.low
        return u

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def max(self) -> float:
        return self.high


@dataclass(frozen=True)
class DiscreteValues:
    """Values drawn from a finite support, under ValueModel's rules."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        model = ValueModel(self.probs, np.reshape(self.values, (-1, 1)))
        object.__setattr__(self, "_model", model)

    def draw(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n draws, into out if given, through the engine's inverse-CDF
        lookup; the same bits as `rng.choice` when the cumulative
        probabilities end at exactly 1.0."""
        u = rng.random(n, out=out)
        return np.take(self._model.profiles[:, 0], atom_indices(self._model.probs, u), out=u)

    @property
    def mean(self) -> float:
        return float(sum(v * p for v, p in zip(self.values, self.probs)))

    @property
    def max(self) -> float:
        return max(self.values)


def _selector(name_or_fn) -> Callable:
    if callable(name_or_fn):
        return name_or_fn
    table = {
        # X_t may only depend on information available before round t.
        "always": lambda t, stat, rho: np.ones_like(stat),
        "never": lambda t, stat, rho: np.zeros_like(stat),
        "adversarial": lambda t, stat, rho: (stat < rho * t).astype(np.float64),
    }
    if name_or_fn not in table:
        raise ConfigurationError(f"unknown selector {name_or_fn!r}")
    return table[name_or_fn]


@dataclass(frozen=True)
class MartingaleSetup:
    """Per-round value distribution, a predictable [0,1] selector, and the
    parameters of the tail inequality being exercised.

    The selector receives (t, running statistic, rho) and must not look at
    the round's own draw; the named selectors honor that by construction.
    """

    y_dist: UniformValues | DiscreteValues
    selector: str | Callable
    horizon: int
    v_max: float
    rho: float

    def __post_init__(self):
        _check_number(self, "horizon", positive=True, integer=True)
        _check_number(self, "v_max", positive=True)
        _check_number(self, "rho")
        if self.y_dist.max > self.v_max + 1e-12:
            raise ConfigurationError("value distribution exceeds v_max")


@dataclass(frozen=True)
class CheckReport:
    checker: str
    trials: int
    statistic: float
    bound: float
    passed: bool
    detail: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "checker": self.checker,
            "trials": self.trials,
            "statistic": self.statistic,
            "bound": self.bound,
            "pass": self.passed,
        }
        if self.detail:
            out.update(self.detail)
        return out


def concentration_check(
    setup: MartingaleSetup, theta: float, trials: int = 100_000, seed: int = 0
) -> CheckReport:
    """Empirical tail frequency of the selected sum exceeding rho*T + theta,
    against the analytic bound exp(-2 theta^2 / (T v_max^2)).

    Passes when the frequency is at most the bound plus MC_SIGMA binomial
    standard errors.  Feeding a value distribution with mean above rho is
    the negative control: the bound no longer applies and the check fails.
    """
    # The tail bound is stated for theta >= 0; below 0 it fails on values
    # whose mean is exactly rho.
    run = SimpleNamespace(theta=theta, trials=trials)
    _check_number(run, "theta")
    _check_number(run, "trials", positive=True, integer=True)
    trials = run.trials
    select = _selector(setup.selector)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    stat = np.zeros(trials)
    x, y = np.empty(trials), np.empty(trials)
    for t in range(setup.horizon):
        # stat += x * y + (1 - x) * rho, evaluated in that order in place.
        np.clip(select(t, stat, setup.rho), 0.0, 1.0, out=x)
        setup.y_dist.draw(rng, trials, out=y)
        y *= x
        np.subtract(1.0, x, out=x)
        x *= setup.rho
        y += x
        stat += y
    threshold = setup.rho * setup.horizon + theta
    freq = float((stat >= threshold).mean())
    bound = math.exp(-2.0 * theta**2 / (setup.horizon * setup.v_max**2))
    stderr = math.sqrt(max(freq * (1 - freq), 0.0) / trials)
    passed = freq <= bound + MC_SIGMA * stderr
    return CheckReport(
        "concentration",
        trials,
        freq,
        bound,
        passed,
        {"theta": theta, "stderr": stderr, "mean_y": setup.y_dist.mean},
    )


# ---------------------------------------------------------------------------
# Projected SGD dynamic regret


@dataclass(frozen=True)
class SGDTestProblem:
    """Quadratic losses 0.5 (x - m_t)^2 with drifting minimizers on an
    interval domain, with bounded uniform gradient noise.

    The comparator sequence is the minimizers themselves, so its path bound
    is sum |m_{t+1} - m_t| + 1 and the gradient norm is surely at most the
    domain diameter plus the noise width.
    """

    domain: tuple[float, float]
    minimizers: np.ndarray
    noise_width: float = 0.0
    trials: int = 100

    def __post_init__(self):
        _check_number(self, "trials", positive=True, integer=True)
        lo, hi = self.domain
        m = np.asarray(self.minimizers, dtype=np.float64).copy()
        if hi <= lo:
            raise ConfigurationError("empty domain")
        if np.any(m < lo) or np.any(m > hi):
            raise ConfigurationError("minimizers must lie in the domain")
        if self.noise_width < 0:
            raise ConfigurationError("noise width must be non-negative")
        m.flags.writeable = False
        object.__setattr__(self, "minimizers", m)

    @property
    def horizon(self) -> int:
        return len(self.minimizers)

    @property
    def diameter(self) -> float:
        return self.domain[1] - self.domain[0]

    @property
    def gradient_bound(self) -> float:
        return self.diameter + self.noise_width

    @property
    def path_bound(self) -> float:
        return float(np.abs(np.diff(self.minimizers)).sum()) + 1.0

    def tuned_step_size(self) -> float:
        return self.diameter * math.sqrt(
            self.path_bound / (self.gradient_bound**2 * self.horizon)
        )


def sgd_regret_bound(problem: SGDTestProblem, eps: float) -> float:
    """C * (D^2 P / eps + eps G^2 T); at eps <= 0 the bound is evaluated at
    the optimally tuned step size so a no-learning control is falsifiable."""
    d, g, t, p = (
        problem.diameter,
        problem.gradient_bound,
        problem.horizon,
        problem.path_bound,
    )
    if eps <= 0:
        return SGD_BOUND_CONSTANT * 2.0 * d * g * math.sqrt(p * t)
    return SGD_BOUND_CONSTANT * (d**2 * p / eps + eps * g**2 * t)


def sgd_regret_check(problem: SGDTestProblem, eps: float, seed: int = 0) -> CheckReport:
    """Run projected SGD with noisy gradients against the drifting
    comparator and compare mean regret to the analytic bound."""
    lo, hi = problem.domain
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = np.full(problem.trials, lo)
    regret = np.zeros(problem.trials)
    for t in range(problem.horizon):
        m = problem.minimizers[t]
        regret += 0.5 * (x - m) ** 2
        grad = x - m
        if problem.noise_width > 0:
            grad = grad + rng.uniform(-problem.noise_width, problem.noise_width, x.shape)
        if eps > 0:
            x = np.clip(x - eps * grad, lo, hi)
    measured = float(regret.mean())
    bound = sgd_regret_bound(problem, eps)
    return CheckReport(
        "sgd_regret",
        problem.trials,
        measured,
        bound,
        measured <= bound,
        {"eps": eps, "path_bound": problem.path_bound},
    )


# ---------------------------------------------------------------------------
# Increasing Lipschitz functions vs. their integral


@dataclass(frozen=True)
class PiecewiseLinear:
    """f given by breakpoints; must cover 0 so that f(0) is defined."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64).copy()
        ys = np.asarray(self.ys, dtype=np.float64).copy()
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ConfigurationError("need matching breakpoint arrays, length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ConfigurationError("breakpoints must strictly increase")
        if not xs[0] <= 0 <= xs[-1]:
            raise ConfigurationError("breakpoints must straddle 0")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))

    def max_slope(self) -> float:
        return float((np.abs(np.diff(self.ys)) / np.diff(self.xs)).max())

    def is_nondecreasing(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.diff(self.ys) >= -tol))

    def integral_from_zero(self, x: float) -> float:
        """Exact signed integral of the interpolant from 0 to x."""
        lo, hi = (0.0, x) if x >= 0 else (x, 0.0)
        pts = np.unique(np.concatenate([[lo, hi], self.xs[(self.xs > lo) & (self.xs < hi)]]))
        vals = np.interp(pts, self.xs, self.ys)
        area = float(np.trapezoid(vals, pts))
        return area if x >= 0 else -area


def lipschitz_integral_check(
    f: PiecewiseLinear,
    x: float,
    lam: float,
    tol: float = SURE_TOL,
    validate: bool = True,
) -> CheckReport:
    """Check |f(x)| <= sqrt(2 lam * integral_0^x f) for an increasing
    lam-Lipschitz f with f(0) = 0; the integral is exact (trapezoid on the
    linear pieces).

    With validate=True the preconditions are enforced and a violating spec
    raises; validate=False lets negative controls exercise the inequality
    directly.
    """
    if validate:
        if not f.is_nondecreasing():
            raise PreconditionError("f must be non-decreasing")
        if f.max_slope() > lam + 1e-12:
            raise PreconditionError(f"slope {f.max_slope()} exceeds lambda {lam}")
        if abs(f(0.0)) > 1e-12:
            raise PreconditionError("f(0) must be 0")
        if not f.xs[0] <= x <= f.xs[-1]:
            raise PreconditionError("x outside the function's breakpoints")
    r = f.integral_from_zero(x)
    fx = f(x)
    bound = math.sqrt(max(2.0 * lam * r, 0.0))
    passed = abs(fx) <= bound + tol
    return CheckReport(
        "lipschitz_integral", 1, abs(fx), bound, passed, {"x": x, "integral": r, "lambda": lam}
    )


#: Most linear pieces of a fuzzed function.
_MAX_PIECES = 7


def _lipschitz_draws(rng: np.random.Generator, count: int):
    """`count` random increasing piecewise-linear functions as padded rows
    (xs, ys, k, lam, x): k in 2.._MAX_PIECES pieces on breakpoints
    xs[:, :k + 1] from 0, widths uniform on [0.05, 1), slopes uniform on
    [0, 2), lam the largest slope (1 if all are 0), and x uniform on
    [0, xs[k]).

    Each instance takes k, then one uniform per width, one per slope and
    one for x from the stream, in that order; rng.uniform(lo, hi) is
    lo + (hi - lo) times such a uniform, so the rows hold the bits that
    drawing each part with rng.uniform gives."""
    k = np.empty(count, dtype=np.int64)
    u = np.zeros((count, 2 * _MAX_PIECES + 1))
    for i in range(count):
        k[i] = pieces = int(rng.integers(2, _MAX_PIECES + 1))
        rng.random(out=u[i, : 2 * pieces + 1])
    cols = np.arange(_MAX_PIECES)
    piece = cols < k[:, None]
    widths = np.where(piece, 0.05 + (1.0 - 0.05) * u[:, :_MAX_PIECES], 0.0)
    slopes = np.where(piece, 2.0 * np.take_along_axis(u, k[:, None] + cols, 1), 0.0)
    xs = np.zeros((count, _MAX_PIECES + 1))
    np.cumsum(widths, axis=1, out=xs[:, 1:])
    ys = np.zeros_like(xs)
    np.cumsum(slopes * np.diff(xs, axis=1), axis=1, out=ys[:, 1:])
    lam = slopes.max(axis=1)
    lam[lam == 0.0] = 1.0
    rows = np.arange(count)
    return xs, ys, k, lam, xs[rows, k] * u[rows, 2 * k]


def _lipschitz_rows(xs, ys, k, lam, x, tol: float = SURE_TOL):
    """`lipschitz_integral_check` with validation, one instance per row:
    f interpolates (xs[r, :k[r] + 1], ys[r, :k[r] + 1]) with xs[r, 0] = 0,
    and 0 <= x[r].  Returns |f(x)|, the bound and the verdict per row, with
    the scalar check's arithmetic: np.interp's formula for f(x), and the
    trapezoid terms of the exact integral added in order.  A row that
    breaks a precondition raises InvariantViolationError."""
    rows = np.arange(len(k))
    cols = np.arange(xs.shape[1] - 1)
    piece = cols < k[:, None]
    dx, dy = np.diff(xs, axis=1), np.diff(ys, axis=1)
    slope = np.divide(np.abs(dy), dx, out=np.zeros_like(dx), where=piece)
    if not np.all(
        (k >= 1)
        & np.all(~piece | ((dx > 0) & (dy >= -1e-12)), axis=1)
        & (slope.max(axis=1) <= lam + 1e-12)
        & (np.abs(ys[:, 0]) <= 1e-12)
        & (xs[:, 0] == 0.0)
        & (0.0 <= x)
        & (x <= xs[rows, k])
    ):
        raise InvariantViolationError("a Lipschitz fuzz row breaks the check's preconditions")
    # np.interp: ys[j] when x is breakpoint j, else the line of the piece
    # from breakpoint j, the last one at or below x.
    j = np.count_nonzero((xs[:, 1:] <= x[:, None]) & piece, axis=1)
    at = np.minimum(j, k - 1)
    xj, yj = xs[rows, j], ys[rows, j]
    fx = np.where(x == xj, yj, dy[rows, at] / dx[rows, at] * (x - xj) + yj)
    # Trapezoids over 0, the m breakpoints strictly inside (0, x), and x.
    m = np.count_nonzero((xs[:, 1:] < x[:, None]) & piece, axis=1)
    last = (x - xs[rows, m]) * (fx + ys[rows, m]) / 2.0
    inner = dx * (ys[:, 1:] + ys[:, :-1]) / 2.0
    terms = np.where(cols < m[:, None], inner, np.where(cols == m[:, None], last[:, None], 0.0))
    integral = terms[:, 0].copy()
    for c in cols[1:]:
        integral += terms[:, c]
    statistic = np.abs(fx)
    bound = np.sqrt(np.maximum(2.0 * lam * integral, 0.0))
    return statistic, bound, statistic <= bound + tol


def lipschitz_integral_fuzz(instances: int = 5_000, seed: int = 0) -> CheckReport:
    """|f(x)| <= sqrt(2 lam * integral_0^x f) on random increasing
    lam-Lipschitz piecewise-linear f with f(0) = 0 (see _lipschitz_draws),
    evaluated as row predicates.  Statistic is the violation count; the
    bound is zero."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    _, _, passed = _lipschitz_rows(*_lipschitz_draws(rng, instances))
    failures = instances - int(np.count_nonzero(passed))
    return CheckReport("lipschitz_integral_fuzz", instances, float(failures), 0.0, failures == 0)


# ---------------------------------------------------------------------------
# GSP subset-core inequality


def gsp_core_slack(
    click_rates: Sequence[float], bids: Sequence[float], assume_sorted: bool = False
) -> float:
    """Minimum over agent subsets of (seller revenue from outsiders plus the
    subset's declared welfare) minus the subset's best greedy reallocation.

    Bids are reindexed in descending order and click rates zero-padded;
    assume_sorted skips the reindexing so deliberately scrambled instances
    can serve as negative controls.
    """
    b = [float(x) for x in bids]
    if not assume_sorted:
        b = sorted(b, reverse=True)
    n = len(b)
    if n == 0:
        raise ConfigurationError("empty bid profile")
    if n > 8 or len(click_rates) > 8:
        raise PreconditionError("exhaustive subset check supports n, m <= 8")
    alpha = [0.0] * n
    for i, a in enumerate(click_rates):
        if i < n:
            alpha[i] = float(a)
    b_next = b[1:] + [0.0]
    worst = math.inf
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        inside = set(members)
        lhs = sum(b_next[i] * alpha[i] for i in range(n) if i not in inside)
        lhs += sum(b[i] * alpha[i] for i in members)
        rhs = 0.0
        for pos, i in enumerate(members):
            rhs += b[i] * alpha[pos]  # sigma(i)-th best slot, sigma = rank within S
        worst = min(worst, lhs - rhs)
    return worst


# ---------------------------------------------------------------------------
# The R_k diagnostic from the welfare proof


def benchmark_value_diagnostic(
    trace: Trace,
    rule_allocations: np.ndarray,
    agent: int,
) -> float:
    """Benchmark value with paced rounds replaced by the target rate.

    Sums, over rounds, the benchmark rule's value for the agent whenever
    her multiplier was exactly zero and the target rate otherwise (stopped
    rounds count as paced).  The rule is indexed by the trace's scenario
    indices, which a loaded trace does not have.
    """
    rule = np.asarray(rule_allocations, dtype=np.float64)
    idx = trace.scenario_indices
    if idx is None:
        raise ConfigurationError("need the trace's scenario indices")
    if np.any(idx >= len(rule)):
        raise ConfigurationError("scenario index outside the rule support")
    y = rule[idx, agent]
    mu = trace.multipliers[:, agent]
    unpaced = mu == 0.0  # NaN (stopped) compares false: counts as paced
    rho = float(trace.target_rates[agent])
    return float(np.where(unpaced, y * trace.values[:, agent], rho).sum())


def benchmark_value_ceiling(rho: float, horizon: int, value_cap: float, n_agents: int) -> float:
    """High-probability ceiling for the diagnostic: rho*T plus the
    concentration slack."""
    return rho * horizon + value_cap * math.sqrt(
        horizon * math.log(value_cap * n_agents * horizon)
    )


# ---------------------------------------------------------------------------
# Mechanism fuzzing: IR, MBB, monotonicity, sampled core deviations


#: Most rows in one fuzz block.  A block holds a few (rows, n) float
#: matrices, so this caps the sweep's memory whatever the instance count.
_BLOCK_ROWS = 4_096

#: Fewest blocks each mechanism kind's instances are spread over (when
#: there are that many instances); every block draws its own mechanism and
#: agent count, so this keeps the sweep diverse at small instance counts.
_MIN_BLOCKS = 128

#: Instances per mechanism kind replayed through the scalar oracle.
ORACLE_SAMPLE = 500


def _random_mechanism(rng: np.random.Generator, kind: str):
    if kind == auctions.SECOND_PRICE:
        return auctions.Mechanism(kind, auctions.SingleSlot())
    if kind == auctions.FIRST_PRICE and rng.random() < 0.5:
        return auctions.Mechanism(kind, auctions.SingleSlot())
    m = int(rng.integers(1, 5))
    rates = np.sort(rng.random(m))[::-1]
    if rng.random() < 0.3:
        rates[0] = 1.0
    return auctions.Mechanism(kind, auctions.Polymatroid(tuple(rates)))


def _feasible_rows(feasible, profiles: np.ndarray) -> np.ndarray:
    """Vectorized `feasible.contains`, one verdict per row: no entry below
    -SURE_TOL, and each prefix sum of the descending-sorted row at most the
    sum of as many largest slot rates, plus SURE_TOL."""
    caps = np.cumsum(feasible.rates(profiles.shape[1]))
    prefix = np.cumsum(-np.sort(-profiles, axis=1), axis=1)
    return (profiles.min(axis=1) >= -SURE_TOL) & np.all(prefix <= caps + SURE_TOL, axis=1)


def _feasible_deviations(rng: np.random.Generator, feasible, rows: int, n: int) -> np.ndarray:
    """One random point of the feasible set per row: a scaled split of the
    single slot, or each agent a random fraction of a randomly assigned
    slot's rate."""
    scale = rng.random((rows, 1))
    if isinstance(feasible, auctions.SingleSlot):
        weights = rng.exponential(size=(rows, n))
        return scale * weights / weights.sum(axis=1, keepdims=True)
    slots = np.argsort(rng.random((rows, n)), axis=1)
    return feasible.rates(n)[slots] * rng.random((rows, n)) * scale


def _with_column(bids: np.ndarray, agent: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Copy of `bids` with entry (r, agent[r]) set to column[r]."""
    out = bids.copy()
    out[np.arange(len(bids)), agent] = column
    return out


@dataclass(frozen=True)
class _FuzzBlock:
    """Fuzz instances sharing one mechanism and agent count, one per row,
    with the batched verdict of each property per row."""

    mechanism: auctions.Mechanism
    bids: np.ndarray  # (rows, n), about 15 % zeros and 30 % of rows with a forced tie
    x: np.ndarray  # kernel outcome on `bids`
    z: np.ndarray
    agent: np.ndarray  # (rows,) the agent whose bid moves
    low: np.ndarray  # (rows,) the MBB bid pair, low <= high
    high: np.ndarray
    raised: np.ndarray  # `bids` with the agent's bid raised
    x_raised: np.ndarray  # kernel outcome on `raised`
    z_raised: np.ndarray
    coalition: np.ndarray  # (rows, n) bool
    deviation: np.ndarray  # (rows, n), inside the feasible set
    verdicts: dict  # property -> (rows,) bool, True where it holds


def _fuzz_block(
    rng: np.random.Generator, kind: str, rows: int, max_agents: int, outcome=None
) -> _FuzzBlock:
    """Draw one block of instances and evaluate every property through
    the outcome kernel (`auctions.outcomes` unless given), with the scalar
    checkers' inequalities and SURE_TOL."""
    outcome = outcome or auctions.outcomes
    tol = SURE_TOL
    n = int(rng.integers(2, max_agents + 1))
    mech = _random_mechanism(rng, kind)
    r = np.arange(rows)

    bids = rng.uniform(0.0, 3.0, (rows, n)) * (rng.random((rows, n)) > 0.15)
    tied = r[rng.random(rows) < 0.3]
    src = rng.integers(0, n, len(tied))
    dst = (src + rng.integers(1, n, len(tied))) % n
    bids[tied, dst] = bids[tied, src]  # force ties to exercise deterministic resolution
    x, z = outcome(mech, bids)
    ir = np.all(z <= bids * x + tol, axis=1)

    agent = rng.integers(0, n, rows)
    low, high = np.sort(rng.uniform(0.0, 3.0, (rows, 2)), axis=1).T
    x_lo, z_lo = outcome(mech, _with_column(bids, agent, low))
    x_hi, z_hi = outcome(mech, _with_column(bids, agent, high))
    dp = z_hi[r, agent] - z_lo[r, agent]
    dx = x_hi[r, agent] - x_lo[r, agent]
    mbb = dp >= low * dx - tol

    raised = _with_column(bids, agent, bids[r, agent] + rng.uniform(0.0, 2.0, rows))
    x_up, z_up = outcome(mech, raised)
    monotone = (x_up[r, agent] >= x[r, agent] - tol) & (z_up[r, agent] >= z[r, agent] - tol)

    size = rng.integers(0, n + 1, rows)
    rank = np.argsort(np.argsort(rng.random((rows, n)), axis=1), axis=1)
    coalition = rank < size[:, None]  # a uniform random subset of that size
    deviation = _feasible_deviations(rng, mech.feasible, rows, n)
    if not np.all(_feasible_rows(mech.feasible, deviation)):
        raise InvariantViolationError("fuzz drew a deviation outside the feasible set")
    # Row sums over at most a few agents run in index order, as check_core's do.
    lhs = np.where(coalition, 0.0, z).sum(axis=1) + np.where(coalition, bids * x, 0.0).sum(axis=1)
    rhs = np.where(coalition, bids * deviation, 0.0).sum(axis=1)
    core = lhs >= rhs - tol

    return _FuzzBlock(
        mech, bids, x, z, agent, low, high, raised, x_up, z_up, coalition, deviation,
        {"ir": ir, "mbb": mbb, "monotone": monotone, "core": core},
    )


def _oracle_agrees(block: _FuzzBlock, row: int) -> bool:
    """Replay one row through scalar `allocate` and the `check_*`
    predicates: both outcomes must equal the kernel's bit for bit, and
    every verdict the batched one."""
    tol = SURE_TOL
    mech = block.mechanism
    bids = block.bids[row].tolist()
    k = int(block.agent[row])
    out = auctions.allocate(mech, bids)
    out_up = auctions.allocate(mech, block.raised[row].tolist())
    same = all(
        np.array(scalar).tobytes() == batched[row].tobytes()
        for scalar, batched in (
            (out.allocations, block.x),
            (out.payments, block.z),
            (out_up.allocations, block.x_raised),
            (out_up.payments, block.z_raised),
        )
    )
    verdicts = {
        "ir": auctions.check_ir(out, bids),
        "mbb": auctions.check_mbb(
            mech, k, float(block.low[row]), float(block.high[row]), bids[:k] + bids[k + 1 :]
        ),
        "monotone": out_up.allocations[k] >= out.allocations[k] - tol
        and out_up.payments[k] >= out.payments[k] - tol,
        "core": auctions.check_core(
            mech,
            bids,
            np.flatnonzero(block.coalition[row]).tolist(),
            block.deviation[row].tolist(),
        ),
    }
    return same and all(held == block.verdicts[p][row] for p, held in verdicts.items())


def fuzz_mechanisms(
    instances: int = 10_000, seed: int = 0, max_agents: int = 6
) -> list[CheckReport]:
    """Random-instance sweep of the auction predicates, in blocks.

    Per mechanism kind, the instances are drawn in blocks of at most
    _BLOCK_ROWS rows (and over at least _MIN_BLOCKS blocks when there are
    that many instances); a block shares one random mechanism (click-rate
    vector) and agent count, and holds one bid profile per row.  Per
    instance: individual rationality of the outcome, monotone bang-per-buck
    on a sampled bid pair, weak monotonicity of allocation and payment in
    one agent's bid, and the coalition condition for a random coalition
    against a sampled feasible deviation, all evaluated as array predicates
    over `auctions.outcomes`.  ORACLE_SAMPLE instances per kind, spread
    evenly over the blocks, are replayed through scalar `allocate` and the
    `check_*` predicates; an outcome that differs in any bit, or a verdict
    that differs, counts against `oracle_fuzz`.  Statistic is the
    violation count; the bound is zero.
    """
    return _fuzz(instances, seed, max_agents, auctions.outcomes)


def _overcharging_outcomes(mechanism, bids):
    """A kernel that is not individually rational: one more unit of money
    per unit won.  The mbb-core negative control fuzzes it."""
    x, z = auctions.outcomes(mechanism, bids)
    return x, z + x


def _fuzz(instances: int, seed: int, max_agents: int, outcome) -> list[CheckReport]:
    """fuzz_mechanisms over the given outcome kernel."""
    if max_agents < 2:
        raise ConfigurationError(f"fuzzing needs max_agents >= 2, got {max_agents}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    block_rows = min(_BLOCK_ROWS, max(1, -(-instances // _MIN_BLOCKS)))
    sample = min(instances, ORACLE_SAMPLE)
    replayed = [i * instances // sample for i in range(sample)]
    reports = []
    for kind in (auctions.FIRST_PRICE, auctions.SECOND_PRICE, auctions.GSP):
        violations = {"ir": 0, "mbb": 0, "monotone": 0, "core": 0}
        disagreements = 0
        for start in range(0, instances, block_rows):
            rows = min(block_rows, instances - start)
            block = _fuzz_block(rng, kind, rows, max_agents, outcome)
            for prop, held in block.verdicts.items():
                violations[prop] += int(rows - np.count_nonzero(held))
            for i in replayed[bisect_left(replayed, start) : bisect_left(replayed, start + rows)]:
                disagreements += not _oracle_agrees(block, i - start)
        for prop, count in violations.items():
            reports.append(
                CheckReport(f"{prop}_fuzz[{kind}]", instances, float(count), 0.0, count == 0)
            )
        reports.append(
            CheckReport(
                f"oracle_fuzz[{kind}]", sample, float(disagreements), 0.0, disagreements == 0
            )
        )
    return reports


def _gsp_core_slacks(click_rates: np.ndarray, bids: np.ndarray) -> np.ndarray:
    """`gsp_core_slack` of each row of bids (rows, n) under the click rates
    in the same row of click_rates (rows, m), bit for bit: every subset's
    terms are added in the scalar loop's order (a non-member adds 0.0)."""
    n = bids.shape[1]
    b = -np.sort(-bids, axis=1)
    alpha = np.zeros_like(b)
    alpha[:, : click_rates.shape[1]] = click_rates[:, :n]
    b_next = np.zeros_like(b)
    b_next[:, :-1] = b[:, 1:]
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # (masks, n)
    rank = np.cumsum(member, axis=1) - 1  # sigma(i) = rank of i within the subset
    outside = np.zeros((len(b), 1 << n))
    inside = np.zeros_like(outside)
    rhs = np.zeros_like(outside)
    for i in range(n):
        outside += np.where(member[:, i], 0.0, (b_next[:, i] * alpha[:, i])[:, None])
        inside += np.where(member[:, i], (b[:, i] * alpha[:, i])[:, None], 0.0)
        rhs += np.where(member[:, i], b[:, i, None] * alpha[:, rank[:, i]], 0.0)
    return ((outside + inside) - rhs).min(axis=1)


def gsp_exhaustive_core_fuzz(instances: int = 2_000, seed: int = 0) -> CheckReport:
    """Random GSP instances with n, m <= 5, every agent subset enumerated,
    as array operations over the instances of each agent count.

    Each instance takes n and m, then m uniforms for the click rates (in
    descending order) and n for the bids, which are uniform on [0, 3) as
    rng.uniform(0, 3) draws them."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    agents = np.empty(instances, dtype=np.int64)
    rates = np.zeros((instances, 5))
    bids = np.zeros((instances, 5))
    for i in range(instances):
        n, m = rng.integers(1, 6, 2)
        draw = rng.random(m + n)
        agents[i] = n
        rates[i, :m] = draw[:m]
        bids[i, :n] = 3.0 * draw[m:]
    rates = -np.sort(-rates, axis=1)
    slack = np.empty(instances)
    for n in range(1, 6):
        rows = agents == n
        slack[rows] = _gsp_core_slacks(rates[rows], bids[rows, :n])
    violations = int(np.count_nonzero(slack < -SURE_TOL))
    return CheckReport(
        "gsp_core_exhaustive",
        instances,
        float(violations),
        0.0,
        violations == 0,
        {"min_slack": float(slack.min(initial=math.inf))},
    )


# ---------------------------------------------------------------------------
# The suites of `pacesim verify`


def _suite_concentration(trials, seed, negative, traces):
    trials = min(trials, 100_000)  # each check holds three float arrays of trials entries
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
    return [
        lipschitz_integral_check(PiecewiseLinear([0.0, 2.0], [0.0, 6.0]), 2.0, 3.0),
        lipschitz_integral_fuzz(min(trials, 5000), seed),
    ]


def _suite_gsp_core(trials, seed, negative, traces):
    if negative:
        slack = gsp_core_slack([1.0, 0.5, 0.0], [5.0, 1.0, 10.0], assume_sorted=True)
        return [
            CheckReport("gsp_core_negative", 1, slack, 0.0, slack >= -SURE_TOL)
        ]
    example = gsp_core_slack([1.0, 0.5], [3.0, 2.0, 1.0])
    return [
        CheckReport("gsp_core_example", 1, example, 0.0, example >= -SURE_TOL),
        gsp_exhaustive_core_fuzz(min(trials, 2000), seed),
    ]


def _suite_mbb_core(trials, seed, negative, traces):
    if negative:
        # The same batched fuzz on a small sample, over an overcharging
        # kernel: individual rationality must fail for every kind.
        return _fuzz(1_000, seed, 6, _overcharging_outcomes)
    return fuzz_mechanisms(min(trials, 100_000), seed)


def verification_traces(seed) -> list:
    """Three replications of every WELFARE_SUITE scenario at horizon 2000,
    the input of the epoch and stopping suites."""
    traces = []
    for name in scenarios.WELFARE_SUITE:
        small = scenarios._at_horizon(scenarios.load_scenario(name), 2000, seed=seed)
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


#: Every suite of `pacesim verify`, in the order `verify all` runs them:
#: name -> suite(trials, seed, negative, traces), a list of CheckReports,
#: with negative set those of its negative control, which must fail.
#: traces() returns the verification traces, simulated once per invocation.
SUITES = {
    "concentration": _suite_concentration,
    "sgd": _suite_sgd,
    "lipschitz-integral": _suite_lipschitz_integral,
    "gsp-core": _suite_gsp_core,
    "mbb-core": _suite_mbb_core,
    "epoch": _suite_epoch,
    "stopping": _suite_stopping,
}
#: The suites without a negative control: `verify all --negative` skips
#: them, and naming one with --negative is a usage error.
WITHOUT_CONTROL = ("epoch", "stopping")
