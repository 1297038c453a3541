"""Gradient-based budget pacing for a single bidding agent.

An agent shades her bid to value/(1 + multiplier) and nudges the multiplier
after every round by the learning rate times the gap between realized spend
and the per-round budget target, projected back onto [0, mu_cap].  The
module also ships the sure bound on how early the agent can run out of
budget, which simulation.check_stopping_bound applies to traces, and a
conformance checker for the wider family of pacing policies the welfare
guarantee covers (no overbidding, no unnecessary pacing, and the same
multiplier recurrence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .constants import SURE_TOL
from .errors import ConfigurationError, InvariantViolationError, StoppedAgentError

#: An agent is treated as out of budget once the remainder drops below this
#: fraction of the starting budget; avoids bidding dust amounts forever.
EXHAUSTION_FRACTION = 1e-12


@dataclass(frozen=True)
class AgentConfig:
    """Parameters of one pacing agent.

    learning_rate defaults to 1/sqrt(horizon) and mu_cap to
    value_cap/target_rate; both defaults satisfy the hypotheses of the
    early-stopping bound whenever value_cap <= sqrt(horizon).  An error on
    the budget, learning_rate or mu_cap has that field for its path.
    """

    budget: float
    horizon: int
    learning_rate: float | None = None
    mu_cap: float | None = None
    value_cap: float = 1.0

    def __post_init__(self):
        h = self.horizon
        if isinstance(h, bool) or not (1 <= h < math.inf and int(h) == h):
            raise ConfigurationError("horizon must be a positive integer")
        if not self.target_rate > 0:  # a subnormal budget underflows per round
            raise ConfigurationError("budget per round must be positive", ("budget",))
        if not self.value_cap >= 1:
            raise ConfigurationError("value_cap must be at least 1 (rescale values)")
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate", 1.0 / math.sqrt(self.horizon))
        if self.mu_cap is None:
            object.__setattr__(self, "mu_cap", self.value_cap / self.target_rate)
        if not 0 < self.learning_rate < math.inf:
            raise ConfigurationError("learning_rate must be finite and positive", ("learning_rate",))
        if not self.mu_cap >= 0:
            raise ConfigurationError("mu_cap must be non-negative", ("mu_cap",))

    @property
    def target_rate(self) -> float:
        """Per-round spend target: budget / horizon."""
        return self.budget / self.horizon


def _stopping_rule(learning_rate, mu_cap, target_rate, value_cap) -> bool:
    """The early-stopping bound's hypotheses: mu_cap >= value_cap/target_rate
    - 1 and learning_rate * value_cap <= 1 (False if a parameter is NaN)."""
    return mu_cap >= value_cap / target_rate - 1 and learning_rate * value_cap <= 1


def _stopping_bound(learning_rate, mu_cap, target_rate, value_cap) -> int:
    """The early-stopping bound itself: at most
    ceil(mu_cap/(learning_rate * target_rate) + value_cap/target_rate)
    rounds are missed when _stopping_rule holds."""
    return math.ceil(mu_cap / (learning_rate * target_rate) + value_cap / target_rate)


@dataclass(frozen=True)
class PacingState:
    """Multiplier, remaining budget, and round counter of one agent.

    A stopped state is terminal; `update` and `compute_bid` refuse to touch
    it.  The multiplier always lies in [0, mu_cap] while the agent is live.
    """

    config: AgentConfig
    multiplier: float
    remaining_budget: float
    round: int
    stopped: bool = False


def init_state(config: AgentConfig) -> PacingState:
    """Fresh state: zero multiplier, full budget, round one."""
    return PacingState(config, 0.0, float(config.budget), 1)


def compute_bid(state: PacingState, value: float) -> float:
    """Bid value/(1 + multiplier), clamped to the remaining budget.

    Never exceeds the value (the multiplier is non-negative), so a paced
    agent cannot overbid.
    """
    if state.stopped:
        raise StoppedAgentError("stopped agent cannot bid; caller should bid 0")
    if value < 0 or value > state.config.value_cap:
        raise ConfigurationError("value outside [0, value_cap]")
    return min(value / (1.0 + state.multiplier), state.remaining_budget)


def update(state: PacingState, spend: float) -> PacingState:
    """Advance one round after observing the realized spend.

    The multiplier moves by learning_rate * (spend - target_rate) and is
    projected onto [0, mu_cap]; the budget decreases by the spend.  The
    state becomes stopped when the budget is (numerically) exhausted or the
    horizon has elapsed.
    """
    if state.stopped:
        raise StoppedAgentError("stopped agent state never changes")
    cfg = state.config
    if spend < 0 or spend > state.remaining_budget:
        raise InvariantViolationError(
            f"spend {spend} outside [0, remaining {state.remaining_budget}]; "
            "auction-side bug"
        )
    mu = state.multiplier - cfg.learning_rate * (cfg.target_rate - spend)
    mu = min(max(mu, 0.0), cfg.mu_cap)
    remaining = state.remaining_budget - spend
    rnd = state.round + 1
    stopped = remaining < EXHAUSTION_FRACTION * cfg.budget or rnd > cfg.horizon
    return replace(
        state, multiplier=mu, remaining_budget=remaining, round=rnd, stopped=stopped
    )


@dataclass(frozen=True)
class ConformanceReport:
    no_overbidding: bool
    no_unnecessary_pacing: bool
    recurrence: bool
    first_violation: str | None

    @property
    def conformant(self) -> bool:
        return self.no_overbidding and self.no_unnecessary_pacing and self.recurrence


def check_generalized_pacing(
    values: Sequence[float],
    bids: Sequence[float],
    spends: Sequence[float],
    multipliers: Sequence[float],
    config: AgentConfig,
) -> ConformanceReport:
    """Validate a recorded trace against the generalized-pacing contract.

    multipliers must have one more entry than the other sequences (the
    post-update multiplier after the last recorded round).  The recurrence
    check is bit-exact: replaying the spends through the projected update
    must reproduce the recorded multipliers.
    """
    T = len(values)
    if not (len(bids) == len(spends) == T and len(multipliers) == T + 1):
        raise ConfigurationError("trace sequences have inconsistent lengths")
    if multipliers[0] != 0.0:
        return ConformanceReport(True, True, False, "multiplier must start at 0")

    no_over = True
    no_unnec = True
    recurrence = True
    first = None
    remaining = float(config.budget)
    rho = config.target_rate
    for t in range(T):
        if bids[t] > values[t] + SURE_TOL:
            no_over = False
            first = first or f"round {t + 1}: bid {bids[t]} exceeds value {values[t]}"
        if multipliers[t] == 0.0:
            expected = min(values[t], remaining)
            if abs(bids[t] - expected) > SURE_TOL:
                no_unnec = False
                first = first or (
                    f"round {t + 1}: multiplier 0 but bid {bids[t]} != {expected}"
                )
        mu_next = multipliers[t] - config.learning_rate * (rho - spends[t])
        mu_next = min(max(mu_next, 0.0), config.mu_cap)
        if multipliers[t + 1] != mu_next:
            recurrence = False
            first = first or (
                f"round {t + 1}: recorded multiplier {multipliers[t + 1]} "
                f"!= recurrence value {mu_next}"
            )
        remaining -= spends[t]
    return ConformanceReport(no_over, no_unnec, recurrence, first)
