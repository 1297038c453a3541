"""Single-round core auction mechanisms over divisible-good feasible sets.

Every feasible set is a polymatroid induced by non-increasing click rates;
the single slot is the one whose only click rate is 1.  First price runs
over any of them, second price over the single slot, and the generalized
second-price (GSP) auction over a multi-slot polymatroid; on the single
slot, second price is GSP.  Everything here is deterministic: ties in bids
are broken toward the lowest agent index, and a fractional allocation is a
deterministic fraction of the good, not a lottery.  Bids must be finite
and non-negative: the scalar entry points refuse NaN and infinite bids.

Besides the mechanisms themselves, the module ships predicate checkers for
the three structural properties the rest of the package leans on:
individual rationality (payment at most declared welfare), the core
condition (no coalition gains by renegotiating with the seller), and
monotone bang-per-buck (raising a bid costs at least the old bid per unit
of extra allocation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .constants import SURE_TOL
from .errors import ConfigurationError, PreconditionError

FIRST_PRICE = "first_price"
SECOND_PRICE = "second_price"
GSP = "gsp"


@dataclass(frozen=True)
class Polymatroid:
    """Feasible set induced by non-increasing click rates, one per slot.

    A profile is feasible when, for every subset of agents, its total
    allocation is at most the sum of the largest click rates it could
    occupy; rates beyond the slot count contribute zero.  Sorting the
    profile reduces the subset test to prefix sums.  A rate within 1e-12
    of [0, 1] is accepted and stored clamped to it.  An error's path is
    ("click_rates", j) for the rate at fault.
    """

    click_rates: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(float(a) for a in self.click_rates)
        if not rates:
            raise ConfigurationError("polymatroid needs at least one click rate", ("click_rates",))
        for j, a in enumerate(rates):  # NaN fails the comparison
            if not -1e-12 <= a <= (rates[j - 1] if j else 1.0) + 1e-12:
                message = "click rates must be finite, lie in [0, 1] and be non-increasing"
                raise ConfigurationError(f"{message}, got {a}", ("click_rates", j))
        # Stored inside [0, 1] (max(0.0, -0.0) is +0.0), so no slot allocates
        # more than one unit and a zero rate allocates +0.0, as allocate does.
        object.__setattr__(self, "click_rates", tuple(min(max(0.0, a), 1.0) for a in rates))

    def rates(self, n: int) -> np.ndarray:
        """The click rates of the n best slots, zero-padded to length n."""
        out = np.zeros(n)
        m = min(len(self.click_rates), n)
        out[:m] = self.click_rates[:m]
        return out

    def contains(self, profile: Sequence[float]) -> bool:
        xs = sorted((float(x) for x in profile), reverse=True)
        if xs and xs[-1] < -SURE_TOL:
            return False
        cap = 0.0
        total = 0.0
        for j, x in enumerate(xs):
            cap += self.click_rates[j] if j < len(self.click_rates) else 0.0
            total += x
            if total > cap + SURE_TOL:
                return False
        return True


@dataclass(frozen=True)
class SingleSlot(Polymatroid):
    """One divisible slot per round: the polymatroid whose only click rate
    is 1, i.e. profiles with x_k >= 0 and sum <= 1."""

    click_rates: tuple[float, ...] = field(default=(1.0,), init=False)


@dataclass(frozen=True)
class Mechanism:
    """An auction rule together with the feasible set it allocates over;
    an error's path is ("type",) or ("click_rates",), as in a scenario."""

    kind: str
    feasible: Polymatroid

    def __post_init__(self):
        if self.kind not in (FIRST_PRICE, SECOND_PRICE, GSP):
            raise ConfigurationError(f"unknown mechanism kind {self.kind!r}", ("type",))
        if not isinstance(self.feasible, Polymatroid):
            raise ConfigurationError("the feasible set must be a polymatroid")
        single = isinstance(self.feasible, SingleSlot)
        if self.kind == SECOND_PRICE and not single:
            raise ConfigurationError(
                "second-price requires a single-slot feasible set", ("click_rates",)
            )
        if self.kind == GSP and single:
            raise ConfigurationError(
                "GSP requires a polymatroid other than the single slot", ("click_rates",)
            )


def first_price(feasible: Polymatroid | None = None) -> Mechanism:
    return Mechanism(FIRST_PRICE, feasible if feasible is not None else SingleSlot())


def second_price() -> Mechanism:
    return Mechanism(SECOND_PRICE, SingleSlot())


def gsp(click_rates: Iterable[float]) -> Mechanism:
    return Mechanism(GSP, Polymatroid(tuple(click_rates)))


@dataclass(frozen=True)
class AuctionOutcome:
    allocations: tuple[float, ...]
    payments: tuple[float, ...]


def _clean_bids(bids: Sequence[float]) -> list[float]:
    bs = [float(b) + 0.0 for b in bids]  # + 0.0 turns -0.0 into 0.0
    if not bs:
        raise ConfigurationError("empty bid profile")
    if not all(0 <= b < math.inf for b in bs):  # NaN fails this too
        raise ConfigurationError("bids must be finite non-negative numbers")
    return bs


def allocate(mechanism: Mechanism, bids: Sequence[float]) -> AuctionOutcome:
    """Run one round of the auction on a bid profile.

    Click rates go greedily by bid: the j-th highest bidder gets the j-th
    rate, so on the single slot the highest bidder takes the whole slot.
    First price charges each winner rate times its own bid; second price
    and GSP charge rate times the next bid down.  Agents bidding exactly
    zero never win anything, even when slots remain.  Bids must be finite
    and non-negative; NaN and infinite bids are refused.
    """
    bs = _clean_bids(bids)
    n = len(bs)
    order = sorted(range(n), key=lambda k: (-bs[k], k))
    rates = mechanism.feasible.click_rates
    x = [0.0] * n
    p = [0.0] * n
    for j, k in enumerate(order):
        rate = rates[j] if j < len(rates) else 0.0
        if bs[k] <= 0 or rate <= 0:
            continue
        x[k] = rate
        if mechanism.kind == FIRST_PRICE:
            p[k] = rate * bs[k]
        else:
            nxt = bs[order[j + 1]] if j + 1 < n else 0.0
            p[k] = rate * nxt
    return AuctionOutcome(tuple(x), tuple(p))


@functools.lru_cache(maxsize=8)
def _kernel(mechanism: Mechanism, rows: int, n: int):
    """kernel(bids, x, z) for (rows, n) arrays, with x and z holding zeros:
    the allocations and payments of `mechanism`.  Cells are addressed by
    flat C-order index (row offset plus column), which take and put use
    whatever the strides; the offsets and rates are (rows, n) arrays, so no
    operand is broadcast.  The kernel keeps no other state."""
    offsets = np.arange(0, rows * n, n)
    first = mechanism.kind == FIRST_PRICE
    if isinstance(mechanism.feasible, SingleSlot):

        def single_slot(bids, x, z):
            cell = bids.argmax(axis=1)  # first max: lowest index wins ties
            cell += offsets
            wb = bids.take(cell)
            x.put(cell, wb > 0.0)
            if first:  # a row without a winner bids +0.0, so it pays +0.0
                z.put(cell, wb)
            elif n == 2:  # the lower bid; of equal ones the first, as np.partition
                z.put(cell, np.minimum(bids[:, 1], bids[:, 0]))
            elif n > 2:
                z.put(cell, np.partition(bids, n - 2, axis=1)[:, n - 2])

        return single_slot

    offsets = np.repeat(offsets[:, None], n, axis=1)
    rates = np.tile(mechanism.feasible.rates(n), (rows, 1))

    def greedy(bids, x, z):
        cells = np.negative(bids).argsort(axis=1, kind="stable")  # lowest index first on ties
        cells += offsets
        sorted_bids = bids.take(cells)
        xs = np.multiply(rates, sorted_bids > 0.0)
        x.put(cells, xs)
        # xs becomes the payments in sorted order: rate times the agent's own
        # bid (first price) or the next bid (nothing below the last slot).
        if first:
            np.multiply(xs, sorted_bids, out=xs)
        else:
            np.multiply(xs[:, :-1], sorted_bids[:, 1:], out=xs[:, :-1])
            xs[:, -1] = 0.0
        z.put(cells, xs)

    return greedy


def outcomes(mechanism: Mechanism, bids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `allocate`: allocations and payments, each (rows, n), for
    a (rows, n) bid matrix, one auction per row.

    Same rule, tie-breaking and bits as `allocate`, the scalar oracle it
    is tested against.  Bids must be finite and non-negative and carry no
    -0.0 (every source of values and bids turns it into 0.0), so the two
    agree on the sign of every zero.  The mechanism's cached kernel
    (`_kernel`) fills zeroed arrays; the single slot has a faster one.
    """
    x, z = np.zeros_like(bids), np.zeros_like(bids)
    _kernel(mechanism, *bids.shape)(bids, x, z)
    return x, z


def check_ir(outcome: AuctionOutcome, bids: Sequence[float]) -> bool:
    """Payment never exceeds declared welfare: p_k <= b_k * x_k for every k."""
    bs = _clean_bids(bids)
    if len(bs) != len(outcome.allocations) or len(bs) != len(outcome.payments):
        raise ConfigurationError("outcome and bid profile dimensions differ")
    return all(
        pk <= bk * xk + SURE_TOL
        for pk, bk, xk in zip(outcome.payments, bs, outcome.allocations)
    )


def check_core(
    mechanism: Mechanism,
    bids: Sequence[float],
    subset: Iterable[int],
    deviation: Sequence[float],
) -> bool:
    """Check the coalition condition for one candidate deviation.

    The seller plus the agents in `subset` must weakly prefer the auction
    outcome to switching the coalition onto the allocation `deviation`:
    revenue from outsiders plus the coalition's declared welfare under the
    auction is at least the coalition's declared welfare under the
    deviation.
    """
    bs = _clean_bids(bids)
    ys = [float(y) for y in deviation]
    if len(ys) != len(bs):
        raise ConfigurationError("deviation and bid profile dimensions differ")
    members = set(subset)
    if any(k < 0 or k >= len(bs) for k in members):
        raise ConfigurationError("subset index out of range")
    if not mechanism.feasible.contains(ys):
        raise PreconditionError("deviation lies outside the feasible set")
    out = allocate(mechanism, bs)
    lhs = sum(out.payments[k] for k in range(len(bs)) if k not in members)
    lhs += sum(bs[k] * out.allocations[k] for k in members)
    rhs = sum(bs[k] * ys[k] for k in members)
    return lhs >= rhs - SURE_TOL


def check_mbb(
    mechanism: Mechanism,
    agent: int,
    b_low: float,
    b_high: float,
    others: Sequence[float],
) -> bool:
    """Monotone bang-per-buck between two bids of one agent.

    With the opponents' bids fixed, moving the agent's bid up from b_low to
    b_high must raise her payment by at least b_low per unit of additional
    allocation.
    """
    if not (0 <= b_low <= b_high):
        raise PreconditionError("need 0 <= b_low <= b_high")
    lo = _insert_bid(others, agent, b_low)
    hi = _insert_bid(others, agent, b_high)
    out_lo = allocate(mechanism, lo)
    out_hi = allocate(mechanism, hi)
    dp = out_hi.payments[agent] - out_lo.payments[agent]
    dx = out_hi.allocations[agent] - out_lo.allocations[agent]
    return dp >= b_low * dx - SURE_TOL


def _insert_bid(others: Sequence[float], agent: int, bid: float) -> list[float]:
    profile = [float(b) for b in others]
    if not 0 <= agent <= len(profile):
        raise ConfigurationError("agent index out of range")
    profile.insert(agent, float(bid))
    return profile
