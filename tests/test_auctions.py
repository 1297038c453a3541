"""Mechanism-level unit and property tests: allocation rules, payments,
and the IR / core / MBB predicates."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacesim import (
    Mechanism,
    Polymatroid,
    SingleSlot,
    allocate,
    check_core,
    check_ir,
    check_mbb,
    first_price,
    gsp,
    second_price,
)
from pacesim.auctions import outcomes
from pacesim.errors import ConfigurationError, PreconditionError


class TestAllocate:
    def test_second_price_single_slot(self):
        out = allocate(second_price(), [2, 1])
        assert out.allocations == (1.0, 0.0)
        assert out.payments == (1.0, 0.0)

    def test_gsp_two_slots(self):
        out = allocate(gsp([1, 0.5]), [3, 2, 1])
        assert out.allocations == (1.0, 0.5, 0.0)
        assert out.payments == (2.0, 0.5, 0.0)

    def test_first_price_winner_pays_bid(self):
        out = allocate(first_price(), [2, 1])
        assert out.allocations == (1.0, 0.0)
        assert out.payments == (2.0, 0.0)

    def test_gsp_last_agent_pays_nothing(self):
        out = allocate(gsp([1.0]), [4])
        assert out.allocations == (1.0,)
        assert out.payments == (0.0,)

    def test_ties_break_to_lowest_index(self):
        out = allocate(second_price(), [1.5, 1.5, 0.2])
        assert out.allocations == (1.0, 0.0, 0.0)
        assert out.payments[0] == 1.5
        out = allocate(gsp([1, 0.4]), [2, 2, 2])
        assert out.allocations == (1.0, 0.4, 0.0)

    def test_zero_bidders_win_nothing(self):
        out = allocate(first_price(), [0.0, 0.0])
        assert out.allocations == (0.0, 0.0)
        out = allocate(gsp([1, 0.5, 0.2]), [1.0, 0.0])
        assert out.allocations == (1.0, 0.0)

    def test_single_bidder_second_price_pays_zero(self):
        out = allocate(second_price(), [3.0])
        assert out.allocations == (1.0,)
        assert out.payments == (0.0,)

    def test_negative_bid_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate(second_price(), [1.0, -0.1])

    def test_mechanism_feasible_set_pairing_enforced(self):
        with pytest.raises(ConfigurationError):
            Mechanism("second_price", Polymatroid((1.0, 0.5)))
        with pytest.raises(ConfigurationError):
            Mechanism("gsp", SingleSlot())
        with pytest.raises(ConfigurationError):
            Polymatroid((0.5, 1.0))  # increasing click rates

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_click_rate_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            Polymatroid((1.0, bad))


class TestPredicates:
    def test_core_example_second_price(self):
        assert check_core(second_price(), [2, 1], {1}, [0, 1])

    def test_core_empty_coalition_always_true(self):
        for mech in (second_price(), first_price(), gsp([1, 0.5])):
            assert check_core(mech, [2, 1, 0.5], set(), [0.2, 0.3, 0.1])

    def test_core_gsp_own_allocation(self):
        mech = gsp([1, 0.5])
        out = allocate(mech, [3, 2, 1])
        assert check_core(mech, [3, 2, 1], {0, 1, 2}, list(out.allocations))

    def test_core_infeasible_deviation_rejected(self):
        with pytest.raises(PreconditionError):
            check_core(second_price(), [2, 1], {0}, [0.9, 0.9])

    def test_mbb_examples(self):
        assert check_mbb(second_price(), 0, 0.4, 0.6, [0.5])
        for mech in (second_price(), first_price(), gsp([1, 0.5])):
            assert check_mbb(mech, 0, 0.7, 0.7, [0.5, 0.2])
        assert check_mbb(gsp([1, 0.5]), 2, 0.5, 3.0, [2, 1])

    def test_mbb_order_precondition(self):
        with pytest.raises(PreconditionError):
            check_mbb(second_price(), 0, 0.8, 0.2, [0.5])

    def test_ir_examples(self):
        out = allocate(second_price(), [2, 1])
        assert check_ir(out, [2, 1])
        null = allocate(second_price(), [0.0, 0.0])
        assert check_ir(null, [0.0, 0.0])
        from pacesim import AuctionOutcome

        assert not check_ir(AuctionOutcome((1.0, 0.0), (3.0, 0.0)), [2, 1])


def _grid_welfare_opt(feasible, bids, step=0.05):
    """Best declared welfare over a grid of feasible allocations."""
    n = len(bids)
    axis = np.arange(0.0, 1.0 + step / 2, step)
    best = 0.0
    for combo in itertools.product(axis, repeat=n):
        if feasible.contains(combo):
            best = max(best, sum(b * x for b, x in zip(bids, combo)))
    return best


@st.composite
def bid_profiles(draw, max_agents=4):
    n = draw(st.integers(1, max_agents))
    bids = draw(
        st.lists(
            st.floats(0, 3, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
        )
    )
    return bids


@st.composite
def mechanisms(draw):
    kind = draw(st.sampled_from(["first_price", "second_price", "gsp"]))
    if kind == "second_price":
        return second_price()
    if kind == "first_price" and draw(st.booleans()):
        return first_price()
    m = draw(st.integers(1, 3))
    rates = sorted(
        draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=m, max_size=m)),
        reverse=True,
    )
    return Mechanism(kind, Polymatroid(tuple(rates)))


@settings(max_examples=200, deadline=None)
@given(mechanisms(), bid_profiles())
def test_outcomes_are_ir_and_feasible(mech, bids):
    out = allocate(mech, bids)
    assert check_ir(out, bids)
    assert mech.feasible.contains(out.allocations)


@settings(max_examples=200, deadline=None)
@given(
    mechanisms(),
    bid_profiles(),
    st.integers(0, 3),
    st.floats(0, 3, allow_nan=False),
    st.floats(0, 3, allow_nan=False),
)
def test_mbb_holds_on_generated_pairs(mech, others, agent, b1, b2):
    agent = agent % (len(others) + 1)
    lo, hi = min(b1, b2), max(b1, b2)
    assert check_mbb(mech, agent, lo, hi, others)


@settings(max_examples=200, deadline=None)
@given(mechanisms(), bid_profiles(), st.integers(0, 3), st.floats(0.01, 2))
def test_allocation_and_payment_monotone_in_own_bid(mech, bids, agent, bump):
    agent = agent % len(bids)
    out_lo = allocate(mech, bids)
    raised = list(bids)
    raised[agent] += bump
    out_hi = allocate(mech, raised)
    assert out_hi.allocations[agent] >= out_lo.allocations[agent] - 1e-9
    assert out_hi.payments[agent] >= out_lo.payments[agent] - 1e-9


@settings(max_examples=60, deadline=None)
@given(bid_profiles(max_agents=3), st.booleans())
def test_welfare_maximization_vs_grid(bids, single_slot):
    feasible = SingleSlot() if single_slot else Polymatroid((1.0, 0.6))
    mech = Mechanism("first_price", feasible)
    out = allocate(mech, bids)
    achieved = sum(b * x for b, x in zip(bids, out.allocations))
    assert achieved >= _grid_welfare_opt(feasible, bids) - 1e-9


def test_outcomes_match_scalar_allocate_bit_for_bit():
    # Every engine runs the vectorized kernel; it must reproduce the scalar
    # oracle exactly, forced ties and zero bids included.
    rng = np.random.default_rng(7)
    mechs = [
        first_price(),
        first_price(Polymatroid((0.9, 0.4, 0.2))),
        second_price(),
        gsp([1.0, 0.5]),
        gsp([0.8, 0.6, 0.3, 0.1]),
    ]
    for mech in mechs:
        for n in range(1, 7):
            bids = rng.uniform(0, 2, (300, n))
            bids[:100] = np.round(bids[:100])
            bids[100:200] = np.round(bids[100:200], 1)
            bids[rng.random(bids.shape) < 0.2] = 0.0
            bids[0] = 0.0
            x, z = outcomes(mech, bids)
            ref = [allocate(mech, row) for row in bids]
            assert np.array_equal(x, np.array([o.allocations for o in ref]))
            assert np.array_equal(z, np.array([o.payments for o in ref]))


@pytest.mark.parametrize(
    "rates", [(1.0, -5e-13), (1.0, -0.0), (1 + 5e-13, 0.5)],
    ids=["just-below-zero", "negative-zero", "just-above-one"],
)
def test_click_rates_within_the_tolerance_are_stored_inside_the_unit_interval(rates):
    # Polymatroid accepts a rate within 1e-12 of [0, 1] and stores it
    # clamped: the kernel then gives the oracle's bits (a rate below zero
    # allocated it, a -0.0 rate a signed zero), no agent gets more than one
    # unit and none pays more than its bid.
    bids = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 2.0, 1.0]])
    for mech in (gsp(rates), first_price(Polymatroid(rates))):
        x, z = outcomes(mech, bids)
        ref = [allocate(mech, row) for row in bids]
        assert x.tobytes() == np.array([o.allocations for o in ref]).tobytes(), mech
        assert z.tobytes() == np.array([o.payments for o in ref]).tobytes(), mech
        assert np.all(x <= 1.0) and np.all(z <= bids), mech
    assert all(0.0 <= a <= 1.0 for a in Polymatroid(rates).click_rates)


_KERNEL_MECHANISMS = [
    first_price(),
    first_price(Polymatroid((0.9, 0.4, 0.2))),
    second_price(),
    gsp([1.0, 0.5]),
    gsp([0.8, 0.6, 0.3, 0.1]),
]


def test_gsp_core_against_sampled_greedy_deviations():
    # All subsets, deviations = greedy reallocations within the subset on a grid
    # of scaling factors; the GSP outcome must weakly dominate every one.
    mech = gsp([1, 0.5])
    bids = [3.0, 2.0, 1.0]
    rates = (1.0, 0.5, 0.0)
    for size in range(4):
        for subset in itertools.combinations(range(3), size):
            order = sorted(subset, key=lambda k: (-bids[k], k))
            for scale in np.linspace(0.0, 1.0, 11):
                y = [0.0, 0.0, 0.0]
                for slot, k in enumerate(order):
                    y[k] = rates[slot] * scale
                assert check_core(mech, bids, set(subset), y)


def test_polymatroid_containment_prefix_rule():
    poly = Polymatroid((1.0, 0.5))
    assert poly.contains([1.0, 0.5, 0.0])
    assert poly.contains([0.5, 0.2, 0.3])
    assert not poly.contains([1.0, 0.8])  # pair total 1.8 > 1 + 0.5
    assert not poly.contains([0.7, 0.7, 0.7])  # triple total 2.1 > rank cap 1.5
    assert not poly.contains([1.1, 0.0])
    assert not poly.contains([-0.01, 0.5])


@pytest.mark.parametrize(
    "single, rate_one",
    [
        (first_price(), first_price(Polymatroid((1.0,)))),
        (second_price(), Mechanism("gsp", Polymatroid((1.0,)))),
    ],
    ids=["first-price", "second-price-vs-gsp"],
)
def test_single_slot_runs_as_the_rate_one_polymatroid(single, rate_one):
    # The single slot is the polymatroid with click rate 1, and second
    # price is GSP on it: the kernel's one-slot path and the scalar oracle
    # must give the greedy path's bits, on random and tied profiles.
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        bids = rng.uniform(0, 2, (300, n))
        bids[:100] = np.round(bids[:100])
        bids[100:200] = np.round(bids[100:200], 1)
        bids[rng.random(bids.shape) < 0.2] = 0.0
        bids[0] = 0.0
        for a, b in zip(outcomes(single, bids), outcomes(rate_one, bids)):
            assert a.tobytes() == b.tobytes(), n
        for row in bids:
            a, b = allocate(single, row), allocate(rate_one, row)
            assert np.array(a.allocations).tobytes() == np.array(b.allocations).tobytes()
            assert np.array(a.payments).tobytes() == np.array(b.payments).tobytes()


@pytest.mark.parametrize(
    "mech", _KERNEL_MECHANISMS,
    ids=["first-price", "first-price-polymatroid", "second-price", "gsp-two", "gsp-four"],
)
def test_allocate_reads_negative_zero_bids_as_zero(mech):
    # No -0.0 may come out of the oracle: a GSP charge of rate times a
    # -0.0 next bid would carry the sign.
    for n in range(1, 4):
        for profile in itertools.product([-0.0, 0.0, 0.5, 1.0], repeat=n):
            signed = allocate(mech, profile)
            plain = allocate(mech, [b + 0.0 for b in profile])
            assert np.array(signed.allocations).tobytes() == np.array(plain.allocations).tobytes()
            assert np.array(signed.payments).tobytes() == np.array(plain.payments).tobytes()


@pytest.mark.parametrize(
    "mech", _KERNEL_MECHANISMS,
    ids=["first-price", "first-price-polymatroid", "second-price", "gsp-two", "gsp-four"],
)
def test_nan_bids_are_rejected_by_every_scalar_entry_point(mech):
    nan = float("nan")
    bids = [1.0, nan, 0.5]
    with pytest.raises(ConfigurationError):
        allocate(mech, bids)
    with pytest.raises(ConfigurationError):
        check_ir(allocate(mech, [1.0, 0.7, 0.5]), bids)
    with pytest.raises(ConfigurationError):
        check_core(mech, bids, {0, 2}, [0.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        check_mbb(mech, 0, 0.2, 0.4, [nan, 0.5])
