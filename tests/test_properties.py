"""Property tests of the closed-form user response and the scenario model.

The inverse log-marginal is checked against a bisection of an independent
marginal (``roundtrip.reference_crossings``) over random utilities and prices
from e^-708 to e^708, and for monotonicity in the price. The sigmoid
parameters reach a*b past 745, where the normalizer d is subnormal or zero
in float64. A scenario's indexed lookups are checked against linear scans
of its carriers and users, over random valid scenarios and the copies that
``with_capacity``, ``dataclasses.replace`` and a JSON round trip make. A
carrier solve that reports convergence is checked against its own trace:
two of its probes bracket the capacity and certify the returned rates.
Examples are derandomized, so every run draws the same ones.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carrieralloc import (
    EPS_RATE,
    CarrierSpec,
    Logarithmic,
    Scenario,
    Sigmoidal,
    SolverParams,
    UserSpec,
    dual_ascent,
    inverse_log_marginal,
    parse_scenario,
    serialize_scenario,
    with_capacity,
)
from roundtrip import reference_crossings, round_trip_bound

# The closed form is not exactly monotone: its rounding can raise a rate by
# a few ulps when the price rises by one ulp. Up to 4 were seen over 600k
# random pairs of adjacent prices.
MONOTONE_ULPS = 8


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


sigmoids = st.builds(Sigmoidal, a=log_uniform(-1.3, 1.7), b=log_uniform(-1.3, 3.3))
logs = st.builds(Logarithmic, k=log_uniform(-3.0, 3.0), r_max=st.just(100.0))
utilities = st.one_of(sigmoids, logs)
prices = st.floats(-708.0, 708.0).map(math.exp)
caps = log_uniform(-3.0, 6.0)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(u=utilities, price=prices, r_cap=caps)
@example(u=Sigmoidal(a=14.4, b=243.5), price=77.0, r_cap=1000.0)  # d underflows
@example(u=Sigmoidal(a=5.0, b=148.0), price=20.0, r_cap=1000.0)  # d subnormal
def test_closed_form_agrees_with_reference_bisection(u, price, r_cap):
    got = inverse_log_marginal(u, price, r_cap)
    lo, hi = reference_crossings(u, price, r_cap, EPS_RATE)
    assert lo - round_trip_bound(u, lo, price) <= got
    assert got <= hi + round_trip_bound(u, hi, price)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(u=utilities, price=prices, r_cap=caps,
       rise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_demand_non_increasing_in_price(u, price, r_cap, rise):
    higher = price * (1.0 + rise) if rise > 0.0 else math.nextafter(price, math.inf)
    lo = inverse_log_marginal(u, price, r_cap)
    hi = inverse_log_marginal(u, higher, r_cap)
    assert hi <= lo + MONOTONE_ULPS * math.ulp(lo)


@st.composite
def scenarios(draw):
    """A valid scenario, its carriers and users listed out of id order.

    Coverage lists are drawn as permutations, so many are out of id order.
    Each carrier that no user covers is appended to a random user's list.
    """
    ids = st.integers(1, 60)
    carrier_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    user_ids = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    coverages = [
        draw(st.permutations(carrier_ids).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda k: p[:k])))
        for _ in user_ids
    ]
    for cid in carrier_ids:
        if not any(cid in cov for cov in coverages):
            i = draw(st.integers(0, len(coverages) - 1))
            coverages[i] = coverages[i] + [cid]
    capacities = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)
    return Scenario(
        carriers=tuple(CarrierSpec(cid, draw(capacities)) for cid in carrier_ids),
        users=tuple(
            UserSpec(uid, draw(utilities), tuple(cov))
            for uid, cov in zip(user_ids, coverages)
        ),
    )


def assert_lookups_match_linear_scans(s):
    for c in s.carriers:
        assert s.carrier(c.id) is next(x for x in s.carriers if x.id == c.id)
        assert s.covered_users(c.id) == tuple(
            u.id for u in s.users if c.id in u.coverage
        )
    for u in s.users:
        assert s.user(u.id) is next(x for x in s.users if x.id == u.id)
    for unknown in (0, 61, -1):
        with pytest.raises(KeyError):
            s.carrier(unknown)
        with pytest.raises(KeyError):
            s.user(unknown)
        assert s.covered_users(unknown) == ()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=scenarios())
def test_scenario_lookups_equal_linear_scans(s):
    assert_lookups_match_linear_scans(s)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=scenarios())
def test_equal_scenarios_compare_and_hash_equal(s):
    twin = Scenario(carriers=list(s.carriers), users=list(s.users))
    assert twin == s
    assert hash(twin) == hash(s)
    assert repr(twin) == repr(s)
    assert [f.name for f in dataclasses.fields(Scenario)] == ["carriers", "users"]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=scenarios(), data=st.data())
def test_scenario_copies_keep_lookups_correct(s, data):
    cid = data.draw(st.sampled_from(s.carrier_ids()))
    resized = with_capacity(s, cid, 123.5)
    assert resized.carrier(cid).capacity == 123.5
    assert_lookups_match_linear_scans(resized)

    reordered = dataclasses.replace(s, users=s.users[::-1], carriers=s.carriers[::-1])
    assert_lookups_match_linear_scans(reordered)

    round_trip = parse_scenario(serialize_scenario(s))
    assert round_trip == s
    assert hash(round_trip) == hash(s)
    assert_lookups_match_linear_scans(round_trip)


# Sigmoids with a*b > 75 put a plateau in demand: their response is
# log-singular at the price a, and demand jumps across it within a few ulps.
plateau_sigmoids = st.builds(
    lambda a, ab: Sigmoidal(a=a, b=ab / a), a=log_uniform(-0.5, 1.5), ab=st.floats(75.0, 800.0)
)
solve_utilities = st.one_of(sigmoids, plateau_sigmoids, logs)
offsets = st.one_of(st.just(0.0), log_uniform(-3.0, 2.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    users=st.lists(st.tuples(solve_utilities, offsets), min_size=1, max_size=6),
    capacity=log_uniform(-2.0, 3.0),
)
def test_converged_solve_is_certified_by_its_trace(users, capacity):
    entries = [(uid, u, c) for uid, (u, c) in enumerate(users, 1)]
    res = dual_ascent(entries, capacity)
    if not res.converged:
        return
    tol = SolverParams().tol_r
    steps = res.trace.steps
    over = [s for s in steps if math.fsum(s.rates) > capacity]
    under = [s for s in steps if math.fsum(s.rates) < capacity]
    hit = [s for s in steps if s.price == res.shadow_price and math.fsum(s.rates) == capacity]
    certificates = [
        (lo, hi)
        for lo in over
        for hi in under
        if res.shadow_price in (lo.price, hi.price)
        and (
            max(abs(a - b) for a, b in zip(lo.rates, hi.rates)) <= tol
            or math.nextafter(lo.price, math.inf) == hi.price
        )
    ]
    assert hit or certificates
    assert math.fsum(res.rates.values()) == pytest.approx(capacity, rel=1e-12)
