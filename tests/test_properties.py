"""Property tests of the closed-form user response and the scenario model.

The inverse log-marginal is checked against a bisection of an independent
marginal (``roundtrip.reference_crossings``) over random utilities and prices
from e^-708 to e^708, and for monotonicity in the price. The sigmoid
parameters reach a*b past 745, where the normalizer d is subnormal or zero
in float64. A scenario's indexed lookups are checked against linear scans
of its carriers and users, over random valid scenarios and the copies that
``with_capacity``, ``dataclasses.replace`` and a JSON round trip make, and
``with_capacity`` gives the scenario that a fresh build of its carriers
gives. A scenario of int and float numbers loads back from its JSON as an
equal scenario of floats, whose document loads and serializes to itself. Each utility's kernel row, formed at construction, is its kernel
encoding, and ==, hash, repr, pickling and copies see its parameters alone. A
carrier solve that reports convergence is checked against its own trace:
two of its probes bracket the capacity and certify the returned rates, or
its last probe's demand lies within ONE_END_TOL of the capacity, and then
every rate lies within ONE_END_TOL of the oracle's exact allocation.
``run`` on random scenarios of up to 4 carriers gives the same report, bit
for bit, whatever order their users and carriers are listed in, and fills
every carrier's capacity. The carrier solve's probe, which forms each
user's response constants once per solve, gives the bits of the kernels'
``net_benefit``, on the kernel alone near and far from a sigmoid's plateau
price and on every probe of random solves. So does a probe that skips a
user past its zero price, where its offset covers its demand, on random
solves whose zero prices lie near the clearing price; and a rate that reads
0.0 at one price reads 0.0 at every price that the skip it starts covers.
The solve's one pass of log-marginals gives each row, share by share, the
bits of ``log_marginal``, and under the default rate cap no price below the
cap floor, the highest of the users' log-marginals at their caps, clears
the capacity. The offered price does not rise with the capacity, and no
allocation prices above its carrier's discovery.
The allocation pass serves the carriers in the order that rounds of flags
would, and each user's offset at a carrier is the sum of the rates it got
from the carriers before it in its price order.
Examples are derandomized, so every run draws the same ones.
"""

import copy
import dataclasses
import math
import pickle
import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carrieralloc import (
    EPS_RATE,
    CarrierSpec,
    CentralizedInstance,
    ConvergenceError,
    Logarithmic,
    Scenario,
    Sigmoidal,
    SolverParams,
    UserSpec,
    dual_ascent,
    inverse_log_marginal,
    net_benefit_maximizer,
    offered_price,
    parse_scenario,
    rate_cap_for,
    run,
    serialize_scenario,
    solve_centralized,
    with_capacity,
)
from carrieralloc import _kernels_py as kernels
from carrieralloc.enodeb import ONE_END_TOL, ZERO_MARGIN, _cap_floor
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
def scenarios(draw, max_carriers=6, capacities=st.floats(1e-3, 1e6), kinds=utilities,
              max_coverage=None):
    """A valid scenario, its carriers and users listed out of id order.

    Coverage lists are drawn as permutations, so many are out of id order,
    and are cut to at most ``max_coverage`` carriers (default: all). Each
    carrier that no user covers is appended to a random user's list.
    """
    ids = st.integers(1, 60)
    carrier_ids = draw(st.lists(ids, min_size=1, max_size=max_carriers, unique=True))
    user_ids = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    coverages = [
        draw(st.permutations(carrier_ids).flatmap(
            lambda p: st.integers(1, min(len(p), max_coverage or len(p))).map(
                lambda k: p[:k])))
        for _ in user_ids
    ]
    for cid in carrier_ids:
        if not any(cid in cov for cov in coverages):
            i = draw(st.integers(0, len(coverages) - 1))
            coverages[i] = coverages[i] + [cid]
    return Scenario(
        carriers=tuple(CarrierSpec(cid, draw(capacities)) for cid in carrier_ids),
        users=tuple(
            UserSpec(uid, draw(kinds), tuple(cov))
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


positive_capacities = st.one_of(
    st.floats(0.0, sys.float_info.max, exclude_min=True),
    st.integers(1, int(sys.float_info.max)),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=scenarios(), data=st.data())
def test_with_capacity_equals_a_fresh_build(s, data):
    cid = data.draw(st.sampled_from(s.carrier_ids()))
    capacity = data.draw(positive_capacities)
    old = s.carrier(cid).capacity
    resized = with_capacity(s, cid, capacity)
    fresh = Scenario(
        carriers=tuple(
            dataclasses.replace(c, capacity=float(capacity)) if c.id == cid else c
            for c in s.carriers
        ),
        users=s.users,
    )
    assert resized == fresh
    assert hash(resized) == hash(fresh)
    assert repr(resized) == repr(fresh)
    assert resized.carrier_ids() == fresh.carrier_ids()
    assert resized.user_ids() == fresh.user_ids()
    for c in s.carriers:
        assert resized.carrier(c.id) == fresh.carrier(c.id)
        assert resized.covered_users(c.id) == fresh.covered_users(c.id)
    for u in s.users:
        assert resized.user(u.id) is fresh.user(u.id)
    assert_lookups_match_linear_scans(resized)
    assert s.carrier(cid).capacity == old
    assert next(c for c in s.carriers if c.id == cid).capacity == old


# Int and float parameters, each drawn on its own, over the whole float range
number_utilities = st.one_of(
    st.builds(Sigmoidal, a=positive_capacities, b=positive_capacities),
    st.builds(Logarithmic, k=positive_capacities, r_max=positive_capacities),
)


def holds_floats_only(s):
    return all(type(c.capacity) is float for c in s.carriers) and all(
        type(getattr(u.utility, f.name)) is float
        for u in s.users
        for f in dataclasses.fields(u.utility)
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=scenarios(capacities=positive_capacities, kinds=number_utilities))
def test_json_round_trip_loads_an_equal_scenario_of_floats(s):
    text = serialize_scenario(s)
    loaded = parse_scenario(text)
    assert loaded == s
    assert holds_floats_only(loaded)
    # the loaded scenario serializes to the same bytes every time, and to
    # the original document when every number in it was a float already
    again = serialize_scenario(loaded)
    assert serialize_scenario(parse_scenario(again)) == again
    if holds_floats_only(s):
        assert again == text


# Sigmoids with a*b > 75 put a plateau in demand: their response is
# log-singular at the price a, and demand jumps across it within a few ulps.
plateau_sigmoids = st.builds(
    lambda a, ab: Sigmoidal(a=a, b=ab / a), a=log_uniform(-0.5, 1.5), ab=st.floats(75.0, 800.0)
)
solve_utilities = st.one_of(sigmoids, plateau_sigmoids, logs)
offsets = st.one_of(st.just(0.0), log_uniform(-3.0, 2.0))


def kernel_params(u):
    """A utility's kernel encoding: (family code, q1, q2), as floats."""
    if isinstance(u, Sigmoidal):
        return kernels.SIGMOIDAL, float(u.a), float(u.b)
    return kernels.LOGARITHMIC, float(u.k), float(u.r_max)


def kernel_row(u):
    params = kernel_params(u)
    return params + kernels.response_constants(*params)


def assert_row_matches_parameters(u):
    # repr tells an int from a float and keeps every bit of a float
    assert repr(u._row) == repr(kernel_row(u))
    if isinstance(u, Sigmoidal):
        a = float(u.a)
        assert repr(u._plateau) == repr((a, a * math.sqrt(kernel_row(u)[3])))
    else:
        assert u._plateau is None


# Int parameters, alone or beside a float one.
int_utilities = st.one_of(
    st.builds(Sigmoidal, a=st.integers(1, 60),
              b=st.one_of(st.integers(1, 10**4), log_uniform(-1.3, 3.3))),
    st.builds(Logarithmic, k=st.integers(1, 10**3), r_max=st.integers(1, 10**6)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(u=st.one_of(utilities, plateau_sigmoids, int_utilities), factor=st.integers(2, 5))
def test_utility_row_is_its_kernel_encoding(u, factor):
    assert_row_matches_parameters(u)
    names = [f.name for f in dataclasses.fields(u)]
    assert names == (["a", "b"] if isinstance(u, Sigmoidal) else ["k", "r_max"])
    params = tuple(getattr(u, n) for n in names)
    assert repr(u) == f"{type(u).__name__}({names[0]}={params[0]!r}, {names[1]}={params[1]!r})"
    assert hash(u) == hash(params)
    twin = type(u)(*params)
    assert twin == u and hash(twin) == hash(u)
    assert b"_row" not in pickle.dumps(u)
    for copied in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), copy.copy(u),
                   dataclasses.replace(u)):
        assert copied == u
        assert_row_matches_parameters(copied)
    scaled = dataclasses.replace(u, **{names[1]: params[1] * factor})
    assert scaled != u
    assert_row_matches_parameters(scaled)


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
    # a last probe whose demand lies within ONE_END_TOL of the capacity
    # certifies the solve alone
    last = steps[-1]
    one_end = (last.price == res.shadow_price
               and 0.0 < abs(math.fsum(last.rates) - capacity) <= ONE_END_TOL)
    assert hit or certificates or one_end
    assert math.fsum(res.rates.values()) == pytest.approx(capacity, rel=1e-12)


# The solve's utilities whose sigmoids keep their normalizer d a normal
# float (a*b <= 700). Past that, the log-marginal that the oracle bisects
# loses its digits and parts from the closed-form response: at the bracket
# ends that a solve returns as much as at one end, by up to 17.7 in a rate
# at a*b = 783.
oracle_utilities = st.one_of(
    sigmoids.filter(lambda u: u.a * u.b <= 700.0),
    st.builds(lambda a, ab: Sigmoidal(a=a, b=ab / a),
              a=log_uniform(-0.5, 1.5), ab=st.floats(75.0, 700.0)),
    logs,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    users=st.lists(st.tuples(oracle_utilities, offsets), min_size=1, max_size=6),
    capacity=log_uniform(-2.0, 3.0),
)
def test_one_end_certificate_agrees_with_the_oracle(users, capacity):
    # every response is non-increasing in the price, so at a probe whose
    # demand is capacity + delta each rate differs from its clearing rate by
    # a share of delta, of delta's sign, and so does it once scaled by
    # capacity/demand: a solve that stops at such a probe is within |delta|
    # of the exact allocation for every user
    entries = [(uid, u, c) for uid, (u, c) in enumerate(users, 1)]
    res = dual_ascent(entries, capacity)
    last = res.trace.steps[-1]
    delta = math.fsum(last.rates) - capacity
    if not (res.converged and last.price == res.shadow_price
            and 0.0 < abs(delta) <= ONE_END_TOL):
        return
    exact = solve_centralized(CentralizedInstance(entries=entries, capacity=capacity))
    assert res.rates.keys() == exact.keys()
    for uid, r in res.rates.items():
        assert abs(r - exact[uid]) <= ONE_END_TOL, (uid, r, exact[uid], delta)


# Protocol runs: up to 4 carriers, the three kinds of user above, and
# capacities from 0.1 to 1000 in the rate units of the utilities.
protocol_scenarios = scenarios(
    max_carriers=4, capacities=log_uniform(-1.0, 3.0), kinds=solve_utilities
)


def run_or_error(scenario):
    try:
        return run(scenario)
    except ConvergenceError as e:
        return e


# Carrier 1's lone sigmoid cannot fill 200 at any normal price.
UNCLEARABLE = Scenario(
    carriers=(CarrierSpec(1, 200.0), CarrierSpec(2, 50.0)),
    users=(
        UserSpec(1, Sigmoidal(5.0, 10.0), (1,)),
        UserSpec(2, Logarithmic(3.0, 100.0), (2,)),
        UserSpec(3, Sigmoidal(1.0, 30.0), (2,)),
    ),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(s=protocol_scenarios, rnd=st.randoms(use_true_random=False))
@example(s=UNCLEARABLE, rnd=random.Random(0))
def test_run_does_not_depend_on_listing_order(s, rnd):
    shuffled = Scenario(
        carriers=tuple(rnd.sample(s.carriers, len(s.carriers))),
        users=tuple(rnd.sample(s.users, len(s.users))),
    )
    report, again = run_or_error(s), run_or_error(shuffled)
    if isinstance(report, ConvergenceError):
        assert isinstance(again, ConvergenceError)
        return
    assert not isinstance(again, ConvergenceError)
    assert again.offered_prices == report.offered_prices
    assert again.allocation_prices == report.allocation_prices
    assert again.rates == report.rates
    assert again.offsets == report.offsets
    assert again.aggregates == report.aggregates
    assert again.processing_order == report.processing_order


@settings(derandomize=True, max_examples=150, deadline=None)
@given(s=protocol_scenarios)
def test_run_fills_every_capacity(s):
    report = run_or_error(s)
    if isinstance(report, ConvergenceError):
        return
    for c in s.carriers:
        assert math.fsum(report.rates[c.id].values()) == pytest.approx(c.capacity, rel=1e-12)


# The carrier solve forms each user's response constants once and calls the
# kernels' per-user core once per probe; ``net_benefit`` forms them per call.
# Both must give the same bits. The utilities reach a*b past 745, where d
# underflows to zero, and the prices include the plateau price a itself,
# prices within ulps and within 1% of it on either side, and prices so far
# above it that |h| = |a - p|/2 passes 1e150.
def bits(x):
    return struct.pack("<d", x)


def hoisted_net_benefit(u, price, offset, r_cap):
    """The rate as the carrier solve's probe forms it."""
    fam, q1, q2 = kernel_params(u)
    d, ad, omd = kernels.response_constants(fam, q1, q2)
    v = kernels.response(fam, q1, q2, d, ad, omd, price, r_cap + offset, EPS_RATE) - offset
    return v if v > 0.0 else 0.0


def assert_hoisted_bits(u, price, offset, r_cap):
    want = kernels.net_benefit(*kernel_params(u), price, offset, r_cap, EPS_RATE, 1e-9, 200)
    assert bits(hoisted_net_benefit(u, price, offset, r_cap)) == bits(want)


deep_sigmoids = st.builds(
    lambda a, ab: Sigmoidal(a=a, b=ab / a),
    a=log_uniform(-1.0, 1.7), ab=st.floats(700.0, 5000.0),
)
# relative distances from 1e-16 to 1e-2, on either side
nearby = st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(-16.0, -2.0))


def prices_around(a):
    return st.one_of(
        st.just(a),
        st.integers(-64, 64).map(lambda n: a + n * math.ulp(a)),
        nearby.map(lambda sd: a * (1.0 + sd[0] * sd[1])),
        log_uniform(1.0, 307.0).map(lambda f: a * f),
        prices,
    ).filter(lambda p: 0.0 < p < math.inf)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    u=st.one_of(sigmoids, plateau_sigmoids, deep_sigmoids, logs),
    offset=st.one_of(st.just(0.0), log_uniform(-3.0, 3.0)),
    r_cap=st.one_of(caps, st.floats(1e-15, EPS_RATE)),
    data=st.data(),
)
def test_hoisted_response_equals_net_benefit(u, offset, r_cap, data):
    for price in data.draw(st.lists(prices_around(kernel_params(u)[1]), min_size=1, max_size=6)):
        assert_hoisted_bits(u, price, offset, r_cap)


@pytest.mark.parametrize("u", [
    Sigmoidal(a=3.0, b=20.0),
    Sigmoidal(a=5.0, b=148.0),  # a*b = 740: d is subnormal
    Sigmoidal(a=14.4, b=243.5),  # a*b > 745: d underflows to zero
    Logarithmic(k=3.0, r_max=100.0),
])
@pytest.mark.parametrize("offset", [0.0, 7.5])
@pytest.mark.parametrize("r_cap", [200.0, EPS_RATE, 1e-12])
def test_hoisted_response_equals_net_benefit_at_the_edges(u, offset, r_cap):
    q1 = kernel_params(u)[1]
    edges = [
        q1, math.nextafter(q1, 0.0), math.nextafter(q1, math.inf),
        q1 * (1.0 - 1e-12), q1 * (1.0 + 1e-12), q1 * 0.99, q1 * 1.01,
        q1 * 1e3, 1e155, 1e300, sys.float_info.max, 1e-300, sys.float_info.min,
    ]
    for price in edges:
        assert_hoisted_bits(u, price, offset, r_cap)


# A capacity of at most EPS_RATE/2 puts the response cap, twice the capacity
# when no log user raises it, at or below the rate floor: a sigmoid without
# an offset then takes the cap at every price, without a response.
tiny_capacities = st.floats(1e-12, EPS_RATE / 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    users=st.lists(st.tuples(st.one_of(solve_utilities, deep_sigmoids), offsets),
                   min_size=1, max_size=6),
    capacity=st.one_of(log_uniform(-2.0, 3.0), tiny_capacities),
)
@example(users=[(Sigmoidal(5.0, 10.0), 0.0), (Sigmoidal(2.0, 30.0), 0.0)], capacity=4e-10)
def test_probe_rates_equal_net_benefit(users, capacity):
    # every probe of a solve, plateau prices included, gives each user the
    # bits that net_benefit gives at the probe's price
    entries = [(uid, u, c) for uid, (u, c) in enumerate(users, 1)]
    assert_probes_equal_net_benefit(entries, capacity)


def assert_probes_equal_net_benefit(entries, capacity):
    res = dual_ascent(entries, capacity)
    cap = rate_cap_for(entries, capacity)
    for step in res.trace.steps:
        want = [
            kernels.net_benefit(*kernel_params(u), step.price, c, cap, EPS_RATE, 1e-9, 200)
            for _, u, c in entries
        ]
        assert [bits(r) for r in step.rates] == [bits(r) for r in want]


# Once a probe reads an offset user's rate as exactly 0.0, the solve skips
# its response from ZERO_MARGIN above that price on. Its zero price, where
# its response falls to its offset, lies near its log-marginal at the
# offset, which loses its digits for sigmoids with a*b from about 708 to
# 745, so these are drawn too, beside plateau-prone sigmoids and log users.
abyss_sigmoids = st.builds(
    lambda a, ab: Sigmoidal(a=a, b=ab / a), a=log_uniform(-1.0, 1.7), ab=st.floats(700.0, 750.0)
)
zero_price_utilities = st.one_of(plateau_sigmoids, abyss_sigmoids, logs)


@st.composite
def offset_solves(draw):
    """(entries, capacity) with zero prices near the clearing price.

    Most users' offsets are their own zero-offset response at a price within
    a factor of 10 of p0, which puts their zero prices there too, and the
    capacity is the demand at p0 (drawn instead where nobody demands there),
    so the solve's bracket closes in among the zero prices. One draw in four
    takes a tiny capacity instead, at which a sigmoid without an offset
    takes the cap at every price.
    """
    p0 = draw(log_uniform(-4.0, 6.0))
    tiny = draw(st.integers(0, 3)) == 0
    entries = []
    for uid, u in enumerate(draw(st.lists(zero_price_utilities, min_size=1, max_size=6)), 1):
        c = 0.0
        if draw(st.integers(0, 3)):
            c = inverse_log_marginal(u, p0 * draw(log_uniform(-1.0, 1.0)), 1e6)
        entries.append((uid, u, c))
    if tiny:
        return entries, draw(tiny_capacities)
    demand = math.fsum(net_benefit_maximizer(u, p0, c, 1e6) for _, u, c in entries)
    capacity = demand if demand > 0.0 else draw(log_uniform(-9.0, 3.0))
    return entries, capacity


def prices_from(start):
    """The first prices a skip covers, and prices far above them."""
    near = [start]
    for _ in range(16):
        near.append(math.nextafter(near[-1], math.inf))
    far = [start * (1.0 + rise) for rise in (1e-9, 1e-6, 1e-3, 1.0, 1e3)]
    return near + [p for p in far if p < math.inf]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    u=st.one_of(sigmoids, zero_price_utilities),
    offset=log_uniform(-7.0, 2.5),
    r_cap=log_uniform(-15.0, 3.0),
    rise=st.one_of(st.just(0.0), log_uniform(-9.0, 0.0)),
)
# At this log user's log_marginal at the offset the rate is 0.0, and one
# float higher it is positive again: the margin keeps the skip clear of it.
# The sigmoid's log_marginal has lost its digits (a*b = 730): its rate is
# still positive there and 10% above it, and reads 0.0 11% above it.
@example(u=Logarithmic(2.6115180947585896, 100.0), offset=2.287476777298165, r_cap=1e3,
         rise=0.0)
@example(u=Sigmoidal(2.0009287417555317, 364.8246562740504), offset=1.91601921255434e-06,
         r_cap=1e3, rise=0.11)
def test_a_rate_that_reads_zero_reads_zero_from_the_skip_price_up(u, offset, r_cap, rise):
    # the prices tried are the log-marginal at the offset, the floats just
    # below and above it, prices far above it and the one drawn above it
    fam, q1, q2 = kernel_params(u)

    def rate(price):
        return kernels.net_benefit(fam, q1, q2, price, offset, r_cap, EPS_RATE, 1e-9, 200)

    row = kernel_row(u) + (r_cap + offset, offset, math.inf)
    z = kernels.log_marginals([row], 0.0)[0]
    if not 0.0 < z < math.inf:
        return
    below = [z]
    for _ in range(8):
        below.append(math.nextafter(below[-1], 0.0))
    tried = below[1:] + prices_from(z) + [z * (1.0 + rise)]
    for p in tried:
        if p < math.inf and rate(p) == 0.0:
            for price in prices_from(p * (1.0 + ZERO_MARGIN)):
                assert bits(rate(price)) == bits(0.0), (p, price)


# log_marginal puts this user's zero price at 472647.6, where its rate is
# still 2.0e-07: a skip read from it would drop the rate on the probes from
# there up to its clearing price near 496018.
LOST_DIGITS = ([(1, Sigmoidal(2.0009287417555317, 364.8246562740504), 1.91601921255434e-06)],
               1e-7)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(solve=offset_solves())
@example(solve=LOST_DIGITS)
def test_skipped_responses_equal_net_benefit(solve):
    # every probe gives each user the bits of net_benefit, whether the solve
    # called the kernel for it or skipped it past its zero price
    assert_probes_equal_net_benefit(*solve)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    users=st.lists(st.tuples(st.one_of(utilities, plateau_sigmoids, deep_sigmoids), offsets),
                   min_size=1, max_size=4),
    shares=st.lists(st.one_of(st.just(0.0), log_uniform(-3.0, 3.0)), min_size=1, max_size=3),
)
def test_log_marginals_are_log_marginal_share_by_share(users, shares):
    # the solve's pass at each share gives each row's price there, with the
    # bits of log_marginal at the offset plus the share
    table = [kernel_row(u) + (1e3 + c, c, math.inf) for u, c in users]
    for share in shares:
        want = [kernels.log_marginal(*kernel_params(u), c + share) for u, c in users]
        got = kernels.log_marginals(table, share)
        assert [bits(p) for p in got] == [bits(p) for p in want], share


# Below a user's cap price, its log-marginal at its offset plus the rate
# cap, its rate is the cap, at least twice the capacity under the default
# cap, so no price below the highest cap price clears. The sigmoids include
# those whose s and d are subnormal at the cap, where the computed cap price
# can lie above the plateau price a; the solve's floor drops such a price.
@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    users=st.lists(st.tuples(st.one_of(solve_utilities, deep_sigmoids, abyss_sigmoids), offsets),
                   min_size=1, max_size=8),
    capacity=log_uniform(-2.0, 3.0),
)
@example(users=[(Sigmoidal(7.566187029167866, 98.60871631853058), 0.0)],
         capacity=0.13148124372806583)
def test_no_price_below_the_cap_floor_clears(users, capacity):
    entries = [(uid, u, c) for uid, (u, c) in enumerate(users, 1)]
    rate_cap = rate_cap_for(entries, capacity)
    table = [kernel_row(u) + (rate_cap + c, c, math.inf) for u, c in users]
    floor = _cap_floor(table, kernels.log_marginals(table, rate_cap), capacity, 0.0)
    if floor == 0.0:
        return
    price = floor * (1.0 - 1e-12)
    demand = math.fsum(net_benefit_maximizer(u, price, c, rate_cap) for u, c in users)
    assert demand > capacity


# ROADMAP item 8: the offered price never rises with the capacity, and an
# allocation, whose offsets only lower demand, never prices above its
# carrier's discovery. A plateau step that certified the wrong side of the
# root would break either. The users include plateau-prone sigmoids, so
# that many solves narrow beside a plateau price.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    users=st.lists(solve_utilities, min_size=1, max_size=6),
    capacity=log_uniform(-2.0, 3.0),
    growth=log_uniform(-3.0, 1.0),
)
def test_offered_price_non_increasing_in_capacity(users, capacity, growth):
    listed = list(enumerate(users, 1))
    small = offered_price(listed, capacity)
    large = offered_price(listed, capacity * (1.0 + growth))
    if small.converged and large.converged:
        assert large.shadow_price <= small.shadow_price


@settings(derandomize=True, max_examples=150, deadline=None)
@given(s=protocol_scenarios)
def test_allocation_prices_at_most_discovery_prices(s):
    report = run_or_error(s)
    if isinstance(report, ConvergenceError):
        return
    for c in s.carriers:
        assert report.allocation_prices[c.id] <= report.offered_prices[c.id]


def flag_rounds_order(scenario, prices):
    """The carrier order of the protocol's rounds of flags, found without solving.

    Each user flags the first carrier of its price order not yet served. A
    round serves, cheapest first, every carrier that all its covered users
    flag at the start of the round.
    """
    orders = {
        u.id: sorted(u.coverage, key=lambda c: (prices[c], c)) for u in scenario.users
    }
    served: list[int] = []
    while len(served) < len(prices):
        flags = {
            uid: next((c for c in order if c not in served), None)
            for uid, order in orders.items()
        }
        ready = [
            c.id for c in scenario.carriers
            if c.id not in served
            and all(flags[u.id] == c.id for u in scenario.users if c.id in u.coverage)
        ]
        assert ready, "no carrier is flagged by all its users"
        served += sorted(ready, key=lambda c: (prices[c], c))
    return tuple(served)


# Up to 8 carriers, each user covering at most 3 of them: sparse enough
# that a later round often serves a cheaper carrier than an earlier one.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(s=scenarios(max_carriers=8, capacities=log_uniform(-1.0, 3.0),
                   kinds=solve_utilities, max_coverage=3))
def test_one_pass_serves_carriers_in_the_order_of_the_flag_rounds(s):
    report = run_or_error(s)
    if isinstance(report, ConvergenceError):
        return
    prices = report.offered_prices
    assert report.processing_order == flag_rounds_order(s, prices)
    for u in s.users:
        before: list[int] = []
        for cid in sorted(u.coverage, key=lambda c: (prices[c], c)):
            received = math.fsum(report.rates[b][u.id] for b in before)
            assert report.offsets[cid][u.id] == received
            before.append(cid)
