"""Property tests of the closed-form user response, with hypothesis.

The inverse log-marginal is checked against a bisection of an independent
marginal (``roundtrip.reference_crossings``) over random utilities and prices
from e^-708 to e^708, and for monotonicity in the price. The sigmoid
parameters reach a*b past 745, where the normalizer d is subnormal or zero
in float64. Examples are derandomized, so every run draws the same ones.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from carrieralloc import EPS_RATE, Logarithmic, Sigmoidal, inverse_log_marginal
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
