"""High-precision clearing prices of the paper's section-5 price discovery.

    PYTHONPATH=src python tests/ground_truth.py

rewrites ``ground_truth.json`` beside this file. It needs mpmath, which
tier-1 does not install, so no test imports this script: ``test_reference``
reads only the JSON, and ``tests/reference_outputs.py --truth`` prints
each offered price's error against it.

For carrier 1's price discovery at R1 = 50, 63, 66, 68, 75, 100, 150 and
200, the six users it covers in ``two_carrier_nine_user``, each with its
float parameters taken as exact and no offset, the file holds the clearing
price, at which their rates sum to R1, and each user's rate there, both
computed to 40 significant digits and rounded to float. A user's rate at a
price p is the r in [EPS_RATE, rate cap] at which its log-marginal
U'(r)/U(r) equals p, the floor or the cap where it crosses outside them:
the response that the solver computes in float64. The rate cap is that of
``rate_cap_for``. The marginals are taken in forms without cancellation:

- sigmoid: a*(1 + e^(-a*b)) / ((1 + e^(a*(r - b))) * -expm1(-a*r)), from
  s - d = d*(1 - s)*expm1(a*r);
- log: k / ((1 + k*r) * log1p(k*r)).

Each root is bracketed and bisected in the log of the rate, or of the
price, to far below the 40 digits kept, at 60 digits of working precision.
The run takes about a minute.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from carrieralloc import EPS_RATE, Logarithmic, Sigmoidal, rate_cap_for, two_carrier_nine_user

TRUTH = Path(__file__).with_name("ground_truth.json")
CARRIER = 1
CAPACITIES = (50.0, 63.0, 66.0, 68.0, 75.0, 100.0, 150.0, 200.0)
mp.dps = 60
# Bisection steps: each halves a bracket in the log of the rate or of the
# price, whose width starts below 2^8, so 220 steps leave it below 2^-212,
# about 1e-64 relative, far below the 40 digits kept.
STEPS = 220


def log_marginal(u, r):
    """U'(r)/U(r) at the mpf rate r > 0, without cancellation."""
    if isinstance(u, Sigmoidal):
        a, b = mpf(u.a), mpf(u.b)
        return a * (1 + mpmath.exp(-a * b)) / ((1 + mpmath.exp(a * (r - b))) * -mpmath.expm1(-a * r))
    if isinstance(u, Logarithmic):
        k = mpf(u.k)
        return k / ((1 + k * r) * mpmath.log1p(k * r))
    raise TypeError(f"not a utility function: {u!r}")


def bisect_log(above, lo, hi):
    """The point of [lo, hi] where ``above`` turns from True to False, bisected
    in the log; ``above(lo)`` must hold and ``above(hi)`` must not."""
    lo, hi = mpmath.log(lo), mpmath.log(hi)
    for _ in range(STEPS):
        mid = (lo + hi) / 2
        if above(mpmath.exp(mid)):
            lo = mid
        else:
            hi = mid
    return mpmath.exp((lo + hi) / 2)


def response(u, price, r_cap):
    """The rate in [EPS_RATE, r_cap] at which the marginal meets ``price``."""
    floor, cap = mpf(EPS_RATE), mpf(r_cap)
    if log_marginal(u, floor) <= price:
        return floor
    if log_marginal(u, cap) >= price:
        return cap
    return bisect_log(lambda r: log_marginal(u, r) > price, floor, cap)


def clearing(users, capacity: float):
    """(clearing price, each user's rate there) of ``users`` at ``capacity``."""
    r_cap = rate_cap_for([(uid, u, 0.0) for uid, u in users], capacity)
    target = mpf(capacity)

    def over(price):
        return mpmath.fsum(response(u, price, r_cap) for _, u in users) > target

    lo = hi = mpf(1)
    while not over(lo):
        lo /= 16
    while over(hi):
        hi *= 16
    price = bisect_log(over, lo, hi)
    return price, {uid: response(u, price, r_cap) for uid, u in users}


def main() -> None:
    scenario = two_carrier_nine_user()
    users = [(uid, scenario.user(uid).utility) for uid in scenario.covered_users(CARRIER)]
    points = []
    for capacity in CAPACITIES:
        price, rates = clearing(users, capacity)
        points.append({
            "capacity": capacity,
            "price": float(mpmath.nstr(price, 40)),
            "rates": {str(uid): float(mpmath.nstr(r, 40)) for uid, r in rates.items()},
        })
        print(f"R{CARRIER} = {capacity!r}: price {mpmath.nstr(price, 40)}")
    TRUTH.write_text(json.dumps({"carrier": CARRIER, "discovery": points}, indent=1) + "\n")


if __name__ == "__main__":
    main()
