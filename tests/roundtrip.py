"""Error bound for the inverse round trip r -> log_marginal(u, r) -> inverse.

The inverse promises the root of the computed marginal at the float64
price, not the rate the price was computed from. Where the marginal is flat
(a sigmoid near its inflection point), one ulp of price spans far more rate
than any fixed tolerance, so the bound adds the rate that the price's own
rounding can move: 8 ulps of price over the marginal's slope, covering two
evaluations of the marginal, each good to about 4 ulps. The slope is
computed here in closed form from the utility's parameters, independently of
the package's kernels.

The module also holds a reference marginal and its bisection, likewise
independent of the package, which the property tests hold the closed-form
inverse against.
"""

import math

from carrieralloc import Logarithmic, Sigmoidal

RATE_TOL = 1e-6
PRICE_ULPS = 8.0


def _sigmoid_parts(u, r: float):
    """(s, 1 - s, ln(d/s)) at rate r, each without underflow or cancellation.

    ln d is taken as -a*b - ln(1 + e^(-a*b)), its exact value, so that the
    ratio d/s stays accurate where s and d are subnormal. A d that underflows
    to zero in float64 stays zero (ln(d/s) = -inf): the package's marginal
    is then a*(1 - s).
    """
    a, b = u.a, u.b
    x = a * (r - b)
    z = math.exp(-abs(x))
    if x >= 0.0:
        s, oms, log_s = 1.0 / (1.0 + z), z / (1.0 + z), -math.log1p(z)
    else:
        s, oms, log_s = z / (1.0 + z), 1.0 / (1.0 + z), x - math.log1p(z)
    e_ab = math.exp(-a * b)
    log_d = -a * b - math.log1p(e_ab) if e_ab > 0.0 else -math.inf
    return s, oms, log_d - log_s


def reference_log_marginal(u, r: float) -> float:
    """U'(r)/U(r) for r > 0, evaluated independently of the package."""
    if isinstance(u, Sigmoidal):
        _, oms, log_ratio = _sigmoid_parts(u, r)
        if log_ratio >= 0.0:
            return math.inf
        return u.a * oms / -math.expm1(log_ratio)
    if isinstance(u, Logarithmic):
        y = u.k * r
        return u.k / ((1.0 + y) * math.log1p(y))
    raise TypeError(f"not a utility function: {u!r}")


def _bisect_crossing(u, price: float, r_cap: float, eps_r: float, above) -> float:
    """Largest rate in [eps_r, r_cap] where ``above(marginal)`` still holds.

    Bisection to the float64 spacing of the rate; eps_r when it does not
    hold even at the floor, r_cap when it holds at the cap.
    """
    lo, hi = eps_r, r_cap
    if hi <= lo:
        return hi
    if not above(reference_log_marginal(u, lo)):
        return lo
    if above(reference_log_marginal(u, hi)):
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if above(reference_log_marginal(u, mid)):
            lo = mid
        else:
            hi = mid


def reference_crossings(u, price: float, r_cap: float, eps_r: float):
    """(lowest, highest) rate in [eps_r, r_cap] where the marginal crosses price.

    Computed by bisecting the reference marginal, for checking the
    package's closed-form inverse against. The two agree to the float64
    spacing of the rate unless the computed marginal equals the price over
    a whole interval: a sigmoid priced at exactly its plateau value a,
    where 1 - s and s/(s - d) both round to 1 far from the exact crossing.
    """
    return (
        _bisect_crossing(u, price, r_cap, eps_r, lambda m: m > price),
        _bisect_crossing(u, price, r_cap, eps_r, lambda m: m >= price),
    )


def log_marginal_slope(u, r: float) -> float:
    """d/dr of U'(r)/U(r) in closed form, for r > 0."""
    if isinstance(u, Sigmoidal):
        s, oms, log_ratio = _sigmoid_parts(u, r)
        # d/(s - d) = (d/s)/(1 - d/s)
        tail = -math.expm1(log_ratio)
        lm = u.a * oms / tail
        return -u.a * lm * (s + oms * math.exp(log_ratio) / tail)
    if isinstance(u, Logarithmic):
        y = u.k * r
        big_l = math.log1p(y)
        lm = u.k / ((1.0 + y) * big_l)
        return -lm * u.k * (1.0 + big_l) / ((1.0 + y) * big_l)
    raise TypeError(f"not a utility function: {u!r}")


def price_rounding_term(u, r: float, price: float) -> float:
    """Rate spanned by PRICE_ULPS ulps of ``price`` at rate r."""
    slope = abs(log_marginal_slope(u, r))
    if slope == 0.0:
        return math.inf  # the marginal is flat to float64: no price resolves r
    return PRICE_ULPS * math.ulp(price) / slope


def round_trip_bound(u, r: float, price: float) -> float:
    """Largest |inverse(price) - r| a correct float64 inverse can return."""
    return RATE_TOL + price_rounding_term(u, r, price)
