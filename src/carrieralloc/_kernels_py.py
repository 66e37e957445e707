"""Numerical kernels: utility curves, marginal inversion, dual-ascent loop.

The package's only run-time kernels. ``_kernels.c`` is a compiled twin, kept
by hand for the benchmark's ``kernel.c.*`` metrics only; nothing imports it,
and ``tests/test_backends.py`` checks that it stays bit-identical to this.

Utility families are encoded as integers so the hot loops stay free of
Python object dispatch: SIGMOIDAL carries (q1, q2) = (a, b), LOGARITHMIC
carries (q1, q2) = (k, r_max).
"""

from __future__ import annotations

import math
import sys

SIGMOIDAL = 0
LOGARITHMIC = 1

# Uniform starting price of the dual ascent: every bid is seeded with an
# equal share of capacity priced at 1, so the first posted price is 1.
INIT_PRICE = 1.0
# When every user carries an offset large enough that demand vanishes at
# the seed price, bids can hit exactly zero and the posted price collapses
# to zero with no way back (the update is multiplicative). Reseeding below
# the recovery band fixes that; the factor steps the seed down per restart.
RESTART_FACTOR = 1e-2
MAX_RESTARTS = 8

_INF = math.inf
_DBL_MAX = sys.float_info.max
# expm1(u) overflows past this.
_LN_DBL_MAX = math.log(_DBL_MAX)
# Past this |h|, h * h in the sigmoid inverse would overflow.
_HUGE_H = 1e150
# Newton steps of the log inverse. Convergence is quadratic, so once a step
# moves u by at most _NEWTON_RTOL * u, u is exact to float64 resolution.
_NEWTON_STEPS = 8
_NEWTON_RTOL = 1e-8


def _sigmoid_parts(x):
    """Return (s, 1 - s) for s = 1/(1 + e^(-x)).

    Each side is computed from the branch that avoids cancellation, so both
    s and 1 - s keep full relative precision for |x| large.
    """
    if x >= 0.0:
        z = math.exp(-x)
        den = 1.0 + z
        return 1.0 / den, z / den
    z = math.exp(x)
    den = 1.0 + z
    return z / den, 1.0 / den


def eval_utility(family, q1, q2, r):
    """Normalized utility in [0, 1] at rate r >= 0."""
    if family == SIGMOIDAL:
        e_ab = math.exp(-q1 * q2)
        c = 1.0 + e_ab
        d = e_ab / c
        s, _ = _sigmoid_parts(q1 * (r - q2))
        u = c * (s - d)
        if u < 0.0:
            return 0.0
        if u > 1.0:
            return 1.0
        return u
    if r <= 0.0:
        return 0.0
    if r >= q2:
        return 1.0
    return math.log1p(q1 * r) / math.log1p(q1 * q2)


def log_utility(family, q1, q2, r):
    """log U(r); -inf at r = 0.

    The logarithmic family is deliberately not clamped at r_max here: the
    solvers treat it as increasing everywhere, matching log_marginal.

    The sigmoid uses c*(s - d) while that expression is well away from 1
    and switches to log1p(-c*(1-s)) past the inflection, where the direct
    form would lose all precision to rounding against 1.
    """
    if family == SIGMOIDAL:
        e_ab = math.exp(-q1 * q2)
        c = 1.0 + e_ab
        s, oms = _sigmoid_parts(q1 * (r - q2))
        if oms > 0.5:
            d = e_ab / c
            v = c * (s - d)
            if v <= 0.0:
                return -_INF
            return math.log(v)
        w = c * oms
        if w >= 1.0:
            return -_INF
        return math.log1p(-w)
    if r <= 0.0:
        return -_INF
    v = math.log1p(q1 * r) / math.log1p(q1 * q2)
    if v <= 0.0:
        return -_INF
    return math.log(v)


def log_marginal(family, q1, q2, r):
    """U'(r)/U(r) for r > 0; strictly decreasing, +inf as r -> 0."""
    if family == SIGMOIDAL:
        e_ab = math.exp(-q1 * q2)
        c = 1.0 + e_ab
        d = e_ab / c
        s, oms = _sigmoid_parts(q1 * (r - q2))
        den = s - d
        if den <= 0.0:
            return _INF
        return q1 * s * oms / den
    y = q1 * r
    den = (1.0 + y) * math.log1p(y)
    if den <= 0.0:
        return _INF
    return q1 / den


def inverse_log_marginal(family, q1, q2, price, r_cap, eps_r, tol_r, max_iters):
    """Unique r in [eps_r, r_cap] with log_marginal(r) = price, in closed form.

    Returns r_cap when the root lies above the cap (cap binds) or when
    r_cap <= eps_r, and eps_r when it lies below the floor. ``tol_r`` and
    ``max_iters`` are accepted for the signature's sake and ignored.

    Sigmoid: a*s*(1 - s) = price*(s - d) is a quadratic in s. With
    h = (a - price)/2 and root = sqrt(h^2 + a*d*price), s = (h + root)/a and
    1 - s = price*(1 - d)/((a + price)/2 + root), and r = b + logit(s)/a.
    Above the plateau (price > a) the root sits near d, and r is taken from
    s/d and (1 - s)/(1 - d) instead, without cancelling against b. When d
    underflows to zero the marginal is a*(1 - s) < a, so a price at or
    above a lands on the floor.

    Log: u = ln(1 + k*r) solves u * e^u = z = k/price. Newton on
    u + ln u = ln z from the asymptotic start of Lambert's W when ln z >= 1,
    then r = (z/u - 1)/k; Newton on u * e^u = z from z/(1 + z) below that,
    then r = expm1(u)/k.
    """
    if r_cap <= eps_r:
        return r_cap
    if family == SIGMOIDAL:
        e_ab = math.exp(-q1 * q2)
        d = e_ab / (1.0 + e_ab)
        h = 0.5 * (q1 - price)
        if abs(h) > _HUGE_H:
            root = abs(h) * math.sqrt(1.0 + (q1 * d / h) * (price / h))
        else:
            root = math.sqrt(h * h + q1 * d * price)
        big = 0.5 * (q1 + price) + root
        oms = price * (1.0 - d) / big
        if h >= 0.0:
            s = (h + root) / q1
            if s <= 0.0:
                return eps_r
            if oms <= 0.0:
                return r_cap
            r = q2 + (math.log(s) - math.log(oms)) / q1
        elif d > 0.0:
            # With t = a/(root - h): s/d = 1 + t*(1 - s),
            # (1 - d)/(1 - s) = 1 + t*d and logit(d) = -a*b.
            t = q1 / (root - h)
            r = (math.log1p(t * oms) + math.log1p(t * d)) / q1
        else:
            return eps_r
    else:
        z = q1 / price
        if z <= 0.0:
            return eps_r
        if z > _DBL_MAX:
            big_l = math.log(q1) - math.log(price)
        else:
            big_l = math.log(z)
        if big_l >= 1.0:
            ln_l = math.log(big_l)
            u = big_l - ln_l + ln_l / big_l
            for _ in range(_NEWTON_STEPS):
                step = (math.log(u) + u - big_l) * u / (1.0 + u)
                u -= step
                if abs(step) <= _NEWTON_RTOL * u:
                    break
            if z > _DBL_MAX:
                if u > _LN_DBL_MAX:
                    return r_cap
                r = math.expm1(u) / q1
            else:
                # e^u = z/u: unlike expm1(u), no error amplified by u
                r = (z / u - 1.0) / q1
        else:
            # Small u: ln u - ln z would cancel, so iterate on u * e^u = z.
            u = z / (1.0 + z)
            for _ in range(_NEWTON_STEPS):
                step = (u - z * math.exp(-u)) / (1.0 + u)
                u -= step
                if abs(step) <= _NEWTON_RTOL * u:
                    break
            r = math.expm1(u) / q1
    if r < eps_r:
        return eps_r
    if r > r_cap:
        return r_cap
    return r


def net_benefit(family, q1, q2, price, offset, r_cap, eps_r, tol_r, max_iters):
    """argmax over r >= 0 of log U(r + offset) - price * r, capped at r_cap."""
    x = inverse_log_marginal(
        family, q1, q2, price, r_cap + offset, eps_r, tol_r, max_iters
    )
    v = x - offset
    return v if v > 0.0 else 0.0


def fluctuation_clamp(w_new, w_prev, n, l1, l2):
    """Limit a bid update at iteration n to a step of l1 * e^(-n/l2)."""
    dw = l1 * math.exp(-n / l2)
    diff = w_new - w_prev
    if diff > dw:
        return w_prev + dw
    if diff < -dw:
        return w_prev - dw
    return w_new


def dual_ascent(
    families,
    q1s,
    q2s,
    offsets,
    capacity,
    rate_cap,
    delta,
    l1,
    l2,
    max_outer,
    eps_r,
    tol_r,
    bisect_max,
):
    """Iterate price/bid updates until the bid vector settles within delta.

    Returns (converged, iterations, price, rates, trace_prices, trace_bids,
    trace_rates). The final price is recomputed from the settled bids, so
    the returned rates always sum to the capacity exactly. A collapsed run
    (price hits zero because all bids zeroed out) is restarted with a
    smaller seed price; the trace reflects the final attempt only.
    """
    m = len(families)
    rates = [0.0] * m
    seed = INIT_PRICE
    for attempt in range(MAX_RESTARTS + 1):
        w = [(capacity / m) * seed for _ in range(m)]
        trace_prices = []
        trace_bids = []
        trace_rates = []
        converged = False
        collapsed = False
        iterations = 0
        for n in range(1, max_outer + 1):
            total = 0.0
            for j in range(m):
                total += w[j]
            p = total / capacity
            if p <= 0.0:
                collapsed = True
                iterations = n
                break
            max_change = 0.0
            for j in range(m):
                r_j = net_benefit(
                    families[j], q1s[j], q2s[j], p, offsets[j],
                    rate_cap, eps_r, tol_r, bisect_max,
                )
                w_j = fluctuation_clamp(p * r_j, w[j], n, l1, l2)
                change = w_j - w[j]
                if change < 0.0:
                    change = -change
                if change > max_change:
                    max_change = change
                rates[j] = r_j
                w[j] = w_j
            trace_prices.append(p)
            trace_bids.append(tuple(w))
            trace_rates.append(tuple(rates))
            iterations = n
            if max_change <= delta:
                converged = True
                break
        if not collapsed:
            break
        seed *= RESTART_FACTOR
    total = 0.0
    for j in range(m):
        total += w[j]
    price = total / capacity
    out_rates = [0.0] * m
    if price > 0.0:
        for j in range(m):
            out_rates[j] = w[j] / price
    return (
        converged,
        iterations,
        price,
        out_rates,
        trace_prices,
        trace_bids,
        trace_rates,
    )
