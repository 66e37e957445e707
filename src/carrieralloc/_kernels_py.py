"""Numerical kernels: utility curves, marginal inversion, dual-ascent loop.

The package's only run-time kernels. ``_kernels.c`` is a compiled twin, kept
by hand for the benchmark's ``kernel.c.*`` metrics only; nothing imports it,
and ``tests/test_backends.py`` checks that it stays bit-identical to this.

Utility families are encoded as integers so the hot loops stay free of
Python object dispatch: SIGMOIDAL carries (q1, q2) = (a, b), LOGARITHMIC
carries (q1, q2) = (k, r_max).

A user's best response has one implementation, split in two so that a
caller posting many prices to the same users pays the per-user work once:
``response_constants`` forms what depends on the utility alone (the
sigmoid's d, a*d and 1 - d), and ``net_rates`` inverts the log-marginal at
one price from those, for every row of a user table. The carrier solve
forms its table once per solve, with r_cap + offset as each user's cap,
and makes one ``net_rates`` call per probe, which loops over the table: a
row whose offset covers its response at that price is skipped (see
``enodeb``). ``response``, ``inverse_log_marginal`` and ``net_benefit``
are one-row tables, so every path returns the same bits, which are also
those of ``_kernels.c``.
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
# skip_from of a one-row table, which is never skipped: no price compares
# >= nan, not even an infinite one.
_NO_SKIP = math.nan
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


def response_constants(family, q1, q2):
    """The per-user constants ``response`` takes: (d, a*d, 1 - d), or zeros.

    d = e^(-ab)/(1 + e^(-ab)) is the sigmoid's normalizer, formed as in
    ``log_marginal``; the log family needs no constants.
    """
    if family == SIGMOIDAL:
        e_ab = math.exp(-q1 * q2)
        d = e_ab / (1.0 + e_ab)
        return d, q1 * d, 1.0 - d
    return 0.0, 0.0, 0.0


def net_rates(table, price, eps_r):
    """Every row's net rate at one posted price, as a tuple: the one response.

    Each row of ``table`` is (family, q1, q2, d, ad, omd, r_cap, offset,
    skip_from), with (d, ad, omd) = ``response_constants(family, q1, q2)``.
    A row's rate is max(0, x - offset), where x is the unique r in
    [eps_r, r_cap] with log_marginal(r) = price, in closed form; it is 0.0
    without computing x when price >= skip_from. x is r_cap when the root
    lies above the cap (cap binds) or when r_cap <= eps_r, and eps_r when it
    lies below the floor.

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

    The carrier solve posts each probe's price to its whole user table in
    one call, so a probe pays no Python call per user; ``response``,
    ``inverse_log_marginal`` and ``net_benefit`` are one-row tables.
    """
    log, log1p, sqrt, exp, expm1 = math.log, math.log1p, math.sqrt, math.exp, math.expm1
    out = []
    append = out.append
    for family, q1, q2, d, ad, omd, r_cap, offset, skip_from in table:
        if price >= skip_from:
            append(0.0)
            continue
        if r_cap <= eps_r:
            append(r_cap - offset if r_cap > offset else 0.0)
            continue
        if family == SIGMOIDAL:
            h = 0.5 * (q1 - price)
            if h > _HUGE_H or h < -_HUGE_H:
                root = abs(h) * sqrt(1.0 + (ad / h) * (price / h))
            else:
                root = sqrt(h * h + ad * price)
            oms = price * omd / (0.5 * (q1 + price) + root)
            if h >= 0.0:
                s = (h + root) / q1
                if s <= 0.0:
                    r = eps_r
                elif oms <= 0.0:
                    r = r_cap
                else:
                    r = q2 + (log(s) - log(oms)) / q1
            elif d > 0.0:
                # With t = a/(root - h): s/d = 1 + t*(1 - s),
                # (1 - d)/(1 - s) = 1 + t*d and logit(d) = -a*b.
                t = q1 / (root - h)
                r = (log1p(t * oms) + log1p(t * d)) / q1
            else:
                r = eps_r
        else:
            z = q1 / price
            big_l = log(q1) - log(price) if z > _DBL_MAX else log(z) if z > 0.0 else 0.0
            if z <= 0.0:
                r = eps_r
            elif big_l >= 1.0:
                ln_l = log(big_l)
                u = big_l - ln_l + ln_l / big_l
                for _ in range(_NEWTON_STEPS):
                    step = (log(u) + u - big_l) * u / (1.0 + u)
                    u -= step
                    tol = _NEWTON_RTOL * u
                    if -tol <= step <= tol:  # |step| <= tol, without a call
                        break
                if z <= _DBL_MAX:
                    # e^u = z/u: unlike expm1(u), no error amplified by u
                    r = (z / u - 1.0) / q1
                elif u > _LN_DBL_MAX:
                    r = r_cap
                else:
                    r = expm1(u) / q1
            else:
                # Small u: ln u - ln z would cancel, so iterate on u * e^u = z.
                u = z / (1.0 + z)
                for _ in range(_NEWTON_STEPS):
                    step = (u - z * exp(-u)) / (1.0 + u)
                    u -= step
                    tol = _NEWTON_RTOL * u
                    if -tol <= step <= tol:
                        break
                r = expm1(u) / q1
        if r < eps_r:
            r = eps_r
        elif r > r_cap:
            r = r_cap
        append(r - offset if r > offset else 0.0)
    return tuple(out)


def response(family, q1, q2, d, ad, omd, price, r_cap, eps_r):
    """Unique r in [eps_r, r_cap] with log_marginal(r) = price: ``net_rates``
    of one row without an offset.

    (d, ad, omd) are ``response_constants(family, q1, q2)``, so a caller
    that posts many prices to one user computes them once. The response is
    positive wherever eps_r and r_cap are, so the net rate's floor at 0.0
    leaves it as it is.
    """
    return net_rates(((family, q1, q2, d, ad, omd, r_cap, 0.0, _NO_SKIP),), price, eps_r)[0]


def inverse_log_marginal(family, q1, q2, price, r_cap, eps_r, tol_r, max_iters):
    """``response`` with its constants formed for this one call.

    ``tol_r`` and ``max_iters`` are accepted for the signature's sake and
    ignored.
    """
    d, ad, omd = response_constants(family, q1, q2)
    return response(family, q1, q2, d, ad, omd, price, r_cap, eps_r)


def net_benefit(family, q1, q2, price, offset, r_cap, eps_r, tol_r, max_iters):
    """argmax over r >= 0 of log U(r + offset) - price * r, capped at r_cap.

    The response capped at r_cap + offset, less the offset, floored at zero:
    ``net_rates`` of one row. ``tol_r`` and ``max_iters`` are ignored.
    """
    d, ad, omd = response_constants(family, q1, q2)
    row = (family, q1, q2, d, ad, omd, r_cap + offset, offset, _NO_SKIP)
    return net_rates((row,), price, eps_r)[0]


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
