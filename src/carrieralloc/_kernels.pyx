# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled backend: bit-identical twin of ``carrieralloc._kernels_py``.

Any change to the fallback must be mirrored here with the same operation
order; the build disables FP contraction so both backends round identically.

The checked-in ``_kernels.c`` was generated by Cython 3.2.8 from an earlier
version of this file, except for one function: the closed-form
``_inverse_log_marginal`` was ported into it by hand, operation for
operation, as the C function
``__pyx_f_12carrieralloc_8_kernels__inverse_log_marginal``. Regenerate the
C file from this one with Cython where it is available.
"""

from libc.math cimport exp, expm1, fabs, log, log1p, sqrt, INFINITY
from libc.stdlib cimport free, malloc

SIGMOIDAL = 0
LOGARITHMIC = 1

INIT_PRICE = 1.0
RESTART_FACTOR = 1e-2
MAX_RESTARTS = 8

cdef int _SIG = 0
cdef double _INIT_PRICE = 1.0
cdef double _RESTART_FACTOR = 1e-2
cdef int _MAX_RESTARTS = 8


cdef inline void _sigmoid_parts(double x, double *s, double *oms) noexcept nogil:
    cdef double z, den
    if x >= 0.0:
        z = exp(-x)
        den = 1.0 + z
        s[0] = 1.0 / den
        oms[0] = z / den
    else:
        z = exp(x)
        den = 1.0 + z
        s[0] = z / den
        oms[0] = 1.0 / den


cdef double _eval_utility(int family, double q1, double q2, double r) noexcept nogil:
    cdef double e_ab, c, d, s, oms, u
    if family == _SIG:
        e_ab = exp(-q1 * q2)
        c = 1.0 + e_ab
        d = e_ab / c
        _sigmoid_parts(q1 * (r - q2), &s, &oms)
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
    return log1p(q1 * r) / log1p(q1 * q2)


cdef double _log_utility(int family, double q1, double q2, double r) noexcept nogil:
    cdef double e_ab, c, d, s, oms, v, w
    if family == _SIG:
        e_ab = exp(-q1 * q2)
        c = 1.0 + e_ab
        _sigmoid_parts(q1 * (r - q2), &s, &oms)
        if oms > 0.5:
            d = e_ab / c
            v = c * (s - d)
            if v <= 0.0:
                return -INFINITY
            return log(v)
        w = c * oms
        if w >= 1.0:
            return -INFINITY
        return log1p(-w)
    if r <= 0.0:
        return -INFINITY
    v = log1p(q1 * r) / log1p(q1 * q2)
    if v <= 0.0:
        return -INFINITY
    return log(v)


cdef double _log_marginal(int family, double q1, double q2, double r) noexcept nogil:
    cdef double e_ab, c, d, s, oms, den, y
    if family == _SIG:
        e_ab = exp(-q1 * q2)
        c = 1.0 + e_ab
        d = e_ab / c
        _sigmoid_parts(q1 * (r - q2), &s, &oms)
        den = s - d
        if den <= 0.0:
            return INFINITY
        return q1 * s * oms / den
    y = q1 * r
    den = (1.0 + y) * log1p(y)
    if den <= 0.0:
        return INFINITY
    return q1 / den


cdef double _inverse_log_marginal(
    int family, double q1, double q2, double price, double r_cap,
    double eps_r, double tol_r, int max_iters,
) noexcept nogil:
    # Closed form; see _kernels_py.inverse_log_marginal. tol_r and
    # max_iters are ignored. The literals are DBL_MAX, ln(DBL_MAX), the
    # |h| past which h * h would overflow, and the Newton step cap and
    # relative stopping step.
    cdef double e_ab, d, h, root, big, oms, s, t, r, z, big_l, ln_l, u, step
    cdef int it
    if r_cap <= eps_r:
        return r_cap
    if family == _SIG:
        e_ab = exp(-q1 * q2)
        d = e_ab / (1.0 + e_ab)
        h = 0.5 * (q1 - price)
        if fabs(h) > 1e150:
            root = fabs(h) * sqrt(1.0 + (q1 * d / h) * (price / h))
        else:
            root = sqrt(h * h + q1 * d * price)
        big = 0.5 * (q1 + price) + root
        oms = price * (1.0 - d) / big
        if h >= 0.0:
            s = (h + root) / q1
            if s <= 0.0:
                return eps_r
            if oms <= 0.0:
                return r_cap
            r = q2 + (log(s) - log(oms)) / q1
        elif d > 0.0:
            t = q1 / (root - h)
            r = (log1p(t * oms) + log1p(t * d)) / q1
        else:
            return eps_r
    else:
        z = q1 / price
        if z <= 0.0:
            return eps_r
        if z > 1.7976931348623157e308:
            big_l = log(q1) - log(price)
        else:
            big_l = log(z)
        if big_l >= 1.0:
            ln_l = log(big_l)
            u = big_l - ln_l + ln_l / big_l
            for it in range(8):
                step = (log(u) + u - big_l) * u / (1.0 + u)
                u = u - step
                if fabs(step) <= 1e-8 * u:
                    break
            if z > 1.7976931348623157e308:
                if u > 709.782712893384:
                    return r_cap
                r = expm1(u) / q1
            else:
                r = (z / u - 1.0) / q1
        else:
            u = z / (1.0 + z)
            for it in range(8):
                step = (u - z * exp(-u)) / (1.0 + u)
                u = u - step
                if fabs(step) <= 1e-8 * u:
                    break
            r = expm1(u) / q1
    if r < eps_r:
        return eps_r
    if r > r_cap:
        return r_cap
    return r


cdef double _net_benefit(
    int family, double q1, double q2, double price, double offset,
    double r_cap, double eps_r, double tol_r, int max_iters,
) noexcept nogil:
    cdef double x = _inverse_log_marginal(
        family, q1, q2, price, r_cap + offset, eps_r, tol_r, max_iters
    )
    cdef double v = x - offset
    return v if v > 0.0 else 0.0


cdef double _fluctuation_clamp(
    double w_new, double w_prev, long n, double l1, double l2
) noexcept nogil:
    cdef double dw = l1 * exp(-(<double> n) / l2)
    cdef double diff = w_new - w_prev
    if diff > dw:
        return w_prev + dw
    if diff < -dw:
        return w_prev - dw
    return w_new


def eval_utility(int family, double q1, double q2, double r):
    return _eval_utility(family, q1, q2, r)


def log_utility(int family, double q1, double q2, double r):
    return _log_utility(family, q1, q2, r)


def log_marginal(int family, double q1, double q2, double r):
    return _log_marginal(family, q1, q2, r)


def inverse_log_marginal(int family, double q1, double q2, double price,
                         double r_cap, double eps_r, double tol_r,
                         int max_iters):
    return _inverse_log_marginal(family, q1, q2, price, r_cap,
                                 eps_r, tol_r, max_iters)


def net_benefit(int family, double q1, double q2, double price, double offset,
                double r_cap, double eps_r, double tol_r, int max_iters):
    return _net_benefit(family, q1, q2, price, offset, r_cap,
                        eps_r, tol_r, max_iters)


def fluctuation_clamp(double w_new, double w_prev, long n, double l1, double l2):
    return _fluctuation_clamp(w_new, w_prev, n, l1, l2)


def dual_ascent(families, q1s, q2s, offsets, double capacity, double rate_cap,
                double delta, double l1, double l2, long max_outer,
                double eps_r, double tol_r, int bisect_max):
    cdef Py_ssize_t m = len(families)
    cdef int *fam = <int *> malloc(m * sizeof(int))
    cdef double *q1a = <double *> malloc(m * sizeof(double))
    cdef double *q2a = <double *> malloc(m * sizeof(double))
    cdef double *offa = <double *> malloc(m * sizeof(double))
    cdef double *w = <double *> malloc(m * sizeof(double))
    cdef double *rates = <double *> malloc(m * sizeof(double))
    if not (fam and q1a and q2a and offa and w and rates):
        free(fam); free(q1a); free(q2a); free(offa); free(w); free(rates)
        raise MemoryError()

    cdef Py_ssize_t j
    cdef long n, iterations = 0
    cdef int attempt
    cdef double total, p, r_j, w_j, change, max_change, price
    cdef double seed = _INIT_PRICE
    cdef bint converged = False
    cdef bint collapsed = False
    trace_prices = []
    trace_bids = []
    trace_rates = []
    out_rates = [0.0] * m

    try:
        for j in range(m):
            fam[j] = families[j]
            q1a[j] = q1s[j]
            q2a[j] = q2s[j]
            offa[j] = offsets[j]
            rates[j] = 0.0

        for attempt in range(_MAX_RESTARTS + 1):
            for j in range(m):
                w[j] = (capacity / (<double> m)) * seed
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
                    r_j = _net_benefit(fam[j], q1a[j], q2a[j], p, offa[j],
                                       rate_cap, eps_r, tol_r, bisect_max)
                    w_j = _fluctuation_clamp(p * r_j, w[j], n, l1, l2)
                    change = w_j - w[j]
                    if change < 0.0:
                        change = -change
                    if change > max_change:
                        max_change = change
                    rates[j] = r_j
                    w[j] = w_j
                trace_prices.append(p)
                trace_bids.append(tuple([w[j] for j in range(m)]))
                trace_rates.append(tuple([rates[j] for j in range(m)]))
                iterations = n
                if max_change <= delta:
                    converged = True
                    break
            if not collapsed:
                break
            seed *= _RESTART_FACTOR

        total = 0.0
        for j in range(m):
            total += w[j]
        price = total / capacity
        if price > 0.0:
            for j in range(m):
                out_rates[j] = w[j] / price
    finally:
        free(fam); free(q1a); free(q2a); free(offa); free(w); free(rates)

    return (
        bool(converged),
        iterations,
        price,
        out_rates,
        trace_prices,
        trace_bids,
        trace_rates,
    )
