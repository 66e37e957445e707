"""Independent centralized solver used to validate the iterative allocator.

Maximizes the summed log-utility of (rate + offset) over the capped simplex
{r >= 0, sum r <= R} by bisecting the carrier's price, the price
decomposition of Kelly (1998) and Low & Lapsley (1999). At a price λ each
user takes the largest r in [0, R] at which its log-marginal at c + r still
exceeds λ, found by bisecting r; the price is bisected on whether the
users' total demand reaches R; and the last bracket is split so that the
rates fill R. Both bisections run down to adjacent floats, taking
midpoints in the floats' bit patterns, which order non-negative floats as
their values do and step nearly evenly in ln; so the price bisection is
one of ln λ, and each takes at most 64 steps.

The oracle shares ``log_marginal`` with the solver, but not the solver's
closed-form response (``_kernels_py.net_rates``) nor its bracket search.
Its price ranges over all positive floats, subnormals included, so it
raises OracleError only where no such price brackets R: where the
marginals underflow to zero before the demand reaches R, or read inf
beyond it. For one or two users a zooming grid over the capacity face,
which reads nothing but ``log_utility``, cross-checks the bisection's
objective; it never replaces the rates.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import OracleError
from .utility import Entry, UtilityFunction, _is_number, log_marginal, log_utility

_BITS = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
# Points of each pass of the zooming grid (see _grid_best).
_GRID_POINTS = 101


@dataclass(frozen=True)
class CentralizedInstance:
    """One carrier's problem: (user id, utility, offset) entries and capacity."""

    entries: tuple[Entry, ...]
    capacity: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("entries must not be empty")
        if not (_is_number(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be > 0, got {self.capacity!r}")
        for uid, _, c in self.entries:
            if not (_is_number(c) and c >= 0):
                raise ValueError(f"user {uid}: offset must be >= 0, got {c!r}")
        user_ids = [uid for uid, _, _ in self.entries]
        if len(set(user_ids)) != len(user_ids):
            raise ValueError(f"duplicate user ids in entries: {user_ids}")


@dataclass(frozen=True)
class ComparisonResult:
    max_deviation: float
    passed: bool


def objective(instance: CentralizedInstance, rates: Mapping[int, float]) -> float:
    """Summed log-utility of (rate + offset); -inf off the domain."""
    f = 0.0
    for uid, u, c in instance.entries:
        f += log_utility(u, max(rates[uid] + c, 0.0))
    return f


def _bisect(lo: float, hi: float, above: Callable[[float], bool]) -> float:
    """Largest float in [lo, hi) found above, assuming above(lo) and not above(hi).

    The ends, both >= 0, are taken as given, not evaluated. Each midpoint
    halves the gap between the ends' bit patterns, until they are adjacent.
    """
    i = _BITS.unpack(_FLOAT.pack(lo))[0]
    j = _BITS.unpack(_FLOAT.pack(hi))[0]
    while j - i > 1:
        k = (i + j) // 2
        if above(_FLOAT.unpack(_BITS.pack(k))[0]):
            i = k
        else:
            j = k
    return _FLOAT.unpack(_BITS.pack(i))[0]


def _rate(u: UtilityFunction, c: float, price: float, low: float, high: float) -> float:
    """Largest r in [low, high] whose log-marginal at c + r exceeds the price.

    ``low`` when none does.
    """

    def above(r: float) -> bool:
        # the marginal's limit at 0 is +inf
        return c + r == 0.0 or log_marginal(u, c + r) > price

    if above(high):
        return high
    if not above(low):
        return low
    return _bisect(low, high, above)


def _grid_best(instance: CentralizedInstance) -> float:
    """Best objective on a zooming grid over the capacity face, for <= 2 users.

    Uses only log-utility evaluations. The objective is increasing in every
    coordinate (the log family is treated as unclamped), so the optimum
    saturates the capacity and a one-dimensional scan of r1 covers the
    two-user case. There the objective is concave in r1, since both
    log-marginals decrease, so the optimum lies within one step of the best
    point of a scan. Each pass scans _GRID_POINTS (101) evenly spaced
    points, and the next one the two steps around the winner, until the
    step is below R/(2*10^8): five passes reach R/(6.25*10^8).
    """
    R = instance.capacity
    if len(instance.entries) == 1:
        (uid, _, _), = instance.entries
        return objective(instance, {uid: R})
    (_, u1, c1), (_, u2, c2) = instance.entries

    def f(r1: float) -> float:
        return log_utility(u1, r1 + c1) + log_utility(u2, max(R - r1, 0.0) + c2)

    lo, hi = 0.0, R
    while True:
        step = (hi - lo) / (_GRID_POINTS - 1)
        best_x, best_f = lo, f(lo)
        for i in range(1, _GRID_POINTS):
            x = lo + i * step
            fx = f(x)
            if fx > best_f:
                best_f, best_x = fx, x
        if step < R / 2e8:
            return best_f
        lo = max(0.0, best_x - step)
        hi = min(R, best_x + step)


def solve_centralized(instance: CentralizedInstance) -> dict[int, float]:
    """Rates maximizing the summed log-utility subject to the capacity.

    Bisects the price over the positive floats, and each user's rate at a
    price over [0, R], as the module docstring describes. Raises OracleError
    when no positive price brackets the capacity: demand at the smallest
    positive float falls short of it, or demand at the largest still
    reaches it. For one or two users it also raises when the grid's
    objective beats the bisection's by more than 1e-12 * max(1, |f|).
    """
    R = float(instance.capacity)
    entries = [(uid, u, float(c)) for uid, u, c in instance.entries]

    def rates(price: float, low: list[float], high: list[float]) -> list[float]:
        return [_rate(u, c, price, a, b) for (_, u, c), a, b in zip(entries, low, high)]

    # Demand at the cheapest and the dearest positive price. Each user's
    # rate at a price between two others lies between its rates there, so
    # the rates at the bracket's ends bound every inner bisection.
    lo, hi = 5e-324, 1.7976931348623157e308  # the least and greatest positive floats
    r_lo = rates(lo, [0.0] * len(entries), [R] * len(entries))
    r_hi = rates(hi, [0.0] * len(entries), r_lo)
    if not math.fsum(r_lo) >= R > math.fsum(r_hi):
        raise OracleError(
            f"no positive price brackets capacity {R!r}: demand is "
            f"{math.fsum(r_lo)!r} at price {lo!r} and {math.fsum(r_hi)!r} at {hi!r}"
        )

    def fills(price: float) -> bool:
        nonlocal r_lo, r_hi
        r = rates(price, r_hi, r_lo)
        if math.fsum(r) >= R:
            r_lo = r
            return True
        r_hi = r
        return False

    _bisect(lo, hi, fills)
    d_lo, d_hi = math.fsum(r_lo), math.fsum(r_hi)
    theta = (R - d_hi) / (d_lo - d_hi)
    result = {uid: b + theta * (a - b) for (uid, _, _), a, b in zip(entries, r_lo, r_hi)}

    if len(entries) <= 2:
        f = objective(instance, result)
        grid = _grid_best(instance)
        if grid - f > 1e-12 * max(1.0, abs(f)):
            raise OracleError(
                f"grid objective {grid!r} beats the bisection's {f!r}"
            )
    return result


def compare(
    algorithm_rates: Mapping[int, float],
    oracle_rates: Mapping[int, float],
    tol: float,
) -> ComparisonResult:
    """Largest per-user deviation |alg - oracle| / max(oracle, 1) vs tol."""
    if set(algorithm_rates) != set(oracle_rates):
        raise ValueError(
            f"user sets differ: {sorted(algorithm_rates)} vs {sorted(oracle_rates)}"
        )
    worst = 0.0
    for uid, ref in oracle_rates.items():
        dev = abs(algorithm_rates[uid] - ref) / max(ref, 1.0)
        if dev > worst:
            worst = dev
    return ComparisonResult(max_deviation=worst, passed=worst <= tol)
