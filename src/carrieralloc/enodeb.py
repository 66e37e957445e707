"""Carrier-side price solver.

One routine serves both protocol phases. Price discovery runs it with zero
offsets over the carrier's coverage set; the allocation phase runs it with
each user's accumulated lower-priced rates as offsets.

The carrier's shadow price is the price at which its users' demand fills
its capacity: the market-clearing price of Kelly's mechanism, which the
paper's bid/price iteration approaches. A user j answers a posted price p
with its net-benefit-maximizing rate r_j(p) = max(0, x*_j(p) - c_j), where
x*_j inverts the log-marginal and c_j is the offset, so demand
D(p) = sum_j r_j(p) is non-increasing in p. The solve brackets the root of
D(p) = capacity on log p and narrows the bracket until it certifies every
user's rate (see ``dual_ascent``). Each probe costs one closed-form response
per user, so the narrowing spends as few probes as it can, by three rules:

- Anderson-Bjorck regula falsi (Anderson & Bjorck 1973) on log(D/capacity)
  against log p, rather than the Illinois rule's fixed halving of a stale
  end (Dowell & Jarratt 1971);
- a two-probe certificate: a probe that falls next to the end just
  replaced is pushed just far enough past it that, if it lands across the
  root, the two certify every rate;
- plateau prices probed directly: a sigmoid user's response is
  log-singular at p = a, where demand is close to a step, so a clearing
  price near a is bracketed by probing a itself.

Each probe is one trace step, which stores the posted price and the rates;
the bids p * r_j are derived from them on demand rather than stored.

The paper's own iteration stays in the kernels (``kernels.dual_ascent`` and
``fluctuation_clamp``), but the solve no longer calls it. That iteration
stops once the clamped bid change falls below delta, and the clamp's step
l1 * e^(-n/l2) alone falls below delta after l2 * ln(l1/delta) iterations,
wherever the bids are.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from . import _kernels_py as kernels
from .model import SolverParams
from .utility import Logarithmic, Sigmoidal, UtilityFunction, unpack

Entry = tuple[int, UtilityFunction, float]

# First price the root-find probes.
INIT_PRICE = 1.0
# Probes stay within the positive normal floats; a capacity that no such
# price clears is reported as not converged.
_P_MIN = sys.float_info.min
_P_MAX = sys.float_info.max
_T_MIN = math.log(_P_MIN)
_T_MAX = math.log(_P_MAX)


@dataclass(frozen=True)
class TraceStep:
    """One root-find probe: posted price and rates r_j.

    The bids p * r_j are not stored; ``bids`` computes them from the two.
    """

    iteration: int
    price: float
    rates: tuple[float, ...]

    @property
    def bids(self) -> tuple[float, ...]:
        p = self.price
        return tuple(p * r for r in self.rates)


@dataclass(frozen=True)
class ConvergenceTrace:
    user_ids: tuple[int, ...]
    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DualAscentResult:
    shadow_price: float
    rates: dict[int, float]
    trace: ConvergenceTrace
    iterations: int
    converged: bool


def fluctuation_clamp(w_new: float, w_prev: float, n: int, l1: float, l2: float) -> float:
    """Limit the bid update at iteration n to a step of l1 * e^(-n/l2)."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"iteration index must be an integer >= 1, got {n!r}")
    if not (l1 > 0 and l2 > 0):
        raise ValueError(f"decay parameters must be > 0, got l1={l1!r}, l2={l2!r}")
    return kernels.fluctuation_clamp(w_new, w_prev, n, l1, l2)


def rate_cap_for(
    entries: Sequence[Entry], capacity: float, params: SolverParams
) -> float:
    """Response cap: explicit override, or 2 * max(capacity, largest r_max).

    The headroom factor matters: capping demand exactly at the capacity
    would let a single user demand exactly the capacity over a whole range
    of low prices, and the solve could settle anywhere in it. With strict
    headroom the cap can never bind at the clearing price (where rates sum
    to the capacity), while under-priced probes over-demand and so bracket
    the price from below.
    """
    if params.rate_cap is not None:
        return float(params.rate_cap)
    cap = capacity
    for _, u, _ in entries:
        if isinstance(u, Logarithmic) and u.r_max > cap:
            cap = u.r_max
    return 2.0 * cap


class _End(NamedTuple):
    """One probe: the price, every user's best response, and their sum."""

    price: float
    rates: tuple[float, ...]
    demand: float


def _clear_market(
    probe: Callable[[float], _End],
    capacity: float,
    max_probes: int,
    tol: float,
    plateaus: Sequence[float] = (),
) -> tuple[float, tuple[float, ...], bool]:
    """Root-find the price at which demand meets capacity: (price, rates, converged).

    The search first walks log p away from INIT_PRICE with doubling steps
    until the clearing price is bracketed, staying within the positive
    normal floats, then narrows the bracket on g = log(demand/capacity)
    against t = log p. Three rules choose each narrowing probe:

    1. Anderson-Bjorck regula falsi. When the same end is replaced twice in
       a row, the stale end's g is scaled by m = 1 - g_new/g_old (g_old the
       replaced end's), or by 1/2 if m <= 0, before interpolating.
    2. A two-probe certificate. With gap the largest rate difference across
       the bracket, w = (t_hi - t_lo)/2 * tol/gap is roughly how far t can
       move while every rate moves by tol/2. An interpolated probe within
       w of the end just replaced moves to w past that end, toward the
       other end, and at least to the next float: when the root lies that
       close to the end, the probe lands across it and certifies the
       bracket together with that end. A probe that rounded onto the end
       would instead fall back to the midpoint, and every probe after it
       would halve the distance to the root.
    3. Plateau prices. ``plateaus`` is the sorted set of the sigmoid
       users' steepness a, where their responses are log-singular in p and
       demand is close to a step. While any of them lies strictly inside
       the bracket, the next probe is the middle one of those (the lower
       of the two middle ones for an even count).

    The bracket stays valid without assuming that demand is monotone,
    which the computed responses are only to a few ulps: each probe is
    classified by its own demand, so ``lo`` always holds a probe that
    over-demands and ``hi`` one that under-demands, and once both exist
    every probe lies strictly between their prices. The bracket certifies
    the allocation once no user's response differs by more than ``tol``
    between its two ends, or once the ends are adjacent floats and the
    price can be resolved no further.
    """
    lo = hi = None  # probes with demand above / below capacity
    g_lo = g_hi = 0.0  # log(demand / capacity) at lo and hi, Anderson-Bjorck-scaled
    last = None  # the end the previous probe replaced
    t, step = 0.0, 1.0  # log price of the next probe; bracket-search step
    p = INIT_PRICE
    converged = False
    for _ in range(max_probes):
        end = probe(p)
        if end.demand == capacity:
            return end.price, end.rates, True
        g = math.log(end.demand / capacity) if end.demand > 0.0 else -math.inf
        if end.demand > capacity:
            if last == "lo":
                g_hi *= _stale_scale(g, g_lo)
            lo, g_lo = end, g
            last = "lo"
        else:
            if last == "hi":
                g_lo *= _stale_scale(g, g_hi)
            hi, g_hi = end, g
            last = "hi"
        if hi is None or lo is None:
            if t in (_T_MIN, _T_MAX):
                break  # no normal price clears this capacity
            t = t + step if hi is None else t - step
            t = min(max(t, _T_MIN), _T_MAX)
            step *= 2.0
            p = _P_MIN if t == _T_MIN else _P_MAX if t == _T_MAX else math.exp(t)
            continue
        gap = max(a - b for a, b in zip(lo.rates, hi.rates))
        if gap <= tol or math.nextafter(lo.price, math.inf) >= hi.price:
            converged = True
            break
        i = bisect_right(plateaus, lo.price)
        j = bisect_left(plateaus, hi.price)
        if i < j:
            p = plateaus[(i + j - 1) // 2]
            continue
        t_lo, t_hi = math.log(lo.price), math.log(hi.price)
        t_mid = 0.5 * (t_lo + t_hi)
        t = t_hi - g_hi * (t_hi - t_lo) / (g_hi - g_lo) if -math.inf < g_hi < g_lo else t_mid
        w = 0.5 * (t_hi - t_lo) * tol / gap
        p = math.exp(t)
        if last == "lo":
            p = max(p, math.exp(t_lo + w), math.nextafter(lo.price, math.inf))
        else:
            p = min(p, math.exp(t_hi - w), math.nextafter(hi.price, 0.0))
        if not lo.price < p < hi.price:
            p = math.exp(t_mid)
            if not lo.price < p < hi.price:
                p = math.nextafter(lo.price, math.inf)
    if lo is None or hi is None:
        end = hi if lo is None else lo
        return end.price, end.rates, False
    end = lo if lo.demand - capacity <= capacity - hi.demand else hi
    if not converged:
        return end.price, end.rates, False
    if gap <= tol and end.demand > 0.0:
        scale = capacity / end.demand
        return end.price, tuple(r * scale for r in end.rates), True
    # Demand jumps across capacity within the bracket, as on a sigmoid
    # plateau where one ulp of price moves a rate by far more than tol:
    # split the jump so that the rates fill the capacity exactly.
    theta = (capacity - hi.demand) / (lo.demand - hi.demand)
    return end.price, tuple(b + theta * (a - b) for a, b in zip(lo.rates, hi.rates)), True


def _stale_scale(g_new: float, g_old: float) -> float:
    """Anderson-Bjorck factor for the stale end when g_old's end is replaced by g_new."""
    m = 1.0 - g_new / g_old
    return m if m > 0.0 else 0.5  # also when the ratio is undefined (nan)


def dual_ascent(
    entries: Sequence[Entry],
    capacity: float,
    params: Union[SolverParams, None] = None,
) -> DualAscentResult:
    """Shadow price and per-user rates for one carrier's capacity.

    entries: (user id, utility, offset) per covered user, where the offset
    is the rate the user already holds from cheaper carriers (zero during
    price discovery). The price is root-found as the module docstring
    describes, with at most ``params.max_outer_iters`` probes;
    ``iterations`` counts the probes and the trace holds one step each.
    The steepness a of every sigmoid user is passed on as a plateau price:
    the solve probes those that fall inside its bracket before it
    interpolates (see ``_clear_market``).

    ``converged`` is True only when the final price bracket certifies the
    rates: no user's response differs by more than ``params.tol_r`` between
    the bracket's two ends, or the ends are adjacent floats. The rates then
    sum to the capacity exactly. When the probe cap runs out, or no positive
    normal price clears the capacity, the flag is False, not an exception,
    and the result holds the probe whose demand came nearest the capacity.
    """
    if params is None:
        params = SolverParams()
    if not entries:
        raise ValueError("entries must not be empty")
    if not (math.isfinite(capacity) and capacity > 0):
        raise ValueError(f"capacity must be > 0, got {capacity!r}")
    user_ids = [uid for uid, _, _ in entries]
    if len(set(user_ids)) != len(user_ids):
        raise ValueError(f"duplicate user ids in entries: {user_ids}")

    users = []
    for uid, u, c in entries:
        fam, q1, q2 = unpack(u)
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"user {uid}: offset must be >= 0, got {c!r}")
        users.append((fam, q1, q2, float(c)))

    capacity = float(capacity)
    rate_cap = rate_cap_for(entries, capacity, params)
    eps_r, tol_r, bisect_max = params.eps_r, params.tol_r, params.bisect_max_iters
    steps: list[TraceStep] = []

    def probe(p: float) -> _End:
        rates = tuple(
            kernels.net_benefit(fam, q1, q2, p, c, rate_cap, eps_r, tol_r, bisect_max)
            for fam, q1, q2, c in users
        )
        steps.append(TraceStep(len(steps) + 1, p, rates))
        # fsum is correctly rounded, so demand does not depend on the order
        # of the users; the bracket needs no monotonicity (see _clear_market).
        return _End(p, rates, math.fsum(rates))

    plateaus = sorted({float(u.a) for _, u, _ in entries if isinstance(u, Sigmoidal)})
    price, rates, converged = _clear_market(
        probe, capacity, params.max_outer_iters, tol_r, plateaus
    )
    return DualAscentResult(
        shadow_price=price,
        rates=dict(zip(user_ids, rates)),
        trace=ConvergenceTrace(user_ids=tuple(user_ids), steps=tuple(steps)),
        iterations=len(steps),
        converged=converged,
    )


def offered_price(
    users: Sequence[tuple[int, UtilityFunction]],
    capacity: float,
    params: Union[SolverParams, None] = None,
) -> DualAscentResult:
    """Price-discovery solve: ``dual_ascent`` with every offset at zero.

    The resulting shadow price, the price at which the coverage set's
    demand fills the capacity, is what the carrier advertises to the users
    in its coverage area; callers must check the ``converged`` flag.
    """
    entries = [(uid, u, 0.0) for uid, u in users]
    return dual_ascent(entries, capacity, params)
