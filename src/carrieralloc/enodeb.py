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
user's rate (see ``dual_ascent``). Each probe costs up to one closed-form
response per user, so the narrowing spends as few probes as it can. It
probes plateau prices directly: a sigmoid user's response is log-singular
at p = a, where demand is close to a step, so a clearing price near a is
bracketed by probing a itself. Every other probe comes from one narrowing
step (``_narrow``) in x = ln|p - a|: beside a plateau price a, where the
response goes as ln|p - a| and log p fits it poorly, or else with a = 0,
in log p. The step takes the secant through the last two probes (beside a
plateau only) or Anderson-Bjorck regula falsi (Anderson & Bjorck 1973)
rather than the Illinois rule's fixed halving of a stale end (Dowell &
Jarratt 1971); pushes a probe that falls next to the end just replaced
just far enough past it that, if it lands across the root, the two
certify every rate; and falls back to the midpoint in x.

The solve copies each user's response constants, which its utility forms
once at construction, into a user table, and each probe is one call of the
kernels' ``net_rates`` over that table, which computes a response for each
user that the price can still move. A user holding an offset c answers
exactly 0 at every price above its zero price, where its response falls
below c. In the allocation phase many users' offsets cover their demand
at most of the prices probed, so above a user's zero price the kernel
writes its 0.0 without computing the response. The zero price comes from
the log-marginal at c and is confirmed by one response per solve, so the
rates keep the bits that a response would give (see ``_skip_from``).

Each probe is one trace step, which stores the posted price and the rates;
the bids p * r_j are derived from them on demand rather than stored.

The paper's own clamped bid iteration stays in the kernels
(``kernels.dual_ascent`` and ``kernels.fluctuation_clamp``), but no solve
runs it, and nothing here sets its threshold delta or its clamp l1, l2:
they would change no result.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from . import _kernels_py as kernels
from .model import SolverParams
from .utility import Logarithmic, UtilityFunction, _is_number

Entry = tuple[int, UtilityFunction, float]

# First price the root-find probes.
INIT_PRICE = 1.0
# Probes stay within the positive normal floats; a capacity that no such
# price clears is reported as not converged.
_P_MIN = sys.float_info.min
_P_MAX = sys.float_info.max
_T_MIN = math.log(_P_MIN)
_T_MAX = math.log(_P_MAX)
# Relative distance from a plateau price within which both bracket ends
# must lie for the solve to narrow in ln|p - a| (see _clear_market).
PLATEAU_BAND = 0.01
# Relative margin of a user's zero price above its log-marginal at its
# offset, and again of the prices at which its probe is skipped above that
# (see _skip_from).
ZERO_MARGIN = 1e-6


class TraceStep(NamedTuple):
    """One root-find probe: posted price and rates r_j.

    The bids p * r_j are not stored; ``bids`` computes them from the two.
    A probe allocates this one record, which the solve also classifies.
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


def _clear_market(
    probe: Callable[[float], TraceStep],
    capacity: float,
    max_probes: int,
    tol: float,
    plateaus: Mapping[float, float],
) -> tuple[float, tuple[float, ...], bool]:
    """Root-find the price at which demand meets capacity: (price, rates, converged).

    The search first walks log p away from INIT_PRICE with doubling steps
    until the clearing price is bracketed, staying within the positive
    normal floats, then narrows the bracket on g = log(demand/capacity).
    When the same end is replaced twice in a row, the stale end's g is
    scaled by m = 1 - g_new/g_old (g_old the replaced end's), or by 1/2 if
    m <= 0: the Anderson-Bjorck rule. Each narrowing probe is then chosen
    in one of two ways:

    - Plateau prices. ``plateaus`` maps each sigmoid user's steepness a,
      where its response is log-singular in p and demand is close to a
      step, to the width of the core around a where that response levels
      off. While any plateau price lies strictly inside the bracket, the
      next probe is the middle one of those (the lower of the two middle
      ones for an even count).
    - One narrowing step, ``_narrow``. When both ends lie within
      PLATEAU_BAND (1%) of a, the nearer of the plateau prices just below
      and just above the bracket, the step is taken in x = ln|p - a|,
      floored at the core, and may take the secant through the last two
      probes. Where it cannot place a probe (both ends in the core), or
      no plateau price is that near, the step is taken in x = ln p,
      without the secant: a = 0. Failing both, the probe is the next
      float above the low end.

    The bracket stays valid without assuming that demand is monotone,
    which the computed responses are only to a few ulps: each probe is
    classified by its own demand, so ``lo`` always holds a probe that
    over-demands and ``hi`` one that under-demands, and once both exist
    every probe lies strictly between their prices. The bracket certifies
    the allocation once no user's response differs by more than ``tol``
    between its two ends, or once the ends are adjacent floats and the
    price can be resolved no further.
    """
    fsum = math.fsum
    lo = hi = None  # probes with demand above / below capacity
    d_lo = d_hi = 0.0  # their demands
    g_lo = g_hi = 0.0  # log(demand / capacity) at lo and hi, Anderson-Bjorck-scaled
    last = None  # the end the previous probe replaced
    end, demand = None, 0.0  # the latest probe and its demand
    plateau_prices = sorted(plateaus)
    t, step = 0.0, 1.0  # log price of the next probe; bracket-search step
    p = INIT_PRICE
    converged = False
    for _ in range(max_probes):
        previous, d_previous = end, demand
        end = probe(p)
        # fsum is correctly rounded, so demand does not depend on the order
        # of the users
        demand = fsum(end.rates)
        if demand == capacity:
            return end.price, end.rates, True
        g = math.log(demand / capacity) if demand > 0.0 else -math.inf
        if demand > capacity:
            if last == "lo":
                g_hi *= _stale_scale(g, g_lo)
            lo, d_lo, g_lo = end, demand, g
            last = "lo"
        else:
            if last == "hi":
                g_lo *= _stale_scale(g, g_hi)
            hi, d_hi, g_hi = end, demand, g
            last = "hi"
        if hi is None or lo is None:
            if t in (_T_MIN, _T_MAX):
                break  # no normal price clears this capacity
            t = t + step if hi is None else t - step
            t = min(max(t, _T_MIN), _T_MAX)
            step *= 2.0
            p = _P_MIN if t == _T_MIN else _P_MAX if t == _T_MAX else math.exp(t)
            continue
        gap = max(map(operator.sub, lo.rates, hi.rates))
        if gap <= tol or math.nextafter(lo.price, math.inf) >= hi.price:
            converged = True
            break
        i = bisect_right(plateau_prices, lo.price)
        j = bisect_left(plateau_prices, hi.price)
        if i < j:
            p = plateau_prices[(i + j - 1) // 2]
            continue
        share = tol / gap
        p = None
        if plateau_prices:
            # the nearer of the plateau prices just below and just above
            below = plateau_prices[i - 1] if i > 0 else -math.inf
            above = plateau_prices[j] if j < len(plateau_prices) else math.inf
            a = below if lo.price - below <= above - hi.price else above
            band = PLATEAU_BAND * a
            if abs(lo.price - a) <= band and abs(hi.price - a) <= band:
                p = _narrow(a, plateaus[a], lo, hi, g_lo, g_hi, last, previous,
                            d_previous - capacity, demand - capacity, share)
        if p is None:
            p = _narrow(0.0, 0.0, lo, hi, g_lo, g_hi, last, None, 0.0, 0.0, share)
        if p is None:
            p = math.nextafter(lo.price, math.inf)
    if lo is None or hi is None:
        end = hi if lo is None else lo
        return end.price, end.rates, False
    end, demand = (lo, d_lo) if d_lo - capacity <= capacity - d_hi else (hi, d_hi)
    if not converged:
        return end.price, end.rates, False
    if gap <= tol and demand > 0.0:
        scale = capacity / demand
        return end.price, tuple(r * scale for r in end.rates), True
    # Demand jumps across capacity within the bracket, as on a sigmoid
    # plateau where one ulp of price moves a rate by far more than tol:
    # split the jump so that the rates fill the capacity exactly.
    theta = (capacity - d_hi) / (d_lo - d_hi)
    return end.price, tuple(b + theta * (a - b) for a, b in zip(lo.rates, hi.rates)), True


def _narrow(
    a: float, core: float, lo: TraceStep, hi: TraceStep, g_lo: float, g_hi: float,
    last: str, previous: Union[TraceStep, None], e0: float, e1: float, share: float,
) -> Union[float, None]:
    """Next narrowing probe, chosen in x = ln max(side * (p - a), floor).

    The bracket lies on one side of a (side +1 above, -1 below). The floor
    is the core of width ``core`` around a, and at least the next float
    beyond a; a = 0 with core 0 gives x = ln p. Beside a sigmoid's plateau
    price a, its response goes as ln|p - a| down to the core where it
    levels off, so demand is nearly linear in x. The probe is placed by:

    1. The secant on demand - capacity through the end just replaced (e1)
       and ``previous``, the probe before it (e0), if one is given, lies on
       the bracket's side of a, and the secant lands inside the bracket;
       else the regula falsi on the ends' Anderson-Bjorck-scaled g_lo, g_hi.
    2. A two-probe certificate. With gap the largest rate difference across
       the bracket and ``share`` = tol/gap, a share w = share/2 of the
       bracket's width in x is roughly how far x can move while every rate
       moves by tol/2. A probe within w of the end just replaced moves to
       w past that end, toward the other end, and at least to the next
       float: when the root lies that close to the end, the probe lands
       across it and certifies the bracket together with that end. A probe
       that rounded onto the end would instead fall back to the midpoint,
       and every probe after it would halve the distance to the root.
    3. The midpoint in x, when the probe still misses the inside.

    None when x cannot place a probe strictly inside the bracket.
    """
    # conditional expressions, not max and min: those builtin calls would
    # cost more than the rest of a step, which runs once per probe
    side = 1.0 if lo.price >= a else -1.0
    floor = abs(math.nextafter(a, side * math.inf) - a)
    floor = core if core > floor else floor
    h_lo, h_hi = side * (lo.price - a), side * (hi.price - a)
    x_lo = math.log(h_lo if h_lo > floor else floor)
    x_hi = math.log(h_hi if h_hi > floor else floor)
    if x_lo == x_hi:
        return None  # both ends lie within the core
    # the probe's place from x_lo (0) to x_hi (1)
    u = g_lo / (g_lo - g_hi) if -math.inf < g_hi < g_lo else 0.5
    if previous is not None and (h0 := side * (previous.price - a)) >= 0.0:
        x1 = x_lo if last == "lo" else x_hi
        if e0 != e1:
            x0 = math.log(h0 if h0 > floor else floor)
            secant = (x1 - e1 * (x1 - x0) / (e1 - e0) - x_lo) / (x_hi - x_lo)
            if 0.0 < secant < 1.0:
                u = secant
    w = 0.5 * share
    if last == "lo":
        p = a + side * math.exp(x_lo + (u if u > w else w) * (x_hi - x_lo))
        nearest = math.nextafter(lo.price, math.inf)
        p = p if p > nearest else nearest
    else:
        p = a + side * math.exp(x_lo + (u if u < 1.0 - w else 1.0 - w) * (x_hi - x_lo))
        nearest = math.nextafter(hi.price, 0.0)
        p = p if p < nearest else nearest
    if not lo.price < p < hi.price:
        p = a + side * math.exp(0.5 * (x_lo + x_hi))
    return p if lo.price < p < hi.price else None


def _stale_scale(g_new: float, g_old: float) -> float:
    """Anderson-Bjorck factor for the stale end when g_old's end is replaced by g_new."""
    m = 1.0 - g_new / g_old
    return m if m > 0.0 else 0.5  # also when the ratio is undefined (nan)


def _skip_from(
    fam: int, q1: float, q2: float, d: float, ad: float, omd: float,
    x_cap: float, c: float, eps_r: float,
) -> float:
    """Lowest price at which a probe may skip this user's response: inf if none.

    A user whose offset c is positive has a zero price z, its log-marginal
    at c raised by ZERO_MARGIN: above z the user's response x* falls below
    c, and its rate max(0, x* - c) is exactly 0.0. The zero price is kept
    only if the response at z confirms a rate of 0.0, since ``log_marginal``
    can lose most of its digits (sigmoids with a*b from about 708 to 745)
    and put z where the rate is still positive. The response is monotone
    in the price only to a few ulps, so the skip starts ZERO_MARGIN above
    z, where the response has fallen by far more than that.

    The solve calls this only for c > 0. At c = 0 the log-marginal, and so
    z, is inf, and the result is inf too.
    """
    z = kernels.log_marginal(fam, q1, q2, c) * (1.0 + ZERO_MARGIN)
    if 0.0 < z < math.inf and (
        kernels.response(fam, q1, q2, d, ad, omd, z, x_cap, eps_r) <= c
    ):
        return z * (1.0 + ZERO_MARGIN)
    return math.inf


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
    The steepness a of every sigmoid user is passed on as a plateau price,
    with the core a*sqrt(d) around it (d the sigmoid's normalizer) within
    which the user's response no longer goes as ln|p - a|: the solve
    probes plateau prices that fall inside its bracket before it
    interpolates, and narrows beside one in ln|p - a| (see
    ``_clear_market``).

    The solve reads each utility's kernel row and plateau, which the
    utility formed once at construction (see ``utility``), so a user costs
    no per-solve work beyond its cap, its offset and, for a positive
    offset, its zero price. Each probe costs one kernel call, which
    computes one response per user that the probe can still move.
    A user with a positive offset is skipped, its rate set to 0.0, at
    probes above its zero price, past which its response stays below its
    offset (see ``_skip_from``); finding the zero price costs one response
    per such user and solve. The rates are the bits of
    ``kernels.net_benefit`` either way.

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
    if not (_is_number(capacity) and capacity > 0):
        raise ValueError(f"capacity must be > 0, got {capacity!r}")
    user_ids = [uid for uid, _, _ in entries]
    if len(set(user_ids)) != len(user_ids):
        raise ValueError(f"duplicate user ids in entries: {user_ids}")

    capacity = float(capacity)
    rate_cap = rate_cap_for(entries, capacity, params)
    # Each user's table row, formed once for all probes: the utility's
    # kernel row with its cap, offset and the price from which its response
    # is skipped. And each sigmoid's plateau price a, with the widest core
    # a*sqrt(d) around it within which a response no longer goes as ln|p - a|.
    eps_r, tol_r = params.eps_r, params.tol_r
    users = []
    plateaus: dict[float, float] = {}
    for uid, u, c in entries:
        try:
            row = u._row
        except AttributeError:
            raise TypeError(f"not a utility function: {u!r}") from None
        # comparisons, not _is_number: no call per user, and no float() of
        # an int beyond the float range, which would raise OverflowError
        if c is True or c is False or not 0.0 <= c <= _P_MAX:
            raise ValueError(f"user {uid}: offset must be >= 0, got {c!r}")
        c = float(c)
        x_cap = rate_cap + c
        skip_from = _skip_from(*row, x_cap, c, eps_r) if c > 0.0 else math.inf
        users.append(row + (x_cap, c, skip_from))
        plateau = u._plateau
        if plateau is not None:
            a, core = plateau
            plateaus[a] = max(plateaus.get(a, 0.0), core)

    net_rates = kernels.net_rates
    steps: list[TraceStep] = []

    def probe(p: float) -> TraceStep:
        # the rates kernels.net_benefit gives, from one kernel call over the
        # whole user table
        step = TraceStep(len(steps) + 1, p, net_rates(users, p, eps_r))
        steps.append(step)
        return step

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
