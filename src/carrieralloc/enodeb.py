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
user's rate (see ``dual_ascent``).

The bracket search starts from the closed form rather than from a fixed
price. A user's equal-share price p_j is its log-marginal at c_j + C/m,
with C the capacity and m the number of users: the price at which it
demands exactly an m-th of the capacity. At the highest p_j no user
demands more than its share, and at the lowest none demands less, so the
clearing price lies between the two. The first probe is the upper median
of the p_j, the second scales it by the cube of the demand ratio it met,
and the doubling walk in log p that follows stops at those two bounds
before it passes them. The bounds hold only up to rounding, since a
sigmoid's marginal is flat in float64 on its plateau, so a bound that does
not bracket the price is walked past.

The rate cap gives a second lower bound. A user's response is capped at
c_j + rate_cap, so below its cap price, its log-marginal at
c_j + rate_cap, it takes the whole cap. The cap is at least twice the
capacity (see ``rate_cap_for``), so at those prices that user alone
over-demands, and the clearing price lies above the cap floor, the
highest cap price. Where the floor lies above the start, the search
starts there and takes it as its lower bound. That happens where half the
users are sigmoids whose equal-share prices lie far below every log
user's: the search no longer walks up through prices at which the log
users demand their caps and demand does not move.

Each probe costs up to one closed-form response per user, so the narrowing
spends as few probes as it can. It probes plateau prices directly: a
sigmoid user's response is log-singular at p = a, where demand is close to
a step, so a clearing price near a is bracketed by probing a itself.
Every other probe comes from one narrowing step (``_narrow``) in
x = ln|p - a|: beside a plateau price a, where the response goes as
ln|p - a| and log p fits it poorly, or else with a = 0, in log p. The step
takes the secant through the last two probes (beside a plateau only) or
Anderson-Bjorck regula falsi (Anderson & Bjorck 1973) rather than the
Illinois rule's fixed halving of a stale end (Dowell & Jarratt 1971);
pushes a probe that falls next to the end just replaced just far enough
past it that, if it lands across the root, the two certify every rate;
and falls back to the midpoint in x.

One probe can also certify the rates alone, and the solve then ends at it
without placing a second probe across the root. Every user's net response
is non-increasing in the price, so at a probe whose demand is
D = C + delta the differences between the users' rates there and at the
clearing price all have delta's sign and sum to delta: each rate lies
within |delta| of the clearing allocation, and so does it once the rates
are scaled by C/D to fill the capacity, since each then moves by a share of
delta against it. A probe with positive demand and |delta| <= ONE_END_TOL
ends the solve so. The computed responses are monotone only to a few ulps,
and ONE_END_TOL = TOL_RATE/10 leaves 9e-10 of room for those under the
TOL_RATE that a bracket certifies. It is a tenth, not TOL_RATE itself, so
that the probe it stops at is nearly always the bracket end that the solve
would have returned after its next probe, bit for bit on every reference
scenario of the tests: at TOL_RATE itself, the offered prices of the
paper's section-5 sweep moved by up to 1.2e-10 relative. At a capacity of
ONE_END_TOL or less, any probe with positive demand up to
C + ONE_END_TOL ends the solve; its rates still lie within ONE_END_TOL of
the clearing allocation, a bound then no tighter than the capacity, and its
price may lie far from the clearing price.

The solve copies each user's response constants, which its utility forms
once at construction, into a user table, and each probe is one call of the
kernels' ``net_rates`` over that table, which computes a response for each
user that the price can still move. A user holding an offset c answers
exactly 0 at every price above its zero price, where its response falls
below c. In the allocation phase many users' offsets cover their demand
at most of the prices probed, so once a probe reads a user's rate as 0.0,
the kernel writes its 0.0 without computing the response at every later
probe from ZERO_MARGIN above that price on. The response is monotone in
the price to a few ulps, far less than that margin, so the rates keep the
bits that a response would give, and the skip costs no response of its
own: every row that a solve computes is a row of one of its probes. The
equal-share and cap prices of every user come from one
``kernels.log_marginals`` pass over the table.

Each probe is one trace step, which stores the posted price and the rates;
the bids p * r_j are derived from them on demand rather than stored.
``_clear_market`` makes each probe's kernel call on the user table itself
and works out the probe's demand, g and ln p once. On a carrier of a few
users a probe's bookkeeping costs about as much as its kernel call, and a
solve's fixed work as much as a probe, so the hot path builds each step
with ``tuple.__new__``, without the NamedTuple's Python-level ``__new__``,
and the frozen result and trace from positional arguments.

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
from typing import Mapping, NamedTuple, Sequence, Union

from . import _kernels_py as kernels
from .model import SolverParams
from .utility import EPS_RATE, TOL_RATE, Entry, Logarithmic, UtilityFunction, _is_number

# Probes stay within the positive normal floats; a capacity that no such
# price clears is reported as not converged.
_P_MIN = sys.float_info.min
_P_MAX = sys.float_info.max
_T_MIN = math.log(_P_MIN)
_T_MAX = math.log(_P_MAX)
# Relative distance from a plateau price within which both bracket ends
# must lie for the solve to narrow in ln|p - a| (see _clear_market).
PLATEAU_BAND = 0.01
# Relative margin above a probe's price from which the solve skips the
# response of a user whose rate that probe read as exactly 0.0: far more
# than the few ulps by which a response can rise with the price.
ZERO_MARGIN = 1e-6
# Largest |demand - capacity| at which one probe certifies the solve alone
# (see _clear_market): a tenth of TOL_RATE, so that the probe it stops at is
# the bracket end that the next probe would have left the solve to pick.
ONE_END_TOL = TOL_RATE / 10.0


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


# Slotted: an instance takes a third less memory than one with a __dict__,
# and the solve store and every report hold these.
@dataclass(frozen=True, slots=True)
class ConvergenceTrace:
    user_ids: tuple[int, ...]
    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, slots=True)
class DualAscentResult:
    shadow_price: float
    rates: dict[int, float]
    trace: ConvergenceTrace
    iterations: int
    converged: bool


def rate_cap_for(
    entries: Sequence[Entry], capacity: float, params: Union[SolverParams, None] = None
) -> float:
    """Response cap: 2 * max(capacity, largest r_max among the log utilities).

    The headroom factor matters: capping demand exactly at the capacity
    would let a single user demand exactly the capacity over a whole range
    of low prices, and the solve could settle anywhere in it. With strict
    headroom the cap can never bind at the clearing price (where rates sum
    to the capacity), while under-priced probes over-demand and so bracket
    the price from below. It is also what makes the cap floor a bound:
    below a user's cap price its rate is the cap, more than the capacity,
    so the solve starts no lower than the highest cap price.

    ``params`` is not read; it stays only because the benchmark's residual
    check (``perfbench/checks.py``) passes it.
    """
    cap = capacity
    for _, u, _ in entries:
        if isinstance(u, Logarithmic) and u.r_max > cap:
            cap = u.r_max
    return 2.0 * cap


def _clear_market(
    users: list,
    capacity: float,
    max_probes: int,
    plateaus: Mapping[float, float],
    start: float,
    low: float,
    high: float,
    offset_rows: list,
) -> tuple[float, tuple[float, ...], bool, tuple[TraceStep, ...]]:
    """Root-find the price at which demand meets capacity: (price, rates, converged, steps).

    Each probe posts its price to the user table ``users`` in one
    ``kernels.net_rates`` call, at the rate floor EPS_RATE, and is one step
    of ``steps``. ``offset_rows`` indexes the rows of the users holding
    offsets. When a probe reads such a row's rate as exactly 0.0, the row's
    skip price, its last field, becomes ZERO_MARGIN above the probe's
    price, from which the kernel writes 0.0 without a response; one count
    of the probe's zeros tells whether a row still without a skip price
    read 0.0 and needs one.

    The bracket search stays within the positive normal floats. Its first
    probe is at ``start``. If that probe does not bracket the clearing
    price and its demand D is positive, the second is at
    start * (D/capacity)^3, kept within [``low``, ``high``], the equal-share
    bounds (see ``dual_ascent``). Where the cap floor lies above the
    equal-share start, ``start`` and ``low`` are that floor: no price below
    it clears, since there one user alone demands its cap, which has
    headroom over the capacity. From then on it walks log p with doubling
    steps, away from the side where the price cannot lie. A step that would
    pass ``high`` on the way up, or ``low`` on the way down, probes that
    bound instead; a bound that fails to bracket the price, as on a plateau
    where the marginal is flat in float64, is then walked past.

    Once the price is bracketed, the search narrows the bracket on
    g = log(demand/capacity). When the same end is replaced twice in a row,
    the stale end's g is scaled by m = 1 - g_new/g_old (g_old the replaced
    end's), or by 1/2 if m <= 0: the Anderson-Bjorck rule. Each narrowing
    probe is then chosen in one of two ways:

    - Plateau prices. ``plateaus`` maps each sigmoid user's steepness a,
      where its response is log-singular in p and demand is close to a
      step, to the width of the core around a where that response levels
      off. While any plateau price lies strictly inside the bracket, the
      next probe is the middle one of those (the lower of the two middle
      ones for an even count). A bracket more than 2*PLATEAU_BAND away
      from every plateau price can neither hold one nor take a step beside
      one, so it skips the search for them.
    - One narrowing step, ``_narrow``. When both ends lie within
      PLATEAU_BAND (1%) of a, the nearer of the plateau prices just below
      and just above the bracket, the step is taken in x = ln|p - a|,
      floored at the core, and may take the secant through the last two
      probes. Where it cannot place a probe (both ends in the core), or
      no plateau price is that near, the step is taken in x = ln p,
      without the secant: a = 0. Failing both, the probe is the next
      float above the low end.

    Each probe's demand, g and ln p are formed once, when it is made; the
    ends keep theirs for every narrowing step they take part in.

    The bracket stays valid without assuming that demand is monotone,
    which the computed responses are only to a few ulps: each probe is
    classified by its own demand, so ``lo`` always holds a probe that
    over-demands and ``hi`` one that under-demands, and once both exist
    every probe lies strictly between their prices. The bracket certifies
    the allocation once no user's response differs by more than TOL_RATE
    between its two ends, or once the ends are adjacent floats and the
    price can be resolved no further.

    One probe certifies the allocation alone when its demand is positive
    and within ONE_END_TOL of the capacity: each rate there lies within
    |demand - capacity| of its clearing rate, since demand is non-increasing
    in the price (see the module docstring). The solve then ends at that
    probe, its rates scaled by capacity/demand as a certified bracket end's
    are, and a probe whose demand meets the capacity exactly ends it
    unscaled. A probe with no demand never ends it so: no scaling of its
    rates fills the capacity.
    """
    fsum, log, nextafter, inf, sub = math.fsum, math.log, math.nextafter, math.inf, operator.sub
    net_rates, tol = kernels.net_rates, TOL_RATE
    new_step = tuple.__new__  # a TraceStep without the NamedTuple's Python __new__
    steps: list[TraceStep] = []
    lo = hi = None  # probes with demand above / below capacity
    d_lo = d_hi = 0.0  # their demands
    g_lo = g_hi = 0.0  # log(demand / capacity) at lo and hi, Anderson-Bjorck-scaled
    p_lo = p_hi = x_lo = x_hi = 0.0  # their prices, and the logs of those
    last = None  # the end the previous probe replaced
    end, demand = None, 0.0  # the latest probe and its demand
    plateau_prices = sorted(plateaus)
    # the prices beyond which no bracket meets a plateau price or lies
    # within PLATEAU_BAND of one, kept twice that far out against rounding
    if plateau_prices:
        plateau_low = plateau_prices[0] * (1.0 - 2.0 * PLATEAU_BAND)
        plateau_high = plateau_prices[-1] * (1.0 + 2.0 * PLATEAU_BAND)
    else:
        plateau_low, plateau_high = inf, -inf
    unskipped = offset_rows  # offset rows that every probe still computes
    skipped = 0  # offset rows with a skip price
    p = start
    t, step = math.log(start), 1.0  # log price of the next probe; bracket-search step
    t_low, t_high = math.log(low), math.log(high)
    converged = False
    for k in range(1, max_probes + 1):
        previous, d_previous = end, demand
        rates = net_rates(users, p, EPS_RATE)
        if unskipped and rates.count(0.0) > skipped:
            # an offset row that reads 0.0 here reads 0.0 from ZERO_MARGIN
            # above on: the kernel skips it there
            skip_from = p * (1.0 + ZERO_MARGIN)
            still = []
            for i in unskipped:
                if rates[i] == 0.0:
                    users[i] = users[i][:-1] + (skip_from,)
                else:
                    still.append(i)
            skipped += len(unskipped) - len(still)
            unskipped = still
        end = new_step(TraceStep, (k, p, rates))
        steps.append(end)
        # fsum is correctly rounded, so demand does not depend on the order
        # of the users
        demand = fsum(rates)
        if demand == capacity:
            return p, rates, True, tuple(steps)
        if demand > 0.0 and abs(demand - capacity) <= ONE_END_TOL:
            scale = capacity / demand
            return p, tuple(r * scale for r in rates), True, tuple(steps)
        g = log(demand / capacity) if demand > 0.0 else -inf
        if demand > capacity:
            if last == "lo":
                g_hi *= _stale_scale(g, g_lo)
            lo, d_lo, g_lo, p_lo, x_lo = end, demand, g, p, log(p)
            last = "lo"
        else:
            if last == "hi":
                g_lo *= _stale_scale(g, g_hi)
            hi, d_hi, g_hi, p_hi, x_hi = end, demand, g, p, log(p)
            last = "hi"
        if hi is None or lo is None:
            rising = hi is None  # every probe so far over-demands
            if p == (_P_MAX if rising else _P_MIN):
                break  # no normal price clears this capacity
            if k == 1 and demand > 0.0:
                # the start scaled by the cube of its demand ratio, within
                # the equal-share bounds; a product, since ** would raise
                # OverflowError where the cube is merely inf
                ratio = demand / capacity
                q = p * (ratio * ratio * ratio)
                q = low if q < low else high if q > high else q
                if q != p:
                    p, t = q, math.log(q)
                    continue
            t = t + step if rising else t - step
            step *= 2.0
            if rising and p < high and t >= t_high:
                p, t = high, t_high
            elif not rising and p > low and t <= t_low:
                p, t = low, t_low
            else:
                t = min(max(t, _T_MIN), _T_MAX)
                p = _P_MIN if t == _T_MIN else _P_MAX if t == _T_MAX else math.exp(t)
            continue
        gap = max(map(sub, lo.rates, hi.rates))
        if gap <= tol or nextafter(p_lo, inf) >= p_hi:
            converged = True
            break
        share = tol / gap
        p = None
        if p_lo <= plateau_high and p_hi >= plateau_low:
            i = bisect_right(plateau_prices, p_lo)
            j = bisect_left(plateau_prices, p_hi)
            if i < j:
                p = plateau_prices[(i + j - 1) // 2]
                continue
            # the nearer of the plateau prices just below and just above
            below = plateau_prices[i - 1] if i > 0 else -inf
            above = plateau_prices[j] if j < len(plateau_prices) else inf
            a = below if p_lo - below <= above - p_hi else above
            band = PLATEAU_BAND * a
            if abs(p_lo - a) <= band and abs(p_hi - a) <= band:
                p = _narrow(a, plateaus[a], p_lo, p_hi, 0.0, 0.0, g_lo, g_hi, last,
                            previous.price, d_previous - capacity, demand - capacity,
                            share)
        if p is None:
            p = _narrow(0.0, 0.0, p_lo, p_hi, x_lo, x_hi, g_lo, g_hi, last,
                        None, 0.0, 0.0, share)
        if p is None:
            p = nextafter(p_lo, inf)
    steps = tuple(steps)
    if lo is None or hi is None:
        end = hi if lo is None else lo
        return end.price, end.rates, False, steps
    end, demand = (lo, d_lo) if d_lo - capacity <= capacity - d_hi else (hi, d_hi)
    if not converged:
        return end.price, end.rates, False, steps
    if gap <= tol and demand > 0.0:
        scale = capacity / demand
        return end.price, tuple(r * scale for r in end.rates), True, steps
    # Demand jumps across capacity within the bracket, as on a sigmoid
    # plateau where one ulp of price moves a rate by far more than tol:
    # split the jump so that the rates fill the capacity exactly.
    theta = (capacity - d_hi) / (d_lo - d_hi)
    return end.price, tuple(b + theta * (a - b) for a, b in zip(lo.rates, hi.rates)), True, steps


def _narrow(
    a: float, core: float, p_lo: float, p_hi: float, x_lo: float, x_hi: float,
    g_lo: float, g_hi: float, last: str, p0: Union[float, None], e0: float, e1: float,
    share: float,
) -> Union[float, None]:
    """Next narrowing probe, chosen in x = ln max(side * (p - a), floor).

    The bracket [``p_lo``, ``p_hi``] lies on one side of a (side +1 above,
    -1 below). The floor is the core of width ``core`` around a, and at
    least the next float beyond a. With a = 0 the step is taken in x = ln p,
    and ``x_lo``, ``x_hi`` are the ends' logs, which the caller formed once
    per probe; beside a plateau price the ends' x are formed here, and
    ``x_lo``, ``x_hi`` are not read. Beside a sigmoid's plateau price a, its
    response goes as ln|p - a| down to the core where it levels off, so
    demand is nearly linear in x. The probe is placed by:

    1. The secant on demand - capacity through the end just replaced (e1)
       and ``p0``, the price of the probe before it (e0), if one is given,
       lies on the bracket's side of a, and the secant lands inside the
       bracket; else the regula falsi on the ends' Anderson-Bjorck-scaled
       g_lo, g_hi.
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
    if a == 0.0:
        side, floor = 1.0, 0.0  # p is a normal float, so ln p needs no floor
    else:
        side = 1.0 if p_lo >= a else -1.0
        floor = abs(math.nextafter(a, side * math.inf) - a)
        floor = core if core > floor else floor
        h_lo, h_hi = side * (p_lo - a), side * (p_hi - a)
        x_lo = math.log(h_lo if h_lo > floor else floor)
        x_hi = math.log(h_hi if h_hi > floor else floor)
    if x_lo == x_hi:
        return None  # both ends lie within the core
    # the probe's place from x_lo (0) to x_hi (1)
    u = g_lo / (g_lo - g_hi) if -math.inf < g_hi < g_lo else 0.5
    if p0 is not None and (h0 := side * (p0 - a)) >= 0.0:
        x1 = x_lo if last == "lo" else x_hi
        if e0 != e1:
            x0 = math.log(h0 if h0 > floor else floor)
            secant = (x1 - e1 * (x1 - x0) / (e1 - e0) - x_lo) / (x_hi - x_lo)
            if 0.0 < secant < 1.0:
                u = secant
    w = 0.5 * share
    if last == "lo":
        p = a + side * math.exp(x_lo + (u if u > w else w) * (x_hi - x_lo))
        nearest = math.nextafter(p_lo, math.inf)
        p = p if p > nearest else nearest
    else:
        p = a + side * math.exp(x_lo + (u if u < 1.0 - w else 1.0 - w) * (x_hi - x_lo))
        nearest = math.nextafter(p_hi, 0.0)
        p = p if p < nearest else nearest
    if not p_lo < p < p_hi:
        p = a + side * math.exp(0.5 * (x_lo + x_hi))
    return p if p_lo < p < p_hi else None


def _stale_scale(g_new: float, g_old: float) -> float:
    """Anderson-Bjorck factor for the stale end when g_old's end is replaced by g_new."""
    m = 1.0 - g_new / g_old
    return m if m > 0.0 else 0.5  # also when the ratio is undefined (nan)


def _cap_floor(users: list, cap_prices: list, capacity: float, start: float) -> float:
    """``start`` raised to the cap floor, if the floor lies above it and holds.

    ``cap_prices`` holds each user's cap price, its log-marginal at its
    cap c + rate_cap, in the order of the rows of ``users``. Below a user's
    cap price its response stays at its cap, so its rate is rate_cap, at
    least twice the capacity (see ``rate_cap_for``): no price there clears.
    The cap floor, the highest cap price below the largest float, is kept
    only if the rate of its user there, from one response, confirms more
    than the capacity, since a sigmoid's log-marginal can lose its digits
    (s and d subnormal, or zero) and put the cap price above the user's
    plateau price, where its rate falls to EPS_RATE, or at inf.
    """
    floor = max(cap_prices)
    if floor >= _P_MAX:
        floor = max((q for q in cap_prices if q < _P_MAX), default=0.0)
    if floor > start:
        row = users[cap_prices.index(floor)]
        if kernels.net_rates((row,), floor, EPS_RATE)[0] > capacity:
            return floor
    return start


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
    The search starts from each user's equal-share price, its log-marginal
    at its offset plus capacity/m for m users, sorted so that the start
    does not depend on the order of the users: the first probe is the
    upper median of those below the largest float, and the lowest and
    highest bound the search (see ``_clear_market``). A start below the
    cap floor, the highest of the users' cap prices (log-marginals at
    c_j + rate_cap), is raised to the floor, and so is the lower bound:
    below a user's cap price it demands its whole cap, at least twice the
    capacity (see ``rate_cap_for``), so no price there clears. One
    response confirms the floor (see ``_cap_floor``), the solve's one
    kernel call outside its probes. A floor at or below the start is not
    used; it could only stop a walk down, which rarely gets that far, and
    its confirming response would cost every such solve. The equal-share
    and cap prices come from one ``kernels.log_marginals`` pass over the
    user table.
    The steepness a of every sigmoid user is passed on as a plateau price,
    with the core a*sqrt(d) around it (d the sigmoid's normalizer) within
    which the user's response no longer goes as ln|p - a|: the solve
    probes plateau prices that fall inside its bracket before it
    interpolates, and narrows beside one in ln|p - a| (see
    ``_clear_market``).

    The solve reads each utility's kernel row and plateau, which the
    utility formed once at construction (see ``utility``), so a user costs
    no per-solve work beyond its cap, its offset and its two prices. Each
    probe costs one kernel call, which computes one response per user that
    the probe can still move. A user with a positive offset is skipped, its
    rate set to 0.0, at the probes from ZERO_MARGIN above the first probe
    that read its rate as 0.0 (see ``_clear_market``): its response stays
    below its offset there. The rates are the bits of
    ``kernels.net_benefit`` either way.

    ``converged`` is True only when the probes certify the rates. Either
    one probe's positive demand came within ONE_END_TOL (TOL_RATE/10) of the
    capacity: demand being non-increasing in the price, each of its rates
    then lies within that of the clearing allocation, up to the few ulps by
    which a computed response can rise with the price, and the solve ends
    at that probe. Or the final price bracket certifies them: no user's
    response differs by more than TOL_RATE between the bracket's two ends,
    or the ends are adjacent floats. The rates then sum to the capacity, up
    to the rounding of their scaling. At a capacity of ONE_END_TOL or less
    the first probe with positive demand up to capacity + ONE_END_TOL
    certifies, within a bound no tighter than the capacity itself (see the
    module docstring). When the probe cap runs out, or no positive normal
    price clears the capacity, the flag is False, not an exception, and the
    result holds the probe whose demand came nearest the capacity.
    """
    if params is None:
        params = SolverParams()
    if not entries:
        raise ValueError("entries must not be empty")
    if not (_is_number(capacity) and capacity > 0):
        raise ValueError(f"capacity must be > 0, got {capacity!r}")

    capacity = float(capacity)
    rate_cap = rate_cap_for(entries, capacity)
    # Each user's id, and its table row, formed once for all probes: the
    # utility's kernel row with its cap, offset and the price from which its
    # response is skipped (inf until a probe reads its rate as 0.0). And each
    # sigmoid's plateau price a, with the widest core a*sqrt(d) around it
    # within which a response no longer goes as ln|p - a|.
    user_ids = []
    users = []
    offset_rows = []  # the rows of the users with positive offsets
    plateaus: dict[float, float] = {}
    for uid, u, c in entries:
        user_ids.append(uid)
        try:
            row = u._row
        except AttributeError:
            raise TypeError(f"not a utility function: {u!r}") from None
        # comparisons, not _is_number: no call per user, and no float() of
        # an int beyond the float range, which would raise OverflowError
        if c is True or c is False or not 0.0 <= c <= _P_MAX:
            raise ValueError(f"user {uid}: offset must be >= 0, got {c!r}")
        c = float(c)
        if c > 0.0:
            offset_rows.append(len(users))
        users.append(row + (rate_cap + c, c, math.inf))
        plateau = u._plateau
        if plateau is not None:
            a, core = plateau
            if core >= plateaus.get(a, 0.0):
                plateaus[a] = core
    if len(set(user_ids)) != len(user_ids):
        raise ValueError(f"duplicate user ids in entries: {user_ids}")

    # Every user's equal-share and cap price from one kernel pass: its
    # log-marginal at c + capacity/m and at its cap c + rate_cap
    prices = kernels.log_marginals(users, (capacity / len(users), rate_cap))

    # Sorted, so that the start does not depend on the order of the users.
    # The start and bounds are kept within the positive normal floats by
    # conditional expressions: min and max calls cost more, once per solve.
    share_prices = sorted(prices[0::2])
    finite = bisect_left(share_prices, _P_MAX)
    start = share_prices[finite // 2] if finite else _P_MAX
    start = start if start > _P_MIN else _P_MIN
    low, high = share_prices[0], share_prices[-1]
    low = _P_MIN if low < _P_MIN else _P_MAX if low > _P_MAX else low
    high = _P_MIN if high < _P_MIN else _P_MAX if high > _P_MAX else high
    floor = _cap_floor(users, prices[1::2], capacity, start)
    if floor > start:
        start = low = floor
        high = high if high > floor else floor
    price, rates, converged, steps = _clear_market(
        users, capacity, params.max_outer_iters, plateaus, start, low, high, offset_rows,
    )
    return DualAscentResult(
        price, dict(zip(user_ids, rates)), ConvergenceTrace(tuple(user_ids), steps),
        len(steps), converged,
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
