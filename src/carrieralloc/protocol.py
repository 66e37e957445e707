"""Two-phase orchestration of the multi-carrier allocation protocol.

Phase 1: every carrier solves price discovery over its coverage set (zero
offsets) and advertises the resulting shadow price. Phase 2: every user
orders its in-range carriers by advertised price and flags them one at a
time; a carrier runs its allocation solve once all of its covered users
flag it, distributing rates that become offsets for the users' next
carriers. ``ue.order_carriers`` orders the whole price table once, and
every user's order is its coverage in that one order, which holds the
pass's only tie-break between equal prices. Phase 2 is then one pass over
the carriers, in the order that rounds of flags would serve them: by wave
(how many carriers must be served before, along any user's order), then
in the price table's order. Every covered user flags the carrier served,
by construction of that order.

``run`` keeps each user's received rates as a list in pass order. The
user's offset on its next carrier is the ``math.fsum`` of that list, 0.0
before the first rate, and its aggregate is the ``math.fsum`` of all of
them. ``fsum`` is correctly rounded, so the offsets and aggregates, and
with them every output, have the same bits on every Python version.

A carrier solve reads only its capacity, the solver parameters and each
covered user's (id, utility, offset) in listing order, and it is
deterministic, so a solve whose inputs equal an earlier one's is not run
again: its stored result is returned, and no output changes. Within one
``run``, an allocation solve whose offsets are all zero is its own
discovery solve. Across the points of one sweep, a solve equal to one of
the previous point's is reused, such as the discovery of every carrier
whose capacity the sweep does not touch. Separate ``run`` calls share
nothing.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from . import ue
from .enodeb import ConvergenceTrace, DualAscentResult, dual_ascent, offered_price
from .errors import ConvergenceError, ProtocolError
from .model import Scenario, SolverParams, with_capacity

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AllocationReport:
    """Everything the protocol produced, keyed by carrier and user ids.

    ``rates`` and ``offsets`` map carrier id -> (user id -> value) over
    covered pairs only; ``rate()`` fills in the zeros for uncovered pairs.
    """

    offered_prices: dict[int, float]
    allocation_prices: dict[int, float]
    rates: dict[int, dict[int, float]]
    offsets: dict[int, dict[int, float]]
    aggregates: dict[int, float]
    offered_traces: dict[int, ConvergenceTrace]
    allocation_traces: dict[int, ConvergenceTrace]
    processing_order: tuple[int, ...]

    def rate(self, carrier_id: int, user_id: int) -> float:
        return self.rates.get(carrier_id, {}).get(user_id, 0.0)

    def total_allocated(self) -> float:
        return math.fsum(self.aggregates.values())


class _Solves:
    """Carrier solve results by their keys: the current and the previous sweep point.

    A key (see ``_solve_key``) holds the capacity and each covered user's id
    and offset, but neither the users' utilities nor the solver parameters.
    The store is bound to one scenario's ``users`` tuple, in which an id
    names one utility, and to one value of the parameters, so a key holds
    everything a solve reads and a stored result is exactly what the solve
    would return again. A point that brings another ``users`` object, or
    parameters unequal to the store's, starts from an empty store;
    ``with_capacity`` keeps the object, so the points of one sweep share it,
    and equal parameters share results even when each point builds its own.
    A reused result is the same object, not a copy; ``run`` copies the rates
    it reports.

    The store also holds ``utility``, the map from each user id of its
    ``users`` to that user's utility, which every point of those users
    reads: it is formed once, when the store is bound to them.
    """

    def __init__(self) -> None:
        self.users: Union[tuple, None] = None
        self.params: Union[SolverParams, None] = None
        self.utility: dict = {}
        self.current: dict[tuple, DualAscentResult] = {}
        self.previous: dict[tuple, DualAscentResult] = {}

    def next_point(self, users: tuple, params: SolverParams) -> None:
        """Start a point of ``users`` solved with ``params``; results from two
        points back are dropped, and so are the previous point's unless it had
        the same ``users`` and equal ``params``."""
        if users is self.users and (params is self.params or params == self.params):
            self.previous, self.current = self.current, {}
        else:
            if users is not self.users:
                self.utility = {u.id: u.utility for u in users}
            self.users, self.params, self.previous, self.current = users, params, {}, {}

    def find(self, key: tuple) -> Union[DualAscentResult, None]:
        """The result stored under ``key`` at this point or the previous one."""
        res = self.current.get(key)
        if res is None:
            res = self.previous.get(key)
            if res is not None:
                self.current[key] = res
        return res

    def add(self, key: tuple, res: DualAscentResult) -> DualAscentResult:
        self.current[key] = res
        return res


# The store that the sweep loop opens for its points; None outside a sweep.
_sweep_solves: ContextVar[Union[_Solves, None]] = ContextVar(
    "carrieralloc_sweep_solves", default=None
)


@contextmanager
def _reuse_between_points() -> Iterator[None]:
    """Scope of one sweep: each ``run`` inside it is one point, and may reuse
    the previous point's solves. The store closes with the scope."""
    token = _sweep_solves.set(_Solves())
    try:
        yield
    finally:
        _sweep_solves.reset(token)


def _solve_key(
    capacity: float, user_ids: tuple[int, ...], offsets: tuple[float, ...]
) -> tuple:
    """What a carrier solve reads, less the utilities and the parameters;
    within one ``_Solves`` store, equal keys give equal results.

    The covered users' ids and their float offsets, in listing order, stand
    for the pairs (id, offset). The key holds only floats and ints, which
    hash in C. Utilities are left out: they are the costly part to hash and
    compare, and within the one ``users`` tuple that a ``_Solves`` is bound
    to, an id names one utility. So are the ``SolverParams``, whose
    generated ``__hash__`` is Python code that every lookup would run:
    the store is bound to one value of them.
    """
    return (float(capacity), user_ids, offsets)


def _discover_prices(
    scenario: Scenario, utility: dict, params: SolverParams, solves: _Solves,
    debug: bool,
) -> dict[int, DualAscentResult]:
    results = {}
    for carrier in scenario.carriers:
        covered = scenario.covered_users(carrier.id)
        key = _solve_key(carrier.capacity, covered, (0.0,) * len(covered))
        res = solves.find(key)
        if res is None:
            users = [(uid, utility[uid]) for uid in covered]
            res = solves.add(key, offered_price(users, carrier.capacity, params))
        if not res.converged:
            raise ConvergenceError(carrier.id, "price discovery", res.iterations)
        if debug:
            log.debug(
                "carrier %d: offered price %.6g after %d probes",
                carrier.id, res.shadow_price, res.iterations,
            )
        results[carrier.id] = res
    return results


def run(scenario: Scenario, params: Union[SolverParams, None] = None) -> AllocationReport:
    """Execute both protocol phases and assemble the full report.

    Each distinct carrier problem is solved once: an allocation solve equal
    to a discovery solve reuses it, and inside a sweep a solve equal to one
    of the previous point's reuses that. The report is the same as with
    every solve run afresh; separate calls share nothing.
    """
    if params is None:
        params = SolverParams()
    solves = _sweep_solves.get()
    if solves is None:
        solves = _Solves()
    solves.next_point(scenario.users, params)
    utility = solves.utility
    # once per run, not a log.debug call per solve
    debug = log.isEnabledFor(logging.DEBUG)

    discovery = _discover_prices(scenario, utility, params, solves, debug)
    offered = {cid: res.shadow_price for cid, res in discovery.items()}

    # One walk over the price table's order gives every carrier its wave:
    # every user's order is its coverage as met along the walk, and a
    # carrier can be served once each covered user has its rate from the
    # carrier before it in that user's order. So its wave is one more than
    # the latest wave among those carriers, or 0 when there is none.
    covered_users = scenario.covered_users
    wave: dict[int, int] = {}
    level = dict.fromkeys(utility, -1)  # the wave of each user's latest carrier
    for cid in ue.order_carriers(offered):
        users = covered_users(cid)
        wave[cid] = w = 1 + max([level[uid] for uid in users])
        for uid in users:
            level[uid] = w
    # The sort is stable, so carriers of one wave keep the price table's order.
    processing_order = tuple(sorted(wave, key=wave.__getitem__))

    # Each user's rates in pass order, and their sum (see the module
    # docstring): the offset on its next carrier, and at the end its
    # aggregate.
    received: dict[int, list[float]] = {uid: [] for uid in utility}
    total = dict.fromkeys(utility, 0.0)
    fsum = math.fsum
    carrier = scenario.carrier
    # the report's per-carrier tables, filled in processing order
    allocation_prices: dict[int, float] = {}
    allocated: dict[int, dict[int, float]] = {}
    offsets_used: dict[int, dict[int, float]] = {}
    allocation_traces: dict[int, ConvergenceTrace] = {}
    for cid in processing_order:
        users = covered_users(cid)
        offsets = tuple([total[uid] for uid in users])
        capacity = carrier(cid).capacity
        key = _solve_key(capacity, users, offsets)
        res = solves.find(key)
        if res is None:
            entries = [(uid, utility[uid], c) for uid, c in zip(users, offsets)]
            res = solves.add(key, dual_ascent(entries, capacity, params))
        if not res.converged:
            raise ConvergenceError(cid, "allocation", res.iterations)
        if debug:
            log.debug(
                "carrier %d: allocated at price %.6g after %d probes",
                cid, res.shadow_price, res.iterations,
            )
        rates = res.rates
        allocation_prices[cid] = res.shadow_price
        allocated[cid] = dict(rates)
        offsets_used[cid] = dict(zip(users, offsets))
        allocation_traces[cid] = res.trace
        # the rates are keyed by the covered users, in their order
        for uid, r in rates.items():
            got = received[uid]
            got.append(r)
            total[uid] = fsum(got)

    # made without the frozen __init__, as ``with_capacity`` makes its
    # copies: the instance dict is filled in one update, not one
    # ``object.__setattr__`` a field
    report = object.__new__(AllocationReport)
    report.__dict__.update(
        offered_prices=offered,
        allocation_prices=allocation_prices,
        rates=allocated,
        offsets=offsets_used,
        aggregates=total,
        offered_traces={cid: res.trace for cid, res in discovery.items()},
        allocation_traces=allocation_traces,
        processing_order=processing_order,
    )
    return report


def sweep(
    scenario: Scenario,
    carrier_id: int,
    capacities: Iterable[float],
    params: Union[SolverParams, None] = None,
) -> list[tuple[float, AllocationReport]]:
    """Rerun the protocol for each capacity substituted into one carrier.

    Each point may reuse the previous point's solves where their inputs are
    equal, such as the discovery solves of the other carriers; every report
    equals ``run`` on that point alone. A capacity that is not a finite
    number > 0, a bool or an int beyond the float range among them, raises
    ScenarioError from ``with_capacity`` when its point comes up.
    """
    out = []
    with _reuse_between_points():
        for cap in capacities:
            try:
                report = run(with_capacity(scenario, carrier_id, cap), params)
            except ProtocolError as e:
                raise ProtocolError(
                    f"sweep point capacity {cap} for carrier {carrier_id}: {e}"
                ) from e
            out.append((float(cap), report))
    return out
