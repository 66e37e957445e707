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
in the price table's order. ``ue.record_rate`` rejects a rate from any
carrier but the one its user flags.

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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

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
        return sum(self.aggregates.values())


class _Solves:
    """Carrier solve results by their inputs: the current and the previous sweep point.

    A key is everything a solve reads (see ``_solve_key``), so a stored
    result is exactly what the solve would return again. A reused result is
    the same object, not a copy; ``run`` copies the rates it reports.
    """

    def __init__(self) -> None:
        self.current: dict[tuple, DualAscentResult] = {}
        self.previous: dict[tuple, DualAscentResult] = {}

    def next_point(self) -> None:
        """Start a new sweep point; results from two points back are dropped."""
        self.previous, self.current = self.current, {}

    def solve(
        self, key: tuple, solver: Callable[..., DualAscentResult], *args
    ) -> DualAscentResult:
        """``solver(*args)``, unless a solve with the same key is stored."""
        res = self.current.get(key)
        if res is None:
            res = self.previous.get(key)
            if res is None:
                res = solver(*args)
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


def _solve_key(entries: Iterable[tuple], capacity: float, params: SolverParams) -> tuple:
    """Everything a carrier solve reads; equal keys give equal results.

    Utilities compare by value. Within one scenario, and across the points
    of a sweep, a user id always carries the same utility object.
    """
    return (
        float(capacity),
        params,
        tuple((uid, u, float(c)) for uid, u, c in entries),
    )


def _discover_prices(
    scenario: Scenario, params: SolverParams, solves: _Solves
) -> dict[int, DualAscentResult]:
    results = {}
    for carrier in scenario.carriers:
        users = [
            (uid, scenario.user(uid).utility)
            for uid in scenario.covered_users(carrier.id)
        ]
        key = _solve_key(
            ((uid, u, 0.0) for uid, u in users), carrier.capacity, params
        )
        res = solves.solve(key, offered_price, users, carrier.capacity, params)
        if not res.converged:
            raise ConvergenceError(carrier.id, "price discovery", res.iterations)
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
    else:
        solves.next_point()

    discovery = _discover_prices(scenario, params, solves)
    offered = {cid: res.shadow_price for cid, res in discovery.items()}

    # One walk over the price table's order gives every user its own order,
    # its coverage as met along the walk, and every carrier its wave. A
    # carrier can be served once each covered user has its rate from the
    # carrier before it in that user's order, so its wave is one more than
    # the latest wave among those carriers, or 0 when there is none.
    orders: dict[int, list[int]] = {u.id: [] for u in scenario.users}
    wave: dict[int, int] = {}
    for cid in ue.order_carriers(offered):
        users = scenario.covered_users(cid)
        wave[cid] = 1 + max(
            (wave[orders[uid][-1]] for uid in users if orders[uid]), default=-1
        )
        for uid in users:
            orders[uid].append(cid)
    states = {
        uid: ue.UeState(user_id=uid, carrier_order=tuple(order))
        for uid, order in orders.items()
    }
    # The sort is stable, so carriers of one wave keep the price table's order.
    processing_order = tuple(sorted(wave, key=wave.__getitem__))

    results: dict[int, DualAscentResult] = {}
    offsets_used: dict[int, dict[int, float]] = {}
    for cid in processing_order:
        users = scenario.covered_users(cid)
        entries = [
            (uid, scenario.user(uid).utility, states[uid].pending_offset)
            for uid in users
        ]
        capacity = scenario.carrier(cid).capacity
        key = _solve_key(entries, capacity, params)
        res = solves.solve(key, dual_ascent, entries, capacity, params)
        if not res.converged:
            raise ConvergenceError(cid, "allocation", res.iterations)
        log.debug(
            "carrier %d: allocated at price %.6g after %d probes",
            cid, res.shadow_price, res.iterations,
        )
        results[cid] = res
        offsets_used[cid] = {uid: c for uid, _, c in entries}
        for uid in users:
            ue.record_rate(states[uid], cid, res.rates[uid])

    return AllocationReport(
        offered_prices=offered,
        allocation_prices={cid: res.shadow_price for cid, res in results.items()},
        rates={cid: dict(res.rates) for cid, res in results.items()},
        offsets=offsets_used,
        aggregates={uid: states[uid].aggregated_rate for uid in scenario.user_ids()},
        offered_traces={cid: res.trace for cid, res in discovery.items()},
        allocation_traces={cid: res.trace for cid, res in results.items()},
        processing_order=processing_order,
    )


def sweep(
    scenario: Scenario,
    carrier_id: int,
    capacities: Iterable[float],
    params: Union[SolverParams, None] = None,
) -> list[tuple[float, AllocationReport]]:
    """Rerun the protocol for each capacity substituted into one carrier.

    Each point may reuse the previous point's solves where their inputs are
    equal, such as the discovery solves of the other carriers; every report
    equals ``run`` on that point alone.
    """
    out = []
    with _reuse_between_points():
        for cap in capacities:
            if not cap > 0:
                raise ValueError(f"capacities must be > 0, got {cap!r}")
            try:
                report = run(with_capacity(scenario, carrier_id, cap), params)
            except ProtocolError as e:
                raise ProtocolError(
                    f"sweep point capacity {cap} for carrier {carrier_id}: {e}"
                ) from e
            out.append((float(cap), report))
    return out
