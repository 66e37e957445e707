"""Correctness checks run on every pass, and the oracle-free quality metric.

The checks state properties any correct allocation has; they never compare
against a frozen copy of today's rates, which fixes to the solver may
legitimately change.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from pathlib import Path

CAPACITY_REL_TOL = 1e-9
AGGREGATE_REL_TOL = 1e-12


class Capture:
    """Records every ``protocol.run`` call of a pass: (scenario, params, report).

    It wraps the module attribute the CLI and the benchmark both call
    through, so reports produced inside the CLI can be checked too.
    """

    def __init__(self, protocol):
        self.calls: list[tuple] = []
        self._protocol = protocol
        self._original = protocol.run

        def run(scenario, params=None):
            report = self._original(scenario, params)
            self.calls.append((scenario, params, report))
            return report

        protocol.run = run

    def unpatch(self) -> None:
        self._protocol.run = self._original


def covered_users(scenario) -> dict[int, list[int]]:
    """Carrier id -> ids of the users covering it, in listing order."""
    out = {c.id: [] for c in scenario.carriers}
    for u in scenario.users:
        for cid in u.coverage:
            out[cid].append(u.id)
    return out


def check_report(scenario, report) -> list[str]:
    """Problems with one allocation report; empty when it is consistent."""
    problems = []
    carrier_ids = sorted(c.id for c in scenario.carriers)
    order = list(report.processing_order)
    if sorted(order) != carrier_ids:
        problems.append(f"processing_order {order} does not list each carrier once")
    covered = covered_users(scenario)
    for c in scenario.carriers:
        rates = report.rates.get(c.id)
        if rates is None:
            problems.append(f"carrier {c.id}: no rates")
            continue
        if sorted(rates) != sorted(covered[c.id]):
            problems.append(f"carrier {c.id}: rates for users {sorted(rates)}, "
                            f"covers {sorted(covered[c.id])}")
        for uid, r in rates.items():
            if not (math.isfinite(r) and r >= 0.0):
                problems.append(f"carrier {c.id}, user {uid}: rate {r!r} is not >= 0")
        gap = abs(sum(rates.values()) - c.capacity)
        if not gap <= CAPACITY_REL_TOL * c.capacity:
            problems.append(f"carrier {c.id}: rates miss capacity {c.capacity!r} by {gap!r}")
    received = defaultdict(list)
    for cid in dict.fromkeys(order):
        for uid, r in report.rates.get(cid, {}).items():
            received[uid].append(r)
    for u in scenario.users:
        agg = report.aggregates.get(u.id)
        expected = sum(received[u.id])
        if agg is None or not abs(agg - expected) <= AGGREGATE_REL_TOL * max(1.0, abs(expected)):
            problems.append(f"user {u.id}: aggregate {agg!r} is not the sum "
                            f"{expected!r} of its rates")
    return problems


def rate_residual_max(pkg, scenario, params, report) -> float:
    """max over covered pairs of |r_j - net_benefit_maximizer(u_j, p_alloc, c_j, r_cap)|.

    r_cap is the one the solver used for that carrier. A rate the allocation
    price does not support, as when the clamp froze the bids before they
    settled, shows here in rate units.
    """
    params = params or pkg.SolverParams()
    covered = covered_users(scenario)
    utilities = {u.id: u.utility for u in scenario.users}
    worst = 0.0
    for c in scenario.carriers:
        offsets = report.offsets[c.id]
        entries = [(uid, utilities[uid], offsets[uid]) for uid in covered[c.id]]
        r_cap = pkg.rate_cap_for(entries, c.capacity, params)
        price = report.allocation_prices[c.id]
        for uid, u, offset in entries:
            best = pkg.net_benefit_maximizer(
                u, price, offset, r_cap, eps_r=params.eps_r, tol_r=params.tol_r,
                max_iters=params.bisect_max_iters)
            worst = max(worst, abs(report.rates[c.id][uid] - best))
    return worst


def digest_dir(path: Path) -> dict[str, tuple[int, str]]:
    """File name -> (size, sha256) for every file the CLI wrote under ``path``."""
    return {
        str(f.relative_to(path)): (f.stat().st_size, hashlib.sha256(f.read_bytes()).hexdigest())
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }
