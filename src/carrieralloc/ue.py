"""User-equipment side of the allocation protocol.

Each user orders its in-range carriers by advertised price, then walks that
order: it flags exactly one carrier at a time, and after receiving a rate
from it moves the flag to the next carrier, carrying the sum of everything
received so far as the offset for that carrier's solve. When the order is
exhausted the user is done and its aggregated rate is the sum of all
received rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ProtocolError


def order_carriers(prices: Mapping[int, float]) -> tuple[int, ...]:
    """Carrier ids sorted by ascending price, ties broken by ascending id."""
    if not prices:
        raise ValueError("no carriers to order")
    for cid, p in prices.items():
        if not math.isfinite(p):
            raise ValueError(f"carrier {cid}: price must be finite, got {p!r}")
    return tuple(sorted(prices, key=lambda cid: (prices[cid], cid)))


@dataclass
class UeState:
    """Protocol-side state of one user: carrier order, cursor, received rates."""

    user_id: int
    carrier_order: tuple[int, ...]
    position: int = 0
    received_rates: dict[int, float] = field(default_factory=dict)
    received_prices: dict[int, float] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.position >= len(self.carrier_order)

    @property
    def next_carrier(self) -> Optional[int]:
        if self.done:
            return None
        return self.carrier_order[self.position]

    @property
    def pending_offset(self) -> float:
        """Offset the currently flagged carrier must apply: all rates so far.

        Always a float: 0.0, not the int 0, before the first rate.
        """
        return float(sum(self.received_rates.values()))

    @property
    def aggregated_rate(self) -> Optional[float]:
        """Total rate across all in-range carriers; None until done."""
        if not self.done:
            return None
        return sum(self.received_rates.values())


def next_flag(state: UeState) -> Optional[int]:
    """Carrier the user currently flags, or None when it is done.

    A flag of zero toward every other in-range carrier is implicit: the
    orchestrator treats a carrier as ready only when every covered user
    flags it.
    """
    return state.next_carrier


def record_rate(state: UeState, carrier_id: int, rate: float, shadow_price: float) -> None:
    """Store an allocated rate from the flagged carrier and advance the cursor."""
    if state.done:
        raise ProtocolError(
            f"user {state.user_id}: received rate from carrier {carrier_id} "
            f"after completing its carrier order"
        )
    expected = state.next_carrier
    if carrier_id != expected:
        raise ProtocolError(
            f"user {state.user_id}: received rate from carrier {carrier_id} "
            f"but currently flags carrier {expected}"
        )
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be >= 0, got {rate!r}")
    state.received_rates[carrier_id] = float(rate)
    state.received_prices[carrier_id] = float(shadow_price)
    state.position += 1
