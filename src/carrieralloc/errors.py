"""Exception types shared across the package."""

from __future__ import annotations


class ScenarioError(ValueError):
    """Invalid scenario document or inconsistent scenario data."""


class ProtocolError(RuntimeError):
    """Violation of the allocation protocol's message ordering."""


class ConvergenceError(ProtocolError):
    """A carrier's solve certified no clearing price within the probe cap.

    Also raised for a capacity that no positive normal price clears.
    """

    def __init__(self, carrier_id: int, phase: str, iterations: int):
        self.carrier_id = carrier_id
        self.phase = phase
        self.iterations = iterations
        super().__init__(
            f"carrier {carrier_id}: {phase} solve did not converge "
            f"after {iterations} price probes"
        )


class OracleError(RuntimeError):
    """The centralized reference solver failed to meet its tolerance."""
