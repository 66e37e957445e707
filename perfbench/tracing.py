"""Spans around calls into the package's layers, recorded from outside it.

The benchmark wraps the public functions each module calls in the next
layer down, at the names the callers look up at call time, so the package
itself is untouched. Every span adds its duration to its caller's child
time, which gives each layer's self time. Durations are summed per name for
every traced pass; the full span list (id, parent id, name, start, end) is
kept in memory for the first traced pass only and written out at the end.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Solve:
    """One carrier solve as seen from the protocol."""

    phase: str
    seconds: float
    m: int
    iterations: int
    trace_cells: int
    clamp_exhausted: bool
    redundant: bool


class Tracer:
    """Per-layer call counts and times, solve records and spans, in memory."""

    def __init__(self):
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._patches: list[tuple] = []
        self._next_id = 0
        self._seen_solves: set = set()
        self.keep_spans = False
        self.spans: list[tuple] = []
        # name -> [calls, total seconds, self seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.solves: list[Solve] = []
        self.run_seconds: list[float] = []

    def begin_pass(self) -> None:
        """Solves repeat only within one pass; earlier passes do not count."""
        self._seen_solves.clear()

    def wrap(self, name: str, fn, after=None):
        stack = self._stack
        layers = self.layers
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                rec = layers[name]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child
                if self.keep_spans:
                    self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                t0 = clock()
                after(duration, result, *args, **kwargs)
                if stack:  # the hook is tracing overhead, not the caller's work
                    stack[-1][1] += clock() - t0
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget, after))
        else:
            replacement = self.wrap(name, original, after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, pkg) -> None:
        """Wrap every layer boundary of the imported package ``pkg``."""
        cli, protocol, model, ue = pkg.cli, pkg.protocol, pkg.model, pkg.ue
        self.patch(cli, "main", "cli.main")
        self.patch(protocol, "run", "protocol.run",
                   after=lambda s, *_a, **_k: self.run_seconds.append(s))
        self.patch(protocol, "offered_price", "enodeb.offered_price",
                   after=self._solve_hook("discovery", pkg))
        self.patch(protocol, "dual_ascent", "enodeb.dual_ascent",
                   after=self._solve_hook("allocation", pkg))
        self.patch(model, "load_scenario", "model.load_scenario")
        self.patch(model, "with_capacity", "model.with_capacity")
        self.patch(model.Scenario, "user", "model.user")
        self.patch(model.Scenario, "covered_users", "model.covered_users")
        for fn in ("order_carriers", "next_flag", "record_rate"):
            self.patch(ue, fn, f"ue.{fn}")
        for prop in ("pending_offset", "aggregated_rate"):
            self.patch(ue.UeState, prop, f"ue.{prop}")

    def _solve_hook(self, phase: str, pkg):
        default_params = pkg.model.SolverParams()

        def hook(seconds, result, entries, capacity, params=None):
            params = params or default_params
            if phase == "discovery":
                entries = [(uid, u, 0.0) for uid, u in entries]
            key = (tuple(entries), float(capacity), params)
            redundant = key in self._seen_solves
            self._seen_solves.add(key)
            exhausted_at = params.l2 * math.log(params.l1 / params.delta)
            self.solves.append(Solve(
                phase=phase,
                seconds=seconds,
                m=len(entries),
                iterations=result.iterations,
                trace_cells=len(result.trace.steps) * len(result.trace.user_ids),
                clamp_exhausted=result.iterations >= exhausted_at,
                redundant=redundant,
            ))

        return hook
