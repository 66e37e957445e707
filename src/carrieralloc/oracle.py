"""Independent centralized solver used to validate the iterative allocator.

Maximizes the summed log-utility of (rate + offset) over the capped simplex
{r >= 0, sum r <= R} by projected gradient ascent with a monotone
backtracking step, plus an exhaustive grid pass for instances of one or two
users. The route is deliberately primal, so it shares no machinery with the
price-based dual ascent it cross-checks; the grid pass touches nothing but
utility evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import OracleError
from .utility import EPS_RATE, UtilityFunction, _is_number, log_marginal, log_utility

Entry = tuple[int, UtilityFunction, float]

MAX_ITERS = 100_000
# Gradients at the optimum never exceed realistic marginal scales; boundary
# evaluations can blow up to ~1/EPS_RATE, which would make fixed steps
# thrash, so clip them.
GRAD_CLIP = 1e6


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


@dataclass(frozen=True)
class ComparisonResult:
    max_deviation: float
    passed: bool


def project_capped_simplex(values: Sequence[float], total: float) -> list[float]:
    """Euclidean projection onto {x >= 0, sum x <= total}."""
    clipped = [v if v > 0.0 else 0.0 for v in values]
    if sum(clipped) <= total:
        return clipped
    # Projection lands on the face sum x = total: classic sort-based rule.
    u = sorted(values, reverse=True)
    css = 0.0
    rho = 0
    theta = 0.0
    for i, ui in enumerate(u, start=1):
        css += ui
        t = (css - total) / i
        if ui - t > 0.0:
            rho = i
            theta = t
    return [max(v - theta, 0.0) for v in values]


def objective(instance: CentralizedInstance, rates: Mapping[int, float]) -> float:
    """Summed log-utility of (rate + offset); -inf off the domain."""
    f = 0.0
    for uid, u, c in instance.entries:
        f += log_utility(u, max(rates[uid] + c, 0.0))
    return f


def _objective_vec(instance: CentralizedInstance, r: Sequence[float]) -> float:
    f = 0.0
    for (uid, u, c), rj in zip(instance.entries, r):
        f += log_utility(u, max(rj + c, 0.0))
    return f


def _gradient(instance: CentralizedInstance, r: Sequence[float]) -> list[float]:
    g = []
    for (uid, u, c), rj in zip(instance.entries, r):
        m = log_marginal(u, max(rj + c, EPS_RATE))
        g.append(m if m < GRAD_CLIP else GRAD_CLIP)
    return g


def _kkt_residual(instance: CentralizedInstance, r: Sequence[float]) -> float:
    """Relative KKT defect: marginal spread among funded users plus unused
    capacity while marginals are still positive."""
    R = instance.capacity
    mu = [
        log_marginal(u, max(rj + c, EPS_RATE))
        for (_, u, c), rj in zip(instance.entries, r)
    ]
    p_hat = max(mu)
    scale = max(p_hat, 1e-9)
    active_gap = 0.0
    for rj, m in zip(r, mu):
        if rj > 1e-9 * max(R, 1.0):
            gap = abs(m - p_hat)
            if gap > active_gap:
                active_gap = gap
    slack = R - sum(r)
    slack_term = (slack / R) * p_hat if slack > 0.0 else 0.0
    return max(active_gap, slack_term) / scale


def _grid_best(instance: CentralizedInstance, points: int = 20001) -> list[float]:
    """Exhaustive search for <= 2 users using only log-utility evaluations.

    The objective is increasing in every coordinate (the log family is
    treated as unclamped), so the optimum saturates the capacity and a
    one-dimensional scan covers the two-user case. A second, finer scan
    around the first winner refines it.
    """
    R = instance.capacity
    if len(instance.entries) == 1:
        return [R]
    assert len(instance.entries) == 2

    def f(r1: float) -> float:
        return _objective_vec(instance, [r1, R - r1])

    lo, hi = 0.0, R
    best_x = 0.0
    for _ in range(2):
        step = (hi - lo) / (points - 1)
        best_x, best_f = lo, f(lo)
        for i in range(1, points):
            x = lo + i * step
            fx = f(x)
            if fx > best_f:
                best_f, best_x = fx, x
        lo = max(0.0, best_x - step)
        hi = min(R, best_x + step)
    return [best_x, R - best_x]


def solve_centralized(
    instance: CentralizedInstance, tolerance: float = 1e-4
) -> dict[int, float]:
    """Rates maximizing the summed log-utility subject to the capacity.

    Projected gradient ascent with backtracking: a candidate step is kept
    only if it improves the objective, halving the step otherwise, which
    keeps iterates off the -inf boundary and settles on the KKT point.
    Raises OracleError if the KKT residual never reaches the tolerance.
    """
    m = len(instance.entries)
    R = instance.capacity
    r = [R / m] * m
    f = _objective_vec(instance, r)
    alpha0 = R / 10.0
    alpha = alpha0
    residual = math.inf

    for _ in range(MAX_ITERS):
        residual = _kkt_residual(instance, r)
        if residual <= tolerance:
            break
        g = _gradient(instance, r)
        cand = project_capped_simplex(
            [rj + alpha * gj for rj, gj in zip(r, g)], R
        )
        fc = _objective_vec(instance, cand)
        if fc > f:
            r, f = cand, fc
            alpha = min(alpha * 1.25, alpha0)
        else:
            alpha *= 0.5
            if alpha < 1e-18 * alpha0:
                break

    if m <= 2:
        grid = _grid_best(instance)
        if _objective_vec(instance, grid) >= f:
            r = grid

    residual = _kkt_residual(instance, r)
    if residual > tolerance:
        raise OracleError(
            f"projected gradient stalled at KKT residual {residual:.3g} "
            f"(tolerance {tolerance:.3g})"
        )
    return {uid: rj for (uid, _, _), rj in zip(instance.entries, r)}


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
