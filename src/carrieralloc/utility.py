"""Normalized utility families and their log-marginal transforms.

Two families model user applications: a sigmoidal curve for real-time
traffic (steepness ``a``, inflection at rate ``b``) and a logarithmic curve
for delay-tolerant traffic (slope ``k``, full utilization at ``r_max``).
Both are normalized so U(0) = 0 and the top of the scale is 1 (reached
asymptotically by the sigmoid, at r_max by the log curve).

The allocation solvers never consume U directly. They work with the
log-marginal U'(r)/U(r), which is strictly decreasing on (0, inf), and with
its inverse: for a posted price p, the rate maximizing
``log U(r + c) - p*r`` is where the log-marginal crosses p. Both families
invert in closed form: the sigmoid's crossing solves a quadratic in the
sigmoid value, and the log curve's is a Lambert-W value, refined by a few
Newton steps to float64 resolution. ``_kernels_py`` does the numeric work,
on each utility's family code and two parameters.

Each utility forms its kernel row once, at construction: its family code
and its two parameters as floats, followed by the sigmoid's constants
(d, a*d, 1 - d) as ``_kernels_py.response_constants`` gives them (zeros for
the log family). A sigmoid also forms its plateau (float(a), a*sqrt(d)):
the price a at which its response is log-singular, and the width of the
core around a within which the response levels off. The carrier solve
reads both for every user it covers, so it forms none of them per solve,
and the curve functions below read the row too. So an int parameter gives
the bits of its float twin everywhere, and ints whose product lies beyond
the float range raise no OverflowError. The row and the plateau are plain
attributes rather than fields: ==, hash, repr and ``dataclasses.fields``
see the parameters alone, a pickle or copy holds only the parameters and
rebuilds the row from them, and ``dataclasses.replace`` forms a new one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import _kernels_py as kernels

# Rate floor: log U diverges at r = 0, so every solver query stays at or
# above this. Well below any rate scale used by the allocation protocol.
EPS_RATE = 1e-9
# Rate tolerance of the carrier solve: it converges once no user's rate
# moves by more than this across its final price bracket.
TOL_RATE = 1e-9
# SolverParams.bisect_max_iters and the default of net_benefit_maximizer's
# max_iters; the closed-form response reads neither.
BISECT_MAX_ITERS = 200


def _is_number(v) -> bool:
    """A finite int or float; bools are not numbers here.

    Compared against the largest float rather than passed to ``math.isfinite``,
    which raises OverflowError on an int beyond the float range; the
    comparison is exact for ints and false for NaN.
    """
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and -sys.float_info.max <= v <= sys.float_info.max
    )


def _is_rate(v) -> bool:
    """A float, or an int within the float range; bools are not rates here.

    Unlike ``_is_number``, an infinite or nan float passes: the curves take
    their limits at an infinite rate. An int beyond the float range would
    raise OverflowError in the kernels' float arithmetic instead.
    """
    return isinstance(v, float) or _is_number(v)


@dataclass(frozen=True)
class Sigmoidal:
    """Sigmoid utility c*(1/(1+e^(-a(r-b))) - d), normalized to [0, 1).

    The normalizers c and d are derived from a and b so that U(0) = 0 and
    U -> 1 as r -> inf; for large ``a`` the curve approximates a step at
    rate ``b``, which is the inflection point.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (_is_number(self.a) and self.a > 0):
            raise ValueError(f"sigmoidal steepness a must be > 0, got {self.a!r}")
        if not (_is_number(self.b) and self.b > 0):
            raise ValueError(f"sigmoidal inflection b must be > 0, got {self.b!r}")
        a, b = float(self.a), float(self.b)
        d, ad, omd = kernels.response_constants(kernels.SIGMOIDAL, a, b)
        object.__setattr__(self, "_row", (kernels.SIGMOIDAL, a, b, d, ad, omd))
        object.__setattr__(self, "_plateau", (a, a * math.sqrt(d)))

    def __reduce__(self):
        return type(self), (self.a, self.b)


@dataclass(frozen=True)
class Logarithmic:
    """Log utility log(1 + k*r) / log(1 + k*r_max), normalized to [0, 1].

    ``k`` sets the curvature; U(r_max) = 1. Beyond r_max, `evaluate` clamps
    at 1 while the marginal keeps following the closed form (still
    positive and decreasing) so solver queries stay monotone.
    """

    k: float
    r_max: float

    def __post_init__(self):
        if not (_is_number(self.k) and self.k > 0):
            raise ValueError(f"logarithmic slope k must be > 0, got {self.k!r}")
        if not (_is_number(self.r_max) and self.r_max > 0):
            raise ValueError(f"logarithmic r_max must be > 0, got {self.r_max!r}")
        row = (kernels.LOGARITHMIC, float(self.k), float(self.r_max))
        object.__setattr__(self, "_row", row + kernels.response_constants(*row))
        object.__setattr__(self, "_plateau", None)

    def __reduce__(self):
        return type(self), (self.k, self.r_max)


# A types.UnionType, not typing.Union: typing caches its unions process-wide,
# which would keep every re-imported copy of these classes alive.
UtilityFunction = Sigmoidal | Logarithmic


def _kernel_row(u: UtilityFunction) -> tuple:
    """The row ``u`` formed at construction; TypeError for a non-utility."""
    try:
        return u._row
    except AttributeError:
        raise TypeError(f"not a utility function: {u!r}") from None


def evaluate(u: UtilityFunction, r: float) -> float:
    """U(r) in [0, 1] for r >= 0."""
    if not _is_rate(r) or r < 0:
        raise ValueError(f"rate must be >= 0, got {r}")
    fam, q1, q2 = _kernel_row(u)[:3]
    return kernels.eval_utility(fam, q1, q2, r)


def log_utility(u: UtilityFunction, r: float) -> float:
    """log U(r); -inf at r = 0 (log family unclamped past r_max)."""
    if not _is_rate(r) or r < 0:
        raise ValueError(f"rate must be >= 0, got {r}")
    fam, q1, q2 = _kernel_row(u)[:3]
    return kernels.log_utility(fam, q1, q2, r)


def log_marginal(u: UtilityFunction, r: float) -> float:
    """U'(r)/U(r) for r > 0; strictly decreasing with limit +inf at 0."""
    if not _is_rate(r) or r <= 0:
        raise ValueError(f"log_marginal needs r > 0, got {r}")
    fam, q1, q2 = _kernel_row(u)[:3]
    return kernels.log_marginal(fam, q1, q2, r)


def inverse_log_marginal(
    u: UtilityFunction,
    price: float,
    r_cap: float,
    *,
    eps_r: float = EPS_RATE,
) -> float:
    """Rate in [eps_r, r_cap] where the log-marginal crosses ``price``.

    Computed in closed form (see the module docstring); the crossing is
    clipped to the cap when it lies above r_cap (cap binds) and to the floor
    when it lies below eps_r.
    """
    if not (_is_number(price) and price > 0):
        raise ValueError(f"price must be finite and > 0, got {price!r}")
    if not (_is_number(r_cap) and r_cap > 0):
        raise ValueError(f"r_cap must be finite and > 0, got {r_cap!r}")
    return kernels.response(*_kernel_row(u), price, r_cap, eps_r)


def net_benefit_maximizer(
    u: UtilityFunction,
    price: float,
    offset: float,
    r_cap: float,
    *,
    eps_r: float = EPS_RATE,
    tol_r: float = TOL_RATE,
    max_iters: int = BISECT_MAX_ITERS,
) -> float:
    """argmax over r >= 0 of log U(r + offset) - price*r, capped at r_cap.

    The offset shifts the uncapped solution: with x* the inverse
    log-marginal at the price, the result is max(0, x* - offset).
    ``tol_r`` and ``max_iters`` are ignored; they stay only because the
    benchmark's residual check (``perfbench/checks.py``) passes them.
    """
    if not (_is_number(price) and price > 0):
        raise ValueError(f"price must be finite and > 0, got {price!r}")
    if not (_is_number(offset) and offset >= 0):
        raise ValueError(f"offset must be >= 0, got {offset!r}")
    if not (_is_number(r_cap) and r_cap > 0):
        raise ValueError(f"r_cap must be finite and > 0, got {r_cap!r}")
    # floats, so that an int cap that binds still gives a float rate
    r_cap, offset = float(r_cap), float(offset)
    row = _kernel_row(u) + (r_cap + offset, offset, kernels._NO_SKIP)
    return kernels.net_rates((row,), price, eps_r)[0]
