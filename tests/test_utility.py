"""Utility families: closed-form values, invariants, and inverse solves.

Derived expectations are frozen from independent oracles: central finite
differences of log U for the marginals, and exhaustive grid scans of the
net-benefit objective for the argmax operations.
"""

import dataclasses
import gc
import importlib
import math
import struct
import sys
import weakref

import pytest

from carrieralloc import (
    EPS_RATE,
    Logarithmic,
    Sigmoidal,
    dual_ascent,
    evaluate,
    inverse_log_marginal,
    log_marginal,
    log_utility,
    net_benefit_maximizer,
)
from roundtrip import round_trip_bound

ALL_UTILITIES = [
    Sigmoidal(a=5.0, b=10.0),
    Sigmoidal(a=3.0, b=20.0),
    Sigmoidal(a=1.0, b=30.0),
    Logarithmic(k=15.0, r_max=100.0),
    Logarithmic(k=3.0, r_max=100.0),
    Logarithmic(k=0.5, r_max=100.0),
]

UTILITY_IDS = ["sig5_10", "sig3_20", "sig1_30", "log15", "log3", "log05"]


def log_grid(lo_exp: float, hi_exp: float, n: int) -> list[float]:
    return [10.0 ** (lo_exp + (hi_exp - lo_exp) * i / (n - 1)) for i in range(n)]


class TestConstruction:
    @pytest.mark.parametrize("a,b", [(0.0, 10.0), (-1.0, 10.0), (5.0, 0.0),
                                     (5.0, -2.0), (math.inf, 10.0), (math.nan, 10.0)])
    def test_sigmoidal_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            Sigmoidal(a=a, b=b)

    @pytest.mark.parametrize("k,r_max", [(0.0, 100.0), (-3.0, 100.0), (15.0, 0.0),
                                         (15.0, -1.0), (math.nan, 100.0)])
    def test_logarithmic_rejects_bad_parameters(self, k, r_max):
        with pytest.raises(ValueError):
            Logarithmic(k=k, r_max=r_max)


class TestEvaluate:
    def test_zero_rate_gives_exactly_zero(self):
        assert evaluate(Sigmoidal(a=5.0, b=10.0), 0.0) == 0.0
        assert evaluate(Logarithmic(k=15.0, r_max=100.0), 0.0) == 0.0

    def test_log_full_utilization_is_exactly_one(self):
        assert evaluate(Logarithmic(k=15.0, r_max=100.0), 100.0) == 1.0

    def test_log_clamps_past_full_utilization(self):
        assert evaluate(Logarithmic(k=15.0, r_max=100.0), 250.0) == 1.0

    def test_sigmoid_inflection_value(self):
        # at r = b the exponential term is 1, so U = c*(0.5 - d) ~ 0.5
        assert evaluate(Sigmoidal(a=5.0, b=10.0), 10.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("u", ALL_UTILITIES, ids=UTILITY_IDS)
    def test_bounded_and_nondecreasing_on_grid(self, u):
        grid = [0.0] + log_grid(-3, 3, 80)
        values = [evaluate(u, r) for r in grid]
        for v in values:
            assert 0.0 <= v <= 1.0
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Sigmoidal(a=5.0, b=10.0), -1.0)


class TestLogUtility:
    def test_zero_rate_is_minus_infinity(self):
        assert log_utility(Sigmoidal(a=5.0, b=10.0), 0.0) == -math.inf
        assert log_utility(Logarithmic(k=15.0, r_max=100.0), 0.0) == -math.inf

    def test_log_family_unclamped_past_r_max(self):
        # solver-facing objective keeps increasing past r_max, matching the
        # marginal's closed-form continuation
        u = Logarithmic(k=15.0, r_max=100.0)
        assert log_utility(u, 150.0) > log_utility(u, 100.0) == 0.0

    @pytest.mark.parametrize("u", ALL_UTILITIES, ids=UTILITY_IDS)
    def test_matches_log_of_evaluate_below_saturation(self, u):
        for r in log_grid(-2, 1.5, 25):
            v = evaluate(u, r)
            if 0.0 < v < 1.0:
                assert log_utility(u, r) == pytest.approx(math.log(v), rel=1e-12)


class TestLogMarginal:
    def test_logarithmic_closed_form(self):
        expected = 15.0 / (151.0 * math.log(151.0))  # = 0.0197991...
        got = log_marginal(Logarithmic(k=15.0, r_max=100.0), 10.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.019799124540646026, rel=1e-12)

    def test_sigmoid_plateau_below_inflection(self):
        # well below b the marginal flattens at the steepness a
        got = log_marginal(Sigmoidal(a=5.0, b=10.0), 5.0)
        assert got == pytest.approx(5.0, rel=1e-6)

    @pytest.mark.parametrize("u", ALL_UTILITIES, ids=UTILITY_IDS)
    def test_strictly_decreasing(self, u):
        grid = log_grid(-3, 2, 60)
        values = [log_marginal(u, r) for r in grid]
        for (r_lo, m_lo), (r_hi, m_hi) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            assert m_lo > m_hi, f"log-marginal not decreasing between {r_lo} and {r_hi}"

    @pytest.mark.parametrize("u", ALL_UTILITIES, ids=UTILITY_IDS)
    def test_finite_difference_agreement(self, u):
        # independent derivative oracle: central difference of log U
        for r in log_grid(-3, 3, 100):
            h = 1e-5 * r
            fd = (log_utility(u, r + h) - log_utility(u, r - h)) / (2.0 * h)
            lm = log_marginal(u, r)
            assert abs(fd - lm) <= 1e-5 * max(abs(lm), 1e-12), f"at r={r}"

    def test_diverges_at_zero(self):
        for u in ALL_UTILITIES:
            assert log_marginal(u, 1e-12) > 1e9

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            log_marginal(Logarithmic(k=15.0, r_max=100.0), 0.0)


class TestInverseLogMarginal:
    def test_logarithmic_example_round_trip(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        p = 15.0 / (151.0 * math.log(151.0))
        assert inverse_log_marginal(u, p, 100.0) == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize("u", ALL_UTILITIES, ids=UTILITY_IDS)
    def test_round_trip_on_interior_grid(self, u):
        # 1e-6 plus the rate that the float64 rounding of p can move (see
        # roundtrip.py); the second term matters only where the marginal is flat
        for r in log_grid(-2, 2, 40):
            p = log_marginal(u, r)
            if p <= 0.0:
                continue  # marginal underflowed; no price to invert
            back = inverse_log_marginal(u, p, 2.0 * r)
            bound = round_trip_bound(u, r, p)
            assert abs(back - r) <= bound, f"round trip failed at r={r}: bound {bound:.3e}"

    def test_cap_binds_when_price_below_cap_marginal(self):
        u = Logarithmic(k=3.0, r_max=100.0)
        p = log_marginal(u, 50.0) / 2.0
        assert inverse_log_marginal(u, p, 50.0) == 50.0

    def test_floor_when_price_above_floor_marginal(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        # the log-marginal at the floor is ~1/EPS_RATE; exceed it
        assert inverse_log_marginal(u, 2e9, 100.0) == EPS_RATE

    def test_sigmoid_high_price_interior_root(self):
        # prices above the plateau value a still cross the marginal, which
        # diverges like 1/r near zero; frozen from a 2e6-point scan of the
        # net-benefit objective over [0, 100]
        u = Sigmoidal(a=5.0, b=10.0)
        root = inverse_log_marginal(u, 5.5, 100.0)
        assert root == pytest.approx(0.4795790547125204, abs=1e-6)
        assert log_marginal(u, root) == pytest.approx(5.5, rel=1e-6)
        # verify it beats the floor and nearby rates on the actual objective
        def gain(r):
            return log_utility(u, r) - 5.5 * r
        assert gain(root) > gain(EPS_RATE)
        assert gain(root) > gain(root * 0.5)
        assert gain(root) > gain(root * 2.0)

    def test_sigmoid_with_underflowed_normalizer_lands_on_floor(self):
        # a*b > 745, so d = e^(-ab)/(1 + e^(-ab)) is zero in float64 and the
        # marginal is a*(1 - s) < a everywhere: above the plateau value a,
        # no rate is worth its price. A search of the computed marginal
        # instead stopped where s underflows, near b - 745/a = 191.75.
        u = Sigmoidal(a=14.4, b=243.5)
        assert inverse_log_marginal(u, 77.0, 1000.0) == EPS_RATE
        assert net_benefit_maximizer(u, 77.0, 0.0, 1000.0) == EPS_RATE
        # below a the crossing is on the plateau's upper edge
        p = 10.0
        expected = 243.5 + math.log((14.4 - p) / p) / 14.4
        assert inverse_log_marginal(u, p, 1000.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_price(self):
        u = Sigmoidal(a=5.0, b=10.0)
        with pytest.raises(ValueError):
            inverse_log_marginal(u, math.nan, 100.0)
        with pytest.raises(ValueError):
            inverse_log_marginal(u, math.inf, 100.0)
        with pytest.raises(ValueError):
            inverse_log_marginal(u, 0.0, 100.0)


class TestNetBenefitMaximizer:
    def test_zero_offset_equals_inverse(self):
        for u in ALL_UTILITIES:
            for p in (0.01, 0.1, 1.0):
                assert net_benefit_maximizer(u, p, 0.0, 80.0) == \
                    inverse_log_marginal(u, p, 80.0)

    def test_large_offset_clamps_to_zero(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        p = 15.0 / (151.0 * math.log(151.0))
        # unconstrained optimum sits at ~10, far below the offset
        assert net_benefit_maximizer(u, p, 20.0, 100.0) == 0.0

    def test_offset_shifts_solution(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        p = 15.0 / (151.0 * math.log(151.0))
        assert net_benefit_maximizer(u, p, 4.0, 100.0) == pytest.approx(6.0, abs=1e-6)

    @pytest.mark.parametrize("u", ALL_UTILITIES, ids=UTILITY_IDS)
    @pytest.mark.parametrize("price,offset", [(0.05, 0.0), (0.05, 12.0),
                                              (0.5, 3.0), (2.0, 0.0)])
    def test_maximizes_gain_over_grid(self, u, price, offset):
        # independent oracle: exhaustive scan of log U(r+c) - p*r
        r_cap = 40.0
        n = 10_000
        step = r_cap / n
        best_r, best_f = 0.0, -math.inf
        for i in range(n + 1):
            r = i * step
            f = log_utility(u, max(r + offset, EPS_RATE)) - price * r
            if f > best_f:
                best_f, best_r = f, r
        got = net_benefit_maximizer(u, price, offset, r_cap)
        assert abs(got - best_r) <= step + 1e-9

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            net_benefit_maximizer(Sigmoidal(a=5.0, b=10.0), 1.0, -0.5, 100.0)

    def test_binding_int_cap_gives_a_float(self):
        # the kernel's r_cap - offset kept the int cap, so this returned 5
        u = Logarithmic(15.0, 100.0)
        got = net_benefit_maximizer(u, 1e-9, 0, 5)
        assert type(got) is float and got == 5.0
        assert got == inverse_log_marginal(u, 1e-9, 5)
        assert type(net_benefit_maximizer(u, 1e-9, 2, 5)) is float


BEYOND_FLOATS = 10**400


class TestArgumentsThatAreNoFloats:
    """An int beyond the float range raised OverflowError; bools passed as 0 and 1."""

    @pytest.mark.parametrize("u", ALL_UTILITIES[::3], ids=UTILITY_IDS[::3])
    @pytest.mark.parametrize("bad", [BEYOND_FLOATS, True], ids=["1e400", "True"])
    def test_solver_queries_raise_value_error(self, u, bad):
        with pytest.raises(ValueError, match="price"):
            inverse_log_marginal(u, bad, 100.0)
        with pytest.raises(ValueError, match="r_cap"):
            inverse_log_marginal(u, 0.1, bad)
        with pytest.raises(ValueError, match="price"):
            net_benefit_maximizer(u, bad, 0.0, 100.0)
        with pytest.raises(ValueError, match="offset"):
            net_benefit_maximizer(u, 0.1, bad, 100.0)
        with pytest.raises(ValueError, match="r_cap"):
            net_benefit_maximizer(u, 0.1, 0.0, bad)

    @pytest.mark.parametrize("u", ALL_UTILITIES[::3], ids=UTILITY_IDS[::3])
    @pytest.mark.parametrize("bad", [BEYOND_FLOATS, True, False],
                             ids=["1e400", "True", "False"])
    def test_curves_raise_value_error(self, u, bad):
        for curve in (evaluate, log_utility, log_marginal):
            with pytest.raises(ValueError):
                curve(u, bad)

    @pytest.mark.parametrize("u", ALL_UTILITIES[::3], ids=UTILITY_IDS[::3])
    def test_ints_and_infinite_rates_still_pass(self, u):
        assert evaluate(u, 10) == evaluate(u, 10.0)
        assert log_marginal(u, 10) == log_marginal(u, 10.0)
        assert evaluate(u, math.inf) == 1.0
        assert log_marginal(u, math.inf) == 0.0


# Int parameters. The last two have a*b beyond the float range: formed from
# the ints, e^(-a*b) raised OverflowError.
INT_UTILITIES = [
    Sigmoidal(5, 10),
    Sigmoidal(3, 20),
    Logarithmic(15, 100),
    Sigmoidal(10**200, 10**200),
    Logarithmic(10**200, 10**200),
]


def bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("u", INT_UTILITIES,
                         ids=["sig5_10", "sig3_20", "log15", "sig1e200", "log1e200"])
def test_int_parameters_give_the_bits_of_their_float_twin(u):
    twin = type(u)(*(float(getattr(u, f.name)) for f in dataclasses.fields(u)))
    for r in (1e-3, 1.0, 10.0, 1e3, 1e250):
        for curve in (evaluate, log_utility, log_marginal):
            assert bits(curve(u, r)) == bits(curve(twin, r))
    for price in (1e-3, 0.1, 1.0, 10.0, 1e199, 1e250):
        assert bits(inverse_log_marginal(u, price, 200.0)) == bits(
            inverse_log_marginal(twin, price, 200.0))
        for offset in (0.0, 2.0, 1e3):
            assert bits(net_benefit_maximizer(u, price, offset, 200.0)) == bits(
                net_benefit_maximizer(twin, price, offset, 200.0))
    # the user holds an offset, so the solve also finds its zero price
    other = (2, Logarithmic(3.0, 100.0), 0.0)
    got = dual_ascent([(1, u, 2.0), other], 10.0)
    want = dual_ascent([(1, twin, 2.0), other], 10.0)
    assert bits(got.shadow_price) == bits(want.shadow_price)
    assert [bits(r) for r in got.rates.values()] == [bits(r) for r in want.rates.values()]
    assert got.trace == want.trace


@pytest.mark.parametrize("not_a_utility", [None, (0, 5.0, 10.0)], ids=["None", "tuple"])
def test_curves_reject_what_is_no_utility(not_a_utility):
    for call in (lambda u: evaluate(u, 1.0), lambda u: log_utility(u, 1.0),
                 lambda u: log_marginal(u, 1.0),
                 lambda u: inverse_log_marginal(u, 1.0, 100.0),
                 lambda u: net_benefit_maximizer(u, 1.0, 0.0, 100.0)):
        with pytest.raises(TypeError, match="not a utility function"):
            call(not_a_utility)


def test_reimport_releases_old_utility_classes():
    # A benchmark re-imports the package after every pass; a process-wide
    # cache holding the old classes (typing.Union's does) would keep every
    # copy of the package alive.
    def package_modules():
        return {k: v for k, v in sys.modules.items()
                if k.partition(".")[0] == "carrieralloc"}

    saved = package_modules()
    try:
        for name in saved:
            del sys.modules[name]
        old = weakref.ref(importlib.import_module("carrieralloc").Sigmoidal)
        for name in package_modules():
            del sys.modules[name]
        assert importlib.import_module("carrieralloc").Sigmoidal is not old()
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert old() is None
