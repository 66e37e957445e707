"""Dual-ascent solver: clamp mechanics, fixed points, and solve quality."""

import math
import random
import sys

import pytest

from carrieralloc import (
    Logarithmic,
    Sigmoidal,
    SolverParams,
    dual_ascent,
    fluctuation_clamp,
    log_marginal,
    net_benefit_maximizer,
    offered_price,
    sweep,
    two_carrier_nine_user,
)
from carrieralloc import _kernels_py as kernels

SECTION_USERS = [
    (1, Sigmoidal(a=5.0, b=10.0)),
    (2, Sigmoidal(a=3.0, b=20.0)),
    (3, Logarithmic(k=15.0, r_max=100.0)),
    (4, Logarithmic(k=3.0, r_max=100.0)),
    (5, Logarithmic(k=0.5, r_max=100.0)),
    (6, Sigmoidal(a=1.0, b=30.0)),
]

LOG15_PRICE_AT_10 = 15.0 / (151.0 * math.log(151.0))


def entries(users, offset=0.0):
    return [(uid, u, offset) for uid, u in users]


class TestFluctuationClamp:
    def test_step_capped_on_first_iteration(self):
        # allowed step at n=1 is 5*e^(-0.1) = 4.5241870...
        got = fluctuation_clamp(10.0, 0.0, 1, 5.0, 10.0)
        assert got == pytest.approx(5.0 * math.exp(-0.1), rel=1e-15)

    def test_small_update_passes_through(self):
        assert fluctuation_clamp(3.05, 3.0, 1, 5.0, 10.0) == 3.05

    def test_negative_direction(self):
        got = fluctuation_clamp(2.0, 10.0, 30, 5.0, 10.0)
        assert got == pytest.approx(10.0 - 5.0 * math.exp(-3.0), rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fluctuation_clamp(1.0, 0.0, 0, 5.0, 10.0)
        with pytest.raises(ValueError):
            fluctuation_clamp(1.0, 0.0, 1, -5.0, 10.0)


class TestDualAscentFixedPoints:
    def test_single_log_user_takes_capacity(self):
        res = dual_ascent([(1, Logarithmic(k=15.0, r_max=100.0), 0.0)], 10.0)
        assert res.converged
        assert res.rates[1] == pytest.approx(10.0, abs=1e-9)
        assert res.shadow_price == pytest.approx(LOG15_PRICE_AT_10, rel=2e-3)

    def test_two_identical_users_split_evenly(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        res = dual_ascent([(1, u, 0.0), (2, u, 0.0)], 20.0)
        assert res.rates[1] == res.rates[2]  # identical arithmetic paths
        assert res.rates[1] == pytest.approx(10.0, abs=1e-9)
        assert res.shadow_price == pytest.approx(LOG15_PRICE_AT_10, rel=2e-3)

    def test_single_sigmoid_capacity_binds(self):
        res = dual_ascent([(1, Sigmoidal(a=5.0, b=10.0), 0.0)], 5.0)
        assert res.converged
        assert res.rates[1] == pytest.approx(5.0, abs=1e-9)
        # capacity binds, so the price settles at the marginal there (~a)
        assert res.shadow_price == pytest.approx(
            log_marginal(Sigmoidal(a=5.0, b=10.0), 5.0), rel=1e-3
        )

    def test_offset_user_receives_less(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        res = dual_ascent([(1, u, 10.0), (2, u, 0.0)], 10.0)
        assert res.converged
        # equalizing marginals of (rate + offset) starves the offset holder
        assert res.rates[1] < res.rates[2]
        assert res.rates[2] == pytest.approx(10.0, abs=1e-3)
        assert res.rates[1] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("capacity", [50.0, 100.0, 150.0, 200.0])
    def test_capacity_saturated(self, capacity):
        res = dual_ascent(entries(SECTION_USERS), capacity)
        assert res.converged
        total = sum(res.rates.values())
        assert total == pytest.approx(capacity, rel=1e-9)

    @pytest.mark.parametrize("capacity", [50.0, 100.0, 200.0])
    def test_kkt_stationarity_at_tight_delta(self, capacity):
        # the stop threshold bounds distance to the fixed point; verify the
        # fixed point itself satisfies first-order optimality by tightening
        params = SolverParams(delta=1e-6)
        res = dual_ascent(entries(SECTION_USERS), capacity, params)
        assert res.converged
        p = res.shadow_price
        for uid, u, c in entries(SECTION_USERS):
            r = res.rates[uid]
            if r > 1e-6:
                assert abs(log_marginal(u, r + c) - p) <= 5e-3 * p

    def test_offsets_shift_allocation_phase(self):
        offs = {1: 0.0, 2: 0.0, 3: 0.0, 4: 10.9, 5: 16.3, 6: 33.7}
        ents = [(uid, u, offs[uid]) for uid, u in SECTION_USERS]
        res = dual_ascent(ents, 50.0)
        assert res.converged
        assert sum(res.rates.values()) == pytest.approx(50.0, rel=1e-9)
        # real-time users keep priority; heavily offset users get little
        assert res.rates[1] > res.rates[4]
        assert res.rates[6] < 1.0


class TestDualAscentMechanics:
    def test_deterministic_bit_identical(self):
        a = dual_ascent(entries(SECTION_USERS), 100.0)
        b = dual_ascent(entries(SECTION_USERS), 100.0)
        assert a == b
        assert a.trace.steps == b.trace.steps

    def test_trace_iterations_count_from_one(self):
        res = dual_ascent(entries(SECTION_USERS), 100.0)
        indices = [s.iteration for s in res.trace.steps]
        assert indices == list(range(1, res.iterations + 1))
        assert res.trace.user_ids == (1, 2, 3, 4, 5, 6)

    def test_trace_rows_have_all_users(self):
        res = dual_ascent(entries(SECTION_USERS), 100.0)
        for step in res.trace.steps:
            assert len(step.bids) == len(SECTION_USERS)
            assert len(step.rates) == len(SECTION_USERS)
            assert step.price > 0

    def test_nonconvergence_flagged_not_raised(self):
        res = dual_ascent(entries(SECTION_USERS), 100.0,
                          SolverParams(max_outer_iters=3))
        assert not res.converged
        assert res.iterations == 3
        assert res.shadow_price > 0

    def test_capacity_beyond_every_normal_price_not_converged(self):
        # the marginal underflows past r ~ 159, so even at the smallest
        # normal price this user demands less than the capacity
        u = Sigmoidal(a=5.0, b=10.0)
        res = dual_ascent([(1, u, 0.0)], 200.0)
        assert not res.converged
        assert res.shadow_price == sys.float_info.min
        assert res.rates[1] < 200.0
        assert all(step.price >= sys.float_info.min for step in res.trace.steps)

    def test_underflowed_sigmoids_clear_on_their_plateau_edge(self):
        # a*b > 745 for both users, so their normalizers d underflow to zero
        # and neither demands more than the floor at or above its plateau
        # value a. Demand jumps across the capacity at the price a = 10 of
        # user 2; the solve splits that jump. A search of the computed
        # marginal instead gave both users rates near b - 745/a at every
        # price (317 > 300), and the solve ran out of prices.
        users = [(1, Sigmoidal(a=14.4, b=243.5)), (2, Sigmoidal(a=10.0, b=200.0))]
        res = offered_price(users, 300.0)
        assert res.converged
        assert res.shadow_price == pytest.approx(10.0, rel=1e-12)
        assert math.fsum(res.rates.values()) == pytest.approx(300.0, rel=1e-12)

    def test_rejects_empty_entries(self):
        with pytest.raises(ValueError):
            dual_ascent([], 10.0)

    def test_rejects_duplicate_user_ids(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        with pytest.raises(ValueError, match="duplicate"):
            dual_ascent([(1, u, 0.0), (1, u, 0.0)], 10.0)

    def test_rejects_negative_offset(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        with pytest.raises(ValueError, match="offset"):
            dual_ascent([(1, u, -2.0)], 10.0)

    def test_rejects_nonpositive_capacity(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        with pytest.raises(ValueError, match="capacity"):
            dual_ascent([(1, u, 0.0)], 0.0)


class TestProbeCounts:
    """Solves that Illinois regula falsi stretched to one bit per probe."""

    def test_lone_plateau_sigmoid_clears_in_few_probes(self):
        # the clearing price sits within 1e-13 of the plateau price a = 3,
        # where demand is close to a step; Illinois took 53 probes
        res = offered_price([(1, Sigmoidal(3.0, 20.0))], 10.0)
        assert res.converged
        assert res.iterations <= 7

    def test_underflowed_sigmoids_clear_in_few_probes(self):
        # the instance of test_underflowed_sigmoids_clear_on_their_plateau_edge;
        # Illinois took 64 probes
        users = [(1, Sigmoidal(a=14.4, b=243.5)), (2, Sigmoidal(a=10.0, b=200.0))]
        res = offered_price(users, 300.0)
        assert res.converged
        assert res.iterations <= 8

    def test_end_beside_the_root_is_certified_by_the_next_probe(self):
        # a probe over-demands by 8e-10 and the interpolated price beside
        # it rounds onto it; falling back to the midpoint, each later probe
        # halved the distance to it (34 probes with Illinois)
        users = [(1, Logarithmic(k=5.74, r_max=100.0)), (2, Sigmoidal(a=1.97, b=18.5))]
        res = offered_price(users, 10.0)
        assert res.converged
        assert res.iterations <= 12

    def test_stale_end_loses_weight_fast(self):
        # the probe at the plateau price a = 4.38 demands 0.2 of 10; halving
        # the weight of that stale end once per probe, as Illinois does, the
        # next ten probes all over-demanded and the solve took 23 probes even
        # with the other two rules (31 with Illinois alone)
        entries = [(1, Logarithmic(k=1.27, r_max=100.0), 0.0),
                   (2, Sigmoidal(a=4.38, b=24.1), 12.9)]
        res = dual_ascent(entries, 10.0)
        assert res.converged
        assert res.iterations <= 14

    def test_clearing_price_beside_a_plateau_takes_few_probes(self):
        # 60 users drawn from the wide-carriers workload's families and
        # ranges, on the capacity that they demand 3e-12 below the plateau
        # price a of the steepest sigmoid: the clearing price lies that close
        # to a, where that user's response goes as ln(a - p), and regula
        # falsi in log p took 22 probes, most of them just below a
        rng = random.Random(0)
        users = [
            (uid, Sigmoidal(a=rng.uniform(1.0, 5.0), b=rng.uniform(10.0, 30.0))
             if rng.random() < 0.5 else Logarithmic(k=rng.uniform(0.5, 15.0), r_max=100.0))
            for uid in range(1, 61)
        ]
        steep = max((u for _, u in users if isinstance(u, Sigmoidal)), key=lambda u: u.a * u.b)
        price = steep.a * (1.0 - 3e-12)
        # 200 is the solve's own rate cap: twice the largest r_max
        capacity = math.fsum(net_benefit_maximizer(u, price, 0.0, 200.0) for _, u in users)
        res = offered_price(users, capacity)
        assert res.converged
        assert abs(res.shadow_price - steep.a) <= 1e-11 * steep.a
        assert res.iterations <= 13

    def test_bracket_inside_the_core_narrows_in_log_price(self):
        # the clearing price lies within the core a*sqrt(d) of the plateau
        # price a, where the floored plateau coordinate is the same at both
        # ends and cannot place a probe; log p places it instead. Stepping one
        # float up from the low end instead ran into the 10,000-probe cap
        res = offered_price([(1, Sigmoidal(1.0676042317873122, 3.088301172824871))],
                            1.7423462113955943)
        assert res.converged
        assert res.iterations <= 7

    def test_section5_sweep_solves_take_few_probes(self):
        # an end landing almost on the clearing demand left Illinois to
        # halve the distance to it, up to 32 probes in one solve
        points = sweep(two_carrier_nine_user(), 1, range(50, 201))
        probes = [
            len(trace)
            for _, report in points
            for traces in (report.offered_traces, report.allocation_traces)
            for trace in traces.values()
        ]
        assert len(probes) == 151 * 4
        assert max(probes) <= 13


class TestKernelCalls:
    """Probes skip the users whose offsets already cover their demand."""

    def test_covered_users_cost_one_call_per_solve(self, monkeypatch):
        # 3 users without offsets clear the capacity near p = 0.03; the other
        # 12 hold offsets that their responses fall below at every probed
        # price, so after one confirming call each they cost no calls
        calls = []
        real = kernels.response
        monkeypatch.setattr(kernels, "response", lambda *a: calls.append(a) or real(*a))
        free = [(uid, Logarithmic(k=3.0, r_max=100.0), 0.0) for uid in (1, 2, 3)]
        covered = [(uid, Logarithmic(k=0.5 + uid, r_max=100.0), 1e4) for uid in range(4, 10)]
        covered += [(uid, Sigmoidal(a=1.0 + 0.5 * uid, b=20.0), 60.0) for uid in range(10, 16)]
        res = dual_ascent(free + covered, 30.0)
        assert res.converged
        assert all(res.rates[uid] == 0.0 for uid, _, _ in covered)
        assert len(calls) <= len(free) * res.iterations + len(covered)


class TestOfferedPrice:
    def test_isomorphic_coverage_sets_price_equally(self):
        # both preset coverage sets carry the same utility multiset, so at
        # equal capacity the offered prices agree (up to summation order)
        group1 = SECTION_USERS
        group2 = [
            (4, Logarithmic(k=3.0, r_max=100.0)),
            (5, Logarithmic(k=0.5, r_max=100.0)),
            (6, Sigmoidal(a=1.0, b=30.0)),
            (7, Sigmoidal(a=5.0, b=10.0)),
            (8, Sigmoidal(a=3.0, b=20.0)),
            (9, Logarithmic(k=15.0, r_max=100.0)),
        ]
        p1 = offered_price(group1, 100.0).shadow_price
        p2 = offered_price(group2, 100.0).shadow_price
        assert abs(p1 - p2) / p2 <= 1e-3

    def test_scarce_capacity_prices_higher(self):
        p_scarce = offered_price(SECTION_USERS, 50.0).shadow_price
        p_rich = offered_price(SECTION_USERS, 100.0).shadow_price
        assert p_scarce > p_rich

    def test_strictly_decreasing_in_capacity(self):
        prices = [
            offered_price(SECTION_USERS, float(r)).shadow_price
            for r in range(50, 210, 10)
        ]
        for lo, hi in zip(prices, prices[1:]):
            assert lo > hi

    def test_zero_offsets_equal_explicit_zero_entries(self):
        via_offered = offered_price(SECTION_USERS, 100.0)
        via_dual = dual_ascent(entries(SECTION_USERS), 100.0)
        assert via_offered == via_dual
