"""Carrier solver: fixed points and solve quality; the kernels' bid clamp."""

import dataclasses
import math
import random
import sys

import pytest

from carrieralloc import (
    Logarithmic,
    Sigmoidal,
    SolverParams,
    dual_ascent,
    log_marginal,
    net_benefit_maximizer,
    offered_price,
    rate_cap_for,
    run,
    sweep,
    two_carrier_nine_user,
)
from carrieralloc import _kernels_py as kernels
from carrieralloc.enodeb import TraceStep, _cap_floor
from reference_outputs import (
    RING_DESIGNS,
    SECTION5_CAPACITIES,
    counting_kernel_calls,
    distinct_probes,
    ring_scenario,
)

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


def trace_instances():
    """The section-5 solve, and seeded random solves whose probes skip users.

    (entries, capacity, params) each. Half the random users hold an offset,
    some large enough that their response falls below it at the probed
    prices; half are sigmoids, whose plateau prices the solve probes; and
    every fourth solve stops at a cap of 1 to 4 probes.
    """
    out = [(entries(SECTION_USERS), 100.0, SolverParams())]
    rng = random.Random(5)
    for n in range(60):
        solve = []
        for uid in range(1, rng.randint(1, 8) + 1):
            if rng.random() < 0.5:
                u = Sigmoidal(rng.uniform(0.5, 8.0), rng.uniform(5.0, 100.0))
            else:
                u = Logarithmic(rng.uniform(0.5, 15.0), 100.0)
            offset = 0.0
            if rng.random() < 0.5:
                offset = rng.choice((rng.uniform(0.0, 30.0), 1e4))
            solve.append((uid, u, offset))
        params = SolverParams(max_outer_iters=rng.randint(1, 4)) if n % 4 == 3 else SolverParams()
        out.append((solve, 10.0 ** rng.uniform(-2.0, 3.0), params))
    return out


TRACE_INSTANCES = trace_instances()


class TestFluctuationClamp:
    """The paper's bid clamp, kept in the kernels beside its iteration."""

    def test_step_capped_on_first_iteration(self):
        # allowed step at n=1 is 5*e^(-0.1) = 4.5241870...
        got = kernels.fluctuation_clamp(10.0, 0.0, 1, 5.0, 10.0)
        assert got == pytest.approx(5.0 * math.exp(-0.1), rel=1e-15)

    def test_small_update_passes_through(self):
        assert kernels.fluctuation_clamp(3.05, 3.0, 1, 5.0, 10.0) == 3.05

    def test_negative_direction(self):
        got = kernels.fluctuation_clamp(2.0, 10.0, 30, 5.0, 10.0)
        assert got == pytest.approx(10.0 - 5.0 * math.exp(-3.0), rel=1e-15)


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
    def test_kkt_stationarity(self, capacity):
        # every user with a positive rate sits where its log-marginal meets
        # the clearing price: the first-order optimality condition
        res = dual_ascent(entries(SECTION_USERS), capacity)
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
        # and on random solves, converged or stopped by the probe cap
        stopped = 0
        for solve, capacity, params in TRACE_INSTANCES:
            res = dual_ascent(solve, capacity, params)
            indices = [s.iteration for s in res.trace.steps]
            assert indices == list(range(1, res.iterations + 1))
            assert res.iterations == len(res.trace) >= 1
            assert res.iterations <= params.max_outer_iters
            assert res.trace.user_ids == tuple(uid for uid, _, _ in solve)
            stopped += not res.converged and res.iterations == params.max_outer_iters
        assert stopped >= 5

    def test_trace_rows_have_all_users(self):
        res = dual_ascent(entries(SECTION_USERS), 100.0)
        for step in res.trace.steps:
            assert len(step.bids) == len(SECTION_USERS)
            assert len(step.rates) == len(SECTION_USERS)
            assert step.price > 0
        # and on random solves, among them probes at a sigmoid's plateau
        # price and probes that skip users whose offsets cover their demand
        plateau_probes = skipped = 0
        for solve, capacity, params in TRACE_INSTANCES:
            res = dual_ascent(solve, capacity, params)
            plateaus = {u.a for _, u, _ in solve if isinstance(u, Sigmoidal)}
            for step in res.trace.steps:
                assert type(step) is TraceStep
                assert step == (step.iteration, step.price, step.rates)
                assert len(step.rates) == len(solve)
                assert step.bids == tuple(step.price * r for r in step.rates)
                assert step.price > 0
                plateau_probes += step.price in plateaus
                skipped += sum(r == 0.0 and c > 0.0 for r, (_, _, c) in zip(step.rates, solve))
        assert plateau_probes >= 5
        assert skipped >= 5

    def test_result_and_trace_are_frozen(self):
        res = dual_ascent(entries(SECTION_USERS), 100.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.shadow_price = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.trace.steps = ()
        assert res.iterations == len(res.trace)

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

    @pytest.mark.parametrize("capacity", [10**400, True, math.inf, math.nan],
                             ids=["1e400", "True", "inf", "nan"])
    def test_rejects_capacity_that_is_no_float(self, capacity):
        # an int beyond the float range raised OverflowError, and True
        # solved at capacity 1
        u = Logarithmic(k=3.0, r_max=100.0)
        with pytest.raises(ValueError, match="capacity"):
            dual_ascent([(1, u, 0.0)], capacity)
        with pytest.raises(ValueError, match="capacity"):
            offered_price([(1, u)], capacity)

    @pytest.mark.parametrize("offset", [10**400, True, False, math.inf, math.nan],
                             ids=["1e400", "True", "False", "inf", "nan"])
    def test_rejects_offset_that_is_no_float(self, offset):
        u = Logarithmic(k=3.0, r_max=100.0)
        with pytest.raises(ValueError, match="offset"):
            dual_ascent([(1, u, 0.0), (2, u, offset)], 10.0)

    def test_int_capacity_and_offsets_solve_as_floats(self):
        u = Logarithmic(k=3.0, r_max=100.0)
        assert dual_ascent([(1, u, 0), (2, u, 2)], 10) == \
            dual_ascent([(1, u, 0.0), (2, u, 2.0)], 10.0)


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
        assert res.iterations <= 11

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
        # float up from the low end instead ran past 3,000 probes
        users = [(1, Sigmoidal(a=2.593944939156432, b=2.447590129283517)),
                 (2, Logarithmic(k=3.195640855473407, r_max=100.0))]
        res = offered_price(users, 1.5239126976440107)
        assert res.converged
        assert res.iterations <= 5

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

    def test_section5_sweep_takes_few_probes_in_all(self):
        # the summed probes of the sweep's distinct solves, which are what
        # the sweep runs: 3,227 when the bracket search walked from p = 1
        # with doubling steps, 2,082 from the users' equal-share prices, when
        # a probe within ONE_END_TOL of the root did not yet end its solve
        points = sweep(two_carrier_nine_user(), 1, SECTION5_CAPACITIES)
        assert distinct_probes(report for _, report in points) <= 1895

    def test_many_carriers_rings_take_fewer_probes_in_all(self):
        # the summed probes of the two many-carriers reference rings: 2,182
        # when the bracket search started at the equal-share prices alone,
        # where half the users, sigmoids, put the start near 1e-22 and the
        # walk up probed prices at which every log user demands its cap;
        # 1,728 when a probe within ONE_END_TOL of the root did not yet end
        # its solve
        design = RING_DESIGNS["many-carriers"]
        reports = [run(ring_scenario(design, seed, "many-carriers")) for seed in (0, 1)]
        assert distinct_probes(reports) <= 1580

    @pytest.mark.parametrize("entries, capacity, bound", [
        # the root lies just above a plateau price and just below a zero
        # price; 776 probes when the bracket search walked from p = 1
        ([(1, Logarithmic(4.149425477771006, 100.0), 9.90946425972671),
          (2, Logarithmic(9.82425288147035, 100.0), 0.0),
          (3, Sigmoidal(7.166430893844001, 50.42992696364199), 2.8103905451341236),
          (4, Sigmoidal(4.357889008726998, 11.785413747755898), 0.0)],
         0.316894110465368, 369),
        # the root lies 1.97e-8 above user 1's plateau price and just below
        # its zero price; 170 probes when the search walked from p = 1
        ([(1, Sigmoidal(6.972621216810191, 84.07212762343728), 2.820028221146111),
          (2, Sigmoidal(0.6462491849901038, 21.957655217227455), 27.817538148968605),
          (3, Sigmoidal(0.8061206478595326, 37.89345708957491), 0.0)],
         0.15581012659400165, 18),
    ], ids=["776", "170"])
    def test_long_random_solves_take_fewer_probes(self, entries, capacity, bound):
        res = dual_ascent(entries, capacity)
        assert res.converged
        assert res.iterations <= bound


class TestCapFloor:
    """The bracket search starts no lower than the highest cap price."""

    def test_cap_price_that_lost_its_digits_is_no_floor(self):
        # a*b = 746: d underflows and s is subnormal at the cap 0.263, so the
        # computed cap price reads 8.0, above the plateau price a = 7.57,
        # where the user's rate is eps_r; the confirming response drops it
        u = Sigmoidal(7.566187029167866, 98.60871631853058)
        capacity = 0.13148124372806583
        cap = rate_cap_for([(1, u, 0.0)], capacity, SolverParams())
        row = u._row + (cap, 0.0, math.inf)
        cap_prices = kernels.log_marginals([row], (cap,))
        assert cap_prices[0] > u.a
        assert _cap_floor([row], cap_prices, capacity, 1e-300) == 1e-300
        res = offered_price([(1, u)], capacity)
        assert res.converged
        assert res.shadow_price < cap_prices[0]


class TestKernelCalls:
    """Probes skip the users whose offsets already cover their demand."""

    def test_covered_users_cost_one_call_per_solve(self):
        # 3 users without offsets clear the capacity near p = 0.03; the other
        # 12 hold offsets that their responses fall below at every probed
        # price, so once the first probe reads each of them 0.0 they cost no
        # row. Every net_rates call counts, one-row tables too, and so does
        # every row that it computes: all but those at or above their
        # skip_from, the last field. The cap floor's response is the one
        # call outside a probe.
        free = [(uid, Logarithmic(k=3.0, r_max=100.0), 0.0) for uid in (1, 2, 3)]
        covered = [(uid, Logarithmic(k=0.5 + uid, r_max=100.0), 1e4) for uid in range(4, 10)]
        covered += [(uid, Sigmoidal(a=1.0 + 0.5 * uid, b=20.0), 60.0) for uid in range(10, 16)]
        with counting_kernel_calls() as counts:
            res = dual_ascent(free + covered, 30.0)
        calls, rows = counts
        assert res.converged
        assert all(res.rates[uid] == 0.0 for uid, _, _ in covered)
        assert calls == res.iterations + 1
        assert rows <= len(free) * res.iterations + len(covered) + 1

    def test_kernel_skips_rows_priced_out(self):
        # a row at or above its skip_from is 0.0 without a response: this
        # one's q1 of None would raise TypeError in any response
        row = (kernels.LOGARITHMIC, None, None, 0.0, 0.0, 0.0, 200.0, 5.0, 0.5)
        free = (kernels.LOGARITHMIC, 3.0, 100.0, 0.0, 0.0, 0.0, 200.0, 0.0, math.inf)
        assert kernels.net_rates((row, free, row), 0.5, 1e-9) == \
            (0.0, kernels.net_benefit(kernels.LOGARITHMIC, 3.0, 100.0, 0.5, 0.0,
                                      200.0, 1e-9, 1e-9, 200), 0.0)
        with pytest.raises(TypeError):
            kernels.net_rates((row,), 0.25, 1e-9)


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
