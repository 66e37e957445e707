"""End-to-end protocol: phases, ordering, conservation, failure paths."""

import math
import re

import pytest

from carrieralloc import (
    CarrierSpec,
    ConvergenceError,
    Logarithmic,
    ProtocolError,
    Scenario,
    ScenarioError,
    Sigmoidal,
    SolverParams,
    UserSpec,
    protocol,
    run,
    sweep,
    two_carrier_nine_user,
    with_capacity,
)
from carrieralloc.enodeb import dual_ascent, offered_price


def single_user_scenario():
    return Scenario(
        carriers=(CarrierSpec(id=1, capacity=10.0),),
        users=(UserSpec(id=1, utility=Logarithmic(k=15.0, r_max=100.0),
                        coverage=(1,)),),
    )


class TestRun:
    def test_degenerate_single_carrier_single_user(self):
        report = run(single_user_scenario())
        assert report.aggregates[1] == pytest.approx(10.0, abs=1e-9)
        expected = 15.0 / (151.0 * math.log(151.0))
        assert report.offered_prices[1] == pytest.approx(expected, rel=2e-3)
        assert report.processing_order == (1,)

    def test_scarce_carrier_processes_second(self):
        report = run(two_carrier_nine_user(50.0, 100.0))
        assert report.offered_prices[1] > report.offered_prices[2]
        assert report.processing_order == (2, 1)
        # joint users took carrier 2 first: zero offsets there, positive
        # offsets at carrier 1
        for uid in (4, 5, 6):
            assert report.offsets[2][uid] == 0.0
            assert report.offsets[1][uid] > 0.0
            assert report.offsets[1][uid] == pytest.approx(report.rates[2][uid])

    def test_rich_carrier_processes_first(self):
        report = run(two_carrier_nine_user(200.0, 100.0))
        assert report.offered_prices[1] < report.offered_prices[2]
        assert report.processing_order == (1, 2)
        for uid in (4, 5, 6):
            assert report.offsets[1][uid] == 0.0
            assert report.offsets[2][uid] > 0.0

    @pytest.mark.parametrize("r1", [50.0, 100.0, 170.0])
    def test_each_carrier_activates_exactly_once(self, r1):
        report = run(two_carrier_nine_user(r1, 100.0))
        assert sorted(report.processing_order) == [1, 2]
        assert len(report.processing_order) == 2

    @pytest.mark.parametrize("r1", [50.0, 100.0, 200.0])
    def test_aggregate_conservation(self, r1):
        report = run(two_carrier_nine_user(r1, 100.0))
        assert report.total_allocated() == pytest.approx(r1 + 100.0, rel=1e-9)

    @pytest.mark.parametrize("r1", [50.0, 130.0])
    def test_row_sums_within_capacity(self, r1):
        scenario = two_carrier_nine_user(r1, 100.0)
        report = run(scenario)
        for carrier in scenario.carriers:
            row = sum(report.rates[carrier.id].values())
            assert row <= carrier.capacity * (1.0 + 1e-6)

    def test_aggregates_equal_column_sums(self):
        scenario = two_carrier_nine_user(80.0, 100.0)
        report = run(scenario)
        for u in scenario.users:
            column = sum(report.rates[cid][u.id] for cid in u.coverage)
            assert report.aggregates[u.id] == pytest.approx(column, rel=1e-12)

    def test_rate_accessor_zero_outside_coverage(self):
        report = run(two_carrier_nine_user(50.0, 100.0))
        assert report.rate(2, 1) == 0.0
        assert report.rate(1, 1) > 0.0

    def test_rerun_is_bit_identical(self):
        a = run(two_carrier_nine_user(70.0, 100.0))
        b = run(two_carrier_nine_user(70.0, 100.0))
        assert a == b

    def test_nonconvergence_names_carrier(self):
        with pytest.raises(ConvergenceError) as err:
            run(two_carrier_nine_user(), SolverParams(max_outer_iters=2))
        assert err.value.carrier_id in (1, 2)
        assert "did not converge" in str(err.value)


    def test_unreachable_capacity_names_carrier_and_phase(self):
        scenario = Scenario(
            carriers=(CarrierSpec(id=7, capacity=200.0),),
            users=(UserSpec(id=1, utility=Sigmoidal(a=5.0, b=10.0),
                            coverage=(7,)),),
        )
        with pytest.raises(ConvergenceError) as err:
            run(scenario)
        assert err.value.carrier_id == 7
        assert err.value.phase == "price discovery"


    @pytest.mark.parametrize("r1", [50.0, 200.0])
    def test_offsets_are_floats(self, r1):
        # zero offsets were once the int 0, which == 0.0 does not catch
        report = run(two_carrier_nine_user(r1, 100.0))
        values = [c for offsets in report.offsets.values() for c in offsets.values()]
        assert 0.0 in values
        assert all(type(c) is float for c in values)


class TestSweep:
    def test_single_point_equals_run(self):
        scenario = two_carrier_nine_user()
        points = sweep(scenario, 1, [100.0])
        assert len(points) == 1
        cap, report = points[0]
        assert cap == 100.0
        assert report == run(two_carrier_nine_user(100.0, 100.0))

    def test_full_range_point_count(self):
        points = sweep(two_carrier_nine_user(), 1,
                       [50.0 + 10.0 * i for i in range(16)])
        assert len(points) == 16
        assert [cap for cap, _ in points] == [50.0 + 10.0 * i for i in range(16)]

    def test_error_tagged_with_capacity(self):
        with pytest.raises(ProtocolError, match=r"capacity 50(\.0)? for carrier 1"):
            sweep(two_carrier_nine_user(), 1, [50.0],
                  SolverParams(max_outer_iters=2))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            sweep(two_carrier_nine_user(), 1, [0.0])

    @pytest.mark.parametrize("capacity", [True, 10**400, -1], ids=["True", "1e400", "-1"])
    def test_rejects_what_is_no_positive_number(self, capacity):
        # True ran a point at 1.0, and 10**400 raised OverflowError
        with pytest.raises(ScenarioError, match=re.escape(f"got {capacity!r}") + "$"):
            sweep(two_carrier_nine_user(), 1, [60.0, capacity])


class TestThreeCarrierChain:
    def test_joint_user_walks_all_three(self):
        # one user sees all carriers; the cheapest (largest capacity per
        # head) must be consumed first and offsets accumulate along the walk
        scenario = Scenario(
            carriers=(CarrierSpec(id=1, capacity=30.0),
                      CarrierSpec(id=2, capacity=60.0),
                      CarrierSpec(id=3, capacity=90.0)),
            users=(
                UserSpec(id=1, utility=Logarithmic(k=3.0, r_max=100.0),
                         coverage=(1, 2, 3)),
                UserSpec(id=2, utility=Logarithmic(k=0.5, r_max=100.0),
                         coverage=(1, 2, 3)),
            ),
        )
        report = run(scenario)
        prices = report.offered_prices
        assert prices[3] < prices[2] < prices[1]
        assert report.processing_order == (3, 2, 1)
        assert report.total_allocated() == pytest.approx(180.0, rel=1e-9)
        # offsets at each carrier equal rates collected from cheaper ones
        for uid in (1, 2):
            assert report.offsets[2][uid] == pytest.approx(report.rates[3][uid])
            assert report.offsets[1][uid] == pytest.approx(
                report.rates[3][uid] + report.rates[2][uid]
            )


# Four carriers on a ring; users 1-5 cover two or three neighbouring
# carriers, so every carrier after the cheapest sees non-zero offsets.
RING = Scenario(
    carriers=(CarrierSpec(1, 30.0), CarrierSpec(2, 45.0),
              CarrierSpec(3, 20.0), CarrierSpec(4, 60.0)),
    users=(
        UserSpec(1, Logarithmic(k=3.0, r_max=100.0), (1, 2)),
        UserSpec(2, Sigmoidal(a=3.0, b=20.0), (2, 3)),
        UserSpec(3, Logarithmic(k=0.5, r_max=100.0), (3, 4, 1)),
        UserSpec(4, Sigmoidal(a=5.0, b=10.0), (4, 1)),
        UserSpec(5, Logarithmic(k=15.0, r_max=100.0), (2, 3, 4)),
        UserSpec(6, Sigmoidal(a=1.0, b=15.0), (4,)),
        UserSpec(7, Logarithmic(k=7.0, r_max=100.0), (1,)),
    ),
)

SECTION5_POINTS = [two_carrier_nine_user(r1, 100.0) for r1 in (50.0, 100.0, 130.0, 200.0)]


class TestOneCarrierOrder:
    """``ue.order_carriers`` on the price table is the run's only price order."""

    def test_tie_break_decided_by_order_carriers_alone(self, monkeypatch):
        # At R1 = 100 the two offered prices are equal; a descending-id
        # tie-break in order_carriers alone must flip the whole pass.
        calls = []

        def descending_ids(prices):
            calls.append(dict(prices))
            return tuple(sorted(prices, key=lambda c: (prices[c], -c)))

        monkeypatch.setattr(protocol.ue, "order_carriers", descending_ids)
        report = run(two_carrier_nine_user(100.0, 100.0))
        assert report.offered_prices[1] == report.offered_prices[2]
        assert calls == [report.offered_prices]
        assert report.processing_order == (2, 1)
        for uid in (4, 5, 6):
            assert report.offsets[2][uid] == 0.0
            assert report.offsets[1][uid] == report.rates[2][uid]

    def test_section5_tie_is_bit_equal_and_broken_by_id(self):
        # Both carriers cover the same utilities, listed in another user
        # order, so the two solves must do the same arithmetic whatever the
        # order. A solve start taken as the median of the unsorted
        # equal-share prices put carrier 2's price 9e-13 (relative) below
        # carrier 1's and flipped the order to (2, 1).
        report = run(two_carrier_nine_user(100.0, 100.0))
        assert report.offered_prices[1] == report.offered_prices[2]
        assert report.offered_prices[1] == pytest.approx(0.026494999394762395, rel=1e-10)
        assert report.processing_order == (1, 2)

    @pytest.mark.parametrize("scenario", SECTION5_POINTS + [RING])
    def test_each_user_orders_its_coverage_by_price_then_id(self, scenario):
        # Seen from the report alone: each offset is the correctly rounded
        # sum of the user's rates from the carriers before it in (offered
        # price, id) order, and the aggregate that of all of them, to the bit.
        report = run(scenario)
        prices = report.offered_prices
        for u in scenario.users:
            order = sorted(u.coverage, key=lambda c: (prices[c], c))
            rates = [report.rates[c][u.id] for c in order]
            for k, cid in enumerate(order):
                assert report.offsets[cid][u.id] == math.fsum(rates[:k])
            assert report.aggregates[u.id] == math.fsum(rates)


@pytest.fixture
def solve_calls(monkeypatch):
    """Every carrier solve the protocol runs, as (phase, capacity), in order."""
    calls = []

    def counting(phase, solver):
        def solve(entries, capacity, params=None):
            calls.append((phase, capacity))
            return solver(entries, capacity, params)
        return solve

    monkeypatch.setattr(protocol, "offered_price",
                        counting("discovery", protocol.offered_price))
    monkeypatch.setattr(protocol, "dual_ascent",
                        counting("allocation", protocol.dual_ascent))
    return calls


class TestSolveReuse:
    """Exact-repeat solves are reused, equal to a fresh solve, and only in scope."""

    @pytest.mark.parametrize("scenario", SECTION5_POINTS + [RING])
    def test_every_solve_equals_a_fresh_one(self, scenario, solve_calls):
        report = run(scenario)
        # the cheapest carrier's allocation was its discovery solve; every
        # later carrier solved with offsets
        assert len(solve_calls) < 2 * len(scenario.carriers)
        for cid in report.processing_order[1:]:
            assert any(c > 0.0 for c in report.offsets[cid].values())
        for c in scenario.carriers:
            users = [(uid, scenario.user(uid).utility)
                     for uid in scenario.covered_users(c.id)]
            found = offered_price(users, c.capacity)
            assert found.shadow_price == report.offered_prices[c.id]
            assert found.trace == report.offered_traces[c.id]
            entries = [(uid, u, report.offsets[c.id][uid]) for uid, u in users]
            fresh = dual_ascent(entries, c.capacity)
            assert fresh.shadow_price == report.allocation_prices[c.id]
            assert fresh.rates == report.rates[c.id]
            assert fresh.trace == report.allocation_traces[c.id]

    @pytest.mark.parametrize("scenario, carrier_id, capacities", [
        (two_carrier_nine_user(), 1, [50.0, 100.0, 100.0, 130.0, 200.0, 50.0]),
        (RING, 2, [45.0, 20.0, 90.0, 90.0, 45.0]),
    ])
    def test_sweep_points_equal_lone_runs(self, scenario, carrier_id, capacities):
        points = sweep(scenario, carrier_id, capacities)
        assert [cap for cap, _ in points] == capacities
        for cap, report in points:
            assert report == run(with_capacity(scenario, carrier_id, cap))

    def test_back_to_back_runs_share_nothing(self, solve_calls):
        scenario = two_carrier_nine_user(50.0, 100.0)
        run(scenario)
        first = list(solve_calls)
        solve_calls.clear()
        run(scenario)
        assert solve_calls == first
        assert [phase for phase, _ in first] == ["discovery", "discovery", "allocation"]

    def test_store_is_bound_to_the_users_tuple(self, solve_calls):
        # Same ids and capacities, but user 4 has another utility: the store
        # keys solves on ids and offsets, so it must not serve the first
        # point's solves to the second.
        first = two_carrier_nine_user(80.0, 100.0)
        users = tuple(
            UserSpec(u.id, Logarithmic(k=7.0, r_max=100.0), u.coverage)
            if u.id == 4 else u
            for u in first.users
        )
        second = Scenario(carriers=first.carriers, users=users)
        with protocol._reuse_between_points():
            run(first)
            solve_calls.clear()
            report = run(second)
        assert len(solve_calls) == 3
        assert report == run(second)
        assert report != run(first)

    def test_store_is_bound_to_the_params(self, solve_calls):
        # Keys hold no parameters: a point with unequal parameters must not
        # be served the previous point's solves, and one with equal but
        # distinct parameters is.
        scenario = two_carrier_nine_user(80.0, 100.0)
        loose = SolverParams(tol_r=1e-3)
        with protocol._reuse_between_points():
            run(scenario, loose)
            solve_calls.clear()
            report = run(scenario, SolverParams())
            assert len(solve_calls) == 3
            solve_calls.clear()
            run(scenario, SolverParams())
            assert solve_calls == []
        assert report == run(scenario)
        assert report != run(scenario, loose)

    def test_with_capacity_keeps_the_users_tuple(self):
        # which is what lets the points of a sweep share their solves
        scenario = two_carrier_nine_user()
        assert with_capacity(scenario, 1, 60.0).users is scenario.users

    def test_sweep_reuses_only_the_previous_point(self, solve_calls):
        sweep(two_carrier_nine_user(), 1, [60.0, 90.0, 60.0])
        # carrier 2 is discovered once; the third point repeats the first,
        # two points back, so carrier 1 is solved again in both phases
        assert solve_calls == [
            ("discovery", 60.0), ("discovery", 100.0), ("allocation", 60.0),
            ("discovery", 90.0), ("allocation", 90.0),
            ("discovery", 60.0), ("allocation", 60.0),
        ]
        assert protocol._sweep_solves.get() is None

    def test_scope_closes_when_a_sweep_point_fails(self, solve_calls):
        scenario = Scenario(
            carriers=(CarrierSpec(id=7, capacity=5.0),),
            users=(UserSpec(id=1, utility=Sigmoidal(a=5.0, b=10.0),
                            coverage=(7,)),),
        )
        with pytest.raises(ProtocolError, match="capacity 200"):
            sweep(scenario, 7, [5.0, 200.0])
        assert protocol._sweep_solves.get() is None
        solve_calls.clear()
        run(scenario)
        assert solve_calls == [("discovery", 5.0)]
