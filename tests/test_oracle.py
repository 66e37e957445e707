"""Centralized reference solver: known optima, KKT structure, comparisons."""

import math

import pytest

from carrieralloc import (
    CentralizedInstance,
    Logarithmic,
    OracleError,
    Sigmoidal,
    compare,
    dual_ascent,
    log_marginal,
    offered_price,
    solve_centralized,
)
from carrieralloc.oracle import objective


class TestInstanceValidation:
    """An int beyond the float range raised OverflowError; bools passed as 0 and 1."""

    U = Logarithmic(k=15.0, r_max=100.0)

    @pytest.mark.parametrize("bad", [10**400, True, False, math.inf, 0.0],
                             ids=["1e400", "True", "False", "inf", "zero"])
    def test_capacity_that_is_no_positive_float_rejected(self, bad):
        with pytest.raises(ValueError, match="capacity"):
            CentralizedInstance(entries=((1, self.U, 0.0),), capacity=bad)

    @pytest.mark.parametrize("bad", [10**400, True, False, math.nan, -1.0],
                             ids=["1e400", "True", "False", "nan", "negative"])
    def test_offset_that_is_no_float_rejected(self, bad):
        with pytest.raises(ValueError, match="user 2: offset"):
            CentralizedInstance(entries=((1, self.U, 0.0), (2, self.U, bad)), capacity=10.0)

    def test_int_capacity_and_offset_accepted(self):
        inst = CentralizedInstance(entries=((1, self.U, 0), (2, self.U, 5)), capacity=10)
        assert inst.capacity == 10


class TestSolveCentralized:
    def test_single_user_takes_full_capacity(self):
        inst = CentralizedInstance(
            entries=((1, Logarithmic(k=15.0, r_max=100.0), 0.0),), capacity=10.0
        )
        assert solve_centralized(inst) == {1: 10.0}

    def test_identical_users_split_evenly(self):
        for u in (Logarithmic(k=15.0, r_max=100.0), Sigmoidal(a=5.0, b=10.0)):
            inst = CentralizedInstance(
                entries=((1, u, 0.0), (2, u, 0.0)), capacity=20.0
            )
            rates = solve_centralized(inst)
            assert rates[1] == pytest.approx(10.0, abs=1e-8)
            assert rates[2] == pytest.approx(10.0, abs=1e-8)

    def test_offset_user_starved(self):
        u = Logarithmic(k=15.0, r_max=100.0)
        inst = CentralizedInstance(
            entries=((1, u, 10.0), (2, u, 0.0)), capacity=10.0
        )
        rates = solve_centralized(inst)
        assert rates[1] < rates[2]
        assert rates[2] == pytest.approx(10.0, abs=1e-8)
        # funded user's marginal at (r+c) cannot exceed the starved user's
        mu1 = log_marginal(u, max(rates[1], 1e-9) + 10.0)
        mu2 = log_marginal(u, rates[2])
        assert mu1 == pytest.approx(mu2, rel=1e-8)

    def test_mixed_three_user_kkt(self):
        inst = CentralizedInstance(
            entries=(
                (1, Sigmoidal(a=3.0, b=20.0), 0.0),
                (2, Logarithmic(k=3.0, r_max=100.0), 5.0),
                (3, Logarithmic(k=0.5, r_max=100.0), 0.0),
            ),
            capacity=60.0,
        )
        rates = solve_centralized(inst)
        assert sum(rates.values()) == pytest.approx(60.0, rel=1e-9)
        marginals = [
            log_marginal(u, rates[uid] + c)
            for uid, u, c in inst.entries
            if rates[uid] > 1e-6
        ]
        spread = max(marginals) - min(marginals)
        assert spread <= 1e-8 * max(marginals)

    def test_grid_refinement_matches_gradient_path(self):
        # two users is exactly where the evaluation-only grid cross-checks
        inst = CentralizedInstance(
            entries=(
                (1, Sigmoidal(a=5.0, b=10.0), 0.0),
                (2, Logarithmic(k=0.5, r_max=100.0), 3.0),
            ),
            capacity=40.0,
        )
        rates = solve_centralized(inst)
        assert sum(rates.values()) == pytest.approx(40.0, rel=1e-9)
        mus = [log_marginal(u, rates[uid] + c) for uid, u, c in inst.entries]
        assert mus[0] == pytest.approx(mus[1], rel=1e-8)

    def test_feasible_by_construction(self):
        inst = CentralizedInstance(
            entries=(
                (1, Logarithmic(k=15.0, r_max=100.0), 0.0),
                (2, Sigmoidal(a=1.0, b=30.0), 12.0),
                (3, Logarithmic(k=3.0, r_max=100.0), 40.0),
            ),
            capacity=25.0,
        )
        rates = solve_centralized(inst)
        assert all(r >= 0 for r in rates.values())
        assert sum(rates.values()) <= 25.0 + 1e-9


class TestAgainstTheSolver:
    """The bisection agrees with dual_ascent to rounding, not to a tolerance."""

    LOG15 = Logarithmic(k=15.0, r_max=100.0)
    FOUR = (
        (1, Sigmoidal(a=5.0, b=10.0), 0.0),
        (2, Sigmoidal(a=3.0, b=20.0), 0.0),
        (3, Logarithmic(k=15.0, r_max=100.0), 0.0),
        (4, Logarithmic(k=3.0, r_max=100.0), 8.0),
    )
    INSTANCES = [
        (((1, LOG15, 0.0),), 10.0),
        (((1, LOG15, 0.0), (2, LOG15, 0.0)), 20.0),
        (((1, Sigmoidal(a=5.0, b=10.0), 0.0), (2, Sigmoidal(a=5.0, b=10.0), 0.0)), 20.0),
        (((1, LOG15, 10.0), (2, LOG15, 0.0)), 10.0),
        (((1, Sigmoidal(a=3.0, b=20.0), 0.0),
          (2, Logarithmic(k=3.0, r_max=100.0), 5.0),
          (3, Logarithmic(k=0.5, r_max=100.0), 0.0)), 60.0),
        (((1, Sigmoidal(a=5.0, b=10.0), 0.0),
          (2, Logarithmic(k=0.5, r_max=100.0), 3.0)), 40.0),
        (((1, LOG15, 0.0),
          (2, Sigmoidal(a=1.0, b=30.0), 12.0),
          (3, Logarithmic(k=3.0, r_max=100.0), 40.0)), 25.0),
        (FOUR, 50.0),
        (FOUR, 100.0),
    ]

    @pytest.mark.parametrize("entries, capacity", INSTANCES)
    def test_agrees_with_dual_ascent(self, entries, capacity):
        alg = dual_ascent(list(entries), capacity)
        assert alg.converged
        rates = solve_centralized(CentralizedInstance(entries=entries, capacity=capacity))
        assert compare(alg.rates, rates, 1e-10).max_deviation <= 1e-10

    def test_marginal_that_underflows_to_zero_brackets_no_price(self):
        # log_marginal of Sigmoidal(5, 10) is 0.0 from r = 159.03 on, so no
        # positive price makes one user demand 200
        inst = CentralizedInstance(entries=((1, Sigmoidal(a=5.0, b=10.0), 0.0),), capacity=200.0)
        with pytest.raises(OracleError, match="no positive price"):
            solve_centralized(inst)

    def test_subnormal_clearing_price_gives_the_one_user_optimum(self):
        # the marginal at 153 is 1.5e-310, below the normal floats that the
        # solver searches, so the solver reports no convergence
        u = Sigmoidal(a=5.0, b=10.0)
        assert not offered_price([(1, u)], 153.0).converged
        inst = CentralizedInstance(entries=((1, u, 0.0),), capacity=153.0)
        assert solve_centralized(inst) == {1: 153.0}

    def test_grid_catches_a_wrong_marginal(self, monkeypatch):
        # a doubled marginal for user 1 moves the bisection's split; the
        # grid, which reads only log_utility, then finds a better objective
        u1, u2 = Sigmoidal(a=5.0, b=10.0), Logarithmic(k=0.5, r_max=100.0)
        inst = CentralizedInstance(entries=((1, u1, 0.0), (2, u2, 3.0)), capacity=40.0)
        monkeypatch.setattr(
            "carrieralloc.oracle.log_marginal",
            lambda u, r: log_marginal(u, r) * (2.0 if u is u1 else 1.0),
        )
        with pytest.raises(OracleError, match="grid objective"):
            solve_centralized(inst)


class TestObjectiveDominance:
    @pytest.mark.parametrize("capacity", [50.0, 100.0])
    def test_oracle_at_least_as_good_as_iterative(self, capacity):
        entries = (
            (1, Sigmoidal(a=5.0, b=10.0), 0.0),
            (2, Sigmoidal(a=3.0, b=20.0), 0.0),
            (3, Logarithmic(k=15.0, r_max=100.0), 0.0),
            (4, Logarithmic(k=3.0, r_max=100.0), 8.0),
        )
        inst = CentralizedInstance(entries=entries, capacity=capacity)
        oracle_rates = solve_centralized(inst)
        alg_rates = dual_ascent(list(entries), capacity).rates
        assert objective(inst, oracle_rates) >= objective(inst, alg_rates) - 1e-6


class TestCompare:
    def test_identical_vectors_pass(self):
        res = compare({1: 10.0, 2: 5.0}, {1: 10.0, 2: 5.0}, 1e-2)
        assert res.max_deviation == 0.0
        assert res.passed

    def test_small_deviation_passes(self):
        res = compare({1: 10.0}, {1: 10.05}, 1e-2)
        assert res.max_deviation == pytest.approx(0.05 / 10.05, rel=1e-12)
        assert res.passed

    def test_large_deviation_fails(self):
        res = compare({1: 10.0}, {1: 11.0}, 1e-2)
        assert res.max_deviation == pytest.approx(1.0 / 11.0, rel=1e-12)
        assert not res.passed

    def test_small_rates_compared_absolutely(self):
        # denominator floors at 1, so tiny oracle rates do not blow up
        res = compare({1: 0.001}, {1: 0.0}, 1e-2)
        assert res.max_deviation == pytest.approx(0.001)
        assert res.passed

    def test_mismatched_user_sets_rejected(self):
        with pytest.raises(ValueError, match="user sets differ"):
            compare({1: 10.0}, {2: 10.0}, 1e-2)
