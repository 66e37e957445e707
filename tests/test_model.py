"""Scenario model: validation, JSON round trips, and the built-in preset."""

import dataclasses
import json
import math
import re
import sys

import pytest

from carrieralloc import (
    EPS_RATE,
    TOL_RATE,
    CarrierSpec,
    Logarithmic,
    Scenario,
    ScenarioError,
    Sigmoidal,
    SolverParams,
    UserSpec,
    parse_scenario,
    serialize_scenario,
    two_carrier_nine_user,
    with_capacity,
)

VALID_DOC = """
{
  "carriers": [{"id": 1, "capacity": 100}, {"id": 2, "capacity": 50}],
  "users": [
    {"id": 1, "utility": {"type": "sigmoidal", "a": 5, "b": 10}, "coverage": [1]},
    {"id": 2, "utility": {"type": "logarithmic", "k": 15, "r_max": 100}, "coverage": [1, 2]}
  ]
}
"""


class TestParse:
    def test_valid_document(self):
        s = parse_scenario(VALID_DOC)
        assert s.carrier_ids() == (1, 2)
        assert s.user_ids() == (1, 2)
        assert s.user(1).utility == Sigmoidal(a=5.0, b=10.0)
        assert s.user(2).coverage == (1, 2)
        assert s.covered_users(1) == (1, 2)
        assert s.covered_users(2) == (2,)

    def test_single_carrier_single_user(self):
        s = parse_scenario(json.dumps({
            "carriers": [{"id": 1, "capacity": 10}],
            "users": [{"id": 1,
                       "utility": {"type": "logarithmic", "k": 15, "r_max": 100},
                       "coverage": [1]}],
        }))
        assert s.covered_users(1) == (1,)

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            parse_scenario("{not json")

    def test_unknown_carrier_in_coverage_names_user_and_id(self):
        doc = json.loads(VALID_DOC)
        doc["users"][1]["coverage"] = [1, 99]
        with pytest.raises(ScenarioError, match=r"user 2.*unknown carrier id 99"):
            parse_scenario(json.dumps(doc))

    def test_empty_coverage(self):
        doc = json.loads(VALID_DOC)
        doc["users"][0]["coverage"] = []
        doc["users"][1]["coverage"] = [1, 2]
        with pytest.raises(ScenarioError, match="user 1: coverage must not be empty"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_carrier_id(self):
        doc = json.loads(VALID_DOC)
        doc["carriers"][1]["id"] = 1
        with pytest.raises(ScenarioError, match="duplicate carrier id 1"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_user_id(self):
        doc = json.loads(VALID_DOC)
        doc["users"][1]["id"] = 1
        with pytest.raises(ScenarioError, match="duplicate user id 1"):
            parse_scenario(json.dumps(doc))

    def test_nonpositive_capacity(self):
        doc = json.loads(VALID_DOC)
        doc["carriers"][0]["capacity"] = -5
        with pytest.raises(ScenarioError, match="carrier 1: capacity must be > 0"):
            parse_scenario(json.dumps(doc))

    def test_nonpositive_utility_parameter(self):
        doc = json.loads(VALID_DOC)
        doc["users"][0]["utility"]["a"] = 0
        with pytest.raises(ScenarioError, match=r"users\[0\].utility.a"):
            parse_scenario(json.dumps(doc))

    def test_unknown_utility_type(self):
        doc = json.loads(VALID_DOC)
        doc["users"][0]["utility"] = {"type": "step", "a": 5, "b": 10}
        with pytest.raises(ScenarioError, match="expected 'sigmoidal' or 'logarithmic'"):
            parse_scenario(json.dumps(doc))

    def test_carrier_covering_no_user_rejected(self):
        doc = json.loads(VALID_DOC)
        doc["users"][1]["coverage"] = [1]
        with pytest.raises(ScenarioError, match="carrier 2: no user covers it"):
            parse_scenario(json.dumps(doc))


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        s = parse_scenario(VALID_DOC)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_preset_round_trip(self):
        s = two_carrier_nine_user(130.0, 100.0)
        assert parse_scenario(serialize_scenario(s)) == s


class TestScenarioConsistency:
    def test_coverage_sets_mutually_consistent(self):
        s = two_carrier_nine_user()
        for u in s.users:
            for cid in s.carrier_ids():
                assert (cid in u.coverage) == (u.id in s.covered_users(cid))

    def test_with_capacity_replaces_single_carrier(self):
        s = two_carrier_nine_user(100.0, 100.0)
        s2 = with_capacity(s, 1, 60.0)
        assert s2.carrier(1).capacity == 60.0
        assert s2.carrier(2).capacity == 100.0
        assert s2.users == s.users

    def test_with_capacity_unknown_carrier(self):
        with pytest.raises(ScenarioError, match="no carrier with id 7"):
            with_capacity(two_carrier_nine_user(), 7, 50.0)

    @pytest.mark.parametrize(
        "capacity",
        [True, False, 10**400, -10**400, -1, 0, 0.0, -2.5, math.inf, math.nan, "60"],
        ids=["True", "False", "1e400", "-1e400", "-1", "0", "0.0", "-2.5", "inf", "nan",
             "str"],
    )
    def test_with_capacity_rejects_what_is_no_positive_number(self, capacity):
        # True was taken as 1.0 and 10**400 raised OverflowError; the message
        # shows the value as given, -1 and not -1.0
        s = two_carrier_nine_user()
        want = f"carrier 1: capacity must be > 0, got {capacity!r}"
        with pytest.raises(ScenarioError, match=re.escape(want) + "$"):
            with_capacity(s, 1, capacity)
        assert s.carrier(1).capacity == 100.0


class TestPreset:
    def test_group_coverage(self):
        s = two_carrier_nine_user()
        assert s.covered_users(1) == (1, 2, 3, 4, 5, 6)
        assert s.covered_users(2) == (4, 5, 6, 7, 8, 9)

    def test_utilities(self):
        s = two_carrier_nine_user()
        assert s.user(1).utility == Sigmoidal(a=5.0, b=10.0)
        assert s.user(2).utility == Sigmoidal(a=3.0, b=20.0)
        assert s.user(3).utility == Logarithmic(k=15.0, r_max=100.0)
        assert s.user(4).utility == Logarithmic(k=3.0, r_max=100.0)
        assert s.user(5).utility == Logarithmic(k=0.5, r_max=100.0)
        assert s.user(6).utility == Sigmoidal(a=1.0, b=30.0)
        assert s.user(7).utility == s.user(1).utility
        assert s.user(8).utility == s.user(2).utility
        assert s.user(9).utility == s.user(3).utility

    def test_capacities_parameterizable(self):
        s = two_carrier_nine_user(175.0)
        assert s.carrier(1).capacity == 175.0
        assert s.carrier(2).capacity == 100.0


class TestSolverParams:
    def test_defaults(self):
        p = SolverParams()
        assert p.max_outer_iters == 10_000
        assert p.eps_r == EPS_RATE
        assert p.tol_r == TOL_RATE

    def test_fields_are_the_one_a_caller_sets(self):
        names = [f.name for f in dataclasses.fields(SolverParams)]
        assert names == ["max_outer_iters"]
        # the rate floor and the certifying tolerance are constants, and the
        # response cap is always rate_cap_for's
        for name, value in (("eps_r", EPS_RATE), ("tol_r", TOL_RATE), ("rate_cap", 1e3)):
            with pytest.raises(TypeError):
                SolverParams(**{name: value})

    def test_clamped_iteration_settings_are_constants(self):
        # read by the benchmark only; no solve runs the clamped iteration
        p = SolverParams()
        assert (p.delta, p.l1, p.l2, p.bisect_max_iters) == (1e-3, 5.0, 10.0, 200)
        for name in ("delta", "l1", "l2", "bisect_max_iters"):
            with pytest.raises(TypeError):
                SolverParams(**{name: getattr(p, name)})

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_invalid_parameters(self, n):
        with pytest.raises(ValueError):
            SolverParams(max_outer_iters=n)


@pytest.mark.parametrize("make", [
    lambda: SolverParams(max_outer_iters=True),
    lambda: Sigmoidal(True, 20.0),
    lambda: Sigmoidal(5.0, True),
    lambda: Logarithmic(True, 100.0),
    lambda: Logarithmic(15.0, True),
], ids=["max_outer_iters",
        "sigmoidal.a", "sigmoidal.b", "logarithmic.k", "logarithmic.r_max"])
def test_bools_are_not_numbers(make):
    # as in the JSON loader: True would silently count as 1, so that
    # max_outer_iters=True capped every solve at one probe
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [
    lambda: Sigmoidal(10**400, 20.0),
    lambda: Sigmoidal(5.0, 10**400),
    lambda: Logarithmic(10**400, 100.0),
    lambda: Logarithmic(15.0, 10**400),
], ids=["sigmoidal.a", "sigmoidal.b", "logarithmic.k", "logarithmic.r_max"])
def test_ints_beyond_the_float_range_are_not_numbers(make):
    # math.isfinite would raise OverflowError on them, not a ValueError
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("field, value", [("capacity", 100), ("a", 5), ("k", 15)])
def test_json_integer_beyond_the_float_range_rejected(field, value):
    doc = VALID_DOC.replace(f'"{field}": {value}', f'"{field}": 1{"0" * 400}')
    assert doc != VALID_DOC
    with pytest.raises(ScenarioError, match=field):
        parse_scenario(doc)


def test_largest_float_and_an_int_equal_to_it_are_numbers():
    big = int(sys.float_info.max)
    assert Logarithmic(15.0, big).r_max == big
    assert Logarithmic(15.0, sys.float_info.max).r_max == sys.float_info.max


class TestDirectConstruction:
    def test_duplicate_coverage_entry_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate carrier id 1 in coverage"):
            Scenario(
                carriers=(CarrierSpec(id=1, capacity=10.0),),
                users=(UserSpec(id=1, utility=Sigmoidal(a=1.0, b=1.0),
                                coverage=(1, 1)),),
            )

    def test_empty_carriers_rejected(self):
        with pytest.raises(ScenarioError, match="carriers: must not be empty"):
            Scenario(carriers=(), users=())
