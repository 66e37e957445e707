"""Scenario model: validation, JSON round trips, and the built-in preset."""

import copy
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
    sweep,
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
        with pytest.raises(
            ScenarioError,
            match=r"^users\[0\]\.utility: sigmoidal steepness a must be > 0, got 0$",
        ):
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

    @pytest.mark.parametrize("carrier_id", [True, 1.0], ids=["True", "1.0"])
    def test_a_key_equal_to_an_id_is_no_carrier_id(self, carrier_id):
        # True and 1.0 hash as 1 does, so they silently selected carrier 1
        s = two_carrier_nine_user()
        want = f"no carrier with id {carrier_id}$"
        with pytest.raises(ScenarioError, match=want):
            with_capacity(s, carrier_id, 60.0)
        with pytest.raises(ScenarioError, match=want):
            sweep(s, carrier_id, [60.0])

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

    def test_int_capacities_are_held_as_floats(self):
        s = two_carrier_nine_user(175, 60)
        assert [type(c.capacity) for c in s.carriers] == [float, float]
        assert s == two_carrier_nine_user(175.0, 60.0)

    @pytest.mark.parametrize("capacities, want", [
        ((True,), "carrier 1: capacity must be > 0, got True"),
        (("1e2",), "carrier 1: capacity must be > 0, got '1e2'"),
        ((100.0, 0), "carrier 2: capacity must be > 0, got 0"),
    ], ids=["True", "str", "zero"])
    def test_capacity_that_is_no_positive_number_rejected(self, capacities, want):
        # float() made True 1.0 and "1e2" 100.0 before any check
        with pytest.raises(ScenarioError, match=re.escape(want) + "$"):
            two_carrier_nine_user(*capacities)


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


# One valid document, and the rows of the table below: a path into it and
# the value put there, each of which both entry points must reject.
BASE_DOC = {
    "carriers": [{"id": 1, "capacity": 100.0}, {"id": 2, "capacity": 50.0}],
    "users": [
        {"id": 1, "utility": {"type": "sigmoidal", "a": 5.0, "b": 10.0}, "coverage": [1]},
        {"id": 2, "utility": {"type": "logarithmic", "k": 15.0, "r_max": 100.0},
         "coverage": [1, 2]},
    ],
}
_CARRIER, _USER = ("carriers", 0), ("users", 0)
INVALID_INPUTS = {
    "carrier id True": (_CARRIER + ("id",), True),
    "carrier id 1.0": (_CARRIER + ("id",), 1.0),
    "carrier id 0": (_CARRIER + ("id",), 0),
    "carrier id -1": (_CARRIER + ("id",), -1),
    "user id True": (_USER + ("id",), True),
    "user id 1.0": (_USER + ("id",), 1.0),
    "user id 0": (_USER + ("id",), 0),
    "coverage id True": (_USER + ("coverage", 0), True),
    "coverage id 1.0": (_USER + ("coverage", 0), 1.0),
    "coverage id 2.0": (("users", 1, "coverage", 1), 2.0),
    "capacity 0": (_CARRIER + ("capacity",), 0),
    "capacity nan": (_CARRIER + ("capacity",), math.nan),
    "capacity True": (_CARRIER + ("capacity",), True),
    "capacity str": (_CARRIER + ("capacity",), "100"),
    "capacity 1e400": (_CARRIER + ("capacity",), 10**400),
    "sigmoidal a 0": (_USER + ("utility", "a"), 0),
    "sigmoidal a True": (_USER + ("utility", "a"), True),
    "sigmoidal b -1": (_USER + ("utility", "b"), -1.0),
    "sigmoidal b str": (_USER + ("utility", "b"), "10"),
    "logarithmic k 0": (("users", 1, "utility", "k"), 0),
    "logarithmic k nan": (("users", 1, "utility", "k"), math.nan),
    "logarithmic r_max 1e400": (("users", 1, "utility", "r_max"), 10**400),
    "logarithmic r_max missing": (("users", 1, "utility", "r_max"), None),
}


def _build_directly(doc) -> Scenario:
    """The scenario ``doc`` describes, built from the model types, not from JSON."""
    kinds = {"sigmoidal": Sigmoidal, "logarithmic": Logarithmic}
    users = []
    for u in doc["users"]:
        params = {k: v for k, v in u["utility"].items() if k != "type"}
        utility = kinds[u["utility"]["type"]](**params)
        users.append(UserSpec(id=u["id"], utility=utility, coverage=tuple(u["coverage"])))
    carriers = [CarrierSpec(id=c["id"], capacity=c["capacity"]) for c in doc["carriers"]]
    return Scenario(carriers=tuple(carriers), users=tuple(users))


def test_base_document_is_valid_through_both_entry_points():
    assert parse_scenario(json.dumps(BASE_DOC)) == _build_directly(BASE_DOC)


@pytest.mark.parametrize("path, value", INVALID_INPUTS.values(), ids=INVALID_INPUTS)
def test_both_entry_points_reject_the_same_inputs(path, value):
    # a coverage id of True or 1.0 was rejected only by the JSON loader:
    # the scenario built directly ran, and serialized to a document that
    # the loader rejected
    doc = copy.deepcopy(BASE_DOC)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(doc))
    # a utility constructor raises ValueError; the loader wraps it
    with pytest.raises(ValueError):
        _build_directly(doc)
