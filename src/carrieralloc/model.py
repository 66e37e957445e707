"""Scenario data model, validation, and JSON (de)serialization.

A scenario is a set of carriers (id, capacity) plus a set of users
(id, utility, ordered coverage list of carrier ids). Validation guarantees
the cross-references are consistent: coverage ids exist, every carrier
covers at least one user, and ids are unique. Rates and capacities are
dimensionless rate-units throughout.

Each rule has one copy, which direct construction and the JSON loader
share: the utility constructors check their parameters, and ``Scenario``
checks ids, coverage and capacities (``_capacity``). The loader checks only
the document's shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Union

from .errors import ScenarioError
from .utility import (
    BISECT_MAX_ITERS,
    EPS_RATE,
    TOL_RATE,
    Logarithmic,
    Sigmoidal,
    UtilityFunction,
    _is_number,
)


@dataclass(frozen=True)
class CarrierSpec:
    id: int
    capacity: float


@dataclass(frozen=True)
class UserSpec:
    id: int
    utility: UtilityFunction
    coverage: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    carriers: tuple[CarrierSpec, ...]
    users: tuple[UserSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "carriers", tuple(self.carriers))
        object.__setattr__(self, "users", tuple(self.users))
        _validate_scenario(self)
        covered: dict[int, list[int]] = {c.id: [] for c in self.carriers}
        for u in self.users:
            for cid in u.coverage:
                covered[cid].append(u.id)
        _set_indexes(
            self,
            {u.id: u for u in self.users},
            {cid: tuple(ids) for cid, ids in covered.items()},
        )

    def carrier_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.carriers)

    def user_ids(self) -> tuple[int, ...]:
        return tuple(u.id for u in self.users)

    def carrier(self, carrier_id: int) -> CarrierSpec:
        try:
            return self._carrier_index[carrier_id]
        except KeyError:
            raise KeyError(f"no carrier with id {carrier_id}") from None

    def user(self, user_id: int) -> UserSpec:
        try:
            return self._user_index[user_id]
        except KeyError:
            raise KeyError(f"no user with id {user_id}") from None

    def covered_users(self, carrier_id: int) -> tuple[int, ...]:
        """Ids of the users in the carrier's coverage set, in listing order."""
        return self._covered_index.get(carrier_id, ())


@dataclass(frozen=True)
class SolverParams:
    """Settings of the carrier solve: the one value a caller sets.

    max_outer_iters: cap on the price probes of one carrier solve.

    The rest are fixed class constants. ``eps_r`` is the floor of a user's
    rate at a price (``EPS_RATE``), and ``tol_r`` certifies the solve
    (``TOL_RATE``): it converges once no user's rate differs by more than
    that between the two ends of the price bracket. The solve reads both
    from ``utility`` directly, and its response cap from ``rate_cap_for``.
    It root-finds the market-clearing price and never runs the paper's
    clamped bid iteration (``_kernels_py.dual_ascent``), so ``delta``,
    ``l1``, ``l2`` and ``bisect_max_iters`` change no result either. The
    only readers of all six are the benchmark's solve hook
    (``perfbench/tracing.py``) and its residual check
    (``perfbench/checks.py``); they go when those stop reading them.
    """

    max_outer_iters: int = 10_000

    eps_r: ClassVar[float] = EPS_RATE
    tol_r: ClassVar[float] = TOL_RATE
    delta: ClassVar[float] = 1e-3
    l1: ClassVar[float] = 5.0
    l2: ClassVar[float] = 10.0
    bisect_max_iters: ClassVar[int] = BISECT_MAX_ITERS

    def __post_init__(self):
        n = self.max_outer_iters
        if not (_is_int(n) and n >= 1):
            raise ValueError(f"max_outer_iters must be an integer >= 1, got {n!r}")


# The JSON form of each utility type: its "type" name, and the keys of its
# parameters, which are also the constructor's, in the constructor's order.
_UTILITY_FORMS = {
    "sigmoidal": (Sigmoidal, ("a", "b")),
    "logarithmic": (Logarithmic, ("k", "r_max")),
}


def _is_int(v) -> bool:
    """An int; bools are not ints here, though they are in Python."""
    return isinstance(v, int) and not isinstance(v, bool)


def _capacity(carrier_id: int, capacity) -> float:
    """The capacity as a float; ScenarioError unless it is a finite number > 0.

    Bools and ints beyond the float range are not numbers here, and the
    message shows the value as given: -1, not -1.0.
    """
    if not (_is_number(capacity) and capacity > 0):
        raise ScenarioError(
            f"carrier {carrier_id}: capacity must be > 0, got {capacity!r}"
        )
    return float(capacity)


def _set_indexes(s: Scenario, user_index: dict, covered_index: dict) -> None:
    """Give ``s`` its lookup indexes: carriers by id, from ``s.carriers``, and
    the given users by id and covered user ids by carrier id.

    They are plain attributes rather than fields, so that ==, hash and repr
    see only the carriers and the users. The dicts are private and never
    mutated after they are built, so ``with_capacity`` shares the two that
    a capacity cannot change between a scenario and its copies.
    """
    object.__setattr__(s, "_carrier_index", {c.id: c for c in s.carriers})
    object.__setattr__(s, "_user_index", user_index)
    object.__setattr__(s, "_covered_index", covered_index)


def _check_ids(specs: tuple, kind: str) -> set[int]:
    """The ids of ``specs``, each an integer >= 1 and none repeated."""
    ids: set[int] = set()
    for i, x in enumerate(specs):
        if not (_is_int(x.id) and x.id >= 1):
            raise ScenarioError(f"{kind}s[{i}].id: must be an integer >= 1, got {x.id!r}")
        if x.id in ids:
            raise ScenarioError(f"{kind}s[{i}].id: duplicate {kind} id {x.id}")
        ids.add(x.id)
    return ids


def _validate_scenario(s: Scenario) -> None:
    if not s.carriers:
        raise ScenarioError("carriers: must not be empty")
    if not s.users:
        raise ScenarioError("users: must not be empty")
    carrier_ids = _check_ids(s.carriers, "carrier")
    for c in s.carriers:
        _capacity(c.id, c.capacity)
    _check_ids(s.users, "user")
    covered: set[int] = set()
    for u in s.users:
        if not isinstance(u.utility, UtilityFunction):
            raise ScenarioError(f"user {u.id}: utility must be Sigmoidal or Logarithmic")
        if not u.coverage:
            raise ScenarioError(f"user {u.id}: coverage must not be empty")
        seen = set()
        for cid in u.coverage:
            # True and 1.0 would pass for carrier 1 below, as they hash alike
            if not _is_int(cid):
                raise ScenarioError(f"user {u.id}: coverage id {cid!r} is not an integer")
            if cid in seen:
                raise ScenarioError(f"user {u.id}: duplicate carrier id {cid} in coverage")
            seen.add(cid)
            if cid not in carrier_ids:
                raise ScenarioError(
                    f"user {u.id}: coverage references unknown carrier id {cid}"
                )
        covered.update(u.coverage)
    for c in s.carriers:
        if c.id not in covered:
            raise ScenarioError(f"carrier {c.id}: no user covers it")


def _utility_from_dict(obj, where: str) -> UtilityFunction:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if not (isinstance(kind, str) and kind in _UTILITY_FORMS):
        names = " or ".join(map(repr, _UTILITY_FORMS))
        raise ScenarioError(f"{where}.type: expected {names}, got {kind!r}")
    cls, keys = _UTILITY_FORMS[kind]
    params = [obj.get(key) for key in keys]
    try:
        u = cls(*params)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from e
    # a loaded utility holds floats: JSON integers are converted once the
    # constructor has accepted them
    return u if all(type(p) is float for p in params) else cls(*map(float, params))


def parse_scenario(text: str) -> Scenario:
    """Build a validated Scenario from its JSON document.

    Schema::

        {"carriers": [{"id": 1, "capacity": 100}, ...],
         "users": [{"id": 1,
                    "utility": {"type": "sigmoidal", "a": 5, "b": 10}
                             | {"type": "logarithmic", "k": 15, "r_max": 100},
                    "coverage": [1, ...]}, ...]}

    Ids are integers >= 1, unique among the carriers and among the users;
    capacities and utility parameters are finite numbers > 0, loaded as
    floats; each coverage list names known carriers, none twice, and every
    carrier is covered by some user. Any other document raises
    ScenarioError, with the path of the offending value where it has one.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object at top level")
    for field_name in ("carriers", "users"):
        if field_name not in doc:
            raise ScenarioError(f"{field_name}: required field missing")
        if not isinstance(doc[field_name], list):
            raise ScenarioError(f"{field_name}: expected a list")

    carriers = []
    for i, c in enumerate(doc["carriers"]):
        if not isinstance(c, dict):
            raise ScenarioError(f"carriers[{i}]: expected an object")
        carriers.append(CarrierSpec(id=c.get("id"), capacity=c.get("capacity")))

    users = []
    for i, u in enumerate(doc["users"]):
        if not isinstance(u, dict):
            raise ScenarioError(f"users[{i}]: expected an object")
        coverage = u.get("coverage")
        if not isinstance(coverage, list):
            raise ScenarioError(f"users[{i}].coverage: must be a list of carrier ids")
        utility = _utility_from_dict(u.get("utility"), f"users[{i}].utility")
        users.append(UserSpec(id=u.get("id"), utility=utility, coverage=tuple(coverage)))

    s = Scenario(carriers=tuple(carriers), users=tuple(users))
    # a loaded capacity is a float too, converted once the scenario took it
    if any(type(c.capacity) is not float for c in carriers):
        carriers = [CarrierSpec(id=c.id, capacity=float(c.capacity)) for c in carriers]
        s = Scenario(carriers=tuple(carriers), users=s.users)
    return s


def _utility_to_dict(u: UtilityFunction) -> dict:
    for kind, (cls, keys) in _UTILITY_FORMS.items():
        if isinstance(u, cls):
            return {"type": kind, **{key: getattr(u, key) for key in keys}}


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "carriers": [{"id": c.id, "capacity": c.capacity} for c in s.carriers],
        "users": [
            {
                "id": u.id,
                "utility": _utility_to_dict(u.utility),
                "coverage": list(u.coverage),
            }
            for u in s.users
        ],
    }


def serialize_scenario(s: Scenario) -> str:
    """JSON document that parse_scenario maps back to an equal Scenario."""
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def load_scenario(path: Union[str, Path]) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {p}: {e}") from e
    return parse_scenario(text)


def with_capacity(s: Scenario, carrier_id: int, capacity: float) -> Scenario:
    """Copy of the scenario with one carrier's capacity replaced by float(capacity).

    Only the carrier id and the new capacity (see ``_capacity``) are
    validated: a capacity changes none of the rest, which ``s`` already
    validated, so the copy keeps ``s.users`` (the same object) and its user
    and coverage indexes, and rebuilds only its carriers and their index.
    It equals, and answers every lookup as, a Scenario built afresh from
    the new carriers and ``s.users``.

    A sweep makes one copy a point, so the copy and its new carrier are
    made without their frozen ``__init__``: each instance dict is filled in
    one update, not one ``object.__setattr__`` a field.
    """
    old = s._carrier_index.get(carrier_id)
    # True and 1.0 find carrier 1, as they hash alike, but are no carrier id
    if old is None or not _is_int(carrier_id):
        raise ScenarioError(f"no carrier with id {carrier_id}")
    new = object.__new__(CarrierSpec)
    new.__dict__.update(id=old.id, capacity=_capacity(carrier_id, capacity))
    carrier_index = s._carrier_index.copy()
    carrier_index[old.id] = new
    out = object.__new__(Scenario)
    out.__dict__.update(
        carriers=tuple(new if c.id == old.id else c for c in s.carriers),
        users=s.users,
        _carrier_index=carrier_index,
        _user_index=s._user_index,
        _covered_index=s._covered_index,
    )
    return out


def two_carrier_nine_user(r1: float = 100.0, r2: float = 100.0) -> Scenario:
    """Built-in benchmark scenario: two carriers, nine users in three groups.

    Users 1-3 see only carrier 1, users 7-9 only carrier 2, and users 4-6
    are joint users in both coverage areas, so each coverage set holds six
    users with the same multiset of utilities. Real-time (sigmoidal) and
    delay-tolerant (logarithmic) applications are mixed within each group.
    """
    return Scenario(
        carriers=(
            CarrierSpec(id=1, capacity=_capacity(1, r1)),
            CarrierSpec(id=2, capacity=_capacity(2, r2)),
        ),
        users=(
            UserSpec(id=1, utility=Sigmoidal(a=5.0, b=10.0), coverage=(1,)),
            UserSpec(id=2, utility=Sigmoidal(a=3.0, b=20.0), coverage=(1,)),
            UserSpec(id=3, utility=Logarithmic(k=15.0, r_max=100.0), coverage=(1,)),
            UserSpec(id=4, utility=Logarithmic(k=3.0, r_max=100.0), coverage=(1, 2)),
            UserSpec(id=5, utility=Logarithmic(k=0.5, r_max=100.0), coverage=(1, 2)),
            UserSpec(id=6, utility=Sigmoidal(a=1.0, b=30.0), coverage=(1, 2)),
            UserSpec(id=7, utility=Sigmoidal(a=5.0, b=10.0), coverage=(2,)),
            UserSpec(id=8, utility=Sigmoidal(a=3.0, b=20.0), coverage=(2,)),
            UserSpec(id=9, utility=Logarithmic(k=15.0, r_max=100.0), coverage=(2,)),
        ),
    )
