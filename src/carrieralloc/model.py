"""Scenario data model, validation, and JSON (de)serialization.

A scenario is a set of carriers (id, capacity) plus a set of users
(id, utility, ordered coverage list of carrier ids). Validation guarantees
the cross-references are consistent: coverage ids exist, every carrier
covers at least one user, and ids are unique. Rates and capacities are
dimensionless rate-units throughout.
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
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"max_outer_iters must be an integer >= 1, got {n!r}")


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


def _validate_scenario(s: Scenario) -> None:
    if not s.carriers:
        raise ScenarioError("carriers: must not be empty")
    if not s.users:
        raise ScenarioError("users: must not be empty")
    carrier_ids = set()
    for i, c in enumerate(s.carriers):
        if not isinstance(c.id, int) or isinstance(c.id, bool) or c.id < 1:
            raise ScenarioError(f"carriers[{i}].id: must be an integer >= 1, got {c.id!r}")
        if c.id in carrier_ids:
            raise ScenarioError(f"carriers[{i}].id: duplicate carrier id {c.id}")
        carrier_ids.add(c.id)
        if not _is_number(c.capacity) or c.capacity <= 0:
            raise ScenarioError(
                f"carrier {c.id}: capacity must be > 0, got {c.capacity!r}"
            )
    user_ids = set()
    covered: set[int] = set()
    for i, u in enumerate(s.users):
        if not isinstance(u.id, int) or isinstance(u.id, bool) or u.id < 1:
            raise ScenarioError(f"users[{i}].id: must be an integer >= 1, got {u.id!r}")
        if u.id in user_ids:
            raise ScenarioError(f"users[{i}].id: duplicate user id {u.id}")
        user_ids.add(u.id)
        if not isinstance(u.utility, (Sigmoidal, Logarithmic)):
            raise ScenarioError(f"user {u.id}: utility must be Sigmoidal or Logarithmic")
        if not u.coverage:
            raise ScenarioError(f"user {u.id}: coverage must not be empty")
        seen = set()
        for cid in u.coverage:
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
    if kind == "sigmoidal":
        for f in ("a", "b"):
            if not _is_number(obj.get(f)) or obj[f] <= 0:
                raise ScenarioError(f"{where}.{f}: must be a positive number")
        try:
            return Sigmoidal(a=float(obj["a"]), b=float(obj["b"]))
        except ValueError as e:
            raise ScenarioError(f"{where}: {e}") from e
    if kind == "logarithmic":
        for f in ("k", "r_max"):
            if not _is_number(obj.get(f)) or obj[f] <= 0:
                raise ScenarioError(f"{where}.{f}: must be a positive number")
        try:
            return Logarithmic(k=float(obj["k"]), r_max=float(obj["r_max"]))
        except ValueError as e:
            raise ScenarioError(f"{where}: {e}") from e
    raise ScenarioError(
        f"{where}.type: expected 'sigmoidal' or 'logarithmic', got {kind!r}"
    )


def parse_scenario(text: str) -> Scenario:
    """Build a validated Scenario from its JSON document.

    Schema::

        {"carriers": [{"id": 1, "capacity": 100}, ...],
         "users": [{"id": 1,
                    "utility": {"type": "sigmoidal", "a": 5, "b": 10}
                             | {"type": "logarithmic", "k": 15, "r_max": 100},
                    "coverage": [1, ...]}, ...]}
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
        cid = c.get("id")
        if not isinstance(cid, int) or isinstance(cid, bool):
            raise ScenarioError(f"carriers[{i}].id: must be an integer")
        if not _is_number(c.get("capacity")):
            raise ScenarioError(f"carriers[{i}].capacity: must be a number")
        carriers.append(CarrierSpec(id=cid, capacity=float(c["capacity"])))

    users = []
    for i, u in enumerate(doc["users"]):
        if not isinstance(u, dict):
            raise ScenarioError(f"users[{i}]: expected an object")
        uid = u.get("id")
        if not isinstance(uid, int) or isinstance(uid, bool):
            raise ScenarioError(f"users[{i}].id: must be an integer")
        coverage = u.get("coverage")
        if not isinstance(coverage, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in (coverage or [])
        ):
            raise ScenarioError(f"users[{i}].coverage: must be a list of carrier ids")
        utility = _utility_from_dict(u.get("utility"), f"users[{i}].utility")
        users.append(UserSpec(id=uid, utility=utility, coverage=tuple(coverage)))

    return Scenario(carriers=tuple(carriers), users=tuple(users))


def _utility_to_dict(u: UtilityFunction) -> dict:
    if isinstance(u, Sigmoidal):
        return {"type": "sigmoidal", "a": u.a, "b": u.b}
    return {"type": "logarithmic", "k": u.k, "r_max": u.r_max}


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

    Only the carrier and the new capacity are validated: the capacity must
    be a finite number > 0, and bools and ints beyond the float range are
    not numbers here. A capacity changes none of the rest, which ``s``
    already validated, so the copy keeps ``s.users`` (the same object) and
    its user and coverage indexes, and rebuilds only its carriers and their
    index. It equals, and answers every lookup as, a Scenario built afresh
    from the new carriers and ``s.users``.
    """
    if carrier_id not in s._carrier_index:
        raise ScenarioError(f"no carrier with id {carrier_id}")
    if not (_is_number(capacity) and capacity > 0):
        raise ScenarioError(
            f"carrier {carrier_id}: capacity must be > 0, got {capacity!r}"
        )
    capacity = float(capacity)
    out = object.__new__(Scenario)
    object.__setattr__(out, "carriers", tuple(
        CarrierSpec(c.id, capacity) if c.id == carrier_id else c for c in s.carriers
    ))
    object.__setattr__(out, "users", s.users)
    _set_indexes(out, s._user_index, s._covered_index)
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
            CarrierSpec(id=1, capacity=float(r1)),
            CarrierSpec(id=2, capacity=float(r2)),
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
