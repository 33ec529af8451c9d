"""Declarative tuning files: parse, validate, diff, and static balance checks.

A tuning file is one JSON document describing a complete game build:
resources, actions, timed events with XP step rewards, careers,
relationship event chains, and purchasable objects. Parsing is strict
(unknown or missing fields are schema errors); semantic rules such as
reference resolution and monotone thresholds are reported as
diagnostics. The file format is documented in docs/tuning-schema.md.
The parser, the serializer and the differ all walk one field plan per
dataclass, so the three cannot disagree about the schema. The same plan
reads and writes the experiment suite's entries (`Codec`): goals,
heuristics, scenarios, agents and policies. A field typed as a union of
dataclasses is a tagged choice: the object's `kind` names its member.

Configs are immutable after parse and safe to share across concurrent
simulation trials.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import UnionType
from typing import (
    Any, Callable, NamedTuple, Union, get_args, get_origin, get_type_hints,
)

from .errors import (
    DanglingReference,
    InvariantViolation,
    SchemaError,
    TuningSyntaxError,
    UnknownEvent,
)

SCHEMA_VERSION = 1

EVENT_KINDS = ("career", "relationship")


class InvalidField(ValueError):
    """A dataclass check that fails one field. Decoding reports it at the
    field's path, as a SchemaError `<path>.<field>: <reason>`."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason

    def __reduce__(self):
        return type(self), (self.field, self.reason)


def absent(factory: Callable[[], Any]) -> Any:
    """A field with no dataclass default whose JSON key may be left out:
    an absent key decodes as factory(). The field is always written."""
    return field(metadata={"absent": factory})


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class RewardBundle:
    career_xp: int = 0
    event_xp: int = 0
    relationship_xp: int = 0
    resources: dict[str, int] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)


@dataclass
class RequirementSet:
    career: str | None = None
    min_level: int = 1
    owned_object: str | None = None
    during_event: bool = False


@dataclass
class ResourceSpec:
    id: str
    capacity: int
    regen_rate: Fraction  # units per in-game minute
    initial: int


@dataclass
class ActionSpec:
    id: str
    duration: int  # in-game minutes the avatar is locked
    cooldown: int = 0  # extra minutes after the lock before a repeat
    costs: dict[str, int] = field(default_factory=dict)
    consumes_items: dict[str, int] = field(default_factory=dict)
    rewards: RewardBundle = field(default_factory=RewardBundle)
    requires: RequirementSet = field(default_factory=RequirementSet)
    category_tag: str = ""
    delayed_effect: str | None = None  # annotation only; planners ignore it


@dataclass
class EventStep:
    xp_threshold: int
    reward: RewardBundle = absent(RewardBundle)


@dataclass
class EventSpec:
    id: str
    kind: str = field(metadata={"choices": EVENT_KINDS})
    owner_id: str
    time_limit: int
    action_ids: list[str] = absent(list)
    steps: list[EventStep]
    start_requires: RequirementSet = field(default_factory=RequirementSet)

    @property
    def final_threshold(self) -> int:
        return self.steps[-1].xp_threshold


@dataclass
class ObjectUnlock:
    object_id: str = field(metadata={"key": "object"})
    unlock_level: int
    price_rho: int  # units of the shared resource spent to buy it


@dataclass
class CareerSpec:
    id: str
    max_level: int
    # xp_per_level[k-1] is the cumulative XP at which the career holds
    # level k; the first entry is the level-1 baseline (held from start).
    xp_per_level: list[int]
    events_by_level: dict[int, list[str]] = field(default_factory=dict)
    craft_items: list[str] = field(default_factory=list)
    object_unlocks: list[ObjectUnlock] = field(default_factory=list)

    def xp_for_level(self, level: int) -> int:
        return self.xp_per_level[level - 1]

    def level_for_xp(self, xp: int) -> int:
        level = 1
        for k in range(2, self.max_level + 1):
            if xp >= self.xp_per_level[k - 1]:
                level = k
            else:
                break
        return level


@dataclass
class RelationshipCategorySpec:
    id: str
    event_chain: list[str]


@dataclass
class ObjectSpec:
    id: str
    unlocked_action_ids: list[str]


@dataclass
class TuningConfig:
    build_id: str
    resources: list[ResourceSpec]
    actions: list[ActionSpec]
    events: list[EventSpec]
    careers: list[CareerSpec]
    relationships: list[RelationshipCategorySpec]
    objects: list[ObjectSpec]
    _index: "ConfigIndex | None" = field(
        default=None, repr=False, compare=False
    )

    def index(self) -> "ConfigIndex":
        if self._index is None:
            self._index = ConfigIndex(self)
        return self._index


class ConfigIndex:
    """The lookup tables that a build's readers share (`validate`, the
    engine and the agents), derived once from an immutable TuningConfig.
    Where an id is duplicated, a table keeps its last entry. The tables
    hold for invalid builds too, since `validate` reads them.
    `final_threshold`, `counted` and `granting` serve the engine's
    checks after each act (`sim.act_edge`).

    `gates` is the engine's legality memo (see `sim._gates`): the actions
    that pass the static rules, by the fields those rules read. It is
    filled per process and holds at most one entry per combination of
    those fields that the build's play reaches. Three tables are filled
    at their first use: `ready`, each action's ready-time inputs (see
    `sim._next_ready`); `timeouts`, the least XP at which each event's
    timeout pays (see `agents._listing`); and `features`, the Softmax
    agent's feature table (see `agents._features`). A pool worker forks
    with the four as they stand (see `experiments.TrialPool`).
    """

    def __init__(self, config: TuningConfig):
        self.resources = {r.id: r for r in config.resources}
        self.actions = {a.id: a for a in config.actions}
        self.events = {e.id: e for e in config.events}
        self.careers = {c.id: c for c in config.careers}
        self.relationships = {r.id: r for r in config.relationships}
        self.objects = {o.id: o for o in config.objects}
        self.sorted_actions = [self.actions[aid] for aid in sorted(self.actions)]

        # (resource id, regen numerator, denominator, capacity) of each
        # resource that regenerates, so the engine's clock runs on ints
        self.regen = tuple(
            (r.id, r.regen_rate.numerator, r.regen_rate.denominator, r.capacity)
            for r in config.resources if r.regen_rate
        )

        # event id -> sorted ids of events an action belongs to
        self.events_of_action: dict[str, list[str]] = {}
        for ev in config.events:
            for aid in ev.action_ids:
                self.events_of_action.setdefault(aid, []).append(ev.id)
        for ids in self.events_of_action.values():
            ids.sort()

        # career event id -> minimum career level that unlocks it
        self.event_unlock_level: dict[str, int] = {}
        for career in config.careers:
            for level, ids in career.events_by_level.items():
                for eid in ids:
                    cur = self.event_unlock_level.get(eid)
                    if cur is None or level < cur:
                        self.event_unlock_level[eid] = level

        # relationship event id -> (category id, 1-based chain position)
        self.chain_position: dict[str, tuple[str, int]] = {}
        for cat in config.relationships:
            for i, eid in enumerate(cat.event_chain):
                self.chain_position[eid] = (cat.id, i + 1)

        # event id -> XP at which its run completes; an event with no
        # steps (an invalid build) has none
        self.final_threshold = {
            eid: e.steps[-1].xp_threshold for eid, e in self.events.items() if e.steps
        }
        # (event id, action id) of each action whose run adds event XP to
        # that event's run
        self.counted = frozenset(
            (eid, aid) for eid, e in self.events.items() for aid in e.action_ids
            if aid in self.actions and self.actions[aid].rewards.event_xp > 0
        )
        # ids of the actions whose rewards pay anything besides event XP
        self.granting = frozenset(
            aid for aid, a in self.actions.items()
            if a.rewards.career_xp or a.rewards.relationship_xp
            or a.rewards.resources or a.rewards.items
        )
        self.gates: dict[tuple, dict[str, tuple]] = {}
        self.ready: dict[str, tuple] | None = None
        self.timeouts: dict[str, float] | None = None
        self.features: dict[str | None, tuple] | None = None


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    entity: str
    message: str
    code: str
    ref: str | None = None

    def format(self) -> str:
        return f"{self.severity}: {self.entity}: {self.message}"


# ---------------------------------------------------------------------------
# Codec: one field plan per class drives parse, serialize and diff
# ---------------------------------------------------------------------------

class _Field(NamedTuple):
    attr: str
    key: str  # the JSON name
    # int | float | str | bool | a dataclass | (list, kind)
    # | (dict, key type, kind) | ("choice", allowed values)
    # | ("tagged", {kind: member dataclass})
    kind: Any
    absent: Callable[[], Any] | None  # the value of an absent key; None: required
    default: Any  # the dataclass default, never written; MISSING: none


class _Plan(NamedTuple):
    fields: tuple[_Field, ...]
    keys: frozenset[str]


_SCALARS = (int, float, str, bool)


def _kind(tp: Any) -> Any:
    origin = get_origin(tp)
    if origin is list:
        return (list, _kind(get_args(tp)[0]))
    if origin is dict:
        key, value = get_args(tp)
        return (dict, key, _kind(value))
    if origin is Union or origin is UnionType:  # X | None: the field decides null
        members = [arg for arg in get_args(tp) if arg is not type(None)]
        if len(members) > 1:  # each member names itself by a `kind` class variable
            return ("tagged", {member.kind: member for member in members})
        return _kind(members[0])
    return tp


@functools.cache
def _plan(cls: type) -> _Plan:
    """The JSON fields of dataclass cls, read from its fields' types,
    defaults and metadata ("key": JSON name, "choices": allowed strings,
    "absent": see `absent`)."""
    if cls is Fraction:  # a rate travels as {"num": ..., "den": ...}, den > 0
        fields = tuple(_Field(attr, key, int, None, dataclasses.MISSING)
                       for attr, key in (("numerator", "num"), ("denominator", "den")))
        return _Plan(fields, frozenset(("num", "den")))
    hints = get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        if f.name.startswith("_"):
            continue
        if f.default_factory is not dataclasses.MISSING:
            default, make = f.default_factory(), f.default_factory
        elif f.default is not dataclasses.MISSING:
            default, make = f.default, lambda value=f.default: value
        else:
            default, make = dataclasses.MISSING, f.metadata.get("absent")
        choices = f.metadata.get("choices")
        kind = ("choice", choices) if choices else _kind(hints[f.name])
        fields.append(_Field(f.name, f.metadata.get("key", f.name), kind, make,
                             default))
    return _Plan(tuple(fields), frozenset(f.key for f in fields))


class Codec:
    """A dataclass read from and written to JSON by its field plan."""

    @classmethod
    def from_dict(cls, data: Any, path: str | None = None):
        """Decode data; a SchemaError names the path of the first defect."""
        return _decode(cls, data, path or cls.__name__)

    def to_dict(self) -> dict:
        """The JSON form; a field equal to its dataclass default is left out."""
        return _encode(type(self), self)


def _expect(obj: Any, path: str, kind: type) -> Any:
    """obj, if it is a kind; a float may be an int, and a bool is no int.
    A float must be finite: `json` reads NaN, Infinity and 1e999, and an
    int too large for a float."""
    if (not isinstance(obj, (int, float) if kind is float else kind)
            or (kind is not bool and isinstance(obj, bool))):
        raise SchemaError(
            f"{path}: expected {kind.__name__}, got {type(obj).__name__}"
        )
    if type(obj) is float and not math.isfinite(obj):
        raise SchemaError(f"{path}: expected a finite number, got {obj!r}")
    if kind is float and type(obj) is int:
        try:
            float(obj)
        except OverflowError:
            raise SchemaError(f"{path}: expected a finite number, got an int "
                              "too large for a float") from None
    return obj


def _level(key: str, path: str) -> int:
    """A level key in canonical decimal form, so no two keys name one level."""
    try:
        level = int(key)
    except ValueError:
        level = None
    if level is None or str(level) != key:
        raise SchemaError(f"{path}: level key {key!r} is not a canonical integer")
    return level


def _decode(kind: Any, value: Any, path: str) -> Any:
    """Decode JSON value as kind; a SchemaError names path and the first defect."""
    if kind in _SCALARS:
        return _expect(value, path, kind)
    if type(kind) is tuple:
        if kind[0] is list:
            return [
                _decode(kind[1], item, f"{path}[{i}]")
                for i, item in enumerate(_expect(value, path, list))
            ]
        if kind[0] is dict:
            return {
                key if kind[1] is str else _level(key, path):
                    _decode(kind[2], item, f"{path}.{key}")
                for key, item in _expect(value, path, dict).items()
            }
        if kind[0] == "tagged":  # `kind` names the member, the first if absent
            members = kind[1]
            tag = _expect(value, path, dict).get("kind", next(iter(members)))
            if _expect(tag, f"{path}.kind", str) not in members:
                raise SchemaError(f"{path}.kind: must be one of {tuple(members)}")
            rest = {key: item for key, item in value.items() if key != "kind"}
            return _decode(members[tag], rest, path)
        if _expect(value, path, str) not in kind[1]:
            raise SchemaError(f"{path}: must be one of {kind[1]}")
        return value
    plan = _plan(kind)
    _expect(value, path, dict)
    if not plan.keys.issuperset(value):
        extras = sorted(value.keys() - plan.keys)
        raise SchemaError(f"{path}: unknown field(s) {extras}")
    args = {}
    for f in plan.fields:
        if f.key not in value:
            if f.absent is None:
                raise SchemaError(f"{path}.{f.key}: missing")
            args[f.attr] = f.absent()
        elif value[f.key] is None and f.default is None:  # null: the default
            args[f.attr] = None
        else:
            args[f.attr] = _decode(f.kind, value[f.key], f"{path}.{f.key}")
    if kind is Fraction and args["denominator"] <= 0:
        raise SchemaError(f"{path}: den must be positive")
    try:
        return kind(**args)
    except InvalidField as exc:
        raise SchemaError(f"{path}.{exc.field}: {exc.reason}") from None


def _encode(kind: Any, value: Any) -> Any:
    """JSON form of a value decoded as kind; fields equal to their default
    are left out, and a tagged choice's member writes its `kind` first."""
    if kind in _SCALARS or value is None:
        return value
    if type(kind) is tuple:
        if kind[0] is list:
            return [_encode(kind[1], item) for item in value]
        if kind[0] is dict:
            return {str(key): _encode(kind[2], item)
                    for key, item in sorted(value.items())}
        if kind[0] == "tagged":
            return {"kind": value.kind, **_encode(type(value), value)}
        return value
    return {
        f.key: _encode(f.kind, item)
        for f in _plan(kind).fields
        if (item := getattr(value, f.attr)) != f.default
    }


def _flatten(value: Any, prefix: str, out: dict[str, Any]) -> None:
    if dataclasses.is_dataclass(value):  # a rate diffs as one value
        for f in _plan(type(value)).fields:
            name = f"{prefix}.{f.attr}" if prefix else f.attr
            _flatten(getattr(value, f.attr), name, out)
    elif isinstance(value, dict):
        for key in sorted(value, key=str):
            _flatten(value[key], f"{prefix}.{key}", out)
        out[f"{prefix}{'.' if prefix else ''}__keys__"] = tuple(sorted(value, key=str))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
        out[f"{prefix}.__len__"] = len(value)
    else:
        out[prefix] = value


def read_document(text: str) -> Any:
    """The JSON document `text` holds; TuningSyntaxError, naming the line
    and column, if it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TuningSyntaxError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def parse_tuning(text: str) -> TuningConfig:
    """Parse one tuning document, raising on the first defect found.

    Raises TuningSyntaxError for malformed JSON (see `read_document`),
    SchemaError for structural problems, and DanglingReference /
    InvariantViolation for the first semantic rule the document breaks.
    The returned config satisfies every declared invariant.
    """
    config = build_config(read_document(text))
    for diag in validate(config):
        if diag.severity != "error":
            continue
        if diag.code == "dangling-reference":
            raise DanglingReference(diag.entity, diag.ref or "?")
        raise InvariantViolation(f"{diag.entity}: {diag.message}")
    return config


def build_config(doc: Any) -> TuningConfig:
    """Build a TuningConfig from decoded JSON without semantic validation."""
    _expect(doc, "document", dict)
    plan = _plan(TuningConfig)
    required = ("schema_version", *(f.key for f in plan.fields))
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaError(f"document: missing required field(s) {missing}")
    extras = set(doc) - set(required)
    if extras:
        raise SchemaError(f"document: unknown field(s) {sorted(extras)}")
    version = _expect(doc["schema_version"], "document.schema_version", int)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"document.schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    _expect(doc["build_id"], "document.build_id", str)
    return TuningConfig(**{
        f.attr: _decode(f.kind, doc[f.key], f.key)
        for f in plan.fields
    })


def config_to_dict(config: TuningConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_encode(TuningConfig, config)}


def serialize_tuning(config: TuningConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent) + "\n"

# ---------------------------------------------------------------------------
# Semantic validation
# ---------------------------------------------------------------------------

def _err(entity: str, message: str, code: str, ref: str | None = None) -> Diagnostic:
    return Diagnostic("error", entity, message, code, ref)


def _warn(entity: str, message: str, code: str) -> Diagnostic:
    return Diagnostic("warning", entity, message, code)


def _dangling(site: str, ref: str, what: str) -> Diagnostic:
    return _err(site, f"references unknown {what} {ref!r}", "dangling-reference", ref)


def validate(config: TuningConfig) -> list[Diagnostic]:
    """Check every semantic rule; an empty list means the config is clean."""
    diags: list[Diagnostic] = []
    out = diags.append

    for kind, entries in (
        ("resource", config.resources),
        ("action", config.actions),
        ("event", config.events),
        ("career", config.careers),
        ("relationship", config.relationships),
        ("object", config.objects),
    ):
        seen: set[str] = set()
        for entry in entries:
            if entry.id in seen:
                out(_err(entry.id, f"duplicate {kind} id", "duplicate-id"))
            seen.add(entry.id)

    idx = config.index()

    def check_amounts(entity: str, amounts: dict[str, int], label: str) -> None:
        for key, value in amounts.items():
            if value < 0:
                out(_err(entity, f"negative {label} for {key!r}", "negative-amount"))

    def check_rewards(entity: str, rewards: RewardBundle) -> None:
        for label, value in (
            ("career_xp", rewards.career_xp),
            ("event_xp", rewards.event_xp),
            ("relationship_xp", rewards.relationship_xp),
        ):
            if value < 0:
                out(_err(entity, f"negative reward {label}", "negative-amount"))
        check_amounts(entity, rewards.resources, "resource reward")
        check_amounts(entity, rewards.items, "item reward")
        for rid in rewards.resources:
            if rid not in idx.resources:
                out(_dangling(entity, rid, "resource"))

    def check_requires(entity: str, req: RequirementSet) -> None:
        if req.career is not None and req.career not in idx.careers:
            out(_dangling(entity, req.career, "career"))
        if req.owned_object is not None and req.owned_object not in idx.objects:
            out(_dangling(entity, req.owned_object, "object"))
        if req.min_level < 1:
            out(_err(entity, "min_level must be >= 1", "bad-level"))

    for res in config.resources:
        if res.capacity < 0:
            out(_err(res.id, "capacity must be >= 0", "negative-amount"))
        if res.initial < 0 or res.initial > res.capacity:
            out(_err(res.id, "initial must satisfy 0 <= initial <= capacity",
                     "initial-exceeds-capacity"))
        if res.regen_rate < 0:
            out(_err(res.id, "regen_rate must be >= 0", "negative-amount"))

    for act in config.actions:
        if act.duration < 0:
            out(_err(act.id, "duration must be >= 0", "negative-amount"))
        if act.cooldown < 0:
            out(_err(act.id, "cooldown must be >= 0", "negative-amount"))
        check_amounts(act.id, act.costs, "cost")
        check_amounts(act.id, act.consumes_items, "item consumption")
        for rid, cost in act.costs.items():
            if rid not in idx.resources:
                out(_dangling(act.id, rid, "resource"))
            elif cost > idx.resources[rid].capacity:
                out(_warn(act.id,
                          f"cost {cost} exceeds capacity of {rid!r}; "
                          "the action can never be afforded",
                          "cost-exceeds-capacity"))
        check_rewards(act.id, act.rewards)
        check_requires(act.id, act.requires)

    for act in config.actions:
        if act.requires.during_event and act.id not in idx.events_of_action:
            out(_warn(act.id, "requires an event but belongs to none;"
                              " the action can never be legal",
                      "orphan-event-action"))

    for event in config.events:
        if event.time_limit <= 0:
            out(_err(event.id, "time_limit must be > 0", "bad-time-limit"))
        if not event.steps:
            out(_err(event.id, "steps must be non-empty", "empty-steps"))
        prev = 0
        for i, step in enumerate(event.steps):
            if step.xp_threshold <= 0:
                out(_err(event.id, f"step {i + 1} threshold must be > 0",
                         "bad-threshold"))
            if i > 0 and step.xp_threshold <= prev:
                out(_err(event.id, "thresholds not strictly increasing",
                         "thresholds-not-increasing"))
            prev = step.xp_threshold
            check_rewards(event.id, step.reward)
        if event.kind == "career":
            if event.owner_id not in idx.careers:
                out(_dangling(event.id, event.owner_id, "career"))
        elif event.owner_id not in idx.relationships:
            out(_dangling(event.id, event.owner_id, "relationship category"))
        for aid in event.action_ids:
            if aid not in idx.actions:
                out(_dangling(event.id, aid, "action"))
        check_requires(event.id, event.start_requires)

    for event in config.events:
        for aid in event.action_ids:
            spec = idx.actions.get(aid)
            if spec is not None and spec.rewards.event_xp == 0:
                out(_warn(event.id,
                          f"member action {aid!r} rewards zero event XP",
                          "zero-event-xp"))

    for career in config.careers:
        if career.max_level < 1:
            out(_err(career.id, "max_level must be >= 1", "bad-level"))
        if len(career.xp_per_level) != career.max_level:
            out(_err(career.id,
                     "xp_per_level must have one entry per level",
                     "xp-table-length"))
        prev = -1
        for xp in career.xp_per_level:
            if xp < 0:
                out(_err(career.id, "xp_per_level entries must be >= 0",
                         "negative-amount"))
            if xp <= prev:
                out(_err(career.id, "xp_per_level not strictly increasing",
                         "xp-not-increasing"))
                break
            prev = xp
        listed: set[str] = set()
        for level, ids in career.events_by_level.items():
            if level < 1 or level > career.max_level:
                out(_err(career.id, f"events_by_level level {level} out of range",
                         "bad-level"))
            for eid in ids:
                listed.add(eid)
                event = idx.events.get(eid)
                if event is None:
                    out(_dangling(career.id, eid, "event"))
                elif event.kind != "career" or event.owner_id != career.id:
                    out(_err(career.id,
                             f"event {eid!r} is not a career event of this career",
                             "wrong-event-owner"))
        owned = {e.id for e in config.events
                 if e.kind == "career" and e.owner_id == career.id}
        for eid in sorted(owned - listed):
            out(_warn(career.id, f"career event {eid!r} is never unlocked",
                      "event-never-unlocked"))
        for unlock in career.object_unlocks:
            if unlock.object_id not in idx.objects:
                out(_dangling(career.id, unlock.object_id, "object"))
            if unlock.unlock_level < 1 or unlock.unlock_level > career.max_level:
                out(_err(career.id,
                         f"unlock_level {unlock.unlock_level} out of range "
                         f"for {unlock.object_id!r}",
                         "bad-level"))
            if unlock.price_rho < 0:
                out(_err(career.id, f"negative price for {unlock.object_id!r}",
                         "negative-amount"))

    for cat in config.relationships:
        if not cat.event_chain:
            out(_err(cat.id, "event_chain must be non-empty", "empty-chain"))
        for eid in cat.event_chain:
            event = idx.events.get(eid)
            if event is None:
                out(_dangling(cat.id, eid, "event"))
            elif event.kind != "relationship" or event.owner_id != cat.id:
                out(_err(cat.id,
                         f"event {eid!r} is not owned by this category",
                         "wrong-event-owner"))

    for obj in config.objects:
        for aid in obj.unlocked_action_ids:
            spec = idx.actions.get(aid)
            if spec is None:
                out(_dangling(obj.id, aid, "action"))
            elif spec.requires.owned_object != obj.id:
                out(_err(obj.id,
                         f"unlocked action {aid!r} does not require this object",
                         "unlock-mismatch"))

    return diags


# ---------------------------------------------------------------------------
# Build diffing
# ---------------------------------------------------------------------------

@dataclass
class DiffEntry:
    kind: str
    entity: str
    change: str  # "added" | "removed" | "changed"
    field: str | None = None
    old: Any = None
    new: Any = None


@dataclass
class BuildDiff:
    build_a: str
    build_b: str
    entries: list[DiffEntry]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def to_jsonable(self) -> dict:
        return {
            "build_a": self.build_a,
            "build_b": self.build_b,
            "entries": [
                {
                    "kind": e.kind,
                    "entity": e.entity,
                    "change": e.change,
                    "field": e.field,
                    "old": _jsonable(e.old),
                    "new": _jsonable(e.new),
                }
                for e in self.entries
            ],
        }

    def format_text(self) -> str:
        if self.is_empty:
            return "no differences"
        lines = []
        for e in self.entries:
            if e.change == "changed":
                lines.append(
                    f"~ {e.kind} {e.entity}: {e.field}: "
                    f"{_jsonable(e.old)} -> {_jsonable(e.new)}"
                )
            elif e.change == "added":
                lines.append(f"+ {e.kind} {e.entity}")
            else:
                lines.append(f"- {e.kind} {e.entity}")
        return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def diff_builds(a: TuningConfig, b: TuningConfig) -> BuildDiff:
    """Structural diff of two builds: entities added, removed, and changed."""
    entries: list[DiffEntry] = []
    if a.build_id != b.build_id:
        entries.append(DiffEntry("build", a.build_id, "changed",
                                 "build_id", a.build_id, b.build_id))
    for kind, left, right in (
        ("resource", a.resources, b.resources),
        ("action", a.actions, b.actions),
        ("event", a.events, b.events),
        ("career", a.careers, b.careers),
        ("relationship", a.relationships, b.relationships),
        ("object", a.objects, b.objects),
    ):
        lmap = {x.id: x for x in left}
        rmap = {x.id: x for x in right}
        for eid in sorted(set(lmap) | set(rmap)):
            if eid not in rmap:
                entries.append(DiffEntry(kind, eid, "removed"))
            elif eid not in lmap:
                entries.append(DiffEntry(kind, eid, "added"))
            else:
                # the shared "id" entry never differs, so it never shows
                flat_l: dict[str, Any] = {}
                flat_r: dict[str, Any] = {}
                _flatten(lmap[eid], "", flat_l)
                _flatten(rmap[eid], "", flat_r)
                for fieldname in sorted(set(flat_l) | set(flat_r)):
                    old = flat_l.get(fieldname)
                    new = flat_r.get(fieldname)
                    if old != new:
                        entries.append(
                            DiffEntry(kind, eid, "changed", fieldname, old, new)
                        )
    return BuildDiff(a.build_id, b.build_id, entries)


# ---------------------------------------------------------------------------
# Event step curves and the step-anomaly linter
# ---------------------------------------------------------------------------

def event_step_curve(
    config: TuningConfig, event_id: str
) -> list[tuple[int, int]]:
    """Cumulative step payoff: (xp_threshold, total reward up to that step),
    in the XP currency the event progresses: career XP for career events,
    relationship XP for relationship events."""
    event = config.index().events.get(event_id)
    if event is None:
        raise UnknownEvent(event_id)
    currency = "career_xp" if event.kind == "career" else "relationship_xp"
    curve = []
    total = 0
    for step in event.steps:
        total += getattr(step.reward, currency)
        curve.append((step.xp_threshold, total))
    return curve


def flag_step_anomalies(
    config: TuningConfig, anomaly_ratio: float = 0.25
) -> list[Diagnostic]:
    """Flag event steps whose marginal payoff collapses relative to step 1.

    A step is anomalous when its marginal reward per marginal threshold
    unit, read from the event's step curve, falls below anomaly_ratio
    times the first step's ratio; zero marginal reward over a positive
    marginal threshold is always flagged. Where an id is duplicated, the
    event checked is the one the engine plays (see `ConfigIndex`).
    """
    diags = []
    for event in config.index().events.values():
        if len(event.steps) < 2 or event.steps[0].xp_threshold <= 0:
            continue
        curve = event_step_curve(config, event.id)
        prev_threshold, prev_total = curve[0]
        base_ratio = prev_total / prev_threshold
        for i, (threshold, total) in enumerate(curve[1:], start=2):
            span, reward = threshold - prev_threshold, total - prev_total
            prev_threshold, prev_total = threshold, total
            if span <= 0:
                continue  # already an error reported by validate()
            marginal = reward / span
            if reward == 0:
                diags.append(_warn(
                    event.id,
                    f"step {i} adds {span} XP of effort for zero marginal reward",
                    "step-anomaly"))
            elif base_ratio > 0 and marginal < anomaly_ratio * base_ratio:
                diags.append(_warn(
                    event.id,
                    f"step {i} marginal reward rate {marginal:.3f} is below "
                    f"{anomaly_ratio} of step 1 rate {base_ratio:.3f}",
                    "step-anomaly"))
    return diags
