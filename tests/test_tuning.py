"""Tuning file parsing, validation, diffing, and the step-payoff linter."""

import functools
import itertools
import json
import operator
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playtest import fixtures
from playtest.errors import (
    DanglingReference,
    InvariantViolation,
    PlaytestError,
    SchemaError,
    TuningSyntaxError,
    UnknownEvent,
)
from playtest.tuning import (
    ActionSpec,
    CareerSpec,
    EventSpec,
    EventStep,
    ObjectSpec,
    ObjectUnlock,
    RelationshipCategorySpec,
    RequirementSet,
    ResourceSpec,
    RewardBundle,
    TuningConfig,
    _decode,
    build_config,
    config_to_dict,
    diff_builds,
    event_step_curve,
    flag_step_anomalies,
    parse_tuning,
    serialize_tuning,
    validate,
)

ALL_FIXTURES = (
    "desk_base", "romance_outlier", "bugged_event",
    "desk_objects", "build_a", "build_b",
)


def desk_doc():
    return json.loads(fixtures.path("desk_base").read_text())


class TestParse:
    def test_desk_base_shape(self, desk_base):
        assert len(desk_base.resources) == 1
        assert len(desk_base.careers) == 4
        assert len(desk_base.relationships) == 3

    def test_empty_document_lists_required_fields(self):
        with pytest.raises(SchemaError) as err:
            parse_tuning("{}")
        for field in ("build_id", "resources", "actions", "events"):
            assert field in str(err.value)

    def test_dangling_event_action(self):
        doc = desk_doc()
        doc["events"][0]["action_ids"] = ["missing"]
        event_id = doc["events"][0]["id"]
        with pytest.raises(DanglingReference) as err:
            parse_tuning(json.dumps(doc))
        assert err.value.site == event_id
        assert err.value.ref == "missing"

    def test_bad_json_reports_position(self):
        with pytest.raises(TuningSyntaxError) as err:
            parse_tuning("{\n  bad\n}")
        assert "line 2" in str(err.value)

    def test_unknown_field_rejected(self):
        doc = desk_doc()
        doc["actions"][0]["damage"] = 3
        with pytest.raises(SchemaError):
            parse_tuning(json.dumps(doc))

    def test_wrong_type_rejected(self):
        doc = desk_doc()
        doc["resources"][0]["capacity"] = "lots"
        with pytest.raises(SchemaError):
            parse_tuning(json.dumps(doc))

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0"])
    def test_level_key_must_be_canonical(self, key):
        # "01" would otherwise merge with "1", the later list replacing it
        doc = desk_doc()
        index = next(i for i, c in enumerate(doc["careers"])
                     if c["id"] == "barista")
        doc["careers"][index]["events_by_level"][key] = []
        with pytest.raises(SchemaError) as err:
            parse_tuning(json.dumps(doc))
        assert str(err.value) == (f"careers[{index}].events_by_level: "
                                  f"level key {key!r} is not a canonical integer")

    def test_wrong_schema_version(self):
        doc = desk_doc()
        doc["schema_version"] = 2
        with pytest.raises(SchemaError):
            parse_tuning(json.dumps(doc))

    def test_invariant_violation_raised(self):
        doc = desk_doc()
        doc["careers"][0]["xp_per_level"] = [100, 50, 20]
        with pytest.raises(InvariantViolation):
            parse_tuning(json.dumps(doc))

    @pytest.mark.parametrize("name", ALL_FIXTURES + ("min_level_without_career",))
    def test_round_trip(self, name):
        if name == "min_level_without_career":
            doc = desk_doc()
            doc["actions"][0]["requires"] = {"min_level": 3}
            config = parse_tuning(json.dumps(doc))
        else:
            config = fixtures.load(name)
        again = parse_tuning(serialize_tuning(config))
        assert again == config
        assert diff_builds(config, again).is_empty


class TestValidate:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_shipped_fixtures_clean(self, name):
        assert validate(fixtures.load(name)) == []

    def test_equal_thresholds_flagged(self):
        doc = desk_doc()
        doc["events"][0]["steps"] = [
            {"xp_threshold": 10, "reward": {"career_xp": 1}},
            {"xp_threshold": 10, "reward": {"career_xp": 1}},
        ]
        diags = validate(build_config(doc))
        assert any("thresholds not strictly increasing" in d.message for d in diags)

    def test_xp_table_not_increasing(self):
        doc = desk_doc()
        doc["careers"][0]["xp_per_level"] = [100, 50, 20]
        diags = validate(build_config(doc))
        assert any("xp_per_level not strictly increasing" in d.message for d in diags)

    def test_initial_above_capacity(self):
        doc = desk_doc()
        doc["resources"][0]["initial"] = 99
        diags = validate(build_config(doc))
        assert any(d.code == "initial-exceeds-capacity" for d in diags)

    def test_duplicate_ids(self):
        doc = desk_doc()
        doc["actions"].append(dict(doc["actions"][0]))
        diags = validate(build_config(doc))
        assert any(d.code == "duplicate-id" for d in diags)

    def test_negative_cost(self):
        doc = desk_doc()
        doc["actions"][0]["costs"]["energy"] = -1
        diags = validate(build_config(doc))
        assert any(d.code == "negative-amount" for d in diags)

    def test_cost_above_capacity_is_warning(self):
        doc = desk_doc()
        doc["actions"][0]["costs"]["energy"] = 999
        diags = validate(build_config(doc))
        hits = [d for d in diags if d.code == "cost-exceeds-capacity"]
        assert hits and all(d.severity == "warning" for d in hits)

    def test_object_unlock_mismatch(self):
        doc = desk_doc()
        doc["objects"][0]["unlocked_action_ids"] = ["brew"]
        diags = validate(build_config(doc))
        assert any(d.code == "unlock-mismatch" for d in diags)

    def test_chain_owner_mismatch(self):
        doc = desk_doc()
        doc["relationships"][0]["event_chain"][0] = "sparks_1"
        diags = validate(build_config(doc))
        assert any(d.code == "wrong-event-owner" for d in diags)

    def test_mutations_each_produce_a_diagnostic(self):
        mutations = [
            lambda d: d["events"][0].__setitem__("time_limit", 0),
            lambda d: d["events"][0].__setitem__("steps", []),
            lambda d: d["careers"][0].__setitem__("max_level", 0),
            lambda d: d["careers"][0]["object_unlocks"].append(
                {"object": "chef_station", "unlock_level": 99, "price_rho": 1}),
            lambda d: d["relationships"][0].__setitem__("event_chain", []),
        ]
        for mutate in mutations:
            doc = desk_doc()
            mutate(doc)
            assert validate(build_config(doc)), "mutation must be caught"


class TestDiff:
    def test_identity_empty(self, desk_base):
        assert diff_builds(desk_base, desk_base).is_empty

    def test_single_field_edit(self):
        a = fixtures.load("desk_base")
        doc = desk_doc()
        for action in doc["actions"]:
            if action["id"] == "brew":
                action["cooldown"] = 30
        b = build_config(doc)
        diff = diff_builds(a, b)
        assert len(diff.entries) == 1
        entry = diff.entries[0]
        assert (entry.kind, entry.entity, entry.field) == ("action", "brew", "cooldown")
        assert (entry.old, entry.new) == (0, 30)

    def test_build_fixtures_show_regen_change(self, build_a, build_b):
        diff = diff_builds(build_a, build_b)
        assert not diff.is_empty
        regen = [e for e in diff.entries
                 if e.kind == "resource" and "regen_rate" in (e.field or "")]
        assert regen

    def test_added_and_removed(self, desk_base):
        doc = desk_doc()
        doc["objects"].append({"id": "lamp", "unlocked_action_ids": []})
        b = build_config(doc)
        diff = diff_builds(desk_base, b)
        assert any(e.change == "added" and e.entity == "lamp" for e in diff.entries)
        back = diff_builds(b, desk_base)
        assert any(e.change == "removed" and e.entity == "lamp" for e in back.entries)

    def test_symmetry(self, desk_base, build_a):
        doc = desk_doc()
        for action in doc["actions"]:
            if action["id"] == "brew":
                action["duration"] = 7
        b = build_config(doc)
        fwd = diff_builds(desk_base, b)
        rev = diff_builds(b, desk_base)
        assert len(fwd.entries) == len(rev.entries)
        for f, r in zip(fwd.entries, rev.entries):
            assert (f.old, f.new) == (r.new, r.old)

    def test_text_and_json_forms(self, desk_base, build_a):
        diff = diff_builds(desk_base, desk_base)
        assert diff.format_text() == "no differences"
        payload = diff_builds(build_a, fixtures.load("build_b")).to_jsonable()
        assert json.loads(json.dumps(payload)) == payload


class TestStepCurve:
    def make(self, steps):
        doc = desk_doc()
        doc["events"][0]["steps"] = [
            {"xp_threshold": t, "reward": {"career_xp": r}} for t, r in steps
        ]
        return build_config(doc), doc["events"][0]["id"]

    def test_flat_second_step(self):
        config, eid = self.make([(100, 50), (250, 0)])
        assert event_step_curve(config, eid) == [(100, 50), (250, 50)]

    def test_cumulative_sum(self):
        config, eid = self.make([(100, 50), (200, 100)])
        assert event_step_curve(config, eid) == [(100, 50), (200, 150)]

    def test_relationship_events_pay_relationship_xp(self, romance_outlier):
        # the curve sums the XP currency the event progresses, as the
        # step-anomaly linter reads it; it used to sum career XP, 0 here
        assert event_step_curve(romance_outlier, "sparks_1") == [(4, 1), (8, 3)]

    def test_bugged_event_shape(self, bugged_event):
        curve = event_step_curve(bugged_event, "audit")
        (t1, v1), (t2, v2) = curve
        assert v2 - v1 == 0
        assert t2 - t1 > t1

    def test_unknown_event(self, desk_base):
        with pytest.raises(UnknownEvent):
            event_step_curve(desk_base, "nope")

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_curves_non_decreasing(self, name):
        config = fixtures.load(name)
        for event in config.events:
            curve = event_step_curve(config, event.id)
            assert curve == sorted(curve)


class TestAnomalies:
    def test_bugged_event_flagged(self, bugged_event):
        diags = flag_step_anomalies(bugged_event)
        assert any(d.entity == "audit" and d.code == "step-anomaly" for d in diags)

    def test_linear_steps_not_flagged(self):
        doc = desk_doc()
        doc["events"][0]["steps"] = [
            {"xp_threshold": 100, "reward": {"career_xp": 50}},
            {"xp_threshold": 200, "reward": {"career_xp": 100}},
        ]
        diags = flag_step_anomalies(build_config(doc))
        assert not any(d.entity == doc["events"][0]["id"] for d in diags)

    def test_no_events_no_flags(self):
        doc = desk_doc()
        doc["events"] = []
        doc["careers"] = []
        doc["relationships"] = []
        doc["objects"] = []
        doc["actions"] = []
        assert flag_step_anomalies(build_config(doc)) == []

    def test_ratio_threshold_configurable(self):
        doc = desk_doc()
        doc["events"][0]["steps"] = [
            {"xp_threshold": 10, "reward": {"career_xp": 10}},
            {"xp_threshold": 20, "reward": {"career_xp": 4}},
        ]
        config = build_config(doc)
        # marginal rate 0.4 vs first-step rate 1.0
        assert not any(d.entity == doc["events"][0]["id"]
                       for d in flag_step_anomalies(config, anomaly_ratio=0.25))
        assert any(d.entity == doc["events"][0]["id"]
                   for d in flag_step_anomalies(config, anomaly_ratio=0.5))


def test_config_to_dict_is_json_safe(desk_base):
    payload = config_to_dict(desk_base)
    assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# Codec properties and the schema document
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)
names = st.text(alphabet="abxyz_\u00e9", min_size=1, max_size=4)
amounts = st.integers(0, 9)


def maps_over(keys):
    if not keys:
        return st.just({})
    return st.dictionaries(st.sampled_from(keys), amounts, max_size=2)


def refs_to(ids):
    return st.none() | st.sampled_from(ids) if ids else st.none()


@st.composite
def rewards(draw, resource_ids):
    return RewardBundle(draw(amounts), draw(amounts), draw(amounts),
                        draw(maps_over(resource_ids)),
                        draw(st.dictionaries(names, amounts, max_size=2)))


@st.composite
def requirements(draw, career_ids, object_ids):
    return RequirementSet(draw(refs_to(career_ids)), draw(st.integers(1, 3)),
                          draw(refs_to(object_ids)), draw(st.booleans()))


@st.composite
def small_builds(draw):
    """A valid build of a few entities of every kind, cross-referenced."""
    resource_ids = [f"r{i}" for i in range(draw(st.integers(0, 2)))]
    max_levels = {f"c{i}": draw(st.integers(1, 3))
                  for i in range(draw(st.integers(0, 2)))}
    category_ids = [f"k{i}" for i in range(draw(st.integers(0, 2)))]
    object_ids = [f"o{i}" for i in range(draw(st.integers(0, 2)))]
    career_ids = list(max_levels)

    resources = []
    for rid in resource_ids:
        capacity = draw(amounts)
        rate = Fraction(draw(amounts), draw(st.integers(1, 4)))
        resources.append(ResourceSpec(rid, capacity, rate,
                                      draw(st.integers(0, capacity))))
    actions = [
        ActionSpec(f"a{i}", draw(amounts), draw(amounts),
                   draw(maps_over(resource_ids)),
                   draw(st.dictionaries(names, amounts, max_size=2)),
                   draw(rewards(resource_ids)),
                   draw(requirements(career_ids, object_ids)),
                   draw(st.just("") | names), draw(st.none() | names))
        for i in range(draw(st.integers(1, 3)))
    ]
    owners = ([("career", c) for c in career_ids]
              + [("relationship", k) for k in category_ids])
    events = []
    for i, (kind, owner) in enumerate(
            draw(st.lists(st.sampled_from(owners), max_size=4)) if owners else []):
        thresholds = draw(st.sets(st.integers(1, 30), min_size=1, max_size=3))
        events.append(EventSpec(
            f"e{i}", kind, owner, draw(st.integers(1, 200)),
            draw(st.lists(st.sampled_from([a.id for a in actions]),
                          max_size=2, unique=True)),
            [EventStep(t, draw(rewards(resource_ids))) for t in sorted(thresholds)],
            draw(requirements(career_ids, object_ids)),
        ))
    careers = []
    for cid, max_level in max_levels.items():
        levels = st.integers(1, max_level)
        gaps = draw(st.lists(st.integers(1, 50),
                             min_size=max_level - 1, max_size=max_level - 1))
        by_level: dict[int, list[str]] = {}
        for event in events:
            if event.owner_id == cid and draw(st.booleans()):
                by_level.setdefault(draw(levels), []).append(event.id)
        unlocked = draw(st.lists(st.sampled_from(object_ids), max_size=2)
                        if object_ids else st.just([]))
        careers.append(CareerSpec(
            cid, max_level, list(itertools.accumulate(gaps, initial=0)), by_level,
            draw(st.lists(names, max_size=2)),
            [ObjectUnlock(o, draw(levels), draw(amounts)) for o in unlocked],
        ))
    chains = {k: [e.id for e in events if e.owner_id == k] for k in category_ids}
    return TuningConfig(
        draw(names), resources, actions, events, careers,
        [RelationshipCategorySpec(k, chain) for k, chain in chains.items() if chain],
        [ObjectSpec(o, [a.id for a in actions
                        if a.requires.owned_object == o and draw(st.booleans())])
         for o in object_ids],
    )


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(small_builds())
def test_generated_builds_round_trip(config):
    again = parse_tuning(serialize_tuning(config))
    assert again == config
    assert diff_builds(config, again).is_empty


FIXTURE_TEXT = {name: fixtures.path(name).read_text() for name in ALL_FIXTURES}
DELETE = object()
MUTANT_VALUES = (DELETE, None, "x", 7, True, [], {}, 1.5)


def key_paths(node, path=()):
    """Every key of every JSON object under node, plus one unknown key each."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
        yield path + ("unknown_field",)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, path + (i,))


def single_defects():
    """One (fixture, key path, new value) per schema position and defect."""
    chosen = {}
    for name, text in FIXTURE_TEXT.items():
        for path in key_paths(json.loads(text)):
            position = tuple("[]" if isinstance(k, int) else k for k in path)
            values = (1,) if path[-1] == "unknown_field" else MUTANT_VALUES
            for value in values:
                chosen.setdefault((position, repr(value)), (name, path, value))
    return list(chosen.values())


SINGLE_DEFECTS = single_defects()


# hypothesis skips values it has already tried, so this draws every listed defect
@settings(PROPERTY_SETTINGS, max_examples=len(SINGLE_DEFECTS))
@given(st.sampled_from(SINGLE_DEFECTS))
def test_single_defects_build_or_raise_domain_errors(defect):
    name, path, value = defect
    doc = json.loads(FIXTURE_TEXT[name])
    node = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        parse_tuning(json.dumps(doc))
    except PlaytestError:
        pass


SCHEMA_DOC = Path(__file__).parent.parent / "docs" / "tuning-schema.md"
DOC_EXAMPLE_TYPES = (
    ResourceSpec, ActionSpec, RewardBundle, EventSpec, CareerSpec,
    RelationshipCategorySpec, ObjectSpec,
)


def test_schema_doc_examples_decode():
    document, *examples = re.findall(r"```json\n(.*?)```", SCHEMA_DOC.read_text(),
                                     re.DOTALL)
    build_config(json.loads(document.replace("[...]", "[]")))
    assert len(examples) == len(DOC_EXAMPLE_TYPES)
    for kind, example in zip(DOC_EXAMPLE_TYPES, examples):
        _decode(kind, json.loads(example), kind.__name__)
