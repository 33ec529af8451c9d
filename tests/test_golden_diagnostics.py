"""Golden diagnostics: what `validate` and `parse_tuning` say about every
single-value defect of the shipped builds, pinned by SHA-256, and the
default heuristic scales of each shipped build.

Each mutant is one shipped build with one change: a JSON value replaced
(an int by -1, its successor or 10**6; a string by an unknown name or
by the string before it in the document; a bool flipped; a list or an
object emptied), one object key renamed to an unknown name, or one entity
appended a second time, so that its id is a duplicate. For every mutant
the digest covers `build_config`'s schema error, or else each of
`validate`'s diagnostics in order (severity, entity, code, ref, message),
and then the exception type and message `parse_tuning` raises, or "ok".
`desk_base`, the largest build, has no mutants here, so the test stays
near 1.5 s; `desk_objects` holds the same kinds of entity.

A change meant to keep validation's behaviour (a refactor of how
`validate` finds its lookups, say) shows here as soon as one diagnostic
moves. Regenerate, only for an intended change of the diagnostics:
    PYTHONPATH=src python tests/test_golden_diagnostics.py
prints the table to paste below.
"""

import copy
import hashlib
import json

import pytest

from playtest import fixtures
from playtest.agents import HEURISTIC_TERMS, _default_scale
from playtest.errors import SchemaError
from playtest.tuning import build_config, parse_tuning, validate

BUILDS = ("desk_base", "romance_outlier", "bugged_event", "desk_objects",
          "build_a", "build_b")
MUTATED = BUILDS[1:]
ENTITIES = ("resources", "actions", "events", "careers", "relationships",
            "objects")

# build: (mutants, sha256 over their outcomes)
GOLDEN = {
    'romance_outlier': (847, '66da025534b6d690ebc5648711f2e9ad9607e68296d95c5ec7471c605ef7fc60'),
    'bugged_event': (154, '57c1346d5ede4da199ea5402cdcd7f38ee5937b813a6f005e7eaf9e350f7f648'),
    'desk_objects': (833, '53080c919a254942292365cfe80f47a86eda4e20be691f37c6a9be8b3630b097'),
    'build_a': (362, '822a32d26991e5e459adb674436e6f8ee379855d49fbc554b0ba359c415fa45d'),
    'build_b': (362, 'b4d99f55774ee6c6d556efbccec36f68a97cc5ef3f082a4a1eb6e2208c44a009'),
}

# build: {heuristic term: _default_scale(term, config)}
GOLDEN_SCALES = {
    "desk_base": {
        "career_xp": 3.0,
        "career_level": 1.0,
        "career_event_complete": 1.0,
        "event_xp": 6.0,
        "relationship_xp": 1.0,
        "relationship_event_complete": 1.0,
        "crafted_item:coffee": 1.0,
        "crafted_item:dish": 1.0,
        "crafted_item:nosuch": 1.0
    },
    "romance_outlier": {
        "career_xp": 1.0,
        "career_level": 1.0,
        "career_event_complete": 1.0,
        "event_xp": 2.0,
        "relationship_xp": 1.0,
        "relationship_event_complete": 1.0,
        "crafted_item:nosuch": 1.0
    },
    "bugged_event": {
        "career_xp": 1.0,
        "career_level": 1.0,
        "career_event_complete": 1.0,
        "event_xp": 1.0,
        "relationship_xp": 1.0,
        "relationship_event_complete": 1.0,
        "crafted_item:nosuch": 1.0
    },
    "desk_objects": {
        "career_xp": 3.0,
        "career_level": 1.0,
        "career_event_complete": 1.0,
        "event_xp": 6.0,
        "relationship_xp": 1.0,
        "relationship_event_complete": 1.0,
        "crafted_item:nosuch": 1.0
    },
    "build_a": {
        "career_xp": 4.0,
        "career_level": 1.0,
        "career_event_complete": 1.0,
        "event_xp": 3.0,
        "relationship_xp": 1.0,
        "relationship_event_complete": 1.0,
        "crafted_item:coffee": 1.0,
        "crafted_item:dish": 1.0,
        "crafted_item:nosuch": 1.0
    },
    "build_b": {
        "career_xp": 1.0,
        "career_level": 1.0,
        "career_event_complete": 1.0,
        "event_xp": 3.0,
        "relationship_xp": 1.0,
        "relationship_event_complete": 1.0,
        "crafted_item:coffee": 1.0,
        "crafted_item:dish": 1.0,
        "crafted_item:nosuch": 1.0
    }
}


def _nodes(node, parent=None, key=None):
    """(container, key, value) of every JSON value under node, depth first
    in document order; the root has no container."""
    yield parent, key, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, node, k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, node, i)


def _replacements(value, previous):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [v for v in dict.fromkeys((-1, value + 1, 10**6)) if v != value]
    if isinstance(value, str):
        return [v for v in dict.fromkeys(("nosuch", previous)) if v != value]
    return [type(value)()] if value else []


def mutants(doc):
    """(label, mutated document) of each single defect of doc, in order.
    The document is changed in place and restored after each yield."""
    previous = ""
    for parent, key, value in list(_nodes(doc)):
        if parent is not None:
            for new in _replacements(value, previous):
                parent[key] = new
                yield f"{key!r}={new!r}", doc
            parent[key] = value
        if isinstance(value, str):
            previous = value
        if isinstance(value, dict):
            items = list(value.items())
            for i, (old, item) in enumerate(items):
                renamed = [(k, v) for k, v in items[:i]] + [("nosuch", item)]
                value.clear()
                value.update(renamed + items[i + 1:])
                yield f"rename {old!r}", doc
            value.clear()
            value.update(items)
    for name in ENTITIES:
        for i, entry in enumerate(list(doc[name])):
            doc[name].append(copy.deepcopy(entry))
            yield f"duplicate {name}[{i}]", doc
            doc[name].pop()


def outcome(doc) -> str:
    """build_config's schema error, or else validate's diagnostics and
    then parse_tuning's exception, one line each."""
    lines = []
    try:
        config = build_config(doc)
    except SchemaError as exc:  # parse_tuning decodes doc the same way
        return f"schema {exc}"
    lines.extend(repr((d.severity, d.entity, d.code, d.ref, d.message))
                 for d in validate(config))
    try:
        parse_tuning(json.dumps(doc))
    except Exception as exc:  # the type is part of what is pinned
        lines.append(f"raises {type(exc).__name__}: {exc}")
    else:
        lines.append("ok")
    return "\n".join(lines)


def build_digest(name: str) -> tuple[int, str]:
    doc = json.loads(fixtures.path(name).read_text())
    digest = hashlib.sha256()
    count = 0
    for label, mutant in mutants(doc):
        digest.update(f"{label}\n{outcome(mutant)}\n\n".encode())
        count += 1
    return count, digest.hexdigest()


def default_scales(name: str) -> dict[str, float]:
    config = fixtures.load(name)
    items = {item for action in config.actions for item in action.rewards.items}
    items.update(item for career in config.careers for item in career.craft_items)
    terms = [*HEURISTIC_TERMS,
             *(f"crafted_item:{item}" for item in sorted(items | {"nosuch"}))]
    return {term: _default_scale(term, config) for term in terms}


def test_every_build_is_pinned():
    assert sorted(GOLDEN) == sorted(MUTATED)
    assert sorted(GOLDEN_SCALES) == sorted(BUILDS)


@pytest.mark.parametrize("name", MUTATED)
def test_diagnostics_match_golden(name):
    assert build_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", BUILDS)
def test_default_scales_match_golden(name):
    assert default_scales(name) == GOLDEN_SCALES[name]


def test_default_scales_follow_the_best_action():
    """Shipped builds yield one of each item and little XP per action, so
    raise one action's yields above every other's."""
    doc = json.loads(fixtures.path("desk_base").read_text())
    doc["actions"][0]["rewards"] = {
        "career_xp": 40, "event_xp": 30, "relationship_xp": 20,
        "items": {"coffee": 5, "tea": 0}}
    config = parse_tuning(json.dumps(doc))
    assert [_default_scale(term, config) for term in (
        "career_xp", "event_xp", "relationship_xp", "career_level",
        "crafted_item:coffee", "crafted_item:tea", "crafted_item:dish",
    )] == [40.0, 30.0, 20.0, 1.0, 5.0, 1.0, 1.0]


if __name__ == "__main__":
    print("GOLDEN = {")
    for build in MUTATED:
        print(f"    {build!r}: {build_digest(build)!r},")
    print("}")
    scales = {build: default_scales(build) for build in BUILDS}
    print(f"GOLDEN_SCALES = {json.dumps(scales, indent=4)}")
