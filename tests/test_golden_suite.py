"""Golden paper suite: the SHA-256 of every file a seeded suite run writes
that must not change.

`playtest run paper_suite.json --seed 42`, run serially, writes one
`stats.json` and one `chartdata.json` per experiment. This test pins the
SHA-256 of each, so a change meant to keep the suite's output (a
refactor, an optimization) shows here as soon as one byte moves.
Criterion 8 checks that runs agree with one another; this checks that
they agree with the commit the digests were taken at.

ROADMAP item 2 (the trial-seed change, which adds `distinct` to
`stats.json`) is expected to change these bytes; it regenerates the table
and reports the group means before and after. Regenerate, only for an
intended change of the suite's output:
    PYTHONPATH=src python tests/test_golden_suite.py
prints the table to paste below.

The same run counts the engine work the serial suite does: the searches'
`agents._edges` expansions, the episodes' `agents._commit` steps, the
states `sim._successor` builds and the `GameState.dedup_key` calls (a
graph builds a key only for a state at a clock another state it filed
has). A change meant to make the engine faster without changing its
work keeps these counts; one that changes the work updates them and says
why.

It also counts the A* decisions by how they were made: a full search,
or served from the planner's one answer for the root's record, either
one no tie number decided (served under every root tie) or one kept
with its root tie (served under that tie only; see
`agents._store_path_answers`), and the nodes the full searches expanded.
These too change only with the searches: ROADMAP item 2 regenerates them
along with the digests, and the command above prints them all.
"""

import hashlib
import json
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from playtest import agents, fixtures, sim
from playtest.report import run_suite

FILES = ("stats.json", "chartdata.json")

# experiment id: {file name: sha256}
GOLDEN = {
    "agent_comparison": {
        "stats.json": "b5a4c46a7144b8ddc2fb3642b6c1401a64413e7bbbb47f47b658b7ed7f8dacac",
        "chartdata.json": "0441a77012b821950f1c0b4555e8ec1069754ac8ad053645b8207442369c74ee",
    },
    "build_comparison": {
        "stats.json": "0f145915dd9e1a7d8762c206b82d5520578c9afc5650fa6825bce0679205f3d9",
        "chartdata.json": "625e4cb140630c4a1ed27d88b3ead31de9d541a1bdf75f47a99b195592c539d3",
    },
    "career_progression": {
        "stats.json": "a3c791d83c282b27b785e3255ddeccc2421678acee7b1ceaa65615c91b54ce73",
        "chartdata.json": "53ac8b3a372b3ce72c71830fb3c5a411b39b231a9540846fe3a076cf021e9e76",
    },
    "object_impact": {
        "stats.json": "790be8da208fbd50232017f9627db19596b006a5c779bb5b4c2f36b469f7d216",
        "chartdata.json": "3d9b83ddff1c70a246f2f2f60647aa0c50515f0ebf3212cdc3d96be988583c4c",
    },
    "relationship_balance": {
        "stats.json": "12c9c419b962c1f7e4c1f2b6b76ce7d9a09ec7041206cd4d3f84b57c56c88f4b",
        "chartdata.json": "3aa39b981d6acea8878c6b02ee6945c65b3b46e503ee4ec14c8d25073559ed0a",
    },
}


# engine calls counted in the same serial run: (owner, name) -> calls
WORK = {
    (agents, "_edges"): 1_830,
    (agents, "_commit"): 9,
    (sim, "_successor"): 2_987,
    (sim.GameState, "dedup_key"): 3_987,
}

# A* decisions of the same run by how they were made, and the nodes the
# full searches expanded
SEARCHES = {
    "searched": 2_147,
    "served_wide": 25_337,
    "served_keyed": 3_536,
    "expanded": 54_512,
}


def suite_digests(out_dir: Path, work: Counter | None = None,
                  searches: Counter | None = None) -> dict[str, dict[str, str]]:
    """The SHA-256 of each pinned file of a serial `paper_suite --seed 42`
    run; with `work` given, the calls of each `WORK` entry are added to it,
    and with `searches` given, the counts of `SEARCHES`."""
    with ExitStack() as stack:
        if work is not None:
            for owner, name in WORK:
                stack.enter_context(mock.patch.object(
                    owner, name, counting(getattr(owner, name), work, name)))
        if searches is not None:
            stack.enter_context(mock.patch.object(
                agents.AStarPlanner, "decide", counting_searches(searches)))
        results = run_suite(fixtures.path("paper_suite"), out_dir, seed_override=42)
    assert [outcome.status for _, outcome in results] == ["ok"] * len(results)
    return {
        experiment.name: {
            name: hashlib.sha256((experiment / name).read_bytes()).hexdigest()
            for name in FILES
        }
        for experiment in sorted(out_dir.iterdir()) if experiment.is_dir()
    }


def counting(function, work: Counter, name: str):
    def counted(*args, **kwargs):
        work[name] += 1
        return function(*args, **kwargs)
    return counted


def counting_searches(searches: Counter):
    """`AStarPlanner.decide`, counting each call as `SEARCHES` does: a
    call that ran a search by the graph's search count, and a served one
    by where the planner holds its root's answer. `decide` leaves its
    root as the graph's `at`, so no engine call is added."""
    decide = agents.AStarPlanner.decide

    def counted(planner, config, state, rng):
        graph = agents._graph(config)
        before = graph.searches
        decision = decide(planner, config, state, rng)
        if graph.searches > before:
            searches["searched"] += 1
            searches["expanded"] += planner.last_expanded
        elif planner.last_expanded:
            searches["served_wide" if planner._answers[graph.at[1]][0] is None
                     else "served_keyed"] += 1
        else:
            searches["stop"] += 1
        return decision
    return counted


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    work, searches = Counter(), Counter()
    return (suite_digests(tmp_path_factory.mktemp("golden_suite"), work,
                          searches), work, searches)


@pytest.fixture(scope="module")
def digests(suite_run):
    return suite_run[0]


def test_every_experiment_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


def test_engine_work_is_pinned(suite_run):
    assert suite_run[1] == {name: calls for (_, name), calls in WORK.items()}


def test_searches_are_pinned(suite_run):
    assert suite_run[2] == SEARCHES


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_suite_output_matches_golden(digests, experiment):
    assert digests[experiment] == GOLDEN[experiment]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        work, searches = Counter(), Counter()
        print(json.dumps(suite_digests(Path(out), work, searches), indent=4))
        print(json.dumps(dict(work), indent=4))
        print(json.dumps(dict(searches), indent=4))
