"""Golden paper suite: the SHA-256 of every file a seeded suite run writes
that must not change.

`playtest run paper_suite.json --seed 42`, run serially, writes one
`stats.json` and one `chartdata.json` per experiment. This test pins the
SHA-256 of each, so a change meant to keep the suite's output (a
refactor, an optimization) shows here as soon as one byte moves.
Criterion 8 checks that runs agree with one another; this checks that
they agree with the commit the digests were taken at.

ROADMAP item 1 (the trial-seed change, which adds `distinct` to
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

It also counts the A* decisions by the answer their planner held for the
root before the call: none (a first search), `_TIED` (a re-search of a
tie-sensitive root) or a stored answer (served without a search), split
into the answers a search stored for its own root and those a straight
search stored for the records on its way (`_store_chain_answers`), and
the nodes the first searches and re-searches expanded. It counts the tie
draws that served decisions leave owed on their episode's stream, and
those a later read of the stream pays (see `agents._Stream`). These too
change only with the searches: ROADMAP item 1 regenerates them along
with the digests, and the command above prints them all.
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
        "stats.json": "a41d6496bdb65b3a20cfcf3f8082ebaad593dbe4b5202d7645f974f19b385457",
        "chartdata.json": "5e237cc612b9e19f19244155dfcc9dbff671ed312374f78f60c50c46ef6a8d3e",
    },
}


# engine calls counted in the same serial run: (owner, name) -> calls
WORK = {
    (agents, "_edges"): 2_061,
    (agents, "_commit"): 9,
    (sim, "_successor"): 3_403,
    (sim.GameState, "dedup_key"): 4_411,
}

# A* decisions of the same run by the root's answer before the call, and
# the nodes expanded by the decisions that were not served
SEARCHES = {
    "first": 745,
    "tied": 4_976,
    "served_root": 1_581,
    "served_chain": 23_718,
    "expanded": 196_823,
}

# tie draws of the same run: owed by served decisions, and paid by a later
# read of the episode's stream
DRAWS = {
    "owed": 598_261,
    "paid": 0,
}


def suite_digests(out_dir: Path, work: Counter | None = None,
                  searches: Counter | None = None,
                  draws: Counter | None = None) -> dict[str, dict[str, str]]:
    """The SHA-256 of each pinned file of a serial `paper_suite --seed 42`
    run; with `work` given, the calls of each `WORK` entry are added to it,
    with `searches` given, the counts of `SEARCHES`, and with `draws`
    given, those of `DRAWS`."""
    with ExitStack() as stack:
        if work is not None:
            for owner, name in WORK:
                stack.enter_context(mock.patch.object(
                    owner, name, counting(getattr(owner, name), work, name)))
        if searches is not None:
            chained = {}
            stack.enter_context(mock.patch.object(
                agents, "_store_chain_answers", noting_chain_answers(chained)))
            stack.enter_context(mock.patch.object(
                agents.AStarPlanner, "decide",
                counting_searches(searches, chained)))
        if draws is not None:
            for owner, name, counted in counting_draws(draws):
                stack.enter_context(mock.patch.object(owner, name, counted))
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


def noting_chain_answers(chained: dict):
    """`agents._store_chain_answers`, filing in `chained` each answer table
    and record it stores an answer for, by their ids. The entries keep
    both objects alive, so no id is reused while `chained` lives."""
    store = agents._store_chain_answers

    def noted(chain, *args):
        answers = args[-1]
        fresh = [node for node in chain if node not in answers]
        store(chain, *args)
        for node in fresh:
            if node in answers:
                chained[id(answers), id(node)] = answers, node
    return noted


def counting_searches(searches: Counter, chained: dict):
    """`AStarPlanner.decide`, counting each call as `SEARCHES` does, a
    served call by whether its answer is in `chained`. It looks the root
    up as `decide` does first, which leaves the record in the graph's
    `at` for `decide` to find, so no engine call is added."""
    decide = agents.AStarPlanner.decide

    def counted(planner, config, state, rng):
        graph = agents._graph(config)
        root = graph.root(state)
        answer = (planner._answers.get(root)
                  if planner._generation is graph.generation else None)
        kind = ("first" if answer is None else
                "tied" if answer is agents._TIED else
                "served_chain" if (id(planner._answers), id(root)) in chained else
                "served_root")
        searches[kind] += 1
        decision = decide(planner, config, state, rng)
        if not kind.startswith("served"):
            searches["expanded"] += planner.last_expanded
        return decision
    return counted


def counting_draws(draws: Counter):
    """(owner, name, wrapper) for the episode stream's methods that owe
    and pay tie draws, each wrapper adding its draws to `draws`."""
    def owing(owe):
        def owed(stream, n):
            draws["owed"] += n
            owe(stream, n)
        return owed

    pay = agents._OwingStream.pay

    def paid(stream):
        draws["paid"] += stream.owed
        pay(stream)

    return [(agents._Stream, "owe", owing(agents._Stream.owe)),
            (agents._OwingStream, "owe", owing(agents._OwingStream.owe)),
            (agents._OwingStream, "pay", paid)]


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    work, searches = Counter(), Counter()
    draws = Counter(dict.fromkeys(DRAWS, 0))
    return (suite_digests(tmp_path_factory.mktemp("golden_suite"), work,
                          searches, draws), work, searches, draws)


@pytest.fixture(scope="module")
def digests(suite_run):
    return suite_run[0]


def test_every_experiment_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


def test_engine_work_is_pinned(suite_run):
    assert suite_run[1] == {name: calls for (_, name), calls in WORK.items()}


def test_searches_are_pinned(suite_run):
    assert suite_run[2] == SEARCHES


def test_tie_draws_are_pinned(suite_run):
    assert suite_run[3] == DRAWS


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_suite_output_matches_golden(digests, experiment):
    assert digests[experiment] == GOLDEN[experiment]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        searches, draws = Counter(), Counter(dict.fromkeys(DRAWS, 0))
        print(json.dumps(suite_digests(Path(out), searches=searches,
                                       draws=draws), indent=4))
        print(json.dumps(dict(searches), indent=4))
        print(json.dumps(dict(draws), indent=4))
