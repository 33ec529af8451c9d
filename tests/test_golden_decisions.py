"""Golden A* decisions: committed fingerprints of seeded planner episodes.

Each row of `golden_decisions.json` pins one episode: the final state
digest, the action count, the number of decisions, the summed node
expansions and a sha256 of the decision sequence. The file is written
once and compared on every later commit, so a change that alters which
moves the planner makes (or how much it searches) fails here even when
each run is deterministic on its own.

Seeds are passed to `run_episode` directly, not through `trial_seed`, so
a change of the trial-seed derivation leaves the file valid.

Regenerate, only for an intended behaviour change:
    PYTHONPATH=src python tests/test_golden_decisions.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from playtest import fixtures
from playtest.agents import AStarPlanner, GoalSpec, HeuristicSpec, run_episode
from playtest.sim import ScenarioOverrides

GOLDEN = Path(__file__).with_name("golden_decisions.json")

LONG_GOAL = {"kind": "career_level_reached", "level": 3,
             "max_minutes": 50_000, "max_actions": 3_000}
LONG_HEURISTIC = {"career_xp": 2.0, "crafted_item:coffee": 0.5,
                  "crafted_item:dish": 0.5}
SHORT_GOAL = {"kind": "any_relationship_chain_done", "chain_length": 5,
              "max_minutes": 5_000, "max_actions": 300}
SHORT_HEURISTIC = {"relationship_event_complete": 1.0, "event_xp": 1.0}
CLERK_GOAL = {"kind": "career_level_reached", "career": "clerk", "level": 2,
              "max_minutes": 2_000, "max_actions": 100}

# id: (fixture, scenario, goal, heuristic weights, node budget, seed)
TRIALS = {
    "build_b_barista": ("build_b", {"career": "barista"},
                        dict(LONG_GOAL, career="barista"), LONG_HEURISTIC, 400, 4001),
    "build_b_culinary": ("build_b", {"career": "culinary"},
                         dict(LONG_GOAL, career="culinary"), LONG_HEURISTIC, 400, 4002),
    "romance_outlier_a": ("romance_outlier", {}, SHORT_GOAL, SHORT_HEURISTIC,
                          2000, 1001),
    "romance_outlier_b": ("romance_outlier", {}, SHORT_GOAL, SHORT_HEURISTIC,
                          2000, 1006),
    "bugged_event_clerk": ("bugged_event", {"career": "clerk"}, CLERK_GOAL,
                           {"career_xp": 1.0}, 2000, 7),
    # career_level is flat within a level, so a search reaches one dedup key
    # at two action counts: this row fails if `closed` is keyed by anything
    # but the state (the node record, say)
    "bugged_event_clerk_level": ("bugged_event", {"career": "clerk"}, CLERK_GOAL,
                                 {"career_level": 1.0}, 2000, 7),
    # a tight budget, so most decisions are budget cut-offs
    "desk_objects_granted": ("desk_objects",
                             {"career": "culinary", "grant_objects": True},
                             dict(LONG_GOAL, career="culinary", max_actions=400),
                             {"career_xp": 1.0}, 30, 3001),
}


class RecordingPlanner:
    """Wraps a planner and keeps every decision and its expansion count."""

    def __init__(self, planner):
        self.planner = planner
        self.name = planner.name
        self.decisions = []
        self.expanded = 0
        self.last_expanded = 0

    def decide(self, config, state, rng):
        decision = self.planner.decide(config, state, rng)
        self.last_expanded = self.planner.last_expanded
        self.expanded += self.last_expanded
        self.decisions.append(decision)
        return decision


def fingerprint(trial_id: str) -> dict:
    fixture, scenario, goal, weights, budget, seed = TRIALS[trial_id]
    goal_spec = GoalSpec.from_dict(goal)
    agent = RecordingPlanner(
        AStarPlanner(HeuristicSpec(weights=dict(weights)), goal_spec, budget))
    record = run_episode(fixtures.load(fixture),
                         ScenarioOverrides.from_dict(scenario), seed, agent,
                         goal_spec)
    moves = "\n".join(f"{d.kind} {d.action} {d.until} {d.reason}"
                      for d in agent.decisions)
    return {
        "state_digest": record.state_digest,
        "total_actions": record.total_actions,
        "decisions": len(agent.decisions),
        "expanded": agent.expanded,
        "decisions_sha256": hashlib.sha256(moves.encode()).hexdigest(),
    }


@pytest.mark.parametrize("trial_id", sorted(TRIALS))
def test_decisions_match_golden(trial_id):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(trial_id) == golden[trial_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = {trial_id: fingerprint(trial_id) for trial_id in sorted(TRIALS)}
    GOLDEN.write_text(json.dumps(rows, indent=2) + "\n")
