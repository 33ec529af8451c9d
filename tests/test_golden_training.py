"""Golden Softmax training: committed weights and return curves.

Each row of `golden_training.json` pins one `train_softmax` run: the
trained weights, exactly, and the per-episode return curve (its length,
the number of episodes that reached the goal and a sha256 of the values).
Training draws every move from the caller's rng, so a change to the
episode loop, the move list or the sampling order that alters a single
draw shows up here.

Regenerate, only for an intended behaviour change:
    PYTHONPATH=src python tests/test_golden_training.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from playtest import fixtures
from playtest.agents import FAILURE_RETURN, GoalSpec, train_softmax
from playtest.sim import ScenarioOverrides

GOLDEN = Path(__file__).with_name("golden_training.json")

# paper_suite's agent_comparison: desk_base, fashion to level 2
COMPARISON_GOAL = {"kind": "career_level_reached", "career": "fashion",
                   "level": 2, "max_minutes": 20_000, "max_actions": 400}
CLERK_GOAL = {"kind": "career_level_reached", "career": "clerk", "level": 2,
              "max_minutes": 2_000, "max_actions": 100}
# a tight action limit, so some episodes miss and pay FAILURE_RETURN
TIGHT_CLERK_GOAL = dict(CLERK_GOAL, max_actions=10)
GRANTED_GOAL = {"kind": "career_level_reached", "career": "culinary",
                "level": 3, "max_minutes": 20_000, "max_actions": 400}

# id: (fixture, scenario, goal, episodes, step size, temperature, rng seed)
RUNS = {
    "desk_base_fashion_7": ("desk_base", {"career": "fashion"},
                            COMPARISON_GOAL, 400, 0.05, 1.0, 7),
    "desk_base_fashion_42": ("desk_base", {"career": "fashion"},
                             COMPARISON_GOAL, 400, 0.05, 1.0, 42),
    "bugged_event_clerk_3": ("bugged_event", {"career": "clerk"},
                             CLERK_GOAL, 150, 0.05, 1.0, 3),
    "bugged_event_clerk_19": ("bugged_event", {"career": "clerk"},
                              TIGHT_CLERK_GOAL, 150, 0.02, 0.5, 19),
    "desk_objects_granted_5": ("desk_objects",
                               {"career": "culinary", "grant_objects": True},
                               GRANTED_GOAL, 60, 0.05, 1.0, 5),
    "desk_objects_granted_11": ("desk_objects",
                                {"career": "culinary", "grant_objects": True},
                                GRANTED_GOAL, 60, 0.02, 2.0, 11),
}


def fingerprint(run_id: str) -> dict:
    fixture, scenario, goal, episodes, step_size, temperature, seed = RUNS[run_id]
    policy, returns = train_softmax(
        fixtures.load(fixture), ScenarioOverrides.from_dict(scenario),
        GoalSpec.from_dict(goal), episodes=episodes, step_size=step_size,
        rng=random.Random(seed), temperature=temperature)
    curve = "\n".join(repr(r) for r in returns)
    return {
        "weights": policy.weights,
        "episodes": len(returns),
        "reached": sum(r != FAILURE_RETURN for r in returns),
        "returns_sha256": hashlib.sha256(curve.encode()).hexdigest(),
    }


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_training_matches_golden(run_id):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(run_id) == golden[run_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = {run_id: fingerprint(run_id) for run_id in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(rows, indent=2) + "\n")
