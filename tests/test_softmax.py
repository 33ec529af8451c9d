"""Softmax baseline: sampling behavior, features, and REINFORCE training."""

import json
import random
import statistics

import pytest

from playtest.agents import (
    FAILURE_RETURN,
    FEATURE_NAMES,
    AStarPlanner,
    GoalSpec,
    HeuristicSpec,
    SoftmaxPlanner,
    SoftmaxPolicy,
    run_episode,
    softmax_decide,
    train_softmax,
)
from playtest.sim import ScenarioOverrides, initial_state
from playtest.tuning import parse_tuning


def two_action_config(right_bonus=0):
    """Two event actions; right_bonus > 0 makes `right` strictly better."""
    actions = []
    for name, evxp in (("left", 4), ("right", 4 + right_bonus)):
        actions.append({
            "id": name, "duration": 1, "cooldown": 0,
            "costs": {"energy": 1},
            "rewards": {"career_xp": 1, "event_xp": evxp},
            "requires": {"career": "clerk", "min_level": 1,
                         "during_event": True},
            "category_tag": "clerk",
        })
    return parse_tuning(json.dumps({
        "schema_version": 1,
        "build_id": "pair",
        "resources": [{"id": "energy", "capacity": 60,
                       "regen_rate": {"num": 1, "den": 1}, "initial": 60}],
        "actions": actions,
        "events": [{
            "id": "shift", "kind": "career", "owner_id": "clerk",
            "time_limit": 300, "action_ids": ["left", "right"],
            "steps": [{"xp_threshold": 40, "reward": {"career_xp": 20}}],
            "start_requires": {"career": "clerk", "min_level": 1},
        }],
        "careers": [{
            "id": "clerk", "max_level": 2, "xp_per_level": [0, 30],
            "events_by_level": {"1": ["shift"]},
            "craft_items": [], "object_unlocks": [],
        }],
        "relationships": [],
        "objects": [],
    }))


class TestSoftmaxDecide:
    def test_single_action_taken_with_probability_one(self, desk_base):
        # fresh barista: brew is the only legal action and no wait edge exists
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 1)
        policy = SoftmaxPolicy.zero()
        decisions = {
            softmax_decide(policy, desk_base, state, random.Random(s))
            for s in range(20)
        }
        assert len(decisions) == 1
        decision = decisions.pop()
        assert decision.kind == "act" and decision.action == "brew"

    def test_equal_utilities_split_evenly(self):
        config = two_action_config(right_bonus=0)
        state = initial_state(config, ScenarioOverrides(career="clerk"), 1)
        policy = SoftmaxPolicy.zero(temperature=1.0)
        rng = random.Random(9)
        counts = {"left": 0, "right": 0}
        for _ in range(10_000):
            decision = softmax_decide(policy, config, state, rng)
            counts[decision.action] += 1
        frequency = counts["left"] / 10_000
        assert abs(frequency - 0.5) <= 0.02

    def test_low_temperature_takes_argmax(self):
        config = two_action_config(right_bonus=2)
        state = initial_state(config, ScenarioOverrides(career="clerk"), 1)
        weights = [0.0] * len(FEATURE_NAMES)
        weights[FEATURE_NAMES.index("event_xp")] = 1.0
        policy = SoftmaxPolicy(list(FEATURE_NAMES), weights, temperature=1e-6)
        rng = random.Random(9)
        hits = sum(
            softmax_decide(policy, config, state, rng).action == "right"
            for _ in range(10_000)
        )
        assert hits >= 9_900

    def test_no_edges_stops(self):
        config = two_action_config()
        state = initial_state(config, ScenarioOverrides(), 1)  # no career
        decision = softmax_decide(SoftmaxPolicy.zero(), config, state,
                                  random.Random(0))
        assert decision.kind == "stop"

    def test_policy_serialization_round_trip(self):
        policy = SoftmaxPolicy(list(FEATURE_NAMES),
                               [0.25 * i for i in range(len(FEATURE_NAMES))],
                               temperature=0.5)
        again = SoftmaxPolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
        assert again == policy

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(list(FEATURE_NAMES), [0.0] * len(FEATURE_NAMES),
                          temperature=0.0)
        with pytest.raises(ValueError):
            SoftmaxPolicy(["bias"], [1.0, 2.0], temperature=1.0)


class TestTraining:
    def goal(self):
        return GoalSpec(kind="career_level_reached", career="fashion", level=2,
                        max_minutes=20_000, max_actions=400)

    def test_zero_episodes_rejected(self, desk_base):
        with pytest.raises(ValueError):
            train_softmax(desk_base, ScenarioOverrides(career="fashion"),
                          self.goal(), episodes=0, step_size=0.05,
                          rng=random.Random(0))
        with pytest.raises(ValueError):
            train_softmax(desk_base, ScenarioOverrides(career="fashion"),
                          self.goal(), episodes=10, step_size=0.0,
                          rng=random.Random(0))

    def test_returns_improve_for_majority_of_seeds(self, desk_base):
        # frozen expectation from calibration runs: on the two-action
        # fashion career, late returns beat early returns for most seeds
        improved = 0
        for seed in (1, 2, 3):
            _, returns = train_softmax(
                desk_base, ScenarioOverrides(career="fashion"), self.goal(),
                episodes=400, step_size=0.05, rng=random.Random(seed))
            tenth = len(returns) // 10
            first = statistics.mean(returns[:tenth])
            last = statistics.mean(returns[-tenth:])
            improved += last >= first
        assert improved >= 2

    def test_trained_policy_not_better_than_astar(self, desk_base):
        goal = self.goal()
        scenario = ScenarioOverrides(career="fashion")
        policy, _ = train_softmax(desk_base, scenario, goal, episodes=400,
                                  step_size=0.05, rng=random.Random(7))
        astar = AStarPlanner(HeuristicSpec(weights={}), goal,
                             node_budget=100_000)
        optimal = run_episode(desk_base, scenario, 0, astar, goal).total_actions
        reached = []
        for seed in range(100):
            record = run_episode(desk_base, scenario, seed,
                                 SoftmaxPlanner(policy, desk_base), goal)
            if record.goal_reached:
                reached.append(record.total_actions)
        assert reached, "policy should reach the goal at least once"
        assert statistics.mean(reached) >= optimal

    def test_return_curve_shape(self, desk_base):
        _, returns = train_softmax(
            desk_base, ScenarioOverrides(career="fashion"), self.goal(),
            episodes=50, step_size=0.05, rng=random.Random(1))
        assert len(returns) == 50
        for value in returns:
            assert value == FAILURE_RETURN or -400 <= value <= 0
