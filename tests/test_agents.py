"""Planner behavior: heuristic terms, bounded A*, and episode running."""

import json
import random

import pytest

from bfs_oracle import random_desk_config, shortest_actions
from playtest import fixtures
from playtest.agents import (
    AStarPlanner,
    Decision,
    GoalSpec,
    HeuristicSpec,
    build_evaluator,
    decision_edges,
    goal_satisfied,
    run_episode,
)
from playtest.sim import (
    ScenarioOverrides,
    initial_state,
    step_action,
)
from playtest.tuning import build_config, parse_tuning


def single_action_config(career_xp=10):
    """One career, one event, one action that pays career_xp per use."""
    return parse_tuning(json.dumps({
        "schema_version": 1,
        "build_id": "mini",
        "resources": [{"id": "energy", "capacity": 50,
                       "regen_rate": {"num": 1, "den": 1}, "initial": 50}],
        "actions": [{
            "id": "work", "duration": 1, "cooldown": 0,
            "costs": {"energy": 1},
            "rewards": {"career_xp": career_xp, "event_xp": 5},
            "requires": {"career": "clerk", "min_level": 1,
                         "during_event": True},
            "category_tag": "clerk",
        }],
        "events": [{
            "id": "shift", "kind": "career", "owner_id": "clerk",
            "time_limit": 200, "action_ids": ["work"],
            "steps": [{"xp_threshold": 100,
                       "reward": {"career_xp": 0, "event_xp": 0}}],
            "start_requires": {"career": "clerk", "min_level": 1},
        }],
        "careers": [{
            "id": "clerk", "max_level": 2, "xp_per_level": [0, 100],
            "events_by_level": {"1": ["shift"]},
            "craft_items": [], "object_unlocks": [],
        }],
        "relationships": [],
        "objects": [],
    }))


class TestHeuristic:
    def test_goal_satisfied_is_zero(self, desk_base, career_goal):
        goal = career_goal("barista", 1)
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 7)
        spec = HeuristicSpec(weights={"career_xp": 1.0})
        assert build_evaluator(spec, desk_base, goal)(state) == 0.0

    def test_remaining_over_best_yield(self):
        config = single_action_config(career_xp=10)
        goal = GoalSpec(kind="career_level_reached", career="clerk", level=2,
                        max_minutes=1000, max_actions=100)
        state = initial_state(config, ScenarioOverrides(career="clerk"), 7)
        spec = HeuristicSpec(weights={"career_xp": 1.0})
        assert build_evaluator(spec, config, goal)(state) == pytest.approx(10.0)

    def test_strictly_decreasing_with_progress(self, desk_base, career_goal):
        goal = career_goal("barista", 2)
        spec = HeuristicSpec(weights={"career_xp": 1.0})
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 7)
        start_value = build_evaluator(spec, desk_base, goal)(state)
        state = step_action(desk_base, state, "brew")
        state = step_action(desk_base, state, "serve")
        after_serve = build_evaluator(spec, desk_base, goal)(state)
        assert after_serve < start_value

    def test_normalization_override(self):
        config = single_action_config(career_xp=10)
        goal = GoalSpec(kind="career_level_reached", career="clerk", level=2,
                        max_minutes=1000, max_actions=100)
        state = initial_state(config, ScenarioOverrides(career="clerk"), 7)
        spec = HeuristicSpec(weights={"career_xp": 1.0},
                             normalization={"career_xp": 4.0})
        assert build_evaluator(spec, config, goal)(state) == pytest.approx(25.0)

    def test_crafted_item_term(self, desk_base, career_goal):
        goal = career_goal("barista", 2)
        spec = HeuristicSpec(weights={"crafted_item:coffee": 1.0})
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 7)
        with_none = build_evaluator(spec, desk_base, goal)(state)
        stocked = step_action(desk_base, state, "brew")
        with_coffee = build_evaluator(spec, desk_base, goal)(stocked)
        assert with_none == 1.0 and with_coffee == 0.0

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            HeuristicSpec(weights={"career_xp": float("inf")})


class TestAStarDecide:
    def test_one_action_from_goal(self):
        config = single_action_config(career_xp=100)
        goal = GoalSpec(kind="career_level_reached", career="clerk", level=2,
                        max_minutes=1000, max_actions=100)
        state = initial_state(config, ScenarioOverrides(career="clerk"), 7)
        decision = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}),
                                goal).decide(config, state, random.Random(1))
        assert decision == Decision.act("work")

    def test_goal_already_satisfied_stops(self, desk_base, career_goal):
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 7)
        decision = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}),
                                career_goal("barista", 1)).decide(
            desk_base, state, random.Random(1))
        assert decision.kind == "stop" and decision.reason == "goal_reached"

    def test_deadlocked_root_stops(self, desk_base, career_goal):
        doc = json.loads(fixtures.path("desk_base").read_text())
        for action in doc["actions"]:
            action["requires"] = {"owned_object": "chef_station"}
        config = build_config(doc)
        state = initial_state(config, ScenarioOverrides(), 7)
        decision = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}),
                                career_goal("barista", 2)).decide(
            config, state, random.Random(1))
        assert decision.kind == "stop" and decision.reason == "deadlock"

    def test_bugged_event_waits_out_the_event(self, bugged_event):
        goal = GoalSpec(kind="career_level_reached", career="clerk", level=2,
                        max_minutes=2000, max_actions=100)
        state = initial_state(bugged_event, ScenarioOverrides(career="clerk"), 7)
        for _ in range(4):  # reach step 1 exactly
            state = step_action(bugged_event, state, "file_report")
        decision = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}),
                                goal).decide(bugged_event, state, random.Random(1))
        assert decision == Decision.wait(state.active_event.deadline)

    def test_budget_compliance(self, desk_base, career_goal):
        state = initial_state(desk_base, ScenarioOverrides(career="culinary"), 7)
        for budget in (1, 5, 50):
            planner = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}),
                                   career_goal("culinary", 4), node_budget=budget)
            decision = planner.decide(desk_base, state, random.Random(3))
            assert planner.last_expanded <= budget
            assert decision.kind in ("act", "wait")

    def test_decision_matches_oracle_on_tiny_space(self):
        config, scenario, goal = random_desk_config(5)
        optimum, _ = shortest_actions(config, scenario, 5, goal)
        planner = AStarPlanner(HeuristicSpec(weights={}), goal,
                               node_budget=50_000)
        record = run_episode(config, scenario, 5, planner, goal)
        assert record.goal_reached
        assert record.total_actions == optimum

    def test_exhaustive_search_expands_each_state_once(self):
        # a 2-minute act and two 1-minute acts reach one state at two
        # action counts; a zero-heuristic search that runs out of states
        # expands each dedup key once, at its fewest actions, as the
        # oracle settles it
        idle = {"cooldown": 0, "costs": {}, "rewards": {}, "requires": {},
                "category_tag": ""}
        config = parse_tuning(json.dumps({
            "schema_version": 1, "build_id": "idle",
            "resources": [{"id": "energy", "capacity": 5,
                           "regen_rate": {"num": 0, "den": 1}, "initial": 5}],
            "actions": [dict(idle, id="tap", duration=1),
                        dict(idle, id="hold", duration=2)],
            "events": [], "careers": [], "relationships": [], "objects": [],
        }))
        goal = GoalSpec(kind="event_completed", event="never",
                        max_minutes=6, max_actions=100)
        optimum, settled = shortest_actions(config, ScenarioOverrides(), 1, goal)
        planner = AStarPlanner(HeuristicSpec(weights={}), goal, 10_000)
        decision = planner.decide(
            config, initial_state(config, ScenarioOverrides(), 1),
            random.Random(1))
        assert optimum is None and settled == 7  # clock 0 to 6
        assert decision == Decision.stop("search_exhausted")
        assert planner.last_expanded == settled

    def test_rng_state_determinism(self, romance_outlier):
        goal = GoalSpec(kind="any_relationship_chain_done", chain_length=5,
                        max_minutes=5000, max_actions=300)
        spec = HeuristicSpec(weights={"relationship_event_complete": 1.0,
                                      "event_xp": 1.0})
        state = initial_state(romance_outlier, ScenarioOverrides(), 7)
        first = AStarPlanner(spec, goal).decide(romance_outlier, state,
                                                random.Random(42))
        second = AStarPlanner(spec, goal).decide(romance_outlier, state,
                                                 random.Random(42))
        assert first == second


class TestRunEpisode:
    def test_goal_at_start_runs_zero_actions(self, desk_base, career_goal):
        goal = career_goal("barista", 1)
        planner = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}), goal)
        record = run_episode(desk_base, ScenarioOverrides(career="barista"),
                             7, planner, goal)
        assert record.goal_reached and record.total_actions == 0

    def test_barista_level2_matches_oracle(self, desk_base):
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=2000, max_actions=60)
        scenario = ScenarioOverrides(career="barista")
        optimum, _ = shortest_actions(desk_base, scenario, 7, goal)
        planner = AStarPlanner(HeuristicSpec(weights={}), goal,
                               node_budget=100_000)
        record = run_episode(desk_base, scenario, 7, planner, goal)
        assert record.goal_reached
        assert record.total_actions == optimum

    def test_same_seed_identical_records(self, romance_outlier):
        goal = GoalSpec(kind="any_relationship_chain_done", chain_length=5,
                        max_minutes=5000, max_actions=300)
        spec = HeuristicSpec(weights={"relationship_event_complete": 1.0,
                                      "event_xp": 1.0})

        def run():
            planner = AStarPlanner(spec, goal)
            record = run_episode(romance_outlier, ScenarioOverrides(), 99,
                                 planner, goal)
            return (record.total_actions, record.event_actions,
                    record.sessions, record.state_digest,
                    [(e.event_id, e.actions) for e in record.event_log])

        assert run() == run()

    def test_hard_limit_stops_episode(self, desk_base):
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=5)
        planner = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}), goal)
        record = run_episode(desk_base, ScenarioOverrides(career="barista"),
                             7, planner, goal)
        assert not record.goal_reached
        assert record.total_actions <= 5

    def test_deadlock_reported(self, desk_base):
        doc = json.loads(fixtures.path("desk_base").read_text())
        for action in doc["actions"]:
            action["requires"] = {"owned_object": "chef_station"}
        config = build_config(doc)
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=2000, max_actions=50)
        planner = AStarPlanner(HeuristicSpec(weights={"career_xp": 1.0}), goal)
        record = run_episode(config, ScenarioOverrides(career="barista"),
                             7, planner, goal)
        assert not record.goal_reached
        assert record.reason == "deadlock"

    def test_event_completed_goal(self, bugged_event):
        # completing (not timing out) the audit needs all twelve reports
        goal = GoalSpec(kind="event_completed", event="audit",
                        max_minutes=2000, max_actions=100)
        planner = AStarPlanner(HeuristicSpec(weights={"event_xp": 1.0}), goal)
        record = run_episode(bugged_event, ScenarioOverrides(career="clerk"),
                             7, planner, goal)
        assert record.goal_reached
        assert record.total_actions == 12


class TestEdges:
    def test_act_edges_advance_lock(self, desk_base):
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 7)
        edges = dict()
        for decision, succ in decision_edges(desk_base, state):
            edges[(decision.kind, decision.action or decision.until)] = succ
        succ = edges[("act", "brew")]
        assert succ.clock == 1  # duration elapsed inside the edge
        assert succ.counters.total_actions == 1

    def test_idle_state_gets_single_wait_edge(self, desk_base):
        state = initial_state(
            desk_base,
            ScenarioOverrides(career="barista", initial_resources={"energy": 0}),
            7)
        edges = decision_edges(desk_base, state)
        assert len(edges) == 1
        decision, succ = edges[0]
        assert decision.kind == "wait" and decision.until > state.clock

    def test_goal_check_consistency(self, desk_base):
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=5000, max_actions=200)
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 7)
        assert not goal_satisfied(goal, state)
