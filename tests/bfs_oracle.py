"""Exhaustive shortest-action-path oracle plus tiny generated configs.

The oracle shares the simulator's move generator (actions and wait
edges define the game) but implements its own exhaustive uniform-cost
search over the full state space, independent of the bounded planner
and its replanning loop. Wait edges cost zero actions; act edges cost
one.
"""

from __future__ import annotations

import heapq
import json
import random

from playtest.agents import GoalSpec, decision_edges, goal_satisfied
from playtest.sim import ScenarioOverrides, initial_state
from playtest.tuning import TuningConfig, parse_tuning


def shortest_actions(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    seed: int,
    goal: GoalSpec,
    max_states: int = 200_000,
) -> tuple[int | None, int]:
    """Minimal act-edge count from the initial state to the goal.

    Returns (optimum or None if unreachable, states settled). States
    beyond the goal's hard limits are pruned exactly like the planner
    prunes them.
    """
    start = initial_state(config, scenario, seed)
    counter = 0
    heap = [(0, counter, start)]
    settled: dict[tuple, int] = {}
    while heap:
        cost, _, state = heapq.heappop(heap)
        key = state.dedup_key()
        best = settled.get(key)
        if best is not None and best <= cost:
            continue
        settled[key] = cost
        if goal_satisfied(goal, state):
            return cost, len(settled)
        if len(settled) > max_states:
            raise RuntimeError("state space larger than max_states")
        for decision, child in decision_edges(config, state):
            if (child.clock > goal.max_minutes
                    or child.counters.total_actions > goal.max_actions):
                continue
            child_cost = cost + (1 if decision.kind == "act" else 0)
            child_key = child.dedup_key()
            best = settled.get(child_key)
            if best is not None and best <= child_cost:
                continue
            counter += 1
            heapq.heappush(heap, (child_cost, counter, child))
    return None, len(settled)


def count_reachable_states(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    seed: int,
    goal: GoalSpec,
    max_states: int = 200_000,
) -> int:
    """Enumerate every state reachable within the goal's hard limits."""
    start = initial_state(config, scenario, seed)
    seen = {start.dedup_key()}
    stack = [start]
    while stack:
        state = stack.pop()
        for _, child in decision_edges(config, state):
            if (child.clock > goal.max_minutes
                    or child.counters.total_actions > goal.max_actions):
                continue
            key = child.dedup_key()
            if key not in seen:
                if len(seen) > max_states:
                    raise RuntimeError("state space larger than max_states")
                seen.add(key)
                stack.append(child)
    return len(seen)


def random_desk_config(
    seed: int, regen_num: int = 1,
) -> tuple[TuningConfig, ScenarioOverrides, GoalSpec]:
    """A small randomized build with a reachable goal and a tiny state space.

    Energy regenerates `regen_num` units every 1 to 3 minutes.
    """
    rng = random.Random(seed)
    style = rng.choice(("career", "craft", "relationship"))

    capacity = rng.randint(6, 12)
    regen_den = rng.choice((1, 2, 3))
    doc = {
        "schema_version": 1,
        "build_id": f"random_{seed}",
        "resources": [{
            "id": "energy",
            "capacity": capacity,
            "regen_rate": {"num": regen_num, "den": regen_den},
            "initial": capacity,
        }],
        "actions": [],
        "events": [],
        "careers": [],
        "relationships": [],
        "objects": [],
    }

    if style == "relationship":
        chain_len = rng.randint(1, 2)
        for cat, action in (("friendship", "chat"), ("rivalry", "taunt")):
            doc["actions"].append({
                "id": action,
                "duration": rng.randint(1, 3),
                "cooldown": rng.choice((0, 0, 2)),
                "costs": {"energy": rng.randint(1, 2)},
                "rewards": {"relationship_xp": 1, "event_xp": 2},
                "requires": {"during_event": True},
                "category_tag": cat,
            })
            chain = []
            for i in range(chain_len):
                eid = f"{cat}_{i + 1}"
                chain.append(eid)
                doc["events"].append({
                    "id": eid,
                    "kind": "relationship",
                    "owner_id": cat,
                    "time_limit": 60,
                    "action_ids": [action],
                    "steps": [{
                        "xp_threshold": rng.choice((2, 4)),
                        "reward": {"relationship_xp": 1},
                    }],
                })
            doc["relationships"].append({"id": cat, "event_chain": chain})
        goal = GoalSpec(
            kind="any_relationship_chain_done",
            chain_length=chain_len,
            max_minutes=300,
            max_actions=10,
        )
        scenario = ScenarioOverrides()
    else:
        threshold = rng.choice((4, 6))
        step_xp = rng.randint(8, 14)
        work_xp = rng.randint(1, 3)
        # one completed event always clears the level-2 requirement, so the
        # goal stays reachable inside the small action limit
        doc["careers"].append({
            "id": "clerk",
            "max_level": 2,
            "xp_per_level": [0, rng.randint(6, step_xp)],
            "events_by_level": {"1": ["shift"]},
            "craft_items": ["part"] if style == "craft" else [],
            "object_unlocks": [],
        })
        doc["events"].append({
            "id": "shift",
            "kind": "career",
            "owner_id": "clerk",
            "time_limit": rng.choice((40, 80)),
            "action_ids": ["work"],
            "steps": [{
                "xp_threshold": threshold,
                "reward": {"career_xp": step_xp},
            }],
            "start_requires": {"career": "clerk", "min_level": 1},
        })
        work = {
            "id": "work",
            "duration": rng.randint(1, 4),
            "cooldown": rng.choice((0, 0, 3)),
            "costs": {"energy": rng.randint(1, 3)},
            "rewards": {"career_xp": work_xp, "event_xp": 2},
            "requires": {"career": "clerk", "min_level": 1, "during_event": True},
            "category_tag": "clerk",
        }
        doc["actions"].append(work)
        if style == "craft":
            work["consumes_items"] = {"part": 1}
            # free prep action: a positive cost could pin energy below the
            # work cost forever (no idle-wait exists while it stays legal)
            doc["actions"].append({
                "id": "fabricate",
                "duration": 1,
                "cooldown": 0,
                "costs": {},
                "rewards": {"items": {"part": 1}},
                "requires": {"career": "clerk", "min_level": 1},
                "category_tag": "clerk",
            })
        goal = GoalSpec(
            kind="career_level_reached",
            career="clerk",
            level=2,
            max_minutes=400,
            max_actions=12,
        )
        scenario = ScenarioOverrides(career="clerk")

    config = parse_tuning(json.dumps(doc))
    return config, scenario, goal
