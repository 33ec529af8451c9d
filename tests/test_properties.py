"""Invariant suites: randomized walks asserting the engine's contracts."""

import copy
import functools
import heapq
import json
import math
import pickle
import random
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from bfs_oracle import random_desk_config
from playtest import agents, fixtures, sim
from playtest.errors import Deadlock, IllegalAction, SuiteEntryError
from playtest.experiments import ExperimentConfig
from playtest.agents import (
    AStarPlanner,
    GoalSpec,
    HeuristicSpec,
    SoftmaxPlanner,
    SoftmaxPolicy,
    goal_satisfied,
    run_episode,
)
from playtest.sim import (
    ActiveEvent,
    CareerState,
    GameState,
    RelationshipState,
    ScenarioOverrides,
    advance_time,
    apply_action,
    close_session_if_idle,
    event_log_entries,
    initial_state,
    legal_actions,
    next_availability,
    step_action,
    trace_entries,
)
from playtest.tuning import parse_tuning, serialize_tuning

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)

# a generated build with energy regenerating 1 to 3 units per tick
generated_builds = dict(build_seed=st.integers(0, 10_000),
                        seed=st.integers(0, 2**32 - 1),
                        regen_num=st.integers(1, 3))


def random_walk(config, scenario, seed, steps=60):
    """Random legal play until the game deadlocks or the step budget ends."""
    state = initial_state(config, scenario, seed)
    rng = random.Random(seed)
    for _ in range(steps):
        acts = legal_actions(config, state)
        if acts and rng.random() < 0.85:
            state = step_action(config, state, rng.choice(acts))
        elif acts:
            # jump forward while staying legal about event deadlines
            state = advance_time(config, state, state.clock + rng.randint(1, 9))
        else:
            try:
                state = close_session_if_idle(config, state)
            except Deadlock:
                break  # nothing can ever become legal again: game over
    return state


def capacities(config):
    return {r.id: r.capacity for r in config.resources}


def with_payouts(config):
    """`config` with every reward bundle also paying one coin, a resource
    no action costs and no walk fills, so every payout changes a dict:
    a free action's, and those of event steps paid at a deadline, reach
    dicts that no cost has copied yet."""
    doc = json.loads(serialize_tuning(config))
    doc["resources"].append({"id": "coin", "capacity": 10**6, "initial": 0,
                             "regen_rate": {"num": 0, "den": 1}})
    bundles = [action["rewards"] for action in doc["actions"]] + [
        step["reward"] for event in doc["events"] for step in event["steps"]]
    for bundle in bundles:
        bundle.setdefault("resources", {})["coin"] = 1
    return parse_tuning(json.dumps(doc))


class TestResourceBounds:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(**generated_builds, payouts=st.booleans())
    def test_generated_builds(self, build_seed, seed, regen_num, payouts):
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        if payouts:
            config = with_payouts(config)
        caps = capacities(config)
        for state in walk_states(config, scenario, seed):
            for rid, value in state.resources.items():
                assert 0 <= value <= caps[rid]

    def test_random_walks_stay_in_bounds(self, desk_base):
        caps = capacities(desk_base)
        for seed in range(25):
            state = random_walk(
                desk_base, ScenarioOverrides(career="barista"), seed)
            for rid, value in state.resources.items():
                assert 0 <= value <= caps[rid]

    def test_reward_overflow_clamps(self):
        config = parse_tuning(json.dumps({
            "schema_version": 1,
            "build_id": "clamp",
            "resources": [{"id": "energy", "capacity": 5,
                           "regen_rate": {"num": 0, "den": 1}, "initial": 5}],
            "actions": [{
                "id": "chug", "duration": 1, "cooldown": 0,
                "costs": {"energy": 1},
                "rewards": {"resources": {"energy": 50}},
                "requires": {}, "category_tag": "",
            }],
            "events": [], "careers": [], "relationships": [], "objects": [],
        }))
        state = initial_state(config, ScenarioOverrides(), 1)
        state = step_action(config, state, "chug")
        assert state.resources["energy"] == 5


class TestRegenSplitExactness:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(**generated_builds, data=st.data())
    def test_generated_builds(self, build_seed, seed, regen_num, data):
        # from a drained start and from states of a walk, events and
        # locks included: any split of an advance equals one advance
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        drained = initial_state(
            config, replace(scenario, initial_resources={"energy": 0}), seed)
        for base in [drained, *walk_states(config, scenario, seed, 12)[::4]]:
            target = base.clock + data.draw(st.integers(1, 120))
            split = base
            while split.clock < target:
                split = advance_time(config, split, min(
                    target, split.clock + data.draw(st.integers(1, 7))))
            single = advance_time(config, base, target)
            assert split.resources == single.resources
            assert split.regen_remainders == single.regen_remainders
            assert split.dedup_key() == single.dedup_key()

    def test_any_split_equals_single_advance(self, desk_base):
        base = initial_state(
            desk_base,
            ScenarioOverrides(career="barista", initial_resources={"energy": 0}),
            3)
        for seed in range(20):
            rng = random.Random(seed)
            total = rng.randint(1, 120)
            single = advance_time(desk_base, base, total)
            split = base
            elapsed = 0
            while elapsed < total:
                chunk = min(rng.randint(1, 7), total - elapsed)
                elapsed += chunk
                split = advance_time(desk_base, split, elapsed)
            assert split.resources == single.resources
            assert split.regen_remainders == single.regen_remainders

    def test_minute_by_minute_equals_one_jump(self, desk_base):
        base = initial_state(
            desk_base,
            ScenarioOverrides(career="barista", initial_resources={"energy": 1}),
            3)
        jump = advance_time(desk_base, base, 101)
        crawl = base
        for minute in range(1, 102):
            crawl = advance_time(desk_base, crawl, minute)
        assert crawl.resources == jump.resources
        assert crawl.regen_remainders == jump.regen_remainders


class TestEventPayoutConservation:
    def xp_from_actions(self, config, state, reward="career_xp"):
        per_action = {a.id: getattr(a.rewards, reward) for a in config.actions}
        return sum(per_action.get(detail, 0)
                   for _, kind, detail in trace_entries(state)
                   if kind == "act")

    def expected_step_payout(self, config, outcome, reward="career_xp"):
        event = config.index().events[outcome.event_id]
        return sum(getattr(step.reward, reward) for step in event.steps
                   if outcome.accrued_xp >= step.xp_threshold)

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(**generated_builds)
    def test_generated_builds(self, build_seed, seed, regen_num):
        # career XP on career builds, relationship XP on relationship ones
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        state = random_walk(config, scenario, seed, steps=40)
        if state.active_event is not None:
            state = advance_time(config, state, state.active_event.deadline)
        held = {"career_xp": state.career.xp if state.career else 0,
                "relationship_xp": state.relationship.xp}
        for reward, xp in held.items():
            from_steps = sum(self.expected_step_payout(config, outcome, reward)
                             for outcome in event_log_entries(state))
            assert xp == self.xp_from_actions(config, state, reward) \
                + from_steps

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(**generated_builds)
    def test_coins_on_generated_builds_with_payouts(self, build_seed, seed,
                                                    regen_num):
        # every act and every event step reached pays one coin
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        config = with_payouts(config)
        state = random_walk(config, scenario, seed, steps=40)
        if state.active_event is not None:
            state = advance_time(config, state, state.active_event.deadline)
        events = config.index().events
        acts = sum(kind == "act" for _, kind, _ in trace_entries(state))
        steps = sum(outcome.accrued_xp >= step.xp_threshold
                    for outcome in event_log_entries(state)
                    for step in events[outcome.event_id].steps)
        assert state.resources["coin"] == acts + steps

    def test_total_career_xp_decomposes(self, bugged_event):
        scenario = ScenarioOverrides(career="clerk")
        for seed in range(20):
            state = random_walk(bugged_event, scenario, seed, steps=40)
            # close any open event so every payout is realized
            if state.active_event is not None:
                state = advance_time(bugged_event, state,
                                     state.active_event.deadline)
            from_actions = self.xp_from_actions(bugged_event, state)
            from_steps = sum(self.expected_step_payout(bugged_event, outcome)
                             for outcome in event_log_entries(state))
            assert state.career.xp == from_actions + from_steps

    def test_completion_and_timeout_pay_identically(self, desk_base):
        # reach the final threshold, once by acting and once by waiting:
        # the paid total must match because the same steps were reached
        scenario = ScenarioOverrides(career="barista")
        by_completion = initial_state(desk_base, scenario, 1)
        for _ in range(4):
            by_completion = step_action(desk_base, by_completion, "brew")
            by_completion = step_action(desk_base, by_completion, "serve")

        by_timeout = initial_state(desk_base, scenario, 1)
        for _ in range(4):
            by_timeout = step_action(desk_base, by_timeout, "brew")
        for _ in range(3):
            by_timeout = step_action(desk_base, by_timeout, "serve")
        by_timeout = step_action(desk_base, by_timeout, "serve")
        assert by_completion.career.xp == by_timeout.career.xp


class TestRelationshipCategoryLock:
    def test_no_walk_observes_two_categories(self, romance_outlier):
        for seed in range(30):
            state = random_walk(romance_outlier, ScenarioOverrides(), seed)
            owners = {outcome.owner for outcome in event_log_entries(state)
                      if outcome.kind == "relationship"}
            if state.relationship.category is not None:
                assert owners <= {state.relationship.category}
            else:
                assert not owners

    def test_scenario_preset_category_sticks(self, romance_outlier):
        scenario = ScenarioOverrides(relationship_category="rivalry")
        state = initial_state(romance_outlier, scenario, 5)
        assert state.relationship.category == "rivalry"
        acts = legal_actions(romance_outlier, state)
        assert acts == ["taunt"]


class TestCounterConservation:
    def test_totals_match_trace(self, desk_base):
        for seed in range(20):
            state = random_walk(
                desk_base, ScenarioOverrides(career="culinary"), seed)
            kinds = [k for _, k, _ in trace_entries(state)]
            assert state.counters.total_actions == kinds.count("act")
            assert len(state.counters.wait_intervals) == kinds.count("session_end")
            if state.counters.total_actions:
                assert state.counters.session_count() == \
                    kinds.count("session_end") + 1

    def test_event_actions_never_exceed_total(self, romance_outlier):
        for seed in range(20):
            state = random_walk(romance_outlier, ScenarioOverrides(), seed)
            assert state.counters.event_actions <= state.counters.total_actions


class TestTieRealization:
    def test_two_symmetric_first_actions_split_evenly(self):
        doc = json.loads(fixtures.path("romance_outlier").read_text())
        # keep only the two symmetric categories
        doc["actions"] = [a for a in doc["actions"] if a["id"] != "flirt"]
        doc["events"] = [e for e in doc["events"]
                         if e["owner_id"] in ("friendship", "rivalry")]
        doc["relationships"] = [r for r in doc["relationships"]
                                if r["id"] in ("friendship", "rivalry")]
        config = parse_tuning(json.dumps(doc))
        goal = GoalSpec(kind="any_relationship_chain_done", chain_length=1,
                        max_minutes=1000, max_actions=40)
        spec = HeuristicSpec(weights={"relationship_event_complete": 1.0,
                                      "event_xp": 1.0})
        counts = {"chat": 0, "taunt": 0}
        for seed in range(1000):
            planner = AStarPlanner(spec, goal)
            record = run_episode(config, ScenarioOverrides(), seed,
                                 planner, goal)
            assert record.goal_reached
            first_act = next(detail for _, kind, detail
                             in [(0, "act", e.owner)
                                 for e in record.event_log])
            counts["chat" if first_act == "friendship" else "taunt"] += 1
        frequency = counts["chat"] / 1000
        assert abs(frequency - 0.5) <= 0.05


class FixedTie:
    """An rng whose one 64-bit draw is `tie`: a new planner given it
    searches under root tie `tie`."""

    def __init__(self, tie):
        self.tie = tie

    def getrandbits(self, k):
        assert k == 64
        return self.tie


def answer_kind(planner, config, state):
    """What `planner` holds as its answer for the record of `state` in
    `config`'s graph: "wide" for an answer no tie number decided, kept
    for every root tie, "keyed" for one kept for one root tie, or None."""
    graph = agents._graph(config)
    if planner._generation is not graph.generation:
        return None
    held = planner._answers.get(graph.records.get((
        state_id(graph, state), state.counters.total_actions,
        state.auto_grant_objects)))
    if held is None:
        return None
    return "wide" if held[0] is None else "keyed"


def checked_decide(planner, config, state, rng):
    """`planner.decide`, checked against two new planners, made one after
    the other, each searching from `state` under the planner's root tie:
    each must make the same decision with the same expansion count,
    whether the planner searched or served a stored answer. Returns the
    decision and how it was made: "searched", "served" or "stop" (a
    stop without a search, at the goal, a hard limit or a dead end)."""
    graph = agents._graph(config)
    searches = graph.searches
    decision = planner.decide(config, state, rng)
    how = ("searched" if graph.searches > searches else
           "served" if planner.last_expanded else "stop")
    for _ in range(2):
        fresh = AStarPlanner(planner.heuristic, planner.goal, planner.node_budget)
        assert fresh.decide(config, state, FixedTie(planner.last_tie)) == decision
        assert fresh.last_expanded == planner.last_expanded
    return decision, how


def state_id(graph, state):
    """The state id `graph` gave `state`'s dedup key, or None: a lookup in
    its clock table that files nothing."""
    shared = graph.clocks.get(state.clock)
    if shared is None:
        return None
    if type(shared) is agents._Record:
        shared = {shared.state.dedup_key(): shared.sid}
    return shared.get(state.dedup_key())


def filed_states(graph):
    """How many states `graph`'s clock table files, one per state id."""
    return sum(1 if type(shared) is agents._Record else len(shared)
               for shared in graph.clocks.values())


def hand_state(name, clock, actions, key=None, done=()):
    """A state of a hand-built search graph: its dedup key is its clock
    and then `key`, else its name, so it leads with the clock as a
    `GameState`'s does; it has completed the events in `done`."""
    return SimpleNamespace(
        name=name, clock=clock, auto_grant_objects=False,
        counters=SimpleNamespace(total_actions=actions),
        events_completed=done, dedup_key=lambda: (clock, key or name))


class HandGraph:
    """A search graph of `hand_state`s, patched in for `agents._edges`:
    `children` maps a state's name to its children, each reached by an
    act named after it, and `h` a child's name to its heuristic value,
    patched in for every planner's evaluator. The goal is the event
    "goal". Every evaluator scores each goal state 0, and the planner
    tests the goal only there, so a goal child with a nonzero h raises
    ValueError."""

    goal = GoalSpec(kind="event_completed", event="goal")
    SEEDS = 40

    def __init__(self, monkeypatch, children, h, budget=2000):
        for moves in children.values():
            for child in moves:
                if goal_satisfied(self.goal, child) and h.get(child.name):
                    raise ValueError(f"goal state {child.name!r} has h "
                                     f"{h[child.name]!r}, not 0")
        self.budget = budget
        monkeypatch.setattr(agents, "_edges", lambda config, at, file: [
            (agents.Decision("act", action=child.name), file(child), ())
            for child in children.get(at.name, ())])
        monkeypatch.setattr(agents, "build_evaluator",
                            lambda *args: lambda at: h[at.name])

    def planner(self):
        """A new planner and a build of its own, whose graph is empty."""
        build = object()
        return (AStarPlanner(HeuristicSpec({}), self.goal, self.budget),
                SimpleNamespace(index=lambda: build))

    def search(self, state, rng, planner=None):
        """(action, nodes expanded, rng state) of a decision from `state`
        by `planner`, a pair from `planner()`, or by a new one."""
        planner, config = planner or self.planner()
        decision = planner.decide(config, state, rng)
        return decision.action, planner.last_expanded, rng.getstate()

    def walk(self, start, rng, planner=None):
        """An episode from `start`: each decision checked (see
        `checked_decide`) and its move committed by its record's edge,
        until a stop. Returns each decision's (state name, action, how
        it was made)."""
        planner, config = planner or self.planner()
        graph = agents._graph(config)
        state, moves = start, []
        while True:
            decision, how = checked_decide(planner, config, state, rng)
            moves.append((state.name, decision.action, how))
            if decision.kind == "stop":
                return moves
            state = next(child.state for move, child, _ in graph.at[1].edges
                         if move == decision)

    def check_served(self, start, later):
        """For each of `SEEDS` seeds, an episode from `start`: how many
        times it was served at `later`, each served decision checked."""
        return sum(("served" in {how for name, _, how in self.walk(
            start, random.Random(seed)) if name == later.name})
            for seed in range(self.SEEDS))

    def check_reused(self, start, later):
        """For each of `SEEDS` seeds, a search from `start`, then with the
        same planner a decision from `later` that starts another episode
        (a copy of the state, with another seed's root tie), checked:
        how many times that decision was served."""
        served = 0
        for seed in range(self.SEEDS):
            planner, config = self.planner()
            planner.decide(config, start, random.Random(seed))
            _, how = checked_decide(planner, config, copy.copy(later),
                                    random.Random(seed + self.SEEDS))
            served += how == "served"
        return served


class CheckedPlanner:
    """An AStarPlanner whose every decision is checked against fresh
    searches under its root tie (see `checked_decide`). The graph's clock
    table must file no more states than it has records. `answers` counts
    each decision by how it was made and the answer the planner then
    holds for its root (see `answer_kind`).
    """

    name = "astar"

    def __init__(self, heuristic, goal, node_budget):
        self.planner = AStarPlanner(heuristic, goal, node_budget)
        self.last_expanded = 0
        self.answers = Counter()

    def decide(self, config, state, rng):
        planner = self.planner
        decision, how = checked_decide(planner, config, state, rng)
        self.answers[how, answer_kind(planner, config, state)] += 1
        graph = agents._graph(config)
        assert filed_states(graph) <= len(graph.records)
        self.last_expanded = planner.last_expanded
        return decision

    def replay(self, config, scenario, seeds, goal):
        """Play one episode per seed; the `answers` of each episode."""
        counts = []
        for seed in seeds:
            self.answers = Counter()
            run_episode(config, scenario, seed, self, goal)
            counts.append(self.answers)
        return counts


def commit(config, state, decision):
    """Apply a move the way run_episode does (its trace entry aside)."""
    if decision.kind == "act":
        return step_action(config, state, decision.action)
    if legal_actions(config, state):
        return advance_time(config, state, decision.until)
    return close_session_if_idle(config, state)


def play_in_lockstep(planner, runs, seed, max_decisions=400):
    """One move per run in turn, all through one planner and its memo."""
    states = [initial_state(config, scenario, seed) for config, scenario in runs]
    rngs = [random.Random(seed) for _ in runs]
    live = set(range(len(runs)))
    for _ in range(max_decisions):
        for i in sorted(live):
            config = runs[i][0]
            decision = planner.decide(config, states[i], rngs[i])
            if decision.kind != "stop":
                states[i] = commit(config, states[i], decision)
            if (decision.kind == "stop"
                    or goal_satisfied(planner.planner.goal, states[i])):
                live.discard(i)
        if not live:
            return states
    raise AssertionError("episodes did not end")


# heuristic, goal and node budget of the benchmark's short A* episodes on
# romance_outlier (relationship_balance's settings)
SHORT_EPISODES = (
    HeuristicSpec({"relationship_event_complete": 1.0, "event_xp": 1.0}),
    GoalSpec(kind="any_relationship_chain_done", chain_length=5,
             max_minutes=5000, max_actions=300),
    2000)

SHIPPED_GROUPS = {
    "barista": ("desk_base", ScenarioOverrides(career="barista"), GoalSpec(
        kind="career_level_reached", career="barista", level=3,
        max_minutes=20_000, max_actions=400), {"career_xp": 1.0}, 200),
    "clerk": ("bugged_event", ScenarioOverrides(career="clerk"), GoalSpec(
        kind="career_level_reached", career="clerk", level=2,
        max_minutes=2000, max_actions=100), {"career_xp": 1.0}, 2000),
    "romance": ("romance_outlier", ScenarioOverrides(), GoalSpec(
        kind="any_relationship_chain_done", chain_length=5,
        max_minutes=5000, max_actions=300),
        {"relationship_event_complete": 1.0, "event_xp": 1.0}, 300),
    "chain": ("desk_base", ScenarioOverrides(), GoalSpec(
        kind="relationship_chain_done", category="friendship", chain_length=3,
        max_minutes=20_000, max_actions=400),
        {"relationship_event_complete": 1.0, "event_xp": 1.0}, 100),
    "granted": ("desk_objects", ScenarioOverrides(career="barista",
                                                  grant_objects=True), GoalSpec(
        kind="career_level_reached", career="barista", level=3,
        max_minutes=20_000, max_actions=400), {"career_xp": 1.0}, 30),
    "culinary": ("build_b", ScenarioOverrides(career="culinary"), GoalSpec(
        kind="career_level_reached", career="culinary", level=3,
        max_minutes=50_000, max_actions=3000),
        {"career_xp": 2.0, "crafted_item:coffee": 0.5,
         "crafted_item:dish": 0.5}, 400),
}


class TestPlannerMemo:
    """The cross-decision memo changes no decision of the A* planner."""

    # These properties play whole episodes, so a failing example is
    # reported unshrunk: shrinking one took minutes. The name is rebound
    # here rather than renamed, because a method's decorator text seeds its
    # derandomized examples, and those stay as they were.
    PROPERTY_SETTINGS = settings(
        PROPERTY_SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])

    @PROPERTY_SETTINGS
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1),
           node_budget=st.integers(1, 40))
    def test_memo_matches_fresh_search_on_generated_builds(
            self, build_seed, seed, node_budget):
        config, scenario, goal = random_desk_config(build_seed)
        weights = ({"career_xp": 1.0, "event_xp": 0.5}
                   if goal.kind == "career_level_reached" else
                   {"relationship_event_complete": 1.0, "event_xp": 1.0})
        planner = CheckedPlanner(HeuristicSpec(weights), goal, node_budget)
        run_episode(config, scenario, seed, planner, goal)

    @settings(PROPERTY_SETTINGS, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), node_budget=st.integers(5, 60))
    def test_reuse_across_grant_objects(self, desk_objects, seed, node_budget):
        # unlocks come at level 2, so both runs start from one dedup key
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=400)
        planner = CheckedPlanner(HeuristicSpec({"career_xp": 1.0}), goal,
                                 node_budget)
        base, granted = play_in_lockstep(planner, [
            (desk_objects, ScenarioOverrides(career="barista")),
            (desk_objects, ScenarioOverrides(career="barista",
                                             grant_objects=True)),
        ], seed)
        assert granted.owned_objects and not base.owned_objects

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    @settings(PROPERTY_SETTINGS, max_examples=10)
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3),
           node_budget=st.integers(5, 60))
    def test_episodes_in_a_row(self, desk_objects, memo_limit, seeds,
                               node_budget):
        # one planner for every episode, as a chunk of pooled trials has; a
        # limit of 3 makes it empty its memo again and again
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=400)
        planner = CheckedPlanner(HeuristicSpec({"career_xp": 1.0}), goal,
                                 node_budget)
        with mock.patch.object(agents, "_MEMO_LIMIT", memo_limit):
            for seed in seeds:
                for grant in (False, True):
                    scenario = ScenarioOverrides(career="barista",
                                                 grant_objects=grant)
                    run_episode(desk_objects, scenario, seed, planner, goal)

    def test_repeated_episode_asks_the_engine_nothing(self, desk_base,
                                                      monkeypatch):
        # the planner binds its evaluator once, so the counting one goes in
        # before the planner's first decision
        calls, evaluations = [], []
        edges, build = agents._edges, agents.build_evaluator

        def counting_build(*args):
            evaluate = build(*args)
            return lambda state: evaluations.append(1) or evaluate(state)

        monkeypatch.setattr(agents, "build_evaluator", counting_build)
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=400)
        planner = AStarPlanner(HeuristicSpec({"career_xp": 1.0}), goal, 200)
        scenario = ScenarioOverrides(career="barista")
        first = run_episode(desk_base, scenario, 5, planner, goal)
        assert evaluations
        evaluations.clear()
        monkeypatch.setattr(agents, "_edges",
                            lambda *args: calls.append(1) or edges(*args))
        again = run_episode(desk_base, scenario, 5, planner, goal)
        assert again.state_digest == first.state_digest
        assert again.decisions == first.decisions > 1
        assert not calls and not evaluations

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1),
           other=st.integers(0, 2**32 - 1), node_budget=st.integers(1, 40))
    def test_replays_serve_tie_free_decisions(self, build_seed, seed, other,
                                              node_budget):
        config, scenario, goal = random_desk_config(build_seed)
        weights = ({"career_xp": 1.0, "event_xp": 0.5}
                   if goal.kind == "career_level_reached" else
                   {"relationship_event_complete": 1.0, "event_xp": 1.0})
        planner = CheckedPlanner(HeuristicSpec(weights), goal, node_budget)
        first, second, third, _ = planner.replay(
            config, scenario, [seed, seed, seed, other], goal)
        check_replays(first, second, third)

    def test_replays_serve_tie_free_decisions_on_barista(self, desk_base):
        # barista's first decision is tie-sensitive: seeds 6 to 8 start
        # from seed 5's first root under other root ties, and a served
        # answer there would differ from a fresh search's. Each seed's
        # first episode searches once, at its first root, and that search
        # answers for the rest of its plan, the end of it for every root
        # tie; a replay of the seed is served throughout
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=400)
        planner = CheckedPlanner(HeuristicSpec({"career_xp": 1.0}), goal, 200)
        seeds = [5, 5, 5, 6, 7, 8]
        episodes = planner.replay(
            desk_base, ScenarioOverrides(career="barista"), seeds, goal)
        check_replays(*episodes[:3])
        for i, answers in enumerate(episodes):
            searches = 0 if seeds[i] in seeds[:i] else 1
            assert answers["searched", "keyed"] == answers.total() - (
                answers["served", "keyed"] + answers["served", "wide"]) == searches
            assert answers["served", "keyed"] > 0 and answers["served", "wide"] > 0

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(build_seed=st.integers(0, 10_000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
           node_budget=st.integers(1, 40))
    def test_episode_stream_plays_as_a_plain_random(self, build_seed, seeds,
                                                     node_budget):
        config, scenario, goal = random_desk_config(build_seed)
        weights = ({"career_xp": 1.0, "event_xp": 0.5}
                   if goal.kind == "career_level_reached" else
                   {"relationship_event_complete": 1.0, "event_xp": 1.0})
        check_stream_records(config, scenario, goal, weights, node_budget,
                             seeds + seeds)

    @pytest.mark.parametrize("group", sorted(SHIPPED_GROUPS))
    def test_episode_stream_plays_as_a_plain_random_on_fixtures(self, group):
        fixture, scenario, goal, weights, budget = SHIPPED_GROUPS[group]
        check_stream_records(fixtures.load(fixture), scenario, goal, weights,
                             budget, [5, 5, 6, 7, 5])

    def test_cutoff_commits_toward_the_next_pop(self, monkeypatch):
        # The budget is spent after the root's expansion. act has the least
        # (f, clock), so the search pops it next and heads for it; the
        # waits share its f at fewer actions and a later clock, and no tie
        # number decides between them and act. The root is answered for,
        # for every root tie.
        root = hand_state("root", 0, 0)
        graph = HandGraph(monkeypatch, {"root": [
            hand_state("act", 1, 1), hand_state("wait_a", 10, 0),
            hand_state("wait_b", 10, 0)]},
            {"act": 0.5, "wait_a": 1.5, "wait_b": 1.5}, budget=1)
        for seed in range(12):
            planner = graph.planner()
            assert graph.search(root, random.Random(seed), planner)[0] == "act"
            assert answer_kind(*planner, root) == "wide"
        assert graph.check_reused(root, root) == graph.SEEDS

    def test_cutoff_tie_is_never_served(self, monkeypatch):
        # As above with act at clock 10: all three children share (f,
        # clock), so the tie number picks the node the cut-off search pops,
        # and the test after that pop finds the tie. The answer is kept
        # for its root tie only, so no other episode is served it.
        root = hand_state("root", 0, 0)
        graph = HandGraph(monkeypatch, {"root": [
            hand_state("act", 10, 1), hand_state("wait_a", 10, 0),
            hand_state("wait_b", 10, 0)]},
            {"act": 0.5, "wait_a": 1.5, "wait_b": 1.5}, budget=1)
        planner = graph.planner()
        picked = set()
        for seed in range(12):
            decision = graph.search(root, random.Random(seed), planner)
            assert decision == graph.search(root, random.Random(seed))
            picked.add(decision[0])
        assert picked == {"act", "wait_a", "wait_b"}
        assert answer_kind(*planner, root) == "keyed"
        assert graph.check_reused(root, root) == 0

    def test_tie_with_a_later_chain_push_is_never_served(self, monkeypatch):
        # The search from the root runs through a and b, then pops the goal
        # x, which b pushed, against a's child c at the same (f, clock), a
        # goal too. Searching from a, x and c tie again, so the tie number
        # decides between b and c: a is served in the episode, under its
        # tie, and never in another.
        root, a, b = (hand_state(name, n, n) for name, n in
                      (("root", 0), ("a", 1), ("b", 2)))
        c = hand_state("c", 3, 3, done=("goal",))
        x = hand_state("x", 3, 3, done=("goal",))
        graph = HandGraph(monkeypatch, {"root": [a], "a": [b, c], "b": [x]},
                          {"a": 2.0, "b": 0.5, "c": 0.0, "x": 0.0})
        assert graph.check_served(root, a) == graph.SEEDS
        assert graph.check_reused(root, a) == 0

    def test_back_edge_to_an_earlier_chain_node_is_never_served(
            self, monkeypatch):
        # b has a child with the root's dedup key, so at the root's clock:
        # the search from the root had closed that key and does not push
        # it; searches from a and b do. c, past the back edge, is answered
        # for.
        root, a, b, c = (hand_state(name, n, n) for name, n in
                         (("root", 0), ("a", 1), ("b", 2), ("c", 3)))
        back = hand_state("back", 0, 3, key="root")
        x = hand_state("x", 4, 4, done=("goal",))
        graph = HandGraph(
            monkeypatch, {"root": [a], "a": [b], "b": [c, back], "c": [x]},
            {"a": 3.0, "b": 2.0, "c": 1.0, "back": 5.0, "x": 0.0})
        planner = graph.planner()
        graph.search(root, random.Random(0), planner)
        assert [answer_kind(*planner, state) for state in (root, a, b, c)] == [
            "wide", None, None, "wide"]
        assert graph.check_reused(root, a) == graph.check_reused(root, b) == 0
        assert graph.check_reused(root, c) == graph.SEEDS
        # the episode searches again from a, which answers for b
        assert graph.check_served(root, b) == graph.SEEDS

    def test_out_of_limits_back_edge_keeps_chain_answers(self, monkeypatch):
        # b has a child with the root's dedup key, so at the root's clock,
        # but beyond the goal's action limit: no search pushes it, from the
        # root or from a, so it closes no chain record's answer.
        root, a, b = (hand_state(name, n, n) for name, n in
                      (("root", 0), ("a", 1), ("b", 2)))
        back = hand_state("back", 0, 4, key="root")
        x = hand_state("x", 3, 3, done=("goal",))
        graph = HandGraph(monkeypatch, {"root": [a], "a": [b], "b": [back, x]},
                          {"a": 2.0, "b": 1.0, "x": 0.0})
        graph.goal = replace(graph.goal, max_actions=3)
        assert graph.check_reused(root, a) == graph.SEEDS

    def test_transposition_closed_outside_is_never_served(self, monkeypatch):
        # The root's children a and b both reach s, a dead end. The root's
        # search expands a and then s, before b (each has the lesser f),
        # so b's push of s is skipped; a search from b pushes and expands
        # s, one node more. b is on the goal path, and the closure made
        # outside its subtree withholds its answer.
        root = hand_state("root", 0, 0)
        a, b = hand_state("a", 1, 1), hand_state("b", 2, 1)
        s = hand_state("s", 3, 2)
        y = hand_state("y", 4, 2)
        x = hand_state("x", 5, 3, done=("goal",))
        graph = HandGraph(
            monkeypatch, {"root": [a, b], "a": [s], "b": [s, y], "y": [x]},
            {"a": 1.0, "b": 1.5, "s": 0.1, "y": 1.0, "x": 0.0})
        planner = graph.planner()
        graph.search(root, random.Random(0), planner)
        assert [answer_kind(*planner, state) for state in (root, b, y)] == [
            "wide", None, "wide"]
        assert graph.check_served(root, b) == 0
        assert graph.check_served(root, y) == graph.SEEDS

    def test_entries_one_ulp_apart_are_served(self, monkeypatch):
        # x and y differ by one ulp in f = 2 + h, and each reaches a goal
        # at no further action, so at f = 2 and h = 0. A search from a,
        # where a search relative to its root would compute f = 1 + h and
        # see x and y tie, computes the same f as the root's search: x
        # goes first from either root, then its goal, and a is answered
        # for.
        root, a = hand_state("root", 0, 0), hand_state("a", 1, 1)
        x, y = hand_state("x", 2, 2), hand_state("y", 2, 2)
        x_goal = hand_state("x_goal", 3, 2, done=("goal",))
        y_goal = hand_state("y_goal", 3, 2, done=("goal",))
        hx, hy = 2.0 ** -52 - 2.0 ** -60, 2.0 ** -52 + 2.0 ** -60
        assert 2 + hx < 2 + hy and 1 + hx == 1 + hy
        graph = HandGraph(
            monkeypatch,
            {"root": [a], "a": [x, y], "x": [x_goal], "y": [y_goal]},
            {"a": 1.0, "x": hx, "y": hy, "x_goal": 0.0, "y_goal": 0.0})
        assert graph.check_reused(root, a) == graph.SEEDS
        planner = graph.planner()
        graph.search(root, random.Random(0), planner)
        assert answer_kind(*planner, root) == "wide"

    def test_hand_graph_goal_has_h_zero(self, monkeypatch):
        # the planner tests the goal only where h is 0, so a hand graph
        # that scores a goal otherwise does not describe a search
        root, x = hand_state("root", 0, 0), hand_state("x", 1, 1, done=("goal",))
        HandGraph(monkeypatch, {"root": [x]}, {"x": 0.0})
        with pytest.raises(ValueError, match="goal state 'x' has h 2e-16"):
            HandGraph(monkeypatch, {"root": [x]}, {"x": 2e-16})

    def test_f_rounded_equal_at_a_later_clock_is_served(self, monkeypatch):
        # 2 + 2**-52 rounds to 2, so x and y share f and y's later clock
        # puts x first; x's goal, at no further action and a clock before
        # y's, goes next. Relative to a, where f = 1 + h, y's f would round
        # below x's; every search computes f = actions + h, so a's search
        # pops x first too, and a is answered for.
        root, a = hand_state("root", 0, 0), hand_state("a", 1, 1)
        x, y = hand_state("x", 2, 2), hand_state("y", 4, 2)
        x_goal = hand_state("x_goal", 3, 2, done=("goal",))
        y_goal = hand_state("y_goal", 5, 2, done=("goal",))
        hx, hy = 2.0 ** -52, 0.0
        assert 2 + hx == 2 + hy and 1 + hy < 1 + hx
        graph = HandGraph(
            monkeypatch,
            {"root": [a], "a": [x, y], "x": [x_goal], "y": [y_goal]},
            {"a": 1.0, "x": hx, "y": hy, "x_goal": 0.0, "y_goal": 0.0})
        assert graph.check_reused(root, a) == graph.SEEDS
        planner = graph.planner()
        graph.search(root, random.Random(0), planner)
        assert answer_kind(*planner, root) == "wide"

    def test_near_entry_withholds_answers_up_to_its_pusher(self, monkeypatch):
        # a pushes y, which ties x on (f, clock): the tie number decides
        # whether the root's search pops x, and a's too, so their answers
        # are kept for their root ties only. A search from b never pushes
        # y, so b's answer is kept for every root tie whenever the root's
        # search pops x.
        root, a, b = (hand_state(name, n, n) for name, n in
                      (("root", 0), ("a", 1), ("b", 2)))
        x = hand_state("x", 3, 2, done=("goal",))
        y = hand_state("y", 3, 2, done=("goal",))
        graph = HandGraph(monkeypatch, {"root": [a], "a": [b, y], "b": [x]},
                          {"a": 1.0, "b": 0.0, "x": 0.0, "y": 0.0})
        assert graph.check_reused(root, a) == 0
        assert 0 < graph.check_reused(root, b) < graph.SEEDS
        assert graph.check_served(root, a) == graph.SEEDS

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(data=st.data())
    def test_chain_answers_match_fresh_searches_near_rounding(self, data):
        # A straight chain from the root to the goal, each record but the
        # root with one or two side children at the chain's next action
        # count, each side a goal or one move from a goal at no further
        # action or time. The moves of a record have h within two 2**-60
        # of k * 2**-52 or (k + 1) * 2**-52, for one k of 0 to 3 per
        # record: actions + h rounds these differently at 1 action and at
        # 2 or 3. A goal's h is 0, as every evaluator's is, so which of
        # two such moves pops first decides which goal the search reaches.
        # Each clock is one of two. So entries that differ by an ulp, that
        # tie exactly, and that would order otherwise if f were taken
        # relative to a later root all occur. Every decision of an
        # episode from the root, served or searched, and of a later
        # episode from each chain record, must be a fresh search's.
        draw = data.draw
        length = draw(st.integers(2, 3), label="length")
        chain, children, h = [hand_state("p0", 0, 0)], {}, {}
        for i in range(length):
            parent = chain[-1]
            moves = [hand_state(f"p{i + 1}", parent.clock + draw(st.integers(0, 1)),
                                i + 1, done=("goal",) if i + 1 == length else ())]
            chain.append(moves[0])
            for j in range(draw(st.integers(1, 2)) if i else 0):
                moves.append(hand_state(
                    f"s{i}_{j}", parent.clock + draw(st.integers(0, 1)), i + 1,
                    done=("goal",) if draw(st.booleans()) else ()))
            children[parent.name] = draw(st.permutations(moves))
            k = draw(st.integers(0, 3))
            for move in moves:
                value = max(0.0, (k + draw(st.integers(0, 1))) * 2.0 ** -52
                            + draw(st.integers(-2, 2)) * 2.0 ** -60)
                h[move.name] = 0.0 if move.events_completed else value
                if move.name[0] == "s" and not move.events_completed:
                    goal = hand_state(f"{move.name}_goal", move.clock, i + 1,
                                      done=("goal",))
                    children[move.name], h[goal.name] = [goal], 0.0
        with pytest.MonkeyPatch.context() as monkeypatch:
            graph = HandGraph(monkeypatch, children, h)
            graph.SEEDS = 8
            for record in chain[1:]:
                graph.check_served(chain[0], record)
                graph.check_reused(chain[0], record)

    def test_equal_f_at_a_later_elapsed_is_served(self, monkeypatch):
        # The benchmark's short episodes: y has x's f with one action fewer
        # and a later clock. Every search computes the same f for both, and
        # the clock puts x first: the root's search answers for a.
        root, a = hand_state("root", 0, 0), hand_state("a", 1, 1)
        x = hand_state("x", 2, 3, done=("goal",))
        y = hand_state("y", 5, 2)
        graph = HandGraph(monkeypatch, {"root": [a], "a": [x, y]},
                          {"a": 2.0, "x": 0.0, "y": 1.0})
        assert graph.check_reused(root, a) == graph.SEEDS

    @settings(PROPERTY_SETTINGS, max_examples=250)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_short_episodes_match_fresh_search(self, romance_outlier, seed):
        # the benchmark's short episodes, each with a new planner, reach the
        # equal f, later elapsed entries that the generated builds may not
        planner = CheckedPlanner(*SHORT_EPISODES)
        run_episode(romance_outlier, ScenarioOverrides(), seed, planner,
                    planner.planner.goal)

    def test_short_episodes_search_once(self, romance_outlier):
        # Seeds 0 to 99, a new planner each: each episode's one search, at
        # its first root, reaches the goal past many entries of equal f and
        # later elapsed, and answers for the 19 decisions after it. Which
        # answers are stored rests on float comparisons, so the count is
        # pinned on every Python version.
        searches, served = Counter(), 0
        for seed in range(100):
            planner = CheckedPlanner(*SHORT_EPISODES)
            run_episode(romance_outlier, ScenarioOverrides(), seed, planner,
                        planner.planner.goal)
            hits = sum(n for (how, _), n in planner.answers.items()
                       if how == "served")
            searches[planner.answers.total() - hits] += 1
            served += hits
        assert searches == Counter({1: 100})
        assert served == 1900

    def test_third_replay_pushes_nothing(self, build_b, monkeypatch):
        # every search of this episode is tie-free, and the first runs
        # straight to the goal: it answers for every later root, so the
        # second and third replays are served without a search
        pushes = []
        push = heapq.heappush
        monkeypatch.setattr(agents.heapq, "heappush",
                            lambda *args: pushes.append(1) or push(*args))
        _, scenario, goal, weights, budget = SHIPPED_GROUPS["culinary"]
        planner = AStarPlanner(HeuristicSpec(weights), goal, budget)
        counts, records = [], []
        for _ in range(3):
            pushes.clear()
            records.append(run_episode(build_b, scenario, 5, planner, goal))
            counts.append(len(pushes))
        assert counts[0] > 0 and counts[1] == counts[2] == 0
        assert len({r.state_digest for r in records}) == 1
        assert len({r.max_nodes_expanded for r in records}) == 1

    def test_straight_search_serves_the_rest_of_the_episode(
            self, build_b, monkeypatch):
        # the benchmark's long A* episode: decision k expands 168 - k
        # nodes, each search running straight down the same path, so the
        # first search answers for the 167 decisions after it
        pushes, searches, expanded = [], [], []
        push = heapq.heappush
        monkeypatch.setattr(agents.heapq, "heappush",
                            lambda *args: pushes.append(1) or push(*args))

        class CountingPlanner(AStarPlanner):
            def decide(self, config, state, rng):
                before = len(pushes)
                decision = super().decide(config, state, rng)
                searches.append(len(pushes) > before)
                expanded.append(self.last_expanded)
                return decision

        _, scenario, goal, weights, budget = SHIPPED_GROUPS["culinary"]
        record = run_episode(build_b, scenario, 5, CountingPlanner(
            HeuristicSpec(weights), goal, budget), goal)
        assert record.goal_reached and record.decisions == 168
        assert searches == [True] + [False] * 167
        assert expanded == list(range(168, 0, -1))

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    def test_id_table_is_bounded_by_the_records(self, memo_limit,
                                                monkeypatch):
        # every state the clock table files belongs to a record, so
        # emptying the records must empty the clock table too; a root
        # lookup empties a graph past the limit before it files the root
        sizes, generations = [], set()
        root = agents._Graph.root

        def sized_root(graph, state):
            record = root(graph, state)
            sizes.append((filed_states(graph), len(graph.records)))
            generations.add(graph.generation)
            return record

        monkeypatch.setattr(agents._Graph, "root", sized_root)
        monkeypatch.setattr(agents, "_MEMO_LIMIT", memo_limit)
        config = fixtures.load("desk_objects")
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=400)
        planner = AStarPlanner(HeuristicSpec({"career_xp": 1.0}), goal, 30)
        for grant in (False, True):
            run_episode(config, ScenarioOverrides(
                career="barista", grant_objects=grant), 11, planner, goal)
        assert len(sizes) > 10
        assert all(filed <= records <= memo_limit + 1
                   for filed, records in sizes)
        assert (len(generations) > 1) == (memo_limit == 3)

    @settings(PROPERTY_SETTINGS, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), node_budget=st.integers(5, 60))
    def test_reuse_across_configs(self, desk_base, seed, node_budget):
        # same start state, different successors: serve pays more career XP
        doc = json.loads(fixtures.path("desk_base").read_text())
        serve = next(a for a in doc["actions"] if a["id"] == "serve")
        serve["rewards"]["career_xp"] += 3
        richer = parse_tuning(json.dumps(doc))
        scenario = ScenarioOverrides(career="barista")
        assert (initial_state(desk_base, scenario, 0).dedup_key()
                == initial_state(richer, scenario, 0).dedup_key())
        goal = GoalSpec(kind="career_level_reached", career="barista", level=3,
                        max_minutes=20_000, max_actions=400)
        planner = CheckedPlanner(HeuristicSpec({"career_xp": 1.0}), goal,
                                 node_budget)
        play_in_lockstep(planner, [(desk_base, scenario), (richer, scenario)],
                         seed)


@st.composite
def hand_graphs(draw):
    """A layered hand graph (see `HandGraph`): (root, children, h).

    Each layer holds one to three states at its action count and one of
    two clocks; each state moves to some states of the next layer, which
    it shares with its siblings (transpositions), and some states have a
    back edge: a child with the dedup key and clock of a state of an
    earlier layer, at more actions, a dead end. The last layer is all
    goals, and any other state may be one. A state's h is one of a few
    multiples of 0.5 (0 at a goal), so entries often tie on (f, clock).
    """
    layers = [[hand_state("n0_0", 0, 0)]]
    h = {"n0_0": 1.0}
    for i in range(1, draw(st.integers(2, 4)) + 1):
        layer = []
        for j in range(draw(st.integers(1, 3))):
            goal = draw(st.booleans()) if i > 1 else False
            state = hand_state(f"n{i}_{j}", i + draw(st.integers(0, 1)), i,
                               done=("goal",) if goal else ())
            layer.append(state)
            h[state.name] = 0.0 if goal else draw(st.sampled_from([0.5, 1.0, 1.5]))
        layers.append(layer)
    for state in layers[-1]:
        state.events_completed = ("goal",)
        h[state.name] = 0.0
    children = {}
    for i, layer in enumerate(layers[:-1]):
        for state in layer:
            if state.events_completed:
                continue
            moves = draw(st.lists(st.sampled_from(layers[i + 1]), min_size=1,
                                  max_size=3, unique_by=lambda s: s.name))
            if i and draw(st.booleans()):
                earlier = draw(st.sampled_from([s for layer in layers[:i]
                                                for s in layer]))
                back = hand_state(f"b_{state.name}", earlier.clock, i + 1,
                                  key=earlier.name)
                moves.append(back)
                h[back.name] = draw(st.sampled_from([0.5, 1.0]))
            children[state.name] = draw(st.permutations(moves))
    return layers[0][0], children, h


def serve_generated(build_seed, seeds, node_budget):
    """One checked planner (see `CheckedPlanner`) over a generated build:
    each seed played twice, so later episodes meet earlier answers under
    other root ties."""
    config, scenario, goal = random_desk_config(build_seed)
    weights = ({"career_xp": 1.0, "event_xp": 0.5}
               if goal.kind == "career_level_reached" else
               {"relationship_event_complete": 1.0, "event_xp": 1.0})
    planner = CheckedPlanner(HeuristicSpec(weights), goal, node_budget)
    planner.replay(config, scenario, seeds + seeds, goal)


def serve_hand_graph(monkeypatch, graph, budget):
    """Four checked episodes (see `HandGraph.walk`) from a hand graph's
    root by one planner, each under its own root tie, and a later checked
    decision from every state."""
    root, children, h = graph
    hand = HandGraph(monkeypatch, children, h, budget)
    hand.SEEDS = 4
    planner = hand.planner()
    for seed in range(hand.SEEDS):
        hand.walk(root, random.Random(seed), planner)
    states = {child.name: child for moves in children.values()
              for child in moves}
    for state in states.values():
        checked_decide(planner[0], planner[1], copy.copy(state),
                       random.Random(len(state.name)))


class TieFlagChecked:
    """A planner's answer table as `_store_path_answers` writes it, checked:
    an answer stored for a record that already holds one must agree with
    it on whether a tie number decided it (its tie is None or not)."""

    def __init__(self, answers):
        self.answers = answers

    def __setitem__(self, record, answer):
        held = self.answers.get(record)
        assert held is None or (held[0] is None) == (answer[0] is None), (
            held, answer)
        self.answers[record] = answer


def check_tie_flags(monkeypatch):
    """Route every answer `_store_path_answers` stores through
    `TieFlagChecked`."""
    store = agents._store_path_answers
    monkeypatch.setattr(agents, "_store_path_answers", lambda *args: store(
        *args[:-1], TieFlagChecked(args[-1])))


class TestServedDecisions:
    """Every decision a planner serves, whether a root's answer or a goal
    path's, kept for every root tie or for one, is the search a new
    planner makes from that record under the same root tie: the same
    decision and the same expansion count (see `checked_decide`)."""

    PROPERTY_SETTINGS = settings(
        PROPERTY_SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(build_seed=st.integers(0, 10_000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3),
           node_budget=st.integers(1, 40))
    def test_served_decisions_on_generated_builds(self, build_seed, seeds,
                                                  node_budget):
        serve_generated(build_seed, seeds, node_budget)

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1),
           other=st.integers(0, 2**32 - 1), node_budget=st.integers(1, 40))
    def test_replay_is_served_throughout(self, build_seed, seed, other,
                                         node_budget):
        # an answer is kept for the graph's generation with the root tie
        # it holds for, so a replay of a seed, whose roots and root ties
        # are the first run's, is served at every decision
        config, scenario, goal = random_desk_config(build_seed)
        weights = ({"career_xp": 1.0, "event_xp": 0.5}
                   if goal.kind == "career_level_reached" else
                   {"relationship_event_complete": 1.0, "event_xp": 1.0})
        planner = CheckedPlanner(HeuristicSpec(weights), goal, node_budget)
        first, again, _ = planner.replay(config, scenario, [seed, seed, other],
                                         goal)
        assert again.total() == first.total()
        assert sum(n for (how, _), n in again.items() if how == "searched") == 0

    @pytest.mark.parametrize("group", sorted(SHIPPED_GROUPS))
    def test_served_decisions_on_fixtures(self, group):
        fixture, scenario, goal, weights, budget = SHIPPED_GROUPS[group]
        planner = CheckedPlanner(HeuristicSpec(weights), goal, budget)
        planner.replay(fixtures.load(fixture), scenario, [5, 5, 6, 7, 5], goal)

    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(graph=hand_graphs(),
           budget=st.integers(1, 12))
    def test_served_decisions_on_hand_graphs(self, graph, budget):
        with pytest.MonkeyPatch.context() as monkeypatch:
            serve_hand_graph(monkeypatch, graph, budget)

    # `_store_path_answers` lets a later search's answer replace a record's
    # answer. Whether a search meets a tie does not depend on its root tie
    # (one that meets none pops by (f, clock) alone), so the two agree on
    # whether a tie decided them: a keyed answer never replaces a tie-free
    # one, or a tie-free one a keyed one

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(build_seed=st.integers(0, 10_000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3),
           node_budget=st.integers(1, 40))
    def test_a_stored_answer_keeps_its_tie_flag_on_generated_builds(
            self, build_seed, seeds, node_budget):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_tie_flags(monkeypatch)
            serve_generated(build_seed, seeds, node_budget)

    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(graph=hand_graphs(),
           budget=st.integers(1, 12))
    def test_a_stored_answer_keeps_its_tie_flag_on_hand_graphs(self, graph,
                                                               budget):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_tie_flags(monkeypatch)
            serve_hand_graph(monkeypatch, graph, budget)


class ReadCounting(random.Random):
    """A `random.Random` that notes each read of its numbers in `reads`."""

    def __init__(self, seed, reads):
        self.reads = reads
        super().__init__(seed)

    def random(self):
        self.reads.append("random")
        return super().random()

    def getrandbits(self, k):
        self.reads.append(k)
        return super().getrandbits(k)


def same_play(record):
    """A trial record without its work and timing: what a trial played."""
    return replace(record, max_decision_seconds=0.0, searches=0)


def check_stream_records(config, scenario, goal, weights, budget, seeds):
    """An episode's stream is `random.Random(seed)`, and an A* episode
    reads it once, one 64-bit root tie at its first decision. One
    planner's records over `seeds` in turn must equal, field for field
    (the decision time and the search count aside), those of a new
    planner per seed."""
    records = []
    for shared in (True, False):
        planner = AStarPlanner(HeuristicSpec(weights), goal, budget)
        played = []
        for seed in seeds:
            reads = []
            stream = functools.partial(ReadCounting, reads=reads)
            with mock.patch.object(agents, "random",
                                   SimpleNamespace(Random=stream)):
                record = run_episode(config, scenario, seed, planner if shared
                                     else AStarPlanner(HeuristicSpec(weights),
                                                       goal, budget), goal)
            assert reads == ([64] if record.decisions else [])
            played.append(same_play(record))
        records.append(played)
    assert records[0] == records[1]


def check_replays(first, second, third):
    """Answers of three replays of one seed by one planner: the second
    and third are the same, searching no more than the first, and every
    decision the first served from an answer kept for every root tie is
    served again."""
    assert second == third and second.total() == first.total()
    assert (sum(n for (how, _), n in second.items() if how == "searched")
            <= sum(n for (how, _), n in first.items() if how == "searched"))
    assert second["served", "wide"] >= first["served", "wide"]


class ForwardingPlanner:
    """Forwards `decide`, `name` and `last_expanded` to a planner, as the
    benchmark's TimedAgent does, and nothing else."""

    def __init__(self, planner):
        self.planner = planner
        self.name = planner.name
        self.last_expanded = 0

    def decide(self, config, state, rng):
        decision = self.planner.decide(config, state, rng)
        self.last_expanded = self.planner.last_expanded
        return decision


def check_wrapped_records(config, scenario, goal, weights, budget, seeds):
    """A bare planner and the same planner behind a ForwardingPlanner must
    give equal records, field for field (the decision time aside), over
    every seed in turn."""
    bare = AStarPlanner(HeuristicSpec(weights), goal, budget)
    wrapped = ForwardingPlanner(AStarPlanner(HeuristicSpec(weights), goal, budget))
    for seed in seeds:
        records = [replace(run_episode(config, scenario, seed, agent, goal),
                           max_decision_seconds=0.0)
                   for agent in (bare, wrapped)]
        assert records[0] == records[1]


class TestHandedEdges:
    """A move is committed as the child state of its record's edge, with
    the edge's effects recorded, whether the planner is bare or wrapped;
    nothing else may change."""

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    @settings(PROPERTY_SETTINGS, max_examples=25)
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1),
           other=st.integers(0, 2**32 - 1), node_budget=st.integers(1, 40))
    def test_wrapped_planner_gives_equal_records(
            self, memo_limit, build_seed, seed, other, node_budget):
        # the third run of `seed` serves its tie-free roots; a limit of 3
        # empties the graph again and again, under the episode's record
        config, scenario, goal = random_desk_config(build_seed)
        weights = ({"career_xp": 1.0, "event_xp": 0.5}
                   if goal.kind == "career_level_reached" else
                   {"relationship_event_complete": 1.0, "event_xp": 1.0})
        with mock.patch.object(agents, "_MEMO_LIMIT", memo_limit):
            check_wrapped_records(config, scenario, goal, weights, node_budget,
                                  [seed, seed, seed, other])

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    @pytest.mark.parametrize("group", sorted(SHIPPED_GROUPS))
    def test_wrapped_planner_gives_equal_records_on_fixtures(
            self, group, memo_limit, monkeypatch):
        fixture, scenario, goal, weights, budget = SHIPPED_GROUPS[group]
        monkeypatch.setattr(agents, "_MEMO_LIMIT", memo_limit)
        check_wrapped_records(fixtures.load(fixture), scenario, goal, weights,
                              budget, [5, 5, 5, 6, 7])

    def test_third_replay_hashes_no_root_and_steps_no_commit(
            self, desk_base, monkeypatch):
        hashes, engine, per_decision = [], [], []

        class CountingPlanner(AStarPlanner):
            def decide(self, config, state, rng):
                before = len(hashes)
                decision = super().decide(config, state, rng)
                per_decision.append(len(hashes) - before)
                return decision

        goal = SHIPPED_GROUPS["barista"][2]
        planner = CountingPlanner(HeuristicSpec({"career_xp": 1.0}), goal, 200)
        scenario = ScenarioOverrides(career="barista")
        records = [run_episode(desk_base, scenario, 5, planner, goal)
                   for _ in range(2)]
        key = GameState.dedup_key
        monkeypatch.setattr(GameState, "dedup_key",
                            lambda state: hashes.append(1) or key(state))
        for name in ("act_edge", "wait_edge", "_commit"):
            monkeypatch.setattr(agents, name, functools.partial(
                lambda fn, *args: engine.append(fn) or fn(*args),
                getattr(agents, name)))
        per_decision.clear()
        records.append(run_episode(desk_base, scenario, 5, planner, goal))
        # only the episode's first root, a state no search made, is hashed;
        # the final digest is its record's
        assert per_decision[0] == 1 and sum(per_decision) == len(hashes) == 1
        assert len(per_decision) == records[2].decisions > 1
        assert not engine
        assert same_play(records[2]) == same_play(records[0])
        # the first root is tie-sensitive: the first episode searches it
        # and is served the rest of its plan, and a replay is served
        # throughout, the first root under the same root tie
        assert records[0].searches == 1
        assert records[1].searches == records[2].searches == 0

    def test_wrapped_replay_commits_with_no_engine_step(self, monkeypatch):
        # behind a wrapper, which passes nothing on but the decision, every
        # move is still committed by an edge of the episode's record: the
        # first run steps the engine only to expand, the second not at all
        config = fixtures.load("desk_base")
        calls = Counter()
        for name in ("_edges", "_commit"):
            monkeypatch.setattr(agents, name, functools.partial(
                lambda name, fn, *args: calls.update([name]) or fn(*args),
                name, getattr(agents, name)))
        goal = SHIPPED_GROUPS["barista"][2]
        wrapped = ForwardingPlanner(
            AStarPlanner(HeuristicSpec({"career_xp": 1.0}), goal, 200))
        scenario = ScenarioOverrides(career="barista")
        first = run_episode(config, scenario, 5, wrapped, goal)
        assert first.decisions > 1
        assert calls["_edges"] > 0 and calls["_commit"] == 0
        calls.clear()
        again = run_episode(config, scenario, 5, wrapped, goal)
        assert not calls
        assert same_play(again) == same_play(first)
        assert first.searches == 1 and again.searches == 0


def other_goal(goal):
    """A goal of another kind, with other limits, on the build of a
    `random_desk_config` goal."""
    if goal.kind == "career_level_reached":
        return GoalSpec(kind="event_completed", event="shift",
                        max_minutes=300, max_actions=8)
    return GoalSpec(kind="relationship_chain_done", category="rivalry",
                    chain_length=goal.chain_length, max_minutes=200,
                    max_actions=8)


def shared_graph_players(config, goal, budgets):
    """Three agents with their own goals, heuristics and budgets: two
    planners and a Softmax agent, each with the goal it plays to."""
    weights = ({"career_xp": 1.0, "event_xp": 0.5}
               if goal.kind == "career_level_reached" else
               {"relationship_event_complete": 1.0, "event_xp": 1.0})
    other = other_goal(goal)
    return [
        (AStarPlanner(HeuristicSpec(weights), goal, budgets[0]), goal),
        (AStarPlanner(HeuristicSpec({"event_xp": 2.0, "relationship_xp": 1.0}),
                      other, budgets[1]), other),
        (SoftmaxPlanner(SoftmaxPolicy.zero(), config), goal),
    ]


class TestSharedGraph:
    """The agents alive on a build at once move on one engine graph, and
    no agent's play changes another's; an agent's replay asks the engine
    nothing, and a graph goes with the last agent that holds it."""

    PROPERTY_SETTINGS = settings(
        PROPERTY_SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    @settings(PROPERTY_SETTINGS, max_examples=25)
    @given(build_seed=st.integers(0, 10_000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
           budgets=st.tuples(st.integers(1, 40), st.integers(1, 40)))
    def test_agents_on_one_graph_play_as_each_alone(
            self, memo_limit, build_seed, seeds, budgets):
        # episodes of the three agents in turn on one build, against each
        # agent's episodes on a build of its own; a limit of 3 empties the
        # graph again and again while the other agents hold records
        config, scenario, goal = random_desk_config(build_seed)
        with mock.patch.object(agents, "_MEMO_LIMIT", memo_limit):
            together = [[] for _ in range(3)]
            players = shared_graph_players(config, goal, budgets)
            graph = agents._graph(config)
            for seed in seeds:
                for records, (agent, agent_goal) in zip(together, players):
                    records.append(run_episode(config, scenario, seed, agent,
                                               agent_goal))
            # every agent that decided moved on the one graph
            assert {agent._graph for agent, _ in players} <= {graph, None}
            for i, records in enumerate(together):
                own = pickle.loads(pickle.dumps(config))  # with no graph
                agent, agent_goal = shared_graph_players(own, goal, budgets)[i]
                alone = [run_episode(own, scenario, seed, agent, agent_goal)
                         for seed in seeds]
                # an agent's search count is work, and it depends on what
                # the graph held: an emptied graph serves less
                assert [same_play(r) for r in alone] == [
                    same_play(r) for r in records]

    def test_emptied_graph_leaves_no_stale_records_with_an_agent(
            self, monkeypatch):
        # a planner holds its data for the barista episode's records when
        # another planner's episode empties the graph again and again; its
        # next decision drops that data, and its replay is unchanged
        config = fixtures.load("desk_base")
        fixture, scenario, goal, weights, budget = SHIPPED_GROUPS["barista"]
        holder = CheckedPlanner(HeuristicSpec(weights), goal, budget)
        first = run_episode(config, scenario, 5, holder, goal)
        held = set(holder.planner._answers)
        assert held

        monkeypatch.setattr(agents, "_MEMO_LIMIT", 3)
        _, scenario_b, goal_b, weights_b, budget_b = SHIPPED_GROUPS["chain"]
        run_episode(config, scenario_b, 5,
                    AStarPlanner(HeuristicSpec(weights_b), goal_b, budget_b),
                    goal_b)
        assert not held & set(agents._graph(config).records.values())
        monkeypatch.undo()

        again = run_episode(config, scenario, 5, holder, goal)
        planner, current = holder.planner, set(agents._graph(config).records.values())
        assert set(planner._answers) <= current
        assert len(planner._h) <= len(current)
        assert same_play(again) == same_play(first)

    def test_agent_off_the_graph_steps_from_its_own_state(self):
        # a planner's expanded root record, three brews in, is the graph's
        # `at` while an agent off the graph plays from the start: each of
        # its brews must be stepped from its own state
        config = fixtures.load("desk_base")
        _, scenario, goal, weights, budget = SHIPPED_GROUPS["barista"]
        state = initial_state(config, scenario, 1)
        for _ in range(3):
            state = step_action(config, state, "brew")
        planner = AStarPlanner(HeuristicSpec(weights), goal, budget)
        planner.decide(config, state, random.Random(1))

        class FirstMove:
            def decide(self, config, state, rng):
                return agents.available_moves(config, state)[0]

        goal = replace(goal, max_actions=10)
        alone = run_episode(pickle.loads(pickle.dumps(config)), scenario, 1,
                            FirstMove(), goal)
        assert replace(run_episode(config, scenario, 1, FirstMove(), goal),
                       max_decision_seconds=0.0) == replace(
            alone, max_decision_seconds=0.0)

    @staticmethod
    def count_engine_calls(monkeypatch) -> Counter:
        calls = Counter()
        for name in ("_edges", "_commit"):
            monkeypatch.setattr(agents, name, functools.partial(
                lambda name, fn, *args: calls.update([name]) or fn(*args),
                name, getattr(agents, name)))
        key = GameState.dedup_key
        monkeypatch.setattr(GameState, "dedup_key", lambda state: calls.update(
            ["dedup_key"]) or key(state))
        return calls

    def test_second_round_of_one_planner_asks_the_engine_nothing(
            self, monkeypatch):
        # the trial runner's agent serves a whole group: from its second
        # round on, every state is a record of the graph it holds
        config = fixtures.load("romance_outlier")
        _, scenario, goal, weights, _ = SHIPPED_GROUPS["romance"]
        calls = self.count_engine_calls(monkeypatch)
        planner = AStarPlanner(HeuristicSpec(weights), goal)

        def play_round():
            return [same_play(run_episode(config, scenario, seed, planner, goal))
                    for seed in range(10)]

        first = play_round()
        assert calls["_edges"] > 0 and calls["_commit"] == 0
        calls.clear()
        assert play_round() == first
        # one hash per episode: its start state
        assert calls == Counter(dedup_key=10)

    def test_planner_made_per_trial_starts_on_an_empty_graph(
            self, monkeypatch):
        # a planner made per trial keeps nothing on the build once it is
        # gone, so a trial re-run after the round makes the engine calls
        # it made at first, as the benchmark's traced re-run requires
        config = fixtures.load("romance_outlier")
        _, scenario, goal, weights, _ = SHIPPED_GROUPS["romance"]
        calls = self.count_engine_calls(monkeypatch)

        def play(seed):
            calls.clear()
            record = run_episode(config, scenario, seed, AStarPlanner(
                HeuristicSpec(weights), goal), goal)
            return replace(record, max_decision_seconds=0.0), Counter(calls)

        first = [play(seed) for seed in range(10)]
        assert not agents._graph(config).records
        assert first[0][1]["_edges"] > 0
        assert play(0) == first[0]


def walk_states(config, scenario, seed, steps=40):
    """The states of a random walk: each one it rests in, and the locked
    state inside each act, before the act's duration elapses."""
    state = initial_state(config, scenario, seed)
    rng = random.Random(seed)
    states = [state]
    for _ in range(steps):
        acts = legal_actions(config, state)
        if acts and rng.random() < 0.85:
            locked = apply_action(config, state, rng.choice(acts))
            states.append(locked)
            state = advance_time(config, locked, locked.locked_until)
        elif acts:
            state = advance_time(config, state, state.clock + rng.randint(1, 9))
        else:
            try:
                state = close_session_if_idle(config, state)
            except Deadlock:
                break
        states.append(state)
    return states


def first_legal_minute(config, state, horizon):
    """Step one minute at a time; the first clock with a legal action."""
    for _ in range(horizon + 1):
        if legal_actions(config, state):
            return state.clock
        state = advance_time(config, state, state.clock + 1)
    return None


def check_availability(config, states, horizon):
    idx = config.index()
    for state in states:
        if state.locked_until <= state.clock:
            legal = set(legal_actions(config, state))
            for action in idx.sorted_actions:
                ready = reference_ready(config, state, action)
                assert (action.id in legal) == (ready == state.clock), (
                    action.id, ready)
        assert sim._next_ready(idx, state) == reference_next_ready(config, state)
        stepped = first_legal_minute(config, state, horizon)
        jumped = next_availability(config, state)
        if stepped is None:
            assert jumped is None or jumped > state.clock + horizon
        else:
            assert jumped == stepped


def closing_build(regen, payout):
    """A build whose one action, `serve`, runs only during the clerk's
    `shift`, which its first run starts at minute 0 and which times out 30
    minutes later, and costs all 5 energy, regenerating `regen` per 10
    minutes. With `payout` the shift's first step pays the energy back at
    its timeout. So the state a first serve leaves is idle until the shift
    closes at least, and its session end walks to the deadline first."""
    serve = {"id": "serve", "duration": 1, "cooldown": 0,
             "costs": {"energy": 5}, "rewards": {"career_xp": 1, "event_xp": 1},
             "requires": {"career": "clerk", "min_level": 1, "during_event": True},
             "category_tag": "clerk"}
    steps = [{"xp_threshold": 9, "reward": {"career_xp": 5}}]
    if payout:
        steps.insert(0, {"xp_threshold": 1, "reward": {"resources": {"energy": 5}}})
    return parse_tuning(json.dumps({
        "schema_version": 1,
        "build_id": "closing",
        "resources": [{"id": "energy", "capacity": 5,
                       "regen_rate": {"num": regen, "den": 10}, "initial": 5}],
        "actions": [serve],
        "events": [{
            "id": "shift", "kind": "career", "owner_id": "clerk",
            "time_limit": 30, "action_ids": ["serve"], "steps": steps,
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


class TestAvailability:
    """Legality, ready times and next_availability agree with each other
    and with stepping the clock one minute at a time."""

    @pytest.mark.parametrize("regen, payout, available", [
        (1, False, 50),  # the shift times out at 30, serve is ready at 50
        (0, False, None),  # the shift times out and no energy ever comes
        (0, True, 30),  # the timeout pays the energy back
    ])
    def test_session_end_walks_past_an_event_closure(
            self, regen, payout, available):
        config = closing_build(regen, payout)
        state = step_action(config, initial_state(
            config, ScenarioOverrides(career="clerk"), 1), "serve")
        assert (state.clock, state.active_event.deadline) == (1, 30)
        assert legal_actions(config, state) == []
        assert next_availability(config, state) == available
        check_availability(config, [state], 200)
        if available is None:
            with pytest.raises(Deadlock):
                close_session_if_idle(config, state)
            return
        after = close_session_if_idle(config, state)
        assert after.counters.wait_intervals == (available - 1,)
        [outcome] = event_log_entries(after)
        assert (outcome.event_id, outcome.completed, outcome.ended_at) == (
            "shift", False, 30)

    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1),
           regen_num=st.integers(1, 3))
    def test_generated_builds(self, build_seed, seed, regen_num):
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        check_availability(config, walk_states(config, scenario, seed), 200)

    @pytest.mark.parametrize("fixture, scenario", [
        ("desk_base", {"career": "barista"}),
        ("desk_objects", {"career": "culinary", "grant_objects": True}),
        ("bugged_event", {"career": "clerk"}),
        ("romance_outlier", {}),
        ("build_b", {"career": "barista"}),
    ])
    def test_fixtures(self, fixture, scenario):
        config = fixtures.load(fixture)
        for seed in range(5):
            states = walk_states(
                config, ScenarioOverrides.from_dict(scenario), seed, steps=120)
            check_availability(config, states, 1_000)


# ---------------------------------------------------------------------------
# Reference formulas: the heuristic and the dedup key computed term by term,
# as plainly as possible, for the fast versions to match exactly
# ---------------------------------------------------------------------------

def reference_chain_remaining(config, state, goal, cost):
    idx = config.index()
    done = state.relationship.completed
    if goal.chain_length <= done:
        return 0

    def chain_total(category):
        span = idx.relationships[category].event_chain[done:goal.chain_length]
        return sum(cost(idx.events[eid]) for eid in span)

    if goal.kind == "relationship_chain_done":
        return chain_total(state.relationship.category or goal.category)
    return min((chain_total(c.id) for c in config.relationships
                if len(c.event_chain) >= goal.chain_length), default=0)


def reference_term(term, config, state, goal):
    idx = config.index()
    if term.startswith("crafted_item:"):
        return float(max(0, 1 - state.inventory.get(term.split(":", 1)[1], 0)))
    event = state.active_event
    if goal.kind == "career_level_reached":
        own = state.career
        level, xp = ((own.level, own.xp) if own is not None and own.id == goal.career
                     else (1, 0))
        if term == "career_xp":
            return float(max(0, idx.careers[goal.career].xp_for_level(goal.level) - xp))
        if term == "career_level":
            return float(max(0, goal.level - level))
        if term == "event_xp" and event is not None:
            return float(max(0, idx.events[event.event_id].final_threshold
                             - event.accrued_xp))
        return 0.0
    if goal.kind in ("relationship_chain_done", "any_relationship_chain_done"):
        if term == "relationship_event_complete":
            return float(max(0, goal.chain_length - state.relationship.completed))
        if term == "event_xp":
            total = reference_chain_remaining(
                config, state, goal, lambda e: e.final_threshold)
            if event is not None and event.event_id in idx.chain_position:
                total -= event.accrued_xp
            return float(max(0, total))
        if term == "relationship_xp":
            return float(reference_chain_remaining(
                config, state, goal,
                lambda e: sum(s.reward.relationship_xp for s in e.steps)))
        return 0.0
    if goal.event in state.events_completed:
        return 0.0
    target = idx.events[goal.event]
    if term == "event_xp":
        if event is not None and event.event_id == goal.event:
            return float(max(0, target.final_threshold - event.accrued_xp))
        return float(target.final_threshold)
    if term == "career_event_complete" and target.kind == "career":
        return 1.0
    if term == "relationship_event_complete" and target.kind == "relationship":
        return 1.0
    return 0.0


def reference_heuristic(spec, config, goal, state):
    if goal_satisfied(goal, state):
        return 0.0
    total = 0.0
    for term, weight in sorted(spec.weights.items()):
        scale = spec.normalization.get(term) or agents._default_scale(term, config)
        remaining = reference_term(term, config, state, goal)
        if weight != 0.0 and remaining:
            total += weight * remaining / scale
    return total


def reference_dedup_key(state):
    clock = state.clock
    career, rel, event = state.career, state.relationship, state.active_event
    return (
        clock,
        tuple(sorted(state.resources.items())),
        tuple(sorted((k, v) for k, v in state.regen_remainders.items() if v)),
        state.locked_until if state.locked_until > clock else 0,
        tuple(sorted((a, t) for a, t in state.cooldowns.items() if t > clock)),
        (career.id, career.level, career.xp) if career else None,
        (rel.category, rel.completed, rel.xp),
        (event.event_id, event.accrued_xp, event.deadline) if event else None,
        tuple(sorted((k, v) for k, v in state.inventory.items() if v)),
        tuple(sorted(state.owned_objects)),
        tuple(sorted(state.events_completed)),
    )


def desk_style(build_seed):
    """The style random_desk_config gives this seed's build."""
    config, _, goal = random_desk_config(build_seed)
    if goal.kind != "career_level_reached":
        return "relationship"
    return "craft" if "fabricate" in config.index().actions else "career"


STYLE_SEEDS = {style: [s for s in range(60) if desk_style(s) == style]
               for style in ("career", "craft", "relationship")}
FIXTURES = ("desk_base", "desk_objects", "bugged_event", "romance_outlier",
            "build_a", "build_b")


def draw_goal(data, config):
    """Any goal kind the build can name: chain lengths and career levels
    run one past the build's longest chain and up to each career's cap."""
    longest = max((len(c.event_chain) for c in config.relationships), default=0)
    kinds = ["any_relationship_chain_done"]
    kinds += ["career_level_reached"] * bool(config.careers)
    kinds += ["relationship_chain_done"] * bool(config.relationships)
    kinds += ["event_completed"] * bool(config.events)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "career_level_reached":
        career = data.draw(st.sampled_from(config.careers))
        return GoalSpec(kind=kind, career=career.id,
                        level=data.draw(st.integers(1, career.max_level)))
    if kind == "event_completed":
        return GoalSpec(kind=kind, event=data.draw(
            st.sampled_from([e.id for e in config.events])))
    category = (data.draw(st.sampled_from([c.id for c in config.relationships]))
                if kind == "relationship_chain_done" else None)
    return GoalSpec(kind=kind, category=category,
                    chain_length=data.draw(st.integers(1, longest + 1)))


def draw_scenario(data, config):
    careers = [None] + [c.id for c in config.careers]
    categories = [None] + [c.id for c in config.relationships]
    return ScenarioOverrides(
        career=data.draw(st.sampled_from(careers)),
        relationship_category=data.draw(st.sampled_from(categories)),
        grant_objects=data.draw(st.booleans()))


def check_bound_heuristic(data, config, scenario, goal):
    items = sorted({item for a in config.actions for item in a.rewards.items})
    terms = list(agents.HEURISTIC_TERMS) + [
        f"crafted_item:{item}" for item in items + ["nothing"]]
    weight = st.sampled_from([0.0, 1.0, 0.5, 2.0, -1.5, 0.3])
    weights = data.draw(st.dictionaries(st.sampled_from(terms), weight))
    scales = data.draw(st.dictionaries(
        st.sampled_from(terms), st.sampled_from([0.7, 1.0, 3.0, 12.0])))
    # only a weighted term may have a scale
    spec = HeuristicSpec(weights, {term: scale for term, scale in scales.items()
                                   if term in weights})
    evaluate = agents.build_evaluator(spec, config, goal)
    for state in walk_states(config, scenario, data.draw(st.integers(0, 2**32 - 1))):
        assert evaluate(state) == reference_heuristic(spec, config, goal, state)


def check_terms_not_negative(data, config, scenario, goal):
    """Every term `_bind_term` binds under `goal` counts at least 0 on each
    random-walk state that does not satisfy the goal."""
    items = sorted({item for a in config.actions for item in a.rewards.items})
    bound = [agents._bind_term(term, config, goal)
             for term in list(agents.HEURISTIC_TERMS)
             + [f"crafted_item:{item}" for item in items]]
    states = [state for state in walk_states(
        config, scenario, data.draw(st.integers(0, 2**32 - 1)))
        if not goal_satisfied(goal, state)]
    for remaining in filter(None, bound):
        for state in states:
            assert remaining(state) >= 0


class TestBoundHeuristic:
    """The evaluator bound once per planner equals the per-term reference."""

    @pytest.mark.parametrize("style", sorted(STYLE_SEEDS))
    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(data=st.data())
    def test_terms_are_not_negative_below_the_goal(self, style, data):
        config, scenario, _ = random_desk_config(
            data.draw(st.sampled_from(STYLE_SEEDS[style])))
        check_terms_not_negative(data, config, scenario, draw_goal(data, config))

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=15)
    @given(data=st.data())
    def test_terms_are_not_negative_below_the_goal_on_fixtures(self, fixture,
                                                               data):
        config = fixtures.load(fixture)
        check_terms_not_negative(data, config, draw_scenario(data, config),
                                 draw_goal(data, config))

    @pytest.mark.parametrize("style", sorted(STYLE_SEEDS))
    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(data=st.data())
    def test_generated_builds(self, style, data):
        config, scenario, goal = random_desk_config(
            data.draw(st.sampled_from(STYLE_SEEDS[style])))
        if data.draw(st.booleans()):
            goal = draw_goal(data, config)
        check_bound_heuristic(data, config, scenario, goal)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=15)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        check_bound_heuristic(data, config, draw_scenario(data, config),
                              draw_goal(data, config))


def shuffled(state, rng):
    """The same state with every dict and set built in a random order."""
    def mixed(mapping):
        items = list(mapping.items())
        rng.shuffle(items)
        return dict(items)

    def mixed_set(values):
        values = list(values)
        rng.shuffle(values)
        return frozenset(values)

    return replace(
        state, resources=mixed(state.resources),
        regen_remainders=mixed(state.regen_remainders),
        cooldowns=mixed(state.cooldowns), inventory=mixed(state.inventory),
        owned_objects=mixed_set(state.owned_objects),
        events_completed=mixed_set(state.events_completed))


def check_dedup_key(config, scenario, seed):
    rng = random.Random(seed)
    for state in walk_states(config, scenario, seed):
        for one in (state, shuffled(state, rng)):
            assert one.dedup_key() == reference_dedup_key(one)


class TestDedupKey:
    """dedup_key equals the sorted-tuple formula, whatever the build order."""

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1))
    def test_generated_builds(self, build_seed, seed):
        config, scenario, _ = random_desk_config(build_seed)
        check_dedup_key(config, scenario, seed)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=10)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        check_dedup_key(config, draw_scenario(data, config),
                        data.draw(st.integers(0, 2**32 - 1)))


def check_planner_edges(config, scenario, seed):
    """Expand into one new graph each state of a random walk from `seed`
    that has no record yet. The decisions of the edges must be the
    public moves, in order, and the graph must file one child per move,
    in the same order, each with the dedup key, action count and clock of
    the public transition's successor."""
    graph = agents._Graph()
    node, filed = graph.node, []
    graph.node = lambda state: filed.append(state) or node(state)
    for state in walk_states(config, scenario, seed):
        record = node(state)
        if record.edges is not None:
            continue
        filed.clear()
        edges = graph.expand(config, record)
        public = agents.decision_edges(config, record.state)
        moves = agents.available_moves(config, record.state)
        assert [move for move, _, _ in edges] == [move for move, _ in public] == moves
        expected = [(successor.dedup_key(), successor.counters.total_actions,
                     successor.clock) for _, successor in public]
        assert [(child.dedup_key(), child.counters.total_actions, child.clock)
                for child in filed] == expected
        assert [(child.state.dedup_key(), child.actions, child.clock)
                for _, child, _ in edges] == expected


class TestPlannerEdges:
    """The planner's one-pass edges are the public transitions: the
    moves of `available_moves`, in order, each filed once as the child
    that `decision_edges` builds for it."""

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(build_seed=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1))
    def test_generated_builds(self, build_seed, seed):
        config, scenario, _ = random_desk_config(build_seed)
        check_planner_edges(config, scenario, seed)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=10)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        check_planner_edges(config, draw_scenario(data, config),
                            data.draw(st.integers(0, 2**32 - 1)))


def check_state_ids(config, scenario, seeds, rng):
    """File into one new graph the states of a random walk from each seed
    and a reordered copy of each, in an order `rng` draws, expanding each
    record on first sight. Each state looked up and each child an
    expansion made gets one state id exactly when a plain dict interning
    dedup keys gives it one id."""
    graph = agents._Graph()
    states = [state for seed in seeds
              for state in walk_states(config, scenario, seed)]
    states += [shuffled(state, rng) for state in states]
    rng.shuffle(states)
    filed = []
    node = graph.node

    def filing(state):
        # every state the graph files, looked up here or as `_edges` makes
        # a child, with the id it gets
        record = node(state)
        filed.append((state, record.sid))
        return record

    graph.node = filing
    for state in states:
        record = filing(state)
        if record.edges is None:
            graph.expand(config, record)
    by_key, by_sid = {}, {}
    for state, sid in filed:
        key = state.dedup_key()
        assert by_key.setdefault(key, sid) == sid
        assert by_sid.setdefault(sid, key) == key
    # the walks share their start, and each copy shares its state's clock
    assert len(filed) > len(by_key)


class TestStateIds:
    """A graph files states by clock and builds a dedup key only where two
    states share a clock, yet gives two states one id exactly when their
    dedup keys are equal, building each state's key at most once."""

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(build_seed=st.integers(0, 10_000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    def test_generated_builds(self, build_seed, seeds):
        config, scenario, _ = random_desk_config(build_seed)
        check_state_ids(config, scenario, seeds, random.Random(seeds[0]))

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=10)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                   max_size=3))
        check_state_ids(config, draw_scenario(data, config), seeds,
                        random.Random(seeds[0]))

    def test_each_state_key_is_built_once(self, monkeypatch):
        # the keys a graph builds, by the state each is built for, over
        # every shipped A* group: each seed's episode with a new planner,
        # then the seeds again with one planner for all. A new planner's
        # episode on build_b barista at the astar_long benchmark's
        # settings meets no shared clock, so builds none; romance_outlier's
        # searches meet many.
        built, alive, filing = Counter(), [], []
        node, key = agents._Graph.node, GameState.dedup_key

        def counting_node(graph, state):
            filing.append(state)
            try:
                return node(graph, state)
            finally:
                filing.pop()

        def counting_key(state):
            if filing:
                built[id(state)] += 1
                alive.append(state)  # so no other state takes its id
            return key(state)

        monkeypatch.setattr(agents._Graph, "node", counting_node)
        monkeypatch.setattr(GameState, "dedup_key", counting_key)
        long_barista = ("build_b", ScenarioOverrides(career="barista"),
                        GoalSpec(kind="career_level_reached", career="barista",
                                 level=3, max_minutes=50_000, max_actions=3000),
                        SHIPPED_GROUPS["culinary"][3], 400)
        groups = dict(SHIPPED_GROUPS, long_barista=long_barista)
        cold = {}
        for name, (fixture, scenario, goal, weights, budget) in groups.items():
            config = fixtures.load(fixture)
            before = built.total()
            for seed in range(3):
                run_episode(config, scenario, seed, AStarPlanner(
                    HeuristicSpec(weights), goal, budget), goal)
            cold[name] = built.total() - before
            shared = AStarPlanner(HeuristicSpec(weights), goal, budget)
            for seed in range(3):
                run_episode(config, scenario, seed, shared, goal)
        assert set(built.values()) == {1}
        assert cold["long_barista"] == 0 and cold["romance"] > 0


# ---------------------------------------------------------------------------
# Legality gates: the memoized static rule equals the rule applied per action
# ---------------------------------------------------------------------------

def reference_start(config, state, action):
    """The static rule of one action, written from the build's lists:
    False if its requirements or the running event bar it, else the
    startable event of smallest id that lists it, which its run starts,
    or None if it needs no event."""
    def qualifies(career, level, owned_object):
        own = state.career
        if career is not None and (own is None or own.id != career
                                   or own.level < level):
            return False
        return owned_object is None or owned_object in state.owned_objects

    def startable(event):
        if event.kind == "career":
            levels = [level for career in config.careers
                      for level, ids in career.events_by_level.items()
                      if event.id in ids]
            if not levels or not qualifies(event.owner_id, min(levels), None):
                return False
        else:
            positions = [(chain.id, i + 1) for chain in config.relationships
                         for i, eid in enumerate(chain.event_chain) if eid == event.id]
            if not positions:
                return False
            category, index = positions[-1]
            rel = state.relationship
            if rel.category not in (None, category) or index != rel.completed + 1:
                return False
        req = event.start_requires
        return qualifies(req.career, req.min_level, req.owned_object)

    req = action.requires
    if not qualifies(req.career, req.min_level, req.owned_object):
        return False
    if not req.during_event:
        return None
    if state.active_event is not None:
        [running] = [e for e in config.events if e.id == state.active_event.event_id]
        return None if action.id in running.action_ids else False
    starts = sorted(e.id for e in config.events
                    if action.id in e.action_ids and startable(e))
    return starts[0] if starts else False


def holds_items(state, action):
    return all(state.inventory.get(item, 0) >= count
               for item, count in action.consumes_items.items())


def reference_moves(config, state):
    """legal_moves by id: every action the static rule lets through whose
    cooldown is over and whose costs and items the state holds, unlocked."""
    if state.locked_until > state.clock:
        return []
    moves = []
    for action in sorted(config.actions, key=lambda a: a.id):
        start = reference_start(config, state, action)
        if (start is not False
                and state.cooldowns.get(action.id, 0) <= state.clock
                and all(state.resources.get(rid, 0) >= cost
                        for rid, cost in action.costs.items())
                and holds_items(state, action)):
            moves.append((action.id, start))
    return moves


def reference_never_ready(config, state, action):
    """Whether time alone can never make the action legal: the static rule
    bars it, it lacks a consumed item, or a cost it lacks never refills."""
    if reference_start(config, state, action) is False or not holds_items(state, action):
        return True
    specs = {r.id: r for r in config.resources}
    return any(state.resources.get(rid, 0) < cost
               and (cost > specs[rid].capacity or specs[rid].regen_rate == 0)
               for rid, cost in action.costs.items())


def reference_ready(config, state, action):
    """The earliest clock at which time alone makes the action legal, or
    None if it never does: its lock and cooldown are over, and the regen
    since the clock has refilled every cost it lacks."""
    if reference_never_ready(config, state, action):
        return None
    specs = {r.id: r for r in config.resources}
    ready = max(state.clock, state.locked_until, state.cooldowns.get(action.id, 0))
    for rid, cost in action.costs.items():
        lack = cost - state.resources.get(rid, 0)
        if lack > 0:
            # the fewest minutes whose regen, with the remainder held, is lack
            rate = specs[rid].regen_rate
            held = Fraction(state.regen_remainders.get(rid, 0), rate.denominator)
            ready = max(ready, state.clock + math.ceil((lack - held) / rate))
    return ready


def reference_next_ready(config, state):
    """The earliest ready time of any action after the clock, or None."""
    times = [reference_ready(config, state, action) for action in config.actions]
    return min((t for t in times if t is not None and t > state.clock), default=None)


def check_gates(config, states):
    """legal_moves, checked_action and _next_ready on each state in turn,
    all reading the one gate memo of the build, agree with the rule
    applied per action."""
    idx = config.index()
    for state in states:
        moves = reference_moves(config, state)
        assert [(a.id, start) for a, start in sim.legal_moves(idx, state)] == moves
        legal = dict(moves)
        for action in idx.sorted_actions:
            if action.id in legal:
                assert sim.checked_action(idx, state, action.id) == (
                    action, legal[action.id])
            else:
                with pytest.raises(IllegalAction):
                    sim.checked_action(idx, state, action.id)
        assert sim._next_ready(idx, state) == reference_next_ready(config, state)
        with pytest.raises(IllegalAction):
            sim.checked_action(idx, state, "no_such_action")


def gate_build():
    """A build whose static rules each read one field of the gate key:
    `work` needs the clerk career, `promote` clerk level 2, `study` the
    desk, `work` and `chat` the running shift or a friendship event, `chat`
    and `taunt` a start in their category's chain, whose next event the
    completed count picks."""
    def action(aid, **requires):
        return {"id": aid, "duration": 2, "cooldown": 0, "costs": {"energy": 1},
                "rewards": {"career_xp": 1, "event_xp": 1},
                "requires": requires, "category_tag": ""}

    def event(eid, kind, owner, actions):
        return {"id": eid, "kind": kind, "owner_id": owner, "time_limit": 30,
                "action_ids": actions, "steps": [{"xp_threshold": 2}]}

    return parse_tuning(json.dumps({
        "schema_version": 1,
        "build_id": "gates",
        "resources": [{"id": "energy", "capacity": 5,
                       "regen_rate": {"num": 1, "den": 1}, "initial": 5}],
        "actions": [
            action("promote", career="clerk", min_level=2),
            action("study", owned_object="desk"),
            action("work", career="clerk", during_event=True),
            action("chat", during_event=True),
            action("taunt", during_event=True),
        ],
        "events": [
            event("shift", "career", "clerk", ["work"]),
            event("friendship_1", "relationship", "friendship", ["chat"]),
            event("friendship_2", "relationship", "friendship", ["chat"]),
            event("rivalry_1", "relationship", "rivalry", ["taunt"]),
        ],
        "careers": [{"id": "clerk", "max_level": 2, "xp_per_level": [0, 5],
                     "events_by_level": {"1": ["shift"]},
                     "object_unlocks": [{"object": "desk", "unlock_level": 2,
                                         "price_rho": 0}]},
                    {"id": "barista", "max_level": 2, "xp_per_level": [0, 5]}],
        "relationships": [
            {"id": "friendship", "event_chain": ["friendship_1", "friendship_2"]},
            {"id": "rivalry", "event_chain": ["rivalry_1"]},
        ],
        "objects": [{"id": "desk", "unlocked_action_ids": ["study"]}],
    }))


def gate_pair(config, field):
    """Two states of `gate_build` that differ only in one field of the gate
    key, and whose legal moves differ because of it."""
    state = initial_state(config, ScenarioOverrides(career="clerk"), 0)
    if field == "career":
        return state, replace(state, career=CareerState("barista", 1, 0))
    if field == "career level":
        return state, replace(state, career=CareerState("clerk", 2, 0))
    if field == "owned object":
        return state, replace(state, owned_objects=frozenset({"desk"}))
    if field == "active event":
        return tuple(replace(state, active_event=ActiveEvent(eid, 0, 30, 0))
                     for eid in ("shift", "friendship_1"))
    if field == "relationship category":
        return tuple(replace(state, relationship=RelationshipState(category, 0, 0))
                     for category in ("friendship", "rivalry"))
    assert field == "completed count"
    return tuple(replace(state, relationship=RelationshipState("friendship", done, 0))
                 for done in (0, 1))


class TestLegalityGates:
    """The gate memo (`sim._gates`), shared by every state of a build,
    gives legal_moves, checked_action and _next_ready the same answers as
    the static rule applied to each action of each state."""

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(**generated_builds)
    def test_generated_builds(self, build_seed, seed, regen_num):
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        check_gates(config, walk_states(config, scenario, seed))

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=8)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        check_gates(config, walk_states(config, draw_scenario(data, config),
                                        data.draw(st.integers(0, 2**32 - 1)),
                                        steps=80))

    @pytest.mark.parametrize("field", ["career", "career level", "owned object",
                                       "active event", "relationship category",
                                       "completed count"])
    def test_states_differing_in_one_key_field(self, field):
        config = gate_build()
        pair = gate_pair(config, field)
        assert reference_moves(config, pair[0]) != reference_moves(config, pair[1])
        check_gates(config, pair)
        check_gates(gate_build(), pair[::-1])

    def test_a_failed_gate_build_is_not_kept(self):
        """A state whose running event the build lacks raises every time,
        not once and then an empty list of moves from a half-built row."""
        config = gate_build()
        state = replace(initial_state(config, ScenarioOverrides(career="clerk"), 0),
                        active_event=ActiveEvent("ghost", 0, 30, 0))
        for _ in range(2):
            with pytest.raises(KeyError):
                sim.legal_moves(config.index(), state)


# ---------------------------------------------------------------------------
# Build tables: the per-build timeout and ready-time tables equal the rules
# written from the build's lists
# ---------------------------------------------------------------------------

def reference_timeout_pays(event, xp):
    """Whether a timeout with `xp` accrued pays anything besides event XP:
    some step it reached pays career or relationship XP, resources or
    items."""
    return any(xp >= step.xp_threshold
               and (step.reward.career_xp or step.reward.relationship_xp
                    or step.reward.resources or step.reward.items)
               for step in event.steps)


def check_tables(config, states):
    """The build's timeout table, at every XP up to past each event's final
    threshold, the deadline waits `available_moves` offers on each state
    and `_next_ready` on it and on its drained copy, all reading the
    build's one index, agree with the rules applied per step and per
    action."""
    idx = config.index()
    for event in config.events:
        for xp in range(event.steps[-1].xp_threshold + 2):
            assert (xp >= agents._timeouts(idx)[event.id]) == (
                reference_timeout_pays(event, xp)), (event.id, xp)
    events = {event.id: event for event in config.events}
    for state in states:
        # drained, every action with a cost waits for its regen
        drained = replace(state, resources=dict.fromkeys(state.resources, 0))
        for each in (state, drained):
            assert sim._next_ready(idx, each) == reference_next_ready(config, each)
        run = state.active_event
        if run is not None and legal_actions(config, state):
            waits = [m for m in agents.available_moves(config, state) if m.kind == "wait"]
            pays = (run.deadline > state.clock
                    and reference_timeout_pays(events[run.event_id], run.accrued_xp))
            assert waits == ([agents.Decision.wait(run.deadline)] if pays else [])


class TestBuildTables:
    """The tables a build fills at their first use, shared by every state
    of the build: the least XP at which each event's timeout pays
    (`agents._timeouts`) and each action's ready-time inputs, which
    `sim._next_ready` reads for the gate rows of a state."""

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(**generated_builds)
    def test_generated_builds(self, build_seed, seed, regen_num):
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        check_tables(config, walk_states(config, scenario, seed))

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=8)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        check_tables(config, walk_states(config, draw_scenario(data, config),
                                         data.draw(st.integers(0, 2**32 - 1)),
                                         steps=80))

    @pytest.mark.parametrize("regen, payout", [(1, False), (0, False), (0, True)])
    def test_states_waiting_out_a_shift(self, regen, payout):
        # idle until the shift closes, then ready at a regen time, never,
        # or at once since the timeout pays the energy back
        config = closing_build(regen, payout)
        state = step_action(config, initial_state(
            config, ScenarioOverrides(career="clerk"), 1), "serve")
        check_tables(config, walk_states(config, ScenarioOverrides(career="clerk"), 1)
                     + [state, advance_time(config, state, 30)])


# ---------------------------------------------------------------------------
# Edge steps: the state a step starts from never changes
# ---------------------------------------------------------------------------

def snapshot(state):
    """Every field of `state`, with its dicts copied and its value objects
    (career, relationship, running event, counters) taken apart."""
    out = []
    for name in (f.name for f in fields(state)):
        value = getattr(state, name)
        if isinstance(value, dict):
            value = dict(value)
        elif is_dataclass(value):
            value = tuple(getattr(value, f.name) for f in fields(value))
        out.append(value)
    return out


def step_every_way(config, state):
    """Every edge step and public transition the engine takes from `state`."""
    for decision, _, _ in agents._edges(config, state, lambda child: child):
        agents._commit(config, state, decision)
    legal = legal_actions(config, state)
    for action_id in legal:
        apply_action(config, state, action_id)
        step_action(config, state, action_id)
    untils = [state.clock + 1, state.clock + 50]
    if state.active_event is not None:
        untils.append(state.active_event.deadline)
    for until in untils:
        advance_time(config, state, until)
    if not legal:
        try:
            close_session_if_idle(config, state)
        except Deadlock:
            pass


def check_inputs_unchanged(config, scenario, seed):
    states = walk_states(config, scenario, seed)
    before = [snapshot(state) for state in states]
    for state in states:
        step_every_way(config, state)
    assert [snapshot(state) for state in states] == before


class TestEdgeStepsKeepTheirInput:
    """No edge step or public transition changes the state it starts from,
    nor a dict that state shares with the states before it."""

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(**generated_builds, payouts=st.booleans())
    def test_generated_builds(self, build_seed, seed, regen_num, payouts):
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        check_inputs_unchanged(with_payouts(config) if payouts else config,
                               scenario, seed)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=6)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        if data.draw(st.booleans()):
            config = with_payouts(config)
        check_inputs_unchanged(config, draw_scenario(data, config),
                               data.draw(st.integers(0, 2**32 - 1)))


# ---------------------------------------------------------------------------
# Public transitions: one state each, with the path history in its counters
# ---------------------------------------------------------------------------

def public_transitions(config, state):
    """Every public transition from `state` but close_session_if_idle,
    each as a call of no arguments; every advance moves the clock."""
    for action_id in legal_actions(config, state):
        yield functools.partial(apply_action, config, state, action_id)
        yield functools.partial(step_action, config, state, action_id)
    untils = {state.clock + 1, state.clock + 50}
    if state.active_event is not None:
        untils.add(state.active_event.deadline)
    for until in sorted(untils):
        yield functools.partial(advance_time, config, state, until)


def check_running_count(state):
    """The running event's action count is every event action that no
    closed run has logged, and 0 while no event runs."""
    counters = state.counters
    logged = sum(outcome.actions for outcome in event_log_entries(state))
    assert counters.running == counters.event_actions - logged
    if state.active_event is None:
        assert counters.running == 0


def check_one_state_per_transition(config, scenario, seed):
    successor = sim._successor
    built = []

    def counting(state):
        built.append(state)
        return successor(state)

    for state in walk_states(config, scenario, seed):
        check_running_count(state)
        with mock.patch.object(sim, "_successor", counting):
            for transition in public_transitions(config, state):
                built.clear()
                check_running_count(transition())
                assert len(built) == 1
            # one state per search edge; an idle state's wait walks its
            # session end, which may first step to the event's deadline
            built.clear()
            edges = agents._edges(config, state, lambda child: child)
            steps = len(built) - len(edges)
            assert steps == 0 or (steps == 1 and not legal_actions(config, state)
                                  and state.active_event is not None)
            if legal_actions(config, state):
                continue
            # a session end builds the states of next_availability's walk
            built.clear()
            if next_availability(config, state) is None:
                continue
            walked, built[:] = len(built), []
            check_running_count(close_session_if_idle(config, state))
            assert len(built) == walked


class TestOneStatePerTransition:
    """A public transition builds one state, its edge step's successor, and
    the running event's action count lives in that state's counters."""

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(**generated_builds, payouts=st.booleans())
    def test_generated_builds(self, build_seed, seed, regen_num, payouts):
        config, scenario, _ = random_desk_config(build_seed, regen_num)
        check_one_state_per_transition(
            with_payouts(config) if payouts else config, scenario, seed)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @settings(PROPERTY_SETTINGS, max_examples=4)
    @given(data=st.data())
    def test_fixtures(self, fixture, data):
        config = fixtures.load(fixture)
        check_one_state_per_transition(config, draw_scenario(data, config),
                                       data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("regen, payout", [(1, False), (0, False), (0, True)])
    def test_closing_build(self, regen, payout):
        check_one_state_per_transition(closing_build(regen, payout),
                                       ScenarioOverrides(career="clerk"), 1)

    def test_an_episode_builds_no_state_after_its_play(self, desk_base):
        successor, play = sim._successor, agents._play
        built, after_play = [], []

        def counting(state):
            built.append(state)
            return successor(state)

        def playing(*args):
            result = play(*args)
            after_play.append(len(built))
            return result

        goal = GoalSpec(kind="career_level_reached", career="barista", level=2)
        with mock.patch.object(sim, "_successor", counting), \
                mock.patch.object(agents, "_play", playing):
            record = run_episode(
                desk_base, ScenarioOverrides(career="barista"), 1,
                AStarPlanner(HeuristicSpec({"career_xp": 1.0}), goal), goal)
        assert record.goal_reached and record.event_log
        assert after_play == [len(built)] and built

    def test_running_count_survives_until_the_event_closes(self, desk_base):
        state = initial_state(desk_base, ScenarioOverrides(career="barista"), 1)
        for action_id in ("brew", "brew", "serve", "serve"):
            state = step_action(desk_base, state, action_id)
        assert (state.active_event.event_id, state.counters.running) == (
            "barista_shift", 2)
        later = advance_time(desk_base, state, state.clock + 1)
        assert later.active_event is not None and later.counters.running == 2
        closed = advance_time(desk_base, later, later.active_event.deadline)
        assert closed.active_event is None and closed.counters.running == 0
        [outcome] = event_log_entries(closed)
        assert (outcome.event_id, outcome.actions, outcome.completed) == (
            "barista_shift", 2, False)


# ---------------------------------------------------------------------------
# Agent specs: each kind loads the fields it reads, and no other
# ---------------------------------------------------------------------------

AGENT_ENTRY = next(entry for entry in json.loads(
    fixtures.path("paper_suite").read_text()) if entry["study"] == "agent_comparison")

# numbers and settings that differ from every default, so a loaded spec
# writes each field it was given
POSITIVE = st.floats(0.001, 100.0)
POLICIES = st.builds(
    lambda weights, temperature: {"feature_names": list(agents.FEATURE_NAMES),
                                  "weights": weights, "temperature": temperature},
    st.lists(st.floats(-5.0, 5.0), min_size=len(agents.FEATURE_NAMES),
             max_size=len(agents.FEATURE_NAMES)), POSITIVE)
TRAINING = st.fixed_dictionaries({}, optional={
    "episodes": st.integers(1, 499),
    "step_size": POSITIVE.filter(lambda size: size != 0.02),
    "seed": st.integers(0, 2**31)}).filter(bool)
# an agent comparison's Softmax half: training settings, or a literal policy
TRAINED_HALVES = st.fixed_dictionaries(
    {}, optional={"temperature": POSITIVE, "train": TRAINING}).filter(bool)
HALF_FORMS = ({"temperature": POSITIVE, "train": TRAINING}, {"policy": POLICIES})
# each agent kind's fields; a softmax agent's policy is required
AGENT_KINDS = {
    "astar": {"node_budget": st.integers(1, 5000)},
    "softmax": {"policy": POLICIES},
    "comparison": {
        "astar": st.fixed_dictionaries({"node_budget": st.integers(1, 5000)}),
        "softmax": st.one_of(TRAINED_HALVES, st.fixed_dictionaries(HALF_FORMS[1])),
    },
}
POLICY = {"feature_names": list(agents.FEATURE_NAMES),
          "weights": [0.0] * len(agents.FEATURE_NAMES), "temperature": 1.0}


@st.composite
def agent_specs(draw):
    """A suite entry's agent of each kind with some of its own fields, and
    with one field of another kind's plan or with none. A comparison's
    foreign field may also be one of its Softmax half's other form."""
    kind = draw(st.sampled_from(sorted(AGENT_KINDS)))
    own = AGENT_KINDS[kind]
    agent = {"kind": kind}
    for name, values in own.items():
        if kind == "softmax" or draw(st.booleans()):
            agent[name] = draw(values)
    foreign = [(name, values) for other in AGENT_KINDS.values()
               for name, values in other.items() if name not in own]
    defect = draw(st.sampled_from(
        ["none", "agent"] + ["half"] * (kind == "comparison")))
    if defect == "agent":
        name, values = draw(st.sampled_from(foreign))
        agent[name] = draw(values)
    elif defect == "half":
        half = agent["softmax"] = dict(agent.get("softmax") or draw(TRAINED_HALVES))
        other = HALF_FORMS[0] if "policy" in half else HALF_FORMS[1]
        name = draw(st.sampled_from(sorted(other)))
        half[name] = draw(other[name])
    return agent


def agent_defect(agent):
    """The path prefix and message end of the error that `agent` must
    fail with as its entry loads, from each kind's fields; None if it
    holds no field its kind does not read."""
    eid = AGENT_ENTRY["id"]
    extras = sorted(agent.keys() - {"kind"} - AGENT_KINDS[agent["kind"]].keys())
    if extras:
        return f"{eid}.agent: ", f"unknown field(s) {extras}"
    half = agent.get("softmax", {}) if agent["kind"] == "comparison" else {}
    if "policy" in half and half.keys() & HALF_FORMS[0].keys():
        return f"{eid}.agent.softmax.", ": not read next to a literal policy"
    return None


class TestAgentSpecs:
    """A suite entry's agent loads the fields its kind reads and fails at
    load, naming the agent's path, on a field of another kind."""

    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(agent=agent_specs())
    @example(agent={"kind": "comparison", "node_budget": 1})
    @example(agent={"kind": "astar", "softmax": {"temperature": 3.0}})
    @example(agent={"kind": "softmax", "node_budget": 5, "policy": POLICY})
    @example(agent={"kind": "comparison",
                    "softmax": {"policy": POLICY, "train": {"episodes": 10}}})
    def test_an_agent_loads_its_own_fields_only(self, agent):
        study = ("agent_comparison" if agent["kind"] == "comparison"
                 else "career_progression")
        entry = dict(AGENT_ENTRY, study=study, agent=agent)
        defect = agent_defect(agent)
        if defect is None:
            assert ExperimentConfig.from_dict(entry).to_dict()["agent"] == agent
            return
        with pytest.raises(SuiteEntryError) as caught:
            ExperimentConfig.from_dict(entry)
        start, end = defect
        message = str(caught.value)
        assert message.startswith(start) and message.endswith(end)
