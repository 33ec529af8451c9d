"""Softmax baseline: sampling behavior, features, and REINFORCE training."""

import json
import math
import random
import statistics
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bfs_oracle import random_desk_config
from playtest import agents, fixtures
from playtest.errors import SchemaError
from playtest.agents import (
    FAILURE_RETURN,
    FEATURE_NAMES,
    AStarPlanner,
    Decision,
    GoalSpec,
    HeuristicSpec,
    SoftmaxPlanner,
    SoftmaxPolicy,
    available_moves,
    run_episode,
    softmax_decide,
    train_softmax,
)
from playtest.sim import GameState, ScenarioOverrides, initial_state
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

    def test_utilities_and_their_total_add_left_to_right(self):
        # a compensated sum, as Python 3.12's `sum` is, gives utility 1.0 to
        # the first move; left to right it is 0.0, as for the second move,
        # which has no nonzero feature
        assert agents._sum([1e16, 1.0, -1e16]) == 0.0
        _, probs = agents._softmax_sample(
            [1e16, 1.0, -1e16], 1.0, [((0, 1.0), (1, 1.0), (2, 1.0)), ()],
            random.Random(0))
        assert probs == [0.5, 0.5]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(list(FEATURE_NAMES), [0.0] * len(FEATURE_NAMES),
                          temperature=0.0)
        with pytest.raises(ValueError):
            SoftmaxPolicy(["bias"], [1.0, 2.0], temperature=1.0)
        # each used to load, and its weights were applied to the features
        # in FEATURE_NAMES order whatever the names said
        error = r"^SoftmaxPolicy\.feature_names: must be"
        with pytest.raises(SchemaError, match=error):
            SoftmaxPolicy.from_dict(
                {"feature_names": ["a", "b"], "weights": [1.0, 2.0]})
        with pytest.raises(SchemaError, match=error):
            SoftmaxPolicy.from_dict({
                "feature_names": list(reversed(FEATURE_NAMES)),
                "weights": [0.0] * len(FEATURE_NAMES)})

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        # a NaN temperature used to load, and every draw took the last move
        with pytest.raises(ValueError, match="^temperature: must be a finite"):
            SoftmaxPolicy(list(FEATURE_NAMES), [0.0] * len(FEATURE_NAMES),
                          temperature=temperature)

    def test_features_follow_the_build_decided_on(self, desk_base):
        # build_b shares its four actions with desk_base but normalizes
        # them by its own largest values; an agent made on desk_base that
        # plays build_b must read build_b's features, on its first trial
        # (`softmax_decide`) and on later ones (its graph's records)
        build_b = fixtures.load("build_b")
        policy = SoftmaxPolicy(
            list(FEATURE_NAMES),
            [0.5 * (i % 4) - 0.75 for i in range(len(FEATURE_NAMES))], 1.0)
        scenario = ScenarioOverrides(career="barista")
        goal = GoalSpec(kind="career_level_reached", career="barista",
                        level=3, max_minutes=20_000, max_actions=200)
        planners = [SoftmaxPlanner(policy, made_on)
                    for made_on in (desk_base, build_b)]
        for seed in range(10):
            records = [
                replace(run_episode(build_b, scenario, seed, planner, goal),
                        max_decision_seconds=0.0)
                for planner in planners]
            assert records[0] == records[1]


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

    @pytest.mark.parametrize("argument", ["step_size", "temperature"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected_before_any_episode(
            self, desk_base, argument, value):
        # each used to play every episode and then fail with "weights must
        # be finite", or, for an infinite temperature, to train nothing; the
        # temperature fails as the zero policy is made
        arguments = {"step_size": 0.05, "temperature": 1.0, argument: value}
        error = {"step_size": "^step_size must be a finite",
                 "temperature": "^temperature: must be a finite"}[argument]
        with mock.patch.object(agents, "_play", side_effect=AssertionError), \
                pytest.raises(ValueError, match=error):
            train_softmax(desk_base, ScenarioOverrides(career="fashion"),
                          self.goal(), episodes=10, rng=random.Random(0),
                          **arguments)

    def test_return_curve_shape(self, desk_base):
        _, returns = train_softmax(
            desk_base, ScenarioOverrides(career="fashion"), self.goal(),
            episodes=50, step_size=0.05, rng=random.Random(1))
        assert len(returns) == 50
        for value in returns:
            assert value == FAILURE_RETURN or -400 <= value <= 0


def reference_vectors(config):
    """Each action's dense feature vector by id, and the wait's under
    None: the action's static parameters, each divided by its largest
    value over the build's actions (0 where that is 0)."""
    raw = {}
    for a in config.actions:
        rewards = a.rewards
        raw[a.id] = [sum(a.costs.values()), sum(a.consumes_items.values()),
                     a.duration, a.cooldown, rewards.career_xp,
                     rewards.event_xp, rewards.relationship_xp,
                     sum(rewards.resources.values()),
                     sum(rewards.items.values())]
    largest = [max(values[k] for values in raw.values()) for k in range(9)]
    vectors = {aid: [1.0] + [v / n if n else 0.0
                             for v, n in zip(values, largest)] + [0.0]
               for aid, values in raw.items()}
    vectors[None] = [1.0] + [0.0] * 9 + [1.0]
    return vectors


def dense_utilities(weights, vectors):
    """weights . vector over all features, added left to right."""
    utilities = []
    for vector in vectors:
        utility = 0.0
        for weight, value in zip(weights, vector):
            utility += weight * value
        utilities.append(utility)
    return utilities


def dense_reinforce(grad, temperature, probs, vectors, chosen):
    """One decision's REINFORCE term over all features, each expectation
    added left to right over every move."""
    for i in range(len(grad)):
        expectation = 0.0
        for p, vector in zip(probs, vectors):
            expectation += p * vector[i]
        grad[i] += (vectors[chosen][i] - expectation) / temperature


class ReferenceLearner:
    """The learner without a graph, with dense arithmetic of its own: it
    lists its moves with `available_moves` and finds no record, so the
    episode loop commits every move through `_commit`, and it computes
    utilities, probabilities and the REINFORCE term over all features."""

    def __init__(self, policy, config):
        self.policy = policy
        self.vectors = reference_vectors(config)

    def decide(self, config, state, rng):
        moves = available_moves(config, state)
        if not moves:
            return Decision.stop("deadlock")
        vectors = [self.vectors[m.action] for m in moves]
        temperature = self.policy.temperature
        utilities = dense_utilities(self.policy.weights, vectors)
        top = max(utilities)
        exps = [math.exp((u - top) / temperature) for u in utilities]
        total = 0.0
        for e in exps:
            total += e
        probs = [e / total for e in exps]
        draw = rng.random()
        chosen, running = len(probs) - 1, 0.0
        for i, p in enumerate(probs):
            running += p
            if draw < running:
                chosen = i
                break
        dense_reinforce(self.grad, temperature, probs, vectors, chosen)
        return moves[chosen]


def train_recorded(config, scenario, goal, episodes, step_size, seed,
                   temperature, learner=None):
    """`train_softmax`, optionally with another learner class, and each
    episode's final action count and dedup key and the rng's last state."""
    finals = []
    play = agents._play

    def recording_play(*args):
        result = play(*args)
        finals.append((result[0].counters.total_actions, result[0].dedup_key()))
        return result

    rng = random.Random(seed)
    with mock.patch.object(agents, "_play", recording_play), \
            mock.patch.object(agents, "SoftmaxPlanner",
                              learner or agents.SoftmaxPlanner):
        policy, returns = train_softmax(config, scenario, goal, episodes,
                                        step_size, rng, temperature)
    return policy, returns, finals, rng.getstate()


def check_graph_learner(config, scenario, goal, episodes, step_size, seed,
                        temperature):
    graph = train_recorded(config, scenario, goal, episodes, step_size, seed,
                           temperature)
    reference = train_recorded(config, scenario, goal, episodes, step_size,
                               seed, temperature, ReferenceLearner)
    assert graph == reference
    assert len(graph[2]) == episodes


GRAPH_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                          max_examples=60,
                          phases=[p for p in Phase if p is not Phase.shrink])


class TestGraphLearner:
    """Training on the build's graph trains exactly what listing moves
    with `available_moves` trains."""

    # the memo limit is drawn, not parametrized: a parametrized @given
    # method runs from one executor per parameter
    @GRAPH_SETTINGS
    @given(memo_limit=st.sampled_from([agents._MEMO_LIMIT, 3]),
           build_seed=st.integers(0, 10_000), regen_num=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), episodes=st.integers(1, 30),
           step_size=st.sampled_from([0.01, 0.05, 0.5]),
           temperature=st.sampled_from([0.5, 1.0, 2.0]))
    def test_generated_builds(self, memo_limit, build_seed, regen_num, seed,
                              episodes, step_size, temperature):
        config, scenario, goal = random_desk_config(build_seed, regen_num)
        with mock.patch.object(agents, "_MEMO_LIMIT", memo_limit):
            check_graph_learner(config, scenario, goal, episodes, step_size,
                                seed, temperature)

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    @pytest.mark.parametrize("fixture, scenario, goal, temperature", [
        # agent_comparison's training
        ("desk_base", {"career": "fashion"},
         {"kind": "career_level_reached", "career": "fashion", "level": 2,
          "max_minutes": 20_000, "max_actions": 400}, 1.0),
        # a tight action limit, so some episodes miss
        ("bugged_event", {"career": "clerk"},
         {"kind": "career_level_reached", "career": "clerk", "level": 2,
          "max_minutes": 2_000, "max_actions": 10}, 0.5),
    ])
    def test_fixtures(self, fixture, scenario, goal, temperature, memo_limit,
                      monkeypatch):
        monkeypatch.setattr(agents, "_MEMO_LIMIT", memo_limit)
        check_graph_learner(fixtures.load(fixture),
                            ScenarioOverrides.from_dict(scenario),
                            GoalSpec.from_dict(goal), 80, 0.05, 3, temperature)

    @pytest.mark.parametrize("memo_limit", [agents._MEMO_LIMIT, 3])
    def test_evaluation_samples_as_softmax_decide(self, memo_limit,
                                                  monkeypatch):
        # a group's evaluation agent reads its root record's edges from its
        # second trial on; `softmax_decide` lists moves with
        # `available_moves`: every trial must come out the same
        config = fixtures.load("bugged_event")
        scenario = ScenarioOverrides(career="clerk")
        goal = GoalSpec(kind="career_level_reached", career="clerk", level=2,
                        max_minutes=2_000, max_actions=100)
        policy, _ = train_softmax(config, scenario, goal, episodes=30,
                                  step_size=0.05, rng=random.Random(3))
        assert any(policy.weights)

        class ListingAgent:
            name = "softmax"

            def decide(self, config, state, rng):
                return softmax_decide(policy, config, state, rng)

        monkeypatch.setattr(agents, "_MEMO_LIMIT", memo_limit)
        planner = SoftmaxPlanner(policy, config)
        for seed in range(20):
            records = [
                replace(run_episode(config, scenario, seed, agent, goal),
                        max_decision_seconds=0.0)
                for agent in (planner, ListingAgent())]
            assert records[0] == records[1]
        assert planner._graph.records

    def test_every_root_is_a_record_of_the_current_graph(self, desk_base,
                                                         monkeypatch):
        # a limit of 3 empties the graph again and again; a record kept
        # across that would keep the old graph alive through its edges
        roots = []
        root = agents._Graph.root

        def recording_root(graph, state):
            record = root(graph, state)
            roots.append(any(node is record for node in graph.records.values()))
            return record

        monkeypatch.setattr(agents, "_MEMO_LIMIT", 3)
        monkeypatch.setattr(agents._Graph, "root", recording_root)
        train_softmax(desk_base, ScenarioOverrides(career="fashion"),
                      TestTraining().goal(), episodes=20, step_size=0.05,
                      rng=random.Random(42))
        assert len(roots) > 20 and all(roots)

    def test_engine_expands_each_state_once_and_commits_nothing(
            self, monkeypatch):
        # agent_comparison's training on a build no agent has played:
        # 3,633 decisions over 56 states, whose expansions make 112 edges;
        # a key is built only for a state at a clock another state has,
        # once: each episode's start, and 101 of the edges' children, never
        # a committed child again
        calls = {"_edges": 0, "_commit": 0, "dedup_key": 0}
        for owner, name in ((agents, "_edges"), (agents, "_commit"),
                            (GameState, "dedup_key")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, fn=fn, name=name: (
                calls.__setitem__(name, calls[name] + 1) or fn(*args)))
        decide = agents.SoftmaxPlanner.decide
        decisions = []
        monkeypatch.setattr(agents.SoftmaxPlanner, "decide", lambda *args: (
            decisions.append(1) or decide(*args)))
        train_softmax(fixtures.load("desk_base"),
                      ScenarioOverrides(career="fashion"),
                      TestTraining().goal(), episodes=400, step_size=0.05,
                      rng=random.Random(42))
        assert len(decisions) == 3633
        assert calls == {"_edges": 56, "_commit": 0, "dedup_key": 400 + 101}


# finite weights as training clips them, with both zeros and subnormals
WEIGHTS = st.one_of(
    st.floats(-100.0, 100.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308]))
# feature values, most of them zero
VALUES = st.one_of(st.just(0.0), st.just(0.0), st.just(-0.0),
                   st.floats(-10.0, 10.0), st.sampled_from([1.0, 5e-324]))
VECTORS = st.lists(
    st.lists(VALUES, min_size=len(FEATURE_NAMES), max_size=len(FEATURE_NAMES)),
    min_size=1, max_size=6)


SPARSE_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                           max_examples=100)


def nonzero(vector):
    return tuple((i, v) for i, v in enumerate(vector) if v)


def hexes(values):
    return [float.hex(v) for v in values]


class TestSparseSums:
    """Sums over each move's nonzero features equal the dense
    left-to-right sums over all features, bit for bit."""

    @SPARSE_SETTINGS
    @given(weights=st.lists(WEIGHTS, min_size=len(FEATURE_NAMES),
                            max_size=len(FEATURE_NAMES)),
           vectors=VECTORS)
    def test_utilities(self, weights, vectors):
        rows = [nonzero(v) for v in vectors]
        assert (hexes(agents._utilities(weights, rows))
                == hexes(dense_utilities(weights, vectors)))

    @SPARSE_SETTINGS
    @given(decisions=st.lists(
               st.tuples(VECTORS, st.lists(st.floats(0.0, 1.0), min_size=6,
                                           max_size=6),
                         st.integers(0, 5)),
               min_size=1, max_size=4),
           temperature=st.sampled_from([0.5, 1.0, 2.0, 1e-3, 3.7]))
    def test_reinforce_terms(self, decisions, temperature):
        # a learner's gradient starts at +0.0 and takes one term per decision
        sparse = [0.0] * len(FEATURE_NAMES)
        dense = [0.0] * len(FEATURE_NAMES)
        for vectors, probs, chosen in decisions:
            probs = probs[:len(vectors)]
            chosen %= len(vectors)
            columns = agents._columns([nonzero(v) for v in vectors])
            agents._reinforce(sparse, temperature, probs, vectors[chosen],
                              columns)
            dense_reinforce(dense, temperature, probs, vectors, chosen)
            assert hexes(sparse) == hexes(dense)
