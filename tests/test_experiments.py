"""Designer studies: grouping, aggregation, and reproducibility."""

import functools
import json
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from dataclasses import replace

import pytest

from bfs_oracle import random_desk_config, shortest_actions
from playtest import agents, errors, experiments, fixtures, report
from playtest.agents import GoalSpec, HeuristicSpec
from playtest.errors import PlaytestError, SchemaError, SuiteEntryError
from playtest.experiments import (
    AggregateStats,
    AStarAgent,
    CareerTarget,
    ComparisonAgent,
    ExperimentConfig,
    SoftmaxSpec,
    TrainSpec,
    WorkerDied,
    run_experiment,
    run_trials,
    start_experiment,
    trial_pool,
    trial_seed,
)
from playtest.sim import ScenarioOverrides
from playtest.tuning import InvalidField, TuningConfig
from test_tuning import DELETE, MUTANT_VALUES, key_paths


class InlinePool:
    """Runs each job in this process as it is submitted, as a pool worker
    would, and counts the jobs and the reads of their results."""

    def __init__(self):
        self.jobs = self.reads = 0

    def submit(self, fn, *args):
        self.jobs += 1
        job = Future()
        job.set_result(fn(*args))
        result = job.result

        def reading(*a, **k):
            self.reads += 1
            return result(*a, **k)

        job.result = reading
        return job


def make_xc(study, trials=5, base_seed=100, goal=None, heuristic=None,
            careers=(), agent=None, scenario=None):
    return ExperimentConfig(
        id=f"test_{study}",
        study=study,
        tuning_ref=["unused.json"],
        scenario=scenario or ScenarioOverrides(),
        heuristic=heuristic or HeuristicSpec(weights={"career_xp": 1.0}),
        goal=goal or GoalSpec(kind="career_level_reached",
                              max_minutes=20_000, max_actions=2_000),
        trials=trials,
        base_seed=base_seed,
        agent=agent or (ComparisonAgent() if study == "agent_comparison"
                        else AStarAgent(2000)),
        careers=[CareerTarget(*c) if isinstance(c, tuple) else CareerTarget(**c)
                 for c in careers],
    )


def run_ok(xc, *configs):
    """The outcome of a study that must run: its groups, extras and records."""
    outcome = run_experiment(xc, list(configs))
    assert outcome.status == "ok", outcome.error
    return outcome


def failure(xc, *configs):
    """The error of a study that must fail, as its stats.json gives it."""
    outcome = run_experiment(xc, list(configs))
    assert outcome.status == "failed"
    return outcome.error


class TestAggregateStats:
    def test_basic_moments(self):
        stats = AggregateStats.from_values([2, 4, 4, 4, 5, 5, 7, 9])
        assert stats.count == 8
        assert stats.mean == 5.0
        assert stats.variance == 4.0  # population variance
        assert (stats.min, stats.max) == (2.0, 9.0)

    def test_bounds_invariant(self):
        stats = AggregateStats.from_values([3, 11, 7])
        assert stats.min <= stats.mean <= stats.max
        assert stats.variance >= 0

    def test_union_of_batches_equals_combined(self):
        a = [4, 8, 15, 16]
        b = [23, 42]
        merged = AggregateStats.from_values(a + b)
        n = merged.count
        mean_check = (sum(a) + sum(b)) / n
        assert merged.mean == mean_check
        # exact integer accumulation: recomputing from the union in any
        # order gives identical floats
        shuffled = AggregateStats.from_values(b + a)
        assert (shuffled.mean, shuffled.variance) == (merged.mean, merged.variance)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AggregateStats.from_values([])

    def test_json_form_writes_every_field(self):
        # the stats.json entry of a group, and of each agent comparison half
        stats = AggregateStats.from_values([3, 11, 7])
        data = stats.to_dict()
        assert data == {"count": 3, "mean": 7.0, "variance": 32 / 3,
                        "min": 3.0, "max": 11.0}
        assert list(data) == ["count", "mean", "variance", "min", "max"]
        assert AggregateStats.from_dict(json.loads(json.dumps(data))) == stats


class TestTrialSeeding:
    def test_seed_derivation(self):
        assert trial_seed(1001, 0) == 1001
        assert trial_seed(1001, 5) == 1001 ^ 5

    def test_identical_batches(self, desk_base):
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=5000, max_actions=200)
        spec = HeuristicSpec(weights={"career_xp": 1.0})
        scenario = ScenarioOverrides(career="barista")
        agent = AStarAgent(2000)
        first, _ = run_trials(desk_base, scenario, spec, goal, agent, 4, 42)()
        second, _ = run_trials(desk_base, scenario, spec, goal, agent, 4, 42)()
        assert [(r.seed, r.total_actions, r.state_digest) for r in first] == \
               [(r.seed, r.total_actions, r.state_digest) for r in second]


class TestRelationshipBalance:
    def heuristic(self):
        return HeuristicSpec(weights={"relationship_event_complete": 1.0,
                                      "event_xp": 1.0})

    def goal(self):
        return GoalSpec(kind="any_relationship_chain_done", chain_length=5,
                        max_minutes=5000, max_actions=300)

    def test_outlier_event_dominates(self, romance_outlier):
        xc = make_xc("relationship_balance", trials=60,
                     goal=self.goal(), heuristic=self.heuristic())
        groups = run_ok(xc, romance_outlier).groups
        romance2 = groups["romance/2"].mean
        for category in ("friendship", "rivalry"):
            assert romance2 >= 1.8 * groups[f"{category}/2"].mean

    def test_every_category_sampled(self, romance_outlier):
        xc = make_xc("relationship_balance", trials=30,
                     goal=self.goal(), heuristic=self.heuristic())
        counts = run_ok(xc, romance_outlier).extras["category_trials"]
        assert set(counts) == {"friendship", "romance", "rivalry"}
        assert all(v >= 1 for v in counts.values())

    def test_symmetric_categories_close_means(self):
        # three byte-identical chains: every per-index mean must agree
        from playtest.tuning import build_config
        doc = json.loads(fixtures.path("romance_outlier").read_text())
        for event in doc["events"]:
            event["time_limit"] = 60
            event["steps"] = [
                {"xp_threshold": 4, "reward": {"relationship_xp": 1}},
                {"xp_threshold": 8, "reward": {"relationship_xp": 2}},
            ]
        config = build_config(doc)
        xc = make_xc("relationship_balance", trials=30,
                     goal=self.goal(), heuristic=self.heuristic())
        groups = run_ok(xc, config).groups
        for index in (1, 2, 3, 4, 5):
            means = [groups[f"{c}/{index}"].mean
                     for c in ("friendship", "romance", "rivalry")
                     if f"{c}/{index}" in groups]
            assert len(means) >= 2
            assert max(means) <= 1.1 * min(means)

    def test_single_trial_single_category(self, romance_outlier):
        xc = make_xc("relationship_balance", trials=1,
                     goal=self.goal(), heuristic=self.heuristic())
        assert len(run_ok(xc, romance_outlier).extras["category_trials"]) == 1

    def test_requires_relationship_events(self, build_a):
        xc = make_xc("relationship_balance", goal=self.goal(),
                     heuristic=self.heuristic())
        assert failure(xc, build_a).startswith("NoRelationshipEvents:")

    @pytest.mark.parametrize("goal, error", [
        (GoalSpec(kind="relationship_chain_done", category="friendship",
                  chain_length=2), "category 'friendship'"),
        (GoalSpec(kind="event_completed", event="friends_3"),
         "event 'friends_3' of category 'friendship'"),
        (GoalSpec(kind="any_relationship_chain_done", chain_length=3),
         "chain_length 3, longer than its chain of 2"),
    ], ids=["category", "event", "chain_length"])
    def test_a_locked_category_that_rules_out_the_goal_fails(self, goal, error):
        # each used to run: the scenario locks the relationship to romance
        # from the first state, so every trial played out its limits and
        # none could reach the goal
        from playtest.tuning import build_config
        doc = json.loads(fixtures.path("romance_outlier").read_text())
        romance = next(r for r in doc["relationships"] if r["id"] == "romance")
        romance["event_chain"] = romance["event_chain"][:2]
        config = build_config(doc)
        goal = replace(goal, max_minutes=500, max_actions=30)
        xc = make_xc("relationship_balance", trials=1, goal=goal,
                     heuristic=self.heuristic(),
                     scenario=ScenarioOverrides(relationship_category="romance"))
        assert failure(xc, config) == (
            "SuiteEntryError: test_relationship_balance.scenario."
            f"relationship_category: 'romance' locks out the goal's {error}")
        # from friendship, whose chain is whole, the same entry checks cleanly
        friendship = ScenarioOverrides(relationship_category="friendship")
        experiments.check_entry(replace(xc, scenario=friendship), [config])


class TestCareerProgression:
    def test_barista_needs_fewest_actions(self, desk_base):
        xc = make_xc("career_progression", trials=3,
                     heuristic=HeuristicSpec(weights={
                         "career_xp": 1.0,
                         "crafted_item:coffee": 0.5,
                         "crafted_item:dish": 0.5,
                     }),
                     careers=[("barista", 3), ("culinary", 4), ("fashion", 4),
                              ("medical", 4)])
        groups = run_ok(xc, desk_base).groups
        barista = groups["barista"].mean
        for career in ("culinary", "fashion", "medical"):
            assert barista < groups[career].mean

    def test_target_level_one_is_zero_actions(self, desk_base):
        xc = make_xc("career_progression", trials=2, careers=[("barista", 1)])
        assert run_ok(xc, desk_base).groups["barista"].mean == 0.0

    def test_tiny_career_matches_oracle(self):
        config, scenario, goal = random_desk_config(3)
        optimum, _ = shortest_actions(config, scenario, trial_seed(50, 0), goal)
        # the study builds clerk's level-2 goal from `careers`
        template = replace(goal, career=None, level=None)
        xc = make_xc("career_progression", trials=2, base_seed=50, goal=template,
                     heuristic=HeuristicSpec(weights={}),
                     agent=AStarAgent(50_000),
                     careers=[("clerk", 2)])
        assert run_ok(xc, config).groups["clerk"].mean == optimum

    def test_raising_target_never_cheaper(self, desk_base):
        low, high = (
            run_ok(make_xc("career_progression", trials=3,
                           careers=[("culinary", level)]), desk_base)
            .groups["culinary"] for level in (2, 3))
        assert high.mean >= low.mean

    def test_unknown_career(self, desk_base):
        xc = make_xc("career_progression", careers=[("astronaut", 2)])
        assert failure(xc, desk_base) == (
            f"SuiteEntryError: {xc.id}.careers[0].career: no career "
            "'astronaut' in build 'desk_base'")

    def test_target_above_cap(self, desk_base):
        xc = make_xc("career_progression", careers=[("barista", 99)])
        assert failure(xc, desk_base) == (
            f"SuiteEntryError: {xc.id}.careers[0].target_level: 99 > cap 3 "
            "of career 'barista'")


class TestObjectImpact:
    def test_desk_objects_regression_values(self, desk_objects):
        xc = make_xc("object_impact", trials=3,
                     careers=[("barista", 4), ("culinary", 3), ("fashion", 3),
                              ("medical", 3)])
        impact = run_ok(xc, desk_objects).extras["impact"]
        # frozen pipeline values for the shipped fixture
        assert impact["barista"]["actions_reduction_pct"] == pytest.approx(12.5)
        assert impact["culinary"]["actions_reduction_pct"] == pytest.approx(
            22.2, abs=0.1)
        assert impact["fashion"]["actions_reduction_pct"] == pytest.approx(20.0)
        for career in ("barista", "culinary", "fashion"):
            rho = impact[career]["rho_per_action_saved"]
            assert rho is not None and rho > 0

    def test_objects_above_target_report_na(self, desk_objects):
        xc = make_xc("object_impact", trials=2, careers=[("medical", 3)])
        impact = run_ok(xc, desk_objects).extras["impact"]["medical"]
        assert impact["actions_reduction_pct"] == 0.0
        assert impact["rho_per_action_saved"] is None

    def test_useless_objects_zero_reduction(self, desk_objects):
        from playtest.tuning import build_config
        doc = json.loads(fixtures.path("desk_objects").read_text())
        for action in doc["actions"]:
            if action["id"] == "pull_double":  # identical to the base action
                action["rewards"] = {"career_xp": 2, "event_xp": 3}
        config = build_config(doc)
        xc = make_xc("object_impact", trials=2, careers=[("barista", 4)])
        impact = run_ok(xc, config).extras["impact"]["barista"]
        assert impact["actions_reduction_pct"] == 0.0
        assert impact["rho_per_action_saved"] is None


class TestBuildComparison:
    def heuristic(self):
        return HeuristicSpec(weights={"career_xp": 2.0,
                                      "crafted_item:coffee": 0.5,
                                      "crafted_item:dish": 0.5})

    def test_identity_builds_identical_rows(self, build_a):
        xc = make_xc("build_comparison", trials=2, heuristic=self.heuristic(),
                     agent=AStarAgent(400),
                     careers=[("barista", 2)])
        # one build under a second build id: a build listed twice fails
        twin = replace(build_a, build_id="build_A_twin", _index=None)
        rows = run_ok(xc, build_a, twin).extras["rows"]
        assert len(rows) == 2
        first, second = rows
        for key in ("event_actions", "total_actions", "sessions",
                    "mean_wait_minutes"):
            assert first[key] == second[key]

    def test_direction_between_builds(self, build_a, build_b):
        xc = make_xc("build_comparison", trials=2, heuristic=self.heuristic(),
                     goal=GoalSpec(kind="career_level_reached",
                                   max_minutes=50_000, max_actions=3_000),
                     agent=AStarAgent(400),
                     careers=[("barista", 3)])
        rows = run_ok(xc, build_a, build_b).extras["rows"]
        by_build = {row["build"]: row for row in rows}
        a, b = by_build["build_A"], by_build["build_B"]
        assert b["total_actions"] >= 4 * a["total_actions"]
        assert b["sessions"] >= 4 * a["sessions"]
        assert a["mean_wait_minutes"] >= 5 * b["mean_wait_minutes"]

    def test_empty_careers_empty_table(self, build_a, build_b):
        xc = make_xc("build_comparison", trials=1)
        assert run_ok(xc, build_a, build_b).extras["rows"] == []

    def test_missing_career_raises(self, build_a, desk_base):
        xc = make_xc("build_comparison", trials=1,
                     careers=[{"career": "medical", "target_level": 2}])
        assert failure(xc, build_a, desk_base) == (
            f"SuiteEntryError: {xc.id}.careers[0].career: no career "
            "'medical' in build 'build_A'")


class TestAgentComparison:
    def test_variance_contrast(self, desk_base):
        goal = GoalSpec(kind="career_level_reached",
                        max_minutes=20_000, max_actions=400)
        xc = make_xc(
            "agent_comparison", trials=120, goal=goal,
            agent=ComparisonAgent(AStarAgent(2000),
                                  SoftmaxSpec(1.0, train=TrainSpec(300, 0.05, 7))),
            careers=[("fashion", 2)])
        groups = run_ok(xc, desk_base).groups
        astar_stats, softmax_stats = groups["fashion/astar"], groups["fashion/softmax"]
        assert astar_stats.variance == 0.0
        assert softmax_stats.variance > 0.0
        assert softmax_stats.mean >= astar_stats.mean


class TestSuiteDispatch:
    def test_failed_study_is_isolated(self, build_a):
        xc = make_xc("relationship_balance",
                     goal=GoalSpec(kind="any_relationship_chain_done",
                                   chain_length=5,
                                   max_minutes=5000, max_actions=300))
        outcome = run_experiment(xc, [build_a])
        assert outcome.status == "failed"
        assert "NoRelationshipEvents" in outcome.error

    def test_ok_study_carries_records(self, desk_base):
        xc = make_xc("career_progression", trials=2,
                     careers=[{"career": "barista", "target_level": 2}])
        outcome = run_experiment(xc, [desk_base])
        assert outcome.status == "ok"
        assert outcome.groups["barista"].count == 2
        assert len(outcome.records) == 2
        assert outcome.max_nodes_expanded <= 2000

    @pytest.mark.parametrize("study, builds", [
        ("relationship_balance", 2), ("career_progression", 2),
        ("object_impact", 2), ("agent_comparison", 2),
        ("build_comparison", 1), ("build_comparison", 3),
    ])
    def test_wrong_build_count_fails(self, desk_base, desk_objects, study, builds):
        # a build the study would not read fails it instead of being ignored
        careers = [] if study == "relationship_balance" else [("barista", 2)]
        xc = make_xc(study, trials=1, careers=careers)
        outcome = run_experiment(xc, [desk_base, desk_objects, desk_base][:builds])
        wanted = ("two tuning files" if study == "build_comparison"
                  else "one tuning file")
        assert (outcome.status, outcome.error) == (
            "failed", f"PlaytestError: {study} needs exactly {wanted}")
        assert outcome.records == []


    @pytest.mark.parametrize("study, changes, error", [
        ("relationship_balance", {
            "goal": {"kind": "any_relationship_chain_done", "chain_length": 5,
                     "max_minutes": 5000, "max_actions": 300},
            "careers": [{"career": "astronaut", "target_level": 99}]},
         "careers: relationship_balance reads no careers"),
        ("agent_comparison", {
            "careers": [{"career": "fashion", "target_level": 2}],
            "agent": {"kind": "astar", "node_budget": 1}},
         "agent.kind: agent_comparison reads a comparison agent, not 'astar'"),
    ], ids=["careers", "agent_kind"])
    def test_settings_the_study_never_reads_fail(self, study, changes, error):
        # each used to run ok: the careers, or the agent's budget, unread.
        # Neither reads a build, so each fails as the entry loads
        entry = {**make_xc(study, trials=1).to_dict(), **changes}
        with pytest.raises(SuiteEntryError,
                           match=f"^{re.escape(f'test_{study}.{error}')}$"):
            ExperimentConfig.from_dict(entry)


class TestPooledTrials:
    def test_pool_matches_serial_and_pickles_no_build(self, desk_base, monkeypatch):
        xc = make_xc(
            "agent_comparison", trials=4,
            goal=GoalSpec(kind="career_level_reached",
                          max_minutes=20_000, max_actions=400),
            careers=[{"career": "fashion", "target_level": 2}],
            agent=ComparisonAgent(AStarAgent(2000),
                                  SoftmaxSpec(train=TrainSpec(20, 0.05, 7))))

        def unpicklable(self, protocol):
            raise AssertionError("a build was pickled")

        # the workers inherit the build; neither a job nor a result carries it
        monkeypatch.setattr(TuningConfig, "__reduce_ex__", unpicklable)
        with pytest.raises(AssertionError, match="a build was pickled"):
            pickle.dumps(desk_base)
        jobs = []
        with trial_pool(2) as pool:
            submit = pool.submit

            def recording_submit(fn, *args):
                jobs.append(fn)
                return submit(fn, *args)

            pool.submit = recording_submit
            pooled = run_experiment(xc, [desk_base], pool)
        monkeypatch.undo()
        serial = run_experiment(xc, [desk_base])
        assert pooled.status == serial.status == "ok"
        assert (pooled.groups, pooled.extras, pooled.charts) == (
            serial.groups, serial.extras, serial.charts)
        assert [(g, i, r.state_digest) for g, i, r in pooled.records] == [
            (g, i, r.state_digest) for g, i, r in serial.records]
        # one job per group
        assert jobs == [experiments._run_group] * 2

    @pytest.mark.parametrize("study, builds, options", [
        ("relationship_balance", ["romance_outlier"], dict(
            trials=6,
            heuristic=HeuristicSpec(weights={"relationship_event_complete": 1.0,
                                             "event_xp": 1.0}),
            goal=GoalSpec(kind="any_relationship_chain_done", chain_length=5,
                          max_minutes=5000, max_actions=300))),
        ("career_progression", ["desk_base"], dict(
            trials=3, careers=[{"career": "barista", "target_level": 2},
                               {"career": "culinary", "target_level": 2}])),
        ("object_impact", ["desk_objects"], dict(
            trials=3, careers=[{"career": "barista", "target_level": 3}])),
        ("build_comparison", ["build_a", "build_b"], dict(
            trials=2, careers=[{"career": "barista", "target_level": 2}],
            agent=AStarAgent(400))),
    ])
    def test_every_study_pool_matches_serial(self, request, study, builds, options):
        configs = [request.getfixturevalue(name) for name in builds]
        xc = make_xc(study, **options)
        with trial_pool(2) as pool:
            pooled = run_experiment(xc, configs, pool)
        serial = run_experiment(xc, configs)
        assert pooled.status == serial.status == "ok"
        assert (pooled.groups, pooled.extras, pooled.charts) == (
            serial.groups, serial.extras, serial.charts)
        assert [(g, i, r.state_digest) for g, i, r in pooled.records] == [
            (g, i, r.state_digest) for g, i, r in serial.records]

    def test_starting_submits_every_group_training_first(self, desk_base):
        xc = make_xc(
            "agent_comparison", trials=2,
            goal=GoalSpec(kind="career_level_reached",
                          max_minutes=20_000, max_actions=400),
            careers=[{"career": "fashion", "target_level": 2},
                     {"career": "barista", "target_level": 2}],
            agent=ComparisonAgent(AStarAgent(2000),
                                  SoftmaxSpec(train=TrainSpec(10, 0.05, 7))))
        events = []
        with trial_pool(2) as pool:
            submit = pool.submit

            def recording_submit(fn, *args, **kwargs):
                # every job is one whole group; a Softmax group trains in it
                assert fn is experiments._run_group
                _, scenario, _, _, agent, _, _ = args
                group = ("astar" if isinstance(agent, AStarAgent) else "train",
                         scenario.career)
                events.append(("submit", *group))
                future = submit(fn, *args, **kwargs)
                result = future.result

                def reading(*a, **k):
                    events.append(("read", *group))
                    return result(*a, **k)

                future.result = reading
                return future

            pool.submit = recording_submit
            read = start_experiment(xc, [desk_base], pool)
            started = list(events)
            outcome = read()
        assert outcome.status == "ok"
        # starting submits every group, each training group first, and
        # waits for none; the read takes them in group order
        assert started == [("submit", "train", "fashion"),
                           ("submit", "train", "barista"),
                           ("submit", "astar", "fashion"),
                           ("submit", "astar", "barista")]
        assert events[len(started):] == [("read", "astar", "fashion"),
                                          ("read", "train", "fashion"),
                                          ("read", "astar", "barista"),
                                          ("read", "train", "barista")]

    def test_serial_start_plays_nothing_until_read(self, desk_base, monkeypatch):
        # a serial group used to run, training and all, as it started,
        # and a pooled one as it was read
        played = []

        def counted(fn):
            def call(*args, **kwargs):
                played.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        for name in ("run_episode", "train_softmax"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        xc = make_xc("agent_comparison", trials=2,
                     careers=[{"career": "barista", "target_level": 2}],
                     agent=ComparisonAgent(AStarAgent(2000),
                                           SoftmaxSpec(train=TrainSpec(5, 0.05, 7))))
        read = start_experiment(xc, [desk_base])
        assert played == []
        assert read().status == "ok"
        # the read plays the groups in group order: A*, then Softmax
        assert played == ["run_episode"] * 2 + ["train_softmax"] + [
            "run_episode"] * 2

    def test_a_career_entry_builds_its_groups_once_per_check(
            self, desk_base, tmp_path, monkeypatch):
        # checking an entry builds the groups it runs: run_experiment
        # builds them once, and run_suite once, as the entry starts
        calls = []

        def counting(config, xc):
            calls.append(xc.id)
            return career_groups(config, xc)

        career_groups = experiments._career_groups
        monkeypatch.setattr(experiments, "_career_groups", counting)
        xc = make_xc("career_progression", trials=1, careers=[("barista", 2)])
        assert run_experiment(xc, [desk_base]).status == "ok"
        assert calls == [xc.id]
        entry = {"id": "careers", "study": "career_progression",
                 "tuning_ref": str(fixtures.path("desk_base")), "trials": 1,
                 "goal": {"kind": "career_level_reached", "max_actions": 100},
                 "careers": [{"career": "barista", "target_level": 2}]}
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([entry]))
        calls.clear()
        [(_, outcome)] = report.run_suite(suite, tmp_path / "out")
        assert outcome.status == "ok"
        assert calls == ["careers"]

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "inline_pool"])
    def test_each_career_trains_once_in_its_softmax_group(
            self, desk_base, monkeypatch, pooled):
        xc = make_xc(
            "agent_comparison", trials=2,
            goal=GoalSpec(kind="career_level_reached",
                          max_minutes=20_000, max_actions=400),
            careers=[{"career": "fashion", "target_level": 2},
                     {"career": "barista", "target_level": 2}],
            agent=ComparisonAgent(AStarAgent(2000),
                                  SoftmaxSpec(0.5, train=TrainSpec(10, 0.05))))
        trained = []

        def train(config, scenario, *args, **kwargs):
            trained.append(scenario.career)
            return agents.train_softmax(config, scenario, *args, **kwargs)

        monkeypatch.setattr(experiments, "train_softmax", train)
        pool = InlinePool() if pooled else None
        outcome = run_experiment(xc, [desk_base], pool)
        assert outcome.status == "ok"
        assert trained == ["fashion", "barista"]
        if pooled:
            assert (pool.jobs, pool.reads) == (4, 4)
        for career in ("fashion", "barista"):
            goal = GoalSpec(kind="career_level_reached", career=career, level=2,
                            max_minutes=20_000, max_actions=400)
            # the train spec sets no seed: the experiment's base seed
            policy, _ = agents.train_softmax(
                desk_base, ScenarioOverrides(career=career), goal, episodes=10,
                step_size=0.05, rng=random.Random(xc.base_seed), temperature=0.5)
            assert outcome.extras["comparison"][career]["policy"] == policy.to_dict()

    def test_uneven_chunks_match_serial(self, desk_base):
        # a pooled group is one job whatever its trial count; the name dates
        # from when these counts left a short last chunk of seeds, or chunks
        # of one trial each
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=20_000, max_actions=400)
        args = (desk_base, ScenarioOverrides(career="barista"),
                HeuristicSpec({"career_xp": 1.0}), goal,
                AStarAgent(200))
        with trial_pool(2) as pool:
            for trials in (1, 3, 9, 17):
                pooled, _ = run_trials(*args, trials, 11, pool)()
                serial, _ = run_trials(*args, trials, 11)()
                assert [r.seed for r in pooled] == [
                    trial_seed(11, i) for i in range(trials)]
                # whole records: digests, decisions and max_nodes_expanded too
                assert [replace(r, max_decision_seconds=0.0) for r in pooled] == [
                    replace(r, max_decision_seconds=0.0) for r in serial]

    CULINARY = (ScenarioOverrides(career="culinary"),
                HeuristicSpec({"career_xp": 1.0, "crafted_item:dish": 0.5}),
                GoalSpec(kind="career_level_reached", career="culinary", level=3,
                         max_minutes=20_000, max_actions=2000),
                AStarAgent(2000))

    def test_pooled_group_does_the_serial_search_work(self, monkeypatch):
        # jobs run in this process as a worker would run them, on the
        # build as a worker inherits it: forked before any group ran, so
        # with no graph
        edges = agents._edges
        calls = []
        monkeypatch.setattr(agents, "_edges",
                            lambda *args: calls.append(1) or edges(*args))
        serial, _ = run_trials(fixtures.load("desk_base"), *self.CULINARY, 12,
                               2001)()
        serial_calls, calls[:] = len(calls), []
        pool = InlinePool()
        pooled, _ = run_trials(fixtures.load("desk_base"), *self.CULINARY, 12,
                               2001, pool)()
        assert len(calls) == serial_calls > 0
        assert len({r.state_digest for r in serial}) > 1
        assert [replace(r, max_decision_seconds=0.0) for r in pooled] == [
            replace(r, max_decision_seconds=0.0) for r in serial]
        assert pool.jobs == 1

    def test_pooled_batch_waits_for_its_job_only_when_read(self, desk_base):
        pool = InlinePool()
        batch = run_trials(desk_base, *self.CULINARY, 2, 2001, pool)
        # a batch that waited here would keep the pool to one group at a time
        assert (pool.jobs, pool.reads) == (1, 0)
        assert len(batch()[0]) == 2 and pool.reads == 1

    def test_pickled_build_leaves_its_graph_behind(self):
        # a pickled build leaves the engine graph of a planner alive in
        # this process behind
        config = fixtures.load("desk_base")
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=20_000, max_actions=400)
        planner = agents.AStarPlanner(HeuristicSpec({"career_xp": 1.0}), goal)
        agents.run_episode(config, ScenarioOverrides(career="barista"), 1,
                           planner, goal)
        agents.run_episode(config, ScenarioOverrides(career="barista"), 1,
                           agents.SoftmaxPlanner(agents.SoftmaxPolicy.zero(),
                                                 config), goal)
        records = len(agents._graph(config).records)
        assert records
        assert not agents._graph(pickle.loads(pickle.dumps(config))).records
        assert len(agents._graph(config).records) == records

    @pytest.mark.parametrize("cls", sorted(
        [value for value in vars(errors).values() if isinstance(value, type)
         and issubclass(value, Exception)] + [InvalidField, WorkerDied],
        key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
    def test_exceptions_survive_pickle(self, cls):
        # a pool worker sends back the exception its job raised, pickled;
        # one that could not be rebuilt used to fail its experiment with a
        # TypeError where a serial run names the exception
        args = {errors.DanglingReference: ("actions[0].requires", "chef"),
                InvalidField: ("weights", "must be finite")}.get(cls, ("why",))
        exc = cls(*args)
        again = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        assert (type(again), str(again)) == (cls, str(exc))
        assert vars(again) == vars(exc)

    @pytest.mark.parametrize("cpus, asked, started", [(1, 8, 1), (2, 8, 2),
                                                      (4, 2, 2), (1, 2, 1)])
    def test_pool_starts_at_most_one_worker_per_cpu(
            self, monkeypatch, cpus, asked, started):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        with trial_pool(asked) as pool:  # no job is read: no process starts
            assert pool.cpus == list(range(started))

    def test_pool_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with trial_pool(8) as pool:
            assert pool.cpus == [0, 1, 2]

    def test_jobs_past_one_round_fork_another(self, monkeypatch):
        # a round's job indexes must fit in one pipe write; later jobs
        # wait for the next round, and a job's exception is its read's
        monkeypatch.setattr(experiments, "_ROUND", 2)

        def square(i):
            if i == 3:
                raise ValueError("job 3")
            return i * i

        with trial_pool(2) as pool:
            jobs = [pool.submit(square, i) for i in range(5)]
            answers = [job.result() for job in jobs[:3]]
            with pytest.raises(ValueError, match="job 3"):
                jobs[3].result()
            answers.append(jobs[4].result())
            assert len(pool._queues) == 3
        assert answers == [0, 1, 4, 16]

    def test_a_dead_worker_fails_its_job_and_is_replaced(self):
        # the pool's one worker dies in the first job; a new one runs the rest
        with trial_pool(1) as pool:
            dying, after = pool.submit(os._exit, 3), pool.submit(int)
            with pytest.raises(experiments.WorkerDied,
                               match="a pool worker exited with status 3"):
                dying.result()
            assert after.result() == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the platform pins no process to a CPU")
    def test_each_worker_runs_on_a_cpu_of_its_own(self):
        before = os.sched_getaffinity(0)
        if len(before) < 2:
            pytest.skip("needs two CPUs")
        two = set(sorted(before)[:2])

        def where():
            time.sleep(0.05)  # long enough for both workers to claim a job
            return os.getpid(), os.sched_getaffinity(0)

        os.sched_setaffinity(0, two)
        try:
            with trial_pool(8) as pool:
                jobs = [pool.submit(where) for _ in range(6)]
                seen = dict(job.result() for job in jobs)
        finally:
            os.sched_setaffinity(0, before)
        assert len(seen) == 2
        assert all(len(cpus) == 1 for cpus in seen.values())
        assert set().union(*seen.values()) == two


# ---------------------------------------------------------------------------
# Suite entries: decoded and written by the tuning field plan
# ---------------------------------------------------------------------------

PAPER_SUITE = json.loads(fixtures.path("paper_suite").read_text())


@pytest.mark.parametrize("entry", PAPER_SUITE, ids=lambda entry: entry["id"])
def test_params_repeat_the_entry(entry):
    # stats.json's params: the entry as written, with tuning_ref a list
    ref = entry["tuning_ref"]
    assert ExperimentConfig.from_dict(entry).to_dict() == {
        **entry, "tuning_ref": [ref] if isinstance(ref, str) else ref,
        "careers": entry.get("careers", []),
    }


def test_single_defect_entries_fail_cleanly_or_round_trip():
    """Each one-key defect of a paper_suite entry (a deleted key, a value of
    another JSON type, an unknown key) raises a domain error or a
    ValueError, or decodes to a config that its own JSON form reproduces."""
    tried, broken = 0, []
    for entry in PAPER_SUITE:
        for path in key_paths(entry):
            for value in (1,) if path[-1] == "unknown_field" else MUTANT_VALUES:
                doc = json.loads(json.dumps(entry))
                node = functools.reduce(operator.getitem, path[:-1], doc)
                if value is DELETE:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
                tried += 1
                try:
                    xc = ExperimentConfig.from_dict(doc)
                except (PlaytestError, ValueError):
                    continue
                except Exception as exc:
                    broken.append((entry["id"], path, value, repr(exc)))
                    continue
                again = ExperimentConfig.from_dict(json.loads(json.dumps(xc.to_dict())))
                if again != xc:
                    broken.append((entry["id"], path, value, "round trip"))
    assert tried > 900
    assert broken == []


@pytest.mark.parametrize("path, value, error", [
    (("agent", "astar", "node_budget"), 0,
     "agent.astar.node_budget: must be >= 1"),
    (("agent", "softmax", "temperature"), 0,
     "agent.softmax.temperature: must be a finite number > 0"),
    (("agent", "softmax", "train", "episodes"), 0,
     "agent.softmax.train.episodes: must be >= 1"),
    (("agent", "softmax", "train", "step_size"), 0.0,
     "agent.softmax.train.step_size: must be a finite number > 0"),
    (("agent",), {"kind": "astar", "node_budget": -5},
     "agent.node_budget: must be >= 1"),
    (("agent",), {"kind": "softmax", "policy": {
        "feature_names": ["a", "b"], "weights": [1.0, 2.0]}},
     "agent.policy.feature_names: must be the 11 features, in order"),
    (("agent", "softmax"), {"policy": {
        "feature_names": list(agents.FEATURE_NAMES), "weights": [1.0]}},
     "agent.softmax.policy.weights: one weight per feature required"),
    (("agent", "softmax"), {"policy": {
        "feature_names": list(agents.FEATURE_NAMES),
        "weights": [0.0] * len(agents.FEATURE_NAMES), "temperature": 0}},
     "agent.softmax.policy.temperature: must be a finite number > 0"),
    (("heuristic", "normalization"), {"relationship_xp": 3.0},
     "heuristic.normalization.relationship_xp: not read without a weight"),
], ids=["astar_budget", "temperature", "episodes", "step_size", "budget",
        "feature_names", "policy_weights", "policy_temperature",
        "unweighted_normalization"])
def test_agent_settings_that_cannot_run_fail_at_load(path, value, error):
    # each used to load and fail only when its planner or training started,
    # inside a pool worker at --parallel, or, for the scale of a term with
    # no weight, load and never be read; each now names its path
    doc = json.loads(json.dumps(next(
        e for e in PAPER_SUITE if e["study"] == "agent_comparison")))
    if path == ("agent",):
        doc["study"] = "career_progression"
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    with pytest.raises(SuiteEntryError,
                       match=f"^agent_comparison\\.{re.escape(error)}$"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   10**400, -10**400],
                         ids=["inf", "-inf", "nan", "huge_int", "-huge_int"])
@pytest.mark.parametrize("path", [
    ("agent", "softmax", "temperature"),
    ("agent", "softmax", "train", "step_size"),
    ("heuristic", "weights", "career_xp"),
    ("heuristic", "normalization", "career_xp"),
], ids=["temperature", "step_size", "weight", "normalization"])
def test_non_finite_numbers_fail_at_load(path, value):
    # json reads NaN, Infinity and 1e999; such an entry used to run and
    # write Infinity into stats.json, which strict JSON parsers reject.
    # An int too large for a float used to load as an int, or raise a
    # bare OverflowError.
    doc = json.loads(json.dumps(next(
        e for e in PAPER_SUITE if e["study"] == "agent_comparison")))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    got = (repr(value) if isinstance(value, float)
           else "an int too large for a float")
    with pytest.raises(SuiteEntryError, match=(
            f"^agent_comparison\\.{re.escape('.'.join(path))}: "
            f"expected a finite number, got {got}$")):
        ExperimentConfig.from_dict(doc)


AGENT_COMPARISON = next(e for e in PAPER_SUITE if e["study"] == "agent_comparison")
LITERAL_POLICY = {"feature_names": list(agents.FEATURE_NAMES),
                  "weights": [0.0] * len(agents.FEATURE_NAMES)}


@pytest.mark.parametrize("study, agent, error", [
    ("agent_comparison", {**AGENT_COMPARISON["agent"], "node_budget": 1},
     "agent: unknown field(s) ['node_budget']"),
    ("career_progression", {"kind": "astar", "softmax": {"temperature": 3.0}},
     "agent: unknown field(s) ['softmax']"),
    ("career_progression", {"kind": "softmax", "node_budget": 5,
                            "policy": LITERAL_POLICY},
     "agent: unknown field(s) ['node_budget']"),
], ids=["comparison_budget", "astar_softmax", "softmax_budget"])
def test_a_field_the_agent_kind_does_not_read_fails_at_load(study, agent, error):
    # each used to load, and the study ran without reading the field; for
    # training beside a literal policy see
    # test_temperature_next_to_a_literal_policy_fails_at_load
    doc = json.loads(json.dumps(dict(AGENT_COMPARISON, study=study, agent=agent)))
    with pytest.raises(SuiteEntryError,
                       match=f"^agent_comparison\\.{re.escape(error)}$"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("path, value, error", [
    (("goal",), {"kind": "any_relationship_chain_done", "chain_length": -1},
     "goal.chain_length: must be >= 1"),
    (("goal",), {"kind": "relationship_chain_done", "category": "romance",
                 "chain_length": 0}, "goal.chain_length: must be >= 1"),
    (("goal",), {"kind": "career_level_reached", "career": "fashion",
                 "level": 0}, "goal.level: must be >= 1"),
    (("goal",), {"kind": "event_completed", "event": "x", "career": "y"},
     "goal.career: not read by the 'event_completed' goal kind"),
    (("goal",), {"kind": "career_level_reached", "chain_length": 2},
     "goal.chain_length: not read by the 'career_level_reached' goal kind"),
    (("careers", 0, "target_level"), 0, "careers[0].target_level: must be >= 1"),
    (("goal", "kind"), "bogus", "goal.kind: unknown goal kind 'bogus'"),
    (("goal", "max_minutes"), 0, "goal.max_minutes: must be positive"),
    (("goal", "max_actions"), -3, "goal.max_actions: must be positive"),
], ids=["negative_chain", "zero_chain", "zero_level", "event_with_career",
        "template_with_chain", "zero_target", "goal_kind", "max_minutes",
        "max_actions"])
def test_goal_settings_that_cannot_hold_fail_at_load(path, value, error):
    # each used to load: a chain of -1 was done at step 0, so every trial
    # "reached" its goal at once, and a field the goal's kind never reads
    # was ignored
    doc = json.loads(json.dumps(AGENT_COMPARISON))
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    with pytest.raises(SuiteEntryError,
                       match=f"^agent_comparison\\.{re.escape(error)}$"):
        ExperimentConfig.from_dict(doc)


CAREER_STUDIES = sorted(e["study"] for e in PAPER_SUITE
                        if e["study"] != "relationship_balance")


@pytest.mark.parametrize("study", CAREER_STUDIES)
@pytest.mark.parametrize("goal, error", [
    ({"kind": "event_completed", "event": "barista_shift"},
     "goal.kind: {study} plays career_level_reached goals, "
     "not 'event_completed'"),
    ({"kind": "career_level_reached", "career": "barista"},
     "goal.career: {study} takes each group's career from careers"),
    ({"kind": "career_level_reached", "level": 2},
     "goal.level: {study} takes each group's level from careers"),
], ids=["event_goal", "career", "level"])
def test_a_career_study_rejects_a_goal_template_it_would_ignore(
        study, goal, error):
    # each used to load and run: the study builds every group's goal from
    # `careers` and reads only the template's two limits
    doc = json.loads(json.dumps(next(e for e in PAPER_SUITE
                                     if e["study"] == study)))
    doc["goal"] = {**goal, "max_minutes": 500, "max_actions": 40}
    with pytest.raises(SuiteEntryError, match=(
            f"^{study}\\.{re.escape(error.format(study=study))}$")):
        ExperimentConfig.from_dict(doc)
    doc["goal"] = {"kind": "career_level_reached", "max_actions": 40}
    ExperimentConfig.from_dict(doc)


def load_error(suite: Path, entry) -> Exception | None:
    """The error `entry` fails with before any of its groups runs: as
    `report._load` loads it, else as `check_entry` checks it when it
    starts."""
    loaded = report._load(suite, 0, entry, None, {})
    if loaded.error is None:
        try:
            experiments.check_entry(loaded.xc, loaded.configs)
        except Exception as exc:
            return exc
    return loaded.error


@pytest.mark.parametrize("study", CAREER_STUDIES)
def test_a_career_listed_twice_fails_at_load(study):
    # each used to run ok, and its two rows shared one group key: stats.json
    # kept one group holding the later row's trials alone
    doc = json.loads(json.dumps(next(e for e in PAPER_SUITE
                                     if e["study"] == study)))
    career = doc["careers"][0]["career"]
    doc["careers"].append({"career": career})
    error = load_error(fixtures.path("paper_suite"), doc)
    assert f"{type(error).__name__}: {error}" == (
        f"SuiteEntryError: {study}.careers[{len(doc['careers']) - 1}].career: "
        f"{career!r} repeats careers[0]")


@pytest.mark.parametrize("copy", [False, True], ids=["one_file", "two_files"])
def test_a_build_listed_twice_fails_at_load(tmp_path, copy):
    # it used to run ok, and each career's two groups shared one key: one
    # group per career in stats.json, beside two rows
    doc = json.loads(json.dumps(next(e for e in PAPER_SUITE
                                     if e["study"] == "build_comparison")))
    first = fixtures.path("build_a")
    second = tmp_path / "build_a_copy.json"
    second.write_bytes(first.read_bytes())
    doc["tuning_ref"] = [str(first), str(second if copy else first)]
    error = load_error(fixtures.path("paper_suite"), doc)
    assert f"{type(error).__name__}: {error}" == (
        "SuiteEntryError: build_comparison.tuning_ref[1]: build 'build_A' "
        "repeats tuning_ref[0]'s")


@pytest.mark.parametrize("field, value, error", [
    ("study", "bogus", "study: unknown study 'bogus'"),
    ("trials", 0, "trials: must be >= 1"),
], ids=["study", "trials"])
def test_an_entry_setting_that_cannot_run_fails_with_its_path(
        field, value, error):
    # each used to fail as a ValueError that named no path
    doc = json.loads(json.dumps(dict(AGENT_COMPARISON, **{field: value})))
    with pytest.raises(SuiteEntryError,
                       match=f"^agent_comparison\\.{re.escape(error)}$"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("make, error", [
    (lambda: GoalSpec(kind="any_relationship_chain_done", chain_length=-1),
     "chain_length: must be >= 1"),
    (lambda: GoalSpec(kind="career_level_reached", career="barista", level=0),
     "level: must be >= 1"),
    (lambda: GoalSpec(kind="event_completed", event="x", career="y"),
     "career: not read by the 'event_completed' goal kind"),
    (lambda: CareerTarget("barista", 0), "target_level: must be >= 1"),
    (lambda: make_xc("career_progression", careers=[("barista",)],
                     scenario=ScenarioOverrides(career="barista")),
     "scenario.career: career_progression takes each group's career from "
     "careers"),
    (lambda: make_xc("object_impact", careers=[("barista",), ("barista", 2)]),
     "careers[1].career: 'barista' repeats careers[0]"),
    (lambda: make_xc("relationship_balance", careers=[("barista",)]),
     "careers: relationship_balance reads no careers"),
], ids=["negative_chain", "zero_level", "event_with_career", "zero_target",
        "scenario_career", "repeated_career", "balance_careers"])
def test_goal_settings_that_cannot_hold_fail_in_the_python_api(make, error):
    # the last three used to build, and failed only as the entry started
    with pytest.raises(InvalidField, match=f"^{re.escape(error)}$"):
        make()


def test_a_goal_read_alone_names_its_field():
    # `playtest train --goal` and the benchmark read goals on their own
    with pytest.raises(SchemaError, match=r"^GoalSpec\.level: must be >= 1$"):
        GoalSpec.from_dict({"kind": "career_level_reached", "career": "barista",
                            "level": -2})


def test_a_float_field_keeps_an_int_that_fits():
    # params in stats.json repeat the entry as written
    doc = json.loads(json.dumps(next(
        e for e in PAPER_SUITE if e["study"] == "agent_comparison")))
    doc["agent"]["softmax"]["temperature"] = 2**1000
    xc = ExperimentConfig.from_dict(doc)
    assert type(xc.agent.softmax.temperature) is int
    assert xc.to_dict()["agent"]["softmax"]["temperature"] == 2**1000


@pytest.mark.parametrize("field", ["weights", "normalization"])
@pytest.mark.parametrize("term", ["carrer_xp", "crafted_item:", "crafted_item"])
def test_unknown_heuristic_term_fails_at_load(field, term):
    # a misspelt term used to load, and the planner searched with h = 0
    doc = json.loads(json.dumps(next(
        e for e in PAPER_SUITE if e["study"] == "agent_comparison")))
    doc["heuristic"] = {"weights": {"career_xp": 1.0}}
    doc["heuristic"].setdefault(field, {})[term] = 1.0
    with pytest.raises(SuiteEntryError, match=(
            f"^agent_comparison\\.heuristic\\.{field}: "
            f"unknown heuristic term {re.escape(repr(term))}$")):
        ExperimentConfig.from_dict(doc)
    doc["heuristic"][field] = {"crafted_item:coffee": 1.0, "event_xp": 2.0}
    doc["heuristic"]["weights"].update(doc["heuristic"][field])
    ExperimentConfig.from_dict(doc)


def test_temperature_next_to_a_literal_policy_fails_at_load():
    # the run used to play the policy as given and ignore the temperature,
    # or the training settings, beside it
    doc = json.loads(json.dumps(next(
        e for e in PAPER_SUITE if e["study"] == "agent_comparison")))
    for name, value in (("temperature", 5.0), ("train", {"episodes": 3})):
        doc["agent"]["softmax"] = {name: value, "policy": LITERAL_POLICY}
        with pytest.raises(SuiteEntryError, match=(
                f"^agent_comparison\\.agent\\.softmax\\.{name}: "
                "not read next to a literal policy$")):
            ExperimentConfig.from_dict(doc)
    doc["agent"]["softmax"] = {"policy": LITERAL_POLICY}
    ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make, error", [
    (lambda value: TrainSpec(step_size=value),
     "step_size: must be a finite number > 0"),
    (lambda value: SoftmaxSpec(temperature=value),
     "temperature: must be a finite number > 0"),
    (lambda value: HeuristicSpec({"career_xp": value}),
     "weights.career_xp: must be finite"),
], ids=["step_size", "temperature", "weight"])
def test_non_finite_spec_numbers_fail_in_the_python_api(make, error, value):
    # the JSON loader rejects them first; built in Python, each used to load
    # and fail only when training or a decision ran
    with pytest.raises(ValueError, match=f"^{error}$"):
        make(value)


@pytest.mark.parametrize("scale", [-2.0, 0, 0.0, -0.0], ids=["negative", "zero_int",
                                                          "zero", "negative_zero"])
def test_normalization_scale_must_be_positive(scale):
    # a negative scale used to load and turn its term into a reward for
    # moving away from the goal, and a zero one fell back to the default
    # scale without a word
    error = r"normalization\.career_xp: must be a finite number > 0$"
    doc = json.loads(json.dumps(next(
        e for e in PAPER_SUITE if e["study"] == "agent_comparison")))
    doc["heuristic"] = {"weights": {"career_xp": 1.0},
                        "normalization": {"career_xp": scale}}
    with pytest.raises(SuiteEntryError,
                       match=r"^agent_comparison\.heuristic\." + error):
        ExperimentConfig.from_dict(doc)
    with pytest.raises(ValueError, match="^" + error):
        HeuristicSpec({"career_xp": 1.0}, {"career_xp": scale})
    doc["heuristic"]["normalization"]["career_xp"] = 0.5
    ExperimentConfig.from_dict(doc)


FORMATS_DOC = Path(__file__).parent.parent / "docs" / "file-formats.md"


def documented_load_errors() -> tuple[dict, list[tuple[str, str]]]:
    """The entry and the (fields, error) rows of the Load errors table in
    docs/file-formats.md."""
    section = FORMATS_DOC.read_text().split("### Load errors\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    entry = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL)[1])
    return entry, re.findall(r"^\| `(.*)` \| `(.*)` \|$", section, re.MULTILINE)


def test_documented_load_errors_are_the_errors():
    # every load error the docs list, each entry loaded and checked as
    # `playtest run` loads and starts it, from a suite beside the shipped
    # builds: a changed message must change the table
    entry, rows = documented_load_errors()
    suite = fixtures.path("paper_suite")
    assert load_error(suite, entry) is None
    assert len(rows) == 54
    errors = []
    for fields, _ in rows:
        error = load_error(suite, dict(entry, **json.loads(f"{{{fields}}}")))
        errors.append(error and experiments.failed_outcome(
            entry["id"], entry["study"], error).error)
    assert errors == [error.replace("<id>", entry["id"]) for _, error in rows]


def test_importing_the_package_leaves_the_process_pool_out():
    # only trial_pool starts a pool; importing it with the package loaded
    # multiprocessing, about 20 ms, into every serial run
    code = ("import sys, playtest, playtest.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent.futures.process'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(agents.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
