"""Designer studies: grouping, aggregation, and reproducibility."""

import pickle

import pytest

from bfs_oracle import random_desk_config, shortest_actions
from playtest.agents import GoalSpec, HeuristicSpec
from playtest.errors import (
    CareerMissingInBuild,
    NoRelationshipEvents,
    TargetAboveCap,
    UnknownCareer,
)
from playtest.experiments import (
    AggregateStats,
    ExperimentConfig,
    agent_comparison,
    build_comparison,
    career_progression,
    object_impact,
    relationship_balance,
    run_experiment,
    run_relationship_balance,
    run_trials,
    trial_pool,
    trial_seed,
)
from playtest.sim import ScenarioOverrides


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
        agent=agent or {"kind": "astar", "node_budget": 2000},
        careers=[dict(c) for c in careers],
    )


class TestAggregateStats:
    def test_basic_moments(self):
        stats = AggregateStats.from_values("k", [2, 4, 4, 4, 5, 5, 7, 9])
        assert stats.count == 8
        assert stats.mean == 5.0
        assert stats.variance == 4.0  # population variance
        assert (stats.min, stats.max) == (2.0, 9.0)

    def test_bounds_invariant(self):
        stats = AggregateStats.from_values("k", [3, 11, 7])
        assert stats.min <= stats.mean <= stats.max
        assert stats.variance >= 0

    def test_union_of_batches_equals_combined(self):
        a = [4, 8, 15, 16]
        b = [23, 42]
        merged = AggregateStats.from_values("k", a + b)
        n = merged.count
        mean_check = (sum(a) + sum(b)) / n
        assert merged.mean == mean_check
        # exact integer accumulation: recomputing from the union in any
        # order gives identical floats
        shuffled = AggregateStats.from_values("k", b + a)
        assert (shuffled.mean, shuffled.variance) == (merged.mean, merged.variance)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AggregateStats.from_values("k", [])


class TestTrialSeeding:
    def test_seed_derivation(self):
        assert trial_seed(1001, 0) == 1001
        assert trial_seed(1001, 5) == 1001 ^ 5

    def test_identical_batches(self, desk_base):
        goal = GoalSpec(kind="career_level_reached", career="barista", level=2,
                        max_minutes=5000, max_actions=200)
        spec = HeuristicSpec(weights={"career_xp": 1.0})
        scenario = ScenarioOverrides(career="barista")
        agent = {"kind": "astar", "node_budget": 2000}
        first = run_trials(desk_base, scenario, spec, goal, agent, 4, 42)
        second = run_trials(desk_base, scenario, spec, goal, agent, 4, 42)
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
        groups = relationship_balance(romance_outlier, xc)
        romance2 = groups[("romance", 2)].mean
        for category in ("friendship", "rivalry"):
            assert romance2 >= 1.8 * groups[(category, 2)].mean

    def test_every_category_sampled(self, romance_outlier):
        xc = make_xc("relationship_balance", trials=30,
                     goal=self.goal(), heuristic=self.heuristic())
        outcome = run_relationship_balance(romance_outlier, xc)
        counts = outcome.extras["category_trials"]
        assert set(counts) == {"friendship", "romance", "rivalry"}
        assert all(v >= 1 for v in counts.values())

    def test_symmetric_categories_close_means(self):
        # three byte-identical chains: every per-index mean must agree
        import json
        from playtest import fixtures
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
        groups = relationship_balance(config, xc)
        for index in (1, 2, 3, 4, 5):
            means = [groups[(c, index)].mean
                     for c in ("friendship", "romance", "rivalry")
                     if (c, index) in groups]
            assert len(means) >= 2
            assert max(means) <= 1.1 * min(means)

    def test_single_trial_single_category(self, romance_outlier):
        xc = make_xc("relationship_balance", trials=1,
                     goal=self.goal(), heuristic=self.heuristic())
        outcome = run_relationship_balance(romance_outlier, xc)
        assert len(outcome.extras["category_trials"]) == 1

    def test_requires_relationship_events(self, build_a):
        xc = make_xc("relationship_balance", goal=self.goal(),
                     heuristic=self.heuristic())
        with pytest.raises(NoRelationshipEvents):
            relationship_balance(build_a, xc)


class TestCareerProgression:
    def test_barista_needs_fewest_actions(self, desk_base):
        xc = make_xc("career_progression", trials=3,
                     heuristic=HeuristicSpec(weights={
                         "career_xp": 1.0,
                         "crafted_item:coffee": 0.5,
                         "crafted_item:dish": 0.5,
                     }))
        groups = career_progression(
            desk_base,
            [("barista", 3), ("culinary", 4), ("fashion", 4), ("medical", 4)],
            xc)
        barista = groups["barista"].mean
        for career in ("culinary", "fashion", "medical"):
            assert barista < groups[career].mean

    def test_target_level_one_is_zero_actions(self, desk_base):
        xc = make_xc("career_progression", trials=2)
        groups = career_progression(desk_base, [("barista", 1)], xc)
        assert groups["barista"].mean == 0.0

    def test_tiny_career_matches_oracle(self):
        config, scenario, goal = random_desk_config(3)
        optimum, _ = shortest_actions(config, scenario, trial_seed(50, 0), goal)
        xc = make_xc("career_progression", trials=2, base_seed=50, goal=goal,
                     heuristic=HeuristicSpec(weights={}),
                     agent={"kind": "astar", "node_budget": 50_000})
        groups = career_progression(config, [("clerk", 2)], xc)
        assert groups["clerk"].mean == optimum

    def test_raising_target_never_cheaper(self, desk_base):
        xc = make_xc("career_progression", trials=3)
        low = career_progression(desk_base, [("culinary", 2)], xc)["culinary"]
        high = career_progression(desk_base, [("culinary", 3)], xc)["culinary"]
        assert high.mean >= low.mean

    def test_unknown_career(self, desk_base):
        xc = make_xc("career_progression")
        with pytest.raises(UnknownCareer):
            career_progression(desk_base, [("astronaut", 2)], xc)

    def test_target_above_cap(self, desk_base):
        xc = make_xc("career_progression")
        with pytest.raises(TargetAboveCap):
            career_progression(desk_base, [("barista", 99)], xc)


class TestObjectImpact:
    def test_desk_objects_regression_values(self, desk_objects):
        xc = make_xc("object_impact", trials=3)
        impact = object_impact(
            desk_objects,
            [("barista", 4), ("culinary", 3), ("fashion", 3), ("medical", 3)],
            xc)
        # frozen pipeline values for the shipped fixture
        assert impact["barista"][0] == pytest.approx(12.5)
        assert impact["culinary"][0] == pytest.approx(22.2, abs=0.1)
        assert impact["fashion"][0] == pytest.approx(20.0)
        for career in ("barista", "culinary", "fashion"):
            assert impact[career][1] is not None and impact[career][1] > 0

    def test_objects_above_target_report_na(self, desk_objects):
        xc = make_xc("object_impact", trials=2)
        impact = object_impact(desk_objects, [("medical", 3)], xc)
        reduction, rho = impact["medical"]
        assert reduction == 0.0
        assert rho is None

    def test_useless_objects_zero_reduction(self, desk_objects):
        import json
        from playtest import fixtures
        from playtest.tuning import build_config
        doc = json.loads(fixtures.path("desk_objects").read_text())
        for action in doc["actions"]:
            if action["id"] == "pull_double":  # identical to the base action
                action["rewards"] = {"career_xp": 2, "event_xp": 3}
        config = build_config(doc)
        xc = make_xc("object_impact", trials=2)
        impact = object_impact(config, [("barista", 4)], xc)
        reduction, rho = impact["barista"]
        assert reduction == 0.0
        assert rho is None


class TestBuildComparison:
    def heuristic(self):
        return HeuristicSpec(weights={"career_xp": 2.0,
                                      "crafted_item:coffee": 0.5,
                                      "crafted_item:dish": 0.5})

    def test_identity_builds_identical_rows(self, build_a):
        xc = make_xc("build_comparison", trials=2, heuristic=self.heuristic(),
                     agent={"kind": "astar", "node_budget": 400})
        rows = build_comparison(build_a, build_a, [("barista", 2)], xc)
        assert len(rows) == 2
        first, second = rows
        for key in ("event_actions", "total_actions", "sessions",
                    "mean_wait_minutes"):
            assert first[key] == second[key]

    def test_direction_between_builds(self, build_a, build_b):
        xc = make_xc("build_comparison", trials=2, heuristic=self.heuristic(),
                     goal=GoalSpec(kind="career_level_reached",
                                   max_minutes=50_000, max_actions=3_000),
                     agent={"kind": "astar", "node_budget": 400})
        rows = build_comparison(build_a, build_b, [("barista", 3)], xc)
        by_build = {row["build"]: row for row in rows}
        a, b = by_build["build_A"], by_build["build_B"]
        assert b["total_actions"] >= 4 * a["total_actions"]
        assert b["sessions"] >= 4 * a["sessions"]
        assert a["mean_wait_minutes"] >= 5 * b["mean_wait_minutes"]

    def test_empty_careers_empty_table(self, build_a, build_b):
        xc = make_xc("build_comparison", trials=1)
        assert build_comparison(build_a, build_b, [], xc) == []

    def test_missing_career_raises(self, build_a, desk_base):
        xc = make_xc("build_comparison", trials=1)
        with pytest.raises(CareerMissingInBuild):
            build_comparison(build_a, desk_base, [("medical", 2)], xc)
        # the suite dispatcher records the same failure instead of raising
        xc = make_xc("build_comparison", trials=1,
                     careers=[{"career": "medical", "target_level": 2}])
        outcome = run_experiment(xc, [build_a, desk_base])
        assert outcome.status == "failed"
        assert "CareerMissingInBuild" in outcome.error


class TestAgentComparison:
    def test_variance_contrast(self, desk_base):
        goal = GoalSpec(kind="career_level_reached",
                        max_minutes=20_000, max_actions=400)
        xc = make_xc(
            "agent_comparison", trials=120, goal=goal,
            agent={
                "kind": "comparison",
                "astar": {"node_budget": 2000},
                "softmax": {"temperature": 1.0,
                            "train": {"episodes": 300, "step_size": 0.05,
                                      "seed": 7}},
            })
        result = agent_comparison(desk_base, [("fashion", 2)], 120, xc)
        astar_stats, softmax_stats = result["fashion"]
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


class TestPooledTrials:
    def test_pool_matches_serial_and_payloads_carry_no_build(self, desk_base):
        xc = make_xc(
            "agent_comparison", trials=4,
            goal=GoalSpec(kind="career_level_reached",
                          max_minutes=20_000, max_actions=400),
            careers=[{"career": "fashion", "target_level": 2}],
            agent={"kind": "comparison", "astar": {"node_budget": 2000},
                   "softmax": {"train": {"episodes": 20, "step_size": 0.05,
                                         "seed": 7}}})
        sizes = []
        with trial_pool(2, [desk_base]) as pool:
            submit = pool.map

            def recording_map(fn, payloads, **kwargs):
                sizes.extend(len(pickle.dumps(p)) for p in payloads)
                return submit(fn, payloads, **kwargs)

            pool.map = recording_map
            pooled = run_experiment(xc, [desk_base], pool)
        serial = run_experiment(xc, [desk_base])
        assert pooled.status == serial.status == "ok"
        assert (pooled.groups, pooled.extras, pooled.charts) == (
            serial.groups, serial.extras, serial.charts)
        assert [(g, i, r.state_digest) for g, i, r in pooled.records] == [
            (g, i, r.state_digest) for g, i, r in serial.records]
        # the build text alone is about 15 KB
        assert len(sizes) == 8 and max(sizes) < 1024
