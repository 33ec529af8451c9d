"""Command-line interface: exit codes, output formats, suite execution."""

import json
import multiprocessing

import pytest

from playtest import experiments, fixtures
from playtest.cli import main

MINI_SUITE = [
    {
        "id": "careers_mini",
        "study": "career_progression",
        "tuning_ref": "desk_base.json",
        "scenario": {},
        "heuristic": {"weights": {"career_xp": 1.0}},
        "goal": {"kind": "career_level_reached",
                 "max_minutes": 20000, "max_actions": 2000},
        "trials": 2,
        "base_seed": 77,
        "agent": {"kind": "astar", "node_budget": 2000},
        "careers": [{"career": "barista", "target_level": 2}],
    },
    {
        "id": "broken_ref",
        "study": "career_progression",
        "tuning_ref": "no_such_file.json",
        "scenario": {},
        "heuristic": {"weights": {"career_xp": 1.0}},
        "goal": {"kind": "career_level_reached",
                 "max_minutes": 20000, "max_actions": 2000},
        "trials": 1,
        "base_seed": 77,
        "agent": {"kind": "astar"},
        "careers": [{"career": "barista", "target_level": 2}],
    },
]


def write_unlocks_null(directory):
    """desk_base with a career whose object_unlocks is null instead of a list."""
    doc = json.loads(fixtures.path("desk_base").read_text())
    doc["careers"][1]["object_unlocks"] = None
    path = directory / "unlocks_null.json"
    path.write_text(json.dumps(doc))
    return path


UNLOCKS_NULL_ERROR = "careers[1].object_unlocks: expected list, got NoneType"


@pytest.fixture()
def suite_dir(tmp_path):
    for name in ("desk_base",):
        (tmp_path / f"{name}.json").write_text(fixtures.path(name).read_text())
    (tmp_path / "suite.json").write_text(json.dumps(MINI_SUITE))
    return tmp_path


class TestValidate:
    def test_clean_fixture_exit_zero(self, capsys):
        assert main(["validate", str(fixtures.path("desk_base"))]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_anomalous_fixture_warns_but_passes(self, capsys):
        assert main(["validate", str(fixtures.path("bugged_event"))]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "audit" in out

    def test_missing_file_exit_two(self, capsys):
        assert main(["validate", "definitely_missing.json"]) == 2

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_semantic_error_exit_one(self, tmp_path, capsys):
        doc = json.loads(fixtures.path("desk_base").read_text())
        doc["careers"][0]["xp_per_level"] = [100, 50, 20]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["validate", str(broken)]) == 1
        assert "xp_per_level" in capsys.readouterr().out

    def test_non_list_object_unlocks_exit_two(self, tmp_path, capsys):
        assert main(["validate", str(write_unlocks_null(tmp_path))]) == 2
        assert UNLOCKS_NULL_ERROR in capsys.readouterr().err

    def test_json_format_is_parseable(self, capsys):
        assert main(["validate", "--format", "json",
                     str(fixtures.path("bugged_event"))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert any(d["code"] == "step-anomaly" for d in payload)


class TestDiff:
    def test_identical_files(self, capsys):
        path = str(fixtures.path("desk_base"))
        assert main(["diff", path, path]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_builds_show_regen_change(self, capsys):
        assert main(["diff", str(fixtures.path("build_a")),
                     str(fixtures.path("build_b"))]) == 0
        out = capsys.readouterr().out
        assert "regen_rate" in out

    def test_json_format(self, capsys):
        assert main(["diff", "--format", "json",
                     str(fixtures.path("build_a")),
                     str(fixtures.path("build_b"))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"]

    def test_malformed_second_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["diff", str(fixtures.path("desk_base")), str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_non_list_object_unlocks_exit_two(self, tmp_path, capsys):
        code = main(["diff", str(fixtures.path("desk_base")),
                     str(write_unlocks_null(tmp_path))])
        assert code == 2
        assert UNLOCKS_NULL_ERROR in capsys.readouterr().err


class TestRun:
    def run_isolated(self, suite_dir, bad_entries):
        """Run bad entries ahead of a good one; only the bad ones may fail."""
        suite = suite_dir / "isolation.json"
        suite.write_text(json.dumps([*bad_entries, MINI_SUITE[0]]))
        out_dir = suite_dir / "isolation_out"
        assert main(["run", str(suite), "--out", str(out_dir)]) == 1
        ids = [entry["id"] if isinstance(entry, dict) else f"experiment_{i}"
               for i, entry in enumerate([*bad_entries, MINI_SUITE[0]])]
        stats = {
            eid: json.loads((out_dir / eid / "stats.json").read_text())
            for eid in ids
        }
        assert stats.pop("careers_mini")["status"] == "ok"
        assert all(s["status"] == "failed" for s in stats.values())
        return stats

    def test_non_list_object_unlocks_fails_one_experiment(self, suite_dir):
        write_unlocks_null(suite_dir)
        bad = dict(MINI_SUITE[0], id="unlocks_null",
                   tuning_ref="unlocks_null.json")
        stats = self.run_isolated(suite_dir, [bad])
        assert stats["unlocks_null"]["error"] == (
            f"SchemaError: {UNLOCKS_NULL_ERROR}")

    def test_malformed_entries_are_isolated(self, suite_dir):
        stats = self.run_isolated(suite_dir, [
            dict(MINI_SUITE[0], id="string_trials", trials="3"),
            dict(MINI_SUITE[0], id="list_goal", goal=[1]),
            dict(MINI_SUITE[0], id="bool_seed", base_seed=True),
            dict(MINI_SUITE[0], id="number_scenario", scenario=5),
            "not an entry",
            dict(MINI_SUITE[0], id="text_max_actions",
                 goal=dict(MINI_SUITE[0]["goal"], max_actions="x")),
            dict(MINI_SUITE[0], id="number_weights", heuristic={"weights": 5}),
            dict(MINI_SUITE[0], id="number_resources",
                 scenario={"initial_resources": 3}),
            dict(MINI_SUITE[0], id="text_budget",
                 agent={"kind": "astar", "node_budget": "x"}),
            dict(MINI_SUITE[0], id="text_level",
                 careers=[{"career": "barista", "target_level": "3"}]),
        ])
        assert {eid: s["error"] for eid, s in stats.items()} == {
            "string_trials":
                "SuiteEntryError: string_trials.trials: expected int, got str",
            "list_goal":
                "SuiteEntryError: list_goal.goal: expected dict, got list",
            "bool_seed":
                "SuiteEntryError: bool_seed.base_seed: expected int, got bool",
            "number_scenario":
                "SuiteEntryError: number_scenario.scenario: expected dict, got int",
            "experiment_4": "SuiteEntryError: entry: expected dict, got str",
            "text_max_actions": "SuiteEntryError: "
                "text_max_actions.goal.max_actions: expected int, got str",
            "number_weights": "SuiteEntryError: "
                "number_weights.heuristic.weights: expected dict, got int",
            "number_resources": "SuiteEntryError: "
                "number_resources.scenario.initial_resources: expected dict, got int",
            "text_budget": "SuiteEntryError: "
                "text_budget.agent.node_budget: expected int, got str",
            "text_level": "SuiteEntryError: "
                "text_level.careers[0].target_level: expected int, got str",
        }

    def test_failures_are_isolated(self, suite_dir, capsys):
        out_dir = suite_dir / "out"
        code = main(["run", str(suite_dir / "suite.json"),
                     "--out", str(out_dir), "--seed", "5"])
        assert code == 1  # one experiment failed
        stats_ok = json.loads((out_dir / "careers_mini" / "stats.json").read_text())
        stats_bad = json.loads((out_dir / "broken_ref" / "stats.json").read_text())
        assert stats_ok["status"] == "ok"
        assert stats_bad["status"] == "failed"
        assert (out_dir / "careers_mini" / "trials.csv").exists()
        assert (out_dir / "careers_mini" / "chartdata.json").exists()
        assert (out_dir / "careers_mini" / "bundle.json").exists()

    def test_seeded_runs_byte_identical(self, suite_dir):
        runs = {"a": [], "b": [], "pooled": ["--parallel", "2"]}
        for name, options in runs.items():
            main(["run", str(suite_dir / "suite.json"),
                  "--out", str(suite_dir / name), "--seed", "42", *options])
        for experiment in ("careers_mini", "broken_ref"):
            for output in ("stats.json", "chartdata.json"):
                first, *others = [
                    (suite_dir / name / experiment / output).read_bytes()
                    for name in runs
                ]
                assert others == [first, first], (experiment, output)

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the patched run_episode reaches pool workers only by fork")
    @pytest.mark.parametrize("parallel", ["0", "2"])
    def test_trial_exception_fails_one_experiment(
            self, suite_dir, monkeypatch, parallel):
        doc = json.loads(fixtures.path("desk_base").read_text())
        doc["build_id"] = "doomed"
        (suite_dir / "doomed.json").write_text(json.dumps(doc))
        doomed = dict(MINI_SUITE[0], id="doomed", tuning_ref="doomed.json")
        run_episode = experiments.run_episode

        def failing(config, *args):
            if config.build_id == "doomed":
                raise RuntimeError("trial failed")
            return run_episode(config, *args)

        monkeypatch.setattr(experiments, "run_episode", failing)
        for name, suite in (("with", [doomed, MINI_SUITE[0]]),
                            ("without", [MINI_SUITE[0]])):
            (suite_dir / f"{name}.json").write_text(json.dumps(suite))
            main(["run", str(suite_dir / f"{name}.json"), "--out",
                  str(suite_dir / name), "--parallel", parallel])
        stats = json.loads((suite_dir / "with/doomed/stats.json").read_text())
        assert (stats["status"], stats["error"]) == (
            "failed", "RuntimeError: trial failed")
        for output in ("stats.json", "chartdata.json"):
            assert ((suite_dir / "with/careers_mini" / output).read_bytes()
                    == (suite_dir / "without/careers_mini" / output).read_bytes())

    def test_playtest_out_env_default(self, suite_dir, monkeypatch, capsys):
        target = suite_dir / "env_out"
        monkeypatch.setenv("PLAYTEST_OUT", str(target))
        main(["run", str(suite_dir / "suite.json")])
        assert (target / "careers_mini" / "stats.json").exists()

    def test_missing_suite_exit_two(self):
        assert main(["run", "no_suite.json"]) == 2

    def test_json_summary(self, suite_dir, capsys):
        main(["run", str(suite_dir / "suite.json"),
              "--out", str(suite_dir / "json_out"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert {entry["experiment"] for entry in payload} == {
            "careers_mini", "broken_ref"}

    def test_digest_tracks_input_bytes(self, suite_dir):
        main(["run", str(suite_dir / "suite.json"),
              "--out", str(suite_dir / "d1"), "--seed", "1"])
        bundle1 = json.loads(
            (suite_dir / "d1" / "careers_mini" / "bundle.json").read_text())
        # byte-level change to an input: digest must change
        tuning = suite_dir / "desk_base.json"
        tuning.write_text(tuning.read_text() + "\n")
        main(["run", str(suite_dir / "suite.json"),
              "--out", str(suite_dir / "d2"), "--seed", "1"])
        bundle2 = json.loads(
            (suite_dir / "d2" / "careers_mini" / "bundle.json").read_text())
        assert bundle1["inputs_digest"] != bundle2["inputs_digest"]


class TestTrain:
    GOAL = json.dumps({"kind": "career_level_reached", "career": "fashion",
                       "level": 2, "max_minutes": 20000, "max_actions": 400})

    def test_writes_policy_and_curve(self, tmp_path, capsys):
        out = tmp_path / "policy.json"
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", self.GOAL, "--episodes", "60",
                     "--step-size", "0.05", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        policy = json.loads(out.read_text())
        assert len(policy["weights"]) == len(policy["feature_names"])
        curve = (tmp_path / "policy.curve.csv").read_text().splitlines()
        assert curve[0] == "episode,return"
        assert len(curve) == 61

    def test_zero_episodes_usage_error(self, tmp_path):
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", self.GOAL, "--episodes", "0",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_unreachable_goal_exit_one(self, tmp_path, capsys):
        goal = json.dumps({"kind": "career_level_reached", "career": "medical",
                           "level": 5, "max_minutes": 100, "max_actions": 5})
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", goal, "--episodes", "20",
                     "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert "never reached" in capsys.readouterr().err

    def test_bad_goal_json_exit_two(self, tmp_path):
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", "{broken", "--episodes", "5",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2


def test_run_csv_summary(tmp_path, capsys):
    (tmp_path / "desk_base.json").write_text(fixtures.path("desk_base").read_text())
    (tmp_path / "suite.json").write_text(json.dumps([MINI_SUITE[0]]))
    code = main(["run", str(tmp_path / "suite.json"),
                 "--out", str(tmp_path / "out"), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "experiment,study,status,groups,trials,seconds"
    assert lines[1].startswith("careers_mini,career_progression,ok")
