"""Command-line interface: exit codes, output formats, suite execution."""

import json
import multiprocessing

import pytest

from playtest import experiments, fixtures, report
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

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_anomaly_ratio_that_cannot_apply_exit_two(self, capsys, value):
        # nan and -1 used to turn the rate check off, and inf to flag
        # every later step
        code = main(["validate", f"--anomaly-ratio={value}",
                     str(fixtures.path("bugged_event"))])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --anomaly-ratio must be a finite "
                                "number >= 0\n")
        assert captured.out == ""

    def test_anomaly_ratio_zero_flags_only_unpaid_steps(self, capsys):
        # zero is the lowest ratio that applies: only a step that pays
        # nothing for its effort is flagged
        path = str(fixtures.path("bugged_event"))
        assert main(["validate", "--anomaly-ratio=0", path]) == 0
        assert capsys.readouterr().out == (
            f"{path}: warning: audit: step 2 adds 8 XP of effort for zero "
            "marginal reward\n")

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
            dict(MINI_SUITE[0], id="no_career",
                 careers=[{"career": "barista"}, {"target_level": 2}]),
            dict(MINI_SUITE[0], id="nested_typo",
                 agent={"kind": "astar", "node_buget": 5}),
            dict(MINI_SUITE[0], id="top_typo", trail=5),
            {key: value for key, value in dict(MINI_SUITE[0], id="no_goal").items()
             if key != "goal"},
            dict(MINI_SUITE[0], id="no_goal_kind", goal={"max_actions": 20}),
            dict(MINI_SUITE[0], id="agent_typo", agent={"kind": "astra"}),
            dict(MINI_SUITE[0], id="no_policy", agent={"kind": "softmax"}),
            dict(MINI_SUITE[0], id="number_ref", tuning_ref=5),
            dict(MINI_SUITE[0], id="stray_comparison", agent={"kind": "comparison"}),
            dict(MINI_SUITE[0], id="negative_budget",
                 agent={"kind": "astar", "node_budget": -5}),
            dict(MINI_SUITE[0], id="zero_astar_budget", study="agent_comparison",
                 agent={"kind": "comparison", "astar": {"node_budget": 0}}),
            dict(MINI_SUITE[0], id="zero_temperature", study="agent_comparison",
                 agent={"kind": "comparison", "softmax": {"temperature": 0}}),
            dict(MINI_SUITE[0], id="no_episodes", study="agent_comparison",
                 agent={"kind": "comparison",
                        "softmax": {"train": {"episodes": 0}}}),
            dict(MINI_SUITE[0], id="zero_step", study="agent_comparison",
                 agent={"kind": "comparison",
                        "softmax": {"train": {"step_size": 0}}}),
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
            "no_career": "SuiteEntryError: no_career.careers[1].career: missing",
            "nested_typo": "SuiteEntryError: "
                "nested_typo.agent: unknown field(s) ['node_buget']",
            "top_typo": "SuiteEntryError: top_typo: unknown field(s) ['trail']",
            "no_goal": "SuiteEntryError: no_goal.goal: missing",
            "no_goal_kind": "SuiteEntryError: no_goal_kind.goal.kind: missing",
            "agent_typo": "SuiteEntryError: agent_typo.agent.kind: "
                "must be one of ('astar', 'softmax', 'comparison')",
            "no_policy": "SuiteEntryError: no_policy.agent.policy: missing",
            "number_ref": "SuiteEntryError: "
                "number_ref.tuning_ref: expected str or list, got int",
            "stray_comparison": "SuiteEntryError: stray_comparison.agent.kind: "
                "career_progression reads an astar or softmax agent, "
                "not 'comparison'",
            "negative_budget": "SuiteEntryError: "
                "negative_budget.agent.node_budget: must be >= 1",
            "zero_astar_budget": "SuiteEntryError: "
                "zero_astar_budget.agent.astar.node_budget: must be >= 1",
            "zero_temperature": "SuiteEntryError: zero_temperature.agent."
                "softmax.temperature: must be a finite number > 0",
            "no_episodes": "SuiteEntryError: "
                "no_episodes.agent.softmax.train.episodes: must be >= 1",
            "zero_step": "SuiteEntryError: zero_step.agent.softmax.train."
                "step_size: must be a finite number > 0",
        }
        # each fails as it loads, before its build is parsed
        assert all(s["build_ids"] == [] for s in stats.values())

    def test_unknown_heuristic_term_fails_alone(self, suite_dir):
        # it used to run, searching with the misspelt term's weight dropped
        stats = self.run_isolated(suite_dir, [
            dict(MINI_SUITE[0], id="misspelt_term",
                 heuristic={"weights": {"carrer_xp": 1.0}})])
        assert (stats["misspelt_term"]["error"],
                stats["misspelt_term"]["build_ids"]) == (
            "SuiteEntryError: misspelt_term.heuristic.weights: "
            "unknown heuristic term 'carrer_xp'", [])

    def test_non_finite_numbers_fail_alone(self, suite_dir):
        # each used to run, and its stats.json held Infinity or NaN
        stats = self.run_isolated(suite_dir, [
            dict(MINI_SUITE[0], id="infinite_temperature",
                 study="agent_comparison",
                 agent={"kind": "comparison",
                        "softmax": {"temperature": float("inf")}}),
            dict(MINI_SUITE[0], id="nan_normalization",
                 heuristic={"weights": {"career_xp": 1.0},
                            "normalization": {"career_xp": float("nan")}}),
        ])
        assert {eid: (s["error"], s["build_ids"]) for eid, s in stats.items()} == {
            "infinite_temperature": (
                "SuiteEntryError: infinite_temperature.agent.softmax."
                "temperature: expected a finite number, got inf", []),
            "nan_normalization": (
                "SuiteEntryError: nan_normalization.heuristic.normalization."
                "career_xp: expected a finite number, got nan", []),
        }

        def reject(constant):
            raise ValueError(f"stats.json holds {constant}")

        written = list((suite_dir / "isolation_out").glob("*/stats.json"))
        assert len(written) == 3
        for path in written:
            json.loads(path.read_text(), parse_constant=reject)

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

    def test_shared_build_parsed_once(self, suite_dir, monkeypatch):
        write_unlocks_null(suite_dir)
        bad = dict(MINI_SUITE[0], id="unlocks_null", tuning_ref="unlocks_null.json")
        suite = [MINI_SUITE[0], dict(MINI_SUITE[0], id="careers_again"),
                 bad, dict(bad, id="unlocks_null_again"),
                 MINI_SUITE[1], dict(MINI_SUITE[1], id="broken_again")]
        (suite_dir / "shared.json").write_text(json.dumps(suite))
        parsed = []
        parse = report.parse_tuning

        def counting(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(report, "parse_tuning", counting)
        results = report.run_suite(suite_dir / "shared.json", suite_dir / "out")
        # desk_base and unlocks_null once each; the missing file is never read
        assert len(parsed) == 2
        errors = {outcome.experiment_id: (outcome.status, outcome.error)
                  for _, outcome in results}
        assert errors["careers_mini"] == errors["careers_again"] == ("ok", None)
        assert errors["unlocks_null"] == errors["unlocks_null_again"] == (
            "failed", f"SchemaError: {UNLOCKS_NULL_ERROR}")
        assert errors["broken_ref"][0] == "failed"
        assert errors["broken_ref"] == errors["broken_again"]

    def test_wrong_build_count_entry_is_neither_parsed_nor_shipped(
            self, suite_dir, monkeypatch):
        for name in ("desk_objects", "romance_outlier"):
            (suite_dir / f"{name}.json").write_text(fixtures.path(name).read_text())
        two_builds = dict(MINI_SUITE[0], id="two_builds",
                          tuning_ref=["desk_objects.json", "romance_outlier.json"])
        (suite_dir / "counts.json").write_text(
            json.dumps([two_builds, MINI_SUITE[0]]))
        parsed, shipped = [], []
        parse, pool = report.parse_tuning, report.trial_pool

        def counting(text):
            parsed.append(json.loads(text)["build_id"])
            return parse(text)

        def recording(workers, configs):
            shipped.append([config.build_id for config in configs])
            return pool(workers, configs)

        monkeypatch.setattr(report, "parse_tuning", counting)
        monkeypatch.setattr(report, "trial_pool", recording)
        results = report.run_suite(suite_dir / "counts.json", suite_dir / "out",
                                   parallel=2)
        assert parsed == ["desk_base"]
        assert shipped == [["desk_base"]]
        stats = json.loads((suite_dir / "out/two_builds/stats.json").read_text())
        assert (stats["status"], stats["error"]) == (
            "failed", "PlaytestError: career_progression needs exactly one tuning file")
        assert [outcome.status for _, outcome in results] == ["failed", "ok"]

    @pytest.mark.parametrize("changes, error", [
        ({"careers": [{"career": "astronaut", "target_level": 2}]},
         "SuiteEntryError: bad.careers[0].career: no career 'astronaut' in "
         "build 'desk_objects'"),
        ({"careers": [{"career": "barista", "target_level": 9}]},
         "SuiteEntryError: bad.careers[0].target_level: 9 > cap 5 of career "
         "'barista'"),
        ({"study": "build_comparison",
          "tuning_ref": ["desk_objects.json", "romance_outlier.json"]},
         "SuiteEntryError: bad.careers[0].career: no career 'barista' in "
         "build 'romance_outlier'"),
        ({"study": "relationship_balance"},
         "NoRelationshipEvents: desk_objects"),
        ({"study": "relationship_balance", "tuning_ref": "romance_outlier.json",
          "goal": {"kind": "any_relationship_chain_done", "max_actions": 300}},
         "SuiteEntryError: bad.goal.chain_length: missing"),
        ({"study": "relationship_balance", "tuning_ref": "romance_outlier.json",
          "goal": {"kind": "any_relationship_chain_done", "chain_length": 5,
                   "max_actions": 300},
          "scenario": {"relationship_category": "nosuch"}},
         "DanglingReference: scenario.relationship_category references "
         "unknown id 'nosuch'"),
        ({"scenario": {"initial_resources": {"gold": 3}}},
         "DanglingReference: scenario.initial_resources references "
         "unknown id 'gold'"),
        ({"scenario": {"career": "barista"}},
         "SuiteEntryError: bad.scenario.career: career_progression takes "
         "each group's career from careers"),
    ])
    def test_entry_its_study_cannot_run_is_not_shipped(
            self, suite_dir, monkeypatch, changes, error):
        for name in ("desk_objects", "romance_outlier"):
            (suite_dir / f"{name}.json").write_text(fixtures.path(name).read_text())
        bad = {**MINI_SUITE[0], "id": "bad", "tuning_ref": "desk_objects.json",
               **changes}
        (suite_dir / "checks.json").write_text(json.dumps([bad, MINI_SUITE[0]]))
        shipped = []
        pool = report.trial_pool

        def recording(workers, configs):
            shipped.append([config.build_id for config in configs])
            return pool(workers, configs)

        monkeypatch.setattr(report, "trial_pool", recording)
        results = report.run_suite(suite_dir / "checks.json", suite_dir / "out",
                                   parallel=2)
        assert shipped == [["desk_base"]]
        stats = json.loads((suite_dir / "out/bad/stats.json").read_text())
        assert (stats["status"], stats["error"]) == ("failed", error)
        assert [outcome.status for _, outcome in results] == ["failed", "ok"]

    def test_error_while_a_group_runs_names_the_builds(self, suite_dir,
                                                       monkeypatch):
        # an exception that is no PlaytestError leaves the experiment
        # through its read, not through the study runner
        def failing(*args):
            raise RuntimeError("group failed")

        monkeypatch.setattr(experiments, "_run_group", failing)
        report.run_suite(suite_dir / "suite.json", suite_dir / "out")
        stats = json.loads((suite_dir / "out/careers_mini/stats.json").read_text())
        assert (stats["status"], stats["error"], stats["build_ids"]) == (
            "failed", "RuntimeError: group failed", ["desk_base"])

    def test_playtest_out_env_default(self, suite_dir, monkeypatch, capsys):
        target = suite_dir / "env_out"
        monkeypatch.setenv("PLAYTEST_OUT", str(target))
        main(["run", str(suite_dir / "suite.json")])
        assert (target / "careers_mini" / "stats.json").exists()

    def test_missing_suite_exit_two(self):
        assert main(["run", "no_suite.json"]) == 2

    def test_directory_suite_exit_two(self, suite_dir, capsys):
        # it used to end in an IsADirectoryError traceback
        assert main(["run", str(suite_dir), "--out",
                     str(suite_dir / "dir_out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("names, error", [
        (["../escaped"], "suite entry 0: name '../escaped' is not one path "
                         "component"),
        ([""], "suite entry 0: name '' is not one path component"),
        (["."], "suite entry 0: name '.' is not one path component"),
        ([".."], "suite entry 0: name '..' is not one path component"),
        (["careers_mini", "a/b"], "suite entry 1: name 'a/b' is not one path "
                                  "component"),
        (["twice", "other", "twice"], "suite entry 2: name 'twice' repeats "
                                      "entry 0's"),
        # a default name counts as well
        ([None, "experiment_0"], "suite entry 1: name 'experiment_0' repeats "
                                 "entry 0's"),
    ])
    def test_entry_name_that_is_no_directory_exit_two(
            self, suite_dir, capsys, names, error):
        # such a suite used to run: `../escaped` wrote outside --out, ``
        # into --out itself, and a repeated id over the earlier entry
        entries = [dict(MINI_SUITE[0], id=name) if name is not None
                   else "not an entry" for name in names]
        (suite_dir / "names.json").write_text(json.dumps(entries))
        out_dir = suite_dir / "out" / "run"
        before = sorted(suite_dir.rglob("*"))
        assert main(["run", str(suite_dir / "names.json"),
                     "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(suite_dir.rglob("*")) == before

    def test_negative_parallel_exit_two(self, suite_dir, capsys):
        # it used to run serially
        out_dir = suite_dir / "negative_out"
        code = main(["run", str(suite_dir / "suite.json"),
                     "--out", str(out_dir), "--parallel", "-2"])
        assert code == 2
        assert capsys.readouterr().err == "error: --parallel must be >= 0\n"
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("flag, value", [
        ("--step-size", "0"), ("--step-size", "-0.5"), ("--step-size", "nan"),
        ("--step-size", "inf"), ("--temperature", "0"), ("--temperature", "nan"),
    ])
    def test_settings_that_cannot_run_exit_two(self, tmp_path, capsys,
                                               flag, value):
        # zero used to raise a ValueError out of training
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", self.GOAL, "--episodes", "5", flag, value,
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} must be > 0\n"
        assert not (tmp_path / "p.json").exists()

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

    @pytest.mark.parametrize("level, error", [
        ({"level": "x"}, "GoalSpec.level: expected int, got str"),
        ({"levl": 2}, "GoalSpec: unknown field(s) ['levl']"),
        ({}, "GoalSpec.level: missing"),
    ], ids=["text_level", "typo_level", "no_level"])
    def test_malformed_goal_exit_two(self, tmp_path, capsys, level, error):
        # both used to start training and crash in it with a TypeError
        goal = json.dumps({"kind": "career_level_reached", "career": "barista",
                           **level})
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", goal, "--episodes", "5",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: invalid --goal: {error}\n"
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("goal, error", [
        ({"kind": "career_level_reached", "career": "nope", "level": 2},
         "GoalSpec.career: no career 'nope' in build 'desk_base'"),
        ({"kind": "career_level_reached", "career": "barista", "level": 4},
         "GoalSpec.level: 4 > cap 3 of career 'barista'"),
        ({"kind": "event_completed", "event": "nope"},
         "GoalSpec.event: no event 'nope' in build 'desk_base'"),
        ({"kind": "relationship_chain_done", "category": "nope",
          "chain_length": 2},
         "GoalSpec.category: no category 'nope' in build 'desk_base'"),
        ({"kind": "relationship_chain_done", "category": "friendship",
          "chain_length": 9},
         "GoalSpec.chain_length: 9 > longest chain 5 of category 'friendship'"),
        ({"kind": "any_relationship_chain_done", "chain_length": 9},
         "GoalSpec.chain_length: 9 > longest chain 5 of build 'desk_base'"),
    ], ids=["career", "level", "event", "category", "chain", "any_chain"])
    def test_goal_the_build_lacks_exit_two(self, tmp_path, capsys, goal, error):
        # a missing career used to raise UnknownCareer out of training, and
        # a missing event or a chain longer than the build's to train
        # every episode and report deadlock
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", json.dumps(goal), "--episodes", "5",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: invalid --goal: {error}\n"
        assert not (tmp_path / "p.json").exists()

    def test_curve_directory_is_made(self, tmp_path):
        # a curve in a missing directory used to raise FileNotFoundError
        # once training had run and the policy was written
        curve = tmp_path / "curves" / "run" / "c.csv"
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", self.GOAL, "--episodes", "5",
                     "--out", str(tmp_path / "out" / "p.json"),
                     "--curve", str(curve)])
        assert code == 0
        assert len(curve.read_text().splitlines()) == 6
        assert (tmp_path / "out" / "p.json").exists()

    @pytest.mark.parametrize("which", ["out", "curve"])
    def test_unwritable_output_exit_two(self, tmp_path, capsys, which):
        # a path that is a directory cannot be written, and a directory
        # cannot be made where a file is
        paths = {"out": tmp_path / "p.json", "curve": tmp_path / "c.csv"}
        paths[which].mkdir()
        blocked = tmp_path / "file"
        blocked.write_text("")
        for path, error in ((paths[which], f"{paths[which]}: Is a directory"),
                            (blocked / "x", f"{blocked}: File exists")):
            code = main(["train", str(fixtures.path("desk_base")),
                         "--goal", self.GOAL, "--episodes", "5",
                         "--out", str(paths["out"]), "--curve",
                         str(paths["curve"]), f"--{which}", str(path)])
            assert code == 2
            assert capsys.readouterr().err == f"error: {error}\n"


def test_run_csv_summary(tmp_path, capsys):
    (tmp_path / "desk_base.json").write_text(fixtures.path("desk_base").read_text())
    (tmp_path / "suite.json").write_text(json.dumps([MINI_SUITE[0]]))
    code = main(["run", str(tmp_path / "suite.json"),
                 "--out", str(tmp_path / "out"), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "experiment,study,status,groups,trials,seconds"
    assert lines[1].startswith("careers_mini,career_progression,ok")
