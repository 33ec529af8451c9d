"""Command-line interface: exit codes, output formats, suite execution."""

import json
import os
import re

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


def record_jobs(monkeypatch):
    """Make the pool that run_suite starts record the build of each job
    submitted to it; returns the list of their build ids."""
    shipped = []
    make_pool = report.trial_pool

    def recording(workers):
        pool = make_pool(workers)
        submit = pool.submit

        def recording_submit(fn, config, *args):
            shipped.append(config.build_id)
            return submit(fn, config, *args)

        pool.submit = recording_submit
        return pool

    monkeypatch.setattr(report, "trial_pool", recording)
    return shipped


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

    def run_beside_doomed(self, suite_dir, parallel):
        """Run "doomed", careers_mini on a copy of desk_base of that build
        id, ahead of careers_mini, then careers_mini alone; careers_mini
        must write the same bytes both times. Returns doomed's stats."""
        doc = json.loads(fixtures.path("desk_base").read_text())
        doc["build_id"] = "doomed"
        (suite_dir / "doomed.json").write_text(json.dumps(doc))
        doomed = dict(MINI_SUITE[0], id="doomed", tuning_ref="doomed.json")
        for name, suite in (("with", [doomed, MINI_SUITE[0]]),
                            ("without", [MINI_SUITE[0]])):
            (suite_dir / f"{name}.json").write_text(json.dumps(suite))
            main(["run", str(suite_dir / f"{name}.json"), "--out",
                  str(suite_dir / name), "--parallel", parallel])
        for output in ("stats.json", "chartdata.json"):
            assert ((suite_dir / "with/careers_mini" / output).read_bytes()
                    == (suite_dir / "without/careers_mini" / output).read_bytes())
        return json.loads((suite_dir / "with/doomed/stats.json").read_text())

    @pytest.mark.parametrize("parallel", ["0", "2"])
    def test_trial_exception_fails_one_experiment(
            self, suite_dir, monkeypatch, parallel):
        run_episode = experiments.run_episode

        def failing(config, *args):
            if config.build_id == "doomed":
                raise RuntimeError("trial failed")
            return run_episode(config, *args)

        monkeypatch.setattr(experiments, "run_episode", failing)
        stats = self.run_beside_doomed(suite_dir, parallel)
        assert (stats["status"], stats["error"]) == (
            "failed", "RuntimeError: trial failed")

    def test_worker_that_dies_fails_one_experiment(self, suite_dir, monkeypatch):
        run_episode = experiments.run_episode

        def dying(config, *args):
            if config.build_id == "doomed":
                os._exit(3)
            return run_episode(config, *args)

        monkeypatch.setattr(experiments, "run_episode", dying)
        stats = self.run_beside_doomed(suite_dir, "2")
        assert (stats["status"], stats["error"], stats["build_ids"]) == (
            "failed", "WorkerDied: a pool worker exited with status 3", ["doomed"])

    @pytest.mark.parametrize("parallel", ["0", "2"])
    def test_check_that_raises_fails_one_experiment(
            self, suite_dir, monkeypatch, parallel):
        # an exception that is no PlaytestError, raised while the entry is
        # checked as it starts
        career_groups = experiments._career_groups

        def failing(config, xc):
            if config.build_id == "doomed":
                raise RuntimeError("check failed")
            return career_groups(config, xc)

        monkeypatch.setattr(experiments, "_career_groups", failing)
        stats = self.run_beside_doomed(suite_dir, parallel)
        assert (stats["status"], stats["error"], stats["build_ids"]) == (
            "failed", "RuntimeError: check failed", ["doomed"])

    @pytest.mark.parametrize("owner, name, parallel", [
        (experiments, "run_trials", 0),
        (experiments, "run_trials", 2),
        (experiments.TrialPool, "submit", 2),
    ], ids=["0", "2", "submit"])
    def test_run_trials_that_raises_leaves_run_suite(
            self, suite_dir, monkeypatch, owner, name, parallel):
        # a serial run used to fail the experiment and go on, and so did a
        # pooled run whose submit raised
        class Refused(Exception):
            pass

        def refusing(*args):
            raise Refused

        monkeypatch.setattr(owner, name, refusing)
        with pytest.raises(Refused):
            report.run_suite(suite_dir / "suite.json", suite_dir / "out",
                             parallel=parallel)
        assert not (suite_dir / "out").exists()

    @pytest.mark.parametrize("case", ["returns", "job_raises", "read_raises",
                                      "first_pooled_trial_raises"])
    def test_no_process_outlives_run_suite(self, suite_dir, monkeypatch, case):
        class Stop(BaseException):
            """Passes every handler in run_suite."""

        class FirstTrial(Exception):
            """As perfbench/setup_probe.py raises it, with a worker up."""

        raised = None
        if case == "job_raises":
            def failing(*args):
                raise RuntimeError("trial failed")

            monkeypatch.setattr(experiments, "run_episode", failing)
        elif case == "read_raises":
            # the second read raises while the workers may still be playing
            start, reads = report.start_experiment, []

            def interrupted(*args):
                read = start(*args)

                def reading():
                    if reads:
                        raise Stop
                    reads.append(read)
                    return read()

                return reading

            monkeypatch.setattr(report, "start_experiment", interrupted)
            raised = Stop
        elif case == "first_pooled_trial_raises":
            def stop_at_pool(*args):
                assert args[-1].submit(int).result() == 0
                raise FirstTrial

            monkeypatch.setattr(experiments, "run_trials", stop_at_pool)
            raised = FirstTrial
        suite = [MINI_SUITE[0], dict(MINI_SUITE[0], id="careers_again")]
        (suite_dir / "twice.json").write_text(json.dumps(suite))
        try:
            results = report.run_suite(suite_dir / "twice.json", suite_dir / "out",
                                       parallel=2)
        except BaseException as exc:
            assert type(exc) is raised
        else:
            assert raised is None
            assert [outcome.status for _, outcome in results] == (
                ["failed"] * 2 if case == "job_raises" else ["ok"] * 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
        parsed = []
        parse = report.parse_tuning

        def counting(text):
            parsed.append(json.loads(text)["build_id"])
            return parse(text)

        monkeypatch.setattr(report, "parse_tuning", counting)
        shipped = record_jobs(monkeypatch)
        results = report.run_suite(suite_dir / "counts.json", suite_dir / "out",
                                   parallel=2)
        assert parsed == ["desk_base"]
        assert shipped == ["desk_base"]  # careers_mini's one group
        stats = json.loads((suite_dir / "out/two_builds/stats.json").read_text())
        assert (stats["status"], stats["error"]) == (
            "failed", "PlaytestError: career_progression needs exactly one tuning file")
        assert [outcome.status for _, outcome in results] == ["failed", "ok"]

    @pytest.mark.parametrize("parallel", [0, 2])
    @pytest.mark.parametrize("changes, error", [
        ({"scenario": {"career": "barista"}},
         "bad.scenario.career: career_progression takes each group's career "
         "from careers"),
        ({"careers": [{"career": "barista"}, {"career": "fashion"},
                      {"career": "barista", "target_level": 2}]},
         "bad.careers[2].career: 'barista' repeats careers[0]"),
        ({"study": "relationship_balance",
          "goal": {"kind": "any_relationship_chain_done", "chain_length": 2}},
         "bad.careers: relationship_balance reads no careers"),
    ], ids=["scenario_career", "repeated_career", "balance_careers"])
    def test_entry_a_build_free_rule_rejects_is_never_parsed(
            self, suite_dir, monkeypatch, changes, error, parallel):
        # each rule reads no build, yet used to run as the entry started:
        # its build was parsed, and stats.json held build_ids and params
        (suite_dir / "desk_objects.json").write_text(
            fixtures.path("desk_objects").read_text())
        bad = {**MINI_SUITE[0], "id": "bad", "tuning_ref": "desk_objects.json",
               **changes}
        (suite_dir / "rules.json").write_text(json.dumps([bad, MINI_SUITE[0]]))
        parsed = []
        parse = report.parse_tuning

        def counting(text):
            parsed.append(json.loads(text)["build_id"])
            return parse(text)

        monkeypatch.setattr(report, "parse_tuning", counting)
        results = report.run_suite(suite_dir / "rules.json", suite_dir / "out",
                                   parallel=parallel)
        assert parsed == ["desk_base"]  # careers_mini's build alone
        written = suite_dir / "out/bad"
        assert sorted(p.name for p in written.iterdir()) == [
            "bundle.json", "stats.json"]
        stats = json.loads((written / "stats.json").read_text())
        assert (stats["status"], stats["error"], stats["build_ids"]) == (
            "failed", f"SuiteEntryError: {error}", [])
        assert "params" not in stats
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
        ({"study": "relationship_balance", "careers": []},
         "NoRelationshipEvents: desk_objects"),
        ({"study": "relationship_balance", "tuning_ref": "romance_outlier.json",
          "goal": {"kind": "any_relationship_chain_done", "max_actions": 300},
          "careers": []},
         "SuiteEntryError: bad.goal.chain_length: missing"),
        ({"study": "relationship_balance", "tuning_ref": "romance_outlier.json",
          "goal": {"kind": "any_relationship_chain_done", "chain_length": 5,
                   "max_actions": 300},
          "scenario": {"relationship_category": "nosuch"}, "careers": []},
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
        shipped = record_jobs(monkeypatch)
        results = report.run_suite(suite_dir / "checks.json", suite_dir / "out",
                                   parallel=2)
        assert shipped == ["desk_base"]  # careers_mini's one group
        stats = json.loads((suite_dir / "out/bad/stats.json").read_text())
        assert (stats["status"], stats["error"]) == ("failed", error)
        assert [outcome.status for _, outcome in results] == ["failed", "ok"]

    def test_error_while_a_group_runs_names_the_builds(self, suite_dir,
                                                       monkeypatch):
        # an exception that is no PlaytestError, raised by a group as its
        # experiment is read, fails that experiment with its builds
        def failing(*args):
            raise RuntimeError("group failed")

        monkeypatch.setattr(experiments, "_run_group", failing)
        report.run_suite(suite_dir / "suite.json", suite_dir / "out")
        stats = json.loads((suite_dir / "out/careers_mini/stats.json").read_text())
        assert (stats["status"], stats["error"], stats["build_ids"]) == (
            "failed", "RuntimeError: group failed", ["desk_base"])

    def test_failed_training_writes_one_error_serially_and_pooled(
            self, suite_dir):
        # a temperature this small turns the weights NaN in the first
        # episode, and training stops there; it used to train every episode
        # before the trained policy rejected the weights (InvalidField), and
        # a pooled run to fail with the TypeError of rebuilding that
        # InvalidField in the parent
        suite = json.loads(fixtures.path("paper_suite").read_text())
        entry = next(e for e in suite if e["study"] == "agent_comparison")
        entry["agent"]["softmax"]["temperature"] = 1e-310
        entry["agent"]["softmax"]["train"]["episodes"] = 20
        entry.update(trials=3, careers=[{"career": "barista",
                                         "target_level": 2}])
        (suite_dir / "nan.json").write_text(json.dumps([entry]))
        written = []
        for parallel in (0, 2):
            out_dir = suite_dir / f"out_{parallel}"
            report.run_suite(suite_dir / "nan.json", out_dir, parallel=parallel)
            written.append((out_dir / "agent_comparison/stats.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["error"] == (
            "ValueError: training episode 0: weights are not finite at "
            "temperature 1e-310")

    def test_playtest_out_env_default(self, suite_dir, monkeypatch, capsys):
        target = suite_dir / "env_out"
        monkeypatch.setenv("PLAYTEST_OUT", str(target))
        main(["run", str(suite_dir / "suite.json")])
        assert (target / "careers_mini" / "stats.json").exists()

    @staticmethod
    def run_error_line(tmp_path, capsys, path) -> str:
        """What `playtest run` on the suite at `path` prints to stderr; it
        must print nothing else, exit 2 and write nothing."""
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "out").exists()
        return err

    def test_missing_suite_exit_two(self, tmp_path, capsys):
        # it used to print a line of its own, unlike a missing tuning file
        path = tmp_path / "no_suite.json"
        assert self.run_error_line(tmp_path, capsys, path) == (
            f"error: {path}: [Errno 2] No such file or directory: '{path}'\n")

    def test_truncated_suite_exit_two(self, tmp_path, capsys):
        # it used to print json's message alone, naming no file
        path = tmp_path / "suite.json"
        path.write_text('[\n  {"id": "cut')
        assert self.run_error_line(tmp_path, capsys, path) == (
            f"error: {path}: invalid JSON at line 2 column 10: Unterminated "
            "string starting at\n")

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

    @pytest.mark.parametrize("curve", ["p.json", "sub/../p.json", "link.json"])
    def test_curve_that_is_the_policy_file_exit_two(self, tmp_path, capsys,
                                                    monkeypatch, curve):
        # the curve's CSV used to overwrite the policy, with exit 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.json").symlink_to(tmp_path / "p.json")
        code = main(["train", str(fixtures.path("desk_base")),
                     "--goal", self.GOAL, "--episodes", "5",
                     "--out", "p.json", "--curve", curve])
        assert code == 2
        policy = tmp_path.resolve() / "p.json"
        assert capsys.readouterr().err == (
            f"error: --curve and --out name one file: {policy}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json"]

    def test_weights_that_turn_nan_exit_one(self, tmp_path, capsys):
        # it used to end in a ValueError traceback
        goal = json.dumps({"kind": "career_level_reached", "career": "barista",
                           "level": 2})
        code = main(["train", str(fixtures.path("desk_base")), "--goal", goal,
                     "--temperature", "1e-310", "--episodes", "3",
                     "--out", str(tmp_path / "policy.json")])
        assert code == 1
        assert capsys.readouterr() == ("", "error: training episode 0: weights "
                                           "are not finite at temperature "
                                           "1e-310\n")
        assert list(tmp_path.iterdir()) == []

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


class TestRunSummary:
    """The summary `run` prints in each format: one row per experiment,
    in suite order. Its seconds are the only values a run does not fix."""

    COLUMNS = ["experiment", "study", "status", "error", "groups", "trials",
               "seconds"]

    def summary(self, suite_dir, capsys, form):
        out_dir = suite_dir / "out"
        assert main(["run", str(suite_dir / "suite.json"), "--out",
                     str(out_dir), "--format", form]) == 1
        return capsys.readouterr().out, out_dir

    def missing(self, suite_dir):
        return ("FileNotFoundError: [Errno 2] No such file or directory: "
                f"'{suite_dir / 'no_such_file.json'}'")

    def test_json(self, suite_dir, capsys):
        out, _ = self.summary(suite_dir, capsys, "json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert [list(row) for row in payload] == [self.COLUMNS] * 2
        seconds = [row.pop("seconds") for row in payload]
        assert all(type(s) is float and round(s, 3) == s for s in seconds)
        assert payload == [
            {"experiment": "careers_mini", "study": "career_progression",
             "status": "ok", "error": None, "groups": 1, "trials": 2},
            {"experiment": "broken_ref", "study": "career_progression",
             "status": "failed", "error": self.missing(suite_dir),
             "groups": 0, "trials": 0},
        ]

    def test_csv(self, suite_dir, capsys):
        out, _ = self.summary(suite_dir, capsys, "csv")
        assert re.fullmatch(
            r"experiment,study,status,groups,trials,seconds\r\n"
            r"careers_mini,career_progression,ok,1,2,\d+\.\d{3}\r\n"
            r"broken_ref,career_progression,failed,0,0,\d+\.\d{3}\r\n", out)

    def text_lines(self, suite_dir, capsys, header, *rows):
        """Check the text summary line by line: `header`, then each row's
        text before its seconds, then broken_ref's error and the out
        directory."""
        out, out_dir = self.summary(suite_dir, capsys, "text")
        seconds = r"(?=.{8}$) *\d+\.\d\d"  # right-aligned in 8 columns
        patterns = [
            re.escape(header),
            *(re.escape(row) + seconds for row in rows),
            re.escape(f"  {self.missing(suite_dir)}"),
            re.escape(f"results written to {out_dir}"),
        ]
        lines = out.split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(patterns)
        for pattern, line in zip(patterns, lines):
            assert re.fullmatch(pattern, line), line

    def test_text(self, suite_dir, capsys):
        self.text_lines(suite_dir, capsys,
                        "experiment    status  groups trials  seconds",
                        "careers_mini  ok           1      2 ",
                        "broken_ref    failed       0      0 ")

    def test_text_with_ids_shorter_than_the_header(self, suite_dir, capsys):
        # the column used to be as wide as the longest id, so these rows
        # started their status under the header's `experiment`
        (suite_dir / "suite.json").write_text(json.dumps(
            [dict(MINI_SUITE[0], id="a"), dict(MINI_SUITE[1], id="bb")]))
        self.text_lines(suite_dir, capsys,
                        "experiment  status  groups trials  seconds",
                        "a           ok           1      2 ",
                        "bb          failed       0      0 ")


@pytest.mark.parametrize("command", ["validate", "diff", "train"])
@pytest.mark.parametrize("content, error", [
    (None, "[Errno 2] No such file or directory: '{path}'"),
    ("{not json", "invalid JSON at line 1 column 2: Expecting property name "
                  "enclosed in double quotes"),
    # validate used to print a schema error without the file's path
    ('{"schema_version": 1}', "document: missing required field(s) "
                              "['build_id', 'resources', 'actions', 'events', "
                              "'careers', 'relationships', 'objects']"),
])
def test_unreadable_tuning_file_error_line(tmp_path, capsys, command, content,
                                           error):
    path = tmp_path / "tuning.json"
    if content is not None:
        path.write_text(content)
    argv = {
        "validate": ["validate", str(path)],
        "diff": ["diff", str(fixtures.path("desk_base")), str(path)],
        "train": ["train", str(path), "--goal", TestTrain.GOAL, "--episodes",
                  "2", "--out", str(tmp_path / "policy.json")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}: {error.replace('{path}', str(path))}\n")
