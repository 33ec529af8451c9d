"""The benchmark's workloads, each generated from one seed.

A workload is a fixed set of trials (one *round*) built from the seed;
the timed loop repeats rounds. Trial seeds come from
``playtest.experiments.trial_seed(base_seed, i)`` and every base seed is
the ``--seed`` value itself, as ``playtest run --seed`` does. All calls
into the package go through module attributes (``agents.run_episode``,
``fixtures.load``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from playtest import agents, experiments, fixtures, report, sim, tuning

SUITE_WORKERS = 2


@dataclass
class Trial:
    group: str
    config: tuning.TuningConfig
    scenario: sim.ScenarioOverrides
    goal: agents.GoalSpec
    seed: int
    make_agent: Callable[[], object] | None
    heuristic: agents.HeuristicSpec | None  # what the micro evaluation times


@dataclass
class Episode:
    """One run_episode call as the benchmark saw it from outside."""

    trial: Trial
    record: agents.TrialRecord | None = None
    decisions: list = field(default_factory=list)
    decision_s: list = field(default_factory=list)
    decision_seg: list = field(default_factory=list)  # speed segment of each
    expansions: int = 0
    states: list = field(default_factory=list)
    error: str | None = None

    def signature(self) -> tuple:
        if self.record is None:
            return ("raised",)
        return (self.record.state_digest, self.record.total_actions,
                len(self.decisions), self.expansions)


class TimedAgent:
    """Stands in for a planner: times each decide call and keeps the move."""

    def __init__(self, agent, episode: Episode, sample_every: int, speed=None):
        self.agent = agent
        self.name = agent.name
        self.episode = episode
        self.sample_every = sample_every
        self.speed = speed
        self.last_expanded = 0

    def decide(self, config, state, rng):
        episode = self.episode
        if self.sample_every and len(episode.decisions) % self.sample_every == 0:
            episode.states.append(state)
        if self.speed is not None:
            self.speed.tick()
            episode.decision_seg.append(self.speed.segment)
        t0 = time.perf_counter()
        decision = self.agent.decide(config, state, rng)
        episode.decision_s.append(time.perf_counter() - t0)
        self.last_expanded = self.agent.last_expanded
        episode.expansions += self.last_expanded
        episode.decisions.append(decision)
        return decision


def play(trial: Trial, agent=None, sample_every: int = 0, run=None,
         speed=None) -> Episode:
    """Run one trial through run_episode with a TimedAgent around its planner."""
    episode = Episode(trial)
    timed = TimedAgent(agent or trial.make_agent(), episode, sample_every, speed)
    try:
        episode.record = (run or agents.run_episode)(
            trial.config, trial.scenario, trial.seed, timed, trial.goal)
    except Exception:
        episode.error = traceback.format_exc()
    return episode


def replay(episode: Episode) -> sim.GameState:
    """Rebuild the final state from the committed moves, engine calls only.

    Mirrors run_episode's handling of each decision, the wait trace entry
    included.
    """
    trial = episode.trial
    config = trial.config
    state = sim.initial_state(config, trial.scenario, trial.seed)
    for decision in episode.decisions:
        if decision.kind == "act":
            state = sim.step_action(config, state, decision.action)
        elif decision.kind == "wait":
            if sim.legal_actions(config, state):
                counters = replace(
                    state.counters,
                    trace=((state.clock, sim.TRACE_WAIT, str(decision.until)),
                           state.counters.trace))
                state = sim.advance_time(
                    config, replace(state, counters=counters), decision.until)
            else:
                state = sim.close_session_if_idle(config, state)
    return state


def check_episode(episode: Episode) -> list[str]:
    """The replayed final state must match the record: digest, action
    counts, clock and goal."""
    label = f"trial {episode.trial.group}/seed {episode.trial.seed}"
    record = episode.record
    if record is None:
        return [f"{label} raised: {episode.error}"]
    problems = []
    if record.decisions != len(episode.decisions):
        problems.append(f"{label}: {record.decisions} decisions reported, "
                        f"{len(episode.decisions)} seen")
    final = replay(episode)
    if sim.state_digest(final) != record.state_digest:
        problems.append(f"{label}: replayed digest differs from the record")
    replayed = (final.counters.total_actions, final.counters.event_actions,
                final.clock)
    reported = (record.total_actions, record.event_actions, record.clock)
    if replayed != reported:
        problems.append(f"{label}: replayed (total_actions, event_actions, "
                        f"clock) {replayed} differ from the record {reported}")
    if record.goal_reached and not agents.goal_satisfied(episode.trial.goal, final):
        problems.append(f"{label}: goal_reached but goal not satisfied")
    return problems


@dataclass
class Round:
    """One pass over a workload's trials."""

    played: int  # episodes for episodes_per_s; training episodes count
    attempted: int
    failed: int
    actions: list[int]  # total actions per evaluated trial
    reached: list[bool]
    signature: tuple  # repeats exactly on every round of one seed
    episodes: list[Episode] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def load_build(name: str) -> tuning.TuningConfig:
    """Parse (which validates) and index one shipped fixture."""
    config = fixtures.load(name)
    config.index()
    return config


class Workload:
    name = ""
    in_process = True  # False: the trials run in the program's own pool
    trace_trials: int | None = None  # leading trials the traced run covers

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.trials: list[Trial] = []

    @property
    def base_seeds(self) -> dict[str, int]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None, sample_every: int = 0,
                  limit: int | None = None, speed=None) -> Round:
        trials = self.trials[:limit]
        episodes = []
        for i, trial in enumerate(trials):
            if tracer is not None:
                tracer.trial = i
            episodes.append(play(trial, sample_every=sample_every, speed=speed))
            if speed is not None:
                speed.tick()
        return self._round(episodes)

    @staticmethod
    def _round(episodes: list[Episode], played_extra: int = 0,
               signature_extra: tuple = ()) -> Round:
        done = [e for e in episodes if e.record is not None]
        return Round(
            played=len(episodes) + played_extra,
            attempted=len(episodes) + played_extra,
            failed=len(episodes) - len(done),
            actions=[e.record.total_actions for e in done],
            reached=[e.record.goal_reached for e in done],
            signature=signature_extra + tuple(e.signature() for e in episodes),
            episodes=episodes,
            errors=[e.error for e in episodes if e.error],
        )


class AStarWorkload(Workload):
    fixture = ""
    groups: tuple[str, ...] = ("",)  # careers; "" is a career-less scenario
    goal: dict = {}
    heuristic: dict = {}
    node_budget = agents.DEFAULT_NODE_BUDGET
    trials_per_group = 1

    @property
    def base_seeds(self) -> dict[str, int]:
        return {group or "all": self.seed for group in self.groups}

    def setup(self) -> None:
        config = load_build(self.fixture)
        heuristic = agents.HeuristicSpec.from_dict(self.heuristic)
        self.trials = []
        # trial-major order, so a prefix of the list covers every group
        for i in range(self.trials_per_group):
            for group in self.groups:
                goal = agents.GoalSpec.from_dict(
                    dict(self.goal, career=group) if group else self.goal)
                self.trials.append(Trial(
                    group=group or "all",
                    config=config,
                    scenario=sim.ScenarioOverrides(career=group or None),
                    goal=goal,
                    seed=experiments.trial_seed(self.seed, i),
                    make_agent=lambda goal=goal: agents.AStarPlanner(
                        heuristic, goal, self.node_budget),
                    heuristic=heuristic,
                ))


class AStarLong(AStarWorkload):
    name = "astar_long"
    fixture = "build_b"
    groups = ("barista", "culinary")
    goal = {"kind": "career_level_reached", "level": 3,
            "max_minutes": 50000, "max_actions": 3000}
    heuristic = {"weights": {"career_xp": 2.0, "crafted_item:coffee": 0.5,
                             "crafted_item:dish": 0.5}}
    node_budget = 400
    trials_per_group = 3  # 6 distinct trials, so p99 does not hang on a few
    trace_trials = 2


class AStarShort(AStarWorkload):
    name = "astar_short"
    fixture = "romance_outlier"
    goal = {"kind": "any_relationship_chain_done", "chain_length": 5,
            "max_minutes": 5000, "max_actions": 300}
    heuristic = {"weights": {"relationship_event_complete": 1.0, "event_xp": 1.0}}
    node_budget = 2000
    trials_per_group = 100


class SoftmaxTrain(Workload):
    """The Softmax half of paper_suite's agent_comparison, at its settings."""

    name = "softmax_train"
    career = "fashion"
    goal = {"kind": "career_level_reached", "career": "fashion", "level": 2,
            "max_minutes": 20000, "max_actions": 400}
    train_episodes = 400
    eval_trials = 200
    step_size = 0.05

    @property
    def base_seeds(self) -> dict[str, int]:
        return {"train": self.seed, "eval": self.seed}

    def setup(self) -> None:
        self.config = load_build("desk_base")
        self.scenario = sim.ScenarioOverrides(career=self.career)
        self.goal_spec = agents.GoalSpec.from_dict(self.goal)
        # the A* heuristic of agent_comparison, for the micro evaluation only
        self.heuristic_spec = agents.HeuristicSpec({"career_xp": 1.0})

    def run_round(self, tracer=None, sample_every: int = 0,
                  limit: int | None = None, speed=None) -> Round:
        start = agents.initial_state
        if speed is not None:
            # training has no decide calls; measure speed at episode starts
            def initial_state(*args, **kwargs):
                speed.tick()
                return start(*args, **kwargs)
            agents.initial_state = initial_state
        try:
            policy, returns = agents.train_softmax(
                self.config, self.scenario, self.goal_spec,
                episodes=self.train_episodes, step_size=self.step_size,
                rng=random.Random(self.seed))
        except Exception:
            error = traceback.format_exc()
            return Round(self.train_episodes, self.train_episodes,
                         self.train_episodes, [], [], ("raised",), errors=[error])
        finally:
            agents.initial_state = start
        self.trials = [
            Trial(group="eval", config=self.config, scenario=self.scenario,
                  goal=self.goal_spec, seed=experiments.trial_seed(self.seed, i),
                  make_agent=lambda: agents.SoftmaxPlanner(policy, self.config),
                  heuristic=self.heuristic_spec)
            for i in range(self.eval_trials)
        ]
        if speed is not None:
            speed.tick()
        played = Workload.run_round(self, tracer, sample_every, limit, speed)
        return self._round(played.episodes, self.train_episodes,
                           (tuple(policy.weights), tuple(returns)))


def _refs(entry: dict) -> list[str]:
    refs = entry["tuning_ref"]
    return [refs] if isinstance(refs, str) else refs


def generate_suite(seed: int) -> list[dict]:
    """paper_suite with reduced trial counts; every base seed is `seed`.

    Tuning paths become absolute, since the suite file is written elsewhere.
    """
    suite = json.loads(fixtures.path("paper_suite").read_text())
    trials = {"relationship_balance": 40, "career_progression": 2,
              "object_impact": 1, "build_comparison": 1, "agent_comparison": 20}
    for entry in suite:
        entry["trials"] = trials[entry["study"]]
        entry["base_seed"] = seed
        paths = [str(fixtures.path(ref)) for ref in _refs(entry)]
        entry["tuning_ref"] = paths[0] if len(paths) == 1 else paths
        if entry["study"] == "agent_comparison":
            entry["agent"]["softmax"]["train"].update(episodes=100, seed=seed)
    return suite


@dataclass
class Reference:
    """The serial run of the suite that the pooled rounds must reproduce."""

    stats: tuple
    episodes: list[Episode]
    problems: list[str]


class SuiteParallel(Workload):
    name = "suite_parallel"
    in_process = False

    @property
    def base_seeds(self) -> dict[str, int]:
        return {entry["id"]: entry["base_seed"] for entry in self.suite}

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.suite_path = work_dir / "suite.json"
        self.rounds = 0

    def setup(self) -> None:
        """Write the generated suite file; run_suite does all the rest."""
        self.suite = generate_suite(self.seed)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.suite_path.write_text(json.dumps(self.suite, indent=2))

    def _run_suite(self, parallel: int) -> tuple[list, tuple]:
        self.rounds += 1
        out = self.work_dir / f"out{self.rounds}"
        try:
            results = report.run_suite(self.suite_path, out, parallel=parallel)
            stats = tuple((out / outcome.experiment_id / "stats.json").read_bytes()
                          for _, outcome in results)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return results, stats

    def _training_episodes(self) -> int:
        return sum(
            e["agent"]["softmax"]["train"]["episodes"] * len(e["careers"])
            for e in self.suite if e["study"] == "agent_comparison")

    def run_round(self, tracer=None, sample_every: int = 0,
                  limit: int | None = None, speed=None) -> Round:
        results, stats = self._run_suite(SUITE_WORKERS)
        records = [r for _, outcome in results for _, _, r in outcome.records]
        failed = [o for _, o in results if o.status != "ok"]
        return Round(
            played=len(records) + self._training_episodes(),
            attempted=len(results),
            failed=len(failed),
            actions=[r.total_actions for r in records],
            reached=[r.goal_reached for r in records],
            signature=stats,
            errors=[f"{o.experiment_id}: {o.error}" for o in failed],
        )

    def reference(self, sample_every: int = 0, speed=None) -> Reference:
        """Run the suite serially, watching every episode from outside."""
        episodes: list[Episode] = []
        run = experiments.run_episode

        def watched(config, scenario, seed, agent, goal):
            trial = Trial(agent.name, config, scenario, goal, seed, None,
                          getattr(agent, "heuristic", None))
            episode = play(trial, agent, sample_every, run, speed)
            episodes.append(episode)
            if episode.record is None:
                raise RuntimeError(episode.error)
            return episode.record

        experiments.run_episode = watched
        try:
            _, stats = self._run_suite(0)
        finally:
            experiments.run_episode = run
        problems = [p for e in episodes for p in check_episode(e)]
        return Reference(stats, episodes, problems)


WORKLOADS = {w.name: w for w in (AStarLong, AStarShort, SoftmaxTrain, SuiteParallel)}
