"""The designer studies: repeatable, seeded batch experiments.

Five studies are supported: relationship balance, career progression,
object impact, build comparison, and the A*-versus-Softmax agent
comparison. A study is a list of groups plus a reducer. A group is one
cell of the study's grid (a key, build, scenario, goal and agent spec)
and runs the experiment's trials, seeded base_seed XOR trial index, so
parallelism can never change results. The reducer turns the records
into statistics, extras and charts, reducing integer action counts in
an order-independent way.

One runner serves every study. `check_entry` builds the study's groups
once and tests their start states; `start_experiment` starts the groups
it returns at once, a group that trains its Softmax policy first, and
the function it returns reads each group in order and reduces. Without
a pool a group runs as it is started. On a pool from `trial_pool`,
starting only submits jobs, so a suite can hand the pool every job
before it reads any result. Each worker receives the suite's parsed
builds once, through the pool initializer. A job carries one whole
group, with its build's key instead of the build, and the worker plays
it as a serial run does: one agent, trained first if the group trains
its policy, plays its trials. So a pooled suite does the serial suite's
search and training work, spread over the workers by group.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, ClassVar

from .agents import (
    DEFAULT_NODE_BUDGET,
    AStarPlanner,
    GoalSpec,
    HeuristicSpec,
    SoftmaxPlanner,
    SoftmaxPolicy,
    TrialRecord,
    run_episode,
    train_softmax,
)
from .errors import NoRelationshipEvents, PlaytestError, SchemaError, SuiteEntryError
from .sim import ScenarioOverrides, initial_state
from .tuning import Codec, InvalidField, TuningConfig, absent
from .tuning import serialize_tuning  # noqa: F401  wrapped by perfbench/tracing.py

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class AggregateStats:
    count: int
    mean: float
    variance: float  # population variance
    min: float
    max: float

    @classmethod
    def from_values(cls, values: list) -> "AggregateStats":
        if not values:
            raise ValueError("AggregateStats requires at least one value")
        n = len(values)
        total = sum(values)
        mean = total / n
        # exact integer sums keep the reduction order-independent
        sumsq = sum(v * v for v in values)
        variance = (sumsq - total * total / n) / n
        return cls(
            count=n,
            mean=mean,
            variance=max(0.0, variance),
            min=float(min(values)),
            max=float(max(values)),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "min": self.min,
            "max": self.max,
        }


def running_means(values: list) -> list[float]:
    out = []
    total = 0
    for i, v in enumerate(values, start=1):
        total += v
        out.append(total / i)
    return out


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

# The settings below are checked as they load, for what the checks in a
# planner or in training would otherwise fail, and each failed check names
# its field (`InvalidField`). An agent spec has one class per kind, so a
# field its kind does not read fails at load as unknown.

@dataclass
class TrainSpec:  # REINFORCE settings of a trained Softmax policy
    episodes: int = 500
    step_size: float = 0.02
    seed: int | None = None  # None: the experiment's base seed

    def __post_init__(self):
        if self.episodes < 1:
            raise InvalidField("episodes", "must be >= 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise InvalidField("step_size", "must be a finite number > 0")


@dataclass
class SoftmaxSpec:
    """An agent comparison's Softmax half: a literal `policy`, or a policy
    trained with `train` (TrainSpec() if none) at `temperature` (1.0 if
    none), never both."""

    temperature: float | None = None
    policy: SoftmaxPolicy | None = None
    train: TrainSpec | None = None

    def __post_init__(self):
        if self.temperature is not None and not (
                math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidField("temperature", "must be a finite number > 0")
        if self.policy is not None:
            for name in ("temperature", "train"):
                if getattr(self, name) is not None:
                    raise InvalidField(name, "not read next to a literal policy")


@dataclass
class AStarAgent:  # also an agent comparison's A* half
    """An A* planner of `node_budget` nodes (DEFAULT_NODE_BUDGET if none)."""

    kind: ClassVar[str] = "astar"
    node_budget: int | None = None

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 1:
            raise InvalidField("node_budget", "must be >= 1")


@dataclass
class SoftmaxAgent:
    """A Softmax agent that plays `policy`."""

    kind: ClassVar[str] = "softmax"
    policy: SoftmaxPolicy


@dataclass
class ComparisonAgent:
    """An agent comparison's two agents: an A* planner and a Softmax policy."""

    kind: ClassVar[str] = "comparison"
    astar: AStarAgent = field(default_factory=AStarAgent)
    softmax: SoftmaxSpec = field(default_factory=SoftmaxSpec)


# decoded by its `kind`, "astar" when the key is absent
AgentSpec = AStarAgent | SoftmaxAgent | ComparisonAgent


@dataclass
class CareerTarget:  # one career of a career-style study
    career: str
    target_level: int | None = None  # None: the career's cap

    def __post_init__(self):
        if self.target_level is not None and self.target_level < 1:
            raise InvalidField("target_level", "must be >= 1")


@dataclass
class ExperimentConfig(Codec):
    """One suite entry. Its agent is a `comparison` agent exactly when the
    study is agent_comparison, the one study that reads both halves. Every
    study but relationship_balance is a career study: it builds each
    group's goal from `careers` and the limits of `goal`, so its `goal` is
    a career_level_reached template that sets no career or level."""

    id: str
    study: str
    tuning_ref: list[str]  # one path, or two for build comparison
    scenario: ScenarioOverrides = absent(ScenarioOverrides)
    heuristic: HeuristicSpec = absent(lambda: HeuristicSpec({}))
    goal: GoalSpec
    trials: int = absent(lambda: 1)
    base_seed: int = absent(lambda: 0)
    agent: AgentSpec = absent(AStarAgent)
    careers: list[CareerTarget] = absent(list)

    def __post_init__(self):
        if self.study not in STUDIES:
            raise InvalidField("study", f"unknown study {self.study!r}")
        if self.trials < 1:
            raise InvalidField("trials", "must be >= 1")
        if self.study != "relationship_balance":
            kind = self.goal.kind
            if kind != "career_level_reached":
                raise InvalidField("goal.kind", f"{self.study} plays "
                                   f"career_level_reached goals, not {kind!r}")
            for name in ("career", "level"):
                if getattr(self.goal, name) is not None:
                    raise InvalidField(f"goal.{name}", f"{self.study} takes "
                                       f"each group's {name} from careers")
        pair = self.study == "agent_comparison"
        if pair != (self.agent.kind == "comparison"):
            wanted = "a comparison agent" if pair else "an astar or softmax agent"
            raise InvalidField("agent.kind", f"{self.study} reads {wanted}, "
                                             f"not {self.agent.kind!r}")

    @classmethod
    def from_dict(cls, data, path: str | None = None) -> "ExperimentConfig":
        """Decode one suite entry at path, its id (or "entry" without one);
        a string tuning_ref is a list of one."""
        if type(data) is dict:
            name, ref = data.get("id"), data.get("tuning_ref")
            path = path or (name if type(name) is str else "entry")
            if type(ref) is str:
                data = {**data, "tuning_ref": [ref]}
            elif "tuning_ref" in data and type(ref) is not list:
                raise SuiteEntryError(f"{path}.tuning_ref: expected str or list, "
                                      f"got {type(ref).__name__}")
        try:
            return super().from_dict(data, path or "entry")
        except SchemaError as exc:
            raise SuiteEntryError(str(exc)) from exc


def trial_seed(base_seed: int, index: int) -> int:
    return base_seed ^ index


# ---------------------------------------------------------------------------
# Trial batches (serial or process-parallel, identical results either way)
# ---------------------------------------------------------------------------

# In a pool worker: the suite's builds, keyed by the parent's id() of each
_worker_builds: dict[int, TuningConfig] = {}


def _install_builds(builds: dict[int, TuningConfig]) -> None:
    _worker_builds.update(builds)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def trial_pool(workers: int, configs: list[TuningConfig]) -> ProcessPoolExecutor:
    """A process pool whose workers each receive `configs` once, at start.

    It starts `workers` processes, or one per available CPU if that is
    fewer: a worker beyond the CPU count only adds switching. Jobs name
    their build by its id() in this process, so only batches of these
    configs may run on the pool, and the caller keeps them alive until
    the pool is shut down.
    """
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=min(workers, _available_cpus()),
        initializer=_install_builds,
        initargs=({id(config): config for config in configs},),
    )


GroupResult = tuple[list[TrialRecord], "SoftmaxPolicy | None"]


def _run_group(
    config: TuningConfig, scenario: ScenarioOverrides, heuristic: HeuristicSpec,
    goal: GoalSpec, spec: AgentSpec | SoftmaxSpec, trials: int,
    base_seed: int,
) -> GroupResult:
    """One group's trials in trial index order, all played by one agent,
    and the Softmax policy that agent played (None for A*). An agent
    comparison's SoftmaxSpec with no literal policy trains one first,
    seeded by its train seed, else by `base_seed`."""
    policy = None
    if isinstance(spec, AStarAgent):
        budget = spec.node_budget
        agent = AStarPlanner(heuristic, goal, DEFAULT_NODE_BUDGET
                             if budget is None else budget)
    else:
        policy = spec.policy
        if policy is None:
            train = spec.train or TrainSpec()
            policy, _ = train_softmax(
                config, scenario, goal, episodes=train.episodes,
                step_size=train.step_size,
                rng=random.Random(base_seed if train.seed is None else train.seed),
                temperature=1.0 if spec.temperature is None else spec.temperature,
            )
        agent = SoftmaxPlanner(policy, config)
    return [run_episode(config, scenario, trial_seed(base_seed, i), agent, goal)
            for i in range(trials)], policy


def _run_group_in_worker(key: int, *args) -> GroupResult:
    return _run_group(_worker_builds[key], *args)


def run_trials(
    config: TuningConfig, scenario: ScenarioOverrides, heuristic: HeuristicSpec,
    goal: GoalSpec, agent_spec: AgentSpec | SoftmaxSpec, trials: int,
    base_seed: int, pool: ProcessPoolExecutor | None = None,
) -> Callable[[], GroupResult]:
    """Start one group of seeded trials; the returned function gives its
    records, in trial index order, and the Softmax policy its agent played
    (None for A*).

    Without a pool the group runs now, one agent serving all its trials.
    With a pool from `trial_pool` the whole group is submitted as one job,
    which a worker plays exactly as a serial run does, so pooled and
    serial runs do the same search and training work. The returned
    function is then the job's `result`: it waits for the job, and raises
    the job's exception.
    """
    args = (scenario, heuristic, goal, agent_spec, trials, base_seed)
    if pool is None:
        result = _run_group(config, *args)
        return lambda: result
    return pool.submit(_run_group_in_worker, id(config), *args).result


# ---------------------------------------------------------------------------
# Study outcomes
# ---------------------------------------------------------------------------

@dataclass
class ExperimentOutcome:
    experiment_id: str
    study: str
    build_ids: list[str]
    groups: dict[str, AggregateStats]
    extras: dict
    charts: list[dict]
    records: list[tuple[str, int, TrialRecord]]  # (group key, trial index, record)
    duration_seconds: float = 0.0
    status: str = "ok"
    error: str | None = None

    @property
    def max_nodes_expanded(self) -> int:
        return max((r.max_nodes_expanded for _, _, r in self.records), default=0)

    @property
    def max_decision_seconds(self) -> float:
        return max((r.max_decision_seconds for _, _, r in self.records), default=0.0)


def failed_outcome(
    experiment_id: str, study: str, exc: Exception, build_ids: Iterable[str] = (),
) -> ExperimentOutcome:
    """The outcome of an experiment that raised `exc`: no groups or records."""
    return ExperimentOutcome(experiment_id, study, list(build_ids), {}, {}, [], [],
                             status="failed", error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# The study runner
# ---------------------------------------------------------------------------
# A study is a function (configs, xc) -> (groups, reduce). A group is
# (key, config, scenario, goal, agent spec), one job that runs xc.trials
# trials; an agent comparison's Softmax spec trains its policy in that job
# unless it gives one. `reduce` takes each group's (key, records, policy
# its agent played or None) in group order and returns (statistics,
# extras, charts, (group key, trial index, record) tuples).

Group = tuple[str, TuningConfig, ScenarioOverrides, GoalSpec,
              "AgentSpec | SoftmaxSpec"]
Done = list[tuple[str, list[TrialRecord], "SoftmaxPolicy | None"]]
Reduction = tuple[dict[str, AggregateStats], dict, list[dict],
                  list[tuple[str, int, TrialRecord]]]
Study = Callable[[list[TuningConfig], ExperimentConfig],
                 tuple[list[Group], Callable[[Done], Reduction]]]
Read = Callable[[], ExperimentOutcome]


def check_build_count(study: str, count: int) -> None:
    """Raise unless `count` is the number of builds `study` reads: two
    for build_comparison, one for every other study."""
    pair = study == "build_comparison"
    if count != (2 if pair else 1):
        raise PlaytestError(f"{study} needs exactly "
                            f"{'two tuning files' if pair else 'one tuning file'}")


def check_entry(
    xc: ExperimentConfig, configs: list[TuningConfig],
) -> tuple[list[Group], Callable[[Done], Reduction]]:
    """The study's groups on `configs` and its reducer, which
    `start_experiment` runs. Raise if the study cannot run there: a wrong
    build count, a build_comparison of one build twice, a scenario career
    for a career study (its groups take theirs from `careers`), a career
    listed twice, a career a build lacks or a target level above its cap
    (see `_career_groups`), or a group's scenario that `initial_state`
    rejects on its build. For relationship_balance, which takes its goal
    as it stands: a build with no relationship event, a goal that misses
    a field its kind reads or names what the build lacks (see
    `GoalSpec.check`), a scenario category that locks the goal out, and
    `careers`, which it never reads. The agent's kind is checked as the
    entry is built (see `ExperimentConfig`)."""
    check_build_count(xc.study, len(configs))
    if configs[1:] and configs[1].build_id == configs[0].build_id:
        raise SuiteEntryError(f"{xc.id}.tuning_ref[1]: build "
                              f"{configs[1].build_id!r} repeats tuning_ref[0]'s")
    balance = xc.study == "relationship_balance"
    if balance:
        if not any(e.kind == "relationship" for e in configs[0].events):
            raise NoRelationshipEvents(configs[0].build_id)
        try:
            xc.goal.check(configs[0], f"{xc.id}.goal")
        except SchemaError as exc:
            raise SuiteEntryError(str(exc)) from exc
    elif xc.scenario.career is not None:
        raise SuiteEntryError(f"{xc.id}.scenario.career: {xc.study} takes each "
                              "group's career from careers")
    groups, reduce = _STUDIES[xc.study](configs, xc)
    for _, config, scenario, _, _ in groups:
        initial_state(config, scenario, xc.base_seed)
    if not balance:
        return groups, reduce
    # a relationship locked to one category from the first state (see
    # `initial_state`) meets no goal on another category's chain or event,
    # nor one longer than its own chain
    locked, goal = xc.scenario.relationship_category, xc.goal
    if locked is not None:
        idx = configs[0].index()
        owner = idx.chain_position.get(goal.event, (locked,))[0]
        chain = len(idx.relationships[locked].event_chain)
        path = (f"{xc.id}.scenario.relationship_category: {locked!r} locks "
                "out the goal's")
        if goal.category not in (None, locked):
            raise SuiteEntryError(f"{path} category {goal.category!r}")
        if owner != locked:
            raise SuiteEntryError(f"{path} event {goal.event!r} of category "
                                  f"{owner!r}")
        if (goal.chain_length or 0) > chain:
            raise SuiteEntryError(f"{path} chain_length {goal.chain_length}, "
                                  f"longer than its chain of {chain}")
    if xc.careers:
        raise SuiteEntryError(f"{xc.id}.careers: relationship_balance "
                              "reads no careers")
    return groups, reduce


def _bar_chart(name: str, groups: dict[str, AggregateStats]) -> dict:
    keys = sorted(groups)
    return {
        "name": name,
        "kind": "bar",
        "groups": keys,
        "means": [groups[k].mean for k in keys],
        "variances": [groups[k].variance for k in keys],
        "counts": [groups[k].count for k in keys],
    }


def _action_reducer(
    chart: str, extras: Callable[[Done, dict[str, AggregateStats]], dict],
) -> Callable[[Done], Reduction]:
    """A reducer whose statistics are each group's total actions, shown in
    one bar chart named `chart`; `extras(done, statistics)` adds the rest."""
    def reduce(done: Done) -> Reduction:
        stats = {
            key: AggregateStats.from_values([r.total_actions for r in records])
            for key, records, _ in done
        }
        tagged = [(key, i, r) for key, records, _ in done
                  for i, r in enumerate(records)]
        return stats, extras(done, stats), [_bar_chart(chart, stats)], tagged

    return reduce


def _career_groups(config: TuningConfig, xc: ExperimentConfig) -> list[Group]:
    """One group per career of xc, keyed by the career: xc's scenario and
    agent, starting in that career, with a goal of its target level.
    Raises SuiteEntryError for a row whose career an earlier row names,
    and, in `GoalSpec.check`'s words, for one whose career the build
    lacks or whose target level is above the cap."""
    idx = config.index()
    groups = []
    for i, entry in enumerate(xc.careers):
        career, path = entry.career, f"{xc.id}.careers[{i}]"
        earlier = [e.career for e in xc.careers[:i]]
        if career in earlier:
            raise SuiteEntryError(f"{path}.career: {career!r} repeats "
                                  f"careers[{earlier.index(career)}]")
        spec = idx.careers.get(career)
        if spec is None:
            raise SuiteEntryError(f"{path}.career: no career {career!r} in "
                                  f"build {config.build_id!r}")
        level = spec.max_level if entry.target_level is None else entry.target_level
        if level > spec.max_level:
            raise SuiteEntryError(f"{path}.target_level: {level} > cap "
                                  f"{spec.max_level} of career {career!r}")
        goal = GoalSpec(kind="career_level_reached", career=career, level=level,
                        max_minutes=xc.goal.max_minutes,
                        max_actions=xc.goal.max_actions)
        groups.append(
            (career, config, replace(xc.scenario, career=career), goal, xc.agent))
    return groups


# --- relationship balance ---------------------------------------------------

def _relationship_balance_study(configs, xc):
    config = configs[0]

    def reduce(done: Done) -> Reduction:
        [(_, records, _)] = done
        values: dict[str, list[int]] = {}
        category_counts: dict[str, int] = {}
        tagged = []
        for i, record in enumerate(records):
            category = ""
            for outcome in record.event_log:
                if outcome.kind != "relationship":
                    continue
                if not category:
                    category = outcome.owner
                if outcome.completed:
                    key = f"{outcome.owner}/{outcome.index}"
                    values.setdefault(key, []).append(outcome.actions)
            category_counts[category] = category_counts.get(category, 0) + 1
            tagged.append((category, i, record))
        groups = {k: AggregateStats.from_values(v) for k, v in values.items()}
        return (groups, {"category_trials": dict(sorted(category_counts.items()))},
                [_bar_chart("event_actions_by_category_index", groups)], tagged)

    return [("trials", config, xc.scenario, xc.goal, xc.agent)], reduce


# --- career progression -----------------------------------------------------

def _career_progression_study(configs, xc):
    groups = _career_groups(configs[0], xc)
    targets = {career: goal.level for career, _, _, goal, _ in groups}
    return groups, _action_reducer(
        "total_actions_by_career", lambda done, stats: {"targets": targets})


# --- object impact -----------------------------------------------------------

def _object_impact_study(configs, xc):
    config = configs[0]
    careers = _career_groups(config, xc)

    def impact(done: Done, stats: dict[str, AggregateStats]) -> dict:
        idx = config.index()
        out = {}
        for career, _, _, goal, _ in careers:
            base = stats[f"{career}/base"].mean
            with_objects = stats[f"{career}/objects"].mean
            saved = base - with_objects
            granted = [
                u for u in idx.careers[career].object_unlocks
                if u.unlock_level <= goal.level
            ]
            price_total = sum(u.price_rho for u in granted)
            out[career] = {
                "base_mean": base,
                "objects_mean": with_objects,
                "actions_reduction_pct": (saved / base * 100.0) if base else 0.0,
                "rho_per_action_saved": (price_total / saved) if saved > 0 else None,
                "rho_spent": price_total,
                "objects_granted": sorted(u.object_id for u in granted),
            }
        return {"impact": out}

    return [
        (f"{career}/{label}", config, replace(scenario, grant_objects=grant),
         goal, agent)
        for career, _, scenario, goal, agent in careers
        for label, grant in (("base", False), ("objects", True))
    ], _action_reducer("total_actions_base_vs_objects", impact)


# --- build comparison --------------------------------------------------------

def _build_comparison_study(configs, xc):
    groups = [
        (f"{career}/{config.build_id}", config, *rest)
        for cfg in configs
        for career, config, *rest in _career_groups(cfg, xc)
    ]

    def rows(done: Done, stats: dict[str, AggregateStats]) -> dict:
        out = []
        for (_, config, scenario, _, _), (_, records, _) in zip(groups, done):
            all_waits = [w for r in records for w in r.wait_intervals]
            out.append({
                "build": config.build_id,
                "career": scenario.career,
                "event_actions": sum(r.event_actions for r in records) / len(records),
                "total_actions": sum(r.total_actions for r in records) / len(records),
                "sessions": sum(r.sessions for r in records) / len(records),
                "mean_wait_minutes": (
                    sum(all_waits) / len(all_waits) if all_waits else 0.0
                ),
            })
        return {"rows": out}

    return groups, _action_reducer("total_actions_by_career_and_build", rows)


# --- agent comparison --------------------------------------------------------

def _agent_comparison_study(configs, xc):
    config = configs[0]
    astar, softmax = xc.agent.astar, xc.agent.softmax
    groups, careers = [], []
    for career, _, scenario, goal, _ in _career_groups(config, xc):
        careers.append(career)
        groups += [(f"{career}/astar", config, scenario, goal, astar),
                   (f"{career}/softmax", config, scenario, goal, softmax)]

    def comparison(done: Done, stats: dict[str, AggregateStats]) -> dict:
        policies = {key: policy for key, _, policy in done}
        return {"comparison": {
            career: {
                "astar": stats[f"{career}/astar"].to_dict(),
                "softmax": stats[f"{career}/softmax"].to_dict(),
                "policy": policies[f"{career}/softmax"].to_dict(),
            }
            for career in careers
        }}

    by_group = _action_reducer("total_actions_by_career_and_agent", comparison)

    def reduce(done: Done) -> Reduction:
        stats, extras, charts, tagged = by_group(done)
        return stats, extras, charts + [
            {"name": f"convergence/{key}", "kind": "series",
             "series": running_means([r.total_actions for r in records])}
            for key, records, _ in done
        ], tagged

    return groups, reduce


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_STUDIES: dict[str, Study] = {
    "relationship_balance": _relationship_balance_study,
    "career_progression": _career_progression_study,
    "object_impact": _object_impact_study,
    "build_comparison": _build_comparison_study,
    "agent_comparison": _agent_comparison_study,
}
STUDIES = tuple(_STUDIES)


def start_experiment(
    xc: ExperimentConfig, configs: list[TuningConfig],
    pool: ProcessPoolExecutor | None = None,
) -> Read:
    """Check one configured study and start the groups `check_entry`
    returns; the returned function reads its outcome.

    A group that trains its Softmax policy, its entry's longest job,
    starts first; the others follow in group order. A PlaytestError raised
    while checking, starting or reading becomes a failed outcome naming
    the builds. The outcome's duration runs from the start to the last
    result read.
    """
    started = time.perf_counter()
    build_ids = [c.build_id for c in configs]
    failure = None
    try:
        groups, reduce = check_entry(xc, configs)
        trains = [isinstance(agent, SoftmaxSpec) and agent.policy is None
                  for *_, agent in groups]
        results: list = [None] * len(groups)
        for i in sorted(range(len(groups)), key=trains.__getitem__, reverse=True):
            _, config, scenario, goal, agent = groups[i]
            results[i] = run_trials(config, scenario, xc.heuristic, goal, agent,
                                    xc.trials, xc.base_seed, pool)
    except PlaytestError as exc:
        failure = exc

    def read() -> ExperimentOutcome:
        try:
            if failure is not None:
                raise failure
            outcome = ExperimentOutcome(xc.id, xc.study, build_ids, *reduce(
                [(group[0], *result()) for group, result in zip(groups, results)]))
        except PlaytestError as exc:
            outcome = failed_outcome(xc.id, xc.study, exc, build_ids)
        outcome.duration_seconds = time.perf_counter() - started
        return outcome

    return read


def run_experiment(
    xc: ExperimentConfig, configs: list[TuningConfig],
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    """Run one configured study against its parsed tuning config(s)."""
    return start_experiment(xc, configs, pool)()
