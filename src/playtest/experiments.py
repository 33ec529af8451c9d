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
before it reads any result. The first read forks the workers, at most
one per CPU and each pinned to its own, and they inherit the parsed
builds and the jobs: nothing is sent to a worker, and each sends back
its results pickled. A job is one whole group, and the worker plays it
as a serial run does: one agent, trained first if the group trains its
policy, plays its trials. So a pooled suite does the serial suite's
search and training work, spread over the workers by group. The pool
forks explicitly, whatever `multiprocessing`'s default start method
(`forkserver` from Python 3.14), and `report.run_suite` runs serially
on a platform without `os.fork`.
"""

from __future__ import annotations

import math
import os
import random
import select
import struct
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from typing import ClassVar

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

_CLAIM = struct.Struct("<I")  # one job index in a round's claim queue
_HEAD = struct.Struct("<IQ")  # a worker's message: job index, payload size
# jobs per round: their indexes fill one page, which every pipe holds
# before any worker reads it
_ROUND = 4096 // _CLAIM.size


class WorkerDied(RuntimeError):
    """A pool worker ended inside a job, before it sent the job's result."""


def _available_cpus() -> list[int]:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _read_exact(fd: int, size: int) -> bytes:
    """`size` bytes from `fd`, or fewer if the writer ends first."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _send(fd: int, index: int, payload: bytes = b"") -> None:
    """Write one message; an empty payload says job `index` is claimed."""
    data = memoryview(_HEAD.pack(index, len(payload)) + payload)
    while data:
        data = data[os.write(fd, data):]


@dataclass
class _Worker:
    pid: int
    fd: int  # the read end of the pipe it sends its messages on
    cpu: int
    queue: int  # the read end of its round's claim queue
    job: int | None = None  # the job it claimed and has not answered


@dataclass
class _Job:
    """A job submitted to a TrialPool."""

    pool: TrialPool
    index: int

    def result(self):
        """The job's return value; raises the exception the job raised."""
        return self.pool._result(self.index)


class TrialPool:
    """A fork-join pool of worker processes, each pinned to one of `cpus`.

    `submit` only records a job. The first read after new jobs forks a
    round of workers for them: one per CPU of `cpus`, and no more than
    the jobs. A worker inherits all the parent holds, the jobs and the
    builds they name included, so no job is pickled. The workers claim
    the round's jobs in submit order from one shared queue, a pipe of job
    indexes written before they start, and each sends back on its own
    pipe the index it claims, then the job's pickled return value or
    exception. A worker that dies fails only the job it claimed, with
    WorkerDied naming its exit status, and a new worker on its CPU
    claims the rest of its round. A job whose exception cannot be
    pickled fails the same way. `close` kills and reaps every worker.
    """

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self._jobs: list[tuple[Callable, tuple]] = []
        self._forked = 0  # jobs handed to a round so far
        self._done: dict[int, tuple[bool, object]] = {}  # (ok, value) by job
        self._workers: dict[int, _Worker] = {}  # by the fd it sends on
        self._queues: list[int] = []
        self._poll = select.poll()

    def __enter__(self) -> TrialPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, fn: Callable, *args) -> _Job:
        self._jobs.append((fn, args))
        return _Job(self, len(self._jobs) - 1)

    def _result(self, index: int):
        while index >= self._forked:
            self._fork_round()
        while index not in self._done:
            if not self._workers:  # its worker died between claim and report
                self._done[index] = (False, WorkerDied("no pool worker ran the job"))
                break
            for fd, _ in self._poll.poll():
                self._take(self._workers[fd])
        ok, value = self._done[index]
        if not ok:
            raise value
        return value

    def _fork_round(self) -> None:
        jobs = range(self._forked, min(len(self._jobs), self._forked + _ROUND))
        queue, claims = os.pipe()
        os.write(claims, b"".join(map(_CLAIM.pack, jobs)))
        os.close(claims)
        self._queues.append(queue)
        self._forked = jobs.stop
        for cpu in self.cpus[:len(jobs)]:
            self._fork(queue, cpu)

    def _fork(self, queue: int, cpu: int) -> None:
        fd, out = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker, which never returns from here
            status = 1
            try:
                if hasattr(os, "sched_setaffinity"):
                    os.sched_setaffinity(0, {cpu})
                self._work(queue, out)
                status = 0
            finally:
                os._exit(status)
        os.close(out)
        self._workers[fd] = _Worker(pid, fd, cpu, queue)
        self._poll.register(fd, select.POLLIN)

    def _work(self, queue: int, out: int) -> None:
        """A worker's loop: claim jobs until the queue is empty."""
        import pickle

        while claim := os.read(queue, _CLAIM.size):
            [index] = _CLAIM.unpack(claim)
            _send(out, index)
            fn, args = self._jobs[index]
            try:
                payload = pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            _send(out, index, payload)

    def _take(self, worker: _Worker) -> None:
        """Take in one message from `worker`, or bury it if it has ended."""
        import pickle

        head = _read_exact(worker.fd, _HEAD.size)
        if len(head) == _HEAD.size:
            index, size = _HEAD.unpack(head)
            if not size:
                worker.job = index
                return
            payload = _read_exact(worker.fd, size)
            if len(payload) == size:
                worker.job = None
                try:
                    self._done[index] = pickle.loads(payload)
                except Exception as exc:  # a class that cannot be rebuilt
                    self._done[index] = (False, exc)
                return
        self._bury(worker)

    def _bury(self, worker: _Worker) -> None:
        """Reap a worker that has ended; if it ended inside a job, fail
        the job and fork a worker to take its place."""
        self._poll.unregister(worker.fd)
        os.close(worker.fd)
        del self._workers[worker.fd]
        _, status = os.waitpid(worker.pid, 0)
        if worker.job is not None:
            code = os.waitstatus_to_exitcode(status)
            self._done[worker.job] = (False, WorkerDied(
                f"a pool worker exited with status {code}"))
            self._fork(worker.queue, worker.cpu)

    def close(self) -> None:
        """Kill and reap every worker, and close the pool's pipes."""
        import signal

        for worker in self._workers.values():
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
            os.close(worker.fd)
            self._poll.unregister(worker.fd)
        for queue in self._queues:
            os.close(queue)
        self._workers, self._queues = {}, []


def trial_pool(workers: int) -> TrialPool:
    """A TrialPool of `workers` processes, or of one per available CPU if
    that is fewer: a worker beyond the CPU count only adds switching."""
    return TrialPool(_available_cpus()[:workers])


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


def run_trials(
    config: TuningConfig, scenario: ScenarioOverrides, heuristic: HeuristicSpec,
    goal: GoalSpec, agent_spec: AgentSpec | SoftmaxSpec, trials: int,
    base_seed: int, pool: TrialPool | None = None,
) -> Callable[[], GroupResult]:
    """Start one group of seeded trials; the returned function gives its
    records, in trial index order, and the Softmax policy its agent played
    (None for A*).

    Without a pool the group runs now, one agent serving all its trials.
    With a pool from `trial_pool` the whole group is submitted as one job,
    which a worker plays exactly as a serial run does, so pooled and
    serial runs do the same search and training work. The returned
    function is then the job's `result`: it waits for the job, and raises
    the job's exception. An exception raised while the job is submitted
    is raised by the returned function too, so it fails the group's
    experiment as it is read.
    """
    args = (config, scenario, heuristic, goal, agent_spec, trials, base_seed)
    if pool is None:
        result = _run_group(*args)
        return lambda: result
    try:
        return pool.submit(_run_group, *args).result
    except Exception as exc:
        failure = exc

    def fail() -> GroupResult:
        raise failure

    return fail


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
Checked = tuple[list[Group], Callable[[Done], Reduction]]
Study = Callable[[list[TuningConfig], ExperimentConfig], Checked]
Read = Callable[[], ExperimentOutcome]


def check_build_count(study: str, count: int) -> None:
    """Raise unless `count` is the number of builds `study` reads: two
    for build_comparison, one for every other study."""
    pair = study == "build_comparison"
    if count != (2 if pair else 1):
        raise PlaytestError(f"{study} needs exactly "
                            f"{'two tuning files' if pair else 'one tuning file'}")


def check_entry(xc: ExperimentConfig, configs: list[TuningConfig]) -> Checked:
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
    pool: TrialPool | None = None, checked: Checked | None = None,
) -> Read:
    """Check one configured study and start the groups `check_entry`
    returns; the returned function reads its outcome. `checked` is what
    `check_entry` already returned for `xc` on `configs`, if anything, so
    a suite that checks its entries as they load builds their groups once.

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
        groups, reduce = checked or check_entry(xc, configs)
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
    pool: TrialPool | None = None, checked: Checked | None = None,
) -> ExperimentOutcome:
    """Run one configured study against its parsed tuning config(s)."""
    return start_experiment(xc, configs, pool, checked)()
