"""The designer studies: repeatable, seeded batch experiments.

Five studies are supported: relationship balance, career progression,
object impact, build comparison, and the A*-versus-Softmax agent
comparison. Per-trial seeds derive from the experiment's base seed
(seed = base_seed XOR trial index) so trial-level parallelism can never
change results; aggregation is an order-independent reduction over
integer action counts.

A study runs in two steps. `start_experiment` checks its inputs and
starts every trial batch (and every Softmax training run); the function
it returns reads the results and aggregates them. Without a pool a
batch runs as it is started. On a pool from `trial_pool`, starting only
submits jobs, so a suite can hand the pool every job before it reads
any result. Each pool worker receives the suite's parsed builds once,
through the pool initializer. A job carries one group (its build's key
instead of the build, scenario, heuristic, goal and agent spec) and a
slice of the batch's seeds. Serial and pooled batches run through one
runner, which builds one agent for all the seeds it is given, so an A*
planner's memo serves every trial of a chunk.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

from .agents import (
    AStarPlanner,
    GoalSpec,
    HeuristicSpec,
    SoftmaxPlanner,
    SoftmaxPolicy,
    TrialRecord,
    run_episode,
    train_softmax,
)
from .errors import (
    CareerMissingInBuild,
    NoRelationshipEvents,
    PlaytestError,
    SuiteEntryError,
    TargetAboveCap,
    UnknownCareer,
)
from .sim import ScenarioOverrides
from .tuning import TuningConfig
from .tuning import serialize_tuning  # noqa: F401  wrapped by perfbench/tracing.py

STUDIES = (
    "relationship_balance",
    "career_progression",
    "object_impact",
    "build_comparison",
    "agent_comparison",
)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class AggregateStats:
    group_key: str
    count: int
    mean: float
    variance: float  # population variance
    min: float
    max: float

    @classmethod
    def from_values(cls, group_key: str, values: list) -> "AggregateStats":
        if not values:
            raise ValueError("AggregateStats requires at least one value")
        n = len(values)
        total = sum(values)
        mean = total / n
        # exact integer sums keep the reduction order-independent
        sumsq = sum(v * v for v in values)
        variance = (sumsq - total * total / n) / n
        return cls(
            group_key=group_key,
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

@dataclass
class ExperimentConfig:
    id: str
    study: str
    tuning_ref: list[str]  # one path, or two for build comparison
    scenario: ScenarioOverrides
    heuristic: HeuristicSpec
    goal: GoalSpec
    trials: int
    base_seed: int
    agent: dict
    careers: list[dict] = field(default_factory=list)  # {"career", "target_level"}

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        name = data.get("id") if type(data) is dict else None
        _check_json(data, _ENTRY_SCHEMA, name if type(name) is str else "entry")
        ref = data["tuning_ref"]
        return cls(
            id=data["id"],
            study=data["study"],
            tuning_ref=[ref] if isinstance(ref, str) else list(ref),
            scenario=ScenarioOverrides.from_dict(data.get("scenario", {})),
            heuristic=HeuristicSpec.from_dict(data.get("heuristic", {"weights": {}})),
            goal=GoalSpec.from_dict(data["goal"]),
            trials=data.get("trials", 1),
            base_seed=data.get("base_seed", 0),
            agent=dict(data.get("agent", {"kind": "astar"})),
            careers=[dict(c) for c in data.get("careers", [])],
        )

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "study": self.study,
            "tuning_ref": list(self.tuning_ref),
            "scenario": self.scenario.to_dict(),
            "heuristic": self.heuristic.to_dict(),
            "goal": self.goal.to_dict(),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "agent": dict(self.agent),
            "careers": [dict(c) for c in self.careers],
        }


# The JSON types of a suite entry, matched exactly, so a bool is no int and
# an int no float. A type stands for itself; a dict of field names for an
# object whose listed fields are checked when present; {str: schema} for an
# object of any keys; [schema] for a list; a tuple for alternatives. Fields
# that default to None may be null.
_NUMBER = (float, int)
_STR_OR_NULL = (str, type(None))
_INT_OR_NULL = (int, type(None))
_POLICY = {"feature_names": [str], "weights": [_NUMBER], "temperature": _NUMBER}
_ENTRY_SCHEMA = {
    "id": str,
    "study": str,
    "tuning_ref": (str, [str]),
    "scenario": {
        "career": _STR_OR_NULL, "relationship_category": _STR_OR_NULL,
        "grant_objects": bool, "initial_resources": {str: int},
    },
    "heuristic": {"weights": {str: _NUMBER}, "normalization": {str: _NUMBER}},
    "goal": {
        "kind": str, "career": _STR_OR_NULL, "level": _INT_OR_NULL,
        "category": _STR_OR_NULL, "chain_length": _INT_OR_NULL,
        "event": _STR_OR_NULL, "max_minutes": int, "max_actions": int,
    },
    "trials": int,
    "base_seed": int,
    "agent": {
        "kind": str,
        "node_budget": int,
        "policy": _POLICY,
        "astar": {"node_budget": int},
        "softmax": {
            "temperature": _NUMBER,
            "policy": _POLICY,
            "train": {"episodes": int, "step_size": _NUMBER, "seed": int},
        },
    },
    "careers": [{"career": str, "target_level": int}],
}


def _check_json(value, schema, path: str) -> None:
    """Raise SuiteEntryError("<path>: expected <type>, got <type>") on a mismatch."""
    options = schema if type(schema) is tuple else (schema,)
    kinds = [option if type(option) is type else type(option) for option in options]
    for option, kind in zip(options, kinds):
        if type(value) is not kind:
            continue
        if kind is list:
            for i, item in enumerate(value):
                _check_json(item, option[0], f"{path}[{i}]")
        elif kind is dict:
            for key, item in value.items():
                inner = option.get(str, option.get(key))
                if inner is not None:
                    _check_json(item, inner, f"{path}.{key}")
        return
    expected = " or ".join(kind.__name__ for kind in kinds)
    raise SuiteEntryError(
        f"{path}: expected {expected}, got {type(value).__name__}")


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
    return ProcessPoolExecutor(
        max_workers=min(workers, _available_cpus()),
        initializer=_install_builds,
        initargs=({id(config): config for config in configs},),
    )


def _agent_for(agent_spec: dict, heuristic: HeuristicSpec, goal: GoalSpec,
               config: TuningConfig):
    kind = agent_spec.get("kind", "astar")
    if kind == "astar":
        return AStarPlanner(
            heuristic, goal, agent_spec.get("node_budget", 2000)
        )
    if kind == "softmax":
        policy = SoftmaxPolicy.from_dict(agent_spec["policy"])
        return SoftmaxPlanner(policy, config)
    raise ValueError(f"unknown agent kind {kind!r}")


def _run_seeds(
    config: TuningConfig, scenario: ScenarioOverrides, heuristic: HeuristicSpec,
    goal: GoalSpec, agent_spec: dict, seeds: list[int],
) -> list[TrialRecord]:
    """One group's trials for `seeds`, in order, all played by one agent."""
    agent = _agent_for(agent_spec, heuristic, goal, config)
    return [run_episode(config, scenario, seed, agent, goal) for seed in seeds]


def _run_seeds_in_worker(payload: tuple) -> list[TrialRecord]:
    key, *group = payload
    return _run_seeds(_worker_builds[key], *group)


def run_trials(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    heuristic: HeuristicSpec,
    goal: GoalSpec,
    agent_spec: dict,
    trials: int,
    base_seed: int,
    pool: ProcessPoolExecutor | None = None,
) -> Iterable[TrialRecord]:
    """Run seeded trials; records come in trial index order either way.

    Without a pool the trials run now, one agent serving them all, and the
    list of records is returned. With a pool from `trial_pool` the seeds
    are cut into chunks of consecutive trials, about four per worker, and
    each chunk is submitted as one job that plays its trials with one
    agent. The returned iterator yields each record when it is read,
    waiting for its chunk if need be; read it once. An exception in a
    chunk is raised when the chunk's first record is read.
    """
    seeds = [trial_seed(base_seed, i) for i in range(trials)]
    if pool is None:
        return _run_seeds(config, scenario, heuristic, goal, agent_spec, seeds)
    # sized as multiprocessing.Pool.map sizes its chunks
    size = max(1, -(-trials // (4 * pool._max_workers)))
    chunks = pool.map(_run_seeds_in_worker, [
        (id(config), scenario, heuristic, goal, agent_spec, seeds[i:i + size])
        for i in range(0, trials, size)
    ])
    return itertools.chain.from_iterable(chunks)


def _train_policy(
    config: TuningConfig, scenario: ScenarioOverrides, goal: GoalSpec,
    episodes: int, step_size: float, seed: int, temperature: float,
) -> SoftmaxPolicy:
    policy, _ = train_softmax(
        config, scenario, goal, episodes=episodes, step_size=step_size,
        rng=random.Random(seed), temperature=temperature,
    )
    return policy


def _train_in_worker(key: int, *args) -> SoftmaxPolicy:
    return _train_policy(_worker_builds[key], *args)


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
    return ExperimentOutcome(
        experiment_id=experiment_id,
        study=study,
        build_ids=list(build_ids),
        groups={},
        extras={},
        charts=[],
        records=[],
        status="failed",
        error=f"{type(exc).__name__}: {exc}",
    )


def _outcome(
    xc: ExperimentConfig, configs: list[TuningConfig],
    groups: dict[str, AggregateStats], extras: dict, charts: list[dict],
    records: list[tuple[str, int, TrialRecord]],
) -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment_id=xc.id,
        study=xc.study,
        build_ids=[c.build_id for c in configs],
        groups=groups,
        extras=extras,
        charts=charts,
        records=records,
    )


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


def _career_targets(config: TuningConfig, careers: list[dict]) -> list[tuple[str, int]]:
    idx = config.index()
    out = []
    for entry in careers:
        cid = entry["career"]
        spec = idx.careers.get(cid)
        if spec is None:
            raise UnknownCareer(cid)
        target = entry.get("target_level", spec.max_level)
        if target > spec.max_level:
            raise TargetAboveCap(f"{cid}: level {target} > cap {spec.max_level}")
        out.append((cid, target))
    return out


def _career_goal(template: GoalSpec, career: str, level: int) -> GoalSpec:
    return GoalSpec(
        kind="career_level_reached",
        career=career,
        level=level,
        max_minutes=template.max_minutes,
        max_actions=template.max_actions,
    )


# --- group batches -----------------------------------------------------------
# The career-style studies run one batch of xc.trials trials per group:
# (key, config, scenario, goal, agent spec). Each group's statistics are
# over its trials' total actions.

Batches = list[tuple[str, Iterable[TrialRecord]]]
Done = list[tuple[str, list[TrialRecord]]]


def _start_batches(
    xc: ExperimentConfig, pool: ProcessPoolExecutor | None, groups: list[tuple],
) -> Batches:
    return [
        (key, run_trials(config, scenario, xc.heuristic, goal, agent,
                         xc.trials, xc.base_seed, pool))
        for key, config, scenario, goal, agent in groups
    ]


def _read_batches(batches: Batches) -> Done:
    return [(key, list(records)) for key, records in batches]


def _action_stats(done: Done) -> dict[str, AggregateStats]:
    return {
        key: AggregateStats.from_values(key, [r.total_actions for r in records])
        for key, records in done
    }


def _tagged(done: Done) -> list[tuple[str, int, TrialRecord]]:
    return [(key, i, r) for key, records in done for i, r in enumerate(records)]


Read = Callable[[], ExperimentOutcome]


def _with_careers(
    xc: ExperimentConfig, careers: list[tuple[str, int]],
) -> ExperimentConfig:
    """xc with its careers given as (career, target level) pairs."""
    return replace(
        xc, careers=[{"career": c, "target_level": lvl} for c, lvl in careers]
    )


# --- relationship balance ---------------------------------------------------

def _start_relationship_balance(
    configs: list[TuningConfig], xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None,
) -> Read:
    config = configs[0]
    if not any(e.kind == "relationship" for e in config.events):
        raise NoRelationshipEvents(config.build_id)
    batch = run_trials(
        config, xc.scenario, xc.heuristic, xc.goal, xc.agent,
        xc.trials, xc.base_seed, pool,
    )

    def read() -> ExperimentOutcome:
        values: dict[str, list[int]] = {}
        category_counts: dict[str, int] = {}
        tagged = []
        for i, record in enumerate(batch):
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
        groups = {k: AggregateStats.from_values(k, v) for k, v in values.items()}
        return _outcome(
            xc, [config], groups,
            {"category_trials": dict(sorted(category_counts.items()))},
            [_bar_chart("event_actions_by_category_index", groups)], tagged,
        )

    return read


def run_relationship_balance(
    config: TuningConfig, xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    return _start_relationship_balance([config], xc, pool)()


def relationship_balance(
    config: TuningConfig, xc: ExperimentConfig,
) -> dict[tuple[str, int], AggregateStats]:
    """Mean event actions grouped by (category, event index in the chain)."""
    outcome = run_relationship_balance(config, xc)
    out = {}
    for key, stats in outcome.groups.items():
        category, index = key.rsplit("/", 1)
        out[(category, int(index))] = stats
    return out


# --- career progression -----------------------------------------------------

def _start_career_progression(
    configs: list[TuningConfig], xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None,
) -> Read:
    config = configs[0]
    targets = _career_targets(config, xc.careers)
    batches = _start_batches(xc, pool, [
        (career, config, replace(xc.scenario, career=career),
         _career_goal(xc.goal, career, level), xc.agent)
        for career, level in targets
    ])

    def read() -> ExperimentOutcome:
        done = _read_batches(batches)
        groups = _action_stats(done)
        return _outcome(
            xc, [config], groups, {"targets": dict(targets)},
            [_bar_chart("total_actions_by_career", groups)], _tagged(done),
        )

    return read


def career_progression(
    config: TuningConfig, careers: list[tuple[str, int]], xc: ExperimentConfig,
) -> dict[str, AggregateStats]:
    """Mean total actions to reach each career's target level."""
    xc = _with_careers(xc, careers)
    return _start_career_progression([config], xc, None)().groups


# --- object impact -----------------------------------------------------------

def _start_object_impact(
    configs: list[TuningConfig], xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None,
) -> Read:
    config = configs[0]
    targets = _career_targets(config, xc.careers)
    batches = _start_batches(xc, pool, [
        (f"{career}/{label}", config,
         replace(xc.scenario, career=career, grant_objects=grant),
         _career_goal(xc.goal, career, level), xc.agent)
        for career, level in targets
        for label, grant in (("base", False), ("objects", True))
    ])

    def read() -> ExperimentOutcome:
        done = _read_batches(batches)
        groups = _action_stats(done)
        idx = config.index()
        impact = {}
        for career, level in targets:
            base = groups[f"{career}/base"].mean
            with_objects = groups[f"{career}/objects"].mean
            saved = base - with_objects
            granted = [
                u for u in idx.careers[career].object_unlocks
                if u.unlock_level <= level
            ]
            price_total = sum(u.price_rho for u in granted)
            impact[career] = {
                "base_mean": base,
                "objects_mean": with_objects,
                "actions_reduction_pct": (saved / base * 100.0) if base else 0.0,
                "rho_per_action_saved": (price_total / saved) if saved > 0 else None,
                "rho_spent": price_total,
                "objects_granted": sorted(u.object_id for u in granted),
            }
        return _outcome(
            xc, [config], groups, {"impact": impact},
            [_bar_chart("total_actions_base_vs_objects", groups)], _tagged(done),
        )

    return read


def object_impact(
    config: TuningConfig, careers: list[tuple[str, int]], xc: ExperimentConfig,
) -> dict[str, tuple[float, float | None]]:
    """Per career: (actions reduction %, shared-resource cost per action saved).

    The ratio is None ("n/a") when granting objects saves nothing, e.g.
    when every object unlocks above the target level.
    """
    outcome = _start_object_impact([config], _with_careers(xc, careers), None)()
    return {
        career: (entry["actions_reduction_pct"], entry["rho_per_action_saved"])
        for career, entry in outcome.extras["impact"].items()
    }


# --- build comparison --------------------------------------------------------

def _start_build_comparison(
    configs: list[TuningConfig], xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None,
) -> Read:
    if len(configs) != 2:
        raise PlaytestError("build_comparison needs exactly two tuning files")
    for cfg in configs:
        idx = cfg.index()
        for entry in xc.careers:
            if entry["career"] not in idx.careers:
                raise CareerMissingInBuild(
                    f"{entry['career']!r} missing in {cfg.build_id!r}"
                )
    cells = [
        (cfg, career, level)
        for cfg in configs
        for career, level in _career_targets(cfg, xc.careers)
    ]
    batches = _start_batches(xc, pool, [
        (f"{career}/{cfg.build_id}", cfg, replace(xc.scenario, career=career),
         _career_goal(xc.goal, career, level), xc.agent)
        for cfg, career, level in cells
    ])

    def read() -> ExperimentOutcome:
        done = _read_batches(batches)
        rows = []
        for (cfg, career, _), (_, records) in zip(cells, done):
            all_waits = [w for r in records for w in r.wait_intervals]
            rows.append({
                "build": cfg.build_id,
                "career": career,
                "event_actions": sum(r.event_actions for r in records) / len(records),
                "total_actions": sum(r.total_actions for r in records) / len(records),
                "sessions": sum(r.sessions for r in records) / len(records),
                "mean_wait_minutes": (
                    sum(all_waits) / len(all_waits) if all_waits else 0.0
                ),
            })
        groups = _action_stats(done)
        return _outcome(
            xc, configs, groups, {"rows": rows},
            [_bar_chart("total_actions_by_career_and_build", groups)], _tagged(done),
        )

    return read


def build_comparison(
    config_a: TuningConfig, config_b: TuningConfig,
    careers: list[tuple[str, int]], xc: ExperimentConfig,
) -> list[dict]:
    """Table rows: career x build -> event/total actions, sessions, mean wait."""
    xc = _with_careers(xc, careers)
    return _start_build_comparison([config_a, config_b], xc, None)().extras["rows"]


# --- agent comparison --------------------------------------------------------

def _start_policy(
    config: TuningConfig, xc: ExperimentConfig, scenario: ScenarioOverrides,
    goal: GoalSpec, pool: ProcessPoolExecutor | None,
) -> Callable[[], SoftmaxPolicy]:
    """Start training one career's Softmax policy, unless the entry gives it."""
    spec = xc.agent.get("softmax", {})
    if "policy" in spec:
        policy = SoftmaxPolicy.from_dict(spec["policy"])
        return lambda: policy
    train = spec.get("train", {})
    args = (
        scenario, goal, train.get("episodes", 500), train.get("step_size", 0.02),
        train.get("seed", xc.base_seed), spec.get("temperature", 1.0),
    )
    if pool is None:
        policy = _train_policy(config, *args)
        return lambda: policy
    return pool.submit(_train_in_worker, id(config), *args).result


def _start_agent_comparison(
    configs: list[TuningConfig], xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None,
) -> Read:
    config = configs[0]
    astar_spec = {"kind": "astar", **xc.agent.get("astar", {})}
    cells = []
    for career, level in _career_targets(config, xc.careers):
        goal = _career_goal(xc.goal, career, level)
        scenario = replace(xc.scenario, career=career)
        # training goes first: each Softmax batch waits for its policy
        cells.append((career, scenario, goal,
                      _start_policy(config, xc, scenario, goal, pool)))
    astar = _start_batches(xc, pool, [
        (f"{career}/astar", config, scenario, goal, astar_spec)
        for career, scenario, goal, _ in cells
    ])

    def read() -> ExperimentOutcome:
        policies = [policy() for *_, policy in cells]
        softmax = _start_batches(xc, pool, [
            (f"{career}/softmax", config, scenario, goal,
             {"kind": "softmax", "policy": policy.to_dict()})
            for (career, scenario, goal, _), policy in zip(cells, policies)
        ])
        done = _read_batches([b for pair in zip(astar, softmax) for b in pair])
        groups = _action_stats(done)
        charts = [_bar_chart("total_actions_by_career_and_agent", groups)] + [
            {"name": f"convergence/{key}", "kind": "series",
             "series": running_means([r.total_actions for r in records])}
            for key, records in done
        ]
        comparison = {
            career: {
                "astar": groups[f"{career}/astar"].to_dict(),
                "softmax": groups[f"{career}/softmax"].to_dict(),
                "policy": policy.to_dict(),
            }
            for (career, *_), policy in zip(cells, policies)
        }
        return _outcome(
            xc, [config], groups, {"comparison": comparison}, charts, _tagged(done),
        )

    return read


def agent_comparison(
    config: TuningConfig, careers: list[tuple[str, int]],
    trials: int, xc: ExperimentConfig,
) -> dict[str, tuple[AggregateStats, AggregateStats]]:
    """Per career: (A* stats, Softmax stats) of total actions."""
    xc = replace(_with_careers(xc, careers), trials=trials)
    outcome = _start_agent_comparison([config], xc, None)()
    return {
        career: (outcome.groups[f"{career}/astar"],
                 outcome.groups[f"{career}/softmax"])
        for career, _ in careers
    }


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_STUDY_STARTS: dict[str, Callable[..., Read]] = {
    "relationship_balance": _start_relationship_balance,
    "career_progression": _start_career_progression,
    "object_impact": _start_object_impact,
    "build_comparison": _start_build_comparison,
    "agent_comparison": _start_agent_comparison,
}


def start_experiment(
    xc: ExperimentConfig,
    configs: list[TuningConfig],
    pool: ProcessPoolExecutor | None = None,
) -> Read:
    """Start one configured study; the returned function reads its outcome.

    A PlaytestError raised while starting or reading becomes a failed
    outcome naming the builds. The outcome's duration runs from the start
    to the last result read.
    """
    started = time.perf_counter()

    def fail(exc: PlaytestError) -> ExperimentOutcome:
        return failed_outcome(xc.id, xc.study, exc, [c.build_id for c in configs])

    try:
        read = _STUDY_STARTS[xc.study](configs, xc, pool)
    except PlaytestError as exc:
        read = partial(fail, exc)

    def finish() -> ExperimentOutcome:
        try:
            outcome = read()
        except PlaytestError as exc:
            outcome = fail(exc)
        outcome.duration_seconds = time.perf_counter() - started
        return outcome

    return finish


def run_experiment(
    xc: ExperimentConfig,
    configs: list[TuningConfig],
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    """Run one configured study against its parsed tuning config(s)."""
    return start_experiment(xc, configs, pool)()
