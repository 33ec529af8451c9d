"""The designer studies: repeatable, seeded batch experiments.

Five studies are supported: relationship balance, career progression,
object impact, build comparison, and the A*-versus-Softmax agent
comparison. Per-trial seeds derive from the experiment's base seed
(seed = base_seed XOR trial index) so trial-level parallelism can never
change results; aggregation is an order-independent reduction over
integer action counts.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

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
from .tuning import TuningConfig, parse_tuning, serialize_tuning

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
        _check_entry_types(data)
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


# JSON types a suite entry's fields may have; an exact match, so a bool
# is no int and an int no float
_ENTRY_TYPES = {
    "id": (str,),
    "study": (str,),
    "tuning_ref": (str, list),
    "scenario": (dict,),
    "heuristic": (dict,),
    "goal": (dict,),
    "trials": (int,),
    "base_seed": (int,),
    "agent": (dict,),
    "careers": (list,),
}


def _check_entry_types(data) -> None:
    if type(data) is not dict:
        raise SuiteEntryError(f"entry: expected dict, got {type(data).__name__}")
    entry = data["id"] if type(data.get("id")) is str else "entry"
    for name, types in _ENTRY_TYPES.items():
        if name in data and type(data[name]) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise SuiteEntryError(
                f"{entry}.{name}: expected {expected}, "
                f"got {type(data[name]).__name__}"
            )


def trial_seed(base_seed: int, index: int) -> int:
    return base_seed ^ index


# ---------------------------------------------------------------------------
# Trial batches (serial or process-parallel, identical results either way)
# ---------------------------------------------------------------------------

_worker_configs: dict[str, TuningConfig] = {}


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


def _run_trial_payload(payload: tuple) -> TrialRecord:
    (config_text, scenario_dict, heuristic_dict, goal_dict,
     agent_spec, seed) = payload
    config = _worker_configs.get(config_text)
    if config is None:
        config = parse_tuning(config_text)
        _worker_configs[config_text] = config
    scenario = ScenarioOverrides.from_dict(scenario_dict)
    heuristic = HeuristicSpec.from_dict(heuristic_dict)
    goal = GoalSpec.from_dict(goal_dict)
    agent = _agent_for(agent_spec, heuristic, goal, config)
    return run_episode(config, scenario, seed, agent, goal)


def run_trials(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    heuristic: HeuristicSpec,
    goal: GoalSpec,
    agent_spec: dict,
    trials: int,
    base_seed: int,
    pool: ProcessPoolExecutor | None = None,
) -> list[TrialRecord]:
    """Run seeded trials; output order is by trial index regardless of pool."""
    if pool is None:
        agent = _agent_for(agent_spec, heuristic, goal, config)
        return [
            run_episode(config, scenario, trial_seed(base_seed, i), agent, goal)
            for i in range(trials)
        ]
    text = serialize_tuning(config)
    payloads = [
        (text, scenario.to_dict(), heuristic.to_dict(), goal.to_dict(),
         agent_spec, trial_seed(base_seed, i))
        for i in range(trials)
    ]
    return list(pool.map(_run_trial_payload, payloads, chunksize=16))


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


# --- relationship balance ---------------------------------------------------

def run_relationship_balance(
    config: TuningConfig, xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    if not any(e.kind == "relationship" for e in config.events):
        raise NoRelationshipEvents(config.build_id)
    records = run_trials(
        config, xc.scenario, xc.heuristic, xc.goal, xc.agent,
        xc.trials, xc.base_seed, pool,
    )
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
    groups = {k: AggregateStats.from_values(k, v) for k, v in values.items()}
    return ExperimentOutcome(
        experiment_id=xc.id,
        study=xc.study,
        build_ids=[config.build_id],
        groups=groups,
        extras={"category_trials": dict(sorted(category_counts.items()))},
        charts=[_bar_chart("event_actions_by_category_index", groups)],
        records=tagged,
    )


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

def run_career_progression(
    config: TuningConfig, xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    targets = _career_targets(config, xc.careers)
    groups = {}
    tagged = []
    for career, level in targets:
        goal = _career_goal(xc.goal, career, level)
        scenario = replace(xc.scenario, career=career)
        records = run_trials(
            config, scenario, xc.heuristic, goal, xc.agent,
            xc.trials, xc.base_seed, pool,
        )
        groups[career] = AggregateStats.from_values(
            career, [r.total_actions for r in records]
        )
        tagged.extend((career, i, r) for i, r in enumerate(records))
    return ExperimentOutcome(
        experiment_id=xc.id,
        study=xc.study,
        build_ids=[config.build_id],
        groups=groups,
        extras={"targets": {c: lvl for c, lvl in targets}},
        charts=[_bar_chart("total_actions_by_career", groups)],
        records=tagged,
    )


def career_progression(
    config: TuningConfig, careers: list[tuple[str, int]], xc: ExperimentConfig,
) -> dict[str, AggregateStats]:
    """Mean total actions to reach each career's target level."""
    xc = replace(
        xc, careers=[{"career": c, "target_level": lvl} for c, lvl in careers]
    )
    return run_career_progression(config, xc).groups

# --- object impact -----------------------------------------------------------

def run_object_impact(
    config: TuningConfig, xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    idx = config.index()
    targets = _career_targets(config, xc.careers)
    groups = {}
    impact = {}
    tagged = []
    for career, level in targets:
        goal = _career_goal(xc.goal, career, level)
        variants = {}
        for label, grant in (("base", False), ("objects", True)):
            scenario = replace(xc.scenario, career=career, grant_objects=grant)
            records = run_trials(
                config, scenario, xc.heuristic, goal, xc.agent,
                xc.trials, xc.base_seed, pool,
            )
            key = f"{career}/{label}"
            groups[key] = AggregateStats.from_values(
                key, [r.total_actions for r in records]
            )
            variants[label] = groups[key]
            tagged.extend((key, i, r) for i, r in enumerate(records))
        base = variants["base"].mean
        with_objects = variants["objects"].mean
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
    return ExperimentOutcome(
        experiment_id=xc.id,
        study=xc.study,
        build_ids=[config.build_id],
        groups=groups,
        extras={"impact": impact},
        charts=[_bar_chart("total_actions_base_vs_objects", groups)],
        records=tagged,
    )


def object_impact(
    config: TuningConfig, careers: list[tuple[str, int]], xc: ExperimentConfig,
) -> dict[str, tuple[float, float | None]]:
    """Per career: (actions reduction %, shared-resource cost per action saved).

    The ratio is None ("n/a") when granting objects saves nothing, e.g.
    when every object unlocks above the target level.
    """
    xc = replace(
        xc, careers=[{"career": c, "target_level": lvl} for c, lvl in careers]
    )
    outcome = run_object_impact(config, xc)
    return {
        career: (entry["actions_reduction_pct"], entry["rho_per_action_saved"])
        for career, entry in outcome.extras["impact"].items()
    }


# --- build comparison --------------------------------------------------------

def run_build_comparison(
    config_a: TuningConfig, config_b: TuningConfig, xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    for cfg in (config_a, config_b):
        idx = cfg.index()
        for entry in xc.careers:
            if entry["career"] not in idx.careers:
                raise CareerMissingInBuild(
                    f"{entry['career']!r} missing in {cfg.build_id!r}"
                )
    groups = {}
    rows = []
    tagged = []
    for cfg in (config_a, config_b):
        targets = _career_targets(cfg, xc.careers)
        for career, level in targets:
            goal = _career_goal(xc.goal, career, level)
            scenario = replace(xc.scenario, career=career)
            records = run_trials(
                cfg, scenario, xc.heuristic, goal, xc.agent,
                xc.trials, xc.base_seed, pool,
            )
            key = f"{career}/{cfg.build_id}"
            groups[key] = AggregateStats.from_values(
                key, [r.total_actions for r in records]
            )
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
            tagged.extend((key, i, r) for i, r in enumerate(records))
    return ExperimentOutcome(
        experiment_id=xc.id,
        study=xc.study,
        build_ids=[config_a.build_id, config_b.build_id],
        groups=groups,
        extras={"rows": rows},
        charts=[_bar_chart("total_actions_by_career_and_build", groups)],
        records=tagged,
    )


def build_comparison(
    config_a: TuningConfig, config_b: TuningConfig,
    careers: list[tuple[str, int]], xc: ExperimentConfig,
) -> list[dict]:
    """Table rows: career x build -> event/total actions, sessions, mean wait."""
    xc = replace(
        xc, careers=[{"career": c, "target_level": lvl} for c, lvl in careers]
    )
    return run_build_comparison(config_a, config_b, xc).extras["rows"]


# --- agent comparison --------------------------------------------------------

def _resolve_softmax_policy(
    config: TuningConfig, xc: ExperimentConfig, scenario: ScenarioOverrides,
    goal: GoalSpec, softmax_spec: dict,
) -> SoftmaxPolicy:
    if "policy" in softmax_spec:
        return SoftmaxPolicy.from_dict(softmax_spec["policy"])
    train = softmax_spec.get("train", {})
    rng = random.Random(train.get("seed", xc.base_seed))
    policy, _ = train_softmax(
        config, scenario, goal,
        episodes=train.get("episodes", 500),
        step_size=train.get("step_size", 0.02),
        rng=rng,
        temperature=softmax_spec.get("temperature", 1.0),
    )
    if "temperature" in softmax_spec:
        policy = SoftmaxPolicy(
            policy.feature_names, policy.weights, softmax_spec["temperature"]
        )
    return policy


def run_agent_comparison(
    config: TuningConfig, xc: ExperimentConfig,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    targets = _career_targets(config, xc.careers)
    astar_spec = {"kind": "astar", **xc.agent.get("astar", {})}
    softmax_spec = xc.agent.get("softmax", {})
    groups = {}
    charts = []
    tagged = []
    comparison = {}
    for career, level in targets:
        goal = _career_goal(xc.goal, career, level)
        scenario = replace(xc.scenario, career=career)
        policy = _resolve_softmax_policy(config, xc, scenario, goal, softmax_spec)
        per_agent = {}
        for label, agent_spec in (
            ("astar", astar_spec),
            ("softmax", {"kind": "softmax", "policy": policy.to_dict()}),
        ):
            records = run_trials(
                config, scenario, xc.heuristic, goal, agent_spec,
                xc.trials, xc.base_seed, pool,
            )
            key = f"{career}/{label}"
            actions = [r.total_actions for r in records]
            groups[key] = AggregateStats.from_values(key, actions)
            per_agent[label] = groups[key]
            charts.append({
                "name": f"convergence/{career}/{label}",
                "kind": "series",
                "series": running_means(actions),
            })
            tagged.extend((key, i, r) for i, r in enumerate(records))
        comparison[career] = {
            "astar": per_agent["astar"].to_dict(),
            "softmax": per_agent["softmax"].to_dict(),
            "policy": policy.to_dict(),
        }
    charts.insert(0, _bar_chart("total_actions_by_career_and_agent", groups))
    return ExperimentOutcome(
        experiment_id=xc.id,
        study=xc.study,
        build_ids=[config.build_id],
        groups=groups,
        extras={"comparison": comparison},
        charts=charts,
        records=tagged,
    )


def agent_comparison(
    config: TuningConfig, careers: list[tuple[str, int]],
    trials: int, xc: ExperimentConfig,
) -> dict[str, tuple[AggregateStats, AggregateStats]]:
    """Per career: (A* stats, Softmax stats) of total actions."""
    xc = replace(
        xc,
        trials=trials,
        careers=[{"career": c, "target_level": lvl} for c, lvl in careers],
    )
    outcome = run_agent_comparison(config, xc)
    return {
        career: (outcome.groups[f"{career}/astar"],
                 outcome.groups[f"{career}/softmax"])
        for career, _ in _career_targets(config, xc.careers)
    }


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def run_experiment(
    xc: ExperimentConfig,
    configs: list[TuningConfig],
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentOutcome:
    """Run one configured study against its parsed tuning config(s)."""
    start = time.perf_counter()
    try:
        if xc.study == "relationship_balance":
            outcome = run_relationship_balance(configs[0], xc, pool)
        elif xc.study == "career_progression":
            outcome = run_career_progression(configs[0], xc, pool)
        elif xc.study == "object_impact":
            outcome = run_object_impact(configs[0], xc, pool)
        elif xc.study == "build_comparison":
            if len(configs) != 2:
                raise PlaytestError(
                    "build_comparison needs exactly two tuning files"
                )
            outcome = run_build_comparison(configs[0], configs[1], xc, pool)
        else:
            outcome = run_agent_comparison(configs[0], xc, pool)
    except PlaytestError as exc:
        outcome = ExperimentOutcome(
            experiment_id=xc.id,
            study=xc.study,
            build_ids=[c.build_id for c in configs],
            groups={},
            extras={},
            charts=[],
            records=[],
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    outcome.duration_seconds = time.perf_counter() - start
    return outcome
