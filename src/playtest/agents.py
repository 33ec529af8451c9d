"""Planning agents: bounded receding-horizon A* and a Softmax baseline.

The A* planner replans before every single move inside a node budget,
committing only the first edge of the best plan found. Search edges are
the legal actions plus at most one wait edge (to the next availability
when idle, to the event deadline while an event runs). Frontier ties on
f are broken by a uniform random draw from the caller's seeded rng, so
identical seeds give identical decisions. Between moves the planner
keeps the node expansions of its last search, keyed by the node's dedup
key, action count and auto-grant flag, so a replan asks the engine only
for states that search never expanded. The search itself is unchanged,
and so is every decision; the memo holds at most one search's entries.

The Softmax agent samples moves in proportion to exp(utility/temperature)
where utility is a learned linear function of normalized action
parameters; training is stochastic gradient ascent on episode return.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field, replace

from .sim import (
    TRACE_WAIT,
    GameState,
    ScenarioOverrides,
    advance_time,
    close_session_if_idle,
    event_log_entries,
    initial_state,
    legal_actions,
    next_availability,
    state_digest,
    step_action,
)
from .tuning import TuningConfig

DEFAULT_NODE_BUDGET = 2000


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------

GOAL_KINDS = (
    "career_level_reached",
    "relationship_chain_done",
    "any_relationship_chain_done",
    "event_completed",
)


@dataclass
class GoalSpec:
    """Termination predicate for an experiment plus hard episode limits."""

    kind: str
    career: str | None = None
    level: int | None = None
    category: str | None = None
    chain_length: int | None = None
    event: str | None = None
    max_minutes: int = 100_000
    max_actions: int = 10_000

    def __post_init__(self):
        if self.kind not in GOAL_KINDS:
            raise ValueError(f"unknown goal kind {self.kind!r}")
        if self.max_minutes <= 0 or self.max_actions <= 0:
            raise ValueError("hard limits must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "GoalSpec":
        return cls(
            kind=data["kind"],
            career=data.get("career"),
            level=data.get("level"),
            category=data.get("category"),
            chain_length=data.get("chain_length"),
            event=data.get("event"),
            max_minutes=data.get("max_minutes", 100_000),
            max_actions=data.get("max_actions", 10_000),
        )

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "max_minutes": self.max_minutes,
               "max_actions": self.max_actions}
        for key in ("career", "level", "category", "chain_length", "event"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def goal_satisfied(goal: GoalSpec, state: GameState) -> bool:
    if goal.kind == "career_level_reached":
        career = state.career
        return (career is not None and career.id == goal.career
                and career.level >= goal.level)
    if goal.kind == "relationship_chain_done":
        rel = state.relationship
        return rel.category == goal.category and rel.completed >= goal.chain_length
    if goal.kind == "any_relationship_chain_done":
        return state.relationship.completed >= goal.chain_length
    return goal.event in state.events_completed


# ---------------------------------------------------------------------------
# Decisions and edges
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Decision:
    kind: str  # "act" | "wait" | "stop"
    action: str | None = None
    until: int | None = None
    reason: str | None = None

    @classmethod
    def act(cls, action: str) -> "Decision":
        return cls("act", action=action)

    @classmethod
    def wait(cls, until: int) -> "Decision":
        return cls("wait", until=until)

    @classmethod
    def stop(cls, reason: str) -> "Decision":
        return cls("stop", reason=reason)


def _timeout_pays(config: TuningConfig, event) -> bool:
    spec = config.index().events[event.event_id]
    for step in spec.steps:
        if step.xp_threshold > event.accrued_xp:
            break
        reward = step.reward
        if (reward.career_xp or reward.relationship_xp
                or reward.resources or reward.items):
            return True
    return False


def decision_edges(
    config: TuningConfig, state: GameState
) -> list[tuple[Decision, GameState]]:
    """Every move available from a state, with its successor.

    Act edges apply the action and let its duration elapse. When some
    action is playable there is additionally a wait edge to the active
    event's deadline, offered once the event has banked a step that
    would actually pay out (timing out an event for nothing is never
    part of a deliberate plan, and pruning it keeps truncated searches
    off junk branches). When nothing is playable the single wait edge
    jumps to the next availability, which already accounts for the
    deadline.
    """
    acts = legal_actions(config, state)
    out = []
    if acts:
        for aid in acts:
            out.append((Decision.act(aid), step_action(config, state, aid)))
        event = state.active_event
        if (
            event is not None
            and event.deadline > state.clock
            and _timeout_pays(config, event)
        ):
            out.append((
                Decision.wait(event.deadline),
                advance_time(config, state, event.deadline),
            ))
    else:
        target = next_availability(config, state)
        if target is not None and target > state.clock:
            out.append((
                Decision.wait(target),
                advance_time(config, state, target),
            ))
    return out


# ---------------------------------------------------------------------------
# Heuristic
# ---------------------------------------------------------------------------

HEURISTIC_TERMS = (
    "career_xp",
    "career_level",
    "career_event_complete",
    "event_xp",
    "relationship_xp",
    "relationship_event_complete",
)


@dataclass
class HeuristicSpec:
    """Weighted remaining-quantity terms; crafted items use crafted_item:<id>."""

    weights: dict[str, float]
    normalization: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for term, weight in self.weights.items():
            if not math.isfinite(weight):
                raise ValueError(f"weight for {term!r} is not finite")

    @classmethod
    def from_dict(cls, data: dict) -> "HeuristicSpec":
        return cls(
            weights=dict(data.get("weights", {})),
            normalization=dict(data.get("normalization", {})),
        )

    def to_dict(self) -> dict:
        out: dict = {"weights": dict(self.weights)}
        if self.normalization:
            out["normalization"] = dict(self.normalization)
        return out


def _default_scale(term: str, config: TuningConfig) -> float:
    idx = config.index()
    if term == "career_xp":
        return float(max(1, idx.max_career_xp))
    if term == "event_xp":
        return float(max(1, idx.max_event_xp))
    if term == "relationship_xp":
        return float(max(1, idx.max_relationship_xp))
    if term.startswith("crafted_item:"):
        item = term.split(":", 1)[1]
        return float(max(1, idx.max_item_yield.get(item, 0)))
    return 1.0


def _chain_event_xp_remaining(
    config: TuningConfig, state: GameState, goal: GoalSpec
) -> int:
    """Optimistic event XP still to accrue before the chain goal.

    Uses the cheapest qualifying category and credits accrued XP against
    it unconditionally. Deliberately blind to the category lock: the
    estimate never exceeds the locked chain's true remainder, and it
    keeps same-depth search branches tied across symmetric categories,
    which is what lets repeated seeded runs sample every category.
    """
    idx = config.index()
    rel = state.relationship
    needed = goal.chain_length - rel.completed
    if needed <= 0:
        return 0

    def chain_total(category: str) -> int:
        chain = idx.relationships[category].event_chain
        span = chain[rel.completed:goal.chain_length]
        return sum(idx.events[eid].final_threshold for eid in span)

    if goal.kind == "relationship_chain_done":
        total = chain_total(rel.category or goal.category)
    else:
        total = min(
            (chain_total(c.id) for c in config.relationships
             if len(c.event_chain) >= goal.chain_length),
            default=0,
        )
    event = state.active_event
    if event is not None and idx.chain_position.get(event.event_id) is not None:
        total -= event.accrued_xp
    return max(0, total)


def _chain_relationship_xp_remaining(
    config: TuningConfig, state: GameState, goal: GoalSpec
) -> int:
    """Relationship XP still collectible from the chain steps before the goal."""
    idx = config.index()
    rel = state.relationship
    needed = goal.chain_length - rel.completed
    if needed <= 0:
        return 0

    def chain_steps(category: str) -> int:
        chain = idx.relationships[category].event_chain
        return sum(
            step.reward.relationship_xp
            for eid in chain[rel.completed:goal.chain_length]
            for step in idx.events[eid].steps
        )

    if goal.kind == "relationship_chain_done":
        return chain_steps(rel.category or goal.category)
    return min(
        (chain_steps(c.id) for c in config.relationships
         if len(c.event_chain) >= goal.chain_length),
        default=0,
    )


def _term_remaining(
    term: str, config: TuningConfig, state: GameState, goal: GoalSpec
) -> float:
    idx = config.index()
    if term.startswith("crafted_item:"):
        item = term.split(":", 1)[1]
        return float(max(0, 1 - state.inventory.get(item, 0)))

    if goal.kind == "career_level_reached":
        spec = idx.careers[goal.career]
        if state.career is not None and state.career.id == goal.career:
            level, xp = state.career.level, state.career.xp
        else:
            level, xp = 1, 0
        if term == "career_xp":
            return float(max(0, spec.xp_for_level(goal.level) - xp))
        if term == "career_level":
            return float(max(0, goal.level - level))
        if term == "event_xp" and state.active_event is not None:
            event = idx.events[state.active_event.event_id]
            return float(max(0, event.final_threshold
                             - state.active_event.accrued_xp))
        return 0.0

    if goal.kind in ("relationship_chain_done", "any_relationship_chain_done"):
        if term == "relationship_event_complete":
            return float(max(0, goal.chain_length - state.relationship.completed))
        if term == "event_xp":
            return float(_chain_event_xp_remaining(config, state, goal))
        if term == "relationship_xp":
            return float(_chain_relationship_xp_remaining(config, state, goal))
        return 0.0

    # event_completed
    if goal.event in state.events_completed:
        return 0.0
    event = idx.events[goal.event]
    if term == "event_xp":
        active = state.active_event
        if active is not None and active.event_id == goal.event:
            return float(max(0, event.final_threshold - active.accrued_xp))
        return float(event.final_threshold)
    if term == "career_event_complete" and event.kind == "career":
        return 1.0
    if term == "relationship_event_complete" and event.kind == "relationship":
        return 1.0
    return 0.0


def build_evaluator(
    spec: HeuristicSpec, config: TuningConfig, goal: GoalSpec
):
    """Bind a heuristic to one config and goal; returns state -> float."""
    terms = [
        (term, weight,
         spec.normalization.get(term) or _default_scale(term, config))
        for term, weight in sorted(spec.weights.items())
        if weight != 0.0
    ]

    def evaluate(state: GameState) -> float:
        if goal_satisfied(goal, state):
            return 0.0
        total = 0.0
        for term, weight, scale in terms:
            remaining = _term_remaining(term, config, state, goal)
            if remaining:
                total += weight * remaining / scale
        return total

    return evaluate


def heuristic_eval(
    spec: HeuristicSpec, config: TuningConfig, state: GameState, goal: GoalSpec
) -> float:
    """Estimated actions remaining to the goal; 0 iff the goal is satisfied."""
    return build_evaluator(spec, config, goal)(state)


# ---------------------------------------------------------------------------
# Bounded A*
# ---------------------------------------------------------------------------

def _within_limits(goal: GoalSpec, state: GameState) -> bool:
    return (state.clock <= goal.max_minutes
            and state.counters.total_actions <= goal.max_actions)


def _astar_search(
    config: TuningConfig,
    state: GameState,
    heuristic: HeuristicSpec,
    goal: GoalSpec,
    node_budget: int,
    rng: random.Random,
    memo: dict,
) -> tuple[Decision, int, dict]:
    """Run one bounded best-first search.

    `memo` maps a node's (dedup key, action count, auto-grant flag) to
    its edge list, each edge a [decision, child, child key, child
    heuristic or None] list, as an earlier search under the same config
    built it. Returns (decision, nodes expanded, memo of the entries this
    search used).
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    if goal_satisfied(goal, state):
        return Decision.stop("goal_reached"), 0, {}
    if not _within_limits(goal, state):
        return Decision.stop("hard_limit"), 0, {}

    used: dict[tuple, list] = {}

    def edges_of(key: tuple, node: GameState) -> list:
        memo_key = (key, node.counters.total_actions, node.auto_grant_objects)
        edges = memo.get(memo_key)
        if edges is None:
            edges = [[decision, child, child.dedup_key(), None]
                     for decision, child in decision_edges(config, node)]
        used[memo_key] = edges
        return edges

    root_key = state.dedup_key()
    root_edges = edges_of(root_key, state)
    if not root_edges:
        return Decision.stop("deadlock"), 0, used

    evaluate = build_evaluator(heuristic, config, goal)
    root_actions = state.counters.total_actions
    root_clock = state.clock

    # heap entries: (f, elapsed, tie, seq, g, key, state, first decision)
    seq = 0
    heap: list[tuple] = []
    closed: dict[tuple, int] = {root_key: 0}
    expanded = 1  # the root expansion above
    out_of_budget = False

    def push(edge: list, first) -> None:
        nonlocal seq
        decision, child, key, h = edge
        if not _within_limits(goal, child):
            return
        child_g = child.counters.total_actions - root_actions
        best = closed.get(key)
        if best is not None and best <= child_g:
            return
        if h is None:
            h = edge[3] = evaluate(child)
        seq += 1
        heapq.heappush(heap, (
            child_g + h,
            child.clock - root_clock,
            rng.random(),
            seq,
            child_g,
            key,
            child,
            first if first is not None else decision,
        ))

    for edge in root_edges:
        push(edge, None)

    while heap:
        f, elapsed, tie, _, g, key, node, first = heapq.heappop(heap)
        best = closed.get(key)
        if best is not None and best <= g:
            continue
        if goal_satisfied(goal, node):
            return first, expanded, used
        if expanded >= node_budget:
            heapq.heappush(heap, (f, elapsed, tie, -1, g, key, node, first))
            out_of_budget = True
            break
        closed[key] = g
        expanded += 1
        for edge in edges_of(key, node):
            push(edge, first)

    # Budget ran out (or the goal is unreachable in the explored region):
    # head toward the best frontier node, ranked by f, then fewest actions,
    # then least elapsed time, then the random tie number already drawn.
    best_entry = None
    for f, elapsed, tie, _, g, key, node, first in heap:
        if first is None:
            continue
        prev = closed.get(key)
        if prev is not None and prev <= g:
            continue
        rank = (f, g, elapsed, tie)
        if best_entry is None or rank < best_entry[0]:
            best_entry = (rank, first)
    if best_entry is not None:
        return best_entry[1], expanded, used
    if out_of_budget:
        return Decision.stop("budget_exhausted"), expanded, used
    return Decision.stop("search_exhausted"), expanded, used


def astar_decide(
    config: TuningConfig,
    state: GameState,
    heuristic: HeuristicSpec,
    goal: GoalSpec,
    node_budget: int = DEFAULT_NODE_BUDGET,
    rng: random.Random | None = None,
) -> Decision:
    """Pick the next move by bounded A* over game states."""
    decision, _, _ = _astar_search(
        config, state, heuristic, goal, node_budget, rng or random.Random(0), {}
    )
    return decision


class AStarPlanner:
    """Receding-horizon planner: a fresh bounded search before every move.

    The planner keeps the node expansions of its last search. The next
    search, rooted one move further on, takes a node's successors and
    their heuristic values from there instead of asking the engine
    again. The key is (dedup key, action count, auto-grant flag): the
    dedup key holds everything that shapes future dynamics, the action
    count fixes g and the action limit, and the auto-grant flag changes
    successors without being part of the dedup key. So every lookup
    yields the successors a fresh expansion would build, the search
    pushes and pops in the same order and draws the same tie numbers,
    and its decisions and expansion counts are those of `astar_decide`.
    After each decision only the entries that search used are kept, at
    most `last_expanded + 1` of them; a call with another config starts
    from none.
    """

    name = "astar"

    def __init__(
        self,
        heuristic: HeuristicSpec,
        goal: GoalSpec,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ):
        self.heuristic = heuristic
        self.goal = goal
        self.node_budget = node_budget
        self.last_expanded = 0
        self._memo_config: TuningConfig | None = None
        self._memo: dict = {}

    def decide(
        self, config: TuningConfig, state: GameState, rng: random.Random
    ) -> Decision:
        if config is not self._memo_config:
            self._memo_config, self._memo = config, {}
        decision, self.last_expanded, self._memo = _astar_search(
            config, state, self.heuristic, self.goal, self.node_budget, rng,
            self._memo,
        )
        return decision


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    """Full outcome of one simulated playthrough."""

    seed: int
    agent: str
    goal_reached: bool
    reason: str
    total_actions: int
    event_actions: int
    sessions: int
    wait_intervals: list[int]
    clock: int
    event_log: list
    decisions: int
    max_nodes_expanded: int
    max_decision_seconds: float
    state_digest: str

    @property
    def mean_wait(self) -> float:
        if not self.wait_intervals:
            return 0.0
        return sum(self.wait_intervals) / len(self.wait_intervals)


def run_episode(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    seed: int,
    agent,
    goal: GoalSpec,
) -> TrialRecord:
    """Drive one playthrough: decide, apply, repeat until goal or stop."""
    state = initial_state(config, scenario, seed)
    rng = random.Random(seed)
    reached = False
    reason = ""
    decisions = 0
    max_expanded = 0
    max_seconds = 0.0

    while True:
        if goal_satisfied(goal, state):
            reached = True
            reason = "goal"
            break
        if (state.clock >= goal.max_minutes
                or state.counters.total_actions >= goal.max_actions):
            reason = "hard_limit"
            break
        t0 = time.perf_counter()
        decision = agent.decide(config, state, rng)
        elapsed = time.perf_counter() - t0
        decisions += 1
        if elapsed > max_seconds:
            max_seconds = elapsed
        expanded = getattr(agent, "last_expanded", 0)
        if expanded > max_expanded:
            max_expanded = expanded
        if decision.kind == "act":
            state = step_action(config, state, decision.action)
        elif decision.kind == "wait":
            if legal_actions(config, state):
                counters = replace(
                    state.counters,
                    trace=((state.clock, TRACE_WAIT, str(decision.until)),
                           state.counters.trace),
                )
                state = advance_time(
                    config, replace(state, counters=counters), decision.until
                )
            else:
                state = close_session_if_idle(config, state)
        else:
            reason = decision.reason or "stop"
            break

    counters = state.counters
    return TrialRecord(
        seed=seed,
        agent=getattr(agent, "name", type(agent).__name__),
        goal_reached=reached,
        reason=reason,
        total_actions=counters.total_actions,
        event_actions=counters.event_actions,
        sessions=counters.session_count(),
        wait_intervals=list(counters.wait_intervals),
        clock=state.clock,
        event_log=event_log_entries(state),
        decisions=decisions,
        max_nodes_expanded=max_expanded,
        max_decision_seconds=max_seconds,
        state_digest=state_digest(state),
    )


# ---------------------------------------------------------------------------
# Softmax baseline
# ---------------------------------------------------------------------------

FEATURE_NAMES = (
    "bias",
    "total_cost",
    "total_consumes",
    "duration",
    "cooldown",
    "career_xp",
    "event_xp",
    "relationship_xp",
    "reward_resources",
    "reward_items",
    "is_wait",
)


@dataclass
class SoftmaxPolicy:
    feature_names: list[str]
    weights: list[float]
    temperature: float = 1.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if len(self.weights) != len(self.feature_names):
            raise ValueError("one weight per feature required")
        if any(not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")

    @classmethod
    def zero(cls, temperature: float = 1.0) -> "SoftmaxPolicy":
        return cls(list(FEATURE_NAMES), [0.0] * len(FEATURE_NAMES), temperature)

    @classmethod
    def from_dict(cls, data: dict) -> "SoftmaxPolicy":
        return cls(
            feature_names=list(data["feature_names"]),
            weights=[float(w) for w in data["weights"]],
            temperature=float(data.get("temperature", 1.0)),
        )

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "weights": list(self.weights),
            "temperature": self.temperature,
        }


class FeatureExtractor:
    """Normalized static action parameters; wait edges get a flag feature."""

    def __init__(self, config: TuningConfig):
        actions = config.actions
        self._norms = {
            "total_cost": max((sum(a.costs.values()) for a in actions), default=0),
            "total_consumes": max(
                (sum(a.consumes_items.values()) for a in actions), default=0),
            "duration": max((a.duration for a in actions), default=0),
            "cooldown": max((a.cooldown for a in actions), default=0),
            "career_xp": max((a.rewards.career_xp for a in actions), default=0),
            "event_xp": max((a.rewards.event_xp for a in actions), default=0),
            "relationship_xp": max(
                (a.rewards.relationship_xp for a in actions), default=0),
            "reward_resources": max(
                (sum(a.rewards.resources.values()) for a in actions), default=0),
            "reward_items": max(
                (sum(a.rewards.items.values()) for a in actions), default=0),
        }
        self._by_action = {a.id: self._action_vector(a) for a in actions}
        self._wait = [0.0] * len(FEATURE_NAMES)
        self._wait[0] = 1.0
        self._wait[-1] = 1.0

    def _scaled(self, name: str, value: float) -> float:
        norm = self._norms[name]
        return value / norm if norm else 0.0

    def _action_vector(self, action) -> list[float]:
        return [
            1.0,
            self._scaled("total_cost", sum(action.costs.values())),
            self._scaled("total_consumes", sum(action.consumes_items.values())),
            self._scaled("duration", action.duration),
            self._scaled("cooldown", action.cooldown),
            self._scaled("career_xp", action.rewards.career_xp),
            self._scaled("event_xp", action.rewards.event_xp),
            self._scaled("relationship_xp", action.rewards.relationship_xp),
            self._scaled("reward_resources", sum(action.rewards.resources.values())),
            self._scaled("reward_items", sum(action.rewards.items.values())),
            0.0,
        ]

    def vector(self, decision: Decision) -> list[float]:
        if decision.kind == "wait":
            return self._wait
        return self._by_action[decision.action]


def _softmax_probs(utilities: list[float], temperature: float) -> list[float]:
    top = max(utilities)
    exps = [math.exp((u - top) / temperature) for u in utilities]
    total = sum(exps)
    return [e / total for e in exps]


def _sample(probs: list[float], rng: random.Random) -> int:
    draw = rng.random()
    running = 0.0
    for i, p in enumerate(probs):
        running += p
        if draw < running:
            return i
    return len(probs) - 1


def softmax_decide(
    policy: SoftmaxPolicy,
    config: TuningConfig,
    state: GameState,
    rng: random.Random,
    features: FeatureExtractor | None = None,
) -> Decision:
    """Sample a move from softmax over utilities of the available edges."""
    features = features or FeatureExtractor(config)
    options = [d for d, _ in decision_edges(config, state)]
    if not options:
        return Decision.stop("deadlock")
    weights = policy.weights
    utilities = [
        sum(w * x for w, x in zip(weights, features.vector(d)))
        for d in options
    ]
    probs = _softmax_probs(utilities, policy.temperature)
    return options[_sample(probs, rng)]


class SoftmaxPlanner:
    name = "softmax"
    last_expanded = 0

    def __init__(self, policy: SoftmaxPolicy, config: TuningConfig):
        self.policy = policy
        self.features = FeatureExtractor(config)

    def decide(
        self, config: TuningConfig, state: GameState, rng: random.Random
    ) -> Decision:
        return softmax_decide(self.policy, config, state, rng, self.features)


FAILURE_RETURN = -1000.0
WEIGHT_CLIP = 100.0


def train_softmax(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    goal: GoalSpec,
    episodes: int,
    step_size: float,
    rng: random.Random,
    temperature: float = 1.0,
) -> tuple[SoftmaxPolicy, list[float]]:
    """REINFORCE on episode return (negative action count; big penalty on miss).

    Returns the trained policy and the per-episode return curve.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if step_size <= 0:
        raise ValueError("step_size must be > 0")

    features = FeatureExtractor(config)
    weights = [0.0] * len(FEATURE_NAMES)
    returns: list[float] = []
    baseline = 0.0

    for episode in range(episodes):
        state = initial_state(config, scenario, episode)
        grad = [0.0] * len(weights)
        reached = False
        while True:
            if goal_satisfied(goal, state):
                reached = True
                break
            if (state.clock >= goal.max_minutes
                    or state.counters.total_actions >= goal.max_actions):
                break
            options = [d for d, _ in decision_edges(config, state)]
            if not options:
                break
            vectors = [features.vector(d) for d in options]
            utilities = [
                sum(w * x for w, x in zip(weights, v)) for v in vectors
            ]
            probs = _softmax_probs(utilities, temperature)
            chosen = _sample(probs, rng)
            expectation = [
                sum(p * v[i] for p, v in zip(probs, vectors))
                for i in range(len(weights))
            ]
            for i in range(len(weights)):
                grad[i] += (vectors[chosen][i] - expectation[i]) / temperature
            decision = options[chosen]
            if decision.kind == "act":
                state = step_action(config, state, decision.action)
            elif legal_actions(config, state):
                state = advance_time(config, state, decision.until)
            else:
                state = close_session_if_idle(config, state)

        episode_return = (
            -float(state.counters.total_actions) if reached else FAILURE_RETURN
        )
        returns.append(episode_return)
        advantage = episode_return - baseline
        baseline += (episode_return - baseline) / (episode + 1)
        for i in range(len(weights)):
            weights[i] += step_size * advantage * grad[i]
            if weights[i] > WEIGHT_CLIP:
                weights[i] = WEIGHT_CLIP
            elif weights[i] < -WEIGHT_CLIP:
                weights[i] = -WEIGHT_CLIP

    policy = SoftmaxPolicy(list(FEATURE_NAMES), weights, temperature)
    return policy, returns
