"""Planning agents: bounded receding-horizon A* and a Softmax baseline.

The A* planner decides every move by a search inside a node budget,
committing only the first edge of the best plan found, unless an earlier
search already answered for that move (see below). Search edges are
the legal actions plus at most one wait edge (to the next availability
when idle, to the event deadline while an event runs). Frontier ties on
(f, clock) are broken by tie numbers keyed by path: an episode draws one
64-bit root tie from the caller's seeded rng, and every heap entry's tie
is a fixed mix of its pusher's tie and its edge (see `_TIE_MULT`). So
there is one tie order per episode, identical seeds give identical
decisions, and the player model is a uniform random order, drawn per
episode, among plans of equal (f, clock).

Agents move on an engine graph of the build (`_graph`): one record per
dedup key, action count and auto-grant flag, holding the state's id,
clock and action count and, once expanded, its edges. A graph files
states by clock and builds a state's dedup key only when another state
shares its clock. The agents and running episodes that use a graph hold
it, and a table only refers to it weakly: the agents alive on a build
share one graph, a group's agent keeps it for all the group's trials,
and an agent made afresh starts on an empty one. A graph grown past
`_MEMO_LIMIT` records is emptied. What depends on an agent's goal,
heuristic or budget stays with the agent, keyed by record: a planner's
heuristic values and answers. A record keeps what depends only on it
and the build: its edges and its Softmax move table. No decision changes.

Search states carry no path history (see `sim`): each edge of a record
holds the child record and the effects of committing that move. A
record is expanded in one pass: `_edges` files each child with the
graph as the engine returns it, and the record keeps that list. The
episode loop commits a move by the edge of the record the agent found
for its root (see `_play`): it takes the child's state as it is, hands
it to the agent next, and adds the effects to the episode's path, whose
history `sim.record` writes when the episode ends. So a planner's move
costs no engine step or hash, bare or behind a wrapper. Any other move
goes through the engine's transition (`_commit`), which raises for an
act that is not legal.

A planner's answers serve as a transposition table over decisions.
A search is a function of its root record and root tie, and the root tie
of each later decision in an episode is the tie its record's entry had
in the search that chose the move before. A search that pops a goal
answers for every record of its goal path whose own search would pop the
same entries in the same order (see `_store_path_answers`), so an episode
commits that path's edges in turn and its later decisions on the path
are served: each served decision is the search it replaces under the
episode's tie order, with that search's expansion count. An answer that
no tie number decided serves every root tie, any other its own, so a
replay of a seed is served throughout. Most trials of a group replay
one trajectory, so from the second on most decisions are served.

The heuristic is bound once per planner and build (`build_evaluator`):
one evaluator for the goal's kind, with each term's weight and scale,
the career goal's XP target and, for a chain goal, every category's
remaining final thresholds and relationship XP for each count of
completed events computed then. It tests the goal and counts each
weighted term in place, an int from a few lookups, with no call per
term. The value is 0 at every goal state, so a search tests the goal
only on a pop scored 0.

The Softmax agent samples the available moves in proportion to
exp(utility/temperature), where utility is a learned linear function of
normalized action parameters; once its graph has served an earlier
episode, it samples its root record's edges. Training is REINFORCE,
stochastic gradient ascent on episode return: the same agent, collecting
its gradient, plays every training episode through the decide/commit
loop that evaluation uses. Each build's feature table (`_features`) is
computed once and lists every move's nonzero features, 4 to 6 of the 11
on the shipped builds. Utilities and REINFORCE terms add only those
terms, left to right on every Python version: with finite weights and
probabilities a zero feature's term is ±0.0, which leaves a float sum
that starts at +0.0 unchanged, so the sums equal the dense ones bit for
bit.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter
from weakref import WeakValueDictionary

from .errors import Deadlock, SchemaError
from .sim import (
    TRACE_WAIT,
    Effects,
    GameState,
    ScenarioOverrides,
    _chain_entries,
    act_edge,
    advance_time,
    checked_action,
    initial_state,
    legal_moves,
    record,
    session_end_edge,
    state_digest,
    step_action,
    wait_edge,
)
from .tuning import (
    ActionSpec, Codec, ConfigIndex, EventSpec, InvalidField, TuningConfig, absent,
)

DEFAULT_NODE_BUDGET = 2000


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------

# each goal kind with the fields it reads; a goal sets no other of them
GOAL_KINDS = {
    "career_level_reached": ("career", "level"),
    "relationship_chain_done": ("category", "chain_length"),
    "any_relationship_chain_done": ("chain_length",),
    "event_completed": ("event",),
}
_GOAL_FIELDS = tuple(dict.fromkeys(name for names in GOAL_KINDS.values()
                                   for name in names))


@dataclass
class GoalSpec(Codec):
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
            raise InvalidField("kind", f"unknown goal kind {self.kind!r}")
        for name in ("max_minutes", "max_actions"):
            if getattr(self, name) <= 0:
                raise InvalidField(name, "must be positive")
        for name in _GOAL_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if name not in GOAL_KINDS[self.kind]:
                raise InvalidField(name, f"not read by the {self.kind!r} goal kind")
            if name in ("level", "chain_length") and value < 1:
                raise InvalidField(name, "must be >= 1")

    def check(self, config: TuningConfig, path: str = "GoalSpec") -> None:
        """Raise SchemaError, as `<path>.<field>: <reason>`, for the first
        field the goal's kind reads that is None or names what `config`
        lacks: a career, a level above the career's cap, a relationship
        category, a chain length longer than every chain the goal counts
        (the category's, else the build's) or an event. A career study
        fills `career` and `level` itself, so a goal is checked where it
        is used as it stands, not when it is built."""
        for name in GOAL_KINDS[self.kind]:
            if getattr(self, name) is None:
                raise SchemaError(f"{path}.{name}: missing")
        idx = config.index()
        for name, table, noun in (("career", idx.careers, "career"),
                                  ("category", idx.relationships, "category"),
                                  ("event", idx.events, "event")):
            value = getattr(self, name)
            if value is not None and value not in table:
                raise SchemaError(f"{path}.{name}: no {noun} {value!r} "
                                  f"in build {config.build_id!r}")
        if self.career is not None:
            cap = idx.careers[self.career].max_level
            if self.level > cap:
                raise SchemaError(f"{path}.level: {self.level} > cap {cap} "
                                  f"of career {self.career!r}")
        if self.chain_length is not None:
            chains = [len(c.event_chain) for c in config.relationships
                      if self.category in (None, c.id)]
            if self.chain_length > max(chains, default=0):
                where = (f"build {config.build_id!r}" if self.category is None
                         else f"category {self.category!r}")
                raise SchemaError(f"{path}.chain_length: {self.chain_length} > "
                                  f"longest chain {max(chains, default=0)} "
                                  f"of {where}")


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
        # one shared instance per action id: building a frozen dataclass
        # takes about 1 us, a tenth of an engine step
        decision = _ACT_DECISIONS.get(action)
        if decision is None:
            decision = _ACT_DECISIONS[action] = cls("act", action=action)
        return decision

    @classmethod
    def wait(cls, until: int) -> "Decision":
        decision = _WAIT_DECISIONS.get(until)
        if decision is None:
            decision = _WAIT_DECISIONS[until] = cls("wait", until=until)
        return decision

    @classmethod
    def stop(cls, reason: str) -> "Decision":
        return cls("stop", reason=reason)


_ACT_DECISIONS: dict[str, Decision] = {}
_WAIT_DECISIONS: dict[int, Decision] = {}


def _timeouts(idx: ConfigIndex) -> dict[str, float]:
    """The least accrued XP at which each event's timeout pays anything
    besides event XP, by event id (inf if it never does), computed once
    per build and kept in `idx.timeouts`. A timeout pays every step its
    run reached (`sim._close_event`), so this is the least threshold of a
    step whose reward pays something."""
    table = idx.timeouts
    if table is None:
        table = idx.timeouts = {
            eid: min((step.xp_threshold for step in event.steps
                      if step.reward.career_xp or step.reward.relationship_xp
                      or step.reward.resources or step.reward.items),
                     default=math.inf)
            for eid, event in idx.events.items()
        }
    return table


def _listing(
    idx: ConfigIndex, state: GameState
) -> tuple[list[tuple[ActionSpec, str | None]], int | None, tuple | None]:
    """The moves of `available_moves`: the legal actions, each with the
    event its run starts implicitly, the wait's target, or None, and when
    idle the wait's edge (`sim.session_end_edge`), or None."""
    legal = legal_moves(idx, state)
    if legal:
        event = state.active_event
        if (
            event is not None
            and event.deadline > state.clock
            and event.accrued_xp >= (idx.timeouts or _timeouts(idx))[event.event_id]
        ):
            return legal, event.deadline, None
        return legal, None, None
    edge = session_end_edge(idx, state)
    return legal, None if edge is None else edge[0].clock, edge


def available_moves(config: TuningConfig, state: GameState) -> list[Decision]:
    """Every move available from a state: its legal actions and its wait.

    When some action is playable there is additionally a wait to the
    active event's deadline, offered once the event has banked a step
    that would actually pay out (timing out an event for nothing is
    never part of a deliberate plan, and pruning it keeps truncated
    searches off junk branches). When nothing is playable the single
    wait jumps to the next availability, which already accounts for the
    deadline.
    """
    legal, wait, _ = _listing(config.index(), state)
    moves = [Decision.act(action.id) for action, _ in legal]
    if wait is not None:
        moves.append(Decision.wait(wait))
    return moves


def decision_edges(
    config: TuningConfig, state: GameState
) -> list[tuple[Decision, GameState]]:
    """Every available move with its successor: an act applies the action
    and lets its duration elapse, a wait advances the clock."""
    return [
        (move, step_action(config, state, move.action) if move.kind == "act"
         else advance_time(config, state, move.until))
        for move in available_moves(config, state)
    ]


def _edges(
    config: TuningConfig, state: GameState, file: Callable[[GameState], object],
) -> list[tuple[Decision, object, Effects]]:
    """Every available move, in `available_moves` order, with `file` of
    its successor without path history and the effects of committing it.
    Each successor is filed as the engine returns it, so the list is
    built in one pass: a graph files its records (see `_Graph.expand`),
    and a caller that wants the states passes an identity. An act takes
    the event start its listing found, so its legality is checked once,
    and an idle state's wait is the edge its listing walked."""
    idx = config.index()
    legal, wait, session_end = _listing(idx, state)
    acts = _ACT_DECISIONS
    edges = []
    for action, start in legal:
        child, effects = act_edge(idx, state, action, start)
        edges.append((acts.get(action.id) or Decision.act(action.id),
                      file(child), effects))
    if wait is not None:
        child, effects = session_end or wait_edge(idx, state, wait, TRACE_WAIT)
        edges.append((Decision.wait(wait), file(child), effects))
    return edges


def _commit(
    config: TuningConfig, state: GameState, decision: Decision
) -> tuple[GameState, Effects]:
    """The edge of a move that is no edge of the state's record (see
    `_play`): its successor without path history and its effects.

    An act must be legal. A wait while actions are legal is traced and
    moves the clock to `decision.until`; a wait while idle ends the
    session at the next availability.
    """
    idx = config.index()
    if decision.kind == "act":
        return act_edge(idx, state, *checked_action(idx, state, decision.action))
    if legal_moves(idx, state):
        return wait_edge(idx, state, decision.until, TRACE_WAIT)
    edge = session_end_edge(idx, state)
    if edge is None:
        raise Deadlock("no action can ever become legal")
    return edge


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
class HeuristicSpec(Codec):
    """Weighted remaining-quantity terms; crafted items use crafted_item:<id>."""

    weights: dict[str, float]
    normalization: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("weights", "normalization"):
            for term in getattr(self, name):
                prefix, _, item = term.partition(":")
                if term not in HEURISTIC_TERMS and not (
                        prefix == "crafted_item" and item):
                    raise InvalidField(name, f"unknown heuristic term {term!r}")
        for term, weight in self.weights.items():
            if not math.isfinite(weight):
                raise InvalidField(f"weights.{term}", "must be finite")
        for term, scale in self.normalization.items():
            if term not in self.weights:
                raise InvalidField(f"normalization.{term}",
                                   "not read without a weight")
            if not (math.isfinite(scale) and scale > 0):
                raise InvalidField(f"normalization.{term}",
                                   "must be a finite number > 0")


def _default_scale(term: str, config: TuningConfig) -> float:
    """The most of term's quantity that one action yields, at least 1; 1
    for a term no action yields (a level, a completed event)."""
    if term in ("career_xp", "event_xp", "relationship_xp"):
        yields = [getattr(a.rewards, term) for a in config.actions]
    elif term.startswith("crafted_item:"):
        item = term.split(":", 1)[1]
        yields = [a.rewards.items.get(item, 0) for a in config.actions]
    else:
        return 1.0
    return float(max([1, *yields]))


# per-event costs for _chain_remaining
_final_threshold = attrgetter("final_threshold")


def _relationship_xp(event: EventSpec) -> int:
    return sum(step.reward.relationship_xp for step in event.steps)


def _chain_remaining(
    config: TuningConfig, goal: GoalSpec, cost: Callable[[EventSpec], int],
) -> dict[str | None, list[int]]:
    """`cost(event)` summed over the chain events still to finish before
    the chain goal, by the state's locked category (None if unlocked) and
    then by its count of completed events, for each count below the
    goal's chain length.

    A goal on one category counts the locked category, else the goal's.
    A goal on any chain counts the cheapest category long enough,
    deliberately blind to the category lock: the estimate never exceeds
    the locked chain's true remainder, and it keeps same-depth search
    branches tied across symmetric categories, which is what lets
    repeated seeded runs sample every category.

    Each chain's costs are summed from its end, which equals summing them
    in order, since they are ints.
    """
    idx = config.index()
    length = goal.chain_length
    totals = {}
    for c in config.relationships:
        costs = [cost(idx.events[eid]) for eid in c.event_chain[:length]]
        costs += [0] * (length - len(costs))
        totals[c.id] = list(accumulate(reversed(costs)))[::-1]
    if goal.kind == "relationship_chain_done":
        return {**totals, None: totals[goal.category]}
    long_enough = [totals[c.id] for c in config.relationships
                   if len(c.event_chain) >= length]
    cheapest = list(map(min, zip(*long_enough))) if long_enough else [0] * length
    return dict.fromkeys([None, *totals], cheapest)


def build_evaluator(
    spec: HeuristicSpec, config: TuningConfig, goal: GoalSpec
) -> Callable[[GameState], float]:
    """Bind a heuristic to one config and goal; returns state -> float.

    The value is 0.0 at every state that satisfies the goal, whatever the
    weights: the planner tests the goal only on a state it scores 0 (see
    `AStarPlanner.decide`). Elsewhere it is the sum of `weight * count /
    scale` over the weighted terms, added in sorted term-name order, where
    each count is an int, far below 2**53, and a term whose count is 0
    adds nothing. Crafted-item terms count 1 while the item is not held.

    The goal's kind picks one evaluator, which tests the goal and counts
    every term the kind reads inline: a term with no weight, or none the
    kind reads, adds nothing. What depends only on the build and the goal
    is bound here, once: each term's weight, each weighted term's scale
    (its normalization, else `_default_scale`), each crafted term's
    `weight / scale`, the career goal's XP target and, for a chain goal,
    every category's remaining final thresholds and relationship XP by
    count of completed events (`_chain_remaining`), each table only for
    its weighted term. A count below the goal is at least 0: a
    career at the goal's XP or level has met the goal, and an event
    closes on the act that takes its XP to its final threshold. Two
    counts can fall below 0 and add nothing then: a held crafted item's,
    and a chain goal's `event_xp`, which credits an active chain event's
    accrued XP whatever its category.
    """
    idx = config.index()

    def bound(term: str) -> tuple[float, float]:
        # an unweighted term is never read, so its scale is not computed
        weight = spec.weights.get(term, 0.0)
        if not weight:
            return weight, 1.0
        return weight, spec.normalization.get(term) or _default_scale(term, config)

    # (item, weight / scale); `weight * 1 / scale` is the same float
    crafted = tuple((term.split(":", 1)[1], weight / bound(term)[1])
                    for term, weight in sorted(spec.weights.items())
                    if weight and term.startswith("crafted_item:"))

    if goal.kind == "career_level_reached":
        career, level = goal.career, goal.level
        (w_level, s_level), (w_xp, s_xp), (w_event, s_event) = map(
            bound, ("career_level", "career_xp", "event_xp"))
        target = idx.careers[career].xp_for_level(level)
        events = idx.events

        def evaluate_career(state: GameState) -> float:
            own = state.career
            if own is not None and own.id == career:
                if own.level >= level:
                    return 0.0
                reached, xp = own.level, own.xp
            else:
                reached, xp = 1, 0
            h = 0.0
            if w_level and (left := level - reached):
                h += w_level * left / s_level
            if w_xp and (left := target - xp):
                h += w_xp * left / s_xp
            for item, share in crafted:
                if state.inventory.get(item, 0) < 1:
                    h += share
            if w_event and (event := state.active_event) is not None:
                if left := events[event.event_id].final_threshold - event.accrued_xp:
                    h += w_event * left / s_event
            return h
        return evaluate_career

    if goal.kind in ("relationship_chain_done", "any_relationship_chain_done"):
        length, category = goal.chain_length, goal.category
        any_chain = goal.kind == "any_relationship_chain_done"
        (w_event, s_event), (w_done, s_done), (w_xp, s_xp) = map(
            bound, ("event_xp", "relationship_event_complete", "relationship_xp"))
        finals = _chain_remaining(config, goal, _final_threshold) if w_event else None
        rewards = _chain_remaining(config, goal, _relationship_xp) if w_xp else None
        in_chain = idx.chain_position

        def evaluate_chain(state: GameState) -> float:
            rel = state.relationship
            done = rel.completed
            if done >= length and (any_chain or rel.category == category):
                return 0.0
            h = 0.0
            for item, share in crafted:
                if state.inventory.get(item, 0) < 1:
                    h += share
            if done >= length:
                # a longer chain of another category: every chain count is 0
                return h
            if w_event:
                left = finals[rel.category][done]
                event = state.active_event
                if event is not None and event.event_id in in_chain:
                    left -= event.accrued_xp
                if left > 0:
                    h += w_event * left / s_event
            if w_done:
                h += w_done * (length - done) / s_done
            if w_xp and (left := rewards[rel.category][done]):
                h += w_xp * left / s_xp
            return h
        return evaluate_chain

    # event_completed: the career and the relationship term count 1 for a
    # goal event of their kind. Only a weighted term reads the event, so a
    # goal may name none (a search that cannot end, say).
    event_id = goal.event
    (w_career, s_career), (w_event, s_event), (w_rel, s_rel) = map(
        bound, ("career_event_complete", "event_xp", "relationship_event_complete"))
    target = idx.events[event_id] if w_career or w_event or w_rel else None
    final = target.final_threshold if w_event else 0
    # summed from 0.0, as every term is, so a -0.0 quotient adds up to 0.0
    first = 0.0 + (w_career / s_career if w_career and target.kind == "career"
                   else 0.0)
    last = w_rel / s_rel if w_rel and target.kind == "relationship" else 0.0

    def evaluate_event(state: GameState) -> float:
        if event_id in state.events_completed:
            return 0.0
        h = first
        for item, share in crafted:
            if state.inventory.get(item, 0) < 1:
                h += share
        if w_event:
            active = state.active_event
            left = (final - active.accrued_xp
                    if active is not None and active.event_id == event_id else final)
            if left:
                h += w_event * left / s_event
        return h + last
    return evaluate_event


# ---------------------------------------------------------------------------
# The engine graph
# ---------------------------------------------------------------------------

# Records a build's graph keeps; a graph grown past this is emptied at
# the next root lookup. A record, with its state and its clock's entry,
# takes about 1.4 KB (build_b A* trials under tracemalloc), so a full
# graph holds about 28 MB.
_MEMO_LIMIT = 20_000


class _Record:
    """One node of a build's engine graph: a state under one key (see
    `_Graph.node`), numbered `n` in the order the graph filed them, with
    the state id `sid` the graph gave its dedup key and its own action
    count and clock. `state` has no path history (see `sim.act_edge`),
    except at a root an episode started from. `edges`, filled in at the
    first expansion, lists (decision, child record, effects an episode
    records when it commits the edge); `moves`, the Softmax move table
    (see `SoftmaxPlanner`), filled in at a Softmax decision there.
    """

    __slots__ = ("n", "sid", "actions", "clock", "state", "edges", "moves", "_digest")

    def __init__(self, n: int, sid: int, state: GameState):
        self.n = n
        self.sid = sid
        self.actions = state.counters.total_actions
        self.clock = state.clock
        self.state = state
        self.edges: list[tuple[Decision, _Record, Effects]] | None = None
        self.moves: tuple | None = None
        self._digest: str | None = None

    def digest(self) -> str:
        """`state_digest` of every episode that ends here, computed once:
        it reads only the dedup key."""
        if self._digest is None:
            self._digest = state_digest(self.state)
        return self._digest


class _Graph:
    """The engine layer of agents' moves on one build (see `_graph`).

    `clocks` files states by clock (see `node`) and so gives each a state
    id, equal for two states exactly when their dedup keys are, and
    `records` maps (state id, action count, auto-grant flag) to the
    record. `at` pairs the state of the last root lookup or committed
    edge (see `_play`) with its record, so a decision from that state
    object finds its root with no hashing. A root lookup that finds more
    than `_MEMO_LIMIT` records empties the graph first, under a new
    `generation` token: data an agent keyed by the old records is stale.
    """

    def __init__(self):
        self.episodes = 0  # started on this graph (see `_play`)
        self.searches = 0  # full A* searches run on this graph
        self._empty()

    def _empty(self) -> None:
        self.records: dict[tuple, _Record] = {}
        self.clocks: dict[int, _Record | dict[tuple, int]] = {}
        self.at: tuple[GameState, _Record] | None = None
        self.generation = object()

    def node(self, state: GameState) -> _Record:
        """The record of `state`, made and filed on first sight.

        A dedup key leads with its clock, so a state whose clock no filed
        state has gets a new state id, the number of its record, and no
        key is built. `clocks` holds that record for its clock until a
        second state there turns the entry into a dict of their keys'
        state ids: the first state's key is built then, once, and each
        later state at that clock costs one key and one hash.
        """
        records, clocks = self.records, self.clocks
        shared = clocks.get(state.clock)
        if shared is None:
            n = len(records)
            record = _Record(n, n, state)
            clocks[state.clock] = records[
                n, state.counters.total_actions, state.auto_grant_objects] = record
            return record
        if type(shared) is _Record:
            shared = clocks[state.clock] = {shared.state.dedup_key(): shared.sid}
        sid = shared.setdefault(state.dedup_key(), len(records))
        key = (sid, state.counters.total_actions, state.auto_grant_objects)
        record = records.get(key)
        if record is None:
            record = records[key] = _Record(len(records), sid, state)
        return record

    def root(self, state: GameState) -> _Record:
        """The record of a decision's root `state`: `at`'s if `state` is its
        state, else the record found by hashing, which `at` then holds."""
        if len(self.records) > _MEMO_LIMIT:
            self._empty()
        at = self.at
        if at is None or at[0] is not state:
            at = self.at = (state, self.node(state))
        return at[1]

    def expand(self, config: TuningConfig, record: _Record) -> list[tuple]:
        """Fill in `record`'s edges from the engine and return them: the
        list `_edges` builds, each child filed by `node` as it is made."""
        record.edges = edges = _edges(config, record.state, self.node)
        return edges


# The graph the live agents on each build share, by the build's index.
# Agents and running episodes hold their graph; this table only finds it.
_graphs: WeakValueDictionary[ConfigIndex, _Graph] = WeakValueDictionary()


def _graph(config: TuningConfig) -> _Graph:
    """The engine graph that the live agents on `config`'s build use, or
    a new one if none is alive."""
    idx = config.index()
    graph = _graphs.get(idx)
    if graph is None:
        graph = _graphs[idx] = _Graph()
    return graph


# ---------------------------------------------------------------------------
# Bounded A*
# ---------------------------------------------------------------------------

# Tie numbers. The entry that edge k of a record pushes gets the tie
# ((t ^ _EDGE_KEYS[k]) * _TIE_MULT) mod 2**64, where t is the tie of the
# record's own entry, and a root's entry has the root tie. For each edge
# index this is a bijection of t, siblings get distinct ties, since their
# keys differ, and the multiply carries every bit of both into the high
# bits that order the ties. A path's tie is not symmetric in its edges,
# so two orders of the same moves get unrelated ties.
_TIE_MASK = (1 << 64) - 1
_TIE_MULT = 0xD1342543DE82EF95
_EDGE_KEYS: list[int] = []  # (k + 1) * the 64-bit golden ratio, by edge index


def _store_path_answers(
    tree: list[tuple], path: list[int], goal_edge: int, skips: list[tuple],
    tied: list[tuple], answers: dict,
) -> tuple[int | None, Decision, int, int, GameState]:
    """Store in `answers` the answers of a search for every record of
    `path`, and return the root's: the search's one answer writer.

    `tree` holds each expansion's (tie, pusher's expansion index, index of
    the pusher's edge, record), the root's first; `path` the expansion
    indices of the goal path p_0 … p_{m-1}, each pushed by the one before,
    and `goal_edge` the index of p_{m-1}'s edge to the goal p_m. A search
    from p_j under p_j's tie pushes the entries of p_j's pop subtree with
    the same keys and tie numbers, so it pops them in the same order, up
    to p_m, unless a closure made outside that subtree skipped one of its
    pushes or pops: `skips` holds (the skipped entry's pusher, the closer)
    for each skip. p_j's answer is then its move to p_{j+1}, with the
    expansions of its subtree as the count. A search cut off by its budget
    passes its root alone, with the root's edge toward the next pop.

    `tied` holds, for each accepted pop that entries of equal (f, clock)
    tied, its pusher and theirs. An answer whose subtree never held such
    a pop and one of its rivals is the same under every root tie, and its
    tie is None; any other's is its root tie. A search that meets no such
    pop pops by (f, clock) alone, so whether a record's search meets one
    does not depend on its root tie: an answer that replaces a record's
    earlier one agrees with it on whether its tie is None. An answer is
    (tie, decision, expansion count, the key of the decision's edge, its
    child state).
    """
    m = len(path)
    # each expansion's branch point: its last ancestor (itself included)
    # on the goal path; p_j's subtree holds the expansions at j or more
    branch = [-1] * len(tree)
    for j, e in enumerate(path):
        branch[e] = j
    sizes = [0] * m
    for e, entry in enumerate(tree):
        b = branch[e]
        if b < 0:
            branch[e] = b = branch[entry[1]]
        sizes[b] += 1
    cut = [0] * (m + 1)
    for pusher, closer in skips:
        outside, under = branch[closer], branch[pusher]
        if outside < under:
            cut[outside + 1] += 1
            cut[under + 1] -= 1
    wide_from = 1 + max([min(branch[pusher], max(branch[e] for e in others))
                         for pusher, others in tied], default=-1)
    cuts = list(accumulate(cut))  # the skips that p_j's search would make
    keys = _EDGE_KEYS
    expanded = 0
    k = goal_edge
    for j in range(m - 1, -1, -1):
        expanded += sizes[j]
        tie, _, edge, node = tree[path[j]]
        decision, child, _ = node.edges[k]
        answer = (None if j >= wide_from else tie, decision, expanded, keys[k],
                  child.state)
        if not cuts[j]:
            answers[node] = answer
        k = edge
    return answer


class AStarPlanner:
    """Receding-horizon planner: a bounded search for every move that no
    earlier search answered for.

    The planner searches the build's engine graph (see `_graph`), which
    it holds, and keeps its own data for the graph's current generation:
    each in-limits record's heuristic value, in a list by record number,
    and `_answers`, one answer per record, each with the root tie it
    holds for, or None if no tie number decided it. A record's key fixes
    everything the dynamics, the goal and the heuristic read, so a later
    search pushes and pops as a new planner's would. A search is a
    function of its root record and root tie (see `decide`), so an answer
    holds for the generation. A served decision is the stored one, with
    `last_expanded` the expansion count of the search it stands for.
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
        self.last_tie = 0
        self._config: TuningConfig | None = None
        self._graph: _Graph | None = None
        self._generation: object | None = None
        self._next: tuple[GameState, int] | None = None

    def decide(
        self, config: TuningConfig, state: GameState, rng: random.Random
    ) -> Decision:
        """The move from `state`, stored or searched; sets `last_expanded`
        and `last_tie`. From the child state of the last move's edge, as an
        episode hands it on, the root tie is that edge's entry's tie in the
        last search; any other state starts an episode, with root tie
        `rng.getrandbits(64)`, the planner's one draw. So a search from a
        later node of a goal path pops what the search that found the path
        popped below it, in the same order, under the same tie numbers.
        The root's answer is served if it holds for every root tie or for
        this one.
        """
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        if config is not self._config:
            self._config, self._graph = config, _graph(config)
            self._evaluate = build_evaluator(self.heuristic, config, self.goal)
        graph = self._graph
        root = graph.root(state)
        if graph.generation is not self._generation:
            # a new graph, or this one was emptied
            self._generation = graph.generation
            self._h: list[float | None] = []
            self._answers: dict[_Record, tuple] = {}
        follow = self._next
        tie = (follow[1] if follow is not None and follow[0] is state
               else rng.getrandbits(64))
        self.last_tie = tie
        answer = self._answers.get(root)
        if answer is None or answer[0] is not None and answer[0] != tie:
            answer = self._search(config, root, tie)
        _, decision, self.last_expanded, key, child = answer
        # the next root's tie: the tie of the answer's edge's entry
        self._next = None if key is None else (
            child, ((tie ^ key) * _TIE_MULT) & _TIE_MASK)
        return decision

    def _search(
        self, config: TuningConfig, root: _Record, tie: int,
    ) -> tuple[int | None, Decision, int, int | None, GameState | None]:
        """One bounded best-first search from `root` under root tie `tie`:
        its answer (see `_store_path_answers`), with no key or child state
        for a stop. A record expanded before is not handed to the engine
        again, and one this planner met before is not evaluated again. The
        evaluator scores every goal state 0 (see `build_evaluator`), as an
        admissible heuristic does, so a popped record is tested against the
        goal only where its h is 0.

        Heap entries are ranked by each record's own values, f = actions
        + h, then clock, and then by tie number (see `_TIE_MULT`). The tie
        number orders two entries only if they share (f, clock), so after
        each accepted pop the search compares the popped (f, clock) with
        the heap's new top. A search whose budget runs out takes the next
        pop: it heads toward the node it has just popped, the one it would
        expand next, so the same test covers its move. A search that pops
        a goal answers for the records of its goal path, one cut off for
        its root (see `_store_path_answers`).
        """
        goal = self.goal
        max_minutes, max_actions = goal.max_minutes, goal.max_actions
        if goal_satisfied(goal, root.state):
            return None, Decision.stop("goal_reached"), 0, None, None
        if root.clock > max_minutes or root.actions > max_actions:
            return None, Decision.stop("hard_limit"), 0, None, None
        graph = self._graph
        if root.edges is None:
            graph.expand(config, root)
        if not root.edges:
            return None, Decision.stop("deadlock"), 0, None, None
        graph.searches += 1

        node_budget = self.node_budget
        evaluate, known = self._evaluate, self._h
        records = graph.records
        known.extend([None] * (len(records) - len(known)))
        heappush, heappop = heapq.heappush, heapq.heappop
        keys, mult, mask = _EDGE_KEYS, _TIE_MULT, _TIE_MASK

        # heap entries: (actions + h, clock, tie, pusher's expansion index,
        # the edge's index in the pusher's edges, record), popped in that
        # order both to expand and to pick a cut-off's move
        heap: list[tuple] = []
        closed: dict[int, int] = {}  # state id -> its last expansion's index
        closed_at: list[int] = []  # each expansion's action count
        tree: list[tuple] = []  # per expansion: (tie, pusher, edge index, record)
        skips: list[tuple[int, int]] = []  # (pusher, closer) of each skip
        tied: list[tuple] = []  # pushers of each tied accepted pop and rivals
        node, pusher, k = root, -1, None
        expanded = 0
        while True:
            closed[node.sid] = expanded
            closed_at.append(node.actions)
            tree.append((tie, pusher, k, node))
            edges = node.edges
            if edges is None:
                edges = graph.expand(config, node)
                known.extend([None] * (len(records) - len(known)))
            if len(edges) > len(keys):
                keys.extend((i + 1) * 0x9E3779B97F4A7C15 & mask
                            for i in range(len(keys), len(edges)))
            for k, (_, child, _) in enumerate(edges):
                # None: not met yet, or beyond the limits
                h = known[child.n]
                if h is None:
                    if child.actions > max_actions or child.clock > max_minutes:
                        continue
                    h = known[child.n] = evaluate(child.state)
                actions = child.actions
                closer = closed.get(child.sid)
                if closer is not None and closed_at[closer] <= actions:
                    skips.append((expanded, closer))
                    continue
                # the child's tie (see `_TIE_MULT`)
                heappush(heap, (actions + h, child.clock,
                                ((tie ^ keys[k]) * mult) & mask, expanded, k,
                                child))
            expanded += 1

            while heap:
                f, clock, tie, pusher, k, node = heappop(heap)
                closer = closed.get(node.sid)
                if closer is None or closed_at[closer] > node.actions:
                    break
                skips.append((pusher, closer))
            else:
                # nothing left to pop: no plan within the limits
                answer = self._answers[root] = (
                    tree[0][0] if tied else None,
                    Decision.stop("search_exhausted"), expanded, None, None)
                return answer
            if heap and heap[0][0] == f and heap[0][1] == clock:
                tied.append((pusher, [e[3] for e in heap
                                      if e[0] == f and e[1] == clock]))
            at_goal = not known[node.n] and goal_satisfied(goal, node.state)
            if at_goal or expanded >= node_budget:
                path = []
                while pusher >= 0:
                    path.append(pusher)
                    pusher = tree[pusher][1]
                path.reverse()
                if not at_goal:
                    # the budget spent: the root heads toward the node just
                    # popped, the one the search would expand next
                    if len(path) > 1:
                        k = tree[path[1]][2]
                    path = path[:1]
                return _store_path_answers(tree, path, k, skips, tied,
                                           self._answers)


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
    searches: int
    max_nodes_expanded: int
    max_decision_seconds: float
    state_digest: str

    @property
    def mean_wait(self) -> float:
        if not self.wait_intervals:
            return 0.0
        return sum(self.wait_intervals) / len(self.wait_intervals)


def _play(
    config: TuningConfig,
    state: GameState,
    rng: random.Random,
    agent,
    goal: GoalSpec,
) -> tuple[GameState, _Record | None, list[Effects], bool, str, int, int, int,
           float]:
    """The decide/commit loop of every episode, evaluated or trained.

    Stops at the goal or a hard limit, else asks the agent for a move
    and commits it. An agent on the build's graph (see `_graph`), wrapped
    or not, leaves its root's state and record as the graph's `at`; the
    loop, which holds the graph while it runs and hashes no state,
    commits the move by that record's edge and hands the agent the
    child's state next. Any other move goes through `_commit`. The loop
    only collects each move's effects: a caller that wants the path
    history writes them with `sim.record`. Returns the final state, its
    record if the episode ended on one (else None), the effects in order,
    whether the goal was reached, the stop reason, the decision count,
    the full searches those decisions ran (the graph's count, so a
    wrapped planner's count too), the most nodes one decision expanded
    and the longest decision in seconds.
    """
    reached = False
    reason = ""
    decisions = 0
    max_expanded = 0
    max_seconds = 0.0
    path = []
    graph = _graph(config)
    graph.episodes += 1
    searches = graph.searches

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
        if decision.kind not in ("act", "wait"):
            reason = decision.reason or "stop"
            break
        at = graph.at
        edges = at[1].edges if at is not None and at[0] is state else None
        for move, child, effects in edges or ():
            if move is decision:
                state = child.state
                graph.at = (state, child)
                break
        else:
            state, effects = _commit(config, state, decision)
        path.append(effects)
    at = graph.at
    node = at[1] if at is not None and at[0] is state else None
    searches = graph.searches - searches
    return (state, node, path, reached, reason, decisions, searches, max_expanded,
            max_seconds)


def run_episode(
    config: TuningConfig,
    scenario: ScenarioOverrides,
    seed: int,
    agent,
    goal: GoalSpec,
) -> TrialRecord:
    """Drive one playthrough: decide, apply, repeat until goal or stop.

    The agent draws from `random.Random(seed)`: an A* planner takes one
    root tie from it (see `AStarPlanner.decide`), a Softmax agent one
    number per decision.
    """
    start = initial_state(config, scenario, seed)
    (state, node, path, reached, reason, decisions, searches, max_expanded,
     max_seconds) = _play(config, start, random.Random(seed), agent, goal)
    counters = record(start.counters, state.counters.total_actions, path)
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
        event_log=_chain_entries(counters.event_log),
        decisions=decisions,
        searches=searches,
        max_nodes_expanded=max_expanded,
        max_decision_seconds=max_seconds,
        state_digest=state_digest(state) if node is None else node.digest(),
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
class SoftmaxPolicy(Codec):
    feature_names: list[str]
    weights: list[float]
    temperature: float = absent(lambda: 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidField("temperature", "must be a finite number > 0")
        if self.feature_names != list(FEATURE_NAMES):
            raise InvalidField("feature_names", f"must be the {len(FEATURE_NAMES)} "
                                                "features, in order")
        if len(self.weights) != len(self.feature_names):
            raise InvalidField("weights", "one weight per feature required")
        if any(not math.isfinite(w) for w in self.weights):
            raise InvalidField("weights", "must be finite")

    @classmethod
    def zero(cls, temperature: float = 1.0) -> "SoftmaxPolicy":
        return cls(list(FEATURE_NAMES), [0.0] * len(FEATURE_NAMES), temperature)


def _features(config: TuningConfig) -> dict[str | None, tuple]:
    """The build's feature table, computed at its first use and kept in
    its index: by action id, and None for the wait, the move's vector and
    its nonzero (index, value) pairs in index order.

    An action's features are its static parameters, each divided by its
    largest value over the build's actions (0 where that is 0); a wait
    has the bias and its flag.
    """
    idx = config.index()
    table = idx.features
    if table is None:
        raw = {
            a.id: (sum(a.costs.values()), sum(a.consumes_items.values()),
                   a.duration, a.cooldown, a.rewards.career_xp,
                   a.rewards.event_xp, a.rewards.relationship_xp,
                   sum(a.rewards.resources.values()),
                   sum(a.rewards.items.values()))
            for a in config.actions
        }
        norms = [max(column) for column in zip(*raw.values())]
        vectors = {
            aid: (1.0, *(v / n if n else 0.0 for v, n in zip(values, norms)), 0.0)
            for aid, values in raw.items()
        }
        vectors[None] = (1.0,) + (0.0,) * (len(FEATURE_NAMES) - 2) + (1.0,)
        table = idx.features = {
            key: (vector, tuple((i, v) for i, v in enumerate(vector) if v))
            for key, vector in vectors.items()
        }
    return table


def _sum(values) -> float:
    """Add floats left to right, as `sum` did before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _utilities(weights: list[float], rows: list[tuple]) -> list[float]:
    """weights . vector of each move, from its nonzero (index, value)
    pairs added left to right: with finite weights, the dense
    left-to-right sum bit for bit (see the module docstring)."""
    utilities = []
    for pairs in rows:
        utility = 0.0
        for i, value in pairs:
            utility += weights[i] * value
        utilities.append(utility)
    return utilities


def _softmax_sample(
    weights: list[float], temperature: float, rows: list[tuple],
    rng: random.Random,
) -> tuple[int, list[float]]:
    """Draw one index with probability proportional to
    exp(utility / temperature), each move's utility from its nonzero
    feature pairs (see `_utilities`); returns the index and every
    probability."""
    utilities = _utilities(weights, rows)
    top = max(utilities)
    exps = [math.exp((u - top) / temperature) for u in utilities]
    total = _sum(exps)
    probs = [e / total for e in exps]
    draw = rng.random()
    running = 0.0
    for i, p in enumerate(probs):
        running += p
        if draw < running:
            return i, probs
    return len(probs) - 1, probs


def _columns(rows: list[tuple]) -> list[tuple[int, list[tuple[int, float]]]]:
    """The features some move has nonzero, in index order, each with its
    (move index, value) pairs in move order."""
    columns: dict[int, list[tuple[int, float]]] = {}
    for j, pairs in enumerate(rows):
        for i, value in pairs:
            columns.setdefault(i, []).append((j, value))
    return sorted(columns.items())


def _reinforce(
    grad: list[float], temperature: float, probs: list[float],
    taken: tuple[float, ...], columns: list[tuple],
) -> None:
    """Add one decision's REINFORCE term, the gradient of the taken
    move's log-probability, to `grad`: (taken value - expected value) /
    temperature for each feature of `columns`, the expectation added left
    to right over the moves with the feature nonzero. A feature no move
    has adds +0.0, which changes nothing, so it is skipped."""
    for i, entries in columns:
        expectation = 0.0
        for j, value in entries:
            expectation += probs[j] * value
        grad[i] += (taken[i] - expectation) / temperature


def softmax_decide(
    policy: SoftmaxPolicy,
    config: TuningConfig,
    state: GameState,
    rng: random.Random,
) -> Decision:
    """Sample a move from softmax over utilities of the available moves,
    their features read from the build's table (see `_features`)."""
    moves = available_moves(config, state)
    if not moves:
        return Decision.stop("deadlock")
    features = _features(config)
    pick, _ = _softmax_sample(
        policy.weights, policy.temperature,
        [features[m.action][1] for m in moves], rng,
    )
    return moves[pick]


class SoftmaxPlanner:
    """The Softmax agent: each decision samples one available move, as
    `softmax_decide` does. A learner (see `train_softmax`) sets `grad`;
    each decision then adds its move's REINFORCE term, the gradient of
    its log-probability in the weights, to it.

    Every decision reads the graph and feature table of the build it is
    given; `config`, the build the agent is made for, is not kept.

    A learner, and a group's agent once its graph (see `_graph`) has
    served an earlier episode, meet their states again: they sample their
    root record's edges, in `available_moves` order, so the engine
    expands each state once. Each record keeps its move table, (edges,
    feature rows, feature vectors, nonzero columns), for every Softmax
    agent on the graph. Otherwise the agent decides by `softmax_decide`:
    one made per trial has nothing to reuse, and expanding every state it
    stands on costs several engine steps per decision.
    """

    name = "softmax"
    last_expanded = 0
    grad: list[float] | None = None

    def __init__(self, policy: SoftmaxPolicy, config: TuningConfig):
        self.policy = policy
        self._config: TuningConfig | None = None
        self._graph: _Graph | None = None

    def decide(
        self, config: TuningConfig, state: GameState, rng: random.Random
    ) -> Decision:
        if config is not self._config:
            self._config, self._graph = config, _graph(config)
        graph = self._graph
        grad = self.grad
        if grad is None and graph.episodes < 2:
            return softmax_decide(self.policy, config, state, rng)
        root = graph.root(state)
        moves = root.moves
        if moves is None:
            edges = root.edges
            if edges is None:
                edges = graph.expand(config, root)
            features = _features(config)
            table = [features[edge[0].action] for edge in edges]
            rows = [pairs for _, pairs in table]
            moves = root.moves = (
                edges, rows, [vector for vector, _ in table], _columns(rows))
        edges, rows, vectors, columns = moves
        if not edges:
            return Decision.stop("deadlock")
        temperature = self.policy.temperature
        pick, probs = _softmax_sample(self.policy.weights, temperature, rows, rng)
        if grad is not None:
            _reinforce(grad, temperature, probs, vectors[pick], columns)
        return edges[pick][0]


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

    Every episode runs through the evaluation loop with a Softmax agent
    that collects its gradient. Returns the trained policy and the
    per-episode return curve; raises ValueError once a weight turns NaN.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if not (math.isfinite(step_size) and step_size > 0):
        raise ValueError("step_size must be a finite number > 0")

    learner = SoftmaxPlanner(SoftmaxPolicy.zero(temperature), config)
    weights = learner.policy.weights
    returns: list[float] = []
    baseline = 0.0

    for episode in range(episodes):
        learner.grad = grad = [0.0] * len(weights)
        state, _, _, reached, *_ = _play(
            config, initial_state(config, scenario, episode), rng, learner, goal
        )
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
            elif math.isnan(weights[i]):  # a NaN passes both clips
                raise ValueError(f"training episode {episode}: weights are not "
                                 f"finite at temperature {temperature!r}")

    return SoftmaxPolicy(list(FEATURE_NAMES), weights, temperature), returns
