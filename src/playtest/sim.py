"""Deterministic game-mechanics engine: states, transitions, and time.

No transition changes its input state, so independent trials can share
one TuningConfig and run in parallel, and a search can keep every state
it reaches. Time is integer in-game minutes. Resource regeneration keeps
an exact fractional remainder per resource, so regenerating over one
long advance or many short ones yields identical results.

Every transition runs in two steps. The edge step (`act_edge`,
`wait_edge`) makes one copy of its input (`_successor`) and fills in
what the edge changes before anyone sees it, copying a dict before its
first write. It returns that successor without path history, whose
counters hold only the action count, and the edge's effects: the trace
entries it adds, whether an act counted toward the running event, the
event run it closed and the session gap it ended. An idle state's
session end (`session_end_edge`) takes at most two wait steps: a closure
starts no event, so its walk meets one at most. The record step
(`record`) writes the effects into a path history, which lives in
`Counters` alone: the trace, the event log, the event action count, the
session gaps and the running event's action count. The public
transitions (`apply_action`, `step_action`, `advance_time`,
`close_session_if_idle`) do both, giving the successor they build its
full counters. A search keeps only history-free states, so one state
serves every path that reaches it, and an episode records the effects of
the edges it commits. An event starts in one way only, implicitly: an
act of an action that requires an event, taken while none runs, starts
the first event by id that lists the action and may start
(`_may_start`).

Legality has two parts. The static part is each action's requirements,
the running event's action list and, for an implicit start, the chain
rules. It reads only the career and its level, the owned objects, the
running event's id and the relationship's category and completed count,
which change far less often than the clock. `_gates` computes it once per
build for each combination of those fields and keeps the passing actions
in the build's index. The per-state part is the lock, which
`legal_moves` and `checked_action` check first, then the cooldown, the
costs and the consumed items, which `_affordable` checks for both. A
session end's next ready time (`_next_ready`) reads the gate rows too,
with each action's items, costs and regen rates from a second table the
build computes once (`_ready_inputs`), so no ready time is found per
action by a call of its own.

The trace and per-event log are persistent linked lists (cons cells)
so that appending is O(1); use trace_entries()/event_log_entries() to
materialize them in order.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import (
    ClockRegression,
    DanglingReference,
    Deadlock,
    IllegalAction,
    UnknownCareer,
)
from .tuning import ActionSpec, Codec, ConfigIndex, EventSpec, RewardBundle, TuningConfig

TRACE_ACT = "act"
TRACE_WAIT = "wait"
TRACE_EVENT_START = "event_start"
TRACE_EVENT_END = "event_end"
TRACE_LEVEL_UP = "level_up"
TRACE_SESSION_END = "session_end"

# cons cell: (payload, previous) or None
_Chain = tuple | None


def _chain_entries(chain: _Chain) -> list:
    out = []
    while chain is not None:
        payload, chain = chain
        out.append(payload)
    out.reverse()
    return out


@dataclass(slots=True)
class EventOutcome:
    """One closed event run, recorded when the event completes or times out."""

    event_id: str
    kind: str
    owner: str
    index: int  # chain position for relationship events, occurrence otherwise
    actions: int
    accrued_xp: int
    completed: bool
    started_at: int
    ended_at: int


@dataclass(slots=True)
class Counters:
    """A state's action count and all of its path history. A successor
    without history (see `act_edge`) holds the action count alone, in
    counters every such state shares, so no `Counters` changes once made."""

    total_actions: int = 0
    event_actions: int = 0
    wait_intervals: tuple[int, ...] = ()  # one per session_end entry
    trace: _Chain = None  # entries are (clock, kind, detail)
    event_log: _Chain = None
    running: int = 0  # actions counted toward the running event so far

    def session_count(self) -> int:
        """Sessions played: completed gaps plus the final open session."""
        if self.total_actions == 0:
            return 0
        return len(self.wait_intervals) + 1


# The counters of a state without path history, by action count: they
# hold nothing else, so every such state shares them.
_BARE_COUNTERS: dict[int, Counters] = {}


def trace_entries(state: "GameState") -> list[tuple[int, str, str]]:
    return _chain_entries(state.counters.trace)


def event_log_entries(state: "GameState") -> list[EventOutcome]:
    return _chain_entries(state.counters.event_log)


def trace_to_jsonl(state: "GameState") -> str:
    """Trace export: one JSON record {clock, kind, detail} per line."""
    lines = [
        json.dumps({"clock": clock, "kind": kind, "detail": detail})
        for clock, kind, detail in trace_entries(state)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(slots=True)
class ActiveEvent:
    """The running event's dynamics; its action count is `Counters.running`."""

    event_id: str
    accrued_xp: int
    deadline: int
    started_at: int


@dataclass(slots=True)
class CareerState:
    id: str
    level: int
    xp: int


@dataclass(slots=True)
class RelationshipState:
    category: str | None
    completed: int
    xp: int


@dataclass
class ScenarioOverrides(Codec):
    """Per-experiment starting conditions applied without cost."""

    career: str | None = None
    relationship_category: str | None = None
    grant_objects: bool = False
    initial_resources: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class GameState:
    """One avatar's complete simulation state. Once the edge step that
    makes it returns it, neither it nor its dicts change (see `_successor`)."""

    clock: int
    resources: dict[str, int]
    regen_remainders: dict[str, int]  # numerator remainder per regen denominator
    locked_until: int
    cooldowns: dict[str, int]  # action id -> first clock minute it is usable again
    career: CareerState | None
    relationship: RelationshipState
    active_event: ActiveEvent | None
    inventory: dict[str, int]
    owned_objects: frozenset[str]
    events_completed: frozenset[str]
    auto_grant_objects: bool
    counters: Counters

    def dedup_key(self) -> tuple:
        """Hashable identity of everything that affects future dynamics.

        Counters, trace, and provenance fields are excluded; expired
        locks and cooldowns and empty inventory slots are normalized
        away so equivalent states collide. The key leads with the clock,
        so states at different clocks never share one: an agents graph
        builds a key only for a state at a clock another state has (see
        `agents._Graph.node`).
        """
        # The key is built once per search state that shares its clock,
        # so it is written for speed: each collection becomes its sorted
        # tuple, and one of at most one entry, already in order, skips the
        # sort.
        clock = self.clock
        career = self.career
        rel = self.relationship
        event = self.active_event
        resources = self.resources.items()
        remainders = [kv for kv in self.regen_remainders.items() if kv[1]]
        cooldowns = ([kv for kv in self.cooldowns.items() if kv[1] > clock]
                     if self.cooldowns else ())
        inventory = ([kv for kv in self.inventory.items() if kv[1]]
                     if self.inventory else ())
        owned = self.owned_objects
        done = self.events_completed
        return (
            clock,
            tuple(sorted(resources) if len(resources) > 1 else resources),
            tuple(sorted(remainders) if len(remainders) > 1 else remainders),
            self.locked_until if self.locked_until > clock else 0,
            tuple(sorted(cooldowns) if len(cooldowns) > 1 else cooldowns),
            (career.id, career.level, career.xp) if career else None,
            (rel.category, rel.completed, rel.xp),
            (event.event_id, event.accrued_xp, event.deadline) if event else None,
            tuple(sorted(inventory) if len(inventory) > 1 else inventory),
            tuple(sorted(owned) if len(owned) > 1 else owned),
            tuple(sorted(done) if len(done) > 1 else done),
        )


def state_digest(state: GameState) -> str:
    return hashlib.sha256(repr(state.dedup_key()).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def initial_state(
    config: TuningConfig, scenario: ScenarioOverrides, seed: int
) -> GameState:
    idx = config.index()
    career = None
    owned: set[str] = set()
    if scenario.career is not None:
        spec = idx.careers.get(scenario.career)
        if spec is None:
            raise UnknownCareer(scenario.career)
        career = CareerState(spec.id, 1, 0)
        if scenario.grant_objects:
            owned.update(
                u.object_id for u in spec.object_unlocks if u.unlock_level <= 1
            )
    category = scenario.relationship_category
    if category is not None and category not in idx.relationships:
        raise DanglingReference("scenario.relationship_category", category)
    resources = {}
    for res in config.resources:
        value = scenario.initial_resources.get(res.id, res.initial)
        resources[res.id] = min(res.capacity, max(0, value))
    for rid in scenario.initial_resources:
        if rid not in idx.resources:
            raise DanglingReference("scenario.initial_resources", rid)
    return GameState(
        clock=0,
        resources=resources,
        regen_remainders={r.id: 0 for r in config.resources},
        locked_until=0,
        cooldowns={},
        career=career,
        relationship=RelationshipState(category, 0, 0),
        active_event=None,
        inventory={},
        owned_objects=frozenset(owned),
        events_completed=frozenset(),
        auto_grant_objects=scenario.grant_objects,
        counters=Counters(),
    )


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------

def _qualifies(
    state: GameState, career: str | None, min_level: int,
    owned_object: str | None = None,
) -> bool:
    """The requirement rule: with `career` set, the avatar follows that
    career at `min_level` or above; with `owned_object` set, it owns it."""
    if career is not None:
        own = state.career
        if own is None or own.id != career or own.level < min_level:
            return False
    return owned_object is None or owned_object in state.owned_objects


def _may_start(idx: ConfigIndex, state: GameState, event: EventSpec) -> bool:
    """Whether the event may start now, an event already running aside: a
    career event once its career reaches the level that unlocks it, a
    relationship event as the next of its chain in the state's category
    (any category while none is locked), and either only once its own
    start requirements hold."""
    if event.kind == "career":
        unlock = idx.event_unlock_level.get(event.id)
        if unlock is None or not _qualifies(state, event.owner_id, unlock):
            return False
    else:
        position = idx.chain_position.get(event.id)
        if position is None:
            return False
        category, index = position
        locked = state.relationship.category
        if locked is not None and locked != category:
            return False
        if index != state.relationship.completed + 1:
            return False
    req = event.start_requires
    return _qualifies(state, req.career, req.min_level, req.owned_object)


def _implicit_start_target(
    idx: ConfigIndex, state: GameState, action_id: str
) -> str | None:
    """Startable event (smallest id) whose action list contains action_id."""
    for eid in idx.events_of_action.get(action_id, ()):
        if _may_start(idx, state, idx.events[eid]):
            return eid
    return None


def _legal_start(
    idx: ConfigIndex, state: GameState, action: ActionSpec
) -> str | None | bool:
    """The static rule of one action: False if its requirements or the
    running event bar it, else the event its run starts implicitly, or
    None if none. It reads only the fields of `_gates`' key."""
    req = action.requires
    if not _qualifies(state, req.career, req.min_level, req.owned_object):
        return False
    start = None
    if req.during_event:
        event = state.active_event
        if event is not None:
            if action.id not in idx.events[event.event_id].action_ids:
                return False
        else:
            start = _implicit_start_target(idx, state, action.id)
            if start is None:
                return False
    return start


def _gates(idx: ConfigIndex, state: GameState) -> dict[str, tuple]:
    """The gate rows of `state`, by action id in id order: one per action
    that passes the static rule (`_legal_start`), as (action, the event
    its run starts implicitly or None). Kept in `idx.gates` by the fields
    the rule reads, and computed once per build for each combination of
    them."""
    career = state.career
    event = state.active_event
    rel = state.relationship
    key = (career.id if career is not None else None,
           career.level if career is not None else 0,
           state.owned_objects,
           event.event_id if event is not None else None,
           rel.category, rel.completed)
    rows = idx.gates.get(key)
    if rows is None:
        rows = {}
        for action in idx.sorted_actions:
            start = _legal_start(idx, state, action)
            if start is not False:
                rows[action.id] = (action, start)
        idx.gates[key] = rows
    return rows


def _affordable(state: GameState, rows: Iterable[tuple]) -> list[tuple]:
    """The gate rows whose actions the per-state rule lets run at the
    current clock, the lock aside: their cooldown is over, and the state
    holds their costs and their consumed items."""
    clock = state.clock
    cooldowns, resources, inventory = state.cooldowns, state.resources, state.inventory
    passing = []
    for row in rows:
        action = row[0]
        if cooldowns and cooldowns.get(action.id, 0) > clock:
            continue
        for rid, cost in action.costs.items():
            if resources.get(rid, 0) < cost:
                break
        else:
            for item, count in action.consumes_items.items():
                if inventory.get(item, 0) < count:
                    break
            else:
                passing.append(row)
    return passing


def legal_moves(
    idx: ConfigIndex, state: GameState
) -> list[tuple[ActionSpec, str | None]]:
    """The actions executable right now, in lexicographic id order, each
    with the event its run starts implicitly (None if none)."""
    if state.locked_until > state.clock:
        return []
    return _affordable(state, _gates(idx, state).values())


def legal_actions(config: TuningConfig, state: GameState) -> list[str]:
    """Actions executable right now, in lexicographic id order."""
    return [action.id for action, _ in legal_moves(config.index(), state)]


def checked_action(
    idx: ConfigIndex, state: GameState, action_id: str
) -> tuple[ActionSpec, str | None]:
    """The action and the event its run starts implicitly, as `act_edge`
    takes them, read from its gate row (see `_gates`); raises
    IllegalAction if it has none, or the lock or the per-state rule bars
    it now."""
    row = None if state.locked_until > state.clock else _gates(idx, state).get(action_id)
    if row is None or not _affordable(state, (row,)):
        raise IllegalAction(action_id)
    return row


# ---------------------------------------------------------------------------
# Reward application
# ---------------------------------------------------------------------------

def _grant_bundle(
    idx: ConfigIndex, bundle: RewardBundle, clock: int, child: GameState,
    entries: list,
) -> None:
    """Pay one reward bundle into `child`, adding level-ups to the trace
    `entries`. Event XP accrual is handled by the caller."""
    career = child.career
    if bundle.career_xp and career is not None:
        spec = idx.careers[career.id]
        xp = career.xp + bundle.career_xp
        level = career.level
        # level_for_xp stops below the next level's threshold
        if level < spec.max_level and xp >= spec.xp_per_level[level]:
            level = max(spec.level_for_xp(xp), level)
        if level > career.level:
            for reached in range(career.level + 1, level + 1):
                entries.append((clock, TRACE_LEVEL_UP, f"{career.id}:{reached}"))
            if child.auto_grant_objects:
                owned = child.owned_objects
                granted = {
                    u.object_id for u in spec.object_unlocks
                    if u.unlock_level <= level and u.object_id not in owned
                }
                if granted:
                    child.owned_objects = owned | granted
        child.career = CareerState(career.id, level, xp)
    if bundle.relationship_xp:
        rel = child.relationship
        child.relationship = RelationshipState(
            rel.category, rel.completed, rel.xp + bundle.relationship_xp)
    if bundle.resources:
        resources = child.resources = dict(child.resources)
        for rid, amount in bundle.resources.items():
            cap = idx.resources[rid].capacity
            resources[rid] = min(cap, resources.get(rid, 0) + amount)
    if bundle.items:
        inventory = child.inventory = dict(child.inventory)
        for item, count in bundle.items.items():
            inventory[item] = inventory.get(item, 0) + count


def _close_event(
    idx: ConfigIndex, at_clock: int, child: GameState, entries: list,
) -> EventOutcome:
    """End `child`'s running event at `at_clock`, completed if it reached
    its final threshold: pay every reached step exactly once and trace the
    end of the run.

    Returns the run's outcome as far as the state knows it: a career
    event's `index` (its occurrence, counted in the event log) and every
    run's `actions` are the record step's.
    """
    run = child.active_event
    event = idx.events[run.event_id]
    completed = run.accrued_xp >= event.final_threshold
    for step in event.steps:
        if run.accrued_xp >= step.xp_threshold:
            _grant_bundle(idx, step.reward, at_clock, child, entries)
    index = 0
    if event.kind == "relationship":
        rel = child.relationship
        index = rel.completed + 1
        if completed:
            child.relationship = RelationshipState(rel.category, index, rel.xp)
    if completed:
        child.events_completed = child.events_completed | {event.id}
    child.active_event = None
    status = "completed" if completed else "timeout"
    entries.append((at_clock, TRACE_EVENT_END, f"{event.id}:{status}"))
    return EventOutcome(event.id, event.kind, event.owner_id, index, 0,
                        run.accrued_xp, completed, run.started_at, at_clock)


# ---------------------------------------------------------------------------
# Path history
# ---------------------------------------------------------------------------

# An edge's effects: (its trace entries in order, 1 if its act counted
# toward the running event else 0, the EventOutcome of a run it closed or
# None, the session gap it ended or None). A search keeps them per edge,
# so nothing may change them once made.
Effects = tuple


def record(
    counters: Counters, total_actions: int, path: Iterable[Effects]
) -> Counters:
    """The path history once the edges whose effects `path` lists, in
    order, have reached a state with `total_actions` actions.

    `counters` is the history before those edges; returns a new `Counters`
    after them, never changing `counters`. This is the only writer of path
    history: the engine's public transitions record one edge, and an
    episode records its committed path when it ends.
    """
    trace = counters.trace
    event_log = counters.event_log
    event_actions = counters.event_actions
    waits = counters.wait_intervals
    running = counters.running
    for entries, counted, closed, gap in path:
        for entry in entries:
            trace = (entry, trace)
        if counted:
            event_actions += 1
            running += 1
        if closed is not None:
            index = closed.index
            if closed.kind != "relationship":
                index = 1
                log = event_log
                while log is not None:
                    outcome, log = log
                    if outcome.event_id == closed.event_id:
                        index += 1
            event_log = (EventOutcome(
                closed.event_id, closed.kind, closed.owner, index, running,
                closed.accrued_xp, closed.completed, closed.started_at,
                closed.ended_at), event_log)
            running = 0
        if gap is not None:
            waits += (gap,)
    return Counters(total_actions, event_actions, waits, trace, event_log,
                    running)


def _recorded(state: GameState, successor: GameState, effects: Effects) -> GameState:
    """`successor`, which the edge step from `state` has just built and no one
    else holds, given `state`'s history carried through the edge's effects."""
    successor.counters = record(state.counters, successor.counters.total_actions,
                                (effects,))
    return successor


# ---------------------------------------------------------------------------
# Acting
# ---------------------------------------------------------------------------

def apply_action(config: TuningConfig, state: GameState, action_id: str) -> GameState:
    """Execute one legal action at the current clock (no time passes)."""
    idx = config.index()
    action, start = checked_action(idx, state, action_id)
    return _recorded(state, *act_edge(idx, state, action, start, False))


def step_action(config: TuningConfig, state: GameState, action_id: str) -> GameState:
    """Apply an action, then let its duration elapse (the planner's act edge)."""
    idx = config.index()
    action, start = checked_action(idx, state, action_id)
    return _recorded(state, *act_edge(idx, state, action, start))


def act_edge(
    idx: ConfigIndex, state: GameState, action: ActionSpec, start: str | None,
    elapse: bool = True,
) -> tuple[GameState, Effects]:
    """step_action's successor without path history and its effects, or
    with `elapse` false apply_action's, built in one pass: the acted state
    is never made when its duration elapses.

    The action must be legal now and `start` the event its run starts
    implicitly, as `legal_moves` or `checked_action` give them.
    """
    clock = state.clock
    child = _successor(state)
    entries = []

    if action.costs:
        resources = child.resources = dict(state.resources)
        for rid, cost in action.costs.items():
            resources[rid] -= cost
    if action.consumes_items:
        inventory = child.inventory = dict(state.inventory)
        for item, count in action.consumes_items.items():
            inventory[item] -= count

    if start is not None:  # a first relationship event locks its category
        event = idx.events[start]
        rel = child.relationship
        if event.kind == "relationship" and rel.category is None:
            child.relationship = RelationshipState(event.owner_id, rel.completed,
                                                   rel.xp)
        child.active_event = ActiveEvent(start, 0, clock + event.time_limit, clock)
        entries.append((clock, TRACE_EVENT_START, start))

    counted = 0
    active = child.active_event
    if active is not None and (active.event_id, action.id) in idx.counted:
        active = child.active_event = ActiveEvent(
            active.event_id, active.accrued_xp + action.rewards.event_xp,
            active.deadline, active.started_at)
        counted = 1

    if action.id in idx.granting:
        _grant_bundle(idx, action.rewards, clock, child, entries)

    entries.append((clock, TRACE_ACT, action.id))

    closed = None
    if (active is not None
            and active.accrued_xp >= idx.final_threshold[active.event_id]):
        closed = _close_event(idx, clock, child, entries)

    if action.cooldown > 0:
        cooldowns = child.cooldowns = dict(state.cooldowns)
        cooldowns[action.id] = clock + action.duration + action.cooldown

    child.locked_until = clock + action.duration
    return _settle(idx, child, child.locked_until if elapse else clock,
                   state.counters.total_actions + 1, entries, counted, closed,
                   None)


# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

def _regen(
    regen: tuple[tuple[str, int, int, int], ...], child: GameState, dt: int,
) -> None:
    """Run `dt` minutes of the build's regen table (`ConfigIndex.regen`) on
    `child`'s resources and remainders; a dict none of whose values change
    stays shared."""
    resources, remainders = child.resources, child.regen_remainders
    new_res, new_rem = resources, remainders
    for rid, numerator, denominator, capacity in regen:
        held = remainders[rid]
        gain, rem = divmod(numerator * dt + held, denominator)
        if rem != held:
            if new_rem is remainders:
                new_rem = dict(remainders)
            new_rem[rid] = rem
        if gain:
            have = resources[rid]
            value = min(capacity, have + gain)
            if value != have:
                if new_res is resources:
                    new_res = dict(resources)
                new_res[rid] = value
    child.resources, child.regen_remainders = new_res, new_rem


def advance_time(config: TuningConfig, state: GameState, until: int) -> GameState:
    """Move the clock forward, regenerating resources exactly.

    An active event whose deadline falls inside the advance is closed at
    the deadline: every reached step is paid, then time continues.
    """
    if until == state.clock:
        return state
    return _recorded(state, *wait_edge(config.index(), state, until))


def wait_edge(
    idx: ConfigIndex, state: GameState, until: int, marker: str | None = None,
) -> tuple[GameState, Effects]:
    """advance_time's successor without path history and its effects.

    `marker` is the trace kind that opens the edge: TRACE_WAIT for a wait
    while actions are legal (its detail is `until`), TRACE_SESSION_END for
    the end of a session (its detail is the gap, which the effects count
    as a session), or None for a bare advance.
    """
    clock = state.clock
    if until < clock:
        raise ClockRegression(f"{until} < {clock}")
    entries = []
    gap = None
    if marker == TRACE_SESSION_END:
        gap = until - clock
        entries.append((clock, marker, str(gap)))
    elif marker is not None:
        entries.append((clock, marker, str(until)))
    return _settle(idx, _successor(state), until, state.counters.total_actions,
                   entries, 0, None, gap)


def _successor(state: GameState) -> GameState:
    """A copy of `state` for an edge step to fill in. It shares every dict
    and value object of `state`, so the step writes new objects into it and
    copies a dict before its first write: `state` never changes."""
    # positional: keyword arguments would triple the cost of the build
    return GameState(state.clock, state.resources, state.regen_remainders,
                     state.locked_until, state.cooldowns, state.career,
                     state.relationship, state.active_event, state.inventory,
                     state.owned_objects, state.events_completed,
                     state.auto_grant_objects, state.counters)


def _settle(
    idx: ConfigIndex, child: GameState, until: int, total_actions: int,
    entries: list, counted: int, closed: EventOutcome | None, gap: int | None,
) -> tuple[GameState, Effects]:
    """`child` once its clock has run on to `until` (no time passes when
    they are equal), without path history, and the effects of the edge so
    far (`entries`, `counted`, `closed`, `gap`) with those of an event run
    its deadline closes on the way."""
    clock = child.clock
    if until != clock:
        active = child.active_event
        if active is not None and active.deadline <= until:
            _regen(idx.regen, child, active.deadline - clock)
            closed = _close_event(idx, active.deadline, child, entries)
            clock = active.deadline
        _regen(idx.regen, child, until - clock)
        child.clock = until
    child.counters = (_BARE_COUNTERS.get(total_actions) or _BARE_COUNTERS.setdefault(
        total_actions, Counters(total_actions)))
    return child, (entries, counted, closed, gap)


# ---------------------------------------------------------------------------
# Availability
# ---------------------------------------------------------------------------

def _ready_inputs(idx: ConfigIndex) -> dict[str, tuple]:
    """Each action's ready-time inputs, by id, computed once per build and
    kept in `idx.ready`: its consumed items as (item, count) pairs, and its
    costs as (resource id, cost, regen numerator, denominator), where a
    numerator of 0 marks a cost that never refills (its resource does not
    regenerate, or its capacity is below the cost)."""
    table = idx.ready
    if table is None:
        table = {}
        for aid, action in idx.actions.items():
            costs = []
            for rid, cost in action.costs.items():
                res = idx.resources[rid]
                rate = res.regen_rate
                costs.append((rid, cost, 0 if cost > res.capacity else rate.numerator,
                              rate.denominator))
            table[aid] = (tuple(action.consumes_items.items()), tuple(costs))
        idx.ready = table
    return table


def _next_ready(idx: ConfigIndex, state: GameState) -> int | None:
    """The earliest clock after the current one at which an action with a
    gate row (see `_gates`) becomes legal, assuming the world only changes
    by time passing (event closures excluded), or None. An action is
    ready once its lock and cooldown are over and its costs have
    regenerated; one that lacks a consumed item, or a cost that never
    refills, never is."""
    inputs = idx.ready or _ready_inputs(idx)
    clock = state.clock
    base = max(clock, state.locked_until)
    cooldowns, inventory = state.cooldowns, state.inventory
    resources, remainders = state.resources, state.regen_remainders
    best = None
    for aid in _gates(idx, state):
        items, costs = inputs[aid]
        ready = max(base, cooldowns.get(aid, 0)) if cooldowns else base
        for item, count in items:
            if inventory.get(item, 0) < count:
                break
        else:
            for rid, cost, numerator, denominator in costs:
                have = resources.get(rid, 0)
                if have < cost:
                    if not numerator:
                        break
                    need = (cost - have) * denominator - remainders.get(rid, 0)
                    ready = max(ready, clock - (need // -numerator))  # ceil division
            else:
                if clock < ready and (best is None or ready < best):
                    best = ready
    return best


def next_availability(config: TuningConfig, state: GameState) -> int | None:
    """Smallest future clock time at which some action is legal, or None:
    the clock if one is legal now, else the end of `session_end_edge`'s
    walk, which meets at most one event closure (a closure starts none)."""
    if legal_moves(config.index(), state):
        return state.clock
    edge = session_end_edge(config.index(), state)
    return None if edge is None else edge[0].clock


def close_session_if_idle(config: TuningConfig, state: GameState) -> GameState:
    """End the session: record the wait gap and jump to the next availability."""
    if legal_actions(config, state):
        raise IllegalAction("session close while actions are legal")
    edge = session_end_edge(config.index(), state)
    if edge is None:
        raise Deadlock("no action can ever become legal")
    return _recorded(state, *edge)


def session_end_edge(
    idx: ConfigIndex, state: GameState
) -> tuple[GameState, Effects] | None:
    """The session end of an idle state, a wait to the next availability
    traced with its gap: its successor without path history and its
    effects, or None if no action can ever become legal.

    Only time, whose effect the static ready times give exactly, and the
    running event's closure change what is legal, and a closure starts no
    event, so the walk meets at most one closure. It takes at most two
    waits from `state`: to the deadline, if no ready time comes before
    it, and if the closure leaves nothing legal, on to the earliest ready
    time after it.
    """
    ready = _next_ready(idx, state)
    event = state.active_event
    if event is not None and (ready is None or event.deadline <= ready):
        edge = wait_edge(idx, state, event.deadline, TRACE_SESSION_END)
        if legal_moves(idx, edge[0]):
            return edge
        ready = _next_ready(idx, edge[0])
    if ready is None:
        return None
    return wait_edge(idx, state, ready, TRACE_SESSION_END)
