"""Game-mechanics engine: transitions, time, events, and sessions."""

import json
import random
from dataclasses import replace

import pytest

from playtest import fixtures
from playtest.errors import (
    ClockRegression,
    Deadlock,
    IllegalAction,
    UnknownCareer,
)
from playtest.sim import (
    ActiveEvent,
    GameState,
    ScenarioOverrides,
    advance_time,
    apply_action,
    close_session_if_idle,
    event_log_entries,
    initial_state,
    legal_actions,
    legal_moves,
    next_availability,
    RelationshipState,
    state_digest,
    step_action,
    trace_entries,
    trace_to_jsonl,
)
from playtest.tuning import build_config


def barista_state(config, seed=7, **overrides):
    return initial_state(
        config, ScenarioOverrides(career="barista", **overrides), seed
    )


class TestInitialState:
    def test_career_assignment(self, desk_base):
        state = barista_state(desk_base)
        assert state.clock == 0
        assert (state.career.id, state.career.level, state.career.xp) == (
            "barista", 1, 0)
        assert state.counters.total_actions == 0

    def test_grant_objects_culinary(self, desk_base):
        state = initial_state(
            desk_base,
            ScenarioOverrides(career="culinary", grant_objects=True),
            7,
        )
        culinary = desk_base.index().careers["culinary"]
        assert state.owned_objects == {u.object_id for u in culinary.object_unlocks}

    def test_no_overrides(self, desk_base):
        state = initial_state(desk_base, ScenarioOverrides(), 7)
        assert state.career is None
        assert state.relationship.category is None

    def test_unknown_career(self, desk_base):
        with pytest.raises(UnknownCareer):
            initial_state(desk_base, ScenarioOverrides(career="astronaut"), 7)

    def test_initial_resource_override(self, desk_base):
        state = barista_state(desk_base, initial_resources={"energy": 3})
        assert state.resources["energy"] == 3


class TestLegalActions:
    def test_everything_unaffordable(self, desk_base):
        state = barista_state(desk_base, initial_resources={"energy": 0})
        assert legal_actions(desk_base, state) == []

    def test_desk_base_barista_start(self, desk_base):
        state = barista_state(desk_base)
        assert legal_actions(desk_base, state) == ["brew"]

    def test_locked_state_has_no_actions(self, desk_base):
        state = barista_state(desk_base)
        busy = apply_action(desk_base, state, "brew")
        assert busy.locked_until > busy.clock
        assert legal_actions(desk_base, busy) == []

    def test_sorted_order(self, desk_base):
        state = barista_state(desk_base)
        state = step_action(desk_base, state, "brew")
        acts = legal_actions(desk_base, state)
        assert acts == sorted(acts)
        assert "serve" in acts  # coffee available, implicit event start


class TestApplyAction:
    def test_brew_effects(self, desk_base):
        state = barista_state(desk_base, initial_resources={"energy": 10})
        after = apply_action(desk_base, state, "brew")
        assert after.resources["energy"] == 8
        assert after.inventory["coffee"] == 1
        assert after.locked_until == state.clock + 1
        assert after.counters.total_actions == 1
        # input state untouched
        assert state.resources["energy"] == 10
        assert state.inventory == {}

    def test_level_up_trace(self, desk_base):
        state = barista_state(desk_base)
        for _ in range(3):  # three full shifts reach level 2 at 40 xp
            for _ in range(4):
                state = step_action(desk_base, state, "brew")
                state = step_action(desk_base, state, "serve")
        assert state.career.level >= 2
        kinds = [k for _, k, _ in trace_entries(state)]
        assert "level_up" in kinds

    def test_event_completion_pays_all_steps(self, desk_base):
        state = barista_state(desk_base)
        for _ in range(4):
            state = step_action(desk_base, state, "brew")
            state = step_action(desk_base, state, "serve")
        # 4 serves reach the final threshold: event completes immediately
        assert state.active_event is None
        outcome = event_log_entries(state)[0]
        assert outcome.completed and outcome.accrued_xp == 12
        # career xp: 8 from serves plus both step rewards (10 + 16)
        assert state.career.xp == 8 + 26

    def test_illegal_action_raises(self, desk_base):
        state = barista_state(desk_base, initial_resources={"energy": 0})
        with pytest.raises(IllegalAction):
            apply_action(desk_base, state, "brew")

    def test_cooldown_blocks_repeat(self, desk_base):
        doc = json.loads(fixtures.path("desk_base").read_text())
        for action in doc["actions"]:
            if action["id"] == "brew":
                action["cooldown"] = 10
        config = build_config(doc)
        state = barista_state(config)
        state = apply_action(config, state, "brew")
        state = advance_time(config, state, state.locked_until)
        assert "brew" not in legal_actions(config, state)
        state = advance_time(config, state, state.cooldowns["brew"])
        assert "brew" in legal_actions(config, state)


class TestPayoutRule:
    """Total paid always equals the step rewards for every reached step."""

    def expected_payout(self, event, accrued):
        return sum(step.reward.career_xp for step in event.steps
                   if accrued >= step.xp_threshold)

    @pytest.mark.parametrize("serves,close_by_timeout", [
        (0, True), (1, True), (2, True), (3, True), (4, False),
    ])
    def test_every_stop_point(self, desk_base, serves, close_by_timeout):
        state = barista_state(desk_base)
        for _ in range(serves):
            state = step_action(desk_base, state, "brew")
            state = step_action(desk_base, state, "serve")
        event_spec = desk_base.index().events["barista_shift"]
        if serves == 0:  # a run that no act has counted toward yet
            state = replace(state, active_event=ActiveEvent(
                "barista_shift", 0, state.clock + event_spec.time_limit,
                state.clock))
        accrued = 0 if state.active_event is None else state.active_event.accrued_xp
        if close_by_timeout:
            assert state.active_event is not None
            xp_before = state.career.xp
            state = advance_time(desk_base, state, state.active_event.deadline)
            paid = state.career.xp - xp_before
            assert paid == self.expected_payout(event_spec, accrued)
        else:
            assert state.active_event is None
            serve_xp = 2 * serves
            assert state.career.xp - serve_xp == self.expected_payout(event_spec, 12)


class TestAdvanceTime:
    def test_zero_advance_identity(self, desk_base):
        state = barista_state(desk_base)
        assert advance_time(desk_base, state, state.clock) is state

    def test_regen_clamps_at_capacity(self):
        doc = json.loads(fixtures.path("desk_base").read_text())
        doc["resources"][0] = {
            "id": "energy", "capacity": 10,
            "regen_rate": {"num": 1, "den": 1}, "initial": 10,
        }
        config = build_config(doc)
        state = initial_state(
            config, ScenarioOverrides(career="barista",
                                      initial_resources={"energy": 0}), 7)
        after = advance_time(config, state, 25)
        assert after.resources["energy"] == 10

    def test_timeout_pays_reached_step_only(self, desk_base):
        state = barista_state(desk_base)
        for _ in range(2):  # reach step 1 (6 event xp) but not step 2
            state = step_action(desk_base, state, "brew")
            state = step_action(desk_base, state, "serve")
        deadline = state.active_event.deadline
        xp_before = state.career.xp
        after = advance_time(desk_base, state, deadline + 50)
        assert after.active_event is None
        assert after.career.xp - xp_before == 10
        end = [e for _, k, e in trace_entries(after) if k == "event_end"]
        assert end == ["barista_shift:timeout"]

    def test_clock_regression(self, desk_base):
        state = barista_state(desk_base)
        state = advance_time(desk_base, state, 10)
        with pytest.raises(ClockRegression):
            advance_time(desk_base, state, 5)

    def test_fractional_regen_is_exact(self, desk_base):
        # regen 1/2 per minute: 7 minutes -> 3 units plus a half remainder
        state = barista_state(desk_base, initial_resources={"energy": 0})
        after = advance_time(desk_base, state, 7)
        assert after.resources["energy"] == 3
        assert after.regen_remainders["energy"] == 1


def fixture_doc(name):
    """Fixture `name` as a JSON document, with its actions and events by id."""
    doc = json.loads(fixtures.path(name).read_text())
    return (doc, {action["id"]: action for action in doc["actions"]},
            {event["id"]: event for event in doc["events"]})


class TestStartEvent:
    """An event starts only implicitly, by an act of one of its actions;
    an act the start rules bar is not legal."""

    def assert_illegal(self, config, state, action_id):
        assert action_id not in legal_actions(config, state)
        with pytest.raises(IllegalAction):
            apply_action(config, state, action_id)

    def test_first_relationship_event_locks_category(self, romance_outlier):
        state = initial_state(romance_outlier, ScenarioOverrides(), 7)
        after = apply_action(romance_outlier, state, "flirt")
        assert after.relationship.category == "romance"
        assert after.active_event.event_id == "sparks_1"
        assert after.active_event.deadline == after.clock + 60

    def test_category_locked(self, romance_outlier):
        state = initial_state(romance_outlier, ScenarioOverrides(), 7)
        state = apply_action(romance_outlier, state, "flirt")
        state = advance_time(romance_outlier, state, state.active_event.deadline)
        assert state.relationship.category == "romance"
        self.assert_illegal(romance_outlier, state, "chat")  # starts friends_1

    def test_chain_order_enforced(self):
        # sparks_2 gets an action of its own, which cannot start it first
        doc, actions, events = fixture_doc("romance_outlier")
        doc["actions"].append(dict(actions["flirt"], id="flirt_2"))
        events["sparks_2"]["action_ids"] = ["flirt_2"]
        config = build_config(doc)
        state = initial_state(config, ScenarioOverrides(), 7)
        self.assert_illegal(config, state, "flirt_2")
        assert apply_action(config, state, "flirt").active_event.event_id == "sparks_1"

    def test_career_requirement_unmet(self):
        # serve needs no career of its own; barista_shift, its event, does
        doc, actions, _ = fixture_doc("desk_base")
        actions["serve"].update(requires={"during_event": True},
                                consumes_items={})
        config = build_config(doc)
        state = initial_state(config, ScenarioOverrides(), 7)
        self.assert_illegal(config, state, "serve")
        started = apply_action(config, barista_state(config), "serve")
        assert started.active_event.event_id == "barista_shift"

    def test_event_in_progress(self, romance_outlier):
        state = initial_state(romance_outlier, ScenarioOverrides(), 7)
        state = step_action(romance_outlier, state, "flirt")
        # another event's action cannot start it while sparks_1 runs, and
        # sparks_1's own action counts toward the run instead of a new one
        assert legal_actions(romance_outlier, state) == ["flirt"]
        self.assert_illegal(romance_outlier, state, "taunt")
        again = apply_action(romance_outlier, state, "flirt")
        assert (again.active_event.event_id, again.active_event.started_at) == (
            "sparks_1", state.active_event.started_at)

    def test_startable_lists_only_eligible(self, desk_base):
        state = barista_state(desk_base, grant_objects=True)
        state = step_action(desk_base, state, "brew")  # coffee, for serve
        # the career event plus the first event of each relationship chain;
        # later chain events and other careers' events are not startable
        starts = [start for _, start in legal_moves(desk_base.index(), state)]
        assert sorted(filter(None, starts)) == [
            "barista_shift", "friends_1", "grudge_1", "sparks_1"]


class TestNextAvailability:
    def test_available_now(self, desk_base):
        state = barista_state(desk_base)
        assert next_availability(desk_base, state) == state.clock

    def test_lock_expiry(self, desk_base):
        doc = json.loads(fixtures.path("desk_base").read_text())
        for action in doc["actions"]:
            if action["id"] == "brew":
                action["duration"] = 5
        config = build_config(doc)
        state = barista_state(config)
        state = apply_action(config, state, "brew")
        assert next_availability(config, state) == state.clock + 5

    def test_regen_wait_matches_brute_force(self):
        doc = json.loads(fixtures.path("desk_base").read_text())
        doc["resources"][0]["regen_rate"] = {"num": 1, "den": 1}
        for action in doc["actions"]:
            action["costs"] = {"energy": 3}
        config = build_config(doc)
        state = initial_state(
            config, ScenarioOverrides(career="barista",
                                      initial_resources={"energy": 0}), 7)
        # brute force: scan advance_time minute by minute for the first
        # minute with a legal action
        expected = None
        for minute in range(1, 200):
            probe = advance_time(config, state, minute)
            if legal_actions(config, probe):
                expected = minute
                break
        assert expected == 3
        assert next_availability(config, state) == expected

    def test_deadlock_when_gated_forever(self, desk_base):
        doc = json.loads(fixtures.path("desk_base").read_text())
        for action in doc["actions"]:
            action["requires"] = {"owned_object": "chef_station"}
        config = build_config(doc)
        state = initial_state(config, ScenarioOverrides(), 7)
        assert next_availability(config, state) is None
        with pytest.raises(Deadlock):
            close_session_if_idle(config, state)


class TestSessions:
    def test_wait_interval_recorded(self, desk_base):
        state = barista_state(desk_base, initial_resources={"energy": 0})
        assert legal_actions(desk_base, state) == []
        after = close_session_if_idle(desk_base, state)
        # brew needs 2 energy at regen 1/2: available after 4 minutes
        assert after.counters.wait_intervals == (4,)
        assert len(after.counters.wait_intervals) == 1
        assert after.clock == 4
        kinds = [k for _, k, _ in trace_entries(after)]
        assert kinds.count("session_end") == 1

    def test_close_requires_idle(self, desk_base):
        state = barista_state(desk_base)
        with pytest.raises(IllegalAction):
            close_session_if_idle(desk_base, state)

    def test_session_count_reporting(self, desk_base):
        state = barista_state(desk_base)
        assert state.counters.session_count() == 0
        state = step_action(desk_base, state, "brew")
        assert state.counters.session_count() == 1


class TestDeterminismAndDigest:
    def walk(self, config, seed):
        state = barista_state(config, seed=seed)
        rng = random.Random(seed)
        for _ in range(30):
            acts = legal_actions(config, state)
            if acts:
                state = step_action(config, state, rng.choice(acts))
            else:
                state = close_session_if_idle(config, state)
        return state

    def test_identical_walks_identical_digests(self, desk_base):
        a = self.walk(desk_base, 11)
        b = self.walk(desk_base, 11)
        assert a.dedup_key() == b.dedup_key()
        assert state_digest(a) == state_digest(b)
        assert trace_entries(a) == trace_entries(b)

    def test_different_seed_differs(self, desk_base):
        a = self.walk(desk_base, 11)
        b = self.walk(desk_base, 12)
        assert trace_entries(a) != trace_entries(b)

    def test_counters_not_in_dedup_key(self, desk_base):
        state = barista_state(desk_base)
        stripped = GameState(
            clock=state.clock, resources=state.resources,
            regen_remainders=state.regen_remainders,
            locked_until=state.locked_until, cooldowns=state.cooldowns,
            career=state.career, relationship=state.relationship,
            active_event=state.active_event, inventory=state.inventory,
            owned_objects=state.owned_objects,
            events_completed=state.events_completed,
            auto_grant_objects=state.auto_grant_objects,
            counters=step_action(desk_base, state, "brew").counters,
        )
        assert stripped.dedup_key() == state.dedup_key()


def test_trace_export_round_trips(desk_base):
    state = barista_state(desk_base)
    state = step_action(desk_base, state, "brew")
    state = step_action(desk_base, state, "serve")
    lines = trace_to_jsonl(state).splitlines()
    decoded = [json.loads(line) for line in lines]
    assert decoded == [
        {"clock": clock, "kind": kind, "detail": detail}
        for clock, kind, detail in trace_entries(state)
    ]
    assert {"act", "event_start"} <= {d["kind"] for d in decoded}


def test_relationship_xp_accrues_without_category(self=None):
    config = fixtures.load("romance_outlier")
    state = initial_state(config, ScenarioOverrides(), 7)
    assert state.relationship == RelationshipState(None, 0, 0)
    state = step_action(config, state, "chat")
    assert state.relationship.category == "friendship"
    assert state.relationship.xp == 1
