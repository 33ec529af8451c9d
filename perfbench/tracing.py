"""Span tracing of the playtest layers from outside the package.

The tracer wraps public functions at the place they are looked up:
``playtest.agents`` imports ``step_action`` and friends by name, so the
same wrapper is installed on ``playtest.sim.step_action`` and on
``playtest.agents.step_action``. Methods (``GameState.dedup_key``,
``AStarPlanner.decide``) are wrapped on the class.

Each call becomes a span (name, start, end, parent span, trial id) kept
in compact arrays and written as JSONL when the run ends. Self time is a
span's duration minus the time its child spans cover; it is summed per
name while the run goes, so the per-layer metrics need no second pass.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from playtest import agents, experiments, fixtures, report, sim, tuning

SIM_FUNCTIONS = (
    "legal_actions", "step_action", "apply_action", "advance_time",
    "next_availability", "initial_state",
)
SIM_SPANS = SIM_FUNCTIONS + ("dedup_key", "state_digest")


class Tracer:
    """Records spans and per-name totals for the calls it wraps."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list[int]] = []  # [span id, name id, child ns]
        self.trial = -1
        self.context = ""  # "astar" or "softmax" while an agent decides
        self.counts: dict[str, float] = {}
        self.pool_trials = 0  # trials of the pooled run_trials call open now
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self) -> str | None:
        """Name of the innermost open span, or None at top level."""
        return self.span_names[self.stack[-1][1]] if self.stack else None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None, skip_under=None):
        """Return fn wrapped in a span named `name`.

        `before(args, kwargs)` runs inside the span before the call and
        returns a token handed to `after(args, kwargs, result, token)`,
        which runs after it. Calls made while the innermost open span is
        `skip_under` pass through untraced.
        """
        nid = self.name_id(name)
        skip = self.name_id(skip_under) if skip_under else -1
        stack = self.stack
        names, parents, trials = self.name, self.parent, self.trial_of
        starts, ends = self.start, self.end
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == skip:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            trials.append(tracer.trial)
            starts.append(0)
            ends.append(0)
            frame = [sid, nid, 0]
            stack.append(frame)
            token = before(args, kwargs) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                duration = t1 - t0
                calls[nid] += 1
                self_ns[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after:
                after(args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def self_ms(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_ns[nid] / 1e6 if nid is not None else 0.0

    def trial_calls(self, trial: int) -> dict[str, int]:
        """Calls per span name made while `trial` was the current trial."""
        out: dict[str, int] = {}
        names = self.span_names
        for nid, t in zip(self.name, self.trial_of):
            if t == trial:
                key = names[nid]
                out[key] = out.get(key, 0) + 1
        return out

    def write_jsonl(self, path: Path) -> int:
        """Write one JSON object per span, in start order; returns the count."""
        base = min(self.start, default=0)
        names = self.span_names
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid in range(len(self.name)):
                out.write(json.dumps({
                    "id": sid,
                    "name": names[self.name[sid]],
                    "start_ns": self.start[sid] - base,
                    "end_ns": self.end[sid] - base,
                    "parent": self.parent[sid],
                    "trial": self.trial_of[sid],
                }) + "\n")
        return len(self.name)


@contextmanager
def installed(tracer: Tracer, in_process: bool):
    """Install the layer wrappers for the duration of the block.

    With `in_process` the engine and agent layers are traced too. Without
    it (the pooled suite) only the parent-side boundaries are wrapped:
    the pool's workers run episodes through no wrapper, and their spans
    are left out.
    """
    try:
        _install_tuning(tracer)
        _install_experiments(tracer)
        _install_report(tracer)
        if in_process:
            _install_sim(tracer)
            _install_agents(tracer)
        else:
            tracer.patch(experiments, "train_softmax", _train_wrapper(
                tracer, experiments.train_softmax))
        yield tracer
    finally:
        tracer.unpatch()


def _install_tuning(tracer: Tracer) -> None:
    parse = tracer.wrap("tuning.parse_tuning", tuning.parse_tuning)
    for owner in (tuning, fixtures, report):
        tracer.patch(owner, "parse_tuning", parse)
    tracer.patch(tuning, "validate", tracer.wrap("tuning.validate", tuning.validate))

    def after_serialize(args, kwargs, text, token):
        if tracer.pool_trials:
            tracer.add("experiments.payload_bytes",
                       len(text.encode()) * tracer.pool_trials)

    serialize = tracer.wrap("tuning.serialize_tuning", tuning.serialize_tuning,
                            after=after_serialize)
    tracer.patch(tuning, "serialize_tuning", serialize)
    tracer.patch(experiments, "serialize_tuning", serialize)


def _install_sim(tracer: Tracer) -> None:
    for fn in SIM_FUNCTIONS:
        wrapper = tracer.wrap(f"sim.{fn}", getattr(sim, fn),
                              after=_transition_counter(tracer, fn))
        tracer.patch(sim, fn, wrapper)
        if hasattr(agents, fn):
            tracer.patch(agents, fn, wrapper)
    digest = tracer.wrap("sim.state_digest", sim.state_digest)
    tracer.patch(sim, "state_digest", digest)
    tracer.patch(agents, "state_digest", digest)
    # The end-of-episode digest hashes the state identity once; that call
    # belongs to sim.state_digest, so dedup_key counts search identity only.
    tracer.patch(sim.GameState, "dedup_key", tracer.wrap(
        "sim.dedup_key", sim.GameState.dedup_key, skip_under="sim.state_digest"))


def _transition_counter(tracer: Tracer, fn: str):
    """sim.transitions: step_action calls plus advance_time calls made
    outside step_action (step_action advances time itself)."""
    if fn == "step_action":
        return lambda args, kwargs, result, token: tracer.add("sim.transitions", 1)
    if fn == "advance_time":
        def after(args, kwargs, result, token):
            if tracer.parent_name() != "sim.step_action":
                tracer.add("sim.transitions", 1)
        return after
    return None


def _install_agents(tracer: Tracer) -> None:
    def after_edges(args, kwargs, edges, token):
        tracer.add("agents.decision_edges.edges", len(edges))
        context = tracer.context
        if context:
            tracer.add(f"agents.{context}.edges", len(edges))
            if (edges and context == "softmax"
                    and tracer.parent_name() == "agents.train_softmax"):
                tracer.add("agents.softmax.committed", 1)

    tracer.patch(agents, "decision_edges", tracer.wrap(
        "agents.decision_edges", agents.decision_edges, after=after_edges))

    build = agents.build_evaluator

    def build_evaluator(*args, **kwargs):
        return tracer.wrap("agents.evaluate", build(*args, **kwargs))

    tracer.patch(agents, "build_evaluator", build_evaluator)

    def enter(context):
        def before(args, kwargs):
            previous, tracer.context = tracer.context, context
            return previous
        return before

    def after_astar(args, kwargs, decision, previous):
        tracer.context = previous
        tracer.add("agents.astar.expansions", args[0].last_expanded)
        if decision.kind != "stop":
            tracer.add("agents.astar.committed", 1)

    tracer.patch(agents.AStarPlanner, "decide", tracer.wrap(
        "agents.astar", agents.AStarPlanner.decide,
        before=enter("astar"), after=after_astar))

    def after_softmax(args, kwargs, decision, previous):
        tracer.context = previous
        if decision.kind != "stop":
            tracer.add("agents.softmax.committed", 1)

    tracer.patch(agents, "softmax_decide", tracer.wrap(
        "agents.softmax_decide", agents.softmax_decide,
        before=enter("softmax"), after=after_softmax))
    train = _train_wrapper(tracer, agents.train_softmax)
    tracer.patch(agents, "train_softmax", train)
    tracer.patch(experiments, "train_softmax", train)
    run_episode = tracer.wrap("agents.run_episode", agents.run_episode)
    tracer.patch(agents, "run_episode", run_episode)
    tracer.patch(experiments, "run_episode", run_episode)


def _train_wrapper(tracer: Tracer, train):
    signature = inspect.signature(train)

    def before(args, kwargs):
        episodes = signature.bind(*args, **kwargs).arguments["episodes"]
        tracer.add("agents.train_softmax.episodes", episodes)
        previous, tracer.context = tracer.context, "softmax"
        return previous

    def after(args, kwargs, result, previous):
        tracer.context = previous

    return tracer.wrap("agents.train_softmax", train, before=before, after=after)


def _install_experiments(tracer: Tracer) -> None:
    signature = inspect.signature(experiments.run_trials)

    def before(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        if bound.get("pool") is None:
            return None
        previous, tracer.pool_trials = tracer.pool_trials, bound["trials"]
        return (previous, time.perf_counter_ns())

    def after(args, kwargs, result, token):
        if token is not None:
            previous, t0 = token
            tracer.pool_trials = previous
            tracer.add("experiments.pool_wait_ms",
                       (time.perf_counter_ns() - t0) / 1e6)

    tracer.patch(experiments, "run_trials", tracer.wrap(
        "experiments.run_trials", experiments.run_trials,
        before=before, after=after))
    tracer.patch(report, "run_experiment", tracer.wrap(
        "experiments.run_experiment", report.run_experiment))


def _install_report(tracer: Tracer) -> None:
    def after_write(args, kwargs, result, token):
        out_dir = Path(args[0] if args else kwargs["out_dir"])
        tracer.add("report.write_experiment.bytes", sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file()))

    tracer.patch(report, "write_experiment", tracer.wrap(
        "report.write_experiment", report.write_experiment, after=after_write))
    tracer.patch(report, "run_suite", tracer.wrap(
        "report.run_suite", report.run_suite))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced run yields, by metric name."""
    out: dict[str, float] = {}

    def span(name: str, calls_key: str = "calls") -> None:
        out[f"{name}.{calls_key}"] = tracer.calls_of(name)
        out[f"{name}.self_ms"] = tracer.self_ms(name)

    for name in ("tuning.parse_tuning", "tuning.validate",
                 "tuning.serialize_tuning"):
        span(name)
    for fn in SIM_SPANS:
        span(f"sim.{fn}")
    out["sim.transitions"] = tracer.counts.get("sim.transitions", 0)
    span("agents.decision_edges")
    out["agents.decision_edges.edges"] = tracer.counts.get(
        "agents.decision_edges.edges", 0)
    span("agents.evaluate")
    span("agents.astar", "decisions")
    out["agents.astar.expansions"] = tracer.counts.get("agents.astar.expansions", 0)
    span("agents.softmax_decide")
    span("agents.train_softmax")
    out["agents.train_softmax.episodes"] = tracer.counts.get(
        "agents.train_softmax.episodes", 0)
    del out["agents.train_softmax.calls"]
    for agent in ("astar", "softmax"):
        edges = tracer.counts.get(f"agents.{agent}.edges", 0)
        committed = tracer.counts.get(f"agents.{agent}.committed", 0)
        out[f"agents.{agent}.committed_ratio"] = committed / edges if edges else 0.0
    span("agents.run_episode")
    span("experiments.run_experiment")
    span("experiments.run_trials")
    out["experiments.pool_wait_ms"] = tracer.counts.get(
        "experiments.pool_wait_ms", 0.0)
    out["experiments.payload_bytes"] = tracer.counts.get(
        "experiments.payload_bytes", 0)
    span("report.run_suite")
    span("report.write_experiment")
    out["report.write_experiment.bytes"] = tracer.counts.get(
        "report.write_experiment.bytes", 0)
    return out
