"""Per-call timings of the engine and agent hot functions.

The states come from the committed path of the workload's own episodes
(every k-th state a planner was asked to decide on), so mid-episode
states with active events, cooldowns and locks are covered, not only
start states.
"""

from __future__ import annotations

import statistics
import time

from playtest import agents, sim

MAX_STATES = 64
BATCH_SECONDS = 0.02
BATCHES = 5


def _per_call_us(fn, items: list) -> float:
    """Median over batches of the mean time of fn(item), in microseconds."""
    if not items:
        return 0.0
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            break
        reps *= 2
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / (reps * len(items)) * 1e6


def sample_states(episodes) -> list[tuple]:
    """(config, state, evaluate) for up to MAX_STATES committed states."""
    picked = [(e.trial, s) for e in episodes for s in e.states]
    step = max(1, len(picked) // MAX_STATES)
    out = []
    evaluators: dict[int, object] = {}
    for trial, state in picked[::step][:MAX_STATES]:
        evaluate = None
        if trial.heuristic is not None:
            key = id(trial.heuristic), id(trial.config), id(trial.goal)
            if key not in evaluators:
                evaluators[key] = agents.build_evaluator(
                    trial.heuristic, trial.config, trial.goal)
            evaluate = evaluators[key]
        out.append((trial.config, state, evaluate))
    return out


def micro_metrics(samples: list[tuple]) -> dict[str, float]:
    moves = [(config, state, action) for config, state, _ in samples
             for action in sim.legal_actions(config, state)]
    evaluated = [(evaluate, state) for _, state, evaluate in samples if evaluate]
    return {
        "micro.sim.legal_actions_us": _per_call_us(
            lambda s: sim.legal_actions(s[0], s[1]), samples),
        "micro.sim.apply_action_us": _per_call_us(
            lambda m: sim.apply_action(*m), moves),
        "micro.sim.step_action_us": _per_call_us(
            lambda m: sim.step_action(*m), moves),
        "micro.sim.dedup_key_us": _per_call_us(
            lambda s: s[1].dedup_key(), samples),
        "micro.agents.decision_edges_us": _per_call_us(
            lambda s: agents.decision_edges(s[0], s[1]), samples),
        "micro.agents.evaluate_us": _per_call_us(
            lambda e: e[0](e[1]), evaluated),
    }
