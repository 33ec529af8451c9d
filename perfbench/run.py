"""playtest benchmark: one workload, one seed, one mode.

Usage (from the repository root):

    python3 perfbench/run.py --workload astar_long --seed 42 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing wrappers.
``--trace 1`` is the traced run: it times the same trials untraced and
traced, reports the per-layer metrics and the microbenchmarks, and writes
the spans to ``.perfbench_out/trace-<workload>.jsonl``. Both modes check
the program's outputs; the last line of standard output is the result
object, and the exit code is 1 if a check failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from speed import BOUNDARY_CALLS, BackgroundSampler, SpeedReference, cpus, pinned

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_TAIL_SAMPLES = 1000  # p99 then has at least 10 samples beyond it
MAX_DECISIONS = 1 << 17  # decision-time buffer; the timed loop ends when full
SETUP_RUNS = 9
SAMPLE_EVERY = 8  # every 8th committed state feeds the microbenchmarks
RERUN_TRIALS = 2
REFERENCE_RUNS = 2  # serial suite runs; two give the suite's p99 enough samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus its largest waited-for child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def setup_seconds(name: str, seed: int, work_dir: Path) -> tuple[list, list]:
    """Time from process start to first-trial readiness, per probe.

    Returns (normalized, raw) seconds. The probes run pinned to one CPU,
    each bracketed by kernel measurements on that CPU.
    """
    speed = SpeedReference()
    raw = []
    with pinned({cpus()[0]}):
        speed.measure(BOUNDARY_CALLS)
        for i in range(SETUP_RUNS):
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                 str(work_dir)],
                capture_output=True, text=True, timeout=120)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
            raw.append(float(done.stdout.split()[-1]) - t0)
            speed.measure(BOUNDARY_CALLS)
    return [t / speed.slowdown(i + 1) for i, t in enumerate(raw)], raw


class DecisionTimes:
    """Decision durations with the speed segment each fell in.

    The buffers are allocated in full up front, so the benchmark's own
    memory does not grow with the number of decisions a run gets through.
    Durations past MAX_DECISIONS are dropped; the timed loop stops first.
    """

    def __init__(self):
        self.raw = array("d", bytes(8 * MAX_DECISIONS))
        self.segment = array("q", bytes(8 * MAX_DECISIONS))
        self.count = 0

    @property
    def full(self) -> bool:
        return self.count >= MAX_DECISIONS

    def add(self, episodes) -> None:
        for e in episodes:
            n = min(len(e.decision_s), MAX_DECISIONS - self.count)
            end = self.count + n
            self.raw[self.count:end] = array("d", e.decision_s[:n])
            self.segment[self.count:end] = array("q", e.decision_seg[:n])
            self.count = end

    def normalized(self, speed) -> list[float]:
        return [d / speed.slowdown(s) for d, s in
                zip(self.raw[:self.count], self.segment[:self.count])]


@dataclass
class Timed:
    """What the timed loop keeps: round 1 in full, totals of the rest.

    Later rounds are compared with round 1 as they finish and then
    dropped, so the kept data does not grow with the number of rounds.
    """

    first: object
    rounds: int = 0
    played: int = 0
    attempted: int = 0
    failed: int = 0
    differing: list = field(default_factory=list)  # round numbers
    errors: list = field(default_factory=list)

    def add(self, result) -> None:
        self.rounds += 1
        if result.signature != self.first.signature:
            self.differing.append(self.rounds)
        self.played += result.played
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += result.errors


def timed_rounds(workload, seconds: float, times: DecisionTimes):
    """Repeat rounds for `seconds`; decision times go into `times`.

    Returns (rounds kept, speed reference or None, elapsed, elapsed at
    nominal machine speed).
    """
    kept = None
    if not workload.in_process:
        # the pooled workers use both CPUs; sample speed beside them
        nominal = 0.0
        t0 = time.perf_counter()
        while kept is None or time.perf_counter() - t0 < seconds:
            with BackgroundSampler() as sampler:
                r0 = time.perf_counter()
                result = workload.run_round()
                nominal += (time.perf_counter() - r0) / sampler.slowdown()
            if kept is None:
                kept = Timed(result)
            kept.add(result)
        return kept, None, time.perf_counter() - t0, nominal

    speed = SpeedReference()
    with pinned({cpus()[0]}):
        speed.measure(BOUNDARY_CALLS)
        t0 = time.perf_counter()
        while (kept is None or time.perf_counter() - t0 < seconds
               or times.count < MIN_TAIL_SAMPLES) and not times.full:
            result = workload.run_round(speed=speed)
            times.add(result.episodes)
            if kept is None:
                kept = Timed(result)
            else:
                result.episodes = []
            kept.add(result)
        speed.measure(BOUNDARY_CALLS)
        elapsed = time.perf_counter() - t0
    return kept, speed, elapsed, speed.normalized_total()


def rerun_sample(episodes) -> list[str]:
    """Play the first trials again, untimed, and compare with the first run."""
    from workloads import play

    problems = []
    for episode in episodes[:RERUN_TRIALS]:
        again = play(episode.trial)
        if again.signature() != episode.signature():
            problems.append(f"re-run of trial {episode.trial.group}/seed "
                            f"{episode.trial.seed} differs: {again.signature()} "
                            f"vs {episode.signature()}")
    return problems


def end_to_end(workload, seconds: float, work_dir: Path):
    """Untraced timed loop; returns (metrics, samples, work, problems, counts)."""
    from workloads import check_episode

    workload.setup()
    times = DecisionTimes()
    kept, speed, elapsed, nominal = timed_rounds(workload, seconds, times)
    rss = peak_rss_mb(with_children=not workload.in_process)

    first = kept.first
    problems = [f"round {i} differs from round 1 on the same seed"
                for i in kept.differing]
    problems += [f"error: {e}" for e in kept.errors]
    problems += [p for e in first.episodes for p in check_episode(e)]
    problems += rerun_sample(first.episodes)
    episodes = first.episodes
    if not workload.in_process:
        # decisions run inside the pool's workers; time the same trials in
        # the serial runs that the pooled results are checked against
        speed = SpeedReference()
        with pinned({cpus()[0]}):
            speed.measure(BOUNDARY_CALLS)
            refs = [workload.reference(speed=speed) for _ in range(REFERENCE_RUNS)]
            speed.measure(BOUNDARY_CALLS)
        for ref in refs:
            problems += ref.problems
            if ref.stats != first.signature:
                problems.append(
                    "stats.json of the pooled run differs from the serial run")
            times.add(ref.episodes)
        episodes = refs[0].episodes
    decisions = times.normalized(speed)
    setup, raw_setup = setup_seconds(workload.name, workload.seed, work_dir)

    played = kept.played
    metrics = {
        "episodes_per_s": played / nominal,
        "decision_ms_p50": percentile(decisions, 50) * 1e3,
        "decision_ms_p99": percentile(decisions, 99) * 1e3,
        "mean_actions": statistics.fmean(first.actions),
        "goal_rate": sum(first.reached) / len(first.reached),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    samples = {
        "episodes_per_s": played, "decision_ms_p50": len(decisions),
        "decision_ms_p99": len(decisions), "mean_actions": len(first.actions),
        "goal_rate": len(first.reached), "setup_s": len(setup), "peak_rss_mb": 1,
    }
    work = {
        "rounds": kept.rounds,
        "seconds": elapsed,
        "raw_episodes_per_s": played / elapsed,
        "raw_decision_ms_p50": percentile(times.raw[:times.count], 50) * 1e3,
        "raw_decision_ms_p99": percentile(times.raw[:times.count], 99) * 1e3,
        "raw_setup_s": statistics.median(raw_setup),
        "trials_per_round": len(first.actions),
        "decisions_per_trial": _per_trial(len(e.decisions) for e in episodes),
        "expansions_per_trial": _per_trial(e.expansions for e in episodes),
        "base_seeds": workload.base_seeds,
    }
    attempted, failed = kept.attempted, kept.failed
    return metrics, samples, work, problems, (attempted, failed)


def _per_trial(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def traced(workload_cls, seed: int, work_dir: Path):
    """Untraced then traced pass over the same trials; per-layer metrics."""
    from micro import micro_metrics, sample_states
    from tracing import Tracer, installed, layer_metrics
    from workloads import check_episode, play

    limit = workload_cls.trace_trials
    plain = workload_cls(seed, work_dir / "untraced")
    tracer = Tracer()
    workload = workload_cls(seed, work_dir / "traced")
    with pinned({cpus()[0]} if workload.in_process else cpus()):
        t0 = time.perf_counter()
        plain.setup()
        base = plain.run_round(limit=limit)
        untraced_s = time.perf_counter() - t0
        with installed(tracer, workload.in_process):
            t0 = time.perf_counter()
            workload.setup()
            result = workload.run_round(tracer=tracer, sample_every=SAMPLE_EVERY,
                                        limit=limit)
            traced_s = time.perf_counter() - t0

    problems = [f"error: {e}" for r in (base, result) for e in r.errors]
    if result.signature != base.signature:
        problems.append("traced run differs from the untraced run on the same seed")
    problems += [p for e in result.episodes for p in check_episode(e)]
    episodes = result.episodes
    if episodes:
        again = Tracer()
        with installed(again, True):
            again.trial = 0
            play(episodes[0].trial)
        if again.trial_calls(0) != tracer.trial_calls(0):
            problems.append("per-layer call counts of trial 0 differ on a re-run")
    if not workload.in_process:
        ref = workload.reference(sample_every=SAMPLE_EVERY)
        problems += ref.problems
        if ref.stats != result.signature:
            problems.append("stats.json of the pooled run differs from the serial run")
        episodes = ref.episodes

    metrics = layer_metrics(tracer)
    metrics.update(micro_metrics(sample_states(episodes)))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    spans = tracer.write_jsonl(OUT / f"trace-{workload.name}.jsonl")
    work = {
        "spans": spans,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trials": len(result.actions),
        "decisions": metrics["agents.astar.decisions"] + metrics[
            "agents.softmax_decide.calls"],
        "expansions": metrics["agents.astar.expansions"],
        "edges": metrics["agents.decision_edges.edges"],
        "transitions": metrics["sim.transitions"],
        "base_seeds": workload.base_seeds,
    }
    counts = (base.attempted + result.attempted, base.failed + result.failed)
    return metrics, work, problems, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "playtest" / "__init__.py").is_file():
        print(f"perfbench: no playtest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            declared = spec["per_layer"]
            metrics, work, problems, (attempted, failed) = traced(
                workload_cls, args.seed, work_dir)
            samples = {}
        else:
            declared = spec["end_to_end"]
            metrics, samples, work, problems, (attempted, failed) = end_to_end(
                workload_cls(args.seed, work_dir), args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not problems and failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} python {platform.python_version()}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"  why: {why.get(args.workload, '')}")
    print(f"  base seeds: {json.dumps(work.pop('base_seeds'))}")
    for m in declared:
        n = f"  n={samples[m['name']]}" if m["name"] in samples else ""
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}{n}")
    print(f"  {'error_rate':<36} {failed / max(1, attempted):>14.6g} share"
          f"  n={attempted}")
    print(f"  work: {json.dumps(work)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
