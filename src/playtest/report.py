"""Result emission: stats.json, trials.csv, chartdata.json, bundle.json.

stats.json and chartdata.json are deterministic byte-for-byte for a
fixed seed (sorted keys, no timestamps); the run manifest (bundle.json)
carries the generation timestamp and the digest of the input files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from .errors import PlaytestError
from .experiments import (
    ExperimentConfig,
    ExperimentOutcome,
    Read,
    TrialPool,
    check_build_count,
    failed_outcome,
    run_experiment,
    start_experiment,
    trial_pool,
)
from .tuning import TuningConfig, parse_tuning, read_document

TRIAL_FIELDS = (
    "experiment", "study", "group", "trial", "seed", "agent",
    "goal_reached", "reason", "total_actions", "event_actions", "sessions",
    "mean_wait_minutes", "clock_minutes", "decisions", "searches",
    "max_nodes_expanded", "max_decision_seconds", "digest",
)


def inputs_digest(files: list[Path]) -> str:
    """Content hash over the experiment's input files, order-independent."""
    digest = hashlib.sha256()
    for path in sorted(files, key=lambda p: p.name):
        digest.update(path.name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _stats_payload(
    xc: ExperimentConfig | None, outcome: ExperimentOutcome,
) -> dict:
    payload = {
        "experiment": outcome.experiment_id,
        "study": outcome.study,
        "status": outcome.status,
        "error": outcome.error,
        "build_ids": list(outcome.build_ids),
        "groups": {k: s.to_dict() for k, s in outcome.groups.items()},
        "extras": outcome.extras,
    }
    if xc is not None:
        params = payload["params"] = xc.to_dict()
        del params["id"], params["study"]
    return payload


def _write_trials(path: Path, outcome: ExperimentOutcome) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=TRIAL_FIELDS)
        writer.writeheader()
        for group, trial, record in outcome.records:
            writer.writerow({
                "experiment": outcome.experiment_id,
                "study": outcome.study,
                "group": group,
                "trial": trial,
                "seed": record.seed,
                "agent": record.agent,
                "goal_reached": int(record.goal_reached),
                "reason": record.reason,
                "total_actions": record.total_actions,
                "event_actions": record.event_actions,
                "sessions": record.sessions,
                "mean_wait_minutes": f"{record.mean_wait:.3f}",
                "clock_minutes": record.clock,
                "decisions": record.decisions,
                "searches": record.searches,
                "max_nodes_expanded": record.max_nodes_expanded,
                "max_decision_seconds": f"{record.max_decision_seconds:.6f}",
                "digest": record.state_digest,
            })


def write_experiment(
    out_dir: Path,
    xc: ExperimentConfig | None,
    outcome: ExperimentOutcome,
    input_files: list[Path],
) -> None:
    """Write one experiment's files.

    An entry that never became an ExperimentConfig (xc is None) gets only
    stats.json, without params, and bundle.json.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "stats.json", _stats_payload(xc, outcome))
    tables = ["stats.json"]
    if xc is not None:
        tables.append("trials.csv")
        _write_trials(out_dir / "trials.csv", outcome)
        _dump_json(out_dir / "chartdata.json", {
            "experiment": outcome.experiment_id,
            "charts": outcome.charts,
        })

    _dump_json(out_dir / "bundle.json", {
        "experiment": outcome.experiment_id,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "inputs_digest": inputs_digest(input_files),
        "tables": tables,
        "charts": [chart["name"] for chart in outcome.charts],
    })


# ---------------------------------------------------------------------------
# Suite orchestration
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    """One suite entry, loaded before the pool starts."""

    id: str
    study: str
    files: list[Path]  # the suite file and the entry's tuning files
    xc: ExperimentConfig | None = None
    configs: list[TuningConfig] = field(default_factory=list)
    error: Exception | None = None


def _parse_once(
    path: Path, builds: dict[Path, TuningConfig | Exception],
) -> TuningConfig:
    """The build at `path`, parsed on its first request only.

    `builds` maps each path to its config or to the exception parsing
    raised; a later request gets the same config, or the same exception
    raised again.
    """
    if path not in builds:
        try:
            builds[path] = parse_tuning(path.read_text())
        except Exception as exc:
            builds[path] = exc
    build = builds[path]
    if isinstance(build, Exception):
        raise build
    return build


def _load(
    suite_path: Path, index: int, entry, seed_override: int | None,
    builds: dict[Path, TuningConfig | Exception],
) -> _Entry:
    named = entry if isinstance(entry, dict) else {}
    loaded = _Entry(
        str(named.get("id", f"experiment_{index}")),
        str(named.get("study", "unknown")),
        [suite_path],
    )
    try:
        loaded.xc = ExperimentConfig.from_dict(entry)
        if seed_override is not None:
            loaded.xc = replace(loaded.xc, base_seed=seed_override)
        paths = [
            (suite_path.parent / ref).resolve()
            if not Path(ref).is_absolute() else Path(ref)
            for ref in loaded.xc.tuning_ref
        ]
        loaded.files += paths
        check_build_count(loaded.xc.study, len(paths))
        loaded.configs = [_parse_once(p, builds) for p in paths]
    except Exception as exc:
        loaded.error = exc
    return loaded


def _reader(entry: _Entry, pool: TrialPool | None) -> Read:
    """Return the function that reads the entry's outcome.

    Serially the experiment starts when it is read. On a pool it starts
    now, and its jobs run when the pool is first read.
    """
    if entry.error is not None:
        return partial(failed_outcome, entry.id, entry.study, entry.error,
                       [c.build_id for c in entry.configs])
    if pool is None:
        return partial(run_experiment, entry.xc, entry.configs)
    return start_experiment(entry.xc, entry.configs, pool)


def run_suite(
    suite_path: Path,
    out_dir: Path,
    seed_override: int | None = None,
    parallel: int = 0,
) -> list[tuple[ExperimentConfig | None, ExperimentOutcome]]:
    """Execute every experiment in a suite file, isolating failures.

    Tuning paths are resolved relative to the suite file. Results are
    written under out_dir/<experiment id>/ and also returned in suite
    order for programmatic use. A suite file that cannot be read or is
    not JSON raises PlaytestError naming the file. Every entry and build
    is loaded first, and a suite in which an entry's name (its `id`, else
    `experiment_<index>`) is not one path component or repeats an earlier
    entry's raises PlaytestError before anything runs or is written. A
    build file that several entries name is parsed once; an entry that
    names the wrong number of builds for its study fails as it loads,
    and one its study cannot run on its builds as it starts
    (`start_experiment`), before any of its groups runs.
    Serially, each experiment then starts, runs and is written in turn.
    With `parallel` > 1, every group of the suite, Softmax training and
    all, is submitted to one fork-join pool (`trial_pool`) before any
    result is read; the first read forks min(`parallel`, CPUs) workers,
    and the experiments are then read and written in suite order.
    Without `os.fork` the suite runs serially.

    An exception while an experiment loads, is checked, runs or is read
    fails that experiment alone, and so does a pool worker that dies
    inside one of its groups (WorkerDied, naming the exit status). An
    exception raised by `run_trials` itself, as perfbench's set-up probe
    raises one from a replacement, leaves run_suite, serially or pooled.
    No worker outlives run_suite, however it ends.
    """
    suite_path = Path(suite_path)
    try:
        entries = read_document(suite_path.read_text())
    except (OSError, PlaytestError) as exc:
        raise PlaytestError(f"{suite_path}: {exc}") from exc
    if not isinstance(entries, list):
        raise PlaytestError("suite file must contain a JSON list")

    builds: dict[Path, TuningConfig | Exception] = {}
    loaded = [
        _load(suite_path, i, entry, seed_override, builds)
        for i, entry in enumerate(entries)
    ]
    names: dict[str, int] = {}
    for i, entry in enumerate(loaded):
        name = entry.id
        if name == ".." or "\0" in name or Path(name).parts != (name,):
            raise PlaytestError(f"suite entry {i}: name {name!r} is not one "
                                "path component")
        if name in names:
            raise PlaytestError(f"suite entry {i}: name {name!r} repeats "
                                f"entry {names[name]}'s")
        names[name] = i
    pool = trial_pool(parallel) if parallel > 1 and hasattr(os, "fork") else None
    results = []
    try:
        readers = [_reader(entry, pool) for entry in loaded]
        for entry, read in zip(loaded, readers):
            outcome = read()
            existing = [p for p in entry.files if p.exists()]
            write_experiment(out_dir / entry.id, entry.xc, outcome, existing)
            results.append((entry.xc, outcome))
    finally:
        if pool is not None:
            pool.close()
    return results
