"""Result emission: stats.json, trials.csv, chartdata.json, bundle.json.

stats.json and chartdata.json are deterministic byte-for-byte for a
fixed seed (sorted keys, no timestamps); the run manifest (bundle.json)
carries the generation timestamp and the digest of the input files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import PlaytestError
from .experiments import ExperimentConfig, ExperimentOutcome, run_experiment
from .tuning import parse_tuning

TRIAL_FIELDS = (
    "experiment", "study", "group", "trial", "seed", "agent",
    "goal_reached", "reason", "total_actions", "event_actions", "sessions",
    "mean_wait_minutes", "clock_minutes", "decisions",
    "max_nodes_expanded", "max_decision_seconds", "digest",
)


@dataclass
class ReportBundle:
    experiment_id: str
    generated_at: str
    inputs_digest: str
    tables: list[str]
    charts: list[str]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment_id,
            "generated_at": self.generated_at,
            "inputs_digest": self.inputs_digest,
            "tables": list(self.tables),
            "charts": list(self.charts),
        }


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


def _stats_payload(xc: ExperimentConfig, outcome: ExperimentOutcome) -> dict:
    return {
        "experiment": outcome.experiment_id,
        "study": outcome.study,
        "status": outcome.status,
        "error": outcome.error,
        "build_ids": list(outcome.build_ids),
        "params": {
            "trials": xc.trials,
            "base_seed": xc.base_seed,
            "agent": xc.agent,
            "goal": xc.goal.to_dict(),
            "scenario": xc.scenario.to_dict(),
            "heuristic": xc.heuristic.to_dict(),
            "careers": xc.careers,
            "tuning_ref": xc.tuning_ref,
        },
        "groups": {k: s.to_dict() for k, s in outcome.groups.items()},
        "extras": outcome.extras,
    }


def write_experiment(
    out_dir: Path,
    xc: ExperimentConfig,
    outcome: ExperimentOutcome,
    input_files: list[Path],
) -> ReportBundle:
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "stats.json", _stats_payload(xc, outcome))

    with (out_dir / "trials.csv").open("w", newline="") as handle:
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
                "max_nodes_expanded": record.max_nodes_expanded,
                "max_decision_seconds": f"{record.max_decision_seconds:.6f}",
                "digest": record.state_digest,
            })

    _dump_json(out_dir / "chartdata.json", {
        "experiment": outcome.experiment_id,
        "charts": outcome.charts,
    })

    bundle = ReportBundle(
        experiment_id=outcome.experiment_id,
        generated_at=datetime.now(timezone.utc).isoformat(),
        inputs_digest=inputs_digest(input_files),
        tables=["stats.json", "trials.csv"],
        charts=[chart["name"] for chart in outcome.charts],
    )
    _dump_json(out_dir / "bundle.json", bundle.to_dict())
    return bundle


# ---------------------------------------------------------------------------
# Suite orchestration
# ---------------------------------------------------------------------------

def _failed_outcome(experiment_id: str, study: str, message: str) -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment_id=experiment_id,
        study=study,
        build_ids=[],
        groups={},
        extras={},
        charts=[],
        records=[],
        status="failed",
        error=message,
    )


def _write_failed(
    out_dir: Path, outcome: ExperimentOutcome, input_files: list[Path]
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "stats.json", {
        "experiment": outcome.experiment_id,
        "study": outcome.study,
        "status": outcome.status,
        "error": outcome.error,
        "build_ids": [],
        "groups": {},
        "extras": {},
    })
    bundle = ReportBundle(
        experiment_id=outcome.experiment_id,
        generated_at=datetime.now(timezone.utc).isoformat(),
        inputs_digest=inputs_digest(input_files),
        tables=["stats.json"],
        charts=[],
    )
    _dump_json(out_dir / "bundle.json", bundle.to_dict())


def run_suite(
    suite_path: Path,
    out_dir: Path,
    seed_override: int | None = None,
    parallel: int = 0,
) -> list[tuple[ExperimentConfig | None, ExperimentOutcome]]:
    """Execute every experiment in a suite file, isolating failures.

    Tuning paths are resolved relative to the suite file. Results are
    written under out_dir/<experiment id>/ and also returned in suite
    order for programmatic use.
    """
    suite_path = Path(suite_path)
    entries = json.loads(suite_path.read_text())
    if not isinstance(entries, list):
        raise PlaytestError("suite file must contain a JSON list")

    pool = ProcessPoolExecutor(max_workers=parallel) if parallel > 1 else None
    results = []
    try:
        for entry in entries:
            named = entry if isinstance(entry, dict) else {}
            experiment_id = str(named.get("id", f"experiment_{len(results)}"))
            study = str(named.get("study", "unknown"))
            xc = None
            input_files: list[Path] = [suite_path]
            try:
                xc = ExperimentConfig.from_dict(entry)
                if seed_override is not None:
                    xc = replace(xc, base_seed=seed_override)
                paths = [
                    (suite_path.parent / ref).resolve()
                    if not Path(ref).is_absolute() else Path(ref)
                    for ref in xc.tuning_ref
                ]
                input_files += paths
                configs = [parse_tuning(p.read_text()) for p in paths]
                outcome = run_experiment(xc, configs, pool)
            # a wrong-typed field nested in an entry surfaces as a TypeError
            except (OSError, PlaytestError, ValueError, KeyError, TypeError) as exc:
                outcome = _failed_outcome(
                    experiment_id, study, f"{type(exc).__name__}: {exc}"
                )
            existing = [p for p in input_files if p.exists()]
            if xc is None:
                _write_failed(out_dir / experiment_id, outcome, existing)
            else:
                write_experiment(out_dir / experiment_id, xc, outcome, existing)
            results.append((xc, outcome))
    finally:
        if pool is not None:
            pool.shutdown()
    return results
