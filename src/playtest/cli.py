"""Command-line interface: validate, run, diff, train.

Exit codes: 0 success, 1 domain failure (validation errors, failed
experiments, unreachable training goal), 2 usage, I/O, or syntax
problems. All randomness flows from explicit seeds; repeated runs with
the same seed produce byte-identical stats.json files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from pathlib import Path

from .agents import FAILURE_RETURN, GoalSpec, train_softmax
from .errors import PlaytestError, SchemaError, TuningSyntaxError
from .report import run_suite
from .sim import ScenarioOverrides
from .tuning import (
    Diagnostic,
    TuningConfig,
    build_config,
    diff_builds,
    flag_step_anomalies,
    parse_tuning,
    validate,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _load_document(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise TuningSyntaxError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TuningSyntaxError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def _cmd_validate(args) -> int:
    if not (math.isfinite(args.anomaly_ratio) and args.anomaly_ratio >= 0):
        print("error: --anomaly-ratio must be a finite number >= 0",
              file=sys.stderr)
        return EXIT_USAGE
    status = EXIT_OK
    collected: list[tuple[str, Diagnostic]] = []
    for name in args.paths:
        path = Path(name)
        try:
            config = build_config(_load_document(path))
        except (TuningSyntaxError, SchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        diagnostics = validate(config)
        diagnostics += flag_step_anomalies(config, args.anomaly_ratio)
        collected.extend((name, d) for d in diagnostics)
        if any(d.severity == "error" for d in diagnostics):
            status = EXIT_FAILURE
    if args.format == "json":
        print(json.dumps([
            {"path": name, "severity": d.severity, "entity": d.entity,
             "message": d.message, "code": d.code}
            for name, d in collected
        ], indent=2))
    else:
        for name, diagnostic in collected:
            print(f"{name}: {diagnostic.format()}")
        if not collected:
            print(f"{len(args.paths)} file(s) valid, no diagnostics")
    return status


def _parse_file(path: Path) -> TuningConfig | None:
    """The build in the tuning file at `path`, or None once the reason it
    cannot be read or parsed is printed."""
    try:
        return parse_tuning(path.read_text())
    except (OSError, PlaytestError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_diff(args) -> int:
    configs = []
    for name in (args.build_a, args.build_b):
        configs.append(_parse_file(Path(name)))
        if configs[-1] is None:
            return EXIT_USAGE
    diff = diff_builds(configs[0], configs[1])
    if args.format == "json":
        print(json.dumps(diff.to_jsonable(), indent=2))
    else:
        print(diff.format_text())
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.parallel < 0:
        print("error: --parallel must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    suite = Path(args.suite)
    if not suite.exists():
        print(f"error: suite file {suite} not found", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out)
    try:
        results = run_suite(
            suite, out_dir, seed_override=args.seed, parallel=args.parallel
        )
    except (PlaytestError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps([
            {
                "experiment": outcome.experiment_id,
                "study": outcome.study,
                "status": outcome.status,
                "error": outcome.error,
                "groups": len(outcome.groups),
                "trials": len(outcome.records),
                "seconds": round(outcome.duration_seconds, 3),
            }
            for _, outcome in results
        ], indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["experiment", "study", "status", "groups",
                         "trials", "seconds"])
        for _, outcome in results:
            writer.writerow([
                outcome.experiment_id, outcome.study, outcome.status,
                len(outcome.groups), len(outcome.records),
                f"{outcome.duration_seconds:.3f}",
            ])
    else:
        width = max((len(o.experiment_id) for _, o in results), default=10)
        print(f"{'experiment':<{width}}  {'status':<7} {'groups':>6} "
              f"{'trials':>6} {'seconds':>8}")
        for _, outcome in results:
            print(f"{outcome.experiment_id:<{width}}  {outcome.status:<7} "
                  f"{len(outcome.groups):>6} {len(outcome.records):>6} "
                  f"{outcome.duration_seconds:>8.2f}")
            if outcome.error:
                print(f"  {outcome.error}")
        print(f"results written to {out_dir}")
    if any(outcome.status != "ok" for _, outcome in results):
        return EXIT_FAILURE
    return EXIT_OK


def _io_failed(path: Path, exc: OSError) -> int:
    """Report that `path`, or the directory it names, could not be made
    or written; the exit code."""
    print(f"error: {exc.filename or path}: {exc.strerror or exc}",
          file=sys.stderr)
    return EXIT_USAGE


def _cmd_train(args) -> int:
    config = _parse_file(Path(args.tuning))
    if config is None:
        return EXIT_USAGE
    try:
        goal = GoalSpec.from_dict(json.loads(args.goal))
        goal.check(config)
    except (json.JSONDecodeError, PlaytestError, ValueError) as exc:
        print(f"error: invalid --goal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.episodes < 1:
        print("error: --episodes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    for flag, value in (("--step-size", args.step_size),
                        ("--temperature", args.temperature)):
        if not (math.isfinite(value) and value > 0):
            print(f"error: {flag} must be > 0", file=sys.stderr)
            return EXIT_USAGE

    out_path = Path(args.out)
    curve_path = Path(args.curve) if args.curve else out_path.with_suffix(".curve.csv")
    for path in (out_path, curve_path):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _io_failed(path, exc)

    scenario = ScenarioOverrides(
        career=goal.career if goal.kind == "career_level_reached" else None,
        grant_objects=args.grant_objects,
    )
    policy, returns = train_softmax(
        config, scenario, goal,
        episodes=args.episodes,
        step_size=args.step_size,
        rng=random.Random(args.seed),
        temperature=args.temperature,
    )

    curve = io.StringIO()
    writer = csv.writer(curve)
    writer.writerow(["episode", "return"])
    writer.writerows(enumerate(returns))
    for path, text in ((out_path, json.dumps(policy.to_dict(), indent=2) + "\n"),
                       (curve_path, curve.getvalue())):
        try:
            with path.open("w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            return _io_failed(path, exc)

    reached = [r for r in returns if r > FAILURE_RETURN]
    tenth = max(1, len(returns) // 10)
    first = sum(returns[:tenth]) / tenth
    last = sum(returns[-tenth:]) / tenth
    print(f"trained {args.episodes} episodes; policy -> {out_path}, "
          f"curve -> {curve_path}")
    print(f"mean return: first 10% {first:.1f}, last 10% {last:.1f}; "
          f"{len(reached)}/{len(returns)} episodes reached the goal")
    if not reached:
        print("error: goal was never reached; training is deadlock-dominated",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="playtest",
        description="Simulate game builds and answer balance questions "
                    "with automated playtesting agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check tuning files and print diagnostics")
    p_validate.add_argument("paths", nargs="+", metavar="TUNING")
    p_validate.add_argument("--format", choices=("text", "json"), default="text")
    p_validate.add_argument("--anomaly-ratio", type=float, default=0.25,
                            help="step payoff ratio below which a step is "
                                 "flagged (default 0.25)")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="execute an experiment suite")
    p_run.add_argument("suite", metavar="SUITE")
    p_run.add_argument("--out", default=os.environ.get("PLAYTEST_OUT", "out"))
    p_run.add_argument("--seed", type=int, default=None,
                       help="override every experiment's base seed")
    p_run.add_argument("--parallel", type=int, default=0, metavar="K",
                       help="run trials across K worker processes "
                            "(at most one per available CPU)")
    p_run.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_run.set_defaults(func=_cmd_run)

    p_diff = sub.add_parser("diff", help="structural diff of two builds")
    p_diff.add_argument("build_a", metavar="BUILD_A")
    p_diff.add_argument("build_b", metavar="BUILD_B")
    p_diff.add_argument("--format", choices=("text", "json"), default="text")
    p_diff.set_defaults(func=_cmd_diff)

    p_train = sub.add_parser(
        "train", help="train a softmax baseline policy")
    p_train.add_argument("tuning", metavar="TUNING")
    p_train.add_argument("--goal", required=True,
                         help="goal spec as a JSON object")
    p_train.add_argument("--episodes", type=int, default=2000)
    p_train.add_argument("--step-size", type=float, default=0.02)
    p_train.add_argument("--temperature", type=float, default=1.0)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", default="policy.json")
    p_train.add_argument("--curve", default=None,
                         help="return curve CSV path (default <out>.curve.csv)")
    p_train.add_argument("--grant-objects", action="store_true")
    p_train.set_defaults(func=_cmd_train)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
