"""Smoke test of the benchmark command at its smallest size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

One round of astar_short per mode (`--seconds 0`) must pass its checks and
print every metric BENCHMARK.json declares, with its unit, both in the
report lines and in the result object on the last line. Without the
sources the command must fail without a result, and the speed reference
must not collect garbage while it is timed.
"""

import gc
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, kind):
    done = run_bench(ROOT, "--workload", "astar_short", "--seed", "1",
                     "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC[kind]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = "\n".join(lines[:-1])
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[2] == metric["unit"]
                   for line in report.splitlines()), metric["name"]
        if kind == "end_to_end":
            assert printed["value"] != 0, metric["name"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "astar_short", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_kernel_sets_off_no_collection():
    """The reference kernel must not collect over the program's heap: with
    a large live ballast and a collection due at every allocation, no
    collection starts while the kernel is timed."""
    from speed import SpeedReference

    started = []

    def note(phase, info):
        if phase == "start":
            started.append(time.perf_counter())

    ballast = [{"i": i} for i in range(200_000)]
    speed = SpeedReference()
    threshold = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(note)
    try:
        speed.measure(5)
    finally:
        gc.callbacks.remove(note)
        gc.set_threshold(*threshold)
    assert len(ballast) == 200_000
    assert speed.ends[0] - speed.starts[0] > 0
    assert [t for t in started if speed.starts[0] <= t <= speed.ends[0]] == []
