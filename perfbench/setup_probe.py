"""Set-up time probe: one fresh process per measurement.

Usage: python3 setup_probe.py WORKLOAD SEED WORK_DIR

Prints time.monotonic() at the moment the first trial could begin; the
caller subtracts the monotonic time at which it started this process.

- Serial workloads: import the package and run the workload's set-up
  (parse with validation, index).
- suite_parallel: run the program's own path, report.run_suite on the suite
  file the caller wrote into WORK_DIR, at the workload's pool size. It
  imports, reads the suite, builds each ExperimentConfig, parses the
  builds and creates its pool. The probe stops it where it first hands
  trials to the pool. The pool starts its workers on first use, so the
  probe then runs one no-op on that pool and takes the time when it
  returns, with a worker up.
"""

import inspect
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from playtest import experiments, report  # noqa: E402
from workloads import SUITE_WORKERS, WORKLOADS  # noqa: E402


class FirstTrial(Exception):
    """Raised out of run_suite at its first pooled run_trials call."""


def first_pooled_trial(suite_path: Path, out_dir: Path) -> float:
    run_trials = experiments.run_trials
    signature = inspect.signature(run_trials)

    def stop_at_pool(*args, **kwargs):
        pool = signature.bind(*args, **kwargs).arguments.get("pool")
        if pool is None:
            return run_trials(*args, **kwargs)
        pool.submit(int).result()
        raise FirstTrial(time.monotonic())

    experiments.run_trials = stop_at_pool
    try:
        report.run_suite(suite_path, out_dir, parallel=SUITE_WORKERS)
    except FirstTrial as ready:
        return ready.args[0]
    finally:
        experiments.run_trials = run_trials
    raise RuntimeError("run_suite made no pooled run_trials call")


def main() -> int:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name](seed, work_dir)
    if workload.in_process:
        workload.setup()
        ready = time.monotonic()
    else:
        ready = first_pooled_trial(workload.suite_path,
                                   work_dir / f"probe-{os.getpid()}")
    print(repr(ready), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
