"""Fit how a workload's time tracks the calibration kernel of ``run.py``.

    python3 benchmark/fit_sensitivity.py --workload sweep --part jobs --seconds 120

Alternates the calibration kernel with a fixed slice of work (the first six
jobs of a batch, or one set-up) for ``--seconds`` and regresses the log of
the work's time on the log of the kernel's time. The slope is the power
that ``run.SENSITIVITY`` (jobs) or ``run.SETUP_SENSITIVITY`` (set-up)
should hold. Refit both whenever a change moves time between layers,
because the slope depends on the layer mix. The fit is only as good as the
drift the machine shows during it: it prints the kernel's range, and a
range of less than about 1.3x gives no usable slope.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import time

import numpy as np

import run


def _sample(workload, part: str, seconds: float, seed: int) -> list[tuple[float, float]]:
    """(work seconds, mean kernel seconds around it) for ``seconds``."""
    workload.setup(seed)
    workload.warm_up()
    jobs = list(next(iter(workload.batches())))[:6]

    def work() -> None:
        if part == "setup":
            workload.setup(seed)
            return
        for job in jobs:
            workload.run_job(job)
        workload.reset()

    rows = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        kernel = [run._calibrate()]
        begin = time.perf_counter()
        work()
        elapsed = time.perf_counter() - begin
        kernel.append(run._calibrate())
        rows.append((elapsed, statistics.fmean(kernel)))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--part", choices=("jobs", "setup"), default="jobs")
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()

    run._import_package()
    from suite import WORKLOADS

    workdir = run.ROOT / ".bench_work" / f"fit-{args.workload}"
    try:
        rows = _sample(WORKLOADS[args.workload](workdir), args.part, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    work_log = np.log([row[0] for row in rows])
    kernel_log = np.log([row[1] for row in rows])
    slope = float(np.polyfit(kernel_log, work_log, 1)[0])
    for power in (0.0, 0.5, round(slope, 2), 1.0):
        scaled = np.exp(work_log - power * kernel_log)
        print(f"power {power:.2f}: variation {float(np.std(scaled) / np.mean(scaled)):.3f}")
    low, high = float(np.exp(kernel_log.min())), float(np.exp(kernel_log.max()))
    print(f"{args.workload} {args.part}: slope {slope:.3f} over {len(rows)} samples, "
          f"kernel {1000 * low:.2f}-{1000 * high:.2f} ms")


if __name__ == "__main__":
    main()
