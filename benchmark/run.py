"""The actsim benchmark: one workload per process, end-to-end or traced.

    python3 benchmark/run.py --workload sweep --seed 7 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
With ``--trace 0`` it prints every end-to-end metric. With ``--trace 1``
it runs a tracemalloc pass, then the same jobs untraced and traced, and
prints the per-layer metrics (see README.md). The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Serial by design: cap BLAS threads before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = (5, 40)  # at least, at most; repeat until SETUP_BUDGET_S is spent
SETUP_BUDGET_S = 5.0
OVERHEAD_PROBE_SHARE = 0.5  # share of --seconds the traced run spends untraced
# Time of _calibrate() on a quiet shared 2-core x86-64 VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.005
# Jobs slow down as this power of the kernel's slow-down. Fitted on that
# VM with fit_sensitivity.py over 100-150 s: 0.61 (sweep), 0.69
# (sweep_shared), 0.61 (big_log). Set-up has a power per workload
# (``setup_sensitivity`` in suite.py). Refit both when the layer mix changes.
SENSITIVITY = 0.65


def _import_package() -> None:
    """Import ``actsim`` from this checkout's ``src``, never from elsewhere."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    try:
        import actsim
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import actsim from {source}: {exc}")
    if not Path(actsim.__file__).resolve().is_relative_to(source.resolve()):
        raise SystemExit(f"benchmark: actsim was imported from {actsim.__file__}, not {source}")


def _settle_allocator() -> None:
    """Put glibc's malloc in the state that a long run reaches anyway.

    glibc serves each large block with mmap until the first such block is
    freed; then it raises its mmap threshold to that block's size (at most
    32 MiB), and later blocks of that size come from the heap, which keeps
    more pages resident. When that first free falls inside the measured
    work, peak RSS depends on how many batches a run fits. Freeing one
    31 MiB block before set-up raises the threshold before anything is
    timed or counted. Under another allocator it is a harmless allocation.
    """
    block = np.empty(31 << 20, dtype=np.uint8)
    del block


def _calibrate() -> float:
    """Seconds one fixed kernel takes right now; it never touches actsim.

    A shared VM's speed can drift by up to 2x over minutes. The kernel mixes
    what actsim spends its time on, tuple-keyed dict counting and a small
    matrix product, so its time tracks that drift.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(20_000):
            key = (i % 97, i % 13, i % 7)
            counts[key] = counts.get(key, 0) + 1
        matrix = np.arange(4000.0).reshape(40, 100)
        float((matrix @ matrix.T).sum())
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Times work in laps, as measured and at the reference speed.

    It takes a calibration sample when it is made and after every lap,
    outside the timed window. Each lap is scaled by the two samples around
    it, which follows drift from second to second:
    lap * (REFERENCE_S / mean of the two samples) ** power.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()
        self.start()

    def sample(self) -> None:
        self.samples.append(_calibrate())

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._since = time.perf_counter()

    def lap(self, power: float = SENSITIVITY) -> None:
        elapsed = time.perf_counter() - self._since
        self.sample()
        self.raw += elapsed
        self.scaled += elapsed * (REFERENCE_S / statistics.fmean(self.samples[-2:])) ** power
        self._since = time.perf_counter()


def _measure(workload, seconds: float, clock: Clock, jobs=None) -> dict:
    """Run batches until the next one would end after ``seconds`` (at least
    one), or exactly ``jobs`` when given; then the workload's closing step.

    Returns the counts, the jobs run, and under ``raw`` and ``scaled`` the
    job times, ``wall`` (the job times plus the closing step, without the
    calibration samples) and ``scoring`` (the time of the jobs whose
    outcome is marked ``scoring``; on ``big_log``, all but the parses).
    """
    raw = {"job_times": [], "wall": 0.0, "scoring": 0.0}
    scaled = {"job_times": [], "wall": 0.0, "scoring": 0.0}
    done: list = []
    totals = {"scores": 0, "events": 0, "attempted": 0, "failed": 0}
    batch_times: list[float] = []

    def account(scoring: bool) -> None:
        clock.lap()
        for times, value in ((raw, clock.raw), (scaled, clock.scaled)):
            times["wall"] += value
            if scoring:
                times["scoring"] += value

    clock.sample()
    start = time.perf_counter()
    batches = workload.batches() if jobs is None else [jobs]
    for batch in batches:
        batch_start = time.perf_counter()
        for job in batch:
            clock.start()
            outcome = workload.run_job(job)
            account(outcome["scoring"])
            raw["job_times"].append(clock.raw)
            scaled["job_times"].append(clock.scaled)
            done.append(job)
            for key in totals:
                totals[key] += outcome[key]
        batch_times.append(time.perf_counter() - batch_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(batch_times) > seconds:
            break
    clock.start()
    workload.finish()
    account(False)
    return {"raw": raw, "scaled": scaled, "jobs": done, **totals}


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of
    all order statistics. Unlike a plain sample quantile it does not jump
    when one job's time moves past its neighbours around the quantile."""
    ordered = np.sort(values)
    n = len(ordered)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def _end_to_end(run: dict, times: dict, setup_times: list[float]) -> dict:
    """The end-to-end metrics from the counts of ``run`` and one set of
    ``times`` (raw or scaled, see Clock).

    ``scores_per_s`` divides by the time of the scoring jobs, and
    ``events_per_s`` by the whole timed window, closing step included.
    """
    job_times = times["job_times"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "scores_per_s": (run["scores"] / times["scoring"], "1/s"),
        "events_per_s": (run["events"] / times["wall"], "1/s"),
        "job_p50_s": (_quantile(job_times, 0.5), "s"),
        "job_p75_s": (_quantile(job_times, 0.75), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, memory, untraced_wall: float, traced_wall: float) -> dict:
    from tracing import SPAN_NAMES

    rows = tracer.summary()
    peaks = memory.summary()

    def value(name: str, key: str) -> float:
        return float(rows[name][key]) if name in rows else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (value(name, "self_s"), "s")
        metrics[f"{name}.calls"] = (value(name, "calls"), "count")
        metrics[f"{name}.peak_bytes"] = (
            float(peaks[name]["peak_bytes"]) if name in peaks else 0.0,
            "B",
        )
    extract = "contexts.extract_occurrences"
    tables = value(extract, "calls")
    traces = value(extract, "traces")
    metrics[f"{extract}.events"] = (value(extract, "events"), "count")
    metrics[f"{extract}.contexts"] = (value(extract, "contexts"), "count")
    metrics[f"{extract}.variant_ratio"] = (
        value(extract, "variants") / traces if traces else 0.0,
        "ratio",
    )
    for build in ("matrices.build_ac", "matrices.build_aa"):
        metrics[f"{build}.nnz"] = (value(build, "nnz"), "count")
        metrics[f"{build}.builds_per_table"] = (
            value(build, "calls") / tables if tables else 0.0,
            "ratio",
        )
    metrics["intrinsic.score_all.comparisons"] = (
        value("intrinsic.score_all", "comparisons"),
        "count",
    )
    metrics["groundtruth.generate_ground_truth_log.events"] = (
        value("groundtruth.generate_ground_truth_log", "events"),
        "count",
    )
    metrics["similarity.pairwise_distance_matrix.gram_flops"] = (
        value("similarity.pairwise_distance_matrix", "gram_flops"),
        "flop",
    )
    for name in ("log.parse_csv", "log.parse_xes", "matrices.write_embedding_csv",
                 "similarity.write_distance_csv", "bench.export_report"):
        metrics[f"{name}.bytes"] = (value(name, "bytes"), "B")
    spanned = sum(row["self_s"] for row in rows.values())
    counting = sum(row["counting_s"] for row in rows.values())
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.unspanned_s"] = (traced_wall - spanned - counting, "s")
    metrics["trace.counting_s"] = (counting, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def _print_layer_table(metrics: dict, untraced_wall: float) -> None:
    from tracing import SPAN_NAMES

    wall = metrics["trace.wall_s"][0]
    print(f"{'layer span':44s} {'calls':>7s} {'self_s':>10s} {'share':>7s}")
    for name in SPAN_NAMES:
        own = metrics[f"{name}.self_s"][0]
        calls = metrics[f"{name}.calls"][0]
        print(f"{name:44s} {calls:7.0f} {own:10.4f} {100 * own / wall:6.1f}%")
    for name in ("trace.counting_s", "trace.unspanned_s"):
        own = metrics[name][0]
        print(f"{name:44s} {'':7s} {own:10.4f} {100 * own / wall:6.1f}%")
    print(f"traced wall {wall:.4f} s, untraced wall {untraced_wall:.4f} s, "
          f"trace.overhead_s {metrics['trace.overhead_s'][0]:.4f}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from suite import WORKLOADS
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (expected one of {sorted(WORKLOADS)})")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir)
    try:
        _settle_allocator()
        clock = Clock()
        setup_times: list[float] = []
        setup_scaled: list[float] = []
        least, most = (1, 1) if args.trace else SETUP_REPEATS
        while len(setup_times) < least or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < most
        ):
            gc.collect()
            clock.start()
            workload.setup(args.seed)
            clock.lap(workload.setup_sensitivity)
            setup_times.append(clock.raw)
            setup_scaled.append(clock.scaled)
        workload.warm_up()

        if args.trace:
            # The tracemalloc pass goes first: it also warms the heap, so the
            # untraced and traced passes that follow start from the same state.
            with Tracer(memory=True) as memory:
                _measure(workload, args.seconds, clock, workload.memory_jobs())
            workload.reset()
            probe = _measure(workload, args.seconds * OVERHEAD_PROBE_SHARE, clock)
            jobs = probe["jobs"]
            workload.reset()
            with Tracer() as tracer:
                run = _measure(workload, args.seconds, clock, jobs)
            checks = workload.check()
            untraced_wall = probe["raw"]["wall"]
            metrics = _per_layer(tracer, memory, untraced_wall, run["raw"]["wall"])
            tracer.write(ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl")
            _print_layer_table(metrics, untraced_wall)
        else:
            run = _measure(workload, args.seconds, clock)
            checks = workload.check()
            metrics = _end_to_end(run, run["scaled"], setup_scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = [message for message in checks if message]
    attempted = run["attempted"] + len(checks)
    failed = run["failed"] + len(failed_checks)
    for message in failed_checks:
        print(f"check failed: {message}")
    raw = run["raw"]
    print(f"{len(raw['job_times'])} jobs in {raw['wall']:.3f} s; "
          f"{len(checks)} output checks, {len(failed_checks)} failed; "
          f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    if not args.trace:
        beyond = sum(1 for t in run["scaled"]["job_times"] if t > metrics["job_p75_s"][0])
        print(f"job times: {len(raw['job_times'])} samples, {beyond} beyond p75; "
              f"set-up repeated {len(setup_times)} times")
        for name, (number, unit) in metrics.items():
            print(f"{name} {number!r} {unit}")
        # The same metrics before scaling, as one JSON line, so that a
        # comparison can be checked without the calibration model.
        unscaled = _end_to_end(run, raw, setup_times)
        print("unscaled " + json.dumps({
            "calibration_median_s": statistics.median(clock.samples),
            "calibration_samples": len(clock.samples),
            "sensitivity": {"jobs": SENSITIVITY, "setup": workload.setup_sensitivity},
            "metrics": {name: number for name, (number, _) in unscaled.items()},
        }, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": number, "unit": unit} for name, (number, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
