"""Measure HEAD against a parent commit with the benchmark, into one JSON file.

    python3 tools/trajectory.py --parent BASE --out BENCH_<pr>.json

``HEAD`` and ``--parent`` are copied out of git with ``git archive``, so
only committed files are measured and neither copy shares a working
directory with the other. For each workload the script runs

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0

in each copy, in ``--pairs`` pairs that alternate which side runs first;
both runs of pair i use seed 6001 + i. It reads each run's last
standard-output line (the scaled metrics, ``correct`` and ``failed``) and
the line before it (the unscaled metrics and the calibration median). It
also times W1 ``actsim intrinsic`` runs, serial and ``--parallel``, in
``--pairs`` pairs that alternate in the same way. The file records per
workload and side the median and quartiles of every end-to-end metric that
``BENCHMARK.json`` lists, the head/parent ratio of the medians, the pairs
the head won, and every run; the same for W1's ``serial_s`` and
``parallel_s``, with each side's medians also under ``w1[side]``; and both
commit hashes, the seeds, ``--seconds``, ``--pairs``, the CPU count and the
Python, numpy and scipy versions. It is a record, not a gate:
it exits 0 whatever the figures are, 1 only when a run cannot be read, and
2 on a usage error, such as a ``--parent`` that names no commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "head")
FIRST_SEED = 6001
W1_GRID = ["--method", "all", "--context", "all", "--weight", "all", "--window", "3,5"]
W1_METRICS = [{"name": f"{mode}_s", "unit": "s", "better": "lower"} for mode in ("serial", "parallel")]


def _commit(revision: str) -> str:
    """The hash of the commit ``revision`` names; if none, one ``error:`` line and exit 2."""
    found = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
                           cwd=ROOT, capture_output=True, text=True)
    if found.returncode:
        print(f"error: {revision!r} names no commit in {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    return found.stdout.strip()


def _checkout(commit: str, target: Path) -> Path:
    """The committed files of ``commit``, unpacked into ``target``."""
    target.mkdir()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        untar = subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout)
    finally:
        # Closing the pipe lets git archive end even when tar did not read it all.
        archive.stdout.close()
        archived = archive.wait()
    if archived or untar.returncode:
        raise SystemExit(f"error: git archive {commit} | tar -x failed")
    return target


def _benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``workload`` in ``tree``: its last stdout
    line, with the unscaled line before it under ``unscaled``."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) < 2 or not lines[-2].startswith("unscaled "):
        raise SystemExit(
            f"trajectory: {' '.join(command)} in {tree} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["unscaled"] = json.loads(lines[-2].removeprefix("unscaled "))
    return result


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(runs: dict, metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the head/parent ratio of the
    medians, and the pairs in which the head was strictly better."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        spread = {side: _quartiles(values[side]) for side in SIDES}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **spread,
            "ratio": spread["head"]["median"] / spread["parent"]["median"],
            "head_won": sum(sign * (h - p) > 0 for p, h in zip(values["parent"], values["head"])),
        }
    return out


def _w1(trees: dict, work: Path, pairs: int) -> dict:
    """Wall seconds of W1 ``actsim intrinsic`` runs, serial and
    ``--parallel``, in ``pairs`` pairs that alternate which side runs
    first: each side's medians, the summary of each mode, and every run."""
    log = work / "w1.csv"
    subprocess.run([sys.executable, "-c", (
        "import sys, actsim, workloads\n"
        "actsim.write_log_csv(workloads.structured_log(7, 2000, 20), sys.argv[1])"
    ), str(log)], check=True, env=_env(trees["head"], "benchmark"))
    runs: dict = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            metrics = {}
            for mode in ("serial", "parallel"):
                command = [sys.executable, "-m", "actsim.cli", "intrinsic", "--input", str(log),
                           "--out-dir", str(work / f"w1-{side}-{mode}"), *W1_GRID]
                command += ["--parallel"] if mode == "parallel" else []
                start = time.perf_counter()
                subprocess.run(command, check=True, env=_env(trees[side]), stdout=subprocess.DEVNULL)
                metrics[f"{mode}_s"] = {"value": time.perf_counter() - start}
            runs[side].append({"metrics": metrics})
    summary = _summary(runs, W1_METRICS)
    medians = {side: {name: summary[name][side]["median"] for name in summary} for side in SIDES}
    return {**medians, "metrics": summary, "runs": runs}


def _env(tree: Path, *extra: str) -> dict:
    """The environment that imports ``actsim`` from ``tree``'s ``src``."""
    paths = [str(tree / "src"), *(str(tree / name) for name in extra)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD^", help="the base commit (default HEAD^)")
    names = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or names
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    revisions = {"parent": args.parent, "head": "HEAD"}
    commits = {side: _commit(revisions[side]) for side in SIDES}

    with tempfile.TemporaryDirectory(prefix="trajectory-") as temp:
        work = Path(temp)
        trees = {side: _checkout(commits[side], work / side) for side in SIDES}
        results = {}
        for workload in workloads:
            runs: dict = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(_benchmark(trees[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['metrics']['scores_per_s']['value']:.4g} scores/s",
                          file=sys.stderr)
            results[workload] = {
                "metrics": _summary(runs, spec["end_to_end"]),
                "correct": {side: all(run["correct"] for run in runs[side]) for side in SIDES},
                "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
                "calibration_median_s": {
                    side: _quartiles([run["unscaled"]["calibration_median_s"] for run in runs[side]])
                    for side in SIDES
                },
                "runs": runs,
            }
        w1 = _w1(trees, work, args.pairs)

    record = {
        "commits": commits,
        "seeds": seeds,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "cpu_count": os.cpu_count(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "workloads": results,
        "w1": w1,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
