"""The three workloads: what each runs, counts and checks.

A workload is driven through ``setup`` (timed, repeated), ``batches``
(an endless cycle of job lists; the runner stops between batches),
``run_job``, ``finish`` (timed closing step) and ``check`` (untimed
output checks, one message per check, empty when it passed).
``run_job`` returns the job's counts, and ``scoring``: whether its time
counts towards ``scores_per_s``.
"""

from __future__ import annotations

import csv
import gc
import itertools
from pathlib import Path

import numpy as np

import actsim
import workloads
from actsim.groundtruth import BenchmarkPlan

SAMPLES = 3
WINDOWS = (3, 5)
MASTER_SEED = 42  # the CLI's default --seed for the plan


class Sweep:
    """ROADMAP W1: the full 26-config intrinsic grid over ``samples=3`` plan jobs.

    One job scores every config on one derived log, exactly as
    ``actsim intrinsic --method all --context all --weight all --window 3,5``
    does per job. A batch is one sample of the plan, one job for every
    (r, w) cell, so each batch has the plan's mix of cheap and expensive
    jobs whatever the number of batches a run fits.
    """

    # Set-up is mostly this benchmark's own pure-Python log generator; its
    # time tracks the calibration kernel at a power of 0.89-0.97.
    setup_sensitivity = 0.9

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def make_log(self, seed: int) -> actsim.EventLog:
        return workloads.structured_log(seed, n_traces=2000, min_activities=20)

    def setup(self, seed: int) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.log = self.make_log(seed)
        self.n_events = self.log.n_events
        self.configs = actsim.expand_grid(
            actsim.METHODS, ("mset", "seq"), actsim.WEIGHTINGS, WINDOWS
        )
        self.plan = actsim.enumerate_benchmark_plan(self.log, SAMPLES, MASTER_SEED)
        samples: dict[int, list] = {}
        for job in self.plan.jobs:
            samples.setdefault(job.sample_index, []).append(job)
        self.rounds = [samples[k] for k in sorted(samples)]
        self.reset()

    def reset(self) -> None:
        self.scores: list = []
        self.failures: list = []
        self.by_job: dict = {}

    def _score(self, jobs) -> tuple[list, list]:
        plan = BenchmarkPlan(tuple(jobs), self.plan.master_seed, self.plan.samples)
        return actsim.run_intrinsic_benchmark(self.log, self.configs, plan=plan)

    def warm_up(self) -> None:
        self._score(self.rounds[0][:1])

    def batches(self):
        return itertools.cycle(self.rounds)

    def run_job(self, job) -> dict:
        """Clones replace events one for one, so the derived log a job
        scores has exactly as many events as the base log."""
        scores, failures = self._score([job])
        self.scores.extend(scores)
        self.failures.extend(failures)
        self.by_job.setdefault(job, []).append(scores)
        return {
            "scores": len(scores),
            "events": self.n_events,
            "attempted": len(self.configs),
            "failed": len(failures),
            "scoring": True,
        }

    def finish(self) -> None:
        actsim.export_report(self.scores, self.workdir / "intrinsic_scores.json", "json")
        report = actsim.aggregate_scores(self.scores, self.failures)
        actsim.export_report(report, self.workdir / "intrinsic_aggregate.csv", "csv")

    def memory_jobs(self) -> list:
        """The job with the largest derived log: most clones, then most classes."""
        return [self._heaviest(self.plan.jobs)]

    @staticmethod
    def _heaviest(jobs):
        return max(jobs, key=lambda job: (job.r * job.w, job.r))

    def _report_bytes(self, scores, name: str) -> bytes:
        path = self.workdir / name
        actsim.export_report(scores, path, "json")
        return path.read_bytes()

    def check(self) -> list[str]:
        messages = []
        expected = {config.describe() for config in self.configs}
        for job, runs in self.by_job.items():
            got = [f"{s.method}/{s.context}/{s.weighting}/{s.window}" for s in runs[0]]
            messages.append(_failed(
                set(got) == expected and len(got) == len(expected),
                f"job r={job.r} w={job.w} sample={job.sample_index}: "
                f"{len(got)} of {len(expected)} configs scored",
            ))
        bad = [
            s for s in self.scores
            if not all(0.0 <= v <= 1.0 for v in (s.i_comp, s.i_nn, s.i_prec, s.i_tri))
        ]
        messages.append(_failed(not bad, f"{len(bad)} score records outside [0, 1]"))
        # Report bytes must not depend on when or how often a job ran: score
        # the first and the heaviest job again and compare the exports.
        jobs = list(self.by_job)
        again = sorted({jobs[0], self._heaviest(jobs)}, key=jobs.index)
        fresh, _ = self._score(again)
        first = [s for job in again for s in self.by_job[job][0]]
        messages.append(_failed(
            self._report_bytes(fresh, "again.json") == self._report_bytes(first, "first.json"),
            "re-scored jobs export different report bytes",
        ))
        for job, runs in self.by_job.items():
            for later in runs[1:]:
                messages.append(_failed(later == runs[0], f"repeat of job {job} differs"))
        return messages


class SweepShared(Sweep):
    """The sweep over ~300 variants drawn Zipf-weighted into 12k traces."""

    def make_log(self, seed: int) -> actsim.EventLog:
        return workloads.shared_log(seed)


def _chain_configs(kind: str, window: int) -> list:
    configs = [
        actsim.make_config("ac", kind, "none", window),
        actsim.make_config("ac", kind, "ppmi", window),
        actsim.make_config("aa", kind, "none", window),
    ]
    if kind == "seq":
        configs.append(actsim.make_config("substitution", kind, "none", window))
    return configs


class BigLog:
    """ROADMAP W2+W3: parse a 100k-trace log from CSV and XES, then the
    embed/distances path for each (kind, window) on the parsed log.

    A batch is one full pass of 20 jobs: both parses, then for each
    (kind, window) one job that extracts the table and one job per chain
    config that builds it, compares and writes. Short jobs keep each
    calibration sample close to the work it scales. The embedding CSV is
    written for raw AA, and for raw AC over multisets; the
    sequence-window-5 AC would be a dense 40 x 300k-column file.
    """

    # Set-up generates the log with numpy and writes two files; its time
    # tracks the calibration kernel at a power of 0.49-0.59.
    setup_sensitivity = 0.55

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.log = workloads.big_uniform_log(seed)
        self.n_events = self.log.n_events
        self.paths = {"csv": self.workdir / "log.csv", "xes": self.workdir / "log.xes"}
        actsim.write_log_csv(self.log, self.paths["csv"])
        workloads.write_log_xes(self.log, self.paths["xes"])
        self.reset()

    def reset(self) -> None:
        self.parsed: dict = {}
        self.outputs: dict = {}

    def warm_up(self) -> None:
        pass

    def batches(self):
        """Each batch starts from an empty state, outside any job's timed
        window: a batch that ran before holds no logs or matrices, so peak
        RSS barely depends on how many batches a run fits."""
        jobs = [("parse", "csv"), ("parse", "xes")] + self._chain_jobs(("mset", "seq"), WINDOWS)
        while True:
            self.reset()
            gc.collect()
            yield jobs

    @staticmethod
    def _chain_jobs(kinds, windows) -> list:
        jobs = []
        for kind in kinds:
            for window in windows:
                jobs.append(("extract", kind, window))
                jobs += [("config", config) for config in _chain_configs(kind, window)]
        return jobs

    def run_job(self, job) -> dict:
        """Each parse and each extraction carries the log's events once.
        Every job but the parses counts towards ``scores_per_s``."""
        if job[0] == "parse":
            self.parsed[job[1]] = actsim.read_log(self.paths[job[1]])
            return {"scores": 0, "events": self.n_events, "attempted": 1, "failed": 0,
                    "scoring": False}
        if job[0] == "extract":
            _, kind, window = job
            table = actsim.extract_occurrences(self.parsed["csv"], window, kind)
            self.outputs[(kind, window)] = (table, [])
            return {"scores": 0, "events": self.n_events, "attempted": 1, "failed": 0,
                    "scoring": True}
        config = job[1]
        kind, window = config.kind.value, config.window
        table, results = self.outputs[(kind, window)]
        alphabet = self.parsed["csv"].alphabet
        built = actsim.build_embedding(table, config)
        if isinstance(built, actsim.PairwiseSimilarity):
            sim = built
        else:
            sim = actsim.pairwise_distance_matrix(built)
            if config.weighting == "none" and (config.method == "aa" or kind == "mset"):
                name = f"embedding-{config.method}-{kind}-{window}.csv"
                actsim.write_embedding_csv(built, alphabet, self.workdir / name)
        path = self.workdir / f"distances-{config.method}-{config.weighting}-{kind}-{window}.csv"
        actsim.write_distance_csv(sim, alphabet, path)
        results.append((config, built, sim, path))
        return {"scores": 1, "events": 0, "attempted": 1, "failed": 0, "scoring": True}

    def finish(self) -> None:
        pass

    def memory_jobs(self) -> list:
        """The XES parse, which holds the whole document tree, then the
        CSV parse and the chain that writes the largest embedding."""
        return [("parse", "xes"), ("parse", "csv")] + self._chain_jobs(("mset",), (5,))

    def check(self) -> list[str]:
        messages = []
        generated = self.log.label_traces()
        for fmt, log in self.parsed.items():
            messages.append(_failed(
                log.label_traces() == generated, f"parsed {fmt} log differs from the generated log"
            ))
        for table, results in self.outputs.values():
            for config, built, sim, path in results:
                label = config.describe()
                if config.method == "ac" and config.weighting == "none":
                    sums = np.asarray(built.values.sum(axis=1)).ravel().tolist()
                    totals = [table.activity_totals[a] for a in built.row_labels]
                    messages.append(_failed(
                        sums == totals, f"{label}: AC row sums differ from activity totals"
                    ))
                if config.method == "aa":
                    messages.append(_failed(
                        np.array_equal(built.values, built.values.T), f"{label}: AA not symmetric"
                    ))
                if sim.flavor == "cosine":
                    messages.append(_failed(
                        np.array_equal(sim.values, sim.values.T)
                        and bool(np.all(np.diag(sim.values) == 1.0)),
                        f"{label}: cosine not symmetric with unit diagonal",
                    ))
                expected = sim.distance_matrix() if sim.flavor == "cosine" else sim.values
                messages.append(_failed(
                    np.array_equal(_read_matrix(path), expected),
                    f"{label}: {path.name} does not parse back to its matrix",
                ))
        configs = sum(len(results) for _, results in self.outputs.values())
        expected = sum(len(_chain_configs(kind, n)) for kind in ("mset", "seq") for n in WINDOWS)
        messages.append(_failed(
            len(self.outputs) == 4 and configs == expected,
            f"{len(self.outputs)} of 4 chains and {configs} of {expected} configs ran",
        ))
        return messages


def _failed(ok: bool, message: str) -> str:
    """The message of a failed check, or "" for one that passed."""
    return "" if ok else message


def _read_matrix(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])


WORKLOADS = {"sweep": Sweep, "sweep_shared": SweepShared, "big_log": BigLog}
