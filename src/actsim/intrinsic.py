"""Intrinsic quality metrics over ground-truth classes, and the benchmark runner.

All four metrics see the similarity matrix of a derived log and the clone
classes. Candidate and out-of-class sets always cover every activity of
the derived log, unreplaced originals included. I_nn, I_prec and I_tri
depend only on the ranking of similarities; I_comp alone reads values,
after min-max normalization of the off-diagonal cells.

``score_all`` computes all four in one pass over numpy row blocks of one
validated class layout; each single-metric function selects from it. Its
per-pair, per-member and per-class means stay Python sums over
``.tolist()`` in the order of the loop oracles in ``tests/reference.py``:
numpy's pairwise float summation would change the last bit.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActsimError, DataError, ParameterError
from .groundtruth import BenchmarkPlan, PlanJob, enumerate_benchmark_plan, generate_ground_truth_log
from .log import EventLog
from .pipeline import MethodConfig, shared_tables, similarity_for_config
from .similarity import PairwiseSimilarity


def score_compactness(
    sim: PairwiseSimilarity, classes: Mapping[int, frozenset[int]]
) -> float:
    """Mean normalized in-class similarity (I_comp).

    Off-diagonal similarities of the full matrix are min-max scaled to
    [0, 1]; a degenerate matrix (max equals min) scales everything to 0.
    The score averages the scaled similarity over unordered in-class
    pairs, then over classes.
    """
    return score_all(sim, classes)[0]


def score_nearest_neighbor(
    sim: PairwiseSimilarity, classes: Mapping[int, frozenset[int]]
) -> float:
    """Fraction of members whose most similar activity is a classmate (I_nn).

    The candidate set of a member is every other activity of the derived
    log. A member succeeds only if every candidate attaining the maximum
    similarity is in its class; a tie with an outsider counts as failure.
    Fractions are averaged per class, then over classes.
    """
    return score_all(sim, classes)[1]


def score_precision_at_k(
    sim: PairwiseSimilarity, classes: Mapping[int, frozenset[int]]
) -> float:
    """Precision of the top w-1 candidates (I_prec).

    For each member the k = w-1 most similar candidates are taken, ties
    broken by smallest activity id, and the in-class share among them is
    recorded; averaged per class, then over classes.
    """
    return score_all(sim, classes)[2]


def score_triplet(
    sim: PairwiseSimilarity, classes: Mapping[int, frozenset[int]]
) -> float:
    """Fraction of triples where classmates beat outsiders (I_tri).

    For every ordered in-class pair (a, b) and every out-of-class
    activity o, the triple succeeds when s(a, o) < s(a, b) strictly.
    Success rates are averaged per pair, per class, then over classes.
    A class covering the whole log has no outsiders and scores 1.0.
    """
    return score_all(sim, classes)[3]


def score_all(
    sim: PairwiseSimilarity, classes: Mapping[int, frozenset[int]]
) -> tuple[float, float, float, float]:
    """(I_comp, I_nn, I_prec, I_tri) in one pass over the classes.

    The classes are validated once against the matrix; each class is then
    read as the block of its member rows, sorted by activity id, and
    yields its four per-class values.
    """
    if not classes:
        raise ParameterError("no classes given")
    index = {aid: i for i, aid in enumerate(sim.labels)}
    layout = []
    for original, clones in classes.items():
        if len(clones) < 2:
            raise ParameterError(f"class of original {original} has fewer than 2 members")
        for clone in clones:
            if clone not in index:
                raise DataError(
                    f"class member {clone} (original {original}) has no row in the "
                    "similarity matrix; it never occurs in the derived log"
                )
        layout.append(np.array([index[clone] for clone in sorted(clones)], dtype=np.intp))

    values = sim.values
    # off[:k, :k] picks a k-member block's ordered pairs in permutations
    # order, upper[:k, :k] its unordered pairs in combinations order.
    off = ~np.eye(values.shape[0], dtype=bool)
    upper = np.triu(off)
    lo = float(values[off].min())
    span = float(values[off].max()) - lo
    columns = np.arange(values.shape[0])
    ids = np.broadcast_to(np.asarray(sim.labels), values.shape)
    per_class = []
    for rows in layout:
        k = len(rows)
        block = values[rows]
        own = columns == rows[:, None]
        in_class = own.any(axis=0)
        outside = ~in_class
        comp = 0.0
        if span != 0.0:
            pair_scores = ((block[:, rows][upper[:k, :k]] - lo) / span).tolist()
            comp = sum(pair_scores) / len(pair_scores)
        row_max = np.where(own, -np.inf, block).max(axis=1, keepdims=True)
        missed = int(np.count_nonzero(((block == row_max) & outside).any(axis=1)))
        # The last key sorts first: the member itself goes after every candidate.
        order = np.lexsort((ids[rows], -block, own))
        precisions = [hits / (k - 1) for hits in in_class[order[:, : k - 1]].sum(axis=1).tolist()]
        tri = 1.0
        outsiders = int(np.count_nonzero(outside))
        if outsiders:
            # wins[a, b] counts the outsiders o with s(a, o) < s(a, b).
            wins = (block[:, None, outside] < block[:, rows, None]).sum(axis=2)
            pair_scores = [count / outsiders for count in wins[off[:k, :k]].tolist()]
            tri = sum(pair_scores) / len(pair_scores)
        per_class.append((comp, (k - missed) / k, sum(precisions) / len(precisions), tri))
    return tuple(sum(m[i] for m in per_class) / len(per_class) for i in range(4))


@dataclass(frozen=True)
class IntrinsicScores:
    """Metric values of one (job, config) combination."""

    method: str
    context: str
    weighting: str
    window: int
    r: int
    w: int
    sample: int
    i_comp: float
    i_nn: float
    i_prec: float
    i_tri: float
    log_id: str = "log"


@dataclass(frozen=True)
class FailedJob:
    """A (job, config) combination that raised; the run keeps going."""

    method: str
    context: str
    weighting: str
    window: int
    r: int
    w: int
    sample: int
    error: str
    log_id: str = "log"


def _error_text(exc: Exception) -> str:
    """An :class:`ActsimError`'s own message; any other exception's message
    after its type name."""
    return str(exc) if isinstance(exc, ActsimError) else f"{type(exc).__name__}: {exc}"


def _labels(job: PlanJob, config: MethodConfig, log_id: str) -> dict:
    """The fields a score or failure record of (job, config) starts with."""
    return dict(
        method=config.method, context=config.kind.value, weighting=config.weighting,
        window=config.window, r=job.r, w=job.w, sample=job.sample_index, log_id=log_id,
    )


def _fail_every_config(
    job: PlanJob, configs: tuple[MethodConfig, ...], log_id: str, exc: Exception
) -> list[FailedJob]:
    return [FailedJob(**_labels(job, config, log_id), error=_error_text(exc)) for config in configs]


def _run_job(
    log: EventLog, job: PlanJob, configs: tuple[MethodConfig, ...], log_id: str
) -> tuple[list[IntrinsicScores], list[FailedJob]]:
    """Score one plan job under every config. An exception while deriving
    the ground truth or its tables fails every config; one while scoring a
    config fails only that config."""
    try:
        gt = generate_ground_truth_log(
            log, set(job.selected), job.w, job.seed, sample_index=job.sample_index
        )
        tables = shared_tables(gt.log, configs)
    except Exception as exc:
        return [], _fail_every_config(job, configs, log_id, exc)

    scores: list[IntrinsicScores] = []
    failures: list[FailedJob] = []
    for config in configs:
        labels = _labels(job, config, log_id)
        try:
            sim = similarity_for_config(tables[(config.kind, config.window)], config)
            i_comp, i_nn, i_prec, i_tri = score_all(sim, gt.classes.psi)
        except Exception as exc:
            failures.append(FailedJob(**labels, error=_error_text(exc)))
            continue
        scores.append(
            IntrinsicScores(**labels, i_comp=i_comp, i_nn=i_nn, i_prec=i_prec, i_tri=i_tri)
        )
    return scores, failures


def run_intrinsic_benchmark(
    log: EventLog,
    configs: Sequence[MethodConfig],
    samples: int = 5,
    master_seed: int = 42,
    parallel: bool = False,
    log_id: str = "log",
    plan: "BenchmarkPlan | None" = None,
) -> tuple[list[IntrinsicScores], list[FailedJob]]:
    """Score every plan job under every config.

    Jobs are independent; with ``parallel`` they run in a process pool but
    results are collected in plan order, so the output is identical to a
    serial run. Per-job errors are recorded and never abort the sweep.

    If a pool worker dies (an OOM kill, ``os._exit``), every job whose
    result had not been read, in plan order, fails under each config with
    ``"BrokenProcessPool: ..."``. It is not re-run in this process: a job
    that killed a worker could kill this process too.
    """
    if not configs:
        raise ParameterError("no method configurations given")
    configs = tuple(config.validate() for config in configs)
    if plan is None:
        plan = enumerate_benchmark_plan(log, samples, master_seed)
    arguments = (repeat(log), plan.jobs, repeat(configs), repeat(log_id))
    if parallel and len(plan.jobs) > 1:
        results = []
        with ProcessPoolExecutor() as pool:
            try:
                for result in pool.map(_run_job, *arguments, chunksize=8):
                    results.append(result)
            except BrokenProcessPool as exc:
                results.extend(
                    ([], _fail_every_config(job, configs, log_id, exc))
                    for job in plan.jobs[len(results):]
                )
    else:
        results = list(map(_run_job, *arguments))
    scores: list[IntrinsicScores] = []
    failures: list[FailedJob] = []
    for job_scores, job_failures in results:
        scores.extend(job_scores)
        failures.extend(job_failures)
    return scores, failures


@dataclass(frozen=True)
class AggregateRow:
    method: str
    context: str
    weighting: str
    window: int
    i_comp: float
    i_nn: float
    i_prec: float
    i_tri: float
    jobs_ok: int
    jobs_failed: int


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[AggregateRow, ...]


def aggregate_scores(
    scores: Sequence[IntrinsicScores], failures: Iterable[FailedJob] = ()
) -> AggregateReport:
    """Two-level mean per config: within each original log, then across logs.

    Failed jobs contribute nothing to the means; their count is reported
    next to the number of scored jobs.
    """
    if not scores:
        raise ParameterError("no scores to aggregate")

    def config_key(entry) -> tuple:
        return (entry.method, entry.context, entry.weighting, entry.window)

    by_config: dict[tuple, list[IntrinsicScores]] = {}
    for score in scores:
        by_config.setdefault(config_key(score), []).append(score)
    failed_counts = Counter(map(config_key, failures))

    rows = []
    for key in sorted(by_config):
        group = by_config[key]
        by_log: dict[str, list[IntrinsicScores]] = {}
        for score in group:
            by_log.setdefault(score.log_id, []).append(score)
        log_means = []
        for log_id in sorted(by_log):
            entries = by_log[log_id]
            log_means.append(tuple(
                sum(getattr(e, field) for e in entries) / len(entries)
                for field in ("i_comp", "i_nn", "i_prec", "i_tri")
            ))
        overall = tuple(sum(m[i] for m in log_means) / len(log_means) for i in range(4))
        # The key and the four means are AggregateRow's leading fields, in order.
        rows.append(
            AggregateRow(*key, *overall, jobs_ok=len(group), jobs_failed=failed_counts[key])
        )
    return AggregateReport(rows=tuple(rows))
