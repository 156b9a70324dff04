"""Intrinsic quality metrics over ground-truth classes, and the benchmark runner.

All four metrics see the similarity matrix of a derived log and the clone
classes. Candidate and out-of-class sets always cover every activity of
the derived log, unreplaced originals included. I_nn, I_prec and I_tri
depend only on the ranking of similarities; I_comp alone reads values,
after min-max normalization of the off-diagonal cells.

A plan job is scored in stacks: consecutive configs are built, compared
and scored together, their similarities over the same labels one (C, n, n)
array of at most ``_STACK_BYTES``. :func:`_score_stack` computes all four
metrics of every matrix of a stack in one pass, the classes of each size
as one (C, m, k, n) block. There is one failure rule: a stack that raises
anywhere, from a refused window to the scores, is retried one config at a
time, so only the configs that raise fail. ``score_all`` is a stack of
one, and its docstring defines the four metrics. Every mean, per
pair, member, class, log or config, is one :func:`_mean`: a ``cumsum``
over the last axis in the order of the loop oracles in
``tests/reference.py``, which is their left fold from 0.0 and gives the
same bytes on Python 3.10 to 3.12. numpy's pairwise summation and 3.12's compensated ``sum()`` would
each change the last bit.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActsimError, DataError, ParameterError
from .groundtruth import BenchmarkPlan, PlanJob, enumerate_benchmark_plan, generate_ground_truth_log
from .log import EventLog
from .contexts import OccurrenceTable, extract_occurrences
from .matrices import ConfigEcho, MethodConfig
from .pipeline import build_embedding, shared_tables
from .similarity import PairwiseSimilarity, _similarities

_METRICS = ("i_comp", "i_nn", "i_prec", "i_tri")

# The most bytes of similarities a plan job compares and scores at once:
# its configs go in stacks of at most this many bytes, and one config always
# makes a stack of its own.
_STACK_BYTES = 1 << 23


def _mean(values) -> np.ndarray:
    """The mean over the last axis of ``values``: each sum is added left to
    right (``cumsum``), then to 0.0, which is the left fold from 0.0 (the
    fold turns an all ``-0.0`` sum into ``0.0``), over the count."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's float adds
        return (np.cumsum(values, axis=-1)[..., -1] + 0.0) / values.shape[-1]


def score_all(
    sim: PairwiseSimilarity, classes: Mapping[int, frozenset[int]]
) -> tuple[float, float, float, float]:
    """(I_comp, I_nn, I_prec, I_tri) in one pass over the classes: a stack
    of one for :func:`_score_stack`.

    Each metric averages per class, then over classes:

    - I_comp, the mean normalized in-class similarity: the off-diagonal
      cells of the full matrix are min-max scaled to [0, 1] (a degenerate
      matrix, max equal to min, scales everything to 0), and the scaled
      similarity is averaged over the unordered in-class pairs.
    - I_nn, the fraction of members whose most similar activity is a
      classmate. A member's candidates are every other activity of the
      derived log, and it succeeds only if every candidate at the maximum
      is in its class: a tie with an outsider fails.
    - I_prec, the precision of the top w-1 candidates: each member takes
      its k = w-1 most similar candidates, ties broken by the smallest
      activity id, and records the in-class share among them.
    - I_tri, the fraction of triples where classmates beat outsiders: for
      every ordered in-class pair (a, b) and every out-of-class activity
      o, the triple succeeds when s(a, o) < s(a, b) strictly; the success
      rate is averaged per pair first. A class that covers the whole log
      has no outsiders and scores 1.0.
    """
    return _score_stack(np.asarray(sim.values)[None], sim.labels, classes)[0]


def _score_stack(
    values: np.ndarray, labels: Sequence[int], classes: Mapping[int, frozenset[int]]
) -> list[tuple[float, float, float, float]]:
    """(I_comp, I_nn, I_prec, I_tri) of each of the C matrices of ``values``,
    (C, n, n) over ``labels``, in one pass.

    The classes are validated against the labels and grouped by size; each
    group is then scored as one block of its classes' member rows, each
    class sorted by activity id, in every matrix of the stack.
    """
    if not classes:
        raise ParameterError("no classes given")
    index = {aid: i for i, aid in enumerate(labels)}
    by_size: dict[int, tuple[list[int], list[list[int]]]] = {}
    for slot, (original, clones) in enumerate(classes.items()):
        if len(clones) < 2:
            raise ParameterError(f"class of original {original} has fewer than 2 members")
        for clone in clones:
            if clone not in index:
                raise DataError(
                    f"class member {clone} (original {original}) has no row in the "
                    "similarity matrix; it never occurs in the derived log"
                )
        slots, rows = by_size.setdefault(len(clones), ([], []))
        slots.append(slot)
        rows.append([index[clone] for clone in sorted(clones)])
    off = ~np.eye(len(labels), dtype=bool)
    lo = values.min(axis=(1, 2), where=off, initial=np.inf)
    span = values.max(axis=(1, 2), where=off, initial=-np.inf) - lo
    per_class = np.empty((4, len(values), len(classes)))
    ids = np.asarray(labels)
    for slots, rows in by_size.values():
        per_class[:, :, slots] = _group_scores(values, np.array(rows, dtype=np.intp), ids, lo, span)
    return list(map(tuple, _mean(per_class).T.tolist()))


def _group_scores(
    values: np.ndarray, rows: np.ndarray, ids: np.ndarray, lo: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """(4, C, m): the four per-class values of the m classes of k members
    whose (m, k) member ``rows`` are given, in each of the C matrices of
    ``values``; ``ids`` is each column's activity id."""
    m, k = rows.shape
    own = np.arange(len(ids)) == rows[:, :, None]  # (m, k, n): a member's own column
    in_class = own.any(axis=1)  # (m, n): the class's columns
    outside = ~in_class[:, None, :]  # (m, 1, n): every other column
    pairs = ~np.eye(k, dtype=bool)  # ordered pairs, in permutations order
    block = values[:, rows]
    inner = values[:, rows[:, :, None], rows[:, None, :]]
    scores = np.empty((4, len(values), m))
    with np.errstate(divide="ignore", invalid="ignore"):
        # The upper triangle: unordered pairs, in combinations order.
        scaled = (inner[:, :, np.triu(pairs)] - lo[:, None, None]) / span[:, None, None]
    scores[0] = np.where(span[:, None] != 0.0, _mean(scaled), 0.0)
    row_max = np.where(own, -np.inf, block).max(axis=3, keepdims=True)
    missed = ((block == row_max) & outside).any(axis=3).sum(axis=2)
    scores[1] = (k - missed) / k
    # The last key sorts first: the member itself goes after every candidate.
    hits = in_class[np.arange(m)[:, None, None], np.lexsort((
        np.broadcast_to(ids, block.shape), -block, np.broadcast_to(own, block.shape)
    ))[..., : k - 1]]
    scores[2] = _mean(hits.sum(axis=3) / (k - 1))
    outsiders = values.shape[1] - k
    scores[3] = 1.0
    if outsiders:
        # beaten[s, c, a, b, o]: outsider o of class c has s(a, o) < s(a, b).
        beaten = block[:, :, :, None, :] < inner[..., None]
        beaten &= outside[:, :, None, :]
        scores[3] = _mean(beaten.sum(axis=4)[:, :, pairs] / outsiders)
    return scores


@dataclass(frozen=True)
class JobEcho(ConfigEcho):
    """The config echo, then the plan job: the leading fields of a score or failure."""

    r: int
    w: int
    sample: int


@dataclass(frozen=True)
class IntrinsicScores(JobEcho):
    """Metric values of one (job, config) combination."""

    i_comp: float
    i_nn: float
    i_prec: float
    i_tri: float
    log_id: str = "log"


@dataclass(frozen=True)
class FailedJob(JobEcho):
    """A (job, config) combination that raised; the run keeps going."""

    error: str
    log_id: str = "log"


def _error_text(exc: Exception) -> str:
    """An :class:`ActsimError`'s own message; any other exception's message
    after its type name."""
    return str(exc) if isinstance(exc, ActsimError) else f"{type(exc).__name__}: {exc}"


def _records(
    job: PlanJob, configs: Sequence[MethodConfig], outcomes: Iterable, log_id: str
) -> tuple[list[IntrinsicScores], list[FailedJob]]:
    """The score or failure record of each config of ``job``, in config
    order, from its outcome: four scores, or the text of what it raised."""
    scores: list[IntrinsicScores] = []
    failures: list[FailedJob] = []
    for config, outcome in zip(configs, outcomes):
        echo = dict(config.echo(), r=job.r, w=job.w, sample=job.sample_index, log_id=log_id)
        if isinstance(outcome, str):
            failures.append(FailedJob(**echo, error=outcome))
        else:
            scores.append(IntrinsicScores(**echo, **dict(zip(_METRICS, outcome))))
    return scores, failures


def _run_job(
    log: EventLog, job: PlanJob, configs: tuple[MethodConfig, ...], log_id: str
) -> tuple[list[IntrinsicScores], list[FailedJob]]:
    """Score one plan job under every config, in stacks of at most
    ``_STACK_BYTES`` of similarities.

    An exception while deriving the ground truth or its tables fails every
    config. After that there is one rule: each stack is built, compared
    and scored in one ``try``, and a stack that raises is retried one
    config at a time, so only the configs that raise fail. Each error
    becomes text where it is caught; records keep config order.
    """
    try:
        gt = generate_ground_truth_log(log, set(job.selected), job.w, job.seed)
        tables = shared_tables(gt.log, configs)
    except Exception as exc:
        return _records(job, configs, repeat(_error_text(exc)), log_id)
    # Every table of one log has the same rows.
    labels = next((table.row_labels for table in tables.values()), ())
    size = max(1, _STACK_BYTES // (8 * max(1, len(labels)) ** 2))
    outcomes = _scores(gt.log, tables, configs, labels, gt.classes.psi, size)
    return _records(job, configs, outcomes, log_id)


def _scores(
    log: EventLog, tables: Mapping, configs: Sequence[MethodConfig], labels: Sequence[int],
    classes: Mapping[int, frozenset[int]], size: int,
) -> list:
    """The four scores of each of ``configs``, or its error's text, in order.

    ``configs`` are built from ``tables``, the shared tables of ``log``,
    compared and scored in stacks of ``size`` consecutive configs, over the
    tables' row ``labels``. A stack that raises is retried as stacks of one.
    """
    outcomes: list = []
    for start in range(0, len(configs), size):
        stack = configs[start : start + size]
        try:
            built = [build_embedding(_table(log, tables, config), config) for config in stack]
            outcomes += _score_stack(_similarities(built), labels, classes)
        except Exception as exc:
            error = _error_text(exc)
            outcomes += _scores(log, tables, stack, labels, classes, 1) if size > 1 else [error]
    return outcomes


def _table(log: EventLog, tables: Mapping, config: MethodConfig) -> OccurrenceTable:
    """The table of ``config``; a refused window's scan raises its refusal again."""
    table = tables.get((config.kind, config.window))
    return extract_occurrences(log, config.window, config.kind) if table is None else table


def _run_chunk(
    log: EventLog, jobs: Sequence[PlanJob], configs: tuple[MethodConfig, ...], log_id: str
) -> list[tuple[list[IntrinsicScores], list[FailedJob]]]:
    """:func:`_run_job` over consecutive plan jobs, in one pool task."""
    return [_run_job(log, job, configs, log_id) for job in jobs]


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

    Jobs are independent; with ``parallel`` they run in a process pool, in
    chunks of 8, with one worker per CPU but never more than there are
    chunks; results are collected in plan order, so the output is
    identical to a serial run. Per-job errors are recorded and never abort
    the sweep.

    If a pool worker dies (an OOM kill, ``os._exit``), every job of each
    chunk that had not finished fails under each config with
    ``"BrokenProcessPool: ..."``; chunks that finished keep their results,
    later ones included. A failed job is not re-run in this process: a job
    that killed a worker could kill this process too.
    """
    if not configs:
        raise ParameterError("no method configurations given")
    configs = tuple(config.validate() for config in configs)
    if plan is None:
        plan = enumerate_benchmark_plan(log, samples, master_seed)
    if parallel and len(plan.jobs) > 1:
        chunks = [plan.jobs[start : start + 8] for start in range(0, len(plan.jobs), 8)]
        results = []
        with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(chunks))) as pool:
            futures = [pool.submit(_run_chunk, log, chunk, configs, log_id) for chunk in chunks]
            for chunk, future in zip(chunks, futures):
                try:
                    results.extend(future.result())
                except BrokenProcessPool as exc:
                    error = repeat(_error_text(exc))
                    results.extend(_records(job, configs, error, log_id) for job in chunk)
    else:
        results = list(map(_run_job, repeat(log), plan.jobs, repeat(configs), repeat(log_id)))
    scores: list[IntrinsicScores] = []
    failures: list[FailedJob] = []
    for job_scores, job_failures in results:
        scores.extend(job_scores)
        failures.extend(job_failures)
    return scores, failures


@dataclass(frozen=True)
class AggregateRow(ConfigEcho):
    """A config's means over its scored jobs, ``None`` if every job failed."""

    i_comp: float | None
    i_nn: float | None
    i_prec: float | None
    i_tri: float | None
    jobs_ok: int
    jobs_failed: int


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[AggregateRow, ...]


_config_key = attrgetter(*(field.name for field in fields(ConfigEcho)))


def aggregate_scores(
    scores: Sequence[IntrinsicScores], failures: Iterable[FailedJob] = ()
) -> AggregateReport:
    """Two-level mean per config: within each original log, then across logs.

    Failed jobs contribute nothing to the means; their count is reported
    next to the number of scored jobs. A config whose every job failed
    still gets its row, with ``None`` means.
    """
    if not scores:
        raise ParameterError("no scores to aggregate")
    by_config: dict[tuple, list[IntrinsicScores]] = {}
    for score in scores:
        by_config.setdefault(_config_key(score), []).append(score)
    failed_counts = Counter(map(_config_key, failures))

    rows = []
    for key in sorted(by_config.keys() | failed_counts.keys()):
        group = by_config.get(key, [])
        by_log: dict[str, list[IntrinsicScores]] = {}
        for score in group:
            by_log.setdefault(score.log_id, []).append(score)
        log_means = [
            _mean([[getattr(e, field) for e in by_log[log_id]] for field in _METRICS])
            for log_id in sorted(by_log)
        ]
        overall = (None,) * 4
        if log_means:
            overall = _mean(np.transpose(log_means)).tolist()
        rows.append(
            AggregateRow(*key, *overall, jobs_ok=len(group), jobs_failed=failed_counts[key])
        )
    return AggregateReport(rows=tuple(rows))
