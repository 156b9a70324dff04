"""Intrinsic quality metrics over ground-truth classes, and the benchmark runner.

All four metrics see the similarity matrix of a derived log and the clone
classes. Candidate and out-of-class sets always cover every activity of
the derived log, unreplaced originals included. I_nn, I_prec and I_tri
depend only on the ranking of similarities; I_comp alone reads values,
after min-max normalization of the off-diagonal cells.

A plan job is scored as one stack: the similarity matrices of all its
configs, over the same labels, as one (C, n, n) array. :func:`_score_stack`
computes all four metrics of every config in one pass, the classes of
each size as one (C, m, k, n) block read through a class layout that is
cached on the value of (labels, classes). ``score_all`` is a stack of one,
and each single-metric function selects from it. Every mean, per pair,
member, class, log or config, is one :func:`_mean`: a ``cumsum`` over the
last axis in the order of the loop oracles in ``tests/reference.py``,
which is their left fold from 0.0 and gives the same bytes on Python 3.10
to 3.12. numpy's pairwise summation and 3.12's compensated ``sum()`` would
each change the last bit.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActsimError, DataError, ParameterError
from .groundtruth import BenchmarkPlan, PlanJob, enumerate_benchmark_plan, generate_ground_truth_log
from .log import EventLog
from .matrices import ConfigEcho, EmbeddingMatrix, MethodConfig
from .pipeline import build_embedding, shared_tables
from .similarity import PairwiseSimilarity, _similarities

_METRICS = ("i_comp", "i_nn", "i_prec", "i_tri")


def _mean(values) -> np.ndarray:
    """The mean over the last axis of ``values``: each sum is added left to
    right (``cumsum``), then to 0.0, which is the left fold from 0.0 (the
    fold turns an all ``-0.0`` sum into ``0.0``), over the count."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's float adds
        return (np.cumsum(values, axis=-1)[..., -1] + 0.0) / values.shape[-1]


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
    """(I_comp, I_nn, I_prec, I_tri) in one pass over the classes: a stack
    of one for :func:`_score_stack`."""
    return _score_stack([sim], classes)[0]


def _score_stack(
    sims: Sequence[PairwiseSimilarity], classes: Mapping[int, frozenset[int]]
) -> list[tuple[float, float, float, float]]:
    """(I_comp, I_nn, I_prec, I_tri) of each of ``sims``, which share their
    labels, in one pass.

    The classes are validated against the labels and laid out as groups of
    equal size (see :func:`_class_layout`); each group is then scored as
    one block of its classes' member rows in every matrix of the stack.
    """
    off, groups = _class_layout(
        sims[0].labels, tuple((original, tuple(clones)) for original, clones in classes.items())
    )
    values = np.stack([sim.values for sim in sims])
    lo = values.min(axis=(1, 2), where=off, initial=np.inf)
    span = values.max(axis=(1, 2), where=off, initial=-np.inf) - lo
    per_class = np.empty((4, len(sims), len(classes)))
    for group in groups:
        per_class[:, :, group.slots] = _group_scores(values, group, lo, span)
    return list(map(tuple, _mean(per_class).T.tolist()))


@dataclass(frozen=True, eq=False)
class _SizeGroup:
    """The m classes of one size k, with the masks that do not depend on
    similarity values; n is the number of labels."""

    slots: tuple[int, ...]  # each class's position in the classes' order
    rows: np.ndarray  # (m, k) member rows, each class sorted by activity id
    own: np.ndarray  # (m, k, n) a member's own column
    in_class: np.ndarray  # (m, n) the class's columns
    outside: np.ndarray  # (m, 1, n) every other column
    ids: np.ndarray  # (n,) each column's activity id
    positions: np.ndarray  # (m, 1, 1) each class's position in the group
    upper: np.ndarray  # (k, k) unordered pairs, in combinations order
    off: np.ndarray  # (k, k) ordered pairs, in permutations order


@lru_cache(maxsize=1)
def _class_layout(
    labels: tuple[int, ...], classes: tuple[tuple[int, tuple[int, ...]], ...]
) -> tuple[np.ndarray, tuple[_SizeGroup, ...]]:
    """Validate the (original, members) classes against ``labels`` and group
    them by size: the (n, n) mask of off-diagonal cells, and the groups.

    It depends on no similarity value, so it is cached on its arguments:
    the configs of one job score the same classes over the same labels.
    An exception is not cached.
    """
    if not classes:
        raise ParameterError("no classes given")
    index = {aid: i for i, aid in enumerate(labels)}
    by_size: dict[int, list[tuple[int, list[int]]]] = {}
    for slot, (original, clones) in enumerate(classes):
        if len(clones) < 2:
            raise ParameterError(f"class of original {original} has fewer than 2 members")
        for clone in clones:
            if clone not in index:
                raise DataError(
                    f"class member {clone} (original {original}) has no row in the "
                    "similarity matrix; it never occurs in the derived log"
                )
        rows = [index[clone] for clone in sorted(clones)]
        by_size.setdefault(len(rows), []).append((slot, rows))
    columns = np.arange(len(labels))
    groups = []
    for k, members in by_size.items():
        rows = np.array([member_rows for _, member_rows in members], dtype=np.intp)
        own = columns == rows[:, :, None]
        in_class = own.any(axis=1)
        off = ~np.eye(k, dtype=bool)
        groups.append(_SizeGroup(
            slots=tuple(slot for slot, _ in members), rows=rows, own=own,
            in_class=in_class, outside=~in_class[:, None, :],
            ids=np.asarray(labels),
            positions=np.arange(len(members))[:, None, None], upper=np.triu(off), off=off,
        ))
    return ~np.eye(len(labels), dtype=bool), tuple(groups)


def _group_scores(
    values: np.ndarray, group: _SizeGroup, lo: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """(4, C, m): the four per-class values of each of the m classes of
    ``group``, in its order, in each of the C matrices of ``values``."""
    rows = group.rows
    m, k = rows.shape
    block = values[:, rows]
    inner = values[:, rows[:, :, None], rows[:, None, :]]
    scores = np.empty((4, len(values), m))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (inner[:, :, group.upper] - lo[:, None, None]) / span[:, None, None]
    scores[0] = np.where(span[:, None] != 0.0, _mean(scaled), 0.0)
    row_max = np.where(group.own, -np.inf, block).max(axis=3, keepdims=True)
    missed = ((block == row_max) & group.outside).any(axis=3).sum(axis=2)
    scores[1] = (k - missed) / k
    # The last key sorts first: the member itself goes after every candidate.
    hits = group.in_class[group.positions, np.lexsort((
        np.broadcast_to(group.ids, block.shape), -block, np.broadcast_to(group.own, block.shape)
    ))[..., : k - 1]]
    scores[2] = _mean(hits.sum(axis=3) / (k - 1))
    outsiders = values.shape[1] - k
    scores[3] = 1.0
    if outsiders:
        # beaten[s, c, a, b, o]: outsider o of class c has s(a, o) < s(a, b).
        beaten = block[:, :, :, None, :] < inner[..., None]
        beaten &= group.outside[:, :, None, :]
        scores[3] = _mean(beaten.sum(axis=4)[:, :, group.off] / outsiders)
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


def _labels(job: PlanJob, config: MethodConfig, log_id: str) -> dict:
    """The fields a score or failure record of (job, config) starts with."""
    return dict(config.echo(), r=job.r, w=job.w, sample=job.sample_index, log_id=log_id)


def _fail_every_config(
    job: PlanJob, configs: tuple[MethodConfig, ...], log_id: str, exc: Exception
) -> list[FailedJob]:
    return [FailedJob(**_labels(job, config, log_id), error=_error_text(exc)) for config in configs]


def _run_job(
    log: EventLog, job: PlanJob, configs: tuple[MethodConfig, ...], log_id: str
) -> tuple[list[IntrinsicScores], list[FailedJob]]:
    """Score one plan job under every config, as one stack.

    An exception while deriving the ground truth or its tables fails every
    config. A config whose own table is refused, or whose build raises,
    fails alone and stays out of the stack. If the stack raises while it is
    compared or scored, each of its configs is scored alone, so only the
    configs that raise fail. Records keep config order.
    """
    try:
        gt = generate_ground_truth_log(log, set(job.selected), job.w, job.seed)
        tables = shared_tables(gt.log, configs)
    except Exception as exc:
        return [], _fail_every_config(job, configs, log_id, exc)

    outcomes: list = [None] * len(configs)  # four scores, or the exception
    built: dict[int, "EmbeddingMatrix | PairwiseSimilarity"] = {}
    for index, config in enumerate(configs):
        try:
            table = tables[(config.kind, config.window)]
            if isinstance(table, ParameterError):
                raise table
            built[index] = build_embedding(table, config)
        except Exception as exc:
            outcomes[index] = exc
    stack = list(built.values())
    try:
        scored = _score_stack(_similarities(stack), gt.classes.psi) if stack else []
    except Exception:
        scored = [_score_alone(item, gt.classes.psi) for item in stack]
    for index, outcome in zip(built, scored):
        outcomes[index] = outcome

    scores: list[IntrinsicScores] = []
    failures: list[FailedJob] = []
    for config, outcome in zip(configs, outcomes):
        labels = _labels(job, config, log_id)
        if isinstance(outcome, Exception):
            failures.append(FailedJob(**labels, error=_error_text(outcome)))
        else:
            scores.append(IntrinsicScores(**labels, **dict(zip(_METRICS, outcome))))
    return scores, failures


def _score_alone(
    built: "EmbeddingMatrix | PairwiseSimilarity", classes: Mapping[int, frozenset[int]]
) -> "tuple[float, float, float, float] | Exception":
    """The four scores of one config in a stack of its own, or what it raised."""
    try:
        return _score_stack(_similarities([built]), classes)[0]
    except Exception as exc:
        return exc


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
                    results.extend(
                        ([], _fail_every_config(job, configs, log_id, exc)) for job in chunk
                    )
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
