"""Runtime and memory benchmarking of embedding configurations, plus report export."""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np
from scipy import sparse

from .contexts import extract_occurrences
from .errors import ActsimError, EmptyLogError, ParameterError
from .intrinsic import AggregateReport, FailedJob, IntrinsicScores
from .log import EventLog, open_output, write_json
from .matrices import EmbeddingMatrix
from .pipeline import MethodConfig, build_embedding
from .similarity import pairwise_distance_matrix


@dataclass(frozen=True)
class TimingRecord:
    """Measurements for one config; ``error`` is set when the config failed.

    ``embed_seconds`` covers extraction, matrix build and weighting;
    ``distance_seconds`` covers the full pairwise matrix and is 0 for
    substitution configs, whose cells already are the scores. Memory is
    estimated analytically: dense as rows x dimension x 8 bytes, sparse
    as stored nonzeros x 16 (8-byte value plus 8 bytes of indices).
    """

    method: str
    context: str
    weighting: str
    window: int
    embed_seconds: float
    distance_seconds: float
    embedding_dimension: int
    nonzero_ratio: float
    estimated_bytes: int
    estimated_bytes_sparse: int
    error: str | None = None


@dataclass(frozen=True)
class TimingReport:
    records: tuple[TimingRecord, ...]
    repetitions: int
    parallel: bool = False


def _values_stats(values: "np.ndarray | sparse.csr_matrix") -> tuple[int, int, int, float]:
    rows, dimension = values.shape
    if sparse.issparse(values):
        nonzero = int(np.count_nonzero(values.data))
    else:
        nonzero = int(np.count_nonzero(values))
    ratio = nonzero / (rows * dimension) if rows * dimension else 0.0
    dense_bytes = rows * dimension * 8
    sparse_bytes = nonzero * 16
    return dimension, dense_bytes, sparse_bytes, ratio


def _median_of(fn, repetitions: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run_runtime_bench(
    log: EventLog, configs: Sequence[MethodConfig], repetitions: int = 10
) -> TimingReport:
    """Time every config on an already parsed log.

    Each stage is run ``repetitions`` times and the median wall time kept.
    An invalid config (for example substitution over multiset contexts)
    produces an error record and the sweep continues.
    """
    if log.is_empty:
        raise EmptyLogError("empty log: nothing to benchmark")
    if repetitions < 1:
        raise ParameterError(f"repetitions must be at least 1, got {repetitions}")
    records: list[TimingRecord] = []
    for config in configs:
        try:
            config.validate()

            def embed_stage():
                table = extract_occurrences(log, config.window, config.kind)
                return build_embedding(table, config)

            embed_seconds, built = _median_of(embed_stage, repetitions)
            if isinstance(built, EmbeddingMatrix):
                distance_seconds, _ = _median_of(
                    lambda: pairwise_distance_matrix(built), repetitions
                )
                values = built.values
            else:
                distance_seconds = 0.0
                values = built.values
            dimension, dense_bytes, sparse_bytes, ratio = _values_stats(values)
        except ActsimError as exc:
            records.append(
                TimingRecord(
                    method=config.method,
                    context=config.kind.value,
                    weighting=config.weighting,
                    window=config.window,
                    embed_seconds=0.0,
                    distance_seconds=0.0,
                    embedding_dimension=0,
                    nonzero_ratio=0.0,
                    estimated_bytes=0,
                    estimated_bytes_sparse=0,
                    error=str(exc),
                )
            )
            continue
        records.append(
            TimingRecord(
                method=config.method,
                context=config.kind.value,
                weighting=config.weighting,
                window=config.window,
                embed_seconds=embed_seconds,
                distance_seconds=distance_seconds,
                embedding_dimension=dimension,
                nonzero_ratio=ratio,
                estimated_bytes=dense_bytes,
                estimated_bytes_sparse=sparse_bytes,
                error=None,
            )
        )
    return TimingReport(records=tuple(records), repetitions=repetitions, parallel=False)


Report = Union[TimingReport, AggregateReport, Sequence[IntrinsicScores]]


def _seconds(value: float) -> float:
    return round(value, 6)


def _timing_rows(report: TimingReport) -> tuple[list[str], list[list]]:
    header = [
        "method",
        "context",
        "weighting",
        "window",
        "embed_seconds",
        "distance_seconds",
        "embedding_dimension",
        "nonzero_ratio",
        "estimated_bytes",
        "estimated_bytes_sparse",
        "error",
    ]
    rows = []
    for r in report.records:
        rows.append(
            [
                r.method,
                r.context,
                r.weighting,
                r.window,
                format(r.embed_seconds, ".6f"),
                format(r.distance_seconds, ".6f"),
                r.embedding_dimension,
                format(r.nonzero_ratio, ".17g"),
                r.estimated_bytes,
                r.estimated_bytes_sparse,
                r.error or "",
            ]
        )
    return header, rows


def _timing_json(report: TimingReport) -> dict:
    records = []
    for r in report.records:
        entry = {
            "method": r.method,
            "context": r.context,
            "weighting": r.weighting,
            "window": r.window,
            "embed_seconds": _seconds(r.embed_seconds),
            "distance_seconds": _seconds(r.distance_seconds),
            "embedding_dimension": r.embedding_dimension,
            "nonzero_ratio": r.nonzero_ratio,
            "estimated_bytes": r.estimated_bytes,
            "estimated_bytes_sparse": r.estimated_bytes_sparse,
        }
        if r.error is not None:
            entry["error"] = r.error
        records.append(entry)
    return {
        "schema": 1,
        "parallel": report.parallel,
        "repetitions": report.repetitions,
        "records": records,
    }


def _scores_json(scores: Sequence[IntrinsicScores]) -> list[dict]:
    return [
        {
            "method": s.method,
            "context": s.context,
            "weighting": s.weighting,
            "window": s.window,
            "r": s.r,
            "w": s.w,
            "sample": s.sample,
            "i_comp": s.i_comp,
            "i_nn": s.i_nn,
            "i_prec": s.i_prec,
            "i_tri": s.i_tri,
        }
        for s in scores
    ]


def _scores_rows(scores: Sequence[IntrinsicScores]) -> tuple[list[str], list[list]]:
    header = [
        "method",
        "context",
        "weighting",
        "window",
        "r",
        "w",
        "sample",
        "i_comp",
        "i_nn",
        "i_prec",
        "i_tri",
    ]
    rows = [
        [
            s.method,
            s.context,
            s.weighting,
            s.window,
            s.r,
            s.w,
            s.sample,
            format(s.i_comp, ".17g"),
            format(s.i_nn, ".17g"),
            format(s.i_prec, ".17g"),
            format(s.i_tri, ".17g"),
        ]
        for s in scores
    ]
    return header, rows


def _aggregate_json(report: AggregateReport) -> dict:
    return {
        "schema": 1,
        "rows": [
            {
                "method": r.method,
                "context": r.context,
                "weighting": r.weighting,
                "window": r.window,
                "i_comp": r.i_comp,
                "i_nn": r.i_nn,
                "i_prec": r.i_prec,
                "i_tri": r.i_tri,
                "jobs_ok": r.jobs_ok,
                "jobs_failed": r.jobs_failed,
            }
            for r in report.rows
        ],
    }


def _aggregate_rows(report: AggregateReport) -> tuple[list[str], list[list]]:
    header = [
        "method",
        "context",
        "weighting",
        "window",
        "i_comp",
        "i_nn",
        "i_prec",
        "i_tri",
        "jobs_ok",
        "jobs_failed",
    ]
    rows = [
        [
            r.method,
            r.context,
            r.weighting,
            r.window,
            format(r.i_comp, ".17g"),
            format(r.i_nn, ".17g"),
            format(r.i_prec, ".17g"),
            format(r.i_tri, ".17g"),
            r.jobs_ok,
            r.jobs_failed,
        ]
        for r in report.rows
    ]
    return header, rows


def failures_json(failures: Sequence[FailedJob]) -> list[dict]:
    return [
        {
            "method": f.method,
            "context": f.context,
            "weighting": f.weighting,
            "window": f.window,
            "r": f.r,
            "w": f.w,
            "sample": f.sample,
            "error": f.error,
        }
        for f in failures
    ]


def export_report(report: Report, target: str | Path, fmt: str = "json") -> None:
    """Serialize a report deterministically; same input gives identical bytes.

    JSON uses sorted keys and two-space indentation; CSV uses a fixed
    column order and ``\\n`` line endings. Seconds carry 6 decimal
    places, other floats 17 significant digits.
    """
    if fmt not in ("json", "csv"):
        raise ParameterError(f"unknown report format {fmt!r} (expected json or csv)")
    if isinstance(report, TimingReport):
        to_json, to_rows = _timing_json, _timing_rows
    elif isinstance(report, AggregateReport):
        to_json, to_rows = _aggregate_json, _aggregate_rows
    elif isinstance(report, Sequence) and all(
        isinstance(item, IntrinsicScores) for item in report
    ):
        to_json, to_rows = _scores_json, _scores_rows
    else:
        raise ParameterError(f"cannot export object of type {type(report).__name__}")

    # Build only the chosen format's records: a long score list otherwise
    # holds both in memory at once.
    if fmt == "json":
        write_json(to_json(report), target)
        return
    header, rows = to_rows(report)
    with open_output(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
