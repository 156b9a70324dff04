"""Runtime and memory benchmarking of embedding configurations, plus report export."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from scipy import sparse

from .contexts import extract_occurrences
from .errors import EmptyLogError, ParameterError
from .intrinsic import AggregateReport, AggregateRow, FailedJob, IntrinsicScores, _error_text
from .log import EventLog, write_csv, write_json, write_json_array
from .matrices import ConfigEcho, EmbeddingMatrix, MethodConfig
from .pipeline import build_embedding
from .similarity import pairwise_distance_matrix


@dataclass(frozen=True)
class TimingRecord(ConfigEcho):
    """Measurements for one config; ``error`` is set when the config failed.

    ``embed_seconds`` covers extraction, matrix build and weighting;
    ``distance_seconds`` covers the full pairwise matrix, including the
    table's pair plan, and is 0 for substitution configs, whose cells
    already are the scores. Memory is
    estimated analytically: dense as rows x dimension x 8 bytes, sparse
    as stored nonzeros x 16 (8-byte value plus 8 bytes of indices). A
    failed config keeps every measurement at 0.
    """

    embed_seconds: float = 0.0
    distance_seconds: float = 0.0
    embedding_dimension: int = 0
    nonzero_ratio: float = 0.0
    estimated_bytes: int = 0
    estimated_bytes_sparse: int = 0
    error: str | None = None


@dataclass(frozen=True)
class TimingReport:
    records: tuple[TimingRecord, ...]
    repetitions: int


def _values_stats(values: "np.ndarray | sparse.csr_matrix") -> dict:
    """The size fields of a :class:`TimingRecord` for one built matrix."""
    rows, dimension = values.shape
    if sparse.issparse(values):
        nonzero = int(np.count_nonzero(values.data))
    else:
        nonzero = int(np.count_nonzero(values))
    return {
        "embedding_dimension": dimension,
        "nonzero_ratio": nonzero / (rows * dimension) if rows * dimension else 0.0,
        "estimated_bytes": rows * dimension * 8,
        "estimated_bytes_sparse": nonzero * 16,
    }


def _median_of(fn, inputs: Iterable) -> tuple[float, object]:
    """The median wall time of ``fn`` over ``inputs``, each made before its
    clock starts, and the last result."""
    times = []
    result = None
    for item in inputs:
        start = time.perf_counter()
        result = fn(item)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run_runtime_bench(
    log: EventLog, configs: Sequence[MethodConfig], repetitions: int = 10
) -> TimingReport:
    """Time every config on an already parsed log.

    Each stage is run ``repetitions`` times and the median wall time kept.
    A config that raises, invalid (for example substitution over multiset
    contexts) or failing, produces an error record and the sweep continues.
    """
    if log.is_empty:
        raise EmptyLogError("empty log: nothing to benchmark")
    if repetitions < 1:
        raise ParameterError(f"repetitions must be at least 1, got {repetitions}")
    records: list[TimingRecord] = []
    for config in configs:
        labels = config.echo()
        try:
            config.validate()

            def embed_stage(_):
                table = extract_occurrences(log, config.window, config.kind)
                return build_embedding(table, config)

            embed_seconds, built = _median_of(embed_stage, range(repetitions))
            distance_seconds = 0.0
            if isinstance(built, EmbeddingMatrix):
                # Each repetition compares a matrix built, before its clock
                # starts, on a copy of the table with an empty cache: each
                # one pays for the pair plan and takes the Gram path an
                # intrinsic job takes.
                copies = (
                    build_embedding(replace(built.table), config) for _ in range(repetitions)
                )
                distance_seconds, _ = _median_of(pairwise_distance_matrix, copies)
            stats = _values_stats(built.values)
        except Exception as exc:
            records.append(TimingRecord(**labels, error=_error_text(exc)))
            continue
        records.append(
            TimingRecord(
                **labels, embed_seconds=embed_seconds, distance_seconds=distance_seconds, **stats
            )
        )
    return TimingReport(records=tuple(records), repetitions=repetitions)


Report = Union[
    TimingReport, AggregateReport, Sequence[IntrinsicScores], Sequence[FailedJob]
]


def _records(report: Report) -> tuple[type, Sequence]:
    """The record type and the records of an exportable report."""
    if isinstance(report, TimingReport):
        return TimingRecord, report.records
    if isinstance(report, AggregateReport):
        return AggregateRow, report.rows
    if isinstance(report, Sequence):
        for record_type in (IntrinsicScores, FailedJob):
            if all(isinstance(item, record_type) for item in report):
                return record_type, report
    raise ParameterError(f"cannot export object of type {type(report).__name__}")


def _columns(record_type: type) -> list[str]:
    """Exported fields in declaration order; ``log_id`` stays internal."""
    return [field.name for field in fields(record_type) if field.name != "log_id"]


def _json_entries(report: Report) -> Iterator[dict]:
    """One JSON object per record, made as it is read."""
    record_type, records = _records(report)
    columns = _columns(record_type)
    return (
        {
            name: round(value, 6) if name.endswith("_seconds") else value
            for name in columns
            if (value := getattr(record, name)) is not None
        }
        for record in records
    )


def _json_payload(report: Report) -> object:
    entries = list(_json_entries(report))
    if isinstance(report, TimingReport):
        return {
            "schema": 1,
            "parallel": False,
            "repetitions": report.repetitions,
            "records": entries,
        }
    if isinstance(report, AggregateReport):
        return {"schema": 1, "rows": entries}
    return entries


def _csv_cell(name: str, value: object) -> object:
    if value is None:
        return ""
    if name.endswith("_seconds"):
        return format(value, ".6f")
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _csv_table(report: Report) -> tuple[list[str], Iterator[list]]:
    record_type, records = _records(report)
    columns = _columns(record_type)
    rows = ([_csv_cell(name, getattr(record, name)) for name in columns] for record in records)
    return columns, rows


def export_report(report: Report, target: str | Path, fmt: str = "json") -> None:
    """Serialize a report deterministically; same input gives identical bytes.

    Accepts a :class:`TimingReport`, an :class:`AggregateReport`, or a
    sequence of :class:`IntrinsicScores` or of :class:`FailedJob`. Keys
    and columns are the record's fields in declaration order, without
    ``log_id``. JSON uses sorted keys and two-space indentation and omits
    ``None`` values; CSV uses ``\\n`` line endings and writes ``None`` as
    an empty cell. Seconds carry 6 decimal places, other floats 17
    significant digits in CSV and their shortest repr in JSON.
    """
    if fmt not in ("json", "csv"):
        raise ParameterError(f"unknown report format {fmt!r} (expected json or csv)")
    if fmt == "json":
        if isinstance(report, (TimingReport, AggregateReport)):
            write_json(_json_payload(report), target)
        else:  # a record list grows with the sweep: stream it
            write_json_array(_json_entries(report), target)
        return
    write_csv(target, *_csv_table(report))
