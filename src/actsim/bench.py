"""Runtime and memory benchmarking of embedding configurations, plus report export."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence, Union

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

    Both times are medians over fresh passes, each on its own new table.
    ``embed_seconds`` covers extraction, matrix build and weighting;
    ``distance_seconds`` covers the full pairwise matrix, including the
    table's pair plan, and is 0 for substitution configs, whose cells
    already are the scores. Memory is estimated analytically: dense as
    rows x dimension x 8 bytes, sparse as stored nonzeros x 16 (8-byte
    value plus 8 bytes of indices). A failed config keeps every
    measurement at 0.
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
    nonzero = int(np.count_nonzero(values.data if sparse.issparse(values) else values))
    return {
        "embedding_dimension": dimension,
        "nonzero_ratio": nonzero / (rows * dimension) if rows * dimension else 0.0,
        "estimated_bytes": rows * dimension * 8,
        "estimated_bytes_sparse": nonzero * 16,
    }


def run_runtime_bench(
    log: EventLog, configs: Sequence[MethodConfig], repetitions: int = 10
) -> TimingReport:
    """Time every config on an already parsed log.

    Each of the ``repetitions`` runs of a config is one fresh pass, the
    path an intrinsic job takes: extract a new table and build the
    embedding, then compare its rows. A new table starts with empty
    caches, so every run pays for its own pair plan and weightings. The
    median wall time of each stage is kept. A config that raises, invalid
    (for example substitution over multiset contexts) or failing,
    produces an error record and the sweep continues.
    """
    if log.is_empty:
        raise EmptyLogError("empty log: nothing to benchmark")
    if repetitions < 1:
        raise ParameterError(f"repetitions must be at least 1, got {repetitions}")
    records: list[TimingRecord] = []
    for config in configs:
        labels = config.echo()
        embed_times, distance_times = [], []
        try:
            config.validate()
            for _ in range(repetitions):
                start = time.perf_counter()
                table = extract_occurrences(log, config.window, config.kind)
                built = build_embedding(table, config)
                built_at = time.perf_counter()
                embed_times.append(built_at - start)
                if isinstance(built, EmbeddingMatrix):
                    pairwise_distance_matrix(built)
                    distance_times.append(time.perf_counter() - built_at)
            stats = _values_stats(built.values)
        except Exception as exc:
            records.append(TimingRecord(**labels, error=_error_text(exc)))
            continue
        records.append(
            TimingRecord(
                **labels,
                embed_seconds=statistics.median(embed_times),
                distance_seconds=statistics.median(distance_times or [0.0]),
                **stats,
            )
        )
    return TimingReport(records=tuple(records), repetitions=repetitions)


Report = Union[
    TimingReport, AggregateReport, Sequence[IntrinsicScores], Sequence[FailedJob]
]


def _records(report: Report) -> tuple[list[str] | None, Sequence, tuple[dict, str] | None]:
    """The one test of a report's kind: its exported columns (the record
    type's fields in declaration order, without ``log_id``; ``None`` for an
    empty list, which has no record type), its records, and the JSON object
    and key they are listed under, or ``None`` for a bare list of records,
    which is streamed."""
    if isinstance(report, Sequence) and not report:
        return None, report, None
    if isinstance(report, TimingReport):
        record_type, records = TimingRecord, report.records
        listing = ({"schema": 1, "parallel": False, "repetitions": report.repetitions}, "records")
    elif isinstance(report, AggregateReport):
        record_type, records, listing = AggregateRow, report.rows, ({"schema": 1}, "rows")
    else:
        kinds = (IntrinsicScores, FailedJob) if isinstance(report, Sequence) else ()
        matches = [kind for kind in kinds if all(isinstance(item, kind) for item in report)]
        if not matches:
            raise ParameterError(f"cannot export object of type {type(report).__name__}")
        record_type, records, listing = matches[0], report, None
    columns = [field.name for field in fields(record_type) if field.name != "log_id"]
    return columns, records, listing


def _json_entries(columns: list[str], records: Sequence) -> Iterator[dict]:
    """One JSON object per record, made as it is read."""
    return (
        {
            name: round(value, 6) if name.endswith("_seconds") else value
            for name in columns
            if (value := getattr(record, name)) is not None
        }
        for record in records
    )


def _json_payload(report: Report) -> object:
    columns, records, listing = _records(report)
    entries = list(_json_entries(columns, records))
    if listing is None:
        return entries
    head, key = listing
    return {**head, key: entries}


def _csv_cell(name: str, value: object) -> object:
    if value is None:
        return ""
    if name.endswith("_seconds"):
        return format(value, ".6f")
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _csv_table(report: Report) -> tuple[list[str], Iterator[list]]:
    columns, records, _ = _records(report)
    if columns is None:
        raise ParameterError("an empty record list has no record type, so no CSV columns")
    rows = ([_csv_cell(name, getattr(record, name)) for name in columns] for record in records)
    return columns, rows


def export_report(report: Report, target: str | Path, fmt: str = "json") -> None:
    """Serialize a report deterministically; same input gives identical bytes.

    Accepts a :class:`TimingReport`, an :class:`AggregateReport`, or a
    sequence of :class:`IntrinsicScores` or of :class:`FailedJob`. Keys
    and columns are the record's fields in declaration order, without
    ``log_id``; an empty sequence has no record type, so it is ``[]`` in
    JSON and a :class:`ParameterError` in CSV. JSON uses sorted keys and
    two-space indentation and omits ``None`` values; CSV uses ``\\n`` line
    endings and writes ``None`` as an empty cell. Seconds carry 6 decimal
    places, other floats 17 significant digits in CSV and their shortest
    repr in JSON.
    """
    if fmt not in ("json", "csv"):
        raise ParameterError(f"unknown report format {fmt!r} (expected json or csv)")
    if fmt == "csv":
        write_csv(target, *_csv_table(report))
        return
    columns, records, listing = _records(report)
    if listing is None:  # a record list grows with the sweep: stream it
        write_json_array(_json_entries(columns, records), target)
    else:
        write_json(_json_payload(report), target)
