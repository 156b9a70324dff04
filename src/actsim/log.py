"""Event-log model: interned activity alphabet, CSV/XES parsing, log statistics."""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyLogError, ExportError, FormatError, ParameterError

PAD_LABEL = "__PAD__"
PAD = 0

TextSource = Union[str, IO[str], Path]


class Alphabet:
    """Bijection between activity labels and dense integer ids.

    Id 0 is reserved for the padding symbol ``__PAD__``; real activities
    receive ids 1..n in registration order. Instances are immutable after
    construction; :meth:`extended` derives a larger alphabet that keeps
    every existing id.
    """

    __slots__ = ("_id_to_label", "_label_to_id")

    def __init__(self, labels: Iterable[str] = ()) -> None:
        id_to_label = [PAD_LABEL]
        label_to_id = {PAD_LABEL: PAD}
        for label in labels:
            if label == PAD_LABEL:
                raise ParameterError(f"label {PAD_LABEL!r} is reserved for padding")
            if label in label_to_id:
                raise ParameterError(f"duplicate activity label {label!r}")
            label_to_id[label] = len(id_to_label)
            id_to_label.append(label)
        self._id_to_label: tuple[str, ...] = tuple(id_to_label)
        self._label_to_id: dict[str, int] = label_to_id

    def __len__(self) -> int:
        """Number of real activities (the PAD symbol is not counted)."""
        return len(self._id_to_label) - 1

    def __contains__(self, label: str) -> bool:
        return label in self._label_to_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._id_to_label == other._id_to_label

    def __repr__(self) -> str:
        return f"Alphabet({len(self)} activities)"

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise ParameterError(f"unknown activity label {label!r}") from None

    def label_of(self, activity_id: int) -> str:
        if not 0 <= activity_id <= len(self):
            raise ParameterError(f"unknown activity id {activity_id}")
        return self._id_to_label[activity_id]

    def activity_ids(self) -> range:
        """Ids of all real activities, ascending (PAD excluded)."""
        return range(1, len(self._id_to_label))

    def labels(self) -> tuple[str, ...]:
        """Labels of all real activities in id order."""
        return self._id_to_label[1:]

    def extended(self, new_labels: Iterable[str]) -> "Alphabet":
        """A new alphabet with ``new_labels`` appended after the existing ids."""
        return Alphabet(self._id_to_label[1:] + tuple(new_labels))


def _split(flat: list, offsets: np.ndarray) -> Iterator[list]:
    """The slices of ``flat`` between consecutive ``offsets``."""
    bounds = offsets.tolist()
    return (flat[start:end] for start, end in zip(bounds, bounds[1:]))


class Variants(NamedTuple):
    """The distinct traces of a log, in order of first appearance.

    ``events`` holds their activity ids one variant after another,
    ``lengths`` the length and ``counts`` the multiplicity of each.
    """

    events: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray


class EventLog:
    """An ordered list of traces over an interned alphabet, stored columnar.

    ``events`` is a read-only int64 array of every activity id, trace
    after trace, and trace i is ``events[offsets[i]:offsets[i + 1]]``.
    The log is a multiset of traces; the order is kept so that downstream
    scans (context interning, ground-truth derivation) are deterministic.
    Traces are never empty and never contain the PAD id.

    ``traces`` (tuples of activity ids) and ``variants`` are derived on
    first read and cached. ``EventLog(traces, alphabet)`` packs the tuples
    and keeps them as the ``traces`` view; :meth:`from_arrays` builds a log
    that makes no tuples unless ``traces`` is read.
    """

    def __init__(self, traces: Sequence[Sequence[int]], alphabet: Alphabet) -> None:
        traces = tuple(traces)
        lengths = np.fromiter(map(len, traces), dtype=np.int64, count=len(traces))
        offsets = np.zeros(len(traces) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        events = np.fromiter(chain.from_iterable(traces), dtype=np.int64, count=int(offsets[-1]))
        self._init_arrays(events, offsets, alphabet)
        self.__dict__["traces"] = tuple(map(tuple, traces))

    @classmethod
    def from_arrays(cls, events: np.ndarray, offsets: np.ndarray, alphabet: Alphabet) -> "EventLog":
        """A log over int64 ``events`` split at ``offsets`` (``offsets[0] == 0``,
        ``offsets[-1] == len(events)``). The arrays are kept, not copied, and
        made read-only."""
        log = cls.__new__(cls)
        log._init_arrays(events, offsets, alphabet)
        return log

    def _init_arrays(self, events: np.ndarray, offsets: np.ndarray, alphabet: Alphabet) -> None:
        events = np.asarray(events, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or not len(offsets) or offsets[0] != 0 or offsets[-1] != len(events):
            raise ParameterError("trace offsets must run from 0 to the number of events")
        lengths = np.diff(offsets)
        limit = len(alphabet)
        if len(lengths) and (lengths.min() <= 0 or events.min() < 1 or events.max() > limit):
            if lengths.min() < 0:
                raise ParameterError("trace offsets must not decrease")
            # The first failing trace decides: an empty one, or the trace
            # of the first id outside 1..limit.
            empty = np.flatnonzero(lengths == 0)
            bad = np.flatnonzero((events < 1) | (events > limit))
            bad_trace = int(np.searchsorted(offsets, bad[0], side="right")) - 1 if len(bad) else None
            if len(empty) and (bad_trace is None or empty[0] < bad_trace):
                raise ParameterError(f"trace {empty[0]} is empty")
            raise ParameterError(
                f"trace {bad_trace} contains an id outside the alphabet (PAD is not allowed)"
            )
        events.flags.writeable = False
        offsets.flags.writeable = False
        vars(self).update(events=events, offsets=offsets, alphabet=alphabet)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"EventLog is immutable; cannot set {name!r}")

    def __reduce__(self):
        return EventLog.from_arrays, (self.events, self.offsets, self.alphabet)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.events, other.events)
        )

    def __repr__(self) -> str:
        return f"EventLog({self.n_traces} traces, {self.n_events} events, {self.alphabet!r})"

    @cached_property
    def traces(self) -> tuple[tuple[int, ...], ...]:
        """The traces as tuples of activity ids, built on first read."""
        return tuple(map(tuple, _split(self.events.tolist(), self.offsets)))

    @cached_property
    def variants(self) -> Variants:
        """The distinct-trace decomposition, computed once per log.

        Traces are compared as the bytes of their event slices, which are
        equal exactly when the id sequences are.
        """
        width = self.events.itemsize
        data = self.events.tobytes()
        counts = Counter(_split(data, self.offsets * width))
        keys = list(counts)
        lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)) // width
        multiplicities = np.fromiter(counts.values(), dtype=np.int64, count=len(keys))
        lengths.flags.writeable = multiplicities.flags.writeable = False
        return Variants(np.frombuffer(b"".join(keys), dtype=np.int64), lengths, multiplicities)

    @property
    def is_empty(self) -> bool:
        return self.n_traces == 0

    @property
    def n_traces(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_events(self) -> int:
        return len(self.events)

    def activity_counts(self) -> Counter:
        """Occurrence count per occurring activity id, over all events."""
        counts = np.bincount(self.events)
        present = np.flatnonzero(counts)
        return Counter(dict(zip(present.tolist(), counts[present].tolist())))

    def _flat_labels(self) -> list[str]:
        labels = (PAD_LABEL,) + self.alphabet.labels()
        return [labels[aid] for aid in self.events.tolist()]

    def label_traces(self) -> list[tuple[str, ...]]:
        return list(map(tuple, _split(self._flat_labels(), self.offsets)))


def log_from_label_traces(label_traces: Iterable[Sequence[str]]) -> EventLog:
    """Build a log from label sequences, interning labels by first appearance."""
    order: dict[str, int] = {}
    ids: list[int] = []
    offsets = [0]
    for trace in label_traces:
        for label in trace:
            aid = order.get(label)
            if aid is None:
                if label == PAD_LABEL:
                    raise FormatError(f"activity label {PAD_LABEL!r} is reserved")
                aid = len(order) + 1
                order[label] = aid
            ids.append(aid)
        offsets.append(len(ids))
    return EventLog.from_arrays(
        np.array(ids, dtype=np.int64), np.array(offsets, dtype=np.int64), Alphabet(order)
    )


def _text_chunks(source: TextSource, size: int) -> Iterator[str]:
    """The source's text in chunks of ``size`` characters (all of it at
    once when ``size`` is -1), without a leading UTF-8 byte-order mark.

    A path is opened as ``utf-8-sig``. Failing to read or decode a path,
    or to decode a stream, is a :class:`FormatError`.
    """
    if isinstance(source, str):
        yield source.removeprefix("\ufeff")
        return
    is_path = isinstance(source, Path)
    try:
        with open(source, encoding="utf-8-sig") if is_path else nullcontext(source) as handle:
            chunk = handle.read(size)  # utf-8-sig has stripped a path's mark
            yield chunk if is_path else chunk.removeprefix("\ufeff")
            while chunk := handle.read(size):
                yield chunk
    except OSError as exc:
        if not is_path:
            raise
        raise FormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        where = source if is_path else "the input stream"
        raise FormatError(f"cannot decode {where} as UTF-8: {exc}") from exc


@contextmanager
def open_output(target: IO[str] | str | Path) -> Iterator[IO[str]]:
    """A text handle on ``target`` for one writer.

    A path is opened as UTF-8 with no newline translation and closed on
    exit; an open stream is used as is. An ``OSError`` while opening or
    writing becomes an :class:`ExportError` naming the target.
    """
    try:
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8", newline="") as handle:
                yield handle
        else:
            yield target
    except OSError as exc:
        raise ExportError(f"cannot write {target}: {exc}") from exc


def write_json(payload: object, target: IO[str] | str | Path) -> None:
    """Write ``payload`` as JSON with sorted keys, two-space indentation
    and a final newline, streamed to the handle."""
    with open_output(target) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_json_array(entries: Iterable[object], target: IO[str] | str | Path) -> None:
    """Write the list of ``entries`` exactly as :func:`write_json` would,
    one entry at a time, so the list is never held in memory."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    with open_output(target) as handle:
        opening = "["
        for entry in entries:
            text = encode(entry)
            # JSON escapes newlines inside strings, so every raw newline is
            # layout and takes one more level of indentation.
            handle.write(opening + "\n  " + text.replace("\n", "\n  "))
            opening = ","
        handle.write("[]\n" if opening == "[" else "\n]\n")


def _parse_timestamp(raw: str, row: int) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise FormatError(f"row {row}: unparseable timestamp {raw!r}") from None


def parse_csv(
    source: TextSource,
    case_column: str = "case",
    activity_column: str = "activity",
    timestamp_column: str | None = None,
) -> EventLog:
    """Parse a CSV event stream into an :class:`EventLog`.

    Parameters
    ----------
    source
        CSV text, an open text stream, or a path.
    case_column, activity_column
        Header names of the case-id and activity-label columns.
    timestamp_column
        Optional header name of an ISO-8601 timestamp column. When given,
        events within a case are ordered by timestamp (stable sort, ties
        keep file order); otherwise file order is kept.

    Traces are emitted in order of first appearance of their case id.
    Row numbers in error messages are 1-based file lines (the header is
    line 1).
    """
    reader = csv.reader(io.StringIO("".join(_text_chunks(source, size=-1))))
    header = next(reader, None)
    if header is None:
        raise EmptyLogError("empty log: the file has no rows")

    def column(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise FormatError(f"missing column {name!r} in CSV header") from None

    case_idx = column(case_column)
    act_idx = column(activity_column)
    ts_idx = column(timestamp_column) if timestamp_column is not None else None
    needed = max(i for i in (case_idx, act_idx, ts_idx) if i is not None) + 1

    cases: dict[str, list] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(field == "" for field in row):
            continue
        if len(row) < needed:
            raise FormatError(f"row {line}: expected at least {needed} fields, got {len(row)}")
        case = row[case_idx]
        label = row[act_idx]
        if case == "":
            raise FormatError(f"row {line}: empty case id")
        if label == "":
            raise FormatError(f"row {line}: empty activity label")
        if label == PAD_LABEL:
            raise FormatError(f"row {line}: activity label {PAD_LABEL!r} is reserved")
        entry = (label,) if ts_idx is None else (_parse_timestamp(row[ts_idx], line), label)
        cases.setdefault(case, []).append(entry)

    if not cases:
        raise EmptyLogError("empty log: the file contains no events")

    label_traces: list[list[str]] = []
    for case, entries in cases.items():
        if ts_idx is not None:
            try:
                entries.sort(key=lambda e: e[0])
            except TypeError:
                raise FormatError(
                    f"case {case!r}: cannot order events, timestamps mix "
                    "timezone-aware and naive values"
                ) from None
            label_traces.append([label for _, label in entries])
        else:
            label_traces.append([label for (label,) in entries])
    return log_from_label_traces(label_traces)


def _local_name(tag: str) -> str:
    # XES files often carry a default namespace; match on the local part.
    return tag.rsplit("}", 1)[-1]


def _end_elements(source: TextSource) -> Iterator[tuple[str, ET.Element]]:
    """An ``("end", element)`` pair for every element of an XML document,
    as its end tag is parsed."""
    parser = ET.XMLPullParser(events=("end",))
    try:
        # A chunk's events wait in the parser until they are read; small
        # chunks keep them from outliving young garbage-collector
        # generations, whose promotions trigger full passes over the tree.
        for chunk in _text_chunks(source, 1 << 12):
            parser.feed(chunk)
            yield from parser.read_events()
        parser.close()
    except ET.ParseError as exc:
        raise FormatError(f"malformed XES/XML: {exc}") from exc
    yield from parser.read_events()


def parse_xes(source: TextSource) -> EventLog:
    """Parse an XES document; only ``concept:name`` of each event is read.

    The document is streamed: each trace is read when its end tag is
    parsed and then cleared, so memory holds the labels, not the tree.
    Trace and event order follow the document. Any other attribute is
    ignored. A trace without events, or an event without a
    ``concept:name`` string, is a format error naming the trace index.
    """
    label_traces: list[list[str]] = []
    for _, element in _end_elements(source):
        if _local_name(element.tag) != "trace":
            continue
        trace_index = len(label_traces)
        labels: list[str] = []
        for child in element:
            if _local_name(child.tag) != "event":
                continue
            name = None
            for attr in child:
                if (
                    _local_name(attr.tag) == "string"
                    and attr.get("key") == "concept:name"
                ):
                    name = attr.get("value")
                    break
            if name is None:
                raise FormatError(
                    f"trace {trace_index}: event {len(labels)} lacks a concept:name string"
                )
            if name == PAD_LABEL:
                raise FormatError(
                    f"trace {trace_index}: activity label {PAD_LABEL!r} is reserved"
                )
            labels.append(name)
        if not labels:
            raise FormatError(f"trace {trace_index} has no events")
        label_traces.append(labels)
        element.clear()

    if not label_traces:
        raise EmptyLogError("empty log: the XES document has no traces")
    return log_from_label_traces(label_traces)


def read_log(
    path: str | Path,
    fmt: str = "auto",
    case_column: str = "case",
    activity_column: str = "activity",
    timestamp_column: str | None = None,
) -> EventLog:
    """Read a log file, inferring the format from the suffix when ``auto``."""
    path = Path(path)
    if fmt == "auto":
        fmt = "xes" if path.suffix.lower() == ".xes" else "csv"
    if fmt == "xes":
        return parse_xes(path)
    if fmt == "csv":
        return parse_csv(path, case_column, activity_column, timestamp_column)
    raise ParameterError(f"unknown log format {fmt!r} (expected csv or xes)")


def write_log_csv(log: EventLog, target: IO[str] | str | Path) -> None:
    """Serialize a log to canonical CSV (columns ``case,activity``).

    Case ids are 1-based trace positions; re-parsing the output yields an
    identical log (same traces, same alphabet order).
    """
    with open_output(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["case", "activity"])
        for case, labels in enumerate(_split(log._flat_labels(), log.offsets), start=1):
            writer.writerows(zip(repeat(case), labels))


@dataclass(frozen=True)
class RankFrequencyEntry:
    rank: int
    activity_id: int
    label: str
    count: int
    relative_frequency: float


@dataclass(frozen=True)
class LogStats:
    """Per-log summary: alphabet size, trace/variant counts, rank-frequency table."""

    activity_count: int
    trace_count: int
    variant_count: int
    variant_ratio: float
    avg_trace_length: float
    total_events: int
    rank_entries: tuple[RankFrequencyEntry, ...]

    @property
    def rank_frequency(self) -> list[tuple[int, float]]:
        return [(e.rank, e.relative_frequency) for e in self.rank_entries]


def compute_stats(log: EventLog) -> LogStats:
    """Compute :class:`LogStats`; frequency ties are ordered by ActivityId."""
    if log.is_empty:
        raise EmptyLogError("empty log: no traces to summarize")
    counts = log.activity_counts()
    total = sum(counts.values())
    variant_count = len(log.variants.counts)
    entries = []
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    for rank, (aid, count) in enumerate(ordered, start=1):
        entries.append(
            RankFrequencyEntry(rank, aid, log.alphabet.label_of(aid), count, count / total)
        )
    return LogStats(
        activity_count=len(counts),
        trace_count=log.n_traces,
        variant_count=variant_count,
        variant_ratio=variant_count / log.n_traces,
        avg_trace_length=total / log.n_traces,
        total_events=total,
        rank_entries=tuple(entries),
    )


def write_stats_csv(stats: LogStats, target: IO[str] | str | Path) -> None:
    """Write the rank-frequency table (``rank,activity,frequency,relative_frequency``)."""
    with open_output(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rank", "activity", "frequency", "relative_frequency"])
        for entry in stats.rank_entries:
            writer.writerow(
                [entry.rank, entry.label, entry.count, format(entry.relative_frequency, ".17g")]
            )
