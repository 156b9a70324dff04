"""Event-log model: interned activity alphabet, CSV/XES parsing, log statistics."""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path
from types import SimpleNamespace
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

    def labels_of(self, ids: "np.ndarray | Sequence[int]") -> np.ndarray:
        """The labels of an int array of ids as an object array of its shape,
        id 0 as ``__PAD__``. An id outside 0..n is a :class:`ParameterError`
        naming the lowest id if it is negative, else the highest."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            low, high = int(ids.min()), int(ids.max())
            if low < 0 or high > len(self):
                raise ParameterError(f"unknown activity id {low if low < 0 else high}")
        return np.array(self._id_to_label, dtype=object)[ids]

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


def _read_only(values):
    """``values`` frozen in place and returned: an array, or the three arrays of
    a CSR matrix. Every array the package caches is frozen here, where made."""
    csr = not isinstance(values, np.ndarray)
    for array in (values.data, values.indices, values.indptr) if csr else (values,):
        array.flags.writeable = False
    return values


def _intern(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys by first appearance.

    Returns (index of each distinct key's first appearance, number of
    every key). An unstable sort plus a per-run minimum of the original
    positions costs less than ``np.unique``'s stable sort. The keys' dtype
    must hold their number of distinct values.
    """
    perm = keys.argsort()
    ordered = keys[perm]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    first = np.minimum.reduceat(perm, np.flatnonzero(starts))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    groups = np.cumsum(starts, out=ordered)  # reuses the sorted keys' memory
    groups -= 1
    np.take(rank, groups, out=groups)  # take's buffer is freed before numbers is made
    numbers = np.empty_like(perm)
    numbers[perm] = groups
    return first[order], numbers


def _widen(keys: np.ndarray, radix: int, bound: int) -> int:
    """Shift the int64 ``keys``, all below ``bound``, one base-``radix``
    digit up in place, and return the bound once a digit is added.

    Keys that the shift could overflow are first renumbered by
    :func:`_intern`, which keeps equal keys equal and distinct ones
    distinct.
    """
    if bound * radix > 1 << 63:
        first, keys[:] = _intern(keys)
        bound = len(first)
    keys *= radix
    return bound * radix


def _with_variant_numbers(log: "EventLog", keys: np.ndarray) -> "EventLog":
    """Store ``variant_numbers`` on ``log``, read off int64 ``keys`` that
    are equal for two traces exactly when the traces are."""
    vars(log)["variant_numbers"] = _read_only(_intern(keys)[1])
    return log


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

    ``traces`` (tuples of activity ids), ``variant_numbers`` and
    ``variants`` are derived on first read and cached; code that builds a
    log and already knows its variants hands them over through
    :func:`_with_variant_numbers`. ``EventLog(traces, alphabet)`` packs the tuples and keeps
    them as the ``traces`` view; :meth:`from_arrays` builds a log that
    makes no tuples unless ``traces`` is read.
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
        vars(self).update(events=_read_only(events), offsets=_read_only(offsets), alphabet=alphabet)

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
    def variant_numbers(self) -> np.ndarray:
        """The variant of every trace: equal traces share a number, and the
        distinct traces are numbered 0, 1, ... by first appearance.

        Traces are compared as the bytes of their event slices, which are
        equal exactly when the id sequences are. One dict pass in trace
        order maps each trace to the index of its first equal trace.
        """
        width = self.events.itemsize
        traces = list(_split(self.events.tobytes(), self.offsets * width))
        first = np.fromiter(
            map({}.setdefault, traces, count()), dtype=np.int64, count=len(traces)
        )
        new = first == np.arange(len(first))
        return _read_only((np.cumsum(new) - 1)[first])

    @cached_property
    def variants(self) -> Variants:
        """The distinct traces, read off ``variant_numbers``: a trace whose
        number tops every number before it is its variant's first."""
        numbers = self.variant_numbers
        firsts = np.flatnonzero(np.diff(np.maximum.accumulate(numbers), prepend=-1))
        lengths = np.diff(self.offsets)[firsts]
        ends = np.cumsum(lengths)
        at = np.repeat(self.offsets[firsts] - ends + lengths, lengths)
        at += np.arange(len(at))
        counts = np.bincount(numbers, minlength=len(firsts))
        return Variants(*map(_read_only, (self.events[at], lengths, counts)))

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

    def label_traces(self) -> list[tuple[str, ...]]:
        labels = self.alphabet.labels_of(self.events).tolist()
        return list(map(tuple, _split(labels, self.offsets)))


class _ReservedKey(LookupError):
    """A key that :class:`_Codes` refuses to number."""


class _Codes(dict):
    """Interns keys as dense codes 1, 2, ... in order of first lookup.

    ``codes[key]`` is the code of ``key``, numbering a new key on the spot:
    a key seen before costs one dict lookup in C, and only a new key runs
    Python. A new key in ``reserved`` raises :class:`_ReservedKey` instead,
    so the parsers test for bad keys once per distinct key, not per event.
    Iterating the codes gives the keys in code order.
    """

    __slots__ = ("reserved",)

    def __init__(self, reserved: Iterable[object]) -> None:
        super().__init__()
        self.reserved = frozenset(reserved)

    def __missing__(self, key: object) -> int:
        if key in self.reserved:
            raise _ReservedKey(key)
        code = self[key] = len(self) + 1
        return code


def _log(events: array, offsets: array, labels: Iterable[str]) -> EventLog:
    """The log over int64 ``events`` and ``offsets`` buffers, whose ids
    are the positions of ``labels``, counted from 1."""
    return EventLog.from_arrays(
        np.frombuffer(events, dtype=np.int64),
        np.frombuffer(offsets, dtype=np.int64),
        Alphabet(labels),
    )


def log_from_label_traces(label_traces: Iterable[Sequence[str]]) -> EventLog:
    """Build a log from label sequences, interning labels by first appearance."""
    codes = _Codes(reserved=(PAD_LABEL,))
    ids = array("q")
    offsets = array("q", [0])
    try:
        for trace in label_traces:
            ids.extend(map(codes.__getitem__, trace))
            offsets.append(len(ids))
    except _ReservedKey:
        raise FormatError(f"activity label {PAD_LABEL!r} is reserved") from None
    return _log(ids, offsets, codes)


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, split as ``io.StringIO(text)`` splits them.

    A ``StringIO`` holds 4 bytes per character, so it is given one slice
    of about 64k characters at a time, each cut after a line feed.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


@contextmanager
def _reading(source: TextSource) -> Iterator[IO[str] | Iterator[str]]:
    """A text handle on ``source``: a path opened as ``utf-8-sig`` with
    universal newlines and closed on exit, a string's :func:`_lines`, or
    the stream itself. Pass the first text read to :func:`_unmarked`.

    Failing to read or decode a path, or to decode a stream, inside the
    block is a :class:`FormatError`.
    """
    is_path = isinstance(source, Path)
    try:
        if is_path:
            with open(source, encoding="utf-8-sig") as handle:
                yield handle
        else:
            yield _lines(source) if isinstance(source, str) else source
    except OSError as exc:
        if not is_path:
            raise
        raise FormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        where = source if is_path else "the input stream"
        raise FormatError(f"cannot decode {where} as UTF-8: {exc}") from exc


def _unmarked(head: str, source: TextSource) -> str:
    """The first text read from ``source`` without a leading UTF-8
    byte-order mark (``utf-8-sig`` has already dropped a path's)."""
    return head if isinstance(source, Path) else head.removeprefix("\ufeff")


def _text_chunks(source: TextSource, size: int) -> Iterator[str]:
    """The text of ``source`` in chunks of ``size`` characters, as
    :func:`_reading` reads it; a string is one chunk and is not copied."""
    if isinstance(source, str):
        yield _unmarked(source, source)
        return
    with _reading(source) as handle:
        chunk = handle.read(size)
        yield _unmarked(chunk, source)
        while chunk := handle.read(size):
            yield chunk


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


def write_csv(target: IO[str] | str | Path, header: list, rows: Iterable[Iterable]) -> None:
    """Write ``header`` and then ``rows`` as CSV with ``\\n`` line endings,
    each row as it is read."""
    with open_output(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def csv_line(fields: list) -> str:
    """The line, ``\\n`` included, that :func:`write_csv` writes for ``fields``."""
    buffer = io.StringIO()
    write_csv(buffer, fields, ())
    return buffer.getvalue()


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


_EPOCHS = (datetime(1970, 1, 1), datetime(1970, 1, 1, tzinfo=timezone.utc))
_MICROSECOND = timedelta(microseconds=1)


def _timestamp_key(raw: str) -> tuple[int, bool]:
    """Microseconds since the epoch of an ISO-8601 timestamp, and whether
    it is timezone-aware; two keys of one kind order as their datetimes.
    Raises :class:`ValueError` when ``raw`` does not parse."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    stamp = datetime.fromisoformat(text)
    aware = stamp.tzinfo is not None
    return (stamp - _EPOCHS[aware]) // _MICROSECOND, aware


def _row_problem(row: list[str], needed: int, case_idx: int, act_idx: int) -> str | None:
    """Why a CSV row holds no event: None for a blank row, else its first
    problem of a short row, an empty case id, an empty label and a
    reserved label."""
    if not any(row):
        return None
    if len(row) < needed:
        return f"expected at least {needed} fields, got {len(row)}"
    if row[case_idx] == "":
        return "empty case id"
    if row[act_idx] == "":
        return "empty activity label"
    return f"activity label {PAD_LABEL!r} is reserved"


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
    Row numbers in error messages are 1-based CSV records (the header is
    row 1); a record the csv module rejects is a format error too.

    The rows are streamed: each becomes a case code and a label code, so
    memory follows the events, not the text.
    """
    cases = _Codes(reserved=("",))
    labels = _Codes(reserved=("", PAD_LABEL))
    case_of, label_of = array("q"), array("q")
    stamps, aware = array("q"), array("b")
    blank = 0
    with _reading(source) as handle:
        head = _unmarked(next(handle, ""), source)
        reader = csv.reader(chain((head,), handle) if head else handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise FormatError(f"row 1: {exc}") from None
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
        try:
            for row in reader:
                try:
                    case = cases[row[case_idx]]
                    label = labels[row[act_idx]]
                    raw = row[ts_idx] if ts_idx is not None else None
                except (IndexError, _ReservedKey):
                    problem = _row_problem(row, needed, case_idx, act_idx)
                    if problem is None:
                        blank += 1
                        continue
                    raise FormatError(f"row {len(case_of) + blank + 2}: {problem}") from None
                if raw is not None:
                    try:
                        key, is_aware = _timestamp_key(raw)
                    except ValueError:
                        line = len(case_of) + blank + 2
                        raise FormatError(f"row {line}: unparseable timestamp {raw!r}") from None
                    stamps.append(key)
                    aware.append(is_aware)
                case_of.append(case)
                label_of.append(label)
        except csv.Error as exc:
            raise FormatError(f"row {len(case_of) + blank + 2}: {exc}") from None

    if not case_of:
        raise EmptyLogError("empty log: the file contains no events")
    case_codes = np.frombuffer(case_of, dtype=np.int64)
    lengths = np.bincount(case_codes)[1:]
    if ts_idx is not None:
        # Only a case that mixes aware and naive timestamps cannot be
        # ordered; the first such case in order of appearance is named.
        n_aware = np.bincount(case_codes, weights=np.frombuffer(aware, dtype=np.int8))[1:]
        mixed = np.flatnonzero((n_aware > 0) & (n_aware < lengths))
        if len(mixed):
            case = list(cases)[mixed[0]]
            raise FormatError(
                f"case {case!r}: cannot order events, timestamps mix "
                "timezone-aware and naive values"
            )
    # From here on the case ids, and then the codes in file order, are
    # dropped as soon as they are used: they would set the memory peak.
    del cases
    if ts_idx is not None:
        order = np.lexsort((np.frombuffer(stamps, dtype=np.int64), case_codes))
    else:
        order = np.argsort(case_codes, kind="stable")
    # The label codes 1..len(labels), narrowed: they set this step's peak.
    events = np.frombuffer(label_of, dtype=np.int64).astype(np.min_scalar_type(len(labels)))[order]
    del case_codes, case_of, label_of, order
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # Renumber the labels by their first appearance in trace order.
    first, numbers = _intern(events)
    numbers += 1
    keys = list(labels)
    alphabet = Alphabet(keys[code - 1] for code in events[first].tolist())
    return EventLog.from_arrays(numbers, offsets, alphabet)


_TRACE, _EVENT, _STRING = 1, 2, 3
_ROLES = {"trace": _TRACE, "event": _EVENT, "string": _STRING}


def parse_xes(source: TextSource) -> EventLog:
    """Parse an XES document; only ``concept:name`` of each event is read.

    The document is streamed through an expat parser that builds no tree:
    memory holds the label ids, not the elements. A ``trace`` at any depth
    is a trace; its events are its ``event`` children, and an event's name
    is the ``value`` of its first ``string`` child whose ``key`` is
    ``concept:name``. Trace and event order follow the document. Any other
    attribute is ignored. A trace without events, or an event without a
    ``concept:name`` string, is a format error naming the trace index.
    Each trace is checked when its end tag is parsed, so of a bad trace and
    malformed XML the one earlier in the document is reported.
    """
    roles: dict[str, int] = {}  # tag -> role, by the tag's local name
    # The role of each open element: a trace, an event of a trace that has
    # no name yet, or 0 for anything else.
    stack = [0]
    push, pop = stack.append, stack.pop
    # The name of each event of the open traces, trace after trace (None
    # for an event without one), and where each open trace's names start.
    names: list = []
    add_name = names.append
    starts: list[int] = []
    codes = _Codes(reserved=(None, PAD_LABEL))
    events = array("q")
    offsets = array("q", [0])

    def start(tag: str, attrib: dict[str, str]) -> None:
        role = roles.get(tag)
        if role is None:
            # XES files often carry a default namespace; match on the local part.
            role = roles[tag] = _ROLES.get(tag.rpartition("}")[2], 0)
        if role == _STRING:
            if stack[-1] == _EVENT and attrib.get("key") == "concept:name":
                add_name(attrib.get("value"))
                stack[-1] = 0
            push(0)
        elif role == _EVENT:
            push(_EVENT if stack[-1] == _TRACE else 0)
        else:
            if role == _TRACE:
                starts.append(len(names))
            push(role)

    def end(tag: str) -> None:
        role = pop()
        if not role:
            return
        if role == _EVENT:
            add_name(None)
            return
        first = starts.pop()
        trace = names[first:]
        del names[first:]
        index = len(offsets) - 1
        try:
            events.extend(map(codes.__getitem__, trace))
        except _ReservedKey:
            for position, name in enumerate(trace):
                if name is None:
                    raise FormatError(
                        f"trace {index}: event {position} lacks a concept:name string"
                    ) from None
                if name == PAD_LABEL:
                    raise FormatError(
                        f"trace {index}: activity label {PAD_LABEL!r} is reserved"
                    ) from None
        if not trace:
            raise FormatError(f"trace {index} has no events")
        offsets.append(len(events))

    parser = ET.XMLParser(target=SimpleNamespace(start=start, end=end))
    try:
        # A check that fails inside the parser stops it, and the ``feed``
        # that parsed the trace's end tag raises it.
        for chunk in _text_chunks(source, 1 << 16):
            parser.feed(chunk)
        parser.close()
    except ET.ParseError as exc:
        raise FormatError(f"malformed XES/XML: {exc}") from exc

    if len(offsets) == 1:
        raise EmptyLogError("empty log: the XES document has no traces")
    return _log(events, offsets, codes)


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
    traces = _split(log.alphabet.labels_of(log.events).tolist(), log.offsets)
    rows = (zip(repeat(case), labels) for case, labels in enumerate(traces, start=1))
    write_csv(target, ["case", "activity"], chain.from_iterable(rows))


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


def compute_stats(log: EventLog) -> LogStats:
    """Compute :class:`LogStats`; frequency ties are ordered by ActivityId."""
    if log.is_empty:
        raise EmptyLogError("empty log: no traces to summarize")
    counts = log.activity_counts()
    total = sum(counts.values())
    variant_count = len(log.variants.counts)
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    labels = log.alphabet.labels_of([aid for aid, _ in ordered]).tolist()
    entries = [
        RankFrequencyEntry(rank, aid, label, count, count / total)
        for rank, ((aid, count), label) in enumerate(zip(ordered, labels), start=1)
    ]
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
    rows = (
        [entry.rank, entry.label, entry.count, format(entry.relative_frequency, ".17g")]
        for entry in stats.rank_entries
    )
    write_csv(target, ["rank", "activity", "frequency", "relative_frequency"], rows)
