"""Sliding-window context extraction over padded traces.

Every event of every trace yields exactly one (center, context) record.
A trace of length m is padded with floor((n-1)/2) PAD symbols on the left
and ceil((n-1)/2) on the right, then an n-sized window slides across it;
the context of the center is the concatenation of the left and right
subwindows, kept in order (sequence kind) or sorted by activity id
(multiset kind).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy import sparse

from .errors import EmptyLogError, ParameterError
from .log import PAD, PAD_LABEL, Alphabet, EventLog


class ContextKind(str, Enum):
    MULTISET = "mset"
    SEQUENCE = "seq"


def _coerce_kind(kind: "ContextKind | str") -> ContextKind:
    try:
        return ContextKind(kind)
    except ValueError:
        raise ParameterError(f"unknown context kind {kind!r} (expected mset or seq)") from None


@dataclass(frozen=True)
class ContextKey:
    """Canonical context: kind plus its symbol ids.

    Multiset symbols are sorted ascending by activity id; sequence symbols
    keep trace order (left subwindow first).
    """

    kind: ContextKind
    symbols: tuple[int, ...]

    def render(self, alphabet: Alphabet) -> str:
        return render_context(self.symbols, self.kind, alphabet)


def render_context(symbols: tuple[int, ...], kind: "ContextKind | str", alphabet: Alphabet) -> str:
    """Human-readable context label: ``{x,y}`` for multisets (labels sorted),
    ``<x,y>`` for sequences, with PAD shown as ``__PAD__``."""
    kind = _coerce_kind(kind)
    labels = [PAD_LABEL if s == PAD else alphabet.label_of(s) for s in symbols]
    return _render_labels(labels, kind)


def _render_labels(labels: list[str], kind: ContextKind) -> str:
    """The context label over the symbols' labels, in symbol order."""
    if kind is ContextKind.MULTISET:
        return "{" + ",".join(sorted(labels)) + "}"
    return "<" + ",".join(labels) + ">"


class ContextKeys(Sequence):
    """Read-only sequence of :class:`ContextKey` over an ``(n_ctx, n-1)``
    symbol array; a key object is made only when an item is read."""

    __slots__ = ("kind", "symbols")

    def __init__(self, kind: ContextKind, symbols: np.ndarray) -> None:
        self.kind = kind
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ContextKeys(self.kind, self.symbols[index])
        return ContextKey(self.kind, tuple(self.symbols[index].tolist()))

    def __iter__(self):
        for symbols in self.symbols.tolist():
            yield ContextKey(self.kind, tuple(symbols))


@dataclass(frozen=True, eq=False)
class OccurrenceTable:
    """Counts from one extraction pass, stored as arrays.

    ``symbols`` is an ``(n_ctx, n-1)`` int64 array of the canonical
    context symbols in interning order (first appearance during the
    trace-order scan), so matrix columns built from this table have a
    reproducible layout. ``counts`` is the raw activity-context matrix
    as int64 CSR: row i is activity ``row_labels[i]`` (the occurring ids
    ascending, never PAD), column j is context j, and cell (i, j) is
    #(a, c). ``row_totals`` and ``context_totals`` are the int64 row and
    column sums of ``counts``. Treat the arrays as read-only.
    """

    window_size: int
    kind: ContextKind
    symbols: np.ndarray
    counts: sparse.csr_matrix
    row_labels: tuple[int, ...]
    row_totals: np.ndarray
    context_totals: np.ndarray
    total_events: int

    @cached_property
    def activity_totals(self) -> Mapping[int, int]:
        """Each occurring activity id's event count, keyed by id."""
        return dict(zip(self.row_labels, self.row_totals.tolist()))

    @cached_property
    def contexts(self) -> tuple[tuple[int, ...], ...]:
        """The context symbol tuples, by context index."""
        return tuple(map(tuple, self.symbols.tolist()))

    @cached_property
    def aa_counts(self) -> np.ndarray:
        """The raw activity-activity counts, rows and columns as in ``counts``.

        With M = ``counts`` and B its nonzero indicator this is
        M Bᵀ + (M Bᵀ)ᵀ, evaluated on first use and kept read-only so every
        AA build over this table shares the one array.
        """
        indicator = self.counts.copy()
        indicator.data = np.ones_like(indicator.data)
        half = (self.counts @ indicator.T).toarray()
        values = half + half.T
        values.flags.writeable = False
        return values


def _packed_keys(columns: np.ndarray, base: int) -> np.ndarray:
    """One int64 key per context of the ``(n-1, n_events)`` symbol array
    ``columns`` (one row per window slot); equal contexts get equal keys.

    Contexts are packed in base ``base`` when every key fits in an int64;
    otherwise each context's key is its rank among the distinct ones.
    """
    if base ** len(columns) >= 2**63:
        return np.unique(columns.T, axis=0, return_inverse=True)[1].reshape(-1)
    keys = np.zeros(columns.shape[1], dtype=np.int64)
    for column in columns:
        keys *= base
        keys += column
    return keys


def _shifts(n: int) -> list[int]:
    """Each context slot's offset from the center, for window size ``n``."""
    left = (n - 1) // 2
    return [shift for shift in range(-left, n - left) if shift != 0]


def _context_columns(centers: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """The ``(n-1, len(centers))`` context symbols of every event of the
    traces laid end to end in ``centers``: slot j holds the event
    ``_shifts(n)[j]`` places away in the same trace, or PAD past either end.
    Each slot is one gather from a copy with ``pad`` PADs around every
    trace; one slot at a time, as an index array for all slots at once
    would be as large as the columns."""
    pad = n - 1 - (n - 1) // 2
    at = np.arange(len(centers)) + pad * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    padded = np.full(len(centers) + pad * (len(lengths) + 1), PAD, dtype=np.int64)
    padded[at] = centers
    columns = np.empty((n - 1, len(centers)), dtype=np.int64)
    for slot, shift in enumerate(_shifts(n)):
        np.take(padded, at + shift, out=columns[slot])
    return columns


def _sort_columns(columns: np.ndarray) -> None:
    """Sort every column of a short ``(width, m)`` array in place, by an
    odd-even transposition network of elementwise minima and maxima."""
    width = len(columns)
    for step in range(width):
        for i in range(step % 2, width - 1, 2):
            low = np.minimum(columns[i], columns[i + 1])
            np.maximum(columns[i], columns[i + 1], out=columns[i + 1])
            columns[i] = low


def _intern_contexts(
    centers: np.ndarray, lengths: np.ndarray, n: int, kind: ContextKind, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_ctx, n-1)`` symbols of the distinct contexts in order of
    first appearance, and the context number of every event. The window
    arrays live only here, so they are freed before the counts are built."""
    columns = _context_columns(centers, lengths, n)
    if kind is ContextKind.MULTISET:
        _sort_columns(columns)
    first, numbers = _intern(_packed_keys(columns, base))
    return np.ascontiguousarray(columns[:, first].T), numbers


def _intern(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys by first appearance.

    Returns (index of each distinct key's first appearance, number of
    every key). An unstable sort plus a per-run minimum of the original
    positions costs less than ``np.unique``'s stable sort.
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
    numbers = np.empty_like(perm)
    numbers[perm] = rank[groups]
    return first[order], numbers


def extract_occurrences(
    log: EventLog,
    window_size: int,
    kind: "ContextKind | str",
    *,
    fine: "OccurrenceTable | None" = None,
) -> OccurrenceTable:
    """Run the window scan and return the full count table.

    The scan visits the log's distinct traces (``log.variants``) in log
    order and weights each by its multiplicity, which leaves both the
    totals and the context interning order unchanged (a repeated trace can
    never introduce a context that its first occurrence did not). Each
    context slot is one gather from a padded copy of the variants, and the
    counts come straight from one sort of the (row, context) keys.

    ``fine``, a sequence table of this same log at a window of at least
    ``window_size``, replaces the scan: the table is coarsened from its
    contexts and nonzero cells (see :func:`_coarsen`) and equals the
    scanned one in every array. A fine table of another kind, a smaller
    window or another event count is a :class:`ParameterError`.
    """
    kind = _coerce_kind(kind)
    if log.is_empty:
        raise EmptyLogError("empty log: nothing to extract")
    if window_size < 2:
        raise ParameterError(f"window size must be at least 2, got {window_size}")

    n = window_size
    base = len(log.alphabet) + 1
    if fine is not None:
        if (
            fine.kind is not ContextKind.SEQUENCE
            or fine.window_size < n
            or fine.total_events != log.n_events
        ):
            raise ParameterError(
                f"cannot derive ({kind.value}, n={n}) from the ({fine.kind.value}, "
                f"n={fine.window_size}) table of {fine.total_events} events: it must be "
                f"a seq table of this log's {log.n_events} events at a window of at least {n}"
            )
        symbols, counts = _coarsen(fine, n, kind, base)
        row_labels, row_totals, total_events = fine.row_labels, fine.row_totals, fine.total_events
    else:
        centers, lengths, multiplicities = log.variants
        symbols, context_ids = _intern_contexts(centers, lengths, n, kind, base)
        occurs = np.bincount(centers) > 0
        activities = np.flatnonzero(occurs)
        rows = (np.cumsum(occurs) - 1)[centers]
        weights = np.repeat(multiplicities, lengths)
        counts = _csr_counts(rows, context_ids, weights, (len(activities), len(symbols)))
        row_labels = tuple(activities.tolist())
        row_totals = np.asarray(counts.sum(axis=1)).ravel()
        total_events = int(weights.sum())
    return OccurrenceTable(
        window_size=n,
        kind=kind,
        symbols=symbols,
        counts=counts,
        row_labels=row_labels,
        row_totals=row_totals,
        context_totals=np.asarray(counts.sum(axis=0)).ravel(),
        total_events=total_events,
    )


def _coarsen(
    fine: OccurrenceTable, n: int, kind: ContextKind, base: int
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The symbols and counts of the (kind, n) table of the log that the
    sequence table ``fine`` counts, at a window of at most its own.

    Windows nest, so the coarse slots are a subset of the fine ones, and a
    multiset context is its sorted sequence context. Each fine context thus
    maps to one coarse context. Fine contexts are numbered by first
    appearance, so numbering the coarse keys by first appearance in fine
    order numbers each coarse context by its smallest fine number: exactly
    the order a scan would give. The counts are the fine cells re-keyed.
    """
    fine_shifts = _shifts(fine.window_size)
    columns = fine.symbols.T[[fine_shifts.index(shift) for shift in _shifts(n)]]
    if kind is ContextKind.MULTISET:
        _sort_columns(columns)
    first, numbers = _intern(_packed_keys(columns, base))
    cells = fine.counts
    rows = np.repeat(np.arange(cells.shape[0]), np.diff(cells.indptr))
    counts = _csr_counts(rows, numbers[cells.indices], cells.data, (cells.shape[0], len(first)))
    return np.ascontiguousarray(columns[:, first].T), counts


def _csr_counts(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """The canonical int64 CSR of the summed ``weights`` per (row, col):
    indices sorted within each row, no duplicates, no explicit zeros (every
    weight is positive), index arrays as narrow as scipy would pick."""
    cells = rows * shape[1] + cols
    perm = cells.argsort()
    ordered = cells[perm]
    starts = np.empty(len(ordered), dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    heads = np.flatnonzero(starts)
    cells = ordered[heads]
    # Per-cell sums as differences of the running total at each cell's
    # last sorted position (cheaper than add.reduceat over short runs).
    ends = np.append(heads[1:], len(ordered)) - 1
    data = np.diff(np.cumsum(weights[perm])[ends], prepend=0)
    index_dtype = np.int32 if max(len(cells), *shape) < 2**31 else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index_dtype)
    np.cumsum(np.bincount(cells // shape[1], minlength=shape[0]), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (data, (cells % shape[1]).astype(index_dtype), indptr), shape=shape, copy=False
    )
    matrix.has_canonical_format = True
    return matrix
