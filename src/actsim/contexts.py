"""Sliding-window context extraction over padded traces.

Every event of every trace yields exactly one (center, context) record.
A trace of length m is padded with floor((n-1)/2) PAD symbols on the left
and ceil((n-1)/2) on the right, then an n-sized window slides across it;
the context of the center is the concatenation of the left and right
subwindows, kept in order (sequence kind) or sorted by activity id
(multiset kind).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
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
    as int64 CSR: row i is the i-th occurring activity id ascending,
    column j is context j, and cell (i, j) is #(a, c). ``context_totals``
    is indexed by context index; ``activity_totals`` has a key for every
    activity that occurs in the log and never one for PAD. Treat the
    arrays as read-only.
    """

    window_size: int
    kind: ContextKind
    symbols: np.ndarray
    counts: sparse.csr_matrix
    context_totals: np.ndarray
    activity_totals: Mapping[int, int]
    total_events: int

    def activities(self) -> list[int]:
        """Occurring activity ids, ascending."""
        return sorted(self.activity_totals)

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


def _packed_keys(contexts: np.ndarray, base: int) -> np.ndarray:
    """One int64 key per row of ``contexts``; equal rows get equal keys.

    Rows are packed in base ``base`` when every key fits in an int64;
    otherwise each row's key is its rank among the distinct rows.
    """
    if base ** contexts.shape[1] >= 2**63:
        return np.unique(contexts, axis=0, return_inverse=True)[1].reshape(-1)
    keys = np.zeros(len(contexts), dtype=np.int64)
    for column in contexts.T:
        keys *= base
        keys += column
    return keys


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
    numbers = np.empty_like(perm)
    numbers[perm] = rank[np.cumsum(starts) - 1]
    return first[order], numbers


def extract_occurrences(
    log: EventLog, window_size: int, kind: "ContextKind | str"
) -> OccurrenceTable:
    """Run the window scan and return the full count table.

    The scan visits distinct traces in log order and weights each by its
    multiplicity, which leaves both the totals and the context interning
    order unchanged (a repeated trace can never introduce a context that
    its first occurrence did not). All windows are gathered at once from
    one padded array of the distinct traces.
    """
    kind = _coerce_kind(kind)
    if log.is_empty:
        raise EmptyLogError("empty log: nothing to extract")
    if window_size < 2:
        raise ParameterError(f"window size must be at least 2, got {window_size}")

    n = window_size
    left = (n - 1) // 2
    variants = Counter(log.traces)
    lengths = np.fromiter(map(len, variants), dtype=np.int64, count=len(variants))
    weights = np.repeat(np.fromiter(variants.values(), dtype=np.int64), lengths)
    centers = np.fromiter(chain.from_iterable(variants), dtype=np.int64, count=len(weights))

    # Variant v occupies lengths[v] + n - 1 slots of the padded array, its
    # events starting after `left` PADs, so the window of global event e
    # starts at slot e + v (n - 1).
    starts = np.arange(len(centers)) + np.repeat(np.arange(len(variants)) * (n - 1), lengths)
    padded = np.full(len(centers) + len(variants) * (n - 1), PAD, dtype=np.int64)
    padded[starts + left] = centers
    offsets = np.delete(np.arange(n), left)
    contexts = padded[starts[:, None] + offsets]
    if kind is ContextKind.MULTISET:
        contexts.sort(axis=1)

    first, context_ids = _intern(_packed_keys(contexts, len(log.alphabet) + 1))
    occurs = np.bincount(centers) > 0
    activities = np.flatnonzero(occurs)
    rows = (np.cumsum(occurs) - 1)[centers]
    counts = sparse.csr_matrix(
        (weights, (rows, context_ids)),
        shape=(len(activities), len(first)),
        dtype=np.int64,
    )
    activity_totals = np.asarray(counts.sum(axis=1)).ravel()
    return OccurrenceTable(
        window_size=n,
        kind=kind,
        symbols=contexts[first],
        counts=counts,
        context_totals=np.asarray(counts.sum(axis=0)).ravel(),
        activity_totals=dict(zip(activities.tolist(), activity_totals.tolist())),
        total_events=int(weights.sum()),
    )
