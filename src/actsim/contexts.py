"""Sliding-window context extraction over padded traces.

Every event of every trace yields exactly one (center, context) record.
A trace of length m is padded with floor((n-1)/2) PAD symbols on the left
and ceil((n-1)/2) on the right, then an n-sized window slides across it;
the context of the center is the concatenation of the left and right
subwindows, kept in order (sequence kind) or sorted by activity id
(multiset kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np
from scipy import sparse

from .errors import EmptyLogError, ParameterError
from .log import PAD, EventLog, _direct, _intern, _read_only, _sorted_order, _widen


class ContextKind(str, Enum):
    MULTISET = "mset"
    SEQUENCE = "seq"


def _coerce_kind(kind: "ContextKind | str") -> ContextKind:
    try:
        return ContextKind(kind)
    except ValueError:
        raise ParameterError(f"unknown context kind {kind!r} (expected mset or seq)") from None


@dataclass(frozen=True, eq=False)
class OccurrenceTable:
    """Counts from one extraction pass, stored as arrays.

    ``symbols`` is an ``(n_ctx, n-1)`` int64 array of the canonical
    context symbols in interning order (first appearance during the
    trace-order scan), so matrix columns built from this table have a
    reproducible layout. A multiset row is sorted ascending by activity
    id; a sequence row keeps trace order, left subwindow first.
    ``counts`` is the raw activity-context matrix as int64 CSR: row i is
    activity ``row_labels[i]`` (the occurring ids ascending, never PAD),
    column j is context j, and cell (i, j) is #(a, c). ``row_totals`` and
    ``context_totals`` are the int64 row and column sums of ``counts``.
    All of these arrays are read-only, as the cached pair plan, AA counts
    and weightings of the table rely on.
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
        """Each occurring activity id's event count, keyed by id (read-only)."""
        return MappingProxyType(dict(zip(self.row_labels, self.row_totals.tolist())))

    @cached_property
    def contexts(self) -> tuple[tuple[int, ...], ...]:
        """The context symbol tuples, by context index."""
        return tuple(map(tuple, self.symbols.tolist()))

    @cached_property
    def pair_plan(self) -> "PairPlan | None":
        """The row pairs that share a column of ``counts``, built on first
        use, in read-only arrays; None when there are more than ``_PAIR_CAP``."""
        return _pair_plan(self.counts)

    @cached_property
    def aa_counts(self) -> np.ndarray:
        """The raw activity-activity counts, rows and columns as in ``counts``.

        With M = ``counts`` and B its nonzero indicator this is
        M Bᵀ + (M Bᵀ)ᵀ, evaluated on first use and kept read-only so every
        AA build over this table shares the one array. Cell (i, j) sums
        M[i, k] + M[j, k] over the pairs of :attr:`pair_plan`, and the
        diagonal is twice ``row_totals``; a table without a plan takes the
        sparse product. Either way the counts are exact int64.
        """
        plan = self.pair_plan
        if plan is None:
            indicator = self.counts.copy()
            indicator.data = np.ones_like(indicator.data)
            half = (self.counts @ indicator.T).toarray()
            values = half + half.T
        else:
            data = self.counts.data
            sums = plan.symmetric(2 * self.row_totals, data[plan.left] + data[plan.right])
            values = sums.astype(np.int64)
        return _read_only(values)

    @cached_property
    def weighted(self) -> dict:
        """The cache of :mod:`actsim.weighting`, which alone reads and
        writes its keys: the PMI log-ratios of this table's own AC and AA
        counts and the PMI and PPMI values made of them."""
        return {}


# A table whose columns hold more row pairs than this keeps scipy's sparse
# products: the plan's memory grows with the pairs (6 bytes each when
# narrow). The benchmark's sweep tables hold at most about 52k pairs, and
# its 100k-trace log's smallest table about 670k.
_PAIR_CAP = 1 << 18


def _narrow(bound: int) -> type:
    """The narrowest of uint16, int32 and int64 that holds 0 .. bound - 1."""
    if bound <= 1 << 16:
        return np.uint16
    return np.int32 if bound <= 1 << 31 else np.int64


class PairPlan(NamedTuple):
    """Every pair of rows i < j that share a column k of a CSR count matrix.

    ``left`` and ``right`` are the storage positions of M[i, k] and
    M[j, k], and ``cells`` is i * n + j; pairs are listed by ascending k.
    ``rows`` is the row of each stored count. A sum over a cell's pairs
    therefore adds its terms in ascending k, as scipy's sparse product
    does, so the two give the same bits.
    """

    rows: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cells: np.ndarray

    def symmetric(self, diagonal: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The float64 n x n matrix with ``diagonal`` on its diagonal and,
        in cells (i, j) and (j, i), the sum of ``weights`` over the pairs of
        cell i * n + j, added from +0.0 in plan order."""
        n = len(diagonal)
        upper = np.bincount(self.cells, weights=weights, minlength=n * n).reshape(n, n)
        full = np.add(upper, upper.T, dtype=np.float64)  # no pairs: bincount gives int64
        np.fill_diagonal(full, diagonal)
        return full


def _pair_plan(counts: sparse.csr_matrix) -> "PairPlan | None":
    """The :class:`PairPlan` of a canonical CSR ``counts``, or None when
    its columns hold more than ``_PAIR_CAP`` row pairs."""
    n, n_cols = counts.shape
    sizes = np.bincount(counts.indices, minlength=n_cols)
    n_pairs = int((sizes * (sizes - 1) // 2).sum())
    if n_pairs > _PAIR_CAP:
        return None
    # Storage positions by column; rows stay ascending within a column, as
    # the sort is stable (a radix sort for narrow indices).
    nnz = counts.nnz
    positions = _narrow(nnz)
    order = counts.indices.astype(_narrow(n_cols)).argsort(kind="stable").astype(positions)
    # Each position pairs with the later positions of its column. The pair
    # numbers stay intp, as a narrow index array is cast back on every
    # gather; everything gathered through them is narrow.
    later = np.repeat(np.cumsum(sizes), sizes) - np.arange(1, nnz + 1)
    first = np.repeat(np.arange(nnz), later)
    second = np.arange(1, n_pairs + 1)
    second -= np.repeat(np.cumsum(later) - later, later)
    second += first
    rows = np.repeat(np.arange(n, dtype=_narrow(n)), np.diff(counts.indptr))
    ranked = rows[order]
    return PairPlan(
        rows=_read_only(rows),
        left=_read_only(order[first]),
        right=_read_only(order[second]),
        cells=_read_only(ranked[first].astype(_narrow(n * n)) * n + ranked[second]),
    )


def _packed_keys(columns: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """One int64 key per context of the ``(n-1, n_events)`` symbol array
    ``columns`` (one row per window slot), and a bound that every key lies
    below; equal contexts get equal keys and distinct contexts distinct keys.

    Contexts are packed in base ``base`` one slot at a time; keys the next
    slot would overflow are renumbered first (:func:`~actsim.log._widen`).
    """
    keys = np.zeros(columns.shape[1], dtype=np.int64)
    bound = 1
    for column in columns:
        bound = _widen(keys, base, bound)
        keys += column
    return keys, bound


def _shifts(n: int) -> list[int]:
    """Each context slot's offset from the center, for window size ``n``."""
    left = (n - 1) // 2
    return [shift for shift in range(-left, n - left) if shift != 0]


# The most bytes a scan's (n-1) x events int64 slot array may take. A
# wider window is refused before anything is allocated, so it cannot fail
# mid-scan for lack of memory or fill the machine. The benchmark's largest
# slot array is 19 MB (window 5 over 590k events).
_SLOT_BYTES_CAP = 1 << 31


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


# Up to this many slots an odd-even transposition network sorts a column
# block faster than np.sort; above it np.sort wins, and the network's
# ~w²/2 numpy calls grow without bound. On 600k contexts (2-core x86-64
# VM, numpy 2.4): 6 slots 24 vs 29 ms, 8 slots 47 vs 28 ms.
_NETWORK_WIDTH = 6


def _sort_columns(columns: np.ndarray) -> None:
    """Sort every column of a ``(width, m)`` array in place: by an odd-even
    transposition network of elementwise minima and maxima when it has at
    most ``_NETWORK_WIDTH`` rows, by ``np.sort`` otherwise."""
    width = len(columns)
    if width > _NETWORK_WIDTH:
        columns.sort(axis=0)
        return
    for step in range(width):
        for i in range(step % 2, width - 1, 2):
            low = np.minimum(columns[i], columns[i + 1])
            np.maximum(columns[i], columns[i + 1], out=columns[i + 1])
            columns[i] = low


def _tabulate(columns: np.ndarray, kind: ContextKind, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_ctx, n-1)`` symbols of the distinct contexts of the
    ``(n-1, m)`` slot array ``columns``, in order of first appearance, and
    the context number of each of its m columns. Multiset columns are
    sorted in place first."""
    if kind is ContextKind.MULTISET:
        _sort_columns(columns)
    first, numbers = _intern(*_packed_keys(columns, base))
    return _read_only(np.ascontiguousarray(columns[:, first].T)), numbers


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
    counts come straight from the (row, context) keys (:func:`_csr_counts`). The
    window arrays are handed straight to the tabulation, so they are freed
    before the counts are built. A scan whose ``(n-1) x events`` int64 slot
    array would take more than ``_SLOT_BYTES_CAP`` bytes (2 GiB) is a
    :class:`ParameterError`, raised before anything is allocated;
    coarsening needs no check, as it never holds more than its fine table.

    ``fine``, a sequence table of this same log at a window of at least
    ``window_size``, replaces the scan and gives a table equal to the
    scanned one in every array. Windows nest, so the coarse slots are a
    subset of the fine ones, and a multiset context is its sorted sequence
    context: each fine context maps to one coarse context. Fine contexts
    are numbered by first appearance, so numbering the coarse ones by first
    appearance in fine order gives each its smallest fine number, exactly
    the order a scan would give. The counts are the fine cells re-keyed. A
    fine table of another kind, a smaller window or another event count is
    a :class:`ParameterError`.
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
        slots = np.searchsorted(_shifts(fine.window_size), _shifts(n))
        symbols, numbers = _tabulate(fine.symbols.T[slots], kind, base)
        cells, row_labels = fine.counts, fine.row_labels
        rows = np.repeat(np.arange(cells.shape[0]), np.diff(cells.indptr))
        context_ids, weights = numbers[cells.indices], cells.data
    else:
        centers, lengths, multiplicities = log.variants
        slot_bytes = (n - 1) * len(centers) * 8
        if slot_bytes > _SLOT_BYTES_CAP:
            raise ParameterError(
                f"window size {n} needs a {slot_bytes}-byte context slot array, "
                f"more than the {_SLOT_BYTES_CAP} bytes allowed"
            )
        symbols, context_ids = _tabulate(_context_columns(centers, lengths, n), kind, base)
        occurs = np.bincount(centers) > 0
        row_labels = tuple(np.flatnonzero(occurs).tolist())
        rows = (np.cumsum(occurs) - 1)[centers]
        weights = np.repeat(multiplicities, lengths)
    counts = _csr_counts(rows, context_ids, weights, (len(row_labels), len(symbols)))
    # The int64 sums, read off the CSR's own arrays: no row is empty, as
    # each is an activity that occurs, so one reduceat sums the rows.
    row_totals = _read_only(np.add.reduceat(counts.data, counts.indptr[:-1]))
    context_totals = np.zeros(len(symbols), dtype=np.int64)
    np.add.at(context_totals, counts.indices, counts.data)
    _read_only(context_totals)
    return OccurrenceTable(
        window_size=n,
        kind=kind,
        symbols=symbols,
        counts=counts,
        row_labels=row_labels,
        row_totals=row_totals,
        context_totals=context_totals,
        total_events=int(row_totals.sum()),
    )


def _csr_counts(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """The canonical int64 CSR of the summed ``weights`` per (row, col):
    indices sorted within each row, no duplicates, no explicit zeros (every
    weight is positive), index arrays as narrow as scipy would pick.

    The cells are keyed row * n_cols + col. When ``_direct`` holds for
    their ``shape[0] * shape[1]`` bins (no more bins than cells), one
    ``np.bincount`` sums them and the nonzero bins are read off in
    ascending order; otherwise :func:`~actsim.log._sorted_order` sorts
    them, by value when their keys pack with their positions.
    """
    # Each event-sized array goes as soon as it is used: on the largest
    # tables this step sets the extraction's memory peak.
    cells = rows * shape[1]
    cells += cols
    bins = shape[0] * shape[1]
    if _direct(bins, len(cells)):
        sums = np.bincount(cells, weights, minlength=bins)
        del cells
        cells = np.flatnonzero(sums)
        # Exact: no cell sums to more than the log's event count, far
        # below the 2**53 up to which float64 holds every integer.
        data = sums[cells].astype(np.int64)
    else:
        perm, cells = _sorted_order(cells)
        running = weights[perm]
        del perm
        # Per-cell sums as differences of the running total at each cell's
        # last sorted position (cheaper than add.reduceat over short runs).
        np.cumsum(running, out=running)
        last = np.empty(len(cells), dtype=bool)
        last[-1] = True
        np.not_equal(cells[:-1], cells[1:], out=last[:-1])
        ends = np.flatnonzero(last)
        cells = cells[ends]
        data = np.diff(running[ends], prepend=0)
    index_dtype = np.int32 if max(len(cells), *shape) < 2**31 else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index_dtype)
    np.cumsum(np.bincount(cells // shape[1], minlength=shape[0]), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (data, (cells % shape[1]).astype(index_dtype), indptr), shape=shape, copy=False
    )
    matrix.has_canonical_format = True
    return _read_only(matrix)
