"""PMI and PPMI reweighting of count matrices.

For a cell holding joint count j with row total r, column total c and
grand total N, PMI is ln((j/N) / ((r/N)(c/N))); cells with a zero count
stay zero, so sparsity is preserved. PPMI clamps negatives to zero. The
logarithm is natural.

This module owns ``OccurrenceTable.weighted``, the cache of a table's own
counts: under a method (``"ac"`` or ``"aa"``) the log-ratios, under
(method, weighting) the values handed out, all of them read-only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from .contexts import OccurrenceTable
from .errors import ParameterError
from .log import _read_only
from .matrices import WEIGHTINGS, EmbeddingMatrix


def _log_ratios(counts: np.ndarray, n: float, expected: np.ndarray) -> np.ndarray:
    """ln(count * n / expected) where the count is positive, 0.0 elsewhere:
    the one log-ratio behind PMI, PPMI and substitution scores."""
    out = np.zeros(counts.shape)
    mask = counts > 0
    out[mask] = np.log(counts[mask] * n / expected[mask])
    return out


def _pmi_ratios(
    table: OccurrenceTable, counts: "np.ndarray | sparse.csr_matrix", method: str
) -> np.ndarray:
    """ln(j N / (r c)) for each count j of an AC (``method`` "ac") or AA
    count matrix over ``table``'s activities, with r and c its row and
    column totals in ``table``: one per stored cell, in storage order, of a
    sparse ``counts``, one per cell of a dense one. Read-only."""
    n = float(table.total_events)
    row_tot = table.row_totals.astype(np.float64)
    col_tot = row_tot if method == "aa" else table.context_totals
    if sparse.issparse(counts):
        rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
        ratios = _log_ratios(counts.data, n, row_tot[rows] * col_tot[counts.indices])
    else:
        ratios = _log_ratios(counts, n, np.outer(row_tot, col_tot))
    return _read_only(ratios)


def _check_pair(matrix: EmbeddingMatrix, table: OccurrenceTable) -> None:
    config = matrix.config
    if config.weighting != "none":
        raise ParameterError(f"matrix is already weighted ({config.weighting})")
    if config.method not in ("aa", "ac"):
        raise ParameterError(f"weighting does not apply to method {config.method!r}")
    if config.kind != table.kind or config.window != table.window_size:
        raise ParameterError(
            "matrix and table disagree: "
            f"matrix is ({config.kind.value}, n={config.window}), "
            f"table is ({table.kind.value}, n={table.window_size})"
        )
    if matrix.row_labels != table.row_labels:
        raise ParameterError("matrix rows do not match the table's activities")


def apply_pmi(matrix: EmbeddingMatrix, table: OccurrenceTable) -> EmbeddingMatrix:
    """PMI-weight a raw count matrix; ``table`` must be the one it was built from."""
    return apply_weighting(matrix, table, "pmi")


def apply_ppmi(matrix: EmbeddingMatrix, table: OccurrenceTable) -> EmbeddingMatrix:
    """PMI with negatives clamped to zero; ``table`` as for :func:`apply_pmi`."""
    return apply_weighting(matrix, table, "ppmi")


def apply_weighting(
    matrix: EmbeddingMatrix, table: OccurrenceTable, weighting: str
) -> EmbeddingMatrix:
    """Weight a raw count matrix by name; ``none`` returns it unchanged.

    The table's own counts (``table.counts`` for AC, ``table.aa_counts``
    for AA) are weighted once per weighting, from log-ratios computed once
    per method, and the same values are handed out again
    (``table.weighted``). Any other count matrix is weighted from its own
    values by the same kernel, without caching.
    """
    if weighting == "none":
        return matrix
    if weighting not in ("pmi", "ppmi"):
        raise ParameterError(f"unknown weighting {weighting!r} (expected one of {WEIGHTINGS})")
    _check_pair(matrix, table)
    method, counts = matrix.config.method, matrix.values
    own = counts is (table.counts if method == "ac" else table.aa_counts)
    cache = table.weighted if own else {}
    key = method, weighting
    if key not in cache:
        if method not in cache:
            cache[method] = _pmi_ratios(table, counts, method)
        cache[key] = _weigh(counts, cache[method], weighting)
    return replace(matrix, values=cache[key], config=replace(matrix.config, weighting=weighting))


def _clamped(ratios: np.ndarray, weighting: str) -> np.ndarray:
    """PMI (the log-ratios themselves) or PPMI (clamped at zero)."""
    return np.maximum(ratios, 0.0) if weighting == "ppmi" else ratios


def _weigh(
    counts: "np.ndarray | sparse.csr_matrix", ratios: np.ndarray, weighting: str
) -> "np.ndarray | sparse.csr_matrix":
    """PMI or PPMI from the log-ratios of ``counts``, read-only: dense, or
    on a sparse ``counts``' own pattern in its storage order (no re-sort),
    less the cells that came out exactly zero."""
    values = _clamped(ratios, weighting)
    if not sparse.issparse(counts):
        return _read_only(values)
    # The CSR owns its arrays, as eliminate_zeros compacts them in place.
    data = values.copy() if values is ratios else values
    matrix = sparse.csr_matrix(
        (data, counts.indices.copy(), counts.indptr.copy()), shape=counts.shape
    )
    matrix.eliminate_zeros()
    return _read_only(matrix)


def stored_values(matrix: EmbeddingMatrix) -> "np.ndarray | None":
    """The float64 values of an AC matrix at every storage position of its
    table's counts, or None unless they are known, by identity, to lie there.

    The table's raw counts are read as they are. A PMI or PPMI CSR that
    the table's cache handed out is its cached log-ratios, clamped at zero
    for PPMI: a cell that weighting dropped reads 0.0.
    """
    values, table, weighting = matrix.values, matrix.table, matrix.config.weighting
    if values is table.counts:
        return values.data.astype(np.float64)
    if values is table.weighted.get(("ac", weighting)):
        return _clamped(table.weighted["ac"], weighting)
    return None
