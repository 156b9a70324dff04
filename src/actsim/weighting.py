"""PMI and PPMI reweighting of count matrices.

For a cell holding joint count j with row total r, column total c and
grand total N, PMI is ln((j/N) / ((r/N)(c/N))); cells with a zero count
stay zero, so sparsity is preserved. PPMI clamps negatives to zero in the
same pass. The logarithm is natural.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from .contexts import OccurrenceTable
from .errors import ParameterError
from .matrices import WEIGHTINGS, EmbeddingMatrix


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


def _log_ratios(counts: np.ndarray, n: float, expected: np.ndarray) -> np.ndarray:
    """ln(count * n / expected) where the count is positive, 0.0 elsewhere:
    the one log-ratio behind PMI, PPMI and substitution scores."""
    out = np.zeros(counts.shape)
    mask = counts > 0
    out[mask] = np.log(counts[mask] * n / expected[mask])
    return out


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

    One log-ratio pass over the counts' cells gives PMI, clamped in place
    for PPMI. A sparse result keeps the counts' own pattern in its storage
    order (no re-sort) and drops the cells that came out exactly zero.
    """
    if weighting == "none":
        return matrix
    if weighting not in ("pmi", "ppmi"):
        raise ParameterError(f"unknown weighting {weighting!r} (expected one of {WEIGHTINGS})")
    _check_pair(matrix, table)
    n = float(table.total_events)
    row_tot = table.row_totals.astype(np.float64)
    col_tot = row_tot if matrix.config.method == "aa" else table.context_totals
    counts = matrix.values
    if sparse.issparse(counts):
        rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
        values = _log_ratios(counts.data, n, row_tot[rows] * col_tot[counts.indices])
    else:
        values = _log_ratios(counts, n, np.outer(row_tot, col_tot))
    if weighting == "ppmi":
        np.maximum(values, 0.0, out=values)
    if sparse.issparse(counts):
        # The index arrays are copied, as eliminate_zeros compacts in place.
        values = sparse.csr_matrix(
            (values, counts.indices.copy(), counts.indptr.copy()), shape=counts.shape
        )
        values.eliminate_zeros()
    return replace(matrix, values=values, config=replace(matrix.config, weighting=weighting))
