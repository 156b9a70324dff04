"""PMI and PPMI reweighting of count matrices.

For a cell holding joint count j with row total r, column total c and
grand total N, PMI is ln((j/N) / ((r/N)(c/N))); cells with a zero count
stay zero, so sparsity is preserved. PPMI clamps negatives to zero. The
logarithm is natural.
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
    _check_pair(matrix, table)
    n = float(table.total_events)
    row_tot = table.row_totals.astype(np.float64)
    col_tot = row_tot if matrix.config.method == "aa" else table.context_totals
    counts = matrix.values
    if sparse.issparse(counts):
        # The counts' own pattern, in its storage order: no re-sort. The
        # index arrays are copied, as eliminate_zeros compacts in place.
        rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
        expected = row_tot[rows] * col_tot[counts.indices]
        values = sparse.csr_matrix(
            (_log_ratios(counts.data, n, expected), counts.indices.copy(), counts.indptr.copy()),
            shape=counts.shape,
        )
        values.eliminate_zeros()
    else:
        values = _log_ratios(counts, n, np.outer(row_tot, col_tot))
    return replace(matrix, values=values, config=replace(matrix.config, weighting="pmi"))


def apply_ppmi(matrix: EmbeddingMatrix, table: OccurrenceTable) -> EmbeddingMatrix:
    """PMI followed by clamping negatives to zero; a sparse result drops
    the zeros the clamp makes."""
    weighted = apply_pmi(matrix, table)
    values = weighted.values
    return replace(
        weighted,
        values=values.maximum(0) if sparse.issparse(values) else np.maximum(values, 0.0),
        config=replace(weighted.config, weighting="ppmi"),
    )


def apply_weighting(
    matrix: EmbeddingMatrix, table: OccurrenceTable, weighting: str
) -> EmbeddingMatrix:
    """Dispatch on the weighting name; ``none`` returns the matrix unchanged."""
    if weighting == "none":
        return matrix
    if weighting == "pmi":
        return apply_pmi(matrix, table)
    if weighting == "ppmi":
        return apply_ppmi(matrix, table)
    raise ParameterError(f"unknown weighting {weighting!r} (expected one of {WEIGHTINGS})")
