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
from .matrices import EmbeddingMatrix


WEIGHTINGS = ("none", "pmi", "ppmi")


def _check_pair(matrix: EmbeddingMatrix, table: OccurrenceTable) -> None:
    prov = matrix.provenance
    if prov.weighting != "none":
        raise ParameterError(f"matrix is already weighted ({prov.weighting})")
    if prov.method not in ("aa", "ac"):
        raise ParameterError(f"weighting does not apply to method {prov.method!r}")
    if prov.kind != table.kind or prov.window_size != table.window_size:
        raise ParameterError(
            "matrix and table disagree: "
            f"matrix is ({prov.kind.value}, n={prov.window_size}), "
            f"table is ({table.kind.value}, n={table.window_size})"
        )
    if matrix.row_labels != tuple(table.activities()):
        raise ParameterError("matrix rows do not match the table's activities")


def _totals(matrix: EmbeddingMatrix, table: OccurrenceTable) -> tuple[np.ndarray, np.ndarray]:
    row = np.array([table.activity_totals[a] for a in matrix.row_labels], dtype=np.float64)
    if matrix.provenance.method == "aa":
        col = row
    else:
        col = np.asarray(table.context_totals, dtype=np.float64)
    return row, col


def apply_pmi(matrix: EmbeddingMatrix, table: OccurrenceTable) -> EmbeddingMatrix:
    """PMI-weight a raw count matrix; ``table`` must be the one it was built from."""
    _check_pair(matrix, table)
    row_tot, col_tot = _totals(matrix, table)
    n = float(table.total_events)
    if sparse.issparse(matrix.values):
        # The counts' own pattern, in its storage order: no re-sort. The
        # index arrays are copied, as eliminate_zeros compacts in place.
        counts = matrix.values
        rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
        data = np.log(
            counts.data.astype(np.float64) * n / (row_tot[rows] * col_tot[counts.indices])
        )
        out = sparse.csr_matrix(
            (data, counts.indices.copy(), counts.indptr.copy()), shape=counts.shape
        )
        out.eliminate_zeros()
    else:
        counts = matrix.values.astype(np.float64)
        out = np.zeros_like(counts)
        mask = counts > 0
        ratio = counts * n / np.outer(row_tot, col_tot)
        out[mask] = np.log(ratio[mask])
    return EmbeddingMatrix(
        row_labels=matrix.row_labels,
        column_labels=matrix.column_labels,
        values=out,
        provenance=replace(matrix.provenance, weighting="pmi"),
    )


def apply_ppmi(matrix: EmbeddingMatrix, table: OccurrenceTable) -> EmbeddingMatrix:
    """PMI followed by clamping negatives to zero."""
    weighted = apply_pmi(matrix, table)
    values = weighted.values
    if sparse.issparse(values):
        values = values.copy()
        np.maximum(values.data, 0.0, out=values.data)
        values.eliminate_zeros()
    else:
        values = np.maximum(values, 0.0)
    return EmbeddingMatrix(
        row_labels=weighted.row_labels,
        column_labels=weighted.column_labels,
        values=values,
        provenance=replace(weighted.provenance, weighting="ppmi"),
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
