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

from .contexts import OccurrenceTable, _pmi_ratios
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
    for AA) are weighted once per weighting, from the log-ratios the table
    caches, and the same values are handed out again (``table.weighted``).
    Any other count matrix is weighted from its own values by the same
    kernel, without caching.
    """
    if weighting == "none":
        return matrix
    if weighting not in ("pmi", "ppmi"):
        raise ParameterError(f"unknown weighting {weighting!r} (expected one of {WEIGHTINGS})")
    _check_pair(matrix, table)
    method, counts = matrix.config.method, matrix.values
    if counts is (table.counts if method == "ac" else table.aa_counts):
        key = method, weighting
        if key not in table.weighted:
            ratios = table.ac_ratios if method == "ac" else table.aa_ratios
            table.weighted[key] = _weigh(counts, ratios, weighting)
        values = table.weighted[key]
    else:
        values = _weigh(counts, _pmi_ratios(table, counts, method), weighting)
    return replace(matrix, values=values, config=replace(matrix.config, weighting=weighting))


def _weigh(
    counts: "np.ndarray | sparse.csr_matrix", ratios: np.ndarray, weighting: str
) -> "np.ndarray | sparse.csr_matrix":
    """PMI (the log-ratios of ``counts``) or PPMI (clamped at zero): dense
    and read-only, or on a sparse ``counts``' own pattern in its storage
    order (no re-sort), less the cells that came out exactly zero."""
    values = np.maximum(ratios, 0.0) if weighting == "ppmi" else ratios.copy()
    if sparse.issparse(counts):
        # The index arrays are copied, as eliminate_zeros compacts in place.
        values = sparse.csr_matrix(
            (values, counts.indices.copy(), counts.indptr.copy()), shape=counts.shape
        )
        values.eliminate_zeros()
    else:
        values.flags.writeable = False
    return values
