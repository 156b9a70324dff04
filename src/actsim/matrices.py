"""Count matrices over an occurrence table: activity-activity and activity-context,
each carrying the method config that made it."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Union

import numpy as np
from scipy import sparse

from .contexts import ContextKeys, ContextKind, OccurrenceTable, _render_labels
from .errors import ParameterError
from .log import PAD_LABEL, Alphabet, open_output


METHODS = ("aa", "ac", "substitution")
WEIGHTINGS = ("none", "pmi", "ppmi")


@dataclass(frozen=True)
class MethodConfig:
    """One embedding variant: method x context kind x weighting x window size.

    It is also the record of how a matrix was made: every matrix and
    similarity carries the config that built it. Substitution scores are
    only defined over sequence contexts and raw counts, so any other
    combination is rejected.
    """

    method: str
    kind: ContextKind
    weighting: str
    window: int

    def validate(self) -> "MethodConfig":
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r} (expected one of {METHODS})")
        if self.weighting not in WEIGHTINGS:
            raise ParameterError(
                f"unknown weighting {self.weighting!r} (expected one of {WEIGHTINGS})"
            )
        if self.window < 2:
            raise ParameterError(f"window size must be at least 2, got {self.window}")
        if self.method == "substitution":
            if self.kind is not ContextKind.SEQUENCE:
                raise ParameterError("substitution requires sequence contexts")
            if self.weighting != "none":
                raise ParameterError("substitution requires weighting none")
        return self

    def describe(self) -> str:
        return f"{self.method}/{self.kind.value}/{self.weighting}/{self.window}"

    def echo(self) -> dict:
        """The config echo every sidecar and report record starts with."""
        return {
            "method": self.method,
            "context": self.kind.value,
            "weighting": self.weighting,
            "window": self.window,
        }


@dataclass(frozen=True)
class ConfigEcho:
    """The config echo every report record starts with; see :meth:`MethodConfig.echo`."""

    method: str
    context: str
    weighting: str
    window: int


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Rows are activities; columns are activities (AA) or contexts (AC).

    ``values`` is a dense ndarray for AA and a scipy CSR matrix for AC;
    treat it as read-only. ``row_labels`` lists the occurring activity
    ids ascending, so every activity with at least one event has a row.
    ``column_labels`` are activity ids (AA) or a :class:`ContextKeys`
    view (AC). ``table`` is the table the matrix was built from, kept
    through weighting so cosine can use its pair plan; a hand-built
    matrix may leave it None.
    """

    row_labels: tuple[int, ...]
    column_labels: Union[tuple[int, ...], ContextKeys]
    values: "np.ndarray | sparse.csr_matrix"
    config: MethodConfig
    table: "OccurrenceTable | None" = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def dense(self) -> np.ndarray:
        if sparse.issparse(self.values):
            return self.values.toarray()
        return self.values

    def row(self, activity_id: int) -> np.ndarray:
        try:
            index = self.row_labels.index(activity_id)
        except ValueError:
            raise ParameterError(f"activity id {activity_id} has no row") from None
        row = self.values[index]
        return row.toarray()[0] if sparse.issparse(row) else row


def build_ac(table: OccurrenceTable) -> EmbeddingMatrix:
    """Activity-context matrix: AC(a, c) = #(a, c), stored sparse.

    The values are the table's own CSR counts, not a copy. Column order is
    the table's context interning order, and the column labels are a lazy
    view over its symbol array; the dimension is bounded by
    (|A|+1)^(n-1) since each context has n-1 symbol slots over the
    alphabet plus PAD.
    """
    return EmbeddingMatrix(
        row_labels=table.row_labels,
        column_labels=ContextKeys(table.kind, table.symbols),
        values=table.counts,
        config=MethodConfig("ac", table.kind, "none", table.window_size),
        table=table,
    )


def build_aa(table: OccurrenceTable) -> EmbeddingMatrix:
    """Activity-activity matrix.

    AA(a, b) sums #(a, c) + #(b, c) over the distinct contexts c that both
    activities occur with; the diagonal is twice the activity's context
    mass. The values are the table's cached read-only
    :attr:`~OccurrenceTable.aa_counts`, computed once per table.
    """
    return EmbeddingMatrix(
        row_labels=table.row_labels,
        column_labels=table.row_labels,
        values=table.aa_counts,
        config=MethodConfig("aa", table.kind, "none", table.window_size),
        table=table,
    )


def column_headers(matrix: EmbeddingMatrix, alphabet: Alphabet) -> list[str]:
    """The rendered column labels: activity labels (AA) or context labels (AC)."""
    if isinstance(matrix.column_labels, ContextKeys):
        symbols = matrix.column_labels.symbols
        if symbols.size and symbols.max() > len(alphabet):
            raise ParameterError(f"unknown activity id {symbols.max()}")
        labels = (PAD_LABEL,) + alphabet.labels()
        kind = matrix.column_labels.kind
        return [_render_labels([labels[s] for s in row], kind) for row in symbols.tolist()]
    return [alphabet.label_of(label) for label in matrix.column_labels]


_ZERO = format(0, ".17g")


def _stored_cells(values: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of ``values`` as a CSR matrix whose rows
    have sorted, unique column indices.

    Each stored cell holds what ``toarray`` puts there: the cell's entries
    added onto zero in storage order, so a stored ``-0.0`` reads ``0.0``.
    """
    csr = values.tocsr()
    if csr.has_canonical_format:
        return csr.indptr, csr.indices, csr.data + 0  # 0 + -0.0 is 0.0
    n_rows, n_cols = csr.shape
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(csr.indptr))
    keys, inverse = np.unique(rows * n_cols + csr.indices, return_inverse=True)
    data = np.zeros(len(keys), dtype=csr.dtype)
    with np.errstate(all="ignore"):  # as toarray, add inf and -inf silently
        np.add.at(data, inverse, csr.data)
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    return indptr, keys % n_cols, data


def _write_matrix_csv(
    target: IO[str] | str | Path,
    column_labels: list[str],
    row_labels: list[str],
    values: "np.ndarray | sparse.spmatrix",
) -> None:
    """Write an ``activity`` header over the column labels, then each row
    label followed by its row of ``values``.

    Cells are formatted with 17 significant digits so floats round-trip.
    A sparse matrix is never densified: each row starts as zero strings
    and only its stored cells are formatted.
    """
    with open_output(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["activity"] + column_labels)
        if not sparse.issparse(values):
            for label, row in zip(row_labels, values):
                writer.writerow([label] + [format(v, ".17g") for v in row.tolist()])
            return
        indptr, indices, data = _stored_cells(values)
        bounds = indptr.tolist()
        for i, label in enumerate(row_labels):
            lo, hi = bounds[i], bounds[i + 1]
            cells = [label] + [_ZERO] * values.shape[1]
            for j, v in zip(indices[lo:hi].tolist(), data[lo:hi].tolist()):
                cells[j + 1] = format(v, ".17g")
            writer.writerow(cells)


def write_embedding_csv(
    matrix: EmbeddingMatrix, alphabet: Alphabet, target: IO[str] | str | Path
) -> None:
    """Write the matrix with an ``activity`` label column and rendered headers.

    Values are formatted with 17 significant digits so floats round-trip.
    """
    _write_matrix_csv(
        target,
        column_headers(matrix, alphabet),
        [alphabet.label_of(aid) for aid in matrix.row_labels],
        matrix.values,
    )


def dimension_bound(alphabet_size: int, window_size: int) -> int:
    """Upper bound on the number of distinct contexts: (|A|+1)^(n-1)."""
    return (alphabet_size + 1) ** (window_size - 1)
