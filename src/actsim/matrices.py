"""Count matrices over an occurrence table: activity-activity and activity-context."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np
from scipy import sparse

from .contexts import ContextKey, ContextKeys, ContextKind, OccurrenceTable
from .errors import ParameterError
from .log import Alphabet, open_output


@dataclass(frozen=True)
class Provenance:
    """How a matrix was produced; checked before weighting is applied."""

    method: str  # "aa" | "ac" | "substitution"
    kind: ContextKind
    window_size: int
    weighting: str  # "none" | "pmi" | "ppmi"


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Rows are activities; columns are activities (AA) or contexts (AC).

    ``values`` is a dense ndarray for AA and a scipy CSR matrix for AC;
    treat it as read-only. ``row_labels`` lists the occurring activity
    ids ascending, so every activity with at least one event has a row.
    ``column_labels`` are activity ids (AA) or a :class:`ContextKeys`
    view (AC).
    """

    row_labels: tuple[int, ...]
    column_labels: Union[tuple[int, ...], Sequence[ContextKey]]
    values: "np.ndarray | sparse.csr_matrix"
    provenance: Provenance

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

    def row_index(self) -> dict[int, int]:
        return {aid: i for i, aid in enumerate(self.row_labels)}


def _activities(table: OccurrenceTable) -> tuple[int, ...]:
    activities = table.activities()
    if not activities:
        raise ParameterError("occurrence table has no activities")
    return tuple(activities)


def build_ac(table: OccurrenceTable) -> EmbeddingMatrix:
    """Activity-context matrix: AC(a, c) = #(a, c), stored sparse.

    The values are the table's own CSR counts, not a copy. Column order is
    the table's context interning order, and the column labels are a lazy
    view over its symbol array; the dimension is bounded by
    (|A|+1)^(n-1) since each context has n-1 symbol slots over the
    alphabet plus PAD.
    """
    return EmbeddingMatrix(
        row_labels=_activities(table),
        column_labels=ContextKeys(table.kind, table.symbols),
        values=table.counts,
        provenance=Provenance("ac", table.kind, table.window_size, "none"),
    )


def build_aa(table: OccurrenceTable) -> EmbeddingMatrix:
    """Activity-activity matrix.

    AA(a, b) sums #(a, c) + #(b, c) over the distinct contexts c that both
    activities occur with; the diagonal is twice the activity's context
    mass. The values are the table's cached read-only
    :attr:`~OccurrenceTable.aa_counts`, computed once per table.
    """
    activities = _activities(table)
    return EmbeddingMatrix(
        row_labels=activities,
        column_labels=activities,
        values=table.aa_counts,
        provenance=Provenance("aa", table.kind, table.window_size, "none"),
    )


def column_headers(matrix: EmbeddingMatrix, alphabet: Alphabet) -> list[str]:
    headers: list[str] = []
    for label in matrix.column_labels:
        if isinstance(label, ContextKey):
            headers.append(label.render(alphabet))
        else:
            headers.append(alphabet.label_of(label))
    return headers


def write_embedding_csv(
    matrix: EmbeddingMatrix, alphabet: Alphabet, target: IO[str] | str | Path
) -> None:
    """Write the matrix with an ``activity`` label column and rendered headers.

    Values are formatted with 17 significant digits so floats round-trip.
    """
    with open_output(target) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["activity"] + column_headers(matrix, alphabet))
        dense = matrix.dense()
        for i, aid in enumerate(matrix.row_labels):
            writer.writerow(
                [alphabet.label_of(aid)] + [format(v, ".17g") for v in dense[i]]
            )


def dimension_bound(alphabet_size: int, window_size: int) -> int:
    """Upper bound on the number of distinct contexts: (|A|+1)^(n-1)."""
    return (alphabet_size + 1) ** (window_size - 1)
