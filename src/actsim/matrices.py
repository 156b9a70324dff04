"""Count matrices over an occurrence table: activity-activity and activity-context,
each carrying the method config that made it."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from itertools import chain
from typing import IO, Iterable, Iterator

import numpy as np
from scipy import sparse

from .contexts import ContextKind, OccurrenceTable
from .errors import ParameterError
from .log import Alphabet, csv_field, csv_line, open_output


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
        return vars(ConfigEcho(self.method, self.kind.value, self.weighting, self.window))


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
    ``column_labels`` are activity ids (AA) or the table's ``(n_ctx, n-1)``
    :attr:`~OccurrenceTable.symbols` array, one row per context (AC).
    ``table`` is the table the matrix was built from, kept through
    weighting so cosine can use its pair plan; a hand-built matrix may
    leave it None.
    """

    row_labels: tuple[int, ...]
    column_labels: "tuple[int, ...] | np.ndarray"
    values: "np.ndarray | sparse.csr_matrix"
    config: MethodConfig
    table: "OccurrenceTable | None" = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def build_ac(table: OccurrenceTable) -> EmbeddingMatrix:
    """Activity-context matrix: AC(a, c) = #(a, c), stored sparse.

    The values are the table's own CSR counts, not a copy, and the column
    labels its symbol array, one row per context in interning order. The
    dimension is bounded by (|A|+1)^(n-1) since each context has n-1
    symbol slots over the alphabet plus PAD.
    """
    return EmbeddingMatrix(
        row_labels=table.row_labels,
        column_labels=table.symbols,
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


_BLOCK = 1 << 14  # contexts rendered at a time


def column_headers(matrix: EmbeddingMatrix, alphabet: Alphabet) -> list[str]:
    """The rendered column labels, read as ``matrix.config`` says: activity
    labels (AA), or one label per context row (AC), ``{x,y}`` for a
    multiset and ``<x,y>`` for a sequence, with PAD shown as ``__PAD__``.

    A multiset lists its labels sorted as strings, so its slots are
    ordered by the rank of their label, not by id. The AC labels are the
    header fields of :func:`write_embedding_csv`, read back.
    """
    if matrix.config.method != "ac":
        return alphabet.labels_of(matrix.column_labels).tolist()
    fields = "".join(chain.from_iterable(_context_slots(matrix, alphabet)))
    return next(csv.reader(io.StringIO(fields, newline="")), [""])[1:]


def _context_slots(matrix: EmbeddingMatrix, alphabet: Alphabet) -> Iterator[list[str]]:
    """The slots of an AC matrix's header fields, ``_BLOCK`` contexts at a
    time: each context's n-1 strings in turn, which joined make its label
    as a CSV field after a comma.

    Each slot is one string of a table of the n-1 places times the |A|+1
    names, with its punctuation, so a block is one gather from the table.
    A label of two or more slots holds a comma, so it is always quoted; a
    one-slot label is quoted exactly when :func:`~actsim.log.csv_field`
    quotes its name. A quoted label's ``"`` are doubled name by name. The
    ids are checked against the alphabet before the first block.
    """
    ids = matrix.column_labels
    if ids.size:  # an id outside the alphabet fails here as well
        alphabet.labels_of([ids.min(), ids.max()])
    names = alphabet.labels_of(np.arange(len(alphabet) + 1)).tolist()
    width = ids.shape[1]
    blocks = (ids[start : start + _BLOCK] for start in range(0, len(ids), _BLOCK))
    if matrix.config.kind is ContextKind.MULTISET:
        by_rank = np.argsort(names)
        rank = np.argsort(by_rank)
        blocks = (by_rank[np.sort(rank[block], axis=1)] for block in blocks)
        opening, closing = "{", "}"
    else:
        opening, closing = "<", ">"
    marks = ['"' if width > 1 or csv_field(name) != name else "" for name in names]
    last = width - 1
    table = [
        ("," + mark + opening if j == 0 else ",")
        + (name.replace('"', '""') if mark else name)
        + (closing + mark if j == last else "")
        for j in range(width)
        for name, mark in zip(names, marks)
    ]
    shift = np.arange(width) * len(names)  # slot j reads the j-th run of names
    return (list(map(table.__getitem__, (block + shift).ravel().tolist())) for block in blocks)


def _write_matrix_csv(
    target: IO[str] | str | Path,
    header: Iterable[str],
    row_labels: list[str],
    values: "np.ndarray | sparse.spmatrix",
) -> None:
    """Write the ``header`` line, given in pieces, then each row label
    followed by its row of ``values``.

    Cells are formatted with 17 significant digits so floats round-trip.
    Each label is written as its :func:`~actsim.log.csv_field`;
    a cell is a number, which never needs quoting, so each row's cells are
    written as one joined string. A canonical CSR matrix, as every matrix
    actsim builds, is never densified: each run of zeros between its
    stored cells is one ``",0" * gap`` and each stored value is formatted
    once, so the Python work follows the stored cells and the bytes
    written, not rows x columns. Any other sparse matrix (a CSC, or a CSR
    with duplicate or unsorted indices) is written from its ``toarray()``.
    """
    if sparse.issparse(values) and not (values.format == "csr" and values.has_canonical_format):
        values = values.toarray()
    rows = _stored_cells(values) if sparse.issparse(values) else _dense_cells(values)
    with open_output(target) as handle:
        handle.writelines(header)
        for label, cells in zip(row_labels, rows):
            # A label alone on its line is quoted as a one-field row.
            head = csv_field(label) if cells else csv_line([label])[:-1]
            handle.write(head + cells + "\n")


def _dense_cells(values: np.ndarray) -> Iterator[str]:
    """Each row's cells, each after a comma, by one ``%`` per row."""
    template = ",%.17g" * values.shape[1]
    for row in values:
        yield template % tuple(row.tolist())


def _stored_cells(values: sparse.csr_matrix) -> Iterator[str]:
    """Each row's cells of a canonical CSR, each after a comma, as what
    ``toarray`` would hold: a stored -0.0 is written ``0``.

    A row is one ``%`` over a template of its zero runs with a slot per
    stored value. Ints below 2**53 in magnitude are exact as floats, so
    ``%d`` writes them as the 17 significant digits would; any other value
    takes ``%.17g``.
    """
    data = values.data + 0  # 0 + -0.0 is 0.0
    exact = data.dtype.kind in "iu" and (
        not data.size or (-(2**53) < data.min() and data.max() < 2**53)
    )
    slot = ",%d" if exact else ",%.17g"
    cells, bounds, n_cols = data.tolist(), values.indptr.tolist(), values.shape[1]
    for lo, hi in zip(bounds, bounds[1:]):
        # The zeros before each stored cell and after the last one.
        gaps = (np.diff(values.indices[lo:hi], prepend=-1, append=n_cols) - 1).tolist()
        zeros = {gap: ",0" * gap for gap in set(gaps)}  # gaps repeat within a row
        yield slot.join(map(zeros.__getitem__, gaps)) % tuple(cells[lo:hi])


def write_embedding_csv(
    matrix: EmbeddingMatrix, alphabet: Alphabet, target: IO[str] | str | Path
) -> None:
    """Write the matrix with an ``activity`` label column and rendered headers.

    Values are formatted with 17 significant digits so floats round-trip.
    An AC header is rendered and written in blocks of contexts, so no
    string of the whole header is held.
    """
    if matrix.config.method == "ac":
        blocks = map("".join, _context_slots(matrix, alphabet))
        header = chain(["activity"], blocks, ["\n"])
    else:
        header = [csv_line(["activity"] + column_headers(matrix, alphabet))]
    _write_matrix_csv(
        target, header, alphabet.labels_of(matrix.row_labels).tolist(), matrix.values
    )

