"""Pairwise similarities: cosine over embedding rows, substitution scores over AA counts."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .contexts import ContextKind, OccurrenceTable
from .errors import ParameterError
from .log import Alphabet, csv_line, write_json
from .matrices import EmbeddingMatrix, MethodConfig, _write_matrix_csv, build_aa
from .weighting import _log_ratios, stored_values


@dataclass(frozen=True, eq=False)
class PairwiseSimilarity:
    """Square symmetric similarity matrix over occurring activities.

    ``flavor`` is "cosine" (values in [-1, 1], distances are 1 - s) or
    "substitution" (log-ratio scores used directly as similarities).
    """

    labels: tuple[int, ...]
    values: np.ndarray
    flavor: str
    config: MethodConfig

    def distance_matrix(self) -> np.ndarray:
        if self.flavor != "cosine":
            raise ParameterError("distances are defined for the cosine flavor only")
        return 1.0 - self.values


def _gram(matrix: EmbeddingMatrix) -> np.ndarray:
    """The float64 Gram matrix of the embedding rows.

    A sparse matrix whose table has a pair plan, and whose values are known
    to lie on the table's pattern (:func:`~actsim.weighting.stored_values`),
    sums each cell's products over the plan: in ascending column order from
    +0.0, as scipy's sparse product, so the bits are the same (a cell that
    weighting dropped adds a ±0.0 product, which leaves the sum unchanged).
    Any other matrix takes ``x @ x.T``.
    """
    values, table = matrix.values, matrix.table
    plan = table.pair_plan if table is not None and sparse.issparse(values) else None
    stored = None if plan is None else stored_values(matrix)
    if stored is None:
        x = values.astype(np.float64)
        gram = x @ x.T
        return gram.toarray() if sparse.issparse(gram) else gram
    squares = np.bincount(plan.rows, weights=stored * stored, minlength=values.shape[0])
    return plan.symmetric(squares, stored[plan.left] * stored[plan.right])


def pairwise_distance_matrix(matrix: EmbeddingMatrix) -> PairwiseSimilarity:
    """All-pairs cosine similarities of the embedding rows: a stack of one
    for :func:`_similarities`.

    The Gram matrix is computed once in float64 and normalized by
    :func:`_normalize`.
    """
    return PairwiseSimilarity(
        labels=matrix.row_labels, values=_similarities([matrix])[0], flavor="cosine",
        config=matrix.config,
    )


def _similarities(built: Sequence["EmbeddingMatrix | PairwiseSimilarity"]) -> np.ndarray:
    """The (C, n, n) similarities of ``built``, which share their rows, in
    order: the embeddings are compared by cosine, and a score matrix
    (substitution) is its own.

    Each Gram is written into its slot of the stack, and the slots from the
    first embedding to the last are normalized in place; a score slot among
    them stays zero until the scores are copied in after. Every step after
    the Grams is elementwise, so a matrix gets the same bits in a stack of
    any size.
    """
    cosine = [slot for slot, item in enumerate(built) if isinstance(item, EmbeddingMatrix)]
    n = built[0].values.shape[0]
    stack = np.zeros((len(built), n, n))
    for slot in cosine:
        stack[slot] = _gram(built[slot])
    _normalize(stack[cosine[0] : cosine[-1] + 1] if cosine else stack[:0])
    for slot, item in enumerate(built):
        if isinstance(item, PairwiseSimilarity):
            stack[slot] = item.values
    return stack


def _normalize(sims: np.ndarray) -> None:
    """Turn the (C, n, n) Grams ``sims`` into cosine similarities, in place.

    Cells with an exact Cauchy-Schwarz equality (G(a,b)^2 = G(a,a) G(b,b),
    proportional rows) are snapped to s = +/-1, so identical rows get
    distance 0.0 exactly; a zero row has similarity 0 to every other row
    and 1 to another zero row. The test needs G(a,a) G(b,b) to be a normal
    float: where it underflows or overflows, so does G(a,b)^2, and the two
    compare equal for rows that are not proportional.
    """
    n = sims.shape[-1]
    diag = np.diagonal(sims, axis1=1, axis2=2).copy()
    with np.errstate(over="ignore"):
        products = diag[:, :, None] * diag[:, None, :]
        exact = sims * sims == products
    exact &= (products >= np.finfo(np.float64).tiny) & (products <= np.finfo(np.float64).max)
    norms = np.sqrt(diag)
    outer = norms[:, :, None] * norms[:, None, :]
    positive = outer > 0.0
    exact &= positive
    signs = np.sign(sims[exact])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(sims, outer, out=sims, where=positive)
    sims[~positive] = 0.0
    sims[exact] = signs
    zero = norms == 0.0
    sims[zero[:, :, None] & zero[:, None, :]] = 1.0
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[:, np.arange(n), np.arange(n)] = 1.0


def substitution_scores(table: OccurrenceTable) -> PairwiseSimilarity:
    """Log-odds substitution scores from sequence-context AA counts.

    SS(a, b) = ln((AA(a,b)/N) / (2 p(a) p(b))) for a != b and
    ln((AA(a,a)/N) / (p(a)^2)) on the diagonal; cells with AA(a,b) = 0
    score 0. Requires a sequence-kind table.
    """
    if table.kind is not ContextKind.SEQUENCE:
        raise ParameterError("substitution scores are defined over sequence contexts only")
    aa = build_aa(table)
    totals = table.row_totals.astype(np.float64)
    expected = np.outer(totals, totals) * 2.0
    np.fill_diagonal(expected, totals * totals)
    return PairwiseSimilarity(
        labels=aa.row_labels,
        values=_log_ratios(aa.values, float(table.total_events), expected),
        flavor="substitution",
        config=MethodConfig("substitution", table.kind, "none", table.window_size),
    )


def write_distance_csv(
    sim: PairwiseSimilarity, alphabet: Alphabet, target: str | Path
) -> None:
    """Write the square matrix plus a ``<name>.meta.json`` sidecar.

    Cosine flavor writes distances (1 - s); substitution flavor writes
    the raw scores. The sidecar records the flavor and the config echo so
    a reader never has to guess what the numbers mean.
    """
    path = Path(target)
    cells = sim.distance_matrix() if sim.flavor == "cosine" else sim.values
    labels = alphabet.labels_of(sim.labels).tolist()
    _write_matrix_csv(path, [csv_line(["activity"] + labels)], labels, cells)
    meta = dict(
        sim.config.echo(),
        schema=1,
        flavor=sim.flavor,
        cells="distance" if sim.flavor == "cosine" else "score",
        activities=labels,
    )
    meta_path = path.with_name(path.stem + ".meta.json")
    write_json(meta, meta_path)
