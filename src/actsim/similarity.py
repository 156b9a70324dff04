"""Pairwise similarities: cosine over embedding rows, substitution scores over AA counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .contexts import ContextKind, OccurrenceTable
from .errors import ParameterError
from .log import Alphabet, write_json
from .matrices import EmbeddingMatrix, MethodConfig, _write_matrix_csv, build_aa
from .weighting import _log_ratios


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

    def index_of(self, activity_id: int) -> int:
        try:
            return self.labels.index(activity_id)
        except ValueError:
            raise ParameterError(f"activity id {activity_id} has no row") from None

    def similarity(self, a: int, b: int) -> float:
        return float(self.values[self.index_of(a), self.index_of(b)])

    def distance_matrix(self) -> np.ndarray:
        if self.flavor != "cosine":
            raise ParameterError("distances are defined for the cosine flavor only")
        return 1.0 - self.values


def cosine_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine distance 1 - (u.v)/(|u||v|) with the zero-vector convention.

    Exactly one all-zero vector gives distance 1; two all-zero vectors
    give distance 0. Vectors must have equal positive length and finite
    entries.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape or u.size == 0:
        raise ParameterError(
            f"expected two equal-length non-empty vectors, got shapes {u.shape} and {v.shape}"
        )
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ParameterError("vectors must be finite")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return 1.0
    s = float(u @ v) / (nu * nv)
    return 1.0 - max(-1.0, min(1.0, s))


def _on_pattern(values: sparse.spmatrix, counts: sparse.csr_matrix) -> "np.ndarray | None":
    """The float64 entries of ``values`` at the storage positions of
    ``counts``, 0.0 where ``values`` stores none; None unless ``values`` is
    a CSR matrix whose sorted, unique cells all lie on that pattern."""
    if values.format != "csr" or values.shape != counts.shape:
        return None
    data = values.data.astype(np.float64)
    if np.array_equal(values.indptr, counts.indptr) and np.array_equal(
        values.indices, counts.indices
    ):
        return data
    n_cols = counts.shape[1]
    own, theirs = (
        np.repeat(np.arange(m.shape[0]) * n_cols, np.diff(m.indptr)) + m.indices
        for m in (counts, values)
    )
    at = np.searchsorted(own, theirs)
    if len(at) and (
        at[-1] >= len(own) or (np.diff(at) <= 0).any() or (own[at] != theirs).any()
    ):
        return None
    stored = np.zeros(len(own))
    stored[at] = data
    return stored


def _gram(matrix: EmbeddingMatrix) -> np.ndarray:
    """The float64 Gram matrix of the embedding rows.

    A sparse matrix whose table has a pair plan places its values on the
    table's pattern and sums each cell's products over the plan: in
    ascending column order from +0.0, as scipy's sparse product, so the
    bits are the same (a cell that weighting dropped adds a 0.0 product,
    which leaves the sum unchanged). Any other matrix takes ``x @ x.T``.
    """
    values, table = matrix.values, matrix.table
    plan = table.pair_plan if table is not None and sparse.issparse(values) else None
    stored = None if plan is None else _on_pattern(values, table.counts)
    if stored is None:
        x = values.astype(np.float64)
        gram = x @ x.T
        return gram.toarray() if sparse.issparse(gram) else gram
    squares = np.bincount(plan.rows, weights=stored * stored, minlength=values.shape[0])
    return plan.symmetric(squares, stored[plan.left] * stored[plan.right])


def pairwise_distance_matrix(matrix: EmbeddingMatrix) -> PairwiseSimilarity:
    """All-pairs cosine similarities of the embedding rows.

    The Gram matrix is computed once in float64. Rows with an exact
    Cauchy-Schwarz equality (G(a,b)^2 = G(a,a) G(b,b), proportional rows)
    are snapped to s = +/-1 so identical rows get distance 0.0 exactly;
    zero rows follow the cosine_distance convention.
    """
    gram = _gram(matrix)
    diag = np.diag(gram).copy()
    norms = np.sqrt(diag)
    outer = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(outer > 0.0, gram / np.where(outer > 0.0, outer, 1.0), 0.0)
    exact = (gram * gram == np.outer(diag, diag)) & (outer > 0.0)
    sims[exact] = np.sign(gram[exact])
    zero = norms == 0.0
    sims[np.ix_(zero, zero)] = 1.0
    np.clip(sims, -1.0, 1.0, out=sims)
    np.fill_diagonal(sims, 1.0)
    return PairwiseSimilarity(
        labels=matrix.row_labels,
        values=sims,
        flavor="cosine",
        config=matrix.config,
    )


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
    _write_matrix_csv(path, labels, labels, cells)
    meta = dict(
        sim.config.echo(),
        schema=1,
        flavor=sim.flavor,
        cells="distance" if sim.flavor == "cosine" else "score",
        activities=labels,
    )
    meta_path = path.with_name(path.stem + ".meta.json")
    write_json(meta, meta_path)
