import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from actsim import (
    EmbeddingMatrix,
    MethodConfig,
    ParameterError,
    apply_ppmi,
    apply_weighting,
    build_ac,
    build_aa,
    extract_occurrences,
    log_from_label_traces,
    pairwise_distance_matrix,
    substitution_scores,
    write_distance_csv,
)
from actsim import contexts, similarity
from actsim.contexts import ContextKind, OccurrenceTable
from actsim.similarity import _gram, _similarities
from reference import dense, naive_cosine_distance, naive_similarity_matrix, sim_cell, two_copy_cosine
from synthetic_logs import random_small_log, structured_log, worked_log
from test_matrices import FOUR_TRACE


coordinates = st.one_of(st.integers(-9, 9).map(float), st.floats(-100, 100))


def two_row_distances(u, v):
    """The cosine distances ``pairwise_distance_matrix`` exports for the
    rows ``u`` and ``v`` of one two-row float embedding."""
    matrix = EmbeddingMatrix(
        row_labels=(1, 2),
        column_labels=tuple(range(len(u))),
        values=np.array([u, v], dtype=np.float64),
        config=MethodConfig("aa", ContextKind.SEQUENCE, "none", 3),
    )
    return pairwise_distance_matrix(matrix).distance_matrix()


# (u, v, distance, abs tolerance). Rows c and d of the worked AC matrix share
# one context with count 5 vs 1: 1 - 1/sqrt(27) = 0.80755. One all-zero row
# is at distance 1, two are at 0. The last two pairs are not proportional,
# but their Gram cells square to 0 or to inf.
TWO_ROWS = {
    "worked": ([0, 0, 5, 0, 0, 0, 0], [0, 0, 1, 5, 0, 1, 0], 1 - 5 / (5 * math.sqrt(27)), 1e-12),
    "identical": ([1, 2, 3], [2, 4, 6], 0.0, 1e-12),
    "one_zero": ([0, 0], [1, 2], 1.0, 0.0),
    "both_zero": ([0, 0], [0, 0], 0.0, 0.0),
    "opposite": ([1.0, 0.0], [-1.0, 0.0], 2.0, 1e-12),
    "tiny": ([1e-155, 1e-155], [1e-155, -2e-155], 1 + 1 / math.sqrt(10), 1e-12),
    "huge": ([1e100, 1e100], [1e100, -2e100], 1 + 1 / math.sqrt(10), 1e-12),
}


class TestCosineDistance:
    @pytest.mark.parametrize("u, v, distance, tolerance", TWO_ROWS.values(), ids=TWO_ROWS)
    def test_two_rows(self, u, v, distance, tolerance):
        distances = two_row_distances(u, v)
        assert distances[0, 1] == distances[1, 0] == pytest.approx(distance, rel=0, abs=tolerance)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(coordinates, min_size=1, max_size=6).flatmap(lambda u: st.tuples(
            st.just(u),
            st.one_of(
                st.lists(coordinates, min_size=len(u), max_size=len(u)),
                st.integers(-3, 3).map(lambda c: [c * x for x in u]),  # proportional or zero
                st.floats(-3, 3).map(lambda c: [c * x for x in u]),
            ),
        ))
    )
    @example(([1.0, -3.0], [-1.0, 3.0]))  # 1.9999999999999998 by norms alone
    @example(([0.0, 0.0], [0.0, 0.0]))
    @example(([0.0, 0.0], [1.0, 2.0]))
    @example(([3e-160, 1e-160], [1e-160, 2e-160]))  # every Gram cell is subnormal
    def test_is_the_distance_the_matrix_exports(self, pair):
        u, v = pair
        distances = two_row_distances(u, v)
        naive = naive_cosine_distance(u, v)
        assert distances[0, 1] == distances[1, 0] == pytest.approx(naive, rel=0, abs=1e-12)


class TestPairwise:
    def test_matches_brute_force_on_counts(self):
        rng = random.Random(21)
        for _ in range(20):
            log = random_small_log(rng)
            table = extract_occurrences(log, rng.randint(2, 4), rng.choice(["mset", "seq"]))
            ac = build_ac(table)
            sim = pairwise_distance_matrix(ac)
            expected = np.array(naive_similarity_matrix(dense(ac).tolist()))
            assert np.allclose(sim.values, expected, atol=1e-12)

    def test_matches_brute_force_on_pmi(self):
        rng = random.Random(22)
        for _ in range(10):
            log = random_small_log(rng)
            table = extract_occurrences(log, 3, "mset")
            weighted = apply_weighting(build_ac(table), table, "pmi")
            sim = pairwise_distance_matrix(weighted)
            expected = np.array(naive_similarity_matrix(dense(weighted).tolist()))
            assert np.allclose(sim.values, expected, atol=1e-12)

    def test_diagonal_and_symmetry(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        sim = pairwise_distance_matrix(build_ac(table))
        assert np.array_equal(sim.values, sim.values.T)
        assert np.all(np.diag(sim.values) == 1.0)
        assert np.all(sim.values >= -1.0) and np.all(sim.values <= 1.0)

    def test_worked_cell(self):
        log = worked_log()
        sim = pairwise_distance_matrix(build_ac(extract_occurrences(log, 3, "mset")))
        c, d = log.alphabet.id_of("c"), log.alphabet.id_of("d")
        assert 1.0 - sim_cell(sim, c, d) == pytest.approx(1 - 5 / (5 * math.sqrt(27)), abs=1e-12)

    def test_row_scaling_invariance(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        ac = build_ac(table)
        scaled = EmbeddingMatrix(
            row_labels=ac.row_labels,
            column_labels=ac.column_labels,
            values=dense(ac) * np.array([1.0, 3.0, 0.5, 7.0, 2.0])[:, None],
            config=ac.config,
        )
        a = pairwise_distance_matrix(ac).values
        b = pairwise_distance_matrix(scaled).values
        assert np.allclose(a, b, atol=1e-12)

    def test_identical_rows_snap_to_distance_zero(self):
        values = np.array([[3, 7, 2], [3, 7, 2], [1, 0, 0]], dtype=np.int64)
        matrix = EmbeddingMatrix(
            row_labels=(1, 2, 3),
            column_labels=(1, 2, 3),
            values=values,
            config=MethodConfig("aa", ContextKind.SEQUENCE, "none", 3),
        )
        sim = pairwise_distance_matrix(matrix)
        assert sim.values[0, 1] == 1.0
        assert sim.distance_matrix()[0, 1] == 0.0


    @pytest.mark.parametrize("kind", ["mset", "seq"])
    @pytest.mark.parametrize("window", [3, 5])
    def test_one_float_copy_keeps_the_bits(self, kind, window):
        # The benchmark's W1 log: AC raw, PMI and PPMI (sparse, through the
        # table's pair plan) and AA (dense).
        table = extract_occurrences(structured_log(7, 2000, 20), window, kind)
        assert table.pair_plan is not None
        ac = build_ac(table)
        pmi = apply_weighting(ac, table, "pmi")
        for matrix in (ac, pmi, apply_ppmi(ac, table), build_aa(table)):
            sims = pairwise_distance_matrix(matrix).values
            assert sims.tobytes() == two_copy_cosine(matrix.values).tobytes()
            if sparse.issparse(matrix.values):
                assert _gram(matrix).tobytes() == scipy_gram(matrix.values).tobytes()


def scipy_gram(values):
    """The Gram matrix of a sparse matrix's rows by scipy's sparse product."""
    x = values.astype(np.float64)
    return (x @ x.T).toarray()


def count_table(cells):
    """An occurrence table over the count matrix ``cells``, one window-2
    context per column. A row or column without a count gets one, as every
    activity and context of an extracted table occurs."""
    dense = np.array(cells, dtype=np.int64)
    n_rows, n_cols = dense.shape
    for i in np.flatnonzero(~dense.any(axis=1)):
        dense[i, i % n_cols] = 1
    for j in np.flatnonzero(~dense.any(axis=0)):
        dense[j % n_rows, j] = 1
    counts = sparse.csr_matrix(dense)
    return OccurrenceTable(
        window_size=2,
        kind=ContextKind.SEQUENCE,
        symbols=np.arange(n_cols, dtype=np.int64).reshape(-1, 1),
        counts=counts,
        row_labels=tuple(range(1, n_rows + 1)),
        row_totals=dense.sum(axis=1),
        context_totals=dense.sum(axis=0),
        total_events=int(dense.sum()),
    )


count_matrices = st.integers(1, 7).flatmap(
    lambda n_cols: st.lists(
        st.lists(st.integers(0, 4), min_size=n_cols, max_size=n_cols), min_size=1, max_size=7
    )
)


@settings(max_examples=300, deadline=None)
@given(count_matrices)
@example([[1, 1], [1, 1]])  # every PMI cell is exactly 0
@example([[0, 1, 1], [1, 1, 2]])  # positive, negative and exactly 0 PMI
@example([[3, 1, 0, 2], [3, 1, 0, 2], [0, 1, 4, 1]])  # tied rows
@example([[2, 1, 3]])  # one row
@example([[1], [4], [2]])  # one column
def test_pair_plan_keeps_the_bits(cells):
    table = count_table(cells)
    assert table.pair_plan is not None
    ac = build_ac(table)
    matrices = (ac, apply_weighting(ac, table, "pmi"), apply_ppmi(ac, table))
    # A copy of the values is not known to lie on the pattern: scipy's product.
    copies = tuple(replace(matrix, values=matrix.values.copy()) for matrix in matrices)
    for matrix in matrices + copies:
        gram = _gram(matrix)
        assert gram.tobytes() == scipy_gram(matrix.values).tobytes()
        assert gram.tobytes() == _gram(replace(matrix, table=None)).tobytes()
        sims = pairwise_distance_matrix(matrix).values
        assert sims.tobytes() == two_copy_cosine(matrix.values).tobytes()


@settings(max_examples=200, deadline=None)
@given(count_matrices)
@example([[1, 1], [1, 1]])  # every PMI cell is 0: PMI and PPMI rows are zero
@example([[0, 1, 1], [1, 1, 2]])  # negative PMI cells
@example([[3, 1, 0, 2], [3, 1, 0, 2], [0, 1, 4, 1]])  # proportional rows
@example([[1, 0], [0, 1], [1, 1], [2, 1]])  # four rows: every hand-built case
def test_stacked_cosines_equal_one_at_a_time(cells):
    # One table's AC (raw, PMI, PPMI) and AA, and a hand-built embedding with
    # a zero row, a row of -2.5 times another and a row whose squares
    # underflow, normalized as one stack; the substitution scores are copied
    # into their slot untouched.
    table = count_table(cells)
    ac = build_ac(table)
    n = ac.shape[0]
    rows = np.arange(n * 3, dtype=np.float64).reshape(n, 3) - 4.0
    rows[0] = 0.0
    if n > 2:
        rows[-1] = -2.5 * rows[1]
    if n > 3:
        rows[2] *= 1e-170  # a zero norm, but not zero products
    hand = EmbeddingMatrix(row_labels=ac.row_labels, column_labels=(1, 2, 3), values=rows,
                           config=ac.config)
    scores = substitution_scores(table)
    pmi = apply_weighting(ac, table, "pmi")
    built = [ac, pmi, scores, apply_ppmi(ac, table), build_aa(table), hand]
    stacked = _similarities(built)
    assert stacked.shape == (len(built), n, n)
    assert stacked[2].tobytes() == scores.values.tobytes()
    for matrix, values in zip(built, stacked):
        if matrix is scores:
            continue
        sim = pairwise_distance_matrix(matrix)
        alone = sim.values
        assert np.array_equal(values, alone)
        assert np.array_equal(np.signbit(values), np.signbit(alone))
        assert values.tobytes() == two_copy_cosine(matrix.values).tobytes()
        assert (sim.labels, sim.flavor, sim.config) == (matrix.row_labels, "cosine", matrix.config)
    hand_sims = stacked[-1]
    if n > 1:
        assert hand_sims[0, 1] == 0.0  # the zero row against a nonzero one
    if n > 2:
        assert hand_sims[1, -1] == hand_sims[-1, 1] == -1.0  # snapped
    if n > 3:
        assert hand_sims[0, 2] == 1.0 and hand_sims[2, 1] == 0.0  # two zero norms
    dense = table.counts.toarray()
    half = dense @ (dense > 0).T
    assert table.aa_counts.dtype == np.int64
    assert np.array_equal(table.aa_counts, half + half.T)


def test_wide_pair_plan_keeps_the_bits():
    # More stored counts than uint16 numbers, and more cells (300 x 300):
    # the plan's positions and cells are int32.
    rng = random.Random(5)
    traces = [[str(rng.randrange(300)) for _ in range(rng.randint(2, 6))] for _ in range(20_000)]
    table = extract_occurrences(log_from_label_traces(traces), 5, "seq")
    plan = table.pair_plan
    assert table.counts.nnz == 79_778 and plan is not None
    assert plan.left.dtype == plan.right.dtype == plan.cells.dtype == np.int32
    ac = build_ac(table)
    for matrix in (ac, apply_weighting(ac, table, "pmi"), apply_ppmi(ac, table)):
        assert _gram(matrix).tobytes() == scipy_gram(matrix.values).tobytes()
    half = (table.counts @ (table.counts > 0).T.astype(np.int64)).toarray()
    assert np.array_equal(table.aa_counts, half + half.T)


@settings(max_examples=100, deadline=None)
@given(count_matrices)
@example([[1, 1], [1, 1]])  # every PMI cell is exactly 0
@example([[0, 1, 1], [1, 1, 2]])  # negative cells
@example([[2, 1, 3]])  # one row
@example([[1], [4], [2]])  # one column
def test_ppmi_stores_the_clamped_pmi(cells):
    # PPMI's CSR is PMI's clamped at zero with the zeros removed: its
    # pattern, index dtypes and canonical flag, as scipy's maximum(0) gives.
    table = count_table(cells)
    ac = build_ac(table)
    pmi = apply_weighting(ac, table, "pmi").values
    clamped = pmi.copy()
    np.maximum(clamped.data, 0.0, out=clamped.data)
    clamped.eliminate_zeros()
    ppmi = apply_ppmi(ac, table).values
    for expected in (clamped, pmi.maximum(0)):
        for name in ("indptr", "indices", "data"):
            got, want = getattr(ppmi, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert ppmi.has_canonical_format == expected.has_canonical_format


def dense_weighting(counts, table, method, weighting):
    """PMI or PPMI of any AC (``method`` "ac") or AA count matrix over
    ``table``'s activities, cell by cell from the table's totals."""
    dense = counts.toarray() if sparse.issparse(counts) else counts
    row_tot = table.row_totals.astype(np.float64)
    expected = np.outer(row_tot, row_tot if method == "aa" else table.context_totals)
    out = np.zeros(dense.shape)
    mask = dense > 0
    out[mask] = np.log(dense[mask] * float(table.total_events) / expected[mask])
    return np.maximum(out, 0.0) if weighting == "ppmi" else out


@settings(max_examples=200, deadline=None)
@given(count_matrices, st.booleans())
@example([[0, 1, 1], [1, 1, 2]], True)  # negative cells, PPMI weighted first
@example([[0, 1, 1], [1, 1, 2]], False)
@example([[1, 1], [1, 1]], True)  # every PMI cell is exactly 0
def test_cached_weightings_keep_the_bits(cells, ppmi_first):
    # The PMI and PPMI CSRs a table hands out compare over its cached
    # log-ratios, in either order; other values under the same config,
    # table and labels take the general path.
    table = count_table(cells)
    ac = build_ac(table)
    for weighting in ("ppmi", "pmi") if ppmi_first else ("pmi", "ppmi"):
        matrix = apply_weighting(ac, table, weighting)
        assert apply_weighting(ac, table, weighting).values is matrix.values
        assert _gram(matrix).tobytes() == scipy_gram(matrix.values).tobytes()
        values = matrix.values.copy()
        values.data += 1.0
        moved = replace(matrix, values=values)
        assert _gram(moved).tobytes() == scipy_gram(values).tobytes()


@settings(max_examples=100, deadline=None)
@given(count_matrices, st.integers(0, 3))
@example([[0, 1, 1], [1, 1, 2]], 2)
def test_other_counts_are_weighted_from_their_own_values(cells, shift):
    # A raw matrix with the table's labels but not the table's own counts
    # array is weighted from its values, and leaves the table's cache alone.
    table = count_table(cells)
    for raw in (build_ac(table), build_aa(table)):
        method = raw.config.method
        if sparse.issparse(raw.values):
            other = raw.values.copy()
            other.data = other.data + shift
        else:
            other = raw.values + shift * (raw.values > 0)
        for weighting in ("pmi", "ppmi"):
            own = apply_weighting(raw, table, weighting)
            got = apply_weighting(replace(raw, values=other), table, weighting)
            for matrix, counts in ((got, other), (own, raw.values)):
                want = dense_weighting(counts, table, method, weighting)
                assert dense(matrix).tobytes() == want.tobytes()
            assert apply_weighting(raw, table, weighting).values is own.values


class TestPairPlan:
    def test_one_pair_above_the_cap_gives_the_same_bytes(self, monkeypatch):
        table = extract_occurrences(structured_log(7, 300, 12), 3, "seq")
        pairs = len(table.pair_plan.cells)
        results = []
        for cap, planned in ((pairs, True), (pairs - 1, False)):
            monkeypatch.setattr(contexts, "_PAIR_CAP", cap)
            fresh = replace(table)  # no cached plan or counts
            assert (fresh.pair_plan is not None) is planned
            ac = build_ac(fresh)
            matrices = (ac, apply_weighting(ac, fresh, "pmi"), apply_ppmi(ac, fresh))
            results.append(
                [fresh.aa_counts.tobytes()]
                + [pairwise_distance_matrix(matrix).values.tobytes() for matrix in matrices]
            )
        assert results[0] == results[1]

    def test_hand_built_matrix_without_a_table(self):
        table = extract_occurrences(worked_log(), 3, "seq")
        weighted = apply_weighting(build_ac(table), table, "pmi")
        hand_built = EmbeddingMatrix(
            weighted.row_labels, weighted.column_labels, weighted.values, weighted.config
        )
        assert hand_built.table is None
        assert weighted.table is table
        expected = pairwise_distance_matrix(weighted).values
        assert pairwise_distance_matrix(hand_built).values.tobytes() == expected.tobytes()

    def test_values_off_the_pattern_take_the_sparse_product(self):
        # A stored cell the table never counted, and a CSC matrix.
        table = extract_occurrences(worked_log(), 3, "seq")
        ac = build_ac(table)
        cells = dense(ac).astype(np.float64)
        cells[0, np.flatnonzero(cells[0] == 0)[0]] = 2.5
        for values in (sparse.csr_matrix(cells), ac.values.tocsc()):
            matrix = replace(ac, values=values)
            assert _gram(matrix).tobytes() == scipy_gram(values).tobytes()

class TestSubstitution:
    def test_worked_values(self):
        log = worked_log()
        table = extract_occurrences(log, 3, "seq")
        ss = substitution_scores(table)
        d = log.alphabet.id_of("d")
        c = log.alphabet.id_of("c")
        a = log.alphabet.id_of("a")
        e = log.alphabet.id_of("e")
        # AA_seq(d,d)=14, #(d)=7, N=30 -> ln((14/30)/(7/30)^2) = ln(60/7).
        assert sim_cell(ss, d, d) == pytest.approx(math.log(60 / 7), abs=1e-12)
        assert sim_cell(ss, d, d) == pytest.approx(2.1484, abs=1e-3)
        # c's only sequence context <b,d> is shared with nobody, so the cell is empty.
        assert sim_cell(ss, c, d) == 0.0
        assert sim_cell(ss, a, e) == 0.0

    def test_four_trace_off_diagonal(self):
        log = log_from_label_traces(FOUR_TRACE)
        ss = substitution_scores(extract_occurrences(log, 3, "seq"))
        b, c = log.alphabet.id_of("b"), log.alphabet.id_of("c")
        # AA_seq(b,c)=2, #(b)=2, #(c)=3, N=19 -> ln(2*19/(2*2*3)).
        assert sim_cell(ss, b, c) == pytest.approx(math.log(2 * 19 / 12), abs=1e-12)

    def test_symmetric(self):
        ss = substitution_scores(extract_occurrences(worked_log(), 3, "seq"))
        assert np.array_equal(ss.values, ss.values.T)

    def test_multiset_table_rejected(self):
        with pytest.raises(ParameterError):
            substitution_scores(extract_occurrences(worked_log(), 3, "mset"))

    def test_no_distances_for_scores(self):
        ss = substitution_scores(extract_occurrences(worked_log(), 3, "seq"))
        with pytest.raises(ParameterError):
            ss.distance_matrix()

    def test_flavor_and_provenance(self):
        ss = substitution_scores(extract_occurrences(worked_log(), 3, "seq"))
        assert ss.flavor == "substitution"
        assert ss.config.method == "substitution"


class TestExport:
    def test_distance_csv_and_sidecar(self, tmp_path):
        log = worked_log()
        sim = pairwise_distance_matrix(build_ac(extract_occurrences(log, 3, "mset")))
        out = tmp_path / "distances.csv"
        write_distance_csv(sim, log.alphabet, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "activity,a,b,c,d,e"
        first = lines[1].split(",")
        assert first[0] == "a" and float(first[1]) == 0.0
        meta = (tmp_path / "distances.meta.json").read_text()
        assert '"flavor": "cosine"' in meta
        assert '"cells": "distance"' in meta

    def test_substitution_csv_writes_scores(self, tmp_path):
        log = worked_log()
        ss = substitution_scores(extract_occurrences(log, 3, "seq"))
        out = tmp_path / "scores.csv"
        write_distance_csv(ss, log.alphabet, out)
        d_row = out.read_text().splitlines()[4].split(",")
        assert d_row[0] == "d"
        assert float(d_row[4]) == pytest.approx(math.log(60 / 7), abs=1e-12)
        assert '"cells": "score"' in (tmp_path / "scores.meta.json").read_text()


def test_an_alphabet_too_wide_for_a_dense_matrix_is_refused(monkeypatch):
    # worked_log's 5 activities need 7 n x n matrices of 200 bytes. Cosine is
    # refused before its stack or any Gram, substitution before its counts.
    table = extract_occurrences(worked_log(), 3, "seq")
    ac = build_ac(table)
    expected = pairwise_distance_matrix(ac).values.tobytes()

    def refused(_):
        raise AssertionError("a Gram")

    gram = similarity._gram
    monkeypatch.setattr(contexts, "_DENSE_BYTES_CAP", 1399)
    monkeypatch.setattr(similarity, "_gram", refused)
    fresh = extract_occurrences(worked_log(), 3, "seq")
    for compare in (lambda: pairwise_distance_matrix(ac), lambda: substitution_scores(fresh)):
        with pytest.raises(ParameterError, match="^5 activities need 1400 bytes for 7 "):
            compare()
    monkeypatch.setattr(similarity, "_gram", gram)
    monkeypatch.setattr(contexts, "_DENSE_BYTES_CAP", 1400)
    assert pairwise_distance_matrix(ac).values.tobytes() == expected
    assert substitution_scores(fresh).values.tobytes() == substitution_scores(table).values.tobytes()
