import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from actsim import (
    ParameterError,
    apply_pmi,
    apply_ppmi,
    apply_weighting,
    build_aa,
    build_ac,
    extract_occurrences,
    generate_ground_truth_log,
    log_from_label_traces,
    substitution_scores,
)
from reference import dense, previous_dense_weighting, previous_substitution, row_index
from synthetic_logs import random_small_log, structured_log, worked_log


def worked_ac():
    log = worked_log()
    table = extract_occurrences(log, 3, "mset")
    return log, table, build_ac(table)


def cell(matrix, log, label, context_labels):
    row = row_index(matrix)[log.alphabet.id_of(label)]
    symbols = tuple(sorted(log.alphabet.id_of(l) if l != "__PAD__" else 0 for l in context_labels))
    col = next(i for i, ctx in enumerate(matrix.column_labels.tolist()) if tuple(ctx) == symbols)
    return dense(matrix)[row, col]


class TestPmiValues:
    def test_worked_negative_cell(self):
        log, table, ac = worked_ac()
        pmi = apply_pmi(ac, table)
        # #(d,{b,d})=1, #(d)=7, #({b,d})=6, N=30 -> ln((1/30)/((7/30)(6/30))) = ln(5/7)
        assert cell(pmi, log, "d", ("b", "d")) == pytest.approx(math.log(5 / 7), abs=1e-12)
        assert cell(pmi, log, "d", ("b", "d")) == pytest.approx(-0.3365, abs=5e-4)

    def test_worked_positive_cell(self):
        log, table, ac = worked_ac()
        pmi = apply_pmi(ac, table)
        # #(c,{b,d})=5 with #(c)=5 and #({b,d})=6 -> ln 5.
        assert cell(pmi, log, "c", ("b", "d")) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_zero_cells_stay_zero(self):
        _, table, ac = worked_ac()
        pmi = apply_pmi(ac, table)
        raw = dense(ac)
        weighted = dense(pmi)
        assert np.all(weighted[raw == 0] == 0.0)

    def test_aa_cell_by_direct_formula(self):
        log = worked_log()
        table = extract_occurrences(log, 3, "mset")
        aa = build_aa(table)
        pmi = apply_pmi(aa, table)
        c, d = log.alphabet.id_of("c"), log.alphabet.id_of("d")
        i, j = row_index(pmi)[c], row_index(pmi)[d]
        # AA(c,d)=6, #(c)=5, #(d)=7, N=30.
        assert pmi.values[i, j] == pytest.approx(math.log((6 / 30) / ((5 / 30) * (7 / 30))), abs=1e-12)

    def test_ppmi_is_clamped_pmi(self):
        rng = random.Random(5)
        for _ in range(15):
            log = random_small_log(rng)
            window = rng.randint(2, 4)
            kind = rng.choice(["mset", "seq"])
            table = extract_occurrences(log, window, kind)
            for build in (build_aa, build_ac):
                raw = build(table)
                pmi = dense(apply_pmi(raw, table))
                ppmi = dense(apply_ppmi(raw, table))
                assert np.allclose(ppmi, np.maximum(pmi, 0.0), atol=0.0)

    def test_worked_ppmi_clamps_negative_cell(self):
        log, table, ac = worked_ac()
        ppmi = apply_ppmi(ac, table)
        assert cell(ppmi, log, "d", ("b", "d")) == 0.0


def coo_pmi(table):
    """PMI of the raw AC counts through COO and a rebuilt CSR."""
    coo = table.counts.tocoo()
    row_tot = np.array([table.activity_totals[a] for a in table.row_labels], dtype=np.float64)
    col_tot = np.asarray(table.context_totals, dtype=np.float64)
    n = float(table.total_events)
    data = np.log(coo.data.astype(np.float64) * n / (row_tot[coo.row] * col_tot[coo.col]))
    out = sparse.csr_matrix((data, (coo.row, coo.col)), shape=coo.shape, dtype=np.float64)
    out.eliminate_zeros()
    return out


class TestOwnPattern:
    @pytest.fixture(scope="class")
    def sweep_logs(self):
        # The benchmark's W1 log, and one of its derived logs.
        log = structured_log(7, 2000, 20)
        return [log, generate_ground_truth_log(log, {1, 4, 9}, w=5, seed=11).log]

    @pytest.mark.parametrize("kind", ["mset", "seq"])
    @pytest.mark.parametrize("window", [3, 5])
    def test_pattern_and_bits_match_coo(self, sweep_logs, kind, window):
        for log in sweep_logs:
            table = extract_occurrences(log, window, kind)
            expected = coo_pmi(table)
            pmi = apply_pmi(build_ac(table), table).values
            assert np.array_equal(pmi.indptr, expected.indptr)
            assert np.array_equal(pmi.indices, expected.indices)
            assert np.array_equal(pmi.data.view(np.uint64), expected.data.view(np.uint64))
            ppmi = apply_ppmi(build_ac(table), table).values
            clamped = expected.copy()
            np.maximum(clamped.data, 0.0, out=clamped.data)
            clamped.eliminate_zeros()
            assert np.array_equal(ppmi.indptr, clamped.indptr)
            assert np.array_equal(ppmi.indices, clamped.indices)
            assert np.array_equal(ppmi.data.view(np.uint64), clamped.data.view(np.uint64))

    @pytest.mark.parametrize("kind", ["mset", "seq"])
    @pytest.mark.parametrize("window", [3, 5])
    def test_ppmi_keeps_the_clamped_storage(self, sweep_logs, kind, window):
        for log in sweep_logs:
            table = extract_occurrences(log, window, kind)
            clamped = apply_pmi(build_ac(table), table).values.copy()
            np.maximum(clamped.data, 0.0, out=clamped.data)
            clamped.eliminate_zeros()
            ppmi = apply_ppmi(build_ac(table), table).values
            assert ppmi.indptr.dtype == clamped.indptr.dtype
            assert ppmi.indices.dtype == clamped.indices.dtype
            assert ppmi.has_canonical_format == clamped.has_canonical_format

    @pytest.mark.parametrize("kind", ["mset", "seq"])
    @pytest.mark.parametrize("window", [3, 5])
    def test_dense_bits_match_the_previous_expressions(self, sweep_logs, kind, window):
        for log in sweep_logs:
            table = extract_occurrences(log, window, kind)
            aa = build_aa(table)
            for weighting in ("pmi", "ppmi"):
                got = apply_weighting(aa, table, weighting).values
                expected = previous_dense_weighting(aa, table, weighting)
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            if kind == "seq":
                got = substitution_scores(table).values
                expected = previous_substitution(aa, table)
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_eliminated_zero_leaves_the_counts_alone(self):
        # One event: j N = r c, so the only cell's PMI is ln 1 = 0 and is dropped.
        log = log_from_label_traces([["a"]])
        table = extract_occurrences(log, 3, "mset")
        pmi = apply_pmi(build_ac(table), table).values
        assert pmi.nnz == 0 and pmi.indptr.tolist() == [0, 0]
        assert table.counts.indptr.tolist() == [0, 1]
        assert table.counts.indices.tolist() == [0] and table.counts.data.tolist() == [1]


class TestScaleInvariance:
    def test_duplicating_the_log_changes_nothing(self):
        base = [list("abcde")] * 5 + [list("addbe")]
        log1, log2 = log_from_label_traces(base), log_from_label_traces(base * 3)
        for build in (build_aa, build_ac):
            t1 = extract_occurrences(log1, 3, "mset")
            t2 = extract_occurrences(log2, 3, "mset")
            m1 = dense(apply_pmi(build(t1), t1))
            m2 = dense(apply_pmi(build(t2), t2))
            assert np.allclose(m1, m2, atol=1e-12)


class TestContracts:
    def test_double_weighting_rejected(self):
        _, table, ac = worked_ac()
        pmi = apply_pmi(ac, table)
        with pytest.raises(ParameterError):
            apply_pmi(pmi, table)

    def test_mismatched_table_rejected(self):
        log = worked_log()
        t3 = extract_occurrences(log, 3, "mset")
        t5 = extract_occurrences(log, 5, "mset")
        with pytest.raises(ParameterError):
            apply_pmi(build_ac(t3), t5)
        t_seq = extract_occurrences(log, 3, "seq")
        with pytest.raises(ParameterError):
            apply_pmi(build_ac(t3), t_seq)

    @pytest.mark.parametrize("change, message", [
        (lambda ac: replace(ac, config=replace(ac.config, method="substitution")),
         "^weighting does not apply to method 'substitution'$"),
        (lambda ac: replace(ac, row_labels=ac.row_labels[::-1]),
         "^matrix rows do not match the table's activities$"),
    ])
    def test_matrix_the_table_did_not_make_rejected(self, change, message):
        _, table, ac = worked_ac()
        with pytest.raises(ParameterError, match=message):
            apply_weighting(change(ac), table, "pmi")

    def test_unknown_weighting_name(self):
        _, table, ac = worked_ac()
        with pytest.raises(ParameterError):
            apply_weighting(ac, table, "tfidf")

    def test_none_is_identity(self):
        _, table, ac = worked_ac()
        assert apply_weighting(ac, table, "none") is ac

    def test_sparse_stays_sparse(self):
        _, table, ac = worked_ac()
        assert sparse.issparse(apply_pmi(ac, table).values)
        assert sparse.issparse(apply_ppmi(ac, table).values)

    def test_provenance_updated(self):
        _, table, ac = worked_ac()
        assert apply_pmi(ac, table).config.weighting == "pmi"
        assert apply_ppmi(ac, table).config.weighting == "ppmi"
