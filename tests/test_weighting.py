import math
import random

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
    log_from_label_traces,
)
from reference import row_index
from synthetic_logs import random_small_log


def worked_log():
    return log_from_label_traces([list("abcde")] * 5 + [list("addbe")])


def worked_ac():
    log = worked_log()
    table = extract_occurrences(log, 3, "mset")
    return log, table, build_ac(table)


def cell(matrix, log, label, context_labels):
    row = row_index(matrix)[log.alphabet.id_of(label)]
    symbols = tuple(sorted(log.alphabet.id_of(l) if l != "__PAD__" else 0 for l in context_labels))
    col = next(i for i, key in enumerate(matrix.column_labels) if key.symbols == symbols)
    return matrix.dense()[row, col]


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
        raw = ac.dense()
        weighted = pmi.dense()
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
                pmi = apply_pmi(raw, table).dense()
                ppmi = apply_ppmi(raw, table).dense()
                assert np.allclose(ppmi, np.maximum(pmi, 0.0), atol=0.0)

    def test_worked_ppmi_clamps_negative_cell(self):
        log, table, ac = worked_ac()
        ppmi = apply_ppmi(ac, table)
        assert cell(ppmi, log, "d", ("b", "d")) == 0.0


class TestScaleInvariance:
    def test_duplicating_the_log_changes_nothing(self):
        base = [list("abcde")] * 5 + [list("addbe")]
        log1, log2 = log_from_label_traces(base), log_from_label_traces(base * 3)
        for build in (build_aa, build_ac):
            t1 = extract_occurrences(log1, 3, "mset")
            t2 = extract_occurrences(log2, 3, "mset")
            m1 = apply_pmi(build(t1), t1).dense()
            m2 = apply_pmi(build(t2), t2).dense()
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
        assert apply_pmi(ac, table).provenance.weighting == "pmi"
        assert apply_ppmi(ac, table).provenance.weighting == "ppmi"
