import io
import random

import numpy as np
import pytest
from scipy import sparse

from actsim import (
    ParameterError,
    build_aa,
    build_ac,
    dimension_bound,
    extract_occurrences,
    log_from_label_traces,
    substitution_scores,
    write_embedding_csv,
)
from reference import naive_aa, naive_ac
from synthetic_logs import random_small_log

WORKED_AC = np.array(
    [
        [5, 0, 0, 0, 1, 0, 0],
        [0, 5, 0, 0, 0, 0, 1],
        [0, 0, 5, 0, 0, 0, 0],
        [0, 0, 1, 5, 0, 1, 0],
        [1, 0, 0, 0, 5, 0, 0],
    ]
)

# Commented four-trace example: L = [<a,b,c,d,e>, <a,b,d,d,e>, <a,d,c,d,e>, <a,c,d,e>].
FOUR_TRACE = [list("abcde"), list("abdde"), list("adcde"), list("acde")]
FOUR_TRACE_AA_MSET = np.array(
    [
        [8, 0, 0, 0, 5],
        [0, 4, 2, 2, 0],
        [0, 2, 6, 2, 0],
        [0, 2, 2, 12, 0],
        [5, 0, 0, 0, 8],
    ]
)


def worked_log():
    return log_from_label_traces([list("abcde")] * 5 + [list("addbe")])


class TestAc:
    def test_worked_example_exact(self):
        log = worked_log()
        table = extract_occurrences(log, 3, "mset")
        ac = build_ac(table)
        assert np.array_equal(ac.dense(), WORKED_AC)
        assert ac.row_labels == tuple(range(1, 6))
        rendered = [key.render(log.alphabet) for key in ac.column_labels]
        assert rendered[0] == "{__PAD__,b}"
        assert rendered[2] == "{b,d}"

    def test_stored_sparse(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        assert sparse.issparse(build_ac(table).values)

    def test_row_sums_equal_activity_totals(self):
        table = extract_occurrences(worked_log(), 4, "seq")
        ac = build_ac(table)
        sums = np.asarray(ac.values.sum(axis=1)).ravel()
        for aid, total in table.activity_totals.items():
            assert sums[ac.row_index()[aid]] == total

    def test_dimension_bound(self):
        rng = random.Random(4)
        for _ in range(30):
            log = random_small_log(rng)
            window = rng.randint(2, 5)
            kind = rng.choice(["mset", "seq"])
            table = extract_occurrences(log, window, kind)
            ac = build_ac(table)
            assert ac.shape[1] <= dimension_bound(len(log.alphabet), window)
            assert ac.shape[1] <= log.n_events

    def test_provenance(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        prov = build_ac(table).provenance
        assert (prov.method, prov.kind.value, prov.window_size, prov.weighting) == (
            "ac",
            "mset",
            3,
            "none",
        )


class TestAa:
    def test_worked_example_values(self):
        log = worked_log()
        aa = build_aa(extract_occurrences(log, 3, "mset"))
        ids = {label: log.alphabet.id_of(label) for label in "abcde"}
        index = aa.row_index()

        def cell(x, y):
            return aa.values[index[ids[x]], index[ids[y]]]

        assert cell("a", "e") == 12
        assert cell("b", "d") == 0
        assert cell("c", "c") == 10
        assert cell("c", "d") == 6

    def test_four_trace_example_mset(self):
        log = log_from_label_traces(FOUR_TRACE)
        aa = build_aa(extract_occurrences(log, 3, "mset"))
        assert np.array_equal(aa.values, FOUR_TRACE_AA_MSET)

    def test_four_trace_example_seq(self):
        # Same matrix except the (a, e) cell: <PAD,b> vs <d,PAD> etc. no longer merge.
        log = log_from_label_traces(FOUR_TRACE)
        aa = build_aa(extract_occurrences(log, 3, "seq"))
        expected = FOUR_TRACE_AA_MSET.copy()
        expected[0, 4] = expected[4, 0] = 0
        assert np.array_equal(aa.values, expected)

    def test_symmetric_with_doubled_diagonal(self):
        rng = random.Random(11)
        for _ in range(20):
            log = random_small_log(rng)
            table = extract_occurrences(log, rng.randint(2, 4), rng.choice(["mset", "seq"]))
            aa = build_aa(table)
            assert np.array_equal(aa.values, aa.values.T)
            for aid, total in table.activity_totals.items():
                i = aa.row_index()[aid]
                assert aa.values[i, i] == 2 * total

    def test_matches_naive_reference(self):
        rng = random.Random(12)
        for _ in range(25):
            log = random_small_log(rng)
            window = rng.randint(2, 5)
            kind = rng.choice(["mset", "seq"])
            table = extract_occurrences(log, window, kind)
            aa = build_aa(table)
            acts, rows = naive_aa(log.traces, window, kind)
            assert list(aa.row_labels) == acts
            assert np.array_equal(aa.values, np.array(rows))
            ac = build_ac(table)
            n_acts, order, n_rows = naive_ac(log.traces, window, kind)
            assert list(ac.row_labels) == n_acts
            assert [k.symbols for k in ac.column_labels] == order
            assert np.array_equal(ac.dense(), np.array(n_rows))

    def test_product_computed_once_per_table(self, monkeypatch):
        table = extract_occurrences(worked_log(), 3, "seq")
        csr = type(table.counts)
        matmul = csr.__matmul__
        products = []

        def counting(self, other):
            products.append(other.shape)
            return matmul(self, other)

        monkeypatch.setattr(csr, "__matmul__", counting)
        first, second = build_aa(table), build_aa(table)
        substitution_scores(table)
        assert len(products) == 1
        assert first.values is second.values is table.aa_counts

    def test_values_are_read_only(self):
        aa = build_aa(extract_occurrences(worked_log(), 3, "mset"))
        with pytest.raises(ValueError):
            aa.values[0, 0] = 1


class TestExport:
    def test_embedding_csv_layout(self):
        log = worked_log()
        ac = build_ac(extract_occurrences(log, 3, "mset"))
        buffer = io.StringIO()
        write_embedding_csv(ac, log.alphabet, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith('activity,"{__PAD__,b}","{a,c}"')
        assert lines[1] == "a,5,0,0,0,1,0,0"
        assert len(lines) == 6

    def test_row_lookup(self):
        log = worked_log()
        ac = build_ac(extract_occurrences(log, 3, "mset"))
        assert np.array_equal(ac.row(log.alphabet.id_of("c")), WORKED_AC[2])
        with pytest.raises(ParameterError):
            ac.row(99)
        aa = build_aa(extract_occurrences(log, 3, "mset"))
        for matrix in (ac, aa):
            dense = matrix.dense()
            for i, aid in enumerate(matrix.row_labels):
                row = matrix.row(aid)
                assert row.dtype == dense.dtype and np.array_equal(row, dense[i])
