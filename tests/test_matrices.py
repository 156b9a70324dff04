import csv
import io
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from actsim import (
    PAD_LABEL,
    Alphabet,
    ContextKind,
    MethodConfig,
    PairwiseSimilarity,
    ParameterError,
    apply_ppmi,
    apply_weighting,
    build_aa,
    build_ac,
    build_embedding,
    extract_occurrences,
    log_from_label_traces,
    substitution_scores,
    write_distance_csv,
    write_embedding_csv,
)
from actsim.contexts import OccurrenceTable
import actsim.matrices
from actsim.log import csv_line
from actsim.matrices import EmbeddingMatrix, column_headers
from reference import (
    dense,
    naive_aa,
    naive_ac,
    naive_context_label,
    naive_csv_line,
    naive_matrix_csv,
    row_index,
    row_of,
)
from synthetic_logs import random_small_log, structured_log, worked_log

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


class TestAc:
    def test_worked_example_exact(self):
        log = worked_log()
        table = extract_occurrences(log, 3, "mset")
        ac = build_ac(table)
        assert np.array_equal(dense(ac), WORKED_AC)
        assert ac.row_labels == tuple(range(1, 6))
        rendered = column_headers(ac, log.alphabet)
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
            assert sums[row_index(ac)[aid]] == total

    def test_dimension_bound(self):
        rng = random.Random(4)
        for _ in range(30):
            log = random_small_log(rng)
            window = rng.randint(2, 5)
            kind = rng.choice(["mset", "seq"])
            table = extract_occurrences(log, window, kind)
            ac = build_ac(table)
            assert ac.shape[1] <= (len(log.alphabet) + 1) ** (window - 1)  # (|A|+1)^(n-1)
            assert ac.shape[1] <= log.n_events

    def test_provenance(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        config = build_ac(table).config
        assert (config.method, config.kind.value, config.window, config.weighting) == (
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
        index = row_index(aa)

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
                i = row_index(aa)[aid]
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
            assert ac.column_labels is table.symbols
            assert list(map(tuple, ac.column_labels.tolist())) == order
            assert np.array_equal(dense(ac), np.array(n_rows))

    def test_product_computed_once_per_table(self, monkeypatch):
        # The AA counts are computed once per table, and build_aa and
        # substitution_scores both read that one array.
        counts = OccurrenceTable.__dict__["aa_counts"]
        compute = counts.func
        computed = []

        def counting(table):
            computed.append(table)
            return compute(table)

        monkeypatch.setattr(counts, "func", counting)
        table = extract_occurrences(worked_log(), 3, "seq")
        substitution_scores(table)
        assert computed == [table]
        first, second = build_aa(table), build_aa(table)
        assert computed == [table]
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

    def test_context_headers_need_the_matrix_alphabet(self):
        ac = build_ac(extract_occurrences(log_from_label_traces([list("abc")]), 3, "mset"))
        with pytest.raises(ParameterError, match="unknown activity id 3"):
            write_embedding_csv(ac, Alphabet(["a"]), io.StringIO())

    def test_a_negative_context_id_is_unknown(self):
        config = MethodConfig("ac", ContextKind.SEQUENCE, "none", 3)
        matrix = EmbeddingMatrix((1,), np.array([[-1, 1]]), np.array([[1]]), config)
        with pytest.raises(ParameterError, match="unknown activity id -1$"):
            write_embedding_csv(matrix, Alphabet(["a", "b"]), io.StringIO())

    def test_row_lookup(self):
        log = worked_log()
        ac = build_ac(extract_occurrences(log, 3, "mset"))
        assert np.array_equal(row_of(ac, log.alphabet.id_of("c")), WORKED_AC[2])


LABELS = st.text(alphabet=st.sampled_from('ab,"\'é中 x\r\n'), min_size=1, max_size=4)
INT_CELLS = st.integers(-(10**18), 10**18)
FLOAT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.1, -2.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def matrix_cases(draw):
    """(alphabet, matrix, expected header, square cells for a distance file).

    The values are int64 or float64, stored dense, as CSR, or as CSC.
    Sparse entries may be explicit zeros. A plain CSR keeps its entries in
    drawn order within a row, so a row may have unsorted or duplicate
    column indices; a canonical CSR has neither.
    """
    labels = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    alphabet = Alphabet(labels)
    names = (PAD_LABEL,) + alphabet.labels()
    rows = tuple(sorted(draw(st.sets(st.integers(1, len(labels)), min_size=1))))
    kind = draw(st.sampled_from(["aa", "mset", "seq"]))
    if kind == "aa":
        columns = rows
        header = [names[aid] for aid in columns]
        config = MethodConfig("aa", ContextKind.SEQUENCE, "none", 3)
    else:
        width = draw(st.integers(1, 3))
        contexts = draw(
            st.lists(st.lists(st.integers(0, len(labels)), min_size=width, max_size=width),
                     max_size=5)
        )
        columns = np.array(contexts, dtype=np.int64).reshape(-1, width)
        header = [naive_context_label([names[s] for s in ctx], kind) for ctx in contexts]
        config = MethodConfig("ac", ContextKind(kind), "none", width + 1)
    shape = (len(rows), len(columns))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    cells = INT_CELLS if dtype is np.int64 else FLOAT_CELLS
    entries = []
    if shape[1]:
        entries = draw(st.lists(
            st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1), cells),
            min_size=1,
            max_size=12,
        ))
    layout = draw(st.sampled_from(["dense", "csr", "canonical csr", "csc"]))
    if layout == "canonical csr":
        unique = {(row, col): value for row, col, value in entries}
        entries = [(row, col, value) for (row, col), value in sorted(unique.items())]
    entries.sort(key=lambda entry: entry[0])
    indptr = np.searchsorted([row for row, _, _ in entries], np.arange(shape[0] + 1))
    csr = sparse.csr_matrix(
        (
            np.array([value for _, _, value in entries], dtype=dtype),
            np.array([col for _, col, _ in entries], dtype=np.int32),
            indptr,
        ),
        shape=shape,
    )
    if layout == "dense":
        values = np.zeros(shape, dtype=dtype)
        for row, col, value in entries:
            values[row, col] = value
    else:
        values = csr.tocsc() if layout == "csc" else csr
    matrix = EmbeddingMatrix(rows, columns, values, config)
    square = np.array(
        draw(st.lists(st.lists(cells, min_size=len(rows), max_size=len(rows)),
                      min_size=len(rows), max_size=len(rows))),
        dtype=dtype,
    )
    return alphabet, matrix, ["activity"] + header, square


@settings(max_examples=300, deadline=None)
@given(matrix_cases(), st.sampled_from(["cosine", "substitution"]))
def test_matrix_writers_match_the_naive_dense_writer(case, flavor):
    alphabet, matrix, header, square = case
    row_names = [alphabet.label_of(aid) for aid in matrix.row_labels]
    values = matrix.values
    rows = (values.toarray() if sparse.issparse(values) else values).tolist()
    buffer = io.StringIO()
    write_embedding_csv(matrix, alphabet, buffer)
    assert buffer.getvalue() == naive_matrix_csv(header, row_names, rows)

    sim = PairwiseSimilarity(matrix.row_labels, square, flavor, matrix.config)
    cells = (1.0 - square) if flavor == "cosine" else square
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "distances.csv"
        write_distance_csv(sim, alphabet, path)
        written = path.read_bytes().decode("utf-8")
    assert written == naive_matrix_csv(["activity"] + row_names, row_names, cells.tolist())


def test_duplicate_entries_add_in_storage_order():
    # Long rows of duplicates whose float sums depend on their order: scipy's
    # sum_duplicates sorts each row without keeping that order, toarray adds
    # the entries in storage order. Row 1 stores a lone -0.0, which reads 0.
    rng = np.random.default_rng(5)
    data = np.append(rng.choice([1e16, 1.0, -1e16, 3.0, -0.5], 40), -0.0)
    indices = np.append(rng.integers(0, 4, 40), 2)
    csr = sparse.csr_matrix((data, indices, [0, 40, 41]), shape=(2, 4))
    assert not csr.has_canonical_format
    alphabet = Alphabet(["a", "b"])
    for values in (csr, csr.tocsc()):
        matrix = EmbeddingMatrix(
            (1, 2), (1, 2, 1, 2), values, MethodConfig("aa", ContextKind.MULTISET, "none", 3)
        )
        buffer = io.StringIO()
        write_embedding_csv(matrix, alphabet, buffer)
        expected = naive_matrix_csv(
            ["activity", "a", "b", "a", "b"], ["a", "b"], values.toarray().tolist()
        )
        assert buffer.getvalue() == expected


@pytest.mark.parametrize("method, weighting, window, message", [
    ("word2vec", "none", 3, "^unknown method 'word2vec'"),
    ("aa", "tfidf", 3, "^unknown weighting 'tfidf'"),
    ("aa", "none", 1, "^window size must be at least 2, got 1$"),
    ("substitution", "pmi", 3, "^substitution requires weighting none$"),
])
def test_invalid_config_rejected(method, weighting, window, message):
    with pytest.raises(ParameterError, match=message):
        MethodConfig(method, ContextKind.SEQUENCE, weighting, window).validate()


@pytest.mark.parametrize("kind, window", [("seq", 3), ("mset", 5)])
def test_build_embedding_rejects_a_table_of_another_config(kind, window):
    table = extract_occurrences(worked_log(), 3, "mset")
    config = MethodConfig("aa", ContextKind(kind), "none", window)
    with pytest.raises(ParameterError, match=rf"^table \(mset, n=3\) does not match config aa/{kind}/"):
        build_embedding(table, config)


@pytest.mark.parametrize("kind", ["mset", "seq"])
def test_every_matrix_actsim_builds_is_written_without_densifying(kind, monkeypatch):
    log = structured_log(7, 2000, 20)
    table = extract_occurrences(log, 3, kind)
    raw = build_ac(table)
    names = (PAD_LABEL,) + log.alphabet.labels()
    header = ["activity"]
    header += [naive_context_label([names[s] for s in ctx], kind) for ctx in table.contexts]
    row_names = [names[aid] for aid in table.row_labels]
    matrices = [raw, apply_weighting(raw, table, "pmi"), apply_ppmi(raw, table)]
    expected = [naive_matrix_csv(header, row_names, m.values.toarray().tolist()) for m in matrices]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a CSR matrix was densified")

    monkeypatch.setattr(sparse.csr_matrix, "toarray", refuse)
    for matrix, text in zip(matrices, expected):
        assert type(matrix.values) is sparse.csr_matrix
        buffer = io.StringIO()
        write_embedding_csv(matrix, log.alphabet, buffer)
        assert buffer.getvalue() == text


# Row labels that csv must quote, or must not: a comma, a quote, a newline,
# a leading space, the empty string and non-ASCII text.
QUOTED_LABELS = [",", '"', "a\nb", " x", "", "é中", "plain"]
EDGE_INTS = st.one_of(
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53) + 1, -(2**53), -(2**53) - 1, -1]),
    st.integers(-(2**63), 2**63 - 1),
)
EDGE_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, -2.5, 1e16, 2.0**53 + 2]), st.floats())


@st.composite
def canonical_csr_cases(draw):
    """(alphabet, matrix, header): an int64 or float64 canonical CSR over
    rows labelled from QUOTED_LABELS, with at least one column."""
    labels = draw(st.lists(st.sampled_from(QUOTED_LABELS), min_size=1, max_size=5, unique=True))
    n_rows, n_cols = len(labels), draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        EDGE_INTS if dtype is np.int64 else EDGE_FLOATS,
        max_size=n_rows * n_cols,
    ))
    return _canonical_case(labels, n_cols, dtype, cells)


def _canonical_case(labels, n_cols, dtype, cells):
    alphabet = Alphabet(labels)
    keys = sorted(cells)
    values = sparse.csr_matrix(
        (
            np.array([cells[key] for key in keys], dtype=dtype),
            (np.array([row for row, _ in keys], dtype=np.int64),
             np.array([col for _, col in keys], dtype=np.int64)),
        ),
        shape=(len(labels), n_cols),
    )
    columns = tuple(1 + col % len(labels) for col in range(n_cols))
    config = MethodConfig("aa", ContextKind.SEQUENCE, "none", 3)
    matrix = EmbeddingMatrix(tuple(range(1, len(labels) + 1)), columns, values, config)
    return alphabet, matrix, ["activity"] + [labels[aid - 1] for aid in columns]


@settings(max_examples=300, deadline=None)
@given(canonical_csr_cases())
@example(_canonical_case(QUOTED_LABELS, 3, np.int64, {}))
@example(_canonical_case(["a", ""], 1, np.float64, {(0, 0): -0.0}))
@example(_canonical_case(
    QUOTED_LABELS, 5, np.int64,
    {(0, 0): 2**53 - 1, (0, 4): 2**53, (2, 0): -(2**53) - 1, (2, 4): 2**53 + 1, (5, 2): -7},
))
@example(_canonical_case([" x", "é中"], 4, np.float64, {(0, 0): -0.0, (0, 3): -1.5, (1, 1): 0.1}))
def test_stored_cells_are_written_as_the_naive_dense_writer_writes_them(case):
    # Each row of a canonical CSR is one joined string: zero runs, and each
    # stored value formatted once, ints by str only while exact as floats.
    alphabet, matrix, header = case
    assert matrix.values.has_canonical_format
    buffer = io.StringIO()
    write_embedding_csv(matrix, alphabet, buffer)
    row_names = [alphabet.label_of(aid) for aid in matrix.row_labels]
    assert buffer.getvalue() == naive_matrix_csv(header, row_names, matrix.values.toarray().tolist())


# String order "10" < "9" < "B" < "__PAD__" < "a" differs from id order.
HEADER_LABELS = ["B", "a", "10", "9"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(HEADER_LABELS), min_size=1, max_size=9),
             min_size=1, max_size=5),
    st.sampled_from([2, 3, 5, 8]),
    st.sampled_from(["mset", "seq"]),
)
@example([HEADER_LABELS, ["9", "10", "a"]], 3, "mset")
@example([HEADER_LABELS * 2], 8, "mset")
def test_context_headers_render_every_context(traces, window, kind):
    log = log_from_label_traces(traces)
    table = extract_occurrences(log, window, kind)
    names = (PAD_LABEL,) + log.alphabet.labels()
    contexts = table.symbols.tolist()
    expected = [naive_context_label([names[s] for s in ctx], kind) for ctx in contexts]
    assert column_headers(build_ac(table), log.alphabet) == expected


# Labels whose fields need quoting, or look as if they might: a comma, a
# quote, a line break of either kind, the context brackets and a space.
HEADER_NAMES = st.text(st.sampled_from(',"\r\n{< é'), min_size=1, max_size=3)


@st.composite
def context_headers(draw):
    """(alphabet, AC matrix) of zero to 40 contexts at window 2, 3 or 5."""
    labels = draw(st.lists(HEADER_NAMES, min_size=1, max_size=4, unique=True))
    width = draw(st.sampled_from([2, 3, 5])) - 1
    contexts = draw(st.lists(
        st.lists(st.integers(0, len(labels)), min_size=width, max_size=width), max_size=40
    ))
    config = MethodConfig("ac", ContextKind(draw(st.sampled_from(["mset", "seq"]))), "none", width + 1)
    columns = np.array(contexts, dtype=np.int64).reshape(-1, width)
    values = sparse.csr_matrix(np.arange(len(contexts), dtype=np.int64)[None, :] % 3)
    return Alphabet(labels), EmbeddingMatrix((1,), columns, values, config)


@pytest.mark.parametrize("block", [3, 1 << 14])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(context_headers())
@example((Alphabet([","]), EmbeddingMatrix(
    (1,), np.zeros((0, 2), dtype=np.int64), sparse.csr_matrix((1, 0), dtype=np.int64),
    MethodConfig("ac", ContextKind.MULTISET, "none", 3),
)))
def test_context_header_is_written_as_one_field_at_a_time(block, monkeypatch, case):
    # The header is quoted per name and written in blocks of contexts; it
    # must read as csv quotes each rendered label, one field at a time.
    monkeypatch.setattr(actsim.matrices, "_BLOCK", block)
    alphabet, matrix = case
    header = ["activity"] + column_headers(matrix, alphabet)
    names = (PAD_LABEL,) + alphabet.labels()
    kind = matrix.config.kind.value
    assert header[1:] == [naive_context_label([names[s] for s in ctx], kind)
                          for ctx in matrix.column_labels.tolist()]
    line = csv_line(header)
    assert line == naive_csv_line(header)
    buffer = io.StringIO()
    write_embedding_csv(matrix, alphabet, buffer)
    row = naive_csv_line([alphabet.label_of(1)] + [str(v) for v in matrix.values.toarray()[0]])
    assert buffer.getvalue() == line + row


def test_a_label_with_a_carriage_return_reads_back_as_one_field(tmp_path):
    labels = ["a\rb", "c", "d\r\ne", 'f"\r']
    alphabet = Alphabet(labels)
    sim = PairwiseSimilarity((1, 2, 3, 4), np.eye(4), "cosine",
                             MethodConfig("aa", ContextKind.SEQUENCE, "none", 3))
    write_distance_csv(sim, alphabet, tmp_path / "distances.csv")
    with open(tmp_path / "distances.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["activity"] + labels
    assert [row[0] for row in rows[1:]] == labels
