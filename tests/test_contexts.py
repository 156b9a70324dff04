import random
import time
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import actsim
import actsim.log
from actsim import (
    ContextKind,
    EmbeddingMatrix,
    EmptyLogError,
    EventLog,
    Alphabet,
    MethodConfig,
    ParameterError,
    apply_weighting,
    build_aa,
    build_ac,
    expand_grid,
    extract_occurrences,
    generate_ground_truth_log,
    log_from_label_traces,
)
from actsim import contexts, groundtruth, intrinsic, pipeline, similarity
from actsim.matrices import column_headers
from reference import naive_counts, pair_counts
from synthetic_logs import random_small_log, worked_log


def by_labels(table, log):
    """pair_counts re-keyed to (label, label-tuple) for readable assertions."""
    label = log.alphabet.label_of
    out = {}
    for (aid, cid), count in pair_counts(table).items():
        context = tuple(label(s) for s in table.contexts[cid])
        out[(label(aid), context)] = count
    return out


class TestWorkedExample:
    def test_multiset_counts(self):
        log = worked_log()
        table = extract_occurrences(log, 3, "mset")
        counts = by_labels(table, log)
        assert counts[("a", ("__PAD__", "b"))] == 5
        assert counts[("a", ("__PAD__", "d"))] == 1
        assert counts[("c", ("b", "d"))] == 5
        assert counts[("d", ("b", "d"))] == 1
        assert table.total_events == 30
        totals = {log.alphabet.label_of(a): t for a, t in table.activity_totals.items()}
        assert totals == {"a": 6, "b": 6, "c": 5, "d": 7, "e": 6}
        context_totals = {
            tuple(log.alphabet.label_of(s) for s in ctx): table.context_totals[i]
            for i, ctx in enumerate(table.contexts)
        }
        assert context_totals[("b", "d")] == 6

    def test_multiset_intern_order_matches_first_appearance(self):
        log = worked_log()
        table = extract_occurrences(log, 3, ContextKind.MULTISET)
        assert column_headers(build_ac(table), log.alphabet) == [
            "{__PAD__,b}",
            "{a,c}",
            "{b,d}",
            "{c,e}",
            "{__PAD__,d}",
            "{a,d}",
            "{d,e}",
        ]

    def test_sequence_has_ten_distinct_contexts(self):
        # <b,d> and <d,b> stay distinct under the sequence kind, giving 10.
        table = extract_occurrences(worked_log(), 3, "seq")
        assert len(table.contexts) == 10


class TestAlgorithm:
    def test_every_event_yields_one_record(self):
        log = worked_log()
        for kind in ("mset", "seq"):
            table = extract_occurrences(log, 3, kind)
            assert sum(pair_counts(table).values()) == log.n_events
            assert sum(table.activity_totals.values()) == log.n_events
            assert sum(table.context_totals) == log.n_events

    def test_window_four_asymmetric_split(self):
        # n=4 pads 1 left, 2 right: trace <a,b,c> gives contexts
        # <PAD,b,c>, <a,c,PAD>, <b,PAD,PAD> for centers a, b, c.
        log = log_from_label_traces([["a", "b", "c"]])
        table = extract_occurrences(log, 4, "seq")
        counts = by_labels(table, log)
        assert counts == {
            ("a", ("__PAD__", "b", "c")): 1,
            ("b", ("a", "c", "__PAD__")): 1,
            ("c", ("b", "__PAD__", "__PAD__")): 1,
        }

    def test_window_two_context_is_next_symbol(self):
        log = log_from_label_traces([["a", "b"]])
        table = extract_occurrences(log, 2, "seq")
        counts = by_labels(table, log)
        assert counts == {("a", ("b",)): 1, ("b", ("__PAD__",)): 1}

    def test_pad_never_a_center(self):
        table = extract_occurrences(worked_log(), 5, "mset")
        assert 0 not in table.activity_totals

    def test_multiset_symbols_sorted_by_id(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        for symbols in table.contexts:
            assert tuple(sorted(symbols)) == symbols

    def test_duplicate_traces_scale_counts_only(self):
        base = [["a", "b", "c"], ["b", "a"]]
        once = extract_occurrences(log_from_label_traces(base), 3, "seq")
        twice = extract_occurrences(log_from_label_traces(base * 2), 3, "seq")
        assert once.contexts == twice.contexts
        assert {k: 2 * v for k, v in pair_counts(once).items()} == pair_counts(twice)


class TestErrors:
    def test_window_below_two(self):
        with pytest.raises(ParameterError):
            extract_occurrences(worked_log(), 1, "mset")

    def test_empty_log(self):
        with pytest.raises(EmptyLogError):
            extract_occurrences(EventLog((), Alphabet(["a"])), 3, "mset")

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            extract_occurrences(worked_log(), 3, "bag")


@pytest.mark.parametrize("coarsened", [False, True])
def test_table_arrays_are_read_only(coarsened):
    """The table's arrays, its pair plan and AA counts, and the PMI and
    PPMI values its cache hands out cannot be written, nor can
    ``activity_totals``."""
    log = worked_log()
    fine = extract_occurrences(log, 5, "seq") if coarsened else None
    table = extract_occurrences(log, 3, "mset", fine=fine)
    arrays = [
        table.symbols, table.counts.data, table.counts.indices, table.counts.indptr,
        table.row_totals, table.context_totals, table.aa_counts, *table.pair_plan,
    ]
    for weighting in ("pmi", "ppmi"):
        weighted = apply_weighting(build_ac(table), table, weighting).values
        arrays += [weighted.data, weighted.indices, weighted.indptr]
        arrays.append(apply_weighting(build_aa(table), table, weighting).values)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(TypeError):
        table.activity_totals[table.row_labels[0]] = 999
    assert table.activity_totals == dict(zip(table.row_labels, table.row_totals.tolist()))


def render(symbols, kind, alphabet):
    """The column header of a one-context AC matrix of ``kind`` over ``symbols``."""
    config = MethodConfig("ac", ContextKind(kind), "none", len(symbols) + 1)
    matrix = EmbeddingMatrix((1,), np.array([symbols]), np.array([[1]]), config)
    [header] = column_headers(matrix, alphabet)
    return header


class TestRendering:
    def test_multiset_labels_sorted(self):
        log = log_from_label_traces([["zz", "aa"]])
        z, a = log.alphabet.id_of("zz"), log.alphabet.id_of("aa")
        assert render((z, a), "mset", log.alphabet) == "{aa,zz}"

    def test_sequence_keeps_order(self):
        log = log_from_label_traces([["zz", "aa"]])
        z, a = log.alphabet.id_of("zz"), log.alphabet.id_of("aa")
        assert render((z, a), "seq", log.alphabet) == "<zz,aa>"

    def test_pad_rendering(self):
        log = log_from_label_traces([["x"]])
        x = log.alphabet.id_of("x")
        assert render((0, x), "seq", log.alphabet) == "<__PAD__,x>"


def test_every_public_name_resolves():
    for name in actsim.__all__:
        assert getattr(actsim, name) is not None
    # __all__ is sorted and lists every public name the package binds, so a
    # dropped import cannot leave a stale entry behind.
    assert actsim.__all__ == sorted(actsim.__all__)
    public = {name for name, value in vars(actsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(actsim.__all__) == public
    # A context is a row of the table's symbol array; no key type renders it.
    # The single-metric scores, cosine_distance and write_classes_json were
    # read by the tests only; score_all and the matrices remain.
    retired = (
        "ContextKey", "ContextKeys", "render_context", "score_compactness",
        "score_nearest_neighbor", "score_precision_at_k", "score_triplet",
        "cosine_distance", "write_classes_json",
    )
    for name in retired:
        for module in (actsim, contexts, groundtruth, intrinsic, similarity):
            assert not hasattr(module, name)
    retired_methods = {
        actsim.EmbeddingMatrix: ("dense", "row"),
        actsim.PairwiseSimilarity: ("index_of", "similarity"),
        actsim.GroundTruthLog: ("restore_traces",),
    }
    for cls, names in retired_methods.items():
        for name in names:
            assert not hasattr(cls, name)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=7),
        min_size=1,
        max_size=6,
    ),
    st.integers(2, 5),
    st.sampled_from(["mset", "seq"]),
)
def test_matches_naive_reference(raw_traces, window, kind):
    traces = tuple(tuple(t) for t in raw_traces)
    log = EventLog(traces, Alphabet(["a", "b", "c", "d"]))
    table = extract_occurrences(log, window, kind)
    pair, ctx, act, order = naive_counts(traces, window, kind)
    assert list(table.contexts) == order
    assert dict(table.activity_totals) == act
    assert list(table.context_totals) == [ctx[c] for c in order]
    rekeyed = {(a, table.contexts[c]): v for (a, c), v in pair_counts(table).items()}
    assert rekeyed == pair


def test_multiset_is_sequence_rekeyed_through_sorting():
    rng = random.Random(9)
    for _ in range(25):
        log = random_small_log(rng)
        window = rng.randint(2, 5)
        seq = extract_occurrences(log, window, "seq")
        mset = extract_occurrences(log, window, "mset")
        merged: dict[tuple[int, tuple[int, ...]], int] = {}
        order: list[tuple[int, ...]] = []
        seen = set()
        for cid, symbols in enumerate(seq.contexts):
            key = tuple(sorted(symbols))
            if key not in seen:
                seen.add(key)
                order.append(key)
        for (aid, cid), count in pair_counts(seq).items():
            key = (aid, tuple(sorted(seq.contexts[cid])))
            merged[key] = merged.get(key, 0) + count
        assert list(mset.contexts) == order
        assert {(a, mset.contexts[c]): v for (a, c), v in pair_counts(mset).items()} == merged


@pytest.mark.parametrize("alphabet_size, packed", [(510, True), (511, True), (512, False)])
@pytest.mark.parametrize("kind", ["mset", "seq"])
def test_packed_key_overflow_boundary(monkeypatch, alphabet_size, packed, kind):
    # Window 8 packs 7 symbols in base |A|+1: 512**7 == 2**63 still packs,
    # as every key stays below it; 513**7 renumbers the keys before the
    # last slot. Coarsened to windows 3 and 5, the window-8 sequence table
    # packs again.
    renumbered = []
    real_intern = actsim.log._intern

    def spy(keys):
        renumbered.append(len(keys))
        return real_intern(keys)

    monkeypatch.setattr(actsim.log, "_intern", spy)
    top = alphabet_size
    traces = (
        (top, top - 1, 1, top, top, 2, top - 1, top, top),
        (1, top, top, top, top, top, top, top),
        (top, top - 1, 1, top, top, 2, top - 1, top, top),
        (2, 1, top),
    )
    log = EventLog(traces, Alphabet([f"a{i}" for i in range(alphabet_size)]))
    table = extract_occurrences(log, 8, kind)
    assert len(renumbered) == (0 if packed else 1)
    pair, ctx, act, order = naive_counts(traces, 8, kind)
    assert list(table.contexts) == order
    assert dict(table.activity_totals) == act
    assert list(table.context_totals) == [ctx[c] for c in order]
    assert {(a, table.contexts[c]): v for (a, c), v in pair_counts(table).items()} == pair

    fine = extract_occurrences(log, 8, "seq")
    renumbered.clear()
    for window in (3, 5):
        coarse = extract_occurrences(log, window, kind, fine=fine)
        _assert_same_table(coarse, extract_occurrences(log, window, kind))
        _assert_matches_naive(coarse, traces, window, kind)
    assert renumbered == []


@pytest.mark.parametrize("width", [contexts._NETWORK_WIDTH, contexts._NETWORK_WIDTH + 1])
@pytest.mark.parametrize("kind", ["mset", "seq"])
def test_both_column_sorts_match_naive_reference(width, kind):
    # Window width + 1 sorts `width` slots: by the network at the switch's
    # width, by np.sort one slot above it. Scanned and coarsened alike.
    rng = random.Random(width)
    traces = tuple(
        tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 12))) for _ in range(10)
    )
    log = EventLog(traces, Alphabet(list("abcd")))
    window = width + 1
    scanned = extract_occurrences(log, window, kind)
    _assert_matches_naive(scanned, traces, window, kind)
    for fine_window in (window, window + 3):
        fine = extract_occurrences(log, fine_window, "seq")
        coarse = extract_occurrences(log, window, kind, fine=fine)
        _assert_same_table(coarse, scanned)
        _assert_matches_naive(coarse, traces, window, kind)


@pytest.mark.parametrize("kind", ["mset", "seq"])
def test_wide_window_on_a_tiny_log_is_quick(kind):
    # 99998 slots: a sort or slot lookup quadratic in the width takes hours.
    traces = ((1, 2), (3, 1))
    log = EventLog(traces, Alphabet(list("abc")))
    start = time.perf_counter()
    fine = extract_occurrences(log, 99999, "seq")
    scanned = extract_occurrences(log, 99999, kind)
    coarse = extract_occurrences(log, 99998, kind, fine=fine)
    assert time.perf_counter() - start < 20
    _assert_matches_naive(scanned, traces, 99999, kind)
    _assert_matches_naive(coarse, traces, 99998, kind)


@pytest.mark.parametrize("kind", ["mset", "seq"])
def test_a_window_too_wide_for_memory_is_refused_before_the_scan(kind, monkeypatch):
    log = EventLog(((1, 2), (3, 1)), Alphabet(list("abc")))
    with pytest.raises(ParameterError, match="slot array"):
        extract_occurrences(log, 2**40, kind)
    # Window 3 over 4 events needs a 2 x 4 int64 slot array: 64 bytes.
    monkeypatch.setattr(contexts, "_SLOT_BYTES_CAP", 64)
    assert extract_occurrences(log, 3, kind).total_events == 4
    with pytest.raises(ParameterError, match="window size 4 needs a 96-byte"):
        extract_occurrences(log, 4, kind)


def _assert_shared(tables, log, configs):
    """``tables`` holds a table for each (kind, window) pair of ``configs``
    below 2**40, in config order, equal to the direct scan; a pair at 2**40
    has none, and its scan raises the refusal a plan job records."""
    pairs = list(dict.fromkeys((config.kind, config.window) for config in configs))
    assert list(tables) == [(kind, n) for kind, n in pairs if n != 2**40]
    for kind, window in pairs:
        if window == 2**40:
            with pytest.raises(ParameterError, match=f"^window size {window} needs a .* slot"):
                extract_occurrences(log, window, kind)
        else:
            _assert_same_table(tables[kind, window], extract_occurrences(log, window, kind))


def _assert_same_table(table, direct):
    """Every array of ``table`` equals ``direct``'s, dtypes and shapes included."""
    for name in ("window_size", "kind", "row_labels", "total_events"):
        assert getattr(table, name) == getattr(direct, name), name
    assert table.counts.shape == direct.counts.shape
    assert table.counts.has_canonical_format
    for name, got, want in (
        ("symbols", table.symbols, direct.symbols),
        ("indptr", table.counts.indptr, direct.counts.indptr),
        ("indices", table.counts.indices, direct.counts.indices),
        ("data", table.counts.data, direct.counts.data),
        ("row_totals", table.row_totals, direct.row_totals),
        ("context_totals", table.context_totals, direct.context_totals),
    ):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(got, want), name


def _assert_matches_naive(table, traces, window, kind):
    pair, ctx, act, order = naive_counts(traces, window, kind)
    assert list(table.contexts) == order
    assert dict(table.activity_totals) == act
    assert list(table.context_totals) == [ctx[c] for c in order]
    assert {(a, table.contexts[c]): v for (a, c), v in pair_counts(table).items()} == pair
    assert table.counts.has_canonical_format


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple),
        min_size=1,
        max_size=8,
    ),
    st.integers(2, 5),
    st.sampled_from(["mset", "seq"]),
    st.integers(0, 2**32),
)
def test_array_built_logs_match_naive_reference(traces, window, kind, seed):
    # Repeats of a few short traces exercise the variant weights; the
    # derived log is built from arrays and never holds trace tuples.
    flat = np.array([aid for trace in traces for aid in trace], dtype=np.int64)
    offsets = np.cumsum([0] + [len(trace) for trace in traces])
    log = EventLog.from_arrays(flat, offsets, Alphabet(["a", "b", "c"]))
    _assert_matches_naive(extract_occurrences(log, window, kind), traces, window, kind)

    gt = generate_ground_truth_log(log, {traces[0][0]}, w=2, seed=seed)
    table = extract_occurrences(gt.log, window, kind)
    assert "traces" not in vars(gt.log)
    _assert_matches_naive(table, gt.log.traces, window, kind)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=7), min_size=1, max_size=6),
    st.integers(2, 5),
    st.sampled_from(["mset", "seq"]),
)
def test_row_labels_and_totals_describe_the_rows(raw_traces, window, kind):
    # Ids 1..6 of which only some occur, so row i is not activity i + 1.
    log = EventLog(tuple(map(tuple, raw_traces)), Alphabet(list("abcdef")))
    table = extract_occurrences(log, window, kind)
    assert table.row_labels == tuple(sorted({a for trace in raw_traces for a in trace}))
    assert table.row_totals.dtype == np.int64
    assert table.row_totals.tolist() == np.asarray(table.counts.sum(axis=1)).ravel().tolist()
    assert table.row_totals.sum() == table.total_events == log.n_events
    assert table.activity_totals == dict(zip(table.row_labels, table.row_totals.tolist()))


def test_shared_tables_dedupe_once(monkeypatch):
    log = log_from_label_traces([list("abcab"), list("ba"), list("abcab")] * 4)
    gt = generate_ground_truth_log(log, {log.alphabet.id_of("a")}, w=3, seed=5)
    calls = {"variants": [], "variant_numbers": []}

    def spy(name):
        cached = getattr(EventLog, name)

        def counting(self):
            calls[name].append(self)
            return cached.func(self)

        wrapped = type(cached)(counting)
        wrapped.__set_name__(EventLog, name)
        monkeypatch.setattr(EventLog, name, wrapped)

    spy("variants")
    spy("variant_numbers")
    extractions = []
    extract = pipeline.extract_occurrences

    def counting_extract(*args, **kwargs):
        extractions.append(args[1:])
        return extract(*args, **kwargs)

    # shared_tables reaches extract_occurrences through its module binding,
    # where outside tooling may wrap it.
    monkeypatch.setattr(pipeline, "extract_occurrences", counting_extract)
    grid = expand_grid(("aa", "ac", "substitution"), ("mset", "seq"), ("none", "pmi"), (3, 5))
    tables = pipeline.shared_tables(gt.log, grid)
    assert len(tables) == len(extractions) == 4
    # The derivation hands the derived log its variant numbers, so the
    # tables derive its variants once and never dedupe its traces.
    assert calls == {"variants": [gt.log], "variant_numbers": []}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=8).map(tuple),
        min_size=1,
        max_size=8,
    ),
    st.sets(st.integers(2, 6), min_size=1),
    st.sets(st.sampled_from(["mset", "seq"]), min_size=1),
    st.integers(2, 3),
    st.integers(0, 2**32),
)
# Even windows, and <2,clone> next to <3,PAD>: in the base log's base they
# would pack to one key.
@example(traces=[(1,), (2, 4, 1), (3, 4)], windows={2, 4, 6}, kinds={"mset", "seq"}, w=2, seed=0)
def test_shared_tables_equal_direct_extraction(traces, windows, kinds, w, seed):
    # The derived log's alphabet is larger than its base log's, so its
    # contexts pack in a larger base.
    flat = np.array([aid for trace in traces for aid in trace], dtype=np.int64)
    offsets = np.cumsum([0] + [len(trace) for trace in traces])
    log = EventLog.from_arrays(flat, offsets, Alphabet(list("abcd")))
    derived = generate_ground_truth_log(log, {traces[0][0]}, w=w, seed=seed).log
    grid = expand_grid(("ac",), sorted(kinds), ("none",), sorted(windows))
    for source in (log, derived):
        tables = pipeline.shared_tables(source, grid)
        assert list(tables) == [(config.kind, config.window) for config in grid]
        for (kind, window), table in tables.items():
            _assert_same_table(table, extract_occurrences(source, window, kind))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=8).map(tuple),
        min_size=1,
        max_size=8,
    ),
    st.sets(st.integers(2, 6), min_size=1),
    st.integers(2, 3),
    st.integers(0, 2**32),
)
def test_every_shared_table_of_a_log_has_the_same_row_labels(traces, windows, w, seed):
    # A plan job compares and scores all of its configs as one (C, n, n)
    # stack over one label order. So every table of one log has the same
    # rows: scanned directly, coarsened from the widest scan, or coarsened
    # from a narrower scan because the widest scan was refused.
    flat = np.array([aid for trace in traces for aid in trace], dtype=np.int64)
    offsets = np.cumsum([0] + [len(trace) for trace in traces])
    log = EventLog.from_arrays(flat, offsets, Alphabet(list("abcd")))
    derived = generate_ground_truth_log(log, {traces[0][0]}, w=w, seed=seed).log
    windows = sorted(windows)
    too_wide = 2**40
    grids = [
        expand_grid(("ac",), ("mset",), ("none",), windows[:1]),
        expand_grid(("ac",), ("mset", "seq"), ("none",), windows),
        expand_grid(("ac",), ("mset", "seq"), ("none",), windows + [too_wide]),
    ]
    for source in (log, derived):
        occurring = tuple(sorted(source.activity_counts()))
        for grid in grids:
            tables = pipeline.shared_tables(source, grid)
            pairs = dict.fromkeys((config.kind, config.window) for config in grid)
            assert list(tables) == [(kind, n) for kind, n in pairs if n != too_wide]
            for table in tables.values():
                assert table.row_labels == occurring


def _ac_grid(*pairs):
    return [actsim.make_config("ac", kind, "none", window) for kind, window in pairs]


@pytest.mark.parametrize(
    "grid, expected",
    [
        # The W1 grid: multiset window 3 comes from the window-3 sequence
        # table, which itself comes from the window-5 scan.
        (
            expand_grid(actsim.METHODS, ("mset", "seq"), actsim.WEIGHTINGS, (3, 5)),
            [("seq", 5, None), ("seq", 3, 5), ("mset", 3, 3), ("mset", 5, 5)],
        ),
        (
            expand_grid(("ac",), ("mset", "seq"), ("none",), (2, 3, 4)),
            [
                ("seq", 4, None), ("seq", 3, 4), ("seq", 2, 3),
                ("mset", 2, 2), ("mset", 3, 3), ("mset", 4, 4),
            ],
        ),
        # No sequence config: every table comes from the unused widest scan.
        (_ac_grid(("mset", 3), ("mset", 5)), [("seq", 5, None), ("mset", 3, 5), ("mset", 5, 5)]),
        # A multiset window between two sequence windows takes the wider.
        (
            _ac_grid(("mset", 4), ("seq", 3), ("seq", 5)),
            [("seq", 5, None), ("seq", 3, 5), ("mset", 4, 5)],
        ),
        # The widest scan is refused: the next window down is scanned, and
        # the rest coarsen from it, one scan and one coarsening in all.
        (
            expand_grid(actsim.METHODS, ("mset", "seq"), actsim.WEIGHTINGS, (3, 2**40)),
            [("seq", 2**40, None), ("seq", 3, None), ("mset", 3, 3)],
        ),
        # A lone pair is one scan of its own kind, refused or not.
        (_ac_grid(("mset", 5)), [("mset", 5, None)]),
        (_ac_grid(("mset", 2**40)), [("mset", 2**40, None)]),
        # A refused widest window above multisets: the multiset window is
        # scanned as a sequence table, and both its pairs come from that scan.
        (
            _ac_grid(("mset", 2**40), ("mset", 5), ("seq", 3)),
            [("seq", 2**40, None), ("seq", 5, None), ("seq", 3, 5), ("mset", 5, 5)],
        ),
    ],
)
def test_shared_tables_coarsen_from_the_narrowest_covering_sequence_table(
    monkeypatch, grid, expected
):
    calls = []
    extract = pipeline.extract_occurrences

    def spy(log, window, kind, *, fine=None):
        calls.append((ContextKind(kind).value, window, None if fine is None else fine.window_size))
        return extract(log, window, kind, fine=fine)

    monkeypatch.setattr(pipeline, "extract_occurrences", spy)
    log = random_small_log(random.Random(11), 6, 30)
    tables = pipeline.shared_tables(log, grid)
    assert calls == expected
    _assert_shared(tables, log, grid)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["mset", "seq"]), st.sampled_from([2, 3, 4, 5, 6, 2**40])),
        min_size=1,
        max_size=8,
    )
)
def test_shared_tables_scan_until_accepted_then_coarsen_from_the_narrowest_cover(pairs):
    calls = []
    extract = pipeline.extract_occurrences

    def spy(log, window, kind, *, fine=None):
        calls.append((ContextKind(kind).value, window, None if fine is None else fine.window_size))
        return extract(log, window, kind, fine=fine)

    log = random_small_log(random.Random(11), 6, 30)
    grid = _ac_grid(*pairs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "extract_occurrences", spy)
        tables = pipeline.shared_tables(log, grid)
    _assert_shared(tables, log, grid)
    windows = sorted({n for _, n in pairs}, reverse=True)
    refused = [n for n in windows if n == 2**40]
    accepted = [n for n in windows if n not in refused]
    # Scans: every refused window, all above the first accepted one, then it.
    assert [n for _, n, fine in calls if fine is None] == refused + accepted[:1]
    scanned = pairs[0][0] if len(set(pairs)) == 1 else "seq"
    assert {kind for kind, _, fine in calls if fine is None} == {scanned}
    # Coarsenings: each from the narrowest sequence table made so far that
    # covers its window.
    made = [n for kind, n, fine in calls if fine is None and kind == "seq" and n not in refused]
    for kind, n, fine in calls:
        if fine is not None:
            assert fine == min(m for m in made if m >= n)
            if kind == "seq":
                made.append(n)


def _scipy_csr(rows, cols, weights, shape):
    expected = sparse.coo_matrix((weights, (rows, cols)), shape=shape).tocsr()
    expected.sum_duplicates()
    return expected


@pytest.mark.parametrize("spare", [0, 1])  # bins == cells: direct; one more: sorted
@pytest.mark.parametrize("shape", [(1, 7), (6, 5), (13, 1)])
def test_csr_counts_at_the_direct_boundary(shape, spare):
    rng = np.random.default_rng(sum(shape) + spare)
    size = shape[0] * shape[1] - spare
    rows = rng.integers(0, shape[0], size)
    cols = rng.integers(0, shape[1], size)
    rows[0], cols[0] = shape[0] - 1, shape[1] - 1  # the last cell occurs
    weights = rng.integers(1, 4, size)
    assert actsim.log._direct(shape[0] * shape[1], size) == (spare == 0)
    got = contexts._csr_counts(rows, cols, weights, shape)
    want = _scipy_csr(rows, cols, weights, shape)
    assert got.has_canonical_format and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("spare", [0, 1])  # top cell packs with its position; one more: not
@pytest.mark.parametrize("size", [2, 16, 17])  # the packing shift is 1, 4 and 5
def test_csr_counts_at_the_packing_boundary(size, spare):
    # One row, so a cell's key is its column; the largest is the top cell.
    top = (1 << (63 - (size - 1).bit_length())) - 1 + spare
    rng = np.random.default_rng(size + spare)
    cols = np.array([0, 1, top - 1, top], dtype=np.int64)[rng.integers(0, 4, size)]
    cols[-1] = top
    rows = np.zeros(size, dtype=np.int64)
    weights = rng.integers(1, 4, size)
    got = contexts._csr_counts(rows, cols, weights, (1, top + 1))
    want = _scipy_csr(rows, cols, weights, (1, top + 1))
    assert got.has_canonical_format
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(1, 2**40)), min_size=1),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_csr_counts_match_scipy_on_either_path(cells, more_rows, more_cols):
    rows, cols, weights = (np.array(column, dtype=np.int64) for column in zip(*cells))
    shape = (int(rows.max()) + 1 + more_rows, int(cols.max()) + 1 + more_cols)
    got = contexts._csr_counts(rows, cols, weights, shape)
    want = _scipy_csr(rows, cols, weights, shape)
    assert got.has_canonical_format
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_bad_fine_table_is_a_parameter_error():
    log = worked_log()
    other = log_from_label_traces([list("abcde")] * 5)
    extract_occurrences(log, 4, "mset", fine=extract_occurrences(log, 4, "seq"))
    for fine in (
        extract_occurrences(log, 5, "mset"),  # not a sequence table
        extract_occurrences(log, 3, "seq"),  # a smaller window
        extract_occurrences(other, 5, "seq"),  # another log's event count
    ):
        with pytest.raises(ParameterError):
            extract_occurrences(log, 4, "mset", fine=fine)
