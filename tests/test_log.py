import csv
import io
import pickle
import tempfile
import tracemalloc
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import actsim.log
from actsim import (
    Alphabet,
    EmptyLogError,
    EventLog,
    FormatError,
    ParameterError,
    compute_stats,
    log_from_label_traces,
    parse_csv,
    parse_xes,
    read_log,
    write_log_csv,
    write_stats_csv,
)
from actsim.log import _direct, _intern, _sorted_order, csv_field, csv_line
from reference import csv_module_line, naive_csv_line, naive_parse_csv, naive_parse_xes
from synthetic_logs import big_uniform_log, worked_log


def newline_stream(text: str):
    """``text`` in a temporary UTF-8 file opened with ``newline=""``, so
    a read returns every line end as it is, a bare ``\\r`` too."""
    handle = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    handle.write(text)
    handle.seek(0)
    return handle


WORKED_CSV = "case,activity\n" + "".join(
    f"{case},{act}\n"
    for case, trace in enumerate(["abcde"] * 5 + ["addbe"], start=1)
    for act in trace
)


@st.composite
def repeated_traces(draw):
    """(alphabet size, traces): a few distinct traces, each repeated."""
    size = draw(st.integers(1, 600))
    pool = draw(
        st.lists(
            st.lists(st.integers(1, size), min_size=1, max_size=12).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
    return size, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))


def naive_intern(keys):
    """(first position of each distinct key, number of every key), numbered
    by first appearance."""
    numbers, first = {}, []
    for position, key in enumerate(keys.tolist()):
        if key not in numbers:
            numbers[key] = len(numbers)
            first.append(position)
    return first, [numbers[key] for key in keys.tolist()]


def _assert_interned(keys, bound):
    first, numbers = _intern(keys, bound)
    want_first, want_numbers = naive_intern(keys)
    assert first.dtype == numbers.dtype == np.intp
    assert first.tolist() == want_first
    assert numbers.tolist() == want_numbers


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])  # parse_csv passes uint8 codes
@pytest.mark.parametrize("spare", [0, 1])  # bound == len(keys): direct; one more: sorted
def test_intern_at_the_direct_boundary(dtype, spare):
    rng = np.random.default_rng(spare)
    size = 200
    bound = size + spare
    keys = rng.integers(0, bound, size).astype(dtype)
    keys[5] = bound - 1  # the largest key the bound allows occurs
    assert _direct(bound, size) == (spare == 0)
    _assert_interned(keys, bound)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    st.integers(0, 30),
    st.sampled_from([np.uint8, np.int64]),
)
@example([0], 0, np.uint8)  # one key, bound 1
def test_intern_numbers_by_first_appearance_on_either_path(keys, spare, dtype):
    keys = np.array(keys, dtype=dtype)
    _assert_interned(keys, int(keys.max()) + 1 + spare)
    _assert_interned(keys, None)


def keys_topped_at(n, top, dtype):
    """``n`` keys of ``dtype`` drawn with repeats from 0, 1, top - 1 and
    ``top``, the last of them ``top``."""
    rng = np.random.default_rng(n)
    keys = np.array([0, 1, top - 1, top], dtype=dtype)[rng.integers(0, 4, n)]
    keys[-1] = top
    return keys


def packing_cases():
    """(n, dtype, top): uint8 keys at their dtype's top, and int64 keys at
    the largest key that packs and at the smallest that does not. At n = 1,
    2, 2**k and 2**k + 1 the shift (n - 1).bit_length() steps from 0 to 1
    and from k to k + 1. One key packs up to 2**63 - 1, so it has no key
    that does not."""
    for n in (1, 2, 16, 17):
        limit = 1 << (63 - (n - 1).bit_length())
        yield n, np.uint8, 255
        yield n, np.int64, limit - 1
        if limit < 1 << 63:
            yield n, np.int64, limit


@pytest.mark.parametrize("n, dtype, top", list(packing_cases()))
def test_sorted_order_at_the_packing_boundary(n, dtype, top):
    # A key packed a bit too high would wrap negative and sort first.
    keys = keys_topped_at(n, top, dtype)
    perm, ordered = _sorted_order(keys)
    assert perm.tolist() == np.argsort(keys, kind="stable").tolist()
    assert ordered.tolist() == np.sort(keys).tolist()
    _assert_interned(keys, None)


class TestAlphabet:
    def test_pad_is_id_zero(self):
        alphabet = Alphabet(["x", "y"])
        assert alphabet.label_of(0) == "__PAD__"
        assert alphabet.id_of("x") == 1
        assert alphabet.id_of("y") == 2
        assert len(alphabet) == 2

    def test_reserved_label_rejected(self):
        with pytest.raises(ParameterError):
            Alphabet(["a", "__PAD__"])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParameterError):
            Alphabet(["a", "a"])

    def test_unknown_lookups(self):
        alphabet = Alphabet(["a"])
        with pytest.raises(ParameterError):
            alphabet.id_of("b")
        with pytest.raises(ParameterError):
            alphabet.label_of(5)

    def test_labels_of_keeps_the_shape_and_checks_both_ends(self):
        alphabet = Alphabet(["x", "y"])
        labels = alphabet.labels_of(np.array([[2, 0], [1, 2]]))
        assert labels.shape == (2, 2)
        assert labels.tolist() == [["y", "__PAD__"], ["x", "y"]]
        assert alphabet.labels_of(()).tolist() == []
        for ids, bad in (([1, -1, 3], -1), ([1, 3, 4], 4)):
            with pytest.raises(ParameterError, match=f"unknown activity id {bad}$"):
                alphabet.labels_of(ids)

    def test_extended_keeps_ids(self):
        alphabet = Alphabet(["a", "b"])
        bigger = alphabet.extended(["c"])
        assert bigger.id_of("a") == alphabet.id_of("a")
        assert bigger.id_of("c") == 3
        assert len(alphabet) == 2  # original untouched

    def test_activity_ids_and_equality(self):
        alphabet = Alphabet(["x", "y"])
        assert alphabet.activity_ids() == range(1, 3)
        assert Alphabet([]).activity_ids() == range(1, 1)
        assert alphabet == Alphabet(["x", "y"]) and alphabet != Alphabet(["y", "x"])
        assert alphabet.__eq__(("x", "y")) is NotImplemented
        assert alphabet != ("x", "y")


class TestEventLog:
    def test_repr_and_equality(self):
        log = worked_log()
        assert repr(log) == "EventLog(6 traces, 30 events, Alphabet(5 activities))"
        assert log == worked_log() and log != EventLog(((1,),), log.alphabet)
        assert log.__eq__(log.traces) is NotImplemented
        assert log != log.traces

    def test_empty_trace_rejected(self):
        with pytest.raises(ParameterError):
            EventLog(((),), Alphabet(["a"]))

    def test_pad_id_rejected_in_trace(self):
        with pytest.raises(ParameterError):
            EventLog(((1, 0),), Alphabet(["a"]))

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ParameterError):
            EventLog(((1, 2),), Alphabet(["a"]))

    def test_counts(self):
        log = worked_log()
        assert log.n_events == 30
        counts = log.activity_counts()
        by_label = {log.alphabet.label_of(a): c for a, c in counts.items()}
        assert by_label == {"a": 6, "b": 6, "c": 5, "d": 7, "e": 6}

    OUTSIDE = "contains an id outside the alphabet (PAD is not allowed)"

    @pytest.mark.parametrize(
        "traces, message",
        [
            (((1,), (), (0,)), "trace 1 is empty"),
            (((1,), (1, 2), ()), f"trace 1 {OUTSIDE}"),
            (((1, 1), (1, 0, 1)), f"trace 1 {OUTSIDE}"),
            (((1,), (1,), (2,)), f"trace 2 {OUTSIDE}"),
            (((),), "trace 0 is empty"),
            (((1,), (), ()), "trace 1 is empty"),
        ],
    )
    def test_first_failing_trace_decides(self, traces, message):
        # Both constructors validate the same way: PAD (0) and len + 1 are
        # the nearest ids outside the alphabet, and the earlier trace wins.
        alphabet = Alphabet(["a"])
        flat = np.array([aid for trace in traces for aid in trace], dtype=np.int64)
        offsets = np.cumsum([0] + [len(trace) for trace in traces])
        for build in (
            lambda: EventLog(traces, alphabet),
            lambda: EventLog.from_arrays(flat, offsets, alphabet),
        ):
            with pytest.raises(ParameterError) as excinfo:
                build()
            assert str(excinfo.value) == message

    def test_offsets_must_span_the_events(self):
        alphabet = Alphabet(["a"])
        with pytest.raises(ParameterError, match="offsets"):
            EventLog.from_arrays(np.array([1, 1]), np.array([0, 1]), alphabet)
        with pytest.raises(ParameterError, match="offsets"):
            EventLog.from_arrays(np.array([1, 1]), np.array([0, 2, 1, 2]), alphabet)

    def test_empty_log(self):
        log = EventLog((), Alphabet(["a"]))
        assert log.is_empty and log.n_traces == 0 and log.n_events == 0
        assert log.traces == () and log.label_traces() == []
        assert log.offsets.tolist() == [0] and log.events.tolist() == []
        assert log.activity_counts() == {}
        assert len(log.variants.counts) == 0 and len(log.variant_numbers) == 0

    def test_traces_round_trip(self):
        traces = ((1, 2, 2), (3,), (1, 2, 2), (2, 1))
        log = EventLog(traces, Alphabet(["a", "b", "c"]))
        assert log.traces == traces
        assert log.events.tolist() == [1, 2, 2, 3, 1, 2, 2, 2, 1]
        assert log.offsets.tolist() == [0, 3, 4, 7, 9]
        rebuilt = EventLog.from_arrays(log.events.copy(), log.offsets.copy(), log.alphabet)
        assert "traces" not in vars(rebuilt)  # no tuples until they are read
        assert rebuilt.traces == traces and rebuilt == log
        assert pickle.loads(pickle.dumps(rebuilt)) == log

    def test_variants_in_first_appearance_order(self):
        log = EventLog(((2, 1), (1,), (2, 1), (1, 1), (1,), (2, 1)), Alphabet(["a", "b"]))
        events, lengths, counts = log.variants
        assert events.tolist() == [2, 1, 1, 1, 1]
        assert lengths.tolist() == [2, 1, 2]
        assert counts.tolist() == [3, 2, 1]
        assert log.variants is log.variants
        assert log.variant_numbers.tolist() == [0, 1, 0, 2, 1, 0]

    @settings(max_examples=150, deadline=None)
    @given(repeated_traces())
    # Traces that differ only in their first event, only in their length,
    # or that end with another whole trace.
    @example((511, [(1,) + (511,) * 9, (2,) + (511,) * 9, (1,) + (511,) * 9, (1,) * 8, (1,) * 9]))
    @example((600, [(600,) * 14, (599,) + (600,) * 13, (600,) * 14, (1,)]))
    @example((511, [(1,) * 7 + (5, 6, 7, 8, 9, 10, 11), (5, 6, 7, 8, 9, 10, 11)]))
    @example((2, [(1,) * 65, (1,) * 64, (1,) * 65, (1,) * 64 + (2,), (2,) + (1,) * 64, (1,) * 65]))
    def test_variant_numbers_match_a_dedupe(self, case):
        size, traces = case
        log = EventLog(traces, Alphabet(f"a{i}" for i in range(size)))
        numbers: dict[tuple[int, ...], int] = {}
        expected = [numbers.setdefault(trace, len(numbers)) for trace in traces]
        assert log.variant_numbers.dtype == np.int64
        assert log.variant_numbers.tolist() == expected
        events, lengths, counts = log.variants
        distinct = list(numbers)
        assert events.tolist() == [aid for trace in distinct for aid in trace]
        assert lengths.tolist() == list(map(len, distinct))
        assert counts.tolist() == [traces.count(trace) for trace in distinct]
        for array in (log.variant_numbers, events, lengths, counts):
            assert array.dtype == np.int64 and not array.flags.writeable

    def test_absent_activity_counts_zero(self):
        log = EventLog(((1, 3, 3),), Alphabet(["a", "b", "c"]))
        counts = log.activity_counts()
        assert counts[2] == 0 and 2 not in counts
        assert counts == {1: 1, 3: 2}

    def test_label_traces_reject_the_pad_label(self):
        with pytest.raises(FormatError, match="^activity label '__PAD__' is reserved$"):
            log_from_label_traces([["a"], ["b", "__PAD__"]])

    def test_label_traces_reject_the_empty_label(self):
        # parse_csv refuses an empty label, so a log holding one could not
        # be read back from its own CSV.
        with pytest.raises(FormatError, match="^activity label '' is reserved$"):
            log_from_label_traces([["", "b"]])

    def test_arrays_are_read_only(self):
        for log in (worked_log(), EventLog(((1, 2),), Alphabet(["a", "b"]))):
            for array in (log.events, log.offsets, *log.variants):
                with pytest.raises(ValueError):
                    array[0] = 1
            with pytest.raises(AttributeError):
                log.events = np.array([1])


class TestParseCsv:
    def test_worked_example(self):
        log = parse_csv(WORKED_CSV)
        assert log.alphabet.labels() == ("a", "b", "c", "d", "e")
        assert len(log.traces) == 6
        assert log.label_traces()[5] == ("a", "d", "d", "b", "e")

    def test_traces_follow_case_first_appearance(self):
        text = "case,activity\nB,x\nA,y\nB,z\nA,w\n"
        log = parse_csv(text)
        assert log.label_traces() == [("x", "z"), ("y", "w")]

    def test_timestamp_ordering_with_stable_ties(self):
        text = (
            "case,activity,ts\n"
            "1,c,2024-01-01T10:00:02\n"
            "1,a,2024-01-01T10:00:01\n"
            "1,b,2024-01-01T10:00:01\n"
        )
        log = parse_csv(text, timestamp_column="ts")
        # a and b tie; file order between them is kept.
        assert log.label_traces() == [("a", "b", "c")]

    def test_timestamp_zulu_suffix(self):
        text = "case,activity,ts\n1,a,2024-01-01T00:00:00Z\n"
        assert parse_csv(text, timestamp_column="ts").label_traces() == [("a",)]

    def test_rfc4180_quoting(self):
        text = 'case,activity\n1,"hello, world"\n1,"say ""hi"""\n'
        log = parse_csv(text)
        assert log.label_traces() == [("hello, world", 'say "hi"')]

    def test_missing_column(self):
        with pytest.raises(FormatError, match="missing column"):
            parse_csv("case,act\n1,a\n")

    def test_bad_timestamp_names_row(self):
        text = "case,activity,ts\n1,a,2024-01-01T00:00:00\n1,b,not-a-time\n"
        with pytest.raises(FormatError, match="row 3"):
            parse_csv(text, timestamp_column="ts")

    def test_short_row_names_row(self):
        with pytest.raises(FormatError, match="row 2"):
            parse_csv("case,activity\nonlycase\n")

    def test_empty_file(self):
        with pytest.raises(EmptyLogError, match="empty log"):
            parse_csv("")

    def test_header_only(self):
        with pytest.raises(EmptyLogError, match="empty log"):
            parse_csv("case,activity\n")

    def test_reserved_label(self):
        with pytest.raises(FormatError, match="__PAD__"):
            parse_csv("case,activity\n1,__PAD__\n")

    def test_accepts_stream(self):
        log = parse_csv(io.StringIO(WORKED_CSV))
        assert len(log.traces) == 6

    @pytest.mark.parametrize("wrap", [str, io.StringIO])
    def test_leading_byte_order_mark_ignored(self, wrap):
        log = parse_csv(wrap("\ufeffcase,activity\n1,a\n1,b\n"))
        assert log.label_traces() == [("a", "b")]

    def test_path_with_byte_order_mark(self, tmp_path):
        source = tmp_path / "excel.csv"
        source.write_bytes("case,activity\n1,a\n1,b\n".encode("utf-8-sig"))
        assert parse_csv(source).label_traces() == [("a", "b")]

    @pytest.mark.parametrize("wrap", [str, io.StringIO, newline_stream])
    def test_bare_carriage_return_names_row(self, wrap):
        with pytest.raises(FormatError, match="^row 3: new-line character seen in unquoted"):
            parse_csv(wrap("case,activity\n1,a\n1,b\rc\n"))

    def test_field_over_the_csv_limit_names_row(self):
        text = "case,activity\n1,a\n1," + "x" * (csv.field_size_limit() + 1) + "\n"
        with pytest.raises(FormatError, match="^row 3: field larger than field limit"):
            parse_csv(text)

    def test_path_is_streamed(self, tmp_path):
        log = big_uniform_log(3, n_traces=5000)
        source = tmp_path / "big.csv"
        write_log_csv(log, source)
        tracemalloc.start()
        try:
            parsed = parse_csv(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.label_traces() == log.label_traces()
        assert peak < 5 * source.stat().st_size

    def test_string_is_streamed_like_a_path(self, tmp_path):
        log = big_uniform_log(3, n_traces=5000)
        source = tmp_path / "big.csv"
        write_log_csv(log, source)
        text = source.read_text(encoding="utf-8")
        peaks = {}
        for given_source in (source, text):
            tracemalloc.start()
            try:
                parsed = parse_csv(given_source)
                peaks[type(given_source)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert parsed.label_traces() == log.label_traces()
        # A StringIO over the whole string would add 4 bytes per character.
        assert peaks[str] <= 1.5 * peaks[type(source)]

    def test_not_utf8(self, tmp_path):
        data = "case,activity\n1,café\n".encode("latin-1")
        source = tmp_path / "latin1.csv"
        source.write_bytes(data)
        with pytest.raises(FormatError, match="cannot decode .*latin1.csv as UTF-8"):
            parse_csv(source)
        with pytest.raises(FormatError, match="cannot decode the input stream as UTF-8"):
            parse_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


class TestParseXes:
    XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="case1"/>
    <event><string key="concept:name" value="a"/><string key="org:resource" value="r1"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <event><string key="concept:name" value="a"/></event>
  </trace>
</log>
"""

    def test_minimal_document(self):
        log = parse_xes(self.XES)
        assert log.label_traces() == [("a", "b"), ("a",)]

    def test_namespace_and_extra_attributes_ignored(self):
        # The default namespace above already exercises local-name matching.
        log = parse_xes(self.XES)
        assert log.alphabet.labels() == ("a", "b")

    def test_event_without_name(self):
        bad = "<log><trace><event><string key='other' value='x'/></event></trace></log>"
        with pytest.raises(FormatError, match="trace 0"):
            parse_xes(bad)

    def test_empty_label(self):
        # An empty label would be written as an empty CSV field, which
        # parse_csv refuses.
        bad = (
            "<log><trace><event><string key='concept:name' value='a'/></event></trace>"
            "<trace><event><string key='concept:name' value='b'/></event>"
            "<event><string key='concept:name' value=''/></event></trace></log>"
        )
        with pytest.raises(FormatError, match="^trace 1: event 1 has an empty activity label$"):
            parse_xes(bad)

    def test_trace_without_events(self):
        bad = "<log><trace><event><string key='concept:name' value='a'/></event></trace><trace/></log>"
        with pytest.raises(FormatError, match="trace 1"):
            parse_xes(bad)

    def test_no_traces(self):
        with pytest.raises(EmptyLogError, match="empty log"):
            parse_xes("<log></log>")

    def test_malformed_xml(self):
        with pytest.raises(FormatError, match="malformed"):
            parse_xes("<log><trace>")

    def test_reserved_label(self):
        bad = "<log><trace><event><string key='concept:name' value='__PAD__'/></event></trace></log>"
        with pytest.raises(FormatError, match="__PAD__"):
            parse_xes(bad)

    def test_path_not_utf8(self, tmp_path):
        source = tmp_path / "latin1.xes"
        source.write_bytes(self.XES.replace('"b"', '"café"').encode("latin-1"))
        with pytest.raises(FormatError, match="cannot decode .*latin1.xes as UTF-8"):
            parse_xes(source)

    @staticmethod
    def document(label_traces) -> str:
        event = '<event><string key="concept:name" value={}/></event>'
        traces = (
            "<trace>" + "".join(event.format(quoteattr(label)) for label in trace) + "</trace>\n"
            for trace in label_traces
        )
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n'
            + "".join(traces)
            + "</log>\n"
        )

    def test_later_trace_without_name(self, tmp_path):
        good = "<trace><event><string key='concept:name' value='a'/></event></trace>"
        bad = "<trace><event><string key='concept:name' value='a'/></event><event/></trace>"
        source = tmp_path / "late.xes"
        source.write_text("<log>" + good * 2000 + bad + good + "</log>", encoding="utf-8")
        with pytest.raises(FormatError, match="^trace 2000: event 1 lacks a concept:name"):
            parse_xes(source)

    def test_byte_order_mark_on_every_source(self, tmp_path):
        text = "\ufeff" + self.XES
        source = tmp_path / "bom.xes"
        source.write_text(text, encoding="utf-8")
        for given_source in (text, io.StringIO(text), source):
            assert parse_xes(given_source).label_traces() == [("a", "b"), ("a",)]

    def test_path_is_streamed(self, tmp_path):
        log = big_uniform_log(3, n_traces=5000)
        source = tmp_path / "big.xes"
        source.write_text(self.document(log.label_traces()), encoding="utf-8")
        tracemalloc.start()
        try:
            parsed = parse_xes(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.label_traces() == log.label_traces()
        assert peak < 4 * source.stat().st_size

    def test_a_one_line_document_is_streamed_like_one_trace_per_line(self, tmp_path):
        # Expat takes the document in reads of a block whatever its lines:
        # a reader that waited for a line feed would hold all of it.
        text = self.document(big_uniform_log(3, n_traces=5000).label_traces())
        peaks, logs = [], []
        for name, document in (("lines", text), ("one_line", text.replace("\n", ""))):
            source = tmp_path / f"{name}.xes"
            source.write_text(document, encoding="utf-8")
            tracemalloc.start()
            try:
                logs.append(parse_xes(source))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert logs[1] == logs[0]
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(['say "hi"', "a & b", "<tag>", "ünïcödé", "日本", "plain"]),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_any_labels_roundtrip(self, label_traces):
        assert parse_xes(self.document(label_traces)) == log_from_label_traces(label_traces)


def parse_outcome(parse, source, **options):
    """The log and alphabet a parser returns, or the type and message of
    the format error it raises. A stream is closed once it is parsed."""
    try:
        log = parse(source, **options)
    except (FormatError, EmptyLogError) as exc:
        return type(exc), str(exc)
    finally:
        if isinstance(source, io.IOBase):
            source.close()
    return log, log.alphabet


def sources(text: str, path):
    """``text`` as a string, as a stream, as a UTF-8 file at ``path``, and
    as a file stream that keeps its line ends."""
    path.write_bytes(text.encode("utf-8"))
    return {
        "str": lambda: text,
        "stream": lambda: io.StringIO(text),
        "path": lambda: path,
        "newline stream": lambda: newline_stream(text),
    }


def rare(common, *faults, weight=8):
    """``common`` most of the time and each of ``faults`` now and then."""
    return st.sampled_from([None] * weight + list(faults)).flatmap(
        lambda fault: common if fault is None else fault
    )


CSV_CASES = ["1", "2", "c,3", 'q"4']
CSV_LABELS = ["a", "b", "x, y", 'say "hi"', "two\r\nlines", "ünï"]
CSV_STAMPS = {
    "naive": ["2024-01-01T10:00:00", " 2024-01-01T09:59:59 ", "2024-01-01"],
    "aware": ["2024-01-01T10:00:00Z", "2024-01-01T09:00:00z", "2024-01-01T10:00:00+02:00"],
}


@st.composite
def csv_documents(draw):
    """CSV text as ``csv.writer`` writes it, so the csv module accepts it:
    mostly good rows, with now and then a blank line, a row of empty
    fields, a short row, an empty case or label, ``__PAD__``, or a bad
    timestamp; the timestamps of a document may mix aware and naive."""
    header = draw(st.permutations(["case", "activity", "ts", "other"]))
    stamps = draw(st.sampled_from([["naive"], ["aware"], ["naive", "aware"]]))
    stamp = st.sampled_from([value for kind in stamps for value in CSV_STAMPS[kind]])
    row = st.fixed_dictionaries(
        {
            "case": rare(st.sampled_from(CSV_CASES), st.just(""), weight=60),
            "activity": rare(st.sampled_from(CSV_LABELS), st.just(""), st.just("__PAD__"), weight=60),
            "ts": rare(stamp, st.just("not-a-time"), st.just(""), weight=60),
            "other": st.just("x"),
        }
    ).map(lambda fields: [fields[name] for name in header])
    rows = rare(
        row,
        st.just([]),  # a blank line
        st.just([""] * len(header)),  # a row of empty fields
        row.flatmap(lambda fields: st.integers(1, len(fields) - 1).map(lambda n: fields[:n])),
        weight=60,
    )
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerow(header)
    writer.writerows(draw(st.lists(rows, max_size=12)))
    return draw(st.sampled_from(["", "\ufeff"])) + buffer.getvalue()


XES_LABELS = ["a", "b", "", 'q"x', "a & b", "<c>", "ünï"]
XES_NAMESPACES = {
    "none": ("", ""),
    "default": ("", ' xmlns="http://www.xes-standard.org/"'),
    "prefixed": ("x:", ' xmlns:x="http://www.xes-standard.org/"'),
}


@st.composite
def xes_documents(draw):
    """XES text over three namespace styles: mostly events named by their
    first ``concept:name`` string, among other attributes and nested
    strings that do not count, with now and then a reserved or missing
    name, a name without a value, an empty or nested trace, a trace deeper
    in the log, or a document cut short."""
    prefix, declaration = XES_NAMESPACES[draw(st.sampled_from(sorted(XES_NAMESPACES)))]

    def tag(name, body="", attributes=""):
        name = prefix + name
        return f"<{name}{attributes}>{body}</{name}>" if body else f"<{name}{attributes}/>"

    def string(key, value=None):
        value = "" if value is None else f" value={quoteattr(value)}"
        return tag("string", attributes=f" key={quoteattr(key)}{value}")

    label = st.sampled_from(XES_LABELS)
    name = label.map(lambda value: string("concept:name", value))
    other = st.one_of(
        label.map(lambda value: string("org:resource", value)),
        label.map(lambda value: tag("list", string("concept:name", value), ' key="nested"')),
        st.just(tag("date", attributes=' key="time:timestamp" value="2024-01-01T00:00:00"')),
    )
    naming = rare(
        name,
        st.just(""),  # no name
        st.just(string("concept:name", "__PAD__")),
        name.map(lambda valid: string("concept:name") + valid),  # no value, then a value
    )
    event = st.tuples(
        st.lists(other, max_size=2), naming, st.lists(st.one_of(other, name), max_size=1),
        st.sampled_from(["", ' id="7"']),
    ).map(lambda parts: tag("event", "".join(parts[0]) + parts[1] + "".join(parts[2]), parts[3]))

    def trace(child):
        return rare(st.lists(child, min_size=1, max_size=4), st.just([])).map(
            lambda parts: tag("trace", "".join(parts))
        )

    plain_trace = trace(rare(event, name))  # a name at trace level does not count
    nested_trace = trace(rare(event, plain_trace, weight=2))
    log_child = rare(
        st.one_of(plain_trace, nested_trace),
        event,  # an event outside any trace
        plain_trace.map(lambda body: tag("group", body)),  # a trace deeper in the log
    )
    text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        + f"<{prefix}log{declaration}>"
        + "".join(draw(st.lists(log_child, max_size=6)))
        + f"</{prefix}log>\n"
    )
    if draw(st.sampled_from([False] * 4 + [True])):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return draw(st.sampled_from(["", "\ufeff"])) + text


class _UnreadableStream(io.StringIO):
    """A stream whose every read fails, as a dropped network file does."""

    def read(self, *args):
        raise OSError("connection reset")

    readline = read

    def __next__(self):
        raise OSError("connection reset")


@pytest.mark.parametrize("parse", [parse_csv, parse_xes])
def test_a_stream_that_cannot_be_read_raises_its_own_error(parse, tmp_path):
    # A caller's stream is the caller's: its OSError passes through as it
    # is. Only a path that cannot be read is a format error.
    with pytest.raises(OSError, match="^connection reset$") as raised:
        parse(_UnreadableStream())
    assert type(raised.value) is OSError
    with pytest.raises(FormatError, match=f"^cannot read {tmp_path}: "):
        parse(tmp_path)


class TestParserOracle:
    """The streamed parsers against the plain ones in ``reference.py``:
    the same log and alphabet, or the same error and message."""

    @settings(max_examples=200, deadline=None)
    @given(csv_documents(), st.sampled_from([None, "ts"]))
    def test_csv(self, tmp_path_factory, text, timestamp_column):
        path = tmp_path_factory.mktemp("csv") / "log.csv"
        for kind, source in sources(text, path).items():
            expected = parse_outcome(naive_parse_csv, source(), timestamp_column=timestamp_column)
            actual = parse_outcome(parse_csv, source(), timestamp_column=timestamp_column)
            assert actual == expected, kind

    @settings(max_examples=200, deadline=None)
    @given(xes_documents())
    @example(
        "<log><trace><event><string key='concept:name' value='a'/></event>"
        "<trace><event><string key='concept:name' value='b'/></event></trace>"
        "<event><string key='concept:name' value='c'/></event></trace></log>"
    )
    def test_xes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("xes") / "log.xes"
        for kind, source in sources(text, path).items():
            assert parse_outcome(parse_xes, source()) == parse_outcome(naive_parse_xes, source()), kind


class TestBlockCuts:
    """Texts of several 64k-character blocks, whose cuts fall inside
    quoted fields and long lines, parse as the oracle parses them."""

    @staticmethod
    def csv_text(line_end: str, mark: str) -> str:
        lines = "".join(f"line {i}\n" for i in range(9000))  # a quoted field over a block
        rows = [[f"c{i % 7}", "ab"[i % 2]] for i in range(3000)]
        rows[100:100] = [["c1", "two\nlines"], ["c2", "two\r\nlines"], ["c3", lines]]
        rows[1500:1500] = [["c4", "y" * 100_000]]  # one field longer than a block
        rows[2500:2500] = [[f"c{i}", f"{i}\r\n\n{i}"] for i in range(500)]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=line_end)
        writer.writerow(["case", "activity"])
        writer.writerows(rows)
        return mark + buffer.getvalue()

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_csv(self, tmp_path, line_end, mark):
        text = self.csv_text(line_end, mark)
        assert len(text) > 3 << 16
        for kind, source in sources(text, tmp_path / "log.csv").items():
            expected = parse_outcome(naive_parse_csv, source())
            assert expected[0] is not FormatError
            assert parse_outcome(parse_csv, source()) == expected, kind

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "bom"])
    def test_xes(self, tmp_path, mark):
        traces = [["a", "b & c", "ünï"][: 1 + i % 3] for i in range(3000)]
        traces[1000] = [f"e{i}" for i in range(2000)]  # a line over a block
        text = mark + TestParseXes.document(traces).replace("</trace>\n", "</trace>\r\n")
        assert len(text) > 3 << 16
        for kind, source in sources(text, tmp_path / "log.xes").items():
            expected = parse_outcome(naive_parse_xes, source())
            assert expected[0] is not FormatError
            assert parse_outcome(parse_xes, source()) == expected, kind


@pytest.mark.parametrize(
    "parse, text, error",
    [
        (parse_csv, "case,activity\n" + "1,a\n" * 30000 + "1\n", "^row 30002: expected"),
        (
            parse_xes,
            "<log>\n" + "<trace><event><string key='concept:name' value='a'/></event></trace>\n"
            * 2000 + "<trace/>\n</log>\n",
            "^trace 2000 has no events$",
        ),
    ],
    ids=["csv", "xes"],
)
def test_a_path_is_closed_before_its_parse_error_is_raised(
    parse, text, error, tmp_path, monkeypatch
):
    handles = []

    def spy(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(actsim.log, "open", spy, raising=False)
    source = tmp_path / "bad.log"
    source.write_text(text, encoding="utf-8")
    assert source.stat().st_size > 1 << 16
    # ``raised`` keeps the error's traceback alive while the handle is
    # checked, and with it the parser's frame and every reader it made.
    with pytest.raises(FormatError, match=error) as raised:
        parse(source)
    assert len(handles) == 1
    assert handles[0].closed


@pytest.mark.parametrize("n_labels", [255, 256])
def test_csv_label_numbers_across_the_narrow_code_boundary(n_labels):
    # The label codes are interned in the narrowest dtype that holds them
    # (uint8 up to 255 labels). Interleaved cases make first appearance in
    # trace order differ from file order.
    rows = "".join(f"{i % 3},l{i * 7 % n_labels}\n" for i in range(3 * n_labels))
    text = "case,activity\n" + rows
    got, want = parse_csv(text), naive_parse_csv(text)
    assert len(got.alphabet) == n_labels
    assert got.alphabet == want.alphabet
    assert np.array_equal(got.events, want.events)
    assert np.array_equal(got.offsets, want.offsets)


class TestRoundTrip:
    def test_worked_example(self):
        log = parse_csv(WORKED_CSV)
        buffer = io.StringIO()
        write_log_csv(log, buffer)
        again = parse_csv(buffer.getvalue())
        assert again.traces == log.traces
        assert again.alphabet == log.alphabet

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "b, c", 'q"x', "normal", "white space", "ünïcode"]),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_any_labels_roundtrip(self, label_traces):
        log = log_from_label_traces(label_traces)
        buffer = io.StringIO()
        write_log_csv(log, buffer)
        again = parse_csv(buffer.getvalue())
        assert again.traces == log.traces
        assert again.alphabet == log.alphabet

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(
        st.text(st.sampled_from(',"\r\n{< é'), min_size=1, max_size=4), min_size=1, max_size=5
    ), min_size=1, max_size=6))
    def test_line_breaks_in_labels_roundtrip(self, label_traces):
        # A label with a \r or a \n is quoted, so it is one field in a
        # string and in a file read by path alike.
        log = log_from_label_traces(label_traces)
        buffer = io.StringIO()
        write_log_csv(log, buffer)
        text = buffer.getvalue()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            path.write_bytes(text.encode("utf-8"))
            for source in (text, path):
                again = parse_csv(source)
                assert again.traces == log.traces
                assert again.alphabet == log.alphabet

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text(st.sampled_from(',"\r\n \t\x0b\x0c\x1c\x85\u2028é'), max_size=5), st.integers()
    ), max_size=4))
    def test_csv_line_is_the_stated_rule(self, fields):
        # No NUL: the csv module of Python 3.10 refuses to read one.
        texts = [str(field) for field in fields]
        line = csv_line(fields)
        assert line == csv_module_line(fields) == naive_csv_line(texts)
        assert next(csv.reader(io.StringIO(line, newline=""))) == texts
        for field, text in zip(fields, texts):
            assert csv_field(field) == csv_module_line([field, ""])[:-2]
            assert csv_field(field) == naive_csv_line([text, ""])[:-2]

    def test_stats_quote_a_carriage_return(self, tmp_path):
        log = log_from_label_traces([["a\rb", "c\nd", "a\rb"]])
        write_stats_csv(compute_stats(log), tmp_path / "stats.csv")
        with open(tmp_path / "stats.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert [row[1] for row in rows] == ["activity", "a\rb", "c\nd"]


class TestStats:
    def test_worked_example(self):
        stats = compute_stats(worked_log())
        assert stats.activity_count == 5
        assert stats.trace_count == 6
        assert stats.variant_count == 2
        assert stats.variant_ratio == pytest.approx(1 / 3)
        assert stats.avg_trace_length == pytest.approx(5.0)
        top = stats.rank_entries[0]
        assert (top.rank, top.label, top.count) == (1, "d", 7)
        assert top.relative_frequency == pytest.approx(7 / 30)

    def test_tie_order_by_activity_id(self):
        # b and a tie at 2; b was interned first (lower id), so it ranks first.
        log = log_from_label_traces([["b", "a"], ["a", "b"]])
        labels = [e.label for e in compute_stats(log).rank_entries]
        assert labels == ["b", "a"]
        ranks = [e.rank for e in compute_stats(log).rank_entries]
        assert ranks == [1, 2]

    def test_relative_frequencies_sum_to_one(self):
        stats = compute_stats(worked_log())
        assert sum(e.relative_frequency for e in stats.rank_entries) == pytest.approx(1.0, abs=1e-9)

    def test_empty_log(self):
        with pytest.raises(EmptyLogError):
            compute_stats(EventLog((), Alphabet(["a"])))

    def test_csv_export(self):
        buffer = io.StringIO()
        write_stats_csv(compute_stats(worked_log()), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "rank,activity,frequency,relative_frequency"
        assert lines[1].startswith("1,d,7,")
        assert len(lines) == 6


def test_read_log_format_dispatch(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text(WORKED_CSV, encoding="utf-8")
    xes_path = tmp_path / "log.xes"
    xes_path.write_text(TestParseXes.XES, encoding="utf-8")
    assert len(read_log(csv_path).traces) == 6
    assert len(read_log(xes_path).traces) == 2
    with pytest.raises(ParameterError):
        read_log(csv_path, fmt="parquet")
