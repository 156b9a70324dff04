import csv
import io
import json

import numpy as np
import pytest
from scipy import sparse

from actsim import bench, contexts
from actsim import (
    AggregateReport,
    Alphabet,
    ContextKind,
    EmptyLogError,
    EventLog,
    ExportError,
    FailedJob,
    IntrinsicScores,
    MethodConfig,
    ParameterError,
    aggregate_scores,
    build_embedding,
    dimension_bound,
    expand_grid,
    export_report,
    extract_occurrences,
    make_config,
    run_intrinsic_benchmark,
    run_runtime_bench,
    TimingRecord,
    TimingReport,
)
from actsim.intrinsic import AggregateRow
from synthetic_logs import structured_log, worked_log


def full_grid(windows=(3, 5, 9)):
    return expand_grid(
        methods=("aa", "ac", "substitution"),
        kinds=("mset", "seq"),
        weightings=("none", "pmi", "ppmi"),
        windows=windows,
    )


class TestRuntimeBench:
    def test_full_grid_record_count(self):
        configs = full_grid()
        # 18 aa + 18 ac + one substitution per window.
        assert len(configs) == 39
        report = run_runtime_bench(worked_log(), configs, repetitions=1)
        assert len(report.records) == 39
        assert all(r.error is None for r in report.records)
        assert report.repetitions == 1

    def test_dimensions_on_worked_log(self):
        log = worked_log()
        configs = [
            make_config("ac", "mset", "none", 3),
            make_config("ac", "seq", "none", 3),
            make_config("aa", "mset", "none", 3),
            make_config("substitution", "seq", "none", 3),
        ]
        report = run_runtime_bench(log, configs, repetitions=1)
        dims = [r.embedding_dimension for r in report.records]
        assert dims == [7, 10, 5, 5]
        sub = report.records[3]
        assert sub.distance_seconds == 0.0
        assert report.records[0].distance_seconds > 0.0

    def test_every_distance_repetition_builds_the_pair_plan(self, monkeypatch):
        plans = []

        def counting(counts):
            plans.append(counts)
            return pair_plan(counts)

        pair_plan = contexts._pair_plan
        monkeypatch.setattr(contexts, "_pair_plan", counting)
        for weighting in ("none", "ppmi"):
            plans.clear()
            config = make_config("ac", "seq", weighting, 3)
            run_runtime_bench(worked_log(), [config], repetitions=3)
            assert len(plans) == 3

    def test_every_distance_repetition_takes_the_pair_plan(self, monkeypatch):
        # The plan reads the raw counts and the table's cached PMI and PPMI
        # CSRs, each known by identity (PPMI drops cells of this table); a
        # matrix it does not know falls back to scipy's sparse product.
        log = structured_log(7, 300, 12)
        table = extract_occurrences(log, 3, "seq")
        weightings = ["none", "pmi", "ppmi"]
        configs = [make_config("ac", "seq", weighting, 3) for weighting in weightings]
        assert build_embedding(table, configs[-1]).values.nnz < table.counts.nnz

        def refused(*_):
            raise AssertionError("scipy's sparse product")

        monkeypatch.setattr(sparse.csr_matrix, "__matmul__", refused)
        with pytest.raises(AssertionError):
            table.counts @ table.counts.T
        records = run_runtime_bench(log, configs, repetitions=3).records
        assert [record.weighting for record in records] == weightings
        for record in records:
            assert record.error is None and record.distance_seconds > 0.0

    def test_error_record_keeps_sweep_going(self):
        bad = MethodConfig("substitution", ContextKind.MULTISET, "none", 3)
        good = make_config("aa", "mset", "none", 3)
        report = run_runtime_bench(worked_log(), [bad, good], repetitions=1)
        first, second = report.records
        assert first.error is not None and "substitution" in first.error
        assert first.embed_seconds == 0.0 and first.embedding_dimension == 0
        assert first.estimated_bytes == 0
        assert second.error is None and second.embedding_dimension == 5

    def test_ac_dimension_bound(self):
        log = worked_log()
        for window in (2, 3, 4):
            for kind in ("mset", "seq"):
                config = make_config("ac", kind, "none", window)
                report = run_runtime_bench(log, [config], repetitions=1)
                dim = report.records[0].embedding_dimension
                assert 0 < dim <= dimension_bound(len(log.alphabet), window)

    def test_memory_estimate_arithmetic(self):
        log = worked_log()
        config = make_config("ac", "mset", "none", 3)
        report = run_runtime_bench(log, [config], repetitions=1)
        record = report.records[0]
        matrix = build_embedding(extract_occurrences(log, 3, "mset"), config)
        rows, dim = matrix.shape
        nnz = int(np.count_nonzero(matrix.values.data if sparse.issparse(matrix.values) else matrix.values))
        assert record.estimated_bytes == rows * dim * 8
        assert record.estimated_bytes_sparse == nnz * 16
        assert record.nonzero_ratio == pytest.approx(nnz / (rows * dim))

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            run_runtime_bench(worked_log(), full_grid(), repetitions=0)
        with pytest.raises(EmptyLogError):
            run_runtime_bench(EventLog((), Alphabet(("a",))), full_grid(), repetitions=1)


class TestGrid:
    def test_unknown_context_kind(self):
        with pytest.raises(ParameterError, match="unknown context kind 'bogus'"):
            expand_grid(["aa"], ["bogus"], ["none"], [3])
        with pytest.raises(ParameterError, match="unknown context kind 'bogus'"):
            expand_grid(["substitution"], ["bogus"], ["none"], [3])
        with pytest.raises(ParameterError, match="unknown context kind 'bogus'"):
            make_config("aa", "bogus", "none", 3)


class TestExport:
    def test_timing_json_layout(self, tmp_path):
        report = run_runtime_bench(worked_log(), [make_config("aa", "mset", "none", 3)], repetitions=2)
        target = tmp_path / "bench_report.json"
        export_report(report, target)
        text = target.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema"] == 1
        assert payload["parallel"] is False
        assert payload["repetitions"] == 2
        record = payload["records"][0]
        assert "error" not in record
        assert record["embed_seconds"] == round(record["embed_seconds"], 6)

    def test_timing_json_error_key_only_on_failures(self, tmp_path):
        bad = MethodConfig("substitution", ContextKind.MULTISET, "none", 3)
        report = run_runtime_bench(worked_log(), [bad], repetitions=1)
        target = tmp_path / "r.json"
        export_report(report, target)
        assert "error" in json.loads(target.read_text())["records"][0]

    def test_deterministic_bytes(self, tmp_path):
        log = worked_log()
        scores, _ = run_intrinsic_benchmark(
            log, [make_config("aa", "mset", "none", 3)], samples=2, master_seed=9
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_report(scores, a)
        export_report(scores, b)
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        export_report(scores, c, fmt="csv")
        export_report(scores, d, fmt="csv")
        assert c.read_bytes() == d.read_bytes()

    def test_streamed_bytes_equal_in_memory_serialization(self, tmp_path):
        log = worked_log()
        config = make_config("aa", "mset", "none", 3)
        scores, failures = run_intrinsic_benchmark(log, [config], samples=2, master_seed=9)
        reports = [
            run_runtime_bench(log, [config], repetitions=1),
            aggregate_scores(scores, failures),
            scores,
        ]
        for report in reports:
            target = tmp_path / "report.json"
            export_report(report, target)
            expected = json.dumps(bench._json_payload(report), indent=2, sort_keys=True) + "\n"
            assert target.read_bytes() == expected.encode("utf-8")
            target = tmp_path / "report.csv"
            export_report(report, target, fmt="csv")
            buffer = io.StringIO()
            header, rows = bench._csv_table(report)
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            assert target.read_bytes() == buffer.getvalue().encode("utf-8")

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_record_lists_stream_the_same_bytes(self, tmp_path, count):
        errors = ["line one\nline two", 'a "quoted", comma', "caf\u00e9 \u2192 \U0001f600", "tab\tend"]
        failures = [
            FailedJob("aa", "seq", "pmi", 5, 2, 3, i, errors[i % len(errors)]) for i in range(count)
        ]
        target = tmp_path / "failures.json"
        export_report(failures, target)
        expected = json.dumps(bench._json_payload(failures), indent=2, sort_keys=True) + "\n"
        assert target.read_bytes() == expected.encode("utf-8")

    def test_scores_serialization_keys(self, tmp_path):
        scores, _ = run_intrinsic_benchmark(
            worked_log(), [make_config("aa", "mset", "none", 3)], samples=1, master_seed=3
        )
        target = tmp_path / "scores.json"
        export_report(scores, target)
        entry = json.loads(target.read_text())[0]
        assert set(entry) == {
            "method", "context", "weighting", "window",
            "r", "w", "sample", "i_comp", "i_nn", "i_prec", "i_tri",
        }
        csv_target = tmp_path / "scores.csv"
        export_report(scores, csv_target, fmt="csv")
        header = csv_target.read_text().splitlines()[0]
        assert header == "method,context,weighting,window,r,w,sample,i_comp,i_nn,i_prec,i_tri"

    def test_aggregate_round_trip(self, tmp_path):
        scores, failures = run_intrinsic_benchmark(
            worked_log(), [make_config("aa", "mset", "none", 3)], samples=2, master_seed=5
        )
        report = aggregate_scores(scores, failures)
        target = tmp_path / "agg.json"
        export_report(report, target)
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1
        row = payload["rows"][0]
        assert row["jobs_ok"] == len(scores)
        csv_target = tmp_path / "agg.csv"
        export_report(report, csv_target, fmt="csv")
        lines = csv_target.read_text().split("\n")
        assert lines[0] == "method,context,weighting,window,i_comp,i_nn,i_prec,i_tri,jobs_ok,jobs_failed"
        assert lines[-1] == ""

    def test_unknown_format(self, tmp_path):
        report = run_runtime_bench(worked_log(), [make_config("aa", "mset", "none", 3)], repetitions=1)
        with pytest.raises(ParameterError):
            export_report(report, tmp_path / "x.yaml", fmt="yaml")

    def test_unexportable_object(self, tmp_path):
        with pytest.raises(ParameterError):
            export_report(42, tmp_path / "x.json")

    def test_unwritable_target(self, tmp_path):
        report = run_runtime_bench(worked_log(), [make_config("aa", "mset", "none", 3)], repetitions=1)
        with pytest.raises(ExportError, match="missing"):
            export_report(report, tmp_path / "missing" / "out.json")


# Hand-built records with fixed values. The expected texts are the bytes
# the per-type serializers that preceded the generic writer produced.
GOLDEN_TIMING = TimingReport(
    records=(
        TimingRecord("aa", "mset", "pmi", 3, 0.0012345678, 0.00098765432, 5, 0.30000000000000004, 200, 160),
        TimingRecord(
            "substitution", "mset", "none", 3, 0.0, 0.0, 0, 0.0, 0, 0,
            error='bad config, "seq" required',
        ),
    ),
    repetitions=3,
)
GOLDEN_SCORES = [
    IntrinsicScores(
        "aa", "seq", "ppmi", 5, 1, 2, 0, 0.30000000000000004, 1.0, 0.5, 2 / 3, log_id="hidden-log"
    )
]
GOLDEN_AGGREGATE = AggregateReport(
    rows=(AggregateRow("ac", "mset", "none", 3, 0.1, 0.30000000000000004, 0.0, 1.0, 4, 1),)
)
GOLDEN_FAILURES = [
    FailedJob("substitution", "mset", "none", 3, 2, 3, 1, 'fails, with "quotes"', log_id="hidden-log")
]

TIMING_HEADER = (
    "method,context,weighting,window,embed_seconds,distance_seconds,"
    "embedding_dimension,nonzero_ratio,estimated_bytes,estimated_bytes_sparse,error\n"
)
SCORES_HEADER = "method,context,weighting,window,r,w,sample,i_comp,i_nn,i_prec,i_tri\n"

GOLDEN_TEXTS = {
    ("timing", "json"): """{
  "parallel": false,
  "records": [
    {
      "context": "mset",
      "distance_seconds": 0.000988,
      "embed_seconds": 0.001235,
      "embedding_dimension": 5,
      "estimated_bytes": 200,
      "estimated_bytes_sparse": 160,
      "method": "aa",
      "nonzero_ratio": 0.30000000000000004,
      "weighting": "pmi",
      "window": 3
    },
    {
      "context": "mset",
      "distance_seconds": 0.0,
      "embed_seconds": 0.0,
      "embedding_dimension": 0,
      "error": "bad config, \\"seq\\" required",
      "estimated_bytes": 0,
      "estimated_bytes_sparse": 0,
      "method": "substitution",
      "nonzero_ratio": 0.0,
      "weighting": "none",
      "window": 3
    }
  ],
  "repetitions": 3,
  "schema": 1
}
""",
    ("timing", "csv"): TIMING_HEADER
    + "aa,mset,pmi,3,0.001235,0.000988,5,0.30000000000000004,200,160,\n"
    + 'substitution,mset,none,3,0.000000,0.000000,0,0,0,0,"bad config, ""seq"" required"\n',
    ("scores", "json"): """[
  {
    "context": "seq",
    "i_comp": 0.30000000000000004,
    "i_nn": 1.0,
    "i_prec": 0.5,
    "i_tri": 0.6666666666666666,
    "method": "aa",
    "r": 1,
    "sample": 0,
    "w": 2,
    "weighting": "ppmi",
    "window": 5
  }
]
""",
    ("scores", "csv"): SCORES_HEADER
    + "aa,seq,ppmi,5,1,2,0,0.30000000000000004,1,0.5,0.66666666666666663\n",
    ("aggregate", "json"): """{
  "rows": [
    {
      "context": "mset",
      "i_comp": 0.1,
      "i_nn": 0.30000000000000004,
      "i_prec": 0.0,
      "i_tri": 1.0,
      "jobs_failed": 1,
      "jobs_ok": 4,
      "method": "ac",
      "weighting": "none",
      "window": 3
    }
  ],
  "schema": 1
}
""",
    ("aggregate", "csv"): "method,context,weighting,window,i_comp,i_nn,i_prec,i_tri,jobs_ok,jobs_failed\n"
    + "ac,mset,none,3,0.10000000000000001,0.30000000000000004,0,1,4,1\n",
    ("empty_timing", "json"): """{
  "parallel": false,
  "records": [],
  "repetitions": 1,
  "schema": 1
}
""",
    ("empty_timing", "csv"): TIMING_HEADER,
    ("empty_scores", "json"): "[]\n",
}

GOLDEN_REPORTS = {
    "timing": GOLDEN_TIMING,
    "scores": GOLDEN_SCORES,
    "aggregate": GOLDEN_AGGREGATE,
    "empty_timing": TimingReport(records=(), repetitions=1),
    "empty_scores": [],
}


class TestGoldenExport:
    @pytest.mark.parametrize("name, fmt", sorted(GOLDEN_TEXTS))
    def test_report_text(self, tmp_path, name, fmt):
        target = tmp_path / f"{name}.{fmt}"
        export_report(GOLDEN_REPORTS[name], target, fmt)
        assert target.read_bytes() == GOLDEN_TEXTS[(name, fmt)].encode("utf-8")

    def test_empty_record_list_has_no_csv_columns(self, tmp_path):
        # An empty list of scores and one of failures are the same object.
        with pytest.raises(ParameterError, match="empty record list has no record type"):
            export_report([], tmp_path / "empty.csv", fmt="csv")
        assert not (tmp_path / "empty.csv").exists()

    def test_failures_text(self, tmp_path):
        target = tmp_path / "failures.json"
        export_report(GOLDEN_FAILURES, target)
        assert target.read_text() == """[
  {
    "context": "mset",
    "error": "fails, with \\"quotes\\"",
    "method": "substitution",
    "r": 2,
    "sample": 1,
    "w": 3,
    "weighting": "none",
    "window": 3
  }
]
"""
        target = tmp_path / "failures.csv"
        export_report(GOLDEN_FAILURES, target, fmt="csv")
        assert target.read_text() == (
            "method,context,weighting,window,r,w,sample,error\n"
            'substitution,mset,none,3,2,3,1,"fails, with ""quotes"""\n'
        )
