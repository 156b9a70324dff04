import csv
import io
import json

import numpy as np
import pytest
from scipy import sparse

from actsim import bench
from actsim import (
    Alphabet,
    ContextKind,
    EmptyLogError,
    EventLog,
    ExportError,
    MethodConfig,
    ParameterError,
    aggregate_scores,
    build_embedding,
    dimension_bound,
    expand_grid,
    export_report,
    extract_occurrences,
    log_from_label_traces,
    make_config,
    run_intrinsic_benchmark,
    run_runtime_bench,
)


def worked_log():
    return log_from_label_traces([list("abcde")] * 5 + [list("addbe")])


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
        assert report.parallel is False

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
            (run_runtime_bench(log, [config], repetitions=1), bench._timing_json, bench._timing_rows),
            (aggregate_scores(scores, failures), bench._aggregate_json, bench._aggregate_rows),
            (scores, bench._scores_json, bench._scores_rows),
        ]
        for report, to_json, to_rows in reports:
            target = tmp_path / "report.json"
            export_report(report, target)
            expected = json.dumps(to_json(report), indent=2, sort_keys=True) + "\n"
            assert target.read_bytes() == expected.encode("utf-8")
            target = tmp_path / "report.csv"
            export_report(report, target, fmt="csv")
            buffer = io.StringIO()
            header, rows = to_rows(report)
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            assert target.read_bytes() == buffer.getvalue().encode("utf-8")

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
