import json
from dataclasses import fields, replace

import pytest

from actsim import (
    METHODS,
    WEIGHTINGS,
    aggregate_scores,
    bench,
    build_embedding,
    enumerate_benchmark_plan,
    expand_grid,
    intrinsic,
    make_config,
    pipeline,
    read_log,
    run_intrinsic_benchmark,
    run_runtime_bench,
    similarity_for_config,
)
from actsim import cli, contexts
from actsim.cli import main
from actsim.matrices import ConfigEcho
from actsim.pipeline import shared_tables

XES_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="1"/>
    <event><string key="concept:name" value="a"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="2"/>
    <event><string key="concept:name" value="b"/></event>
    <event><string key="concept:name" value="a"/></event>
  </trace>
</log>
"""


@pytest.fixture
def worked_csv(tmp_path):
    rows = ["case,activity"]
    for case in range(1, 6):
        rows += [f"{case},{act}" for act in "abcde"]
    rows += [f"6,{act}" for act in ["a", "d", "d", "b", "e"]]
    path = tmp_path / "log.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def run(argv):
    return main([str(part) for part in argv])


class TestStats:
    def test_outputs(self, worked_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["stats", "--input", worked_csv, "--out-dir", out]) == 0
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[0] == "rank,activity,frequency,relative_frequency"
        assert lines[1].startswith("1,d,7,")
        # Frequency ties resolve by activity id: a, b, e before c.
        assert [line.split(",")[1] for line in lines[1:]] == ["d", "a", "b", "e", "c"]
        summary = json.loads((out / "stats.json").read_text())
        assert summary["trace_count"] == 6
        assert summary["activity_count"] == 5
        assert summary["variant_count"] == 2
        assert summary["variant_ratio"] == pytest.approx(1 / 3)
        assert summary["avg_trace_length"] == 5.0
        assert summary["total_events"] == 30
        assert "6 traces, 5 activities" in capsys.readouterr().out

    def test_xes_auto_detected(self, tmp_path):
        source = tmp_path / "tiny.xes"
        source.write_text(XES_DOC)
        out = tmp_path / "out"
        assert run(["stats", "--input", source, "--out-dir", out]) == 0
        summary = json.loads((out / "stats.json").read_text())
        assert summary["trace_count"] == 2 and summary["activity_count"] == 2


class TestEmbed:
    def test_ac_multiset_csv(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "embed", "--input", worked_csv, "--out-dir", out,
            "--method", "ac", "--window", "3",
        ])
        assert code == 0
        lines = (out / "embedding.csv").read_text().splitlines()
        assert lines[0] == 'activity,"{__PAD__,b}","{a,c}","{b,d}","{c,e}","{__PAD__,d}","{a,d}","{d,e}"'
        assert lines[1] == "a,5,0,0,0,1,0,0"
        meta = json.loads((out / "embedding.meta.json").read_text())
        assert meta["method"] == "ac" and meta["context"] == "mset"
        assert meta["rows"] == 5 and meta["columns"] == 7

    def test_a_window_too_wide_for_memory_exits_2(self, worked_csv, tmp_path, capsys):
        code = run([
            "embed", "--input", worked_csv, "--out-dir", tmp_path / "out",
            "--method", "ac", "--context", "seq", "--window", 2**40,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window size 1099511627776 needs a ")
        assert err.count("\n") == 1

    def test_an_alphabet_too_wide_for_a_dense_matrix_exits_2(self, worked_csv, tmp_path, capsys,
                                                            monkeypatch):
        # worked_log's 5 activities need 7 n x n matrices of 200 bytes; AC
        # embed holds none, so only AA and the distances are refused.
        monkeypatch.setattr(contexts, "_DENSE_BYTES_CAP", 1399)
        for command, method in (("embed", "aa"), ("distances", "aa"), ("distances", "ac")):
            code = run([
                command, "--input", worked_csv, "--out-dir", tmp_path / command / method,
                "--method", method, "--window", "3",
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err == (
                "error: 5 activities need 1400 bytes for 7 n x n matrices, "
                "more than the 1399 bytes allowed\n"
            )
        assert run([
            "embed", "--input", worked_csv, "--out-dir", tmp_path / "ac",
            "--method", "ac", "--window", "3",
        ]) == 0

    def test_substitution_defaults_to_sequences(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "embed", "--input", worked_csv, "--out-dir", out,
            "--method", "substitution",
        ])
        assert code == 0
        lines = (out / "embedding.csv").read_text().splitlines()
        assert lines[0] == "activity,a,b,c,d,e"
        meta = json.loads((out / "embedding.meta.json").read_text())
        assert meta["flavor"] == "substitution"
        assert meta["cells"] == "score"

    def test_substitution_over_multisets_fails(self, worked_csv, tmp_path, capsys):
        code = run([
            "embed", "--input", worked_csv, "--out-dir", tmp_path / "out",
            "--method", "substitution", "--context", "mset",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_weighted_embed(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "embed", "--input", worked_csv, "--out-dir", out,
            "--method", "ac", "--weight", "ppmi", "--context", "seq",
        ])
        assert code == 0
        meta = json.loads((out / "embedding.meta.json").read_text())
        assert meta["weighting"] == "ppmi" and meta["columns"] == 10


class TestDistances:
    def test_cosine_csv_and_sidecar(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "distances", "--input", worked_csv, "--out-dir", out,
            "--method", "ac",
        ])
        assert code == 0
        lines = (out / "distances.csv").read_text().splitlines()
        assert lines[0] == "activity,a,b,c,d,e"
        c_row = lines[3].split(",")
        assert c_row[0] == "c"
        assert float(c_row[4]) == pytest.approx(0.8075499102701247, abs=1e-12)
        meta = json.loads((out / "distances.meta.json").read_text())
        assert meta["flavor"] == "cosine" and meta["cells"] == "distance"
        assert meta["activities"] == ["a", "b", "c", "d", "e"]

    def test_substitution_distances_are_scores(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "distances", "--input", worked_csv, "--out-dir", out,
            "--method", "substitution",
        ])
        assert code == 0
        meta = json.loads((out / "distances.meta.json").read_text())
        assert meta["cells"] == "score"


class TestIntrinsic:
    def test_small_run(self, tmp_path):
        rows = ["case,activity"]
        for case in range(1, 13):
            rows += [f"{case},{act}" for act in ["a", "b", "c", "b"]]
        source = tmp_path / "log.csv"
        source.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run([
            "intrinsic", "--input", source, "--out-dir", out,
            "--method", "aa", "--context", "mset", "--weight", "none",
            "--samples", "2", "--seed", "1",
        ])
        assert code == 0
        scores = json.loads((out / "intrinsic_scores.json").read_text())
        # samples=2 keeps 2 subsets for r=1 and r=2, and the single r=3 subset.
        assert len(scores) == (2 + 2 + 1) * 4
        assert set(scores[0]) == {
            "method", "context", "weighting", "window",
            "r", "w", "sample", "i_comp", "i_nn", "i_prec", "i_tri",
        }
        agg = (out / "intrinsic_aggregate.csv").read_text().splitlines()
        assert agg[0].startswith("method,context,weighting,window,")
        assert len(agg) == 2
        assert not (out / "intrinsic_failures.json").exists()

    def test_unexpected_exception_keeps_the_partial_reports(self, worked_csv, tmp_path,
                                                             monkeypatch, capsys):
        real = intrinsic._similarities

        def similarities_or_raise(built):
            if any(item.config.weighting == "pmi" for item in built):
                raise FloatingPointError("pmi scores overflowed")
            return real(built)

        monkeypatch.setattr(intrinsic, "_similarities", similarities_or_raise)
        out = tmp_path / "out"
        code = run([
            "intrinsic", "--input", worked_csv, "--out-dir", out,
            "--method", "aa", "--context", "mset", "--weight", "none,pmi",
            "--samples", "1", "--seed", "1",
        ])
        assert code == 1
        scores = json.loads((out / "intrinsic_scores.json").read_text())
        failures = json.loads((out / "intrinsic_failures.json").read_text())
        assert scores and len(scores) == len(failures)
        assert {s["weighting"] for s in scores} == {"none"}
        assert {f["error"] for f in failures} == {"FloatingPointError: pmi scores overflowed"}
        agg = (out / "intrinsic_aggregate.csv").read_text().splitlines()
        # The pmi config failed every job: its row counts them, with empty means.
        assert len(agg) == 3 and agg[1].startswith("aa,mset,none,3,")
        assert agg[2] == f"aa,mset,pmi,3,,,,,0,{len(failures)}"
        assert f"{len(scores)} scored jobs, {len(failures)} failed" in capsys.readouterr().out

    @pytest.mark.parametrize("first_fails", [True, False])
    def test_rerun_removes_the_reports_it_does_not_write(self, worked_csv, tmp_path,
                                                         monkeypatch, first_fails):
        def score_stack_raises(values, labels, classes):
            raise FloatingPointError("every config overflowed")

        out = tmp_path / "out"
        argv = [
            "intrinsic", "--input", worked_csv, "--out-dir", out,
            "--method", "aa", "--context", "mset", "--weight", "none",
            "--samples", "1", "--seed", "1",
        ]
        for failing in (first_fails, not first_fails):
            with monkeypatch.context() as patch:
                if failing:
                    patch.setattr(intrinsic, "_score_stack", score_stack_raises)
                assert run(argv) == (1 if failing else 0)
            scores = json.loads((out / "intrinsic_scores.json").read_text())
            assert bool(scores) is not failing
            assert (out / "intrinsic_failures.json").exists() is failing
            if failing:
                errors = json.loads((out / "intrinsic_failures.json").read_text())
                assert {f["error"] for f in errors} == {
                    "FloatingPointError: every config overflowed"
                }
            assert (out / "intrinsic_aggregate.csv").exists() is not failing

    @pytest.mark.parametrize("parallel", [[], ["--parallel"]])
    def test_a_window_too_wide_fails_only_its_own_configs(self, worked_csv, tmp_path, parallel):
        # The tables of a grid are coarsened from one scan at its widest
        # window; when that scan is refused, the narrower windows keep theirs.
        def reports(windows, *options):
            out = tmp_path / windows
            run([
                "intrinsic", "--input", worked_csv, "--out-dir", out, "--method", "ac",
                "--context", "seq", "--weight", "none", "--window", windows, "--samples", "1",
                *options,
            ])
            return [
                json.loads(path.read_text()) if path.exists() else []
                for path in (out / "intrinsic_scores.json", out / "intrinsic_failures.json")
            ]

        narrow = reports("3")
        scores, failures = reports(f"3,{2**40}", *parallel)
        assert narrow[0] and [s for s in scores if s["window"] == 3] == narrow[0]
        assert [f for f in failures if f["window"] == 3] == narrow[1]
        assert all(s["window"] == 3 for s in scores)
        wide = [f for f in failures if f["window"] == 2**40]
        assert len(wide) == len(narrow[0]) + len(narrow[1])
        assert all(f["error"].startswith("window size 1099511627776 needs a ") for f in wide)

    def test_stale_report_that_cannot_be_removed_is_export_error(self, worked_csv, tmp_path,
                                                                 capsys):
        out = tmp_path / "out"
        # A directory in the failures report's place cannot be unlinked.
        (out / "intrinsic_failures.json").mkdir(parents=True)
        code = run([
            "intrinsic", "--input", worked_csv, "--out-dir", out,
            "--method", "aa", "--context", "mset", "--weight", "none",
            "--samples", "1", "--seed", "1",
        ])
        assert code == 2
        assert "cannot remove" in capsys.readouterr().err

    def test_invalid_single_config_rejected(self, worked_csv, tmp_path, capsys):
        code = run([
            "intrinsic", "--input", worked_csv, "--out-dir", tmp_path / "out",
            "--method", "substitution", "--context", "mset", "--weight", "none",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--window", "3,x", "error: --window: expected integers, got '3,x'"),
        ("--window", ",", "error: --window: empty value"),
        ("--method", ",", "error: --method: empty value"),
    ])
    def test_malformed_grid_value(self, flag, value, message, worked_csv, tmp_path, capsys):
        code = run(["intrinsic", "--input", worked_csv, "--out-dir", tmp_path / "out", flag, value])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_a_clone_label_collision_fails_its_jobs_and_exits_1(self, tmp_path):
        source = tmp_path / "log.csv"
        source.write_text("case,activity\n1,a\n1,a__1\n1,b\n2,b\n2,a\n2,c\n3,c\n3,a__1\n3,a\n")
        out = tmp_path / "out"
        code = run([
            "intrinsic", "--input", source, "--out-dir", out, "--method", "all",
            "--context", "all", "--weight", "all", "--window", "3,5", "--samples", "1",
        ])
        assert code == 1
        failures = json.loads((out / "intrinsic_failures.json").read_text())
        errors = [failure["error"] for failure in failures]
        assert len(errors) == 416
        assert errors.count("clone label 'a__1' collides with an existing activity") == 234

    def test_unknown_grid_value(self, worked_csv, tmp_path, capsys):
        code = run([
            "intrinsic", "--input", worked_csv, "--out-dir", tmp_path / "out",
            "--method", "word2vec",
        ])
        assert code == 2
        assert "word2vec" in capsys.readouterr().err


class TestBench:
    def test_grid_report(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "bench", "--input", worked_csv, "--out-dir", out,
            "--method", "aa,ac", "--context", "mset", "--weight", "none,pmi",
            "--window", "2,3", "--reps", "1",
        ])
        assert code == 0
        payload = json.loads((out / "bench_report.json").read_text())
        assert payload["repetitions"] == 1
        assert len(payload["records"]) == 8

    def test_invalid_single_config_becomes_error_record(self, worked_csv, tmp_path):
        out = tmp_path / "out"
        code = run([
            "bench", "--input", worked_csv, "--out-dir", out,
            "--method", "substitution", "--context", "mset", "--weight", "none",
            "--reps", "1",
        ])
        assert code == 1
        payload = json.loads((out / "bench_report.json").read_text())
        assert len(payload["records"]) == 1
        assert "error" in payload["records"][0]

    def test_unexpected_exception_becomes_error_record(self, worked_csv, tmp_path,
                                                       monkeypatch, capsys):
        def build_or_raise(table, config):
            if config.weighting == "pmi":
                raise FloatingPointError("pmi weights overflowed")
            return build_embedding(table, config)

        monkeypatch.setattr(bench, "build_embedding", build_or_raise)
        out = tmp_path / "out"
        code = run([
            "bench", "--input", worked_csv, "--out-dir", out,
            "--method", "aa,ac", "--context", "mset", "--weight", "none,pmi",
            "--reps", "1",
        ])
        assert code == 1
        records = json.loads((out / "bench_report.json").read_text())["records"]
        assert [(r["method"], r["weighting"]) for r in records] == [
            ("aa", "none"), ("aa", "pmi"), ("ac", "none"), ("ac", "pmi"),
        ]
        for record in records:
            if record["weighting"] == "pmi":
                assert record["error"] == "FloatingPointError: pmi weights overflowed"
                assert record["embedding_dimension"] == 0
            else:
                assert "error" not in record and record["embedding_dimension"] > 0
        assert "4 records, 2 errors" in capsys.readouterr().out


class TestUsage:
    def test_missing_input_flag(self, capsys):
        assert run(["stats"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_empty_log_file(self, tmp_path, capsys):
        source = tmp_path / "empty.csv"
        source.write_text("case,activity\n")
        code = run(["stats", "--input", source, "--out-dir", tmp_path / "out"])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = run(["stats", "--input", tmp_path / "nope.csv", "--out-dir", tmp_path])
        assert code == 2
        capsys.readouterr()

    def test_input_not_utf8(self, tmp_path, capsys):
        source = tmp_path / "latin1.csv"
        source.write_bytes(b"case,activity\n1,caf\xe9\n")
        assert run(["stats", "--input", source, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot decode") and "UTF-8" in err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("long.csv", "case,activity\n1,a\n1," + "x" * 200_000 + "\n",
             "error: row 3: field larger than field limit"),
            ("cut.xes", XES_DOC[:200], "error: malformed XES/XML: unclosed token"),
            ("empty.xes", XES_DOC.replace('value="a"', 'value=""'),
             "error: trace 0: event 0 has an empty activity label\n"),
            ("header.csv", "case,activity," + "x" * 200_000 + "\n1,a\n",
             "error: row 1: field larger than field limit (131072)"),
        ],
    )
    def test_unparseable_input(self, name, text, message, tmp_path, capsys):
        source = tmp_path / name
        source.write_text(text)
        assert run(["stats", "--input", source, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["stats", "embed", "distances"])
    def test_out_dir_is_a_file(self, command, worked_csv, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        argv = [command, "--input", worked_csv, "--out-dir", blocker]
        if command != "stats":
            argv += ["--method", "ac"]
        assert run(argv) == 2
        assert "taken" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, output",
        [
            ("stats", "stats.csv"),
            ("stats", "stats.json"),
            ("embed", "embedding.csv"),
            ("distances", "distances.csv"),
        ],
    )
    def test_output_file_not_writable(self, command, output, worked_csv, tmp_path, capsys):
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        argv = [command, "--input", worked_csv, "--out-dir", out]
        if command != "stats":
            argv += ["--method", "ac"]
        assert run(argv) == 2
        assert output in capsys.readouterr().err


def test_every_output_echoes_the_config_that_made_it(worked_csv, tmp_path, monkeypatch):
    # Over the full grid: each matrix carries the config that built it, and
    # each sidecar and report record repeats that config's echo.
    log = read_log(worked_csv)
    configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5))
    assert len(configs) == 26
    echoes = [config.echo() for config in configs]
    # The echo's keys are the leading fields every report record inherits.
    assert all(list(echo) == [field.name for field in fields(ConfigEcho)] for echo in echoes)
    tables = shared_tables(log, configs)
    for config, echo in zip(configs, echoes):
        table = tables[(config.kind, config.window)]
        assert build_embedding(table, config).config == config
        assert similarity_for_config(table, config).config == config
        for command, sidecar in (("embed", "embedding"), ("distances", "distances")):
            out = tmp_path / command / config.describe().replace("/", "-")
            assert run([
                command, "--input", worked_csv, "--out-dir", out, "--method", config.method,
                "--context", echo["context"], "--weight", config.weighting,
                "--window", config.window,
            ]) == 0
            meta = json.loads((out / f"{sidecar}.meta.json").read_text())
            assert {key: meta[key] for key in echo} == echo

    def echoed(records):
        return [{key: getattr(record, key) for key in echoes[0]} for record in records]

    assert echoed(run_runtime_bench(log, configs, repetitions=1).records) == echoes
    plan = enumerate_benchmark_plan(log, 1, 42)
    plan = replace(plan, jobs=plan.jobs[:1])
    scores, failures = run_intrinsic_benchmark(log, configs, plan=plan)
    assert echoed(scores) == echoes and not failures
    rows = aggregate_scores(scores).rows
    assert echoed(rows) == sorted(echoes, key=lambda echo: tuple(echo.values()))

    def score_stack_raises(values, labels, classes):
        raise FloatingPointError("scores overflowed")

    monkeypatch.setattr(intrinsic, "_score_stack", score_stack_raises)
    scores, failures = run_intrinsic_benchmark(log, configs, plan=plan)
    assert echoed(failures) == echoes and not scores
    assert {failure.error for failure in failures} == {"FloatingPointError: scores overflowed"}


def test_single_tables_are_scanned_directly(worked_csv, tmp_path, monkeypatch):
    # Only a grid of several (kind, window) pairs coarsens its tables from a
    # fine one; a one-pair grid, embed, distances and bench scan the log.
    extract = pipeline.extract_occurrences
    fines = []

    def spy(*args, **kwargs):
        fines.append(kwargs.get("fine"))
        return extract(*args, **kwargs)

    for module in (pipeline, cli, bench):
        monkeypatch.setattr(module, "extract_occurrences", spy)
    log = read_log(worked_csv)
    shared_tables(log, expand_grid(METHODS, ("seq",), WEIGHTINGS, (3,)))
    run_runtime_bench(log, [make_config("ac", "mset", "pmi", 5)], repetitions=1)
    for command in ("embed", "distances"):
        assert run([
            command, "--input", worked_csv, "--out-dir", tmp_path / command,
            "--method", "aa", "--context", "seq", "--weight", "none", "--window", 4,
        ]) == 0
    assert fines == [None] * 4
    shared_tables(log, expand_grid(("ac",), ("mset", "seq"), ("none",), (3,)))
    assert fines[4] is None and (fines[5].kind.value, fines[5].window_size) == ("seq", 3)
