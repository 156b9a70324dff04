"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)

run._import_package()
sys.path.insert(0, str(HERE.parent / "tests"))

import actsim  # noqa: E402
import suite  # noqa: E402
import synthetic_logs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, installed_wrappers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_structured_log_matches_the_test_helper_at_the_roadmap_seed():
    ours = workloads.structured_log(7, n_traces=2000, min_activities=20)
    theirs = synthetic_logs.structured_log(7, n_traces=2000, min_activities=20)
    assert ours.traces == theirs.traces
    assert ours.alphabet == theirs.alphabet


def test_big_uniform_log_matches_the_test_helper_at_the_roadmap_seed():
    ours = workloads.big_uniform_log(1)
    theirs = synthetic_logs.big_uniform_log(1)
    assert ours.traces == theirs.traces
    assert ours.alphabet == theirs.alphabet


def test_shared_log_is_seeded_and_shares_traces():
    log = workloads.shared_log(7)
    assert log.traces == workloads.shared_log(7).traces
    assert 130_000 <= log.n_events < 130_000 + 100
    assert len(set(log.traces)) <= 300 < len(log.traces) / 30


def test_xes_writer_round_trips(tmp_path):
    log = workloads.structured_log(3, n_traces=50, min_activities=8)
    workloads.write_log_xes(log, tmp_path / "log.xes")
    assert actsim.read_log(tmp_path / "log.xes").label_traces() == log.label_traces()


def test_self_time_subtracts_children_and_counting():
    tracer = Tracer()
    tracer.spans = [
        ("a", 0.0, 10.0, -1, 0.0, {}, 0),
        ("b", 2.0, 5.0, 0, 0.0, {}, 0),
        ("c", 6.0, 7.0, 0, 0.5, {}, 0),
    ]
    assert tracer.self_times() == [6.0, 3.0, 0.5]


def test_substitution_span_is_the_parent_of_its_build_aa():
    log = workloads.structured_log(3, n_traces=50, min_activities=8)
    table = actsim.extract_occurrences(log, 3, "seq")
    config = actsim.make_config("substitution", "seq", "none", 3)
    with Tracer() as tracer:
        assert installed_wrappers()
        actsim.build_embedding(table, config)
    assert installed_wrappers() == []
    names = [(name, parent) for name, _, _, parent, *_ in tracer.spans]
    assert names == [("similarity.substitution_scores", -1), ("matrices.build_aa", 0)]


def test_a_call_that_raises_still_closes_its_span():
    log = workloads.structured_log(3, n_traces=5, min_activities=8)
    with Tracer() as tracer:
        with pytest.raises(actsim.ParameterError):
            actsim.extract_occurrences(log, 1, "seq")
    assert [span[0] for span in tracer.spans] == ["contexts.extract_occurrences"]
    assert tracer.self_times()[0] >= 0.0


class TinySweep(suite.Sweep):
    """The sweep code path on a log small enough for a unit test."""

    wrapped_during_jobs: list = []

    def make_log(self, seed):
        return workloads.structured_log(seed, n_traces=300, min_activities=6)

    def run_job(self, job):
        TinySweep.wrapped_during_jobs.append(bool(installed_wrappers()))
        return super().run_job(job)


def test_quantile_does_not_jump_when_one_job_changes_kind():
    assert run._quantile([2.0], 0.75) == 2.0
    assert run._quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    # One of 20 jobs slows from one kind's time to the other's: the sample
    # median moves by half the gap, the estimate by less than a fifth.
    two_kinds = [1.0] * 10 + [2.0] * 10
    one_moved = [1.0] * 9 + [1.99] + [2.0] * 10
    assert run._quantile(one_moved, 0.5) - run._quantile(two_kinds, 0.5) < 0.2


def test_each_big_log_batch_starts_empty(tmp_path):
    workload = suite.BigLog(tmp_path)
    batches = workload.batches()
    next(batches)
    workload.parsed["csv"] = object()
    workload.outputs[("mset", 3)] = (object(), [])
    jobs = next(batches)
    assert workload.parsed == {} and workload.outputs == {}
    assert jobs[:2] == [("parse", "csv"), ("parse", "xes")]


def _run(monkeypatch, capsys, trace: int) -> tuple[dict, list[str]]:
    """The JSON result of one run of the tiny workload, and the lines before it."""
    monkeypatch.setitem(suite.WORKLOADS, "tiny", TinySweep)
    TinySweep.wrapped_during_jobs = []
    args = ["--workload", "tiny", "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    result, lines = _run(monkeypatch, capsys, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert TinySweep.wrapped_during_jobs and not any(TinySweep.wrapped_during_jobs)
    assert installed_wrappers() == []
    unscaled = [json.loads(line[len("unscaled "):]) for line in lines if line.startswith("unscaled ")]
    assert len(unscaled) == 1 and set(unscaled[0]["metrics"]) == set(result["metrics"])


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    result, _ = _run(monkeypatch, capsys, trace=1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert any(TinySweep.wrapped_during_jobs)
    assert installed_wrappers() == []
    assert metrics["matrices.build_ac.builds_per_table"] == 3.0
    assert metrics["matrices.build_aa.builds_per_table"] == 3.5
    spanned = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    accounted = spanned + metrics["trace.counting_s"] + metrics["trace.unspanned_s"]
    assert accounted == pytest.approx(metrics["trace.wall_s"])
