"""The compare step of tools/compare_trees.py, on hand-made report directories,
and the usage error both tools give for a revision that names no commit."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
REPORTS = {
    "intrinsic_scores.json": "[1]\n",
    "intrinsic_aggregate.csv": "method,i_nn\nac,1\n",
    "intrinsic_failures.json": "[]\n",
}
SUMMARIES = {"stats.csv": "a\n", "stats.json": "{}\n"}
BENCH = '{{\n "n": {},\n "total_seconds": {}\n}}\n'


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("compare_trees")


def _compare(tool, tmp_path, name, base, head, codes=None):
    """Write ``base`` and ``head`` ({file: text}) and compare them as the
    head run of the case ``name``."""
    case = {case.name: case for case in tool.CASES}[name]
    for side, files in (("base", base), ("head", head)):
        for file, text in files.items():
            (tmp_path / side / file).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / file).write_text(text)
    codes = codes or (case.exit, case.exit)
    return tool.compare(f"{name}-head", case, tmp_path / "base", tmp_path / "head", codes)


def _without(files, name):
    return {file: text for file, text in files.items() if file != name}


@pytest.mark.parametrize("name, base, head", [
    ("partial", REPORTS, None),
    ("lone", _without(REPORTS, "intrinsic_failures.json"), None),
    ("refused-mset", _without(REPORTS, "intrinsic_aggregate.csv"), None),
    ("matrices", {"embed-aa-mset-none-3/embedding.csv": "x\n",
                  "distances-ac-seq-pmi-5/distances.csv": "y\n"}, None),
    # Bench timings differ from run to run.
    ("summaries", {**SUMMARIES, "bench_report.json": BENCH.format(1, 0.5)},
     {**SUMMARIES, "bench_report.json": BENCH.format(1, 0.7)}),
])
def test_equal_reports_pass(tool, tmp_path, capsys, name, base, head):
    """``head`` None: the same files as ``base``."""
    assert _compare(tool, tmp_path, name, base, head or base) == []
    assert f"{name}-head" in capsys.readouterr().out


@pytest.mark.parametrize("name, base, head, codes, words", [
    ("partial", REPORTS, {**REPORTS, "intrinsic_scores.json": "[2]\n"}, None,
     ["intrinsic_scores.json", "differs"]),
    ("summaries", {**SUMMARIES, "bench_report.json": BENCH.format(1, 0.5)},
     {**SUMMARIES, "bench_report.json": BENCH.format(2, 0.5)}, None,
     ["bench_report.json", "differs"]),
    ("partial", REPORTS, REPORTS, (1, 0), ["head run exited 0, not 1"]),
    ("log", REPORTS, REPORTS, (2, 0), ["base run exited 2, not 0"]),
    ("lone", _without(REPORTS, "intrinsic_failures.json"), REPORTS, None,
     ["intrinsic_failures.json", "only on the head side"]),
    ("lone", REPORTS, _without(REPORTS, "intrinsic_failures.json"), None,
     ["intrinsic_failures.json", "only on the base side"]),
    ("partial", _without(REPORTS, "intrinsic_failures.json"),
     _without(REPORTS, "intrinsic_failures.json"), None,
     ["intrinsic_failures.json", "missing on both sides"]),
    ("quoted", {"embed-aa-mset-none-40/embedding.csv": "x\n"},
     {"embed-aa-mset-none-40/embedding.csv": "x\n", "embed-aa-mset-none-40/extra.json": "{}\n"},
     None, ["embed-aa-mset-none-40/extra.json", "only on the head side"]),
])
def test_a_difference_names_its_case_and_file(tool, tmp_path, name, base, head, codes, words):
    problems = _compare(tool, tmp_path, name, base, head, codes)
    assert len(problems) == 1
    assert problems[0].startswith(f"{name}-head: ")
    assert all(word in problems[0] for word in words)


@pytest.mark.parametrize("script, options", [
    ("compare_trees.py", ["--base", "nosuchcommit"]),
    ("trajectory.py", ["--parent", "nosuchcommit", "--out", "record.json"]),
])
def test_an_unknown_commit_is_a_usage_error(tmp_path, script, options):
    done = subprocess.run([sys.executable, str(TOOLS / script), *options], cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: 'nosuchcommit' names no commit")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "record.json").exists()
