"""Check that the working tree writes the same reports as a base commit.

    python3 tools/compare_trees.py --base COMMIT

Each case of ``CASES`` runs in a ``git archive`` copy of ``COMMIT`` (base)
and in the working tree (head), on input logs the head writes once, and
once more in the head with ``--parallel`` where the case says so. Each run
is one process, which checks that it imported ``actsim`` from its own tree.
The script prints each (run, file, expected exit) it compares, then every
difference. It exits 1 if there is one, and 2 on a usage error.
"""

import argparse
import csv
import itertools
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from trajectory import ROOT, W1_GRID, _checkout, _commit, _env

# argv[1]: the tree's src directory; argv[2]: the steps, as JSON. Exit 3 is
# no actsim exit code, so a wrong import cannot pass for an expected failure.
RUN = """
import json, sys, actsim
from actsim.cli import main
if not actsim.__file__.startswith(sys.argv[1]):
    print(f"imported {actsim.__file__}, not {sys.argv[1]}", file=sys.stderr)
    sys.exit(3)
for step in json.loads(sys.argv[2]):
    if step[0] == "xes-to-csv":
        actsim.write_log_csv(actsim.read_log(step[1]), step[2])
    elif code := main(step):
        sys.exit(code)
"""
WIDE = "1099511627776"  # 2**40: a window refused before its scan
REPORTS = ("intrinsic_scores.json", "intrinsic_aggregate.csv")
FAILURES = (*REPORTS, "intrinsic_failures.json")


class Case(NamedTuple):
    name: str
    log: str  # the input log's file name
    steps: tuple  # actsim CLI argument lists; {log} and {out} are filled in per run
    exit: int  # the exit code every run must have
    files: tuple[str, ...] | None  # None: every file the runs write
    parallel: bool = False  # the head also runs with --parallel, against the base's serial run
    optional: bool = False  # a file missing on both sides is no difference


def intrinsic(*options: str) -> tuple:
    """One ``actsim intrinsic`` run of the W1 grid, with ``options`` after it."""
    return (["intrinsic", "--input", "{log}", "--out-dir", "{out}", *W1_GRID, "--samples", "1",
             *options],)


def matrices(*windows: str) -> tuple:
    """Every embed and distances output of the grid at ``windows``."""
    configs = [("substitution", "seq", "none"),
               *itertools.product(("aa", "ac"), ("mset", "seq"), ("none", "pmi", "ppmi"))]
    runs = itertools.product(configs, windows, ("embed", "distances"))
    return tuple([command, "--input", "{log}", "--out-dir", f"{{out}}/{command}-{m}-{c}-{w}-{n}",
                  "--method", m, "--context", c, "--weight", w, "--window", n]
                 for (m, c, w), n, command in runs)


CASES = (
    # The W1 grid on a seeded log, on few variants shared by many traces, and
    # on 300 labels, whose jobs are compared and scored in several stacks.
    Case("log", "log.csv", intrinsic(), 0, REPORTS, parallel=True),
    Case("shared", "shared.csv", intrinsic(), 0, REPORTS, parallel=True),
    Case("alphabet", "alphabet.csv", intrinsic(), 0, REPORTS, parallel=True),
    # Tables coarsened from an even widest window and from a sequence table no
    # config uses; window 12's multisets sort by np.sort, not by a network.
    Case("even", "log.csv", intrinsic("--window", "2,3,4"), 0, REPORTS),
    Case("mset", "log.csv", intrinsic("--method", "aa,ac", "--context", "mset",
                                      "--window", "3,5"), 0, REPORTS),
    Case("wide", "log.csv", intrinsic("--window", "3,12"), 0, REPORTS),
    # The cached log-ratios must not depend on the order of the weightings.
    Case("order", "log.csv", intrinsic("--weight", "ppmi,pmi"), 0, REPORTS),
    # Failed jobs, which make the command exit 1: a refused window, clone
    # members that never occur in 4 events, a stack that scores only part of
    # its grid, and a log that already holds a's first clone label, a__1.
    Case("failing", "tiny.csv", intrinsic("--window", f"3,{WIDE}"), 1, FAILURES, parallel=True),
    Case("partial", "log.csv", intrinsic("--window", f"3,{WIDE}"), 1, FAILURES, parallel=True),
    Case("collide", "collide.csv", intrinsic("--samples", "3"), 1, FAILURES, parallel=True),
    # A lone multiset pair, scanned as its own kind; a refused widest window
    # over a multiset-only grid, whose tables coarsen from the next window.
    Case("lone", "log.csv", intrinsic("--method", "ac", "--context", "mset", "--weight", "none",
                                      "--window", "5"), 0, FAILURES, optional=True),
    Case("refused-mset", "log.csv", intrinsic("--method", "aa,ac", "--context", "mset",
                                              "--window", f"3,5,{WIDE}"),
         1, FAILURES, optional=True),
    # shared.csv's window-3 keys are counted without a sort, its window-5 ones
    # sorted; window 40 over 8 labels packs more than an int64 holds.
    Case("matrices", "log.csv", matrices("3", "5"), 0, None),
    Case("shared-matrices", "shared.csv", matrices("3", "5"), 0, None),
    Case("quoted", "quoted.csv", matrices("2", "3", "5", "40"), 0, None),
    Case("summaries", "log.csv", (["stats", "--input", "{log}", "--out-dir", "{out}"], [
        "bench", "--input", "{log}", "--out-dir", "{out}", "--method", "all", "--context", "all",
        "--weight", "all", "--window", "3", "--reps", "1"]),
         0, ("stats.csv", "stats.json", "bench_report.json")),
    Case("xes", "log.xes", (["xes-to-csv", "{log}", "{out}/log.csv"],), 0, ("log.csv",)),
)


def make_inputs(work: Path) -> None:
    """Write every case's input log into a new directory ``work``, with the head's code."""
    work.mkdir()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    from actsim import log_from_label_traces, write_log_csv
    from workloads import shared_log, structured_log, write_log_xes

    write_log_csv(structured_log(7, 300, 12), work / "log.csv")
    write_log_csv(shared_log(5), work / "shared.csv")
    write_log_xes(structured_log(7, 300, 12), work / "log.xes")
    rng = random.Random(5)
    traces = [[f"a{rng.randrange(300)}" for _ in range(rng.randint(5, 15))] for _ in range(6000)]
    write_log_csv(log_from_label_traces(traces), work / "alphabet.csv")
    # Labels that csv must quote, line breaks too, and whose string order is
    # not their id order.
    labels = ["B", "a", "10", "9", "x,y", 'say "hi"', " lead", "é", "a\rb", "c\nd", "e\r\nf"]
    rng = random.Random(3)
    rows = [[case, rng.choice(labels)] for case in range(40) for _ in range(rng.randint(2, 8))]
    with open(work / "quoted.csv", "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([["case", "activity"], *rows])
    (work / "tiny.csv").write_text("case,activity\n1,a\n1,b\n2,c\n2,a\n")
    (work / "collide.csv").write_text(
        "case,activity\n1,a\n1,a__1\n1,b\n2,b\n2,a\n2,c\n3,c\n3,a__1\n3,a\n")


def run(case: Case, tree: Path, inputs: Path, out: Path, parallel: bool) -> int:
    """The exit code of ``case``'s steps, run in one process on ``tree``'s ``src``."""
    steps = [[arg.format(log=inputs / case.log, out=out) for arg in step]
             + ["--parallel"] * parallel for step in case.steps]
    out.mkdir()
    return subprocess.run([sys.executable, "-c", RUN, str(tree / "src"), json.dumps(steps)],
                          env=_env(tree), stdout=subprocess.DEVNULL).returncode


def _report(path: Path) -> bytes:
    """The bytes of ``path``; a bench record without its run-dependent *_seconds lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "bench_report.json":
        lines = [line for line in lines if b'_seconds": ' not in line]
    return b"".join(lines)


def compare(label: str, case: Case, base: Path, head: Path, codes: tuple[int, int]) -> list:
    """The differences, each naming ``label``, between the base and head runs
    of ``case``, which wrote into ``base`` and ``head`` and exited ``codes``."""
    problems = [f"{label}: the {side} run exited {code}, not {case.exit}"
                for side, code in zip(("base", "head"), codes) if code != case.exit]
    names = case.files or sorted({path.relative_to(side).as_posix() for side in (base, head)
                                  for path in side.rglob("*") if path.is_file()})
    for name in names:
        print(f"{label:<24} {name:<40} exit {case.exit}", flush=True)
        in_base, in_head = (base / name).is_file(), (head / name).is_file()
        if in_base and in_head:
            if _report(base / name) != _report(head / name):
                problems.append(f"{label}: {name} differs from the base's")
        elif in_base or in_head:
            problems.append(f"{label}: {name} is only on the {'base' if in_base else 'head'} side")
        elif not case.optional:
            problems.append(f"{label}: {name} is missing on both sides")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare the working tree with")
    base_commit = _commit(parser.parse_args(argv).base)
    problems = []
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as temp:
        work, inputs = Path(temp), Path(temp) / "inputs"
        runs = {"base": (_checkout(base_commit, work / "base"), False), "head": (ROOT, False)}
        make_inputs(inputs)
        for case in CASES:
            modes = {**runs, "parallel": (ROOT, True)} if case.parallel else runs
            codes = {mode: run(case, tree, inputs, work / f"{case.name}-{mode}", parallel)
                     for mode, (tree, parallel) in modes.items()}
            for mode in list(codes)[1:]:
                problems += compare(f"{case.name}-{mode}", case, work / f"{case.name}-base",
                                    work / f"{case.name}-{mode}", (codes["base"], codes[mode]))
    for problem in problems:
        print(f"DIFFERS: {problem}", file=sys.stderr)
    print(f"base {base_commit}: {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
