"""Release gate: nine end-to-end criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines on
passing runs too. Golden numbers were frozen from hand enumeration of
the small worked logs before the optimized paths existed.
"""

import math
import random
import time

import numpy as np

from actsim import (
    MethodConfig,
    ContextKind,
    aggregate_scores,
    apply_pmi,
    apply_ppmi,
    build_aa,
    build_ac,
    build_embedding,
    extract_occurrences,
    generate_ground_truth_log,
    log_from_label_traces,
    make_config,
    pairwise_distance_matrix,
    run_intrinsic_benchmark,
    score_all,
    substitution_scores,
    write_log_csv,
)
from actsim.cli import main as cli_main
from reference import dense, naive_aa, naive_ac, naive_similarity_matrix, restored_traces, row_of, sim_cell
from synthetic_logs import big_uniform_log, random_small_log, structured_log, worked_log
from test_matrices import WORKED_AC
from test_weighting import cell


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_a1_worked_example_matrix_and_speed():
    log = worked_log()
    ac = build_ac(extract_occurrences(log, 3, "mset"))
    exact = bool(np.array_equal(dense(ac), WORKED_AC))
    best = min(
        _timed(lambda: build_ac(extract_occurrences(log, 3, "mset")))
        for _ in range(50)
    )
    report(
        "A1",
        exact and best < 1e-3,
        f"cell-exact={exact}, best extract+build {best * 1e6:.0f} us",
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_a2_pmi_golden_cell():
    log = worked_log()
    table = extract_occurrences(log, 3, "mset")
    ac = build_ac(table)
    pmi_value = cell(apply_pmi(ac, table), log, "d", ("b", "d"))
    ppmi_value = cell(apply_ppmi(ac, table), log, "d", ("b", "d"))
    ok = abs(pmi_value - (-0.3365)) <= 5e-3 and ppmi_value == 0.0
    report("A2", ok, f"pmi={pmi_value:.6f} (target -0.3365 +/- 5e-3), ppmi={ppmi_value}")


def test_a3_oracle_equivalence_on_random_logs():
    rng = random.Random(31337)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        log = random_small_log(rng)
        n = rng.randint(2, 5)
        kind = rng.choice(("mset", "seq"))
        traces = log.traces
        table = extract_occurrences(log, n, kind)

        ref_acts, ref_order, ref_ac = naive_ac(traces, n, kind)
        ac = build_ac(table)
        assert list(ac.row_labels) == ref_acts
        assert list(map(tuple, ac.column_labels.tolist())) == ref_order
        assert np.array_equal(dense(ac), np.array(ref_ac))

        _, ref_aa = naive_aa(traces, n, kind)
        aa = build_aa(table)
        assert np.array_equal(aa.values, np.array(ref_aa))

        for matrix in (ac, aa):
            sim = pairwise_distance_matrix(matrix)
            expected = np.array(naive_similarity_matrix(dense(matrix).tolist()))
            assert np.allclose(sim.values, expected, atol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    report("A3", checked == 200 and elapsed < 30.0, f"{checked} logs, {elapsed:.1f}s")


def test_a4_perfect_clone_intrinsics():
    log = log_from_label_traces([["p", "x", "q"]] * 16)
    x = log.alphabet.id_of("x")
    gt = generate_ground_truth_log(log, {x}, w=2, seed=7)
    table = extract_occurrences(gt.log, 3, "seq")
    aa = build_embedding(table, make_config("aa", "seq", "none", 3))
    clone_a, clone_b = sorted(gt.classes.psi[x])
    rows_equal = bool(np.array_equal(row_of(aa, clone_a), row_of(aa, clone_b)))
    sim = pairwise_distance_matrix(aa)
    distance = 1.0 - sim_cell(sim, clone_a, clone_b)
    _, i_nn, i_prec, i_tri = score_all(sim, gt.classes.psi)
    ok = rows_equal and distance == 0.0 and i_nn == i_prec == i_tri == 1.0
    report(
        "A4",
        ok,
        f"rows-equal={rows_equal}, clone-distance={distance!r}, "
        f"i_nn={i_nn}, i_prec={i_prec}, i_tri={i_tri}",
    )


def test_a5_pmi_helps_nearest_neighbor():
    configs = [
        MethodConfig("aa", ContextKind.SEQUENCE, "none", 3),
        MethodConfig("aa", ContextKind.SEQUENCE, "pmi", 3),
    ]
    start = time.perf_counter()
    scores, failures = [], []
    for seed in (101, 102, 103):
        log = structured_log(seed)
        assert len(log.alphabet) >= 8 and len(log.traces) >= 500
        job_scores, job_failures = run_intrinsic_benchmark(
            log, configs, samples=5, master_seed=42, log_id=f"log{seed}"
        )
        scores += job_scores
        failures += job_failures
    elapsed = time.perf_counter() - start
    by_weight = {
        row.weighting: row.i_nn for row in aggregate_scores(scores, failures).rows
    }
    ok = by_weight["pmi"] >= by_weight["none"] and elapsed < 300.0
    report(
        "A5",
        ok,
        f"i_nn pmi={by_weight['pmi']:.4f} >= none={by_weight['none']:.4f}, "
        f"{len(failures)} failed jobs, {elapsed:.1f}s",
    )


def test_a6_intrinsic_cli_determinism(tmp_path):
    log = log_from_label_traces([["a", "b", "c", "b"]] * 12)
    source = tmp_path / "log.csv"
    write_log_csv(log, source)
    outputs = []
    for name, extra in (("one", []), ("two", []), ("par", ["--parallel"])):
        out = tmp_path / name
        code = cli_main(
            [
                "intrinsic",
                "--input", str(source),
                "--out-dir", str(out),
                "--method", "aa",
                "--context", "seq",
                "--weight", "none,pmi",
                "--window", "3",
                "--samples", "2",
                "--seed", "11",
            ]
            + extra
        )
        assert code == 0
        outputs.append(
            (out / "intrinsic_scores.json").read_bytes()
            + (out / "intrinsic_aggregate.csv").read_bytes()
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    report("A6", ok, f"3 runs (serial x2, parallel x1), {len(outputs[0])} report bytes each")


def test_a7_scaling_run():
    log = big_uniform_log(1)
    assert len(log.traces) == 100_000
    start = time.perf_counter()
    table = extract_occurrences(log, 3, "mset")
    aa = build_embedding(table, make_config("aa", "mset", "none", 3))
    pairwise_distance_matrix(aa)
    elapsed = time.perf_counter() - start
    dimension = len(table.contexts)
    bound = (len(log.alphabet) + 1) ** (3 - 1)  # (|A|+1)^(n-1) contexts at most
    ok = elapsed < 30.0 and dimension <= bound
    report("A7", ok, f"embed+distances {elapsed:.2f}s, dimension {dimension} <= {bound}")


def test_a8_substitution_golden_values():
    log = worked_log()
    ss = substitution_scores(extract_occurrences(log, 3, "seq"))
    ids = {label: log.alphabet.id_of(label) for label in "acde"}
    dd = sim_cell(ss, ids["d"], ids["d"])
    cd = sim_cell(ss, ids["c"], ids["d"])
    ae = sim_cell(ss, ids["a"], ids["e"])
    ok = abs(dd - math.log(60 / 7)) <= 1e-3 and cd == 0.0 and ae == 0.0
    report(
        "A8",
        ok,
        f"ss(d,d)={dd:.6f} (target {math.log(60 / 7):.4f} +/- 1e-3), "
        f"ss(c,d)={cd} and ss(a,e)={ae} (no shared sequence contexts)",
    )


def test_a9_ground_truth_balance_and_inversion():
    # Balance is over pool draws: a trace with repeated occurrences of a
    # selected activity consumes one draw. The invariant holds at every
    # trace prefix, not just at the end.
    rng = random.Random(2024)
    worst = 0
    for _ in range(100):
        log = random_small_log(rng)
        occurring = sorted(log.activity_counts())
        selected = set(rng.sample(occurring, rng.randint(1, len(occurring))))
        w = rng.randint(2, 5)
        gt = generate_ground_truth_log(log, selected, w, seed=rng.getrandbits(32))
        draws = {}
        for trace in gt.log.traces:
            for cid in {aid for aid in trace if aid in gt.classes.phi}:
                draws[cid] = draws.get(cid, 0) + 1
            for original, clones in gt.classes.psi.items():
                counts = [draws.get(cid, 0) for cid in clones]
                worst = max(worst, max(counts) - min(counts))
        assert restored_traces(gt) == log.traces
    report("A9", worst <= 1, f"100 cases, max prefix draw imbalance {worst}, inversion exact")
