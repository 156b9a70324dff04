import gc
import hashlib
import json
import math
import multiprocessing
import os
import random
import time
import tracemalloc
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actsim import (
    ContextKind,
    DataError,
    FailedJob,
    IntrinsicScores,
    METHODS,
    MethodConfig,
    ParameterError,
    PairwiseSimilarity,
    WEIGHTINGS,
    aggregate_scores,
    build_embedding,
    enumerate_benchmark_plan,
    expand_grid,
    export_report,
    extract_occurrences,
    generate_ground_truth_log,
    log_from_label_traces,
    make_config,
    pairwise_distance_matrix,
    run_intrinsic_benchmark,
    score_all,
    write_log_csv,
)
from actsim import contexts, intrinsic, similarity
from actsim.cli import main
from reference import (
    naive_aa,
    naive_ac,
    naive_compactness,
    naive_counts,
    naive_ground_truth,
    naive_mean,
    naive_nearest_neighbor,
    naive_precision_at_k,
    naive_similarity_matrix,
    naive_substitution,
    naive_triplet,
    naive_weighting,
)
from synthetic_logs import structured_log


def make_sim(matrix, labels=None):
    values = np.asarray(matrix, dtype=np.float64)
    if labels is None:
        labels = tuple(range(1, values.shape[0] + 1))
    return PairwiseSimilarity(
        labels=tuple(labels),
        values=values,
        flavor="cosine",
        config=MethodConfig("aa", ContextKind.MULTISET, "none", 3),
    )


def symmetric(cells, n):
    values = np.eye(n)
    for (i, j), s in cells.items():
        values[i - 1, j - 1] = s
        values[j - 1, i - 1] = s
    return values


class TestCompactness:
    def test_hand_example(self):
        # Off-diagonal range [0.1, 0.9]; class pairs scale to 1.0 and 0.75.
        cells = {
            (1, 2): 0.9,
            (3, 4): 0.7,
            (1, 3): 0.1,
            (1, 4): 0.2,
            (2, 3): 0.3,
            (2, 4): 0.4,
        }
        sim = make_sim(symmetric(cells, 4))
        classes = {10: frozenset({1, 2}), 20: frozenset({3, 4})}
        assert score_all(sim, classes)[0] == pytest.approx(0.875)

    def test_degenerate_matrix_scores_zero(self):
        sim = make_sim(symmetric({(1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5}, 3))
        assert score_all(sim, {9: frozenset({1, 2})})[0] == 0.0

    def test_class_pairs_averaged_before_classes(self):
        # Class sizes 3 and 2; the size-3 class must not get extra weight.
        cells = {
            (1, 2): 1.0,
            (1, 3): 1.0,
            (2, 3): 0.0,
            (4, 5): 0.5,
            (1, 4): 0.0,
            (1, 5): 0.0,
            (2, 4): 0.0,
            (2, 5): 0.0,
            (3, 4): 0.0,
            (3, 5): 0.0,
        }
        sim = make_sim(symmetric(cells, 5))
        classes = {7: frozenset({1, 2, 3}), 8: frozenset({4, 5})}
        assert score_all(sim, classes)[0] == pytest.approx((2 / 3 + 0.5) / 2)


class TestNearestNeighbor:
    def test_perfect(self):
        cells = {(1, 2): 0.9, (1, 3): 0.1, (2, 3): 0.2}
        sim = make_sim(symmetric(cells, 3))
        assert score_all(sim, {9: frozenset({1, 2})})[1] == 1.0

    def test_one_member_fails(self):
        cells = {(1, 2): 0.5, (1, 3): 0.6, (2, 3): 0.4}
        sim = make_sim(symmetric(cells, 3))
        assert score_all(sim, {9: frozenset({1, 2})})[1] == 0.5

    def test_tie_with_outsider_is_failure(self):
        cells = {(1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.1}
        sim = make_sim(symmetric(cells, 3))
        assert score_all(sim, {9: frozenset({1, 2})})[1] == 0.5

    def test_tie_inside_class_is_success(self):
        cells = {(1, 2): 0.7, (1, 3): 0.7, (2, 3): 0.7, (1, 4): 0.1, (2, 4): 0.1, (3, 4): 0.1}
        sim = make_sim(symmetric(cells, 4))
        assert score_all(sim, {9: frozenset({1, 2, 3})})[1] == 1.0


class TestPrecisionAtK:
    def test_hand_example(self):
        cells = {
            (1, 2): 0.9,
            (1, 3): 0.2,
            (2, 3): 0.8,
            (1, 4): 0.5,
            (2, 4): 0.3,
            (3, 4): 0.1,
        }
        sim = make_sim(symmetric(cells, 4))
        # Members 2 and 3 rank both classmates on top; member 1 lets the
        # outsider into its top 2, giving (1/2 + 1 + 1) / 3.
        assert score_all(sim, {9: frozenset({1, 2, 3})})[2] == pytest.approx(5 / 6)

    def test_tie_broken_by_smallest_id(self):
        cells = {(1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.1}
        sim = make_sim(symmetric(cells, 3))
        # k=1 and both candidates tie; id 2 wins the slot deterministically.
        assert score_all(sim, {9: frozenset({1, 2})})[2] == 1.0
        assert score_all(sim, {9: frozenset({1, 3})})[2] == pytest.approx(0.5)


class TestTriplet:
    def test_hand_example(self):
        cells = {
            (1, 2): 0.9,
            (1, 3): 0.8,
            (2, 3): 0.85,
            (1, 4): 0.85,
            (2, 4): 0.3,
            (3, 4): 0.2,
        }
        sim = make_sim(symmetric(cells, 4))
        # Only the ordered pair (1, 3) loses to the outsider: 0.85 < 0.8 fails.
        assert score_all(sim, {9: frozenset({1, 2, 3})})[3] == pytest.approx(5 / 6)

    def test_equality_is_not_a_win(self):
        cells = {(1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.1}
        sim = make_sim(symmetric(cells, 3))
        # Pair (1,2) ties the outsider, pair (2,1) beats it.
        assert score_all(sim, {9: frozenset({1, 2})})[3] == 0.5

    def test_no_outsiders_is_vacuously_perfect(self):
        cells = {(1, 2): 0.0}
        sim = make_sim(symmetric(cells, 2))
        assert score_all(sim, {9: frozenset({1, 2})})[3] == 1.0


class TestContracts:
    def test_ranking_invariance_under_affine_map(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(4, 7)
            raw = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
            values = (raw + raw.T) / 2
            np.fill_diagonal(values, 1.0)
            sim = make_sim(values)
            shifted = make_sim(2.0 * values + 1.0)
            classes = {9: frozenset({1, 2}), 8: frozenset({3, 4})}
            # I_nn, I_prec and I_tri read only the ranking.
            assert score_all(sim, classes)[1:] == score_all(shifted, classes)[1:]

    def test_missing_member_is_data_error(self):
        sim = make_sim(symmetric({(1, 2): 0.5}, 2))
        with pytest.raises(DataError):
            score_all(sim, {9: frozenset({1, 5})})

    def test_small_class_rejected(self):
        sim = make_sim(symmetric({(1, 2): 0.5}, 2))
        with pytest.raises(ParameterError):
            score_all(sim, {9: frozenset({1})})
        with pytest.raises(ParameterError):
            score_all(sim, {})

    def test_perfect_clones_end_to_end(self):
        log = log_from_label_traces([["p", "x", "q"]] * 16)
        x = log.alphabet.id_of("x")
        gt = generate_ground_truth_log(log, {x}, w=2, seed=11)
        table = extract_occurrences(gt.log, 3, "seq")
        sim = pairwise_distance_matrix(build_embedding(table, make_config("aa", "seq", "none", 3)))
        i_comp, i_nn, i_prec, i_tri = score_all(sim, gt.classes.psi)
        assert i_nn == 1.0 and i_prec == 1.0 and i_tri == 1.0
        assert i_comp == 1.0


@st.composite
def tie_heavy_cases(draw):
    """(labels, symmetric nested-list values, classes) over about four cell values."""
    n = draw(st.integers(2, 9))
    labels = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    palette = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 1.0]), min_size=1, max_size=4, unique=True))
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = draw(st.sampled_from(palette))
    members = draw(st.permutations(labels))
    classes = {}
    while len(members) >= 2 and (not classes or draw(st.booleans())):
        size = draw(st.integers(2, len(members)))
        classes[100 + len(classes)] = frozenset(members[:size])
        members = members[size:]
    return labels, values, classes


@settings(max_examples=300, deadline=None)
@given(tie_heavy_cases())
# A constant matrix (span 0), non-ascending ids, and a class with no outsiders.
@example(([3, 1, 2], [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]], {7: frozenset({1, 3})}))
@example(([5, 2, 9, 1], [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
          {7: frozenset({9, 1}), 8: frozenset({5, 2})}))
@example(([4, 2, 3], [[1.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 1.0]], {7: frozenset({2, 3, 4})}))
# Two where only the summation order shows: ten compactness pairs, and the
# triplet pairs of a three-member class, each summed in another order.
@example(([27, 20, 33, 37, 19], [[1.0, 1.0, 0.25, 0.25, -0.5], [1.0, 1.0, 1.0, 0.0, 0.25],
                                 [0.25, 1.0, 1.0, -0.5, -0.5], [0.25, 0.0, -0.5, 1.0, 0.25],
                                 [-0.5, 0.25, -0.5, 0.25, 1.0]], {7: frozenset({33, 37, 19, 20, 27})}))
@example(([15, 6, 35, 4, 12, 8], [[1.0, 0.25, 0.25, 0.25, 0.0, 0.0], [0.25, 1.0, 0.25, 0.0, 0.0, 0.0],
                                  [0.25, 0.25, 1.0, 0.25, 0.25, 0.25], [0.25, 0.0, 0.25, 1.0, 0.25, 0.0],
                                  [0.0, 0.0, 0.25, 0.25, 1.0, 0.0], [0.0, 0.0, 0.25, 0.0, 0.0, 1.0]],
          {7: frozenset({12, 4, 15})}))
def test_score_all_matches_naive_oracle(case):
    labels, values, classes = case
    expected = tuple(
        metric(labels, values, classes)
        for metric in (naive_compactness, naive_nearest_neighbor, naive_precision_at_k, naive_triplet)
    )
    scores = score_all(make_sim(values, labels), classes)
    assert scores == expected
    assert all(type(score) is float for score in scores)


_real_score_stack = intrinsic._score_stack
_real_similarities = intrinsic._similarities
_real_gram = similarity._gram
_real_build_embedding = intrinsic.build_embedding


def naive_scores(labels, values, classes):
    return tuple(
        metric(labels, values, classes)
        for metric in (naive_compactness, naive_nearest_neighbor, naive_precision_at_k, naive_triplet)
    )


@st.composite
def shared_size_cases(draw):
    """(labels, values, classes) over up to 14 labels where at least two
    classes share a size, so one size group stacks several classes."""
    n = draw(st.integers(4, 14))
    labels = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
    palette = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 1.0]), min_size=1, max_size=4, unique=True))
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = draw(st.sampled_from(palette))
    members = draw(st.permutations(labels))
    shared = draw(st.integers(2, n // 2))
    classes = {}
    for _ in range(draw(st.integers(2, n // shared))):
        classes[200 - len(classes)] = frozenset(members[:shared])
        members = members[shared:]
    while len(members) >= 2 and draw(st.booleans()):
        size = draw(st.integers(2, len(members)))
        classes[300 + len(classes)] = frozenset(members[:size])
        members = members[size:]
    return labels, values, draw(st.permutations(list(classes.items())))


@settings(max_examples=200, deadline=None)
@given(shared_size_cases())
def test_size_groups_match_naive_oracle(case):
    labels, values, items = case
    classes = dict(items)
    assert score_all(make_sim(values, labels), classes) == naive_scores(labels, values, classes)


COSINE = MethodConfig("ac", ContextKind.SEQUENCE, "pmi", 3)
SUBSTITUTION = MethodConfig("substitution", ContextKind.SEQUENCE, "none", 3)


@st.composite
def stacked_cases(draw):
    """(labels, [(config, values)], classes): two to four symmetric matrices
    over the same labels. A cosine matrix has a unit diagonal; a substitution
    matrix holds log-ratios, its diagonal included."""
    n = draw(st.integers(2, 9))
    labels = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    matrices = []
    for _ in range(draw(st.integers(2, 4))):
        config = draw(st.sampled_from([COSINE, SUBSTITUTION]))
        palette = [-0.5, 0.0, 0.25, 1.0] if config is COSINE else [-1.5, -0.0, 0.7, 2.25]
        palette = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=4, unique=True))
        values = [[1.0] * n for _ in range(n)]
        for i in range(n):
            if config is SUBSTITUTION:
                values[i][i] = draw(st.sampled_from(palette))
            for j in range(i + 1, n):
                values[i][j] = values[j][i] = draw(st.sampled_from(palette))
        matrices.append((config, values))
    members = draw(st.permutations(labels))
    classes = {}
    while len(members) >= 2 and (not classes or draw(st.booleans())):
        size = draw(st.integers(2, len(members)))
        classes[100 + len(classes)] = frozenset(members[:size])
        members = members[size:]
    return labels, matrices, classes


@settings(max_examples=200, deadline=None)
@given(stacked_cases())
# A constant cosine matrix (span 0) next to substitution scores, and one
# class that covers every label, so it has no outsiders.
@example(([3, 1, 2], [
    (COSINE, [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]]),
    (SUBSTITUTION, [[2.25, -1.5, 0.7], [-1.5, -0.0, 0.7], [0.7, 0.7, 2.25]]),
    (COSINE, [[1.0, -0.5, 0.0], [-0.5, 1.0, 1.0], [0.0, 1.0, 1.0]]),
], {7: frozenset({1, 2, 3})}))
def test_score_stack_matches_naive_oracle(case):
    labels, matrices, classes = case
    sims = [
        PairwiseSimilarity(
            tuple(labels), np.array(values), "cosine" if config is COSINE else "substitution", config
        )
        for config, values in matrices
    ]
    scores = intrinsic._score_stack(intrinsic._similarities(sims), tuple(labels), classes)
    assert scores == [naive_scores(labels, values, classes) for _, values in matrices]
    assert all(type(score) is float for four in scores for score in four)


def test_score_all_matches_naive_oracle_on_sweep_matrices(monkeypatch):
    # One plan sample of the W1 grid on a small structured log: every job
    # scores its 26 configs as one stack, and each matrix of each stack
    # scores as the oracle does.
    log = structured_log(7, 300, 12)
    configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5))
    assert len(configs) == 26
    built_configs = []
    stacks = []

    def similarities_recording(built):
        built_configs.append([item.config for item in built])
        return _real_similarities(built)

    def recording(values, labels, classes):
        scores = _real_score_stack(values, labels, classes)
        stacks.append((values, labels, classes, scores))
        return scores

    monkeypatch.setattr(intrinsic, "_similarities", similarities_recording)
    monkeypatch.setattr(intrinsic, "_score_stack", recording)
    records, failures = run_intrinsic_benchmark(log, configs, samples=1, master_seed=42)
    assert not failures
    assert len(stacks) == len(built_configs) == len(enumerate_benchmark_plan(log, 1, 42).jobs)
    checked = 0
    for stack_configs, (values, labels, classes, scores) in zip(built_configs, stacks):
        assert stack_configs == configs
        for matrix, four in zip(values, scores):
            assert four == naive_scores(list(labels), matrix.tolist(), classes)
            checked += 1
    assert checked >= 26 * 20
    assert [(r.i_comp, r.i_nn, r.i_prec, r.i_tri) for r in records] == [
        four for *_, scores in stacks for four in scores
    ]


def naive_similarities(traces, config):
    """The similarities of ``config`` over ``traces``, re-derived from the
    naive counts, weighting, substitution scores and cosine."""
    kind, n = config.kind.value, config.window
    _, context_totals, totals, order = naive_counts(traces, n, kind)
    activities = sorted(totals)
    row_totals = [totals[a] for a in activities]
    grand = sum(row_totals)
    if config.method == "substitution":
        return naive_substitution(naive_aa(traces, n, kind)[1], row_totals, grand)
    if config.method == "ac":
        rows, columns = naive_ac(traces, n, kind)[2], [context_totals[c] for c in order]
    else:
        rows, columns = naive_aa(traces, n, kind)[1], row_totals
    return naive_similarity_matrix(naive_weighting(rows, row_totals, columns, grand, config.weighting))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_plan_jobs_match_the_end_to_end_oracle(traces, master_seed, data):
    # Every similarity a plan job scores on the W1 grid, re-derived from the
    # naive derived log's traces with naive steps only, and every record
    # against the loop metrics on the matrix it was scored on. Each activity
    # occurs in at least five traces, so every clone is drawn and has a row.
    log = log_from_label_traces(traces * 5)
    configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5))
    plan = enumerate_benchmark_plan(log, 1, master_seed)
    jobs = data.draw(st.lists(st.sampled_from(plan.jobs), min_size=1, max_size=3, unique=True))
    for job in jobs:
        stacks = []

        def recording(values, labels, classes):
            scores = _real_score_stack(values, labels, classes)
            stacks.append((values, labels, classes))
            return scores

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intrinsic, "_score_stack", recording)
            records, failures = run_intrinsic_benchmark(log, configs, plan=replace(plan, jobs=(job,)))
        derived, _, psi = naive_ground_truth(
            log.traces, len(log.alphabet), job.selected, job.w, job.seed
        )
        labels = sorted({aid for trace in derived for aid in trace})
        assert not failures
        assert all(list(stack_labels) == labels and classes == psi for _, stack_labels, classes in stacks)
        values = np.concatenate([stack_values for stack_values, *_ in stacks])
        assert len(values) == len(records) == len(configs)
        for config, matrix, record in zip(configs, values, records):
            expected = np.array(naive_similarities(derived, config))
            assert np.abs(matrix - expected).max() <= 1e-12, config
            four = (record.i_comp, record.i_nn, record.i_prec, record.i_tri)
            assert four == naive_scores(labels, matrix.tolist(), psi)


def test_a_sweep_job_is_compared_and_scored_as_one_stack(monkeypatch):
    # One sample of the W1 sweep: each job's 26 configs fit one stack (a
    # job has at most 61 labels here), so the budget never splits them.
    log = structured_log(7, 2000, 20)
    configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5))
    stacks = []

    def recording(built):
        stacks.append((len(built), built[0].values.shape[0]))
        return _real_similarities(built)

    monkeypatch.setattr(intrinsic, "_similarities", recording)
    _, failures = run_intrinsic_benchmark(log, configs, samples=1, master_seed=42)
    assert not failures
    assert len(stacks) == len(enumerate_benchmark_plan(log, 1, 42).jobs)
    assert {size for size, _ in stacks} == {26}
    assert max(8 * n * n for _, n in stacks) * 26 <= intrinsic._STACK_BYTES


def test_stacks_of_one_give_the_same_records(monkeypatch):
    # A budget of one byte makes every config a stack of its own, and one
    # of a few configs' bytes splits each job's stacks unevenly; neither
    # changes a bit of any record.
    log = structured_log(7, 300, 12)
    configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5))
    plan = enumerate_benchmark_plan(log, 1, 42)
    default = run_intrinsic_benchmark(log, configs, plan=plan)
    assert default[0] and not default[1]
    sizes = []

    def recording(built):
        sizes.append(len(built))
        return _real_similarities(built)

    monkeypatch.setattr(intrinsic, "_similarities", recording)
    monkeypatch.setattr(intrinsic, "_STACK_BYTES", 1)
    assert repr(run_intrinsic_benchmark(log, configs, plan=plan)) == repr(default)
    assert set(sizes) == {1}
    sizes.clear()
    monkeypatch.setattr(intrinsic, "_STACK_BYTES", 8 * 40 * 40 * 3)
    assert repr(run_intrinsic_benchmark(log, configs, plan=plan)) == repr(default)
    assert any(1 < size < 26 for size in sizes)


def test_a_job_compares_and_scores_in_bounded_memory(monkeypatch):
    # The heaviest W1 job (r = 10, w = 5) over about 340 labels: one
    # config's similarities take 0.9 MiB. Its configs are compared and
    # scored in stacks of at most _STACK_BYTES, so what that adds to the
    # built configs stays a few stacks' worth; one stack of all 26 configs
    # took 66 MiB.
    rng = random.Random(5)
    log = log_from_label_traces(
        [[f"a{rng.randrange(300)}" for _ in range(rng.randint(5, 15))] for _ in range(6000)]
    )
    configs = tuple(expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5)))
    job = next(job for job in enumerate_benchmark_plan(log, 1, 42).jobs if (job.r, job.w) == (10, 5))
    real = intrinsic.build_embedding
    built = []
    held = []

    def building(table, config):
        built.append(real(table, config))
        if len(built) == len(configs):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return built[-1]

    monkeypatch.setattr(intrinsic, "build_embedding", building)
    tracemalloc.start()
    try:
        scores, failures = intrinsic._run_job(log, job, configs, "log")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scores) == len(configs) and not failures
    assert len(built[0].row_labels) == 340
    assert peak - held[0] <= 33 * 2**20, f"{(peak - held[0]) / 2**20:.1f} MiB"


def test_a_refused_window_leaves_no_cycle_and_records_its_scan_message():
    # A job at a refused window fails only its configs there, each with the
    # message its window's scan raises, and keeps no exception: with the
    # cycle collector off, nothing of the job is left for it to find.
    log = structured_log(7, 300, 12)
    configs = tuple(expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 2**40)))
    jobs = [job for job in enumerate_benchmark_plan(log, 1, 42).jobs if job.r >= 8][:3]
    assert len(jobs) == 3
    gc.collect()
    gc.disable()
    try:
        for job in jobs:
            scores, failures = intrinsic._run_job(log, job, configs, "log")
            del scores, failures
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
    job = jobs[0]
    scores, failures = intrinsic._run_job(log, job, configs, "log")
    assert [s.window for s in scores] == [c.window for c in configs if c.window == 3]
    assert [f.window for f in failures] == [c.window for c in configs if c.window == 2**40]
    derived = generate_ground_truth_log(log, set(job.selected), job.w, job.seed).log
    for failure in failures:
        with pytest.raises(ParameterError) as refused:
            extract_occurrences(derived, failure.window, failure.context)
        assert failure.error == str(refused.value)


class TestLayoutMemo:
    def test_alternating_classes_over_the_same_labels(self):
        rng = random.Random(5)
        raw = np.array([[rng.random() for _ in range(6)] for _ in range(6)])
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 1.0)
        labels = [4, 9, 1, 7, 3, 8]
        sim = make_sim(values, labels)
        first = {1: frozenset({4, 9}), 2: frozenset({1, 7})}
        second = {1: frozenset({4, 1, 3}), 2: {7, 8}}
        for classes in (first, second, first, second):
            expected = naive_scores(labels, values.tolist(), classes)
            assert score_all(sim, classes) == expected

    def test_mutated_mapping_is_scored_as_it_now_is(self):
        values = symmetric({(1, 2): 0.9, (3, 4): 0.2, (1, 3): 0.5, (2, 4): 0.1}, 4)
        sim = make_sim(values)
        classes = {9: {1, 2}}
        before = score_all(sim, classes)
        classes[9].add(3)
        classes[8] = {4, 1}
        after = score_all(sim, classes)
        assert after != before
        assert after == naive_scores([1, 2, 3, 4], values.tolist(), classes)
        del classes[8]
        classes[9].discard(3)
        assert score_all(sim, classes) == before

    def test_a_failed_layout_is_not_cached(self):
        sim = make_sim(symmetric({(1, 2): 0.5}, 2))
        for _ in range(3):
            with pytest.raises(DataError, match="class member 5 .*no row"):
                score_all(sim, {9: frozenset({1, 5})})
        assert score_all(sim, {9: frozenset({1, 2})}) == (0.0, 1.0, 1.0, 1.0)


def score_row(method="aa", context="mset", weighting="none", window=3,
              r=1, w=2, sample=0, i_nn=1.0, log_id="log"):
    return IntrinsicScores(
        method=method,
        context=context,
        weighting=weighting,
        window=window,
        r=r,
        w=w,
        sample=sample,
        i_comp=0.5,
        i_nn=i_nn,
        i_prec=0.5,
        i_tri=0.5,
        log_id=log_id,
    )


class TestAggregate:
    def test_two_level_mean(self):
        scores = [
            score_row(i_nn=0.25, sample=0, log_id="A"),
            score_row(i_nn=0.75, sample=1, log_id="A"),
            score_row(i_nn=0.25, sample=0, log_id="B"),
        ]
        report = aggregate_scores(scores)
        assert len(report.rows) == 1
        row = report.rows[0]
        # Log A averages to 0.5, log B to 0.25; (0.5 + 0.25) / 2.
        assert row.i_nn == pytest.approx(0.375)
        assert row.jobs_ok == 3 and row.jobs_failed == 0

    def test_rows_sorted_and_failures_counted(self):
        scores = [
            score_row(method="ac", weighting="pmi"),
            score_row(method="aa", weighting="none"),
            score_row(method="aa", weighting="pmi"),
        ]
        failures = [
            FailedJob(
                method="aa",
                context="mset",
                weighting="pmi",
                window=3,
                r=2,
                w=3,
                sample=1,
                error="boom",
            )
        ]
        report = aggregate_scores(scores, failures)
        keys = [(r.method, r.context, r.weighting, r.window) for r in report.rows]
        assert keys == sorted(keys)
        by_key = {k: r for k, r in zip(keys, report.rows)}
        assert by_key[("aa", "mset", "pmi", 3)].jobs_failed == 1
        assert by_key[("aa", "mset", "none", 3)].jobs_failed == 0

    def test_config_that_failed_every_job_keeps_its_row(self, tmp_path):
        failures = [
            FailedJob("ac", "mset", "pmi", 3, r=1, w=2, sample=sample, error="boom")
            for sample in (0, 1)
        ]
        report = aggregate_scores([score_row()], failures)
        assert [(r.method, r.jobs_ok, r.jobs_failed) for r in report.rows] == [
            ("aa", 1, 0), ("ac", 0, 2)
        ]
        failed = report.rows[1]
        assert (failed.i_comp, failed.i_nn, failed.i_prec, failed.i_tri) == (None,) * 4
        export_report(report, tmp_path / "agg.csv", fmt="csv")
        assert (tmp_path / "agg.csv").read_text().splitlines()[2] == "ac,mset,pmi,3,,,,,0,2"
        export_report(report, tmp_path / "agg.json")
        row = json.loads((tmp_path / "agg.json").read_text())["rows"][1]
        assert row == {
            "method": "ac", "context": "mset", "weighting": "pmi", "window": 3,
            "jobs_ok": 0, "jobs_failed": 2,
        }

    def test_empty_scores_rejected(self):
        with pytest.raises(ParameterError):
            aggregate_scores([])


class TestMean:
    def test_cancelling_terms_add_left_to_right(self):
        # A compensated sum, as sum() is since Python 3.12, keeps the 1.0.
        assert intrinsic._mean([1e16, 1.0, -1e16]) == 0.0

    def test_negative_zeros_mean_positive_zero(self):
        assert math.copysign(1.0, intrinsic._mean([-0.0, -0.0, -0.0])) == 1.0

    def test_stacked_negative_zeros_mean_positive_zero(self):
        means = intrinsic._mean(np.full((2, 3, 4), -0.0))
        assert means.shape == (2, 3)
        assert (means == 0.0).all() and not np.signbit(means).any()

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_matches_a_left_fold(self, values):
        assert intrinsic._mean(values).hex() == naive_mean(values).hex()

    @given(st.integers(1, 6).flatmap(lambda size: st.lists(
        st.lists(st.floats(allow_nan=False), min_size=size, max_size=size), min_size=1, max_size=5
    )))
    def test_each_row_of_a_stack_is_a_left_fold(self, rows):
        means = intrinsic._mean(rows).tolist()
        assert [mean.hex() for mean in means] == [naive_mean(row).hex() for row in rows]

    def test_aggregate_means_are_left_folds(self):
        scores = [score_row(i_nn=v, sample=s) for s, v in enumerate([1e16, 1.0, -1e16])]
        assert aggregate_scores(scores).rows[0].i_nn == 0.0


# The SHA-256 of the reports of the W1 grid with one sample per plan cell on
# structured_log(7, 300, 12), as written on Python 3.11. Every mean is a left
# fold, so every supported Python writes these bytes.
PINNED_REPORTS = {
    "intrinsic_scores.json": "39a57df771d6fc9abb1488277c827f5c7d26c6a8c5c61604a4b77614b4b2d1c1",
    "intrinsic_aggregate.csv": "bf6e90350930ada6f437c5a37eb63cb5281aab91896a49604d3b146bd0d35dab",
}


def test_w1_reports_have_the_pinned_bytes(tmp_path):
    write_log_csv(structured_log(7, 300, 12), tmp_path / "log.csv")
    assert main([
        "intrinsic", "--input", str(tmp_path / "log.csv"), "--out-dir", str(tmp_path / "out"),
        "--method", "all", "--context", "all", "--weight", "all", "--window", "3,5",
        "--samples", "1",
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in PINNED_REPORTS
    }
    assert digests == PINNED_REPORTS


class TestRunner:
    def test_full_sweep_counts(self):
        log = log_from_label_traces([["a", "b", "c", "b"]] * 12)
        configs = [make_config("aa", "mset", "none", 3)]
        scores, failures = run_intrinsic_benchmark(log, configs, samples=5, master_seed=42)
        plan = enumerate_benchmark_plan(log, 5, 42)
        assert len(scores) == len(plan.jobs) == 28
        assert failures == []
        assert {(s.r, s.w, s.sample) for s in scores} == {
            (j.r, j.w, j.sample_index) for j in plan.jobs
        }

    def test_parallel_matches_serial(self):
        log = log_from_label_traces([["a", "b", "c", "b"]] * 12)
        configs = [make_config("aa", "mset", "none", 3), make_config("ac", "seq", "pmi", 3)]
        serial = run_intrinsic_benchmark(log, configs, samples=3, master_seed=7, parallel=False)
        parallel = run_intrinsic_benchmark(log, configs, samples=3, master_seed=7, parallel=True)
        assert serial == parallel

    def test_invalid_config_rejected_up_front(self):
        log = log_from_label_traces([["a", "b", "c"]] * 4)
        with pytest.raises(ParameterError):
            run_intrinsic_benchmark(log, [make_config("substitution", "mset", "none", 3)])
        with pytest.raises(ParameterError):
            run_intrinsic_benchmark(log, [])

    def test_scores_carry_config_and_log_id(self):
        log = log_from_label_traces([["a", "b", "c", "b"]] * 8)
        configs = [make_config("substitution", "seq", "none", 3)]
        scores, failures = run_intrinsic_benchmark(
            log, configs, samples=2, master_seed=1, log_id="mine"
        )
        assert scores and not failures
        assert all(s.method == "substitution" and s.log_id == "mine" for s in scores)

    def test_a_failed_derivation_fails_every_config_of_its_job(self):
        # Cloning "a" names its first clone "a__1", a label this log has.
        log = log_from_label_traces([["a", "a__1", "b"], ["b", "a", "c"], ["c", "a__1", "a"]])
        configs = expand_grid(METHODS, ["mset", "seq"], WEIGHTINGS, [3, 5])
        assert len(configs) == 26
        scores, failures = run_intrinsic_benchmark(log, configs, samples=3, master_seed=42)
        collision = "clone label 'a__1' collides with an existing activity"
        grid = [(c.method, c.kind.value, c.weighting, c.window) for c in configs]
        jobs = enumerate_benchmark_plan(log, 3, 42).jobs
        failed = [job for job in jobs if log.alphabet.id_of("a") in job.selected]
        assert 0 < len(failed) < len(jobs)
        for job in jobs:
            key = (job.r, job.w, job.sample_index)
            job_scores = [s for s in scores if (s.r, s.w, s.sample) == key]
            job_failures = [f for f in failures if (f.r, f.w, f.sample) == key]
            if job in failed:
                assert not job_scores
                assert [f.error for f in job_failures] == [collision] * 26
                assert [(f.method, f.context, f.weighting, f.window) for f in job_failures] == grid
            else:
                assert len(job_scores) + len(job_failures) == 26
                assert collision not in {f.error for f in job_failures}
        assert scores  # only jobs that do not select "a" are left to score

    def test_unexpected_exception_fails_only_its_config(self, monkeypatch):
        log = log_from_label_traces([["a", "b", "c", "b"]] * 12)
        configs = [make_config("aa", "mset", "none", 3), make_config("ac", "seq", "pmi", 3)]

        def similarities_or_raise(built):
            if any(item.config.method == "ac" for item in built):
                raise FloatingPointError("overflow in the ac scores")
            return _real_similarities(built)

        monkeypatch.setattr(intrinsic, "_similarities", similarities_or_raise)
        scores, failures = run_intrinsic_benchmark(log, configs, samples=2, master_seed=1)
        plan = enumerate_benchmark_plan(log, 2, 1)
        assert len(scores) == len(failures) == len(plan.jobs)
        assert {s.method for s in scores} == {"aa"}
        assert {(f.method, f.error) for f in failures} == {
            ("ac", "FloatingPointError: overflow in the ac scores")
        }

    @pytest.mark.parametrize("stage", ["build", "compare", "score"])
    def test_a_config_that_raises_inside_the_stack_fails_alone(self, monkeypatch, stage):
        # One config raises inside its job's stack, while it is built,
        # compared or scored; the stack is then scored one config at a time,
        # and only that config fails.
        log = structured_log(7, 300, 12)
        configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3, 5))
        plan = enumerate_benchmark_plan(log, 1, 42)
        plan = replace(plan, jobs=plan.jobs[:3])
        clean, _ = run_intrinsic_benchmark(log, configs, plan=plan)
        broken = make_config("ac", "seq", "ppmi", 5)
        sizes = []
        compared = []

        def similarities_recording(built):
            compared.append([item.config for item in built])
            return _real_similarities(built)

        def score_stack_or_raise(values, labels, classes):
            sizes.append(len(values))
            if stage == "score" and broken in compared[-1]:
                raise FloatingPointError("ppmi scores overflowed")
            return _real_score_stack(values, labels, classes)

        def gram_or_raise(matrix):
            if stage == "compare" and matrix.config == broken:
                raise FloatingPointError("ppmi scores overflowed")
            return _real_gram(matrix)

        def build_or_raise(table, config):
            if stage == "build" and config == broken:
                raise FloatingPointError("ppmi scores overflowed")
            return _real_build_embedding(table, config)

        monkeypatch.setattr(intrinsic, "build_embedding", build_or_raise)
        monkeypatch.setattr(intrinsic, "_similarities", similarities_recording)
        monkeypatch.setattr(intrinsic, "_score_stack", score_stack_or_raise)
        monkeypatch.setattr(similarity, "_gram", gram_or_raise)
        scores, failures = run_intrinsic_benchmark(log, configs, plan=plan)
        assert scores == [
            s for s in clean if (s.method, s.context, s.weighting, s.window) != ("ac", "seq", "ppmi", 5)
        ]
        assert [(f.r, f.w, f.sample, f.method, f.context, f.weighting, f.window, f.error)
                for f in failures] == [
            (job.r, job.w, job.sample_index, "ac", "seq", "ppmi", 5,
             "FloatingPointError: ppmi scores overflowed")
            for job in plan.jobs
        ]
        # A build or a Gram that raises stops the stack before it is scored,
        # and the broken config before its own stack of one is.
        stacked = [26] if stage == "score" else []
        alone = [1] * (26 if stage == "score" else 25)
        assert sizes == (stacked + alone) * len(plan.jobs)

    @pytest.mark.parametrize("cpus, jobs, workers", [
        (64, 9, 2),  # two chunks of at most 8 jobs
        (1, 28, 1),
        (None, 28, 1),  # os.cpu_count() may not know
        (3, 28, 3),
    ])
    def test_pool_has_a_worker_per_chunk_at_most(self, monkeypatch, cpus, jobs, workers):
        # A stand-in executor records its arguments and runs each chunk in
        # this process, so no worker process is started.
        log = log_from_label_traces([["a", "b", "c", "b"]] * 12)
        configs = [make_config("aa", "mset", "none", 3)]
        plan = enumerate_benchmark_plan(log, 5, 42)
        assert len(plan.jobs) >= jobs
        plan = replace(plan, jobs=plan.jobs[:jobs])
        pools = []

        class Recorder(ThreadPoolExecutor):
            def __init__(self, **kwargs):
                pools.append(kwargs)
                super().__init__(max_workers=1)

        monkeypatch.setattr(intrinsic, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        parallel = run_intrinsic_benchmark(log, configs, plan=plan, parallel=True)
        assert pools == [{"max_workers": workers}]
        assert parallel == run_intrinsic_benchmark(log, configs, plan=plan)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers must inherit the patched _run_job")
    def test_dead_worker_fails_only_the_unfinished_jobs(self, monkeypatch, tmp_path):
        traces = [["a", "b", "c", "b"]] * 12
        log = log_from_label_traces(traces)
        configs = [make_config("aa", "mset", "none", 3), make_config("ac", "seq", "pmi", 3)]
        plan = enumerate_benchmark_plan(log, 2, 1)
        serial, _ = run_intrinsic_benchmark(log, configs, samples=2, master_seed=1)
        # Two workers, whatever the CPU count: a later chunk can only finish
        # before an earlier one while a second worker runs it.
        monkeypatch.setattr(
            intrinsic, "ProcessPoolExecutor",
            lambda **kwargs: ProcessPoolExecutor(**{**kwargs, "max_workers": 2}),
        )
        monkeypatch.setattr(intrinsic, "_run_job", _run_job_or_die)
        scores, failures = run_intrinsic_benchmark(
            log, configs, samples=2, master_seed=1, parallel=True
        )
        # Results arrive in plan order: the scored jobs are a prefix of the
        # plan, and every later job fails under each config.
        done = len(scores) // len(configs)
        assert 0 < done < len(plan.jobs)
        assert scores == serial[: len(scores)]
        assert [(f.r, f.w, f.sample, f.method) for f in failures] == [
            (job.r, job.w, job.sample_index, config.method)
            for job in plan.jobs[done:]
            for config in configs
        ]
        assert all(f.error.startswith("BrokenProcessPool: ") for f in failures)

        source = tmp_path / "log.csv"
        source.write_text("case,activity\n" + "".join(
            f"{case},{act}\n" for case, trace in enumerate(traces) for act in trace
        ))
        out = tmp_path / "out"
        code = main([
            "intrinsic", "--input", str(source), "--out-dir", str(out),
            "--method", "aa", "--context", "mset", "--weight", "none",
            "--samples", "2", "--seed", "1", "--parallel",
        ])
        assert code == 1
        written = json.loads((out / "intrinsic_scores.json").read_text())
        failed = json.loads((out / "intrinsic_failures.json").read_text())
        assert written and failed and len(written) + len(failed) == len(plan.jobs)
        assert all(f["error"].startswith("BrokenProcessPool: ") for f in failed)
        assert (out / "intrinsic_aggregate.csv").exists()

        # The plan's first job dies: the other worker runs every later chunk
        # meanwhile, and their results are kept. Only the first chunk of 8
        # jobs fails.
        monkeypatch.setattr(intrinsic, "_run_job", _first_job_dies)
        scores, failures = run_intrinsic_benchmark(
            log, configs, samples=2, master_seed=1, parallel=True
        )
        first_chunk = plan.jobs[:8]
        assert len(plan.jobs) > len(first_chunk)
        assert scores == serial[len(first_chunk) * len(configs):]
        assert [(f.r, f.w, f.sample, f.method) for f in failures] == [
            (job.r, job.w, job.sample_index, config.method)
            for job in first_chunk
            for config in configs
        ]
        assert all(f.error.startswith("BrokenProcessPool: ") for f in failures)


_real_run_job = intrinsic._run_job


def _run_job_or_die(log, job, configs, log_id, index=-1, after=0.5):
    """Stands in for ``intrinsic._run_job``: the worker that gets job
    ``index`` of the plan (by default the last) dies ``after`` seconds
    later, giving the other chunks time to finish."""
    if job == enumerate_benchmark_plan(log, 2, 1).jobs[index]:
        time.sleep(after)
        os._exit(3)
    return _real_run_job(log, job, configs, log_id)


def _first_job_dies(log, job, configs, log_id):
    return _run_job_or_die(log, job, configs, log_id, index=0, after=1.0)


def test_an_alphabet_too_wide_for_a_dense_matrix_fails_every_config(monkeypatch):
    # With the bound below seven 2 x 2 matrices, every config of every job
    # is refused on its own and recorded as a failure; the run goes on.
    monkeypatch.setattr(contexts, "_DENSE_BYTES_CAP", 7 * 8 * 2 * 2 - 1)
    log = structured_log(7, 300, 12)
    configs = expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (3,))
    scores, failures = run_intrinsic_benchmark(log, configs, samples=1, master_seed=42)
    jobs = enumerate_benchmark_plan(log, 1, 42).jobs
    assert not scores and len(failures) == len(jobs) * len(configs)
    assert all(" activities need " in failure.error for failure in failures)
