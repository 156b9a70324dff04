import random
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actsim import (
    Alphabet,
    EmptyLogError,
    EventLog,
    ParameterError,
    enumerate_benchmark_plan,
    generate_ground_truth_log,
    log_from_label_traces,
    mix_seed,
    splitmix64,
)
from actsim import groundtruth
from actsim.groundtruth import _draws_below
from reference import naive_ground_truth, restored_traces
from synthetic_logs import random_small_log


def three_activity_log(n_traces=12):
    return log_from_label_traces([["a", "b", "c", "b"]] * n_traces)


class TestSplitmix:
    def test_known_vector(self):
        # First output of the reference splitmix64 stream seeded with 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0) == 16294208416658607535

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(42, 1, 2) != mix_seed(42, 2, 1)
        assert mix_seed(42, 1, 2, 0) != mix_seed(42, 1, 2, 1)

    def test_mix_seed_is_chained_finalizer(self):
        state = splitmix64(42)
        state = splitmix64(state ^ 3)
        assert mix_seed(42, 3) == state


class TestGenerate:
    def test_clone_ids_and_labels(self):
        log = three_activity_log()
        b = log.alphabet.id_of("b")
        gt = generate_ground_truth_log(log, {b}, w=3, seed=7)
        assert len(gt.log.alphabet) == 6
        assert gt.log.alphabet.label_of(4) == "b__1"
        assert gt.log.alphabet.label_of(6) == "b__3"
        assert gt.classes.psi[b] == frozenset({4, 5, 6})
        assert gt.classes.phi == {4: b, 5: b, 6: b}
        # Original ids survive the extension untouched.
        assert gt.log.alphabet.label_of(1) == "a"
        assert gt.r == 1 and gt.w == 3 and gt.seed == 7

    def test_registration_order_over_selected(self):
        log = log_from_label_traces([["a", "b", "c", "d"]] * 4)
        ids = {log.alphabet.id_of("d"), log.alphabet.id_of("b")}
        gt = generate_ground_truth_log(log, ids, w=2, seed=0)
        # Clones are registered ascending by original id: b first, then d.
        assert gt.log.alphabet.label_of(5) == "b__1"
        assert gt.log.alphabet.label_of(6) == "b__2"
        assert gt.log.alphabet.label_of(7) == "d__1"
        assert gt.log.alphabet.label_of(8) == "d__2"

    def test_selected_activity_gone_from_derived(self):
        log = three_activity_log()
        b = log.alphabet.id_of("b")
        gt = generate_ground_truth_log(log, {b}, w=2, seed=3)
        assert gt.log.activity_counts()[b] == 0

    def test_within_trace_consistency(self):
        log = log_from_label_traces([["a", "b", "a", "a"]] * 30)
        a = log.alphabet.id_of("a")
        for seed in range(40):
            gt = generate_ground_truth_log(log, {a}, w=4, seed=seed)
            for trace in gt.log.traces:
                clones = {aid for aid in trace if aid in gt.classes.phi}
                assert len(clones) == 1

    def test_pool_draws_balanced_at_every_prefix(self):
        # One draw per trace, no matter how often the activity repeats inside it.
        for seed in range(25):
            log = log_from_label_traces([["c", "a", "c", "c"]] * 17)
            c = log.alphabet.id_of("c")
            gt = generate_ground_truth_log(log, {c}, w=4, seed=seed)
            draws = Counter()
            for trace in gt.log.traces:
                used = {aid for aid in trace if aid in gt.classes.phi}
                assert len(used) == 1
                draws.update(used)
                counts = [draws.get(cid, 0) for cid in gt.classes.psi[c]]
                assert max(counts) - min(counts) <= 1

    def test_deterministic_in_seed(self):
        log = three_activity_log()
        ids = {log.alphabet.id_of("a"), log.alphabet.id_of("c")}
        one = generate_ground_truth_log(log, ids, w=3, seed=99)
        two = generate_ground_truth_log(log, ids, w=3, seed=99)
        other = generate_ground_truth_log(log, ids, w=3, seed=100)
        assert one.log.traces == two.log.traces
        assert one.log.traces != other.log.traces

    def test_restore_inverts(self):
        rng = random.Random(5)
        for _ in range(30):
            log = random_small_log(rng)
            counts = log.activity_counts()
            occurring = sorted(counts)
            r = rng.randint(1, len(occurring))
            selected = set(rng.sample(occurring, r))
            gt = generate_ground_truth_log(log, selected, w=rng.randint(2, 5), seed=rng.getrandbits(32))
            assert restored_traces(gt) == log.traces

    def test_label_collision(self):
        log = log_from_label_traces([["a", "a__1"]])
        with pytest.raises(ParameterError, match="collides"):
            generate_ground_truth_log(log, {log.alphabet.id_of("a")}, w=2, seed=0)

    def test_bad_parameters(self):
        log = three_activity_log()
        with pytest.raises(ParameterError):
            generate_ground_truth_log(log, set(), w=2, seed=0)
        with pytest.raises(ParameterError):
            generate_ground_truth_log(log, {1}, w=1, seed=0)
        with pytest.raises(ParameterError):
            generate_ground_truth_log(log, {9}, w=2, seed=0)

    def test_absent_activity_rejected(self):
        # "d" is in the alphabet but never occurs in the traces.
        alphabet = Alphabet(("a", "b", "c", "d"))
        log = EventLog(((1, 2, 3),), alphabet)
        with pytest.raises(ParameterError, match="does not occur"):
            generate_ground_truth_log(log, {4}, w=2, seed=0)


@st.composite
def derivation_cases(draw):
    """(traces, alphabet size, selected ids, w, seed); ids are drawn from a
    small alphabet so that traces repeat selected activities, and up to
    twelve traces with w up to 5 make pools refill."""
    size = draw(st.integers(1, 5))
    traces = draw(
        st.lists(
            st.lists(st.integers(1, size), min_size=1, max_size=8).map(tuple),
            min_size=1,
            max_size=12,
        )
    )
    occurring = sorted({aid for trace in traces for aid in trace})
    selected = draw(st.sets(st.sampled_from(occurring), min_size=1))
    return tuple(traces), size, selected, draw(st.integers(2, 5)), draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(derivation_cases())
# A selected activity repeated inside a trace, and traces without one.
@example((((1, 2, 1, 1), (2, 2), (1, 3, 1), (3,)), 3, {1}, 2, 11))
# Seven traces through pools of w = 2 and 3: both refill twice.
@example((((1, 2, 2, 1),) * 7, 2, {1, 2}, 3, 5))
@example((((2, 1), (1,), (2, 2, 2), (1, 2)) * 2, 2, {1, 2}, 2, 0))
# Every occurring activity selected (ids 4 and 5 never occur), so every
# event is replaced; and a single one.
@example((((1, 2, 3, 1), (3, 3), (2, 1, 2), (1,)) * 3, 5, {1, 2, 3}, 3, 4))
@example((((1, 2, 3, 1), (3, 3), (2, 1, 2), (1,)) * 3, 5, {3}, 2, 4))
# 280 selected activities: more than a uint8 can number next to the
# unselected ones, so the per-event numbers take a wider dtype.
@example(
    (
        (tuple(range(1, 301)), tuple(range(300, 0, -2)), (7, 7, 290, 7), tuple(range(1, 301))),
        300,
        set(range(1, 281)),
        3,
        9,
    )
)
def test_generate_matches_naive_oracle(case):
    traces, size, selected, w, seed = case
    log = EventLog(traces, Alphabet(f"x{i}" for i in range(1, size + 1)))
    gt = generate_ground_truth_log(log, selected, w=w, seed=seed)
    derived, phi, psi = naive_ground_truth(traces, size, selected, w, seed)
    assert gt.log.traces == derived
    assert gt.classes.phi == phi
    assert gt.classes.psi == psi


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=40), st.integers(0, 2**64))
@example([1] * 20, 0)  # a pool of one still draws bits
def test_draws_follow_randrange(sizes, seed):
    rng, reference = random.Random(seed), random.Random(seed)
    assert _draws_below(rng, sizes) == [reference.randrange(size) for size in sizes]
    assert rng.getstate() == reference.getstate()


@st.composite
def shared_derivation_cases(draw):
    """(traces, alphabet size, selected ids, w, seed) over a few distinct
    traces repeated many times, so that derived traces repeat too."""
    size = draw(st.integers(1, 6))
    pool = draw(
        st.lists(
            st.lists(st.integers(1, size), min_size=1, max_size=6).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    traces = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    occurring = sorted({aid for trace in traces for aid in trace})
    selected = draw(st.sets(st.sampled_from(occurring), min_size=1))
    return tuple(traces), size, selected, draw(st.integers(2, 6)), draw(st.integers(0, 2**64))


def packing_boundary_case(r):
    """r activities with pools of two, all in one trace between two traces
    without any (base variants 0 and 2). At r = 61 the keys pack without
    renumbering; at r = 63 and 64, 2 * 2**r wraps to a multiple of 2**64,
    so variants 0 and 2 would merge unless the keys are renumbered."""
    clones = tuple(range(3, r + 3))
    return ((1,), clones, (2,), clones, (1,), clones) * 2, r + 2, set(clones), 2, r


@settings(max_examples=150, deadline=None)
@given(shared_derivation_cases())
@example(packing_boundary_case(61))
@example(packing_boundary_case(63))
@example(packing_boundary_case(64))
def test_derived_log_carries_its_variants(case):
    traces, size, selected, w, seed = case
    log = EventLog(traces, Alphabet(f"x{i}" for i in range(1, size + 1)))
    gt = generate_ground_truth_log(log, selected, w=w, seed=seed)
    assert "variant_numbers" in vars(gt.log)
    fresh = EventLog.from_arrays(gt.log.events, gt.log.offsets, gt.log.alphabet)
    numbers: dict[tuple[int, ...], int] = {}
    assert gt.log.variant_numbers.tolist() == [
        numbers.setdefault(trace, len(numbers)) for trace in gt.log.traces
    ]
    for carried, deduped in zip(
        (gt.log.variant_numbers, *gt.log.variants), (fresh.variant_numbers, *fresh.variants)
    ):
        assert carried.dtype == deduped.dtype
        assert carried.flags.writeable == deduped.flags.writeable
        assert np.array_equal(carried, deduped)


class TestPlan:
    def test_job_count_three_activities(self):
        plan = enumerate_benchmark_plan(three_activity_log(), samples=5, master_seed=42)
        # r=1: 3 subsets, r=2: 3, r=3: 1; each crossed with w in {2,3,4,5}.
        assert len(plan.jobs) == (3 + 3 + 1) * 4
        assert plan.master_seed == 42 and plan.samples == 5

    def test_exhaustive_subsets_lexicographic(self):
        plan = enumerate_benchmark_plan(three_activity_log(), samples=5, master_seed=42)
        r2w2 = [job.selected for job in plan.jobs if job.r == 2 and job.w == 2]
        assert r2w2 == [(1, 2), (1, 3), (2, 3)]

    def test_r_capped_at_ten(self):
        labels = [f"x{i:02d}" for i in range(12)]
        log = log_from_label_traces([labels] * 3)
        plan = enumerate_benchmark_plan(log, samples=2, master_seed=1)
        assert max(job.r for job in plan.jobs) == 10
        assert {job.w for job in plan.jobs} == {2, 3, 4, 5}

    def test_sampled_subsets_distinct_and_sorted(self):
        labels = [f"x{i:02d}" for i in range(12)]
        log = log_from_label_traces([labels] * 3)
        plan = enumerate_benchmark_plan(log, samples=4, master_seed=7)
        for r in (3, 5):
            for w in (2, 5):
                cell = [job.selected for job in plan.jobs if job.r == r and job.w == w]
                assert len(cell) == 4 <= comb(12, r)
                assert len(set(cell)) == 4
                for subset in cell:
                    assert list(subset) == sorted(subset)
                    assert all(1 <= aid <= 12 for aid in subset)

    def test_seed_derivation_and_distinctness(self):
        plan = enumerate_benchmark_plan(three_activity_log(), samples=5, master_seed=42)
        seeds = [job.seed for job in plan.jobs]
        assert len(seeds) == len(set(seeds))
        job = plan.jobs[0]
        assert job.seed == mix_seed(42, job.r, job.w, job.sample_index)

    def test_a_colliding_seed_is_mixed_again(self, monkeypatch):
        # Were every job given the same derived seed, each would take the
        # next one of its splitmix64 chain: c, splitmix64(c), ...
        c = 12345
        monkeypatch.setattr(groundtruth, "mix_seed", lambda *words: c)
        seeds = [job.seed for job in enumerate_benchmark_plan(three_activity_log(), 5, 42).jobs]
        chain = [c]
        while len(chain) < len(seeds):
            chain.append(splitmix64(chain[-1]))
        assert len(seeds) > 2
        assert seeds == chain
        assert len(set(seeds)) == len(seeds)

    def test_plan_deterministic(self):
        labels = [f"x{i:02d}" for i in range(12)]
        log = log_from_label_traces([labels] * 3)
        assert enumerate_benchmark_plan(log, 4, 7) == enumerate_benchmark_plan(log, 4, 7)
        a = enumerate_benchmark_plan(log, 4, 7)
        b = enumerate_benchmark_plan(log, 4, 8)
        assert [j.selected for j in a.jobs if j.r == 5] != [j.selected for j in b.jobs if j.r == 5]

    def test_plan_errors(self):
        with pytest.raises(EmptyLogError):
            enumerate_benchmark_plan(EventLog((), Alphabet(("a",))), samples=5, master_seed=0)
        with pytest.raises(ParameterError):
            enumerate_benchmark_plan(three_activity_log(), samples=0, master_seed=0)
