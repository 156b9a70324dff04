"""Synthetic ground truth: clone-replacement logs and the benchmark plan.

A derived log replaces each selected activity with members of a pool of w
fresh activities ("<label>__1" .. "<label>__w"). Within one trace every
occurrence of a selected activity maps to the same pool member; the member
is drawn uniformly from the pool's remaining entries and removed, and the
pool is refilled once empty, which keeps usage counts within one of each
other. Mapping every clone back to its original reconstructs the input
log exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import AbstractSet, Iterable, Mapping

from itertools import combinations

import numpy as np

from .errors import EmptyLogError, ParameterError
from .log import EventLog, _widen, _with_variant_numbers

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """One round of the splitmix64 finalizer (64-bit avalanche)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, *words: int) -> int:
    """Derive a 64-bit seed by chaining splitmix64 over the given words."""
    state = splitmix64(master_seed & _MASK64)
    for word in words:
        state = splitmix64(state ^ (word & _MASK64))
    return state


@dataclass(frozen=True)
class ClassAssignment:
    """phi maps each clone id to its original id; psi is the inverse grouping."""

    phi: Mapping[int, int]
    psi: Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class GroundTruthLog:
    """A derived log plus the class structure and the parameters that made it."""

    log: EventLog
    classes: ClassAssignment
    r: int
    w: int
    seed: int


def _pool_slots(picks: np.ndarray, rank: np.ndarray, w: int) -> np.ndarray:
    """The pool slot (0..w-1, in clone-id order) that each draw takes.

    ``rank`` numbers each activity's draws from 0, activity after
    activity. Every w draws of an activity empty one full pool: each
    pops index ``picks[i]`` of the slots still in it, kept ascending. The
    picks of one pool are the Lehmer code of the order its slots leave
    in, decoded right to left; a slot depends only on the picks before
    it, so an unfinished last pool decodes too.
    """
    step = rank % w
    rounds = np.cumsum(step == 0) - 1  # one row per pool fill
    slots = np.zeros((rounds[-1] + 1, w), dtype=np.int64)
    slots[rounds, step] = picks
    for t in range(w - 2, -1, -1):
        slots[:, t + 1 :] += slots[:, t + 1 :] >= slots[:, t, None]
    return slots[rounds, step]


def _draws_below(rng: random.Random, sizes: Iterable[int]) -> list[int]:
    """``[rng.randrange(size) for size in sizes]``, by the rule that
    ``randrange`` follows for a positive int (``Random._randbelow``): draw
    ``size.bit_length()`` bits, again while they read ``size`` or more.
    The picks, the bits drawn and the generator's final state are the
    same, without two Python calls per pick."""
    getrandbits = rng.getrandbits
    picks = []
    for size in sizes:
        bits = size.bit_length()
        pick = getrandbits(bits)
        while pick >= size:
            pick = getrandbits(bits)
        picks.append(pick)
    return picks


def generate_ground_truth_log(
    log: EventLog,
    selected: "AbstractSet[int] | Iterable[int]",
    w: int,
    seed: int,
) -> GroundTruthLog:
    """Replace each selected activity by a balanced pool of w clones.

    Parameters
    ----------
    log
        The original log; its alphabet is extended, existing ids are kept.
    selected
        Activity ids to replace; each must occur in the log.
    w
        Pool size (at least 2). Clone labels are "<label>__k" for k = 1..w.
    seed
        Seed for the per-trace uniform pool draws.

    Traces are visited in log order; within a trace, pools are consulted
    at the first occurrence of each selected activity, so the derivation
    is a pure function of (log, selected, w, seed). The derived log comes
    with its ``variant_numbers``, read off the base log's and the draws.
    """
    selected_set = frozenset(selected)
    if not selected_set:
        raise ParameterError("no activities selected for replacement")
    if w < 2:
        raise ParameterError(f"pool size must be at least 2, got {w}")
    ids = sorted(selected_set)
    counts = np.bincount(log.events, minlength=len(log.alphabet) + 1)
    for aid in ids:
        if not 1 <= aid <= len(log.alphabet):
            raise ParameterError(f"selected id {aid} is not in the alphabet")
        if counts[aid] == 0:
            label = log.alphabet.label_of(aid)
            raise ParameterError(f"selected activity {label!r} does not occur in the log")

    # Clone ids run on from the alphabet, w per selected activity.
    clone_labels: list[str] = []
    phi: dict[int, int] = {}
    psi: dict[int, frozenset[int]] = {}
    for aid in ids:
        first = len(log.alphabet) + 1 + len(clone_labels)
        clones = range(first, first + w)
        base = log.alphabet.label_of(aid)
        for k in range(1, w + 1):
            label = f"{base}__{k}"
            if label in log.alphabet:
                raise ParameterError(f"clone label {label!r} collides with an existing activity")
            clone_labels.append(label)
        phi.update(dict.fromkeys(clones, aid))
        psi[aid] = frozenset(clones)
    alphabet = log.alphabet.extended(clone_labels)

    # One draw per (trace, selected activity), at the activity's first
    # event in that trace; every event of the activity in that trace takes
    # the drawn clone. Draws are numbered activity by activity.
    events, offsets = log.events, log.offsets
    # Number the selected activities 0..r-1 in id order and every other
    # id r, in a dtype narrow enough that the stable sort is a radix sort.
    # Only the selected events are sorted: activity by activity, and in
    # log order within one.
    r = len(ids)
    numbers = np.full(len(alphabet) + 1, r, dtype=np.min_scalar_type(r))
    numbers[ids] = np.arange(r)
    of_event = numbers[events]
    selected_events = np.flatnonzero(of_event < r)
    where = selected_events[of_event[selected_events].argsort(kind="stable")]
    activity = of_event[where].astype(np.int64)
    trace = np.repeat(np.arange(log.n_traces, dtype=np.int32), np.diff(offsets))[where]
    # A draw happens at each event that starts a new (activity, trace) run.
    new = np.empty(len(where), dtype=bool)
    new[0] = True
    np.not_equal(trace[1:], trace[:-1], out=new[1:])
    new[1:] |= activity[1:] != activity[:-1]
    heads = np.flatnonzero(new)
    starts = np.searchsorted(activity[heads], np.arange(r + 1))
    rank = np.arange(len(heads)) - np.repeat(starts[:-1], np.diff(starts))
    order = where[heads].argsort(kind="stable")  # merges one sorted run per activity
    # The k-th draw of an activity finds w - k % w clones left in its pool,
    # so every pool size is known before the draws, which stay in log order.
    picks = np.empty(len(rank), dtype=np.int64)
    picks[order] = _draws_below(random.Random(seed), (w - rank[order] % w).tolist())
    slots = _pool_slots(picks, rank, w)

    derived_events = events.copy()
    derived_events[where] = len(log.alphabet) + 1 + activity * w + np.repeat(
        slots, np.diff(heads, append=len(where))
    )
    # A derived trace is fixed by its base variant and the slot each of
    # its selected activities drew, so those number its variant.
    keys = log.variant_numbers.copy()
    bound = int(keys.max()) + 1
    for drawn, slot in zip(np.split(trace[heads], starts[1:-1]), np.split(slots, starts[1:-1])):
        bound = _widen(keys, w, bound)
        keys[drawn] += slot
    derived = EventLog.from_arrays(derived_events, offsets, alphabet)
    derived = _with_variant_numbers(derived, keys, bound)
    return GroundTruthLog(
        log=derived,
        classes=ClassAssignment(phi=phi, psi=psi),
        r=r,
        w=w,
        seed=seed,
    )


@dataclass(frozen=True)
class PlanJob:
    r: int
    w: int
    selected: tuple[int, ...]
    sample_index: int
    seed: int


@dataclass(frozen=True)
class BenchmarkPlan:
    jobs: tuple[PlanJob, ...]
    master_seed: int
    samples: int


def enumerate_benchmark_plan(log: EventLog, samples: int, master_seed: int) -> BenchmarkPlan:
    """All (r, w, subset) jobs for the intrinsic benchmark.

    r ranges 1..min(|A|, 10) over the occurring activities and w over
    {2, 3, 4, 5}. When C(|A|, r) <= samples every r-subset is enumerated
    in lexicographic id order; otherwise ``samples`` distinct subsets are
    drawn without replacement from a seed derived for that (r, w) cell.
    Per-job seeds chain (master_seed, r, w, sample_index) through
    splitmix64 and are kept pairwise distinct.
    """
    if log.is_empty:
        raise EmptyLogError("empty log: nothing to plan")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    activities = sorted(log.activity_counts())
    jobs: list[PlanJob] = []
    used_seeds: set[int] = set()
    for r in range(1, min(len(activities), 10) + 1):
        for w in (2, 3, 4, 5):
            if comb(len(activities), r) <= samples:
                subsets = [tuple(c) for c in combinations(activities, r)]
            else:
                rng = random.Random(mix_seed(master_seed, r, w))
                picked: set[tuple[int, ...]] = set()
                subsets = []
                while len(subsets) < samples:
                    candidate = tuple(sorted(rng.sample(activities, r)))
                    if candidate not in picked:
                        picked.add(candidate)
                        subsets.append(candidate)
            for sample_index, subset in enumerate(subsets):
                seed = mix_seed(master_seed, r, w, sample_index)
                while seed in used_seeds:  # astronomically rare; keeps seeds distinct
                    seed = splitmix64(seed)
                used_seeds.add(seed)
                jobs.append(PlanJob(r, w, subset, sample_index, seed))
    return BenchmarkPlan(tuple(jobs), master_seed, samples)
