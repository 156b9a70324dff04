"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``tests/``, so that editing a test helper
can never shift a benchmark workload. ``structured_log`` and
``big_uniform_log`` reproduce the test helpers of the same name trace for
trace at every seed (``test_benchmark.py`` checks this at the ROADMAP
seeds); ``shared_log`` adds the heavy trace sharing of real logs.
"""

from __future__ import annotations

import itertools
import random
import string
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np

from actsim import Alphabet, EventLog, log_from_label_traces


# The ROADMAP W1 grammar, that of structured_log(7, 2000, 20). Every
# structured log uses it: grammars differ in cost by up to 25% between
# seeds, which would swamp the benchmark's bounds.
GRAMMAR_SEED = 7
P_NOISE = 0.35  # chance of a noise activity after each emitted symbol
N_NOISE = 4  # noise activities, Zipf-weighted


def structured_log(seed: int, n_traces: int, min_activities: int) -> EventLog:
    """A process-like log from a random staged grammar.

    Each trace walks a fixed sequence of choice blocks (skewed branch
    weights, optional skips, short repeats); after any emitted symbol a
    Zipf-weighted noise activity may be interleaved.

    The grammar is drawn from GRAMMAR_SEED and the traces from ``seed``.
    At ``seed == GRAMMAR_SEED`` the traces continue the grammar's random
    stream, as the test helper's do at every seed.
    """
    return log_from_label_traces(_structured_label_traces(seed, n_traces, min_activities))


def _structured_label_traces(seed: int, n_traces: int, min_activities: int) -> list[list[str]]:
    rng = random.Random(GRAMMAR_SEED)
    blocks: list[dict] = []
    n_symbols = N_NOISE
    index = 0
    while n_symbols < min_activities or index < 4:
        index += 1
        width = rng.randint(2, 3)
        choices = [f"s{index}{letter}" for letter in string.ascii_lowercase[:width]]
        raw = [rng.uniform(0.5, 1.0) * (0.55**position) for position in range(width)]
        total = sum(raw)
        blocks.append(
            {
                "choices": choices,
                "weights": [value / total for value in raw],
                "skip": rng.uniform(0.0, 0.2),
                "repeat": rng.uniform(0.0, 0.3),
            }
        )
        n_symbols += width
    noise = [f"n{i}" for i in range(N_NOISE)]
    noise_weights = [0.5**i for i in range(N_NOISE)]
    if seed != GRAMMAR_SEED:
        rng.seed(seed)

    traces = []
    for _ in range(n_traces):
        trace: list[str] = []
        for block in blocks:
            if block["skip"] and rng.random() < block["skip"]:
                continue
            symbol = rng.choices(block["choices"], weights=block["weights"])[0]
            trace.append(symbol)
            while block["repeat"] and rng.random() < block["repeat"]:
                trace.append(symbol)
            if rng.random() < P_NOISE:
                trace.append(rng.choices(noise, weights=noise_weights)[0])
        if not trace:
            trace = [rng.choices(noise, weights=noise_weights)[0]]
        traces.append(trace)
    return traces


SHARED_VARIANTS = 300
SHARED_EVENTS = 130_000
SHARED_ZIPF_S = 1.0


def shared_log(seed: int) -> EventLog:
    """Heavy trace sharing: the first SHARED_VARIANTS distinct traces of
    ``structured_log(GRAMMAR_SEED, 2000, 20)``, drawn with Zipf weights by
    first appearance until the log holds SHARED_EVENTS events (about 12k
    traces). ``seed`` drives only the draws.

    The variant pool, the activity ids (first appearance in the pool) and
    the event count, rather than the trace count, are the same at every
    seed, which keeps the cost of a log steady across seeds.
    """
    variants: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for trace in _structured_label_traces(GRAMMAR_SEED, 2000, 20):
        key = tuple(trace)
        if key not in seen:
            seen.add(key)
            variants.append(key)
            if len(variants) == SHARED_VARIANTS:
                break
    labels = list(dict.fromkeys(label for variant in variants for label in variant))
    ids = {label: index for index, label in enumerate(labels, start=1)}
    pool = [tuple(ids[label] for label in variant) for variant in variants]
    weights = itertools.accumulate(1.0 / rank**SHARED_ZIPF_S for rank in range(1, len(pool) + 1))
    cumulative = list(weights)
    rng = random.Random(seed ^ 0x5EED)
    traces = []
    events = 0
    while events < SHARED_EVENTS:
        trace = rng.choices(pool, cum_weights=cumulative)[0]
        traces.append(trace)
        events += len(trace)
    return EventLog(tuple(traces), Alphabet(labels))


BIG_TRACES = 100_000
BIG_AVG_LENGTH = 6
BIG_ACTIVITIES = 40


def big_uniform_log(seed: int) -> EventLog:
    """A large flat log with almost no sharing: BIG_TRACES traces whose
    lengths cluster around BIG_AVG_LENGTH, over BIG_ACTIVITIES activities."""
    rng = np.random.default_rng(seed)
    lengths = np.maximum(1, rng.poisson(BIG_AVG_LENGTH, size=BIG_TRACES))
    flat = rng.integers(1, BIG_ACTIVITIES + 1, size=int(lengths.sum())).tolist()
    offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()
    traces = tuple(tuple(flat[offsets[i] : offsets[i + 1]]) for i in range(BIG_TRACES))
    alphabet = Alphabet(f"act{i:02d}" for i in range(1, BIG_ACTIVITIES + 1))
    return EventLog(traces, alphabet)


def write_log_xes(log: EventLog, path: Path) -> None:
    """Minimal XES: one ``concept:name`` string per event, traces in log order."""
    labels = [quoteattr(label) for label in log.alphabet.labels()]
    event = '<event><string key="concept:name" value=%s/></event>'
    events = {aid: event % labels[aid - 1] for aid in log.alphabet.activity_ids()}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write('<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n')
        for trace in log.traces:
            handle.write("<trace>" + "".join(events[aid] for aid in trace) + "</trace>\n")
        handle.write("</log>\n")
