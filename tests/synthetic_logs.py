"""Synthetic log generators for oracle and acceptance tests."""

from __future__ import annotations

import random
import string

from actsim import EventLog, log_from_label_traces


def worked_log() -> EventLog:
    """The worked example: five traces ``abcde`` and one ``addbe``."""
    return log_from_label_traces([list("abcde")] * 5 + [list("addbe")])


def random_small_log(rng: random.Random, max_activities: int = 6, max_traces: int = 10) -> EventLog:
    """A tiny random log for exhaustive oracle comparisons."""
    n_activities = rng.randint(1, max_activities)
    labels = list(string.ascii_lowercase[:n_activities])
    n_traces = rng.randint(1, max_traces)
    traces = []
    for _ in range(n_traces):
        length = rng.randint(1, 8)
        traces.append([rng.choice(labels) for _ in range(length)])
    return log_from_label_traces(traces)


def structured_log(
    seed: int,
    n_traces: int = 600,
    min_activities: int = 8,
    p_noise: float = 0.35,
    n_noise: int = 4,
) -> EventLog:
    """A process-like log from a random staged grammar.

    Each trace walks a fixed sequence of choice blocks (skewed branch
    probabilities, optional skips, short repeats); after any emitted
    symbol a logging-style noise activity may be interleaved, drawn from
    a small Zipf-weighted set. The noise gives the heavy frequency skew
    and spurious shared contexts of real event logs; every structural
    activity still occurs in plenty of traces.
    """
    rng = random.Random(seed)
    blocks: list[dict] = []
    n_symbols = n_noise
    index = 0
    while n_symbols < min_activities or index < 4:
        index += 1
        width = rng.randint(2, 3)
        choices = [f"s{index}{letter}" for letter in string.ascii_lowercase[:width]]
        raw = [rng.uniform(0.5, 1.0) * (0.55 ** position) for position in range(width)]
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
    noise = [f"n{i}" for i in range(n_noise)]
    noise_weights = [0.5**i for i in range(n_noise)]

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
            if rng.random() < p_noise:
                trace.append(rng.choices(noise, weights=noise_weights)[0])
        if not trace:
            trace = [rng.choices(noise, weights=noise_weights)[0]]
        traces.append(trace)
    return log_from_label_traces(traces)


def big_uniform_log(
    seed: int, n_traces: int = 100_000, avg_length: int = 6, n_activities: int = 40
) -> EventLog:
    """A large flat log for scaling runs; lengths cluster around avg_length."""
    import numpy as np

    rng = np.random.default_rng(seed)
    lengths = np.maximum(1, rng.poisson(avg_length, size=n_traces))
    flat = rng.integers(1, n_activities + 1, size=int(lengths.sum()))
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    traces = tuple(
        tuple(int(a) for a in flat[offsets[i] : offsets[i + 1]]) for i in range(n_traces)
    )
    from actsim import Alphabet

    alphabet = Alphabet(f"act{i:02d}" for i in range(1, n_activities + 1))
    return EventLog(traces, alphabet)
