"""Relations that follow from the paper's definitions alone.

The oracle in ``reference.py`` and the fast path were written from one
reading of the paper, so a misreading they share passes every oracle
test. These relations need no second implementation: each transforms a
log in a way the definitions say a similarity cannot see, and compares
the similarities of every config of the grid, rows and columns sorted by
label, since activity ids follow first appearance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from actsim import (
    METHODS,
    WEIGHTINGS,
    expand_grid,
    extract_occurrences,
    log_from_label_traces,
    similarity_for_config,
)


def similarities(traces, window):
    """{config: similarity matrix} for every config of the grid at
    ``window``, rows and columns in label order."""
    log = log_from_label_traces(traces)
    tables = {kind: extract_occurrences(log, window, kind) for kind in ("mset", "seq")}
    out = {}
    for config in expand_grid(METHODS, ("mset", "seq"), WEIGHTINGS, (window,)):
        sim = similarity_for_config(tables[config.kind.value], config)
        order = np.argsort([log.alphabet.label_of(aid) for aid in sim.labels])
        out[config] = sim.values[np.ix_(order, order)]
    return out


def assert_related(before, after, exact):
    """Equal bits where ``exact(config)``, otherwise within 1e-15."""
    assert before.keys() == after.keys()
    for config, values in before.items():
        if exact(config):
            assert values.tobytes() == after[config].tobytes(), config.describe()
        else:
            np.testing.assert_allclose(after[config], values, rtol=0, atol=1e-15,
                                       err_msg=config.describe())


def raw(config):
    return config.weighting == "none"


@st.composite
def label_traces(draw):
    """One to six traces of one to eight events over three to eight labels."""
    labels = "abcdefgh"[: draw(st.integers(3, 8))]
    return draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=8),
                         min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(label_traces(), st.sampled_from([3, 5]))
def test_reversal_at_an_odd_window(traces, window):
    # An odd window pads (n-1)/2 slots on either side, so reversing every
    # trace maps each context to its mirror: raw counts keep every cosine
    # and score, and PMI moves only by its rounding.
    reversed_traces = [trace[::-1] for trace in traces]
    assert_related(similarities(traces, window), similarities(reversed_traces, window), raw)


def test_reversal_at_an_even_window_changes_a_log():
    # An even window has one more slot on the right than on the left, so a
    # trace and its reversal are not mirrors there.
    traces = [list("abc"), list("abd"), list("cb")]
    reversed_traces = [trace[::-1] for trace in traces]
    for window in (2, 4):
        before, after = similarities(traces, window), similarities(reversed_traces, window)
        assert any(before[config].tobytes() != after[config].tobytes() for config in before)


@settings(max_examples=60, deadline=None)
@given(label_traces(), st.integers(2, 5), st.integers(2, 7))
def test_repeating_every_trace(traces, window, k):
    # k copies of every trace scale every count, N included, by k: PMI's
    # j N / (r c) and substitution's ratios are the same rationals, while a
    # raw cosine divides by the square root of k-scaled products.
    repeated = [trace for trace in traces for _ in range(k)]
    assert_related(similarities(traces, window), similarities(repeated, window),
                   lambda config: not raw(config) or config.method == "substitution")


@settings(max_examples=60, deadline=None)
@given(label_traces(), st.integers(2, 5), st.randoms(use_true_random=False))
def test_shuffling_the_traces(traces, window, rng):
    # The log is a multiset of traces: shuffling them permutes the table's
    # columns only, so every raw count, and so every raw similarity, stays.
    shuffled = list(traces)
    rng.shuffle(shuffled)
    assert_related(similarities(traces, window), similarities(shuffled, window), raw)
