"""Naive reference implementations used as oracles.

Everything here favors obviousness over speed: explicit window
enumeration over the padded traces, quadratic matrix assembly, and
plain-Python cosine. Nothing is shared with the package's optimized
paths beyond the PAD id convention (0). The four intrinsic metrics take
activity labels, the similarity matrix as nested lists of floats, and the
clone classes, and loop over every candidate of every member. The matrix
CSV writer formats every cell of a dense row, one at a time. The ground
truth walks every event of every trace.
``pair_counts`` and ``row_index`` are lookup views over the package's own
objects, read by the tests only.
"""

from __future__ import annotations

import csv
import io
import math
import random
from itertools import combinations, permutations

PAD = 0


def enumerate_windows(traces, n):
    """Every (center, context_symbols) record, in scan order, one per event."""
    left = (n - 1) // 2
    right = n - 1 - left
    records = []
    for trace in traces:
        padded = (PAD,) * left + tuple(trace) + (PAD,) * right
        for i in range(len(trace)):
            j = i + left
            window = padded[i : i + n]
            assert len(window) == n
            context = padded[i:j] + padded[j + 1 : i + n]
            records.append((padded[j], context))
    return records


def naive_counts(traces, n, kind):
    """(pair_counts, context_totals, activity_totals, context_order)."""
    pair = {}
    ctx = {}
    act = {}
    order = []
    for center, context in enumerate_windows(traces, n):
        key = tuple(sorted(context)) if kind == "mset" else context
        if key not in ctx:
            order.append(key)
            ctx[key] = 0
        ctx[key] += 1
        pair[(center, key)] = pair.get((center, key), 0) + 1
        act[center] = act.get(center, 0) + 1
    return pair, ctx, act, order


def pair_counts(table):
    """#(a, c) of an occurrence table keyed by (activity id, context index),
    nonzero cells only."""
    coo = table.counts.tocoo()
    activities = table.activities()
    return {
        (activities[row], col): count
        for row, col, count in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    }


def row_index(matrix):
    """{activity id: row} of an embedding matrix."""
    return {aid: i for i, aid in enumerate(matrix.row_labels)}


def naive_ac(traces, n, kind):
    """(activities, context_order, dense rows) with rows sorted by id."""
    pair, _, act, order = naive_counts(traces, n, kind)
    activities = sorted(act)
    rows = [[pair.get((a, c), 0) for c in order] for a in activities]
    return activities, order, rows


def naive_aa(traces, n, kind):
    """(activities, dense rows): AA(a,b) = sum over shared contexts of both counts."""
    pair, _, act, order = naive_counts(traces, n, kind)
    activities = sorted(act)
    rows = []
    for a in activities:
        row = []
        for b in activities:
            total = 0
            for c in order:
                ca = pair.get((a, c), 0)
                cb = pair.get((b, c), 0)
                if ca > 0 and cb > 0:
                    total += ca + cb
            row.append(total)
        rows.append(row)
    return activities, rows


def naive_cosine_distance(u, v):
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return 1.0
    s = dot / (nu * nv)
    s = max(-1.0, min(1.0, s))
    return 1.0 - s


def naive_similarity_matrix(rows):
    """All-pairs cosine similarities (1 - distance) of dense row vectors."""
    size = len(rows)
    out = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            out[i][j] = 1.0 - naive_cosine_distance(rows[i], rows[j])
    return out


def _class_members(labels, classes):
    """Each class's members sorted by id, in the order of ``classes``."""
    label_set = set(labels)
    members = []
    for clones in classes.values():
        assert len(clones) >= 2 and all(c in label_set for c in clones)
        members.append(sorted(clones))
    return members


def naive_compactness(labels, values, classes):
    """I_comp: min-max scaled in-class similarity, per pair, per class, overall."""
    index = {aid: i for i, aid in enumerate(labels)}
    n = len(labels)
    off = [values[i][j] for i in range(n) for j in range(n) if i != j]
    lo = min(off)
    hi = max(off)
    span = hi - lo
    per_class = []
    for clones in _class_members(labels, classes):
        pair_scores = []
        for a, b in combinations(clones, 2):
            if span == 0.0:
                pair_scores.append(0.0)
            else:
                pair_scores.append((values[index[a]][index[b]] - lo) / span)
        per_class.append(sum(pair_scores) / len(pair_scores))
    return sum(per_class) / len(per_class)


def naive_nearest_neighbor(labels, values, classes):
    """I_nn: a member hits when every candidate at its maximum is a classmate."""
    index = {aid: i for i, aid in enumerate(labels)}
    per_class = []
    for clones in _class_members(labels, classes):
        clone_set = set(clones)
        hits = 0
        for member in clones:
            row = values[index[member]]
            best = None
            winners = []
            for candidate in labels:
                if candidate == member:
                    continue
                s = row[index[candidate]]
                if best is None or s > best:
                    best = s
                    winners = [candidate]
                elif s == best:
                    winners.append(candidate)
            if winners and all(c in clone_set for c in winners):
                hits += 1
        per_class.append(hits / len(clones))
    return sum(per_class) / len(per_class)


def naive_precision_at_k(labels, values, classes):
    """I_prec: in-class share of the top w-1 candidates, ties by smallest id."""
    index = {aid: i for i, aid in enumerate(labels)}
    per_class = []
    for clones in _class_members(labels, classes):
        clone_set = set(clones)
        k = len(clones) - 1
        precisions = []
        for member in clones:
            row = values[index[member]]
            candidates = [c for c in labels if c != member]
            candidates.sort(key=lambda c: (-row[index[c]], c))
            top = candidates[:k]
            precisions.append(sum(1 for c in top if c in clone_set) / k)
        per_class.append(sum(precisions) / len(precisions))
    return sum(per_class) / len(per_class)


def naive_triplet(labels, values, classes):
    """I_tri: share of outsiders o with s(a, o) < s(a, b), per ordered pair."""
    index = {aid: i for i, aid in enumerate(labels)}
    per_class = []
    for clones in _class_members(labels, classes):
        clone_set = set(clones)
        outsiders = [aid for aid in labels if aid not in clone_set]
        pair_scores = []
        for a, b in permutations(clones, 2):
            row = values[index[a]]
            target = row[index[b]]
            if outsiders:
                wins = sum(1 for o in outsiders if row[index[o]] < target)
                pair_scores.append(wins / len(outsiders))
            else:
                pair_scores.append(1.0)
        per_class.append(sum(pair_scores) / len(pair_scores))
    return sum(per_class) / len(per_class)


def naive_context_label(symbol_labels, kind):
    """``{x,y}`` with the labels sorted for a multiset, ``<x,y>`` in order for a sequence."""
    if kind == "mset":
        return "{" + ",".join(sorted(symbol_labels)) + "}"
    return "<" + ",".join(symbol_labels) + ">"


def naive_matrix_csv(header, row_labels, rows):
    """The CSV text of a matrix: the header, then each row label followed by
    its row's cells, each formatted with 17 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for label, row in zip(row_labels, rows):
        writer.writerow([label] + [format(v, ".17g") for v in row])
    return buffer.getvalue()


def naive_ground_truth(traces, alphabet_size, selected, w, seed):
    """(derived traces, phi, psi) of the clone-replacement derivation.

    Clone ids follow the alphabet, w per selected id in ascending id
    order. Traces are visited in order; within a trace, the first event
    of each selected activity draws ``pool.pop(rng.randrange(len(pool)))``
    from that activity's pool (refilled in id order once empty), and every
    later event of the activity in the trace reuses the draw.
    """
    clone_ids = {}
    next_id = alphabet_size + 1
    for aid in sorted(selected):
        clone_ids[aid] = tuple(range(next_id, next_id + w))
        next_id += w
    phi = {cid: aid for aid, ids in clone_ids.items() for cid in ids}
    psi = {aid: frozenset(ids) for aid, ids in clone_ids.items()}
    rng = random.Random(seed)
    pools = {aid: list(ids) for aid, ids in clone_ids.items()}
    derived = []
    for trace in traces:
        chosen = {}
        out = []
        for aid in trace:
            if aid in clone_ids:
                if aid not in chosen:
                    if not pools[aid]:
                        pools[aid] = list(clone_ids[aid])
                    pool = pools[aid]
                    chosen[aid] = pool.pop(rng.randrange(len(pool)))
                out.append(chosen[aid])
            else:
                out.append(aid)
        derived.append(tuple(out))
    return tuple(derived), phi, psi
