"""Naive reference implementations used as oracles.

Everything here favors obviousness over speed: explicit window
enumeration over the padded traces, quadratic matrix assembly, and
plain-Python cosine (``two_copy_cosine``, ``previous_dense_weighting`` and
``previous_substitution`` are the exceptions: the previous numpy cosine,
dense PMI/PPMI and substitution scores, kept to pin their bits). Nothing
is shared with the package's optimized
paths beyond the PAD id convention (0). The four intrinsic metrics take
activity labels, the similarity matrix as nested lists of floats, and the
clone classes, and loop over every candidate of every member. The matrix
CSV writer formats every cell of a dense row, one at a time, and
``csv_module_line`` writes a row with the csv module. The ground
truth walks every event of every trace. The CSV and XES parsers collect
label traces and intern them at the end; they build the package's
``EventLog`` and raise its errors, so their outcomes compare directly.
``pair_counts``, ``row_index``, ``dense``, ``row_of``, ``sim_cell`` and
``restored_traces`` are lookup views over the package's own objects, read
by the tests only.
"""

from __future__ import annotations

import csv
import io
import math
import random
import xml.etree.ElementTree as ET
from contextlib import nullcontext
from datetime import datetime
from itertools import combinations, permutations
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np
from scipy import sparse

from actsim import Alphabet, EmptyLogError, EventLog, FormatError

PAD = 0
PAD_LABEL = "__PAD__"
TextSource = Union[str, IO[str], Path]


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
    activities = table.row_labels
    return {
        (activities[row], col): count
        for row, col, count in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    }


def row_index(matrix):
    """{activity id: row} of an embedding matrix."""
    return {aid: i for i, aid in enumerate(matrix.row_labels)}


def dense(matrix):
    """The values of an embedding matrix as a numpy array, sparse or not."""
    values = matrix.values
    return values.toarray() if sparse.issparse(values) else np.asarray(values)


def row_of(matrix, aid):
    """The dense row of activity ``aid`` in an embedding matrix."""
    return dense(matrix)[row_index(matrix)[aid]]


def sim_cell(sim, a, b):
    """The similarity of activities ``a`` and ``b`` in a ``PairwiseSimilarity``."""
    return float(sim.values[sim.labels.index(a), sim.labels.index(b)])


def restored_traces(gt):
    """The derived log's traces with every clone mapped back through phi."""
    phi = gt.classes.phi
    return tuple(tuple(phi.get(aid, aid) for aid in trace) for trace in gt.log.traces)


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


def naive_weighting(rows, row_totals, column_totals, n, weighting):
    """Dense count ``rows`` weighted by name: ``none`` as they are, ``pmi``
    as ln(j N / (r c)) for each positive count j with row total r, column
    total c and grand total N (0 where j is 0), ``ppmi`` as that clamped at
    0. AA's column totals are the activity totals."""
    if weighting == "none":
        return [list(row) for row in rows]
    out = []
    for r, row in zip(row_totals, rows):
        cells = [math.log(j * n / (r * c)) if j > 0 else 0.0 for j, c in zip(row, column_totals)]
        out.append([max(cell, 0.0) for cell in cells] if weighting == "ppmi" else cells)
    return out


def naive_substitution(aa_rows, totals, n):
    """Substitution scores of dense AA count rows over activity ``totals``:
    ln((AA(a,b)/N) / (2 p(a) p(b))) off the diagonal, ln((AA(a,a)/N) / p(a)^2)
    on it, with p(a) = #a/N, and 0 where AA(a,b) is 0."""
    out = []
    for i, row in enumerate(aa_rows):
        cells = []
        for j, count in enumerate(row):
            pairs = totals[i] * totals[j] * (1 if i == j else 2)
            cells.append(math.log(count * n / pairs) if count > 0 else 0.0)
        out.append(cells)
    return out


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


def two_copy_cosine(values):
    """The cosine similarities of the rows of ``values`` as
    ``pairwise_distance_matrix`` computed them before it converted the
    matrix once: the Gram matrix of a float copy and a transposed float
    copy. Kept verbatim so the one-copy Gram is checked bit for bit."""
    if sparse.issparse(values):
        gram = (values.astype(np.float64) @ values.T.astype(np.float64)).toarray()
    else:
        dense = values.astype(np.float64)
        gram = dense @ dense.T
    diag = np.diag(gram).copy()
    norms = np.sqrt(diag)
    outer = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(outer > 0.0, gram / np.where(outer > 0.0, outer, 1.0), 0.0)
    exact = (gram * gram == np.outer(diag, diag)) & (outer > 0.0)
    sims[exact] = np.sign(gram[exact])
    zero = norms == 0.0
    sims[np.ix_(zero, zero)] = 1.0
    np.clip(sims, -1.0, 1.0, out=sims)
    np.fill_diagonal(sims, 1.0)
    return sims


def previous_dense_weighting(matrix, table, weighting):
    """The PMI (``weighting="pmi"``) or PPMI of a dense AA ``matrix`` as
    ``apply_pmi`` and ``apply_ppmi`` computed it before the table held its
    row totals as an array. Kept verbatim so the shared log-ratio kernel
    is checked bit for bit."""
    row_tot = np.array([table.activity_totals[a] for a in matrix.row_labels], dtype=np.float64)
    col_tot = row_tot
    n = float(table.total_events)
    counts = matrix.values.astype(np.float64)
    out = np.zeros_like(counts)
    mask = counts > 0
    ratio = counts * n / np.outer(row_tot, col_tot)
    out[mask] = np.log(ratio[mask])
    if weighting == "ppmi":
        out = np.maximum(out, 0.0)
    return out


def previous_substitution(aa, table):
    """The substitution scores of the AA matrix ``aa`` of a sequence
    ``table`` as ``substitution_scores`` computed them before the shared
    log-ratio kernel. Kept verbatim to pin their bits."""
    counts = aa.values.astype(np.float64)
    totals = np.array([table.activity_totals[a] for a in aa.row_labels], dtype=np.float64)
    n = float(table.total_events)
    denom = np.outer(totals, totals) * 2.0
    np.fill_diagonal(denom, (totals * totals))
    scores = np.zeros_like(counts)
    mask = counts > 0
    scores[mask] = np.log(counts[mask] * n / denom[mask])
    return scores


def naive_mean(values):
    """The mean of ``values``, added one at a time from 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


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
        per_class.append(naive_mean(pair_scores))
    return naive_mean(per_class)


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
    return naive_mean(per_class)


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
        per_class.append(naive_mean(precisions))
    return naive_mean(per_class)


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
        per_class.append(naive_mean(pair_scores))
    return naive_mean(per_class)


def naive_context_label(symbol_labels, kind):
    """``{x,y}`` with the labels sorted for a multiset, ``<x,y>`` in order for a sequence."""
    if kind == "mset":
        return "{" + ",".join(sorted(symbol_labels)) + "}"
    return "<" + ",".join(symbol_labels) + ">"


def naive_csv_line(fields):
    """One CSV line: a field that holds a comma, a quote, a ``\\r`` or a
    ``\\n`` is quoted with its quotes doubled, and a row of one empty
    field is ``""``."""
    if fields == [""]:
        return '""\n'
    quoted = ['"' + f.replace('"', '""') + '"' if set(f) & set(',"\r\n') else f for f in fields]
    return ",".join(quoted) + "\n"


def csv_module_line(fields):
    """One CSV line as the csv module's writer makes it, ended in ``\\n``.
    Before Python 3.13 that writer quotes a bare ``\\r`` only when its line
    terminator holds one, so the row is ended in ``\\r\\n`` and re-ended."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(fields)
    return buffer.getvalue()[:-2] + "\n"


def naive_matrix_csv(header, row_labels, rows):
    """The CSV text of a matrix: the header, then each row label followed by
    its row's cells, each formatted with 17 significant digits."""
    lines = [naive_csv_line(header)]
    for label, row in zip(row_labels, rows):
        lines.append(naive_csv_line([label] + [format(v, ".17g") for v in row]))
    return "".join(lines)


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


# The CSV and XES parsers in their plainest form, the oracle of the
# streamed parsers: the whole CSV text in one string, per-case lists of
# labels (with a datetime each when timestamps are given), a pull parser
# that hands every XML element to Python, and labels interned from the
# finished label traces.


def _log_from_label_traces(label_traces: Iterable[Sequence[str]]) -> EventLog:
    """Build a log from label sequences, interning labels by first appearance."""
    order: dict[str, int] = {}
    ids: list[int] = []
    offsets = [0]
    for trace in label_traces:
        for label in trace:
            aid = order.get(label)
            if aid is None:
                if label == PAD_LABEL:
                    raise FormatError(f"activity label {PAD_LABEL!r} is reserved")
                aid = len(order) + 1
                order[label] = aid
            ids.append(aid)
        offsets.append(len(ids))
    return EventLog.from_arrays(
        np.array(ids, dtype=np.int64), np.array(offsets, dtype=np.int64), Alphabet(order)
    )


def _text_chunks(source: TextSource, size: int) -> Iterator[str]:
    """The source's text in chunks of ``size`` characters (all of it at
    once when ``size`` is -1), without a leading UTF-8 byte-order mark.

    A path is opened as ``utf-8-sig`` with its line ends as they are.
    Failing to read or decode a path, or to decode a stream, is a
    :class:`FormatError`.
    """
    if isinstance(source, str):
        yield source.removeprefix("\ufeff")
        return
    is_path = isinstance(source, Path)
    try:
        opened = open(source, encoding="utf-8-sig", newline="") if is_path else nullcontext(source)
        with opened as handle:
            chunk = handle.read(size)  # utf-8-sig has stripped a path's mark
            yield chunk if is_path else chunk.removeprefix("\ufeff")
            while chunk := handle.read(size):
                yield chunk
    except OSError as exc:
        if not is_path:
            raise
        raise FormatError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        where = source if is_path else "the input stream"
        raise FormatError(f"cannot decode {where} as UTF-8: {exc}") from exc


def _parse_timestamp(raw: str, row: int) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise FormatError(f"row {row}: unparseable timestamp {raw!r}") from None


def naive_parse_csv(
    source: TextSource,
    case_column: str = "case",
    activity_column: str = "activity",
    timestamp_column: str | None = None,
) -> EventLog:
    """Parse a CSV event stream into an :class:`EventLog`.

    Parameters
    ----------
    source
        CSV text, an open text stream, or a path.
    case_column, activity_column
        Header names of the case-id and activity-label columns.
    timestamp_column
        Optional header name of an ISO-8601 timestamp column. When given,
        events within a case are ordered by timestamp (stable sort, ties
        keep file order); otherwise file order is kept.

    Traces are emitted in order of first appearance of their case id.
    Row numbers in error messages are 1-based file lines (the header is
    line 1).
    """
    reader = csv.reader(io.StringIO("".join(_text_chunks(source, size=-1))))
    header = next(reader, None)
    if header is None:
        raise EmptyLogError("empty log: the file has no rows")

    def column(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise FormatError(f"missing column {name!r} in CSV header") from None

    case_idx = column(case_column)
    act_idx = column(activity_column)
    ts_idx = column(timestamp_column) if timestamp_column is not None else None
    needed = max(i for i in (case_idx, act_idx, ts_idx) if i is not None) + 1

    cases: dict[str, list] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(field == "" for field in row):
            continue
        if len(row) < needed:
            raise FormatError(f"row {line}: expected at least {needed} fields, got {len(row)}")
        case = row[case_idx]
        label = row[act_idx]
        if case == "":
            raise FormatError(f"row {line}: empty case id")
        if label == "":
            raise FormatError(f"row {line}: empty activity label")
        if label == PAD_LABEL:
            raise FormatError(f"row {line}: activity label {PAD_LABEL!r} is reserved")
        entry = (label,) if ts_idx is None else (_parse_timestamp(row[ts_idx], line), label)
        cases.setdefault(case, []).append(entry)

    if not cases:
        raise EmptyLogError("empty log: the file contains no events")

    label_traces: list[list[str]] = []
    for case, entries in cases.items():
        if ts_idx is not None:
            try:
                entries.sort(key=lambda e: e[0])
            except TypeError:
                raise FormatError(
                    f"case {case!r}: cannot order events, timestamps mix "
                    "timezone-aware and naive values"
                ) from None
            label_traces.append([label for _, label in entries])
        else:
            label_traces.append([label for (label,) in entries])
    return _log_from_label_traces(label_traces)


def _local_name(tag: str) -> str:
    # XES files often carry a default namespace; match on the local part.
    return tag.rsplit("}", 1)[-1]


def _end_elements(source: TextSource) -> Iterator[tuple[str, ET.Element]]:
    """An ``("end", element)`` pair for every element of an XML document,
    as its end tag is parsed."""
    parser = ET.XMLPullParser(events=("end",))
    try:
        # A chunk's events wait in the parser until they are read; small
        # chunks keep them from outliving young garbage-collector
        # generations, whose promotions trigger full passes over the tree.
        for chunk in _text_chunks(source, 1 << 12):
            parser.feed(chunk)
            yield from parser.read_events()
        parser.close()
    except ET.ParseError as exc:
        raise FormatError(f"malformed XES/XML: {exc}") from exc
    yield from parser.read_events()


def naive_parse_xes(source: TextSource) -> EventLog:
    """Parse an XES document; only ``concept:name`` of each event is read.

    The document is streamed: each trace is read when its end tag is
    parsed and then cleared, so memory holds the labels, not the tree.
    Trace and event order follow the document. Any other attribute is
    ignored. A trace without events, or an event without a
    ``concept:name`` string or with an empty one, is a format error naming
    the trace index.
    """
    label_traces: list[list[str]] = []
    for _, element in _end_elements(source):
        if _local_name(element.tag) != "trace":
            continue
        trace_index = len(label_traces)
        labels: list[str] = []
        for child in element:
            if _local_name(child.tag) != "event":
                continue
            name = None
            for attr in child:
                if (
                    _local_name(attr.tag) == "string"
                    and attr.get("key") == "concept:name"
                ):
                    name = attr.get("value")
                    break
            if name is None:
                raise FormatError(
                    f"trace {trace_index}: event {len(labels)} lacks a concept:name string"
                )
            if name == "":
                raise FormatError(
                    f"trace {trace_index}: event {len(labels)} has an empty activity label"
                )
            if name == PAD_LABEL:
                raise FormatError(
                    f"trace {trace_index}: activity label {PAD_LABEL!r} is reserved"
                )
            labels.append(name)
        if not labels:
            raise FormatError(f"trace {trace_index} has no events")
        label_traces.append(labels)
        element.clear()

    if not label_traces:
        raise EmptyLogError("empty log: the XES document has no traces")
    return _log_from_label_traces(label_traces)
