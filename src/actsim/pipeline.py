"""Config grids and the extract-build-weight-compare pipeline."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence, Union

from .contexts import ContextKind, OccurrenceTable, _coerce_kind, extract_occurrences
from .errors import ParameterError
from .log import EventLog
from .matrices import EmbeddingMatrix, MethodConfig, build_aa, build_ac
from .similarity import PairwiseSimilarity, pairwise_distance_matrix, substitution_scores
from .weighting import apply_weighting


def make_config(method: str, kind: "ContextKind | str", weighting: str, window: int) -> MethodConfig:
    return MethodConfig(method, _coerce_kind(kind), weighting, window).validate()


def expand_grid(
    methods: Iterable[str],
    kinds: Iterable["ContextKind | str"],
    weightings: Iterable[str],
    windows: Iterable[int],
) -> list[MethodConfig]:
    """Cross product of the axes, silently dropping combinations that are
    invalid for substitution (which contributes one config per window)."""
    kinds = [_coerce_kind(kind) for kind in kinds]
    configs = (
        MethodConfig("substitution", ContextKind.SEQUENCE, "none", window)
        if method == "substitution"
        else MethodConfig(method, kind, weighting, window)
        for method, kind, weighting, window in product(methods, kinds, weightings, windows)
    )
    return list(dict.fromkeys(config.validate() for config in configs))


def build_embedding(table: OccurrenceTable, config: MethodConfig) -> Union[
    EmbeddingMatrix, PairwiseSimilarity
]:
    """Build the configured matrix from an extracted table.

    For aa/ac the result is a (possibly weighted) EmbeddingMatrix; for
    substitution the score matrix itself is the final artifact.
    """
    config.validate()
    if table.kind != config.kind or table.window_size != config.window:
        raise ParameterError(
            f"table ({table.kind.value}, n={table.window_size}) does not match "
            f"config {config.describe()}"
        )
    if config.method == "substitution":
        return substitution_scores(table)
    raw = build_aa(table) if config.method == "aa" else build_ac(table)
    return apply_weighting(raw, table, config.weighting)


def similarity_for_config(table: OccurrenceTable, config: MethodConfig) -> PairwiseSimilarity:
    """Build, weight and compare: the configured similarity matrix of a table.

    Substitution scores are the similarities themselves; every other
    method is compared by cosine over its embedding rows.
    """
    built = build_embedding(table, config)
    if isinstance(built, PairwiseSimilarity):
        return built
    return pairwise_distance_matrix(built)


def shared_tables(
    log: EventLog, configs: Sequence[MethodConfig]
) -> dict[tuple[ContextKind, int], OccurrenceTable]:
    """One table per distinct (kind, window) pair used by ``configs``, each
    from one ``extract_occurrences`` call, keyed in config order.

    The windows are visited widest first. Each is scanned until a scan is
    not refused (a :class:`ParameterError`, such as a slot array over its
    bound): as the sequence table, even when no config uses it, or as the
    pair's own table when there is only one pair. Below it, a window gets a
    sequence table only when a config uses one there, coarsened through
    ``extract_occurrences(..., fine=...)`` from the last one made, so each
    window is covered by the narrowest sequence table at it or above: the
    fewer fine contexts, the less to re-key. A multiset pair is coarsened
    from its window's covering table. A refused window's pairs get no table:
    their scan raises the refusal again, before it allocates anything.
    """
    seq = ContextKind.SEQUENCE
    pairs = dict.fromkeys((config.kind, config.window) for config in configs)
    scanned = next(iter(pairs))[0] if len(pairs) == 1 else seq
    covering: dict[int, OccurrenceTable] = {}
    table = None
    for n in sorted({n for _, n in pairs}, reverse=True):
        if table is None:
            try:
                table = extract_occurrences(log, n, scanned)
            except ParameterError:
                continue
        elif (seq, n) in pairs:
            table = extract_occurrences(log, n, seq, fine=table)
        covering[n] = table
    return {
        (kind, n): covering[n] if covering[n].kind is kind
        else extract_occurrences(log, n, kind, fine=covering[n])
        for kind, n in pairs
        if n in covering
    }
