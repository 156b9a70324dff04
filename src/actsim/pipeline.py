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
    configs: list[MethodConfig] = []
    seen: set[MethodConfig] = set()
    for method, kind, weighting, window in product(methods, kinds, weightings, windows):
        if method == "substitution":
            candidate = MethodConfig("substitution", ContextKind.SEQUENCE, "none", window)
        else:
            candidate = MethodConfig(method, kind, weighting, window)
        candidate.validate()
        if candidate not in seen:
            seen.add(candidate)
            configs.append(candidate)
    return configs


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
) -> dict[tuple[ContextKind, int], "OccurrenceTable | ParameterError"]:
    """One table per distinct (kind, window) pair used by ``configs``, each
    from one ``extract_occurrences`` call, keyed in config order.

    A single pair is scanned directly. With more, the windows are visited
    widest first, and the log is scanned once, as the sequence table at the
    first window whose scan is not refused (a :class:`ParameterError`, such
    as a slot array over its bound; the table is made even when no config
    uses it). The narrower sequence tables are then made widest first, and
    every table other than that scan is coarsened through
    ``extract_occurrences(..., fine=...)`` from the narrowest sequence
    table already made whose window is at least its own: the fewer fine
    contexts, the less to re-key. A pair at a refused window maps to that
    window's error, so only the configs that need it fail.
    """
    pairs = dict.fromkeys((config.kind, config.window) for config in configs)
    if len(pairs) == 1:
        return {pair: _scan(log, *pair) for pair in pairs}
    seq = ContextKind.SEQUENCE
    refused: dict[int, ParameterError] = {}
    sequences: dict[int, OccurrenceTable] = {}
    for n in sorted({n for _, n in pairs}, reverse=True):
        if not sequences:
            table = _scan(log, seq, n)
            if isinstance(table, ParameterError):
                refused[n] = table
            else:
                sequences[n] = table
        elif (seq, n) in pairs:
            sequences[n] = extract_occurrences(log, n, seq, fine=sequences[min(sequences)])
    tables = {}
    for kind, n in pairs:
        if n in refused:
            tables[kind, n] = refused[n]
        elif kind is seq:
            tables[kind, n] = sequences[n]
        else:
            covering = sequences[min(m for m in sequences if m >= n)]
            tables[kind, n] = extract_occurrences(log, n, kind, fine=covering)
    return tables


def _scan(log: EventLog, kind: ContextKind, n: int) -> "OccurrenceTable | ParameterError":
    """The scanned table, or the :class:`ParameterError` that refused it."""
    try:
        return extract_occurrences(log, n, kind)
    except ParameterError as exc:
        return exc
