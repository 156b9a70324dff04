"""Command-line interface: stats, embed, distances, intrinsic, bench.

One process handles one log; multi-log sweeps are shell-level composition.
Exit codes: 0 on success, 1 when some benchmark jobs failed, 2 on usage,
parse or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import export_report, run_runtime_bench
from .contexts import ContextKind, extract_occurrences
from .errors import ActsimError, ExportError
from .intrinsic import aggregate_scores, run_intrinsic_benchmark
from .log import compute_stats, read_log, write_json, write_stats_csv
from .matrices import METHODS, WEIGHTINGS, MethodConfig, write_embedding_csv
from .pipeline import build_embedding, expand_grid, make_config, similarity_for_config
from .similarity import PairwiseSimilarity, write_distance_csv


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="path to the event log")
    parser.add_argument(
        "--format",
        choices=("auto", "csv", "xes"),
        default="auto",
        help="input format; auto picks xes for .xes files, csv otherwise",
    )
    parser.add_argument("--case-col", default="case", help="CSV case-id column")
    parser.add_argument("--activity-col", default="activity", help="CSV activity column")
    parser.add_argument("--time-col", default=None, help="optional CSV timestamp column")
    parser.add_argument("--out-dir", default=".", help="directory for output files")


def _add_single_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument(
        "--context",
        choices=("mset", "seq"),
        default=None,
        help="context kind; defaults to mset (seq for substitution)",
    )
    parser.add_argument("--weight", choices=WEIGHTINGS, default="none")
    parser.add_argument("--window", type=int, default=3)


def _add_grid_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        default="all",
        help="method (aa, ac, substitution), a comma list, or all",
    )
    parser.add_argument(
        "--context", default="all", help="context kind (mset, seq), a comma list, or all"
    )
    parser.add_argument(
        "--weight", default="all", help="weighting (none, pmi, ppmi), a comma list, or all"
    )
    parser.add_argument(
        "--window", default="3", help="window size or a comma list of sizes"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actsim",
        description="Count-based activity embeddings and similarity benchmarks for event logs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_stats = commands.add_parser("stats", help="log summary and rank-frequency table")
    _add_input_options(p_stats)
    p_stats.set_defaults(handler=_cmd_stats)

    p_embed = commands.add_parser("embed", help="export one embedding matrix")
    _add_input_options(p_embed)
    _add_single_config_options(p_embed)
    p_embed.set_defaults(handler=_cmd_embed)

    p_dist = commands.add_parser("distances", help="export the pairwise distance matrix")
    _add_input_options(p_dist)
    _add_single_config_options(p_dist)
    p_dist.set_defaults(handler=_cmd_distances)

    p_intr = commands.add_parser("intrinsic", help="ground-truth benchmark over a config grid")
    _add_input_options(p_intr)
    _add_grid_config_options(p_intr)
    p_intr.set_defaults(handler=_cmd_intrinsic)
    p_intr.add_argument("--seed", type=int, default=42)
    p_intr.add_argument("--samples", type=int, default=5)
    p_intr.add_argument(
        "--parallel", action="store_true", help="run benchmark jobs in a process pool"
    )

    p_bench = commands.add_parser("bench", help="runtime and memory measurements")
    _add_input_options(p_bench)
    _add_grid_config_options(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)
    p_bench.add_argument("--reps", type=int, default=10, help="timing repetitions per config")

    return parser


def _load_log(args: argparse.Namespace):
    return read_log(
        args.input,
        fmt=args.format,
        case_column=args.case_col,
        activity_column=args.activity_col,
        timestamp_column=args.time_col,
    )


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(args.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _remove_stale(path: Path) -> None:
    """Remove a report that an earlier run left in a reused output directory
    and this run does not write."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot remove {path}: {exc}") from exc


def _single_config(args: argparse.Namespace) -> MethodConfig:
    context = args.context
    if context is None:
        context = "seq" if args.method == "substitution" else "mset"
    return make_config(args.method, context, args.weight, args.window)


def _split(value: str, known: tuple[str, ...], flag: str) -> list[str]:
    if value == "all":
        return list(known)
    parts = [part.strip() for part in value.split(",") if part.strip()]
    for part in parts:
        if part not in known:
            raise ActsimError(f"{flag}: unknown value {part!r} (expected one of {known} or all)")
    if not parts:
        raise ActsimError(f"{flag}: empty value")
    return parts


def _grid_configs(args: argparse.Namespace) -> list[MethodConfig]:
    methods = _split(args.method, METHODS, "--method")
    contexts = _split(args.context, ("mset", "seq"), "--context")
    weights = _split(args.weight, WEIGHTINGS, "--weight")
    try:
        windows = [int(part) for part in str(args.window).split(",") if part.strip()]
    except ValueError:
        raise ActsimError(f"--window: expected integers, got {args.window!r}") from None
    if not windows:
        raise ActsimError("--window: empty value")
    if len(methods) == len(contexts) == len(weights) == len(windows) == 1:
        # An explicit single config is passed through as-is so an invalid
        # combination surfaces per the subcommand's contract: bench records
        # an error entry, intrinsic rejects the whole run.
        return [MethodConfig(methods[0], ContextKind(contexts[0]), weights[0], windows[0])]
    return expand_grid(methods, contexts, weights, windows)


def _cmd_stats(args: argparse.Namespace) -> int:
    log = _load_log(args)
    stats = compute_stats(log)
    out = _out_dir(args)
    write_stats_csv(stats, out / "stats.csv")
    summary = {f.name: getattr(stats, f.name) for f in fields(stats) if f.name != "rank_entries"}
    summary.update(schema=1, rank_tie_order="activity id ascending")
    write_json(summary, out / "stats.json")
    print(
        f"{stats.trace_count} traces, {stats.activity_count} activities, "
        f"{stats.variant_count} variants, avg length {stats.avg_trace_length:.2f}"
    )
    return 0


def _table_for_args(args: argparse.Namespace):
    log = _load_log(args)
    config = _single_config(args)
    return log, config, extract_occurrences(log, config.window, config.kind)


def _cmd_embed(args: argparse.Namespace) -> int:
    log, config, table = _table_for_args(args)
    built = build_embedding(table, config)
    out = _out_dir(args)
    if isinstance(built, PairwiseSimilarity):
        # Substitution has no separate embedding; the score matrix is the artifact.
        write_distance_csv(built, log.alphabet, out / "embedding.csv")
        rows = cols = len(built.labels)
    else:
        write_embedding_csv(built, log.alphabet, out / "embedding.csv")
        rows, cols = built.shape
        meta = dict(built.config.echo(), schema=1, rows=rows, columns=cols)
        write_json(meta, out / "embedding.meta.json")
    print(f"embedding.csv written ({rows} x {cols}, {config.describe()})")
    return 0


def _cmd_distances(args: argparse.Namespace) -> int:
    log, config, table = _table_for_args(args)
    sim = similarity_for_config(table, config)
    out = _out_dir(args)
    write_distance_csv(sim, log.alphabet, out / "distances.csv")
    print(f"distances.csv written ({len(sim.labels)} activities, {config.describe()})")
    return 0


def _cmd_intrinsic(args: argparse.Namespace) -> int:
    log = _load_log(args)
    configs = _grid_configs(args)
    scores, failures = run_intrinsic_benchmark(
        log,
        configs,
        samples=args.samples,
        master_seed=args.seed,
        parallel=args.parallel,
    )
    out = _out_dir(args)
    export_report(scores, out / "intrinsic_scores.json", "json")
    aggregate, failed = out / "intrinsic_aggregate.csv", out / "intrinsic_failures.json"
    if scores:
        export_report(aggregate_scores(scores, failures), aggregate, "csv")
    else:
        _remove_stale(aggregate)
    if failures:
        export_report(failures, failed, "json")
    else:
        _remove_stale(failed)
    print(f"{len(scores)} scored jobs, {len(failures)} failed")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    log = _load_log(args)
    configs = _grid_configs(args)
    report = run_runtime_bench(log, configs, repetitions=args.reps)
    out = _out_dir(args)
    export_report(report, out / "bench_report.json", "json")
    errors = sum(1 for record in report.records if record.error is not None)
    print(f"{len(report.records)} records, {errors} errors -> bench_report.json")
    return 1 if errors else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other codes.
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ActsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
