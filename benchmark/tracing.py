"""Outside-in spans around the public functions of each ``actsim`` layer.

Nothing here touches ``src/actsim``: :class:`Tracer` swaps each traced
function for a timing wrapper at every place the package binds it (its own
module, every ``from .x import f`` site and the package namespace), and puts
the originals back on exit. With tracing off the tracer is never created,
so the library runs unwrapped.

A span records name, start, end and parent. Spans stay in memory and are
written once, at the end of the run. A span's self time is its duration
minus the time its child spans cover, minus the time its wrapper spent
computing counts; whatever no span covers is the unspanned remainder
(the ``pipeline``/``intrinsic`` glue and the benchmark loop).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import sparse


def _file_bytes(source) -> int:
    if isinstance(source, Path):
        return source.stat().st_size
    if isinstance(source, str):
        return len(source.encode("utf-8"))
    return 0


def _extract_counts(args, kwargs, table) -> dict:
    traces = args[0].traces
    return {
        "events": table.total_events,
        "contexts": len(table.contexts),
        "traces": len(traces),
        "variants": len(set(traces)),
    }


def _build_counts(args, kwargs, matrix) -> dict:
    values = matrix.values
    nnz = values.nnz if sparse.issparse(values) else int(np.count_nonzero(values))
    return {"nnz": nnz}


def _gram_flops(args, kwargs, sim) -> dict:
    """Multiply-adds of the Gram product, computed from the operand shape
    (dense: n*n*d; sparse: the sum over columns of the squared column
    nonzeros), times two. Not read from a hardware counter."""
    values = args[0].values
    if sparse.issparse(values):
        per_column = np.bincount(values.indices, minlength=values.shape[1])
        products = int((per_column.astype(np.int64) ** 2).sum())
    else:
        rows, columns = values.shape
        products = rows * rows * columns
    return {"gram_flops": 2 * products}


def _comparisons(args, kwargs, result) -> dict:
    """Similarity cells the four metrics read, computed from class sizes:
    C(w,2) for compactness, w(n-1) each for nearest neighbour and
    precision, w(w-1)(n-w) for triplets."""
    sim, classes = args[0], args[1]
    n = len(sim.labels)
    total = 0
    for clones in classes.values():
        w = len(clones)
        total += w * (w - 1) // 2 + 2 * w * (n - 1) + w * (w - 1) * (n - w)
    return {"comparisons": total}


def _ground_truth_counts(args, kwargs, gt) -> dict:
    return {"events": gt.log.n_events}


def _parse_counts(args, kwargs, log) -> dict:
    return {"bytes": _file_bytes(args[0])}


def _written_bytes(target) -> dict:
    return {"bytes": Path(target).stat().st_size}


def _embedding_bytes(args, kwargs, result) -> dict:
    return _written_bytes(args[2])


def _distance_bytes(args, kwargs, result) -> dict:
    path = Path(args[2])
    meta = path.with_name(path.stem + ".meta.json")
    return {"bytes": path.stat().st_size + meta.stat().st_size}


def _report_bytes(args, kwargs, result) -> dict:
    return _written_bytes(args[1])


# Layer module -> {public function: counter over (args, kwargs, result)}.
# pipeline and cli are glue; their time is the unspanned remainder.
LAYERS: dict[str, dict[str, object]] = {
    "log": {"parse_csv": _parse_counts, "parse_xes": _parse_counts},
    "contexts": {"extract_occurrences": _extract_counts},
    "matrices": {
        "build_ac": _build_counts,
        "build_aa": _build_counts,
        "write_embedding_csv": _embedding_bytes,
    },
    "weighting": {"apply_weighting": None},
    "similarity": {
        "pairwise_distance_matrix": _gram_flops,
        "substitution_scores": None,
        "write_distance_csv": _distance_bytes,
    },
    "groundtruth": {"generate_ground_truth_log": _ground_truth_counts},
    "intrinsic": {"score_all": _comparisons},
    "bench": {"export_report": _report_bytes},
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "actsim" or name.startswith("actsim."))
    ]


def installed_wrappers() -> list[str]:
    """``module.attribute`` of every span wrapper currently bound in the package."""
    return sorted(
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if getattr(value, "_span_name", None) is not None
    )


class Tracer:
    """Context manager that wraps every function in :data:`LAYERS`.

    With ``memory=True`` tracemalloc also runs, and each span records the
    peak of traced memory above its starting level (``peak_bytes``).
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        # (name, start, end, parent index, seconds spent counting, counts, peak bytes)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._peaks: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, functions in LAYERS.items():
            home = importlib.import_module(f"actsim.{module_name}")
            for function_name, counter in functions.items():
                original = getattr(home, function_name)
                wrapper = self._wrap(f"{module_name}.{function_name}", original, counter)
                for module in _package_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, function, counter):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if self.memory:
                self._enter_peak()
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                peak = self._exit_peak() if self.memory else 0
                stack.pop()
                spans[index] = (name, start, end, parent, 0.0, {}, peak)  # kept if it raised
            counts = counter(args, kwargs, result) if counter is not None else {}
            done = clock()
            spans[index] = (name, start, done, parent, done - end, counts, peak)
            return result

        wrapper._span_name = name
        return wrapper

    def _enter_peak(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], peak)
        tracemalloc.reset_peak()
        self._peaks.append(current)
        self._peaks.append(current)  # [start level, running peak]

    def _exit_peak(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        running = max(self._peaks.pop(), peak)
        start = self._peaks.pop()
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], running)
        tracemalloc.reset_peak()
        return running - start

    def self_times(self) -> list[float]:
        """Per span: duration minus direct children minus its counting time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, counting, counts, peak in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i] - counting
            for i, (name, start, end, parent, counting, counts, peak) in enumerate(self.spans)
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {self_s, calls, counting_s, peak_bytes, <summed counts>}."""
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for own, (name, start, end, parent, counting, counts, peak) in zip(
            self.self_times(), self.spans
        ):
            row = table[name]
            row["self_s"] += own
            row["calls"] += 1
            row["counting_s"] += counting
            row["peak_bytes"] = max(row["peak_bytes"], peak)
            for key, value in counts.items():
                row[key] += value
        return table

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, counting, counts, peak in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record, sort_keys=True) + "\n")
