"""Count-based activity embeddings and similarity benchmarks for event logs."""

from types import ModuleType as _ModuleType

from .bench import TimingRecord, TimingReport, export_report, run_runtime_bench
from .contexts import ContextKind, OccurrenceTable, extract_occurrences
from .errors import (
    ActsimError,
    DataError,
    EmptyLogError,
    ExportError,
    FormatError,
    ParameterError,
)
from .groundtruth import (
    BenchmarkPlan,
    ClassAssignment,
    GroundTruthLog,
    PlanJob,
    enumerate_benchmark_plan,
    generate_ground_truth_log,
)
from .intrinsic import (
    AggregateReport,
    AggregateRow,
    FailedJob,
    IntrinsicScores,
    aggregate_scores,
    run_intrinsic_benchmark,
    score_all,
)
from .log import (
    PAD,
    PAD_LABEL,
    Alphabet,
    EventLog,
    LogStats,
    compute_stats,
    log_from_label_traces,
    parse_csv,
    parse_xes,
    read_log,
    write_log_csv,
    write_stats_csv,
)
from .matrices import (
    METHODS,
    WEIGHTINGS,
    EmbeddingMatrix,
    MethodConfig,
    build_aa,
    build_ac,
    write_embedding_csv,
)
from .pipeline import (
    build_embedding,
    expand_grid,
    make_config,
    similarity_for_config,
)
from .similarity import (
    PairwiseSimilarity,
    pairwise_distance_matrix,
    substitution_scores,
    write_distance_csv,
)
from .weighting import apply_ppmi, apply_weighting

__version__ = "0.1.0"

# Every public name the imports above bind, and nothing else: a retired
# name leaves with its import.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
