"""refgraph: build, partition, and characterize method-level refactoring graphs.

Vertices are fully qualified method signatures; directed edges are detected
refactoring operations (rename, move, extract, inline, ...) carrying commit
metadata.  The library splits the graph of a project history into weakly
connected subgraphs and measures their size, commit span, age, refactoring
composition, and developer count.
"""

from .graph import (
    RefactoringGraph,
    build,
    filter_multi_commit,
    graph_to_dict,
    load_graph,
    partition,
)
from .history import (
    CommitLogError,
    RestrictResult,
    load_commit_log,
    parse_commit_log,
    restrict_to_log,
)
from .ingest import (
    REFACTORING_TYPES,
    FilterConfig,
    ParseResult,
    RecordError,
    RefactoringRecord,
    SignatureError,
    apply_filters,
    parse_records,
    parse_signature,
)
from .metrics import (
    CorrelationError,
    MetricsError,
    SpearmanResult,
    SubgraphMetrics,
    aggregate,
    correlate_corpus,
    measure,
    spearman,
)
from .report import emit_dot, emit_json_summary, emit_tables

__version__ = "0.1.0"

__all__ = [
    "CommitLogError",
    "CorrelationError",
    "FilterConfig",
    "MetricsError",
    "ParseResult",
    "REFACTORING_TYPES",
    "RecordError",
    "RefactoringGraph",
    "RefactoringRecord",
    "RestrictResult",
    "SignatureError",
    "SpearmanResult",
    "SubgraphMetrics",
    "aggregate",
    "apply_filters",
    "build",
    "correlate_corpus",
    "emit_dot",
    "emit_json_summary",
    "emit_tables",
    "filter_multi_commit",
    "graph_to_dict",
    "load_commit_log",
    "load_graph",
    "measure",
    "parse_commit_log",
    "parse_records",
    "parse_signature",
    "partition",
    "restrict_to_log",
    "spearman",
    "__version__",
]
