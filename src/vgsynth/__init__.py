"""Graph-based synthetic time series generation and evaluation.

Windows of a price series become visibility graphs; configurable walks over
those graphs (or over a cross-ticker multigraph) regenerate synthetic
sequences, which are scored against the real data with a downstream
classification task, a 2D embedding overlap diagnostic, and runtime
accounting.
"""

from .corpus import make_desk_corpus, write_corpus_csv
from .embedding import Embedding, embed_2d, embedding_overlap, mixing_score
from .errors import (DuplicateRowError, GraphIntegrityError, SchemaError,
                     SegmentMismatchError, UndefinedMetricError)
from .evaluate import (EvalReport, FeatureRow, LogisticClassifier,
                       chronological_split, extract_features, roc_auc,
                       run_experiment)
from .generate import (SyntheticSequence, WalkConfig, derive_seed, downsample,
                       dtw_distance, dtw_distances, generate_sequence,
                       vrp_generate)
from .graphs import Graph, build_hvg, build_multigraph, build_nvg, dump_graph
from .ingest import (TimeSeries, Window, load_series, minmax_scale,
                     slice_windows)
from .pipeline import RunConfig, run_evaluation, run_generation
from .runtime import RuntimeRecord, aggregate, format_duration, time_unit

__version__ = "0.1.0"

__all__ = [
    "DuplicateRowError", "Embedding", "EvalReport", "FeatureRow", "Graph",
    "GraphIntegrityError", "LogisticClassifier", "RunConfig",
    "RuntimeRecord", "SchemaError", "SegmentMismatchError",
    "SyntheticSequence", "TimeSeries", "UndefinedMetricError", "WalkConfig",
    "Window", "aggregate", "build_hvg", "build_multigraph", "build_nvg",
    "chronological_split", "derive_seed", "downsample", "dtw_distance",
    "dtw_distances", "dump_graph", "embed_2d", "embedding_overlap",
    "extract_features", "format_duration", "generate_sequence",
    "load_series", "make_desk_corpus", "minmax_scale",
    "mixing_score", "roc_auc", "run_evaluation",
    "run_experiment", "run_generation", "slice_windows", "time_unit",
    "vrp_generate", "write_corpus_csv",
]
