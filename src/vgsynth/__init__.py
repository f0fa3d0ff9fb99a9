"""Graph-based synthetic time series generation and evaluation.

Windows of a price series become visibility graphs; configurable walks over
those graphs (or over a cross-ticker multigraph) regenerate synthetic
sequences, which are scored against the real data with a downstream
classification task, a 2D embedding overlap diagnostic, and runtime
accounting.
"""

from .corpus import make_desk_corpus, write_corpus_csv
from .errors import (DuplicateRowError, GraphIntegrityError, SchemaError,
                     SegmentMismatchError, UndefinedMetricError)
from .generate import WalkConfig, downsample, dtw_distance, generate_sequence, vrp_generate
from .graphs import build_hvg, build_multigraph, build_nvg, dump_graph
from .ingest import Window, load_series, minmax_scale, slice_windows
from .pipeline import RunConfig, run_evaluation, run_generation

__version__ = "0.1.0"

__all__ = [
    "DuplicateRowError", "GraphIntegrityError", "RunConfig", "SchemaError",
    "SegmentMismatchError", "UndefinedMetricError", "WalkConfig", "Window",
    "build_hvg", "build_multigraph", "build_nvg", "downsample", "dtw_distance",
    "dump_graph", "generate_sequence", "load_series", "make_desk_corpus",
    "minmax_scale", "run_evaluation", "run_generation", "slice_windows",
    "vrp_generate", "write_corpus_csv",
]
