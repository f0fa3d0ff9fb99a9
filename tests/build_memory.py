"""Traced memory of one large multigraph build: segment 0 of
``make_desk_corpus(40, 120, seed=1)`` at window 60, 112,294 edges, the
largest segment the ``wide_w60_ds`` benchmark workload builds.

Run as a script (``PYTHONPATH=src python tests/build_memory.py``) it prints
the build's traced peak and the graph's retained size, in MiB and in bytes
per edge, and then where the retained bytes sit: the edge arrays, the CSR
arrays, the node arrays and the per-node value lists. ``test_graphs.py``
asserts bounds on the peak and the retained size.
"""

from __future__ import annotations

import sys
import tracemalloc

from vgsynth.corpus import make_desk_corpus
from vgsynth.graphs import Graph, build_multigraph
from vgsynth.ingest import slice_windows


def segment_windows() -> list:
    """Segment 0's windows, in the pipeline's ticker order."""
    series = sorted(make_desk_corpus(40, 120, seed=1), key=lambda s: s.ticker)
    return [slice_windows(s, 60)[0] for s in series]


def traced_build(windows: list) -> tuple[Graph, int, int]:
    """``(graph, peak, retained)``: the bytes ``tracemalloc`` saw at the
    build's peak and still held by the graph, both above the traced memory
    before it. One untraced build first warms numpy's caches."""
    build_multigraph(windows)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        graph = build_multigraph(windows)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return graph, peak - base, current - base


def retained_parts(graph: Graph) -> dict[str, int]:
    """Bytes held by each group of ``graph``'s arrays, named with their
    dtypes, and by its per-node value lists."""
    parts = {}
    for names in (("edge_u", "edge_v", "edge_kind", "edge_mult"),
                  ("indptr", "indices", "cross_indptr", "cross_indices"),
                  ("node_of", "node_range", "node_time", "value_ptr", "values", "value_window")):
        arrays = [getattr(graph, name) for name in names]
        label = ", ".join(f"{name} {a.dtype}" for name, a in zip(names, arrays))
        parts[label] = sum(a.nbytes for a in arrays)
    parts["node_values lists"] = sys.getsizeof(graph.node_values) + sum(
        sys.getsizeof(values) + sum(map(sys.getsizeof, values)) for values in graph.node_values)
    return parts


if __name__ == "__main__":
    graph, peak, retained = traced_build(segment_windows())
    edges = graph.edge_u.size
    print(f"edges: {edges}")
    print(f"traced build peak: {peak / 2**20:.2f} MiB ({peak / edges:.1f} B per edge)")
    print(f"retained by the graph: {retained / 2**20:.2f} MiB ({retained / edges:.1f} B per edge)")
    for label, size in retained_parts(graph).items():
        print(f"  {size / 2**20:5.2f} MiB ({size / edges:4.1f} B per edge) {label}")
