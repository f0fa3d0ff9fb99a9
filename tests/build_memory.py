"""Traced memory of one large multigraph build: segment 0 of
``make_desk_corpus(40, 120, seed=1)`` at window 60, 112,294 edges, the
largest segment the ``wide_w60_ds`` benchmark workload builds.

Run as a script (``PYTHONPATH=src python tests/build_memory.py``) it prints
the build's traced peak and the graph's retained size, in MiB and in bytes
per edge; ``test_graphs.py`` asserts bounds on the same figures.
"""

from __future__ import annotations

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


if __name__ == "__main__":
    graph, peak, retained = traced_build(segment_windows())
    edges = graph.edge_u.size
    print(f"edges: {edges}")
    print(f"traced build peak: {peak / 2**20:.2f} MiB ({peak / edges:.1f} B per edge)")
    print(f"retained by the graph: {retained / 2**20:.2f} MiB ({retained / edges:.1f} B per edge)")
