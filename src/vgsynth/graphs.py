"""Visibility graphs over single windows and cross-ticker multigraphs.

Two points of a window see each other in the natural visibility graph (NVG)
when the straight line between them passes strictly above every intermediate
point; in the horizontal variant (HVG) every intermediate point must lie
strictly below both endpoints. Strict inequalities are used throughout, so
collinear points are not mutually visible and value plateaus only connect
consecutive points.

A multigraph joins the per-ticker NVGs of one time segment: nodes of
different tickers at the same time index are linked by co-occurrence edges,
nodes of different tickers with nearly equal scaled values by similar-value
edges, and nodes with the same time index and exactly equal scaled value are
merged (their parallel edges add up as multiplicity).

Every graph is a ``Graph``: a single window's NVG or HVG is the one-ticker
case of the same class the multigraph uses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SegmentMismatchError
from .ingest import Window

NVG = "nvg"
HVG = "hvg"
NVMG = "nvmg"

VISIBILITY = "visibility"
CO_OCCURRENCE = "co_occurrence"
SIMILAR_VALUE = "similar_value"

DEFAULT_SIMILAR_VALUE_EPSILON = 0.01


@dataclass
class GraphNode:
    """One graph node; holds several values only after multigraph merging."""

    node_id: int
    time_indices: list[int]
    values: list[float]
    ticker_tags: list[str]


@dataclass(eq=False)
class Graph:
    """Undirected (multi)graph over the windows of one time segment.

    ``edges`` maps (u, v, kind) with u < v to multiplicity. ``merge_map``
    resolves (ticker, time_index) to its node id, and ``scales`` carries each
    ticker's (scale_min, scale_max, is_constant) so generated sequences can
    be mapped back to price space. A single window's NVG or HVG is the
    one-ticker case; the cross-ticker NVMG joins several tickers.
    """

    kind: str
    segment: tuple[int, int]  # (start_index, length)
    tickers: list[str]
    nodes: list[GraphNode]
    edges: dict[tuple[int, int, str], int]
    merge_map: dict[tuple[str, int], int]
    scales: dict[str, tuple[float, float, bool]]
    _adjacency: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _multiplicities: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _cross: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        nbrs: dict[int, dict[int, int]] = {n.node_id: {} for n in self.nodes}
        cross: dict[int, set[int]] = defaultdict(set)
        for (u, v, kind), mult in self.edges.items():
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            nbrs[u][v] = nbrs[u].get(v, 0) + mult
            nbrs[v][u] = nbrs[v].get(u, 0) + mult
            if kind in (CO_OCCURRENCE, SIMILAR_VALUE):
                cross[u].add(v)
                cross[v].add(u)
        # one shared empty array: a single window's graph has no cross-ticker edges
        no_cross = np.empty(0, dtype=int)
        for nid, d in nbrs.items():
            ids = np.array(sorted(d), dtype=int)
            self._adjacency[nid] = ids
            self._multiplicities[nid] = np.array([d[i] for i in ids], dtype=int)
            self._cross[nid] = np.array(sorted(cross[nid]), dtype=int) if nid in cross else no_cross

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        return self._adjacency[node_id]

    def weighted_neighbors(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        return self._adjacency[node_id], self._multiplicities[node_id]

    def cross_ticker_neighbor_ids(self, node_id: int) -> np.ndarray:
        return self._cross[node_id]

    def first_node(self, ticker: str | None = None) -> int:
        """Node holding the first time index of ``ticker`` (default: the first ticker)."""
        return self.merge_map[(self.tickers[0] if ticker is None else ticker, 0)]

    def scale_for(self, ticker: str | None = None) -> tuple[float, float, bool]:
        return self.scales[self.tickers[0] if ticker is None else ticker]


def _require_scaled(window: Window) -> np.ndarray:
    if window.length < 2:
        raise ValueError(f"window of length {window.length} cannot form a visibility graph")
    if window.scaled_values is None:
        raise ValueError("window must be min-max scaled before graph construction")
    return np.asarray(window.scaled_values, dtype=float)


def _window_scale(window: Window) -> tuple[float, float, bool]:
    return (float(window.scale_min), float(window.scale_max), bool(window.is_constant))


def _window_graph(kind: str, window: Window, pairs: list[tuple[int, int]]) -> Graph:
    """One-ticker graph of a single window with unit-multiplicity visibility edges."""
    nodes = [GraphNode(node_id=i, time_indices=[i], values=[float(v)],
                       ticker_tags=[window.ticker])
             for i, v in enumerate(window.scaled_values)]
    return Graph(
        kind=kind,
        segment=(window.start_index, window.length),
        tickers=[window.ticker],
        nodes=nodes,
        edges={(u, v, VISIBILITY): 1 for u, v in pairs},
        merge_map={(window.ticker, i): i for i in range(window.length)},
        scales={window.ticker: _window_scale(window)},
    )


def build_nvg(window: Window) -> Graph:
    """Natural visibility graph of a scaled window.

    For each anchor i the running maximum of slopes to intermediate points
    decides visibility: j is visible from i iff the slope (i, j) strictly
    exceeds every slope (i, k) with i < k < j.
    """
    values = _require_scaled(window)
    n = values.size
    pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        span = np.arange(i + 1, n)
        slopes = (values[i + 1 :] - values[i]) / (span - i)
        blockers = np.concatenate(([-np.inf], np.maximum.accumulate(slopes)[:-1]))
        for j in span[slopes > blockers]:
            pairs.append((i, int(j)))
    return _window_graph(NVG, window, pairs)


def build_hvg(window: Window) -> Graph:
    """Horizontal visibility graph: intermediates must lie strictly below
    both endpoints. Its edge set is a subset of the NVG's on any window."""
    values = _require_scaled(window)
    n = values.size
    pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        highest = -np.inf
        for j in range(i + 1, n):
            if highest < values[i] and highest < values[j]:
                pairs.append((i, j))
            highest = max(highest, values[j])
            if highest >= values[i]:
                break
    return _window_graph(HVG, window, pairs)


def nvg_bruteforce(window: Window) -> Graph:
    """Literal O(n^3) evaluation of the natural visibility criterion.

    Checks, for every pair (i, j), that each intermediate point k lies
    strictly below the sight line at k. Each anchor i evaluates all its
    pairs at once over a (j, k) grid masked to i < k < j. Kept as an
    independent oracle for build_nvg.
    """
    values = _require_scaled(window)
    n = values.size
    pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        j = np.arange(i + 1, n)[:, None]
        k = np.arange(i + 1, n)[None, :]
        line = values[i] + (values[j] - values[i]) * (k - i) / (j - i)
        visible = np.all((values[k] < line) | (k >= j), axis=1)
        pairs.extend((i, int(jj)) for jj in j[visible, 0])
    return _window_graph(NVG, window, pairs)


def hvg_bruteforce(window: Window) -> Graph:
    """Literal evaluation of the horizontal rule for every pair, each anchor's
    pairs at once over a (j, k) grid masked to i < k < j; test oracle."""
    values = _require_scaled(window)
    n = values.size
    pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        j = np.arange(i + 1, n)[:, None]
        k = np.arange(i + 1, n)[None, :]
        visible = np.all((values[k] < np.minimum(values[i], values[j])) | (k >= j), axis=1)
        pairs.extend((i, int(jj)) for jj in j[visible, 0])
    return _window_graph(HVG, window, pairs)


def build_multigraph(
    windows: list[Window],
    similar_value_epsilon: float = DEFAULT_SIMILAR_VALUE_EPSILON,
) -> Graph:
    """Build the cross-ticker multigraph of one time segment.

    Steps: per-ticker NVGs; co-occurrence edges between different tickers at
    equal time index; similar-value edges between nodes of different tickers
    whose scaled values differ by less than ``similar_value_epsilon``; then
    nodes with equal time index and exactly equal scaled value are merged.
    Edges that collapse onto a single merged node are dropped, parallel edges
    of the same kind accumulate multiplicity.
    """
    if not windows:
        raise ValueError("at least one window required")
    start, length = windows[0].start_index, windows[0].length
    for w in windows:
        if (w.start_index, w.length) != (start, length):
            raise SegmentMismatchError(
                f"{w.ticker}@{w.start_index} (len {w.length}) does not match "
                f"segment start {start} (len {length})"
            )
    tickers = [w.ticker for w in windows]
    if len(set(tickers)) != len(tickers):
        raise ValueError("duplicate ticker within one segment")

    n, n_windows = length, len(windows)
    values = [np.asarray(_require_scaled(w), dtype=float) for w in windows]

    # provisional node id: window position * length + local time index
    raw_edges: dict[tuple[int, int, str], int] = {}
    for wi, w in enumerate(windows):
        vg = build_nvg(w)
        for (u, v, _) in vg.edges:
            raw_edges[(wi * n + u, wi * n + v, VISIBILITY)] = 1
    for a in range(n_windows):
        for b in range(a + 1, n_windows):
            for t in range(n):
                raw_edges[(a * n + t, b * n + t, CO_OCCURRENCE)] = 1
            close = np.argwhere(np.abs(values[a][:, None] - values[b][None, :])
                                < similar_value_epsilon)
            for ta, tb in close:
                raw_edges[(a * n + int(ta), b * n + int(tb), SIMILAR_VALUE)] = 1

    # merge nodes with equal time index and exactly equal scaled value
    groups: dict[tuple[int, float], list[int]] = {}
    for wi in range(n_windows):
        for t in range(n):
            groups.setdefault((t, float(values[wi][t])), []).append(wi * n + t)
    ordered = sorted(groups.values(), key=min)
    remap = {pid: new_id for new_id, members in enumerate(ordered) for pid in members}

    nodes = []
    for new_id, members in enumerate(ordered):
        t = members[0] % n
        nodes.append(GraphNode(
            node_id=new_id,
            time_indices=[t],
            values=[float(values[pid // n][t]) for pid in members],
            ticker_tags=[tickers[pid // n] for pid in members],
        ))

    edges: dict[tuple[int, int, str], int] = {}
    for (u, v, kind), mult in raw_edges.items():
        ru, rv = remap[u], remap[v]
        if ru == rv:
            continue  # merged away
        key = (min(ru, rv), max(ru, rv), kind)
        edges[key] = edges.get(key, 0) + mult

    merge_map = {(ticker, t): remap[wi * n + t]
                 for wi, ticker in enumerate(tickers) for t in range(n)}

    return Graph(
        kind=NVMG,
        segment=(start, length),
        tickers=tickers,
        nodes=nodes,
        edges=edges,
        merge_map=merge_map,
        scales={w.ticker: _window_scale(w) for w in windows},
    )


def dump_graph(graph: Graph, path: str | Path) -> None:
    """Write an edge list and node table as plain text for inspection.

    Edge lines are ``node_u node_v kind multiplicity``; node lines are
    ``node_id time_indices values tickers`` with comma-joined fields.
    """
    with Path(path).open("w") as fh:
        fh.write("# edges: node_u node_v kind multiplicity\n")
        for (u, v, kind), mult in sorted(graph.edges.items()):
            fh.write(f"{u} {v} {kind} {mult}\n")
        fh.write("# nodes: node_id time_indices values tickers\n")
        for node in graph.nodes:
            times = ",".join(str(t) for t in node.time_indices)
            vals = ",".join(repr(v) for v in node.values)
            tags = ",".join(node.ticker_tags)
            fh.write(f"{node.node_id} {times} {vals} {tags}\n")
