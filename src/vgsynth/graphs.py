"""Visibility graphs over a unit's windows and cross-ticker multigraphs.

Two points of a window see each other in the natural visibility graph (NVG)
when the straight line between them passes strictly above every intermediate
point; in the horizontal variant (HVG) every intermediate point must lie
strictly below both endpoints. Strict inequalities are used throughout, so
collinear points are not mutually visible and value plateaus only connect
consecutive points. A ticker's windows share one block-diagonal graph.

A multigraph joins the per-ticker NVGs of one time segment: nodes of
different tickers at the same time index are linked by co-occurrence edges,
nodes of different tickers with nearly equal scaled values by similar-value
edges, and nodes with the same time index and exactly equal scaled value are
merged (their parallel edges add up as multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import pairwise
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import SegmentMismatchError
from .ingest import Window

NVG = "nvg"
HVG = "hvg"
NVMG = "nvmg"

VISIBILITY = "visibility"
CO_OCCURRENCE = "co_occurrence"
SIMILAR_VALUE = "similar_value"
# an edge's kind code indexes EDGE_KINDS; the names are in alphabetical
# order, so sorting edges by code sorts them by kind name
EDGE_KINDS = (CO_OCCURRENCE, SIMILAR_VALUE, VISIBILITY)
KIND_CODE = {kind: code for code, kind in enumerate(EDGE_KINDS)}

DEFAULT_SIMILAR_VALUE_EPSILON = 0.01


@dataclass(eq=False)
class Graph:
    """Undirected (multi)graph over the equal-length windows of one unit, in
    arrays. An NVG or HVG is block-diagonal, window w's time index t at node
    w * length + t; a multigraph joins one segment's windows, and each of
    its windows' walks ranges over all of its nodes.

    The constructor takes the edges sorted by (u, v, kind), as every builder
    hands them over. It raises ``ValueError`` naming the first edge with a
    node id out of range, u >= v, an unknown kind, a multiplicity below 1, or
    a key that does not exceed the previous edge's (a duplicate when equal,
    unsorted edges when lower). It builds CSR adjacency with sorted
    neighbours: ``indptr``/``indices`` and ``cross_indptr``/``cross_indices``
    (cross-ticker kinds only). ``mult``, each entry's multiplicities summed
    across kinds, is not built here but on first read. ``node_values[i]``
    lists node i's values.
    """

    kind: str
    windows: list[Window]
    node_of: np.ndarray  # (windows x length): node id of each window's time index
    node_range: np.ndarray  # (windows x 2): first and past-last node of each window's walks
    node_time: np.ndarray  # time index of each node
    value_ptr: np.ndarray  # node i holds values[value_ptr[i]:value_ptr[i + 1]]
    values: np.ndarray  # scaled values, each node's in member order
    value_window: np.ndarray  # index into ``windows`` of each value
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_kind: np.ndarray  # index into EDGE_KINDS
    edge_mult: np.ndarray

    def __post_init__(self):
        n = self.num_nodes
        u, v, kind, mult = (np.asarray(a, dtype=np.int64) for a in
                            (self.edge_u, self.edge_v, self.edge_kind, self.edge_mult))
        key = (u * n + v) * len(EDGE_KINDS) + kind
        unsorted = np.concatenate(([False], key[1:] <= key[:-1]))
        first = int(np.argmax(unsorted))
        repeated = bool(unsorted.any()) and key[first] == key[first - 1]
        for bad, problem in (
                ((np.minimum(u, v) < 0) | (np.maximum(u, v) >= n), f"node id not in 0..{n - 1}"),
                (u == v, "self-loop"), (u > v, "endpoints must be ordered u < v"),
                ((kind < 0) | (kind >= len(EDGE_KINDS)), "unknown edge kind"),
                (mult < 1, "multiplicity must be >= 1"),
                (unsorted, "duplicate edge" if repeated else "edges not sorted by (u, v, kind)")):
            if bad.any():
                e = int(np.argmax(bad))
                name = dict(enumerate(EDGE_KINDS)).get(int(kind[e]), f"kind code {kind[e]}")
                raise ValueError(f"edge ({u[e]}, {v[e]}, {name}): {problem}")
        del key, unsorted
        self.edge_u, self.edge_v, self.edge_kind, self.edge_mult = u, v, kind, mult
        self.indptr, self.indices, self.cross_indptr, self.cross_indices = _csr(u, v, kind, n)
        values = self.values.tolist()
        self.node_values = [values[lo:hi] for lo, hi in pairwise(self.value_ptr.tolist())]
        self._cdfs: dict[int, list[float]] = {}

    @property
    def num_nodes(self) -> int:
        return self.node_time.size

    @cached_property
    def edges(self) -> MappingProxyType:
        """Read-only ``{(u, v, kind): multiplicity}`` view, in (u, v, kind) order."""
        kinds = map(EDGE_KINDS.__getitem__, self.edge_kind.tolist())
        keys = zip(self.edge_u.tolist(), self.edge_v.tolist(), kinds)
        return MappingProxyType(dict(zip(keys, self.edge_mult.tolist())))

    @cached_property
    def mult(self) -> np.ndarray:
        """Multiplicity of each ``indices`` entry: its (u, v) pair's edge
        multiplicities summed across kinds. Made on first read and kept; only
        degree-weighted walks read it."""
        starts, _, order = _pair_entries(self.edge_u, self.edge_v, self.num_nodes)
        weights = np.add.reduceat(self.edge_mult, starts)
        return np.concatenate((weights, weights))[order]

    @cached_property
    def walk_csr(self) -> tuple[list[int], memoryview, list[int], memoryview]:
        """``(indptr, indices, cross_indptr, cross_indices)`` for the walk,
        which reads one node per step: the row pointers as lists of Python
        ints and the flat index arrays through memoryviews, so a step makes
        no numpy scalar and no per-node list is kept."""
        return (self.indptr.tolist(), memoryview(self.indices),
                self.cross_indptr.tolist(), memoryview(self.cross_indices))

    def neighbor_cdf(self, node_id: int) -> list[float]:
        """Cumulative multiplicity shares of node ``node_id``'s neighbours, in
        ``indices`` order and normalised as ``np.random.Generator.choice``
        normalises ``p``; made on first use and kept."""
        cdf = self._cdfs.get(node_id)
        if cdf is None:
            mult = self.mult[self.indptr[node_id]:self.indptr[node_id + 1]]
            cumulative = (mult / mult.sum()).cumsum()
            cumulative /= cumulative[-1]
            cdf = self._cdfs[node_id] = cumulative.tolist()
        return cdf

    def neighbor_ids(self, node_id: int) -> np.ndarray:
        return self.indices[self.indptr[node_id]:self.indptr[node_id + 1]]

    def first_node(self, window: int = 0) -> int:
        """Node holding the first time index of window position ``window``."""
        return int(self.node_of[window, 0])


def _pair_entries(u: np.ndarray, v: np.ndarray, n: int):
    """For edges u < v sorted by (u, v, kind): ``starts``, the index of each
    (u, v) pair's first edge; the CSR row pointers of those P pairs; and the
    order that takes their 2P entries, ``concatenate((u[starts], v[starts]))``,
    to CSR order."""
    pair = u * n + v
    starts = np.flatnonzero(pair != np.concatenate(([-1], pair[:-1])))
    del pair
    # entry u in row v and entry v in row u; a stable sort by row (a radix
    # sort while node ids fit in uint16) puts each row's lower neighbours, in
    # u order, before its upper ones, in v order
    row = np.concatenate((v[starts], u[starts]))
    order = np.argsort(row.astype(np.uint16) if n <= 1 << 16 else row, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
    return starts, indptr, order


def _csr(u: np.ndarray, v: np.ndarray, kind: np.ndarray, n: int):
    """Symmetric CSR ``(indptr, indices)`` of edges u < v sorted by (u, v, kind),
    and ``(cross_indptr, cross_indices)`` over its cross-ticker pairs."""
    starts, indptr, order = _pair_entries(u, v, n)
    cross = kind[starts] != KIND_CODE[VISIBILITY]  # cross-ticker kinds have the lower codes
    cross = np.concatenate((cross, cross))[order]
    indices = np.concatenate((u[starts], v[starts]))[order]
    del starts, order
    return indptr, indices, np.concatenate(([0], np.cumsum(cross)))[indptr], indices[cross]


def _require_scaled(window: Window) -> np.ndarray:
    if window.length < 2:
        raise ValueError(f"window of length {window.length} cannot form a visibility graph")
    return window.scaled_values


def _window_graph(kind: str, windows: list[Window], visibility) -> Graph:
    """Block-diagonal graph of equal-length scaled windows, window w's time
    index t as node w * length + t, with the visibility edges ``(row, i, j)``
    that ``visibility`` finds in the stacked scaled values."""
    scaled = np.stack([_require_scaled(w) for w in windows])
    count, n = scaled.shape
    row, i, j = visibility(scaled)
    node_of = np.arange(scaled.size).reshape(count, n)
    return Graph(kind=kind, windows=list(windows), node_of=node_of,
                 node_range=node_of[:, [0, -1]] + [0, 1], node_time=np.tile(np.arange(n), count),
                 value_ptr=np.arange(scaled.size + 1), values=scaled.ravel(),
                 value_window=np.repeat(np.arange(count), n), edge_u=row * n + i,
                 edge_v=row * n + j, edge_kind=np.full(row.size, KIND_CODE[VISIBILITY]),
                 edge_mult=np.ones(row.size, dtype=np.int64))


def _visibility_edges(values: np.ndarray, horizontal: bool = False) -> tuple[np.ndarray, ...]:
    """``(row, i, j)`` of the visibility edges of every row of ``values``, in
    that order. Anchor i's grid holds the slopes (i, j) (NVG) or the heights
    ``values[j]`` (HVG, ``horizontal``), -inf where j <= i; j is visible from
    i iff ``grid[j]``, and for the HVG ``values[i]``, strictly exceed the
    grid's running maximum over i < k < j. Anchors go in row-major blocks of
    (row, anchor) pairs, each block's grid about 2**16 entries at most."""
    rows, n = values.shape
    j = np.arange(n)
    block = max(1, 2**16 // n)
    parts = []
    for lo in range(0, rows * (n - 1), block):
        row, i = np.divmod(np.arange(lo, min(lo + block, rows * (n - 1))), n - 1)
        anchor, i = values[row, i][:, None], i[:, None]
        grid = np.where(j > i, values[row] if horizontal
                        else (values[row] - anchor) / np.maximum(j - i, 1), -np.inf)
        highest = np.maximum.accumulate(grid, axis=-1)[:, :-1]
        visible = grid[:, 1:] > highest
        if horizontal:
            visible &= anchor > highest
        a, k = np.nonzero(visible)
        parts.append((row[a], i[a, 0], k + 1))
    return tuple(np.concatenate(p) for p in zip(*parts))


def build_nvg(windows: list[Window]) -> Graph:
    """Natural visibility graph of each of a unit's windows, in one block-diagonal graph."""
    return _window_graph(NVG, windows, _visibility_edges)


def build_hvg(windows: list[Window]) -> Graph:
    """Horizontal visibility graph of each of a unit's scaled windows, in one
    block-diagonal graph: the NVG's kernel on heights instead of slopes. Its
    edge set is a subset of the NVG's on any windows."""
    return _window_graph(HVG, windows, partial(_visibility_edges, horizontal=True))


def _bruteforce(kind: str, window: Window, sees) -> Graph:
    """Literal per-pair criterion: j is visible from i iff ``sees(values, i, j, k)``
    for every i < k < j, each anchor's pairs at once over a masked (j, k) grid."""
    values = _require_scaled(window)
    n = values.size
    visible = np.zeros((1, n, n), dtype=bool)
    for i in range(n - 1):
        j = np.arange(i + 1, n)[:, None]
        k = np.arange(i + 1, n)[None, :]
        visible[0, i, i + 1 :] = np.all(sees(values, i, j, k) | (k >= j), axis=1)
    return _window_graph(kind, [window], lambda scaled: np.nonzero(visible))


def nvg_bruteforce(window: Window) -> Graph:
    """O(n^3) oracle for build_nvg: each k lies strictly below the sight line (i, j)."""
    return _bruteforce(NVG, window, lambda v, i, j, k:
                       v[k] < v[i] + (v[j] - v[i]) * (k - i) / (j - i))


def hvg_bruteforce(window: Window) -> Graph:
    """Oracle for build_hvg: each k lies strictly below both endpoints."""
    return _bruteforce(HVG, window, lambda v, i, j, k: v[k] < np.minimum(v[i], v[j]))


def build_multigraph(
    windows: list[Window],
    similar_value_epsilon: float = DEFAULT_SIMILAR_VALUE_EPSILON,
) -> Graph:
    """Cross-ticker multigraph of one time segment: per-ticker NVGs, plus
    co-occurrence edges between tickers at equal time index and similar-value
    edges between tickers whose scaled values a, b have ``|a - b| <
    similar_value_epsilon`` (none for 0, every cross-ticker pair for inf; a
    negative or NaN epsilon raises ``ValueError`` first). Nodes with equal
    time index and exactly equal scaled value merge, numbered by first
    member; edges inside a merged node drop and parallel edges of one kind
    add up as multiplicity. The edges reach ``Graph`` sorted."""
    if not similar_value_epsilon >= 0:
        raise ValueError(f"similar_value_epsilon must be >= 0, got {similar_value_epsilon!r}")
    if not windows:
        raise ValueError("at least one window required")
    start, n = windows[0].start_index, windows[0].length
    for w in windows:
        if (w.start_index, w.length) != (start, n):
            raise SegmentMismatchError(
                f"{w.ticker}@{w.start_index} (len {w.length}) does not match "
                f"segment start {start} (len {n})"
            )
    if len({w.ticker for w in windows}) != len(windows):
        raise ValueError("duplicate ticker within one segment")

    scaled = np.stack([_require_scaled(w) for w in windows])
    flat = scaled.ravel()  # provisional node id: window position * n + time index
    time = np.tile(np.arange(n), len(windows))
    # merge nodes with equal time index and exactly equal scaled value; the
    # lexsort is stable, so each group's members stay in provisional order
    order = np.lexsort((flat, time))
    starts = np.concatenate(([True], (np.diff(time[order]) != 0)
                             | (flat[order][1:] != flat[order][:-1])))
    first = order[starts]  # each group's smallest provisional id
    remap = np.argsort(np.argsort(first))[np.cumsum(starts) - 1][np.argsort(order)]
    members = np.argsort(remap, kind="stable")
    u, v, kind, mult = _segment_edges(scaled, remap, len(first), similar_value_epsilon)
    return Graph(kind=NVMG, windows=list(windows), node_of=remap.reshape(len(windows), n),
                 node_range=np.tile([0, len(first)], (len(windows), 1)),
                 node_time=time[np.sort(first)],
                 value_ptr=np.concatenate(([0], np.cumsum(np.bincount(remap)))),
                 values=flat[members], value_window=members // n,
                 edge_u=u, edge_v=v, edge_kind=kind, edge_mult=mult)


def _segment_edges(scaled: np.ndarray, remap: np.ndarray, nodes: int, epsilon: float):
    """Sorted ``(u, v, kind, mult)`` of a segment's multigraph over its merged
    node ids: its windows' visibility, co-occurrence and similar-value edges,
    those inside a merged node dropped and parallel ones of one kind counted.
    Its temporaries, each dropped once read, are gone before the caller
    builds the ``Graph``."""
    count, n = scaled.shape
    wi, i, j = _visibility_edges(scaled)
    # co-occurrence: node pairs (a * n + t, b * n + t) of windows a < b
    a, b = np.multiply(np.triu_indices(count, 1), n)[..., None] + np.arange(n)
    p, q = _similar_value_pairs(scaled.ravel(), n, epsilon)
    sizes = (wi.size, a.size, p.size)
    u = remap[np.concatenate((wi * n + i, a.ravel(), p))]
    del i, a, p
    v = remap[np.concatenate((wi * n + j, b.ravel(), q))]
    del wi, j, b, q
    kind = np.repeat([KIND_CODE[VISIBILITY], KIND_CODE[CO_OCCURRENCE],
                      KIND_CODE[SIMILAR_VALUE]], sizes)
    key = (np.minimum(u, v) * nodes + np.maximum(u, v)) * len(EDGE_KINDS) + kind
    key = key[u != v]  # edges inside a merged node drop
    del u, v, kind
    key, mult = np.unique(key, return_counts=True)
    pair, kind = np.divmod(key, len(EDGE_KINDS))
    del key
    u, v = np.divmod(pair, nodes)
    return u, v, kind, mult


def _similar_value_pairs(flat: np.ndarray, n: int, epsilon: float):
    """Provisional ids ``(p, q)`` of the pairs of values in different windows
    (``n`` values each) with ``|a - b| < epsilon``, from one sorted sweep: each
    pair is found from its smaller value x among the y up to the rounded
    x + epsilon, ties included, and kept if the exact predicate holds across
    windows. The bound loses no pair: |x - y| rounds to the float nearest
    y - x, so a float epsilon above it exceeds y - x, and rounding x + epsilon
    is monotone."""
    by_value = np.argsort(flat, kind="stable")
    x = flat[by_value]
    reach = np.searchsorted(x, x + epsilon, "right") - np.arange(x.size) - 1
    low = np.repeat(np.arange(x.size), reach)
    high = low + 1 + np.arange(low.size) - np.repeat(np.cumsum(reach) - reach, reach)
    p, q = by_value[low], by_value[high]
    similar = (np.abs(x[low] - x[high]) < epsilon) & (p // n != q // n)
    return p[similar], q[similar]


def dump_graph(graph: Graph, path: str | Path) -> None:
    """Write an edge list and node table as plain text for inspection.

    Edge lines are ``node_u node_v kind multiplicity``; node lines are
    ``node_id time_index values tickers``, values and tickers comma-joined.
    """
    with Path(path).open("w") as fh:
        fh.write("# edges: node_u node_v kind multiplicity\n")
        kinds = map(EDGE_KINDS.__getitem__, graph.edge_kind.tolist())
        for u, v, kind, mult in zip(graph.edge_u.tolist(), graph.edge_v.tolist(), kinds,
                                    graph.edge_mult.tolist()):
            fh.write(f"{u} {v} {kind} {mult}\n")
        fh.write("# nodes: node_id time_indices values tickers\n")
        tags = [graph.windows[w].ticker for w in graph.value_window.tolist()]
        ptr = graph.value_ptr.tolist()
        for node, time in enumerate(graph.node_time.tolist()):
            vals = ",".join(repr(v) for v in graph.node_values[node])
            fh.write(f"{node} {time} {vals} {','.join(tags[ptr[node]:ptr[node + 1]])}\n")
