import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgsynth.corpus import make_desk_corpus
from vgsynth.errors import SegmentMismatchError
from vgsynth.generate import WalkConfig, generate_sequence, vrp_generate
from vgsynth.graphs import (CO_OCCURRENCE, DEFAULT_SIMILAR_VALUE_EPSILON, EDGE_KINDS,
                            KIND_CODE, NVMG, SIMILAR_VALUE, VISIBILITY, Graph,
                            _require_scaled, build_hvg, build_multigraph,
                            build_nvg, dump_graph, hvg_bruteforce, nvg_bruteforce)
from vgsynth.ingest import Window, slice_windows

from build_memory import segment_windows, traced_build
from conftest import (make_graph, make_prescaled_window, make_window,
                      random_scaled_window)


def node_tickers(graph, node):
    """Tickers of node ``node``'s values, in member order."""
    lo, hi = graph.value_ptr[node], graph.value_ptr[node + 1]
    return [graph.windows[w].ticker for w in graph.value_window[lo:hi]]


def edge_set(graph):
    """(u, v) pairs of a single window's graph, whose edges are all visibility edges."""
    assert all(kind == VISIBILITY for (_, _, kind) in graph.edges)
    return {(u, v) for (u, v, _) in graph.edges}


class TestNVG:
    def test_collinear_points_not_visible(self):
        g = build_nvg([make_window([1, 2, 3])])
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_triangle(self):
        g = build_nvg([make_window([3, 1, 2])])
        assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}

    def test_length_two_single_edge(self):
        g = build_nvg([make_window([4, 9])])
        assert edge_set(g) == {(0, 1)}

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_nvg([make_prescaled_window([0.5])])

    def test_linear_decreasing_is_path(self):
        g = build_nvg([make_window([5, 4, 3, 2, 1])])
        assert edge_set(g) == {(i, i + 1) for i in range(4)}

    def test_convex_decreasing_matches_oracle(self):
        window = make_window([16, 8, 4, 2, 1])
        assert edge_set(build_nvg([window])) == edge_set(nvg_bruteforce(window))
        # convexity opens long-range sight lines
        assert (0, 2) in edge_set(build_nvg([window]))


class TestHVG:
    def test_valley_triangle(self):
        g = build_hvg([make_window([2, 1, 2])])
        assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}

    def test_increasing_is_path(self):
        g = build_hvg([make_window([1, 2, 3])])
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_plateau_only_consecutive(self):
        g = build_hvg([make_prescaled_window([0.5, 0.5, 0.5])])
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_subset_of_nvg(self, rng):
        for _ in range(200):
            window = random_scaled_window(rng, int(rng.integers(2, 40)))
            assert edge_set(build_hvg([window])) <= edge_set(build_nvg([window]))


class TestOracleEquivalence:
    @pytest.mark.parametrize("length", [20, 60])
    def test_seeded_random_windows(self, length):
        rng = np.random.default_rng(7 + length)
        for _ in range(50):
            window = random_scaled_window(rng, length)
            assert edge_set(build_nvg([window])) == edge_set(nvg_bruteforce(window))
            assert edge_set(build_hvg([window])) == edge_set(hvg_bruteforce(window))

    def test_oracles_match_per_pair_loops(self, rng):
        # the per-pair criteria written as plain loops, on tie-heavy windows
        def loop_pairs(values, visible):
            n = len(values)
            return [(i, j) for i in range(n - 1) for j in range(i + 1, n)
                    if all(visible(values, i, j, k) for k in range(i + 1, j))]

        def nvg_visible(values, i, j, k):
            return values[k] < values[i] + (values[j] - values[i]) * (k - i) / (j - i)

        def hvg_visible(values, i, j, k):
            return values[k] < min(values[i], values[j])

        for _ in range(150):
            window = make_window(rng.integers(0, 4, int(rng.integers(2, 26))))
            values = window.scaled_values
            assert list(nvg_bruteforce(window).edges) == \
                [(i, j, VISIBILITY) for i, j in loop_pairs(values, nvg_visible)]
            assert list(hvg_bruteforce(window).edges) == \
                [(i, j, VISIBILITY) for i, j in loop_pairs(values, hvg_visible)]
            # the HVG's comparisons make no rounding, so ties must agree too;
            # the NVG's slopes and its oracle's sight-line heights can differ on
            # collinear ties, so build_nvg is not compared here
            assert build_hvg([window]).edges == hvg_bruteforce(window).edges

    def test_long_window_spans_several_anchor_blocks(self, rng):
        n = 320
        assert 2**16 // n < n - 1  # the kernel runs more than one block of anchors
        ties = make_window(rng.integers(0, 4, n))
        assert build_hvg([ties]).edges == hvg_bruteforce(ties).edges
        window = random_scaled_window(rng, n)
        assert build_nvg([window]).edges == nvg_bruteforce(window).edges
        assert build_hvg([window]).edges == hvg_bruteforce(window).edges


class TestGraphInvariants:
    def test_comparing_two_builds_does_not_raise(self, rng):
        window = random_scaled_window(rng, 20)
        first, second = build_nvg([window]), build_nvg([window])
        assert first == first and first != second  # identity, not array-valued fields
        assert first.edges == second.edges

    def test_consecutive_edges_always_present(self, rng):
        for _ in range(50):
            window = random_scaled_window(rng, int(rng.integers(2, 40)))
            for g in (build_nvg([window]), build_hvg([window])):
                for i in range(window.length - 1):
                    assert (i, i + 1, VISIBILITY) in g.edges

    def test_no_self_loops_and_connected_degrees(self, rng):
        window = random_scaled_window(rng, 30)
        g = build_nvg([window])
        assert all(u != v for u, v, _ in g.edges)
        assert all(g.neighbor_ids(i).size >= 1 for i in range(g.num_nodes))

    def test_adjacency_past_uint16_node_ids(self, rng):
        # over 2**16 nodes the CSR's stable row sort runs on int64 ids; each
        # window's rows must still be its own one-window graph's, shifted
        windows = [random_scaled_window(rng, 20) for _ in range(3300)]
        unit = build_nvg(windows)
        assert unit.num_nodes > 2**16
        for w in (0, 1700, 3299):
            one, lo = build_nvg([windows[w]]), unit.indptr[w * 20]
            np.testing.assert_array_equal(unit.indptr[w * 20:(w + 1) * 20 + 1] - lo, one.indptr)
            np.testing.assert_array_equal(unit.indices[lo:unit.indptr[(w + 1) * 20]] - w * 20,
                                          one.indices)

    def test_determinism(self, rng):
        raw = rng.random(25)
        a = build_nvg([make_window(raw)])
        b = build_nvg([make_window(raw)])
        assert a.edges == b.edges
        assert a.node_values == b.node_values


class TestMultigraph:
    def test_single_ticker_matches_nvg(self):
        window = make_window([3, 1, 2, 5], ticker="A")
        mg = build_multigraph([window])
        vg = build_nvg([window])
        assert {(u, v) for (u, v, kind) in mg.edges if kind == VISIBILITY} == edge_set(vg)
        assert not any(kind != VISIBILITY for (_, _, kind) in mg.edges)
        assert mg.num_nodes == 4

    def test_identical_windows_merge(self):
        a = make_window([1, 2], ticker="A")
        b = make_window([1, 2], ticker="B")
        mg = build_multigraph([a, b])
        assert mg.num_nodes == 2
        assert mg.edges == {(0, 1, VISIBILITY): 2}
        assert sorted(node_tickers(mg, 0)) == ["A", "B"]
        assert mg.node_values[0] == [0.0, 0.0]

    def test_similar_value_link(self):
        a = make_prescaled_window([0.0, 1.0], ticker="A")
        b = make_prescaled_window([0.999, 0.5], ticker="B")
        mg = build_multigraph([a, b], similar_value_epsilon=0.01)
        # node ids: A0=0, A1=1, B0=2, B1=3 (no merges)
        assert (1, 2, SIMILAR_VALUE) in mg.edges
        similar = [e for e in mg.edges if e[2] == SIMILAR_VALUE]
        assert similar == [(1, 2, SIMILAR_VALUE)]

    def test_co_occurrence_links_equal_time(self):
        a = make_prescaled_window([0.1, 0.9], ticker="A")
        b = make_prescaled_window([0.4, 0.6], ticker="B")
        mg = build_multigraph([a, b])
        co = {(u, v) for (u, v, kind) in mg.edges if kind == CO_OCCURRENCE}
        assert co == {(0, 2), (1, 3)}

    def test_value_conservation(self, rng):
        windows = [random_scaled_window(rng, 12, ticker=f"T{i}") for i in range(5)]
        mg = build_multigraph(windows)
        node_values = sorted(v for values in mg.node_values for v in values)
        window_values = sorted(v for w in windows for v in w.scaled_values)
        np.testing.assert_array_equal(node_values, window_values)

    def test_consecutive_edges_per_ticker(self, rng):
        windows = [random_scaled_window(rng, 10, ticker=f"T{i}") for i in range(3)]
        mg = build_multigraph(windows)
        for row in mg.node_of.tolist():
            for t in range(9):
                u, v = row[t], row[t + 1]
                assert (min(u, v), max(u, v), VISIBILITY) in mg.edges

    def test_segment_mismatch(self):
        a = make_window([1, 2, 3], ticker="A", start=0)
        b = make_window([1, 2, 3], ticker="B", start=3)
        with pytest.raises(SegmentMismatchError):
            build_multigraph([a, b])

    def test_merged_cross_edges_become_self_loops_and_drop(self):
        # equal values at equal times merge; their co-occurrence/similar
        # links vanish instead of becoming self-loops
        a = make_prescaled_window([0.2, 0.8], ticker="A")
        b = make_prescaled_window([0.2, 0.8], ticker="B")
        mg = build_multigraph([a, b], similar_value_epsilon=0.05)
        kinds = {kind for (_, _, kind) in mg.edges}
        assert kinds == {VISIBILITY}
        assert mg.num_nodes == 2

    @pytest.mark.parametrize("epsilon", [-0.1, -1e-300, float("nan"), float("-inf")])
    def test_negative_or_nan_epsilon_rejected_before_any_work(self, epsilon):
        # no windows at all: the epsilon is checked first
        message = f"similar_value_epsilon must be >= 0, got {epsilon!r}"
        with pytest.raises(ValueError, match=message):
            build_multigraph([], similar_value_epsilon=epsilon)
        windows = [make_prescaled_window([0.2, 0.8], ticker=t) for t in "AB"]
        with pytest.raises(ValueError, match=f"got {epsilon!r}"):
            build_multigraph(windows, similar_value_epsilon=epsilon)

    def test_zero_epsilon_links_no_values(self):
        a = make_prescaled_window([0.2, 0.8, 0.5], ticker="A")
        b = make_prescaled_window([0.8, 0.2, 0.5], ticker="B")  # 0.5 merges at time 2
        mg = build_multigraph([a, b], similar_value_epsilon=0.0)
        assert not any(kind == SIMILAR_VALUE for (_, _, kind) in mg.edges)

    def test_infinite_epsilon_links_every_cross_window_pair(self, rng):
        windows = [random_scaled_window(rng, 7, ticker=f"T{i}") for i in range(3)]
        mg = build_multigraph(windows, similar_value_epsilon=float("inf"))
        assert mg.num_nodes == 21  # continuous values: no merges
        similar = {(u, v) for (u, v, kind) in mg.edges if kind == SIMILAR_VALUE}
        assert similar == {(u, v) for u in range(21) for v in range(u + 1, 21) if u // 7 != v // 7}


def test_a_window_made_from_prices_needs_no_scaling_step():
    a = Window("A", 0, [3.0, 1.0, 2.0, 5.0])
    b = Window("B", 0, [10.0, 30.0, 20.0, 40.0])
    assert set(build_nvg([a]).edges) == set(nvg_bruteforce(a).edges)
    assert set(build_hvg([a]).edges) == set(hvg_bruteforce(a).edges)
    mg = build_multigraph([a, b])
    assert sorted(mg.values) == sorted([*a.scaled_values, *b.scaled_values])
    seq = vrp_generate(a, seed=1)
    np.testing.assert_array_equal(np.sort(seq.values), np.sort(a.raw_values))
    np.testing.assert_array_equal(np.sort(seq.scaled_values), np.sort(a.scaled_values))


def test_dump_graph_format(tmp_path, rng):
    window = random_scaled_window(rng, 8)
    path = tmp_path / "graph.txt"
    graph = build_nvg([window])
    dump_graph(graph, path)
    assert "edges" not in graph.__dict__  # written from the edge arrays, no dict view kept
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# edges:")
    edge_lines = [l for l in lines if not l.startswith("#") and l.count(" ") == 3]
    parts = edge_lines[0].split()
    assert parts[2] == VISIBILITY and parts[3] == "1"
    assert any(l.startswith("# nodes:") for l in lines)


class TestGraphConstructor:
    """Each bad edge raises a ValueError naming it, before any adjacency is built."""

    VIS, SIM, CO = (KIND_CODE[k] for k in (VISIBILITY, SIMILAR_VALUE, CO_OCCURRENCE))

    @pytest.mark.parametrize("u, v, kind, mult, message", [
        ([0, 1], [1, 5], [VIS, VIS], [1, 1], r"\(1, 5, visibility\): node id not in 0..2"),
        ([0, 1], [1, 0], [VIS, VIS], [1, 1], r"\(1, 0, visibility\): endpoints must be ordered"),
        ([0, 1], [1, 2], [VIS, 3], [1, 1], r"\(1, 2, kind code 3\): unknown edge kind"),
        ([0, 1], [1, 2], [VIS, VIS], [1, 0], r"\(1, 2, visibility\): multiplicity must be >= 1"),
        ([0, 2], [1, 2], [VIS, VIS], [1, 1], r"\(2, 2, visibility\): self-loop"),
        ([0, 1, 1], [1, 2, 2], [VIS] * 3, [1, 1, 1], r"\(1, 2, visibility\): duplicate edge"),
        # the constructor takes the edges as given and never sorts them
        ([1, 0, 0], [2, 2, 1], [VIS, SIM, VIS], [1] * 3,
         r"\(0, 2, similar_value\): edges not sorted by \(u, v, kind\)"),
        ([0, 0], [1, 1], [VIS, CO], [1] * 2,
         r"\(0, 1, co_occurrence\): edges not sorted by \(u, v, kind\)"),
        # the first key that does not exceed the one before names the edge
        ([1, 0, 0, 0], [2, 1, 2, 2], [VIS] * 4, [1] * 4,
         r"\(0, 1, visibility\): edges not sorted by \(u, v, kind\)"),
        ([0, 0, 1, 0], [1, 1, 2, 2], [VIS] * 4, [1] * 4, r"\(0, 1, visibility\): duplicate edge"),
    ], ids=["out_of_range", "reversed", "unknown_kind", "zero_multiplicity", "self_loop",
            "duplicate", "unsorted_by_endpoints", "unsorted_by_kind", "unsorted_before_duplicate",
            "duplicate_before_unsorted"])
    def test_bad_edge_rejected(self, u, v, kind, mult, message):
        with pytest.raises(ValueError, match="^edge " + message):
            make_graph([[0.0], [0.5], [1.0]], u, v, kind, mult)

    def test_builders_hand_over_sorted_edges(self, rng, monkeypatch):
        # every builder's (u, v, kind) keys strictly increase, as the
        # constructor, which never sorts, requires; 150 points run the
        # visibility kernel in blocks
        keys_increase = []
        post_init = Graph.__post_init__

        def spy(graph):
            key = ((graph.edge_u * graph.num_nodes + graph.edge_v) * len(EDGE_KINDS)
                   + graph.edge_kind)
            keys_increase.append(bool((key[1:] > key[:-1]).all()))
            post_init(graph)

        monkeypatch.setattr(Graph, "__post_init__", spy)
        for n in (20, 150):
            ties = [make_window(rng.integers(0, 4, n), ticker=f"T{i}") for i in range(6)]
            smooth = [random_scaled_window(rng, n, ticker=f"T{i}") for i in range(6)]
            for windows in (ties, smooth):
                for build in (build_nvg, build_hvg, build_multigraph):
                    build(windows)
        assert keys_increase == [True] * 12

    def test_edges_view_is_read_only(self, rng):
        g = build_nvg([random_scaled_window(rng, 10)])
        with pytest.raises(TypeError):
            g.edges[(0, 1, VISIBILITY)] = 2


# The dict-based multigraph build and adjacency that the array-backed Graph
# replaced, kept verbatim as the reference the array build must equal.

@dataclass
class GraphNode:
    """One graph node; holds several values only after multigraph merging."""

    node_id: int
    time_indices: list[int]
    values: list[float]
    ticker_tags: list[str]


@dataclass(eq=False)
class ReferenceGraph:
    """The dict-keyed graph: ``edges`` maps (u, v, kind) with u < v to
    multiplicity, and the constructor builds per-node sorted neighbour,
    multiplicity and cross-ticker arrays."""

    kind: str
    segment: tuple[int, int]  # (start_index, length)
    tickers: list[str]
    nodes: list[GraphNode]
    edges: dict[tuple[int, int, str], int]
    merge_map: dict[tuple[str, int], int]
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


def reference_build_multigraph(
    windows: list[Window],
    similar_value_epsilon: float = DEFAULT_SIMILAR_VALUE_EPSILON,
) -> ReferenceGraph:
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
        vg = build_nvg([w])
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

    return ReferenceGraph(
        kind=NVMG,
        segment=(start, length),
        tickers=tickers,
        nodes=nodes,
        edges=edges,
        merge_map=merge_map,
    )


def reference_dump_graph(graph: ReferenceGraph, path: str | Path) -> None:
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


def reference_nvg_pairs(window: Window) -> list[tuple[int, int]]:
    """The per-anchor slope loop that ``build_nvg`` replaced; its float
    decisions are the ones the golden outputs pin."""
    values = _require_scaled(window)
    n = values.size
    pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        span = np.arange(i + 1, n)
        slopes = (values[i + 1 :] - values[i]) / (span - i)
        blockers = np.concatenate(([-np.inf], np.maximum.accumulate(slopes)[:-1]))
        for j in span[slopes > blockers]:
            pairs.append((i, int(j)))
    return pairs


def assert_matches_reference(windows, similar_value_epsilon=DEFAULT_SIMILAR_VALUE_EPSILON):
    """The array build equals the reference in edges, node numbering, node
    values and ticker tags in member order, merge_map, per-node neighbour,
    multiplicity and cross arrays, and ``dump_graph`` bytes; each window's
    ``build_nvg`` edges equal the per-anchor loop's."""
    ref = reference_build_multigraph(windows, similar_value_epsilon)
    mg = build_multigraph(windows, similar_value_epsilon)
    assert mg.edges == ref.edges
    assert list(mg.edges) == sorted(ref.edges)
    assert mg.num_nodes == len(ref.nodes)
    for node in ref.nodes:
        i = node.node_id
        assert [int(mg.node_time[i])] == node.time_indices
        assert [v.hex() for v in mg.node_values[i]] == [v.hex() for v in node.values]
        assert node_tickers(mg, i) == node.ticker_tags
        for got, want in ((mg.neighbor_ids(i), ref._adjacency[i]),
                          (mg.mult[mg.indptr[i]:mg.indptr[i + 1]], ref._multiplicities[i]),
                          (mg.cross_indices[mg.cross_indptr[i]:mg.cross_indptr[i + 1]],
                           ref._cross[i])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    assert {(w.ticker, t): node for w, row in zip(mg.windows, mg.node_of.tolist())
            for t, node in enumerate(row)} == ref.merge_map
    for w in windows:
        assert list(build_nvg([w]).edges) == [(i, j, VISIBILITY) for i, j in reference_nvg_pairs(w)]
    with tempfile.TemporaryDirectory() as tmp:
        dump_graph(mg, Path(tmp) / "array.txt")
        reference_dump_graph(ref, Path(tmp) / "reference.txt")
        assert (Path(tmp) / "array.txt").read_bytes() == (Path(tmp) / "reference.txt").read_bytes()
    return mg


def test_multigraph_matches_reference_on_desk_segments():
    by_start = defaultdict(list)
    for series in make_desk_corpus(20, 500, seed=2024):
        for w in slice_windows(series, 20):
            by_start[w.start_index].append(w)
    assert len(by_start) == 25
    for start in sorted(by_start):
        assert_matches_reference(by_start[start])


def test_multigraph_matches_reference_across_blocks(rng):
    # 4 windows of 150 points: the NVG anchors and the later nodes that a
    # source window is compared with both span more than one 2**16-entry block
    windows = [make_window(rng.integers(0, 4, 150), ticker=f"T{i}") for i in range(4)]
    assert_matches_reference(windows, similar_value_epsilon=0.34)


# tie-heavy integer windows: equal values at equal times merge, so edges
# collapse onto merged nodes and parallel edges add up
tie_segments = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
                       min_size=1, max_size=4)
).map(lambda rows: [make_window(row, ticker=f"T{i}", start=11)
                    for i, row in enumerate(rows)])


@settings(deadline=None)
@given(segment=tie_segments, epsilon=st.sampled_from([0.0, 0.01, 0.34, 1.5]))
def test_multigraph_matches_reference_on_ties(segment, epsilon):
    mg = assert_matches_reference(segment, epsilon)
    for row in mg.node_of.tolist():  # consecutive points stay linked through merging
        for t in range(segment[0].length - 1):
            u, v = row[t], row[t + 1]
            assert v in mg.neighbor_ids(u)


@st.composite
def ties_and_boundary_epsilon(draw):
    """A tie-heavy segment and an epsilon at the edge of its similar-value
    predicate: one of its pairwise scaled differences as is or one ulp off,
    or 0 or inf."""
    segment = draw(tie_segments)
    values = np.concatenate([w.scaled_values for w in segment])
    difference = draw(st.sampled_from(np.unique(np.abs(values[:, None] - values)).tolist()))
    nudged = [np.nextafter(difference, -np.inf), difference, np.nextafter(difference, np.inf)]
    epsilon = draw(st.sampled_from([0.0, np.inf] + [float(e) for e in nudged if e >= 0]))
    return segment, epsilon


@settings(deadline=None)
@given(case=ties_and_boundary_epsilon())
def test_similar_value_sweep_is_exact_at_its_boundary(case):
    segment, epsilon = case
    assert_matches_reference(segment, epsilon)


def test_multigraph_build_memory():
    # 112,294 edges; a build that kept every temporary alive through the
    # Graph constructor and summed the CSR multiplicities up front peaked at
    # 26.6 MiB traced and left 8.7 MiB in the graph
    graph, peak, retained = traced_build(segment_windows())
    assert graph.edge_u.size == 112_294
    assert peak <= 26.6 * 2**20 / 2
    assert retained < 8.7 * 2**20
    # only degree-weighted walks make the multiplicities
    generate_sequence(graph, WalkConfig(node_strategy="random_neighbor_graph_switching"),
                      window=3, seed=1)
    assert "mult" not in graph.__dict__
