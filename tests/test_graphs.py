import numpy as np
import pytest

from vgsynth.errors import SegmentMismatchError
from vgsynth.graphs import (CO_OCCURRENCE, SIMILAR_VALUE, VISIBILITY,
                            build_hvg, build_multigraph, build_nvg,
                            dump_graph, hvg_bruteforce, nvg_bruteforce)

from conftest import make_prescaled_window, make_scaled_window, random_scaled_window


def edge_set(graph):
    """(u, v) pairs of a single window's graph, whose edges are all visibility edges."""
    assert all(kind == VISIBILITY for (_, _, kind) in graph.edges)
    return {(u, v) for (u, v, _) in graph.edges}


class TestNVG:
    def test_collinear_points_not_visible(self):
        g = build_nvg(make_scaled_window([1, 2, 3]))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_triangle(self):
        g = build_nvg(make_scaled_window([3, 1, 2]))
        assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}

    def test_length_two_single_edge(self):
        g = build_nvg(make_scaled_window([4, 9]))
        assert edge_set(g) == {(0, 1)}

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_nvg(make_prescaled_window([0.5]))

    def test_linear_decreasing_is_path(self):
        g = build_nvg(make_scaled_window([5, 4, 3, 2, 1]))
        assert edge_set(g) == {(i, i + 1) for i in range(4)}

    def test_convex_decreasing_matches_oracle(self):
        window = make_scaled_window([16, 8, 4, 2, 1])
        assert edge_set(build_nvg(window)) == edge_set(nvg_bruteforce(window))
        # convexity opens long-range sight lines
        assert (0, 2) in edge_set(build_nvg(window))


class TestHVG:
    def test_valley_triangle(self):
        g = build_hvg(make_scaled_window([2, 1, 2]))
        assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}

    def test_increasing_is_path(self):
        g = build_hvg(make_scaled_window([1, 2, 3]))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_plateau_only_consecutive(self):
        g = build_hvg(make_prescaled_window([0.5, 0.5, 0.5]))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_subset_of_nvg(self, rng):
        for _ in range(200):
            window = random_scaled_window(rng, int(rng.integers(2, 40)))
            assert edge_set(build_hvg(window)) <= edge_set(build_nvg(window))


class TestOracleEquivalence:
    @pytest.mark.parametrize("length", [20, 60])
    def test_seeded_random_windows(self, length):
        rng = np.random.default_rng(7 + length)
        for _ in range(50):
            window = random_scaled_window(rng, length)
            assert edge_set(build_nvg(window)) == edge_set(nvg_bruteforce(window))
            assert edge_set(build_hvg(window)) == edge_set(hvg_bruteforce(window))

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
            window = make_scaled_window(rng.integers(0, 4, int(rng.integers(2, 26))))
            values = window.scaled_values
            assert list(nvg_bruteforce(window).edges) == \
                [(i, j, VISIBILITY) for i, j in loop_pairs(values, nvg_visible)]
            assert list(hvg_bruteforce(window).edges) == \
                [(i, j, VISIBILITY) for i, j in loop_pairs(values, hvg_visible)]


class TestGraphInvariants:
    def test_comparing_two_builds_does_not_raise(self, rng):
        window = random_scaled_window(rng, 20)
        first, second = build_nvg(window), build_nvg(window)
        assert first == first and first != second  # identity, not array-valued fields
        assert first.edges == second.edges

    def test_consecutive_edges_always_present(self, rng):
        for _ in range(50):
            window = random_scaled_window(rng, int(rng.integers(2, 40)))
            for g in (build_nvg(window), build_hvg(window)):
                for i in range(window.length - 1):
                    assert (i, i + 1, VISIBILITY) in g.edges

    def test_no_self_loops_and_connected_degrees(self, rng):
        window = random_scaled_window(rng, 30)
        g = build_nvg(window)
        assert all(u != v for u, v, _ in g.edges)
        assert all(g.neighbor_ids(n.node_id).size >= 1 for n in g.nodes)

    def test_determinism(self, rng):
        raw = rng.random(25)
        a = build_nvg(make_scaled_window(raw))
        b = build_nvg(make_scaled_window(raw))
        assert a.edges == b.edges
        assert [n.values for n in a.nodes] == [n.values for n in b.nodes]


class TestMultigraph:
    def test_single_ticker_matches_nvg(self):
        window = make_scaled_window([3, 1, 2, 5], ticker="A")
        mg = build_multigraph([window])
        vg = build_nvg(window)
        assert {(u, v) for (u, v, kind) in mg.edges if kind == VISIBILITY} == edge_set(vg)
        assert not any(kind != VISIBILITY for (_, _, kind) in mg.edges)
        assert mg.num_nodes == 4

    def test_identical_windows_merge(self):
        a = make_scaled_window([1, 2], ticker="A")
        b = make_scaled_window([1, 2], ticker="B")
        mg = build_multigraph([a, b])
        assert mg.num_nodes == 2
        assert mg.edges == {(0, 1, VISIBILITY): 2}
        assert sorted(mg.nodes[0].ticker_tags) == ["A", "B"]
        assert mg.nodes[0].values == [0.0, 0.0]

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
        node_values = sorted(v for n in mg.nodes for v in n.values)
        window_values = sorted(v for w in windows for v in w.scaled_values)
        np.testing.assert_array_equal(node_values, window_values)

    def test_consecutive_edges_per_ticker(self, rng):
        windows = [random_scaled_window(rng, 10, ticker=f"T{i}") for i in range(3)]
        mg = build_multigraph(windows)
        for ticker in mg.tickers:
            for t in range(9):
                u = mg.merge_map[(ticker, t)]
                v = mg.merge_map[(ticker, t + 1)]
                assert (min(u, v), max(u, v), VISIBILITY) in mg.edges

    def test_segment_mismatch(self):
        a = make_scaled_window([1, 2, 3], ticker="A", start=0)
        b = make_scaled_window([1, 2, 3], ticker="B", start=3)
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


def test_dump_graph_format(tmp_path, rng):
    window = random_scaled_window(rng, 8)
    path = tmp_path / "graph.txt"
    dump_graph(build_nvg(window), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# edges:")
    edge_lines = [l for l in lines if not l.startswith("#") and l.count(" ") == 3]
    parts = edge_lines[0].split()
    assert parts[2] == VISIBILITY and parts[3] == "1"
    assert any(l.startswith("# nodes:") for l in lines)
