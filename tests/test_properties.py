"""Property tests over random inputs: a one-window multigraph is that
window's NVG, walks cannot tell the two apart, HVG edges are NVG edges, NVG
and HVG link every pair of consecutive points, walks emit only node values,
DTW is symmetric and 0 on itself, AUC ignores a positive rescaling of the
scores, and min-max scaling inverts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vgsynth.evaluate import roc_auc
from vgsynth.generate import (NODE_STRATEGIES, RESTART_JUMPS, VALUE_POLICIES,
                              WalkConfig, dtw_distance, generate_sequence)
from vgsynth.graphs import build_hvg, build_multigraph, build_nvg
from vgsynth.ingest import inverse_scale

from conftest import make_scaled_window

# a small pool of values makes repeats (plateaus, equal peaks) common
prices = st.one_of(st.sampled_from([1.0, 2.0, 3.0]),
                   st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False, allow_infinity=False))
windows = st.builds(
    make_scaled_window,
    st.lists(prices, min_size=2, max_size=60),
    ticker=st.sampled_from(["A", "BB"]),
    start=st.integers(min_value=0, max_value=500),
)
# windows on three price levels only: plateaus, equal peaks and collinear
# runs everywhere
tie_heavy_windows = st.builds(
    make_scaled_window, st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=2, max_size=60))
# 1-3 tickers' windows of one time segment
segments = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(st.lists(prices, min_size=n, max_size=n), min_size=1, max_size=3)
).map(lambda rows: [make_scaled_window(row, ticker=f"T{i}", start=40)
                    for i, row in enumerate(rows)])
walks = st.builds(
    WalkConfig,
    node_strategy=st.sampled_from(NODE_STRATEGIES),
    value_policy=st.sampled_from(VALUE_POLICIES),
    target_length=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32),
    restart_prob=st.floats(min_value=0.0, max_value=1.0),
    restart_jump=st.sampled_from(RESTART_JUMPS),
)


@settings(deadline=None)
@given(window=windows)
def test_one_window_multigraph_is_its_nvg(window):
    nvg, mg = build_nvg(window), build_multigraph([window])
    assert mg.edges == nvg.edges
    assert mg.num_nodes == nvg.num_nodes
    for node in range(nvg.num_nodes):
        np.testing.assert_array_equal(mg.neighbor_ids(node), nvg.neighbor_ids(node))


@settings(deadline=None)
@given(window=windows, walk=walks)
def test_walks_agree_on_nvg_and_one_window_multigraph(window, walk):
    on_nvg = generate_sequence(build_nvg(window), walk)
    on_mg = generate_sequence(build_multigraph([window]), walk, ticker=window.ticker)
    np.testing.assert_array_equal(on_mg.values, on_nvg.values)
    np.testing.assert_array_equal(on_mg.scaled_values, on_nvg.scaled_values)
    assert (on_mg.ticker, on_mg.window_start) == (on_nvg.ticker, on_nvg.window_start) \
        == (window.ticker, window.start_index)


@settings(deadline=None)
@given(window=windows)
def test_hvg_edges_are_nvg_edges(window):
    assert set(build_hvg(window).edges) <= set(build_nvg(window).edges)


@settings(deadline=None)
@given(window=st.one_of(tie_heavy_windows, windows))
def test_nvg_and_hvg_link_consecutive_points(window):
    for graph in (build_nvg(window), build_hvg(window)):
        linked = set(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
        assert all((i, i + 1) in linked for i in range(window.length - 1))


@settings(deadline=None)
@given(segment=segments, walk=walks)
def test_walk_values_are_node_values(segment, walk):
    for graph, ticker in ((build_nvg(segment[0]), None), (build_hvg(segment[0]), None),
                          (build_multigraph(segment), segment[-1].ticker)):
        node_values = set(graph.values.tolist())
        seq = generate_sequence(graph, walk, ticker=ticker)
        assert set(seq.scaled_values.tolist()) <= node_values


@settings(deadline=None)
@given(a=st.lists(prices, min_size=1, max_size=12), b=st.lists(prices, min_size=1, max_size=12))
def test_dtw_symmetric_and_zero_on_itself(a, b):
    assert dtw_distance(a, b) == dtw_distance(b, a)
    assert dtw_distance(a, a) == 0.0


@settings(deadline=None)
@given(scored=st.lists(st.tuples(prices, st.integers(min_value=0, max_value=1)),
                       min_size=2, max_size=40)
       .filter(lambda rows: len({label for _, label in rows}) == 2))
def test_auc_unchanged_by_doubling_scores(scored):
    scores, labels = np.array([s for s, _ in scored]), [label for _, label in scored]
    assert roc_auc(2.0 * scores, labels) == roc_auc(scores, labels)


@settings(deadline=None)
@given(raw=st.lists(prices, min_size=1, max_size=60))
def test_minmax_scale_inverts(raw):
    # rounding happens at the window's scale: [1e-4, -2048.0] restores 1e-4 as
    # 1.0000000002e-4, so the tolerance is relative to the largest magnitude
    restored = inverse_scale(make_scaled_window(raw)).raw_values
    np.testing.assert_allclose(restored, raw, rtol=0, atol=1e-9 * np.abs(raw).max())
