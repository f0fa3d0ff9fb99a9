"""Property tests over random windows: a one-window multigraph is that
window's NVG, walks cannot tell the two apart, and HVG edges are NVG edges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vgsynth.generate import (NODE_STRATEGIES, RESTART_JUMPS, VALUE_POLICIES,
                              WalkConfig, generate_sequence)
from vgsynth.graphs import build_hvg, build_multigraph, build_nvg

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
