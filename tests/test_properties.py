"""Property tests over random inputs: a one-window multigraph is that
window's NVG, walks cannot tell the two apart, HVG edges are NVG edges, NVG
and HVG link every pair of consecutive points, each window's block of a
unit's NVG or HVG is that window's graph built alone, walks emit only node values,
DTW is symmetric and 0 on itself, ``ds_indices`` names the candidates DS
downsampling keeps, AUC ignores a positive rescaling of the scores, min-max
scaling inverts, and ``load_series`` names the line of the one bad row in a
file while loading shuffled rows with runs of missing closes."""

import math
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vgsynth.errors import DuplicateRowError, SchemaError
from vgsynth.evaluate import roc_auc
from vgsynth.generate import (NODE_STRATEGIES, RESTART_JUMPS, VALUE_POLICIES,
                              SyntheticSequence, WalkConfig, downsample, ds_indices,
                              dtw_distance, generate_sequence)
from vgsynth.graphs import build_hvg, build_multigraph, build_nvg
from vgsynth.ingest import Window, inverse_transform, load_series, slice_windows

from conftest import make_window

# a small pool of values makes repeats (plateaus, equal peaks) common
prices = st.one_of(st.sampled_from([1.0, 2.0, 3.0]),
                   st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False, allow_infinity=False))
windows = st.builds(
    make_window,
    st.lists(prices, min_size=2, max_size=60),
    ticker=st.sampled_from(["A", "BB"]),
    start=st.integers(min_value=0, max_value=500),
)
# windows on three price levels only: plateaus, equal peaks and collinear
# runs everywhere
tie_heavy_windows = st.builds(
    make_window, st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=2, max_size=60))
# 1-3 tickers' windows of one time segment
segments = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(st.lists(prices, min_size=n, max_size=n), min_size=1, max_size=3)
).map(lambda rows: [make_window(row, ticker=f"T{i}", start=40)
                    for i, row in enumerate(rows)])
# 1-4 windows of one ticker: each row continuous-or-tied or on three levels
units = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(st.one_of(st.lists(prices, min_size=n, max_size=n),
                                 st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n,
                                          max_size=n)),
                       min_size=1, max_size=4)
).map(lambda rows: [make_window(row, ticker="U", start=w * len(row))
                    for w, row in enumerate(rows)])
# (config, the walk's seed and length)
walks = st.tuples(
    st.builds(WalkConfig,
              node_strategy=st.sampled_from(NODE_STRATEGIES),
              value_policy=st.sampled_from(VALUE_POLICIES),
              restart_prob=st.floats(min_value=0.0, max_value=1.0),
              restart_jump=st.sampled_from(RESTART_JUMPS)),
    st.fixed_dictionaries({"seed": st.integers(min_value=0, max_value=2**32),
                           "length": st.integers(min_value=1, max_value=80)}),
)


@settings(deadline=None)
@given(window=windows)
def test_one_window_multigraph_is_its_nvg(window):
    nvg, mg = build_nvg([window]), build_multigraph([window])
    assert mg.edges == nvg.edges
    assert mg.num_nodes == nvg.num_nodes
    for node in range(nvg.num_nodes):
        np.testing.assert_array_equal(mg.neighbor_ids(node), nvg.neighbor_ids(node))


@settings(deadline=None)
@given(window=windows, walk=walks)
def test_walks_agree_on_nvg_and_one_window_multigraph(window, walk):
    config, run = walk
    on_nvg = generate_sequence(build_nvg([window]), config, **run)
    on_mg = generate_sequence(build_multigraph([window]), config, **run)
    np.testing.assert_array_equal(on_mg.values, on_nvg.values)
    np.testing.assert_array_equal(on_mg.scaled_values, on_nvg.scaled_values)
    assert (on_mg.ticker, on_mg.window_start) == (on_nvg.ticker, on_nvg.window_start) \
        == (window.ticker, window.start_index)


@settings(deadline=None)
@given(window=windows)
def test_hvg_edges_are_nvg_edges(window):
    assert set(build_hvg([window]).edges) <= set(build_nvg([window]).edges)


@settings(deadline=None)
@given(window=st.one_of(tie_heavy_windows, windows))
def test_nvg_and_hvg_link_consecutive_points(window):
    for graph in (build_nvg([window]), build_hvg([window])):
        linked = set(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
        assert all((i, i + 1) in linked for i in range(window.length - 1))


@settings(deadline=None)
@given(windows=units)
def test_unit_graph_blocks_are_the_windows_graphs(windows):
    """Window w's block, shifted back by its node offset, holds exactly the
    edges of window w built alone (the one-window build, since the brute
    force differs from it on collinear ties), and no edge joins two windows."""
    for build in (build_nvg, build_hvg):
        unit = build(windows)
        assert unit.num_nodes == sum(w.length for w in windows)
        for w, window in enumerate(windows):
            lo, hi = unit.node_range[w].tolist()
            assert unit.node_of[w].tolist() == list(range(lo, hi))
            assert unit.values[lo:hi].tolist() == window.scaled_values.tolist()
            u_inside = (unit.edge_u >= lo) & (unit.edge_u < hi)
            v_inside = (unit.edge_v >= lo) & (unit.edge_v < hi)
            assert (u_inside == v_inside).all()  # no edge leaves the block
            block = {(u - lo, v - lo, kind): mult for (u, v, kind), mult in unit.edges.items()
                     if lo <= u < hi}
            assert block == build([window]).edges


@settings(deadline=None)
@given(segment=segments, walk=walks)
def test_walk_values_are_node_values(segment, walk):
    for graph, window in ((build_nvg([segment[0]]), 0), (build_hvg([segment[0]]), 0),
                          (build_multigraph(segment), len(segment) - 1)):
        node_values = set(graph.values.tolist())
        seq = generate_sequence(graph, walk[0], window=window, **walk[1])
        assert set(seq.scaled_values.tolist()) <= node_values


@settings(deadline=None)
@given(a=st.lists(prices, min_size=1, max_size=12), b=st.lists(prices, min_size=1, max_size=12))
def test_dtw_symmetric_and_zero_on_itself(a, b):
    assert dtw_distance(a, b) == dtw_distance(b, a)
    assert dtw_distance(a, a) == 0.0


@settings(deadline=None)
@given(n_k=st.integers(min_value=1, max_value=40).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))),
       seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_ds_indices_are_the_positions_ds_keeps(n_k, seed):
    """``ds_indices`` draws k sorted distinct positions of n, and
    ``downsample`` keeps every candidate generated at them."""
    n, k = n_k
    picked = ds_indices(n, k, seed)
    assert picked == sorted(set(picked)) and len(picked) == k and set(picked) <= set(range(n))
    candidates = [SyntheticSequence(values=[float(i)], scaled_values=None, method="vrp",
                                    ticker="T", window_start=0, seed=i) for i in picked]
    kept = downsample(candidates, [make_window([0.0, 1.0])], k=k)
    assert [seq.seed for seq in kept] == picked


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
    w = make_window(raw)
    restored = inverse_transform(w.scaled_values, w.scale_min, w.scale_max)
    np.testing.assert_allclose(restored, raw, rtol=0, atol=1e-9 * np.abs(raw).max())


@settings(deadline=None)
@given(raw=st.one_of(st.lists(prices, min_size=1, max_size=60),
                     st.builds(lambda value, n: [value] * n, prices,
                               st.integers(min_value=1, max_value=60))),
       ticker=st.sampled_from(["A", "BB"]), start=st.integers(min_value=0, max_value=500))
@example(raw=[5.0], ticker="A", start=0)
@example(raw=[7.0, 7.0, 7.0], ticker="A", start=0)
def test_window_scales_itself_as_minmax_scale_did(raw, ticker, start):
    """A window made from its prices alone holds the bytes the former
    ``minmax_scale`` computed: float min and max, and (x - min) / (max - min),
    or 0.5 everywhere for a constant (or one-value) window."""
    arr = np.asarray(raw, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    expected = (arr - lo) / (hi - lo) if hi > lo else np.full_like(arr, 0.5)
    w = Window(ticker, start, raw)
    assert type(w.scale_min) is float and type(w.scale_max) is float
    assert (w.scale_min.hex(), w.scale_max.hex()) == (lo.hex(), hi.hex())
    assert w.scaled_values.dtype == np.float64
    assert w.scaled_values.tobytes() == expected.tobytes()


@st.composite
def corpora(draw):
    """One to three tickers' daily closes from 2021-01-01, each with a run
    (possibly empty) of missing closes."""
    tickers = draw(st.lists(st.sampled_from(["A", "BB", "C"]), min_size=1, max_size=3,
                            unique=True))
    corpus = {}
    for ticker in tickers:
        n = draw(st.integers(min_value=1, max_value=25))
        values = draw(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=n, max_size=n))
        gap = draw(st.integers(min_value=0, max_value=n))
        for i in range(gap, min(n, gap + draw(st.integers(min_value=0, max_value=6)))):
            values[i] = math.nan
        corpus[ticker] = values
    return corpus


def corpus_rows(corpus, data) -> list[str]:
    """The corpus as ``date,ticker,close`` rows in a drawn order; a missing
    close is written as one of the spellings load_series reads as NaN."""
    rows = []
    for ticker, values in corpus.items():
        for i, value in enumerate(values):
            close = (data.draw(st.sampled_from(["", "nan", "n/a"])) if math.isnan(value)
                     else repr(value))
            rows.append(f"{(date(2021, 1, 1) + timedelta(days=i)).isoformat()},{ticker},{close}")
    return data.draw(st.permutations(rows))


def load_rows(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text("date,ticker,close\n" + "\n".join(rows) + "\n")
        try:
            return path, load_series(path), None
        except ValueError as exc:
            return path, None, exc


# rows that fail on their own, each with the header's field count unless it
# is the field count that is wrong
BAD_ROWS = {
    "bad date": ["2021-13-01,A,1.0", "01/02/2021,BB,2.0", ",C,3.0", "2021-02-30,A,"],
    "blank ticker": ["2021-01-02,,1.0", "2021-01-02,  ,n/a"],
    "field count": ["2021-01-02,A", "2021-01-02,A,1.0,9", "2021-01-02"],
}


@settings(deadline=None)
@given(corpus=corpora(), data=st.data())
def test_one_bad_row_fails_naming_its_line(corpus, data):
    rows = corpus_rows(corpus, data)
    kind = data.draw(st.sampled_from(["duplicate key", *BAD_ROWS]))
    if kind == "duplicate key":
        first = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        at = data.draw(st.integers(min_value=first + 1, max_value=len(rows)))
        key = rows[first].rsplit(",", 1)[0]
        rows.insert(at, f"{key},{data.draw(st.sampled_from(['1.0', '']))}")
    else:
        at = data.draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(at, data.draw(st.sampled_from(BAD_ROWS[kind])))
    path, _, exc = load_rows(rows)
    # line 1 is the header
    assert str(exc).startswith(f"{path}:{at + 2}: ")
    if kind == "duplicate key":
        assert isinstance(exc, DuplicateRowError)
        assert str(exc).endswith(f", first on line {first + 2}")
    else:
        assert isinstance(exc, SchemaError)


@settings(deadline=None)
@given(corpus=corpora(), data=st.data(), length=st.integers(min_value=2, max_value=6))
def test_shuffled_rows_with_missing_runs_load_sorted(corpus, data, length):
    _, series, exc = load_rows(corpus_rows(corpus, data))
    assert exc is None
    assert [s.ticker for s in series] == sorted(corpus)
    for s in series:
        values = corpus[s.ticker]
        assert s.timestamps == [date(2021, 1, 1) + timedelta(days=i) for i in range(len(values))]
        np.testing.assert_array_equal(s.values, values)
        complete = [start for start in range(0, len(values) - length + 1, length)
                    if not np.isnan(values[start:start + length]).any()]
        windows = slice_windows(s, length)
        assert [w.start_index for w in windows] == complete
        assert not any(np.isnan(w.raw_values).any() for w in windows)
