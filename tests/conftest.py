import numpy as np
import pytest

from vgsynth.graphs import KIND_CODE, VISIBILITY, Graph
from vgsynth.ingest import Window


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def make_window(values, ticker="T", start=0):
    """Window of the given raw values, scaled over their own range."""
    return Window(ticker=ticker, start_index=start, raw_values=np.asarray(values, float))


def make_prescaled_window(scaled, ticker="T", start=0):
    """Window whose scaled values are the given values verbatim: they are its
    raw values under the scale 0..1.

    Useful when a test needs exact scaled values (e.g. similar-value links)
    that min-max scaling would distort.
    """
    return Window(ticker=ticker, start_index=start, raw_values=np.asarray(scaled, float),
                  scale_min=0.0, scale_max=1.0)


def random_scaled_window(rng, length, ticker="T", start=0):
    raw = rng.random(length) * 40.0 + 10.0
    return make_window(raw, ticker=ticker, start=start)


def make_graph(node_values, u=(), v=(), kind=None, mult=None, start=0):
    """Hand-built one-window ``Graph``: node i holds the list ``node_values[i]``
    and edge e joins ``u[e]`` and ``v[e]`` with kind code ``kind[e]`` (default
    visibility) and multiplicity ``mult[e]`` (default 1). Node ``start`` is
    the window's first node, where its walks start."""
    n = len(node_values)
    node_of = np.arange(n)[None, :]
    node_of[0, 0] = start
    u = np.asarray(u, dtype=np.int64)
    counts = [len(values) for values in node_values]
    window = Window(ticker="T", start_index=0, raw_values=np.zeros(n), scale_min=0.0,
                    scale_max=1.0)
    return Graph(kind="nvg", windows=[window], node_of=node_of,
                 node_range=np.array([[0, n]]), node_time=np.arange(n),
                 value_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
                 values=np.array([x for values in node_values for x in values], dtype=float),
                 value_window=np.zeros(sum(counts), dtype=np.int64),
                 edge_u=u, edge_v=v,
                 edge_kind=np.full(u.size, KIND_CODE[VISIBILITY]) if kind is None else kind,
                 edge_mult=np.ones(u.size, dtype=np.int64) if mult is None else mult)
