"""The walk replays numpy's draws: ``generate_sequence`` against
``np.random.Generator`` itself, and against the scalar reference walk byte
for byte, errors included."""

from collections import defaultdict

import numpy as np
import pytest

from vgsynth.errors import GraphIntegrityError
from vgsynth.generate import (NODE_STRATEGIES, RESTART_JUMPS, VALUE_POLICIES,
                              WalkConfig, derive_seed, generate_sequence)
from vgsynth.graphs import (CO_OCCURRENCE, KIND_CODE, SIMILAR_VALUE, VISIBILITY, build_hvg,
                            build_multigraph, build_nvg)

from conftest import make_graph, make_scaled_window
from reference_walk import reference_generate_sequence

# n = 1 draws nothing; 2**31 + 11 and 3 * 2**30 + 1 reject about half and a
# quarter of their 32-bit values, so the rejection loop runs often
BOUNDS = (1, 2, 3, 7, 2**31 + 11, 3 * 2**30 + 1, 2**32 - 1)
SEEDS = (0, 1, 17, 2**32, 2**64 - 1, derive_seed(7, "AAA", 0, "nvg", 3))
# node i's values are i * STRIDE + 0, 1, ...: an emitted value names its node
# and the draw that picked it
STRIDE = 2**33


def bounded_graph(bounds, start):
    """A path over ``len(bounds)`` nodes, walked from node ``start``, whose
    node i holds ``bounds[i]`` values, so a random-policy walk draws
    ``integers(0, bounds[i])`` there."""
    graph = make_graph([[0.0]] * len(bounds), u=range(len(bounds) - 1),
                       v=range(1, len(bounds)), start=start)
    graph.node_values = [range(i * STRIDE, i * STRIDE + b) for i, b in enumerate(bounds)]
    return graph


def generator_walk(gen, bounds, start, restart_prob, length):
    """What the walk on ``bounded_graph(bounds)`` must emit, drawn by the
    Generator's own calls: each step is ``random()`` for the restart, then
    ``integers(0, nodes)`` unless it restarted, then the value's
    ``integers(0, bound)`` (none for one value)."""
    def emit(node):
        return node * STRIDE + (int(gen.integers(0, bounds[node])) if bounds[node] > 1 else 0)

    out = [emit(start)]
    while len(out) < length:
        node = start if gen.random() < restart_prob else int(gen.integers(0, len(bounds)))
        out.append(emit(node))
    return out


def words_drawn(gen, seed, most=1000):
    """How many raw words ``gen``, made by ``default_rng(seed)``, has drawn."""
    fresh = np.random.PCG64(seed)
    for words in range(most + 1):
        if fresh.state["state"] == gen.bit_generator.state["state"]:
            return words
        fresh.random_raw()
    raise AssertionError(f"drew more than {most} words")


@pytest.mark.parametrize("length", [1, 3, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_replay_matches_generator(seed, length):
    """The walk's ``random()`` and ``integers(0, n)`` in a random
    interleaving, over every bound of ``BOUNDS`` and over graphs whose every
    draw rejects often. The walk reads 2 * length words first; a rejection
    appends more, which a 64-value walk on the 2**31 + 11 graph always needs."""
    for bounds, start in ((BOUNDS, 4), ((2**31 + 11,) * 3, 0), ((3 * 2**30 + 1,) * 3, 0)):
        graph = bounded_graph(bounds, start)
        for restart_prob in (0.0, 0.5):
            config = WalkConfig(node_strategy="restart_random", restart_jump="uniform",
                                value_policy="random", restart_prob=restart_prob)
            gen = np.random.default_rng(seed)
            expected = generator_walk(gen, bounds, start, restart_prob, length)
            walk = generate_sequence(graph, config, seed=seed, length=length)
            assert walk.scaled_values.tolist() == expected
            if length == 64 and bounds[0] == 2**31 + 11 and restart_prob == 0.0:
                assert words_drawn(gen, seed) > 2 * length


def weighted_graph(seed, n=12):
    """A path plus random chords with multiplicities 1-7; node i holds
    i % 3 + 1 values."""
    rng = np.random.default_rng(seed)
    pairs = {(i, i + 1) for i in range(n - 1)}
    pairs |= {tuple(sorted(p)) for p in rng.integers(0, n, (20, 2)).tolist() if p[0] != p[1]}
    u, v = np.array(sorted(pairs)).T
    return make_graph([[(i + r / 4) / n for r in range(i % 3 + 1)] for i in range(n)], u, v,
                      mult=rng.integers(1, 8, u.size))


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_replay_matches_generator(seed):
    """``Generator.choice(ids, p=...)`` is one double bisected into the
    node's cached cdf; interleaved with the value's ``integers`` it keeps
    the stream, over 3000 steps of random multiplicities."""
    graph = weighted_graph(seed % 1000)
    config = WalkConfig(node_strategy="degree_weighted", value_policy="random")
    assert (outcome(generate_sequence, graph, config, 0, seed=seed, length=3000)
            == outcome(reference_generate_sequence, graph, config, 0, seed=seed, length=3000))


def parallel_kinds_graph():
    """Hand-built graph whose pairs carry parallel edges of two or three kinds."""
    co, sim, vis = (KIND_CODE[k] for k in (CO_OCCURRENCE, SIMILAR_VALUE, VISIBILITY))
    u, v, kind, mult = zip((0, 1, co, 2), (0, 1, sim, 3), (0, 1, vis, 1), (0, 3, sim, 4),
                           (0, 4, co, 6), (1, 2, vis, 1), (1, 3, co, 1), (1, 3, vis, 5),
                           (2, 3, co, 2), (2, 3, sim, 1), (2, 3, vis, 7), (3, 4, vis, 1))
    return make_graph([[0.0], [0.25, 0.3], [0.5], [0.75], [1.0, 0.9, 0.8]], u, v,
                      np.array(kind), np.array(mult))


def merged_multigraph():
    """Tie-heavy multigraph with merged nodes, onto which parallel edges of
    one kind collapse."""
    graph = build_multigraph(tie_heavy_windows(np.random.default_rng(9), 4, 30),
                             similar_value_epsilon=0.2)
    assert any(len(values) > 1 for values in graph.node_values)
    assert (graph.edge_mult > 1).any()
    return graph


@pytest.mark.parametrize("build", [
    parallel_kinds_graph,
    merged_multigraph,
    # past 2**16 nodes the CSR's row sort runs on int64 ids
    lambda: build_nvg(unit_windows(np.random.default_rng(4), 3300, 20, ties=False)),
], ids=["parallel_kinds", "merged_nodes", "past_uint16"])
def test_lazy_mult_sums_each_pairs_edges(build):
    graph = build()
    assert "mult" not in graph.__dict__  # not built until read
    sums = defaultdict(int)
    for (u, v, _), mult in graph.edges.items():
        sums[u, v] += mult
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr)).tolist()
    assert graph.mult.dtype == np.int64
    assert graph.mult.tolist() == [sums[min(r, c), max(r, c)]
                                   for r, c in zip(rows, graph.indices.tolist())]
    config = WalkConfig(node_strategy="degree_weighted", value_policy="random")
    for window in (0, len(graph.windows) // 2, len(graph.windows) - 1):
        walk = dict(seed=derive_seed(window, "mult"), length=200)
        assert (outcome(generate_sequence, graph, config, window, **walk)
                == outcome(reference_generate_sequence, graph, config, window, **walk))


def tie_heavy_windows(rng, n_tickers, length, start=0):
    """Windows drawn from a few price levels, so multigraph nodes merge and
    similar-value links are common."""
    return [make_scaled_window(rng.integers(0, 4, length) + rng.choice([0.0, 0.5], length),
                               ticker=f"T{i}", start=start)
            for i in range(n_tickers)]


def unit_windows(rng, count, length, ties):
    """``count`` consecutive windows of one ticker, on a few price levels
    (``ties``) or continuous."""
    return [make_scaled_window(rng.integers(0, 4, length) + rng.choice([0.0, 0.5], length)
                               if ties else rng.random(length) * 40 + 10,
                               ticker="U", start=w * length)
            for w in range(count)]


def graphs_under_test():
    """``(graph, window, reference graph, reference window)``: the walk from
    ``window`` of ``graph`` must equal the reference walk from the reference
    window of the reference graph. Each window of a unit's NVG or HVG is
    compared with its graph built alone, whose uniform draws span only it."""
    rng = np.random.default_rng(2024)
    graphs = []
    for length in (20, 60):
        window = tie_heavy_windows(rng, 1, length)[0]
        graphs += [(g, 0, g, 0) for g in (build_nvg([window]), build_hvg([window]))]
        for eps in (0.01, 0.2):
            windows = tie_heavy_windows(rng, 4, length, start=length)
            mg = build_multigraph(windows, similar_value_epsilon=eps)
            assert any(len(values) > 1 for values in mg.node_values)
            graphs += [(mg, w, mg, w) for w in range(0, len(windows), 3)]
    for ties in (True, False):
        windows = unit_windows(rng, 4, 20, ties)
        for build in (build_nvg, build_hvg):
            unit = build(windows)
            graphs += [(unit, w, build([window]), 0) for w, window in enumerate(windows)]
    return graphs


def outcome(walker, graph, config, window, **walk):
    """The bytes and provenance of the walk's output, ``walk`` its seed and
    length, or the type of the error it raised and the node it names."""
    try:
        seq = walker(graph, config, window=window, **walk)
    except GraphIntegrityError as exc:
        return type(exc), str(exc).split(";")[0]
    return (seq.values.tobytes(), seq.scaled_values.tobytes(), seq.ticker, seq.window_start,
            seq.seed)


@pytest.mark.parametrize("strategy", NODE_STRATEGIES)
def test_walk_equals_reference_on_built_graphs(strategy):
    for g, (graph, window, reference, ref_window) in enumerate(graphs_under_test()):
        for policy in VALUE_POLICIES:
            for jump in RESTART_JUMPS:
                for i in range(3):
                    config = WalkConfig(node_strategy=strategy, value_policy=policy,
                                        restart_jump=jump,
                                        restart_prob=(0.15, 0.6, 1.0)[i],
                                        switch_prob=(0.5, 0.9, 0.0)[i])
                    seed = derive_seed(g, policy, jump, i)
                    assert (outcome(generate_sequence, graph, config, window, seed=seed)
                            == outcome(reference_generate_sequence, reference, config,
                                       ref_window, seed=seed))


def graph_with_isolated_node():
    """Nodes 0-4 joined by visibility and cross-ticker kinds, node 5 isolated
    and the window's first node; nodes 1 and 5 hold several values."""
    return make_graph([[0.0], [0.1, 0.2, 0.3], [0.4], [0.5], [0.6], [0.7, 0.8]], start=5,
                      u=[0, 0, 1, 1, 2, 3], v=[1, 2, 2, 4, 3, 4],
                      kind=[KIND_CODE[k] for k in (VISIBILITY, SIMILAR_VALUE, VISIBILITY,
                                                   SIMILAR_VALUE, VISIBILITY, VISIBILITY)],
                      mult=[1, 2, 3, 1, 1, 4])


def first_failing_length(walker, graph, config, seed):
    """Smallest length at which the walk raises, or None: a walk of length L
    is the first L values of any longer walk of the same seed."""
    for length in range(1, 41):
        if isinstance(outcome(walker, graph, config, 0, seed=seed, length=length)[0], type):
            return length
    return None


@pytest.mark.parametrize("strategy", NODE_STRATEGIES)
def test_isolated_node_raises_at_the_same_step(strategy):
    graph = graph_with_isolated_node()
    failing = []
    for seed in range(40):
        for policy in VALUE_POLICIES:
            config = WalkConfig(node_strategy=strategy, value_policy=policy, restart_prob=0.8)
            length = first_failing_length(generate_sequence, graph, config, seed)
            assert length == first_failing_length(reference_generate_sequence, graph, config,
                                                  seed)
            assert (outcome(generate_sequence, graph, config, 0, seed=seed, length=40)
                    == outcome(reference_generate_sequence, graph, config, 0, seed=seed,
                               length=40))
            failing.append(length)
    if strategy == "uniform_random":
        assert set(failing) == {None}
    elif strategy == "restart_random":
        assert len(set(failing) - {None}) > 3  # restarts postpone the failure
    else:
        assert set(failing) == {2}


def test_walk_csr_reads_the_csr_arrays():
    graph = build_multigraph(tie_heavy_windows(np.random.default_rng(3), 3, 20))
    indptr, indices, cross_indptr, cross_indices = graph.walk_csr
    assert indptr == graph.indptr.tolist() and cross_indptr == graph.cross_indptr.tolist()
    assert indices.tolist() == graph.indices.tolist()
    assert cross_indices.tolist() == graph.cross_indices.tolist()
