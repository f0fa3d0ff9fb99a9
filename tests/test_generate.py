import dataclasses
import re

import numpy as np
import pytest

from vgsynth.errors import GraphIntegrityError
from vgsynth.generate import (DownsampleWarning, SyntheticSequence, WalkConfig,
                              derive_seed, downsample, ds_indices, dtw_distance,
                              dtw_distances, generate_sequence, vrp_generate)
from vgsynth.graphs import build_multigraph, build_nvg
from vgsynth.ingest import inverse_transform
from vgsynth.oracles import dtw_bruteforce

from conftest import (make_graph, make_prescaled_window, make_window,
                      random_scaled_window)


def graph_from_edges(n_nodes, edges, values=None, start=0):
    """Hand-built one-ticker graph for walk tests, walked from node ``start``;
    values default to node index / 10."""
    return make_graph([[values[i] if values else i / 10.0] for i in range(n_nodes)],
                      [u for u, _ in edges], [v for _, v in edges], mult=list(edges.values()),
                      start=start)


def walk(graph, length, seed=0, window=0, **config):
    """Scaled values of one ``generate_sequence`` walk."""
    walked = generate_sequence(graph, WalkConfig(**config), window=window, seed=seed,
                               length=length)
    return walked.scaled_values.tolist()


class TestNextNode:
    """Each test reads the node a walk steps to from the value it emits."""

    def test_unique_neighbor_is_forced(self):
        path = graph_from_edges(3, {(0, 1): 1, (1, 2): 1})
        steps = [walk(path, 2, seed=s, node_strategy="random_neighbor")[1]
                 for s in range(20)]
        assert all(value == 0.1 for value in steps)  # node 1

    def test_restart_prob_one_always_restarts(self):
        cfg = dict(node_strategy="restart_random", restart_prob=1.0)
        for start in (1, 0):
            path = graph_from_edges(3, {(0, 1): 1, (1, 2): 1}, start=start)
            assert walk(path, 51, **cfg) == [start / 10] * 51

    def test_degree_weighted_follows_multiplicities(self):
        star = graph_from_edges(3, {(0, 1): 3, (0, 2): 1})
        # the walk alternates between the centre and a leaf: 10,000 draws from node 0
        values = walk(star, 20_001, seed=4242, node_strategy="degree_weighted")
        assert values[::2] == [0.0] * 10_001
        freq_x = np.mean(np.array(values[1::2]) == 0.1)
        assert abs(freq_x - 0.75) <= 0.02

    def test_isolated_node_is_integrity_error(self):
        lonely = graph_from_edges(3, {(0, 1): 1}, start=2)  # node 2 isolated
        with pytest.raises(GraphIntegrityError, match="node 2 is isolated"):
            walk(lonely, 2, node_strategy="random_neighbor")

    def test_uniform_random_covers_all_nodes(self):
        g = graph_from_edges(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        seen = set(walk(g, 201, seed=5, node_strategy="uniform_random")[1:])
        assert seen == {0.0, 0.1, 0.2, 0.3}

    def test_graph_switching_prefers_cross_edges(self):
        # multigraph where node 0 (ticker A, t0) has a cross link
        a = make_prescaled_window([0.2, 0.8], ticker="A")
        b = make_prescaled_window([0.5, 0.9], ticker="B")
        mg = build_multigraph([a, b], similar_value_epsilon=0.0)
        start = mg.first_node(0)
        cross = set(mg.cross_indices[mg.cross_indptr[start]:mg.cross_indptr[start + 1]].tolist())
        assert cross  # co-occurrence link exists
        node_of = {value: node for node, (value,) in enumerate(mg.node_values)}
        draws = {node_of[walk(mg, 2, seed=s, window=0, switch_prob=1.0,
                              node_strategy="random_neighbor_graph_switching")[1]]
                 for s in range(100)}
        assert draws <= cross


class TestNextValue:
    """A one-node graph: every step of a uniform walk returns to node 0
    without a draw, so the values show the value policy alone."""

    def test_singleton(self):
        graph = make_graph([[0.7]])
        assert walk(graph, 1, node_strategy="uniform_random", value_policy="random") == [0.7]
        assert walk(graph, 1, node_strategy="uniform_random",
                    value_policy="round_robin") == [0.7]

    def test_round_robin_wraps(self):
        graph = make_graph([[0.1, 0.9]])
        out = walk(graph, 3, node_strategy="uniform_random", value_policy="round_robin")
        assert out == [0.1, 0.9, 0.1]

    def test_random_is_uniform(self):
        graph = make_graph([[0.1, 0.9]])
        draws = walk(graph, 10_000, seed=11, node_strategy="uniform_random",
                     value_policy="random")
        freq = np.mean(np.array(draws) == 0.1)
        assert abs(freq - 0.5) <= 0.02


class TestGenerateSequence:
    def test_single_node_graph(self):
        g = graph_from_edges(1, {}, values=[5.0])
        seq = generate_sequence(g, WalkConfig(node_strategy="uniform_random"), seed=1,
                                length=3)
        np.testing.assert_array_equal(seq.values, [5.0, 5.0, 5.0])

    def test_length_and_containment(self, rng):
        for _ in range(20):
            window = random_scaled_window(rng, 20)
            graph = build_nvg([window])
            seq = generate_sequence(graph, WalkConfig(), seed=int(rng.integers(1 << 30)))
            assert seq.values.size == 20
            node_values = set(graph.values.tolist())
            assert set(seq.scaled_values.tolist()) <= node_values

    def test_seed_determinism(self, rng):
        window = random_scaled_window(rng, 20)
        graph = build_nvg([window])
        a = generate_sequence(graph, WalkConfig(), seed=123, length=40)
        b = generate_sequence(graph, WalkConfig(), seed=123, length=40)
        np.testing.assert_array_equal(a.values, b.values)

    def test_zero_target_length_rejected(self, rng):
        graph = build_nvg([random_scaled_window(rng, 5)])
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            generate_sequence(graph, WalkConfig(), length=0)

    def test_inverse_scaling_applied(self, rng):
        window = make_window([10.0, 20.0, 30.0, 15.0])
        graph = build_nvg([window])
        seq = generate_sequence(graph, WalkConfig(), seed=3, length=10)
        # every emitted price must be one of the window prices
        assert set(np.round(seq.values, 9)) <= set(np.round(window.raw_values, 9))

    def test_multigraph_walk_uses_anchor_scale(self, rng):
        a = make_window([10, 20, 30], ticker="A")
        b = make_window([100, 200, 300], ticker="B")
        mg = build_multigraph([a, b])
        seq = generate_sequence(mg, WalkConfig(), window=1, seed=5, length=8)
        assert seq.ticker == "B"
        np.testing.assert_array_equal(seq.values, inverse_transform(seq.scaled_values, 100, 300))
        assert seq.values.min() >= 100 and seq.values.max() <= 300


class TestWalkConfig:
    @pytest.mark.parametrize("name, value", [
        ("node_strategy", "sideways"), ("value_policy", "last"), ("restart_jump", "far"),
        ("restart_prob", 1.5), ("restart_prob", True), ("switch_prob", -0.1),
        ("switch_prob", "0.5")])
    def test_bad_value_raises_at_construction(self, name, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            WalkConfig(**{name: value})

    def test_fields_cannot_be_assigned(self):
        config = WalkConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.restart_prob = 2.0
        assert config == WalkConfig()


class TestVRP:
    def test_constant_window(self):
        seq = vrp_generate(make_window([7, 7, 7]), seed=1)
        np.testing.assert_array_equal(seq.values, [7, 7, 7])

    def test_multiset_preserved(self, rng):
        for _ in range(1000):
            raw = rng.random(int(rng.integers(3, 30)))
            seq = vrp_generate(make_window(raw), seed=int(rng.integers(1 << 30)))
            np.testing.assert_array_equal(np.sort(seq.values), np.sort(raw))

    def test_permutations_uniform(self):
        from itertools import permutations

        counts = {p: 0 for p in permutations((1.0, 2.0, 3.0))}
        window = make_window([1.0, 2.0, 3.0])
        for seed in range(6000):
            seq = vrp_generate(window, seed=seed)
            counts[tuple(seq.values)] += 1
        for count in counts.values():
            assert abs(count / 6000 - 1 / 6) <= 0.02


def dtw_row_loop(a, b):
    """Row-by-row DTW recurrence: the wavefront must equal it bit for bit."""
    n, m = len(a), len(b)
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        cost = np.abs(a[i - 1] - b)
        for j in range(1, m + 1):
            acc[i, j] = cost[j - 1] + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return float(acc[n, m])


def reference_dtw_distances(candidates, references) -> np.ndarray:
    """The candidate-major wavefront ``dtw_distances`` replaced, kept verbatim
    as a second bit-exact reference: each candidate's matrix is one block of
    a flat diagonal row, and the set-up gathers the references per diagonal."""
    rows = [np.asarray(c, dtype=float) for c in candidates]
    refs = [np.asarray(r, dtype=float) for r in references]
    if not rows or len(refs) != len(rows) or any(r.ndim != 1 or r.size == 0
                                                 for r in rows + refs):
        raise ValueError("dtw_distances requires candidates, one reference row per "
                         "candidate, and non-empty one-dimensional sequences")
    # a[k, i] and b[k, j]: value i of candidate k and value j of its reference, 1-based
    a, b = (np.zeros((len(x), 1 + max(r.size for r in x))) for x in (rows, refs))
    for padded, x in ((a, rows), (b, refs)):
        for k, r in enumerate(x):
            padded[k, 1:r.size + 1] = r
    lengths, ref_lengths = (np.array([r.size for r in x]) for x in (rows, refs))
    n, m = a.shape[1] - 1, b.shape[1] - 1
    # acc[d, k * (n + 1) + i] is cell (i, j = d - i) of candidate k's matrix.
    # Each diagonal is one flat row, so a step is three contiguous updates;
    # where the shifted slices pair cell i = 0 of one candidate with cell n
    # of the previous one, the cell's cost is inf and it stays inf.
    i = np.arange(n + 1)
    j = np.arange(n + m + 1)[:, None] - i
    inside = (i >= 1) & (j >= 1) & (j <= m)
    cost = np.abs(a[None, :, :] - b[:, np.clip(j, 1, m)].transpose(1, 0, 2))
    acc = np.where(inside[:, None, :], cost, np.inf).reshape(n + m + 1, -1)
    acc[0, ::n + 1] = 0.0
    best = np.empty(acc.shape[1] - 1)
    for d in range(2, n + m + 1):
        np.minimum(acc[d - 1, :-1], acc[d - 1, 1:], out=best)
        np.minimum(best, acc[d - 2, :-1], out=best)
        acc[d, 1:] += best
    return acc[lengths + ref_lengths, np.arange(len(rows)) * (n + 1) + lengths]


def hexes(values):
    return [float(v).hex() for v in values]


class TestDTW:
    def test_self_distance_zero(self, rng):
        x = rng.random(12)
        assert dtw_distance(x, x) == 0.0

    def test_single_cell(self):
        assert dtw_distance([0.0], [5.0]) == 5.0

    def test_warped_copy_is_free(self):
        assert dtw_distance([1, 2, 3], [1, 2, 2, 3]) == 0.0
        assert dtw_bruteforce([1, 2, 3], [1, 2, 2, 3]) == 0.0

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(50):
            a = rng.random(int(rng.integers(1, 10)))
            b = rng.random(int(rng.integers(1, 10)))
            d = dtw_distance(a, b)
            assert d >= 0.0
            assert d == pytest.approx(dtw_distance(b, a), abs=1e-12)

    def test_matches_bruteforce(self, rng):
        for _ in range(100):
            a = rng.random(int(rng.integers(1, 9)))
            b = rng.random(int(rng.integers(1, 9)))
            assert dtw_distance(a, b) == pytest.approx(dtw_bruteforce(a, b), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])

    def test_batched_rows_equal_pairwise_and_row_loop(self, rng):
        """Each call scores one equal-length batch; the lengths vary between
        calls, and each row equals its pair scored alone."""
        for _ in range(100):
            cands = rng.random((int(rng.integers(1, 13)), int(rng.integers(1, 25))))
            ref = rng.random(int(rng.integers(1, 25)))
            batched = dtw_distances(cands, [ref] * len(cands))
            assert batched.shape == (len(cands),)
            for cand, d in zip(cands, batched):
                assert d == dtw_distance(cand, ref) == dtw_row_loop(cand, ref)

    def test_batched_matches_bruteforce(self, rng):
        for _ in range(30):
            ref = rng.random(int(rng.integers(1, 8)))
            cands = rng.random((5, int(rng.integers(1, 8))))
            for cand, d in zip(cands, dtw_distances(cands, [ref] * len(cands))):
                assert d == pytest.approx(dtw_bruteforce(cand, ref), abs=1e-9)

    def test_reference_row_per_candidate_equals_one_call_per_reference(self, rng):
        for _ in range(100):
            count = int(rng.integers(1, 12))
            cands = rng.random((count, int(rng.integers(1, 25))))
            refs = rng.random((count, int(rng.integers(1, 25))))
            got = dtw_distances(cands, refs)
            want = [dtw_distances([cand], [ref])[0] for cand, ref in zip(cands, refs)]
            assert [d.hex() for d in got.tolist()] == [float(d).hex() for d in want]

    @pytest.mark.parametrize("count", [40, 200])
    def test_pipeline_shapes_equal_references(self, rng, count):
        """A unit's SimDS batch: ``count`` walks of length 20 against their
        windows' rows, as ticker units (40) and segment units (200) make."""
        for _ in range(3):
            refs = [rng.random(20) * 40 + 10 for _ in range(count // 10)]
            cands = [rng.random(20) * 40 + 10 for _ in range(count)]
            rows = [ref for ref in refs for _ in range(10)]
            got = hexes(dtw_distances(cands, rows))
            assert got == hexes(reference_dtw_distances(cands, rows))
            assert got == hexes(dtw_row_loop(c, r) for c, r in zip(cands, rows))

    @pytest.mark.parametrize("count", [40, 200])
    def test_length_one_rows_equal_references(self, rng, count):
        """Length-1 candidates against longer references, the reverse, and
        both of length 1, each as one (N, 1) or (N, m) batch."""
        for _ in range(3):
            m = int(rng.integers(2, 21))
            for n_cand, n_ref in ((1, m), (m, 1), (1, 1)):
                cands, refs = rng.random((count, n_cand)), rng.random((count, n_ref))
                got = hexes(dtw_distances(cands, refs))
                assert got == hexes(reference_dtw_distances(cands, refs))
                assert got == hexes(dtw_row_loop(c, r) for c, r in zip(cands, refs))

    @pytest.mark.parametrize("cands, refs", [([[1.0, 2.0], [3.0]], [[1.0], [2.0]]),
                                             ([[1.0], [2.0]], [[1.0, 2.0], [3.0]])])
    def test_ragged_batch_rejected(self, cands, refs):
        """Rows of one batch share a length; pairs of other lengths go
        through ``dtw_distance`` one at a time."""
        with pytest.raises(ValueError):
            dtw_distances(cands, refs)
        assert [dtw_distance(c, r) for c, r in zip(cands, refs)] == [
            dtw_row_loop(np.asarray(c), np.asarray(r)) for c, r in zip(cands, refs)]

    @pytest.mark.parametrize("cands, ref", [([[1.0], []], [[1.0]] * 2), ([[1.0]], [[]]),
                                            ([], [1.0]), ([[1.0]], [[1.0], []]),
                                            ([[1.0]] * 3, [[1.0]] * 2),
                                            ([[1.0], [2.0]], [1.0, 2.0])])
    def test_batched_empty_rejected(self, cands, ref):
        # the last case is one reference shared by all candidates, a form
        # dtw_distances does not take
        with pytest.raises(ValueError):
            dtw_distances(cands, ref)


def seq_of(values, ticker="T", start=0, seed=0):
    arr = np.asarray(values, float)
    return SyntheticSequence(values=arr, scaled_values=None, method="nvg",
                             ticker=ticker, window_start=start, seed=seed)


class TestDownsample:
    def test_identity_when_k_equals_n(self, rng):
        seqs = [seq_of(rng.random(5), seed=i) for i in range(4)]
        ref = make_window(rng.random(5))
        assert downsample(seqs, [ref], k=4) == seqs

    def test_simds_selects_exact_copy(self, rng):
        ref = make_window([1.0, 2.0, 3.0, 4.0])
        seqs = [seq_of(rng.random(4) + 10) for _ in range(5)]
        seqs.insert(2, seq_of([1.0, 2.0, 3.0, 4.0]))
        kept = downsample(seqs, [ref], k=1)
        np.testing.assert_array_equal(kept[0].values, ref.raw_values)

    def test_simds_hand_computed_distances(self):
        ref = make_window([0.0, 0.0, 0.0])
        near = seq_of([0.0, 0.0, 0.0])       # dtw 0.0
        mid = seq_of([0.0, 0.0, 1.5])        # dtw 1.5
        far = seq_of([0.0, 1.5, 1.5])        # dtw 3.0
        for s, d in ((near, 0.0), (mid, 1.5), (far, 3.0)):
            assert dtw_bruteforce(s.values, ref.raw_values) == pytest.approx(d)
        kept = downsample([far, near, mid], [ref], k=2)
        assert kept == [near, mid]

    def test_simds_tie_keeps_earlier(self):
        ref = make_window([0.0, 0.0, 0.0])
        far = seq_of([2.0, 2.0, 2.0])
        first = seq_of([0.0, 0.0, 1.0])
        second = seq_of([1.0, 0.0, 0.0])  # same distance as ``first``
        assert dtw_distance(first.values, ref.raw_values) == \
            dtw_distance(second.values, ref.raw_values)
        assert downsample([far, first, second], [ref], k=1) == [first]
        assert downsample([far, second, first], [ref], k=1) == [second]

    def test_each_window_keeps_its_own_nearest(self):
        """One call over two windows selects as two one-window calls do."""
        low, high = make_window([0.0, 0.0, 0.0]), make_window([5.0, 5.0, 5.0])
        seqs = [seq_of([v] * 3, seed=i) for i, v in enumerate([5.0, 1.0, 0.0, 0.0, 5.0, 4.0])]
        kept = downsample(seqs, [low, high], k=2)
        assert kept == downsample(seqs[:3], [low], k=2) + downsample(seqs[3:], [high], k=2)
        assert [s.seed for s in kept] == [1, 2, 4, 5]

    def test_ds_is_seeded_subset(self, rng):
        """DS's pick is ``ds_indices``, drawn before generation; ``downsample``
        then keeps every one of the k candidates it is given."""
        seqs = [seq_of(rng.random(5), seed=i) for i in range(10)]
        ref = make_window(rng.random(5))
        picked = ds_indices(10, 3, 9)
        assert picked == ds_indices(10, 3, 9) == sorted(set(picked))
        assert len(picked) == 3 and set(picked) <= set(range(10))
        kept = downsample([seqs[i] for i in picked], [ref], k=3)
        assert [s.seed for s in kept] == picked

    def test_oversized_k_warns_and_returns_all(self, rng):
        seqs = [seq_of(rng.random(5))]
        ref = make_window(rng.random(5))
        with pytest.warns(DownsampleWarning):
            out = downsample(seqs, [ref], k=5)
        assert out == seqs

    def test_no_windows_keeps_nothing(self):
        assert downsample([], [], k=1) == []

    @pytest.mark.parametrize("count, windows", [(3, 2), (1, 0)])
    def test_uneven_split_rejected(self, rng, count, windows):
        seqs = [seq_of(rng.random(3)) for _ in range(count)]
        refs = [make_window(rng.random(3)) for _ in range(windows)]
        with pytest.raises(ValueError, match="do not split evenly"):
            downsample(seqs, refs, k=1)

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (0, 1)])
    def test_ds_indices_rejects_k_outside_1_to_n(self, n, k):
        with pytest.raises(ValueError, match=f"k must be in 1..{n}, got {k}"):
            ds_indices(n, k, 0)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(7, "AAA", 0, "nvg", 0)
    b = derive_seed(7, "AAA", 0, "nvg", 0)
    c = derive_seed(7, "AAA", 0, "nvg", 1)
    d = derive_seed(8, "AAA", 0, "nvg", 0)
    assert a == b
    assert len({a, c, d}) == 3
