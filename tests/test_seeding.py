"""Seeding in one pass per method: ``seed_states`` is numpy's
``SeedSequence`` hash, a ``PreparedSeed`` draws what its plain integer
draws, and ``run_generation`` equals the per-candidate loop it replaced
(``reference_unit.py``)."""

import json

import numpy as np
import pytest

from vgsynth.corpus import make_desk_corpus
from vgsynth.generate import (PreparedSeed, derive_seed, ds_indices, generate_sequence,
                              seed_states, vrp_generate)
from vgsynth.graphs import build_multigraph
from vgsynth.ingest import TimeSeries
from vgsynth import pipeline
from vgsynth.pipeline import RunConfig, run_generation

from conftest import random_scaled_window
from reference_unit import reference_generation

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def numpy_states(seeds):
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds],
                    dtype=np.uint64).reshape(-1, 4)


def prepared(seed):
    return PreparedSeed(seed, seed_states([seed])[0])


class TestSeedStates:
    def test_edge_seeds(self):
        """One entropy word (up to 2**32 - 1), two words, and the top bit."""
        got = seed_states(EDGE_SEEDS)
        assert got.dtype == np.uint64 and got.flags.c_contiguous
        assert got.tobytes() == numpy_states(EDGE_SEEDS).tobytes()

    def test_random_seeds(self):
        seeds = np.random.default_rng(19).integers(0, 2**64 - 1, size=10_000, dtype=np.uint64,
                                                   endpoint=True).tolist()
        seeds += [derive_seed(3, "AAA", 0, "nvg", i) for i in range(100)]
        assert seed_states(seeds).tobytes() == numpy_states(seeds).tobytes()

    def test_empty(self):
        got = seed_states([])
        assert got.shape == (0, 4) and got.dtype == np.uint64


class TestPreparedSeed:
    def test_is_its_integer(self):
        seed = prepared(2**63 + 5)
        assert seed == 2**63 + 5 and json.dumps(seed) == str(2**63 + 5)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_bit_generators_start_alike(self, seed):
        assert np.random.PCG64(prepared(seed)).state == np.random.PCG64(seed).state
        assert (np.random.default_rng(prepared(seed)).random(8).tobytes()
                == np.random.default_rng(seed).random(8).tobytes())

    def test_other_requests_hash_the_integer(self):
        """Any state but PCG64's four words comes from SeedSequence itself."""
        seed = prepared(derive_seed(1, "other"))
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (624, np.uint32)):
            assert (seed.generate_state(n_words, dtype).tobytes()
                    == np.random.SeedSequence(int(seed)).generate_state(n_words, dtype).tobytes())
        assert (np.random.MT19937(seed).random_raw(4).tolist()
                == np.random.MT19937(int(seed)).random_raw(4).tolist())

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [derive_seed(5, "T", 0, "nvmg", 3)])
    def test_generation_bytes_equal_the_plain_integer(self, seed):
        rng = np.random.default_rng(8)
        windows = [random_scaled_window(rng, 20, ticker=t) for t in "ABC"]
        graph = build_multigraph(windows)
        config = RunConfig(node_strategy="random_neighbor_graph_switching",
                           value_policy="random")
        outputs = []
        for make in (prepared, int):
            walk = generate_sequence(graph, config.walk, window=2, seed=make(seed))
            shuffle = vrp_generate(windows[1], seed=make(seed))
            # the sequences record a plain int, whatever seeded them
            assert type(walk.seed) is int and type(shuffle.seed) is int
            outputs.append((walk.values.tobytes(), walk.scaled_values.tobytes(),
                            shuffle.values.tobytes(), ds_indices(10, 3, make(seed))))
        assert outputs[0] == outputs[1]


def fingerprints(by_method):
    return {method: [(s.ticker, s.window_start, s.method, s.seed, s.values.tobytes(),
                      None if s.scaled_values is None else s.scaled_values.tobytes())
                     for s in sequences]
            for method, sequences in by_method.items()}


def truncated(series, days):
    return TimeSeries(series.ticker, series.timestamps[:days], series.values[:days])


@pytest.mark.parametrize("case, overrides", [
    ("short ticker", dict(downsample_mode="ds", downsample_k=2,
                          node_strategy="random_neighbor_graph_switching")),
    ("ds k == n", dict(downsample_mode="ds", downsample_k=4, value_policy="random")),
    ("simds", dict(downsample_mode="simds", downsample_k=1, node_strategy="degree_weighted")),
])
def test_run_generation_equals_the_per_candidate_loop(case, overrides):
    """Byte for byte, unit by unit, on a corpus whose one ticker is too short
    for any window, under DS with k == n (no draw), and under SimDS."""
    series_list = make_desk_corpus(n_tickers=4, n_days=70, seed=23)
    if case == "short ticker":
        series_list[2] = truncated(series_list[2], 15)
    config = RunConfig(seed=29, window_length=20, methods=("nvg", "hvg", "nvmg", "vrp"),
                       sequences_per_window=4, **overrides)
    by_method, records = run_generation(config, series_list)
    expected, units_run = reference_generation(config, series_list)
    assert fingerprints(by_method) == fingerprints(expected)
    assert [(r.method, r.unit_id) for r in records] == units_run
    tickers = {s.ticker for sequences in by_method.values() for s in sequences}
    assert len(tickers) == (3 if case == "short ticker" else 4)


@pytest.mark.parametrize("mode, k, passes", [("ds", 2, 2), ("ds", 4, 1), ("simds", 1, 1)])
def test_one_hashing_pass_per_seed_kind_and_method(monkeypatch, mode, k, passes):
    """Seeds are hashed per method, not per unit: DS with k < n hashes its
    draw seeds and then its candidate seeds, anything else only the latter."""
    calls = []

    def counting(seeds):
        calls.append(len(seeds))
        return seed_states(seeds)

    monkeypatch.setattr(pipeline, "seed_states", counting)
    config = RunConfig(seed=3, window_length=20, methods=("nvg", "nvmg", "vrp"),
                       sequences_per_window=4, downsample_mode=mode, downsample_k=k)
    run_generation(config, make_desk_corpus(n_tickers=3, n_days=70, seed=4))
    windows = 3 * 3
    per_method = ([windows] if passes == 2 else []) + [windows * (k if mode == "ds" else 4)]
    assert calls == per_method * 3
