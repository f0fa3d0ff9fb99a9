import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vgsynth import evaluate, generate, ingest, pipeline
from vgsynth.cli import sequences_path
from vgsynth.corpus import make_desk_corpus, write_corpus_csv
from vgsynth.errors import UndefinedMetricError
from vgsynth.generate import (WalkConfig, derive_seed, ds_indices, dtw_distances,
                              generate_sequence, vrp_generate)
from vgsynth.graphs import Graph, build_hvg, build_multigraph, build_nvg
from vgsynth.pipeline import (ConfigError, RunConfig, read_sequences, run_evaluation,
                              run_generation, write_sequences)


@pytest.fixture(scope="module")
def tiny_corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    write_corpus_csv(make_desk_corpus(n_tickers=3, n_days=130, seed=11), path)
    return path


def tiny_config(input_path, **overrides):
    base = dict(
        input=str(input_path),
        window_length=20,
        methods=("nvg", "vrp"),
        sequences_per_window=4,
        downsample_k=2,
        embed_iterations=60,
        perplexity=5.0,
        mixing_k=3,
        seed=42,
    )
    base.update(overrides)
    return RunConfig(**base)


def rejection(input_path, **bad) -> str:
    """The ConfigError message for ``bad`` in place of tiny_config's values.
    A config checks itself when made, so the message must be the same whether
    it is made from keywords, from a config file's dict or by
    ``dataclasses.replace``."""
    good = tiny_config(input_path)
    data = good.to_dict()
    for name, value in bad.items():
        section, option = pipeline._SECTION_OF.get(name, (None, name))
        (data[section] if section else data)[option] = value
    messages = []
    for make in (lambda: tiny_config(input_path, **bad), lambda: RunConfig.from_dict(data),
                 lambda: dataclasses.replace(good, **bad)):
        with pytest.raises(ConfigError) as excinfo:
            make()
        messages.append(str(excinfo.value))
    assert messages == messages[:1] * 3
    return messages[0]


def mapped_prices(monkeypatch) -> list:
    """The argument tuples of every ``pipeline.forward_transform`` call from
    now on; the calls still map."""
    calls = []
    monkeypatch.setattr(pipeline, "forward_transform",
                        lambda *a: calls.append(a) or ingest.forward_transform(*a))
    return calls


class TestRunConfig:
    def test_unknown_method_is_config_error(self, tiny_corpus_csv):
        assert re.search(r"gan.*valid methods",
                         rejection(tiny_corpus_csv, methods=("nvg", "gan")))

    @pytest.mark.parametrize("methods, named", [("nvg", "str 'nvg'"), (["nvg", 1], "int 1"),
                                                ({"nvg": 1}, "dict")])
    def test_methods_not_a_list_of_strings_is_config_error(self, tiny_corpus_csv, methods,
                                                           named):
        assert rejection(tiny_corpus_csv, methods=methods).startswith(
            f"methods must be a list of strings, got {named}")

    def test_window_length_minimum(self, tiny_corpus_csv):
        assert rejection(tiny_corpus_csv, window_length=2) == \
            "window length must be >= 3, got 2"

    def test_probability_bounds(self, tiny_corpus_csv):
        assert rejection(tiny_corpus_csv, restart_prob=1.5) == \
            "restart_prob must be a number in [0, 1], got 1.5"

    def test_fields_cannot_be_assigned(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.window_length = 2
        assert config == tiny_config(tiny_corpus_csv)

    def test_walk_section_made_with_the_config(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, restart_prob=0.3, restart_jump="uniform")
        assert "walk" in vars(config)  # made by the check, not on first read
        assert config.walk == WalkConfig(restart_prob=0.3, restart_jump="uniform")
        assert dataclasses.replace(config, switch_prob=0.2).walk.switch_prob == 0.2

    def test_dict_round_trip(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv)
        back = RunConfig.from_dict(config.to_dict())
        assert back == config

    def test_readme_schema_shows_the_defaults(self):
        """The README's config schema block claims to show every default."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"### Config file schema \(JSON\)\s+```json\n(.*?)```", readme, re.S)
        shown = json.loads(block.group(1))
        defaults = RunConfig().to_dict()
        del shown["input"], defaults["input"]
        assert shown == defaults

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"input": "x", "gpu": True})

    @pytest.mark.parametrize("section, option", [("downsample", "kk"), ("walk", "seed"),
                                                 ("evaluation", "methods")])
    def test_option_outside_its_section_rejected(self, section, option):
        with pytest.raises(ConfigError, match=f"{section} option '{option}'"):
            RunConfig.from_dict({"input": "x", section: {option: 2}})

    @pytest.mark.parametrize("key, spelling", [("downsample_mode", "downsample.mode"),
                                               ("node_strategy", "walk.node_strategy"),
                                               ("perplexity", "evaluation.perplexity")])
    def test_sectioned_option_at_top_level_rejected(self, key, spelling):
        with pytest.raises(ConfigError, match=spelling.replace(".", r"\.")):
            RunConfig.from_dict({"input": "x", key: getattr(RunConfig(), key)})

    def test_downsample_section_is_optional_per_key(self):
        config = RunConfig.from_dict({"input": "x", "downsample": {"k": 3}})
        assert (config.downsample_mode, config.downsample_k) == ("simds", 3)

    @pytest.mark.parametrize("split", [(0.5, 0.5), (0.7, 0.15, 0.1),
                                       (1.2, -0.1, -0.1), (0.5, 0.2, 0.2, 0.1)])
    def test_bad_split_rejected_before_generation(self, tiny_corpus_csv, split):
        # a bad split cannot make a config, so no run can start from one
        assert rejection(tiny_corpus_csv, split=split) == \
            f"split must be 3 ratios >= 0 that sum to 1, got {split!r}"

    @pytest.mark.parametrize("data", [{"downsample": "ds"}, {"walk": []},
                                      {"evaluation": {"split": 5}},
                                      {"evaluation": {"split": ["a", 0.5, 0.5]}}])
    def test_malformed_sections_are_config_errors(self, data):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"input": "x", **data})

    def test_non_object_config_is_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict([1, 2])

    @pytest.mark.parametrize("field, value", [
        ("seed", "x"), ("seed", -1), ("window_length", "20"), ("stride", 0),
        ("sequences_per_window", 2.0), ("downsample_k", True),
        ("similar_value_epsilon", -0.01), ("l2", -1), ("tol", float("nan")),
        ("perplexity", 0), ("max_iter", 0), ("embed_iterations", 2.5), ("mixing_k", 0),
        ("embed_max_points", 1), ("restart_prob", "0.1"), ("split", (True, 0.0, 0.0)),
        ("switch_prob", True), ("methods", ("vrp", "nvg", "vrp")), ("input", 5),
        ("out_dir", 5),
    ])
    def test_bad_value_rejected_before_generation(self, tiny_corpus_csv, field, value):
        # a bad value cannot make a config, so no run can start from one
        assert re.search(field.replace("_", "[_ ]"),
                         rejection(tiny_corpus_csv, **{field: value}))

    @pytest.mark.parametrize("mode", ["ds", "simds"])
    def test_downsample_k_above_candidates_rejected_before_generation(self, tiny_corpus_csv,
                                                                      mode):
        assert rejection(tiny_corpus_csv, sequences_per_window=4, downsample_k=5,
                         downsample_mode=mode) == \
            "downsample.k (5) must not exceed sequences_per_window (4)"

    def test_boundary_values_accepted(self, tiny_corpus_csv):
        # the benchmark's classifier settings (tol 0, fixed 1500 iterations)
        tiny_config(tiny_corpus_csv, tol=0.0, max_iter=1500, l2=0, seed=np.int64(0),
                    stride=None, embed_max_points=4, similar_value_epsilon=0.0)

    def test_split_within_rounding_accepted(self, tiny_corpus_csv):
        tiny_config(tiny_corpus_csv, split=(0.7, 0.2, 0.1 + 1e-12))

    def test_lists_become_tuples(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, methods=["vrp", "nvg"], split=[0.6, 0.2, 0.2])
        assert (config.methods, config.split) == (("vrp", "nvg"), (0.6, 0.2, 0.2))
        assert config == tiny_config(tiny_corpus_csv, methods=("vrp", "nvg"),
                                     split=(0.6, 0.2, 0.2))

    def test_from_file(self, tmp_path, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert RunConfig.from_file(path) == config


class TestGeneration:
    def test_counting_contract(self, tiny_corpus_csv):
        # 130 days, window 20, default stride=20 -> 6 windows per ticker
        config = tiny_config(tiny_corpus_csv, methods=("vrp",))
        by_method, records = run_generation(config)
        assert len(by_method["vrp"]) == 3 * 6 * config.downsample_k
        assert {r.method for r in records} == {"vrp"}
        assert all(r.unit_kind == "ticker" for r in records)

    def test_nvmg_timed_per_segment(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, methods=("nvmg",), sequences_per_window=2,
                             downsample_k=1)
        by_method, records = run_generation(config)
        assert all(r.unit_kind == "segment" for r in records)
        assert len(records) == 6  # one per segment
        assert len(by_method["nvmg"]) == 3 * 6

    def test_one_graph_per_graph_method_and_unit(self, tiny_corpus_csv, monkeypatch):
        # each graph holds one unit's windows: a ticker's for nvg and hvg, a
        # segment's for nvmg; vrp builds none
        built = []
        post_init = Graph.__post_init__

        def spy(graph):
            post_init(graph)
            built.append((graph.kind, [(w.ticker, w.start_index) for w in graph.windows]))

        monkeypatch.setattr(Graph, "__post_init__", spy)
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "hvg", "nvmg", "vrp"))
        windows = [(w.ticker, w.start_index)
                   for ws in pipeline.prepare_windows(config).values() for w in ws]
        tickers = [[key for key in windows if key[0] == t] for t in sorted({t for t, _ in windows})]
        segments = [[key for key in windows if key[1] == s] for s in sorted({s for _, s in windows})]
        run_generation(config)
        assert (len(tickers), len(segments)) == (3, 6)
        assert built == ([("nvg", unit) for unit in tickers] + [("hvg", unit) for unit in tickers]
                         + [("nvmg", unit) for unit in segments])

    def test_one_walk_config_per_run(self, tiny_corpus_csv, monkeypatch):
        # the walk section is made once, when the config is: never per walk,
        # and never again for generation or evaluation
        made = []
        init = generate.WalkConfig.__init__

        def spy(config, *args, **kwargs):
            init(config, *args, **kwargs)
            made.append(config)

        monkeypatch.setattr(generate.WalkConfig, "__init__", spy)
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "hvg", "nvmg", "vrp"))
        by_method, _ = run_generation(config)
        report, _ = run_evaluation(config, by_method, with_embedding=False)
        assert all(by_method[m] for m in ("nvg", "hvg", "nvmg"))
        assert set(report.methods) == set(config.methods)
        assert made == [config.walk]

    def test_sequence_file_round_trip(self, tiny_corpus_csv, tmp_path):
        config = tiny_config(tiny_corpus_csv, methods=("nvg",))
        by_method, _ = run_generation(config)
        path = sequences_path(tmp_path, "nvg")
        write_sequences(by_method["nvg"], path)
        back = read_sequences(path, "nvg")
        assert len(back) == len(by_method["nvg"])
        for a, b in zip(by_method["nvg"], back):
            assert (a.ticker, a.window_start, a.seed) == (b.ticker, b.window_start, b.seed)
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=0)
            assert b.scaled_values is None

    @pytest.mark.parametrize("corrupt, problem", [
        (lambda line: line[:len(line) // 2], "malformed record"),
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                  if k != "window_start"}), "record has no field 'window_start'"),
        (lambda line: json.dumps({**json.loads(line), "values": ["x"] * 20}),
         "malformed record: could not convert"),
        (lambda line: json.dumps({**json.loads(line), "values": [float("nan")] * 20}),
         "record holds a value that is not finite"),
        (lambda line: json.dumps({**json.loads(line), "method": "hvg"}),
         "a 'hvg' record in a file of method 'vrp'"),
    ], ids=["truncated", "missing_field", "not_a_number", "not_finite", "other_method"])
    def test_malformed_record_names_path_and_line(self, tiny_corpus_csv, tmp_path, corrupt,
                                                  problem):
        config = tiny_config(tiny_corpus_csv, methods=("vrp",))
        path = sequences_path(tmp_path, "vrp")
        write_sequences(run_generation(config)[0]["vrp"], path)
        lines = path.read_text().splitlines()
        lines[2] = corrupt(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {problem}"):
            read_sequences(path, "vrp")

    @pytest.mark.parametrize("methods", [("nvg",), ("nvmg",), ("vrp", "nvmg")])
    def test_no_complete_window_rejected_before_any_unit(self, tmp_path, monkeypatch,
                                                         methods):
        path = tmp_path / "short.csv"
        write_corpus_csv(make_desk_corpus(n_tickers=2, n_days=15, seed=3), path)

        def no_unit(*args, **kwargs):
            raise AssertionError("a unit ran without any window")

        monkeypatch.setattr(pipeline, "time_unit", no_unit)
        config = tiny_config(path, methods=methods)
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: .*complete window of 20 values"):
            run_generation(config)

    def test_no_complete_window_in_given_series(self):
        config = tiny_config("", window_length=30)
        with pytest.raises(ValueError, match="given series.*30 values"):
            run_generation(config, make_desk_corpus(n_tickers=1, n_days=29, seed=3))

    def test_byte_identical_reruns(self, tiny_corpus_csv, tmp_path):
        config = tiny_config(tiny_corpus_csv)
        paths = []
        for run in ("a", "b"):
            by_method, _ = run_generation(config)
            path = tmp_path / f"seq_{run}.jsonl"
            write_sequences(by_method["nvg"], path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


ALL_METHODS = ("nvg", "hvg", "nvmg", "vrp")
WINDOWS = 3 * 6  # tiny corpus: 3 tickers x 6 windows, also 6 segments x 3 windows


class TestDownsamplePick:
    """DS draws its pick before generating, so it generates only the k
    candidates it keeps; SimDS selects over a whole unit at once. Both keep
    exactly what selecting from all ``sequences_per_window`` candidates, one
    window at a time, keeps."""

    @pytest.mark.parametrize("mode", ["ds", "simds"])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_generates_k_candidates_per_window_under_ds_only(self, tiny_corpus_csv,
                                                             monkeypatch, mode, k):
        calls = []
        walk, shuffle = pipeline.generate_sequence, pipeline.vrp_generate

        def walk_spy(graph, *args, **kwargs):
            calls.append(graph.kind)
            return walk(graph, *args, **kwargs)

        def shuffle_spy(*args, **kwargs):
            calls.append("vrp")
            return shuffle(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_sequence", walk_spy)
        monkeypatch.setattr(pipeline, "vrp_generate", shuffle_spy)
        config = tiny_config(tiny_corpus_csv, methods=ALL_METHODS, sequences_per_window=4,
                             downsample_mode=mode, downsample_k=k)
        by_method, _ = run_generation(config)
        per_window = k if mode == "ds" else config.sequences_per_window
        assert {m: calls.count(m) for m in ALL_METHODS} == \
            {m: WINDOWS * per_window for m in ALL_METHODS}
        assert {m: len(s) for m, s in by_method.items()} == {m: WINDOWS * k for m in ALL_METHODS}

    @staticmethod
    def walk_everything(config, method, series_list=None):
        """Each window's output computed the long way, one window at a time:
        generate all ``sequences_per_window`` candidates, then keep DS's
        ``ds_indices`` of them, or under SimDS the k nearest to the window's
        raw closes by ``dtw_distances`` and a stable argsort. Also returns the
        number of windows whose k-th and (k+1)-th nearest distances tie."""
        windows_by_ticker = pipeline.prepare_windows(config, series_list)
        if method == "nvmg":
            units = {}
            for ticker in sorted(windows_by_ticker):
                for w in windows_by_ticker[ticker]:
                    units.setdefault(w.start_index, []).append(w)
        else:
            units = windows_by_ticker
        n, k = config.sequences_per_window, config.downsample_k
        kept, ties = {}, 0
        for windows in units.values():
            graph = None
            if method == "nvmg":
                graph = build_multigraph(
                    windows, similar_value_epsilon=config.similar_value_epsilon)
            elif method != "vrp":
                graph = {"nvg": build_nvg, "hvg": build_hvg}[method](windows)
            for position, window in enumerate(windows):
                key = (window.ticker, window.start_index)
                candidates = []
                for i in range(n):
                    seed = derive_seed(config.seed, *key, method, i)
                    candidates.append(
                        vrp_generate(window, seed=seed) if graph is None else generate_sequence(
                            graph, config.walk, window=position, seed=seed))
                if config.downsample_mode == "ds":
                    picked = ds_indices(n, k, derive_seed(config.seed, *key, method,
                                                          "downsample"))
                else:
                    dists = dtw_distances([c.values for c in candidates], [window.raw_values] * n)
                    order = np.argsort(dists, kind="stable")
                    ties += k < n and dists[order[k - 1]] == dists[order[k]]
                    picked = sorted(order[:k].tolist())
                kept[key] = [candidates[i] for i in picked]
        return kept, ties

    @staticmethod
    def assert_equals_walk_everything(config, windows, series_list=None):
        """Every method's output equals the reference on all ``windows``
        windows; returns the reference's tie count summed over methods."""
        by_method, _ = run_generation(config, series_list)

        def fingerprint(seq):
            scaled = None if seq.scaled_values is None else seq.scaled_values.tobytes()
            return seq.seed, seq.values.tobytes(), scaled

        ties = 0
        for method in config.methods:
            got = {}
            for seq in by_method[method]:
                got.setdefault((seq.ticker, seq.window_start), []).append(fingerprint(seq))
            kept, method_ties = TestDownsamplePick.walk_everything(config, method, series_list)
            expected = {key: [fingerprint(seq) for seq in seqs] for key, seqs in kept.items()}
            assert len(expected) == windows
            assert got == expected
            ties += method_ties
        return ties

    @pytest.mark.parametrize("seed, k, value_policy, node_strategy", [
        (0, 1, "random", "restart_random"),
        (0, 3, "round_robin", "random_neighbor_graph_switching"),
        (42, 2, "round_robin", "restart_random"),
        (42, 4, "random", "random_neighbor_graph_switching"),
        (7, 1, "round_robin", "uniform_random"),
        (7, 3, "random", "degree_weighted"),
    ])
    def test_equals_downsampling_every_candidate(self, tiny_corpus_csv, seed, k, value_policy,
                                                 node_strategy):
        config = tiny_config(tiny_corpus_csv, methods=ALL_METHODS, sequences_per_window=4,
                             downsample_mode="ds", downsample_k=k, seed=seed,
                             value_policy=value_policy, node_strategy=node_strategy)
        self.assert_equals_walk_everything(config, WINDOWS)

    @pytest.mark.parametrize("seed, k, value_policy, node_strategy", [
        (0, 1, "random", "restart_random"),
        (0, 3, "round_robin", "random_neighbor_graph_switching"),
        (42, 4, "random", "degree_weighted"),
        (7, 1, "round_robin", "uniform_random"),
        (7, 3, "random", "restart_random"),
    ])
    def test_simds_equals_selection_one_window_at_a_time(self, seed, k, value_policy,
                                                         node_strategy):
        """Holds on a corpus whose first window of one ticker is flat, so every
        candidate of that window is at distance 0 and the tie keeps the
        earliest k."""
        series_list = make_desk_corpus(n_tickers=3, n_days=80, seed=11)
        series_list[1].values[:20] = series_list[1].values[0]
        config = tiny_config("", methods=ALL_METHODS, sequences_per_window=4,
                             downsample_mode="simds", downsample_k=k, seed=seed,
                             value_policy=value_policy, node_strategy=node_strategy)
        ties = self.assert_equals_walk_everything(config, 3 * 4, series_list)
        assert ties >= (len(ALL_METHODS) if k < 4 else 0)

    @pytest.mark.parametrize("mode, k, scored", [("ds", 2, False), ("simds", 2, True),
                                                 ("simds", 4, False)])
    def test_one_selection_per_unit(self, tiny_corpus_csv, monkeypatch, mode, k, scored):
        """One ``downsample`` call per unit, over all its windows, and under
        SimDS with k < n one ``dtw_distances`` call over all its candidates."""
        selections, scorings = [], []
        select, score = pipeline.downsample, generate.dtw_distances

        def select_spy(sequences, windows, k):
            selections.append(len(windows))
            return select(sequences, windows, k)

        def score_spy(candidates, reference):
            scorings.append(len(candidates))
            return score(candidates, reference)

        monkeypatch.setattr(pipeline, "downsample", select_spy)
        monkeypatch.setattr(generate, "dtw_distances", score_spy)
        config = tiny_config(tiny_corpus_csv, methods=ALL_METHODS, sequences_per_window=4,
                             downsample_mode=mode, downsample_k=k)
        _, records = run_generation(config)
        # units: 3 tickers (nvg), 3 (hvg), 6 segments (nvmg), 3 tickers (vrp)
        windows_per_unit = [6] * 6 + [3] * 6 + [6] * 3
        assert selections == windows_per_unit and len(records) == len(windows_per_unit)
        assert scorings == ([4 * w for w in windows_per_unit] if scored else [])

    @pytest.mark.parametrize("mode", ["ds", "simds"])
    def test_unit_without_windows_keeps_its_runtime_record(self, mode):
        series_list = make_desk_corpus(n_tickers=3, n_days=60, seed=1)
        series_list[0].values[::5] = np.nan
        config = tiny_config("", methods=("nvg", "vrp", "nvmg"), sequences_per_window=4,
                             downsample_mode=mode, downsample_k=1)
        by_method, records = run_generation(config, series_list)
        assert {m: len(s) for m, s in by_method.items()} == {"nvg": 6, "vrp": 6, "nvmg": 6}
        assert len(records) == 9
        assert [r.unit_id for r in records if r.method == "nvg"] == \
            [s.ticker for s in sorted(series_list, key=lambda s: s.ticker)]


class TestEvaluation:
    def test_report_has_triple_per_method(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv)
        by_method, records = run_generation(config)
        report, overlaps = run_evaluation(config, by_method, runtime_records=records)
        assert set(report.methods) == set(config.methods)
        for method, ev in report.methods.items():
            assert 0.0 <= ev.auc_real <= 1.0
            assert ev.auc_synthetic is None or 0.0 <= ev.auc_synthetic <= 1.0
            assert ev.auc_mixed is None or 0.0 <= ev.auc_mixed <= 1.0
            assert ev.mixing_score is not None
        assert set(report.runtime_totals) == set(config.methods)

    def test_auc_real_identical_across_methods(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv)
        by_method, _ = run_generation(config)
        report, _ = run_evaluation(config, by_method, with_embedding=False)
        reals = {ev.auc_real for ev in report.methods.values()}
        assert len(reals) == 1

    def test_mixing_k_checked_before_the_experiment(self, tiny_corpus_csv, monkeypatch):
        """18 real windows and 18 vrp sequences embed 36 points: k 36 fails
        before any classifier is fit, naming the option and the count."""
        config = tiny_config(tiny_corpus_csv, methods=("vrp",), downsample_k=1)
        by_method, _ = run_generation(config)
        assert len(by_method["vrp"]) == 18

        def no_experiment(*args, **kwargs):
            raise AssertionError("the experiment ran before mixing_k was checked")

        monkeypatch.setattr(pipeline, "run_experiment", no_experiment)
        with pytest.raises(ConfigError, match=r"evaluation\.mixing_k .*36 points.*'vrp'.*36"):
            run_evaluation(dataclasses.replace(config, mixing_k=36), by_method)

    def test_too_small_embedding_rejected_before_any_fit(self, tiny_corpus_csv, monkeypatch):
        """One vrp sequence embeds 2 points, below the embedding's 4: a
        ValueError naming the method and the count, before any fit."""
        config = tiny_config(tiny_corpus_csv, methods=("vrp",), downsample_k=1, mixing_k=1)
        by_method, _ = run_generation(config)
        by_method["vrp"] = by_method["vrp"][:1]
        fits = []
        monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match=r"'vrp'.s embedding would hold 2 points") as excinfo:
            run_evaluation(config, by_method)
        assert not isinstance(excinfo.value, ConfigError)
        assert fits == []

    @pytest.mark.parametrize("with_embedding", [True, False])
    def test_sequence_of_no_input_window_rejected_before_any_fit(self, tiny_corpus_csv,
                                                                 monkeypatch, with_embedding):
        """A sequence is read with its source window's scale, so one whose
        (ticker, window_start) names no prepared window raises a ValueError
        naming the method and the key, before any fit."""
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "vrp"))
        by_method, _ = run_generation(config)
        stray = dataclasses.replace(by_method["vrp"][0], window_start=7)
        by_method["vrp"].append(stray)
        fits = []
        monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
        key = (stray.ticker, 7)
        with pytest.raises(ValueError, match=re.escape(
                f"method 'vrp': no input window for (ticker, window_start) {key}")):
            run_evaluation(config, by_method, with_embedding=with_embedding)
        assert fits == []

    def test_read_back_sequence_of_no_window_rejected_before_any_fit(
            self, tiny_corpus_csv, tmp_path, monkeypatch):
        """Sequences read back from a file meet their windows only in
        evaluation: evaluated without their first ticker's series, they raise
        naming the method and that ticker's first key, before any fit."""
        config = tiny_config(tiny_corpus_csv, methods=("vrp",))
        path = sequences_path(tmp_path, "vrp")
        write_sequences(run_generation(config)[0]["vrp"], path)
        back = read_sequences(path, "vrp")
        first = (back[0].ticker, back[0].window_start)
        series = [s for s in ingest.load_series(config.input) if s.ticker != first[0]]
        fits = []
        monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match=re.escape(
                f"method 'vrp': no input window for (ticker, window_start) {first}")):
            run_evaluation(config, {"vrp": back}, series)
        assert fits == []

    @pytest.mark.parametrize("with_embedding", [True, False])
    def test_wrong_length_sequences_rejected_before_any_fit(self, tiny_corpus_csv,
                                                            monkeypatch, with_embedding):
        """Sequences one value short of their windows raise a ValueError
        naming the method, the first one's (ticker, window_start, seed) and
        both lengths, before any fit, with the embedding on or off."""
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "vrp"))
        by_method, _ = run_generation(config)
        short = {m: [dataclasses.replace(s, values=s.values[:-1]) for s in sequences]
                 for m, sequences in by_method.items()}
        first = short["nvg"][0]
        fits = []
        monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match=re.escape(
                f"method 'nvg': sequence (ticker, window_start, seed) "
                f"{(first.ticker, first.window_start, first.seed)} has values of shape (19,) "
                f"for a window of length 20")):
            run_evaluation(config, short, with_embedding=with_embedding)
        assert fits == []

    @pytest.mark.parametrize("fault, error, message", [
        ("too_small", ValueError, "method 'vrp''s embedding would hold 2 points, below 4"),
        ("mixing_k", ConfigError,
         "evaluation.mixing_k must be below the 10 points embedded for method 'vrp', got 10"),
        ("no_window", ValueError, "method 'vrp': no input window for (ticker, window_start)"),
        ("wrong_length", ValueError, "has values of shape (19,) for a window of length 20"),
    ], ids=["too_small", "mixing_k", "no_window", "wrong_length"])
    def test_second_method_fault_rejected_before_any_fit(self, tiny_corpus_csv, monkeypatch,
                                                         fault, error, message):
        """Only the second-listed method is faulty: its fault still raises
        before any fit, once the first method's pass has mapped its prices."""
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "vrp"))
        by_method, _ = run_generation(config)
        assert len(by_method["nvg"]) == 36
        if fault == "too_small":
            by_method["vrp"] = by_method["vrp"][:1]
        elif fault == "mixing_k":
            by_method["vrp"] = by_method["vrp"][:5]
            config = dataclasses.replace(config, mixing_k=10)
        elif fault == "no_window":
            by_method["vrp"].append(dataclasses.replace(by_method["vrp"][0], window_start=7))
        else:
            by_method["vrp"][0] = dataclasses.replace(by_method["vrp"][0],
                                                      values=by_method["vrp"][0].values[:-1])
        fits, mapped = [], mapped_prices(monkeypatch)
        monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
        with pytest.raises(error, match=re.escape(message)) as excinfo:
            run_evaluation(config, by_method)
        assert isinstance(excinfo.value, ConfigError) == (error is ConfigError)
        assert fits == [] and len(mapped) == 36

    def test_first_listed_fault_is_the_one_reported(self, tiny_corpus_csv, monkeypatch):
        """Each method is checked in one pass, in method order: nvg's too
        small embedding is reported before vrp's sequence of no window."""
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "vrp"))
        by_method, _ = run_generation(config)
        by_method["nvg"] = by_method["nvg"][:1]
        by_method["vrp"].append(dataclasses.replace(by_method["vrp"][0], window_start=7))
        fits = []
        monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match="'nvg'.s embedding would hold 2 points"):
            run_evaluation(config, by_method)
        assert fits == []

    @pytest.mark.parametrize("with_embedding", [True, False])
    def test_prices_mapped_only_for_the_embedding(self, tiny_corpus_csv, monkeypatch,
                                                  with_embedding):
        """With the embedding on, each sequence's prices are mapped once;
        without it, never."""
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "vrp"), embed_iterations=20)
        by_method, _ = run_generation(config)
        mapped = mapped_prices(monkeypatch)
        _, overlaps = run_evaluation(config, by_method, with_embedding=with_embedding)
        assert len(mapped) == (72 if with_embedding else 0)
        assert set(overlaps) == ({"nvg", "vrp"} if with_embedding else set())

    def test_single_class_test_split_rejected_before_any_fit(self, monkeypatch):
        """Window 20 over 60 days leaves the real test split one window per
        ticker, all four rising: an error naming the split's size and its one
        label, before any classifier is fit."""
        def no_fit(*args, **kwargs):
            raise AssertionError("a classifier was fit for a test split of one class")

        series = make_desk_corpus(4, 60, seed=5)
        config = RunConfig(window_length=20)
        by_method, _ = run_generation(config, series)
        monkeypatch.setattr(evaluate, "fit_classifiers", no_fit)
        with pytest.raises(UndefinedMetricError,
                           match=r"real test split's 4 windows all have label 1"):
            run_evaluation(config, by_method, series)

    def test_mixing_k_counts_embed_max_points(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, methods=("vrp",), downsample_k=1,
                             embed_max_points=21, mixing_k=20)
        by_method, _ = run_generation(config)
        with pytest.raises(ConfigError, match="below the 20 points"):
            run_evaluation(config, by_method)

    def test_mixing_k_below_the_count_runs(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, methods=("vrp",), downsample_k=1,
                             mixing_k=35, embed_iterations=20)
        by_method, _ = run_generation(config)
        report, _ = run_evaluation(config, by_method)
        assert report.methods["vrp"].mixing_score is not None

    def test_mixing_k_unchecked_without_embedding(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, methods=("vrp",), mixing_k=500)
        by_method, _ = run_generation(config)
        report, overlaps = run_evaluation(config, by_method, with_embedding=False)
        assert overlaps == {} and report.methods["vrp"].mixing_score is None
