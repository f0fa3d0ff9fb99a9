import json
import re
from pathlib import Path

import numpy as np
import pytest

from vgsynth import pipeline
from vgsynth.corpus import make_desk_corpus, write_corpus_csv
from vgsynth.evaluate import LogisticClassifier
from vgsynth.pipeline import (ConfigError, RunConfig, read_sequences,
                              run_evaluation, run_generation, sequences_path,
                              write_sequences)


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


class TestRunConfig:
    def test_unknown_method_is_config_error(self, tiny_corpus_csv):
        config = tiny_config(tiny_corpus_csv, methods=("nvg", "gan"))
        with pytest.raises(ConfigError, match=r"gan.*valid methods"):
            config.validate()

    def test_window_length_minimum(self, tiny_corpus_csv):
        with pytest.raises(ConfigError):
            tiny_config(tiny_corpus_csv, window_length=2).validate()

    def test_probability_bounds(self, tiny_corpus_csv):
        with pytest.raises(ConfigError):
            tiny_config(tiny_corpus_csv, restart_prob=1.5).validate()

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
    def test_bad_split_rejected_before_generation(self, tiny_corpus_csv, monkeypatch, split):
        def no_generation(*args, **kwargs):
            raise AssertionError("generation ran before the split was checked")

        monkeypatch.setattr(pipeline, "prepare_windows", no_generation)
        config = tiny_config(tiny_corpus_csv, split=split)
        with pytest.raises(ConfigError, match="split"):
            run_generation(config)

    @pytest.mark.parametrize("data", [{"downsample": "ds"}, {"walk": []},
                                      {"evaluation": {"split": 5}},
                                      {"evaluation": {"split": ["a", 0.5, 0.5]}}])
    def test_malformed_sections_are_config_errors(self, data):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"input": "x", **data}).validate()

    def test_non_object_config_is_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict([1, 2])

    @pytest.mark.parametrize("field, value", [
        ("seed", "x"), ("seed", -1), ("window_length", "20"), ("stride", 0),
        ("sequences_per_window", 2.0), ("downsample_k", True),
        ("similar_value_epsilon", -0.01), ("l2", -1), ("tol", float("nan")),
        ("perplexity", 0), ("max_iter", 0), ("embed_iterations", 2.5), ("mixing_k", 0),
        ("embed_max_points", 1), ("restart_prob", "0.1"), ("split", (True, 0.0, 0.0)),
        ("switch_prob", True), ("methods", ("vrp", "nvg", "vrp")),
    ])
    def test_bad_value_rejected_before_generation(self, tiny_corpus_csv, monkeypatch,
                                                  field, value):
        def no_generation(*args, **kwargs):
            raise AssertionError(f"generation ran before {field} was checked")

        monkeypatch.setattr(pipeline, "prepare_windows", no_generation)
        config = tiny_config(tiny_corpus_csv, **{field: value})
        with pytest.raises(ConfigError, match=field.replace("_", "[_ ]")):
            run_generation(config)

    def test_boundary_values_accepted(self, tiny_corpus_csv):
        # the benchmark's classifier settings (tol 0, fixed 1500 iterations)
        tiny_config(tiny_corpus_csv, tol=0.0, max_iter=1500, l2=0, seed=np.int64(0),
                    stride=None, embed_max_points=4, similar_value_epsilon=0.0).validate()

    def test_split_within_rounding_accepted(self, tiny_corpus_csv):
        tiny_config(tiny_corpus_csv, split=(0.7, 0.2, 0.1 + 1e-12)).validate()

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

    def test_sequence_file_round_trip(self, tiny_corpus_csv, tmp_path):
        config = tiny_config(tiny_corpus_csv, methods=("nvg",))
        by_method, _ = run_generation(config)
        path = sequences_path(tmp_path, "nvg")
        write_sequences(by_method["nvg"], path)
        windows_by_key = {(w.ticker, w.start_index): w
                          for ws in pipeline.prepare_windows(config).values() for w in ws}
        back = read_sequences(path, windows_by_key)
        assert len(back) == len(by_method["nvg"])
        for a, b in zip(by_method["nvg"], back):
            assert (a.ticker, a.window_start, a.seed) == (b.ticker, b.window_start, b.seed)
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=0)
            window = windows_by_key[(b.ticker, b.window_start)]
            assert (b.scale_min, b.scale_max) == (window.scale_min, window.scale_max) \
                == (a.scale_min, a.scale_max)
            np.testing.assert_allclose(b.scaled_values, a.scaled_values, rtol=0, atol=1e-12)

    def test_read_with_windows_rejects_unknown_window(self, tiny_corpus_csv, tmp_path):
        config = tiny_config(tiny_corpus_csv, methods=("vrp",))
        path = sequences_path(tmp_path, "vrp")
        write_sequences(run_generation(config)[0]["vrp"], path)
        windows_by_key = {(w.ticker, w.start_index): w
                          for ws in pipeline.prepare_windows(config).values() for w in ws}
        first = min(windows_by_key)
        assert len(read_sequences(path, windows_by_key)) > 0
        del windows_by_key[first]
        with pytest.raises(ValueError, match=rf"{path.name}.*{first[0]!r}, {first[1]}"):
            read_sequences(path, windows_by_key)

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
        config.mixing_k = 36
        with pytest.raises(ConfigError, match=r"evaluation\.mixing_k .*36 points.*'vrp'.*36"):
            run_evaluation(config, by_method)

    def test_too_small_embedding_rejected_before_any_fit(self, tiny_corpus_csv, monkeypatch):
        """One vrp sequence embeds 2 points, below the embedding's 4: a
        ValueError naming the method and the count, before any fit."""
        config = tiny_config(tiny_corpus_csv, methods=("vrp",), downsample_k=1, mixing_k=1)
        by_method, _ = run_generation(config)
        by_method["vrp"] = by_method["vrp"][:1]
        fits = []
        monkeypatch.setattr(LogisticClassifier, "fit", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match=r"'vrp'.s embedding would hold 2 points") as excinfo:
            run_evaluation(config, by_method)
        assert not isinstance(excinfo.value, ConfigError)
        assert fits == []

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
