import json
from dataclasses import replace
from pathlib import Path

import pytest

from vgsynth import cli, evaluate, oracles, pipeline
from vgsynth.cli import cmd_selftest, main
from vgsynth.corpus import make_desk_corpus, write_corpus_csv
from vgsynth.graphs import build_hvg, build_nvg
from vgsynth.pipeline import RunConfig, run_evaluation, run_generation


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_data") / "prices.csv"
    write_corpus_csv(make_desk_corpus(n_tickers=2, n_days=90, seed=5), path)
    return path


@pytest.fixture(scope="module")
def eval_corpus_csv(tmp_path_factory):
    # large enough for a chronological split with both labels present
    path = tmp_path_factory.mktemp("cli_eval_data") / "prices.csv"
    write_corpus_csv(make_desk_corpus(n_tickers=3, n_days=220, seed=5), path)
    return path


def config_file(tmp_path, corpus_csv, out_dir, **overrides):
    cfg = {
        "input": str(corpus_csv),
        "out_dir": str(out_dir),
        "seed": 7,
        "window_length": 20,
        "methods": ["vrp"],
        "sequences_per_window": 3,
        "downsample": {"mode": "ds", "k": 2},
        "evaluation": {"perplexity": 4.0, "embed_iterations": 40, "mixing_k": 2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def spy_on_fit(monkeypatch) -> list:
    """The argument tuples of every ``evaluate.fit_classifiers`` call from
    now on; none of them fits."""
    fits = []
    monkeypatch.setattr(evaluate, "fit_classifiers", lambda *a, **k: fits.append(a))
    return fits


def dropping_the_last_edge(builder):
    """``builder``, with the last edge of each graph it builds dropped."""
    def corrupted(windows):
        graph = builder(windows)
        last = slice(None, -1)
        return replace(graph, edge_u=graph.edge_u[last], edge_v=graph.edge_v[last],
                       edge_kind=graph.edge_kind[last], edge_mult=graph.edge_mult[last])

    return corrupted


class TestGenerateCommand:
    def test_writes_sequences_runtime_and_snapshot(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (out / "sequences_vrp.jsonl").exists()
        assert (out / "runtime.jsonl").exists()
        assert (out / "config_snapshot.json").exists()
        # 90 days / stride 20 -> 4 windows per ticker, k=2 kept
        lines = (out / "sequences_vrp.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 4 * 2

    def test_same_seed_is_byte_identical(self, tmp_path, corpus_csv):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            cfg = config_file(tmp_path, corpus_csv, out)
            assert main(["generate", "--config", str(cfg)]) == 0
            outs.append((out / "sequences_vrp.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_method_exits_2(self, tmp_path, corpus_csv, capsys):
        cfg = config_file(tmp_path, corpus_csv, tmp_path / "out", methods=["wavelet"])
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "wavelet" in err and "nvg" in err

    def test_methods_string_exits_2_naming_the_type(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out, methods="nvg")
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "methods must be a list of strings, got str 'nvg'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_split_exits_2_without_output(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out,
                          evaluation={"split": [0.6, 0.3, 0.3]})
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "split" in capsys.readouterr().err
        assert not (out / "sequences_vrp.jsonl").exists()

    def test_downsample_k_above_candidates_exits_2_without_output(self, tmp_path, corpus_csv,
                                                                  capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out, downsample={"mode": "ds", "k": 4})
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "downsample.k (4)" in err and "sequences_per_window (3)" in err
        assert not (out / "sequences_vrp.jsonl").exists()

    def test_any_valid_window_length_runs(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out)
        assert main(["generate", "--config", str(cfg), "--window", "30"]) == 0
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["window_length"] == 30

    def test_file_value_a_flag_replaces_is_not_checked(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out, window_length=2, methods="vrp")
        assert main(["generate", "--config", str(cfg), "--window", "20",
                     "--methods", "vrp"]) == 0
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert (snapshot["window_length"], snapshot["methods"]) == (20, ["vrp"])

    def test_too_short_window_exits_2(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out)
        assert main(["generate", "--config", str(cfg), "--window", "2"]) == 2
        assert "window length must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_seed_exits_2_without_output(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out, seed="x")
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (out / "sequences_vrp.jsonl").exists()

    def test_workers_option_exits_2_without_output(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus_csv, out, workers=2)
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "unknown config option 'workers'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["input", "out_dir"])
    def test_non_string_path_exits_2_without_output(self, tmp_path, corpus_csv, capsys,
                                                    monkeypatch, field):
        # before any generation: a number in place of a path names its field
        cfg = config_file(tmp_path, corpus_csv, "out")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: 5}))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 2
        assert f"{field} must be a string, got 5" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_repeated_method_exits_2_without_output(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--input", str(corpus_csv), "--methods", "vrp,vrp",
                     "--out", str(out)]) == 2
        assert "methods lists ['vrp'] more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_1(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "ghost.csv")}))
        assert main(["generate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("row, problem", [(",,1.0", "blank ticker"),
                                              ("2021-01-05,AAA,1.0,7", "4 fields")])
    def test_malformed_input_row_exits_1_naming_the_line(self, tmp_path, corpus_csv, capsys,
                                                          row, problem):
        bad = tmp_path / "bad.csv"
        bad.write_text(corpus_csv.read_text() + row + "\n")
        line = len(bad.read_text().splitlines())
        out = tmp_path / "out"
        assert main(["generate", "--input", str(bad), "--methods", "vrp",
                     "--out", str(out)]) == 1
        assert f"error: {bad}:{line}: {problem}" in capsys.readouterr().err
        assert not (out / "sequences_vrp.jsonl").exists()

    @pytest.mark.parametrize("methods", ["nvmg", "nvg"])
    def test_no_complete_window_exits_1_without_output(self, tmp_path, capsys, methods):
        short = tmp_path / "short.csv"
        write_corpus_csv(make_desk_corpus(n_tickers=2, n_days=15, seed=5), short)
        out = tmp_path / "out"
        assert main(["generate", "--input", str(short), "--window", "20",
                     "--methods", methods, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {short}: no ticker has a complete window of 20 values" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_under_a_file_exits_1_before_generating(self, tmp_path, corpus_csv, capsys,
                                                        monkeypatch, below):
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = blocker / below

        def no_generation(*args, **kwargs):
            raise AssertionError("generation ran for an output directory it cannot make")

        monkeypatch.setattr(cli, "run_generation", no_generation)
        assert main(["generate", "--input", str(corpus_csv), "--methods", "vrp",
                     "--out", str(out)]) == 1
        assert (f"error: cannot make output directory {out}: {blocker} is not a directory"
                in capsys.readouterr().err)
        assert blocker.read_text() == "a file\n"

    def test_flag_overrides(self, tmp_path, corpus_csv):
        out = tmp_path / "flags_out"
        cfg = config_file(tmp_path, corpus_csv, tmp_path / "ignored")
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--methods", "vrp", "--seed", "9"]) == 0
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["seed"] == 9
        assert snapshot["out_dir"] == str(out)


class TestEvaluateCommand:
    def test_full_cycle_writes_report(self, tmp_path, eval_corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "vrp" in report["methods"]
        triple = report["methods"]["vrp"]
        assert {"auc_real", "auc_synthetic", "auc_mixed", "mixing_score"} <= set(triple)
        assert (out / "embedding_vrp.csv").exists()

    def test_keeps_the_snapshot_generate_wrote(self, tmp_path, eval_corpus_csv):
        """The snapshot stays what generated the sequences; report.json
        records the config evaluate ran with."""
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        assert main(["evaluate", "--config", str(cfg), "--seed", "2"]) == 0
        assert json.loads((out / "config_snapshot.json").read_text())["seed"] == 1
        report = json.loads((out / "report.json").read_text())
        assert (report["seed"], report["config"]["seed"]) == (2, 2)

    def test_sequences_from_other_windows_exit_1(self, tmp_path, eval_corpus_csv, capsys,
                                                  monkeypatch):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        ticker = json.loads((out / "sequences_vrp.jsonl").read_text().splitlines()[0])["ticker"]
        capsys.readouterr()
        fits = spy_on_fit(monkeypatch)
        # window 30 has no window starting at 20, where a window-20 sequence sits
        assert main(["evaluate", "--config", str(cfg), "--window", "30"]) == 1
        assert (f"error: method 'vrp': no input window for (ticker, window_start) "
                f"{(ticker, 20)}" in capsys.readouterr().err)
        assert fits == []
        assert not (out / "report.json").exists()

    def test_sequence_of_wrong_length_exits_1_before_any_fit(self, tmp_path, eval_corpus_csv,
                                                             capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_vrp.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        del record["values"][-1]
        lines[-1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        fits = spy_on_fit(monkeypatch)
        assert main(["evaluate", "--config", str(cfg)]) == 1
        identity = (record["ticker"], record["window_start"], record["seed"])
        assert (f"error: method 'vrp': sequence (ticker, window_start, seed) {identity} "
                f"has values of shape (19,) for a window of length 20" in capsys.readouterr().err)
        assert fits == []
        assert not (out / "report.json").exists()

    def test_prepares_the_windows_once(self, tmp_path, eval_corpus_csv, monkeypatch):
        """Each ticker's series is sliced into windows once: one
        ``prepare_windows`` call, made by the evaluation itself."""
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        sliced = []
        slice_windows = pipeline.slice_windows
        monkeypatch.setattr(pipeline, "slice_windows",
                            lambda series, *a: sliced.append(series.ticker)
                            or slice_windows(series, *a))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert len(sliced) == len(set(sliced)) == 3

    @pytest.mark.parametrize("ticker", [["T00"], 5, None])
    def test_non_string_ticker_exits_1_naming_the_line(self, tmp_path, eval_corpus_csv,
                                                       capsys, monkeypatch, ticker):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_vrp.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "ticker": ticker})
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        fits = spy_on_fit(monkeypatch)
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert f"error: {path}:2: ticker {ticker!r} is not a string" in capsys.readouterr().err
        assert fits == []
        assert not (out / "report.json").exists()

    def test_truncated_sequence_record_exits_1_naming_the_line(self, tmp_path,
                                                                eval_corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_vrp.jsonl"
        path.write_text(path.read_text()[:-10])
        line = len(path.read_text().splitlines())
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert f"error: {path}:{line}: malformed record" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_non_finite_sequence_value_exits_1_naming_the_line(self, tmp_path,
                                                               eval_corpus_csv, capsys):
        """Python's json reads NaN, so a record can carry one; evaluated, it
        turns every embedding coordinate into nan."""
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_vrp.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["values"][3] = float("nan")
        lines[-1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert (f"error: {path}:{len(lines)}: record holds a value that is not finite"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    def test_records_of_another_method_exit_1_naming_both(self, tmp_path, eval_corpus_csv,
                                                          capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_nvg.jsonl"
        (out / "sequences_vrp.jsonl").rename(path)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--methods", "nvg"]) == 1
        assert (f"error: {path}:1: a 'vrp' record in a file of method 'nvg'"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    def test_repeated_records_exit_1_naming_both_lines(self, tmp_path, eval_corpus_csv,
                                                       capsys):
        """A file holding every record twice would train on and embed each
        synthetic row twice, a different experiment."""
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_vrp.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines) + "\n")
        first = json.loads(lines[0])
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        identity = (first["ticker"], first["window_start"], first["seed"])
        assert (f"error: {path}:{len(lines) + 1}: (ticker, window_start, seed) {identity} "
                f"repeats line 1" in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("field, value, problem", [
        ("seed", "x", "seed 'x' is not an integer in [0, 2**64)"),
        ("seed", -1, "seed -1 is not an integer in [0, 2**64)"),
        ("seed", 2**64, f"seed {2**64} is not an integer in [0, 2**64)"),
        ("seed", 7.0, "seed 7.0 is not an integer in [0, 2**64)"),
        ("seed", True, "seed True is not an integer in [0, 2**64)"),
        ("window_start", 0.0, "window_start 0.0 is not an integer"),
        ("window_start", False, "window_start False is not an integer")])
    def test_non_integer_seed_or_start_exits_1_naming_the_line(self, tmp_path,
                                                               eval_corpus_csv, capsys,
                                                               field, value, problem):
        """Each value here once evaluated: a float or bool start still found
        its window, since 0.0 == False == 0 as a key."""
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        path = out / "sequences_vrp.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        assert record["window_start"] == 0
        record[field] = value
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert f"error: {path}:1: {problem}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_mixing_k_above_the_points_exits_2_without_report(self, tmp_path,
                                                              eval_corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        cfg = config_file(tmp_path, eval_corpus_csv, out,
                          evaluation={"perplexity": 4.0, "embed_iterations": 40,
                                      "mixing_k": 500})
        assert main(["evaluate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error: evaluation.mixing_k" in err and "got 500" in err
        assert not (out / "report.json").exists()
        assert not (out / "embedding_vrp.csv").exists()

    def test_reads_the_input_once(self, tmp_path, eval_corpus_csv, monkeypatch):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        assert main(["generate", "--config", str(cfg)]) == 0
        reads = []
        path_open = Path.open

        def counting_open(self, *args, **kwargs):
            if self == Path(eval_corpus_csv):
                reads.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert len(reads) == 1

    def test_missing_generated_file_exits_1(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "empty_out"
        cfg = config_file(tmp_path, corpus_csv, out)
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert "sequences_vrp.jsonl" in capsys.readouterr().err

    def test_report_equals_the_in_process_report(self, tmp_path):
        """``vgsynth generate`` then ``vgsynth evaluate`` report what
        ``run_generation`` then ``run_evaluation`` do, for every method with
        the embedding on: a graph walk's prices, read back from the file,
        embed the same points as the sequences generated in-process."""
        corpus = tmp_path / "prices.csv"
        write_corpus_csv(make_desk_corpus(6, 200, seed=5), corpus)
        out = tmp_path / "out"
        cfg = config_file(tmp_path, corpus, out, seed=3,
                          methods=["nvg", "hvg", "nvmg", "vrp"],
                          sequences_per_window=10, downsample={"mode": "simds", "k": 1},
                          evaluation={"perplexity": 10.0, "embed_iterations": 100,
                                      "mixing_k": 5})
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        from_cli = json.loads((out / "report.json").read_text())

        config = RunConfig.from_file(cfg)
        report, _ = run_evaluation(config, run_generation(config)[0])
        in_process = json.loads(json.dumps(report.to_dict()))
        for fields in (from_cli, in_process):
            del fields["runtime_totals_ms"]  # timings
        assert sorted(in_process["methods"]) == ["hvg", "nvg", "nvmg", "vrp"]
        assert all(m["mixing_score"] is not None for m in in_process["methods"].values())
        assert from_cli == in_process


class TestReportCommand:
    def test_prints_tables(self, tmp_path, eval_corpus_csv, capsys):
        out = tmp_path / "out"
        cfg = config_file(tmp_path, eval_corpus_csv, out)
        main(["generate", "--config", str(cfg)])
        main(["evaluate", "--config", str(cfg)])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "auc_real" in printed
        assert "vrp" in printed

    def test_empty_dir_exits_1(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == 1

    def test_truncated_runtime_log_exits_1_naming_the_line(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--input", str(corpus_csv), "--methods", "vrp",
                     "--out", str(out)]) == 0
        path = out / "runtime.jsonl"
        path.write_text(path.read_text()[:-10])
        line = len(path.read_text().splitlines())
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        assert f"error: {path}:{line}: malformed record" in capsys.readouterr().err

    def test_report_not_json_exits_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("not json\n")
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: Expecting value: line 1 column 1")

    def test_method_without_auc_real_exits_1_naming_file_and_method(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"methods": {"nvg": {"auc_synthetic": 0.4,
                                                        "auc_mixed": 0.5}}}))
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: method 'nvg' lacks auc_real\n"

    @pytest.mark.parametrize("field, value, problem", [
        ("auc_real", "x", "auc_real must be a number, got 'x'"),
        ("auc_real", None, "auc_real must be a number, got None"),
        ("auc_synthetic", [0.5], "auc_synthetic must be a number or null, got [0.5]"),
        ("auc_mixed", False, "auc_mixed must be a number or null, got False"),
        ("mixing_score", True, "mixing_score must be a number or null, got True"),
    ])
    def test_score_of_the_wrong_type_exits_1_naming_file_method_and_field(
            self, tmp_path, capsys, field, value, problem):
        path = tmp_path / "report.json"
        scores = {"auc_real": 0.6, "auc_synthetic": None, "auc_mixed": 0.5, field: value}
        path.write_text(json.dumps({"methods": {"nvg": scores}}))
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: method 'nvg': {problem}\n")

    @pytest.mark.parametrize("field, value, problem", [
        ("valid", "no", "valid must be true or false, got 'no'"),
        ("method", 7, "method must be a string, got 7"),
    ])
    def test_runtime_field_of_the_wrong_type_exits_1_naming_the_line(
            self, tmp_path, capsys, field, value, problem):
        path = tmp_path / "runtime.jsonl"
        record = {"unit_id": "AAA", "unit_kind": "ticker", "method": "vrp", "elapsed_ms": 3}
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n")
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}:2: malformed record: {problem}\n")

    def test_empty_runtime_log_exits_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "runtime.jsonl"
        path.write_text("")
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no runtime records to aggregate\n"

    @pytest.mark.parametrize("body, problem", [
        ([1], "report is not a JSON object"),
        ({"methods": [1]}, "'methods' is not a JSON object"),
        ({"runtime_totals_ms": 3}, "'runtime_totals_ms' is not a JSON object"),
    ])
    def test_report_not_an_object_exits_1_naming_the_file(self, tmp_path, capsys,
                                                          body, problem):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(body))
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {problem}\n"

    def test_method_not_an_object_exits_1_naming_file_and_method(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"methods": {"nvg": 3}}))
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: method 'nvg' is not a JSON object\n"


class TestSelftestCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_corrupted_criterion_fails_with_pair(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "build_nvg", dropping_the_last_edge(build_nvg))
        assert cmd_selftest() == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "nvg: edge mismatch on pair" in out

    def test_corrupted_hvg_fails_with_pair(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "build_hvg", dropping_the_last_edge(build_hvg))
        assert cmd_selftest() == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "hvg: edge mismatch on pair" in out
