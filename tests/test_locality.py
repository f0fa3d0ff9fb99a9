"""The seed contract's locality. Every candidate's seed comes from its
identity (master seed, ticker, window start, method, candidate index), an
nvg, hvg or vrp unit is one ticker, and an nvmg unit is the segment of all
tickers' windows at one start. So:

- dropping a ticker leaves every other ticker's nvg, hvg and vrp bytes
  unchanged (nvmg's segments span tickers, so its bytes may change);
- truncating the days leaves the bytes of every window still complete
  unchanged, for all four methods;
- the order of the input file's rows, and so of its tickers, changes no
  byte.

Each property runs over corpus seeds, both downsample modes and the walk
options, on small corpora."""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vgsynth.cli import sequences_path
from vgsynth.corpus import make_desk_corpus, write_corpus_csv
from vgsynth.generate import NODE_STRATEGIES, RESTART_JUMPS, VALUE_POLICIES
from vgsynth.ingest import TimeSeries
from vgsynth.pipeline import DOWNSAMPLE_MODES, RunConfig, run_generation, write_sequences

WINDOW = 20

corpora = st.builds(make_desk_corpus, n_tickers=st.integers(4, 6),
                    n_days=st.integers(60, 150), seed=st.integers(0, 2**32 - 1))
configs = st.builds(RunConfig, seed=st.integers(0, 2**32 - 1), window_length=st.just(WINDOW),
                    sequences_per_window=st.just(4), downsample_k=st.integers(1, 3),
                    downsample_mode=st.sampled_from(DOWNSAMPLE_MODES),
                    node_strategy=st.sampled_from(NODE_STRATEGIES),
                    value_policy=st.sampled_from(VALUE_POLICIES),
                    restart_jump=st.sampled_from(RESTART_JUMPS))


def sequence_bytes(config, series_list):
    """Each (method, ticker, window start)'s sequences as (seed, value
    bytes), in output order."""
    out = {}
    for method, sequences in run_generation(config, series_list)[0].items():
        for s in sequences:
            out.setdefault((method, s.ticker, s.window_start), []).append(
                (s.seed, s.values.tobytes()))
    return out


@settings(deadline=None, max_examples=10)
@given(corpus=corpora, config=configs, data=st.data())
def test_dropping_a_ticker_leaves_the_others_unchanged(corpus, config, data):
    dropped = data.draw(st.integers(0, len(corpus) - 1), label="dropped")
    gone = corpus[dropped].ticker
    full = sequence_bytes(config, corpus)
    rest = sequence_bytes(config, corpus[:dropped] + corpus[dropped + 1:])
    assert any(ticker == gone for _, ticker, _ in full)
    for method in ("nvg", "hvg", "vrp"):
        assert ({key: v for key, v in rest.items() if key[0] == method}
                == {key: v for key, v in full.items() if key[0] == method and key[1] != gone})


@settings(deadline=None, max_examples=10)
@given(corpus=corpora, config=configs, data=st.data())
def test_truncating_days_leaves_complete_windows_unchanged(corpus, config, data):
    # a cut that loses at least the last complete window
    days = len(corpus[0])
    cut = data.draw(st.integers(WINDOW, days // WINDOW * WINDOW - 1), label="cut")
    short = [TimeSeries(s.ticker, s.timestamps[:cut], s.values[:cut]) for s in corpus]
    full = sequence_bytes(config, corpus)
    kept = sequence_bytes(config, short)
    assert {method for method, _, _ in kept} == set(config.methods)
    assert kept == {key: v for key, v in full.items() if key[2] + WINDOW <= cut}


def written_sequences(config, out):
    """The sequence files a run of ``config`` writes into ``out``, as bytes."""
    out.mkdir()
    for method, sequences in run_generation(config)[0].items():
        write_sequences(sequences, sequences_path(out, method))
    return [sequences_path(out, m).read_bytes() for m in config.methods]


@settings(deadline=None, max_examples=10)
@given(corpus=corpora, config=configs, order=st.randoms(use_true_random=False))
def test_row_order_changes_no_byte(corpus, config, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        write_corpus_csv(corpus, path)
        config = replace(config, input=str(path))
        in_order = written_sequences(config, Path(tmp) / "in_order")
        header, *rows = path.read_text().splitlines()
        order.shuffle(rows)
        path.write_text("\n".join([header, *rows]) + "\n")
        assert written_sequences(config, Path(tmp) / "shuffled") == in_order
