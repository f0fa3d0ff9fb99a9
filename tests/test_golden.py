"""Golden outputs: generation and evaluation on fixed small corpora are
byte-identical.

The generation digests are the sha256 of each method's ``write_sequences``
file. A change that alters how the random stream is consumed, or any
arithmetic that reaches a kept sequence, changes them; such a change must
version the seed contract and record new digests in the same commit.

The evaluation digest is the sha256 of every method's AUC triple and of one
method's mixing score, written as JSON (floats in their shortest round-trip
form).
"""

import hashlib
import json

import pytest

from vgsynth import evaluate
from vgsynth.corpus import make_desk_corpus
from vgsynth.pipeline import RunConfig, run_evaluation, run_generation, write_sequences

from reference_features import reference_feature_matrix

GOLDEN = {
    "simds": {
        "nvg": "12a1cb64642e495e6315c53347a0d3e708caa0ca8cec4eab02144ee208875c5f",
        "hvg": "9cd2a205c2033510008f8a595371eebf542ba74f6fa95d79a5bf6b495b86012c",
        "nvmg": "16507db48ac86652d606d1dd21109d024cdb4fe76d0921f13597e95d836cc6e8",
        "vrp": "13e99c299c561848802d2f5a72e49eac77d7ced58d757ca805ea31e11d4442ac",
    },
    "ds_switching": {
        "nvg": "66a278e14b7a7877b78c75baa1bcb84bfe5dfba1e996e453683aef0cbf452edb",
        "hvg": "ad730f625ec40b679913b50582f408f01bebc90ba1225d59866d8b073b65a02b",
        "nvmg": "80ec4c2091e90a58660bc2a0ac4c14c9f6be06d41b3ae1c4c2a3ef51d74fe5bf",
        "vrp": "329183df33af18c5a2c0166a1e544648361d7ef1722771a07bad874ee5275e11",
    },
}

CONFIGS = {
    "simds": dict(downsample_mode="simds"),
    "ds_switching": dict(downsample_mode="ds",
                         node_strategy="random_neighbor_graph_switching"),
}


@pytest.fixture(scope="module")
def corpus():
    return make_desk_corpus(n_tickers=4, n_days=60, seed=5)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sequence_digests(name, corpus, tmp_path):
    config = RunConfig(seed=17, window_length=20, methods=("nvg", "hvg", "nvmg", "vrp"),
                       sequences_per_window=10, downsample_k=1, **CONFIGS[name])
    by_method, _ = run_generation(config, corpus)
    digests = {}
    for method, sequences in by_method.items():
        path = tmp_path / f"sequences_{method}.jsonl"
        write_sequences(sequences, path)
        digests[method] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN[name]


EVALUATION_GOLDEN = "b13f268e9b8dd42aec00d36bb268ba391d55eefb14b730b298acc8fea9094d88"


def evaluation_digest():
    """Every AUC of the triple is defined for every method on this corpus;
    the embedding runs for vrp only, with few iterations."""
    corpus = make_desk_corpus(n_tickers=6, n_days=120, seed=5)
    config = RunConfig(seed=17, window_length=10, methods=("nvg", "hvg", "nvmg", "vrp"),
                       sequences_per_window=10, downsample_k=1, downsample_mode="simds",
                       perplexity=5.0, embed_iterations=30, mixing_k=3)
    by_method, _ = run_generation(config, corpus)
    report, _ = run_evaluation(config, by_method, series_list=corpus, with_embedding=False)
    embedded, _ = run_evaluation(config, {"vrp": by_method["vrp"]}, series_list=corpus)
    scores = {m: [ev.auc_real, ev.auc_synthetic, ev.auc_mixed]
              for m, ev in report.methods.items()}
    assert all(None not in triple for triple in scores.values())
    scores["vrp"].append(embedded.methods["vrp"].mixing_score)
    text = json.dumps(scores, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_evaluation_digest():
    assert evaluation_digest() == EVALUATION_GOLDEN


def test_evaluation_digest_under_per_row_features(monkeypatch):
    """The per-row feature code the matrix form replaced gives the same
    digest: the low bits in which their fits differ move no AUC."""
    monkeypatch.setattr(evaluate, "extract_features", reference_feature_matrix)
    assert evaluation_digest() == EVALUATION_GOLDEN
