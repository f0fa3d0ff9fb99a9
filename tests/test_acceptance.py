"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run pytest with ``-s`` to see them interleaved; they are also captured in
the test report). The desk corpus is a fixed-seed regime-switching geometric
random walk; see vgsynth.corpus.
"""

import time

import numpy as np
import pytest

from vgsynth.corpus import make_desk_corpus
from vgsynth.embedding import conditional_affinities, embed_2d, embedding_overlap, mixing_score
from vgsynth.evaluate import FEATURE_NAMES, extract_features
from vgsynth.generate import vrp_generate
from vgsynth.graphs import VISIBILITY, build_hvg, build_multigraph, build_nvg
from vgsynth.ingest import Window
from vgsynth.oracles import check_auc, check_dtw, check_visibility
from vgsynth.pipeline import RunConfig, run_evaluation, run_generation, write_sequences

CORPUS_SEED = 2024
RSI = FEATURE_NAMES.index("rsi")


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_scaled(rng, length):
    return Window("T", 0, rng.random(length) * 40 + 10)


def test_criterion_1_visibility_oracle_equivalence():
    start = time.perf_counter()
    ok, detail = check_visibility(200)
    elapsed = time.perf_counter() - start
    check("criterion 1 (visibility oracle equivalence)", ok and elapsed < 10.0,
          f"{detail}, {elapsed:.1f}s (< 10s)")


def test_criterion_2_dtw_oracle():
    start = time.perf_counter()
    ok, detail = check_dtw(500)
    elapsed = time.perf_counter() - start
    check("criterion 2 (dtw oracle)", ok and elapsed < 30.0,
          f"{detail}, {elapsed:.1f}s (< 30s)")


def test_criterion_3_auc_oracle():
    check("criterion 3 (auc oracle)", *check_auc(1000))


@pytest.fixture(scope="module")
def desk_experiment():
    series = make_desk_corpus(n_tickers=20, n_days=500, seed=CORPUS_SEED)
    results: dict[str, list[tuple[float, float, float]]] = {}
    start = time.perf_counter()
    for seed in range(5):
        config = RunConfig(input="", seed=seed, methods=("nvg", "hvg", "nvmg", "vrp"),
                           sequences_per_window=10, downsample_mode="simds",
                           downsample_k=1)
        by_method, _ = run_generation(config, series_list=series)
        report, _ = run_evaluation(config, by_method, series_list=series,
                                   with_embedding=False)
        for method, ev in report.methods.items():
            results.setdefault(method, []).append(
                (ev.auc_real, ev.auc_synthetic, ev.auc_mixed))
    elapsed = time.perf_counter() - start
    means = {m: np.array(v).mean(axis=0) for m, v in results.items()}
    return means, elapsed


def test_criterion_4_ordinal_auc_reproduction(desk_experiment):
    means, elapsed = desk_experiment
    problems = []
    for method, (auc_real, auc_synth, auc_mixed) in means.items():
        if not auc_real > auc_synth:
            problems.append(f"{method}: real {auc_real:.3f} <= synth {auc_synth:.3f}")
        if not (auc_synth - 0.02 <= auc_mixed <= auc_real + 0.02):
            problems.append(f"{method}: mixed {auc_mixed:.3f} outside "
                            f"[{auc_synth - 0.02:.3f}, {auc_real + 0.02:.3f}]")
    graph_mean = (means["nvg"][1] + means["hvg"][1]) / 2
    if not graph_mean >= means["vrp"][1]:
        problems.append(f"graph mean {graph_mean:.3f} < vrp {means['vrp'][1]:.3f}")
    if not elapsed < 600.0:
        problems.append(f"runtime {elapsed:.0f}s >= 600s")
    detail = (f"real {means['nvg'][0]:.3f}; synth "
              + ", ".join(f"{m} {v[1]:.3f}" for m, v in sorted(means.items()))
              + f"; graph mean {graph_mean:.3f} vs vrp {means['vrp'][1]:.3f}; "
              f"{elapsed:.0f}s (< 600s)")
    check("criterion 4 (ordinal auc reproduction, 5 seeds)", not problems,
          detail if not problems else "; ".join(problems))


def test_criterion_5_runtime_scale():
    series = make_desk_corpus(n_tickers=160, n_days=500, seed=99)
    config = RunConfig(input="", seed=0, methods=("nvg", "hvg", "vrp"),
                       sequences_per_window=10, downsample_mode="ds", downsample_k=5)
    _, records = run_generation(config, series_list=series)
    summed: dict[str, int] = {}
    for rec in records:
        summed[rec.method] = summed.get(rec.method, 0) + rec.elapsed_ms
    graph_ms = summed["nvg"] + summed["hvg"]
    vrp_ms = summed["vrp"]
    check("criterion 5 (runtime scale, 160 tickers)",
          graph_ms < 300_000 and vrp_ms < 30_000,
          f"nvg+hvg summed {graph_ms / 1000:.1f}s (< 300s), "
          f"vrp {vrp_ms / 1000:.1f}s (< 30s)")


def test_criterion_6_mixing_score_sanity():
    # VRP against a real source whose windows carry no temporal order:
    # shuffling exchangeable values must leave the embedding well mixed.
    rng = np.random.default_rng(606)
    windows = [Window("T", i, 100.0 + rng.standard_normal(20) * 2.0) for i in range(400)]
    real = np.array([w.scaled_values for w in windows])
    synth = np.array([vrp_generate(w, seed=9000 + i).scaled_values
                      for i, w in enumerate(windows)])
    overlap = embedding_overlap(real, synth, perplexity=30, iterations=500,
                                seed=0, k=10)
    vrp_mixing = overlap.mixing

    clouds = np.vstack([rng.standard_normal((250, 10)),
                        rng.standard_normal((250, 10)) + 50.0])
    emb = embed_2d(clouds, perplexity=30, iterations=500, seed=0)
    origins = np.array(["real"] * 250 + ["synthetic"] * 250)
    cloud_mixing = mixing_score(emb.coords, origins, k=10)

    check("criterion 6 (mixing score sanity)",
          vrp_mixing >= 0.7 and cloud_mixing <= 0.1,
          f"vrp vs source {vrp_mixing:.2f} (>= 0.7), "
          f"separated clouds {cloud_mixing:.2f} (<= 0.1)")


def test_criterion_7_property_suites(tmp_path):
    rng = np.random.default_rng(707)
    problems = []

    # VRP multiset preservation, 1000 windows
    for _ in range(1000):
        raw = rng.random(int(rng.integers(3, 25))) * 90 + 10
        seq = vrp_generate(Window("T", 0, raw), seed=int(rng.integers(1 << 31)))
        if not np.array_equal(np.sort(seq.values), np.sort(raw)):
            problems.append("vrp multiset broken")
            break

    # HVG subset of NVG + consecutive edges, 200 windows
    for _ in range(200):
        window = random_scaled(rng, int(rng.integers(2, 40)))
        nvg, hvg = build_nvg([window]), build_hvg([window])
        if not set(hvg.edges) <= set(nvg.edges):
            problems.append("hvg not subset of nvg")
            break
        for graph in (nvg, hvg):
            if any((i, i + 1, VISIBILITY) not in graph.edges
                   for i in range(window.length - 1)):
                problems.append("consecutive edge missing")
                break

    # multigraph value conservation + consecutive edges
    windows = [Window(f"T{i}", 0, rng.random(15) * 50 + 25) for i in range(6)]
    mg = build_multigraph(windows)
    node_values = sorted(mg.values.tolist())
    win_values = sorted(v for w in windows for v in w.scaled_values)
    if not np.array_equal(node_values, win_values):
        problems.append("multigraph values not conserved")
    for row in mg.node_of.tolist():
        for t in range(14):
            u, v = row[t], row[t + 1]
            if (min(u, v), max(u, v), VISIBILITY) not in mg.edges:
                problems.append("multigraph consecutive edge missing")
                break

    # RSI bounds and monotone extremes
    for _ in range(200):
        values = rng.random(int(rng.integers(3, 30))) * 100
        rsi = extract_features([values])[0][0, RSI]
        if not 0.0 <= rsi <= 100.0:
            problems.append("rsi out of bounds")
            break
    if extract_features([np.arange(20.0)])[0][0, RSI] != 100.0:
        problems.append("rsi of strictly increasing window != 100")
    if extract_features([np.arange(20.0, 0.0, -1.0)])[0][0, RSI] != 0.0:
        problems.append("rsi of strictly decreasing window != 0")

    # full-pipeline seed determinism: two identical runs byte-compare equal
    series = make_desk_corpus(n_tickers=3, n_days=130, seed=5)
    blobs = []
    for run in range(2):
        config = RunConfig(input="", seed=11, methods=("nvg", "vrp"),
                           sequences_per_window=4, downsample_k=2,
                           perplexity=5.0, embed_iterations=40, mixing_k=3)
        by_method, _ = run_generation(config, series_list=series)
        report, _ = run_evaluation(config, by_method, series_list=series)
        seq_file = tmp_path / f"seq_{run}.jsonl"
        write_sequences(by_method["nvg"] + by_method["vrp"], seq_file)
        report_file = tmp_path / f"report_{run}.json"
        report.write(report_file)
        blobs.append(seq_file.read_bytes() + report_file.read_bytes())
    if blobs[0] != blobs[1]:
        problems.append("pipeline reruns not byte-identical")

    check("criterion 7 (property suites)", not problems,
          "vrp multiset, hvg subset, consecutive edges, conservation, rsi, "
          "determinism" if not problems else "; ".join(problems))


def test_criterion_8_embedding_correctness():
    rng = np.random.default_rng(808)
    mixture = np.vstack([rng.standard_normal((250, 8)),
                         rng.standard_normal((250, 8)) + 3.0])
    from scipy.spatial.distance import pdist, squareform

    D2 = squareform(pdist(mixture, "sqeuclidean"))
    P, entropies = conditional_affinities(D2, perplexity=30.0)
    row_err = float(np.abs(P.sum(axis=1) - 1.0).max())
    entropy_err = float(np.abs(entropies - np.log(30.0)).max())

    # the KL after i iterations of a longer run is the final KL of an
    # i-iteration run, to the bit
    kl_300, kl_1000 = (embed_2d(mixture, perplexity=30.0, iterations=i, seed=1).final_kl
                       for i in (300, 1000))

    check("criterion 8 (embedding correctness)",
          row_err <= 1e-9 and entropy_err <= 1e-5 and kl_1000 <= kl_300,
          f"row sum err {row_err:.1e} (<= 1e-9), entropy err {entropy_err:.1e} "
          f"(<= 1e-5), KL@1000 {kl_1000:.4f} <= KL@300 {kl_300:.4f}")
