import hashlib

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from vgsynth import embedding
from vgsynth.embedding import (EARLY_EXAGGERATION, EXAGGERATION_ITERS,
                               MIN_EMBED_POINTS, conditional_affinities,
                               embed_2d, embedding_overlap, mixing_score,
                               points_per_side, write_embedding_csv)
from vgsynth.errors import UndefinedMetricError

from fresh_python import needs_two_cpus, outputs_per_blas_thread_count, run_python


def gaussian_cloud(rng, n, dim=5, center=0.0):
    return rng.standard_normal((n, dim)) + center


class TestAffinities:
    def test_rows_are_distributions(self, rng):
        X = gaussian_cloud(rng, 80)
        D2 = squareform(pdist(X, "sqeuclidean"))
        P, _ = conditional_affinities(D2, perplexity=15.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(P) == 0.0)

    def test_entropy_hits_perplexity_target(self, rng):
        X = gaussian_cloud(rng, 120)
        D2 = squareform(pdist(X, "sqeuclidean"))
        _, entropies = conditional_affinities(D2, perplexity=20.0)
        np.testing.assert_allclose(entropies, np.log(20.0), atol=1e-5)


class TestEmbed2d:
    def test_shape_contract(self, rng):
        emb = embed_2d(gaussian_cloud(rng, 40), perplexity=10, iterations=60, seed=1)
        assert emb.coords.shape == (40, 2)
        assert np.isfinite(emb.coords).all()

    def test_seed_determinism(self, rng):
        X = gaussian_cloud(rng, 30)
        a = embed_2d(X, perplexity=8, iterations=50, seed=7)
        b = embed_2d(X, perplexity=8, iterations=50, seed=7)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_kl_decreases_after_exaggeration(self, rng):
        X = np.vstack([gaussian_cloud(rng, 100, center=0.0),
                       gaussian_cloud(rng, 100, center=4.0)])
        kl_500 = embed_2d(X, perplexity=20, iterations=500, seed=3).final_kl
        kl_300 = embed_2d(X, perplexity=20, iterations=300, seed=3).final_kl
        assert kl_500 <= kl_300

    def test_perplexity_must_be_below_n(self, rng):
        with pytest.raises(ValueError):
            embed_2d(gaussian_cloud(rng, 10), perplexity=10, iterations=10, seed=0)

    def test_too_few_points_rejected(self, rng):
        with pytest.raises(ValueError, match=f"at least {MIN_EMBED_POINTS} points"):
            embed_2d(gaussian_cloud(rng, MIN_EMBED_POINTS - 1), perplexity=2, iterations=10,
                     seed=0)

    def test_no_iterations_rejected(self, rng):
        with pytest.raises(ValueError, match="iterations"):
            embed_2d(gaussian_cloud(rng, 10), perplexity=3, iterations=0, seed=0)


def reference_embed_2d(points, perplexity: float = 30.0, iterations: int = 1000,
                       seed: int = 0, learning_rate: float = 200.0) -> embedding.Embedding:
    """``embed_2d`` as first written, on full n x n matrices every iteration.

    Kept verbatim but for the input checks, the subsample branch (the
    caller picks the rows now) and the returned KL, the last of its
    per-iteration trace, as the reference: ``embed_2d`` now refills two
    reused buffers and computes the KL once, and its coordinates must equal
    these bit for bit, and its final KL within rounding.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(seed)

    D2 = squareform(pdist(X, "sqeuclidean"))
    P_cond, _ = conditional_affinities(D2, perplexity)
    P = (P_cond + P_cond.T) / (2.0 * n)

    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_trace: list[float] = []
    eps = np.finfo(float).eps

    for it in range(1, iterations + 1):
        exag = EARLY_EXAGGERATION if it <= EXAGGERATION_ITERS else 1.0
        momentum = 0.5 if it <= EXAGGERATION_ITERS else 0.8
        Peff = P * exag

        dist2 = squareform(pdist(Y, "sqeuclidean"))
        num = 1.0 / (1.0 + dist2)
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), eps)

        W = (Peff - Q) * num
        grad = 4.0 * (np.diag(W.sum(axis=1)) - W) @ Y

        mask = Peff > 0
        kl_trace.append(float(np.sum(Peff[mask] * np.log(Peff[mask] / Q[mask]))))

        inc = (grad * update) < 0
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)

    return embedding.Embedding(coords=Y, final_kl=kl_trace[-1])


def two_clouds(seed, n, dim=6):
    rng = np.random.default_rng(seed)
    return np.vstack([gaussian_cloud(rng, n // 2, dim=dim),
                      gaussian_cloud(rng, n - n // 2, dim=dim, center=1.5)])


# (points, embed_2d arguments, sha256 of the coordinates' bytes, final KL as
# float.hex); the first two digests were recorded with the full-matrix loop,
# before the pair-buffer rewrite, and every other value with the pair-buffer
# loop, before the reused n x n buffers
PINNED_EMBEDDINGS = {
    "across_exaggeration_boundary": (
        two_clouds(11, 60), dict(perplexity=10, iterations=300, seed=4),
        "06d26cc7c77151a6c8de7ce015582582b7d29a485709a7f781e691d3b8b4bce6",
        "0x1.17755572222dcp+1"),
    "four_points": (
        two_clouds(13, 4), dict(perplexity=2, iterations=300, seed=1),
        "c68d4e4297a6f5bc97f6bb1c73a5b69112ff92b77f320f0cf1f559bc392a93e1",
        "0x1.55628d4662d08p-1"),
    # the embed_mix workload's point count
    "benchmark_points": (
        two_clouds(21, 400), dict(perplexity=30, iterations=300, seed=5),
        "a0fdae63613292232d36410678a88ad8be80d6a06e8945997add7201dae45d80",
        "0x1.0c853dd2ee09cp+1"),
    "odd_n_across_boundary": (
        two_clouds(22, 97), dict(perplexity=12, iterations=262, seed=6),
        "6945b057b3ca8d54f5476978150876deb4ac57db8243f9f5eaf64ec6bd1b7307",
        "0x1.7f05aa545099cp+1"),
}


class TestEmbed2dMatchesReference:
    @pytest.mark.parametrize("case", sorted(PINNED_EMBEDDINGS))
    def test_coordinates_bit_identical(self, case):
        points, kwargs, digest, _ = PINNED_EMBEDDINGS[case]
        emb = embed_2d(points, **kwargs)
        ref = reference_embed_2d(points, **kwargs)
        assert emb.coords.tobytes() == ref.coords.tobytes()
        assert hashlib.sha256(emb.coords.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(PINNED_EMBEDDINGS))
    def test_kl_trace_within_rounding(self, case):
        """The final KL keeps its pinned bits, and is the reference's last
        per-iteration KL within rounding."""
        points, kwargs, _, kl_hex = PINNED_EMBEDDINGS[case]
        emb = embed_2d(points, **kwargs)
        ref = reference_embed_2d(points, **kwargs)
        assert emb.final_kl.hex() == kl_hex
        np.testing.assert_allclose(emb.final_kl, ref.final_kl, rtol=1e-12, atol=0)
        assert emb.kl_trace == [emb.final_kl]

    def test_overlap_mixing_equal(self, monkeypatch):
        real, synth = two_clouds(14, 120), two_clouds(15, 100) + 0.1
        kwargs = dict(perplexity=15, iterations=300, seed=2, k=5)
        result = embedding_overlap(real, synth, **kwargs)
        monkeypatch.setattr(embedding, "embed_2d", reference_embed_2d)
        ref = embedding_overlap(real, synth, **kwargs)
        assert result.coords.tobytes() == ref.coords.tobytes()
        assert result.mixing == ref.mixing


def test_no_pair_scatter_per_iteration(monkeypatch):
    """The descent refills buffers made once per call: the pdist and
    squareform calls do not grow with the iteration count."""
    import scipy.spatial.distance as distance

    calls = []
    for name in ("pdist", "squareform"):
        def spy(*args, _real=getattr(distance, name), **kwargs):
            calls.append(_real)
            return _real(*args, **kwargs)
        monkeypatch.setattr(distance, name, spy)
    counts = []
    for iterations in (10, 40):
        calls.clear()
        embed_2d(two_clouds(23, 20), perplexity=5, iterations=iterations, seed=0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


class TestMixingScore:
    def test_far_clusters_score_near_zero(self, rng):
        coords = np.vstack([gaussian_cloud(rng, 50, dim=2, center=0.0),
                            gaussian_cloud(rng, 50, dim=2, center=100.0)])
        origins = np.array(["real"] * 50 + ["synthetic"] * 50)
        assert mixing_score(coords, origins, k=5) <= 0.01

    def test_fair_coin_labels_score_one(self):
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            coords = rng.standard_normal((1000, 2))
            origins = np.where(rng.random(1000) < 0.5, "real", "synthetic")
            scores.append(mixing_score(coords, origins, k=10))
        assert abs(np.mean(scores) - 1.0) <= 0.1

    def test_duplicated_points_score_two(self, rng):
        real = gaussian_cloud(rng, 40, dim=2)
        coords = np.vstack([real, real])
        origins = np.array(["real"] * 40 + ["synthetic"] * 40)
        assert mixing_score(coords, origins, k=1) == pytest.approx(2.0)

    def test_single_origin_rejected(self, rng):
        coords = gaussian_cloud(rng, 10, dim=2)
        with pytest.raises(UndefinedMetricError):
            mixing_score(coords, np.array(["real"] * 10), k=2)

    def test_k_bounds(self, rng):
        coords = gaussian_cloud(rng, 10, dim=2)
        origins = np.array(["real"] * 5 + ["synthetic"] * 5)
        with pytest.raises(ValueError):
            mixing_score(coords, origins, k=10)


def test_embedding_overlap_balances_and_scores(rng):
    real = gaussian_cloud(rng, 120, dim=6)
    synth = gaussian_cloud(rng, 80, dim=6) + 0.1
    result = embedding_overlap(real, synth, perplexity=15, iterations=120,
                               seed=2, k=5)
    assert result.coords.shape == (160, 2)
    assert (result.origins == "real").sum() == 80
    assert result.mixing > 0.5  # same distribution, strong intermixing


@pytest.mark.parametrize("max_points", [21, 2000], ids=["capped", "below_cap"])
def test_embedding_overlap_picks_the_rows(max_points, monkeypatch):
    """embed_2d embeds every row it is given, so embedding_overlap alone
    holds the cap: it hands over points_per_side distinct real rows, then as
    many distinct synthetic rows, and labels them in that order."""
    real, synth = two_clouds(16, 30), two_clouds(17, 25) + 10.0
    handed = []

    def spy(points, **kwargs):
        handed.append(points)
        return embed_2d(points, **kwargs)

    monkeypatch.setattr(embedding, "embed_2d", spy)
    result = embedding_overlap(real, synth, perplexity=5, iterations=5, seed=3, k=3,
                               max_points=max_points)
    per_side = points_per_side(30, 25, max_points)
    assert per_side == (10 if max_points == 21 else 25)
    [points] = handed
    assert points.shape == (2 * per_side, real.shape[1])
    assert result.coords.shape == (2 * per_side, 2)
    assert result.origins.tolist() == ["real"] * per_side + ["synthetic"] * per_side
    for rows, source in ((points[:per_side], real), (points[per_side:], synth)):
        assert len({row.tobytes() for row in rows}) == per_side
        assert {row.tobytes() for row in rows} <= {row.tobytes() for row in source}


def test_embedding_csv_export(tmp_path, rng):
    coords = gaussian_cloud(rng, 6, dim=2)
    origins = ["real"] * 3 + ["synthetic"] * 3
    path = tmp_path / "emb.csv"
    write_embedding_csv(coords, origins, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,origin"
    assert len(lines) == 7
    assert lines[1].endswith("real")


def test_package_import_leaves_scipy_spatial_unloaded():
    """Only the embedding and the mixing score need scipy.spatial; they
    import it when they run."""
    code = ("import sys, vgsynth, vgsynth.cli, vgsynth.embedding; "
            "print('scipy.spatial' in sys.modules)")
    assert run_python(code, timeout=60) == "False"


@needs_two_cpus
def test_kl_trace_independent_of_blas_threads():
    """The final KL has the same bits with one BLAS thread as with two: a
    threaded dot product splits its sum, and its bits, over the threads."""
    code = ("import numpy as np; from vgsynth.embedding import embed_2d; "
            "X = np.random.default_rng(11).standard_normal((400, 5)); "
            "print(embed_2d(X, perplexity=30, iterations=300).final_kl.hex())")
    kls = outputs_per_blas_thread_count(code, timeout=120)
    assert float.fromhex(kls[0]) > 0
    assert kls[0] == kls[1]
