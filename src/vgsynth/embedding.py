"""Exact 2D stochastic neighbor embedding and a neighbor-mixing score.

The embedding follows the classic exact algorithm: per-point Gaussian
bandwidths found by binary search against the perplexity entropy target,
symmetrized joint affinities, a Student-t low-dimensional kernel, and
gradient descent with momentum (0.5 for the first 250 iterations, 0.8 after)
plus early exaggeration (factor 12, first 250 iterations).

The mixing score quantifies how intermixed two point sets are in the plane:
the average fraction of opposite-origin points among each point's k nearest
neighbors, normalized by the opposite-origin proportion. 1.0 means the two
sets are statistically indistinguishable neighborhoods; values near 0 mean
full separation. The raw ratio is reported, so values above 1 are possible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UndefinedMetricError

EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
LEARNING_RATE = 200.0
PERPLEXITY_TOL = 1e-5
PERPLEXITY_STEPS = 100
MAX_EMBED_POINTS = 2000


@dataclass
class Embedding:
    coords: np.ndarray  # (M, 2)
    indices: np.ndarray  # (M,) positions of embedded rows in the input
    final_kl: float  # KL(P || Q) on the last iteration

    @property
    def kl_trace(self) -> list[float]:
        """The objective values kept: the last iteration's only (the
        tracer in perfbench reads ``kl_trace[-1]``)."""
        return [self.final_kl]


def conditional_affinities(sq_distances: np.ndarray,
                           perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic Gaussian affinities matching the perplexity target.

    Returns (P, entropies): P[i] is a probability distribution over the other
    points (diagonal zero, rows sum to 1); entropies[i] is the Shannon
    entropy reached by the per-row binary search, within PERPLEXITY_TOL of
    log(perplexity) for non-degenerate rows.
    """
    n = sq_distances.shape[0]
    target = np.log(perplexity)
    P = np.zeros((n, n))
    entropies = np.zeros(n)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        d = sq_distances[i][others[i]]
        shift = d.min()
        ds = d - shift
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        for _ in range(PERPLEXITY_STEPS):
            w = np.exp(-ds * beta)
            s = w.sum()
            if s <= 0:
                s = 1e-300
            entropy = np.log(s) + beta * float(ds @ w) / s
            diff = entropy - target
            if abs(diff) <= PERPLEXITY_TOL:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if np.isinf(beta_max) else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if np.isinf(beta_min) else (beta + beta_min) / 2.0
        P[i][others[i]] = w / s
        entropies[i] = entropy
    return P, entropies


def embed_2d(points, perplexity: float = 30.0, iterations: int = 1000,
             seed: int = 0, max_points: int = MAX_EMBED_POINTS) -> Embedding:
    """Embed high-dimensional points into the plane.

    Inputs with more than ``max_points`` rows are subsampled (seeded,
    uniform); the embedded row positions are reported in ``indices``.
    Identical inputs and seed give identical coordinates.

    The KL objective is a diagnostic the gradient never reads, so it is
    computed once, for the last iteration. The schedule depends only on the
    iteration number, so the KL after i iterations of a longer run is the
    ``final_kl`` of a run with ``iterations=i``, to the bit.

    Each descent step keeps its per-pair values on the n(n-1)/2 pairs, in
    reused buffers; only the normaliser Z, the row sums and the gradient use
    the full n x n matrix.
    """
    # imported here, not at module level: scipy.spatial is most of the
    # package's import time, and generation never needs it
    from scipy.spatial.distance import pdist, squareform

    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must be a 2D array")
    n = X.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 points, got {n}")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    rng = np.random.default_rng(seed)
    indices = np.arange(n)
    if n > max_points:
        indices = np.sort(rng.choice(n, size=max_points, replace=False))
        X = X[indices]
        n = max_points
    if perplexity >= n:
        raise ValueError(f"perplexity {perplexity} must be < number of points {n}")

    D2 = squareform(pdist(X, "sqeuclidean"))
    P_cond, _ = conditional_affinities(D2, perplexity)
    # joint affinities of the n(n-1)/2 pairs, in pdist order (P is symmetric)
    P = squareform((P_cond + P_cond.T) / (2.0 * n), checks=False)

    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    eps = np.finfo(float).eps
    num, Q, W = np.empty_like(P), np.empty_like(P), np.empty_like(P)

    for it in range(1, iterations + 1):
        exag = EARLY_EXAGGERATION if it <= EXAGGERATION_ITERS else 1.0
        momentum = 0.5 if it <= EXAGGERATION_ITERS else 0.8
        if it in (1, EXAGGERATION_ITERS + 1):
            Peff = P * exag
            positive = Peff[Peff > 0]
            # the KL sum runs over the full matrix, so every pair counts twice
            kl_const = 2.0 * float(np.sum(positive * np.log(positive)))

        pdist(Y, "sqeuclidean", out=num)
        num += 1.0
        np.divide(1.0, num, out=num)
        # Z, the row sums and the gradient are reduced over the full n x n
        # matrix: the coordinates' bits depend on that summation order
        np.divide(num, squareform(num).sum(), out=Q)
        np.maximum(Q, eps, out=Q)

        np.subtract(Peff, Q, out=W)
        W *= num
        L = squareform(W, checks=False)
        row_sums = L.sum(axis=1)
        np.subtract(0.0, L, out=L)
        np.fill_diagonal(L, row_sums)  # L = diag(row sums) - W
        grad = 4.0 * (L @ Y)

        inc = (grad * update) < 0
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - LEARNING_RATE * gains * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)

    # Q and Peff are the last iteration's. einsum sums in a fixed order; a
    # BLAS dot would split the sum over threads, and the KL's bits with it
    final_kl = kl_const - 2.0 * float(np.einsum("i,i", Peff, np.log(Q, out=Q)))
    return Embedding(coords=Y, indices=indices, final_kl=final_kl)


def mixing_score(coords, origins, k: int) -> float:
    """Normalized opposite-origin fraction among k nearest neighbors.

    For each point, count how many of its k nearest Euclidean neighbors carry
    the opposite origin label, divide by k, then by the global proportion of
    opposite-origin points; the score is the mean over all points. Distance
    ties are broken toward the opposite origin.
    """
    from scipy.spatial.distance import pdist, squareform

    coords = np.asarray(coords, dtype=float)
    origins = np.asarray(origins)
    n = coords.shape[0]
    labels = np.unique(origins)
    if labels.size < 2:
        raise UndefinedMetricError("mixing_score needs points of both origins")
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")

    dist2 = squareform(pdist(coords, "sqeuclidean"))
    np.fill_diagonal(dist2, np.inf)
    opposite = origins[None, :] != origins[:, None]
    counts = {lab: int((origins == lab).sum()) for lab in labels}

    total = 0.0
    for i in range(n):
        # primary key distance, secondary key prefers opposite-origin points
        order = np.lexsort((~opposite[i], dist2[i]))[:k]
        frac = opposite[i][order].mean()
        expected = (n - counts[origins[i]]) / n
        total += frac / expected
    return total / n


@dataclass
class OverlapResult:
    coords: np.ndarray
    origins: np.ndarray
    mixing: float


def embedding_overlap(real_points, synthetic_points, perplexity: float = 30.0,
                      iterations: int = 1000, seed: int = 0, k: int = 10,
                      max_points: int = MAX_EMBED_POINTS) -> OverlapResult:
    """Embed a balanced real/synthetic sample and score their intermixing."""
    real = np.asarray(real_points, dtype=float)
    synth = np.asarray(synthetic_points, dtype=float)
    if real.shape[0] == 0 or synth.shape[0] == 0:
        raise UndefinedMetricError("both real and synthetic points are required")
    rng = np.random.default_rng(seed)
    per_side = min(real.shape[0], synth.shape[0], max_points // 2)
    real_idx = np.sort(rng.choice(real.shape[0], size=per_side, replace=False))
    synth_idx = np.sort(rng.choice(synth.shape[0], size=per_side, replace=False))
    points = np.vstack([real[real_idx], synth[synth_idx]])
    origins = np.array(["real"] * per_side + ["synthetic"] * per_side)
    emb = embed_2d(points, perplexity=min(perplexity, points.shape[0] - 1),
                   iterations=iterations, seed=seed, max_points=max_points)
    return OverlapResult(coords=emb.coords, origins=origins[emb.indices],
                         mixing=mixing_score(emb.coords, origins[emb.indices], k=k))


def write_embedding_csv(coords: np.ndarray, origins, path: str | Path) -> None:
    """Export coordinates as ``x,y,origin`` rows for external plotting."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "origin"])
        for (x, y), origin in zip(coords, origins):
            writer.writerow([repr(float(x)), repr(float(y)), origin])
