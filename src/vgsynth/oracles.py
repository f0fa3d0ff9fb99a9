"""Seeded checks that tie each fast path to its brute-force oracle.

Each check draws its inputs from a fixed seed and returns ``(ok, detail)``.
``vgsynth selftest`` runs them at small sizes and acceptance criteria 1-3 at
full size, so both draw the same kind of inputs in the same order.
"""

from __future__ import annotations

import numpy as np

from .evaluate import auc_bruteforce, roc_auc
from .generate import dtw_distance
from .graphs import build_hvg, build_nvg, hvg_bruteforce, nvg_bruteforce
from .ingest import Window, minmax_scale


def dtw_bruteforce(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance by plain recursion over all warping paths; exponential,
    the reference ``check_dtw`` and the tests hold ``dtw_distances`` to."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("dtw_bruteforce requires non-empty sequences")

    def rec(i: int, j: int) -> float:
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        best = np.inf
        if i > 0:
            best = min(best, rec(i - 1, j))
        if j > 0:
            best = min(best, rec(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1))
        return cost + best

    return float(rec(a.size - 1, b.size - 1))


def check_visibility(n_windows: int, nvg_builder=build_nvg,
                     hvg_builder=build_hvg) -> tuple[bool, str]:
    """Exact edge sets of the builders against the per-pair criterion, on
    ``n_windows`` random windows of each length 20 and 60."""
    rng = np.random.default_rng(101)
    for length in (20, 60):
        for _ in range(n_windows):
            window = minmax_scale(Window("T", 0, rng.random(length) * 40 + 10))
            for builder, oracle, name in ((nvg_builder, nvg_bruteforce, "nvg"),
                                          (hvg_builder, hvg_bruteforce, "hvg")):
                fast, slow = set(builder([window]).edges), set(oracle(window).edges)
                if fast != slow:
                    return False, (f"{name}: edge mismatch on pair {sorted(fast ^ slow)[0]} "
                                   f"(length {length})")
    return True, f"{n_windows} windows per length (20, 60), exact edge sets"


def check_dtw(n_pairs: int) -> tuple[bool, str]:
    """``dtw_distance`` against the recursion over all warping paths, on
    ``n_pairs`` random pairs of lengths 1-8, within 1e-9."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(n_pairs):
        a = rng.random(int(rng.integers(1, 9)))
        b = rng.random(int(rng.integers(1, 9)))
        worst = max(worst, abs(dtw_distance(a, b) - dtw_bruteforce(a, b)))
    return worst <= 1e-9, f"{n_pairs} pairs of lengths 1-8, worst diff {worst:.2e} (<= 1e-9)"


def check_auc(n_cases: int) -> tuple[bool, str]:
    """``roc_auc`` against the pairwise count, on ``n_cases`` random score
    sets of 4-50 points, within 1e-12. Half of the sets are rounded to one
    decimal to force ties."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1) if rng.random() < 0.5 else rng.random(n)
        worst = max(worst, abs(roc_auc(scores, labels) - auc_bruteforce(scores, labels)))
    return (worst <= 1e-12,
            f"{n_cases} score sets of 4-50 points, worst diff {worst:.2e} (<= 1e-12)")
