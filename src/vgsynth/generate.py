"""Synthetic sequence generation by graph walks, the shuffle baseline, and
the DS/SimDS downsampling procedures.

A walk starts at the node holding the first time index, appends one value per
step, and picks the next node according to the configured strategy. Values of
multi-value nodes are drawn either uniformly at random or round-robin in
stored order. Output sequences are inverse-transformed to the source window's
price scale; the scaled walk output is kept alongside for diagnostics.
"""

from __future__ import annotations

import hashlib
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import GraphIntegrityError
from .graphs import Graph
from .ingest import Window, inverse_transform

NODE_STRATEGIES = (
    "uniform_random",
    "random_neighbor",
    "random_neighbor_graph_switching",
    "restart_random",
    "degree_weighted",
)
VALUE_POLICIES = ("random", "round_robin")
RESTART_JUMPS = ("neighbor", "uniform")


class DownsampleWarning(UserWarning):
    """Fewer candidate sequences than requested; all were returned."""


@dataclass
class WalkConfig:
    """Parameters of one generation walk.

    ``restart_jump`` selects what a non-restart step of the restart strategy
    does: move to a uniform random neighbor ("neighbor", the classic walk
    with restart) or to a uniform random node ("uniform").
    """

    node_strategy: str = "restart_random"
    value_policy: str = "round_robin"
    target_length: int = 20
    seed: int = 0
    restart_prob: float = 0.15
    switch_prob: float = 0.5
    restart_jump: str = "neighbor"
    start_node: int | None = None

    def validate(self) -> None:
        if self.node_strategy not in NODE_STRATEGIES:
            raise ValueError(f"unknown node strategy {self.node_strategy!r}")
        if self.value_policy not in VALUE_POLICIES:
            raise ValueError(f"unknown value policy {self.value_policy!r}")
        if self.restart_jump not in RESTART_JUMPS:
            raise ValueError(f"unknown restart jump {self.restart_jump!r}")
        for name in ("restart_prob", "switch_prob"):
            p = getattr(self, name)
            if not (isinstance(p, Real) and not isinstance(p, bool) and 0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {p!r}")
        if self.target_length < 1:
            raise ValueError(f"target_length must be >= 1, got {self.target_length}")


@dataclass(eq=False)
class SyntheticSequence:
    """Generated sequence plus provenance.

    ``values`` are in price space; ``scaled_values`` is the walk output in
    [0, 1] (None only if the source window was never scaled).
    """

    values: np.ndarray
    scaled_values: np.ndarray | None
    method: str
    ticker: str
    window_start: int
    seed: int
    scale_min: float
    scale_max: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.scaled_values is not None:
            self.scaled_values = np.asarray(self.scaled_values, dtype=float)


_LOW32 = 0xFFFFFFFF


def _raw_words(bitgen, k: int):
    """The bit generator's raw 64-bit words as Python ints, drawn ``k`` at a time."""
    while True:
        yield from bitgen.random_raw(k).tolist()


def replay_draws(seed: int, k: int):
    """``(random, integers)`` that return exactly what ``random()`` and
    ``integers(0, n)`` of ``np.random.default_rng(seed)`` return, called in
    the same order, from its raw PCG64 words drawn ``k`` at a time.

    ``random()`` is the word's top 53 bits times 2**-53. ``integers(n)``
    draws nothing for n = 1; otherwise it is Lemire's bounded method on a
    32-bit value, the low half of a fresh word or the high half saved by the
    previous such call (a ``random()`` in between leaves it saved): with
    m = x·n it rejects while m mod 2**32 < (2**32 − n) mod n and returns
    m >> 32. It covers 1 <= n <= 2**32.
    """
    words = _raw_words(np.random.PCG64(seed), k)
    half = None

    def random() -> float:
        return (next(words) >> 11) * 2.0**-53

    def integers(n: int) -> int:
        nonlocal half
        if n == 1:
            return 0
        while True:
            if half is None:
                word = next(words)
                x, half = word & _LOW32, word >> 32
            else:
                x, half = half, None
            m = x * n
            low = m & _LOW32
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    return random, integers


def generate_sequence(
    graph: Graph,
    config: WalkConfig,
    window: int = 0,
) -> SyntheticSequence:
    """Walk ``graph`` from window position ``window`` and emit a sequence of
    ``config.target_length`` values: the walk starts at the window's first
    node, jumps uniformly within the window's node range, and takes the
    window's ticker, start and scale.

    Every draw comes from ``np.random.default_rng(config.seed)``, replayed
    by :func:`replay_draws`; a step makes the draws listed under "Seed
    contract v1" in the README.
    """
    config.validate()
    first, past = graph.node_range[window].tolist()
    start = graph.first_node(window) if config.start_node is None else config.start_node
    if not first <= start < past:
        raise ValueError(f"start_node {start} not in {first}..{past - 1}")
    indptr, indices, cross_indptr, cross_indices = graph.walk_csr
    node_values = graph.node_values
    strategy = config.node_strategy
    restart = strategy == "restart_random"
    uniform = strategy == "uniform_random" or (restart and config.restart_jump == "uniform")
    switching = strategy == "random_neighbor_graph_switching"
    weighted = strategy == "degree_weighted"
    restart_prob, switch_prob = config.restart_prob, config.switch_prob
    round_robin = config.value_policy == "round_robin"
    # a step draws at most one double and two 32-bit halves, so a walk
    # seldom needs more words than this (only after a Lemire rejection)
    random, integers = replay_draws(config.seed, 2 * config.target_length)
    cursors: dict[int, int] = {}
    scaled = []
    current = start
    while True:
        values = node_values[current]
        count = len(values)
        if count == 1:
            scaled.append(values[0])
        elif round_robin:
            cursor = cursors.get(current, 0)
            cursors[current] = (cursor + 1) % count
            scaled.append(values[cursor])
        else:
            scaled.append(values[integers(count)])
        if len(scaled) == config.target_length:
            break
        if restart and random() < restart_prob:
            current = start
            continue
        if uniform:
            current = first + integers(past - first)
            continue
        lo, hi = indptr[current], indptr[current + 1]
        if lo == hi:
            raise GraphIntegrityError(
                f"node {current} is isolated; consecutive-edge property violated")
        if weighted:
            current = indices[lo + bisect_right(graph.neighbor_cdf(current), random())]
            continue
        if switching:
            cross_lo, cross_hi = cross_indptr[current], cross_indptr[current + 1]
            if cross_lo < cross_hi and random() < switch_prob:
                current = cross_indices[cross_lo + integers(cross_hi - cross_lo)]
                continue
        current = indices[lo + integers(hi - lo)]

    scaled_arr = np.array(scaled, dtype=float)
    scale_min, scale_max, is_constant = graph.scale_for(window)
    values = inverse_transform(scaled_arr, scale_min, scale_max, is_constant)
    source = graph.windows[window]
    return SyntheticSequence(values=values, scaled_values=scaled_arr, method=graph.kind,
                             ticker=source.ticker, window_start=source.start_index,
                             seed=config.seed, scale_min=scale_min, scale_max=scale_max)


def vrp_generate(window: Window, seed: int = 0) -> SyntheticSequence:
    """Shuffle-baseline: a uniformly random permutation of the window values."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(window.length)
    values = window.raw_values[perm]
    scaled = window.scaled_values[perm] if window.scaled_values is not None else None
    lo = window.scale_min if window.scale_min is not None else float(window.raw_values.min())
    hi = window.scale_max if window.scale_max is not None else float(window.raw_values.max())
    return SyntheticSequence(
        values=values,
        scaled_values=scaled,
        method="vrp",
        ticker=window.ticker,
        window_start=window.start_index,
        seed=seed,
        scale_min=lo,
        scale_max=hi,
    )


def dtw_distances(candidates, reference) -> np.ndarray:
    """Dynamic time warping distance of each candidate to ``reference``, one
    sequence shared by all candidates or a list of one row per candidate.

    Absolute-difference local cost, full alignment, no window constraint.
    All candidates share one anti-diagonal wavefront: step d fills the cells
    (i, d - i) of every candidate's accumulated-cost matrix with one array
    update, since each cell needs only the two previous anti-diagonals.
    Every cell is ``cost + min(up, left, diag)`` of the same operands as the
    textbook row-by-row recurrence, so the distances are bit-identical to
    it. Shorter candidates and reference rows are zero-padded; candidate k of
    length n against a reference of length m is read at cell (n, m), which
    depends only on cells (i <= n, j <= m), so the padding never reaches it.
    """
    rows = [np.asarray(c, dtype=float) for c in candidates]
    shared = not len(reference) or np.ndim(reference[0]) == 0
    refs = [np.asarray(r, dtype=float) for r in ([reference] if shared else reference)]
    if not rows or len(refs) not in (1, len(rows)) or any(r.size == 0 for r in rows + refs):
        raise ValueError("dtw_distances requires candidates, one reference row or one per "
                         "candidate, and non-empty sequences")
    # a[k, i] and b[k, j]: value i of candidate k and value j of its reference, 1-based
    a, b = (np.zeros((len(x), 1 + max(r.size for r in x))) for x in (rows, refs))
    for padded, x in ((a, rows), (b, refs)):
        for k, r in enumerate(x):
            padded[k, 1:r.size + 1] = r
    lengths, ref_lengths = (np.array([r.size for r in x]) for x in (rows, refs))
    n, m = a.shape[1] - 1, b.shape[1] - 1
    # acc[d, k * (n + 1) + i] is cell (i, j = d - i) of candidate k's matrix.
    # Each diagonal is one flat row, so a step is three contiguous updates;
    # where the shifted slices pair cell i = 0 of one candidate with cell n
    # of the previous one, the cell's cost is inf and it stays inf.
    i = np.arange(n + 1)
    j = np.arange(n + m + 1)[:, None] - i
    inside = (i >= 1) & (j >= 1) & (j <= m)
    cost = np.abs(a[None, :, :] - b[:, np.clip(j, 1, m)].transpose(1, 0, 2))
    acc = np.where(inside[:, None, :], cost, np.inf).reshape(n + m + 1, -1)
    acc[0, ::n + 1] = 0.0
    best = np.empty(acc.shape[1] - 1)
    for d in range(2, n + m + 1):
        np.minimum(acc[d - 1, :-1], acc[d - 1, 1:], out=best)
        np.minimum(best, acc[d - 2, :-1], out=best)
        acc[d, 1:] += best
    return acc[lengths + ref_lengths, np.arange(len(rows)) * (n + 1) + lengths]


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance of one pair; symmetric in its arguments."""
    return float(dtw_distances([a], b)[0])


def dtw_bruteforce(a: np.ndarray, b: np.ndarray) -> float:
    """Plain recursion over all warping paths; exponential, test oracle only."""
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


def ds_indices(n: int, k: int, seed: int) -> list[int]:
    """The sorted positions DS keeps of ``n`` candidates, drawn uniformly
    without replacement (no draw for k == n). They never depend on the
    candidates, so they can be drawn before any candidate exists."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if k == n:
        return list(range(n))
    return sorted(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())


def downsample(
    sequences: list[SyntheticSequence],
    windows: list[Window],
    k: int,
) -> list[SyntheticSequence]:
    """Keep, of each window's candidates, the ``k`` nearest by DTW to that
    window's raw values (SimDS), in generation order, ties keeping the earlier.

    ``sequences`` holds the candidates of ``windows`` in window order, the
    same number for each, all scored in one :func:`dtw_distances` call. A
    window with at most ``k`` candidates keeps them all: so DS, whose
    :func:`ds_indices` pick precedes generation, keeps what it generated.
    Fewer than ``k`` also emit a DownsampleWarning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per = len(sequences) // len(windows) if windows else 0
    if per * len(windows) != len(sequences):
        raise ValueError(f"{len(sequences)} candidates do not split evenly over "
                         f"{len(windows)} windows")
    if windows and k > per:
        warnings.warn(f"requested {k} sequences per window but only {per} candidates",
                      DownsampleWarning, stacklevel=2)
    if k >= per:
        return list(sequences)
    dists = dtw_distances([s.values for s in sequences],
                          [w.raw_values for w in windows for _ in range(per)])
    nearest = np.sort(np.argsort(dists.reshape(len(windows), per), axis=1, kind="stable")[:, :k])
    nearest += per * np.arange(len(windows))[:, None]
    return [sequences[i] for i in nearest.ravel().tolist()]


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-unit seed from the master seed and unit identity.

    Independent of the order units run in: the same (master seed, parts)
    always yields the same value.
    """
    key = ":".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")
