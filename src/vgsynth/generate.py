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


@dataclass(frozen=True)
class WalkConfig:
    """The walk section of a run's config file, checked once when made.

    ``restart_jump`` selects what a non-restart step of the restart strategy
    does: move to a uniform random neighbor ("neighbor", the classic walk
    with restart) or to a uniform random node ("uniform").
    """

    node_strategy: str = "restart_random"
    value_policy: str = "round_robin"
    restart_prob: float = 0.15
    switch_prob: float = 0.5
    restart_jump: str = "neighbor"

    def __post_init__(self):
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


@dataclass(eq=False)
class SyntheticSequence:
    """Generated sequence plus provenance.

    ``values`` are in price space, mapped with the scale of the source window
    at (ticker, window_start), of which the sequence keeps no copy.
    ``scaled_values`` is the walk output in [0, 1]; a sequence read back from
    a file carries None. Arrays are stored as given; every producer (walk,
    shuffle, ``read_sequences``) makes them float64.
    """

    values: np.ndarray
    scaled_values: np.ndarray | None
    method: str
    ticker: str
    window_start: int
    seed: int


_LOW32 = 0xFFFFFFFF


def _multipliers(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """SeedSequence's running hash constant around each of ``count`` uses:
    (the value xor-ed in, the value multiplied in). It never depends on the
    entropy, so one list serves every seed."""
    out = []
    for _ in range(count):
        after = init * mult & _LOW32
        out.append((init, after))
        init = after
    return out


# numpy's SeedSequence constants (bit_generator.pyx), one (xor, multiply)
# row per use: 16 hashmix calls in mix_entropy (4 filling the pool, 12
# mixing it) and 8 output words for generate_state(4, np.uint64)
_HASHMIX = np.array(_multipliers(0x43B0D7E5, 0x931E8875, 16), dtype=np.uint32)
_OUTPUT = np.array(_multipliers(0x8B51F9DD, 0x58F38DED, 8), dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    value = (value ^ xor) * mult
    value ^= value >> 16
    return value


def seed_states(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of each
    seed ``s`` in ``seeds`` (integers in [0, 2**64)), as one C-contiguous
    ``(N, 4)`` uint64 array: the state ``PCG64(s)`` starts from.

    numpy's per-seed loop, run once over all seeds in wrapping uint32
    arithmetic. A seed's entropy words are its low and high 32 bits; a seed
    below 2**32 has one word, and the pool word it lacks hashes a 0, which
    is its high half, so every pool starts as (low, high, 0, 0)."""
    # registering here rather than at import leaves numpy.random unloaded
    # until a seed is used; a PreparedSeed made before it still seeds
    # correctly, as its plain integer
    np.random.bit_generator.ISeedSequence.register(PreparedSeed)
    halves = np.asarray(seeds, dtype="<u8").reshape(-1).view("<u4").reshape(-1, 2)
    pool = np.zeros((4, len(halves)), dtype=np.uint32)
    pool[:2] = halves.T
    pool = _hashmix(pool, _HASHMIX[:4, :1], _HASHMIX[:4, 1:])
    rounds = iter(_HASHMIX[4:])
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], *next(rounds))
                mixed ^= mixed >> 16
                pool[dst] = mixed
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT[:, :1], _OUTPUT[:, 1:])
    # word 2j is the low half of state word j: numpy's own '<u4' -> '<u8' view
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class PreparedSeed(int):
    """An integer seed carrying its :func:`seed_states` row. numpy's
    ``PCG64(seed)`` and ``default_rng(seed)`` accept it as a seed sequence
    (:func:`seed_states` registers it as one) and start from the same state
    as from the plain integer, without hashing it again."""

    def __new__(cls, seed: int, state: np.ndarray):
        obj = super().__new__(cls, seed)
        obj.state = state
        return obj

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.state
        return np.random.SeedSequence(int(self)).generate_state(n_words, dtype)


def _lemire_reject(n: int, m: int, words: list[int], pos: int, half: int,
                   bitgen: np.random.PCG64) -> tuple[int, int, int]:
    """Finish a bounded draw ``integers(0, n)`` whose first product ``m`` has
    a low half below ``n``: Lemire's method rejects while that low half is
    below ``(2**32 - n) % n`` and tries the next 32-bit value. Each retry
    first appends one word to ``words``, so the walk's list stays long
    enough. Returns the accepted product and the walk's new ``(pos, half)``."""
    threshold = (0x100000000 - n) % n
    while (m & _LOW32) < threshold:
        words += bitgen.random_raw(1).tolist()
        if half < 0:
            word = words[pos]
            pos += 1
            x, half = word & _LOW32, word >> 32
        else:
            x, half = half, -1
        m = x * n
    return m, pos, half


def generate_sequence(
    graph: Graph,
    config: WalkConfig,
    window: int = 0,
    *,
    seed: int = 0,
    length: int | None = None,
) -> SyntheticSequence:
    """Walk ``graph`` from window position ``window`` and emit a sequence of
    ``length`` values, by default as many as the window holds: the walk
    starts at the window's first node, jumps uniformly within the window's
    node range, and takes the ticker and start of its source window,
    ``graph.windows[window]``. The walk's scaled values are mapped to prices
    with that window's ``(scale_min, scale_max)`` by
    :func:`~vgsynth.ingest.inverse_transform`.

    Every draw is the one ``np.random.default_rng(seed)`` would make,
    replayed from its raw PCG64 words; a step makes the draws listed under
    "Seed contract v1" in the README. The seed may be a :class:`PreparedSeed`;
    the sequence records it as a plain int.
    """
    source = graph.windows[window]
    if length is None:
        length = source.length
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    first, past = graph.node_range[window].tolist()
    start = graph.first_node(window)
    indptr, indices, cross_indptr, cross_indices = graph.walk_csr
    node_values = graph.node_values
    # a uniform move draws an offset into the window's node range, read as
    # ids the way a neighbour offset is read from ``indices``
    nodes = range(past)
    strategy = config.node_strategy
    restart = strategy == "restart_random"
    uniform = strategy == "uniform_random" or (restart and config.restart_jump == "uniform")
    switching = strategy == "random_neighbor_graph_switching"
    weighted = strategy == "degree_weighted"
    restart_prob, switch_prob = config.restart_prob, config.switch_prob
    round_robin = config.value_policy == "round_robin"
    # The draws read the generator's raw words from ``words`` at ``pos``.
    # random() is a word's top 53 bits times 2**-53. integers(0, n) draws
    # nothing for n = 1; otherwise it takes a 32-bit x, the low half of the
    # next word or the high half ``half`` saved by the previous such draw
    # (-1 when none is saved), and returns (x * n) >> 32 unless the low half
    # of x * n is below n, where _lemire_reject decides. The first value
    # takes at most a half word and each step at most two words, so without
    # a rejection 2 * length words last the walk.
    bitgen = np.random.PCG64(seed)
    words = bitgen.random_raw(2 * length).tolist()
    pos, half = 0, -1
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
            if half < 0:
                word = words[pos]
                pos += 1
                x, half = word & _LOW32, word >> 32
            else:
                x, half = half, -1
            m = x * count
            if (m & _LOW32) < count:
                m, pos, half = _lemire_reject(count, m, words, pos, half, bitgen)
            scaled.append(values[m >> 32])
        if len(scaled) == length:
            break
        if restart:
            pos += 1
            if (words[pos - 1] >> 11) * 2.0**-53 < restart_prob:
                current = start
                continue
        if uniform:
            targets, lo, n = nodes, first, past - first
        else:
            lo, hi = indptr[current], indptr[current + 1]
            if lo == hi:
                raise GraphIntegrityError(
                    f"node {current} is isolated; consecutive-edge property violated")
            if weighted:
                pos += 1
                u = (words[pos - 1] >> 11) * 2.0**-53
                current = indices[lo + bisect_right(graph.neighbor_cdf(current), u)]
                continue
            targets, n = indices, hi - lo
            if switching:
                cross_lo, cross_hi = cross_indptr[current], cross_indptr[current + 1]
                if cross_lo < cross_hi:
                    pos += 1
                    if (words[pos - 1] >> 11) * 2.0**-53 < switch_prob:
                        targets, lo, n = cross_indices, cross_lo, cross_hi - cross_lo
        if n > 1:
            if half < 0:
                word = words[pos]
                pos += 1
                x, half = word & _LOW32, word >> 32
            else:
                x, half = half, -1
            m = x * n
            if (m & _LOW32) < n:
                m, pos, half = _lemire_reject(n, m, words, pos, half, bitgen)
            lo += m >> 32
        current = targets[lo]

    scaled_arr = np.array(scaled, dtype=float)
    return SyntheticSequence(
        values=inverse_transform(scaled_arr, source.scale_min, source.scale_max),
        scaled_values=scaled_arr, method=graph.kind, ticker=source.ticker,
        window_start=source.start_index, seed=int(seed))


def vrp_generate(window: Window, seed: int = 0) -> SyntheticSequence:
    """Shuffle-baseline: a uniformly random permutation of the window's
    prices and, in the same order, of its scaled values."""
    perm = np.random.default_rng(seed).permutation(window.length)
    return SyntheticSequence(
        values=window.raw_values[perm], scaled_values=window.scaled_values[perm],
        method="vrp", ticker=window.ticker, window_start=window.start_index, seed=int(seed))


def dtw_distances(candidates, references) -> np.ndarray:
    """DTW distance of each row of ``candidates``, an ``(N, n)`` array, to
    the same row of ``references``, an ``(N, m)`` array. A ragged batch
    raises ValueError; pairs of any lengths go through :func:`dtw_distance`.

    Absolute-difference local cost, full alignment, no window constraint.
    All rows share one anti-diagonal wavefront: step d fills the cells
    (i, d - i) of every row's accumulated-cost matrix with one array update,
    since each cell needs only the two previous anti-diagonals. Every cell is
    ``cost + min(up, left, diag)`` of the same operands as the textbook
    row-by-row recurrence, so the distances are bit-identical to it.
    """
    a, b = np.asarray(candidates, dtype=float), np.asarray(references, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or len(a) != len(b) or 0 in a.shape + b.shape:
        raise ValueError("dtw_distances requires an (N, n) candidate array and an (N, m) "
                         f"reference array with N, n, m >= 1, got {a.shape} and {b.shape}")
    (count, n), m = a.shape, b.shape[1]
    # cost[(i - 1) * m + j - 1, k] is cell (i, j)'s local cost for row k; the
    # last row is inf, the cost of every cell off the n x m grid
    cost = np.empty((n * m + 1, count))
    np.subtract(a.T[:, None, :], b.T[None, :, :], out=cost[:-1].reshape(n, m, count))
    np.abs(cost, out=cost)
    cost[-1] = np.inf
    # acc[d, i, k] is cell (i, j = d - i) of row k's matrix, laid onto the
    # diagonals by one take. A diagonal is one flat row with the rows of the
    # batch fastest, so a step is three contiguous updates shifted by one
    # cell (count entries); cells of different rows never meet.
    i = np.arange(n + 1)
    j = np.arange(n + m + 1)[:, None] - i
    inside = (i >= 1) & (j >= 1) & (j <= m)
    acc = cost.take(np.where(inside, (i - 1) * m + j - 1, n * m), axis=0)
    acc[0, 0] = 0.0
    diagonals = acc.reshape(n + m + 1, -1)
    best = np.empty(n * count)
    for d in range(2, n + m + 1):
        np.minimum(diagonals[d - 1, :-count], diagonals[d - 1, count:], out=best)
        np.minimum(best, diagonals[d - 2, :-count], out=best)
        diagonals[d, count:] += best
    return acc[n + m, n]


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance of one pair of any two lengths, as a batch of one;
    symmetric in its arguments."""
    return float(dtw_distances([a], [b])[0])


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
    same number for each. Their values, stacked once, are scored in one
    :func:`dtw_distances` call against the windows' raw values, stacked once
    and repeated per candidate. A window with at most ``k`` candidates keeps
    them all: so DS, whose :func:`ds_indices` pick precedes generation,
    keeps what it generated. Fewer than ``k`` also emit a DownsampleWarning.
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
    dists = dtw_distances(np.array([s.values for s in sequences]),
                          np.repeat([w.raw_values for w in windows], per, axis=0))
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
