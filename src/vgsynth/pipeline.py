"""End-to-end orchestration: ingest, graph construction, generation,
downsampling, evaluation, and report assembly.

All stochastic steps derive their seeds from the master seed and the unit
identity (ticker, window start, method), never from the order units run in,
so a run is reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .embedding import (MAX_EMBED_POINTS, MIN_EMBED_POINTS, OverlapResult, embedding_overlap,
                        points_per_side)
from .evaluate import EvalReport, run_experiment
from .generate import (PreparedSeed, SyntheticSequence, WalkConfig, derive_seed, downsample,
                       ds_indices, generate_sequence, seed_states, vrp_generate)
from .graphs import DEFAULT_SIMILAR_VALUE_EPSILON, build_hvg, build_multigraph, build_nvg
from .ingest import TimeSeries, Window, forward_transform, load_series, slice_windows
from .runtime import RuntimeRecord, aggregate, time_unit

METHODS = ("nvg", "hvg", "nvmg", "vrp")
DOWNSAMPLE_MODES = ("ds", "simds")


# config-file section -> {option in the section: RunConfig field}
_SECTIONS = {
    "downsample": {"mode": "downsample_mode", "k": "downsample_k"},
    "walk": {f.name: f.name for f in fields(WalkConfig)},
    "evaluation": {name: name for name in ("split", "l2", "max_iter", "tol", "perplexity",
                                           "embed_iterations", "mixing_k",
                                           "embed_max_points")},
}
# RunConfig field -> (section, option): its only spelling in a config file
_SECTION_OF = {name: (section, option) for section, options in _SECTIONS.items()
               for option, name in options.items()}


# integer RunConfig field -> smallest value it may take
_INTEGER_MINIMUMS = {"seed": 0, "window_length": 3, "sequences_per_window": 1,
                     "downsample_k": 1, "max_iter": 1, "embed_iterations": 1,
                     "mixing_k": 1, "embed_max_points": MIN_EMBED_POINTS}


class ConfigError(ValueError):
    """Invalid run configuration."""


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class RunConfig:
    """Run manifest; see README for the config file schema. It checks itself
    when made, from a file, a dict or keywords (ConfigError on a bad value);
    change a field with :func:`dataclasses.replace`, which checks again."""

    input: str = ""
    out_dir: str = "out"
    seed: int = 0
    window_length: int = 20
    stride: int | None = None
    methods: tuple[str, ...] = ("nvg", "hvg", "nvmg", "vrp")
    similar_value_epsilon: float = DEFAULT_SIMILAR_VALUE_EPSILON
    sequences_per_window: int = 10
    downsample_mode: str = "simds"
    downsample_k: int = 1
    node_strategy: str = WalkConfig.node_strategy
    value_policy: str = WalkConfig.value_policy
    restart_prob: float = WalkConfig.restart_prob
    switch_prob: float = WalkConfig.switch_prob
    restart_jump: str = WalkConfig.restart_jump
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    l2: float = 1e-3
    max_iter: int = 10000
    tol: float = 1e-6
    perplexity: float = 30.0
    embed_iterations: int = 500
    mixing_k: int = 10
    embed_max_points: int = MAX_EMBED_POINTS

    def __post_init__(self) -> None:
        for name in ("methods", "split"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("input", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name, minimum in _INTEGER_MINIMUMS.items():
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise ConfigError(f"{name.replace('_', ' ')} must be >= {minimum}, got {value}")
        if self.stride is not None and not (_is_integer(self.stride) and self.stride >= 1):
            raise ConfigError(f"stride must be null or an integer >= 1, got {self.stride!r}")
        for name in ("similar_value_epsilon", "l2", "tol"):
            value = getattr(self, name)
            if not (_is_number(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (_is_number(self.perplexity) and self.perplexity > 0):
            raise ConfigError(f"perplexity must be a finite number > 0, got {self.perplexity!r}")
        odd = ([self.methods] if not isinstance(self.methods, tuple)
               else [m for m in self.methods if not isinstance(m, str)])
        if odd:
            raise ConfigError(f"methods must be a list of strings, got "
                              f"{type(odd[0]).__name__} {odd[0]!r}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s) {unknown}; valid methods: {list(METHODS)}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods lists {repeated} more than once")
        if self.downsample_mode not in DOWNSAMPLE_MODES:
            raise ConfigError(f"unknown downsample mode {self.downsample_mode!r}; "
                              f"valid modes: {list(DOWNSAMPLE_MODES)}")
        if self.downsample_k > self.sequences_per_window:
            raise ConfigError(f"downsample.k ({self.downsample_k}) must not exceed "
                              f"sequences_per_window ({self.sequences_per_window})")
        split = self.split
        if (not isinstance(split, tuple) or len(split) != 3
                or not all(_is_number(r) and r >= 0 for r in split)
                or abs(sum(split) - 1.0) > 1e-9):
            raise ConfigError(f"split must be 3 ratios >= 0 that sum to 1, got {split!r}")
        try:
            self.walk
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def walk(self) -> WalkConfig:
        """The walk section as one checked :class:`WalkConfig`, made with the config."""
        return WalkConfig(**{name: getattr(self, name) for name in _SECTIONS["walk"]})

    def to_dict(self) -> dict:
        out: dict = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            if name in _SECTION_OF:
                section, option = _SECTION_OF[name]
                out.setdefault(section, {})[option] = value
            else:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict, **overrides) -> "RunConfig":
        """The config ``data`` describes, with ``overrides`` (RunConfig fields)
        in place of its values before the one check: those are never checked."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, got {data!r}")
        flat = {}
        for key, value in data.items():
            if key in _SECTIONS:
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object, got {value!r}")
                for option, option_value in value.items():
                    if option not in _SECTIONS[key]:
                        raise ConfigError(f"unknown {key} option {option!r}")
                    flat[_SECTIONS[key][option]] = option_value
            elif key in _SECTION_OF:
                section, option = _SECTION_OF[key]
                raise ConfigError(f"option {key!r} belongs in the {section!r} section: "
                                  f"write it as {section}.{option}")
            elif key in cls.__dataclass_fields__:
                flat[key] = value
            else:
                raise ConfigError(f"unknown config option {key!r}")
        return cls(**{**flat, **overrides})

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "RunConfig":
        try:
            with Path(path).open() as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data, **overrides)


def prepare_windows(config: RunConfig,
                    series_list: list[TimeSeries] | None = None) -> dict[str, list[Window]]:
    """All windows, keyed by ticker (sorted), each scaled as it is sliced."""
    if series_list is None:
        series_list = load_series(config.input)
    return {series.ticker: slice_windows(series, config.window_length, config.stride)
            for series in sorted(series_list, key=lambda s: s.ticker)}


_BUILDERS = {"nvg": build_nvg, "hvg": build_hvg}


def _seed_units(method: str, units: list[list[Window]],
                config: RunConfig) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """Each unit's candidates to generate, as (window positions, uint64
    seeds, ``(N, 4)`` seed states), in the order the unit generates them.

    Two passes over all of a method's units: DS first seeds every window's
    ``derive_seed(..., "downsample")`` draw and draws its k picks (none when
    k == n), then every kept candidate's ``derive_seed(..., i)`` is hashed
    into its PCG64 state by one :func:`seed_states` call. The seeds are the
    ones a per-candidate ``default_rng(seed)`` would take."""
    n, k = config.sequences_per_window, config.downsample_k
    identities = [(config.seed, w.ticker, w.start_index, method) for ws in units for w in ws]
    if config.downsample_mode == "ds" and k < n:
        draw_seeds = [derive_seed(*identity, "downsample") for identity in identities]
        picks = [ds_indices(n, k, PreparedSeed(seed, state))
                 for seed, state in zip(draw_seeds, seed_states(draw_seeds))]
    else:
        picks = [range(n)] * len(identities)
    # a uint64 array, not a list of ints: fewer small objects outlive this
    # pass, which kept the process's peak RSS up
    seeds = np.fromiter((derive_seed(*identity, i) for identity, picked in zip(identities, picks)
                         for i in picked), dtype=np.uint64)
    states = seed_states(seeds)
    plans, first, picks = [], 0, iter(picks)
    for ws in units:
        positions = [position for position in range(len(ws)) for _ in next(picks)]
        last = first + len(positions)
        plans.append((positions, seeds[first:last], states[first:last]))
        first = last
    return plans


def _generate_unit(method: str, windows: list[Window], config: RunConfig,
                   plan: tuple[list[int], np.ndarray, np.ndarray]) -> list[SyntheticSequence]:
    """All kept sequences of one unit. The unit's one graph (a ticker's
    block-diagonal NVG or HVG, a segment's multigraph, none for vrp) serves
    all its windows' walks under ``config.walk``, each with its own seed and
    round-robin cursors; only the candidates in ``plan`` (see
    :func:`_seed_units`) are generated. One ``downsample`` call then selects
    over all of the unit's candidates."""
    graph = None
    if method == "nvmg":
        graph = build_multigraph(windows, similar_value_epsilon=config.similar_value_epsilon)
    elif method in _BUILDERS and windows:
        graph = _BUILDERS[method](windows)
    candidates = []
    positions, seeds, states = plan
    for position, seed, state in zip(positions, seeds.tolist(), states):
        seed = PreparedSeed(seed, state)
        if graph is None:
            candidates.append(vrp_generate(windows[position], seed=seed))
        else:
            candidates.append(generate_sequence(graph, config.walk, window=position, seed=seed))
    return downsample(candidates, windows, k=config.downsample_k)


def run_generation(
    config: RunConfig, series_list: list[TimeSeries] | None = None
) -> tuple[dict[str, list[SyntheticSequence]], list[RuntimeRecord]]:
    """Generate sequences for every configured method.

    Units are tickers for nvg/hvg/vrp and segments for nvmg; each unit's
    graph is built once, and each unit is timed. A method's seeds are
    hashed before its first unit starts, so unit times hold no seed hashing.
    Output order is deterministic: by (ticker, window start), then generation order.
    """
    windows_by_ticker = prepare_windows(config, series_list)
    if not any(windows_by_ticker.values()):
        source = config.input if series_list is None else "the given series"
        raise ValueError(f"{source}: no ticker has a complete window of "
                         f"{config.window_length} values")
    records: list[RuntimeRecord] = []
    by_method: dict[str, list[SyntheticSequence]] = {}

    for method in config.methods:
        if method == "nvmg":
            segments: dict[int, list[Window]] = {}
            for ticker in sorted(windows_by_ticker):
                for w in windows_by_ticker[ticker]:
                    segments.setdefault(w.start_index, []).append(w)
            units = [(f"segment_{start}", "segment", ws) for start, ws in sorted(segments.items())]
        else:
            units = [(ticker, "ticker", ws) for ticker, ws in sorted(windows_by_ticker.items())]
        plans = _seed_units(method, [ws for _, _, ws in units], config)
        sequences: list[SyntheticSequence] = []
        for (unit_id, unit_kind, ws), plan in zip(units, plans):
            result, record = time_unit(lambda: _generate_unit(method, ws, config, plan),
                                       unit_id=unit_id, method=method, unit_kind=unit_kind)
            sequences.extend(result)
            records.append(record)
        # stable sort keeps generation order within a window
        sequences.sort(key=lambda s: (s.ticker, s.window_start))
        by_method[method] = sequences
    return by_method, records


def write_sequences(sequences: list[SyntheticSequence], path: str | Path) -> None:
    """Line-delimited records: ticker, window_start, method, seed, values."""
    with Path(path).open("w") as fh:
        for seq in sequences:
            fh.write(json.dumps({
                "ticker": seq.ticker,
                "window_start": seq.window_start,
                "method": seq.method,
                "seed": seq.seed,
                "values": [float(v) for v in seq.values],
            }) + "\n")


def read_sequences(path: str | Path, method: str) -> list[SyntheticSequence]:
    """Read generated sequences; a sequence read back holds its prices and no
    scaled values.

    Every record must name ``method``, a string ticker, an integer
    ``window_start``, an integer seed in [0, 2**64) and finite values; no two
    records may share a (ticker, window_start, seed). Otherwise, or on a
    record that is not complete JSON, ValueError names ``path:line`` (a
    repeat also names the first record's line). Whether each sequence has a
    source window of its length is :func:`run_evaluation`'s check.
    """
    out, first_line = [], {}
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                values = np.array(rec["values"], dtype=float)
                key = (rec["ticker"], rec["window_start"])
                named, seed = rec["method"], rec["seed"]
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record has no field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if named != method:
                raise ValueError(f"{path}:{lineno}: a {named!r} record in a file of "
                                 f"method {method!r}")
            if not isinstance(key[0], str):
                raise ValueError(f"{path}:{lineno}: ticker {key[0]!r} is not a string")
            if not _is_integer(key[1]):
                raise ValueError(f"{path}:{lineno}: window_start {key[1]!r} is not an integer")
            if not (_is_integer(seed) and 0 <= seed < 2**64):
                raise ValueError(f"{path}:{lineno}: seed {seed!r} is not an integer in [0, 2**64)")
            if not np.isfinite(values).all():
                raise ValueError(f"{path}:{lineno}: record holds a value that is not finite")
            first = first_line.setdefault((*key, seed), lineno)
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: (ticker, window_start, seed) "
                                 f"{(*key, seed)} repeats line {first}")
            out.append(SyntheticSequence(values=values, scaled_values=None, method=method,
                                         ticker=key[0], window_start=key[1], seed=seed))
    return out


def run_evaluation(
    config: RunConfig,
    sequences_by_method: dict[str, list[SyntheticSequence]],
    series_list: list[TimeSeries] | None = None,
    runtime_records: list[RuntimeRecord] | None = None,
    with_embedding: bool = True,
) -> tuple[EvalReport, dict[str, OverlapResult]]:
    """Run the classification experiment and the embedding diagnostic.

    One pass per method, in method order, meets its sequences with their
    source windows before any fit, with the embedding on or off, in-process
    or read back alike: each must name a prepared window at its (ticker,
    window_start), or ValueError names the method and the key; then its
    values must have shape ``(window length,)``, or ValueError names the
    method, the sequence's (ticker, window_start, seed), its values' shape
    and the window's length. The experiment gets the values as one ``(N, L)``
    array and their source windows' positions. With the embedding on, the
    pass then rejects fewer than ``MIN_EMBED_POINTS`` points (ValueError)
    and a ``mixing_k`` not below the point count (ConfigError), counted as
    ``embedding_overlap`` samples them, and maps all the method's prices in
    one ``forward_transform`` call with their source windows' scales."""
    windows_by_ticker = prepare_windows(config, series_list)
    all_windows = [w for ws in windows_by_ticker.values() for w in ws]
    position = {(w.ticker, w.start_index): i for i, w in enumerate(all_windows)}
    scales = np.array([(w.scale_min, w.scale_max) for w in all_windows])  # (W, 2)
    synthetic: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # method -> (values, sources)
    synthetic_vectors: dict[str, np.ndarray] = {}  # method -> the points it embeds
    for method, sequences in sequences_by_method.items():
        try:
            sources = np.array([position[s.ticker, s.window_start] for s in sequences], dtype=int)
        except KeyError as exc:
            raise ValueError(f"method {method!r}: no input window for "
                             f"(ticker, window_start) {exc.args[0]}") from None
        length = config.window_length  # the length of every prepared window
        for s in sequences:
            if np.shape(s.values) != (length,):
                raise ValueError(f"method {method!r}: sequence (ticker, window_start, seed) "
                                 f"{(s.ticker, s.window_start, s.seed)} has values of shape "
                                 f"{np.shape(s.values)} for a window of length {length}")
        values = np.array([s.values for s in sequences], dtype=float).reshape(-1, length)
        synthetic[method] = values, sources
        if not (with_embedding and sequences):
            continue
        points = 2 * points_per_side(len(all_windows), len(sequences), config.embed_max_points)
        if points < MIN_EMBED_POINTS:
            raise ValueError(f"method {method!r}'s embedding would hold {points} points, "
                             f"below {MIN_EMBED_POINTS}")
        if config.mixing_k >= points:
            raise ConfigError(f"evaluation.mixing_k must be below the {points} points "
                              f"embedded for method {method!r}, got {config.mixing_k}")
        synthetic_vectors[method] = forward_transform(values, scales[sources, :1],
                                                      scales[sources, 1:])
    report = run_experiment(all_windows, synthetic, split=config.split, l2=config.l2,
                            max_iter=config.max_iter, tol=config.tol)
    report.seed, report.config = config.seed, config.to_dict()
    if runtime_records:
        report.runtime_totals.update(aggregate(runtime_records))

    overlaps: dict[str, OverlapResult] = {}
    if synthetic_vectors:
        real_vectors = np.array([w.scaled_values for w in all_windows])
    for method, vectors in synthetic_vectors.items():
        overlaps[method] = overlap = embedding_overlap(
            real_vectors, vectors,
            perplexity=config.perplexity, iterations=config.embed_iterations,
            seed=config.seed, k=config.mixing_k,
            max_points=config.embed_max_points,
        )
        report.methods[method].mixing_score = overlap.mixing
    return report, overlaps
