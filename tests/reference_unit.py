"""The per-candidate generation loop that ``run_generation`` replaced, kept
with its draws unchanged as the reference it must equal byte for byte: each
unit hashes its own seeds, one ``derive_seed`` and one fresh
``SeedSequence`` per DS draw and per candidate, inside the unit.
"""

from __future__ import annotations

from vgsynth.generate import (SyntheticSequence, derive_seed, downsample, ds_indices,
                              generate_sequence, vrp_generate)
from vgsynth.graphs import build_hvg, build_multigraph, build_nvg
from vgsynth.ingest import TimeSeries, Window
from vgsynth.pipeline import RunConfig, prepare_windows

_BUILDERS = {"nvg": build_nvg, "hvg": build_hvg}


def generate_unit(method: str, windows: list[Window],
                  config: RunConfig) -> list[SyntheticSequence]:
    """All kept sequences of one unit, seeding each candidate as it runs."""
    graph = None
    if method == "nvmg":
        graph = build_multigraph(windows, similar_value_epsilon=config.similar_value_epsilon)
    elif method in _BUILDERS and windows:
        graph = _BUILDERS[method](windows)
    n, k = config.sequences_per_window, config.downsample_k
    walk = config.walk
    candidates = []
    for position, window in enumerate(windows):
        identity = (config.seed, window.ticker, window.start_index, method)
        indices = (ds_indices(n, k, derive_seed(*identity, "downsample"))
                   if config.downsample_mode == "ds" else range(n))
        for i in indices:
            if graph is None:
                candidates.append(vrp_generate(window, seed=derive_seed(*identity, i)))
            else:
                candidates.append(generate_sequence(graph, walk, window=position,
                                                    seed=derive_seed(*identity, i)))
    return downsample(candidates, windows, k=k)


def reference_generation(config: RunConfig, series_list: list[TimeSeries] | None = None
                         ) -> tuple[dict[str, list[SyntheticSequence]], list[tuple[str, str]]]:
    """Every method's sequences, and each unit's (method, unit id) in the
    order the units ran."""
    windows_by_ticker = prepare_windows(config, series_list)
    by_method, units_run = {}, []
    for method in config.methods:
        if method == "nvmg":
            segments: dict[int, list[Window]] = {}
            for ticker in sorted(windows_by_ticker):
                for w in windows_by_ticker[ticker]:
                    segments.setdefault(w.start_index, []).append(w)
            units = [(f"segment_{start}", ws) for start, ws in sorted(segments.items())]
        else:
            units = sorted(windows_by_ticker.items())
        sequences = []
        for unit_id, ws in units:
            sequences.extend(generate_unit(method, ws, config))
            units_run.append((method, unit_id))
        sequences.sort(key=lambda s: (s.ticker, s.window_start))
        by_method[method] = sequences
    return by_method, units_run
