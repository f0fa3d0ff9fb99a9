"""Output checks and output digests.

The checks hold for any walk, any seed derivation and any graph
representation, so they stay valid if the seed contract is versioned:

- each method keeps windows x k sequences;
- every value is finite;
- scaled nvg/hvg values come from the source window's scaled values, and
  scaled nvmg values from the scaled values of the segment's windows;
- vrp preserves the window's multiset of raw values;
- each AUC lies in [0, 1] and each mixing score is finite and >= 0.

Digests are sha256 over each method's ``write_sequences`` bytes and over the
AUC/mixing fields of the report. They are compared between passes (a
mismatch is a failure) and against ``golden.json`` (a change is reported,
not counted as a failure).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from vgsynth import minmax_scale, slice_windows
from vgsynth.pipeline import write_sequences

REPORT_FIELDS = ("auc_real", "auc_synthetic", "auc_mixed", "mixing_score")
MAX_MESSAGES = 5


class Reference:
    """The benchmark's own windows of the loaded corpus, for the checks."""

    def __init__(self, series_list, config):
        self.windows = {}
        segments: dict[int, list[np.ndarray]] = {}
        for series in series_list:
            for raw in slice_windows(series, config.window_length, config.stride):
                window = minmax_scale(raw)
                self.windows[(window.ticker, window.start_index)] = window
                segments.setdefault(window.start_index, []).append(window.scaled_values)
        self.segment_values = {start: np.concatenate(vals) for start, vals in segments.items()}
        self.methods = tuple(config.methods)
        self.k = config.downsample_k

    def check_generation(self, sequences_by_method) -> list[str]:
        problems = []
        if set(sequences_by_method) != set(self.methods):
            problems.append(f"methods {sorted(sequences_by_method)} != {sorted(self.methods)}")
        for method, sequences in sequences_by_method.items():
            expected = len(self.windows) * self.k
            if len(sequences) != expected:
                problems.append(f"{method}: {len(sequences)} sequences, expected {expected}")
            for seq in sequences:
                problem = self._check_sequence(method, seq)
                if problem:
                    problems.append(f"{method} {seq.ticker}@{seq.window_start}: {problem}")
        return problems[:MAX_MESSAGES]

    def _check_sequence(self, method: str, seq) -> str | None:
        window = self.windows.get((seq.ticker, seq.window_start))
        if window is None:
            return "no such source window"
        if not np.isfinite(seq.values).all():
            return "non-finite values"
        if method == "vrp":
            if not np.array_equal(np.sort(seq.values), np.sort(window.raw_values)):
                return "not a permutation of the window"
            return None
        if seq.scaled_values is None or not np.isfinite(seq.scaled_values).all():
            return "missing or non-finite scaled values"
        allowed = (self.segment_values[seq.window_start] if method == "nvmg"
                   else window.scaled_values)
        if not np.isin(seq.scaled_values, allowed).all():
            return "scaled value not taken from the source"
        return None

    def check_evaluation(self, report, with_embedding: bool) -> list[str]:
        problems = []
        for method in self.methods:
            ev = report.methods.get(method)
            if ev is None:
                problems.append(f"{method}: missing from the report")
                continue
            for name in ("auc_real", "auc_synthetic", "auc_mixed"):
                auc = getattr(ev, name)
                if auc is not None and not 0.0 <= auc <= 1.0:
                    problems.append(f"{method}: {name} = {auc} outside [0, 1]")
            if with_embedding:
                mix = ev.mixing_score
                if mix is None or not math.isfinite(mix) or mix < 0:
                    problems.append(f"{method}: mixing score {mix}")
        return problems[:MAX_MESSAGES]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(sequences_by_method, report, work_dir: Path) -> dict[str, str]:
    """sha256 of each method's sequence file and of the report's scores."""
    out = {}
    for method in sorted(sequences_by_method):
        path = work_dir / f"sequences_{method}.jsonl"
        write_sequences(sequences_by_method[method], path)
        out[method] = _sha256(path.read_bytes())
    scores = {method: {name: fields[name] for name in REPORT_FIELDS}
              for method, fields in report.to_dict()["methods"].items()}
    out["report"] = _sha256(json.dumps(scores, sort_keys=True).encode())
    return out


def combined(digest: dict[str, str]) -> str:
    return _sha256(json.dumps(digest, sort_keys=True).encode())
