"""The per-row feature code that ``extract_features`` replaced, kept
verbatim as the reference: one ``FeatureRow`` per window, one ``np.polyfit``
per quadratic coefficient. ``extract_features`` must give the same labels
and the same six columns byte for byte, and the slope and the quadratic
coefficient within rounding scaled to each window's value range.
``reference_feature_matrix`` stacks the rows into the matrix form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vgsynth.evaluate import FEATURE_NAMES


@dataclass
class FeatureRow:
    """Feature vector of one window plus its up/down label."""

    linear_trend_slope: float
    quadratic_coeff: float
    average_change: float
    rsi: float
    num_peaks: int
    mean: float
    variance: float
    value_range: float
    label: int

    def vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


def _ols_slope(y: np.ndarray) -> float:
    x = np.arange(y.size, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.dot(xc, xc)
    return float(np.dot(xc, yc) / denom) if denom > 0 else 0.0


def _quadratic_coeff(y: np.ndarray) -> float:
    if y.size < 3:
        return 0.0
    return float(np.polyfit(np.arange(y.size, dtype=float), y, 2)[0])


def relative_strength_index(y: np.ndarray) -> float:
    """RSI over the whole window with single-period average gains/losses.

    All-gain windows score 100, all-loss windows 0, flat windows 50.
    """
    diffs = np.diff(np.asarray(y, dtype=float))
    gains = float(diffs[diffs > 0].sum())
    losses = float(-diffs[diffs < 0].sum())
    if gains == 0.0 and losses == 0.0:
        return 50.0
    if losses == 0.0:
        return 100.0
    if gains == 0.0:
        return 0.0
    rs = gains / losses
    return 100.0 - 100.0 / (1.0 + rs)


def count_peaks(y: np.ndarray) -> int:
    """Strict local maxima; endpoints excluded."""
    inner = y[1:-1]
    return int(np.sum((inner > y[:-2]) & (inner > y[2:])))


def extract_features(values: np.ndarray) -> FeatureRow:
    """Features over the first n-1 values; label from the final step.

    The label is 1 if the last value strictly exceeds the one before it,
    otherwise 0 (ties count as down).
    """
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError(f"need at least 3 values, got {values.size}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    head = values[:-1]
    return FeatureRow(
        linear_trend_slope=_ols_slope(head),
        quadratic_coeff=_quadratic_coeff(head),
        average_change=float(np.diff(head).mean()),
        rsi=relative_strength_index(head),
        num_peaks=count_peaks(head),
        mean=float(head.mean()),
        variance=float(head.var()),
        value_range=float(head.max() - head.min()),
        label=int(values[-1] > values[-2]),
    )


def _arrays(rows: list[FeatureRow]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and label vector of ``rows``."""
    return np.array([r.vector() for r in rows]), np.array([r.label for r in rows])


def reference_feature_matrix(values) -> tuple[np.ndarray, np.ndarray]:
    """``extract_features``'s ``(X, y)`` from one reference row per window."""
    return _arrays([extract_features(row) for row in values])
