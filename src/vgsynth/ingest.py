"""Load per-ticker close-price series and slice them into fixed-length
windows, each min-max scaled when made.

This module owns the min-max map: a :class:`Window` carries its own
``(scale_min, scale_max)`` and scaled values, :func:`forward_transform` takes
prices to [0, 1] with such a scale and :func:`inverse_transform` takes them
back. A window whose ``scale_max`` does not exceed its ``scale_min`` is
constant: it scales to 0.5 everywhere and inverts to ``scale_min``. Graphs,
walks and evaluation all go through these two maps.

Input files are comma-delimited text with header ``date,ticker,close`` and
ISO-8601 dates. A missing close is encoded as an empty field; unparseable
closes are treated as missing as well.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DuplicateRowError, SchemaError

REQUIRED_COLUMNS = ("date", "ticker", "close")


@dataclass(eq=False)
class TimeSeries:
    """Close-price history of one ticker. NaN marks a missing close."""

    ticker: str
    timestamps: list[date]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.timestamps) != self.values.size:
            raise ValueError(
                f"{self.ticker}: {len(self.timestamps)} timestamps vs "
                f"{self.values.size} values"
            )
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if a >= b:
                raise ValueError(f"{self.ticker}: timestamps not strictly increasing at {b}")
        if np.isinf(self.values).any():
            raise ValueError(f"{self.ticker}: non-finite values other than NaN are not allowed")

    def __len__(self) -> int:
        return self.values.size


@dataclass(eq=False)
class Window:
    """Fixed-length slice of one ticker's series, min-max scaled when made.

    ``scaled_values`` is ``raw_values`` under :func:`forward_transform` with
    ``(scale_min, scale_max)``, which default to the window's own minimum and
    maximum; a constant window scales every value to 0.5. Values that are
    not one-dimensional, an empty window, or one holding NaN or ±inf, raise
    ValueError naming ``ticker@start``.
    """

    ticker: str
    start_index: int
    raw_values: np.ndarray
    scale_min: float | None = None
    scale_max: float | None = None
    scaled_values: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = self.raw_values = np.asarray(self.raw_values, dtype=float)
        if raw.ndim != 1:
            raise ValueError(f"{self.ticker}@{self.start_index}: window values must be "
                             f"one-dimensional, got shape {raw.shape}")
        # min and max are NaN if any value is, and infinite if any value is
        lo, hi = (float(raw.min()), float(raw.max())) if raw.size else (math.nan, math.nan)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problem = ("holds no values" if not raw.size else "contains missing values"
                       if math.isnan(lo) else "contains infinite values")
            raise ValueError(f"{self.ticker}@{self.start_index}: window {problem}")
        self.scale_min = lo if self.scale_min is None else self.scale_min
        self.scale_max = hi if self.scale_max is None else self.scale_max
        self.scaled_values = forward_transform(raw, self.scale_min, self.scale_max)

    @property
    def length(self) -> int:
        return self.raw_values.size


def load_series(path: str | Path) -> list[TimeSeries]:
    """Read a ``date,ticker,close`` file into one TimeSeries per ticker.

    Rows are sorted by date within each ticker. Empty or unparseable close
    fields become NaN. Raises SchemaError on a bad header, and naming
    ``path:line`` on a row whose field count differs from the header's, a
    blank ticker or an unparseable date; DuplicateRowError naming
    ``path:line`` of a repeated (ticker, date) key and the line of its
    first occurrence.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {missing}")
        date_col, ticker_col, close_col = (header.index(c) for c in REQUIRED_COLUMNS)

        def error(problem: str) -> SchemaError:
            return SchemaError(f"{path}:{reader.line_num}: {problem}")

        rows: dict[str, dict[date, tuple[float, int]]] = {}  # close, line
        for fields in reader:
            if not fields:  # blank line
                continue
            if len(fields) != len(header):
                raise error(f"{len(fields)} fields, the header has {len(header)}")
            ticker = fields[ticker_col].strip()
            if not ticker:
                raise error("blank ticker")
            raw_date = fields[date_col].strip()
            try:
                ts = date.fromisoformat(raw_date)
            except ValueError as exc:
                raise error(f"bad date {raw_date!r}") from exc
            raw_close = fields[close_col].strip()
            try:
                close = float(raw_close) if raw_close else math.nan
            except ValueError:
                close = math.nan
            if not math.isnan(close) and math.isinf(close):
                close = math.nan
            per_ticker = rows.setdefault(ticker, {})
            if ts in per_ticker:
                raise DuplicateRowError(
                    f"{path}:{reader.line_num}: duplicate row for ({ticker}, {ts}), "
                    f"first on line {per_ticker[ts][1]}")
            per_ticker[ts] = (close, reader.line_num)

    out = []
    for ticker in sorted(rows):
        dates = sorted(rows[ticker])
        values = np.array([rows[ticker][d][0] for d in dates], dtype=float)
        out.append(TimeSeries(ticker=ticker, timestamps=dates, values=values))
    return out


def slice_windows(series: TimeSeries, length: int, stride: int | None = None) -> list[Window]:
    """Slice ``series`` into windows at offsets 0, stride, 2*stride, ...

    Windows containing a missing value are dropped. ``stride`` defaults to
    ``length`` (non-overlapping). A series shorter than ``length`` yields an
    empty list.
    """
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    if stride is None:
        stride = length
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    values = series.values
    out = []
    for start in range(0, len(values) - length + 1, stride):
        chunk = values[start : start + length]
        if np.isnan(chunk).any():
            continue
        out.append(Window(ticker=series.ticker, start_index=start, raw_values=chunk.copy()))
    return out


def minmax_scale(window: Window) -> Window:
    """A copy of ``window`` scaled over its own minimum and maximum, whatever
    scale it was made with."""
    return Window(window.ticker, window.start_index, window.raw_values.copy())


def forward_transform(values: np.ndarray, scale_min, scale_max) -> np.ndarray:
    """The min-max map of ``[scale_min, scale_max]`` onto [0, 1] for an array
    of prices, in its shape, with floats or scales that broadcast against it,
    such as ``(N, 1)`` columns for ``(N, L)`` rows; 0.5 wherever
    ``scale_max <= scale_min``."""
    values = np.asarray(values, dtype=float)
    span = scale_max - scale_min
    return np.divide(values - scale_min, span, out=np.full_like(values, 0.5), where=span > 0)


def inverse_transform(scaled: np.ndarray, scale_min: float, scale_max: float) -> np.ndarray:
    """Inverse of :func:`forward_transform` for an arbitrary array of scaled
    values; ``scale_min`` everywhere when ``scale_max <= scale_min``."""
    scaled = np.asarray(scaled, dtype=float)
    if scale_max <= scale_min:
        return np.full_like(scaled, scale_min)
    return scale_min + scaled * (scale_max - scale_min)
