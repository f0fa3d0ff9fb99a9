"""Seeded synthetic price corpus for benchmarks, demos, and the test suite.

Each ticker follows a geometric random walk whose drift and volatility
switch between persistent regimes (a two-state Markov chain), so window
direction is partially predictable from recent history. That gives the
downstream classifier a learnable signal without any market data.
"""

from __future__ import annotations

import csv
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .ingest import TimeSeries

BULL = {"drift": 0.008, "vol": 0.008}
BEAR = {"drift": -0.008, "vol": 0.012}
REGIME_STAY_PROB = 0.98
START_PRICE = 100.0


def make_desk_corpus(n_tickers: int = 20, n_days: int = 500,
                     seed: int = 0) -> list[TimeSeries]:
    """Generate a corpus of regime-switching geometric random walks."""
    rng = np.random.default_rng(seed)
    first_day = date(2020, 1, 1)
    dates = [first_day + timedelta(days=i) for i in range(n_days)]
    out = []
    for t in range(n_tickers):
        regime = int(rng.integers(0, 2))
        log_price = np.log(START_PRICE * float(rng.uniform(0.5, 2.0)))
        prices = np.empty(n_days)
        for i in range(n_days):
            params = BULL if regime == 0 else BEAR
            log_price += params["drift"] + params["vol"] * rng.standard_normal()
            prices[i] = np.exp(log_price)
            if rng.random() > REGIME_STAY_PROB:
                regime = 1 - regime
        out.append(TimeSeries(ticker=f"T{t:03d}", timestamps=dates, values=prices))
    return out


def write_corpus_csv(series_list: list[TimeSeries], path: str | Path) -> None:
    """Write a corpus in the ``date,ticker,close`` input format."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "ticker", "close"])
        for series in series_list:
            for ts, value in zip(series.timestamps, series.values):
                close = "" if np.isnan(value) else repr(float(value))
                writer.writerow([ts.isoformat(), series.ticker, close])
