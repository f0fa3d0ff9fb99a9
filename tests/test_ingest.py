import math
import re

import numpy as np
import pytest

from vgsynth.errors import DuplicateRowError, SchemaError
from vgsynth.ingest import (TimeSeries, Window, inverse_transform, load_series,
                            minmax_scale, slice_windows)

from conftest import make_window


def write_csv(path, rows, header="date,ticker,close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadSeries:
    def test_single_ticker(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", [
            "2021-01-01,AAA,10.0",
            "2021-01-02,AAA,11.0",
            "2021-01-03,AAA,12.0",
        ])
        series = load_series(path)
        assert len(series) == 1
        assert series[0].ticker == "AAA"
        assert len(series[0]) == 3
        np.testing.assert_allclose(series[0].values, [10.0, 11.0, 12.0])

    def test_interleaved_tickers_sorted_by_date(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", [
            "2021-01-02,BBB,2.0",
            "2021-01-01,AAA,1.0",
            "2021-01-01,BBB,1.5",
            "2021-01-02,AAA,1.1",
        ])
        series = load_series(path)
        assert [s.ticker for s in series] == ["AAA", "BBB"]
        for s in series:
            assert s.timestamps == sorted(s.timestamps)
        np.testing.assert_allclose(series[1].values, [1.5, 2.0])

    def test_duplicate_row_names_key(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", [
            "2021-01-01,AAA,1.0",
            "2021-01-01,AAA,2.0",
        ])
        with pytest.raises(DuplicateRowError, match=r"AAA.*2021-01-01"):
            load_series(path)

    def test_duplicate_row_names_both_lines(self, tmp_path):
        """The repeat is on line 5 of the file (header, a blank line and
        another ticker's row in between), its first occurrence on line 2."""
        path = write_csv(tmp_path / "p.csv", [
            "2021-01-01,AAA,1.0",
            "2021-01-01,BBB,1.0",
            "",
            "2021-01-01,AAA,2.0",
        ])
        with pytest.raises(DuplicateRowError) as excinfo:
            load_series(path)
        assert str(excinfo.value) == (
            f"{path}:5: duplicate row for (AAA, 2021-01-01), first on line 2")

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["2021-01-01,1.0"], header="date,close")
        with pytest.raises(SchemaError, match="ticker"):
            load_series(path)

    def test_unparseable_close_becomes_missing(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", [
            "2021-01-01,AAA,1.0",
            "2021-01-02,AAA,",
            "2021-01-03,AAA,n/a",
            "2021-01-04,AAA,2.0",
        ])
        values = load_series(path)[0].values
        assert math.isnan(values[1]) and math.isnan(values[2])
        assert values[0] == 1.0 and values[3] == 2.0

    def test_bad_date_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["01/02/2021,AAA,1.0"])
        with pytest.raises(SchemaError):
            load_series(path)

    @pytest.mark.parametrize("row, problem", [
        (",,1.0", "blank ticker"),
        ("2021-01-02,  ,1.0", "blank ticker"),
        ("2021-01-02,AAA,1.0,9", "4 fields, the header has 3"),
        ("2021-01-02,AAA", "2 fields, the header has 3"),
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, row, problem):
        path = write_csv(tmp_path / "p.csv", ["2021-01-01,AAA,1.0", "", row])
        with pytest.raises(SchemaError, match=rf"p\.csv:4: {problem}$"):
            load_series(path)

    def test_extra_header_column_is_kept_out_of_the_values(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["2021-01-01,AAA,x,1.0", "2021-01-02,AAA,y,"],
                         header="date,ticker,note,close")
        values = load_series(path)[0].values
        assert values[0] == 1.0 and math.isnan(values[1])


def series_of(values, ticker="T"):
    from datetime import date, timedelta

    dates = [date(2021, 1, 1) + timedelta(days=i) for i in range(len(values))]
    return TimeSeries(ticker=ticker, timestamps=dates, values=np.asarray(values, float))


class TestSliceWindows:
    def test_short_series_yields_nothing(self):
        assert slice_windows(series_of(range(5)), length=20, stride=1) == []

    def test_non_overlapping_offsets(self):
        windows = slice_windows(series_of(range(1, 41)), length=20, stride=20)
        assert [w.start_index for w in windows] == [0, 20]
        assert all(w.length == 20 for w in windows)

    def test_missing_values_drop_windows(self):
        series = series_of([1, 2, math.nan, 4, 5, 6, 7])
        windows = slice_windows(series, length=3, stride=1)
        assert [w.start_index for w in windows] == [3, 4]

    def test_window_count_formula(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 200))
            length = int(rng.integers(2, 30))
            stride = int(rng.integers(1, 25))
            windows = slice_windows(series_of(rng.random(n)), length, stride)
            expected = max(0, (n - length) // stride + 1) if n >= length else 0
            assert len(windows) == expected

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            slice_windows(series_of(range(10)), length=1)
        with pytest.raises(ValueError):
            slice_windows(series_of(range(10)), length=3, stride=0)


class TestMinMaxScale:
    def test_affine_endpoints(self):
        scaled = minmax_scale(make_window([2, 4, 6]))
        np.testing.assert_allclose(scaled.scaled_values, [0.0, 0.5, 1.0])
        assert scaled.scale_min == 2 and scaled.scale_max == 6
        assert scaled.scale_min != scaled.scale_max

    def test_constant_window(self):
        scaled = minmax_scale(make_window([7, 7, 7]))
        np.testing.assert_allclose(scaled.scaled_values, [0.5, 0.5, 0.5])
        assert scaled.scale_min == scaled.scale_max
        restored = inverse_transform(scaled.scaled_values, scaled.scale_min, scaled.scale_max)
        np.testing.assert_allclose(restored, [7, 7, 7])

    def test_round_trip_identity(self, rng):
        for _ in range(100):
            length = int(rng.integers(2, 64))
            raw = rng.random(length) * 1000 - 500
            scaled = minmax_scale(make_window(raw))
            assert scaled.scaled_values.min() >= 0.0
            assert scaled.scaled_values.max() <= 1.0
            restored = inverse_transform(scaled.scaled_values, scaled.scale_min,
                                         scaled.scale_max)
            np.testing.assert_allclose(restored, raw, rtol=1e-9, atol=1e-12)

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError):
            minmax_scale(make_window([1.0, math.nan, 2.0]))

    def test_rescales_over_the_windows_own_range(self):
        window = Window("T", 4, [2.0, 4.0, 6.0], scale_min=0.0, scale_max=8.0)
        np.testing.assert_array_equal(window.scaled_values, [0.25, 0.5, 0.75])
        rescaled = minmax_scale(window)
        assert (rescaled.ticker, rescaled.start_index) == ("T", 4)
        assert (rescaled.scale_min, rescaled.scale_max) == (2.0, 6.0)
        np.testing.assert_array_equal(rescaled.scaled_values, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(rescaled.raw_values, window.raw_values)
        assert not np.shares_memory(rescaled.raw_values, window.raw_values)


class TestWindow:
    @pytest.mark.parametrize("raw, problem", [
        ([], "holds no values"), ([1.0, math.nan, 2.0], "contains missing values"),
        ([1.0, math.inf, 2.0], "contains infinite values"),
        ([1.0, -math.inf, 2.0], "contains infinite values")])
    def test_empty_or_missing_values_rejected_when_made(self, raw, problem):
        with pytest.raises(ValueError, match=re.escape(f"T@3: window {problem}")):
            Window("T", 3, raw)

    def test_scaled_values_are_not_an_argument(self):
        with pytest.raises(TypeError):
            Window("T", 0, [1.0, 2.0], scaled_values=[0.0, 1.0])


def test_timestamps_must_strictly_increase():
    from datetime import date

    with pytest.raises(ValueError):
        TimeSeries(ticker="X", timestamps=[date(2021, 1, 2), date(2021, 1, 1)],
                   values=np.array([1.0, 2.0]))
