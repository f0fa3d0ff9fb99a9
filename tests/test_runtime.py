import time

import pytest

from vgsynth.runtime import (RuntimeRecord, aggregate, format_duration,
                             read_runtime_log, summary_table, time_unit,
                             write_runtime_log)


class TestTimeUnit:
    def test_noop_is_fast(self):
        _, record = time_unit(lambda: None, unit_id="T", method="nvg")
        assert record.elapsed_ms < 10
        assert record.valid

    def test_sleep_is_measured(self):
        _, record = time_unit(lambda: time.sleep(0.1), unit_id="T", method="nvg")
        assert 100 <= record.elapsed_ms <= 150

    def test_result_passthrough(self):
        result, record = time_unit(lambda: 41 + 1, unit_id="T", method="vrp")
        assert result == 42
        assert (record.unit_id, record.method, record.valid) == ("T", "vrp", True)

    def test_failure_propagates_with_partial_record(self):
        def boom():
            raise RuntimeError("broken task")

        with pytest.raises(RuntimeError) as excinfo:
            time_unit(boom, unit_id="T", method="nvg")
        record = excinfo.value.partial_record
        assert not record.valid

    def test_unknown_unit_kind_rejected(self):
        with pytest.raises(ValueError):
            RuntimeRecord(unit_id="x", method="m", elapsed_ms=1, unit_kind="galaxy")


class TestAggregate:
    def test_table5_style_formatting(self):
        records = [RuntimeRecord("t1", "nvg", 39_000)]
        totals = aggregate(records)
        assert format_duration(totals["nvg"]) == "0 00:00:39"

    def test_floor_to_seconds(self):
        assert format_duration(aggregate([RuntimeRecord("t", "m", 1)])["m"]) == "0 00:00:00"
        assert format_duration(aggregate([RuntimeRecord("t", "m", 999)])["m"]) == "0 00:00:00"

    def test_sum_across_records(self):
        records = [RuntimeRecord("a", "m", 30_000), RuntimeRecord("b", "m", 31_000)]
        totals = aggregate(records)
        assert totals["m"] == 61_000
        assert format_duration(totals["m"]) == "0 00:01:01"

    def test_order_independent(self):
        records = [RuntimeRecord(f"t{i}", "m", i * 7) for i in range(10)]
        forward = aggregate(records)["m"]
        backward = aggregate(records[::-1])["m"]
        assert forward == backward == sum(i * 7 for i in range(10))

    def test_unit_kind_reported(self):
        records = [RuntimeRecord("s0", "nvmg", 100, unit_kind="segment"),
                   RuntimeRecord("t0", "nvg", 100, unit_kind="ticker")]
        rows = [row.split() for row in summary_table(records).splitlines()[1:]]
        assert {row[0]: row[1] for row in rows} == {"nvmg": "segment", "nvg": "ticker"}
        mixed = [RuntimeRecord("t0", "m", 1), RuntimeRecord("s0", "m", 1, unit_kind="segment")]
        assert summary_table(mixed).splitlines()[1].split()[:2] == ["m", "mixed"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def test_format_duration_days():
    ms = ((2 * 24 * 3600) + (23 * 3600) + (6 * 60) + 15) * 1000
    assert format_duration(ms) == "2 23:06:15"


def test_log_round_trip(tmp_path):
    records = [RuntimeRecord("t0", "nvg", 12, unit_kind="ticker"),
               RuntimeRecord("seg_0", "nvmg", 34, unit_kind="segment")]
    path = tmp_path / "runtime.jsonl"
    write_runtime_log(records, path)
    back = read_runtime_log(path)
    assert [(r.unit_id, r.method, r.elapsed_ms, r.unit_kind) for r in back] == \
        [(r.unit_id, r.method, r.elapsed_ms, r.unit_kind) for r in records]


def test_log_keeps_invalid_records(tmp_path):
    records = [RuntimeRecord("t0", "nvg", 12),
               RuntimeRecord("t1", "nvg", 5, valid=False)]
    path = tmp_path / "runtime.jsonl"
    write_runtime_log(records, path)
    assert [r.valid for r in read_runtime_log(path)] == [True, False]


def test_log_without_valid_field_reads_as_valid(tmp_path):
    path = tmp_path / "runtime.jsonl"
    path.write_text('{"unit_id": "t0", "unit_kind": "ticker", "method": "nvg", '
                    '"elapsed_ms": 3}\n')
    assert read_runtime_log(path) == [RuntimeRecord("t0", "nvg", 3)]


GOOD_RECORD = '{"unit_id": "t0", "unit_kind": "ticker", "method": "nvg", "elapsed_ms": 3}'


@pytest.mark.parametrize("record, problem", [
    (GOOD_RECORD[:22], "malformed record: Unterminated string"),
    ('{"unit_id": "t0", "method": "nvg", "elapsed_ms": 3}', "record has no field 'unit_kind'"),
    (GOOD_RECORD.replace("3}", '"3"}'), "malformed record: elapsed_ms must be an integer, got '3'"),
    (GOOD_RECORD.replace("3}", "3.5}"), "malformed record: elapsed_ms must be an integer, got 3.5"),
    (GOOD_RECORD.replace("ticker", "desk"), "malformed record: unknown unit kind 'desk'"),
    (GOOD_RECORD.replace("3}", '3, "valid": "no"}'),
     "malformed record: valid must be true or false, got 'no'"),
    (GOOD_RECORD.replace('"nvg"', "7"), "malformed record: method must be a string, got 7"),
    (GOOD_RECORD.replace('"t0"', "null"), "malformed record: unit_id must be a string, got None"),
], ids=["truncated", "missing_field", "string_elapsed", "float_elapsed", "unknown_unit_kind",
        "string_valid", "integer_method", "null_unit_id"])
def test_malformed_log_record_names_the_line(tmp_path, record, problem):
    path = tmp_path / "runtime.jsonl"
    path.write_text(GOOD_RECORD + "\n" + record)  # a cut file ends without a newline
    with pytest.raises(ValueError) as excinfo:
        read_runtime_log(path)
    assert str(excinfo.value).startswith(f"{path}:2: {problem}")


def test_summary_table_contains_methods():
    records = [RuntimeRecord("t", "nvg", 39_000), RuntimeRecord("s", "nvmg", 65_000,
                                                                unit_kind="segment")]
    table = summary_table(records)
    assert "0 00:00:39" in table
    assert "0 00:01:05" in table
