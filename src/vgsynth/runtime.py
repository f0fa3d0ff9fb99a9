"""Wall-clock accounting for generation work, per ticker or time segment.

Durations are stored at millisecond precision and only floored to whole
seconds when formatted for the summary table (``days hh:mm:ss``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

UNIT_KINDS = ("ticker", "segment")


@dataclass
class RuntimeRecord:
    unit_id: str
    method: str
    elapsed_ms: int
    unit_kind: str = "ticker"
    valid: bool = True

    def __post_init__(self):
        if self.unit_kind not in UNIT_KINDS:
            raise ValueError(f"unknown unit kind {self.unit_kind!r}")
        if self.elapsed_ms < 0:
            raise ValueError("elapsed time cannot be negative")


def time_unit(task, unit_id: str, method: str, unit_kind: str = "ticker"):
    """Run ``task()`` and measure it with a monotonic clock.

    Returns (result, record). If the task raises, a record flagged invalid
    is attached to the exception as ``partial_record`` before re-raising.
    """
    start = time.perf_counter_ns()
    try:
        result = task()
    except Exception as exc:
        elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
        exc.partial_record = RuntimeRecord(unit_id=unit_id, method=method,
                                           elapsed_ms=int(elapsed_ms), unit_kind=unit_kind,
                                           valid=False)
        raise
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    record = RuntimeRecord(unit_id=unit_id, method=method,
                           elapsed_ms=int(elapsed_ms), unit_kind=unit_kind)
    return result, record


def aggregate(records: list[RuntimeRecord]) -> dict[str, int]:
    """Sum elapsed milliseconds per method, in method order; order of
    records does not matter."""
    if not records:
        raise ValueError("no runtime records to aggregate")
    totals: dict[str, int] = {}
    for rec in records:
        totals[rec.method] = totals.get(rec.method, 0) + rec.elapsed_ms
    return dict(sorted(totals.items()))


def format_duration(elapsed_ms: int) -> str:
    """Render milliseconds as ``days hh:mm:ss`` (floored to whole seconds)."""
    seconds = int(elapsed_ms) // 1000
    days, rem = divmod(seconds, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{days} {hours:02d}:{minutes:02d}:{secs:02d}"


def summary_table(records: list[RuntimeRecord]) -> str:
    """Human-readable per-method totals."""
    kinds: dict[str, set[str]] = {}
    for rec in records:
        kinds.setdefault(rec.method, set()).add(rec.unit_kind)
    lines = [f"{'method':<12} {'unit':<8} {'time (days hh:mm:ss)':>22}"]
    for method, elapsed_ms in aggregate(records).items():
        unit = next(iter(kinds[method])) if len(kinds[method]) == 1 else "mixed"
        lines.append(f"{method:<12} {unit:<8} {format_duration(elapsed_ms):>22}")
    return "\n".join(lines)


def write_runtime_log(records: list[RuntimeRecord], path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps({
                "unit_id": rec.unit_id,
                "unit_kind": rec.unit_kind,
                "method": rec.method,
                "elapsed_ms": rec.elapsed_ms,
                "valid": rec.valid,
            }) + "\n")


# runtime log field -> (its JSON type, as Python reads it; that type in words)
_LOG_FIELD_TYPES = {"unit_id": (str, "a string"), "method": (str, "a string"),
                    "elapsed_ms": (int, "an integer"), "valid": (bool, "true or false")}


def read_runtime_log(path: str | Path) -> list[RuntimeRecord]:
    """Read a runtime log; a record without ``valid`` (older logs) is valid.

    A record that is not a complete JSON record, lacks a field, holds a
    field of the wrong type (see ``_LOG_FIELD_TYPES``) or an unknown
    ``unit_kind`` raises ValueError naming ``path:line``.
    """
    out = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                fields = {name: rec[name]
                          for name in ("unit_id", "method", "elapsed_ms", "unit_kind")}
                fields["valid"] = rec.get("valid", True)
                for name, (kind, described) in _LOG_FIELD_TYPES.items():
                    if type(fields[name]) is not kind:
                        raise ValueError(f"{name} must be {described}, got {fields[name]!r}")
                out.append(RuntimeRecord(**fields))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record has no field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return out
