"""Command-line entry point.

Subcommands: ``generate`` (build graphs and write synthetic sequences),
``evaluate`` (classification experiment, embedding export, report),
``selftest`` (the fast paths against their brute-force oracles), ``report``
(pretty-print a finished run). Exit codes: 0 success, 1 failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .embedding import write_embedding_csv
from .evaluate import EvalReport
from .ingest import load_series
from .oracles import check_auc, check_dtw, check_visibility
from .pipeline import (ConfigError, RunConfig, read_sequences, run_evaluation, run_generation,
                       write_sequences)
from .runtime import read_runtime_log, summary_table, write_runtime_log

# a run directory's files, each name spelled here only
RUNTIME_LOG, REPORT, CONFIG_SNAPSHOT = "runtime.jsonl", "report.json", "config_snapshot.json"


def sequences_path(out_dir: str | Path, method: str) -> Path:
    return Path(out_dir) / f"sequences_{method}.jsonl"


def _load_config(args) -> RunConfig:
    """The config file's config, each given flag's value in place of the file's."""
    methods = None if args.methods is None else [
        m.strip() for m in args.methods.split(",") if m.strip()]
    flags = {"input": args.input or None, "seed": args.seed, "window_length": args.window,
             "methods": methods, "out_dir": args.out}
    overrides = {name: value for name, value in flags.items() if value is not None}
    # one construction, so a file value that a flag replaces is never checked
    config = (RunConfig.from_file(args.config, **overrides) if args.config
              else RunConfig(**overrides))
    if not config.input:
        raise ConfigError("no input file configured (use --input or the config file)")
    return config


def cmd_generate(args) -> int:
    config = _load_config(args)
    if not Path(config.input).exists():
        print(f"error: input file not found: {config.input}", file=sys.stderr)
        return 1
    out_dir = Path(config.out_dir)
    # out_dir is made after generation, which fails unless the nearest path
    # on it that exists is a directory: check that before generating
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        print(f"error: cannot make output directory {out_dir}: {nearest} is not a directory",
              file=sys.stderr)
        return 1
    by_method, records = run_generation(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method, sequences in by_method.items():
        path = sequences_path(out_dir, method)
        write_sequences(sequences, path)
        print(f"{method}: wrote {len(sequences)} sequences to {path}")
    write_runtime_log(records, out_dir / RUNTIME_LOG)
    # what this run generated with; report.json holds what evaluate ran with
    with (out_dir / CONFIG_SNAPSHOT).open("w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(summary_table(records))
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    out_dir = Path(config.out_dir)
    missing = [str(sequences_path(out_dir, m)) for m in config.methods
               if not sequences_path(out_dir, m).exists()]
    if missing:
        print(f"error: missing generated file(s): {missing}", file=sys.stderr)
        return 1

    series_list = load_series(config.input)
    sequences_by_method = {m: read_sequences(sequences_path(out_dir, m), m)
                           for m in config.methods}
    runtime_file = out_dir / RUNTIME_LOG
    records = read_runtime_log(runtime_file) if runtime_file.exists() else []

    report, overlaps = run_evaluation(config, sequences_by_method, series_list,
                                      runtime_records=records)
    report.write(out_dir / REPORT)
    for method, overlap in overlaps.items():
        write_embedding_csv(overlap.coords, overlap.origins, out_dir / f"embedding_{method}.csv")
    print(f"wrote {out_dir / REPORT}")
    _print_report(report)
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out or "out")
    report_file, runtime_file = out_dir / REPORT, out_dir / RUNTIME_LOG
    if not report_file.exists() and not runtime_file.exists():
        print(f"error: nothing to report in {out_dir}", file=sys.stderr)
        return 1
    if report_file.exists():
        try:
            with report_file.open() as fh:
                report = EvalReport.from_dict(json.load(fh))
        except ValueError as exc:  # not JSON, or not shaped like a report
            raise ValueError(f"{report_file}: {exc}") from exc
        _print_report(report)
    if runtime_file.exists():
        records = read_runtime_log(runtime_file)
        if not records:
            raise ValueError(f"{runtime_file}: no runtime records to aggregate")
        print(summary_table(records))
    return 0


def _print_report(report: EvalReport) -> None:
    header = f"{'method':<8} {'auc_real':>9} {'auc_synth':>10} {'auc_mixed':>10} {'mixing':>8}"
    print(header)
    for method, ev in sorted(report.methods.items()):
        fmt = lambda v: f"{v:.4f}" if v is not None else "-"
        line = (f"{method:<8} {fmt(ev.auc_real):>9} {fmt(ev.auc_synthetic):>10} "
                f"{fmt(ev.auc_mixed):>10} {fmt(ev.mixing_score):>8}")
        if ev.annotation:
            line += f"  [{ev.annotation}]"
        print(line)


def cmd_selftest(args=None) -> int:
    """Acceptance criteria 1-3's oracle checks at smaller sizes."""
    suites = [
        ("visibility vs brute force", lambda: check_visibility(60)),
        ("dtw vs brute force", lambda: check_dtw(150)),
        ("auc vs pairwise count", lambda: check_auc(200)),
    ]
    failed = False
    for name, suite in suites:
        ok, detail = suite()
        status = "PASS" if ok else "FAIL"
        failed = failed or not ok
        print(f"{status}  {name:<28} {detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vgsynth",
        description="Visibility-graph based synthetic time series generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("generate", cmd_generate), ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--input", type=str, default=None, help="date,ticker,close file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--window", type=int, default=None, help="window length (>= 3)")
        p.add_argument("--methods", type=str, default=None,
                       help="comma-separated subset of nvg,hvg,nvmg,vrp")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.set_defaults(handler=handler)
    p = sub.add_parser("selftest")
    p.set_defaults(handler=cmd_selftest)
    p = sub.add_parser("report")
    p.add_argument("--out", type=str, default="out")
    p.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
