"""Benchmark entry point.

    python3 perfbench/run.py --workload desk_simds --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports ``vgsynth`` from its
``src/`` directory. With ``--trace 0`` the result line carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics. The last line of standard output is the result JSON;
the lines before it give the environment, the inputs, every metric with its
unit, the output digests and any failed operation.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _golden_status(workload: str, seed: int, digest: str | None) -> str:
    try:
        recorded = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        recorded = None
    if recorded is None:
        return f"no golden digest recorded for seed {seed}"
    return "matches golden" if digest == recorded else f"CHANGED from golden {recorded}"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up into this CSV, print when ready, and exit
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "vgsynth" / "__init__.py").is_file():
        print(f"perfbench: no vgsynth sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        _, load_s = harness.set_up(workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"ready": time.time(), "load_s": load_s}))
        return 0
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    metrics = result["metrics"]
    details = result["details"]
    for key in ("environment", "inputs", "timings", "digest"):
        print(f"{key}: {json.dumps(details[key], sort_keys=True)}")
    print(f"golden: {_golden_status(args.workload, args.seed, result['digest'])}")
    if details["absent"]:
        print(f"absent hooks or counters: {', '.join(details['absent'])}")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_frac="ratio", generate_wall_s="s", evaluate_wall_s="s")
    for name in sorted(metrics):
        unit = units.get(name, "count" if name.endswith(".calls") else "")
        print(f"{name}: {metrics[name]!r} {unit}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:  # only when every traced pass failed
        print(f"not measured, reported as 0: {', '.join(missing)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
