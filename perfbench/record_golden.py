"""Record the golden output digests of every workload into golden.json.

    python3 perfbench/record_golden.py --seeds 0-24

Run it from the root of a source checkout, after a change that is meant to
alter outputs. Each digest comes from one untraced pass; a pass whose output
checks fail records nothing and stops the script.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-24")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(ROOT / "src"))
    import harness

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in sorted(WORKLOADS):
        for seed in seeds:
            digest = harness.golden_digest(WORKLOADS[name], seed, ROOT)
            golden.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
