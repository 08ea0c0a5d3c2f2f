"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload repeat-front --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
per-layer measurement instead and writes its spans. Generated corpora,
reports, logs and spans go to perfbench/out/. The package is imported from
the checkout's src/, so the command must run from a full checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (ROOT / "src" / "fairteams" / "__init__.py").is_file():
        print(f"error: no fairteams sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.harness import measure, measure_traced
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        result = measure_traced(workload, args.seed, out_dir)
    else:
        result = measure(workload, args.seed, args.seconds, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
