#!/usr/bin/env python3
"""Gate Algorithm 2's per-pick scaling from one bench rounds file.

BM_SmoothRrPick/<n> times one SmoothRoundRobinDispatcher::pick() at n
machines. The pick is O(log n), so going from n = 1000 to n = 100000
costs a small constant factor (about 1.5-2x on the reference host); an
O(n) pick, like the dense scan it replaced, reads ~300x there. Both
minima come from the same rounds file, so the ratio holds across hosts
where an absolute time would not. The gate fails when

    min(pick/100000) > --max-ratio * min(pick/1000)

Usage:
    python3 scripts/check_pick_scaling.py rounds.jsonl [--max-ratio 8]

Only Python's standard library is used.
"""

import argparse
import sys

from check_health_overhead import collect_minima, gate_ratio

SMALL = "BM_SmoothRrPick/1000"
LARGE = "BM_SmoothRrPick/100000"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="rounds file (google-benchmark JSON "
                                      "runs, concatenated)")
    parser.add_argument("--max-ratio", type=float, default=8.0,
                        help="ceiling on pick/100000 over pick/1000 "
                             "(default: %(default)s)")
    args = parser.parse_args()

    minima = collect_minima(args.input)
    missing = [name for name in (SMALL, LARGE) if name not in minima]
    if missing:
        sys.exit(f"missing from {args.input}: {', '.join(missing)}")
    small, large = minima[SMALL], minima[LARGE]
    if small["unit"] != large["unit"]:
        sys.exit(f"unit mismatch: {small['unit']} vs {large['unit']}")
    if small["real_time"] <= 0.0:
        sys.exit(f"non-positive {SMALL} time")
    if not gate_ratio(f"scaling {LARGE} / {SMALL}", large["real_time"],
                      small["real_time"], args.max_ratio, small["unit"]):
        sys.exit(1)


if __name__ == "__main__":
    main()
