#!/usr/bin/env python3
"""Gate the choice hook's on-cost on the robust path from one rounds file.

BM_FullClusterSimulationRobust/<hook> runs the fault-drill stack
(breaker(hedged(fault-aware(ORR))) with faults, overload, lossy links,
heartbeats and a trace sink) with the explorer's ScheduleHook off (/0)
and on (/1). The armed schedule targets every machine's dispatch-loss
draw at an occurrence the run never reaches, so both rows simulate the
same trajectory and /1 over /0 is what ~14 consults per job cost.
Minima over 16 interleaved rounds on one pinned core read 1.06 with the
dense per-kind counters and 1.14 with the earlier two hash-map probes
per consult (BENCH_sim.json, robust-flat vs robust-hashed). The default
ceiling leaves room for runner noise above the measured 1.06-1.09, so
it catches per-consult allocation or work that grows with the run, not
a few nanoseconds per consult. Both minima come from the same rounds
file, so the ratio holds across hosts where an absolute time would not.
The gate fails when

    min(Robust/1) > --max-ratio * min(Robust/0)

Usage:
    python3 scripts/check_hook_overhead.py rounds.jsonl [--max-ratio 1.2]

Only Python's standard library is used.
"""

import argparse
import sys

from check_health_overhead import collect_minima, gate_ratio

HOOK_OFF = "BM_FullClusterSimulationRobust/0"
HOOK_ON = "BM_FullClusterSimulationRobust/1"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="rounds file (google-benchmark JSON "
                                      "runs, concatenated)")
    parser.add_argument("--max-ratio", type=float, default=1.2,
                        help="ceiling on hook-on over hook-off time "
                             "(default: %(default)s)")
    args = parser.parse_args()

    minima = collect_minima(args.input)
    missing = [name for name in (HOOK_OFF, HOOK_ON) if name not in minima]
    if missing:
        sys.exit(f"missing from {args.input}: {', '.join(missing)}")
    off, on = minima[HOOK_OFF], minima[HOOK_ON]
    if off["unit"] != on["unit"]:
        sys.exit(f"unit mismatch: {off['unit']} vs {on['unit']}")
    if off["real_time"] <= 0.0:
        sys.exit(f"non-positive {HOOK_OFF} time")
    if not gate_ratio(f"hook on-cost {HOOK_ON} / {HOOK_OFF}", on["real_time"],
                      off["real_time"], args.max_ratio, off["unit"]):
        sys.exit(1)


if __name__ == "__main__":
    main()
