"""Harness self-test at minimal size: one short run per workload and mode.

    python3 perfbench/smoke.py

Asserts that every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) named in BENCHMARK.json is emitted, with its unit, for every
workload; that every op passes its oracle (ops_failed_frac = 0); and that
the traced run reports trace.overhead_s.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import sys

from steady import ROOT, run_once


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            record, result = run_once(workload, seed=1, seconds=1, trace=trace)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                "differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or record["ops_failed_frac"]:
                problems.append(f"{where}: failed ops {record['failures']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: no ops attempted")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
