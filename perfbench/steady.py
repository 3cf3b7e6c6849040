"""Steadiness check: run run.py on each workload with seeds 1..--runs, at
BENCHMARK.json's run_seconds, and report the median, quartiles and spread of
every end-to-end metric, and of the wall times (wall.setup_s, wall.run_s)
and op latencies (op_p50_s, op_tail_s) that the run record reports.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--out set.json]
                                [--compare earlier-set.json]

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  For each metric with a bound in
BENCHMARK.json the largest spread / bound over the workloads is printed,
setup_s's included (a benchmark is taken as steady when each is below 1/3).
With --compare, each median is also compared with the same workload's median
in an earlier --out file: a shift above the bound means two sets of the
same code would not pass as equal.  The per-seed output digests of the two
sets must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def compare(summary: dict, earlier: dict, bounds: dict) -> None:
    for workload, now in summary.items():
        if workload not in earlier:
            continue
        same = now["digests"] == earlier[workload]["digests"]
        print(f"{workload}: digests identical to the earlier set: {same}")
        for name, row in now["metrics"].items():
            before = earlier[workload]["metrics"][name]["median"]
            shift = (row["median"] - before) / before
            flag = " WORSE THAN BOUND" if name in bounds and \
                shift > bounds[name] else ""
            print(f"  {name:12s} median {before:.4g} -> {row['median']:.4g} "
                  f"shift={shift:+.3f} bound={bounds.get(name)}{flag}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    worst: dict = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        seeds = {}
        for seed in range(1, args.runs + 1):
            record, result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect, {record['failures']}")
            seeds[str(seed)] = record["digest"]
            # gated metrics, then the wall times and op latencies the
            # record reports
            shown = dict(result["metrics"])
            shown.update((f"wall.{k}", {"value": v})
                         for k, v in record["wall"].items())
            shown.update((k, v) for k, v in record["op_latency"].items()
                         if k != "samples")
            for name, m in shown.items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in shown.items())
                + f" passes={record['passes']}", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            if name in bounds:
                worst[name] = max(worst.get(name, (0.0, "")),
                                  (spread / bounds[name], workload))
            print(f"  {workload:15s} {name:12s} median={med:.4g} q1={q1:.4g} "
                  f"q3={q3:.4g} spread={spread:.3f} bound={bounds.get(name)}")
        summary[workload] = {"metrics": rows, "digests": seeds}
    for name, (ratio, workload) in worst.items():
        print(f"largest spread / bound of {name}: {ratio:.3f} ({workload})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.compare:
        compare(summary, json.loads(Path(args.compare).read_text(
            encoding="utf-8")), bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
