#!/usr/bin/env python3
"""Per-op wall times of one perfbench workload in cold processes, for two
source trees side by side.

Each run is a fresh interpreter per tree, set up as perfbench/worker.py
sets up a pass: it imports `racelab.cli` (every layer) from the tree's
src/, builds the workload's ops from the tree's perfbench/workloads.py,
runs six host-speed probes, then runs every op once with a
`speed.probe()` after each, outside the op's timing.  So each op sees the
caches and lazy imports a benchmark pass sees; a warm loop in one process
hides what only a first call pays (a module loaded on first use, a table
built once per process).  As perfbench/run.py scales a pass, each op's
time is scaled by speed.REF_S over the mean of its pass's probes, to the
reference host speed.  The trees alternate, A then B, then B then A, so
slow drift of the host falls on both alike.

The children run pinned to one CPU with the BLAS and OpenMP pools at one
thread and PYTHONHASHSEED=0, as the benchmark's children do, in a temporary
directory outside both trees; nothing is written to either tree.  To
stdout: per op, the median scaled time in each tree and their ratio B/A,
then the medians of the ops' sum and, unscaled, of the probes.

Usage:
    python tools/cold_ops.py --workload layered-census --runs 10 OLD NEW
where OLD and NEW are checkouts (say a `git archive` of the parent commit
and the working tree).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("thm311-sweep", "layered-census", "real-race", "cli-readme")
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
SETUP_PROBES = 6  # perfbench/worker.py's probes after set-up

# one cold pass: [[op name, seconds], ...], the probe times and the factor
# to the reference host speed, as JSON
CHILD = """\
import json, sys, time
from pathlib import Path
import racelab.cli
import speed, workloads
ops = workloads.make(sys.argv[1], int(sys.argv[2]), Path.cwd())
probes = [speed.probe() for _ in range(int(sys.argv[3]))]
times = []
for op in ops:
    t = time.perf_counter()
    try:
        op.run()
    except workloads.Documented:
        pass
    times.append([op.name, time.perf_counter() - t])
    probes.append(speed.probe())
scale = speed.REF_S * len(probes) / sum(probes)
print(json.dumps({"ops": times, "probes": probes, "scale": scale}))
"""


def cold_pass(tree: Path, workload: str, seed: int) -> dict:
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(tree / "perfbench")])}
    env.pop("RACE_LAB_BUDGET", None)
    with tempfile.TemporaryDirectory(prefix="cold-ops-") as work:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, workload, str(seed),
             str(SETUP_PROBES)], cwd=work, env=env, capture_output=True,
            text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: child exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10,
                    help="cold passes per tree")
    ap.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    args = ap.parse_args()
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "racelab" / "__init__.py").is_file():
            ap.error(f"{tree} has no src/racelab")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    runs: list = [[], []]
    for i in range(args.runs):
        for t in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[t].append(cold_pass(trees[t], args.workload, args.seed))
    names = [[name for name, _ in run["ops"]] for run in runs[0] + runs[1]]
    if any(n != names[0] for n in names):
        raise RuntimeError("the trees' passes ran different ops")

    def median_of(t: int, pick) -> float:
        return statistics.median(pick(run) for run in runs[t])

    print(f"{args.workload} seed {args.seed}, {args.runs} cold passes per "
          f"tree; A = {trees[0]}, B = {trees[1]}")
    print(f"{'op':40s} {'A ms':>9s} {'B ms':>9s} {'B/A':>6s}")
    rows = [(name, *(median_of(t, lambda run, i=i: run["ops"][i][1]
                               * run["scale"]) for t in (0, 1)))
            for i, name in enumerate(names[0])]
    rows.append(("sum of ops", *(median_of(t, lambda run: run["scale"] * sum(
        s for _, s in run["ops"])) for t in (0, 1))))
    rows.append(("probe", *(median_of(t, lambda run: statistics.median(
        run["probes"])) for t in (0, 1))))
    for name, a, b in rows:
        print(f"{name:40s} {1e3 * a:9.3f} {1e3 * b:9.3f} {b / a:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
