#!/usr/bin/env python3
"""Sieve a fixed grid of prime races and record the sha256 of each table's
CSV, so that two source trees can be compared case by case.

The grid: q = 3..60, 210, 1009 and 30030, each at x_max = 1e5, 1e6 and
1e7, plus 3e7 for q <= 13 and 1e8 for q = 3; every case under the
checkpoint rules "geometric:1.01" and "linear" (step x_max // 1000).  Each
case records q, x_max, the rule, the number of checkpoints, pi(x_max) and
the sha256 of `PrimeRaceTable.to_csv()`, so equal lines mean equal tables.
Then one line per lead-change case: q = 3..60, the first three unit pairs
(a, b), a < b, of each, at x_max = 1e5, 1e6 and 1e7, plus (3, 2, 1, 1e8);
each records q, a, b, x_max and `first_lead_change(q, a, b, x_max)`.

Usage, once per source tree, then compare the two files line by line (one
case per line, in a fixed order):
    python tools/sieve_digest.py --out digest.json
    diff old.json new.json

Each sieve case's row modulus d (see `primes._row_layout`) and wall time
go to stderr as it runs, then the total and the five slowest cases; the
file holds neither, so it stays comparable between trees.
"""

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.primes import (_row_layout, first_lead_change,  # noqa: E402
                             sieve_race)
from racelab.residues import unit_group  # noqa: E402

MODULI = list(range(3, 61)) + [210, 1009, 30030]
RULES = ("geometric:1.01", "linear")


def cases():
    for q in MODULI:
        xs = [10**5, 10**6, 10**7] + [3 * 10**7] * (q <= 13) \
            + [10**8] * (q == 3)
        for x_max in xs:
            for rule in RULES:
                yield q, x_max, rule


def lead_cases():
    for q in range(3, 61):
        pairs = list(itertools.islice(
            itertools.combinations(unit_group(q).units, 2), 3))
        for x_max in (10**5, 10**6, 10**7):
            for a, b in pairs:
                yield q, a, b, x_max
    yield 3, 2, 1, 10**8


def run_lead_case(q: int, a: int, b: int, x_max: int) -> dict:
    return {"q": q, "a": a, "b": b, "x_max": x_max,
            "first_lead_change": first_lead_change(q, a, b, x_max)}


def run_case(q: int, x_max: int, rule: str) -> dict:
    table = sieve_race(q, x_max, checkpoint_rule=rule)
    return {"q": q, "x_max": x_max, "rule": rule,
            "checkpoints": len(table.checkpoints),
            "pi_max": int(table.pi[-1]),
            "sha256": hashlib.sha256(table.to_csv().encode()).hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    results, times = [], []
    for run, name, grid in ((run_case, "sieve_race", cases()),
                            (run_lead_case, "first_lead_change",
                             lead_cases())):
        for case in grid:
            t0 = time.perf_counter()
            results.append(run(*case))
            times.append((time.perf_counter() - t0, f"{name}{case}"))
            if run is run_case:
                q, x_max, _ = case
                d, _ = _row_layout(q, x_max)
                print(f"{times[-1][1]} d={d} {times[-1][0]:.3f} s",
                      file=sys.stderr)
    Path(args.out).write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in results)
        + "\n]\n", encoding="utf-8")
    print(f"{len(results)} cases in {sum(t for t, _ in times):.1f} s -> "
          f"{args.out}", file=sys.stderr)
    for seconds, case in sorted(times, reverse=True)[:5]:
        print(f"{seconds:8.3f} s  {case}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
