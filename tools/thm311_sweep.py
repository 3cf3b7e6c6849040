#!/usr/bin/env python3
"""Build and verify the three-residue barrier for every admissible modulus
and record each outcome bit for bit, so that two source trees can be
compared case by case.

The grid: every admissible q <= 2000 (q >= 7, q not in {8, 10, 12, 24}),
built with `build_thm311(q, tau=50)` and checked with `verify_thm311` at its
default step.  Each case records q, the sha256 of the recipe JSON, ok, the
identity errors, and the scan's min_value, argmin, certified_step, delta
(its rounding term), lower_bound (its certified minimum) and
failure_point; every float is written as its hex form (`float.hex`), so
equal lines mean equal bits.

Usage, once per source tree, then compare the two files line by line (one
case per line, in a fixed order):
    python tools/thm311_sweep.py --out sweep.json
    diff old.json new.json
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.barriers import build_thm311, verify_thm311  # noqa: E402

Q_MAX = 2000
TAU = 50.0


def hex_or_none(x):
    return None if x is None else float(x).hex()


def run_case(q: int) -> dict:
    recipe = build_thm311(q, tau=TAU)
    report = verify_thm311(recipe)
    scan = report.scan
    return {"q": q,
            "sha256": hashlib.sha256(recipe.to_json().encode()).hexdigest(),
            "ok": report.ok,
            "identity_errors": {k: hex_or_none(e)
                                for k, e in report.identity_errors.items()},
            "min_value": hex_or_none(scan.min_value),
            "argmin": hex_or_none(scan.argmin),
            "certified_step": hex_or_none(scan.certified_step),
            "delta": hex_or_none(scan.delta),
            "lower_bound": hex_or_none(scan.lower_bound),
            "failure_point": hex_or_none(scan.failure_point)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    results = [run_case(q) for q in range(7, Q_MAX + 1)
               if q not in (8, 10, 12, 24)]
    elapsed = time.perf_counter() - t0
    Path(args.out).write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in results)
        + "\n]\n", encoding="utf-8")
    failed = sum(not r["ok"] for r in results)
    print(f"{len(results)} moduli ({failed} not ok) in {elapsed:.1f} s "
          f"-> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
