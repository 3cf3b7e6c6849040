#!/usr/bin/env python3
"""Build the layered census barrier for every modulus q <= 200 and record
each outcome bit for bit, so that two source trees can be compared case by
case.

The grid: q = 3..200, built with `build_thm51(q, tau=50)` (its other
arguments at their defaults).  Each case records q and either the sha256
of the recipe JSON and the margins of `check_thm51_conditions` on the
built recipe, every float as its hex form (`float.hex`), or the error as
"<class>: <message>".

Usage, once per source tree, then compare the two files line by line (one
case per line, in a fixed order):
    python tools/thm51_sweep.py --out sweep.json
    diff old.json new.json
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.barriers import build_thm51, check_thm51_conditions  # noqa: E402

Q_MAX = 200
TAU = 50.0


def run_case(q: int) -> dict:
    out = {"q": q}
    try:
        recipe = build_thm51(q, tau=TAU)
        margins = check_thm51_conditions(recipe).margins
    except (ValueError, RuntimeError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update(sha256=hashlib.sha256(recipe.to_json().encode()).hexdigest(),
               margins={k: float(m).hex() for k, m in margins.items()})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    results = [run_case(q) for q in range(3, Q_MAX + 1)]
    elapsed = time.perf_counter() - t0
    Path(args.out).write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in results)
        + "\n]\n", encoding="utf-8")
    errors = sum("error" in r for r in results)
    print(f"{len(results)} moduli ({errors} errors) in {elapsed:.1f} s "
          f"-> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
