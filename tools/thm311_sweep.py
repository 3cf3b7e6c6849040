#!/usr/bin/env python3
"""Build and verify the three-residue barrier for every admissible modulus,
check `verify_thm311`'s class path against a per-modulus certified scan,
and record each outcome bit for bit, so that two source trees can be
compared case by case.

The grid: every admissible q <= 2000 (q >= 7, q not in {8, 10, 12, 24}),
built with `build_thm311(q, tau=50)`.  `verify_thm311` decides each case
from its case's one certificate, the identities being exact on the zeros
its load check pins; beside it, the
per-modulus scan certifies max_r G_r - G_0 > 0 on [0, 2 pi] at step 1e-3
(`certified_positive_scan`, G_0 the base and the designated G_r the
branches), as `verify_thm311` did before the certificates.  Each case
records q, the sha256 of the recipe JSON, the class path's ok,
lower_bound and identity errors, and the per-modulus scan's ok,
min_value, argmin, certified_step, delta, lower_bound and failure_point;
every float is written as its hex form (`float.hex`), so equal lines mean
equal bits.  The summary line on stderr counts the moduli where the two
paths disagree on ok, and those where the class lower_bound lies above
the scan's min_value.

Usage, once per source tree, then compare the two files line by line (one
case per line, in a fixed order):
    python tools/thm311_sweep.py --out sweep.json
    diff old.json new.json
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.barriers import build_thm311, verify_thm311  # noqa: E402
from racelab.simulator import theorem_decomposition  # noqa: E402
from racelab.trigpoly import certified_positive_scan  # noqa: E402

Q_MAX = 2000
TAU = 50.0


def hex_or_none(x):
    return None if x is None else float(x).hex()


def per_modulus_scan(recipe):
    """The certified scan of max_r G_r - G_0 over the designated G_r."""
    G = theorem_decomposition(recipe.system, "thm311", recipe.params)["G"]
    designated = [tuple(t) if isinstance(t, list) else (t,)
                  for t in recipe.params["designated"]]
    return certified_positive_scan(G[(0,) * len(designated[0])],
                                   [G[r] for r in designated],
                                   0.0, 2 * math.pi, 1e-3)


def run_case(q: int) -> dict:
    recipe = build_thm311(q, tau=TAU)
    report = verify_thm311(recipe)
    scan = per_modulus_scan(recipe)
    return {"q": q,
            "sha256": hashlib.sha256(recipe.to_json().encode()).hexdigest(),
            "ok": report.ok,
            "lower_bound": hex_or_none(report.lower_bound),
            "identity_errors": {k: hex_or_none(e)
                                for k, e in report.identity_errors.items()},
            "scan": {"ok": scan.ok,
                     "min_value": hex_or_none(scan.min_value),
                     "argmin": hex_or_none(scan.argmin),
                     "certified_step": hex_or_none(scan.certified_step),
                     "delta": hex_or_none(scan.delta),
                     "lower_bound": hex_or_none(scan.lower_bound),
                     "failure_point": hex_or_none(scan.failure_point)}}


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
    disagree = sum(r["ok"] != r["scan"]["ok"] for r in results)
    above = sum(float.fromhex(r["lower_bound"])
                > float.fromhex(r["scan"]["min_value"]) for r in results)
    least = min(results, key=lambda r: float.fromhex(r["lower_bound"]))
    print(f"{len(results)} moduli ({failed} not ok) in {elapsed:.1f} s "
          f"-> {args.out}; class path and per-modulus scan disagree on ok "
          f"for {disagree}, lower_bound above the scan's min_value for "
          f"{above}; least lower_bound "
          f"{float.fromhex(least['lower_bound']):.3g} at q = {least['q']}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
