#!/usr/bin/env python3
"""Check the per-modulus thm311 scan, and `verify_thm311`'s lower bound,
against 40-digit mpmath values over every admissible modulus.

For each q, `build_thm311(q, tau=50)` gives the recipe, and
`certified_positive_scan` scans max_r G_r(v) - G_0(v) over its designated
G_r by Taylor cells at step 1e-3 (the per-modulus scan that
`verify_thm311` made before it read its case's one certificate).  The
objective is evaluated at the scan's argmin in 40 digits, with the
polynomials' float coefficients, frequencies and phases taken as exact
numbers.  A scan lower_bound or a `verify_thm311` lower_bound above that
value, or a min_value that differs from it by more than the scan's
rounding term delta, is printed; then the moduli whose min_value is
farthest from it, relative, largest first.  It also counts the distinct
per-modulus objectives (G_0 and the designated G_r, compared by their
exact float terms), against the three certificates `verify_thm311` reads.

Usage:
    python tools/thm311_scan_diff.py [--q-max 2000] [--top 10]
"""

import argparse
import math
import sys
from pathlib import Path

from mpmath import mp, mpf, nstr, sin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.barriers import build_thm311, verify_thm311  # noqa: E402
from racelab.simulator import theorem_decomposition  # noqa: E402
from racelab.trigpoly import certified_positive_scan  # noqa: E402

mp.dps = 40


def designated_polys(recipe):
    params = recipe.params
    G = theorem_decomposition(recipe.system, "thm311", params)["G"]
    designated = [tuple(t) if isinstance(t, list) else (t,)
                  for t in params["designated"]]
    return G[(0,) * len(designated[0])], [G[r] for r in designated]


def exact_objective(g0, grs, v):
    def value(p):
        return sum(mpf(c) * sin(mpf(t) * mpf(v) + mpf(a))
                   for c, t, a in p.terms)
    return max(value(gr) for gr in grs) - value(g0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q-max", type=int, default=2000)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()
    moduli = [q for q in range(7, args.q_max + 1) if q not in (8, 10, 12, 24)]
    errors, bad, objectives = [], 0, set()
    for q in moduli:
        recipe = build_thm311(q, tau=50.0)
        g0, grs = designated_polys(recipe)
        objectives.add((g0, tuple(grs)))
        scan = certified_positive_scan(g0, grs, 0.0, 2 * math.pi, 1e-3)
        bound = verify_thm311(recipe).lower_bound
        exact = exact_objective(g0, grs, scan.argmin)
        if (max(scan.lower_bound, bound) > exact
                or abs(scan.min_value - exact) > scan.delta):
            bad += 1
            print(f"q={q}: lower_bound {scan.lower_bound!r}, verify "
                  f"lower_bound {bound!r}, min_value {scan.min_value!r}, "
                  f"delta {scan.delta!r}, mpmath {nstr(exact, 40)}")
        rel = float(abs(scan.min_value - exact) / abs(exact))
        errors.append((rel, q, recipe.params["case"], scan, exact))
    print(f"{len(moduli)} moduli, {len(objectives)} distinct per-modulus "
          "objectives, 3 certificates")
    print(f"{len(moduli)} moduli, {bad} with a lower_bound above the 40-digit "
          "objective at argmin or min_value off it by more than delta")
    print(f"{'q':>5} {'case':<12} {'lower_bound':>22} {'min_value':>22} "
          f"{'mpmath at argmin (40 digits)':>44} {'rel err':>8}")
    for rel, q, case, scan, exact in sorted(errors, reverse=True,
                                            key=lambda e: e[0])[:args.top]:
        print(f"{q:>5} {case:<12} {scan.lower_bound!r:>22} "
              f"{scan.min_value!r:>22} {nstr(exact, 40):>44} {rel:>8.1e}")


if __name__ == "__main__":
    main()
