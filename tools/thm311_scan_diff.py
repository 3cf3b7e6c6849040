#!/usr/bin/env python3
"""Compare `verify_thm311`'s certified scan with the direct objective it
replaced, over every admissible modulus, and check the largest shifts of
the scan minimum against 40-digit mpmath values.

For each q, `build_thm311(q, tau=50)` gives the recipe.  The scan of
`verify_thm311` (all G from one phasor-power table, `trigpoly.evaluate`) is
set against the same certified scan of max_r G_r(v) - G_0(v) evaluated term
by term with `TrigPoly.__call__`.  Any difference in ok, certified step,
argmin or failure point is printed.  Then, for every modulus whose
min_value moved by more than --tol relative, largest shift first, the
objective is evaluated at the argmin in 40 digits, with the polynomials'
float coefficients, frequencies and phases taken as exact numbers, and
both relative errors are printed.  It also counts the distinct verify
objectives (G_0 and the designated G_r, compared by their exact float
terms): `verify_thm311` scans each of them once per process.

Usage:
    python tools/thm311_scan_diff.py [--q-max 2000] [--tol 1e-12]
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
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


def direct_scan(g0, grs):
    lip = max(g0.lipschitz_bound + gr.lipschitz_bound for gr in grs)
    return certified_positive_scan(
        lambda v: np.max(np.vstack([gr(v) for gr in grs]), axis=0) - g0(v),
        lip, 0.0, 2 * math.pi, 1e-3)


def exact_objective(g0, grs, v):
    def value(p):
        return sum(mpf(c) * sin(mpf(t) * mpf(v) + mpf(a))
                   for c, t, a in p.terms)
    return max(value(gr) for gr in grs) - value(g0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q-max", type=int, default=2000)
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args()
    moduli = [q for q in range(7, args.q_max + 1) if q not in (8, 10, 12, 24)]
    shifts, mismatches, objectives = [], 0, set()
    for q in moduli:
        recipe = build_thm311(q, tau=50.0)
        g0, grs = designated_polys(recipe)
        objectives.add((g0, tuple(grs)))
        new, old = verify_thm311(recipe).scan, direct_scan(g0, grs)
        for field in ("ok", "certified_step", "argmin", "failure_point"):
            if getattr(new, field) != getattr(old, field):
                mismatches += 1
                print(f"q={q} {field}: {getattr(new, field)!r} "
                      f"(direct {getattr(old, field)!r})")
        rel = abs(new.min_value - old.min_value) / abs(old.min_value)
        shifts.append((rel, q, recipe.params["case"], new, old, g0, grs))
    print(f"{len(moduli)} moduli, {len(objectives)} distinct verify "
          "objectives")
    print(f"{len(moduli)} moduli, {mismatches} mismatches in ok, step, "
          "argmin or failure point")
    print(f"{'q':>5} {'case':<12} {'evaluate':>22} {'direct':>22} "
          f"{'mpmath (40 digits)':>44} {'shift':>8} {'err eval':>8} "
          f"{'err dir':>8}")
    moved = sorted((s for s in shifts if s[0] > args.tol), reverse=True,
                   key=lambda s: s[0])
    closer = 0
    for rel, q, case, new, old, g0, grs in moved:
        exact = exact_objective(g0, grs, new.argmin)
        err_new = float(abs(new.min_value - exact) / abs(exact))
        err_old = float(abs(old.min_value - exact) / abs(exact))
        closer += err_new < err_old
        print(f"{q:>5} {case:<12} {new.min_value!r:>22} {old.min_value!r:>22} "
              f"{nstr(exact, 40):>44} {rel:>8.1e} {err_new:>8.1e} "
              f"{err_old:>8.1e}")
    print(f"{len(moved)} shifts above {args.tol:g} relative; evaluate is "
          f"closer to mpmath on {closer}")


if __name__ == "__main__":
    main()
