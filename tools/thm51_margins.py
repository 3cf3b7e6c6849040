#!/usr/bin/env python3
"""Print the layered-barrier condition margins next to 40-digit mpmath
values at the true crossing points.

For each modulus, `build_thm51(q)` (default arguments) gives the params,
`_thm51_waves` their level waves and `check_thm51_conditions` the float
margins.  Every crossing point is then refined with mpmath.findroot on the
wave difference, taken with the waves' float coefficients, frequencies and
phases as exact numbers, and the margins are evaluated there in 40 digits: (B) the smallest gap between
sorted crossing points with 0 and the period included, (C) the smallest
derivative gap, (D) the smallest gap between sorted pair sums of a higher
level's waves, and (5.19) the smallest gap between sorted F(a3, a4).

Usage:
    python tools/thm51_margins.py [--q 5 8 15 35 91 183]
"""

import argparse
import math
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.barriers import (_thm51_waves, build_thm51,  # noqa: E402
                              check_thm51_conditions)

mp.dps = 40


def value(wave, u, derivative=False):
    if derivative:
        return sum(mpf(c) * mpf(t) * mpmath.cos(mpf(t) * u + mpf(a))
                   for c, t, a in wave.terms)
    return sum(mpf(c) * mpmath.sin(mpf(t) * u + mpf(a)) for c, t, a in wave.terms)


def min_sorted_gap(values):
    s = sorted(values)
    return min(b - a for a, b in zip(s, s[1:]))


def margins(q):
    recipe = build_thm51(q)
    ws = check_thm51_conditions(recipe)
    p = recipe.params
    waves = _thm51_waves(p)
    gamma, orders, betas, M = mpf(p["gamma"]), p["orders"], p["betas"], p["M"]
    period = 2 * mp.pi / gamma
    roots = {}
    for (j, a1, a2), pair in ws.theta.items():
        w1, w2 = waves[(j, a1)], waves[(j, a2)]
        roots[(j, a1, a2)] = [mpmath.findroot(
            lambda u: value(w1, u) - value(w2, u), mpf(t), tol=mpf(10) ** -38)
            for t in pair]
    pts = sorted(t for pair in roots.values() for t in pair)
    out = {"B_min_gap": min_sorted_gap([mpf(0), *pts, period])}
    out["C_min_derivative_gap"] = min(
        abs(value(waves[(j, a1)], t, True) - value(waves[(j, a2)], t, True))
        for (j, a1, a2), pair in roots.items() for t in pair)
    m = len(orders)
    out["D_min_difference"] = min(
        (min_sorted_gap([w[a] + w[b] for a in range(len(w))
                         for b in range(a, len(w))])
         for jp in range(1, m + 1)
         for t in (t for (j, _, _), pair in roots.items() if j == jp
                   for t in pair)
         for j in range(jp + 1, m + 1)
         for w in [[value(waves[(j, a)], t) for a in range(orders[j - 1])]]),
        default=math.inf)
    gaps = []
    for j in range(2, m + 1):
        n = orders[j - 1]
        if n < 4:
            continue
        z = mpf(betas[j - 1]) / gamma
        for t in (t for (jj, _, _), pair in roots.items() if jj < j for t in pair):
            f = []
            for a3 in range(n):
                for a4 in range(a3 + 1, n):
                    y = gamma * t + mp.pi * (a3 + a4) / n
                    b = mp.pi * (a4 - a3) / n
                    f.append(M * (4 + z * z) * mpmath.sin(b)
                             * (mpmath.cos(y) - z * mpmath.sin(y))
                             + (1 + z * z) * mpmath.sin(2 * b)
                             * (2 * mpmath.cos(2 * y) - z * mpmath.sin(2 * y)))
            gaps.append(min_sorted_gap(f))
    out["P_min_abs"] = min(gaps, default=math.inf)
    return ws.margins, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, nargs="+",
                        default=[5, 8, 15, 35, 91, 183])
    args = parser.parse_args()
    print(f"{'q':>4} {'margin':<22} {'float':>24} {'mpmath (40 digits)':>44}"
          f" {'rel. diff':>10}")
    for q in args.q:
        got, exact = margins(q)
        for key, x in got.items():
            ref = exact[key]
            rel = (0.0 if ref == math.inf and x == math.inf
                   else float(abs(x - ref) / abs(ref)))
            print(f"{q:>4} {key:<22} {x!r:>24} {mpmath.nstr(ref, 40):>44}"
                  f" {rel:>10.2e}")


if __name__ == "__main__":
    main()
