#!/usr/bin/env python3
"""Census the barriers whose claims are counts of orderings over one period
and record each outcome, so that two source trees can be compared case by
case.

The grid, in this order:
- thm311: every admissible q <= 60 (q >= 7, q not in {8, 10, 12, 24}),
  built with `build_thm311(q, tau=1000)` (lattice 1001), over all units;
  it claims no census count;
- thm51: q in {5, 8, 15, 35}, built with `build_thm51(q, tau=1000)`, over
  all units, with the claim's bound r(r-1);
- thm43: the README recipe, q = 7 with D = a, a^2, a^3 for the least
  generator a, with the claim's count |D|(|D|-1)/2 + 1.

Each case records the kind, q, the members and the claim's bound (null
where there is none), and at 65536 samples, for each of two base_u (0 and
1.234e-4; 0 and 50 for thm51), the strict ordering count and the number of
crossings of `one_period_trace`'s census, or the error as
"<class>: <message>".  The counts are sampled, not exact.

A thm311 case also records `kernel_crossings`: the total number of roots
that `trigpoly.roots` certifies over the members' pair difference
polynomials in the lattice phase, and the number of pairs it leaves with
unresolved cells.  A pair of tied members (every exact g-sum zero,
`zerosys.dominant_data` empty) gets the all-zero polynomial, which is
unresolved: the float difference of their waves is rounding noise.

Usage, once per source tree, then compare the two files line by line (one
case per line, in a fixed order):
    python tools/census_sweep.py --out sweep.json
    diff old.json new.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from racelab import barriers, simulator  # noqa: E402
from racelab.orderings import census  # noqa: E402
from racelab.residues import unit_group  # noqa: E402
from racelab.simulator import RaceFunctionSet, one_period_trace  # noqa: E402
from racelab.trigpoly import TrigPoly, roots  # noqa: E402
from racelab.zerosys import dominant_data  # noqa: E402

SAMPLES = 65536
TAU = 1000.0
THM311_Q_MAX = 60
THM51_QS = (5, 8, 15, 35)
BASE_US = (0.0, 1.234e-4)
THM51_BASE_US = (0.0, 50.0)


def cases():
    for q in range(7, THM311_Q_MAX + 1):
        if q not in (8, 10, 12, 24):
            recipe = barriers.build_thm311(q, tau=TAU)
            yield recipe, unit_group(q).units, None, BASE_US
    for q in THM51_QS:
        recipe = barriers.build_thm51(q, tau=TAU)
        r = len(unit_group(q).units)
        yield recipe, unit_group(q).units, r * (r - 1), THM51_BASE_US
    group = unit_group(7)
    a = min(u for u in group.units if group.order(u) == group.phi)
    recipe = barriers.build_extremal(7, a, [a, a**2 % 7, a**3 % 7])
    D = tuple(recipe.params["D"])
    yield recipe, D, len(D) * (len(D) - 1) // 2 + 1, BASE_US


def kernel_crossings(recipe, members) -> list:
    """[roots, pairs with unresolved cells] over the members' pairs: each
    member's wave is row -1j * W of the lattice table W of its amplitudes
    over rho, as in `one_period_trace` at base_u 0."""
    system = recipe.system
    zeros, amps = simulator._amplitudes(system, members)
    table = -1j * simulator._lattice_table(
        system, zeros, amps / [z.rho for z in zeros])
    a, b = np.triu_indices(len(members), 1)
    pairs = [TrigPoly.from_phasors(dict(enumerate(row, start=1)))
             if not dominant_data(system, members[i], members[j]).empty
             else TrigPoly.zero()
             for i, j, row in zip(a, b, table[a] - table[b])]
    found = roots(pairs, 1.0)
    return [sum(len(r.roots) for r in found),
            sum(not r.certified for r in found)]


def run_case(recipe, members, bound, base_us) -> dict:
    out = {"kind": recipe.kind, "q": recipe.q, "members": list(members),
           "bound": bound, "samples": SAMPLES, "base_u": list(base_us)}
    if recipe.kind.startswith("thm311"):
        out["kernel_crossings"] = kernel_crossings(recipe, tuple(members))
    rfs = RaceFunctionSet(recipe.q, recipe.system, tuple(members),
                          pi_proxy="zero")
    strict, crossings = [], []
    for base_u in base_us:
        try:
            rep = census(one_period_trace(rfs, samples=SAMPLES, base_u=base_u))
        except (ValueError, RuntimeError) as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
            return out
        strict.append(rep.strict_count)
        crossings.append(len(rep.crossings))
    out.update(strict=strict, crossings=crossings)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    results = [run_case(*case) for case in cases()]
    elapsed = time.perf_counter() - t0
    Path(args.out).write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in results)
        + "\n]\n", encoding="utf-8")
    errors = sum("error" in r for r in results)
    print(f"{len(results)} cases ({errors} errors) in {elapsed:.1f} s "
          f"-> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
