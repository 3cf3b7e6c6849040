#!/usr/bin/env python3
"""Record the dominant data of every pair of members of a set of barrier
recipes, so that two source trees can be compared pair by pair: the exact
g-tests, the g-values, the dominant profiles and sign-change candidacy.

The recipes, in this order:
- thm311: every admissible q <= 60 (q >= 7, q not in {8, 10, 12, 24}),
  built with `build_thm311(q)`;
- thm51: q in {5, 8, 15, 35}, built with `build_thm51(q)`;
- thm43: the README recipe, q = 7 with D = a, a^2, a^3 for the least
  generator a.

The pairs of each recipe are its units a < b (its D for thm43), in
increasing order.  Each line records the kind, q and the pair (a, b), then:
- `dominant_data`: beta (null when z(a, b) is empty), the dominant zeros as
  [beta, gamma] and g at each as [re, im];
- `dominant_profile`: its poly terms [c, t, alpha], constant, dominant terms
  and residual terms [|g| w, beta, |rho|], or the error as
  "<class>: <message>" when z(a, b) is empty;
- `is_kt_candidate` of the pair: [has_real_zeros, dominant_nonempty].
Floats are written with repr, so equal lines mean bit-identical values.

Usage, once per source tree, then compare the two files line by line (one
pair per line, in a fixed order):
    python tools/dominant_sweep.py --out dominant.json
    diff old.json new.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab import barriers  # noqa: E402
from racelab.residues import unit_group  # noqa: E402
from racelab.simulator import (EmptyDominantSetError,  # noqa: E402
                               RaceFunctionSet, dominant_profile)
from racelab.zerosys import dominant_data, is_kt_candidate  # noqa: E402

THM311_Q_MAX = 60
THM51_QS = (5, 8, 15, 35)


def recipes():
    for q in range(7, THM311_Q_MAX + 1):
        if q not in (8, 10, 12, 24):
            yield barriers.build_thm311(q), unit_group(q).units
    for q in THM51_QS:
        yield barriers.build_thm51(q), unit_group(q).units
    group = unit_group(7)
    a = min(u for u in group.units if group.order(u) == group.phi)
    recipe = barriers.build_extremal(7, a, [a, a**2 % 7, a**3 % 7])
    yield recipe, sorted(recipe.params["D"])


def run_pair(recipe, rfs: RaceFunctionSet, a: int, b: int) -> dict:
    out = {"kind": recipe.kind, "q": recipe.q, "pair": [a, b]}
    dd = dominant_data(recipe.system, a, b)
    out["dominant"] = {
        "beta": dd.beta, "zeros": [list(z) for z in dd.zeros],
        "g": [[g.real, g.imag] for g in dd.g_values.values()]}
    try:
        prof = dominant_profile(rfs, a, b)
    except EmptyDominantSetError as exc:
        out["profile"] = f"{type(exc).__name__}: {exc}"
    else:
        out["profile"] = {
            "poly": [list(t) for t in prof.poly.terms],
            "constant": prof.constant,
            "dominant_terms": [list(t) for t in prof.dominant_terms],
            "residual_terms": [list(t) for t in prof.residual_terms]}
    kt = is_kt_candidate(recipe.system, (a, b))
    out["kt"] = [kt.has_real_zeros, kt.pairs[0].dominant_nonempty]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    results = []
    for recipe, members in recipes():
        rfs = RaceFunctionSet(recipe.q, recipe.system, tuple(members))
        results += [run_pair(recipe, rfs, a, b) for i, a in enumerate(members)
                    for b in members[i + 1:]]
    elapsed = time.perf_counter() - t0
    Path(args.out).write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in results)
        + "\n]\n", encoding="utf-8")
    empty = sum(r["dominant"]["beta"] is None for r in results)
    print(f"{len(results)} pairs ({empty} with empty z(a, b)) in "
          f"{elapsed:.1f} s -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
