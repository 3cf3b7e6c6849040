#!/usr/bin/env python3
"""Build extremal barriers over a fixed grid of (q, V) and record each
outcome, so that two source trees can be compared case by case.

The grid: every q < 100 whose unit group (Z/q)^* is cyclic of order
r >= 6, with the generator the CLI and the benchmark use (the least unit of
maximal order).  For each member count m in (2, 3, 4), up to two admissible
exponent sets V (no 0, no inverse pair v, r - v) are drawn by a generator
seeded with (q, m).  Each case records q, V, and either K, N and the sha256
of the recipe JSON, or the error as "<class>: <message>".  A case that
builds also records the ok and ordering count of `verify_extremal` on the
recipe read back from its JSON, which runs the load check as the CLI does,
so the census count and verdict of every build can be diffed too.  It also records
every omega-type report of the build, in call order, as [stage, K or N,
ok, first_violation, intervals_checked]: the K rounds K, 2K, ... until one
passes, then the N rounds likewise, then the emitted trace (stage "trace",
no K or N).  The reports are read by wrapping `barriers.check_omega_type`,
whatever its arguments, so a failing round that moves shows up in a diff
even when the final recipe does not change.

Usage, once per source tree, then compare the two files line by line (one
case per line, in a fixed order):
    python tools/extremal_sweep.py --out sweep.json
    diff old.json new.json
"""

import argparse
import hashlib
import itertools
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab import barriers  # noqa: E402
from racelab.residues import unit_group  # noqa: E402

Q_MAX = 100
SIZES = (2, 3, 4)
SETS_PER_SIZE = 2
K0, N0 = 16, 64  # build_extremal's defaults, the first K and N rounds


def cases():
    for q in range(3, Q_MAX):
        group = unit_group(q)
        if group.lam != group.phi or group.phi < 6:
            continue
        r = group.phi
        gen = min(a for a in group.units if group.order(a) == r)
        for m in SIZES:
            admissible = [V for V in itertools.combinations(range(1, r), m)
                          if not any(v != r - v and r - v in V for v in V)]
            rng = random.Random(f"{q}:{m}")
            for V in sorted(rng.sample(admissible,
                                       min(SETS_PER_SIZE, len(admissible)))):
                yield q, gen, V


def staged(reports) -> list:
    """Each report as [stage, K or N, ok, first_violation,
    intervals_checked]: a stage ends at its first passing round."""
    out, stage, value = [], "K", K0
    for rep in reports:
        out.append([stage, value, bool(rep.ok), rep.first_violation,
                    rep.intervals_checked])
        if stage == "trace":
            continue
        if rep.ok:
            stage, value = ("N", N0) if stage == "K" else ("trace", None)
        else:
            value *= 2
    return out


def run_case(q: int, gen: int, V) -> dict:
    sub = unit_group(q).subgroup(gen)
    out = {"q": q, "V": list(V)}
    reports = []
    check = barriers.check_omega_type

    def recording(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    barriers.check_omega_type = recording
    try:
        recipe = barriers.build_extremal(q, gen, [sub[v] for v in V])
    except (ValueError, RuntimeError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        barriers.check_omega_type = check
        out["reports"] = staged(reports)
    # verified as the CLI reads it back: the load check re-emits the zeros
    verdict = barriers.verify_extremal(
        barriers.BarrierRecipe.from_json(recipe.to_json()))
    out.update(K=recipe.params["K"], N=recipe.params["N"],
               sha256=hashlib.sha256(recipe.to_json().encode()).hexdigest(),
               verify_ok=verdict.ok, orderings=verdict.detail["orderings"])
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
