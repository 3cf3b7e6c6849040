#!/usr/bin/env python3
"""Fit the constants of `sieve_race`'s layout cost model.

`primes._row_layout` picks d on the path where each row is one residue class
(r = m): d takes the next wheel prime not dividing q while that lowers

    slots * SLOT_S + (rows * segments * base primes) * SLICE_S + rows * ROW_S.

This tool times `sieve_race(q, x_max, cps)` for every such d of each case
below, forced by replacing `_row_layout`, with 1000 random checkpoints in
[2, x_max] (seed 1); each time is the best of --repeat runs.  It fits the
three constants by least squares to all the times, in relative error, then
prints each case's measured and modelled times, the d the fitted model
picks and the d that was fastest.  Pin it to one CPU for steady times:

    taskset -c 1 python tools/sieve_layout_fit.py [--repeat 7]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab import primes  # noqa: E402
from racelab.residues import unit_group  # noqa: E402

CASES = [(q, 3 * 10**7) for q in (3, 4, 5, 7, 8, 9, 11, 12, 13)] + [
    (q, x) for q in (3, 4, 5, 7) for x in (10**7, 10**8)]


def layouts(q: int, x_max: int):
    """(d, rows, slots, slices) of each d the model chooses among, from
    d = 2m on, while there are at most 600 rows."""
    m = q // math.gcd(q, 2)
    base = np.count_nonzero(primes.simple_sieve(math.isqrt(x_max))
                            > primes.WHEEL[-1])
    d, rows = 2 * m, len(unit_group(q).units)
    for p in [p for p in primes.WHEEL if q % p] + [None]:
        per_row = x_max // d + 1
        segments = -(-per_row // (primes.SEGMENT // 2))
        yield d, rows, rows * per_row, rows * segments * base
        if p is None or rows * (p - 1) > 600:
            break
        d, rows = d * p, rows * (p - 1)


def best_time(q: int, x_max: int, d: int, cps, repeat: int) -> float:
    layout = primes._row_layout
    primes._row_layout = lambda *_: (d, 1)
    try:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            primes.sieve_race(q, x_max, cps)
            times.append(time.perf_counter() - t0)
    finally:
        primes._row_layout = layout
    return min(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(1)
    runs = []
    for q, x_max in CASES:
        cps = np.append(rng.integers(2, x_max, 1000), x_max)
        for d, rows, slots, slices in layouts(q, x_max):
            t = best_time(q, x_max, d, cps, args.repeat)
            runs.append((q, x_max, d, rows, slots, slices, t))
    feats = np.array([[slots, slices, rows]
                      for _, _, _, rows, slots, slices, _ in runs], float)
    times = np.array([t for *_, t in runs])
    # relative errors: each time weighs as much as any other
    (slot_s, slice_s, row_s), *_ = np.linalg.lstsq(
        feats / times[:, None], np.ones(len(times)), rcond=None)
    print(f"SLOT_S, SLICE_S, ROW_S = {slot_s:.3g}, {slice_s:.3g}, {row_s:.3g}")
    model = feats @ [slot_s, slice_s, row_s]
    print(f"{'q':>3} {'x_max':>8} {'d':>6} {'rows':>5} {'ms':>7} {'model':>7}")
    for (q, x_max, d, rows, *_, t), fit in zip(runs, model):
        print(f"{q:3d} {x_max:8.0e} {d:6d} {rows:5d} {t * 1e3:7.2f} "
              f"{fit * 1e3:7.2f}")
    for q, x_max in CASES:
        case = [(t, fit, d) for (cq, cx, d, *_, t), fit in zip(runs, model)
                if (cq, cx) == (q, x_max)]
        # the model's pick: the first d whose successor does not model lower
        pick = next((d for (_, f, d), (_, g, _) in zip(case, case[1:])
                     if g >= f), case[-1][2])
        print(f"q={q} x_max={x_max:.0e}: model picks d={pick}, "
              f"fastest d={min(case)[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
