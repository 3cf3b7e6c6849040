#!/usr/bin/env python3
"""Compare racelab's numpy E1 and Ei against 40-digit mpmath and print the
worst error per region of the E1 kernel.

The probes are the arguments f(rho) and its envelope take: z = -rho log 2
and z = -rho log x for E1, x = beta log 2 and x = +-beta log x for Ei, with
beta uniform in [0.05, 1], |gamma| log-uniform in [1e-6, 1e4] with either
sign, and log x log-uniform in [log 2, 690] (the full-formula trace refuses
u = log x > 690).  The draw is seeded, so two source trees see the same
probes.  Ei is measured by relative error, except within 0.05 of its real
zero 0.3725..., where only an absolute error is meaningful.

Usage:
    python tools/e1_sweep.py [--probes 4000] [--seed 0]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from racelab.simulator import _ei, _exp1, _exp1_region  # noqa: E402

REGIONS = ("series", "continued fraction", "asymptotic")
EI_ROOT = 0.37250741078136663


def probes(n: int, seed: int):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.05, 1.0, n)
    gamma = 10.0 ** rng.uniform(-6.0, 4.0, n) * rng.choice([-1.0, 1.0], n)
    w = np.exp(rng.uniform(math.log(math.log(2.0)), math.log(690.0), n))
    rho = beta + 1j * gamma
    z = np.concatenate([-rho * math.log(2.0), -rho * w])
    x = np.concatenate([beta * math.log(2.0), beta * w, -beta * w])
    return z, x


def worst(label: str, err: np.ndarray, args: np.ndarray) -> None:
    if len(err) == 0:
        print(f"{label:<34} {0:>6}")
        return
    i = int(np.argmax(err))
    print(f"{label:<34} {len(err):>6}  {err[i]:.2e}  at {args[i]:.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--probes", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    z, x = probes(args.probes, args.seed)
    t0 = time.perf_counter()
    with mpmath.workdps(40):
        e1_ref = np.array([complex(mpmath.e1(mpmath.mpc(v.real, v.imag)))
                           for v in z])
        ei_ref = np.array([float(mpmath.ei(v)) for v in x])
    e1_err = np.abs(_exp1(z) - e1_ref) / np.abs(e1_ref)
    ei_abs = np.abs(_ei(x) - ei_ref)
    elapsed = time.perf_counter() - t0

    print(f"{'':<34} {'probes':>6}  worst error")
    e1_region = _exp1_region(z)
    for k, name in enumerate(REGIONS):
        sel = e1_region == k
        worst(f"E1 {name} (relative)", e1_err[sel], z[sel])
    # Ei(x) is -Re E1(-x), so its region is that of -x
    ei_region = _exp1_region(-x + 0j)
    near_root = np.abs(x - EI_ROOT) < 0.05
    for k, name in enumerate(REGIONS):
        sel = (ei_region == k) & ~near_root
        worst(f"Ei {name} (relative)", ei_abs[sel] / np.abs(ei_ref[sel]),
              x[sel])
    worst("Ei near its zero (absolute)", ei_abs[near_root], x[near_root])
    print(f"{len(z)} E1 and {len(x)} Ei probes in {elapsed:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
