"""Seeded inputs, operations and output oracles of the four workloads.

A workload is built by `make(name, seed, workdir)` into a list of `Op`s.
Each op's `run` is the timed call into racelab; its `check` runs after the
timed phase and returns `(ok, digest_item)`.  Inputs come from the seed
alone: moduli are drawn from classes whose unit groups have the same cyclic
factors, so a seed changes which numbers racelab sees but hardly how much
work it does.

This module imports racelab lazily (inside the op bodies) and never imports
scipy itself; the worker imports racelab before building a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, List, Tuple

import numpy as np

WORKLOADS = ("thm311-sweep", "layered-census", "real-race", "cli-readme")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[bool, Any]]


class Documented(Exception):
    """A documented outcome of an op (e.g. ConditionFailedError -> exit 2);
    it counts as a result, not as a failure."""

    def __init__(self, code: int, detail: str):
        super().__init__(detail)
        self.code = code


# --- number theory used to pick inputs (independent of racelab) -------------


def factorize(n: int) -> List[Tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi(q: int) -> int:
    out = q
    for p, _ in factorize(q):
        out = out // p * (p - 1)
    return out


def cyclic_orders(q: int) -> Tuple[int, ...]:
    """Orders of the cyclic factors of (Z/q)^*, one per odd prime power and
    (2, 2^(e-2)) for 2^e, in increasing prime order, trivial factors dropped
    (the generator layout racelab's unit_group documents)."""
    orders: List[int] = []
    for p, e in factorize(q):
        if p == 2:
            orders += [2] if e == 2 else ([2, 2 ** (e - 2)] if e >= 3 else [])
        else:
            orders.append((p - 1) * p ** (e - 1))
    return tuple(n for n in orders if n > 1)


def exponent(q: int) -> int:
    lam = 1
    for n in cyclic_orders(q):
        lam = lam * n // math.gcd(lam, n)
    return lam


def thm311_case(q: int) -> str:
    """Structure case of the three-residue barrier, predicted from the group:
    element orders are exactly the divisors of the group exponent."""
    lam = exponent(q)
    odd = lam
    while odd % 2 == 0:
        odd //= 2
    if lam % 2 == 0 and odd >= 3:
        return "even_cyclic"
    if lam % 8 == 0:
        return "n8"
    return "z4z2"


THM311_SIZE = {"even_cyclic": 20, "n8": 34, "z4z2": 16}


def admissible(q: int) -> bool:
    return q >= 7 and q not in (8, 10, 12, 24)


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sig(x: float) -> float:
    """x rounded to 12 significant digits (digest granularity)."""
    return float(f"{x:.12g}")


def sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def digest(items: List[Any]) -> str:
    return sha(json.dumps(items, sort_keys=True, separators=(",", ":")))


# --- thm311-sweep -----------------------------------------------------------

FIXED_311 = (7, 15, 17)           # one modulus per structure case
PHI_LEVELS_311 = (12, 18, 20, 24, 32, 36, 40, 48, 60, 64, 72, 80, 96, 108,
                  120, 128, 144, 168, 180)
Q_MAX_311 = 400


def thm311_moduli(seed: int) -> List[int]:
    """7, 15, 17 plus, per phi level, one q from the largest class of moduli
    with that phi whose unit groups have the same cyclic factors (so the
    same character tables up to relabelling, and the same recipe)."""
    rng = seeded_rng("thm311-sweep", seed)
    picks = list(FIXED_311)
    for level in PHI_LEVELS_311:
        classes: dict = {}
        for q in range(7, Q_MAX_311 + 1):
            if admissible(q) and q not in FIXED_311 and phi(q) == level:
                classes.setdefault(tuple(sorted(cyclic_orders(q))), []).append(q)
        best = max(sorted(classes), key=lambda c: len(classes[c]))
        picks.append(rng.choice(classes[best]))
    return picks


def _thm311_op(q: int) -> Op:
    def run():
        from racelab import barriers
        recipe = barriers.build_thm311(q, tau=1000.0)
        return recipe, barriers.verify_thm311(recipe)

    def check(res):
        recipe, report = res
        case = thm311_case(q)
        ok = (report.ok and recipe.params["case"] == case
              and recipe.system.size == THM311_SIZE[case]
              and all(e <= 1e-12 for e in report.identity_errors.values()))
        return ok, [q, recipe.params["case"], recipe.system.size,
                    sha(recipe.to_json()), report.ok,
                    sig(report.scan.min_value)]

    return Op(f"thm311 q={q}", run, check)


def _qpr_op() -> Op:
    def run():
        from racelab import barriers
        return barriers.scan_qpr_properties(step=1e-4)

    def check(scan):
        # P-domination is certified; "R < 0 on [0.758, pi)" is false
        # (R(2.75) > 0), so the certified scan must refuse it.
        ok = (all(s.ok for s in scan.p_dominates) and scan.min_margin_p > 0
              and not scan.r_negative.ok and scan.min_margin_r < 0)
        return ok, ["qpr", sig(scan.min_margin_p), sig(scan.min_margin_r)]

    return Op("qpr-scan", run, check)


def thm311_sweep(seed: int, workdir: Path) -> List[Op]:
    return [_qpr_op()] + [_thm311_op(q) for q in thm311_moduli(seed)]


# --- layered-census ---------------------------------------------------------

THM51_LAYOUTS = ((2, 4), (2, 6), (2, 2, 4))    # generator orders per level
THM51_SAMPLES = 2048
# (cyclic order r, D as powers of the generator or None for a seeded
# 3-set, census samples): few members, many samples
EXTREMAL_CLASSES = ((6, None, 8192), (16, (1, 2, 3, 4), 8192))
Q_MAX_CENSUS = 100


def census_inputs(seed: int) -> Tuple[List[int], List[Tuple[int, Tuple[int, ...], int]]]:
    rng = seeded_rng("layered-census", seed)
    thm51 = [rng.choice([q for q in range(3, Q_MAX_CENSUS)
                         if cyclic_orders(q) == layout])
             for layout in THM51_LAYOUTS]
    extremal = []
    for r, V, samples in EXTREMAL_CLASSES:
        q = rng.choice([q for q in range(3, Q_MAX_CENSUS)
                        if cyclic_orders(q) == (r,)])
        if V is None:  # no 0 (the unit 1) and no inverse pair v, r - v
            V = rng.choice([V for V in itertools.combinations(range(1, r), 3)
                            if not any(v != r - v and r - v in V for v in V)])
        extremal.append((q, V, samples))
    return thm51, extremal


def _reference_census(values: np.ndarray, tie_tol: float) -> int:
    """Distinct strict orderings among tie-free samples (numpy recount)."""
    order = np.argsort(-values, axis=0, kind="stable")
    gaps = -np.diff(np.take_along_axis(values, order, axis=0), axis=0)
    strict = np.all(gaps > tie_tol, axis=0)
    return len({tuple(col) for col in order[:, strict].T})


def _built(state: dict):
    if "recipe" not in state:
        raise Documented(2, "no recipe: the build ended with a documented outcome")
    return state["recipe"]


def _thm51_ops(q: int) -> List[Op]:
    state: dict = {}

    def build():
        from racelab import barriers
        try:
            state["recipe"] = barriers.build_thm51(q, tau=1000.0)
        except barriers.ConditionFailedError as exc:
            raise Documented(2, f"condition {exc}") from exc
        return state["recipe"]

    def check_build(recipe):
        orders, M = recipe.params["orders"], recipe.params["M"]
        ok = (tuple(orders) == cyclic_orders(q)
              and recipe.system.size == sum(1 if n == 2 else M + 1
                                            for n in orders))
        return ok, [q, "thm51", sha(recipe.to_json())]

    def run_census():
        from racelab import orderings, residues, simulator
        recipe = _built(state)
        units = residues.unit_group(q).units
        rfs = simulator.RaceFunctionSet(q, recipe.system, units,
                                        pi_proxy="zero")
        tr = simulator.one_period_trace(rfs, samples=THM51_SAMPLES)
        rep = orderings.census(tr)
        return tr, rep, orderings.verdict(rep, "thm51_upper", r=len(units))

    def check_census(res):
        tr, rep, v = res
        r = len(tr.members)
        ok = (v.ok and rep.strict_count <= r * (r - 1)
              and rep.strict_count == _reference_census(tr.values, tr.tie_tol)
              and rep.to_dict()["census_kind"] == "exact-period")
        return ok, [q, "census", rep.strict_count, len(rep.crossings), v.ok]

    return [Op(f"thm51 q={q}", build, check_build),
            Op(f"thm51-census q={q}", run_census, check_census)]


def _extremal_ops(q: int, V: Tuple[int, ...], samples: int) -> List[Op]:
    state: dict = {}
    want = len(V) * (len(V) - 1) // 2 + 1

    def build():
        from racelab import barriers, residues
        group = residues.unit_group(q)
        r = max(group.order(a) for a in group.units)
        gen = min(a for a in group.units if group.order(a) == r)
        sub = group.subgroup(gen)
        try:
            state["recipe"] = barriers.build_extremal(q, gen, [sub[v] for v in V])
        except barriers.OmegaTypeLostError as exc:
            raise Documented(2, f"omega type lost: {exc}") from exc
        return state["recipe"]

    def check_build(recipe):
        return (recipe.kind == "thm43_extremal"
                and recipe.params["V"] == sorted(V)), \
            [q, list(V), sha(recipe.to_json())]

    def run_census():
        from racelab import orderings, simulator
        recipe = _built(state)
        rfs = simulator.RaceFunctionSet(q, recipe.system,
                                        tuple(recipe.params["D"]),
                                        pi_proxy="zero")
        tr = simulator.one_period_trace(rfs, samples=samples)
        rep = orderings.census(tr)
        return tr, rep, orderings.verdict(rep, "extremal_exact", r=len(V))

    def check_census(res):
        tr, rep, v = res
        ok = (v.ok and rep.strict_count == want
              and rep.strict_count == _reference_census(tr.values, tr.tie_tol))
        return ok, [q, list(V), "census", rep.strict_count, v.ok]

    tag = f"q={q} V={','.join(map(str, V))}"
    return [Op(f"thm43 {tag}", build, check_build),
            Op(f"thm43-census {tag}", run_census, check_census)]


def layered_census(seed: int, workdir: Path) -> List[Op]:
    thm51, extremal = census_inputs(seed)
    ops: List[Op] = []
    for q in thm51:
        ops += _thm51_ops(q)
    for q, V, samples in extremal:
        ops += _extremal_ops(q, V, samples)
    return ops


# --- real-race --------------------------------------------------------------

PI_POWERS = {10**3: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498,
             10**7: 664579, 10**8: 5761455}
SIEVE_MODULI = (4, 5, 7, 8, 9, 11, 12, 13)
SIEVE_X = 3 * 10**7
LEAD_MODULI = (5, 7, 8, 11, 12, 13)
LEAD_X = 10**6
FORMULA_SAMPLES = 41


def geometric_checkpoints(x_max: int, ratio: float = 1.01) -> List[int]:
    pts, x = [2], 2.0
    while True:
        x = max(x * ratio, x + 1.0)
        if x > x_max:
            break
        pts.append(int(x))
    return sorted(set(pts) | {p for p in PI_POWERS if p <= x_max} | {x_max})


def _simple_primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _reference_lead_change(q: int, a: int, b: int, x_max: int):
    ps = _simple_primes(x_max)
    hits = ps[(ps % q == a) | (ps % q == b)]
    cums = np.cumsum(np.where(hits % q == a, 1, -1))
    nz = np.flatnonzero(cums)
    if not len(nz):
        return None
    first = np.sign(cums[nz[0]])
    flips = np.flatnonzero(np.sign(cums[nz[0]:]) == -first)
    return int(hits[nz[0] + flips[0]]) if len(flips) else None


def _sieve_op(q: int, x_max: int, checkpoints: List[int], state: dict | None = None) -> Op:
    def run():
        from racelab import primes
        table = primes.sieve_race(q, x_max, checkpoint_rule=checkpoints)
        if state is not None:
            state["table"] = table
        return table

    def check(table):
        divisors = [p for p, _ in factorize(q)]
        cps = table.checkpoints
        excluded = sum((cps >= p).astype(np.int64) for p in divisors)
        ok = (bool(np.array_equal(table.counts.sum(axis=1) + excluded, table.pi))
              and list(cps) == sorted(checkpoints)
              and all(table.pi_at(x) == n for x, n in PI_POWERS.items()
                      if x <= x_max))
        return ok, [q, x_max, sha(table.to_csv())]

    return Op(f"sieve q={q} x={x_max:.0e}", run, check)


def _lead_op(q: int, a: int, b: int, x_max: int, expected=None) -> Op:
    def run():
        from racelab import primes
        return primes.first_lead_change(q, a, b, x_max)

    def check(x):
        want = expected if expected is not None \
            else _reference_lead_change(q, a, b, x_max)
        return x == want, [q, a, b, x]

    return Op(f"lead q={q} {a}v{b}", run, check)


def real_race(seed: int, workdir: Path) -> List[Op]:
    from racelab import zerosys
    rng = seeded_rng("real-race", seed)
    zeros = zerosys.load_zero_data(Path(workdir) / "chi3_zeros.txt")
    state: dict = {}
    ops = [_sieve_op(3, 10**8, geometric_checkpoints(10**8), state)]
    for q in rng.sample(SIEVE_MODULI, 2):
        cps = sorted({rng.randrange(2, SIEVE_X) for _ in range(1000)}
                     | {p for p in PI_POWERS if p <= SIEVE_X} | {SIEVE_X})
        ops.append(_sieve_op(q, SIEVE_X, cps))
    ops.append(_lead_op(4, 1, 3, 10**5, expected=26861))
    for q in rng.sample(LEAD_MODULI, 2):
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        a, b = rng.sample(units, 2)
        ops.append(_lead_op(q, a, b, LEAD_X))

    def compare():
        from racelab import primes
        return primes.compare_with_simulator(state["table"], zeros, 0.5, 2, 1,
                                             x_min=1e3)

    ops.append(Op("compare chi3", compare,
                  lambda rep: (rep.sign_agreement >= 0.9,
                               ["compare", sig(rep.sign_agreement),
                                len(rep.checkpoints)])))

    u0 = rng.uniform(8.0, 12.0)
    window = (u0, u0 + 1.0)
    step = 1.0 / (FORMULA_SAMPLES - 1)

    def formula():
        from racelab import simulator
        rfs = simulator.RaceFunctionSet(3, zeros, (1, 2), pi_proxy="li")
        tr = simulator.trace(rfs, window, step, mode="full-formula")
        state["trace"] = tr
        return tr

    def check_formula(tr):
        # the members are all units mod 3, and the character sums over all
        # units cancel, so the scaled member values sum to zero
        vals = tr.values
        scale = float(np.max(np.abs(vals)))
        ok = (vals.shape == (2, FORMULA_SAMPLES) and bool(np.all(np.isfinite(vals)))
              and float(np.max(np.abs(vals.sum(axis=0)))) <= 1e-9 * scale)
        return ok, ["formula", [sig(v) for v in vals[0]]]

    def windowed_census():
        from racelab import orderings
        return orderings.census(state["trace"])

    def check_windowed(rep):
        tr = state["trace"]
        ok = (rep.strict_count == _reference_census(tr.values, tr.tie_tol)
              and rep.to_dict()["census_kind"] == "window-lower-bound")
        return ok, ["window-census", rep.strict_count, len(rep.crossings)]

    ops += [Op("full-formula trace", formula, check_formula),
            Op("windowed census", windowed_census, check_windowed)]
    return ops


# --- cli-readme -------------------------------------------------------------

Z6_MODULI = (7, 9, 14, 18)        # (Z/q)^* cyclic of order 6, as q = 7
Z4_MODULI = (5, 10)               # cyclic of order 4, as q = 5
D_SETS_R6 = ("a,a2,a3", "a,a3,a4", "a2,a3,a5", "a3,a4,a5")


def readme_commands(seed: int) -> List[str]:
    """The README's "Command line" section, with isomorphic moduli and
    nearby constants drawn from the seed.  Files chain through the cwd."""
    rng = seeded_rng("cli-readme", seed)
    q311, q43 = rng.choice(Z6_MODULI), rng.choice(Z6_MODULI)
    q51 = rng.choice(Z4_MODULI)
    alpha = f"{rng.uniform(0.40, 0.50):.4f}"
    t2 = f"{rng.uniform(1.6, 1.9):.7f}"
    return [
        f"barrier build thm311 --q {q311} --tau 1000 --out rec.json",
        "barrier verify --recipe rec.json --out verify.json",
        "simulate --recipe rec.json --window period --out trace.csv "
        "--crossings crossings.json --gnuplot",
        "orderings --recipe rec.json --claim kt_all_pairs --out census.json",
        f"barrier build thm43 --q {q43} --D {rng.choice(D_SETS_R6)} --out ext.json",
        "orderings --recipe ext.json --claim extremal_exact --out ext_census.json",
        f"barrier build thm51 --q {q51} --tau 1000 --out t51.json",
        "race --q 4 --xmax 1e6 --a 1 --b 3 --out race.csv --summary sum.json",
        "race --q 3 --xmax 1e6 --a 2 --b 1 --zeros chi3_zeros.txt "
        "--out race3.csv --summary cmp.json",
        f"trig frac-parts --s 1.4142,1 --alpha {alpha} --out frac.json",
        f"trig all-negative --t 1,{t2} --out neg.json",
        "trig dominate --freqs 1 --b 1 --a 1 --gamma 0.5 --out dom.json",
    ]


def _outputs(argv: List[str]) -> List[str]:
    flags = ("--out", "--summary", "--crossings")
    return [argv[i + 1] for i, tok in enumerate(argv) if tok in flags]


def _cli_op(argv: List[str], workdir: Path, inproc: bool) -> Op:
    def run():
        if inproc:
            from racelab import cli
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
        return subprocess.run([sys.executable, "-m", "racelab.cli", *argv],
                              cwd=workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode

    def check(code):
        files = []
        ok = code == 0
        for name in _outputs(argv):
            path = Path(workdir) / name
            if not path.is_file():
                return False, [argv[0], code]
            text = path.read_bytes()
            if name.endswith(".json"):
                payload = json.loads(text)
                verdict = payload.get("verdict", {})
                ok = ok and payload.get("ok", True) is not False \
                    and verdict.get("ok", True) is not False
            files.append([name, sha(text)])
        return ok, [argv[:2], code, files]

    return Op("cli " + " ".join(argv[:2]), run, check)


def cli_readme(seed: int, workdir: Path, inproc: bool = False) -> List[Op]:
    return [_cli_op(cmd.split(), workdir, inproc)
            for cmd in readme_commands(seed)]


# --- entry ------------------------------------------------------------------


def make(name: str, seed: int, workdir: Path, inproc: bool = False) -> List[Op]:
    """Build the workload's ops; files it needs are placed in workdir."""
    if name in ("real-race", "cli-readme"):
        src = resources.files("racelab") / "data" / "chi3_zeros.txt"
        shutil.copyfile(str(src), Path(workdir) / "chi3_zeros.txt")
    if name == "thm311-sweep":
        return thm311_sweep(seed, workdir)
    if name == "layered-census":
        return layered_census(seed, workdir)
    if name == "real-race":
        return real_race(seed, workdir)
    if name == "cli-readme":
        return cli_readme(seed, workdir, inproc)
    raise ValueError(f"unknown workload {name!r}")
