"""Command-line front door.

Subcommands: `barrier build|verify`, `simulate`, `orderings`, `race`, and
the `trig` toolbox.  Every JSON output embeds the resolved run configuration,
and identical configurations (including --seed) produce byte-identical files.

Exit codes: 0 success, 1 stdout closed by its reader (as a `| head` does;
nothing is reported), 2 verification failed, 3 invalid configuration
(including a command line the parser rejects), 4 budget exceeded (the sieve
range, the checkpoint grid, a trace's samples x members, a certified scan's
grid or bisection, or the unit group of the modulus; RACE_LAB_BUDGET).

`main(argv)` is the in-process API: it returns the exit code and leaves the
garbage collector alone.  `entry()` is the process's, behind both
`python -m racelab.cli` and the `racelab` script: it runs `main()` and then
freezes every object, so the collection at exit skips them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import barriers, orderings, primes, simulator, trigpoly
from .barriers import BarrierRecipe
from .residues import unit_group
from .zerosys import load_zero_data

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_VERIFY = 2
EXIT_CONFIG = 3
EXIT_BUDGET = 4


def _dump_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_plain(payload), indent=2, sort_keys=True, default=_coerce)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _coerce(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _plain(obj):
    """obj with each object that has a `to_dict`, at any depth, replaced by
    that dict: json writes a tuple record as a list, never asking _coerce."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _config_of(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _number(kind: type, positive: bool = False):
    """An argparse type: a finite value of kind, above 0 if positive."""
    def parse(text: str):
        try:
            value = kind(text)
            if math.isfinite(value) and (value > 0 or not positive):
                return value
        except (ValueError, OverflowError):  # an int past the floats overflows
            pass
        raise argparse.ArgumentTypeError(
            f"expected a {'positive' if positive else 'finite'} "
            f"{kind.__name__}, got {text!r}")
    return parse


_finite_float = _number(float)


def _floats(text: str) -> list[float]:
    return [_finite_float(t) for t in text.split(",")]


def _float_list(text: str) -> str:
    """Check a comma-separated list of finite numbers and keep its text,
    which the config block records as given."""
    _floats(text)
    return text


def _window(text: str) -> str:
    """Check a --window value, "period" or "u0:u1" with finite ends, and
    keep its text, which the config block records as given."""
    if text != "period":
        _u0, _u1 = map(_finite_float, text.split(":"))
    return text


def _parse_powers(text: str) -> list[int]:
    """Parse a target set like "a,a2,a3" (powers of the chosen generator)."""
    toks = [tok.strip() for tok in text.split(",")]
    return [int(t[1:] or "1") if t.startswith("a") else int(t) for t in toks]


def _write_gnuplot(csv_path: str, columns: list[str]) -> str:
    gp = Path(csv_path).with_suffix(".gp")
    lines = [f"set datafile separator ','",
             f"set key autotitle columnhead",
             f"set logscale x" if "x" in columns[:1] else "",
             "plot " + ", \\\n     ".join(
                 f"'{Path(csv_path).name}' using 1:{i + 2} with lines"
                 for i in range(len(columns) - 1))]
    gp.write_text("\n".join(ln for ln in lines if ln) + "\n", encoding="utf-8")
    return str(gp)


# --- barrier ------------------------------------------------------------------


def cmd_barrier(args: argparse.Namespace) -> int:
    if args.action == "build":
        if args.kind == "thm311":
            recipe = barriers.build_thm311(args.q, tau=args.tau,
                                           beta=args.beta, gamma=args.gamma)
        elif args.kind == "thm43":
            group = unit_group(args.q)
            gen = args.generator
            if gen is None:
                order = max(group.order(a) for a in group.units)
                gen = min(a for a in group.units if group.order(a) == order)
            powers = _parse_powers(args.D) if args.D else [1, 2, 3]
            sub = group.subgroup(gen)
            D = [sub[v % len(sub)] for v in powers]
            recipe = barriers.build_extremal(
                args.q, gen, D, beta1=args.beta,
                gamma=1000.0 if args.gamma is None else args.gamma,
                K=args.K, N=args.N, seed=args.seed)
        else:
            recipe = barriers.build_thm51(args.q, tau=args.tau, M=args.M,
                                          gamma=args.gamma)
        out = args.out or f"{args.kind}_q{args.q}.json"
        payload = json.loads(recipe.to_json())
        payload["config"] = _config_of(args)
        _dump_json(out, payload)
        print(f"recipe written to {out} (|B| = {recipe.system.size})")
        if args.kind == "thm311":
            report = barriers.verify_thm311(recipe)
            print(f"verify: ok={report.ok} min_margin={report.lower_bound:.6g}")
            return EXIT_OK if report.ok else EXIT_VERIFY
        return EXIT_OK

    if not args.recipe:
        raise ValueError("verify needs --recipe")
    # from_json admits only the kinds that have a verifier
    recipe = BarrierRecipe.from_json(Path(args.recipe).read_text())
    if recipe.kind == "thm51_census":
        wsys = barriers.check_thm51_conditions(recipe)
        _dump_json(args.out, {"ok": True, "margins": wsys.margins,
                              "config": _config_of(args)})
        return EXIT_OK
    if recipe.kind == "thm43_extremal":
        report = barriers.verify_extremal(recipe)
        _dump_json(args.out, {"ok": report.ok, "detail": report.detail,
                              "config": _config_of(args)})
        return EXIT_OK if report.ok else EXIT_VERIFY
    report = barriers.verify_thm311(recipe)
    _dump_json(args.out, {"ok": report.ok, "case": report.case,
                          "size": report.size,
                          "identity_errors": report.identity_errors,
                          "scan_min": report.lower_bound,
                          "offending_v": report.scan.failure_point,
                          "config": _config_of(args)})
    return EXIT_OK if report.ok else EXIT_VERIFY


# --- simulate -----------------------------------------------------------------


def _recipe_trace(args: argparse.Namespace, mode: str = "dominant-only",
                  step: float | None = None):
    """The recipe's members (its D, else every unit) and their trace over
    --window: one period, or u0:u1 at the step given (else --samples cells)."""
    recipe = BarrierRecipe.from_json(Path(args.recipe).read_text())
    members = tuple(recipe.params.get("D") or unit_group(recipe.q).units)
    rfs = simulator.RaceFunctionSet(recipe.q, recipe.system, members)
    if args.window == "period":
        return members, simulator.one_period_trace(rfs, samples=args.samples,
                                                   base_u=args.base_u)
    u0, u1 = (float(t) for t in args.window.split(":"))
    if step is None:
        step = (u1 - u0) / args.samples
    return members, simulator.trace(rfs, (u0, u1), step, mode=mode)


def cmd_simulate(args: argparse.Namespace) -> int:
    _, tr = _recipe_trace(args, args.mode, args.step)
    out = args.out or "trace.csv"
    cols = ["u"] + [f"a{m}" for m in tr.members]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        row = ",".join(["%.12g"] * len(cols)) + "\n"
        table = np.column_stack([tr.u, tr.values.T])
        for i in range(0, len(table), 512):  # rows become floats 512 at a time
            fh.writelines(row % tuple(r) for r in table[i:i + 512].tolist())
    print(f"trace written to {out} ({len(tr.u)} samples)")
    if args.crossings:
        rep = orderings.census(tr)
        payload = rep.to_dict()
        payload["config"] = _config_of(args)
        _dump_json(args.crossings, payload)
    if args.gnuplot:
        print(f"gnuplot script: {_write_gnuplot(out, cols)}")
    return EXIT_OK


# --- orderings ----------------------------------------------------------------


def cmd_orderings(args: argparse.Namespace) -> int:
    members, tr = _recipe_trace(args)
    rep = orderings.census(tr)
    payload = rep.to_dict()
    payload["config"] = _config_of(args)
    if args.claim:
        try:
            payload["verdict"] = orderings.verdict(
                rep, args.claim, member=args.member, r=len(members)).to_dict()
        except orderings.InconclusiveWindowError as exc:
            payload["verdict"] = {"claim": args.claim, "ok": False,
                                  "error": str(exc)}
    _dump_json(args.out, payload)
    return EXIT_OK if payload.get("verdict", {}).get("ok", True) else EXIT_VERIFY


# --- race ---------------------------------------------------------------------


def cmd_race(args: argparse.Namespace) -> int:
    if args.zeros and (args.a is None or args.b is None):
        raise ValueError("--zeros needs --a and --b")
    pair = args.a is not None and args.b is not None
    if pair:  # this validates the pair, so a bad one writes no table
        x = primes.first_lead_change(args.q, args.a, args.b, int(args.xmax))
    table = primes.sieve_race(args.q, int(args.xmax),
                              checkpoint_rule=args.checkpoints)
    out = args.out or f"race_q{args.q}.csv"
    Path(out).write_text(table.to_csv(), encoding="utf-8")
    print(f"race table written to {out} ({len(table.checkpoints)} checkpoints)")
    summary: dict = {"config": _config_of(args),
                     "pi_max": int(table.pi[-1]) if len(table.pi) else 0}
    if pair:
        summary["first_lead_change"] = x
        found = x if x is not None else f"none found up to x = {int(args.xmax)}"
        print(f"first lead change ({args.a} vs {args.b}): {found}")
    if args.zeros:
        zs = load_zero_data(args.zeros, q=args.q)
        if zs is None:
            raise ValueError("empty zero data")
        rep = primes.compare_with_simulator(
            table, zs, args.sigma, args.a, args.b, x_min=args.xmin_compare)
        summary["comparison"] = rep.to_dict()
        print(f"sign agreement vs zero-data prediction: {rep.sign_agreement:.3f}")
    if args.summary:
        _dump_json(args.summary, summary)
    if args.gnuplot:
        cols = ["x", "pi"] + [f"pi_{a}" for a in table.residues]
        print(f"gnuplot script: {_write_gnuplot(out, cols)}")
    return EXIT_OK


# --- trig toolbox ---------------------------------------------------------------


_TRIG_NEEDS = {"frac-parts": ("s",), "all-negative": ("t",),
               "dominate": ("freqs", "b")}


def cmd_trig(args: argparse.Namespace) -> int:
    missing = [f"--{name}" for name in _TRIG_NEEDS[args.tool]
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.tool} needs {', '.join(missing)}")
    if args.tool == "frac-parts":
        s = _floats(args.s)
        u = trigpoly.find_fractional_parts(s, args.alpha)
        n = len(s)
        eps = trigpoly.eps_box(n, args.alpha)
        fracs = [(u * x) % 1.0 for x in s]
        ok = all(eps - 1e-12 <= f <= args.alpha + 1e-12 for f in fracs)
        _dump_json(args.out, {"u": u, "fractional_parts": fracs,
                              "eps": eps, "alpha": args.alpha, "ok": ok,
                              "config": _config_of(args)})
        return EXIT_OK if ok else EXIT_VERIFY
    if args.tool == "all-negative":
        t = _floats(args.t)
        beta = _floats(args.beta) if args.beta else [0.0] * len(t)
        u = trigpoly.find_all_negative(t, beta)
        e2 = trigpoly.eps2(len(t))
        sines = [math.sin(tk * u + bk) for tk, bk in zip(t, beta)]
        ok = all(s < -e2 for s in sines)
        _dump_json(args.out, {"u": u, "sines": sines, "eps2": e2, "ok": ok,
                              "config": _config_of(args)})
        return EXIT_OK if ok else EXIT_VERIFY
    # dominate
    freqs, b = _floats(args.freqs), _floats(args.b)
    a = _floats(args.a) if args.a else [0.0] * len(b)
    c = _floats(args.c) if args.c else [0.0] * len(b)
    q_poly = trigpoly.TrigPoly.sine(b, freqs)
    p_poly = trigpoly.TrigPoly.cosine(a, freqs)
    r_poly = trigpoly.TrigPoly.sine(c, freqs)
    cert = trigpoly.find_dominating(q_poly, p_poly, r_poly, args.gamma)
    _dump_json(args.out, {"certificate": cert.to_dict(),
                          "config": _config_of(args)})
    return EXIT_OK


# --- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an invalid configuration (exit 3, one
    `error:` line) rather than argparse's exit 2, which means "verification
    failed" here."""

    def error(self, message: str):
        raise ValueError(message)

    def _print_message(self, message, file=None):
        """argparse's, but a closed stdout raises (so exit 1), not exit 0."""
        print(message, end="", file=file or sys.stderr, flush=True)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="racelab", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("barrier", help="build or verify barrier recipes")
    b.add_argument("action", choices=["build", "verify"])
    b.add_argument("kind", nargs="?", default="thm311",
                   choices=["thm311", "thm43", "thm51"])
    b.add_argument("--q", type=int, default=7)
    b.add_argument("--tau", type=_finite_float, default=0.0)
    b.add_argument("--beta", type=_finite_float, default=0.75)
    b.add_argument("--gamma", type=_finite_float, default=None)
    b.add_argument("--M", type=int, default=64)
    b.add_argument("--K", type=int, default=16)
    b.add_argument("--N", type=int, default=64)
    b.add_argument("--D", type=str, default=None,
                   help="target powers, e.g. a,a2,a3")
    b.add_argument("--generator", type=int, default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--recipe", type=str, default=None)
    b.add_argument("--out", type=str, default=None)
    b.set_defaults(func=cmd_barrier)

    s = sub.add_parser("simulate", help="sample race traces from a recipe")
    s.add_argument("--recipe", required=True)
    s.add_argument("--mode", choices=["dominant-only", "full-formula"],
                   default="dominant-only")
    s.add_argument("--window", type=_window, default="period",
                   help='"period" or "u0:u1"')
    s.add_argument("--step", type=_number(float, positive=True), default=1e-3)
    s.add_argument("--samples", type=_number(int, positive=True), default=4096)
    s.add_argument("--base-u", type=_finite_float, default=0.0)
    s.add_argument("--out", default=None)
    s.add_argument("--crossings", default=None,
                   help="also write a crossings/census JSON")
    s.add_argument("--gnuplot", action="store_true")
    s.set_defaults(func=cmd_simulate)

    o = sub.add_parser("orderings", help="census the orderings of a trace")
    o.add_argument("--recipe", required=True)
    o.add_argument("--window", type=_window, default="period")
    o.add_argument("--samples", type=_number(int, positive=True), default=8192)
    o.add_argument("--base-u", type=_finite_float, default=0.0)
    o.add_argument("--claim", default=None,
                   choices=[None, "extremal_exact", "thm51_upper",
                            "kt_all_pairs", "lead_trail"])
    o.add_argument("--member", type=int, default=None)
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_orderings)

    r = sub.add_parser("race", help="sieve a real prime race")
    r.add_argument("--q", type=int, required=True)
    r.add_argument("--xmax", type=_finite_float, default=1e6)
    r.add_argument("--a", type=int, default=None)
    r.add_argument("--b", type=int, default=None)
    r.add_argument("--checkpoints", default="geometric:1.01")
    r.add_argument("--zeros", default=None, help="zero-list file for comparison")
    r.add_argument("--sigma", type=_finite_float, default=0.5)
    r.add_argument("--xmin-compare", type=_finite_float, default=1e3)
    r.add_argument("--out", default=None)
    r.add_argument("--summary", default=None)
    r.add_argument("--gnuplot", action="store_true")
    r.set_defaults(func=cmd_race)

    t = sub.add_parser("trig", help="constructive trig-polynomial tools")
    t.add_argument("tool", choices=["frac-parts", "all-negative", "dominate"])
    t.add_argument("--s", type=_float_list, help="decreasing positive reals")
    t.add_argument("--alpha", type=_finite_float, default=0.4615)
    t.add_argument("--t", type=_float_list, help="positive frequencies")
    t.add_argument("--beta", type=_float_list, help="phases")
    for name in ("--freqs", "--a", "--b", "--c"):
        t.add_argument(name, type=_float_list)
    t.add_argument("--gamma", type=_finite_float, default=0.5)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_trig)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # an OSError, but the reader left: say nothing
        return EXIT_PIPE
    except (barriers.ConditionFailedError, barriers.OmegaTypeLostError,
            barriers.OmegaConstructionError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except primes.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, trigpoly.SearchExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    """Run main() on the process's arguments and exit with its code."""
    code = main()
    try:  # main flushes after a command that returns, not one that raised
        sys.stdout.flush()
    except BrokenPipeError:  # what stdout still holds goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # the collections at shutdown skip frozen objects, so the process exits
    # without walking every object that numpy, racelab and the command made
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
