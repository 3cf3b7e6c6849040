"""Concrete barrier constructions and their numeric verification.

Three families are built here:

* a three-residue barrier from a size-20/34/16 lattice of zeros on powers of
  one character (the group-structure trichotomy: even cyclic order with odd
  part >= 3, order 8, and Z4 x Z2);
* extremal barriers capping the ordering census of a chosen set D inside a
  cyclic subgroup at |D|(|D|-1)/2 + 1, built from a crossing-pattern system
  of piecewise-linear functions, its Fourier approximation, a per-frequency
  linear solve, and integerized multiplicities;
* a layered system (one level per group generator) bounding the census of
  any r members by r(r-1), verified through the level-wave conditions
  (A)-(D).

All verification scans are Taylor cells whose bounds cover float rounding.
"""

from __future__ import annotations

import json
import math
import operator
import random
from fractions import Fraction
from functools import cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .budget import Record, check_budget
from .residues import ResidueGroup, characters, unit_group
from .orderings import Verdict, census, column_orders, verdict
from .simulator import RaceFunctionSet, RecipeMismatchError, one_period_trace
from .trigpoly import (EPS, EPS3, ScanReport, TrigPoly, _phasor_table,
                       _taylor_table, certified_positive_scan, eps1, eps2,
                       evaluate_phasors, roots as trig_roots)
from .zerosys import Zero, ZeroSystem, dominant_data


class ExcludedModulusError(ValueError):
    pass


class OmegaConstructionError(RuntimeError):
    """Crossing abscissae kept colliding; construction gave up."""


class OmegaTypeLostError(RuntimeError):
    """The truncation/integerization budget was exhausted before the
    candidate system reproduced the reference crossing pattern."""


class ConditionFailedError(RuntimeError):
    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"condition ({condition}) failed{': ' + detail if detail else ''}")


SIN_WEIGHTS = {2: 1, 3: 2, 4: 3, 5: 4, 6: 3, 7: 2}
SQRT3_UP = math.nextafter(math.sqrt(3.0), 2.0)  # math.sqrt(3.0) < sqrt(3)


def qpr_polys() -> Tuple[TrigPoly, TrigPoly, TrigPoly]:
    """The fixed trio: Q = 2 sin v + sin(6v)/2, P = 2 cos v - cos(6v)/2,
    R = sum_{k=2}^{7} (p_k/k) sin(kv) with p = (1,2,3,4,3,2)."""
    q = TrigPoly.sine([2.0, 0.5], [1.0, 6.0])
    p = TrigPoly.cosine([2.0, -0.5], [1.0, 6.0])
    r = TrigPoly.sine([w / k for k, w in sorted(SIN_WEIGHTS.items())],
                      [float(k) for k in sorted(SIN_WEIGHTS)])
    return q, p, r


class PropertyScan(NamedTuple):
    """Certified margins for the sign properties of the Q/P/R trio."""

    p_dominates: Tuple[ScanReport, ...]   # |P| - sqrt(3) Q > 0 pieces
    r_negative: ScanReport                # -R > 0 on the stated interval
    ok: bool

    @property
    def min_margin_p(self) -> float:
        return min(s.min_value for s in self.p_dominates)

    @property
    def min_margin_r(self) -> float:
        return self.r_negative.min_value


def scan_qpr_properties(step: float = 1e-4,
                        r_interval: Tuple[float, float] = (0.758, math.pi - 1e-6),
                        ) -> PropertyScan:
    """Certified scans of max(P, -P) - sqrt(3) Q > 0 (by SQRT3_UP, so for the
    true sqrt(3)) on [0, 0.759] u [2.7, 2pi], and of -R > 0 on r_interval."""
    q, p, r = qpr_polys()
    pq = (q.scale(SQRT3_UP), [p, p.scale(-1.0)])
    pieces = (certified_positive_scan(*pq, 0.0, 0.759, step),
              certified_positive_scan(*pq, 2.7, 2 * math.pi, step))
    neg_r = certified_positive_scan(r, [TrigPoly.zero()], *r_interval, step)
    ok = all(s.ok for s in pieces) and neg_r.ok
    return PropertyScan(p_dominates=pieces, r_negative=neg_r, ok=ok)


# --- recipes -------------------------------------------------------------------


class BarrierRecipe(Record):
    """A named construction, its parameters, and the zero system it emits."""

    __slots__ = _fields = ("kind", "q", "params", "system", "claim")

    def __init__(self, kind: str, q: int, params: dict, system: ZeroSystem,
                 claim: str) -> None:
        self.kind, self.q, self.params, self.system, self.claim = (
            kind, q, params, system, claim)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "q": self.q, "claim": self.claim,
                           "params": self.params,
                           "system": self.system.to_dict()},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BarrierRecipe":
        """The recipe in text; RecipeMismatchError unless its q is an int
        equal to its system's q and it passes the load check of its kind
        (`_KIND_CHECKS`), the one its verifier runs too."""
        d = json.loads(text)
        try:
            recipe = cls(kind=d["kind"], q=d["q"], params=d["params"],
                         system=ZeroSystem.from_dict(d["system"]),
                         claim=d["claim"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"not a barrier recipe ({exc!r})") from None
        if type(recipe.q) is not int or recipe.q != recipe.system.q:
            raise RecipeMismatchError(f"recipe q {recipe.q!r} is not its "
                                      f"system's q {recipe.system.q}")
        if type(recipe.kind) is not str or recipe.kind not in _KIND_CHECKS:
            raise RecipeMismatchError(f"recipe kind {recipe.kind!r} is not one "
                                      f"of {sorted(_KIND_CHECKS)}")
        _KIND_CHECKS[recipe.kind](recipe)
        return recipe


# --- the three-residue lattice barrier -------------------------------------------


def _pick_structure(q: int) -> dict:
    """Choose the applicable group-structure case for the modulus."""
    group = unit_group(q)
    units = np.array(group.units)  # ascending
    sizes = np.array([n for _, n in group.generators])
    orders = np.lcm.reduce(sizes // np.gcd(group.unit_exponents, sizes), axis=1)
    # even order >= 6 with odd part >= 3, smallest such order
    even = (orders >= 6) & (orders % 2 == 0) & (orders & (orders - 1) != 0)
    if even.any():
        n = int(orders[even].min())
        return {"case": "even_cyclic", "a": int(units[orders == n][0]), "n": n}
    if np.any(orders == 8):
        return {"case": "n8", "a": int(units[orders == 8][0]), "n": 8}
    # Z4 x Z2: order-4 element plus an involution outside its span
    for a in units[orders == 4].tolist():
        span = set(group.subgroup(a))
        invs = [u for u in units[orders == 2].tolist() if u not in span]
        if invs:
            return {"case": "z4z2", "a": a, "b": invs[0]}
    raise RuntimeError(f"no suitable subgroup found for q={q} "
                       "(internal check; admissible moduli always have one)")


def build_thm311(q: int, tau: float = 0.0, beta: float = 0.75,
                 gamma: float | None = None) -> BarrierRecipe:
    """Emit the bounded three-residue barrier for an admissible modulus.

    Every admissible q (q >= 7, q not in {8, 10, 12, 24}) supports one of
    three lattice constructions of size 20, 34 or 16; all heights are
    multiples of gamma > tau.
    """
    if q < 7 or q in (8, 10, 12, 24):
        raise ExcludedModulusError(f"q={q} admits no such barrier")
    if not 0.5 < beta < 1.0:
        raise ValueError("beta must lie in (1/2, 1)")
    gamma = gamma if gamma is not None else max(tau + 1.0, 100.0)
    if not (math.isfinite(tau) and math.isfinite(gamma)):
        raise ValueError("tau and gamma must be finite")
    if gamma <= tau:
        raise ValueError("gamma must exceed tau")
    params = _pick_structure(q)
    case = params["case"]
    params.update(_thm311_chars(characters(q), params), beta=beta, gamma=gamma,
                  **(_even_cyclic_split(params["n"]) if case == "even_cyclic"
                     else {"s": 3} if case == "n8" else {"subcase": "z4z2"}))
    params.update(_thm311_points(q, params))
    return BarrierRecipe(kind=f"thm311_{case}", q=q, params=params,
                         system=_thm311_system(q, params),
                         claim=_claim(f"thm311_{case}"))


# the integer params of each thm311 case
_THM311_INTS = {"even_cyclic": ("a", "n", "h", "d", "s", "chi"),
                "n8": ("a", "n", "s", "chi"), "z4z2": ("a", "b", "chi1", "chi2")}


def _thm311_chars(table, p: dict) -> dict:
    """The character labels of thm311 params p: chi(a) = e(-1/n), or chi1
    = e(3/4), 1 and chi2 = 1, -1 at a, b on Z4 x Z2 (NotRepresentableError
    if no character takes those values)."""
    if p["case"] != "z4z2":
        return {"chi": table.label_with((p["a"], Fraction(-1, p["n"])))}
    return {"chi1": table.label_with((p["a"], Fraction(3, 4)), (p["b"], 0)),
            "chi2": table.label_with((p["a"], 0), (p["b"], Fraction(1, 2)))}


def _thm311_template(p: dict) -> list:
    """(e, k, w) per zero of the thm311 case p["case"]: w zeros at height k
    gamma on chi^e (chi1^e1 chi2^e2 on Z4 x Z2), e a tuple."""
    if p["case"] == "even_cyclic":
        n, h = p["n"], p["h"]
        head, carriers = [((2,), 6, 3), (((2 * h - 2) % n,), 1, 2)], [(h,)]
    elif p["case"] == "n8":
        head, carriers = [((2,), 1, 4)], [(3,), (5,)]
    else:
        head, carriers = [((1, 0), 1, 1)], [(0, 1)]
    return head + [(e, k, w) for e in carriers for k, w in SIN_WEIGHTS.items()]


def _thm311_system(q: int, p: dict) -> ZeroSystem:
    """`_thm311_template`'s zeros at beta + i k gamma, as `build_thm311`
    emits them and the load check requires them.

    On them G_0 - G_r = f_r is algebra.  G_r(v) = sum (w/k) sin(kv + 2 pi
    <e, r>), <e, r> = e r/n (e1 r1/4 + e2 r2/2 on Z4 x Z2), and the load
    check pins every e, r and n.  With Q, P and R of `qpr_polys`:
    * even cyclic, n = 2^d h, s = 2^d (h-1)/2, c = 4 pi s/n = 2 pi - 2 pi/h:
      at r = s the weight-6 phase is c, the weight-1 one 2 pi (h-1)^2/h =
      -c and the carrier's pi (h-1) = 0 (mod 2 pi), so f_s = (1 - cos c) Q
      + sin(c) P; at n - s the phases turn, f_{n-s} = (1 - cos c) Q -
      sin(c) P; at n/2 they are 2 pi, 2 pi (h-1) and pi h = pi, so f = 2R;
    * n8: the phases at r = 3 are 3 pi/2, 9 pi/4 and 15 pi/4, so f_3 = 4
      sin v + 4 cos v + (2 - sqrt 2) R, f_5 turns cos v, and at r = 4 they
      are 2 pi, 3 pi and 5 pi, so f_4 = 4R;
    * Z4 x Z2: at (1, 0) and (3, 0) they are pi/2 or 3 pi/2 and 0, so f =
      sin v -+ cos v; at (0, 1) 0 and pi, so f = 2R."""
    table = characters(q)
    zeros = _thm311_template(p)
    chis = [p["chi1"], p["chi2"]] if p["case"] == "z4z2" else [p["chi"]]
    labels = table.labels(np.array([e for e, _, _ in zeros]) @ table.b[chis])
    return ZeroSystem.from_zeros(
        q, ((label, Zero(p["beta"], k * p["gamma"]), w)
            for label, (_, k, w) in zip(labels.tolist(), zeros)),
        height_lattice=p["gamma"])


def _thm311_points(q: int, p: dict) -> dict:
    """designated and D of the thm311 case p["case"], in recipe order: the
    exponents s, n/2 and n - s, or (1, 0), (3, 0) and (0, 1) on Z4 x Z2,
    and the units a^r (a^r1 b^r2) they name."""
    rs = ([[1, 0], [3, 0], [0, 1]] if p["case"] == "z4z2"
          else [p["s"], p["n"] // 2, p["n"] - p["s"]])
    gens = (p["a"], p.get("b"))
    return {"designated": rs, "D": [math.prod(pow(g, r, q) for g, r in zip(
        gens, t if isinstance(t, list) else [t])) % q for t in rs]}


def thm311_certificate(case: str) -> ScanReport:
    """The certified scan on [0, 2 pi], step 1e-3, made once per process
    (its grid counts against the budget on every call), that decides every
    thm311 recipe of the case.  Even cyclic: kappa(v) = max(|P| - c3 Q, -R)
    > 0, c3 = SQRT3_UP, as branches P, -P and c3 Q - R over base c3 Q.  n8
    and Z4 x Z2: max_r -f_r > 0 (f_r as `_thm311_system` derives them)."""
    check_budget(2 * math.pi / 1e-3 + 1, "scan grid of 6284.19 points")
    return _thm311_scan(case)


@cache
def _thm311_scan(case: str) -> ScanReport:
    q_poly, p_poly, r_poly = qpr_polys()
    if case == "even_cyclic":
        base = q_poly.scale(SQRT3_UP)
        branches = [p_poly, p_poly.scale(-1.0), base + r_poly.scale(-1.0)]
    else:  # -f_r at the designated r
        sin_v, cos_v = TrigPoly.sine([1.0], [1.0]), TrigPoly.cosine([1.0], [1.0])
        f3, f5 = (TrigPoly.combine([sin_v.scale(4.0), cos_v.scale(w),
                                    r_poly.scale(2 - math.sqrt(2))])
                  for w in (4.0, -4.0))
        forms = ([f3, r_poly.scale(4.0), f5] if case == "n8" else
                 [sin_v + cos_v.scale(-1.0), sin_v + cos_v, r_poly.scale(2.0)])
        base, branches = TrigPoly.zero(), [f.scale(-1.0) for f in forms]
    return certified_positive_scan(base, branches, 0.0, 2 * math.pi, 1e-3)


def _even_cyclic_split(n: int) -> dict:
    """{h, d, s} of the even-cyclic lattice of order n = 2^d h, h odd: s =
    2^d (h-1)/2 is a multiple of 2^d (so the weight-h carrier cancels) with
    |tan(2 pi s/n)| = tan(pi/h) <= sqrt(3) for every odd h >= 3 (s = 2^d
    alone fails at h = 5, where tan(2 pi/5) > sqrt(3))."""
    d = (n & -n).bit_length() - 1
    return {"h": n >> d, "d": d, "s": 2**d * ((n >> d) - 1) // 2}


def _even_cyclic_scale(h: int) -> float:
    """2 sin(pi/h)^2/c3, rounded down.  With u = EPS/2, sin(pi/h) is off by
    4u (2u from pi/h, which sin keeps for h >= 3, and 2u its own), its
    square by 9u, and /c3 and the factor 1 - 16 EPS add 1u each: 11u.  The
    factor's 32u also cover the two roundings `verify_thm311` adds."""
    x = math.sin(math.pi / h)
    return 2.0 * x * x / SQRT3_UP * (1.0 - 16.0 * EPS)


def _claim(kind: str, n_v: int = 0) -> str:
    """The claim of a recipe of kind (thm43's for |V| = n_v), which its
    builder writes and its load check requires (`_check_params`)."""
    return {"thm43_extremal": f"census of D capped at {n_v * (n_v - 1) // 2 + 1}",
            "thm51_census": "census of any r members capped at r(r-1)",
            }.get(kind, "player-1 neither trails nor leads all of D")


def _check_params(recipe: BarrierRecipe, ints: Sequence[str],
                  want: dict | None = None, claim: str | None = None,
                  beta: str | None = None) -> dict:
    """The params: RecipeMismatchError unless a dict in which ints are ints,
    gamma is the system's height lattice, positive and finite, want's keys
    hold its values, as repr writes them (1 is not 1.0 or True), and, if
    given, the claim is claim and the param beta is a float in (1/2, 1)."""
    p = recipe.params if isinstance(recipe.params, dict) else {}
    bad = [k for k in ints if type(p.get(k)) is not int]
    if bad:
        raise RecipeMismatchError(f"{recipe.kind} params {bad} must be ints")
    lattice = recipe.system.height_lattice
    if (lattice is None or repr(p.get("gamma")) != repr(lattice)
            or not 0 < lattice < math.inf):  # as from_dict checks it
        raise RecipeMismatchError(f"gamma {p.get('gamma')!r} must be the "
                                  f"system's height lattice {lattice!r}")
    bad = [k for k, v in (want or {}).items() if repr(p.get(k)) != repr(v)]
    if bad:
        raise RecipeMismatchError(f"{recipe.kind} params {bad} must be "
                                  f"{[want[k] for k in bad]}")
    if claim is not None and recipe.claim != claim:
        raise RecipeMismatchError(f"claim {recipe.claim!r} must be {claim!r}")
    if beta and not (isinstance(p.get(beta), float) and 0.5 < p[beta] < 1.0):
        raise RecipeMismatchError(f"{beta} {p.get(beta)!r} must be a float "
                                  f"in (1/2, 1)")
    return p


def _check_thm311(recipe: BarrierRecipe) -> None:
    """RecipeMismatchError unless the kind is thm311_<case> for a known
    case (subcase z4z2 exactly on Z4 x Z2), the case's params are ints,
    gamma is the height lattice, n divides the group exponent (n = 8 for
    n8, n = 2^d h, d >= 1, h >= 3 and h, d, s `_even_cyclic_split`'s for
    even cyclic), 0 <= s < n, the characters, designated, D and claim are
    the builder's, beta is a float in (1/2, 1), and the system's zeros are
    those `_thm311_system` emits for the params."""
    p = recipe.params if isinstance(recipe.params, dict) else {}
    case = recipe.kind.removeprefix("thm311_") if type(recipe.kind) is str else None
    if (case not in _THM311_INTS or p.get("case") != case
            or (p.get("subcase") == "z4z2") != (case == "z4z2")):
        raise RecipeMismatchError(f"kind {recipe.kind!r} with case "
                                  f"{p.get('case')!r} is not a thm311 case")
    _check_params(recipe, _THM311_INTS[case], claim=_claim(recipe.kind))
    if case != "z4z2":
        n, s = p["n"], p["s"]
        if (n < 1 or unit_group(recipe.q).lam % n or case == "n8" and n != 8
                or case == "even_cyclic" and (n % 2 or not n & (n - 1))
                or not 0 <= s < n):
            raise RecipeMismatchError(f"n {n} with s {s} is no {case} "
                                      f"lattice mod {recipe.q}")
    try:
        chars = _thm311_chars(characters(recipe.q), p)
    except ValueError as exc:  # a or b is no unit, or no character fits
        raise RecipeMismatchError(f"{recipe.kind} units: {exc}") from None
    _check_params(recipe, (), {  # as build_thm311 writes them
        **(_even_cyclic_split(p["n"]) if case == "even_cyclic" else {}), **chars,
        **_thm311_points(recipe.q, p)}, beta="beta")
    if (not math.isfinite(7 * p["gamma"])  # the template's top height
            or recipe.system.entries != _thm311_system(recipe.q, p).entries):
        raise RecipeMismatchError(f"the system's zeros are not the {case} "
                                  f"template's at beta {p['beta']!r}")


class Thm311Report(NamedTuple):
    """`verify_thm311`'s verdict; identity_errors holds 0.0, the exact
    error of each designated identity on the zeros the load check pins."""

    case: str
    size: int
    scan: ScanReport  # the case's `thm311_certificate`
    identity_errors: Dict[str, float]
    lower_bound: float
    ok: bool


# the certificates' rows stand for Q, P, R and the closed forms with float
# terms (2/3, 2 - sqrt 2, phases pi/2 and pi), off by < 1e-14 at every v
_CERT_SLACK = 1e-12


def verify_thm311(recipe: BarrierRecipe) -> Thm311Report:
    """Certified check that at every v in [0, 2pi) some designated difference
    G_0 - G_r (G_00 - G_rs) is negative, from the load check and the case's
    certificate `thm311_certificate`, of lower bound m; no decomposition is
    read.  On the pinned zeros G_0 - G_r = f_r exactly (`_thm311_system`),
    and the certificate bounds its exact objective by m - _CERT_SLACK.  n8
    and Z4 x Z2: it is max_r -f_r, scale = 1.  Even cyclic: c = 2 pi - 2
    pi/h, so max(-f_s, -f_{n-s}) = (1 - cos c)(cot(pi/h)|P| - Q) >= scale
    (|P| - c3 Q), scale = (1 - cos c)/c3 = 2 sin(pi/h)^2/c3 (rounded down
    by `_even_cyclic_scale`), as tan(pi/h) <= sqrt(3) <= c3; and -f_{n/2} =
    2 (-R) >= scale (-R) where -R > 0, as scale < 2.  So max_r -f_r >=
    lower_bound = scale (m - _CERT_SLACK), and ok = (the certificate is ok)
    and lower_bound > 0."""
    _check_thm311(recipe)
    p = recipe.params
    scan = thm311_certificate(p["case"])
    scale = _even_cyclic_scale(p["h"]) if p["case"] == "even_cyclic" else 1.0
    lower_bound = scale * (scan.lower_bound - _CERT_SLACK)
    rs = [t if isinstance(t, list) else [t] for t in p["designated"]]
    errors = {f"G{'0' * len(r)}-G{''.join(map(str, r))}": 0.0 for r in rs}
    return Thm311Report(case=p["case"], size=recipe.system.size, scan=scan,
                        identity_errors=errors, lower_bound=lower_bound,
                        ok=scan.ok and lower_bound > 0.0)


# --- the per-frequency linear solve ------------------------------------------------


def solve_lemma44(r: int, c: Sequence[float], d: Sequence[float]) -> np.ndarray:
    """Solve sum_j nu_j sin(u + 2 pi j v / r) = c_v sin u + d_v cos u.

    Requires the compatibility symmetries c_v = c_{r-v}, d_0 = 0,
    d_v = -d_{r-v}.  The system splits into a cosine half and a sine half,
    each uniquely solvable; the recombined nu is checked to a residual of
    1e-10 at 16 points 2 pi x, x drawn from `random.Random(12345)`.  c and
    d may also be (m, r) arrays: each row pair is one system, all m are
    solved at once, and nu has one row per system.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.shape[-1:] != (r,) or c.ndim > 2 or d.shape != c.shape:
        raise ValueError("c and d must have length r")
    single = c.ndim == 1
    c, d = np.atleast_2d(c), np.atleast_2d(d)
    # the least offending v names the broken symmetry
    bad_c = np.any(np.abs(c[:, 1:] - c[:, :0:-1]) > 1e-12, axis=0)
    bad_d = np.any(np.abs(d[:, 1:] + d[:, :0:-1]) > 1e-12, axis=0)
    if np.any(bad_c | bad_d):
        v = np.argmax(bad_c | bad_d)
        raise ValueError("need c_v = c_{r-v}" if bad_c[v]
                         else "need d_v = -d_{r-v}")
    if np.any(np.abs(d[:, 0]) > 1e-12):
        raise ValueError("need d_0 = 0")

    half = r // 2
    js = np.arange(half + 1)
    # j v is reduced mod r in integers, so each phase keeps full precision
    a_cos = np.cos(2 * math.pi * (np.outer(js, js) % r) / r)
    # one right-hand side per stacked system rounds as a lone solve does (a
    # multi-column solve would not, and would move build_extremal's output)
    try:
        mu = np.linalg.solve(a_cos, c[:, : half + 1, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:  # the proof rules this out
        raise RuntimeError(f"cosine system unexpectedly singular: {exc}")

    half_s = (r - 1) // 2
    lam = np.zeros((len(c), half_s + 1))
    if half_s >= 1:
        js = np.arange(1, half_s + 1)
        a_sin = np.sin(2 * math.pi * (np.outer(js, js) % r) / r)
        try:
            lam[:, 1:] = np.linalg.solve(a_sin, d[:, 1: half_s + 1, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"sine system unexpectedly singular: {exc}")

    nu = np.zeros((len(c), r))
    nu[:, 0] = mu[:, 0]
    if r % 2 == 0:
        nu[:, half] = mu[:, half]
    js = np.arange(1, (r + 1) // 2)
    nu[:, js] = (mu[:, js] + lam[:, js]) / 2.0
    nu[:, r - js] = (mu[:, js] - lam[:, js]) / 2.0

    rng = random.Random(12345)
    us = 2 * math.pi * np.array([rng.random() for _ in range(16)])
    # sin(u + theta) = sin u cos theta + cos u sin theta: r x r tables only
    theta = 2 * math.pi * (np.outer(np.arange(r), np.arange(r)) % r) / r
    lhs = ((nu @ np.cos(theta))[:, :, None] * np.sin(us)
           + (nu @ np.sin(theta))[:, :, None] * np.cos(us))
    rhs = c[:, :, None] * np.sin(us) + d[:, :, None] * np.cos(us)
    if np.max(np.abs(lhs - rhs)) > 1e-10:
        raise RuntimeError("solution residual exceeded tolerance "
                           "(internal check)")
    return nu[0] if single else nu


# --- crossing-pattern systems -------------------------------------------------------


class OmegaSystem(Record):
    """A family of even 2pi-periodic zero-mean piecewise-linear functions
    indexed by V, pairwise crossing exactly once on [0, pi] at distinct
    abscissae.  Functions are flat left of their corner and rise with slope
    one up to pi; the member at r/2 (its own inverse) is identically zero.
    corners maps v to its corner abscissa (none for r/2), crossings each
    pair (v, w) to its crossing point."""

    __slots__ = _fields = ("r", "V", "corners", "crossings")

    def __init__(self, r: int, V: Tuple[int, ...], corners: Dict[int, float],
                 crossings: Dict[Tuple[int, int], float]) -> None:
        self.r, self.V, self.corners, self.crossings = r, V, corners, crossings

    def level(self, v: int) -> float:
        theta = self.corners[v]
        return -((math.pi - theta) ** 2) / (2.0 * math.pi)

    def value(self, v: int, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if v not in self.corners:
            return np.zeros_like(u)
        theta = self.corners[v]
        c = self.level(v)
        w = np.abs((u + math.pi) % (2 * math.pi) - math.pi)  # fold to [0, pi]
        return np.where(w <= theta, c, c + (w - theta))

    def values(self, u) -> np.ndarray:
        return np.vstack([self.value(v, u) for v in self.V])

    def crossing_points(self) -> List[float]:
        return sorted(self.crossings.values())


def build_omega(r: int, V: Sequence[int], seed: int = 0) -> OmegaSystem:
    """Corner abscissae in general position; crossing points within 5e-3 of
    each other, 0 or pi are perturbed away.  The jitter is drawn from
    `random.Random(seed)`, whose stream Python keeps for a seed across
    releases; a non-int seed is a TypeError and a negative one, which
    Random would take as |seed|, a ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    V = tuple(sorted(V))
    movable = [v for v in V if 2 * v != r]
    base = np.linspace(0.35 * math.pi, 0.75 * math.pi, len(movable))
    rng = random.Random(seed)
    for _ in range(64):
        jitter = [(-0.05 + 0.1 * rng.random()) * math.pi / len(movable)
                  for _ in movable]
        corners = {v: float(t + j) for v, t, j in zip(movable, base, jitter)}
        omega = OmegaSystem(r=r, V=V, corners=corners, crossings={})
        crossings = {(v, w): _omega_crossing(omega, v, w)
                     for i, v in enumerate(V) for w in V[i + 1:]}
        # the smallest gap between sorted crossing points, 0 and pi included
        if np.diff([0.0, *sorted(crossings.values()), math.pi]).min() >= 5e-3:
            omega.crossings = crossings
            return omega
    raise OmegaConstructionError(
        "could not separate crossing points after 64 tries")


def _omega_crossing(omega: OmegaSystem, v: int, w: int) -> float:
    zero_v = v not in omega.corners
    zero_w = w not in omega.corners
    if zero_v and zero_w:
        raise OmegaConstructionError("two identically-zero members")
    if zero_v or zero_w:
        x = w if zero_v else v
        theta = omega.corners[x]
        return theta - omega.level(x)
    if omega.corners[v] > omega.corners[w]:
        v, w = w, v
    return omega.corners[v] + (omega.level(w) - omega.level(v))


def fourier_cosine_coeffs(omega: OmegaSystem, v: int, K: int) -> np.ndarray:
    """b_{k,v} (k = 1..K) of the even zero-mean member v:
    b_k = (2/(pi k^2)) ((-1)^k - cos(k theta_v))."""
    if v not in omega.corners:
        return np.zeros(K)
    theta = omega.corners[v]
    k = np.arange(1, K + 1, dtype=float)
    return 2.0 / (math.pi * k * k) * ((-1.0) ** k - np.cos(k * theta))


class OmegaTypeReport(NamedTuple):
    ok: bool
    first_violation: float | None = None
    intervals_checked: int = 0


class OmegaPattern(NamedTuple):
    """`check_omega_type`'s reference for one omega on one grid.

    Between midpoints of consecutive reference crossing points the reference
    ordering is constant, so each grid column has two reference orderings,
    lo and hi, those at the midpoints around it.  order[k, o, c] is the flat
    candidate index of the k-th member of ordering o (0 for lo, 1 for hi)
    at column c, so order[:-1] and order[1:] are its |V| - 1 neighbour
    pairs.  u is the grid mod 2pi."""

    shape: Tuple[int, int]
    u: np.ndarray
    order: np.ndarray


def omega_pattern(omega: OmegaSystem, w_grid: np.ndarray) -> OmegaPattern:
    """The reference crossing pattern of omega on w_grid (one period in
    [0, 2pi)), built once for every candidate checked on that grid."""
    pts = omega.crossing_points()
    pts = sorted(pts + [2 * math.pi - p for p in pts])
    mids = [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    wrap_mid = ((pts[-1] + pts[0] + 2 * math.pi) / 2.0) % (2 * math.pi)
    mids = sorted(mids + [wrap_mid])
    ref, _, _ = column_orders(omega.values(np.array(mids)), 0.0)

    u = np.asarray(w_grid, dtype=float) % (2 * math.pi)
    lo = (np.searchsorted(mids, u) - 1) % len(mids)
    order = (np.take(ref, np.stack([lo, (lo + 1) % len(mids)]), axis=1)
             * len(u) + np.arange(len(u)))
    return OmegaPattern((len(omega.V), len(u)), u, order)


def check_omega_type(candidate: np.ndarray, pattern: OmegaPattern,
                     tie_tol: float = 0.0) -> OmegaTypeReport:
    """Does the candidate family (rows indexed like omega.V, sampled on the
    pattern's grid) follow the reference crossing pattern?

    A strict sample (every member pair further apart than tie_tol >= 0)
    must have the reference ordering of one of the two midpoints around it
    (`OmegaPattern`); a tied sample passes if either reference ordering is
    admissible once ties within tie_tol split.  The candidate is never
    sorted: the known orderings are tested.  A column where every
    neighbour pair of lo, or of hi, is in descending order passes; the
    others pass only if they are tied and lo's or hi's neighbours hold
    v_above >= v_below - tie_tol.  first_violation is the u of the first
    failing column (intervals_checked counts the columns before it).
    ValueError unless the candidate has the pattern's shape, |V| x samples.
    """
    candidate = np.asarray(candidate)
    if candidate.shape != pattern.shape:
        raise ValueError(f"candidate of shape {candidate.shape} against an "
                         f"omega pattern of shape {pattern.shape}")
    if not tie_tol >= 0:
        raise ValueError(f"tie_tol must be >= 0, got {tie_tol}")
    ranked = np.take(candidate, pattern.order)
    above, below = ranked[:-1], ranked[1:]
    ok = np.all(above > below, axis=0).any(axis=0)
    if not ok.all():
        # a column in neither order passes where admissible and tied; it
        # is tied where some pair is within tie_tol, as no pair's gap is
        # below the least gap between sorted neighbours, rounding included
        admissible = np.all(above >= below - tie_tol, axis=0).any(axis=0)
        maybe = np.flatnonzero(admissible & ~ok)
        values = candidate[:, maybe]
        i, j = np.triu_indices(len(candidate), 1)
        ok[maybe] = ~np.all(np.abs(values[i] - values[j]) > tie_tol, axis=0)
    bad = np.flatnonzero(~ok)
    if len(bad):
        first = int(bad[0])
        return OmegaTypeReport(False, first_violation=float(pattern.u[first]),
                               intervals_checked=first)
    return OmegaTypeReport(True, intervals_checked=candidate.shape[1])


def build_extremal(q: int, generator: int, D: Sequence[int],
                   beta1: float = 0.75, gamma: float = 1000.0,
                   K: int = 16, N: int = 64, seed: int = 0) -> BarrierRecipe:
    """Emit a bounded extremal barrier for D (two or more members, no 1, no
    inverse pair) inside the cyclic subgroup generated by `generator`
    (order r >= 6).

    Pipeline: build the crossing-pattern system, Fourier-approximate each
    member (K, 2K, ..., 16K until the truncations follow the pattern), solve
    the per-frequency linear systems for real multiplicity densities (one
    batch), integerize at resolution N (N, ..., 16N until the pattern
    survives), shift to nonnegative integers and emit zeros at beta1 + i k
    gamma on the powers of a character pinned at the generator, by the
    `_thm43_*` stages that the load check runs too.  Every round (through
    `evaluate_phasors`) and the emitted trace are checked against one
    `omega_pattern`.  OmegaTypeLostError names the stage, its last K or N
    and the first w where the pattern broke.
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    for name, value in (("K", K), ("N", N)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 0.5 < beta1 < 1.0:
        raise ValueError("beta1 must lie in (1/2, 1)")
    levels = _thm43_levels(unit_group(q), generator, D)
    r, V = levels["r"], levels["V"]

    omega = build_omega(r, V, seed=seed)
    w_grid = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    pattern = omega_pattern(omega, w_grid)

    # stage 1: truncation order; sum_k b_kv cos(kw) = Im(sum_k i b_kv e^{ikw})
    for K_use in (K << i for i in range(5)):
        coeffs, nu = _thm43_densities(omega, K_use, gamma)
        report = check_omega_type(evaluate_phasors(1j * coeffs, w_grid), pattern)
        if report.ok:
            break
    else:
        raise OmegaTypeLostError(
            f"K escalation exhausted: the truncation at K = {K_use} lost the "
            f"pattern first at w = {report.first_violation:.6g}; raise K")

    # stage 3: integerization resolution.  Member v's candidate is
    # sum_(k,j) c_kj sin(k w + phi_vj), c_kj = counts_kj/N and phi_vj = 2 pi
    # (j v mod r)/r, so its phasor at frequency k is sum_j c_kj e^{i phi_vj}
    turns = np.exp(2j * math.pi * (np.outer(V, np.arange(r)) % r) / r)
    for N_use in (N << i for i in range(5)):
        counts = _thm43_counts(nu, N_use)
        # the candidate tracks -f_v; flip it for the pattern comparison
        report = check_omega_type(-evaluate_phasors(
            turns @ (counts / N_use).T, w_grid), pattern)
        if report.ok:
            break
    else:
        raise OmegaTypeLostError(
            f"N escalation exhausted: the integerization at N = {N_use} lost "
            f"the pattern first at w = {report.first_violation:.6g}; raise N")

    params = {**levels, "a": generator, "beta1": beta1, "gamma": gamma,
              "K": K_use, "N": N_use, "seed": seed,
              "corners": {str(v): omega.corners[v] for v in omega.corners}}
    system = _thm43_system(q, params, counts)
    # the samples `verify_extremal` censuses, at v = w_grid
    trace = one_period_trace(RaceFunctionSet(q, system, levels["D"]),
                             samples=len(w_grid))
    report = check_omega_type(trace.values, pattern)
    if not report.ok:
        raise OmegaTypeLostError(
            f"the emitted dominant trace at K = {K_use}, N = {N_use} lost the "
            f"pattern first at w = {report.first_violation:.6g}; raise gamma or N")
    return BarrierRecipe(kind="thm43_extremal", q=q, params=params,
                         system=system, claim=_claim("thm43_extremal", len(V)))


def _thm43_densities(omega: OmegaSystem, K: int, gamma: float) -> tuple:
    """Stages 1 and 2: the (|V|, K) cosine coefficients of omega's members,
    and the densities nu, row k - 1 for frequency k, that solve for the
    members sign-flipped (so the race traces come out in the pattern's
    order).  RecipeMismatchError unless 1 <= K < 2^53 and K gamma is finite;
    BudgetExceededError if the solve's largest arrays, its K x r x 16
    residuals and r x r cosines and sines, pass the budget."""
    r, V = omega.r, list(omega.V)
    if not (0 < K < 2**53 and math.isfinite(K * gamma)):
        raise RecipeMismatchError(f"K = {K} must be in [1, 2^53), K gamma finite")
    check_budget(r * (16 * K + 2 * r),
                 f"thm43 solve of {K} x {r} x 16 residuals and 2 x {r} x {r} tables")
    coeffs = np.array([fourier_cosine_coeffs(omega, v, K) for v in V])
    d_rows = np.zeros((K, r))
    d_rows[:, V] = -coeffs.T
    d_rows[:, np.subtract(r, V)] = coeffs.T  # d_{r-v} = -d_v, 0 at r/2
    return coeffs, solve_lemma44(r, np.zeros((K, r)), d_rows)


def _thm43_counts(nu: np.ndarray, N: int) -> np.ndarray:
    """Stage 3: the counts floor(N nu + 1e-9), so N nu within 1e-9 of an
    integer counts as that integer.  The solve's matrices have condition
    numbers below 2 for r <= 1000, so a density that is an integer over N
    (0 above all) errs in N nu by under 2 r N EPS max|nu|: below 5e-11 for
    r < 100, N <= 1024 and |nu| < 1, the extremal sweep's ranges (8.5e-14
    seen), while a genuine fraction falls within 1e-9 with odds 2e-9 (4.3e-8
    the sweep's nearest); so no count turns on a rounding error's sign.
    RecipeMismatchError unless 1 <= N < 2^53 and the multiplicities, at
    most 2K (N max|nu| + 1), stay below 2^53, the recipe format's bound."""
    if not (0 < N < 2**53 and 2 * len(nu) * (N * np.abs(nu).max() + 1) < 2**53):
        raise RecipeMismatchError(f"N = {N} must be >= 1 and keep multiplicities below 2^53")
    return np.floor(N * nu + 1e-9).astype(np.int64)


def _thm43_system(q: int, p: dict, counts: np.ndarray) -> ZeroSystem:
    """The zeros of stage 3's counts under params p: with column j = 0 (a
    common-mode term) dropped, n = k counts[k-1, j] less its least entry,
    n of them at beta1 + i k gamma on chi^j, j-major."""
    n = np.arange(1, len(counts) + 1)[:, None] * counts[:, 1:]
    n -= n.min()
    table = characters(q)
    labels = table.labels(np.outer(range(1, p["r"]), table.b[p["chi"]])).tolist()
    return ZeroSystem.from_zeros(
        q, ((labels[j], Zero(p["beta1"], (k + 1) * p["gamma"]), int(n[k, j]))
            for j, k in np.argwhere(n.T > 0).tolist()),
        height_lattice=p["gamma"])


def _thm43_levels(group: ResidueGroup, a: int, D: Sequence[int]) -> dict:
    """The params of a thm43 recipe that its generator a and set D fix:
    a1 = a, r = order(a), V = the powers of D in <a>, sorted, D as V names
    it, and chi, the label of the character with chi(a) = e(-1/r).
    ValueError unless r >= 6 and D has two or more distinct members of <a>,
    without 1 or an inverse pair."""
    r = group.order(a)
    if r < 6:
        raise ValueError(f"subgroup order must be >= 6, got {r}")
    subgroup = group.subgroup(a)
    power = {u: i for i, u in enumerate(subgroup)}
    V = sorted(power.get(u % group.q, 0) for u in D)  # 0: 1 or outside <a>
    if any(v == 0 or v != r - v and r - v in V for v in V):
        raise ValueError(f"D may hold only powers of {a} other than 1, "
                         f"without an inverse pair")
    if len(V) < 2:
        raise ValueError("D needs at least two members")
    if len(set(V)) < len(V):
        raise ValueError("D names a member twice")
    return {"a1": a, "r": r, "V": V, "D": [subgroup[v] for v in V],
            "chi": characters(group.q).label_with((a, Fraction(-1, r)))}


def _check_thm43(recipe: BarrierRecipe) -> None:
    """RecipeMismatchError unless the kind is thm43_extremal, the params
    hold `_thm43_levels` of their a and D and the corners `build_omega`
    draws from their seed, the claim is `_claim`'s for |V|, beta1 is a
    float in (1/2, 1) and the system's zeros are those the builder's
    `_thm43_*` stages emit from the corners and the int params K and N
    (which bound K and N first); no decomposition is read."""
    if recipe.kind != "thm43_extremal":
        raise RecipeMismatchError(f"kind {recipe.kind!r} is not thm43_extremal")
    p = _check_params(recipe, ("a", "K", "N", "seed"))
    group = unit_group(recipe.q)
    try:  # a D that is not a list of ints fails here or in the compare
        want = _thm43_levels(group, p["a"], p.get("D"))
        omega = build_omega(want["r"], want["V"], p["seed"])
    except (TypeError, ValueError, OmegaConstructionError) as exc:
        raise RecipeMismatchError(
            f"thm43 D {p.get('D')!r} with seed {p['seed']}: {exc}") from None
    if p.get("corners") != {str(v): t for v, t in omega.corners.items()}:
        raise RecipeMismatchError(f"thm43 corners are not seed {p['seed']}'s")
    _check_params(recipe, (), want, _claim(recipe.kind, len(want["V"])), "beta1")
    nu = _thm43_densities(omega, p["K"], p["gamma"])[1]
    if recipe.system.entries != _thm43_system(
            recipe.q, p, _thm43_counts(nu, p["N"])).entries:
        raise RecipeMismatchError("the zeros are not those its K, N and beta1 emit")


def verify_extremal(recipe: BarrierRecipe) -> Verdict:
    """`_check_thm43`, which requires the zeros the params re-emit, then the
    census of D over one period against the claimed |D|(|D|-1)/2 + 1."""
    _check_thm43(recipe)
    D = tuple(recipe.params["D"])
    trace = one_period_trace(RaceFunctionSet(recipe.q, recipe.system, D))
    return verdict(census(trace), "extremal_exact", r=len(D))


# --- the layered census barrier ------------------------------------------------------


class WSystem(NamedTuple):
    """Level waves of a layered system: per level j its exponent beta_j, the
    generator order n_j, the two coefficients, the crossing points theta of
    each pair of phases, and the condition margins."""

    betas: Tuple[float, ...]
    orders: Tuple[int, ...]
    gamma: float
    M: int
    theta: Dict[Tuple[int, int, int], Tuple[float, float]]
    margins: Dict[str, float]


def build_thm51(q: int, tau: float = 0.0, M: int = 64,
                gamma: float | None = None,
                betas: Sequence[float] | None = None) -> BarrierRecipe:
    """Emit the layered census barrier: one level per group generator
    (`_thm51_levels`), two lattice heights per level, coefficients (1, 0)
    on order-2 levels and (M, 1) otherwise.  Verifies the level-wave
    conditions (A)-(D); on failure the caller should increase M or perturb
    the betas.  M < 1 is refused (ValueError) before anything is built."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    levels = _thm51_levels(q)
    gamma = gamma if gamma is not None else max(tau + 1.0, 1000.0, 10.0 * M)
    if not (math.isfinite(tau) and math.isfinite(gamma)):
        raise ValueError("tau and gamma must be finite")
    if gamma <= tau:
        raise ValueError("gamma must exceed tau")
    if betas is None:
        betas = list(np.linspace(0.9, 0.6, len(levels["orders"]) + 2)[1:-1])
    betas = [float(b) for b in betas]

    params = {**levels, "betas": betas, "gamma": gamma, "M": M}
    recipe = BarrierRecipe(kind="thm51_census", q=q, params=params,
                           system=_thm51_system(q, params),
                           claim=_claim("thm51_census"))
    check_thm51_conditions(recipe)  # raises ConditionFailedError on failure
    return recipe


def _thm51_levels(q: int) -> dict:
    """The thm51 level params, which q alone fixes: per generator g_j of
    order n_j, [g_j, n_j], n_j and the label of chi_j, chi_j(g_j) = e(-1/n_j)
    and 1 at the other generators."""
    gens = unit_group(q).generators
    duals = np.diag([n - 1 for _, n in gens])  # row j: chi_j's exponents
    return {"generators": [list(g) for g in gens],
            "orders": [n for _, n in gens],
            "chars": characters(q).labels(duals).tolist()}


def _thm51_system(q: int, p: dict) -> ZeroSystem:
    """The zeros that thm51 params describe: c_{j,k} of them at
    beta_j + i k gamma on chi_j^k, k = 1, 2, with coefficients (1, 0) on
    order-2 levels and (M, 1) otherwise."""
    table = characters(q)
    return ZeroSystem.from_zeros(
        q, ((int(table.labels(k * table.b[label])), Zero(beta, k * p["gamma"]), c)
            for label, n_j, beta in zip(p["chars"], p["orders"], p["betas"])
            for k, c in zip((1, 2), (1, 0) if n_j == 2 else (p["M"], 1))),
        height_lattice=p["gamma"])


def _thm51_waves(p: dict) -> Dict[Tuple[int, int], TrigPoly]:
    """The level waves of thm51 params p, keyed (j, alpha) j-major:
    w_{j,alpha}(u) = sum_k c_{j,k}/|beta_j + i k gamma| sin(k gamma u +
    2 pi k alpha/n_j + atan(beta_j/(k gamma))), with the coefficients
    c_{j,k} of `_thm51_system` (TrigPoly drops the zero ones)."""
    gamma = p["gamma"]
    return {(j, alpha): TrigPoly(
                (c / math.hypot(k * gamma, beta), k * gamma,
                 2.0 * math.pi * ((k * alpha) % n_j) / n_j
                 + math.atan2(beta, k * gamma))
                for k, c in zip((1, 2), (1, 0) if n_j == 2 else (p["M"], 1)))
            for j, (n_j, beta) in enumerate(zip(p["orders"], p["betas"]), start=1)
            for alpha in range(n_j)}


def _check_thm51(recipe: BarrierRecipe) -> None:
    """RecipeMismatchError unless the kind is thm51_census, the levels are
    `_thm51_levels`, the claim is `_claim`'s, betas decrease strictly in
    (1/2, 1), M is an int >= 1 and the system's zeros are those
    `_thm51_system` emits for the params; no decomposition is read."""
    if recipe.kind != "thm51_census":
        raise RecipeMismatchError(f"kind {recipe.kind!r} is not thm51_census")
    want = _thm51_levels(recipe.q)
    p, orders = _check_params(recipe, ("M",), want, _claim(recipe.kind)), want["orders"]
    betas = p.get("betas")
    if not (isinstance(betas, list) and len(betas) == len(orders)
            and all(type(b) in (int, float) for b in betas)
            and all(x > y for x, y in zip([1, *betas], [*betas, 0.5]))):
        raise RecipeMismatchError(f"betas {betas!r} must decrease strictly "
                                  f"in (1/2, 1), one per level")
    if p["M"] < 1:
        raise RecipeMismatchError(f"M must be >= 1, got {p['M']}")
    if recipe.system.entries != _thm51_system(recipe.q, p).entries:
        raise RecipeMismatchError(
            f"the system's zeros are not the levels' (1, 0) at order 2 and "
            f"(M, 1) above at beta_j + i k gamma, with M = {p['M']}")


# the load check of each recipe kind, which its verifier runs too
_KIND_CHECKS = {**{f"thm311_{case}": _check_thm311 for case in _THM311_INTS},
                "thm43_extremal": _check_thm43, "thm51_census": _check_thm51}


def check_thm51_conditions(recipe: BarrierRecipe) -> WSystem:
    """Verify (A) two crossings per wave pair and period, (B) all crossing
    points distinct and nonzero, (C) derivative gaps at every crossing, and
    (D) level-to-level difference non-degeneracy, with explicit margins,
    on the waves of the params (`_thm51_waves`) once the load check
    (`_check_thm51`) has pinned the system's zeros to them.

    One `trigpoly.roots` call isolates every wave pair's crossings by Taylor
    cells; their radii, with the rounding bounds, set the tolerances of
    (B)-(D).  (D) and (5.19) are smallest gaps between sorted pair values.
    `_taylor_table` bounds the waves as rows F(v) of one phasor table, v =
    gamma u: (C) takes gamma delta' and gamma^2 L2 (f' = gamma F', f'' =
    gamma^2 F''), (D) delta + pi EPS lip/gamma (v rounds by <= pi EPS)."""
    _check_thm51(recipe)
    p = recipe.params
    waves = _thm51_waves(p)
    gamma, betas, orders, M = p["gamma"], p["betas"], p["orders"], p["M"]
    period = 2.0 * math.pi / gamma
    m = len(orders)

    keys = [(j, a1, a2) for j, n_j in enumerate(orders, start=1)
            for a1 in range(n_j) for a2 in range(a1 + 1, n_j)]
    found = trig_roots([waves[(j, a1)] + waves[(j, a2)].scale(-1.0)
                        for j, a1, a2 in keys], gamma)
    for (j, a1, a2), res in zip(keys, found):
        if not res.certified or len(res.roots) != 2:
            raise ConditionFailedError(
                "A", f"level {j} phases ({a1},{a2}): {len(res.roots)} isolated "
                     f"crossings per period, {res.unresolved} unresolved "
                     f"cells")
    theta = {key: (float(res.roots[0]), float(res.roots[1]))
             for key, res in zip(keys, found)}
    level_pts = {j: np.array([t for key, pair in theta.items() if key[0] == j
                              for t in pair]) for j in range(1, m + 1)}

    # each margin moves by at most (its Lipschitz bound) * radius between a
    # computed crossing point and the true one, plus the rounding bounds
    radius = max(float(res.radii.max()) for res in found)
    lip = max(w.lipschitz_bound for w in waves.values())
    C = _phasor_table(list(waves.values()), gamma)
    delta, delta1, l2 = (float(x.max()) for x in _taylor_table(C)[1:])
    delta += 4.0 * EPS * lip / gamma  # v = gamma u rounds by <= pi EPS

    # (B): crossing points must also stay clear of 0 (mod period)
    min_gap = float(np.diff([0.0, *sorted(np.concatenate(
        list(level_pts.values()))), period]).min())
    if min_gap <= 2.0 * radius:
        raise ConditionFailedError(
            "B", f"crossing points collide (gap {min_gap:.3g} <= "
                 f"{2.0 * radius:.3g})")

    min_deriv = min(float(np.abs(res.slopes).min()) for res in found)
    deriv_tol = 2.0 * gamma * (gamma * l2 * radius + delta1)
    if min_deriv <= deriv_tol:
        raise ConditionFailedError(
            "C", f"derivative gap {min_deriv:.3g} below {deriv_tol:.3g}")

    def smallest_gap(values: np.ndarray) -> float:
        """Smallest gap between sorted rows, over every column."""
        return float(np.diff(np.sort(values, axis=0), axis=0).min())

    # (D): W3 - W4 - W5 + W6 = (W3 + W6) - (W4 + W5), and the excluded index
    # cases are exactly {a3, a6} = {a4, a5}, so min |D| at a crossing point
    # of a lower level is the smallest gap between sorted pair sums
    min_d, row = math.inf, {key: i for i, key in enumerate(waves)}
    for j_prime in range(1, m + 1):
        for j in range(j_prime + 1, m + 1):
            w = evaluate_phasors(C[[row[(j, a)] for a in range(orders[j - 1])]],
                                 gamma * level_pts[j_prime])
            a, b = np.triu_indices(orders[j - 1])
            min_d = min(min_d, smallest_gap(w[a] + w[b]))
    d_tol = 4.0 * (lip * radius + 2.0 * delta)
    if m >= 2 and min_d <= d_tol:
        raise ConditionFailedError("D", f"difference margin {min_d:.3g}")

    # (5.19)-style polynomial avoidance on the large-order levels: the
    # smallest gap between sorted F(a3, a4) over phase pairs a3 < a4
    min_p = math.inf
    for j in range(2, m + 1):
        if orders[j - 1] >= 4:
            t = np.concatenate([level_pts[i] for i in range(1, j)])
            a3, a4 = np.triu_indices(orders[j - 1], 1)
            min_p = min(min_p, smallest_gap(_avoidance_poly(
                M, betas[j - 1] / gamma, gamma * t[None, :], orders[j - 1],
                a3[:, None], a4[:, None])))
    margins = {"B_min_gap": min_gap, "C_min_derivative_gap": min_deriv,
               "D_min_difference": min_d if m >= 2 else math.inf,
               "P_min_abs": min_p}
    return WSystem(betas=tuple(betas), orders=tuple(orders), gamma=gamma,
                   M=M, theta=theta, margins=margins)


def _avoidance_poly(M: int, z: float, gu, n_j: int, a3, a4):
    """F(a3, a4) at z = beta_j/gamma: the level-to-level condition needs
    F(a3, a4) != F(a5, a6).  Broadcasts over gu and the phase indices."""
    y = gu + math.pi * (a3 + a4) / n_j
    b = math.pi * (a4 - a3) / n_j
    return (M * (4 + z * z) * np.sin(b) * (np.cos(y) - z * np.sin(y))
            + (1 + z * z) * np.sin(2 * b) * (2 * np.cos(2 * y) - z * np.sin(2 * y)))


# --- hypothesis checkers ---------------------------------------------------------------


class HypothesisReport(NamedTuple):
    theorem: str
    checks: Tuple[Tuple[str, bool, str], ...]
    effective_tau: float | None = None

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def check_hypotheses(thm: int | str, system: ZeroSystem, targets: Sequence[int],
                     n_cap: int | None = None) -> HypothesisReport:
    """Verify the stated hypotheses of the leading/trailing theorems on a
    system: nonempty dominant sets, height thresholds (the effective tau
    from the searches' own EPS3 and eps1), element counts and group shapes."""
    thm = str(thm)
    group = unit_group(system.q)
    checks: List[Tuple[str, bool, str]] = []
    tau_eff: float | None = None

    def dominant_union(residues: Sequence[int]) -> Tuple[bool, set]:
        union = set()
        ok = True
        for a in residues:
            dd = dominant_data(system, a, 1)
            if dd.empty:
                ok = False
                checks.append((f"z({a},1) nonempty", False, "empty"))
            else:
                checks.append((f"z({a},1) nonempty", True, f"beta={dd.beta}"))
                union.update(dd.zeros)
        return ok, union

    def cap(union: set) -> int:
        n = n_cap if n_cap is not None else len(union)
        checks.append((f"|union| <= {n}", len(union) <= n, f"got {len(union)}"))
        return n

    def heights(union: set, threshold: float, name: str) -> None:
        if union:
            mh = min(z.gamma for z in union)
            checks.append((f"heights >= {name}", mh >= threshold, f"min={mh}"))

    if thm == "31":
        checks.append(("1 not in D", 1 not in [t % system.q for t in targets], ""))
        dominant_union(targets)
    elif thm == "34":
        a = targets[0]
        checks.append(("order(a) == 3", group.order(a) == 3, f"a={a}"))
        ok, union = dominant_union([a])
        thr = 2.0 + math.sqrt(3.0)
        if ok:
            heights(union, thr, f"{thr:.7f}")
    elif thm == "36":
        ok, union = dominant_union(targets)
        tau_eff = 1.0 / eps2(cap(union))
        if ok:
            heights(union, tau_eff, f"tau = {tau_eff:.6g}")
    elif thm == "39":
        a1 = targets[0]
        checks.append(("order(a1) == 4", group.order(a1) == 4, f"a1={a1}"))
        ok, union = dominant_union([pow(a1, k, system.q) for k in (1, 2, 3)])
        e2 = eps2(cap(union))
        tau_eff = max(1.0 / e2, 2.0 / (EPS3 * (e2 / 2.0) ** 2))
        if ok:
            heights(union, tau_eff, f"tau = {tau_eff:.6g}")
    elif thm == "47":
        a = targets[0]
        checks.append(("order(a) == 3", group.order(a) == 3, f"a={a}"))
        union = set()
        for pair in ((a, 1), (a, pow(a, 2, system.q))):
            dd = dominant_data(system, pair[0], pair[1])
            checks.append((f"z({pair[0]},{pair[1]}) nonempty", not dd.empty, ""))
            union.update(dd.zeros)
        n = cap(union)
        tau_eff = max(1.0 / eps2(n), 1.0 / eps1(n))
        heights(union, tau_eff, f"tau = {tau_eff:.6g}")
    else:
        raise ValueError(f"unknown theorem {thm!r}")
    return HypothesisReport(theorem=thm, checks=tuple(checks),
                            effective_tau=tau_eff)
