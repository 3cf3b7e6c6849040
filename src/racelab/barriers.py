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

All verification scans are Lipschitz-certified grids with local refinement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .residues import (DirichletCharacter, character_label,
                       character_with_value, characters, unit_group)
from .orderings import column_orders
from .simulator import dominant_member_values, theorem_decomposition
from .trigpoly import (ScanReport, TrigPoly, certified_positive_scan, eps1,
                       eps2)
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


def qpr_polys() -> Tuple[TrigPoly, TrigPoly, TrigPoly]:
    """The fixed trio: Q = 2 sin v + sin(6v)/2, P = 2 cos v - cos(6v)/2,
    R = sum_{k=2}^{7} (p_k/k) sin(kv) with p = (1,2,3,4,3,2)."""
    q = TrigPoly.sine([2.0, 0.5], [1.0, 6.0])
    p = TrigPoly.cosine([2.0, -0.5], [1.0, 6.0])
    r = TrigPoly.sine([w / k for k, w in sorted(SIN_WEIGHTS.items())],
                      [float(k) for k in sorted(SIN_WEIGHTS)])
    return q, p, r


@dataclass(frozen=True)
class PropertyScan:
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
    """Certified grid scan of |P(v)| > sqrt(3) Q(v) on [0, 0.759] u [2.7, 2pi]
    and R(v) < 0 on r_interval."""
    q, p, r = qpr_polys()
    lip_pq = p.lipschitz_bound + math.sqrt(3.0) * q.lipschitz_bound

    def margin(v: np.ndarray) -> np.ndarray:
        return np.abs(p(v)) - math.sqrt(3.0) * q(v)

    pieces = (certified_positive_scan(margin, lip_pq, 0.0, 0.759, step),
              certified_positive_scan(margin, lip_pq, 2.7, 2 * math.pi, step))
    neg_r = certified_positive_scan(lambda v: -r(v), r.lipschitz_bound,
                                    r_interval[0], r_interval[1], step)
    ok = all(s.ok for s in pieces) and neg_r.ok
    return PropertyScan(p_dominates=pieces, r_negative=neg_r, ok=ok)


# --- recipes -------------------------------------------------------------------


@dataclass
class BarrierRecipe:
    """A named construction, its parameters, and the zero system it emits."""

    kind: str
    q: int
    params: dict
    system: ZeroSystem
    claim: str

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "q": self.q, "claim": self.claim,
                           "params": self.params,
                           "system": self.system.to_dict()},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BarrierRecipe":
        d = json.loads(text)
        return cls(kind=d["kind"], q=d["q"], params=d["params"],
                   system=ZeroSystem.from_dict(d["system"]), claim=d["claim"])


# --- the three-residue lattice barrier -------------------------------------------


def _pick_structure(q: int) -> dict:
    """Choose the applicable group-structure case for the modulus."""
    group = unit_group(q)
    orders = {a: group.order(a) for a in group.units}
    # even order >= 6 with odd part >= 3, smallest such order
    cyclic = sorted(n for n in set(orders.values())
                    if n >= 6 and n % 2 == 0 and (n & (n - 1)) != 0)
    if cyclic:
        n = cyclic[0]
        a = min(u for u, o in orders.items() if o == n)
        return {"case": "even_cyclic", "a": a, "n": n}
    if any(o == 8 for o in orders.values()):
        a = min(u for u, o in orders.items() if o == 8)
        return {"case": "n8", "a": a, "n": 8}
    # Z4 x Z2: order-4 element plus an involution outside its span
    quads = sorted(u for u, o in orders.items() if o == 4)
    for a in quads:
        span = set(group.subgroup(a))
        invs = sorted(u for u, o in orders.items() if o == 2 and u not in span)
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
    if gamma <= tau:
        raise ValueError("gamma must exceed tau")
    structure = _pick_structure(q)
    entries: Dict[int, Dict[Zero, int]] = {}

    def put(label: int, k: int, mult: int) -> None:
        ch = entries.setdefault(label, {})
        z = Zero(beta, k * gamma)
        ch[z] = ch.get(z, 0) + mult

    case = structure["case"]
    if case in ("even_cyclic", "n8"):
        a, n = structure["a"], structure["n"]
        chi = character_with_value(q, a, Fraction(-1, n))
        chi_label = character_label(chi)
        labels = {j: character_label(chi**j) for j in range(1, n)}
        if case == "even_cyclic":
            h = n
            d = 0
            while h % 2 == 0:
                h //= 2
                d += 1
            # s must be a multiple of 2^d (so the weight-h carrier cancels)
            # with |tan(2 pi s / (2^d h))| <= sqrt(3); s = 2^d (h-1)/2 gives
            # slope tan(pi/h), which works for every odd h (s = 2^d alone
            # fails at h = 5, where tan(2 pi/5) > sqrt(3))
            s = 2**d * ((h - 1) // 2)
            mults = {(2, 6): 3, ((2 * h - 2) % n, 1): 2}
            for k, w in SIN_WEIGHTS.items():
                mults[(h, k)] = mults.get((h, k), 0) + w
            designated = sorted({s, n - s, n // 2})
            params = {"case": case, "a": a, "n": n, "h": h, "d": d, "s": s,
                      "chi": chi_label, "beta": beta, "gamma": gamma,
                      "designated": designated}
        else:
            s = 3
            mults = {(2, 1): 4}
            for k, w in SIN_WEIGHTS.items():
                mults[(3, k)] = w
                mults[(5, k)] = w
            designated = [3, 4, 5]
            params = {"case": case, "a": a, "n": n, "s": s, "chi": chi_label,
                      "beta": beta, "gamma": gamma, "designated": designated}
        for (j, k), w in mults.items():
            put(labels[j], k, w)
        d_set = [pow(a, r, q) for r in designated]
    else:
        a, b = structure["a"], structure["b"]
        chi1 = _z4z2_chi1(q, a, b)
        chi2 = _z4z2_chi2(q, a, b)
        chi1_label, chi2_label = character_label(chi1), character_label(chi2)
        put(chi1_label, 1, 1)
        for l, w in SIN_WEIGHTS.items():
            put(chi2_label, l, w)
        designated = [(1, 0), (3, 0), (0, 1)]
        params = {"case": "z4z2", "a": a, "b": b, "chi1": chi1_label,
                  "chi2": chi2_label, "beta": beta, "gamma": gamma,
                  "designated": [list(t) for t in designated],
                  "subcase": "z4z2"}
        d_set = [a, pow(a, 3, q), b]
    system = ZeroSystem(q, entries, height_lattice=gamma)
    params["D"] = d_set
    params["size"] = system.size
    return BarrierRecipe(kind=f"thm311_{case}", q=q, params=params,
                         system=system,
                         claim="player-1 neither trails nor leads all of D")


def _z4z2_chi1(q: int, a: int, b: int) -> DirichletCharacter:
    for c in characters(q):
        if c.phase(a) == Fraction(3, 4) and c.phase(b) == 0:
            return c
    raise RuntimeError("no order-4 character separating the Z4 factor")


def _z4z2_chi2(q: int, a: int, b: int) -> DirichletCharacter:
    for c in characters(q):
        if c.phase(a) == 0 and c.phase(b) == Fraction(1, 2):
            return c
    raise RuntimeError("no order-2 character separating the Z2 factor")


@dataclass(frozen=True)
class Thm311Report:
    case: str
    size: int
    scan: ScanReport
    identity_errors: Dict[str, float]
    ok: bool
    offending_v: float | None = None


def verify_thm311(recipe: BarrierRecipe, step: float = 1e-3,
                  identity_tol: float = 1e-12) -> Thm311Report:
    """Certified check that at every v in [0, 2pi) some designated difference
    G_0 - G_r (resp. G_00 - G_rs) is negative, plus the closed-form case
    identities.

    An identity error is sum over frequencies of |phasor of (G_0 - G_r) -
    phasor of the closed form|, which bounds the gap at every v."""
    if not recipe.kind.startswith("thm311"):
        raise ValueError("recipe is not a three-residue lattice barrier")
    params = recipe.params
    case = params["case"]
    decomp = theorem_decomposition(recipe.system, "thm311", params)
    G = decomp["G"]
    g0 = G[(0, 0)] if case == "z4z2" else G[0]
    q_poly, p_poly, r_poly = qpr_polys()
    sin_v, cos_v = TrigPoly.sine([1.0], [1.0]), TrigPoly.cosine([1.0], [1.0])

    def identity_error(r, form: TrigPoly) -> float:
        return TrigPoly.combine([g0, G[r].scale(-1.0),
                                 form.scale(-1.0)]).amplitude_sum

    identity_errors: Dict[str, float] = {}
    if case == "even_cyclic":
        n, s = params["n"], params["s"]
        designated = params["designated"]
        c = 4.0 * math.pi * s / n  # the weight-6 carrier's phase at r = s
        carrier = q_poly.scale(1 - math.cos(c))
        forms = {s: carrier + p_poly.scale(math.sin(c)),
                 n - s: carrier + p_poly.scale(-math.sin(c)),
                 n // 2: r_poly.scale(2.0)}
        for r in sorted(set(designated)):
            identity_errors[f"G0-G{r}"] = identity_error(r, forms[r])
    elif case == "n8":
        designated = params["designated"]
        tail = r_poly.scale(2 - math.sqrt(2))
        forms = [TrigPoly.combine([sin_v.scale(4.0), cos_v.scale(4.0), tail]),
                 TrigPoly.combine([sin_v.scale(4.0), cos_v.scale(-4.0), tail])]
        for r in (3, 5):
            identity_errors[f"G0-G{r}"] = min(identity_error(r, f)
                                              for f in forms)
        identity_errors["G0-G4"] = identity_error(4, r_poly.scale(4.0))
    else:
        designated = [tuple(t) for t in params["designated"]]
        closed = {(1, 0): sin_v + cos_v.scale(-1.0),
                  (3, 0): sin_v + cos_v,
                  (0, 1): r_poly.scale(2.0)}
        for rs in designated:
            identity_errors[f"G00-G{rs[0]}{rs[1]}"] = identity_error(
                rs, closed[rs])

    grs = [G[r] for r in designated]
    lips = [g0.lipschitz_bound + gr.lipschitz_bound for gr in grs]

    def objective(v: np.ndarray) -> np.ndarray:
        # certify: max over designated r of (G_r - G_0) stays positive;
        # x -> fl(x - g) is monotone, so subtracting G_0 once after the max
        # gives the same floats as subtracting it from every G_r
        return np.max(np.vstack([gr(v) for gr in grs]), axis=0) - g0(v)

    scan = certified_positive_scan(objective, max(lips), 0.0, 2 * math.pi, step)
    ok = scan.ok and all(e <= identity_tol for e in identity_errors.values())
    return Thm311Report(case=case, size=recipe.system.size, scan=scan,
                        identity_errors=identity_errors, ok=ok,
                        offending_v=scan.failure_point)


# --- the per-frequency linear solve ------------------------------------------------


def solve_lemma44(r: int, c: Sequence[float], d: Sequence[float],
                  residual_tol: float = 1e-10) -> np.ndarray:
    """Solve sum_j nu_j sin(u + 2 pi j v / r) = c_v sin u + d_v cos u.

    Requires the compatibility symmetries c_v = c_{r-v}, d_0 = 0,
    d_v = -d_{r-v}.  The system splits into a cosine half and a sine half,
    each uniquely solvable; the recombined nu is verified on samples.  c and
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

    rng = np.random.default_rng(12345)
    us = rng.uniform(0, 2 * math.pi, 16)
    jv = np.outer(np.arange(r), np.arange(r)) % r
    lhs = np.tensordot(nu, np.sin(us + 2 * math.pi * jv[:, :, None] / r), 1)
    rhs = c[:, :, None] * np.sin(us) + d[:, :, None] * np.cos(us)
    if np.max(np.abs(lhs - rhs)) > residual_tol:
        raise RuntimeError("solution residual exceeded tolerance "
                           "(internal check)")
    return nu[0] if single else nu


# --- crossing-pattern systems -------------------------------------------------------


@dataclass
class OmegaSystem:
    """A family of even 2pi-periodic zero-mean piecewise-linear functions
    indexed by V, pairwise crossing exactly once on [0, pi] at distinct
    abscissae.  Functions are flat left of their corner and rise with slope
    one up to pi; the member at r/2 (its own inverse) is identically zero."""

    r: int
    V: Tuple[int, ...]
    corners: Dict[int, float]        # v -> corner abscissa (absent for r/2)
    crossings: Dict[Tuple[int, int], float]

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


def build_omega(r: int, V: Sequence[int], seed: int = 0,
                min_gap: float = 5e-3, max_tries: int = 64) -> OmegaSystem:
    """Corner abscissae in general position; collisions between crossing
    points are detected and perturbed away (seeded, deterministic)."""
    V = tuple(sorted(V))
    movable = [v for v in V if 2 * v != r]
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        base = np.linspace(0.35 * math.pi, 0.75 * math.pi, len(movable))
        jitter = rng.uniform(-0.05, 0.05, len(movable)) * math.pi / max(len(movable), 1)
        corners = {v: float(t + j) for v, t, j in zip(movable, base, jitter)}
        omega = OmegaSystem(r=r, V=V, corners=corners, crossings={})
        crossings: Dict[Tuple[int, int], float] = {}
        ok = True
        for i, v in enumerate(V):
            for w in V[i + 1:]:
                crossings[(v, w)] = _omega_crossing(omega, v, w)
        pts = sorted(crossings.values())
        if any(b - a < min_gap for a, b in zip(pts, pts[1:])):
            ok = False
        if pts and (pts[0] < min_gap or pts[-1] > math.pi - min_gap):
            ok = False
        if ok:
            omega.crossings = crossings
            return omega
    raise OmegaConstructionError(
        f"could not separate crossing points after {max_tries} tries")


def _omega_crossing(omega: OmegaSystem, v: int, w: int) -> float:
    zero_v = v not in omega.corners
    zero_w = w not in omega.corners
    if zero_v and zero_w:
        raise OmegaConstructionError("two identically-zero members")
    if zero_v or zero_w:
        x = w if zero_v else v
        theta = omega.corners[x]
        return theta - omega.level(x)
    tv, tw = omega.corners[v], omega.corners[w]
    if tv > tw:
        tv, tw = tw, tv
        v, w = w, v
    cv = -((math.pi - tv) ** 2) / (2 * math.pi)
    cw = -((math.pi - tw) ** 2) / (2 * math.pi)
    return tv + (cw - cv)


def fourier_cosine_coeffs(omega: OmegaSystem, v: int, K: int) -> np.ndarray:
    """b_{k,v} (k = 1..K) of the even zero-mean member v:
    b_k = (2/(pi k^2)) ((-1)^k - cos(k theta_v))."""
    if v not in omega.corners:
        return np.zeros(K)
    theta = omega.corners[v]
    k = np.arange(1, K + 1, dtype=float)
    return 2.0 / (math.pi * k * k) * ((-1.0) ** k - np.cos(k * theta))


@dataclass(frozen=True)
class OmegaTypeReport:
    ok: bool
    first_violation: float | None = None
    intervals_checked: int = 0


def check_omega_type(candidate: np.ndarray, w_grid: np.ndarray,
                     omega: OmegaSystem, tie_tol: float = 0.0) -> OmegaTypeReport:
    """Does the candidate family (rows indexed like omega.V, sampled on one
    period w_grid in [0, 2pi)) follow the reference crossing pattern?

    Between midpoints of consecutive reference crossing points, every sample's
    ordering must match the reference ordering at one of the two midpoints;
    tied samples pass if either reference ordering is admissible once ties
    within tie_tol split.  All columns are ordered at once by
    `orderings.column_orders`, each column's two reference orderings are
    looked up with one searchsorted, and first_violation is the u of the
    first failing column (intervals_checked counts the columns before it).
    """
    pts = omega.crossing_points()
    pts = sorted(pts + [2 * math.pi - p for p in pts])
    mids = [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    wrap_mid = ((pts[-1] + pts[0] + 2 * math.pi) / 2.0) % (2 * math.pi)
    mids = sorted(mids + [wrap_mid])
    ref, _, _ = column_orders(omega.values(np.array(mids)), 0.0)

    u = np.asarray(w_grid, dtype=float) % (2 * math.pi)
    idx = np.searchsorted(mids, u) - 1
    lo = ref[:, idx % len(mids)]
    hi = ref[:, (idx + 1) % len(mids)]
    order, _, strict = column_orders(candidate, tie_tol)

    def admissible(perm: np.ndarray) -> np.ndarray:
        vals = np.take_along_axis(candidate, perm, axis=0)
        return np.all(vals[:-1] >= vals[1:] - tie_tol, axis=0)

    ok = np.where(strict,
                  np.all(order == lo, axis=0) | np.all(order == hi, axis=0),
                  admissible(lo) | admissible(hi))
    bad = np.flatnonzero(~ok)
    if len(bad):
        return OmegaTypeReport(False, first_violation=float(u[bad[0]]),
                               intervals_checked=int(bad[0]))
    return OmegaTypeReport(True, intervals_checked=candidate.shape[1])


def build_extremal(q: int, generator: int, D: Sequence[int],
                   beta1: float = 0.75, gamma: float = 1000.0,
                   K: int = 16, N: int = 64, seed: int = 0,
                   max_escalations: int = 5) -> BarrierRecipe:
    """Emit a bounded extremal barrier for D (two or more members, no 1, no
    inverse pair) inside the cyclic subgroup generated by `generator`
    (order r >= 6).

    Pipeline: build the crossing-pattern system, Fourier-approximate each
    member (escalating K until the truncations follow the pattern), solve the
    per-frequency linear systems for real multiplicity densities (one batch),
    integerize at resolution N (escalating until the pattern survives; every
    N round shares one sine and one cosine table), shift to nonnegative
    integers and emit zeros at beta1 + i k gamma on the powers of a
    character pinned at the generator.
    """
    group = unit_group(q)
    r = group.order(generator)
    if r < 6:
        raise ValueError(f"subgroup order must be >= 6, got {r}")
    if not 0.5 < beta1 < 1.0:
        raise ValueError("beta1 must lie in (1/2, 1)")
    subgroup = group.subgroup(generator)
    power = {a: i for i, a in enumerate(subgroup)}
    V: List[int] = []
    for a in D:
        a %= q
        if a not in power:
            raise ValueError(f"{a} is outside the subgroup of {generator}")
        V.append(power[a])
    V = sorted(V)
    if 0 in V:
        raise ValueError("1 may not belong to D")
    for v in V:
        if v != r - v and (r - v) in V:
            raise ValueError("D may not contain an inverse pair")
    if len(V) < 2:
        raise ValueError("D needs at least two members")
    if len(set(V)) < len(V):
        raise ValueError("D names a member twice")

    omega = build_omega(r, V, seed=seed)
    w_grid = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)

    # stage 1: truncation order; stage 3 reuses the last cosine table
    K_use = K
    for _ in range(max_escalations):
        k = np.arange(1, K_use + 1)[:, None]
        coeffs = np.array([fourier_cosine_coeffs(omega, v, K_use) for v in V])
        cos_kw = np.outer(k, w_grid)
        np.cos(cos_kw, out=cos_kw)
        if check_omega_type(coeffs @ cos_kw, w_grid, omega).ok:
            break
        K_use *= 2
    else:
        raise OmegaTypeLostError("K escalation exhausted; raise K")

    # stage 2: the per-frequency solves, row k-1 for frequency k.  Targets
    # are the sign-flipped members (so the emitted race traces come out
    # ordered like the reference pattern), completed by d_{r-v} = -d_v; the
    # member r/2 is zero, so its two writes agree
    d_rows = np.zeros((K_use, r))
    d_rows[:, V] = -coeffs.T
    d_rows[:, np.subtract(r, V)] = coeffs.T
    nu = solve_lemma44(r, np.zeros((K_use, r)), d_rows)

    # stage 3: integerization resolution.  Member v's candidate is
    # sum_(k,j) c_kj sin(k w + phi_vj), c_kj = n_kj/(kN) and
    # phi_vj = 2 pi (j v mod r)/r.  By angle addition that is
    # sum_k (cos phi . c)_vk sin(k w) + (sin phi . c)_vk cos(k w), so the
    # K x 4096 sine and cosine tables are built once, and each N round forms
    # two (|V|, K) matrices
    sin_kw = np.outer(k, w_grid)
    np.sin(sin_kw, out=sin_kw)
    phase = 2 * math.pi * (np.outer(V, np.arange(r)) % r) / r
    N_use = N
    for _ in range(max_escalations):
        n_tilde = k * np.floor(N_use * nu).astype(np.int64)
        coef = n_tilde / (k * N_use)
        cand = ((np.cos(phase) @ coef.T) @ sin_kw
                + (np.sin(phase) @ coef.T) @ cos_kw)
        # candidate tracks -f_v; flip for the pattern comparison
        if check_omega_type(-cand, w_grid, omega).ok:
            break
        N_use *= 2
    else:
        raise OmegaTypeLostError("N escalation exhausted; raise N")

    shift = int(n_tilde[:, 1:].min())
    n_final = n_tilde[:, 1:] - shift  # drop j=0: a common-mode term

    chi = character_with_value(q, generator, Fraction(-1, r))
    entries: Dict[int, Dict[Zero, int]] = {}
    for j in range(1, r):
        label = character_label(chi**j)
        for k in range(1, K_use + 1):
            mult = int(n_final[k - 1, j - 1])
            if mult > 0:
                ch = entries.setdefault(label, {})
                z = Zero(beta1, k * gamma)
                ch[z] = ch.get(z, 0) + mult
    system = ZeroSystem(q, entries, height_lattice=gamma)

    members = [subgroup[v] for v in V]
    trace_vals = dominant_member_values(system, members,
                                        w_grid / gamma)
    final = check_omega_type(trace_vals, w_grid, omega)
    if not final.ok:
        raise OmegaTypeLostError(
            "emitted dominant trace lost the pattern; raise gamma or N")

    params = {"a1": generator, "r": r, "V": V, "D": members, "beta1": beta1,
              "gamma": gamma, "K": K_use, "N": N_use, "seed": seed,
              "chi": character_label(chi), "size": system.size,
              "corners": {str(v): omega.corners[v] for v in omega.corners},
              "a": generator}
    return BarrierRecipe(kind="thm43_extremal", q=q, params=params,
                         system=system,
                         claim=f"census of D capped at {len(V)*(len(V)-1)//2 + 1}")


# --- the layered census barrier ------------------------------------------------------


@dataclass
class WSystem:
    """Level waves of a layered system: per level j its exponent beta_j, the
    generator order n_j, the two coefficients, the crossing points theta of
    each pair of phases, and the condition margins."""

    betas: Tuple[float, ...]
    orders: Tuple[int, ...]
    gamma: float
    M: int
    theta: Dict[Tuple[int, int, int], Tuple[float, float]]
    margins: Dict[str, float]


def _wave_crossings(w1: TrigPoly, w2: TrigPoly, period: float,
                    samples: int = 1 << 14) -> List[Tuple[float, float]]:
    """(root, bracket width) of each zero of w1 - w2 on [0, period).

    Within one pair the two roots sit about half a period apart, so a grid of
    this density cannot merge them; the bisection then localizes each root to
    machine scale, which is what the distinctness condition compares against
    (crossings of different pairs can be separated by as little as
    beta/gamma^2).  A grid value that is exactly zero is a root of width 0;
    a cell is bisected only when both its end values are nonzero and of
    opposite sign.  All brackets are bisected together, each until its
    midpoint no longer splits it (at most 80 steps)."""
    u = np.linspace(0.0, period, samples, endpoint=False)
    diff = w1(u) - w2(u)
    fb = np.roll(diff, -1)
    cells = np.flatnonzero((diff != 0.0) & (fb != 0.0) & ((diff > 0) != (fb > 0)))
    lo = u[cells]
    hi = np.append(u[1:], period)[cells]
    flo = diff[cells]
    active = np.ones(len(cells), dtype=bool)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            break
        fm = w1(mid) - w2(mid)
        left = active & ((fm > 0) == (flo > 0))
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(active & ~left, mid, hi)
    zeros = np.flatnonzero(diff == 0.0)
    at = np.concatenate([zeros, cells])
    roots = np.concatenate([u[zeros], 0.5 * (lo + hi)])
    widths = np.concatenate([np.zeros(len(zeros)), hi - lo])
    pick = np.argsort(at, kind="stable")
    return list(zip(roots[pick].tolist(), widths[pick].tolist()))


def build_thm51(q: int, tau: float = 0.0, M: int = 64,
                gamma: float | None = None,
                betas: Sequence[float] | None = None) -> BarrierRecipe:
    """Emit the layered census barrier: one level per group generator, two
    lattice heights per level, coefficients (1, 0) on order-2 levels and
    (M, 1) otherwise.  Verifies the level-wave conditions (A)-(D); on
    failure the caller should increase M or perturb the betas."""
    group = unit_group(q)
    gens = group.generators
    m = len(gens)
    gamma = gamma if gamma is not None else max(tau + 1.0, 1000.0, 10.0 * M)
    if gamma <= tau:
        raise ValueError("gamma must exceed tau")
    if betas is None:
        betas = list(np.linspace(0.9, 0.6, m + 2)[1:-1])
    betas = [float(b) for b in betas]
    if len(betas) != m or any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])) \
            or not all(0.5 < b < 1.0 for b in betas):
        raise ValueError("betas must be strictly decreasing in (1/2, 1)")

    # level j's character is the generator dual: chi_j(g_j) = e(-1/n_j),
    # chi_j(g_h) = 1 for h != j
    duals = [DirichletCharacter(q, tuple(n_j - 1 if h == j else 0
                                         for h in range(m)))
             for j, (_, n_j) in enumerate(gens)]
    char_labels = [character_label(chi) for chi in duals]

    entries: Dict[int, Dict[Zero, int]] = {}
    orders = []
    for chi, (_, n_j), beta in zip(duals, gens, betas):
        orders.append(n_j)
        c = (1, 0) if n_j == 2 else (M, 1)
        for k in (1, 2):
            if c[k - 1]:
                lab_k = character_label(chi**k)
                ch = entries.setdefault(lab_k, {})
                z = Zero(beta, k * gamma)
                ch[z] = ch.get(z, 0) + c[k - 1]
    system = ZeroSystem(q, entries, height_lattice=gamma)
    params = {"chars": char_labels, "betas": betas, "orders": orders,
              "gamma": gamma, "M": M, "size": system.size,
              "generators": [list(g) for g in gens]}
    recipe = BarrierRecipe(kind="thm51_census", q=q, params=params,
                           system=system,
                           claim="census of any r members capped at r(r-1)")
    check_thm51_conditions(recipe)  # raises ConditionFailedError on failure
    return recipe


def check_thm51_conditions(recipe: BarrierRecipe,
                           samples: int = 1 << 14) -> WSystem:
    """Verify (A) two crossings per wave pair and period, (B) all crossing
    points distinct and nonzero, (C) derivative gaps at every crossing, and
    (D) level-to-level difference non-degeneracy, with explicit margins."""
    p = recipe.params
    decomp = theorem_decomposition(recipe.system, "thm51", p)
    waves: Dict[Tuple[int, int], TrigPoly] = decomp["w"]
    gamma = p["gamma"]
    period = 2.0 * math.pi / gamma
    betas, orders, M = p["betas"], p["orders"], p["M"]

    theta: Dict[Tuple[int, int, int], Tuple[float, float]] = {}
    width = 0.0
    for j, n_j in enumerate(orders, start=1):
        for a1 in range(n_j):
            for a2 in range(a1 + 1, n_j):
                roots = _wave_crossings(waves[(j, a1)], waves[(j, a2)],
                                        period, samples)
                if len(roots) != 2:
                    raise ConditionFailedError(
                        "A", f"level {j} phases ({a1},{a2}) crossed "
                             f"{len(roots)} times per period")
                theta[(j, a1, a2)] = (roots[0][0], roots[1][0])
                width = max(width, roots[0][1], roots[1][1])

    width = max(width, 64.0 * np.finfo(float).eps * period)
    pts = sorted(t for pair in theta.values() for t in pair)
    gap_tol = 10.0 * width  # roots are localized far below the scan grid
    min_gap = math.inf
    if pts:
        # crossing points must also stay clear of 0 (mod period)
        min_gap = min(min_gap, *np.diff(pts).tolist(), pts[0], period - pts[-1])
    if min_gap <= gap_tol:
        raise ConditionFailedError(
            "B", f"crossing points collide (gap {min_gap:.3g} <= {gap_tol:.3g})")

    m = len(orders)
    keys = np.array(list(theta))            # rows (j, a1, a2)
    roots = np.array(list(theta.values()))  # rows (t0, t1)

    def wave_table(j: int, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        """W[a, k]: level j's wave of phase a (or its derivative) at t[k]."""
        return np.array([waves[(j, a)].derivative(t) if derivative
                         else waves[(j, a)](t) for a in range(orders[j - 1])])

    min_deriv = math.inf
    second_deriv = max(sum(abs(c) * t * t for c, t, _ in w.terms)
                       for w in waves.values())
    for j in range(1, m + 1):
        rows = keys[:, 0] == j
        t = roots[rows].ravel()
        a1, a2 = np.repeat(keys[rows, 1], 2), np.repeat(keys[rows, 2], 2)
        d = wave_table(j, t, derivative=True)
        k = np.arange(len(t))
        min_deriv = min(min_deriv, float(np.min(np.abs(d[a1, k] - d[a2, k]))))
    deriv_tol = 10.0 * width * 2.0 * second_deriv
    if min_deriv <= deriv_tol:
        raise ConditionFailedError(
            "C", f"derivative gap {min_deriv:.3g} below {deriv_tol:.3g}")

    # (D): for each a3, the differences W3 - W4 - W5 + W6 over every
    # (a4, a5, a6) and every crossing point of the lower-index level at once
    min_d = math.inf
    for j_prime in range(1, m + 1):
        t = roots[keys[:, 0] == j_prime].ravel()
        for j in range(j_prime + 1, m + 1):
            n_j = orders[j - 1]
            table = wave_table(j, t)
            a4, a5, a6 = np.ix_(*[np.arange(n_j)] * 3)
            for a3 in range(n_j):
                keep = ~((a3 == a5) & (a4 == a6)) & ~((a3 == a4) & (a5 == a6))
                val = (table[a3][None, None, None] - table[:, None, None]
                       - table[None, :, None] + table[None, None, :])
                min_d = min(min_d, float(np.min(np.abs(val[keep]))))
    d_tol = 10.0 * width * 4.0 * max(w.lipschitz_bound for w in waves.values())
    if m >= 2 and min_d <= d_tol:
        raise ConditionFailedError("D", f"difference margin {min_d:.3g}")

    margins = {"B_min_gap": min_gap, "C_min_derivative_gap": min_deriv,
               "D_min_difference": min_d if m >= 2 else math.inf}
    # (5.19)-style polynomial avoidance on the large-order levels
    min_p = math.inf
    for j in range(2, m + 1):
        n_j = orders[j - 1]
        if n_j < 4:
            continue
        t = roots[keys[:, 0] < j].ravel()
        a3, a4 = np.triu_indices(n_j, 1)  # phase pairs a3 < a4
        p1, p2 = np.nonzero(~np.eye(len(a3), dtype=bool))  # distinct pairs
        val = _avoidance_poly(M, betas[j - 1] / gamma, gamma * t[None, :], n_j,
                              a3[p1, None], a4[p1, None], a3[p2, None],
                              a4[p2, None])
        min_p = min(min_p, float(np.min(np.abs(val))))
    margins["P_min_abs"] = min_p
    return WSystem(betas=tuple(betas), orders=tuple(orders), gamma=gamma,
                   M=M, theta=theta, margins=margins)


def _avoidance_poly(M: int, z: float, gu, n_j: int, a3, a4, a5, a6):
    """The degeneracy polynomial whose nonvanishing at z = beta_j/gamma
    underpins the level-to-level condition; broadcasts over gu and the
    phase indices."""
    y1 = gu + math.pi * (a3 + a4) / n_j
    y2 = gu + math.pi * (a5 + a6) / n_j
    b1 = math.pi * (a4 - a3) / n_j
    b2 = math.pi * (a6 - a5) / n_j
    return (M * (4 + z * z) * (np.sin(b1) * (np.cos(y1) - z * np.sin(y1))
                               - np.sin(b2) * (np.cos(y2) - z * np.sin(y2)))
            + (1 + z * z) * (np.sin(2 * b1) * (2 * np.cos(2 * y1) - z * np.sin(2 * y1))
                             - np.sin(2 * b2) * (2 * np.cos(2 * y2) - z * np.sin(2 * y2))))


# --- hypothesis checkers ---------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    checks: Tuple[Tuple[str, bool, str], ...]
    effective_tau: float | None = None

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def check_hypotheses(thm: int | str, system: ZeroSystem,
                     targets: Sequence[int], n_cap: int | None = None,
                     eps3: float = 1e-3, C: float = 10.0) -> HypothesisReport:
    """Verify the stated hypotheses of the leading/trailing theorems on a
    system: nonempty dominant sets, height thresholds (with the effective tau
    computed from the search constants), element counts and group shapes."""
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

    if thm == "31":
        checks.append(("1 not in D", 1 not in [t % system.q for t in targets], ""))
        dominant_union(targets)
    elif thm == "34":
        a = targets[0]
        checks.append(("order(a) == 3", group.order(a) == 3, f"a={a}"))
        ok, union = dominant_union([a])
        thr = 2.0 + math.sqrt(3.0)
        if ok:
            mh = min(z.gamma for z in union)
            checks.append((f"heights >= {thr:.7f}", mh >= thr, f"min={mh}"))
    elif thm == "36":
        ok, union = dominant_union(targets)
        n = n_cap if n_cap is not None else len(union)
        checks.append((f"|union| <= {n}", len(union) <= n, f"got {len(union)}"))
        tau_eff = 1.0 / eps2(n)
        if ok and union:
            mh = min(z.gamma for z in union)
            checks.append((f"heights >= tau = {tau_eff:.6g}", mh >= tau_eff,
                           f"min={mh}"))
    elif thm == "39":
        a1 = targets[0]
        checks.append(("order(a1) == 4", group.order(a1) == 4, f"a1={a1}"))
        members = [pow(a1, k, system.q) for k in (1, 2, 3)]
        ok, union = dominant_union(members)
        n = n_cap if n_cap is not None else len(union)
        checks.append((f"|union| <= {n}", len(union) <= n, f"got {len(union)}"))
        e2 = eps2(n)
        tau_eff = max(1.0 / e2, 2.0 / (eps3 * (e2 / 2.0) ** 2))
        if ok and union:
            mh = min(z.gamma for z in union)
            checks.append((f"heights >= tau = {tau_eff:.6g}", mh >= tau_eff,
                           f"min={mh}"))
    elif thm == "47":
        a = targets[0]
        checks.append(("order(a) == 3", group.order(a) == 3, f"a={a}"))
        a2 = pow(a, 2, system.q)
        union = set()
        for pair in ((a, 1), (a, a2)):
            dd = dominant_data(system, pair[0], pair[1])
            checks.append((f"z({pair[0]},{pair[1]}) nonempty", not dd.empty, ""))
            union.update(dd.zeros)
        n = n_cap if n_cap is not None else len(union)
        checks.append((f"|union| <= {n}", len(union) <= n, f"got {len(union)}"))
        tau_eff = max(1.0 / eps2(n), 1.0 / eps1(n, C))
        if union:
            mh = min(z.gamma for z in union)
            checks.append((f"heights >= tau = {tau_eff:.6g}", mh >= tau_eff,
                           f"min={mh}"))
    else:
        raise ValueError(f"unknown theorem {thm!r}")
    return HypothesisReport(theorem=thm, checks=tuple(checks),
                            effective_tau=tau_eff)
