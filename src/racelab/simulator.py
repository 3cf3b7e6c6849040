"""The explicit-formula engine.

Race functions built from a hypothetical zero system:

    P_{q,a}(x; B) = pi(x)/phi(q)
                    - (2/phi(q)) Re sum_chi conj(chi)(a) sum*_rho n(rho,chi) f(rho),

    f(rho) = x^rho/(rho log x) + (1/rho) int_2^x t^(rho-1)/log^2 t dt,

with the star convention halving real-rho summands.  The dominant part of a
pairwise difference is an almost periodic trigonometric sum with amplitudes
|g(beta+i*gamma)| / |beta+i*gamma|; the residual is reported as an explicit
bound rather than an asymptotic claim.

f(rho) and its error envelope are evaluated in closed form through the
exponential integrals E1 and Ei, computed here in numpy.

Two trace modes: full-formula (closed-form f(rho), refused where u or
R+ u exceeds 690, near the double range) and dominant-only (the scaled
limit the dominant-term analysis uses, valid for any u).  A u-window is a
window, whatever its length.  One period of a height lattice lambda is one
grid in the phase v = lambda u, with each level's weight frozen at the
period's base_u (`one_period_trace`); only that trace is periodic.

Every trace reads one amplitude table, A[a, rho] = sum_chi n(rho, chi)
w(rho) conj(chi)(a) from the characters' integer exponent vectors: the full
formula weights f(rho) by it, and the dominant-only values read A/rho.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Callable, Iterator, Mapping
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .budget import check_budget
from .orderings import OrderingTrace
from .residues import unit_group
from .trigpoly import TrigPoly, evaluate_phasors
from .zerosys import Zero, ZeroSystem, _dominant


class DomainError(ValueError):
    pass


class EmptyDominantSetError(ValueError):
    pass


class OverflowRiskError(ValueError):
    """Full-formula evaluation would overflow; use dominant-only mode."""


class RecipeMismatchError(ValueError):
    """The zero system does not match the decomposition's expected shape."""


LOG2 = math.log(2.0)


# --- exponential integrals ------------------------------------------------------


def _exp1_region(z: np.ndarray) -> np.ndarray:
    """Which expansion `_exp1` uses at each z: 0 the power series, 1 the
    continued fraction, 2 the asymptotic expansion."""
    r = np.abs(z)
    near = (r <= 1.0) | ((z.real < 0.0) & (z.imag**2 < 2.0 * r))
    return np.where(r >= 40.0, 2, np.where(near, 0, 1))


def _exp1(z) -> np.ndarray:
    """E1(z) on the principal branch, elementwise over a complex array,
    to a few ulp against 40-digit mpmath (`tools/e1_sweep.py`).

    - Power series (DLMF 6.6.2), 150 terms: |z| <= 1, and |z| < 40 inside
      the parabola Re z < 0, Im(z)^2 < 2|z|.  There the continued fraction
      converges slowly, while the series' terms cancel by at most e^2; in
      the wider sector |Im z| < -Re z they cancel by up to e^12.
    - Asymptotic expansion (DLMF 6.12.1), 40 terms: |z| >= 40.
    - Continued fraction (the even part of DLMF 6.9.1) elsewhere, evaluated
      backward from depth 300; forward (Lentz) evaluation loses digits near
      the imaginary axis.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty_like(flat)
    region = _exp1_region(flat)
    series, fraction, asymptotic = (region == k for k in range(3))
    if series.any():
        s = flat[series]
        term = np.ones_like(s)
        acc = np.zeros_like(s)
        for k in range(1, 151):
            term = term * (-s) / k
            acc += term / k
        out[series] = -np.euler_gamma - np.log(s) - acc
    if asymptotic.any():
        s = flat[asymptotic]
        acc = np.ones_like(s)
        for k in range(39, 0, -1):
            acc = 1.0 - k * acc / s
        out[asymptotic] = np.exp(-s) / s * acc
    if fraction.any():
        s = flat[fraction]
        acc = s + 601.0
        for k in range(300, 0, -1):
            acc = s + (2 * k - 1) - k * k / acc
        out[fraction] = np.exp(-s) / acc
    return out.reshape(z.shape)


def _ei(x) -> np.ndarray:
    """Ei(x) for real x, as -Re E1(-x + 0i) (DLMF 6.2.6)."""
    return -_exp1(-np.asarray(x, dtype=float) + 0j).real


# --- f(rho) -------------------------------------------------------------------


def _f_table(rho: Sequence[complex], x: Sequence[float],
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(main, tail, envelope) of f(rho) at every (rho[i], x[k]), x >= 2, as
    (len(rho), len(x)) arrays, in closed form.

    With v = log t, w = log x and I(s) = int_(log 2)^w e^(s v)/v dv,
    integration by parts gives

        f(rho) = 2^rho/(rho log 2) + I(rho),
        int_2^x t^(beta-1)/log^2 t dt = 2^beta/log 2 - x^beta/w + beta I(beta),

    where I(rho) = E1(-rho log 2) - E1(-rho w) off the real axis and
    I(beta) = Ei(beta w) - Ei(beta log 2) on it (DLMF 6.2).  main is
    x^rho/(rho log x), tail = f - main, and envelope is the second integral
    at beta = Re rho.
    """
    rho = np.asarray(rho, dtype=complex).reshape(-1, 1)
    w = np.log(np.asarray(x, dtype=float)).reshape(1, -1)
    beta = rho.real
    ei = np.zeros((rho.shape[0], w.shape[1]))
    # Ei(0) = -inf; at beta = 0 the real rho is excluded and env needs no Ei
    live = beta[:, 0] != 0.0
    ei[live] = _ei(beta[live] * w) - _ei(beta[live] * LOG2)
    inner = ei.astype(complex)
    osc = rho.imag[:, 0] != 0.0
    inner[osc] = _exp1(-rho[osc] * LOG2) - _exp1(-rho[osc] * w)
    main = np.exp(rho * w) / (rho * w)
    tail = np.exp(rho * LOG2) / (rho * LOG2) + inner - main
    env = np.exp(beta * LOG2) / LOG2 - np.exp(beta * w) / w + beta * ei
    return main, tail, env


def f_rho_parts(rho: complex, x: float) -> Tuple[complex, complex, float]:
    """(main term, integral term, discard bound) of f(rho) at x.

    main = x^rho/(rho log x); integral = (1/rho) int_2^x t^(rho-1)/log^2 t dt,
    and the discard bound dominates |integral|:
    (1/|rho|) int_2^x t^(Re rho - 1)/log^2 t dt.
    """
    rho = complex(rho)
    if x < 2.0:
        raise DomainError(f"x must be >= 2, got {x}")
    if rho == 0:
        raise DomainError("rho must be nonzero")
    main, tail, env = (a[0, 0] for a in _f_table([rho], [x]))
    return complex(main), complex(tail), float(env) / abs(rho)


def f_rho(rho: complex, x: float) -> complex:
    """f(rho) = x^rho/(rho log x) + (1/rho) int_2^x t^(rho-1)/log^2 t dt."""
    main, tail, _ = f_rho_parts(rho, x)
    return main + tail


def envelope_integral(beta: float, x: float) -> float:
    """int_2^x t^(beta-1)/log^2 t dt (the error envelope of the main term)."""
    if x <= 2.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # f is 1/0 at beta = 0
        return float(_f_table([beta], [x])[2][0, 0])


# --- race function sets ----------------------------------------------------------


def li(x: float) -> float:
    """Logarithmic integral li(x) = PV int_0^x dt/log t."""
    return float(_ei(math.log(x)))


class _RaceFunctionSet(NamedTuple):
    q: int
    system: ZeroSystem
    members: Tuple[int, ...]
    pi_proxy: object


class RaceFunctionSet(_RaceFunctionSet):
    """A modulus, a zero system, the racing residues, and a pi(x) source.

    pi_proxy: "li", "zero" (drop the common pi/phi term; pairwise differences
    are unaffected), a callable x -> pi(x), or a PrimeRaceTable-like object
    exposing pi_at(x).
    """

    __slots__ = ()

    def __new__(cls, q: int, system: ZeroSystem, members: Tuple[int, ...],
                pi_proxy: object = "li") -> "RaceFunctionSet":
        group = unit_group(q)
        for m in members:
            if not group.is_unit(m):
                raise ValueError(f"{m} is not a unit mod {q}")
        if system.q != q:
            raise ValueError("zero system modulus mismatch")
        return super().__new__(cls, q, system, members, pi_proxy)

    def pi_value(self, x: float) -> float:
        proxy = self.pi_proxy
        if proxy == "li":
            return li(x)
        if proxy == "zero":
            return 0.0
        if callable(proxy):
            return float(proxy(x))
        return float(proxy.pi_at(x))


def _star_weight(z: Zero) -> float:
    return 0.5 if z.is_real else 1.0


def _formula_sums(s: RaceFunctionSet, x: Sequence[float]) -> np.ndarray:
    """Re sum_(chi,rho) n(rho,chi) conj(chi)(a) f(rho) at every x >= 2, with
    the half-weight star convention: one row per member, one column per x."""
    zeros, amps = _amplitudes(s.system, s.members)
    main, tail, _ = _f_table([z.rho for z in zeros], x)
    return (amps @ (main + tail)).real


def race_values(s: RaceFunctionSet, x: float) -> Dict[int, float]:
    """P_{q,a}(x; B) for each member, with the half-weight star convention."""
    if x < 2.0:
        raise DomainError(f"x must be >= 2, got {x}")
    phi = unit_group(s.q).phi
    base = s.pi_value(x) / phi
    sums = _formula_sums(s, [x])[:, 0]
    return {a: base - (2.0 / phi) * float(v) for a, v in zip(s.members, sums)}


# --- dominant profiles ------------------------------------------------------------


class DominantProfile(NamedTuple):
    """The dominant part M of a scaled race difference, as a TrigPoly in
    u = log x, plus its constant term (real zeros) and an explicit residual
    bound: |scaled difference - M(u)| <= residual_bound(x)."""

    q: int
    a: int
    b: int
    beta: float
    poly: TrigPoly
    constant: float
    residual_terms: Tuple[Tuple[float, float, float], ...]  # (|g|*w, beta, |rho|)
    dominant_terms: Tuple[Tuple[float, float, float], ...]

    def __call__(self, u):
        return self.poly(u) + self.constant

    def residual_bound(self, x: float) -> float:
        """Explicit bound on the scaled residual at x (from the main-term
        envelope and the sub-dominant levels)."""
        w = math.log(x)
        scale = w / x**self.beta
        total = 0.0
        env_cache: Dict[float, float] = {}
        for gw, beta, mod in self.dominant_terms:
            env = env_cache.setdefault(beta, envelope_integral(beta, x))
            total += gw * env / mod
        for gw, beta, mod in self.residual_terms:
            env = env_cache.setdefault(beta, envelope_integral(beta, x))
            total += gw * (x**beta / (mod * w) + env / mod)
        return scale * total

    def scaled_difference(self, s: RaceFunctionSet, x: float) -> float:
        """(phi(q) log x / (2 x^beta)) * (P_a - P_b) via the full formula."""
        vals = race_values(s, x)
        phi = unit_group(self.q).phi
        return phi * math.log(x) / (2.0 * x**self.beta) * (vals[self.a] - vals[self.b])


def dominant_profile(s: RaceFunctionSet, a: int, b: int) -> DominantProfile:
    """M_{q,a,b} as a trig polynomial: one term per dominant height with
    amplitude |g(beta+i gamma)| / |beta+i gamma|."""
    dd, live = _dominant(s.system, a, b)
    if dd.empty:
        raise EmptyDominantSetError(f"z({a},{b}) is empty")
    beta = dd.beta
    terms: Dict[float, complex] = {}
    constant = 0.0
    for z in dd.zeros:
        g = dd.g_values[z]
        coeff = -g.conjugate() / z.rho * _star_weight(z)
        if z.gamma == 0.0:
            constant += coeff.real
        else:
            # Re(c e^(i gamma u)) = Im(i c e^(i gamma u))
            terms[z.gamma] = terms.get(z.gamma, 0.0j) + 1j * coeff
    dom_terms = []
    res_terms = []
    for zero, g in live.items():
        gw = abs(g) * _star_weight(zero)
        rec = (gw, zero.beta, zero.modulus)
        if zero.beta == beta:
            dom_terms.append(rec)
        else:
            res_terms.append(rec)
    return DominantProfile(q=s.q, a=a, b=b, beta=beta,
                           poly=TrigPoly.from_phasors(terms),
                           constant=constant,
                           residual_terms=tuple(res_terms),
                           dominant_terms=tuple(dom_terms))


# --- the sigma-line comparison sum ------------------------------------------------


def corollary13_sum(zeros: ZeroSystem, a: int, b: int,
                    u: float | np.ndarray) -> float | np.ndarray:
    """The double sum approximating u*phi(q)/(2 e^(sigma u)) (pi_a - pi_b)
    for zeros all lying on a common vertical line Re = sigma.

    nu(n) = sin(t u - Arg chi(n) + arctan(sigma/t)), with arctan(sigma/0)
    taken as pi/2; real zeros (t = 0) get half weight.  On one line this is
    v_a(u) - v_b(u) of `dominant_member_values`.  u may be a float (the sum
    is a float) or an array (the sum at every u).
    """
    sigmas = {z.beta for zs in zeros.entries.values() for z in zs}
    if len(sigmas) > 1:
        raise ValueError(f"zeros must share one real part, got {sorted(sigmas)}")
    u = np.asarray(u, dtype=float)
    v = dominant_member_values(zeros, [a, b], u.reshape(-1))
    total = (v[0] - v[1]).reshape(u.shape)
    return float(total) if total.ndim == 0 else total


# --- traces -----------------------------------------------------------------------


def _amplitudes(system: ZeroSystem, members: Sequence[int],
                ) -> Tuple[List[Zero], np.ndarray]:
    """The system's zeros, sorted, and the (len(members), len(zeros)) table
    A[a, rho] = sum_chi n(rho, chi) w(rho) conj(chi)(a), w the star weight:
    e(-phase) from integer phase numerators (the members' unit exponents
    against the labels' exponent vectors), times the (label x zero) n w."""
    zeros = system.all_zeros()
    col = {z: k for k, z in enumerate(zeros)}
    weighted = np.zeros((len(system.entries), len(zeros)))
    for row, zs in zip(weighted, system.entries.values()):
        row[[col[z] for z in zs]] = [m * _star_weight(z) for z, m in zs.items()]
    group = unit_group(system.q)
    alpha = np.array([group.exponents(a) for a in members], dtype=np.int64)
    scale = [group.lam // n for _, n in group.generators]
    numerators = alpha.reshape(-1, len(scale)) * scale \
        @ system.chars.b[list(system.entries)].T
    chi_bar = np.exp(2j * np.pi * (-numerators % group.lam / group.lam))
    return zeros, chi_bar @ weighted


# The lattice path takes K powers of one phasor per sample and one matmul;
# the stream a complex exponential and a step per zero.  With 8 members, 17
# heights and 8192 samples the lattice path took 0.44x the stream's time at
# K = 34 and 1.1x at K = 64 (0.6x and 1.3x of a pass per (zero, member)).
_LATTICE_FILL = 2
# The stream's blocks: with 24 members and 200000 samples, unblocked
# (members, samples) temporaries took 5x the values' memory and 3x the time.
_STREAM_CELLS = 1 << 15


def _lattice_table(system: ZeroSystem, zeros: Sequence[Zero],
                   amps: np.ndarray) -> np.ndarray | None:
    """The (len(amps), K) table whose column k - 1 sums, in zero order, the
    columns of amps at the zeros of height k lambda on the system's height
    lattice; None without one, when some height is not an exact float
    multiple k >= 1 of it, or when K > _LATTICE_FILL x distinct heights."""
    lattice = system.height_lattice
    if lattice is None or not lattice > 0.0:
        return None
    heights = {z.gamma for z in zeros}
    cap = _LATTICE_FILL * len(heights)
    ks = {g: round(g / lattice) if 1.0 <= g / lattice <= cap else 0
          for g in heights}
    if any(k == 0 or k * lattice != g for g, k in ks.items()):
        return None
    table = np.zeros((len(amps), max(ks.values(), default=0)), dtype=complex)
    np.add.at(table.T, np.array([ks[z.gamma] - 1 for z in zeros], dtype=int),
              amps.T)
    return table


def _streamed_values(zeros: Sequence[Zero], amps: np.ndarray, r_plus: float,
                     u: np.ndarray, at: float | np.ndarray) -> np.ndarray:
    """The dominant values of the amplitudes amps with each zero streamed:
    one step per zero, its wave e^(i Im rho u) and its level weight
    e^((Re rho - R+) at) across all members, over blocks of u of at most
    _STREAM_CELLS members x samples, so no zeros x u table is held."""
    values = np.zeros((len(amps), len(u)))
    at = np.broadcast_to(at, u.shape)
    step = max(_STREAM_CELLS // max(len(amps), 1), 1)
    for start in range(0, len(u), step):
        part = slice(start, start + step)
        for z, c in zip(zeros, amps.T):
            osc = (c[:, None] * np.exp(1j * z.gamma * u[part])).real  # exact at gamma 0
            values[:, part] += osc if z.beta == r_plus \
                else osc * np.exp((z.beta - r_plus) * at[part])
    return np.negative(values, out=values)


def dominant_member_values(system: ZeroSystem, members: Sequence[int],
                           u: np.ndarray) -> np.ndarray:
    """Scaled member values in dominant-only mode:

        v_a(u) = -Re sum_(chi,rho) n conj(chi)(a) e^((Re rho - R+) u)
                                               e^(i Im rho u) / rho,

    the u -> infinity limit of phi(q) u/(2 e^(R+ u)) (P_a - pi/phi) with all
    residuals dropped.  Levels below R+ carry exponentially decaying weights,
    so any u is within numeric reach.

    A one-level system on a height lattice lambda (when its zeros have
    a `_lattice_table`) goes through one `trigpoly.evaluate_phasors` call at
    v = lambda u, within that function's error bound plus what rounding
    lambda u moves.  Otherwise the zeros are streamed, each weighted by its
    decay at every u (a layered system has few distinct zeros).
    """
    u = np.asarray(u, dtype=float)
    zeros, amps = _amplitudes(system, members)
    amps = amps / [z.rho for z in zeros]
    table = _lattice_table(system, zeros, amps)
    if table is not None and len({z.beta for z in zeros}) <= 1:
        # -Re(W z^k) = Im(-i W z^k)
        return evaluate_phasors(-1j * table, system.height_lattice * u)
    return _streamed_values(zeros, amps, system.r_plus, u, u)


def trace(s: RaceFunctionSet, u_range: Tuple[float, float], step: float,
          mode: str = "dominant-only", tie_tol: float = 1e-9) -> OrderingTrace:
    """Sample scaled member values over a u-grid (x = e^u).

    dominant-only evaluates the exact almost-periodic limit; full-formula
    evaluates the oscillating part of P_{q,a}(e^u; B) from the closed-form
    f(rho) and scales it by phi(q) u / (2 e^(R+ u)); the common pi(x)/phi(q)
    term is left out.  The grid includes both endpoints; one of more samples
    x members than the sieve budget (RACE_LAB_BUDGET) is refused before it
    is built.
    """
    u0, u1 = float(u_range[0]), float(u_range[1])
    if u1 <= u0:
        raise ValueError("u range must be increasing")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    beta_star = s.system.r_plus
    if mode == "full-formula":
        # x = e^u overflows past u ~ 709.8, and x^beta past beta u ~ 709.8
        if u1 > 690.0 or (beta_star is not None and u1 * beta_star > 690.0):
            raise OverflowRiskError(
                "x = e^u exceeds double range; use dominant-only mode")
        if u0 < math.log(2.0):
            raise DomainError("full-formula trace needs e^u >= 2")
    cells = (u1 - u0) / step  # inf for a subnormal step
    _check_budget(cells + 1, s.members)
    n = max(int(round(cells)) + 1, 2)
    u = np.linspace(u0, u1, n)
    if mode == "dominant-only":
        values = dominant_member_values(s.system, s.members, u)
    elif mode == "full-formula":
        # phi(q) u/(2 e^(R+ u)) times -(2/phi(q)) times the formula sums
        values = -u / np.exp((beta_star or 0.0) * u) * _formula_sums(s, np.exp(u))
    else:
        raise ValueError(f"unknown trace mode {mode!r}")
    return OrderingTrace(u=u, members=tuple(s.members), values=values,
                         tie_tol=tie_tol)


def _check_budget(samples: float, members: Sequence[int]) -> None:
    """Refuse a trace of more samples x members than the sieve budget."""
    check_budget(samples * len(members),
                 f"trace of {samples:.6g} samples x {len(members)} members")


def one_period_trace(s: RaceFunctionSet, samples: int = 4096,
                     base_u: float = 0.0, tie_tol: float = 1e-9,
                     ) -> OrderingTrace:
    """Dominant-only trace over one lattice period, sampled in the phase
    v = lambda u at v0 + 2 pi i/samples, v0 = fmod(lambda base_u, 2 pi), each
    level's weight e^((beta - R+) base_u) frozen (all 1 at base_u 0): the
    trace is periodic in v.  One `_amplitudes` table gives each level's
    reach and, weighted, one `_lattice_table` (or the zeros are streamed).
    The u column, base_u + i 2 pi/(lambda samples), is for output only.

    ValueError when lambda base_u is not finite, or when a level moves a
    member difference by more than tie_tol at weight 1 but not at its weight
    w (2 w max_a sum_rho |A[a, rho]/rho| <= tie_tol): it would drop out."""
    system, lattice = s.system, s.system.height_lattice
    if not lattice:
        raise ValueError("system has no height lattice; supply a u-range")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if not math.isfinite(lattice * base_u):
        raise ValueError(f"the phase {lattice:g} * base_u {base_u:g} "
                         f"is not finite")
    _check_budget(samples, s.members)
    zeros, amps = _amplitudes(system, s.members)
    amps, betas = amps / [z.rho for z in zeros], np.array([z.beta for z in zeros])
    weights = np.empty(len(zeros))
    for beta in dict.fromkeys(betas.tolist()):
        level = betas == beta
        top = 2.0 * np.abs(amps[:, level]).sum(axis=1).max(initial=0.0)
        exponent = (beta - system.r_plus) * base_u
        w = weights[level] = math.exp(exponent) if exponent < 709 else math.inf
        if not w < math.inf or w * top <= tie_tol < top:
            raise ValueError(f"level beta = {beta:g} has weight {w:.3g} at "
                             f"base_u {base_u:g}; it must be finite and move "
                             f"a member difference by more than tie_tol "
                             f"{tie_tol:g}")
    v = math.fmod(lattice * base_u, 2.0 * math.pi) + np.linspace(
        0.0, 2.0 * math.pi, samples, endpoint=False)
    table = _lattice_table(system, zeros, amps * weights)
    if table is None:
        values = _streamed_values(zeros, amps, system.r_plus, v / lattice,
                                  base_u)
    else:  # -Re(W z^k) = Im(-i W z^k)
        values = evaluate_phasors(-1j * table, v)
    u = base_u + np.linspace(0.0, 2.0 * math.pi / lattice, samples,
                             endpoint=False)
    return OrderingTrace(u=u, members=tuple(s.members), values=values,
                         tie_tol=tie_tol, periodic=True)


# --- theorem-specific decompositions ----------------------------------------------


def _recipe_character(system: ZeroSystem, label) -> np.ndarray:
    """The exponent row of the character a recipe names by label:
    RecipeMismatchError unless an int in [0, phi(q)), where a negative one
    would index from the end."""
    if type(label) is not int or not 0 <= label < len(system.chars):
        raise RecipeMismatchError(
            f"character label {label!r} is not in 0..{len(system.chars) - 1}")
    return system.chars.b[label]


class _LazyMapping(Mapping):
    """A read-only mapping over prod_i Z/n_i, in itertools.product order,
    whose value at a key is build(key), built on first access."""

    def __init__(self, orders: Sequence[int], build: Callable) -> None:
        self._orders, self._build, self._built = tuple(orders), build, {}

    def __getitem__(self, key):
        if key not in self._built:
            if not (isinstance(key, tuple) and len(key) == len(self._orders)
                    and all(r in range(n) for r, n in zip(key, self._orders))):
                raise KeyError(key)
            self._built[key] = self._build(key)
        return self._built[key]

    def __iter__(self) -> Iterator:
        return itertools.product(*map(range, self._orders))

    def __len__(self) -> int:
        return math.prod(self._orders)


def decompose_lattice(system: ZeroSystem, gamma: float,
                      factors: Sequence[Tuple[int, int, int]]) -> dict:
    """G_r(v) = sum_{e,k} m_{e,k}/k sin(k v + 2 pi <e, r>) read off a system
    whose zeros sit at heights k*gamma on the characters chi_1^e_1 ...
    chi_m^e_m, where factors = [(label of chi_i, n_i, u_i), ...], 0 <= e_i <
    n_i, <e, r> = sum_i e_i r_i / n_i and chi_j(u_i) = e(-1/n_i) if j = i,
    else 1: e_i is -n_i times the phase at u_i, read off the label rows as
    `_amplitudes` reads them, and one `labels` call checks chi^e.  m is
    keyed by (e, k), and G, which builds each G_r when first read, by r."""
    orders = [n for _, n, _ in factors]
    lcm = math.lcm(*orders)
    base = np.array([_recipe_character(system, label) for label, _, _ in factors])
    group, labels = unit_group(system.q), list(system.entries)
    units = (np.array([group.exponents(u) for _, _, u in factors])
             * [group.lam // n for _, n in group.generators])
    exps = (-(system.chars.b[labels] @ units.T) % group.lam
            // (group.lam // np.array(orders)))
    named = (system.chars.labels(exps @ base) == labels) & exps.any(axis=1)
    family = {label: tuple(row) for label, row, ok
              in zip(labels, exps.tolist(), named) if ok}
    m: Dict[Tuple[Tuple[int, ...], int], int] = {}
    for label, z, mult in system.items():
        if label not in family:
            raise RecipeMismatchError("zero on a character outside the lattice family")
        k = z.gamma / gamma
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise RecipeMismatchError("height off the k*gamma lattice")
        key = (family[label], int(round(k)))
        m[key] = m.get(key, 0) + mult
    # <e, r> = x/lcm with x = sum_i e_i r_i (lcm/n_i) reduced mod lcm in
    # integers, so the phase keeps full precision
    weights = [(tuple(ei * (lcm // n) for ei, n in zip(e, orders)), k, mult / k)
               for (e, k), mult in m.items()]

    def G(r: Tuple[int, ...]) -> TrigPoly:
        phasors: Dict[float, complex] = {}
        for w, k, amp in weights:
            ph = 2.0 * math.pi * (sum(map(operator.mul, w, r)) % lcm) / lcm
            phasors[float(k)] = phasors.get(float(k), 0j) + amp * cmath.exp(1j * ph)
        return TrigPoly.from_phasors(phasors)

    return {"m": m, "G": _LazyMapping(orders, G), "gamma": gamma}


_DECOMPOSERS = {
    "thm311": lambda sys_, p: decompose_lattice(
        sys_, p["gamma"], [(p["chi1"], 4, p["a"]), (p["chi2"], 2, p["b"])]
        if p.get("subcase") == "z4z2" else [(p["chi"], p["n"], p["a"])]),
    "thm43": lambda sys_, p: decompose_lattice(
        sys_, p["gamma"], [(p["chi"], p["r"], p["a"])]),
}


def theorem_decomposition(system: ZeroSystem, case: str, params: dict) -> dict:
    """Named component functions (TrigPolys and weights) for the supported
    barrier analyses; raises RecipeMismatchError when the system's support
    does not fit the requested shape."""
    try:
        fn = _DECOMPOSERS[case]
    except KeyError:
        raise ValueError(f"unknown decomposition case {case!r}") from None
    return fn(system, params)
