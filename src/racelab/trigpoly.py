"""Real trigonometric polynomials: evaluation, norms, measure estimates,
and the constructive sign-pattern searches used by the barrier machinery.

A TrigPoly is a finite sum  P(u) = sum_k c_k sin(t_k u + alpha_k)  with
pairwise distinct positive frequencies.  Cosines are phase-shifted sines.

The existence searches (find_simultaneous_positive, find_dominating,
lemma28_gap) are backed by L2/measure arguments guaranteeing solutions on a
positive-density set, so a dense grid search must succeed; each returned
point carries a SearchCertificate recording the margins and the Lipschitz
bound that makes interval claims rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np


class ResolutionTooCoarseError(ValueError):
    pass


class SearchExhaustedError(RuntimeError):
    """Grid budget exhausted without a certified solution (reported, never silent)."""


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrigPoly:
    """P(u) = sum c_k sin(t_k u + alpha_k), distinct frequencies t_k > 0."""

    terms: Tuple[Tuple[float, float, float], ...]  # (c_k, t_k, alpha_k)

    def __post_init__(self) -> None:
        terms = tuple((float(c), float(t), float(a)) for c, t, a in self.terms
                      if c != 0.0)
        freqs = [t for _, t, _ in terms]
        if any(t <= 0 for t in freqs):
            raise ValueError("frequencies must be positive")
        if len(set(freqs)) != len(freqs):
            raise ValueError("frequencies must be pairwise distinct")
        object.__setattr__(self, "terms", terms)

    # construction helpers ----------------------------------------------------
    @staticmethod
    def sine(coeffs: Sequence[float], freqs: Sequence[float],
             phases: Sequence[float] | None = None) -> "TrigPoly":
        phases = phases if phases is not None else [0.0] * len(coeffs)
        return TrigPoly(tuple(zip(coeffs, freqs, phases)))

    @staticmethod
    def cosine(coeffs: Sequence[float], freqs: Sequence[float],
               phases: Sequence[float] | None = None) -> "TrigPoly":
        phases = phases if phases is not None else [0.0] * len(coeffs)
        return TrigPoly(tuple((c, t, a + math.pi / 2)
                              for c, t, a in zip(coeffs, freqs, phases)))

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly(())

    @staticmethod
    def combine(parts: Iterable["TrigPoly"]) -> "TrigPoly":
        """Sum of polynomials, merging equal frequencies by phasor addition."""
        phasors: dict[float, complex] = {}
        for p in parts:
            for c, t, a in p.terms:
                # c sin(tu+a) = Im(c e^{ia} e^{itu})
                phasors[t] = phasors.get(t, 0j) + c * complex(math.cos(a), math.sin(a))
        terms = []
        for t, z in sorted(phasors.items()):
            c = abs(z)
            if c > 0.0:
                terms.append((c, t, math.atan2(z.imag, z.real)))
        return TrigPoly(tuple(terms))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly.combine([self, other])

    def scale(self, s: float) -> "TrigPoly":
        return TrigPoly(tuple((s * c, t, a) for c, t, a in self.terms))

    # basic queries -----------------------------------------------------------
    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for c, t, a in self.terms:
            out = out + c * np.sin(t * u + a)
        return out if out.shape else float(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for c, t, a in self.terms:
            out = out + c * t * np.cos(t * u + a)
        return out if out.shape else float(out)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def amplitude_sum(self) -> float:
        return sum(abs(c) for c, _, _ in self.terms)

    @property
    def lipschitz_bound(self) -> float:
        """sum |c_k| t_k, a global bound on |P'|."""
        return sum(abs(c) * t for c, t, _ in self.terms)

    @property
    def max_freq(self) -> float:
        return max((t for _, t, _ in self.terms), default=0.0)

    @property
    def min_freq(self) -> float:
        return min((t for _, t, _ in self.terms), default=0.0)

    def l2_norm(self) -> float:
        """Besicovitch norm, closed form (half the coefficient energy)."""
        return math.sqrt(0.5 * sum(c * c for c, _, _ in self.terms))


def l2_norm(p: TrigPoly) -> float:
    return p.l2_norm()


@dataclass(frozen=True)
class EmpiricalMoments:
    mean: float
    l2: float
    positive_fraction: float
    sup_seen: float


def _grid(U: float, step: float) -> np.ndarray:
    n = max(int(U / step), 2)
    return np.linspace(0.0, U, n, endpoint=False) + step / 2.0


def empirical_moments(p: TrigPoly, U: float, step: float) -> EmpiricalMoments:
    """Grid estimates of the time averages over [0, U]."""
    if U <= 0 or step <= 0:
        raise ValueError("U and step must be positive")
    if p.n_terms == 0:
        raise ValueError("moments of the zero polynomial are degenerate")
    if step >= TWO_PI / p.max_freq:
        raise ResolutionTooCoarseError(
            f"step {step} does not resolve the smallest period "
            f"{TWO_PI / p.max_freq}")
    total_mean = 0.0
    total_sq = 0.0
    total_pos = 0
    sup_seen = 0.0
    count = 0
    # chunked evaluation keeps memory flat on long windows
    n = max(int(U / step), 2)
    chunk = 1 << 20
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=float)
        u = idx * (U / n) + (U / n) / 2.0
        vals = p(u)
        total_mean += float(vals.sum())
        total_sq += float((vals * vals).sum())
        total_pos += int((vals >= 0).sum())
        sup_seen = max(sup_seen, float(np.abs(vals).max()))
        count += len(idx)
    return EmpiricalMoments(mean=total_mean / count,
                            l2=math.sqrt(total_sq / count),
                            positive_fraction=total_pos / count,
                            sup_seen=sup_seen)


def mean_bound(p: TrigPoly, U: float) -> float:
    """Exact antiderivative bound: |(1/U) int_0^U P| <= sum 2|c_k|/(t_k U)."""
    return sum(2.0 * abs(c) / (t * U) for c, t, _ in p.terms)


# --- Nazarov inequality as a numeric check -----------------------------------


@dataclass(frozen=True)
class NazarovReport:
    lhs: float
    rhs: float
    holds: bool
    n_exponentials: int


def as_exponential(p: TrigPoly) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficients and frequencies of P written as sum c_k e^{i t_k u}."""
    coeffs: List[complex] = []
    freqs: List[float] = []
    for c, t, a in p.terms:
        # c sin(tu+a) = (c/2i) e^{ia} e^{itu} - (c/2i) e^{-ia} e^{-itu}
        coeffs.append(c / 2j * complex(math.cos(a), math.sin(a)))
        freqs.append(t)
        coeffs.append(-c / 2j * complex(math.cos(a), -math.sin(a)))
        freqs.append(-t)
    return np.array(coeffs), np.array(freqs)


def nazarov_check(coeffs, freqs, intervals: Sequence[Tuple[float, float]],
                  U: float, C: float, samples_per_unit: float = 64.0,
                  ) -> NazarovReport:
    """Compare max_{[0,U]} |P| against (C U / mu(E))^{n-1} sup_E |P| for an
    exponential polynomial P = sum c_k e^{i t_k u}.

    The constant C is configurable (the underlying inequality holds for some
    absolute constant); this check is exploratory, not load-bearing.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    freqs = np.asarray(freqs, dtype=float)
    mu = sum(b - a for a, b in intervals)
    if mu <= 0:
        raise ValueError("E must have positive measure")
    n = len(coeffs)

    def absP(u: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * np.outer(u, freqs)) @ coeffs)

    density = max(samples_per_unit, 16 * float(np.abs(freqs).max() or 1.0))
    grid = np.linspace(0.0, U, max(int(U * density), 64))
    lhs = float(absP(grid).max())
    sup_e = 0.0
    for a, b in intervals:
        g = np.linspace(a, b, max(int((b - a) * density), 16))
        sup_e = max(sup_e, float(absP(g).max()))
    rhs = (C * U / mu) ** (n - 1) * sup_e
    return NazarovReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs, n_exponentials=n)


def small_value_fraction(p: TrigPoly, eps_mult: float, U: float,
                         step: float | None = None) -> float:
    """Fraction of [0, U] where |P(u)| < eps_mult * sum|c_k| (grid estimate)."""
    if p.n_terms == 0:
        raise ValueError("zero polynomial has no small-value set")
    S = p.amplitude_sum
    step = step if step is not None else (TWO_PI / p.max_freq) / 64.0
    u = _grid(U, step)
    below = 0
    total = 0
    chunk = 1 << 20
    for start in range(0, len(u), chunk):
        vals = p(u[start:start + chunk])
        below += int((np.abs(vals) < eps_mult * S).sum())
        total += len(vals)
    return below / total


# --- proof-driven constants ---------------------------------------------------


def eps_small_values(n: int, gamma: float, C: float = 10.0) -> float:
    """The epsilon for which {|P| < eps * sum|c_k|} has density < gamma."""
    return (1.0 / (2.0 * math.sqrt(n))) * (C / gamma) ** (1 - 2 * n)


def eps1(n: int, C: float = 10.0) -> float:
    """Target threshold for the simultaneous-positivity search (half the
    small-value epsilon at density 1/(10n); depends on the configured C)."""
    return eps_small_values(n, 1.0 / (10.0 * n), C) / 2.0


def eps2(n: int) -> float:
    """13^(-2^(n-1)), the all-negative search threshold."""
    return 13.0 ** -(2 ** (n - 1))


def eps_box(n: int, alpha: float) -> float:
    """6*(alpha/6)^(2^(n-1)), the lower edge of the fractional-part box."""
    return 6.0 * (alpha / 6.0) ** (2 ** (n - 1))


def eps4(n: int, C: float = 10.0) -> float:
    """Default gap constant for the squared-domination search."""
    return eps_small_values(n, 1.0 / 3.0, C) ** 2 / 4.0


# --- certified grid scans ------------------------------------------------------


@dataclass(frozen=True)
class SearchCertificate:
    """A found point plus the data certifying the claim.

    margins are the strict-inequality slacks actually achieved at u; for
    interval claims the scan guarantees margin > step * derivative_bound on
    every certified cell.
    """

    u: float
    margins: Tuple[float, ...]
    derivative_bound: float
    grid_step: float
    target: float = 0.0
    satisfied: bool = True

    def to_dict(self) -> dict:
        return {"u": self.u, "margins": list(self.margins),
                "derivative_bound": self.derivative_bound,
                "grid_step": self.grid_step, "target": self.target,
                "satisfied": self.satisfied}


@dataclass(frozen=True)
class ScanReport:
    """Result of certifying f > 0 on [lo, hi] by grid + Lipschitz bound."""

    ok: bool
    min_value: float
    argmin: float
    certified_step: float
    lipschitz: float
    failure_point: float | None = None


def certified_positive_scan(f: Callable[[np.ndarray], np.ndarray],
                            lipschitz: float, lo: float, hi: float,
                            step: float, max_depth: int = 40) -> ScanReport:
    """Certify f > 0 on [lo, hi], lo < hi: each grid cell needs min endpoint
    value > (cell width) * L / 2; cells failing that are bisected, down to
    max_depth halvings.

    f must accept an ndarray of points.  The bisection runs one depth at a
    time: every cell still uncertified at a depth has its midpoint evaluated
    in one call to f.  A cell fails when an endpoint value is <= 0, or when
    it is still uncertified at max_depth.  The scan reports the rightmost
    failing cell (the one a right-first depth-first bisection meets first),
    and then min_value, argmin and certified_step cover the grid plus only
    the midpoints such a bisection evaluates before reaching that cell: its
    enclosing cells and every cell to its right.  A passing scan reports the
    minimum over every sampled value (the margin) and the finest step used.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    pts = np.linspace(lo, hi, max(int(math.ceil((hi - lo) / step)) + 1, 3))
    vals = np.asarray(f(pts), dtype=float)
    width = pts[1] - pts[0]
    live = np.flatnonzero(np.minimum(vals[:-1], vals[1:])
                          <= width * lipschitz / 2.0)
    # live cells (a, b) with end values (fa, fb), kept in position order
    a, b, fa, fb = pts[live], pts[live + 1], vals[live], vals[live + 1]
    # every bisected cell: (a, b, midpoint, value there, depth), per depth
    split = [(np.empty(0),) * 4 + (np.empty(0, dtype=int),)]
    failure_point = None  # of the rightmost failing cell (fail_a, fail_b)
    depth = 0
    while len(a):
        bad = (fa <= 0.0) | (fb <= 0.0)
        open_ = ~bad & ~(np.minimum(fa, fb) > (b - a) * lipschitz / 2.0)
        exhausted = depth >= max_depth
        hit = np.flatnonzero(bad | open_ if exhausted else bad)
        if len(hit):
            k = hit[-1]
            point = (a[k] if fa[k] <= fb[k] else b[k]) if bad[k] else a[k]
            fail_a, fail_b, failure_point = a[k], b[k], float(point)
            open_[:k + 1] = False  # cells left of it come later in DFS order
        if exhausted or not open_.any():
            break
        a, b, fa, fb = a[open_], b[open_], fa[open_], fb[open_]
        m = 0.5 * (a + b)
        fm = np.asarray(f(m), dtype=float)
        split.append((a, b, m, fm, np.full(len(m), depth)))
        a, b = np.column_stack([a, m]).ravel(), np.column_stack([m, b]).ravel()
        fa, fb = (np.column_stack([fa, fm]).ravel(),
                  np.column_stack([fm, fb]).ravel())
        depth += 1

    min_val = float(vals.min())
    argmin = float(pts[int(vals.argmin())])
    finest = float(width)
    sa, sb, sm, sf, sd = (np.concatenate(col) for col in zip(*split))
    if failure_point is not None:
        # what DFS evaluates before the failing cell: its enclosing cells
        # and the cells right of it
        seen = (sa >= fail_b) | ((sa <= fail_a) & (sb >= fail_b))
        sa, sb, sm, sf, sd = (col[seen] for col in (sa, sb, sm, sf, sd))
    if len(sm):
        finest = min(finest, float(((sb - sa) / 2.0).min()))
        mid_min = float(sf.min())
        if mid_min < min_val:
            # ties go to the midpoint evaluated first in right-first DFS
            # order: the shallowest one that is, or encloses, the rightmost
            tied = np.flatnonzero(sf == mid_min)
            x = sm[tied].max()
            tied = tied[(sm[tied] == x) | ((sa[tied] < x) & (x < sb[tied]))]
            min_val, argmin = mid_min, float(sm[tied[np.argmin(sd[tied])]])
    return ScanReport(failure_point is None, min_val, argmin, finest,
                      lipschitz, failure_point=failure_point)


def _window_scan(objective: Callable[[np.ndarray], np.ndarray],
                 base_period: float, periods: int, per_period: int,
                 ) -> Tuple[float, float]:
    """Best (u, objective(u)) over a window of the given number of periods."""
    n = periods * per_period
    best_u, best_v = 0.0, -math.inf
    chunk = 1 << 20
    U = periods * base_period
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=float)
        u = idx * (U / n)
        v = objective(u)
        i = int(np.argmax(v))
        if v[i] > best_v:
            best_v, best_u = float(v[i]), float(u[i])
    return best_u, best_v


# --- constructive lemmas --------------------------------------------------------


def find_fractional_parts(s: Sequence[float], alpha: float) -> float:
    """A real u with eps(n, alpha) <= {u * s_k} <= alpha for every k.

    s must be strictly decreasing and positive, 0 < alpha < 1.  Total
    recursion: base case u = alpha/s_1; otherwise recurse on s_2..s_n with
    alpha' = alpha^2/6, then pick the box-principle multiplier l <= 3/alpha
    with ||l u' s_1|| <= alpha/3 and set u = l u' + alpha/(2 s_1).
    """
    s = [float(x) for x in s]
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if any(x <= 0 for x in s) or any(s[i] <= s[i + 1] for i in range(len(s) - 1)):
        raise ValueError("s must be strictly decreasing and positive")
    if len(s) == 1:
        return alpha / s[0]
    u_prev = find_fractional_parts(s[1:], alpha * alpha / 6.0)
    n_max = int(3.0 / alpha)
    x = u_prev * s[0]
    best_l = None
    for l in range(1, n_max + 1):
        frac = (l * x) % 1.0
        if min(frac, 1.0 - frac) <= alpha / 3.0:
            best_l = l
            break
    if best_l is None:  # box principle guarantees one; float-noise fallback
        dists = [(min((l * x) % 1.0, 1.0 - (l * x) % 1.0), l)
                 for l in range(1, n_max + 1)]
        best_l = min(dists)[1]
    return best_l * u_prev + alpha / (2.0 * s[0])


def find_all_negative(t: Sequence[float], beta: Sequence[float]) -> float:
    """A real u with sin(t_k u + beta_k) < -eps2(n) for every k.

    Requires positive frequencies and |beta_k| <= eps2(n).  Reduces to the
    fractional-part box with alpha = 6/13 on s_k = t_k/(2*pi); u = -u' then
    puts every angle in (-12pi/13, 0) mod 2pi, clear of both endpoints.
    """
    t = [float(x) for x in t]
    beta = [float(b) for b in beta]
    n = len(t)
    e2 = eps2(n)
    if any(x <= 0 for x in t):
        raise ValueError("frequencies must be positive")
    if any(abs(b) > e2 + 1e-15 for b in beta):
        raise ValueError(f"phases must satisfy |beta_k| <= eps2({n}) = {e2}")
    order = sorted(range(n), key=lambda i: -t[i])
    s = [t[i] / TWO_PI for i in order]
    # collapse equal frequencies (box constraint is shared)
    s_unique: List[float] = []
    for x in s:
        if not s_unique or x < s_unique[-1]:
            s_unique.append(x)
    u_prime = find_fractional_parts(s_unique, 6.0 / 13.0)
    return -u_prime


def find_simultaneous_positive(p_cos: TrigPoly, q_sin: TrigPoly,
                               eps1_val: float | None = None,
                               C: float = 10.0,
                               max_escalations: int = 6) -> SearchCertificate:
    """A u with P(u) >= eps1*sum|a_k| and Q(u) >= eps1*sum|b_k|, certified.

    P is a near-cosine polynomial (phases within eps1 of pi/2), Q near-sine
    (phases within eps1 of 0), sharing the same frequency set.  The search
    scans +/-u over growing windows; the measure argument guarantees a
    positive-density solution set, so escalation terminates in practice.
    """
    freqs_p = sorted(t for _, t, _ in p_cos.terms)
    freqs_q = sorted(t for _, t, _ in q_sin.terms)
    if freqs_p != freqs_q:
        raise ValueError("P and Q must share their frequency set")
    n = max(p_cos.n_terms, 1)
    e1 = eps1(n, C) if eps1_val is None else float(eps1_val)
    for c, t, a in p_cos.terms:
        if abs(a - math.pi / 2) > e1 + 1e-12:
            raise ValueError("P phases exceed eps1 (cosine offsets)")
    for c, t, a in q_sin.terms:
        if abs(a) > e1 + 1e-12:
            raise ValueError("Q phases exceed eps1")
    s1 = p_cos.amplitude_sum
    s2 = q_sin.amplitude_sum
    lip = max(p_cos.lipschitz_bound, q_sin.lipschitz_bound)
    base = TWO_PI / min(p_cos.min_freq, q_sin.min_freq)

    def objective(u: np.ndarray) -> np.ndarray:
        pv, qv = p_cos(u), q_sin(u)
        pos = np.minimum(pv - e1 * s1, qv - e1 * s2)
        pv_m, qv_m = p_cos(-u), q_sin(-u)
        neg = np.minimum(pv_m - e1 * s1, qv_m - e1 * s2)
        return np.maximum(pos, neg)

    periods, per_period = 64, 256
    for _ in range(max_escalations):
        u, margin = _window_scan(objective, base, periods, per_period)
        if margin > 0:
            plus = min(float(p_cos(u) - e1 * s1), float(q_sin(u) - e1 * s2))
            minus = min(float(p_cos(-u) - e1 * s1), float(q_sin(-u) - e1 * s2))
            if minus > plus:
                u = -u
            m1 = float(p_cos(u) - e1 * s1)
            m2 = float(q_sin(u) - e1 * s2)
            if min(m1, m2) > 0:
                return SearchCertificate(
                    u=u, margins=(m1, m2), derivative_bound=lip,
                    grid_step=base / per_period, target=0.0)
        periods *= 2
        per_period *= 2
    raise SearchExhaustedError(
        "no certified simultaneous-positive point within grid budget")


def _aligned_coeffs(q_sin: TrigPoly, p_cos: TrigPoly, r_sin: TrigPoly,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    freqs = sorted({t for poly in (q_sin, p_cos, r_sin) for _, t, _ in poly.terms})
    def coeff(poly: TrigPoly, t: float) -> float:
        for c, tt, _ in poly.terms:
            if tt == t:
                return c
        return 0.0
    a = np.array([coeff(p_cos, t) for t in freqs])
    b = np.array([coeff(q_sin, t) for t in freqs])
    c = np.array([coeff(r_sin, t) for t in freqs])
    return np.array(freqs), a, b, c


def _check_domination_pre(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          gamma: float, need_a_mass: bool = True) -> None:
    if np.any(c < 0):
        raise ValueError("R coefficients must be nonnegative")
    if np.any(b + 1e-12 < np.abs(a) + c):
        raise ValueError("need b_k >= |a_k| + c_k at every shared frequency")
    if need_a_mass and not np.sum(np.abs(a)) > gamma * np.sum(b):
        raise ValueError("need sum|a_k| > gamma * sum(b_k)")


def find_dominating(q_sin: TrigPoly, p_cos: TrigPoly, r_sin: TrigPoly,
                    gamma: float, eps3: float = 1e-3,
                    max_escalations: int = 6) -> SearchCertificate:
    """A u with Q(u) > max(|P(u)|, R(u)) + margin, maximizing the margin.

    Preconditions: shared frequencies, b_k >= |a_k| + c_k, c_k >= 0 and
    sum|a_k| > gamma * sum b_k.  The certificate reports whether the achieved
    margin meets the configurable target eps3 * gamma^2 * sum(b_k).
    """
    freqs, a, b, c = _aligned_coeffs(q_sin, p_cos, r_sin, )
    _check_domination_pre(a, b, c, gamma)
    target = eps3 * gamma * gamma * float(np.sum(b))
    lip = q_sin.lipschitz_bound + p_cos.lipschitz_bound + r_sin.lipschitz_bound
    base = TWO_PI / float(freqs.min())

    def objective(u: np.ndarray) -> np.ndarray:
        out = q_sin(u) - np.maximum(np.abs(p_cos(u)), r_sin(u))
        out_m = q_sin(-u) - np.maximum(np.abs(p_cos(-u)), r_sin(-u))
        return np.maximum(out, out_m)

    periods, per_period = 64, 256
    for _ in range(max_escalations):
        u, margin = _window_scan(objective, base, periods, per_period)
        direct = float(q_sin(u) - max(abs(p_cos(u)), r_sin(u)))
        if direct < margin - 1e-15:
            u = -u
            direct = float(q_sin(u) - max(abs(p_cos(u)), r_sin(u)))
        if direct > 0:
            return SearchCertificate(
                u=u, margins=(direct,), derivative_bound=lip,
                grid_step=base / per_period, target=target,
                satisfied=direct >= target)
        periods *= 2
        per_period *= 2
    raise SearchExhaustedError("no dominating point found within grid budget")


def lemma28_gap(q_sin: TrigPoly, p_cos: TrigPoly, r_sin: TrigPoly,
                gamma: float, C: float = 10.0,
                max_escalations: int = 6) -> Tuple[float, float, float]:
    """A u and gap with Q^2(u) - max(P^2(u), R^2(u)) >= gap > 0.

    Returns (u, gap, target) where target is
    max_k min((b_k^2 - a_k^2 - gamma*b_k^2)/2, eps4*gamma^2*b_k^2).

    Unlike the plain domination search, the coefficient-mass condition on P
    is not required here: a frequency with small R-coefficient feeds the
    energy branch of the gap directly.
    """
    freqs, a, b, c = _aligned_coeffs(q_sin, p_cos, r_sin)
    _check_domination_pre(a, b, c, gamma, need_a_mass=False)
    e4 = eps4(max(len(freqs), 1), C)
    branch = np.minimum((b * b - a * a - gamma * b * b) / 2.0,
                        e4 * gamma * gamma * b * b)
    target = float(branch.max())
    base = TWO_PI / float(freqs.min())

    def objective(u: np.ndarray) -> np.ndarray:
        qv, pv, rv = q_sin(u), p_cos(u), r_sin(u)
        return qv * qv - np.maximum(pv * pv, rv * rv)

    periods, per_period = 64, 256
    for _ in range(max_escalations):
        u, gap = _window_scan(objective, base, periods, per_period)
        if gap > 0:
            return u, gap, target
        periods *= 2
        per_period *= 2
    raise SearchExhaustedError("no positive squared gap found within budget")
