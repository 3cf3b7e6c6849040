"""Real trigonometric polynomials: evaluation, norms, measure estimates,
and the constructive sign-pattern searches used by the barrier machinery.

A TrigPoly is a finite sum  P(u) = sum_k c_k sin(t_k u + alpha_k)  with
pairwise distinct positive frequencies.  Cosines are phase-shifted sines.
Calling it evaluates term by term, for any real frequencies.  When every
frequency is an integer multiple k * base, P is Im(sum_k C_k z^k) over the
phasors C_k = c_k e^{i alpha_k} and z = e^{i base u}: `roots` finds the
real roots of such polynomials as unit-circle eigenvalues, and `evaluate`
computes many integer-frequency (base 1) ones through `evaluate_phasors`,
from one table of powers of z: two transcendentals per point rather than
one per term.

The existence searches (find_simultaneous_positive, find_dominating) are
backed by L2/measure arguments guaranteeing solutions on a positive-density
set, so a dense grid search must succeed; each returned point carries a
SearchCertificate recording the margins and the Lipschitz bound that makes
interval claims rigorous.
"""

from __future__ import annotations

import math
from typing import (Callable, Iterable, Iterator, List, Mapping, NamedTuple,
                    Sequence, Tuple)

import numpy as np

from .budget import FrozenRecord, check_budget


class ResolutionTooCoarseError(ValueError):
    pass


class SearchExhaustedError(RuntimeError):
    """Grid budget exhausted without a certified solution (reported, never silent)."""


TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
# phasor powers per block of `evaluate_phasors` (96 KiB): blocks of 2048
# points, at K = 7 or 16 powers each, raised peak RSS by 0.2-0.3 MB
_CHUNK = 6144


class TrigPoly(FrozenRecord):
    """P(u) = sum c_k sin(t_k u + alpha_k), distinct frequencies t_k > 0."""

    __slots__ = _fields = ("terms",)
    terms: Tuple[Tuple[float, float, float], ...]  # (c_k, t_k, alpha_k)

    def __init__(self, terms: Iterable[Tuple[float, float, float]]) -> None:
        terms = tuple([(float(c), float(t), float(a)) for c, t, a in terms
                       if c != 0.0])
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
        if not len(coeffs) == len(freqs) == len(phases):
            raise ValueError(f"lengths differ: {len(coeffs)} coefficients, "
                             f"{len(freqs)} frequencies, {len(phases)} phases")
        return TrigPoly(tuple(zip(coeffs, freqs, phases)))

    @staticmethod
    def cosine(coeffs: Sequence[float], freqs: Sequence[float],
               phases: Sequence[float] | None = None) -> "TrigPoly":
        phases = phases if phases is not None else [0.0] * len(coeffs)
        return TrigPoly.sine(coeffs, freqs, [a + math.pi / 2 for a in phases])

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly(())

    @staticmethod
    def from_phasors(phasors: Mapping[float, complex]) -> "TrigPoly":
        """sum_t Im(z_t e^{itu}) = sum_t |z_t| sin(tu + arg z_t), dropping
        zero phasors."""
        return TrigPoly(tuple((abs(z), t, math.atan2(z.imag, z.real))
                              for t, z in sorted(phasors.items()) if abs(z) > 0.0))

    @staticmethod
    def combine(parts: Iterable["TrigPoly"]) -> "TrigPoly":
        """Sum of polynomials, merging equal frequencies by phasor addition."""
        phasors: dict[float, complex] = {}
        for p in parts:
            for c, t, a in p.terms:
                # c sin(tu+a) = Im(c e^{ia} e^{itu})
                phasors[t] = phasors.get(t, 0j) + c * complex(math.cos(a), math.sin(a))
        return TrigPoly.from_phasors(phasors)

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

    def rounding_bound(self, u_max: float, order: int = 0) -> float:
        """A bound on the float error of evaluating P (order 0) or P' (order
        1) at any |u| <= u_max: the argument t u + alpha, the sine and the
        product each round, and the sum adds one rounding per term."""
        return (self.n_terms + 4) * EPS * sum(
            abs(c) * t ** order * (3.0 + t * u_max + abs(a))
            for c, t, a in self.terms)


def l2_norm(p: TrigPoly) -> float:
    return p.l2_norm()


class EmpiricalMoments(NamedTuple):
    mean: float
    l2: float
    positive_fraction: float
    sup_seen: float


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


# --- proof-driven constants ---------------------------------------------------


# the small-values constant C behind eps1, and the domination margin eps3
SMALL_VALUES_C = 10.0
EPS3 = 1e-3


def eps_small_values(n: int, gamma: float) -> float:
    """The epsilon for which {|P| < eps * sum|c_k|} has density < gamma,
    at C = SMALL_VALUES_C."""
    return (1.0 / (2.0 * math.sqrt(n))) * (SMALL_VALUES_C / gamma) ** (1 - 2 * n)


def eps1(n: int) -> float:
    """Target threshold for the simultaneous-positivity search (half the
    small-value epsilon at density 1/(10n))."""
    return eps_small_values(n, 1.0 / (10.0 * n)) / 2.0


def eps2(n: int) -> float:
    """13^(-2^(n-1)), the all-negative search threshold."""
    return 13.0 ** -(2 ** (n - 1))


def eps_box(n: int, alpha: float) -> float:
    """6*(alpha/6)^(2^(n-1)), the lower edge of the fractional-part box."""
    return 6.0 * (alpha / 6.0) ** (2 ** (n - 1))


# --- certified grid scans ------------------------------------------------------


class SearchCertificate(NamedTuple):
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


class ScanReport(NamedTuple):
    """Result of certifying f > 0 on [lo, hi] by grid + Lipschitz bound; see
    `certified_positive_scan` for its margin, argmin and failure point."""

    ok: bool
    min_value: float
    argmin: float
    certified_step: float
    lipschitz: float
    failure_point: float | None = None


def check_scan_grid(lo: float, hi: float, step: float) -> float:
    """The cell count (hi - lo) / step of a scan grid over [lo, hi]:
    ValueError unless step > 0 and lo < hi, BudgetExceededError when the
    grid has more points than the sieve budget (RACE_LAB_BUDGET).  Every
    scan runs it, and so does a caller that reuses a scan's report."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    cells = (hi - lo) / step  # inf for a subnormal step
    check_budget(cells + 1, f"scan grid of {cells + 1:.6g} points")
    return cells


def certified_positive_scan(f: Callable[[np.ndarray], np.ndarray],
                            lipschitz: float, lo: float, hi: float,
                            step: float, max_depth: int = 40) -> ScanReport:
    """Certify f > 0 on [lo, hi], lo < hi: each grid cell needs min endpoint
    value > (cell width) * L / 2; cells failing that are bisected, down to
    max_depth halvings.

    f must accept an ndarray of points.  The bisection runs one depth at a
    time: every cell still uncertified at a depth has its midpoint evaluated
    in one call to f.  A cell fails when an endpoint value is <= 0, or when
    it is still uncertified at max_depth.  The scan stops at the first depth
    with a failing cell and names the leftmost one: its endpoint of smaller
    value if an endpoint is <= 0, else its left end.  min_value (the margin),
    argmin (ties to the shallowest, leftmost point) and certified_step (the
    finest step used) run over every point evaluated.  A grid of more points
    than the sieve budget (RACE_LAB_BUDGET) is refused before it is built
    (`check_scan_grid`), and so is a depth whose work would pass the budget,
    counted as one per grid point, five per bisected cell and four per half.
    """
    cells = check_scan_grid(lo, hi, step)
    pts = np.linspace(lo, hi, max(int(math.ceil(cells)) + 1, 3))
    work = len(pts)
    vals = np.asarray(f(pts), dtype=float)
    width = pts[1] - pts[0]
    min_val, argmin, finest = (float(vals.min()),
                               float(pts[int(vals.argmin())]), float(width))
    live = np.flatnonzero(np.minimum(vals[:-1], vals[1:])
                          <= width * lipschitz / 2.0)
    # live cells (a, b) with end values (fa, fb), kept in position order
    a, b, fa, fb = pts[live], pts[live + 1], vals[live], vals[live + 1]
    depth = 0
    while len(a):
        bad = (fa <= 0.0) | (fb <= 0.0)
        open_ = ~bad & ~(np.minimum(fa, fb) > (b - a) * lipschitz / 2.0)
        fail = np.flatnonzero(bad | open_ if depth >= max_depth else bad)
        if len(fail):
            k = fail[0]
            point = (a[k] if fa[k] <= fb[k] else b[k]) if bad[k] else a[k]
            return ScanReport(False, min_val, argmin, finest, lipschitz,
                              failure_point=float(point))
        if not open_.any():
            break
        a, b, fa, fb = a[open_], b[open_], fa[open_], fb[open_]
        work += 5 * len(a)
        check_budget(work + 8 * len(a), f"scan bisection to depth {depth + 1}")
        m = 0.5 * (a + b)
        fm = np.asarray(f(m), dtype=float)
        finest = min(finest, float(((b - a) / 2.0).min()))
        if fm.min() < min_val:
            min_val, argmin = float(fm.min()), float(m[fm.argmin()])
        a, b = np.column_stack([a, m]).ravel(), np.column_stack([m, b]).ravel()
        fa, fb = (np.column_stack([fa, fm]).ravel(),
                  np.column_stack([fm, fb]).ravel())
        depth += 1
    return ScanReport(True, min_val, argmin, finest, lipschitz)


# --- certified real roots ------------------------------------------------------


class TrigRoots(NamedTuple):
    """The real roots of one TrigPoly on [0, 2 pi/base), see `roots`:
    [root - radius, root + radius] holds exactly one root, slope is P'
    there, and margin > 0 certifies that no other root exists."""

    roots: np.ndarray
    radii: np.ndarray
    slopes: np.ndarray
    margin: float

    @property
    def certified(self) -> bool:
        return self.margin > 0.0


def _phasor_table(polys: Sequence[TrigPoly], base: float,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, alpha, C), each (len(polys), K): column k - 1 of row i holds the
    term c sin(k base u + alpha) of polys[i] and its phasor C = c e^{i alpha},
    zero where there is none.  Every frequency must be an exact integer
    multiple k * base."""
    row, ci, t, ai = np.array([(i, *term) for i, p in enumerate(polys)
                               for term in p.terms]).reshape(-1, 4).T
    row, kt = row.astype(int), np.rint(t / base).astype(int)
    if np.any((kt < 1) | (kt * base != t)):
        raise ValueError(f"frequencies must be integer multiples of {base}")
    c, a = np.zeros((2, len(polys), int(kt.max(initial=0))))
    c[row, kt - 1], a[row, kt - 1] = ci, ai
    return c, a, c * np.exp(1j * a)


def evaluate_phasors(C: np.ndarray, v) -> np.ndarray:
    """Im(sum_k C[i, k-1] e^{ikv}) for every row i of the complex (n, K)
    phasor table C at every point of the 1-D array v, as an (n, len(v)) array.

    With z = e^{iv} the values are Im(C @ Z) = Re(C) @ Im(Z) + Im(C) @ Re(Z)
    over the powers Z = (z^k): one cos and one sin per point, then K - 1
    complex products and one matmul in which only the imaginary part is
    summed.  Points go through in blocks of at most _CHUNK powers (one
    point at least), so no K x len(v) table is held, and a longer input
    gives the same floats as its blocks one by one.

    Against the exact value of row i at the float v, the error is at most
    EPS * sum_k |C[i, k-1]| * (6K + 4): cos and sin with up to 4 ulp error,
    the powers, the phasors and any summation order.
    """
    n, K = C.shape
    v = np.asarray(v, dtype=float)
    out = np.empty((n, len(v)))
    step = max(_CHUNK // max(K, 1), 1)
    for start in range(0, len(v), step):
        w = v[start:start + step]
        z = np.empty((K, len(w)), dtype=complex)
        if K:
            z[0] = np.cos(w) + 1j * np.sin(w)
        for k in range(1, K):
            np.multiply(z[k - 1], z[0], out=z[k])
        out[:, start:start + len(w)] = C.real @ z.imag + C.imag @ z.real
    return out


def evaluate(polys: Sequence[TrigPoly], v) -> np.ndarray:
    """Every polynomial at every point of the 1-D array v, as a
    (len(polys), len(v)) array, for integer frequencies (ValueError
    otherwise): `evaluate_phasors` on their phasors C = c e^{i alpha}, as
    c sin(kv + alpha) = Im(C e^{ikv}).  The error is at most
    EPS * sum|c_k| * (6K + 4), K the polynomial's largest frequency."""
    return evaluate_phasors(_phasor_table(polys, 1.0)[2], v)


def roots(polys: Sequence[TrigPoly], base: float) -> List[TrigRoots]:
    """Certified real roots on [0, 2 pi/base) of polynomials whose
    frequencies are exact integer multiples k * base.

    With v = base * u and z = e^{iv}, c sin(kv + a) = Im(c e^{ia} z^k), so
    the roots are unit-circle eigenvalues of the companion matrix of
    z^K sum_k (C_k z^k - conj(C_k) z^-k) (Boyd, SIAM Review 55, 2013), one
    np.linalg.eigvals call per degree K.  After one Newton step a root's
    radius 2(|P| + delta)/(|P'| - delta') (delta, delta': rounding bounds)
    is valid when L2 * radius <= (|P'| - delta')/2, L2 = sum |c| k^2: P is
    monotone and changes sign on the interval.  margin is what one
    coefficient of the quotient by the valid roots exceeds the others' sum
    by, less the error that rounding and the radii put in, relative to its
    l1 norm; margin > 0 and disjoint intervals leave the quotient no
    unit-circle root.  That holds for the degree-2 wave pairs of the layered
    barrier; on higher degrees the test can refuse a right count.
    """
    c, a, C = _phasor_table(polys, base)
    k_max = c.shape[1]
    k = np.arange(1, k_max + 1)
    l2 = np.abs(c) @ (k * k)
    delta = np.array([p.rounding_bound(TWO_PI / base) for p in polys])
    delta1 = np.array([p.rounding_bound(TWO_PI / base, 1) for p in polys]) / base
    coef = np.zeros((len(polys), 2 * k_max + 1), dtype=complex)  # ascending
    coef[:, k_max + 1:], coef[:, :k_max] = C, -np.conj(C[:, ::-1])

    # candidates: eigenvalues within 1e-6 of the unit circle (the count is
    # certified below).  Terms below rounding level stay out of the companion
    # matrix, where they would put entries near 1/EPS, not the certificate
    big = np.abs(c) > EPS * np.abs(c).sum(1, keepdims=True)
    degree = np.where(big.any(1), k_max - np.argmax(big[:, ::-1], 1), 0)
    pi, v = [np.zeros(0, dtype=int)], [np.zeros(0)]
    live = np.sort(degree[degree > 0])
    # a sorted dedupe: in numpy 2.x a plain np.unique imports numpy.ma
    for K in live[np.diff(live, prepend=0) > 0]:
        idx = np.flatnonzero(degree == K)
        mid = coef[idx, k_max - K:k_max + K + 1]
        comp = np.zeros((len(idx), 2 * K, 2 * K), dtype=complex)
        comp[:, np.arange(1, 2 * K), np.arange(2 * K - 1)] = 1.0
        comp[:, :, -1] = -mid[:, :-1] / mid[:, -1:]
        eig = np.linalg.eigvals(comp)
        row, col = np.nonzero(np.abs(np.abs(eig) - 1.0) <= 1e-6)
        pi.append(idx[row])
        v.append(np.angle(eig[row, col]) % TWO_PI)
    pi, v = np.concatenate(pi), np.concatenate(v)

    def values(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        arg = k * v[:, None] + a[pi]
        return (c[pi] * np.sin(arg)).sum(1), (c[pi] * k * np.cos(arg)).sum(1)

    with np.errstate(divide="ignore", invalid="ignore"):
        f, fp = values(v)
        v = (v - f / fp) % TWO_PI
        v[v == TWO_PI] = 0.0
        f, fp = values(v)
        slope = np.abs(fp) - delta1[pi]
        rho = 2.0 * (np.abs(f) + delta[pi]) / slope
        ok = (slope > 0) & (l2[pi] * rho <= slope / 2.0)
    order = np.flatnonzero(ok)
    order = order[np.lexsort((v[order], pi[order]))]
    pi, v, rho, fp = pi[order], v[order], rho[order], fp[order]
    count = np.bincount(pi, minlength=len(polys))
    n = np.arange(len(pi))
    first = np.searchsorted(pi, pi)
    zeta = np.zeros((len(polys), count.max(initial=0)), dtype=complex)
    dz = np.zeros(zeta.shape)
    zeta[pi, n - first], dz[pi, n - first] = np.exp(1j * v), rho + 2.0 * EPS

    # divide by (z - zeta), zeta within dz of a true root, keeping the width
    # 2 k_max + 1: b_j = sum_{i>j} q_i zeta^(i-j-1), so an l1 error E of q
    # becomes at most d (1+2eps)^d (E + (d-1) dz (|q|_1 + E)), plus
    # 8 eps d^2 |q|_1 for the division's rounding (d = 2 k_max)
    d = 2 * k_max
    q, err = coef, 8.0 * EPS * np.abs(c).sum(1)
    for r in range(zeta.shape[1]):
        rows = count > r
        b = np.zeros_like(q)
        for j in range(d, 0, -1):
            b[:, j - 1] = q[:, j] + zeta[:, r] * b[:, j]
        size = np.abs(q).sum(1)
        err = np.where(rows, d * (1.0 + 2.0 * EPS) ** d * (
            err + (d - 1) * dz[:, r] * (size + err)) + 8.0 * EPS * d * d * size,
            err)
        q = np.where(rows[:, None], b, q)
    mag = np.abs(q)
    total = mag.sum(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(total > 0, (2.0 * mag.max(1) - total - err) / total,
                          -math.inf)
    # intervals that meet, across the wrap-around too
    last = np.searchsorted(pi, pi, side="right") - 1
    nxt = np.where(n == last, first, n + 1)
    margin[pi[(nxt != n) & ((v[nxt] - v) % TWO_PI <= rho + rho[nxt])]] = -math.inf

    split = np.cumsum(count)[:-1]
    radii = (rho + 2.0 * EPS * TWO_PI) / base
    return [TrigRoots(roots=r, radii=w, slopes=s, margin=float(m))
            for r, w, s, m in zip(np.split(v / base, split),
                                  np.split(radii, split),
                                  np.split(fp * base, split), margin)]


def _window_scans(objective: Callable[[np.ndarray], np.ndarray],
                  base_period: float) -> Iterator[Tuple[float, float, float]]:
    """Per round r < 6, the best (u, objective(u)) over 64 * 2^r periods at
    256 * 2^r points per period, and that grid's step."""
    for r in range(6):
        periods, per_period = 64 << r, 256 << r
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
        yield best_u, best_v, base_period / per_period


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
    if len(beta) != n:
        raise ValueError("phases and frequencies differ in length")
    if any(x <= 0 for x in t):
        raise ValueError("frequencies must be positive")
    if any(abs(b) > e2 + 1e-15 for b in beta):
        raise ValueError(f"phases must satisfy |beta_k| <= eps2({n}) = {e2}")
    # equal frequencies share one box constraint
    s = sorted({x / TWO_PI for x in t}, reverse=True)
    return -find_fractional_parts(s, 6.0 / 13.0)


def find_simultaneous_positive(p_cos: TrigPoly,
                               q_sin: TrigPoly) -> SearchCertificate:
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
    e1 = eps1(n)
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

    for u, margin, step in _window_scans(objective, base):
        if margin > 0:
            m = {x: (float(p_cos(x) - e1 * s1), float(q_sin(x) - e1 * s2))
                 for x in (u, -u)}
            u = max((u, -u), key=lambda x: min(m[x]))  # u on a tie
            if min(m[u]) > 0:
                return SearchCertificate(
                    u=u, margins=m[u], derivative_bound=lip,
                    grid_step=step, target=0.0)
    raise SearchExhaustedError(
        "no certified simultaneous-positive point within grid budget")


def _aligned_coeffs(q_sin: TrigPoly, p_cos: TrigPoly, r_sin: TrigPoly,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    freqs = sorted({t for poly in (q_sin, p_cos, r_sin) for _, t, _ in poly.terms})
    return (np.array(freqs),) + tuple(
        np.array([{t: c for c, t, _ in poly.terms}.get(t, 0.0) for t in freqs])
        for poly in (p_cos, q_sin, r_sin))


def _check_domination_pre(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          gamma: float) -> None:
    if np.any(c < 0):
        raise ValueError("R coefficients must be nonnegative")
    if np.any(b + 1e-12 < np.abs(a) + c):
        raise ValueError("need b_k >= |a_k| + c_k at every shared frequency")
    if not np.sum(np.abs(a)) > gamma * np.sum(b):
        raise ValueError("need sum|a_k| > gamma * sum(b_k)")


def find_dominating(q_sin: TrigPoly, p_cos: TrigPoly, r_sin: TrigPoly,
                    gamma: float) -> SearchCertificate:
    """A u with Q(u) > max(|P(u)|, R(u)) + margin, maximizing the margin.

    Preconditions: shared frequencies, b_k >= |a_k| + c_k, c_k >= 0 and
    sum|a_k| > gamma * sum b_k.  The certificate reports whether the achieved
    margin meets the target EPS3 * gamma^2 * sum(b_k).
    """
    freqs, a, b, c = _aligned_coeffs(q_sin, p_cos, r_sin)
    _check_domination_pre(a, b, c, gamma)
    target = EPS3 * gamma * gamma * float(np.sum(b))
    lip = q_sin.lipschitz_bound + p_cos.lipschitz_bound + r_sin.lipschitz_bound
    base = TWO_PI / float(freqs.min())

    def objective(u: np.ndarray) -> np.ndarray:
        out = q_sin(u) - np.maximum(np.abs(p_cos(u)), r_sin(u))
        out_m = q_sin(-u) - np.maximum(np.abs(p_cos(-u)), r_sin(-u))
        return np.maximum(out, out_m)

    for u, margin, step in _window_scans(objective, base):
        direct = float(q_sin(u) - max(abs(p_cos(u)), r_sin(u)))
        if direct < margin - 1e-15:
            u = -u
            direct = float(q_sin(u) - max(abs(p_cos(u)), r_sin(u)))
        if direct > 0:
            return SearchCertificate(
                u=u, margins=(direct,), derivative_bound=lip,
                grid_step=step, target=target, satisfied=direct >= target)
    raise SearchExhaustedError("no dominating point found within grid budget")
