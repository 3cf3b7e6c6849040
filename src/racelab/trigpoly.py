"""Real trigonometric polynomials: evaluation, norms, measure estimates,
and the constructive sign-pattern searches used by the barrier machinery.

A TrigPoly is a finite sum  P(u) = sum_k c_k sin(t_k u + alpha_k)  with
pairwise distinct positive frequencies.  Cosines are phase-shifted sines.
Calling it evaluates term by term, for any real frequencies.  When every
frequency is an integer multiple k * base, P is Im(sum_k C_k z^k) over the
phasors C_k = c_k e^{i alpha_k} and z = e^{i base u}: `evaluate_phasors`
computes many such polynomials from one table of powers of z, two
transcendentals per point rather than one per term, and `roots` isolates
their real roots and `certified_positive_scan` certifies a sign by Taylor
cells on it, with bounds that cover its rounding (`_taylor_table`).  The
scan goes through its cells a block at a time, so its memory is bounded by
one block plus the cells it splits, not by its grid.

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
    """Result of certifying max_i B_i - A > 0 on [lo, hi] by Taylor cells;
    see `certified_positive_scan` for each field."""

    ok: bool
    min_value: float
    argmin: float
    certified_step: float
    delta: float
    lower_bound: float
    failure_point: float | None = None


def certified_positive_scan(base: TrigPoly, branches: Sequence[TrigPoly],
                            lo: float, hi: float, step: float,
                            max_depth: int = 40) -> ScanReport:
    """Certify max_i branches[i] - base > 0 on a finite [lo, hi], lo < hi,
    for integer frequencies, by Taylor cells on the rows d_i = C_i - C_0 of
    their `_taylor_table`.  delta_i covers rounding: that row's bound
    taken half again, plus the bounds of the rows C_i and C_0 themselves,
    since building C_i - C_0 errs by a few EPS sum(|C_i| + |C_0|) however
    small d_i is.

    Cells start on a grid of step <= `step` and are halved a depth at a
    time, with one half-width R per depth.  A cell passes when some branch
    has d_i(m) - delta_i - shrinks > 0 at its midpoint m, shrinks =
    (|d_i'(m)| + delta'_i) R + L2_i R^2/2; it fails when every branch has
    d_i(m) + delta_i <= 0, d_i(m) + delta_i + shrinks <= 0 or shrinks <=
    delta_i (a margin below rounding), or at max_depth; else it is split.
    The scan stops at the first depth with a failing cell, and names the
    leftmost one's midpoint.  lower_bound is the least bound of a passing
    cell (and of every cell of a failing depth), min_value and argmin (the
    shallowest, leftmost on ties) run over the midpoints, certified_step
    is the finest cell width and delta the largest delta_i.  Grids and
    depths over the sieve budget (RACE_LAB_BUDGET) are refused, counting
    one per grid point, five per split cell and four per half.

    A depth's cells go through in grid order, in blocks of at most _CHUNK
    made of whole `evaluate_phasors` blocks, and the depth decides only
    once all are folded in: R, the minimum, the bounds, the leftmost
    failing midpoint and the budget are the whole depth's, so the report
    does not depend on the block size.  A scan's memory is bounded by one
    block plus the cells it splits, not by its grid.
    """
    if not branches:
        raise ValueError("need at least one branch")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"need a finite interval, got [{lo}, {hi}]")
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    cells = (hi - lo) / step  # inf for a subnormal step
    check_budget(cells + 1, f"scan grid of {cells + 1:.6g} points")
    C = _phasor_table([base, *branches], 1.0)
    table, delta, delta1, l2 = _taylor_table(C[1:] - C[0])
    own = _taylor_table(C)[1]
    # the table D = C_i - C_0 errs from the exact one by < 6 EPS sum(|C_i| +
    # |C_0|) <= own_i + own_0 (>= 10 EPS sum(...)); the extra half of delta
    # (>= 5 EPS sum|D|) covers rounding i k D, L2 and the tests
    rnd, rnd1, curv = (x[:, None] for x in
                       (1.5 * delta + own[1:] + own[0], 1.5 * delta1, l2 / 2))
    work = n = max(int(math.ceil(cells)) + 1, 3)
    dx, halves = (hi - lo) / (n - 1), None
    width = (dx + lo) - lo  # pts[1] - pts[0]
    # whole `evaluate_phasors` blocks, so that each cell's values are summed
    # as they would be with the depth's cells at once
    size = max(_CHUNK // max(table.shape[1], 1), 1)
    size *= max(_CHUNK // size, 1)

    def blocks():  # (a, b) of the depth's cells, a block at a time
        for j in range(0, n - 1 if halves is None else len(halves[0]), size):
            if halves is None:  # np.linspace(lo, hi, n), a block at a time
                pts = np.arange(j, min(j + size + 1, n)) * dx + lo
                if j + size >= n - 1:
                    pts[-1] = hi
                yield pts[:-1], pts[1:]
            else:
                yield halves[0][j:j + size], halves[1][j:j + size]

    min_val, argmin, lower = math.inf, 0.0, math.inf
    for depth in range(max(max_depth, 0) + 1):
        # m rounds by at most EPS max|v| / 2
        R = (0.5 * max(float((b - a).max()) for a, b in blocks())
             + 2.0 * EPS * max(abs(lo), abs(hi)))
        shrinks = rnd1 * R + curv * R * R
        low, failure, kept = math.inf, None, []
        for a, b in blocks():
            m = 0.5 * (a + b)
            vals = evaluate_phasors(table, m)
            d, g = vals[:len(rnd)], vals[len(rnd):]
            np.abs(g, out=g)
            g *= R  # R |d_i'(m)|; g + shrinks are the terms halving shrinks
            best = d - g
            best -= shrinks + rnd
            top, best = d.max(0), best.max(0)
            k, low = int(top.argmin()), float(np.minimum(low, best.min()))
            if top[k] < min_val:
                min_val, argmin = float(top[k]), float(m[k])
            i = np.flatnonzero(~(best > 0.0))
            lower = min(lower, float(best.min(initial=math.inf, where=best > 0)))
            if failure is None and len(i):
                d, s = d[:, i], g[:, i] + shrinks
                fail = (~((d + rnd).max(0) > 0.0)
                        | ((s <= rnd) | (d + s + rnd <= 0.0)).all(0))
                fail |= depth >= max_depth
                if fail.any():
                    failure = float(m[i[fail.argmax()]])
                kept.append((a[i], m[i], b[i]))
        if low > 0.0 or failure is not None:
            return ScanReport(low > 0.0, min_val, argmin, width,
                              float(rnd.max()), min(lower, low),
                              failure_point=failure)
        a, m, b = (np.concatenate(x) for x in zip(*kept))
        work += 5 * len(m)
        check_budget(work + 8 * len(m), f"scan bisection to depth {depth + 1}")
        halves = (np.column_stack([a, m]).ravel(),
                  np.column_stack([m, b]).ravel())
        width /= 2.0


# --- certified real roots ------------------------------------------------------


class TrigRoots(NamedTuple):
    """The real roots of one TrigPoly on [0, 2 pi/base), see `roots`:
    [root - radius, root + radius] holds exactly one root, slope is P'
    there, and certified (no unresolved cell) says there is no other."""

    roots: np.ndarray
    radii: np.ndarray
    slopes: np.ndarray
    unresolved: int

    @property
    def certified(self) -> bool:
        return self.unresolved == 0


def _phasor_table(polys: Sequence[TrigPoly], base: float) -> np.ndarray:
    """The complex (len(polys), K) table whose column k - 1 of row i holds
    the phasor C = c e^{i alpha} of the term c sin(k base u + alpha) of
    polys[i], zero where there is none.  Every frequency must be an exact
    integer multiple k * base."""
    row, ci, t, ai = np.array([(i, *term) for i, p in enumerate(polys)
                               for term in p.terms]).reshape(-1, 4).T
    row, kt = row.astype(int), np.rint(t / base).astype(int)
    if np.any((kt < 1) | (kt * base != t)):
        raise ValueError(f"frequencies must be integer multiples of {base}")
    C = np.zeros((len(polys), int(kt.max(initial=0))), dtype=complex)
    C[row, kt - 1] = ci * np.exp(1j * ai)
    return C


def evaluate_phasors(C: np.ndarray, v, rows: np.ndarray | None = None,
                     ) -> np.ndarray:
    """Im(sum_k C[i, k-1] e^{ikv}) for every row i of the complex (n, K)
    phasor table C at every point of the 1-D array v, as an (n, len(v))
    array; or of row rows[j] at v[j] only, as a 1-D array, given rows.

    With z = e^{iv} the values are Im(C @ Z) = Re(C) @ Im(Z) + Im(C) @ Re(Z)
    over the powers Z = (z^k): one cos and one sin per point, then K - 1
    complex products and one matmul in which only the imaginary part is
    summed.  Points go through in blocks of _CHUNK // K (one point at
    least), so no K x len(v) table is held.  Below K = 16 a longer input
    gives the same floats as its blocks one by one; from 16 on, the BLAS
    product (OpenBLAS 0.3) sums the last few columns of a block in another
    order, so only the same blocks give the same floats.

    Against the exact value of row i at the float v, the error is at most
    EPS * sum_k |C[i, k-1]| * (6K + 4): cos and sin with up to 4 ulp error,
    the powers, the phasors and any summation order.
    """
    n, K = C.shape
    v = np.asarray(v, dtype=float)
    out = np.empty((n, len(v)) if rows is None else len(v))
    step = max(_CHUNK // max(K, 1), 1)
    for start in range(0, len(v), step):
        part = slice(start, start + step)
        w = v[part]
        # two columns at least: numpy sums a one-column product as dot
        # products, in another order than a wider one
        z = np.empty((K, max(len(w), 2)), dtype=complex)
        if K:
            z[0] = np.cos(w) + 1j * np.sin(w)
        for k in range(1, K):
            np.multiply(z[k - 1], z[0], out=z[k])
        if rows is None:
            out[:, part] = (C.real @ z.imag + C.imag @ z.real)[:, :len(w)]
        else:
            out[part] = np.einsum("jk,kj->j", C[rows[part]], z[:, :len(w)]).imag
    return out


def _taylor_table(C: np.ndarray,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The table [C; i k C] of an (n, K) phasor table C: f = Im(sum_k C_k
    e^{ikv}) in row i and f' in row n + i.  Per row, the bounds of its
    Taylor cells: the rounding bounds of `evaluate_phasors` on f and f',
    delta = EPS sum|C_k| (6K + 4) and delta' = EPS sum|C_k| k (6K + 4),
    and L2 = sum|C_k| k^2 >= |f''|."""
    k = np.arange(1, C.shape[1] + 1)
    mag = np.abs(C)
    delta, delta1 = EPS * (6 * len(k) + 4) * np.array([mag.sum(1), mag @ k])
    return np.vstack([C, 1j * k * C]), delta, delta1, mag @ (k * k)


# a cell is tested on [m - R, m + R], R this multiple of its half-width, so
# that a root on or near an edge lies inside both cells that share it
_OVERLAP = 1.5


def roots(polys: Sequence[TrigPoly], base: float) -> List[TrigRoots]:
    """Certified real roots on [0, 2 pi/base) of polynomials whose
    frequencies are exact integer multiples k * base, by Taylor cells
    (Tucker, Validated Numerics, 2011) in v = base u on the rows f(v) =
    Im(sum_k C_k e^{ikv}) of their phasor table C (K columns).

    A nonzero row starts from max(64, 8K) cells covering [0, 2 pi], each
    tested on [m - R, m + R] around its midpoint (see _OVERLAP); an all-zero
    row is one unresolved cell.  One `evaluate_phasors` call per depth gives
    f(m) and f'(m) at every live cell, within the bounds delta and delta' of
    `_taylor_table`, and |f''| <= L2.  A cell has no root when |f(m)| - delta
    > (|f'(m)| + delta') R + L2 R^2/2; else, if |f'(m)| - delta' > L2 R, one
    simple root or none as the Taylor bounds at its ends differ in sign or
    not; else it is split, or left unresolved once the terms that halving
    shrinks are below delta or m is not strictly inside it (a double root,
    or roots closer than rounding can tell).  Newton steps kept in the cell
    polish each root, whose radius rho = 2(|f| + delta)/(|f'| - delta') must
    meet L2 rho <= (|f'| - delta')/2 and keep the interval in the cell, or
    the cell is unresolved.  Cells that hold one root report it once.  Radii
    add 2 EPS 2 pi for the reduction to [0, 2 pi).
    """
    table, delta, delta1, l2 = _taylor_table(_phasor_table(polys, base))
    n, K = len(delta), table.shape[1]

    def values(row, v: np.ndarray) -> np.ndarray:  # f(v) and f'(v)
        return evaluate_phasors(table, np.tile(v, 2),
                                np.concatenate([row, row + n])).reshape(2, -1)

    cells = max(64, 8 * K)
    row = np.repeat(np.flatnonzero(delta), cells)
    j = np.arange(len(row)) % cells
    a, b = np.linspace(0.0, np.nextafter(TWO_PI, 7.0), cells + 1)[[j, j + 1]]
    unresolved = (delta == 0.0).astype(int)
    hits = [(row[:0], a[:0], a[:0], a[:0])]  # one-root rows, ends, roots
    while len(row):
        m = 0.5 * (a + b)
        R = _OVERLAP * (1.0 + 2.0 * EPS) * np.maximum(m - a, b - m)
        (f, g), d, d1, L = values(row, m), delta[row], delta1[row], l2[row]
        shrinks = (np.abs(g) + d1) * R + 0.5 * L * R * R
        lo, hi, err = f - g * R, f + g * R, d + d1 * R + 0.5 * L * R * R
        sure = ((np.abs(g) - d1 > L * R)
                & (np.minimum(np.abs(lo), np.abs(hi)) > err))
        one = sure & ((lo > 0.0) != (hi > 0.0))
        hits.append((row[one], (m - R)[one], (m + R)[one], (m - f / g)[one]))
        split = ~sure & (np.abs(f) - d <= shrinks)
        stuck = split & ((shrinks <= d) | (m <= a) | (m >= b))
        unresolved += np.bincount(row[stuck], minlength=n)
        split &= ~stuck
        row, a, b, m = np.repeat(row[split], 2), a[split], b[split], m[split]
        a, b = np.column_stack([a, m]).ravel(), np.column_stack([m, b]).ravel()

    row, lo, hi, x = (np.concatenate(col) for col in zip(*hits))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(32):
            f, g = values(row, x)
            if not np.any(np.abs(f / g) > 4.0 * EPS):
                break
            x = np.clip(x - f / g, lo, hi)
        else:
            f, g = values(row, x)
        slope = np.abs(g) - delta1[row]
        rho = 2.0 * (np.abs(f) + delta[row]) / slope
        ok = ((slope > 0.0) & (l2[row] * rho <= slope / 2.0)
              & (x - rho >= lo) & (x + rho <= hi))
    unresolved += np.bincount(row[~ok], minlength=n)
    x = x[ok] % TWO_PI
    x[x == TWO_PI] = 0.0  # a tiny negative x, rounded up
    order = np.lexsort((x, row[ok]))
    row, x, g = row[ok][order], x[order], g[ok][order]
    rho = rho[ok][order] + 2.0 * EPS * TWO_PI

    # of two intervals with one slope sign that meet, a row's last and first
    # across 2 pi too, drop the later: they hold one root
    i = np.arange(len(x))
    first = np.searchsorted(row, row)
    nxt = np.where(i == np.searchsorted(row, row, "right") - 1, first, i + 1)
    meet = ((nxt != i) & (g * g[nxt] > 0.0)
            & ((x[nxt] - x) % TWO_PI <= rho + rho[nxt]))
    keep = np.ones(len(x), dtype=bool)
    keep[np.maximum(i, nxt)[meet]] = False
    x, rho, g = x[keep] / base, rho[keep] / base, g[keep] * base
    ends = np.cumsum(np.bincount(row[keep], minlength=n)).tolist()
    return [TrigRoots(x[i:j], rho[i:j], g[i:j], u) for i, j, u in
            zip([0, *ends], ends, unresolved.tolist())]


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
