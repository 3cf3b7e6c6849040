"""Ground-truth prime counts: a segmented sieve producing pi(x) and the
per-residue counts pi_{q,a}(x) at checkpoints, exact lead-change detection,
and comparison of real races against the sigma-line oscillation sum fed by
critical-line zero data.

One kernel, `_odd_prime_masks`, sieves [2, x_max] segment by segment into
boolean masks over the odd n = 2k + 1. Each mask starts from a wheel
pattern with the multiples of 3, 5, 7, 11, 13 and 17 already struck, and
every base prime above 17 carries its next strike index from segment to
segment. `iter_prime_segments` turns the masks into prime arrays (for
`first_lead_change`). `sieve_race` counts the masks directly: n mod q
depends only on k mod m, m = q / gcd(q, 2), so each class k = s (mod m)
of a mask is one residue class, and its primes below a checkpoint c are
its true slots with k < (c + 1) // 2. The prime 2 is added once.
`simple_sieve` supplies the base primes and is the small-range oracle.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .budget import BudgetExceededError, check_budget, sieve_budget
from .residues import separating_characters, sqrt_count, unit_group
from .simulator import corollary13_sum
from .zerosys import ZeroSystem

SEGMENT = 1 << 21
# odd primes presieved by the segment mask's starting pattern, whose period
# is their product (255255 odd numbers)
WHEEL = (3, 5, 7, 11, 13, 17)


class InvalidPairError(ValueError):
    pass


class InsufficientZeroDataError(ValueError):
    pass


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit (plain sieve, used for base primes and as the
    small-range oracle)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def _odd_prime_masks(x_max: int, segment: int = SEGMENT,
                     ) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (k0, mask) per segment [lo, min(lo + segment, x_max + 1)), lo
    from 2: mask[i] is true exactly when 2(k0 + i) + 1 is an odd prime."""
    if x_max < 2:
        return
    base = simple_sieve(int(math.isqrt(x_max)))
    base = base[base > WHEEL[-1]]
    nxt = (base * base - 1) // 2       # k of each base prime's next strike
    # the wheel pattern over k, long enough to cut a segment's odd slots
    # from any phase of its period, and no longer than [0, x_max] needs
    period = math.prod(WHEEL)
    slots = min(segment, x_max) // 2 + 1
    pattern = np.ones(min(x_max // 2 + 1, period - 1 + slots), dtype=bool)
    for p in WHEEL:
        pattern[(p - 1) // 2:: p] = False
    lo = 2
    while lo <= x_max:
        hi = min(lo + segment, x_max + 1)
        k0, k1 = lo // 2, hi // 2          # odd n in [lo, hi) <-> k in [k0, k1)
        phase = k0 % period
        mask = pattern[phase: phase + k1 - k0].copy()
        act = nxt < k1
        strikes, steps = nxt[act], base[act]
        for s, p in zip((strikes - k0).tolist(), steps.tolist()):
            mask[s:: p] = False
        nxt[act] = strikes + (k1 - strikes + steps - 1) // steps * steps
        for p in WHEEL:
            if lo <= p < hi:
                mask[(p - 1) // 2 - k0] = True
        yield k0, mask
        lo = hi


def iter_prime_segments(x_max: int, segment: int = SEGMENT,
                        ) -> Iterator[np.ndarray]:
    """Yield ascending arrays of primes covering [2, x_max], one per
    segment [lo, min(lo + segment, x_max + 1)) with lo starting at 2, and
    nothing for x_max < 2."""
    for i, (k0, mask) in enumerate(_odd_prime_masks(x_max, segment)):
        idx = 2 * (np.flatnonzero(mask) + k0) + 1
        yield np.concatenate(([2], idx)) if i == 0 else idx


def checkpoints_from_rule(rule: str | Sequence[float], x_max: int,
                          columns: int = 1) -> np.ndarray:
    """Checkpoint grids: "geometric:<ratio>" (default 1.01), "linear:<step>",
    or an explicit sequence; every rule keeps the points in [2, x_max], so
    the grid is empty for x_max < 2. Rows x columns above sieve_budget()
    raise BudgetExceededError before the grid is built."""
    def check(rows: float) -> None:
        check_budget(rows * columns, f"checkpoint grid of {math.ceil(rows)} "
                                     f"rows x {columns} columns")

    if not isinstance(rule, str):
        pts = rule
    else:
        kind, _, arg = rule.partition(":")
        if kind == "geometric":
            ratio = float(arg) if arg else 1.01
            if not ratio > 1.0:
                raise ValueError("geometric ratio must exceed 1")
            # an upper bound: x steps by 1 while x < a, then by the ratio;
            # 2, x_max and rounding take 3 more rows, at most x_max - 1
            a = 1.0 / (ratio - 1.0)
            check(min(max(x_max - 1, 0), min(a, x_max) + 3 + math.log(
                max(x_max / max(a, 2.0), 1.0)) / math.log1p(ratio - 1.0)))
            pts = [2]
            x = 2.0
            while True:
                x = max(x * ratio, x + 1.0)
                if x > x_max:
                    break
                pts.append(int(x))
            pts.append(x_max)
        elif kind == "linear":
            step = float(arg) if arg else max(x_max // 1000, 1)
            if not 1.0 <= step < math.inf:
                raise ValueError("linear step must be finite and at least 1")
            step = int(step)
            grid = range(2, x_max + 1, step)
            # the grid, and x_max where the grid misses it
            check(len(grid) + (x_max >= 2 and x_max not in grid))
            pts = np.append(np.arange(2, x_max + 1, step), x_max)
        else:
            raise ValueError(f"unknown checkpoint rule {rule!r}")
    pts = np.sort(np.asarray(pts, dtype=np.int64))
    pts = pts[(pts >= 2) & (pts <= x_max)]
    # a sorted dedupe: in numpy 2.x a plain np.unique imports numpy.ma
    pts = pts[np.diff(pts, prepend=0) > 0]
    check(len(pts))
    return pts


@dataclass
class PrimeRaceTable:
    """Exact counts pi(x_i) and pi_{q,a}(x_i) at the checkpoints.

    counts has shape (n_checkpoints, phi(q)); columns follow `residues`.
    Primes dividing q are counted in pi but in no residue class.
    """

    q: int
    residues: Tuple[int, ...]
    checkpoints: np.ndarray
    counts: np.ndarray
    pi: np.ndarray

    def _row(self, x: float) -> int:
        """The row of checkpoint x; ValueError unless x is a checkpoint."""
        idx = int(np.searchsorted(self.checkpoints, int(x)))
        if idx >= len(self.checkpoints) or self.checkpoints[idx] != int(x):
            raise ValueError(f"{x} is not a checkpoint")
        return idx

    def pi_at(self, x: float) -> int:
        """pi at a checkpoint (exact); x must match a checkpoint."""
        return int(self.pi[self._row(x)])

    def count(self, a: int, x: float) -> int:
        return int(self.counts[self._row(x), self.residues.index(a % self.q)])

    # CSV with a JSON header line naming the residues
    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# " + json.dumps({"q": self.q,
                                     "residues": list(self.residues)}) + "\n")
        buf.write("x,pi," + ",".join(f"pi_{a}" for a in self.residues) + "\n")
        # one row of Python ints at a time: a whole-table tolist() triples the
        # peak memory of a large table
        buf.write("".join(f"{x},{p}," + ",".join(map(str, row.tolist())) + "\n"
                          for x, p, row in zip(self.checkpoints.tolist(),
                                               self.pi.tolist(), self.counts)))
        return buf.getvalue()


def sieve_race(q: int, x_max: int,
               checkpoint_rule: str | Sequence[float] = "geometric:1.01",
               ) -> PrimeRaceTable:
    """Segmented sieve accumulating per-residue counts at checkpoints."""
    check_budget(x_max, f"x_max {x_max}")
    residues = unit_group(q).units
    phi = len(residues)
    cps = checkpoints_from_rule(checkpoint_rule, int(x_max), phi + 1)
    # n = 2k + 1 mod q depends on k mod m only; the class of each residue
    # is the k of its odd representative below 2q
    m = q // math.gcd(q, 2)
    units = np.array(residues)
    klass = (units + q * (1 - units % 2) - 1) // 2
    # the odd n <= c are the k < (c + 1) // 2
    cut = (cps + 1) // 2
    counts = np.zeros((len(cps), phi), dtype=np.int64)
    pi = np.zeros(len(cps), dtype=np.int64)
    # odd primes per class below the current segment
    carry = np.zeros(m, dtype=np.int64)
    done = 0
    for k0, mask in _odd_prime_masks(int(x_max)):
        end = int(np.searchsorted(cut, k0 + len(mask), side="right"))
        # grid starts at the k below k0 divisible by m, so that row s of
        # its transpose holds the class k = s (mod m) in order, from
        # at[rows[s]] to at[rows[s + 1]]
        lead = k0 % m
        width = -(-(lead + len(mask)) // m)
        grid = np.zeros(width * m, dtype=bool)
        grid[lead: lead + len(mask)] = mask
        at = np.flatnonzero(grid.reshape(width, m).T)
        rows = np.searchsorted(at, np.arange(m + 1) * width)
        # ceil((c - s) / m) slots of row s lie below a cut c
        s = np.arange(m)[:, None]
        below = np.searchsorted(
            at, (cut[done:end] - k0 + lead - s + m - 1) // m + s * width)
        below += (carry - rows[:-1])[:, None]
        counts[done:end] = below[klass].T
        pi[done:end] = below.sum(axis=0)
        carry += np.diff(rows)
        done = end
    # the prime 2 lies below every checkpoint
    pi += 1
    if q % 2:
        counts[:, residues.index(2)] += 1
    return PrimeRaceTable(q=q, residues=residues, checkpoints=cps,
                          counts=counts, pi=pi)


def first_lead_change(q: int, a: int, b: int, x_max: int) -> int | None:
    """The least prime x where sign(pi_{q,a} - pi_{q,b}) flips against its
    initial nonzero sign; None if no change occurs up to x_max."""
    group = unit_group(q)
    a %= q
    b %= q
    if a == b:
        raise InvalidPairError("residues must be distinct")
    if not (group.is_unit(a) and group.is_unit(b)):
        raise InvalidPairError("residues must be units")
    check_budget(x_max, f"x_max {x_max}")
    diff = 0
    initial_sign = 0
    for primes in iter_prime_segments(int(x_max)):
        rem = primes % q
        hits = primes[(rem == a) | (rem == b)]
        if len(hits) == 0:
            continue
        deltas = np.where(hits % q == a, 1, -1)
        cums = diff + np.cumsum(deltas)
        start = 0
        if initial_sign == 0:
            nonzero = np.nonzero(cums != 0)[0]
            if len(nonzero) == 0:
                diff = int(cums[-1])
                continue
            start = int(nonzero[0])
            initial_sign = int(np.sign(cums[start]))
        flips = np.nonzero(np.sign(cums[start:]) == -initial_sign)[0]
        if len(flips):
            return int(hits[start + int(flips[0])])
        diff = int(cums[-1])
    return None


@dataclass(frozen=True)
class ComparisonReport:
    q: int
    a: int
    b: int
    sigma: float
    checkpoints: np.ndarray
    scaled_difference: np.ndarray
    predicted: np.ndarray
    sign_agreement: float
    bias_constant: float

    def to_dict(self) -> dict:
        return {"q": self.q, "a": self.a, "b": self.b, "sigma": self.sigma,
                "sign_agreement": self.sign_agreement,
                "bias_constant": self.bias_constant,
                "n_checkpoints": int(len(self.checkpoints))}


def compare_with_simulator(table: PrimeRaceTable, zeros: ZeroSystem,
                           sigma: float, a: int, b: int,
                           x_min: float = 1e3) -> ComparisonReport:
    """Scaled real race u*phi(q)/(2 e^(sigma u)) (pi_a - pi_b) against the
    truncated sigma-line sum.

    At sigma = 1/2 the square-root term of the explicit formula contributes
    the constant (N_q(b) - N_q(a))/2 to the scaled difference, which is added
    to the prediction exactly there.
    """
    if zeros is None or zeros.size == 0:
        raise InsufficientZeroDataError("no zeros supplied")
    if zeros.q != table.q:
        raise InsufficientZeroDataError("zero data modulus mismatch")
    sep = separating_characters(zeros.q, a, b)
    covered = any(zeros.chars[label] in sep for label in zeros.entries)
    if sep and not covered:
        raise InsufficientZeroDataError(
            "zero data covers no character separating the pair")
    q = table.q
    phi = len(table.residues)
    ia, ib = table.residues.index(a % q), table.residues.index(b % q)
    keep = table.checkpoints >= x_min
    if not keep.any():
        raise InsufficientZeroDataError(
            f"no checkpoint at or above x_min = {x_min:g}")
    xs = table.checkpoints[keep].astype(float)
    diff = (table.counts[keep, ia] - table.counts[keep, ib]).astype(float)
    u = np.log(xs)
    scaled = u * phi / (2.0 * np.exp(sigma * u)) * diff
    bias = (sqrt_count(q, b % q) - sqrt_count(q, a % q)) / 2.0 \
        if sigma == 0.5 else 0.0
    predicted = bias + corollary13_sum(zeros, a, b, u)
    if a % q == b % q:
        agreement = 1.0
    else:
        agreement = float(np.mean(np.sign(scaled) == np.sign(predicted)))
    return ComparisonReport(q=q, a=a % q, b=b % q, sigma=sigma,
                            checkpoints=xs, scaled_difference=scaled,
                            predicted=predicted, sign_agreement=agreement,
                            bias_constant=bias)
