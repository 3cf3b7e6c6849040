"""Ground-truth prime counts: a segmented sieve producing pi(x) and the
per-residue counts pi_{q,a}(x) at checkpoints, exact lead-change detection,
and comparison of real races against the sigma-line oscillation sum fed by
critical-line zero data.

One kernel, `_progression_sieve`, sieves a progression n = c + d j, d even,
segment by segment into boolean masks over its slots j: each tiled from one
period of the row's wheel pattern (the multiples of 3..17 struck), then the
base primes above 17 struck, each carried from segment to segment.
`sieve_race` sieves one at a time the rows c prime to d of d = 2 r w: r the
largest divisor of m = q / gcd(q, 2) whose rows fill a segment, and once
r = m, w the product of the wheel primes not dividing q, taken in order
while each lowers a measured cost of slots, strike slices and rows. n mod q
depends only on c and j mod m / r, so each such sub-class of a row is one
residue class, (c + d t) mod q, and the rows of one class add up. A prime
p | d lies in no row: it counts in pi from x = p on, and in its class when
it is a unit; pi counts the primes dividing q directly. `first_lead_change`
reads the two rows of its classes as one running count. No list of primes
is built: masks are counted by the sums of their 8-slot words.
"""

from __future__ import annotations

import io
import json
import math
from typing import Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .budget import BudgetExceededError, Record, check_budget, sieve_budget
from .residues import sqrt_count, unit_group
from .simulator import corollary13_sum
from .zerosys import ZeroSystem

SEGMENT = 1 << 21
# odd primes presieved by a row's starting pattern, whose period is the
# product of those not dividing its d (255255 slots of the odd row)
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


def _progression_sieve(d: int, x_max: int):
    """Masks of n = c + d j <= x_max, d even: rows(c, edges), 0 < c < d prime
    to d, c + d edges[0] >= 2, yields (j0, mask) per slot segment [j0, j1)
    of edges, mask[i] true exactly when c + d(j0 + i) is prime."""
    base = simple_sieve(math.isqrt(max(x_max, 0)))
    base = base[(base > WHEEL[-1]) & (d % base != 0)]
    inv = np.array([pow(d, -1, p) for p in base.tolist()], dtype=np.int64)
    wheel = [(p, pow(d, -1, p)) for p in WHEEL if d % p]
    period = math.prod(p for p, _ in wheel)

    def rows(c: int, edges: Sequence[int]) -> Iterator[Tuple[int, np.ndarray]]:
        # j of each base prime's next strike: its first multiple >= p^2
        first = (base * base - c + d - 1) // d
        nxt = first + (-c * inv - first) % base
        # the wheel pattern over one period of j (the whole row if shorter);
        # it strikes the row's own wheel primes too, at the slots `own`
        pattern = np.ones(min(edges[-1], period), dtype=bool)
        for p, u in wheel:
            pattern[-c * u % p:: p] = False
        own = [(p - c) // d for p, _ in wheel if (p - c) % d == 0]
        for j0, j1 in zip(edges, edges[1:]):
            # the mask, tiled: a period from j0's phase, then doubling copies
            phase, n = j0 % period, j1 - j0
            mask = np.empty(n, dtype=bool)
            k = min(period - phase, n)
            mask[:k] = pattern[phase: phase + k]
            mask[k: period] = pattern[: min(phase, n - k)]
            k = period
            while k < n:
                mask[k: 2 * k] = mask[: min(k, n - k)]
                k *= 2
            act = nxt < j1
            strikes, steps = nxt[act], base[act]
            for s, p in zip((strikes - j0).tolist(), steps.tolist()):
                mask[s:: p] = False
            nxt[act] = strikes + (j1 - strikes + steps - 1) // steps * steps
            mask[[j - j0 for j in own if j0 <= j < j1]] = True
            yield j0, mask

    return rows


def _runs(a: np.ndarray) -> np.ndarray:
    """The starts of the runs of equal values in a nonempty array."""
    starts = np.empty(len(a), dtype=bool)
    starts[0] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _prefix_counts(mask: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The Trues of a bool mask below each of one or more ascending
    positions pos, 0 <= pos <= len(mask): those of `_distinct_prefix_counts`
    at the distinct positions, repeated over each run.  Its arrays the size
    of the distinct positions are freed before the repeat allocates one the
    size of pos."""
    runs = _runs(pos)
    return np.repeat(_distinct_prefix_counts(mask, pos[runs]),
                     np.diff(runs, append=len(pos)))


def _distinct_prefix_counts(mask: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The Trues of a bool mask below each of strictly ascending positions
    at: the sums of its whole 8-slot words, added up between the distinct
    words of at only, plus the slots of each partial word below its
    position."""
    n8 = len(mask) & -8
    words = mask[:n8].view("<u8")
    # the Trues below each position, from the whole words below each
    # distinct word (none below word 0)
    word = at >> 3
    words_at = _runs(word)
    ends = word[words_at]
    below = np.zeros(len(ends), dtype=np.int64)
    i = int(ends[0] == 0)
    if i < len(ends):
        below[i:] = np.add.reduceat(
            np.bitwise_count(words[:ends[-1]]), np.r_[0, ends[i:-1]],
            dtype=np.int64).cumsum()
    pref = np.repeat(below, np.diff(words_at, append=len(at)))
    # positions in a whole word: its slots, less those from the position
    # on, which the word shifted right by 8 (at & 7) bits holds
    k = int(np.searchsorted(at, n8))
    part = words[word[:k]]
    pref[:k] += np.bitwise_count(part)
    shift = np.bitwise_and(at[:k], 7, out=word[:k])  # word[:k] is done
    shift <<= 3
    part >>= shift.view("<u8")
    pref[:k] -= np.bitwise_count(part)
    # then in the tail of fewer than 8 slots
    pref[k:] += np.r_[0, np.cumsum(mask[n8:])][at[k:] - n8]
    return pref


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


class PrimeRaceTable(Record):
    """Exact counts pi(x_i) and pi_{q,a}(x_i) at the checkpoints.

    counts has shape (n_checkpoints, phi(q)); columns follow `residues`.
    Primes dividing q are counted in pi but in no residue class.
    """

    __slots__ = _fields = ("q", "residues", "checkpoints", "counts", "pi")

    def __init__(self, q: int, residues: Tuple[int, ...],
                 checkpoints: np.ndarray, counts: np.ndarray,
                 pi: np.ndarray) -> None:
        self.q, self.residues, self.checkpoints, self.counts, self.pi = (
            q, residues, checkpoints, counts, pi)

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
        """pi_{q,a} at a checkpoint (exact); a must be a unit mod q."""
        if a % self.q not in self.residues:
            raise ValueError(f"{a} is not a unit mod {self.q}")
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


# the modelled cost of sieve_race's layout, in seconds: SLOT_S per slot,
# SLICE_S per strike slice (a base prime in a segment of a row), ROW_S per
# row; fitted by least squares to best-of-7 times of sieve_race at forced d
# on one CPU, relative error within 10% (`tools/sieve_layout_fit.py`)
SLOT_S, SLICE_S, ROW_S = 1.3e-9, 2.9e-7, 1.2e-4


def _row_layout(q: int, x_max: int) -> Tuple[int, int]:
    """(d, sub) of sieve_race's rows n = c + d j: d = 2r for the largest
    r | m, m = q / gcd(q, 2), whose rows fill a segment, and sub = m / r;
    once r = m, d takes the next wheel prime p not dividing q while that
    lowers the cost, p - 1 rows for each row of d."""
    m = q // math.gcd(q, 2)
    most = max(x_max // SEGMENT, 1)
    r = next(r for r in range(min(m, most), 0, -1) if m % r == 0)
    d, sub = 2 * r, m // r
    base = simple_sieve(math.isqrt(max(x_max, 0)))
    base = np.count_nonzero(base > WHEEL[-1])

    def row_cost(d: int) -> float:
        slots = x_max // d + 1
        return (slots * SLOT_S + ROW_S
                + -(-slots // (SEGMENT // 2)) * base * SLICE_S)

    for p in [p for p in WHEEL if q % p] * (sub == 1):
        if (p - 1) * row_cost(d * p) >= row_cost(d):
            break
        d *= p
    return d, sub


def sieve_race(q: int, x_max: int,
               checkpoint_rule: str | Sequence[float] = "geometric:1.01",
               ) -> PrimeRaceTable:
    """Segmented sieve accumulating per-residue counts at checkpoints."""
    check_budget(x_max, f"x_max {x_max}")
    x_max = int(x_max)
    residues = unit_group(q).units
    phi = len(residues)
    cps = checkpoints_from_rule(checkpoint_rule, x_max, phi + 1)
    d, sub = _row_layout(q, x_max)
    rows = _progression_sieve(d, x_max)
    col = np.full(q, -1, dtype=np.int64)
    col[list(residues)] = np.arange(phi)
    counts = np.zeros((len(cps), phi), dtype=np.int64)
    # a prime p | d lies in no row: it counts in its class from x = p on
    # when it is a unit
    for p in simple_sieve(d).tolist():
        if d % p == 0 and col[p % q] >= 0:
            counts[:, col[p % q]] += cps >= p
    for c in filter(lambda c: math.gcd(c, d) == 1, range(1, d, 2)):
        # the slots with 2 <= n <= x_max, cut into equal segments
        lo, hi = int(c == 1), max((x_max - c) // d + 1, 1)
        parts = max(-(-(hi - lo) // (SEGMENT // 2)), 1)
        edges = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
        # the sub-classes t that are units, and their columns; the others
        # hold no prime but one dividing q
        cols = col[(c + d * np.arange(sub)) % q]
        t = np.flatnonzero(cols >= 0)
        cols, t = cols[t], t[:, None]
        # the n <= x are the j < (x - c) // d + 1: each segment takes the
        # cuts in (j0, j1], the first one those in [j0, j1]
        cut = (cps - c) // d + 1
        # primes per sub-class below the current segment, and cuts done
        carry, done = np.zeros((len(t), 1), dtype=np.int64), 0
        for j0, mask in rows(c, edges):
            end = int(np.searchsorted(cut, j0 + len(mask), side="right"))
            # grid starts at the j below j0 divisible by sub: row t of its
            # transpose, slots t width to (t + 1) width, holds sub-class t
            lead = j0 % sub
            width = -(-(lead + len(mask)) // sub)
            grid = mask
            if lead or len(mask) % sub:
                grid = np.zeros(width * sub, dtype=bool)
                grid[lead: lead + len(mask)] = mask
            grid = np.ascontiguousarray(grid.reshape(width, sub).T).ravel()
            # per sub-class: its start, the ceil((x - t) / sub) slots of row
            # t below each cut x, and its end
            pos = np.empty((len(t), end - done + 2), dtype=np.int64)
            pos[:, 0], pos[:, -1] = 0, width
            np.subtract(cut[done:end] - j0 + lead + sub - 1, t,
                        out=pos[:, 1:-1])
            pos[:, 1:-1] //= sub
            pos += t * width
            pref = _prefix_counts(grid, pos.ravel()).reshape(pos.shape)
            pref -= pref[:, :1] - carry
            counts[done:end, cols] += pref[:, 1:-1].T
            carry, done = pref[:, -1:], end
    # every prime is a unit mod q or divides q
    pi = counts.sum(axis=1) + sum(
        cps >= p for p in simple_sieve(q).tolist() if q % p == 0)
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
    x_max = int(x_max)
    # class r is the row n = c + d j of its odd representative c < d, signed
    # +1 for a, -1 for b; both are cut at the same slots (row 1 from slot 1),
    # and in a slot the row of the smaller c comes first
    d = 2 * q // math.gcd(q, 2)
    cs, signs = zip(*sorted((r + q * (1 - r % 2), s)
                            for r, s in ((a, 1), (b, -1))))
    signs = np.array(signs, dtype=np.int8)
    # segments double from SEGMENT / 1024 slots to SEGMENT / 2, so an early
    # flip is found before a whole segment is sieved
    hi, cuts, size = max(x_max // d, 0) + 1, [0], max(SEGMENT >> 10, 1)
    while cuts[-1] < hi:
        cuts.append(min(cuts[-1] + size, hi))
        size = min(2 * size, SEGMENT // 2)
    rows = _progression_sieve(d, x_max)
    # ahead: the sign of pi_a - pi_b once nonzero, lead: its size below the
    # segment; 2, in no row, opens the race for its class (a unit for odd q)
    ahead = int(x_max >= 2) * ((a == 2) - (b == 2))
    lead = abs(ahead)
    for j0, j1, segment in zip(cuts, cuts[1:], zip(
            *(rows(c, [int(c == 1)] + cuts[1:]) for c in cs))):
        # both masks over [j0, j1), n <= x_max, in whole blocks of 512 slots
        masks = []
        for c, (j, mask) in zip(cs, segment):
            mask[max((x_max - c) // d + 1 - j, 0):] = False
            if j > j0 or len(mask) % 512:
                mask = np.r_[np.zeros(j - j0, dtype=bool), mask,
                             np.zeros(-(j1 - j0) % 512, dtype=bool)]
            masks.append(mask)
        if not ahead:  # the first prime of either class puts it ahead
            first = np.flatnonzero(np.column_stack(masks))
            if not len(first):
                continue
            ahead = int(signs[first[0] % 2])
        # per block, the primes of the leading row and of the trailing one;
        # the lead sinks within a block by at most the trailing ones
        up, down = (np.bitwise_count(m.view("<u8")).reshape(-1, 64).sum(
            axis=1, dtype=np.int64) for m in masks[::signs[0] * ahead])
        after = np.cumsum(up - down) + lead
        maybe = np.flatnonzero(after < up)
        # there, the lead slot by slot in order of n, from the lead before
        steps = np.stack([m.reshape(-1, 512)[maybe] for m in masks], axis=2)
        run = np.cumsum((steps * (signs * ahead)).reshape(-1, 1024), axis=1)
        flips = np.flatnonzero(run + (after - up + down)[maybe, None] < 0)
        if len(flips):
            k, i = divmod(int(flips[0]), 1024)
            return cs[i % 2] + d * (j0 + 512 * int(maybe[k]) + i // 2)
        lead = int(after[-1])
    return None


class ComparisonReport(NamedTuple):
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
    separates = zeros.chars.numerators(a) != zeros.chars.numerators(b)
    if separates.any() and not separates[list(zeros.entries)].any():
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
