"""Ground-truth prime counts: a segmented sieve producing pi(x) and the
per-residue counts pi_{q,a}(x) at checkpoints, exact lead-change detection,
and comparison of real races against the sigma-line oscillation sum fed by
critical-line zero data.

The segmented sieve marks odd numbers only, and each segment starts from a
wheel pattern with the multiples of 3, 5, 7, 11, 13 and 17 already struck,
so only the base primes above 17 are crossed off per segment.
`simple_sieve` supplies the base primes and is the small-range oracle.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .residues import unit_group
from .simulator import corollary13_sum
from .zerosys import ZeroSystem

DEFAULT_BUDGET = 100_000_000
SEGMENT = 1 << 21
# odd primes presieved by the segment mask's starting pattern, whose period
# is their product (255255 odd numbers)
WHEEL = (3, 5, 7, 11, 13, 17)


class BudgetExceededError(ValueError):
    pass


class InvalidPairError(ValueError):
    pass


class InsufficientZeroDataError(ValueError):
    pass


def sieve_budget() -> int:
    env = os.environ.get("RACE_LAB_BUDGET")
    return int(float(env)) if env else DEFAULT_BUDGET


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


def iter_prime_segments(x_max: int, segment: int = SEGMENT,
                        ) -> Iterator[np.ndarray]:
    """Yield ascending arrays of primes covering [2, x_max], one per
    segment [lo, min(lo + segment, x_max + 1)) with lo starting at 2, and
    nothing for x_max < 2.

    Each mask holds the odd n = 2k+1 of its segment only, and starts as a
    copy of the wheel pattern.
    """
    if x_max < 2:
        return
    base = simple_sieve(int(math.isqrt(x_max)))
    base = base[base > WHEEL[-1]].tolist()
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
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            mask[(start - 1) // 2 - k0:: p] = False
        for p in WHEEL:
            if lo <= p < hi:
                mask[(p - 1) // 2 - k0] = True
        idx = np.flatnonzero(mask).astype(np.int64, copy=False)
        idx += k0
        idx *= 2
        idx += 1
        yield np.concatenate(([2], idx)) if lo == 2 else idx
        lo = hi


def checkpoints_from_rule(rule: str | Sequence[float], x_max: int) -> np.ndarray:
    """Checkpoint grids: "geometric:<ratio>" (default 1.01), "linear:<step>",
    or an explicit sequence; every rule keeps the points in [2, x_max], so
    the grid is empty for x_max < 2."""
    if not isinstance(rule, str):
        pts = rule
    else:
        kind, _, arg = rule.partition(":")
        if kind == "geometric":
            ratio = float(arg) if arg else 1.01
            if ratio <= 1.0:
                raise ValueError("geometric ratio must exceed 1")
            pts = [2]
            x = 2.0
            while True:
                x = max(x * ratio, x + 1.0)
                if x > x_max:
                    break
                pts.append(int(x))
            pts.append(x_max)
        elif kind == "linear":
            step = int(float(arg)) if arg else max(x_max // 1000, 1)
            if step < 1:
                raise ValueError("linear step must be at least 1")
            pts = np.append(np.arange(2, x_max + 1, step), x_max)
        else:
            raise ValueError(f"unknown checkpoint rule {rule!r}")
    pts = np.unique(np.asarray(pts, dtype=np.int64))
    return pts[(pts >= 2) & (pts <= x_max)]


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

    def pi_at(self, x: float) -> int:
        """pi at a checkpoint (exact); x must match a checkpoint."""
        idx = int(np.searchsorted(self.checkpoints, int(x)))
        if idx >= len(self.checkpoints) or self.checkpoints[idx] != int(x):
            raise ValueError(f"{x} is not a checkpoint")
        return int(self.pi[idx])

    def count(self, a: int, x: float) -> int:
        idx = int(np.searchsorted(self.checkpoints, int(x)))
        if idx >= len(self.checkpoints) or self.checkpoints[idx] != int(x):
            raise ValueError(f"{x} is not a checkpoint")
        return int(self.counts[idx, self.residues.index(a % self.q)])

    # CSV with a JSON header line naming the residues
    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# " + json.dumps({"q": self.q,
                                     "residues": list(self.residues)}) + "\n")
        buf.write("x,pi," + ",".join(f"pi_{a}" for a in self.residues) + "\n")
        for i, x in enumerate(self.checkpoints):
            row = ",".join(str(int(c)) for c in self.counts[i])
            buf.write(f"{int(x)},{int(self.pi[i])},{row}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "PrimeRaceTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = json.loads(lines[0].lstrip("# "))
        rows = [ln.split(",") for ln in lines[2:]]
        data = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
        return cls(q=header["q"], residues=tuple(header["residues"]),
                   checkpoints=data[:, 0], pi=data[:, 1], counts=data[:, 2:])


def sieve_race(q: int, x_max: int,
               checkpoint_rule: str | Sequence[float] = "geometric:1.01",
               ) -> PrimeRaceTable:
    """Segmented sieve accumulating per-residue counts at checkpoints."""
    budget = sieve_budget()
    if x_max > budget:
        raise BudgetExceededError(
            f"x_max {x_max} exceeds budget {budget} (RACE_LAB_BUDGET)")
    residues = unit_group(q).units
    phi = len(residues)
    # class column of each residue mod q; primes dividing q go to column phi
    col = np.full(q, phi, dtype=np.int64)
    col[list(residues)] = np.arange(phi)
    cps = checkpoints_from_rule(checkpoint_rule, int(x_max))
    # hist[i]: primes per column in (cps[i-1], cps[i]]; the last row takes
    # the primes above the last checkpoint
    hist = np.zeros((len(cps) + 1, phi + 1), dtype=np.int64)
    for primes in iter_prime_segments(int(x_max)):
        if not len(primes):
            continue
        # rows first..last take the segment's primes, cut at the checkpoints
        # cps[first:last] that fall inside it
        first, last = np.searchsorted(cps, primes[[0, -1]])
        cuts = np.searchsorted(primes, cps[first:last], side="right")
        rows = last - first + 1
        slot = np.repeat(np.arange(rows),
                         np.diff(cuts, prepend=0, append=len(primes)))
        slot *= phi + 1
        slot += col[primes % q]
        hist[first:last + 1] += np.bincount(
            slot, minlength=rows * (phi + 1)).reshape(rows, phi + 1)
    cum = np.cumsum(hist[:-1], axis=0)
    counts, pi = cum[:, :phi], cum.sum(axis=1)
    return PrimeRaceTable(q=q, residues=residues, checkpoints=cps,
                          counts=counts, pi=pi)


def first_lead_change(q: int, a: int, b: int, x_max: int) -> int | None:
    """The least prime x where sign(pi_{q,a} - pi_{q,b}) flips against its
    initial nonzero sign; None if no change occurs up to x_max."""
    a %= q
    b %= q
    if a == b:
        raise InvalidPairError("residues must be distinct")
    group = unit_group(q)
    if not (group.is_unit(a) and group.is_unit(b)):
        raise InvalidPairError("residues must be units")
    if x_max > sieve_budget():
        raise BudgetExceededError(f"x_max {x_max} exceeds budget")
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
                           x_min: float = 1e3,
                           include_sqrt_bias: bool = True) -> ComparisonReport:
    """Scaled real race u*phi(q)/(2 e^(sigma u)) (pi_a - pi_b) against the
    truncated sigma-line sum.

    At sigma = 1/2 the square-root term of the explicit formula contributes
    the constant (N_q(b) - N_q(a))/2 to the scaled difference; it is added to
    the prediction unless include_sqrt_bias is off.
    """
    from .residues import sqrt_count

    if zeros is None or zeros.size == 0:
        raise InsufficientZeroDataError("no zeros supplied")
    if zeros.q != table.q:
        raise InsufficientZeroDataError("zero data modulus mismatch")
    sep = [c for c in zeros.chars
           if not c.is_principal and c.phase(a) != c.phase(b)]
    covered = any(label for label in zeros.entries
                  if zeros.chars[label] in sep)
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
        if include_sqrt_bias and sigma == 0.5 else 0.0
    predicted = bias + corollary13_sum(zeros, a, b, u)
    if a % q == b % q:
        agreement = 1.0
    else:
        agreement = float(np.mean(np.sign(scaled) == np.sign(predicted)))
    return ComparisonReport(q=q, a=a % q, b=b % q, sigma=sigma,
                            checkpoints=xs, scaled_difference=scaled,
                            predicted=predicted, sign_agreement=agreement,
                            bias_constant=bias)
