"""Hypothetical zero systems and the combinatorial data derived from them.

A ZeroSystem assigns to each non-principal character mod q a finite multiset
of points rho = beta + i*gamma (gamma >= 0) with positive multiplicities.
`ZeroSystem.from_zeros` assembles every system from (label, zero, mult)
items.  From it we derive, for a pair of residues (a, b): the values
g(rho) = sum_chi n(rho,chi) (chi(a) - chi(b)), the dominant level
beta(a,b) = sup{Re rho : g(rho) != 0}, and the dominant set z(a,b).

g-zero-tests are exact (the characters' integer phase numerators over the
group exponent, reduced against a cyclotomic polynomial); the complex values
used numerically are floats.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .residues import RootOfUnitySum, characters, unit_group


class ZeroDataError(ValueError):
    """Malformed zero-list input (bad line or unknown character label)."""


class _Zero(NamedTuple):
    beta: float
    gamma: float


class Zero(_Zero):
    """A point beta + i*gamma in the closed upper half plane: a (beta,
    gamma) tuple, so zeros sort by beta, then gamma, and hash as that pair."""

    __slots__ = ()

    def __new__(cls, beta: float, gamma: float) -> "Zero":
        if not (math.isfinite(beta) and math.isfinite(gamma)):
            raise ValueError(f"zero {beta} + i*{gamma} is not finite")
        if gamma < 0:
            raise ValueError("heights must be nonnegative")
        return super().__new__(cls, beta, gamma)

    @property
    def rho(self) -> complex:
        return complex(self.beta, self.gamma)

    @property
    def modulus(self) -> float:
        return abs(self.rho)

    @property
    def is_real(self) -> bool:
        return self.gamma == 0.0


def _integer(x, what: str) -> int:
    """x as an int: ZeroDataError unless operator.index takes it."""
    try:
        return operator.index(x)
    except TypeError:
        raise ZeroDataError(f"{what} {x!r} is not an integer") from None


class ZeroSystem:
    """Per-character multisets of hypothetical zeros with multiplicities.

    entries maps character label (index into characters(q)) to a dict
    Zero -> multiplicity.  Hypothetical systems must satisfy
    1/2 < R^-(B) <= R^+(B) <= 1; systems loaded from actual zero data may sit
    on the critical line (hypothetical=False).
    """

    def __init__(self, q: int, entries: Mapping[int, Mapping[Zero, int]],
                 hypothetical: bool = True,
                 height_lattice: float | None = None) -> None:
        self.q = q
        self.chars = characters(q)
        clean: Dict[int, Dict[Zero, int]] = {}
        for label, zs in entries.items():
            label = self._label(label)
            for z in zs:
                if not isinstance(z, Zero):
                    raise ZeroDataError(f"zero {z!r} on character {label} "
                                        f"is not a Zero")
            kept = {z: m for z, m in ((z, _integer(m, "multiplicity"))
                                      for z, m in zs.items()) if m}
            if kept and not self.chars.b[label].any():  # the principal character
                raise ZeroDataError("zeros may not sit on the principal character")
            if any(m < 0 for m in kept.values()):
                raise ValueError("multiplicities must be positive")
            if kept:
                clean[label] = kept
        self.entries = clean
        self.hypothetical = hypothetical
        self.height_lattice = height_lattice
        self._validate()

    def _validate(self) -> None:
        betas = [z.beta for zs in self.entries.values() for z in zs]
        if betas:
            lo, hi = min(betas), max(betas)
            if self.hypothetical and not (0.5 < lo <= hi <= 1.0):
                raise ValueError(
                    f"real parts must satisfy 1/2 < R- <= R+ <= 1, got "
                    f"[{lo}, {hi}]")
            if not self.hypothetical and not (0.5 <= lo <= hi <= 1.0):
                raise ValueError("real parts must lie in [1/2, 1]")
        lattice = self.height_lattice
        if lattice is not None and lattice > 0:  # else the system has none
            ks = [z.gamma / lattice for z in self.all_zeros()]
            # past 2^53 every float is whole, so k tells nothing there
            if any(not k < 2**53 or abs(k - round(k)) > 1e-9 for k in ks):
                raise ZeroDataError(f"the zeros' heights are not multiples "
                                    f"k < 2^53 of height_lattice {lattice}")
        # real zeros must appear identically on conjugate characters
        for label, zs in self.entries.items():
            for z, m in zs.items():
                if z.is_real and self.entries.get(
                        self.conjugate_label(label), {}).get(z, 0) != m:
                    raise ValueError(
                        "real zeros need equal multiplicity on conjugate "
                        "characters")

    # --- basic queries -----------------------------------------------------
    def _label(self, label) -> int:
        """label as an int: ZeroDataError unless it is one in 0..phi(q)-1."""
        label = _integer(label, "character label")
        if not 0 <= label < len(self.chars):
            raise ZeroDataError(f"unknown character label {label} mod {self.q}")
        return label

    def conjugate_label(self, label: int) -> int:
        return int(self.chars.labels(-self.chars.b[self._label(label)]))

    @property
    def size(self) -> int:
        """|B|: total number of zeros counted with multiplicity."""
        return sum(m for zs in self.entries.values() for m in zs.values())

    @property
    def r_plus(self) -> float | None:
        betas = [z.beta for zs in self.entries.values() for z in zs]
        return max(betas) if betas else None

    def has_real_zeros(self) -> bool:
        return any(z.is_real for zs in self.entries.values() for z in zs)

    def items(self) -> Iterable[Tuple[int, Zero, int]]:
        for label, zs in self.entries.items():
            for z, m in sorted(zs.items()):
                yield label, z, m

    def zeros_of(self, label: int) -> Dict[Zero, int]:
        return dict(self.entries.get(label, {}))

    def all_zeros(self) -> List[Zero]:
        seen = sorted({z for zs in self.entries.values() for z in zs})
        return seen

    # --- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "hypothetical": self.hypothetical,
            "height_lattice": self.height_lattice,
            "zeros": [{"chi": label, "beta": z.beta, "gamma": z.gamma, "mult": m}
                      for label, z, m in self.items()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ZeroSystem":
        """The system of `to_dict`; ZeroDataError unless its fields have the
        types and ranges that `to_dict` writes (0 < mult <= 2^53)."""
        lattice, hypothetical = d.get("height_lattice"), d.get("hypothetical", True)
        zeros = [(z["chi"], z["mult"], z["beta"], z["gamma"]) for z in d["zeros"]]
        if (type(d["q"]) is not int or type(hypothetical) is not bool
                or any(type(c) is not int or type(m) is not int
                       or not 0 < m <= 2**53 or type(b) not in (int, float)
                       or type(g) not in (int, float) for c, m, b, g in zeros)
                or lattice is not None and (type(lattice) not in (int, float)
                                            or not 0 < float(lattice) < math.inf)):
            raise ZeroDataError("zero system needs int q, chi, mult in "
                                "(0, 2^53], numeric beta, gamma, bool "
                                "hypothetical, null or positive height_lattice")
        return cls.from_zeros(d["q"], ((chi, Zero(float(beta), float(gamma)), mult)
                                       for chi, mult, beta, gamma in zeros),
                              hypothetical=hypothetical, height_lattice=lattice)

    @classmethod
    def from_zeros(cls, q: int, zeros: Iterable[Tuple[int, Zero, int]],
                   **kwargs) -> "ZeroSystem":
        """The system of the (label, zero, mult) items, with kwargs for the
        constructor: repeated (label, zero) items sum, labels keep their
        first-seen order, and a mult-0 item is no zero."""
        entries: Dict[int, Dict[Zero, int]] = {}
        for label, z, mult in zeros:
            ch = entries.setdefault(label, {})
            ch[z] = ch.get(z, 0) + mult
        return cls(q, entries, **kwargs)


class DominantData(NamedTuple):
    """The dominant level and set for one pair of residues.

    zeros lists z(a,b); g_values holds the (float) complex g at each of them.
    An empty dominant set (g identically zero on the system) is flagged, not
    an error.
    """

    a: int
    b: int
    beta: float | None
    zeros: Tuple[Zero, ...]
    g_values: Dict[Zero, complex]

    @property
    def empty(self) -> bool:
        return self.beta is None


def _g_sums(system: ZeroSystem, zeros: Iterable[Zero], a: int, b: int,
            ) -> Dict[Zero, RootOfUnitySum]:
    """g(rho; a, b) as an exact root-of-unity sum over the group exponent at
    each of the zeros: the numerator columns of a and b are read once, and
    each sum adds its characters in label order."""
    group = unit_group(system.q)
    if not (group.is_unit(a) and group.is_unit(b)):
        raise ValueError("a and b must be units")
    at_a = system.chars.numerators(a).tolist()
    at_b = system.chars.numerators(b).tolist()
    sums = {zero: RootOfUnitySum(group.lam) for zero in zeros}
    for label, zs in system.entries.items():
        for zero, m in zs.items():
            if zero in sums:
                sums[zero].add(at_a[label], m).add(at_b[label], -m)
    return sums


def g_rho_exact(system: ZeroSystem, zero: Zero, a: int, b: int) -> RootOfUnitySum:
    """g(rho; a, b) as an exact root-of-unity sum over the group exponent."""
    return _g_sums(system, [zero], a, b)[zero]


def g_rho(system: ZeroSystem, zero: Zero, a: int, b: int) -> complex:
    """g(rho; a, b) = sum_chi n(rho,chi)(chi(a) - chi(b)) as a complex float."""
    return g_rho_exact(system, zero, a, b).to_complex()


def _dominant(system: ZeroSystem, a: int, b: int,
              ) -> Tuple[DominantData, Dict[Zero, complex]]:
    """dominant_data for the pair, and g as a float at every zero where
    the exact sum is nonzero, in sorted zero order: one `_g_sums` call."""
    if a % system.q == b % system.q:
        raise ValueError("dominant data needs distinct residues")
    sums = _g_sums(system, system.all_zeros(), a, b)
    live = {z: g.to_complex() for z, g in sums.items() if not g.is_zero()}
    if not live:
        return DominantData(a=a, b=b, beta=None, zeros=(), g_values={}), live
    beta = max(z.beta for z in live)
    zset = tuple(sorted(z for z in live if z.beta == beta))
    return DominantData(a=a, b=b, beta=beta, zeros=zset,
                        g_values={z: live[z] for z in zset}), live


def dominant_data(system: ZeroSystem, a: int, b: int) -> DominantData:
    """beta(a,b) and z(a,b) for the pair, with exact g != 0 tests."""
    return _dominant(system, a, b)[0]


class KTPairReport(NamedTuple):
    a: int
    b: int
    dominant_nonempty: bool


class KTReport(NamedTuple):
    """Hypothesis check for the sign-change (Knapowski-Turan) property:
    the system has no real elements and z(a,b) is nonempty for every pair."""

    q: int
    has_real_zeros: bool
    pairs: Tuple[KTPairReport, ...]

    @property
    def all_pass(self) -> bool:
        return (not self.has_real_zeros
                and all(p.dominant_nonempty for p in self.pairs))


def is_kt_candidate(system: ZeroSystem, members: Sequence[int]) -> KTReport:
    group = unit_group(system.q)
    members = [m % system.q for m in members]
    for m in members:
        if not group.is_unit(m):
            raise ValueError(f"{m} is not a unit mod {system.q}")
    pairs = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            dd = dominant_data(system, a, b)
            pairs.append(KTPairReport(a=a, b=b, dominant_nonempty=not dd.empty))
    return KTReport(q=system.q, has_real_zeros=system.has_real_zeros(),
                    pairs=tuple(pairs))


# --- zero-list file format ---------------------------------------------------
#
# One zero per line:  q=<int> chi=<label> gamma=<decimal> [beta=<d>] [mult=<n>]
# '#' starts a comment; beta defaults to 0.5, mult to 1.  Duplicate lines
# accumulate multiplicity (multiset semantics).


def parse_zero_lines(lines: Iterable[str], q: int | None = None,
                     ) -> ZeroSystem | None:
    zeros: List[Tuple[int, Zero, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields: Dict[str, str] = {}
        for tok in line.split():
            if "=" not in tok:
                raise ZeroDataError(f"line {lineno}: malformed token {tok!r}")
            k, v = tok.split("=", 1)
            fields[k] = v
        try:
            lq = int(fields["q"])
            label = int(fields["chi"])
            gamma = float(fields["gamma"])
            beta = float(fields.get("beta", 0.5))
            mult = int(fields.get("mult", 1))
        except (KeyError, ValueError) as exc:
            raise ZeroDataError(f"line {lineno}: {exc}") from None
        if q is None:
            q = lq
        elif lq != q:
            raise ZeroDataError(f"line {lineno}: mixed moduli {q} and {lq}")
        if mult < 1:
            raise ZeroDataError(f"line {lineno}: mult must be >= 1")
        nchars = len(characters(q))
        if not 0 <= label < nchars:
            raise ZeroDataError(
                f"line {lineno}: unknown character label {label} mod {q}")
        zeros.append((label, Zero(beta, gamma), mult))
    if q is None:
        return None
    return ZeroSystem.from_zeros(q, zeros, hypothetical=False)


def load_zero_data(path, q: int | None = None) -> ZeroSystem | None:
    """Parse a zero-list file.

    An empty file yields an empty system when the modulus is supplied,
    otherwise None.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_zero_lines(fh, q=q)
