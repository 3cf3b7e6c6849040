"""Exact arithmetic for the unit group mod q and its Dirichlet characters.

The unit group is prod_j Z/n_j over fixed generators (g_j, n_j): every unit
a has an integer exponent vector alpha(a).  A character is an integer
exponent vector b over the dual group prod_j Z/n_j, with
chi(a) = e(phase(a)) and phase(a) = sum_j b_j alpha_j(a) / n_j mod 1.
characters(q) holds every b in one label-ordered integer table: "which
characters take this value at a" reads one column, and DirichletCharacter
objects are built only when indexed.  Product, power and conjugation are
vector operations mod n_j; phases are integer numerators over the group
exponent lam, and the exact sums (chi(a) != chi(b), orthogonality sums, the
g-values of zero systems) run on them, reduced against a cyclotomic
polynomial.  Fractions remain only at the public boundary: phase, phases and
the target phases of character_with_value and label_with.  Floats appear
only when a numeric value is explicitly requested.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .budget import FrozenRecord, check_budget


class InvalidModulusError(ValueError):
    pass


class InvalidResidueError(ValueError):
    pass


class NotRepresentableError(ValueError):
    """No character takes the requested value at the given residue."""


def _factorize(n: int) -> List[Tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _order_mod(a: int, m: int, group_order: int) -> int:
    order = group_order
    for p, _ in _factorize(group_order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _primitive_root(pe: int, p: int) -> int:
    e = 0
    t = pe
    while t % p == 0:
        t //= p
        e += 1
    phi = (p - 1) * p ** (e - 1)
    for g in range(2, pe):
        if math.gcd(g, pe) != 1:
            continue
        if _order_mod(g, pe, phi) == phi:
            return g
    raise RuntimeError(f"no primitive root mod {pe}")  # unreachable for p odd


def _crt_lift(residue: int, modulus: int, q: int) -> int:
    """Residue that is `residue` mod `modulus` and 1 mod q/modulus."""
    other = q // modulus
    if other == 1:
        return residue % q
    inv = pow(other, -1, modulus)
    return (1 + other * inv * (residue - 1)) % q


class ResidueGroup(FrozenRecord):
    """The multiplicative group (Z/qZ)^* with a fixed generating set.

    generators is a tuple of (g_j, n_j) with n_1 * ... * n_m = phi(q); every
    unit a has a unique exponent vector alpha with 0 <= alpha_j < n_j and
    a = prod g_j^alpha_j (mod q).  unit_exponents holds these vectors as a
    (phi, m) int64 array, row i for units[i]; repr skips it.  Equality and
    hash read (q, generators), from which every other field follows.
    """

    __slots__ = ("q", "units", "generators", "phi", "lam", "unit_exponents")
    _fields = __slots__[:-1]

    def __init__(self, q: int, units: Tuple[int, ...],
                 generators: Tuple[Tuple[int, int], ...], phi: int, lam: int,
                 unit_exponents: np.ndarray) -> None:
        self._init(q, units, generators, phi, lam, unit_exponents)

    def _key(self) -> tuple:
        return self.q, self.generators

    def exponents(self, a: int) -> Tuple[int, ...]:
        a %= self.q
        i = bisect_left(self.units, a)
        if i == self.phi or self.units[i] != a:
            raise InvalidResidueError(f"{a} is not a unit mod {self.q}")
        return tuple(self.unit_exponents[i].tolist())

    def order(self, a: int) -> int:
        """Multiplicative order of the unit a: lcm_j n_j/gcd(alpha_j(a), n_j)."""
        return math.lcm(*(n // math.gcd(e, n) for e, (_, n)
                          in zip(self.exponents(a), self.generators)))

    def is_unit(self, a: int) -> bool:
        return math.gcd(a, self.q) == 1

    def subgroup(self, a: int) -> Tuple[int, ...]:
        """Cyclic subgroup generated by the unit a: 1, a, a^2, ..."""
        return tuple(pow(a, k, self.q) for k in range(self.order(a)))


def unit_group(q: int) -> ResidueGroup:
    """(Z/qZ)^* by CRT over prime powers, with primitive roots per odd prime
    power and the {-1, 5} pair for 2^e, e >= 3, built once per modulus.
    BudgetExceededError if phi(q) x (generators + 1) > sieve_budget(), on
    every call: before any table is built, and for a group built before."""
    _check_budget(q)
    return _unit_group(q)


def _check_budget(q: int) -> None:
    gens = _generators(q)
    phi = math.prod(n for _, n in gens)
    check_budget(phi * (len(gens) + 1), f"unit group mod {q}: {phi} units "
                                        f"x {len(gens) + 1} columns")


@lru_cache(maxsize=None)
def _generators(q: int) -> Tuple[Tuple[int, int], ...]:
    """The generators (g_j, n_j) of (Z/qZ)^*, n_j > 1."""
    if q < 3:
        raise InvalidModulusError(f"modulus must be >= 3, got {q}")
    gens: List[Tuple[int, int]] = []
    for p, e in _factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((_crt_lift(3, pe, q), 2))
            else:
                gens.append((_crt_lift(pe - 1, pe, q), 2))
                gens.append((_crt_lift(5, pe, q), 2 ** (e - 2)))
        else:
            g = _primitive_root(pe, p)
            gens.append((_crt_lift(g, pe, q), (p - 1) * p ** (e - 1)))

    # drop order-1 factors (q = 2^1 * ...)
    return tuple((g, n) for g, n in gens if n > 1)


@lru_cache(maxsize=None)
def _unit_group(q: int) -> ResidueGroup:
    """unit_group(q), refused over the budget only when it is built."""
    _check_budget(q)
    # the exponent vectors in mixed-radix rank order give every unit once,
    # and sorting puts the units in order
    gens = _generators(q)
    ranked = np.indices([n for _, n in gens]).reshape(len(gens), -1).T
    values = np.ones(len(ranked), dtype=np.int64)
    for (g, n), column in zip(gens, ranked.T):
        values = values * np.array([pow(g, k, q) for k in range(n)])[column] % q
    by_value = np.argsort(values)
    units, alpha = values[by_value], ranked[by_value]
    if (np.diff(units) <= 0).any():
        raise RuntimeError(f"generator decomposition failed for q={q}")
    alpha.flags.writeable = False  # the cached group is shared by every caller
    return ResidueGroup(q=q, units=tuple(units.tolist()), generators=tuple(gens),
                        phi=len(units), lam=math.lcm(*(n for _, n in gens)),
                        unit_exponents=alpha)


def _frac_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class DirichletCharacter(FrozenRecord):
    """A Dirichlet character mod q as an exponent vector over the dual group.

    b_j in [0, n_j) for the generators (g_j, n_j) of unit_group(q), so
    chi(g_j) = e(b_j / n_j) and chi(a) = e(phase(a)).  Characters are
    hashable and compare by (q, b).
    """

    __slots__ = ("q", "b", "_group", "_w")
    _fields = ("q", "b")

    def __init__(self, q: int, b: Tuple[int, ...]) -> None:
        group = _unit_group(q)
        if len(b) != len(group.generators):
            raise ValueError(f"exponent vector {b} does not fit the "
                             f"{len(group.generators)} generators mod {q}")
        b = tuple([int(x) % n for x, (_, n) in zip(b, group.generators)])
        # phase numerator weights: phase(a) = sum_j w_j alpha_j(a) / lam
        self._init(q, b, group, tuple([
            x * (group.lam // n) for x, (_, n) in zip(b, group.generators)]))

    def _numerator(self, a: int) -> int:
        alpha = self._group.exponents(a)
        return sum(w * e for w, e in zip(self._w, alpha)) % self._group.lam

    @property
    def phases(self) -> Dict[int, Fraction]:
        return {a: self.phase(a) for a in self._group.units}

    def phase(self, a: int) -> Fraction:
        return Fraction(self._numerator(a), self._group.lam)

    def __call__(self, a: int) -> complex:
        return cmath.exp(2j * cmath.pi * (self._numerator(a) / self._group.lam))

    @property
    def is_principal(self) -> bool:
        return not any(self.b)

    @property
    def order(self) -> int:
        return math.lcm(*(n // math.gcd(x, n)
                          for x, (_, n) in zip(self.b, self._group.generators)))

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.q, tuple(-x for x in self.b))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if other.q != self.q:
            raise ValueError("characters must share a modulus")
        return DirichletCharacter(self.q,
                                  tuple(x + y for x, y in zip(self.b, other.b)))

    def __pow__(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(self.q, tuple(k * x for x in self.b))


class CharacterTable(Sequence):
    """The characters mod q as one integer table: row i of b, a (phi, m)
    int64 array, is the exponent vector of the character with label i.
    Indexing builds a DirichletCharacter on demand; numerators(a) reads
    every character's value at the unit a as one column."""

    def __init__(self, q: int) -> None:
        group = _unit_group(q)
        self.q, self._group = q, group
        self._orders = tuple(n for _, n in group.generators)
        self._weights = np.array([group.lam // n for n in self._orders])
        ranked = np.indices(self._orders).reshape(len(self._orders), -1).T  # by rank
        width = 8
        while True:
            numerators = ((ranked * self._weights)
                          @ group.unit_exponents[:width].T % group.lam)
            label_order = np.lexsort(numerators[:, ::-1].T)  # last key is primary
            sorted_rows = numerators[label_order]
            if (sorted_rows[1:] != sorted_rows[:-1]).any(axis=1).all():
                break
            width *= 2
        self.b = ranked[label_order]
        self.b.flags.writeable = False  # the cached table is shared by every caller
        self._label_of_rank = np.argsort(label_order)

    def __len__(self) -> int:
        return len(self.b)

    def __getitem__(self, label: int) -> DirichletCharacter:
        return DirichletCharacter(self.q, tuple(self.b[label].tolist()))

    def index(self, chi: DirichletCharacter) -> int:
        """The label of chi, read at its mixed-radix rank."""
        if chi.q != self.q:
            raise ValueError(f"{chi} is not a character mod {self.q}")
        return int(self._label_of_rank[np.ravel_multi_index(chi.b, self._orders)])

    def labels(self, b: np.ndarray) -> np.ndarray:
        """The labels of the exponent vectors along the last axis of b
        (entries reduced mod the generator orders), in one rank lookup."""
        b = np.moveaxis(np.asarray(b) % self._orders, -1, 0)
        return self._label_of_rank[np.ravel_multi_index(tuple(b), self._orders)]

    def numerators(self, a: int) -> np.ndarray:
        """phase(a) * lam for every character, in label order."""
        return self.b @ (self._weights * self._group.exponents(a)) % self._group.lam

    def label_with(self, *values: Tuple[int, Fraction]) -> int:
        """The first label whose character takes the value e(phase) at a,
        for every (a, phase) given."""
        hit = np.ones(len(self.b), dtype=bool)
        for a, phase in values:
            target = _frac_mod1(Fraction(phase)) * self._group.lam
            hit &= (self.numerators(a) == target.numerator) & (target.denominator == 1)
        if not hit.any():
            wanted = " and ".join(f"e({_frac_mod1(Fraction(p))}) at {a}" for a, p in values)
            raise NotRepresentableError(f"no character mod {self.q} takes value {wanted}")
        return int(hit.argmax())


def characters(q: int) -> CharacterTable:
    """All phi(q) characters mod q, closed under conjugation and labelled
    in lexicographic order of the phase vector (phase(a) for the units a in
    increasing order), so label 0 is the principal character.  The order is
    sorted from the numerator table B A mod lam (row: character, column:
    unit).  Two characters first differ on a unit inside any prefix of units
    that generates the group, so only a prefix of columns is built, widened
    until its rows are distinct.  Built once per modulus; refused, as
    unit_group(q) is, on every call over the budget."""
    _check_budget(q)
    return _character_table(q)


_character_table = lru_cache(maxsize=None)(CharacterTable)


def character_with_value(q: int, a: int, target_phase: Fraction) -> DirichletCharacter:
    """The first character chi mod q, in label order, with
    chi(a) = e(target_phase)."""
    table = characters(q)
    return table[table.label_with((a, target_phase))]


def sqrt_count(q: int, c: int) -> int:
    """N_q(c): number of solutions of w^2 = c (mod q)."""
    if q < 3:
        raise InvalidModulusError(f"modulus must be >= 3, got {q}")
    if math.gcd(c, q) != 1:
        raise InvalidResidueError(f"{c} is not a unit mod {q}")
    c %= q
    return sum(1 for w in range(q) if (w * w) % q == c)


# --- exact sums of roots of unity -------------------------------------------
#
# g-values of zero systems are integer combinations of character values.
# Their zero-test must be exact (it gates which zeros are "dominant"), so we
# reduce the combination against the cyclotomic polynomial over Z.


def _poly_divmod(num: List[int], den: List[int]) -> Tuple[List[int], List[int]]:
    """(quot, rem) of num by the monic den, ascending; rem keeps num's length."""
    num = num[:]
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        quot[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return quot, num


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> Tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(_cyclotomic(d)))
            assert not any(rem), "cyclotomic division must be exact"
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


class RootOfUnitySum:
    """Exact integer combination sum_k coeff[k] * e(k / level) over integer
    numerators k mod level (for characters, the group exponent lam)."""

    def __init__(self, level: int) -> None:
        self.level = level
        self._coeffs: Dict[int, int] = {}

    def add(self, numerator: int, coeff: int = 1) -> "RootOfUnitySum":
        k = numerator % self.level
        self._coeffs[k] = self._coeffs.get(k, 0) + coeff
        if not self._coeffs[k]:
            del self._coeffs[k]
        return self

    def is_zero(self) -> bool:
        """Reduced against Phi_n, n = level / gcd(level, numerators): the
        lcm of the reduced phases' denominators (1 for no terms)."""
        step = math.gcd(self.level, *self._coeffs)
        poly = [0] * (self.level // step)
        for k, c in self._coeffs.items():
            poly[k // step] += c
        _, rem = _poly_divmod(poly, list(_cyclotomic(len(poly))))
        return not any(rem)

    def to_complex(self) -> complex:
        return sum(c * cmath.exp(2j * cmath.pi * (k / self.level))
                   for k, c in self._coeffs.items()) or 0j

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*e({k}/{self.level})"
                          for k, c in sorted(self._coeffs.items()))
        return f"RootOfUnitySum({body or '0'})"
