import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from racelab import residues
from racelab.barriers import build_thm311
from racelab.residues import characters, unit_group
from racelab.zerosys import (Zero, ZeroDataError, ZeroSystem, dominant_data,
                             g_rho, g_rho_exact, is_kt_candidate,
                             load_zero_data, parse_zero_lines)


def label_with_phase(q, a, phase):
    chars = characters(q)
    return next(i for i, c in enumerate(chars) if c.phase(a) == phase)


def test_construction_validates_real_parts():
    with pytest.raises(ValueError):
        ZeroSystem(5, {1: {Zero(0.4, 10.0): 1}})
    with pytest.raises(ValueError):
        ZeroSystem(5, {1: {Zero(1.2, 10.0): 1}})
    # critical-line data allowed when not hypothetical
    ZeroSystem(5, {1: {Zero(0.5, 10.0): 1}}, hypothetical=False)


def test_real_zero_conjugate_rule():
    q = 5
    lbl_i = label_with_phase(q, 2, Fraction(1, 4))  # complex character
    with pytest.raises(ValueError):
        ZeroSystem(q, {lbl_i: {Zero(0.75, 0.0): 1}})
    # on a real character the rule is self-satisfied
    lbl_r = label_with_phase(q, 2, Fraction(1, 2))
    ZeroSystem(q, {lbl_r: {Zero(0.75, 0.0): 1}})


def test_principal_character_rejected():
    chars = characters(5)
    principal = next(i for i, c in enumerate(chars) if c.is_principal)
    with pytest.raises(ZeroDataError):
        ZeroSystem(5, {principal: {Zero(0.75, 5.0): 1}})


@pytest.mark.parametrize("entries", [
    {1.7: {Zero(0.75, 100.0): 2}},     # was filed under label 1
    {"1": {Zero(0.75, 100.0): 2}},
    {1: {Zero(0.75, 100.0): 2.9}},     # was stored as 2
    {1: {Zero(0.75, 100.0): 0.5}},     # was stored as 0, with size 0
    {1: {Zero(0.75, 100.0): 0.0}},
], ids=["label-1.7", "label-str", "mult-2.9", "mult-0.5", "mult-0.0"])
def test_non_integer_label_or_multiplicity_refused(entries):
    with pytest.raises(ZeroDataError, match="is not an integer"):
        ZeroSystem(7, entries)


@pytest.mark.parametrize("key", [(0.75, 100.0), "x"], ids=["tuple", "str"])
def test_zero_key_that_is_not_a_zero_refused(key):
    with pytest.raises(ZeroDataError) as exc:
        ZeroSystem(7, {1: {key: 1}})
    assert str(exc.value) == f"zero {key!r} on character 1 is not a Zero"


def test_integer_like_labels_and_multiplicities_kept():
    z = Zero(0.75, 100.0)
    system = ZeroSystem(7, {np.int64(1): {z: np.int64(2)}, 2: {z: 0}})
    assert system.entries == {1: {z: 2}} and system.size == 2
    assert all(type(label) is int and type(m) is int
               for label, _, m in system.items())


def test_conjugate_label_refuses_labels_out_of_range():
    chars = characters(7)
    system = ZeroSystem(7, {})
    assert [system.conjugate_label(label) for label in range(6)] == [
        chars.index(chi.conjugate()) for chi in chars]
    assert system.conjugate_label(np.int64(1)) == chars.index(chars[1].conjugate())
    for label in (-1, 6, 99):  # -1 gave 2, indexing from the end; 99 IndexError
        with pytest.raises(ZeroDataError, match="unknown character label"):
            system.conjugate_label(label)
    with pytest.raises(ZeroDataError, match="is not an integer"):
        system.conjugate_label(1.0)


def test_from_zeros_is_a_multiset():
    # repeats sum, labels keep their first-seen order, and a mult-0 item is
    # no zero, on the principal character too
    chars = characters(5)
    principal = next(i for i, c in enumerate(chars) if c.is_principal)
    a, b = (label_with_phase(5, 2, Fraction(k, 4)) for k in (1, 3))
    z, w = Zero(0.75, 5.0), Zero(0.75, 10.0)
    system = ZeroSystem.from_zeros(
        5, [(b, w, 1), (principal, z, 0), (a, z, 2), (b, w, 3), (a, w, 0)],
        height_lattice=5.0)
    assert list(system.entries) == [b, a]
    assert system.entries == {b: {w: 4}, a: {z: 2}}
    assert system.height_lattice == 5.0 and system.hypothetical
    assert [label for label, _, _ in system.items()] == [b, a]
    with pytest.raises(ZeroDataError):
        ZeroSystem.from_zeros(5, [(principal, z, 1)])


def test_g_rho_examples():
    q = 5
    lbl = label_with_phase(q, 2, Fraction(3, 4))  # chi(2) = e(-1/4) = -i
    z0 = Zero(0.75, 10.0)
    system = ZeroSystem(q, {lbl: {z0: 1}})
    g = g_rho(system, z0, 2, 1)
    assert abs(g - (-1 - 1j)) < 1e-12
    assert g_rho(system, z0, 2, 2) == 0
    assert g_rho(system, Zero(0.75, 99.0), 2, 1) == 0


def exact_sum(s, t):
    """s + t as one exact root-of-unity sum, numerator by numerator over
    their common level, the group exponent (`RootOfUnitySum` has no sum
    operator, since only this test adds two of them)."""
    assert s.level == t.level
    for k, c in t._coeffs.items():
        s.add(k, c)
    return s


def test_g_rho_swap_antisymmetry_exact():
    rng = np.random.default_rng(9)
    for q in (5, 7, 8, 15):
        group = unit_group(q)
        chars = characters(q)
        nonprin = [i for i, c in enumerate(chars) if not c.is_principal]
        entries = {}
        for _ in range(4):
            lbl = int(rng.choice(nonprin))
            z = Zero(0.75, float(rng.integers(1, 9)))
            entries.setdefault(lbl, {})
            entries[lbl][z] = entries[lbl].get(z, 0) + 1
        system = ZeroSystem(q, entries)
        units = group.units
        for _ in range(6):
            a, b = rng.choice(units, 2, replace=False)
            for z in system.all_zeros():
                s = exact_sum(g_rho_exact(system, z, int(a), int(b)),
                              g_rho_exact(system, z, int(b), int(a)))
                assert s.is_zero()


def test_g_tests_reduce_to_the_subgroup_level(monkeypatch):
    """The exact g-tests of the q = 1009 thm311 recipe (zeros on powers of
    one character of order n = 6) ask `_cyclotomic` only for levels that
    divide n, never for the group exponent 1008."""
    recipe = build_thm311(1009)
    asked = []
    cyclotomic = residues._cyclotomic
    monkeypatch.setattr(residues, "_cyclotomic",
                        lambda n: asked.append(n) or cyclotomic(n))
    for a, b in itertools.permutations([1, *recipe.params["D"]], 2):
        dominant_data(recipe.system, a, b)
    assert recipe.params["n"] == 6 and unit_group(1009).lam == 1008
    assert asked and all(6 % level == 0 for level in asked)


def test_g_real_part_negative_for_involutions():
    # for a^2 = 1 every chi(a) = +-1, so g(rho; a, 1) is real and <= 0,
    # strictly negative when some contributing chi(a) != 1
    q = 8
    chars = characters(q)
    for a in (3, 5, 7):
        lbl = next(i for i, c in enumerate(chars) if c.phase(a) == Fraction(1, 2))
        z = Zero(0.75, 5.0)
        system = ZeroSystem(q, {lbl: {z: 2}})
        g = g_rho(system, z, a, 1)
        assert abs(g.imag) < 1e-12
        assert g.real < 0


def test_dominant_data_two_levels():
    # zeros on the order-4 tower mod 5: a level-0.85 zero visible only to the
    # pair (2,1), a level-0.7 zero visible to (4,1) as well
    q = 5
    lbl_k2 = label_with_phase(q, 2, Fraction(1, 2))   # chi(2) = -1
    lbl_k1 = label_with_phase(q, 2, Fraction(1, 4))   # chi(2) = i
    system = ZeroSystem(q, {lbl_k2: {Zero(0.85, 7.0): 1},
                            lbl_k1: {Zero(0.7, 11.0): 1}})
    dd_a1 = dominant_data(system, 2, 1)
    dd_a2 = dominant_data(system, 4, 1)
    assert dd_a1.beta == 0.85
    assert dd_a2.beta == 0.7  # the K2 zero separates 2 from 1 but not 4 from 1
    assert dd_a2.beta < dd_a1.beta


def test_dominant_data_empty_cases():
    system = ZeroSystem(5, {})
    dd = dominant_data(system, 2, 1)
    assert dd.empty and dd.zeros == ()
    with pytest.raises(ValueError):
        dominant_data(system, 2, 2)


def test_dominant_data_refuses_a_non_unit_with_or_without_zeros():
    with_zero = ZeroSystem.from_zeros(7, [(1, Zero(0.75, 10.0), 1)])
    for system in (ZeroSystem(7, {}), with_zero):
        with pytest.raises(ValueError, match="a and b must be units"):
            dominant_data(system, 0, 1)


def test_is_kt_candidate():
    q = 5
    lbl = label_with_phase(q, 2, Fraction(1, 4))
    good = ZeroSystem(q, {lbl: {Zero(0.75, 5.0): 1}})
    rep = is_kt_candidate(good, [1, 2, 3, 4])
    assert not rep.has_real_zeros
    assert all(p.dominant_nonempty for p in rep.pairs)
    assert rep.all_pass
    lbl_r = label_with_phase(q, 2, Fraction(1, 2))
    with_real = ZeroSystem(q, {lbl_r: {Zero(0.75, 0.0): 1}})
    rep2 = is_kt_candidate(with_real, [1, 4])
    assert rep2.has_real_zeros and not rep2.all_pass
    rep3 = is_kt_candidate(good, [2])
    assert rep3.all_pass and rep3.pairs == ()


def test_zero_file_parsing():
    system = parse_zero_lines(["# comment", "q=3 chi=1 gamma=8.03973716",
                               "q=3 chi=1 gamma=8.03973716 mult=2"])
    assert system.q == 3 and not system.hypothetical
    (zero, mult), = system.zeros_of(1).items()
    assert zero.beta == 0.5 and zero.gamma == pytest.approx(8.03973716)
    assert mult == 3  # duplicates accumulate


def test_zero_file_errors():
    with pytest.raises(ZeroDataError):
        parse_zero_lines(["q=3 chi=9 gamma=1.0"])  # unknown label
    with pytest.raises(ZeroDataError):
        parse_zero_lines(["q=3 chi=1 gamma"])  # malformed
    with pytest.raises(ZeroDataError):
        parse_zero_lines(["q=3 chi=1 gamma=1.0", "q=5 chi=1 gamma=2.0"])
    assert parse_zero_lines([]) is None
    assert parse_zero_lines([], q=3).size == 0


def test_bundled_zero_data_smoke():
    """The bundled first zero matches the published value and the Dirichlet
    series is small there (partial sum to 10^6; the tail is O(|s|/sqrt(N)))."""
    from importlib import resources
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        system = load_zero_data(p)
    zeros = sorted(z.gamma for z in system.zeros_of(1))
    assert zeros[0] == pytest.approx(8.03973716, abs=5e-8)
    assert all(z.beta == 0.5 for z in system.zeros_of(1))
    n = np.arange(1, 1_000_001)
    chi = np.zeros(len(n))
    chi[n % 3 == 1] = 1.0
    chi[n % 3 == 2] = -1.0
    s = 0.5 + 1j * zeros[0]
    partial = np.sum(chi * np.exp(-s * np.log(n)))
    assert abs(partial) < 0.05
    # off-zero control point
    s_off = 0.5 + 1j * (zeros[0] + 1.0)
    off = np.sum(chi * np.exp(-s_off * np.log(n)))
    assert abs(off) > abs(partial)


def test_roundtrip_dict():
    q = 5
    lbl = label_with_phase(q, 2, Fraction(1, 4))
    system = ZeroSystem(q, {lbl: {Zero(0.75, 5.0): 2}}, height_lattice=5.0)
    back = ZeroSystem.from_dict(system.to_dict())
    assert back.q == system.q
    assert back.entries == system.entries
    assert back.height_lattice == 5.0


@pytest.mark.parametrize("lattice, ok", [
    (5.0, True), (2.5, True), (1.0, True), (3.0, False), (5.5, False),
    (1e-300, False), (5e-324, False)])  # heights / lattice past 2^53, or inf
def test_height_lattice_must_be_a_period(lattice, ok):
    q = 5
    lbl = label_with_phase(q, 2, Fraction(1, 4))
    entries = {lbl: {Zero(0.75, 5.0): 2, Zero(0.75, 15.0): 1}}
    d = ZeroSystem(q, entries).to_dict()
    d["height_lattice"] = lattice
    if ok:
        assert ZeroSystem.from_dict(d).height_lattice == lattice
    else:
        with pytest.raises(ZeroDataError, match="not multiples"):
            ZeroSystem.from_dict(d)
        with pytest.raises(ZeroDataError, match="not multiples"):
            ZeroSystem(q, entries, height_lattice=lattice)


def test_zero_is_an_immutable_beta_gamma_pair():
    z = Zero(0.75, 10.0)
    assert z == Zero(beta=0.75, gamma=10.0) and z != Zero(0.75, 11.0)
    assert hash(z) == hash((z.beta, z.gamma))
    # ordered by beta, then gamma
    assert sorted([Zero(0.8, 1.0), Zero(0.6, 5.0), Zero(0.6, 2.0)]) == [
        Zero(0.6, 2.0), Zero(0.6, 5.0), Zero(0.8, 1.0)]
    for beta, gamma in ((math.nan, 1.0), (0.75, math.inf), (0.75, -1.0)):
        with pytest.raises(ValueError):
            Zero(beta, gamma)
    for field in ("beta", "gamma", "other"):
        with pytest.raises(AttributeError):
            setattr(z, field, 0.5)
