import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab.residues import (DirichletCharacter, InvalidModulusError,
                              InvalidResidueError, NotRepresentableError,
                              RootOfUnitySum, character_with_value,
                              characters, sqrt_count, unit_group)
from racelab.residues import _order_mod
from racelab.zerosys import ZeroSystem

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
moduli = st.integers(min_value=3, max_value=400)


def brute_order(a, q):
    """Oracle: multiplicative order by repeated multiplication."""
    x = a % q
    k = 1
    while x != 1:
        x = (x * a) % q
        k += 1
    return k


def test_unit_group_q8():
    g = unit_group(8)
    assert g.phi == 4
    assert g.lam == 2
    orders = sorted(n for _, n in g.generators)
    assert orders == [2, 2]
    for gen, n in g.generators:
        assert brute_order(gen, 8) == n


def test_unit_group_q5():
    g = unit_group(5)
    assert g.phi == 4 and g.lam == 4
    assert len(g.generators) == 1
    gen, n = g.generators[0]
    assert n == 4 and brute_order(gen, 5) == 4


def test_unit_group_q15_is_z4_x_z2():
    g = unit_group(15)
    assert sorted(n for _, n in g.generators) == [2, 4]
    # oracle: exhaustive order computation
    assert sorted({brute_order(a, 15) for a in g.units}) == [1, 2, 4]


def test_exponent_vectors_reconstruct():
    for q in (5, 8, 9, 12, 15, 16, 21, 24, 40):
        g = unit_group(q)
        seen = set()
        for a in g.units:
            vec = g.exponents(a)
            assert vec not in seen
            seen.add(vec)
            prod = 1
            for (gen, n), e in zip(g.generators, vec):
                assert 0 <= e < n
                prod = prod * pow(gen, e, q) % q
            assert prod == a


def test_order_from_exponents_matches_power_test():
    # the exponent-vector lcm against the pow-based search it replaced
    for q in range(3, 401):
        g = unit_group(q)
        for a in g.units:
            assert g.order(a) == _order_mod(a, q, g.phi), (q, a)
    assert unit_group(7).order(3 + 7) == 6
    with pytest.raises(InvalidResidueError):
        unit_group(8).order(2)


def test_subgroup_is_the_power_cycle():
    for q in (7, 8, 15, 24, 35):
        g = unit_group(q)
        for a in g.units:
            cycle = [1]
            while (cycle[-1] * a) % q != 1:
                cycle.append((cycle[-1] * a) % q)
            assert g.subgroup(a) == tuple(cycle) == g.subgroup(a + q)
    with pytest.raises(InvalidResidueError):
        unit_group(14).subgroup(2)  # its powers never reach 1


def test_invalid_modulus():
    with pytest.raises(InvalidModulusError):
        unit_group(2)
    with pytest.raises(InvalidModulusError):
        sqrt_count(1, 1)


def test_characters_count_and_closure():
    for q in (3, 5, 8, 15, 24):
        g = unit_group(q)
        cs = characters(q)
        assert len(cs) == g.phi
        assert sum(c.is_principal for c in cs) == 1
        pool = set(cs)
        for c in cs:
            assert c.conjugate() in pool


def test_c5_sizes():
    assert sum(not c.is_principal for c in characters(5)) == 3
    assert sum(not c.is_principal for c in characters(3)) == 1
    # all non-principal chi mod 5 separate 2 from 1 (direct table evaluation)
    assert (characters(5).numerators(2) != characters(5).numerators(1)).sum() == 3


def test_phase_multiplicativity_exact():
    for q in (5, 7, 8, 12, 15, 16, 35, 48, 100):
        g = unit_group(q)
        for chi in characters(q):
            units = g.units
            for a in units[:6]:
                for b in units[:6]:
                    lhs = chi.phase((a * b) % q)
                    rhs = (chi.phase(a) + chi.phase(b)) % 1
                    assert lhs == rhs  # exact Fractions


def test_character_order_divides_lambda():
    for q in (5, 8, 15, 16, 21):
        lam = unit_group(q).lam
        for chi in characters(q):
            assert lam % chi.order == 0
            assert chi.phase(1) == 0


def test_orthogonality_exact():
    for q in (3, 5, 8, 12, 15, 24, 30, 100):
        g = unit_group(q)
        for a in g.units:
            s = RootOfUnitySum(g.lam)
            for k in characters(q).numerators(a).tolist():
                s.add(k)
            if a == 1:
                assert not s.is_zero()
                assert abs(s.to_complex() - g.phi) < 1e-9
            else:
                assert s.is_zero()


def test_character_with_value_examples():
    # q=7, a=3 has order 6; some character takes the primitive value there
    chi = character_with_value(7, 3, Fraction(-1, 6))
    assert chi.phase(3) == Fraction(5, 6)
    chi5 = character_with_value(5, 2, Fraction(-1, 4))
    val = chi5(2)
    assert abs(val - (-1j)) < 1e-12
    # order-3 element admits only cube-root phases
    assert brute_order(2, 7) == 3
    with pytest.raises(NotRepresentableError):
        character_with_value(7, 2, Fraction(1, 4))


def test_sqrt_count_examples_and_oracle():
    assert sqrt_count(8, 1) == 4
    assert sqrt_count(5, 2) == 0
    assert sqrt_count(5, 4) == 2
    for q in (5, 8, 12, 21):
        for c in unit_group(q).units:
            oracle = sum(1 for w in range(q) if (w * w) % q == c)
            assert sqrt_count(q, c) == oracle


def test_sqrt_count_one_maximal():
    for q in (5, 8, 15, 16, 24, 35, 60):
        n1 = sqrt_count(q, 1)
        for a in unit_group(q).units:
            assert sqrt_count(q, a) <= n1


def test_sqrt_count_invalid_residue():
    with pytest.raises(InvalidResidueError):
        sqrt_count(8, 2)


def test_root_of_unity_sum_cancellation():
    s = RootOfUnitySum(3)
    s.add(1).add(2).add(0)
    assert s.is_zero()  # 1 + w + w^2 = 0
    t = RootOfUnitySum(5)
    t.add(1, 2).add(4, -2)
    assert not t.is_zero()
    assert abs(t.to_complex().real) < 1e-12  # purely imaginary
    # at level 30 the same sums sit on every 10th and 6th numerator, and
    # numerators reduce mod the level
    assert RootOfUnitySum(30).add(10).add(-10).add(30).is_zero()
    u = RootOfUnitySum(30).add(6, 2).add(24, -2)
    assert not u.is_zero() and u.to_complex() == t.to_complex()


# --- characters as exponent vectors -------------------------------------------


def reference_phase_tables(q):
    """The Fraction-table construction characters(q) used to store: every
    exponent vector b gives the phase table a -> sum_j b_j alpha_j(a)/n_j
    mod 1 over the units in increasing order; tables sorted
    lexicographically, principal first."""
    group = unit_group(q)
    tables = []
    for b in itertools.product(*(range(n) for _, n in group.generators)):
        table = []
        for a in group.units:
            ph = sum((Fraction(bj * e, n) for (_, n), bj, e
                      in zip(group.generators, b, group.exponents(a))),
                     Fraction(0))
            table.append(ph - math.floor(ph))
        tables.append(tuple(table))
    tables.sort()
    tables.sort(key=lambda t: any(t))  # principal first
    return tables


def test_golden_label_order_and_phase_tables():
    for q in range(3, 61):
        units = unit_group(q).units
        want = reference_phase_tables(q)
        got = characters(q)
        assert [tuple(c.phase(a) for a in units) for c in got] == want, q
        for c, table in zip(got, want):
            assert c.phases == dict(zip(units, table))
            assert c.order == math.lcm(*(f.denominator for f in table))
            assert c.is_principal == (not any(table))


@PROPERTY
@given(moduli)
def test_unit_group_exponent_bijection(q):
    g = unit_group(q)
    vectors = {g.exponents(a): a for a in g.units}
    assert len(vectors) == g.phi == math.prod(n for _, n in g.generators)
    for vec, a in vectors.items():
        prod = 1
        for (gen, n), e in zip(g.generators, vec):
            assert 0 <= e < n
            prod = prod * pow(gen, e, q) % q
        assert prod == a


@PROPERTY
@given(moduli, st.data())
def test_orthogonality_exact_property(q, data):
    g = unit_group(q)
    a = data.draw(st.sampled_from(g.units))
    column = RootOfUnitySum(g.lam)
    for k in characters(q).numerators(a).tolist():
        column.add(k)
    assert column.is_zero() == (a != 1)
    chi = data.draw(st.sampled_from(characters(q)))
    row = RootOfUnitySum(g.lam)
    for u in g.units:
        k = chi.phase(u) * g.lam
        assert k.denominator == 1
        row.add(k.numerator)
    assert row.is_zero() == (not chi.is_principal)


@PROPERTY
@given(moduli, st.data())
def test_product_and_power_add_phases(q, data):
    chars = characters(q)
    chi = data.draw(st.sampled_from(chars))
    psi = data.draw(st.sampled_from(chars))
    k = data.draw(st.integers(min_value=-50, max_value=50))
    for a in data.draw(st.lists(st.sampled_from(unit_group(q).units),
                                min_size=1, max_size=8)):
        assert (chi * psi).phase(a) == (chi.phase(a) + psi.phase(a)) % 1
        assert (chi**k).phase(a) == (k * chi.phase(a)) % 1
        assert chi.conjugate().phase(a) == (-chi.phase(a)) % 1
        assert abs(chi(a) - complex(math.cos(2 * math.pi * chi.phase(a)),
                                    math.sin(2 * math.pi * chi.phase(a)))) < 1e-12


@PROPERTY
@given(moduli, st.data())
def test_label_vector_round_trip(q, data):
    chars = characters(q)
    label = data.draw(st.integers(min_value=0, max_value=len(chars) - 1))
    chi = chars[label]
    assert chars.index(chi) == label
    again = DirichletCharacter(q, chi.b)
    assert again == chi and hash(again) == hash(chi)
    assert chars.index(again) == label
    system = ZeroSystem(q, {})
    conj = system.conjugate_label(label)
    assert chars[conj] == chi.conjugate()
    assert system.conjugate_label(conj) == label


def test_character_vector_normalized_and_checked():
    chi = DirichletCharacter(15, (3, -1))  # generators of orders 2 and 4
    assert chi.b == (1, 3)
    assert chi != DirichletCharacter(16, (1, 1))
    with pytest.raises(ValueError):
        DirichletCharacter(15, (1,))
    with pytest.raises(InvalidResidueError):
        chi.phase(5)


# --- the character table against the object tuple it replaced -----------------


def ref_characters(q):
    """characters(q) as a tuple of DirichletCharacter objects, in the label
    order sorted from a prefix of the numerator table B A mod lam."""
    group = unit_group(q)
    orders = [n for _, n in group.generators]
    B = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    A = np.array([group.exponents(a) for a in group.units], dtype=np.int64).T
    weights = np.array([group.lam // n for n in orders], dtype=np.int64)
    width = 8
    while True:
        numerators = (B * weights) @ A[:, :width] % group.lam
        label_order = np.lexsort(numerators[:, ::-1].T)  # last key is primary
        ranked = numerators[label_order]
        if (ranked[1:] != ranked[:-1]).any(axis=1).all():
            break
        width *= 2
    rows = B.tolist()
    return tuple(DirichletCharacter(q, tuple(rows[i]))
                 for i in label_order.tolist())


def ref_character_with_value(chars, a, target_phase):
    target = Fraction(target_phase) % 1
    for c in chars:
        if c.phase(a) == target:
            return c
    raise NotRepresentableError(target)


def test_table_matches_object_reference():
    for q in range(3, 401):
        group = unit_group(q)
        table, ref = characters(q), ref_characters(q)
        assert len(table) == len(ref) == group.phi
        assert [c.b for c in table] == [c.b for c in ref], q
        assert [table.index(c) for c in ref] == list(range(len(ref)))
        gens = [g for g, _ in group.generators]
        sample = sorted(set(group.units[:2] + group.units[-1:] + tuple(gens)))
        # a primitive value at every sampled unit; at the last, one phase
        # that needs 4 | lam and one that no character takes
        last = sample[-1]
        probes = [(u, Fraction(-1, group.order(u))) for u in sample] \
            + [(last, Fraction(1, 4)), (last, Fraction(3, 2 * group.lam))]
        for a in sample:
            assert table.numerators(a).tolist() == [c._numerator(a) for c in ref]
        for a, phase in probes:
            try:
                want = ref_character_with_value(ref, a, phase)
            except NotRepresentableError:
                with pytest.raises(NotRepresentableError):
                    character_with_value(q, a, phase)
            else:
                assert character_with_value(q, a, phase) == want


def test_table_lookups_reject_foreign_input():
    table = characters(15)
    with pytest.raises(ValueError):
        table.index(characters(16)[1])
    with pytest.raises(InvalidResidueError):
        table.numerators(5)
    with pytest.raises(InvalidResidueError):
        character_with_value(15, 3, Fraction(1, 2))
    with pytest.raises(IndexError):
        table[len(table)]
    assert table[-1] == list(table)[-1]


def test_character_records_compare_and_hash_by_q_and_b():
    chi = DirichletCharacter(7, (1,))
    assert chi == DirichletCharacter(7, (7,))  # b is reduced mod 6, the order of 3
    assert chi.b == (1,) and hash(chi) == hash((7, (1,)))
    assert chi != DirichletCharacter(7, (2,)) and chi != DirichletCharacter(9, (1,))
    assert chi * chi == chi**2 == DirichletCharacter(7, (2,))
    assert chi**6 == DirichletCharacter(7, (0,)) and (chi**6).is_principal
    assert len({chi, DirichletCharacter(7, (13,)), chi**2}) == 2
    with pytest.raises(TypeError):
        2 * chi
    with pytest.raises(AttributeError):
        chi.b = (2,)


def test_unit_groups_compare_and_hash_by_q_and_generators():
    group = unit_group(7)
    assert hash(group) == hash((7, group.generators))
    twin = copy.deepcopy(group)  # a separate object with equal fields
    assert twin is not group and twin == group and hash(twin) == hash(group)
    assert len({group, twin, unit_group(9), unit_group(15)}) == 3
    assert group != unit_group(9)
    with pytest.raises(AttributeError):
        group.q = 9
