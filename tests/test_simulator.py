import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racelab

from racelab.residues import characters, unit_group
from racelab.simulator import (DomainError, EmptyDominantSetError,
                               OverflowRiskError, RaceFunctionSet,
                               RecipeMismatchError, corollary13_sum,
                               dominant_member_values, dominant_profile,
                               envelope_integral, f_rho, f_rho_parts, li,
                               one_period_trace, race_values,
                               theorem_decomposition, trace)
from racelab.simulator import _ei, _exp1
from racelab.trigpoly import TrigPoly
from racelab.zerosys import Zero, ZeroSystem


def label_with_phase(q, a, phase):
    chars = characters(q)
    return next(i for i, c in enumerate(chars) if c.phase(a) == phase)


def single_zero_system(q=5, beta=0.75, gamma=10.0):
    lbl = label_with_phase(q, 2, Fraction(3, 4))  # chi(2) = -i
    z = Zero(beta, gamma)
    return ZeroSystem(q, {lbl: {z: 1}}, height_lattice=gamma), z, lbl


def test_f_rho_main_term():
    main, tail, bound = f_rho_parts(0.75, math.exp(4))
    assert main.real == pytest.approx(math.exp(3) / 3, rel=1e-12)
    assert main.imag == 0


def test_f_rho_at_two():
    main, tail, bound = f_rho_parts(0.75 + 10j, 2.0)
    assert tail == 0 and bound == 0.0
    assert f_rho(0.75 + 10j, 2.0) == main


def test_f_rho_is_main_plus_tail():
    for rho in (0.75 + 14.134725j, 0.6 - 3.0j, 0.9 + 100.0j, 0.8):
        for x in (2.0, 2.5, 1e3, 1e8):
            main, tail, _ = f_rho_parts(rho, x)
            assert f_rho(rho, x) == main + tail


# relative error bound of the closed-form f(rho) against mpmath; the
# quadrature evaluation it replaced met it too (worst 1.2e-13 on this set)
F_RHO_REL_TOL = 1e-11
F_RHO_PROBE = [(rho, x) for rho in (0.75, 0.75 + 1e-9j, 0.6 - 3.0j,
                                    0.5 + 14.134725j, 0.9 + 100.0j)
               for x in (2.001, 1e3, 1e8)]


def mpmath_f_parts(rho, x):
    """(f, main, tail, discard bound, envelope) at 40 digits, by the same
    exponential-integral identities as the code under test."""
    import mpmath as mp
    with mp.workdps(40):
        rho, w, l2 = mp.mpmathify(rho), mp.log(x), mp.log(2)
        if mp.im(rho) == 0:
            inner = mp.ei(rho * w) - mp.ei(rho * l2)
        else:
            inner = mp.e1(-rho * l2) - mp.e1(-rho * w)
        f = mp.exp(rho * l2) / (rho * l2) + inner
        main = mp.exp(rho * w) / (rho * w)
        beta = mp.re(rho)
        env = (mp.exp(beta * l2) / l2 - mp.exp(beta * w) / w
               + beta * (mp.ei(beta * w) - mp.ei(beta * l2)))
        return (complex(f), complex(main), complex(f - main),
                float(env / abs(rho)), float(env))


def test_mpmath_reference_is_the_definition():
    # the identities behind mpmath_f_parts against direct quadrature
    import mpmath as mp
    with mp.workdps(40):
        for rho in (0.75, 0.5 + 14.134725j, 0.6 - 3.0j):
            x = 1e3
            _, _, tail, _, env = mpmath_f_parts(rho, x)
            r, panels = mp.mpmathify(rho), mp.linspace(mp.log(2), mp.log(x), 20)
            quad_tail = mp.quad(lambda v: mp.exp(r * v) / v**2, panels) / r
            quad_env = mp.quad(lambda v: mp.exp(mp.re(r) * v) / v**2, panels)
            assert abs(tail - complex(quad_tail)) <= 1e-15 * abs(tail)
            assert abs(env - float(quad_env)) <= 1e-15 * env


def test_f_rho_matches_mpmath():
    for rho, x in F_RHO_PROBE:
        main, tail, bound = f_rho_parts(rho, x)
        got = (f_rho(rho, x), main, tail, bound,
               envelope_integral(complex(rho).real, x))
        for value, ref in zip(got, mpmath_f_parts(rho, x)):
            assert abs(value - ref) <= F_RHO_REL_TOL * abs(ref), (rho, x)


# relative error bound of the numpy E1 and Ei against mpmath (worst seen on
# the probes below: 1.8e-15)
EXP1_REL_TOL = 1e-14


def mpmath_e1(z):
    import mpmath as mp
    with mp.workdps(40):
        return complex(mp.e1(mp.mpc(z.real, z.imag)))


def assert_exp1_matches(z):
    z = np.asarray(z, dtype=complex)
    for got, arg in zip(_exp1(z), z):
        ref = mpmath_e1(arg)
        assert abs(got - ref) <= EXP1_REL_TOL * abs(ref), arg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(beta=st.floats(0.5, 1.0), log10_gamma=st.floats(-9.0, 4.0),
       sign=st.sampled_from([1.0, -1.0]),
       log_w=st.floats(math.log(math.log(2.0)), math.log(690.0)))
def test_exp1_matches_mpmath(beta, log10_gamma, sign, log_w):
    # the arguments f(rho) takes: -rho log 2 and -rho log x, x <= e^690
    rho = complex(beta, sign * 10.0**log10_gamma)
    assert_exp1_matches([-rho * math.log(2.0), -rho * math.exp(log_w)])


def test_exp1_region_seams():
    angles = np.linspace(0.0, math.pi, 25)
    ring = np.concatenate([np.exp(1j * angles), np.exp(-1j * angles)])
    points = [r * ring for r in (1 - 1e-12, 1.0, 1 + 1e-12, 2.0,
                                 40 - 1e-9, 40.0, 40 + 1e-9)]
    for r in (2.0, 5.0, 10.0, 20.0, 39.9):
        # the parabola Im^2 = 2|z| around the negative axis, both sides
        y = math.sqrt(2.0 * r)
        x = -math.sqrt(r * r - y * y)
        points += [np.array([complex(x, y * d), complex(x, -y * d)])
                   for d in (1 - 1e-12, 1.0, 1 + 1e-12)]
        # the sector edge |Im z| = -Re z, where a series loses digits
        points.append(r * np.exp(1j * np.array([0.75, -0.75]) * math.pi))
    # just off the negative real axis, on both sides of the branch cut
    for x in (-0.5, -1.5, -3.0, -20.0, -39.9, -40.0, -60.0, -690.0):
        points.append(np.array([complex(x, y) for y in
                                (1e-300, -1e-300, 1e-12, -1e-12, 1e-3, -1e-3)]))
    assert_exp1_matches(np.concatenate(points))


def test_ei_matches_mpmath():
    import mpmath as mp
    root = 0.37250741078136663  # Ei's only real zero
    with mp.workdps(40):
        far = [s * x for s in (1.0, -1.0) for x in
               (1e-10, 0.1, 1.0, 2.0, 5.0, 30.0, 39.9, 40.0, 100.0, 690.0)]
        for x, got in zip(far, _ei(far)):
            ref = float(mp.ei(x))
            assert abs(got - ref) <= EXP1_REL_TOL * abs(ref), x
        # near the root the relative error is unbounded; the absolute is not
        near = [root + d for d in (0.0, 1e-12, -1e-9, 1e-6, -1e-3, 0.05)]
        for x, got in zip(near, _ei(near)):
            assert abs(got - float(mp.ei(x))) <= 1e-15, x


def test_f_rho_domain_errors():
    with pytest.raises(DomainError):
        f_rho(0.75, 1.5)
    with pytest.raises(DomainError):
        f_rho(0.0, 10.0)


def test_f_rho_asymptotic_constant():
    # |f - main| <= K x^beta / (|rho|^2 log^2 x) with measured K < 10
    worst = 0.0
    for beta in (0.6, 0.9):
        for gamma in (5.0, 50.0, 500.0):
            for x in (1e2, 1e5, 1e8):
                rho = complex(beta, gamma)
                main, tail, bound = f_rho_parts(rho, x)
                k = abs(tail) * abs(rho) ** 2 * math.log(x) ** 2 / x**beta
                worst = max(worst, k)
                assert abs(tail) <= bound + 1e-12
    assert worst < 10.0


def test_race_values_empty_system():
    system = ZeroSystem(5, {})
    s = RaceFunctionSet(5, system, (1, 2, 3, 4), pi_proxy="li")
    vals = race_values(s, 1000.0)
    expect = li(1000.0) / 4
    for v in vals.values():
        assert v == pytest.approx(expect)


def test_race_differences_proxy_invariant():
    system, z, lbl = single_zero_system()
    x = 5000.0
    d = {}
    for proxy in ("li", "zero"):
        s = RaceFunctionSet(5, system, (1, 2), pi_proxy=proxy)
        vals = race_values(s, x)
        d[proxy] = vals[2] - vals[1]
    assert d["li"] == pytest.approx(d["zero"], abs=1e-12)


def test_race_single_zero_hand_expansion():
    system, z, lbl = single_zero_system()
    chi = characters(5)[lbl]
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="li")
    x = math.exp(4)
    vals = race_values(s, x)
    hand = -(2 / 4) * ((chi(2).conjugate() - chi(1).conjugate())
                       * f_rho(z.rho, x)).real
    assert vals[2] - vals[1] == pytest.approx(hand, rel=1e-9)


def test_ordering_scale_invariance():
    system, _, _ = single_zero_system()
    x = 12345.0
    orders = []
    for proxy in ("li", "zero"):
        s = RaceFunctionSet(5, system, (1, 2, 3, 4), pi_proxy=proxy)
        vals = race_values(s, x)
        orders.append(tuple(sorted(vals, key=vals.get)))
    assert orders[0] == orders[1]


def test_dominant_profile_amplitude():
    system, z, _ = single_zero_system()
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="zero")
    prof = dominant_profile(s, 2, 1)
    (amp, freq, _), = prof.poly.terms
    assert freq == z.gamma
    assert amp == pytest.approx(abs(complex(-1, -1)) / abs(z.rho))
    assert prof.beta == z.beta


def test_dominant_profile_tracks_scaled_difference():
    system, z, _ = single_zero_system()
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="zero")
    prof = dominant_profile(s, 2, 1)
    for u in (20.0, 30.0, 40.0):
        x = math.exp(u)
        err = abs(prof.scaled_difference(s, x) - prof(u))
        assert err <= prof.residual_bound(x)


def test_dominant_profile_forms_one_g_sum_per_zero(monkeypatch):
    """Each zero's exact g-sum is formed once per profile, and the
    numerator columns of a and b are read once."""
    from racelab import residues, zerosys
    from racelab.barriers import build_thm311
    system = build_thm311(7).system
    s = RaceFunctionSet(7, system, (1, 2, 3), pi_proxy="zero")
    want = dominant_profile(s, 3, 1)
    sums, reads = [], []

    class Counted(residues.RootOfUnitySum):
        def __init__(self, level):
            sums.append(level)
            super().__init__(level)

    numerators = residues.CharacterTable.numerators

    def counted_numerators(table, a):
        reads.append(a)
        return numerators(table, a)

    monkeypatch.setattr(zerosys, "RootOfUnitySum", Counted)
    monkeypatch.setattr(residues.CharacterTable, "numerators",
                        counted_numerators)
    assert dominant_profile(s, 3, 1) == want
    assert len(sums) == len(system.all_zeros()) > 1
    assert reads == [3, 1]


def test_dominant_profile_errors():
    system, _, _ = single_zero_system()
    s = RaceFunctionSet(5, system, (1, 2, 3, 4), pi_proxy="zero")
    with pytest.raises(ValueError):
        dominant_profile(s, 2, 2)
    # pair separated by no character carrying zeros
    lbl_r = label_with_phase(5, 2, Fraction(1, 2))
    sys_r = ZeroSystem(5, {lbl_r: {Zero(0.75, 5.0): 1}})
    s_r = RaceFunctionSet(5, sys_r, (1, 4), pi_proxy="zero")
    with pytest.raises(EmptyDominantSetError):
        dominant_profile(s_r, 4, 1)  # chi(4) = 1 on the real character


def test_corollary13_examples():
    assert corollary13_sum(ZeroSystem(3, {}), 2, 1, 5.0) == 0.0
    sigma, t = 0.5, 8.0
    lbl = label_with_phase(3, 2, Fraction(1, 2))  # chi(2) = -1
    system = ZeroSystem(3, {lbl: {Zero(sigma, t): 1}}, hypothetical=False)
    u = (math.pi / 2 - math.atan(sigma / t)) / t
    val = corollary13_sum(system, 2, 1, u)
    assert val == pytest.approx(2 / math.sqrt(t * t + sigma * sigma))
    # t = 0 convention: the angle shift becomes pi/2
    sys0 = ZeroSystem(3, {lbl: {Zero(0.75, 0.0): 1}})
    v0 = corollary13_sum(sys0, 2, 1, 0.0)
    # nu(b) - nu(a) = sin(pi/2) - sin(pi/2 - pi) = 2, halved at a real zero
    assert v0 == pytest.approx(2 * 0.5 / 0.75)


def corollary13_reference(zeros, a, b, u):
    """The scalar sum with math.sin, one zero at a time."""
    sigma = next(z.beta for zs in zeros.entries.values() for z in zs)
    total = 0.0
    for label, zs in zeros.entries.items():
        chi = zeros.chars[label]
        arg_a = 2.0 * math.pi * float(chi.phase(a))
        arg_b = 2.0 * math.pi * float(chi.phase(b))
        for z, mult in zs.items():
            t = z.gamma
            shift = math.atan2(sigma, t) if t > 0 else math.pi / 2
            weight = 0.5 if t == 0 else 1.0
            total += (weight * mult * (math.sin(t * u - arg_b + shift)
                                       - math.sin(t * u - arg_a + shift))
                      / math.sqrt(t * t + sigma * sigma))
    return total


def test_corollary13_array_matches_scalar_calls():
    from importlib import resources
    from racelab.zerosys import load_zero_data
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        chi3 = load_zero_data(p)
    mixed = ZeroSystem(5, {label_with_phase(5, 2, Fraction(1, 4)):
                           {Zero(0.75, 3.5): 2},
                           label_with_phase(5, 2, Fraction(1, 2)):
                           {Zero(0.75, 0.0): 1, Zero(0.75, 7.25): 3}})
    u = np.linspace(0.0, 40.0, 301)
    for system, a, b in ((chi3, 2, 1), (chi3, 1, 2), (mixed, 2, 3),
                         (ZeroSystem(5, {}), 2, 3)):
        values = corollary13_sum(system, a, b, u)
        assert values.shape == u.shape
        scalars = [corollary13_sum(system, a, b, float(x)) for x in u]
        assert all(isinstance(s, float) for s in scalars)
        assert np.array_equal(values, scalars)
        if system.size:
            ref = [corollary13_reference(system, a, b, float(x)) for x in u]
            np.testing.assert_allclose(values, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))
    assert corollary13_sum(chi3, 2, 1, np.array([])).shape == (0,)


def test_corollary13_mixed_levels_rejected():
    lbl = label_with_phase(3, 2, Fraction(1, 2))
    system = ZeroSystem(3, {lbl: {Zero(0.6, 5.0): 1, Zero(0.7, 9.0): 1}})
    with pytest.raises(ValueError):
        corollary13_sum(system, 2, 1, 1.0)


# The one- and two-factor lattice decomposers that `decompose_lattice`
# replaced, kept verbatim apart from their names and the output helper, as
# the bitwise reference for the merged one.


def ref_decompose_power_lattice(system, a, n, gamma, chi_label):
    chars = system.chars
    chi = chars[chi_label]
    power_label = {}
    for j in range(1, n):
        power_label[chars.index(chi**j)] = j
    m = {}
    for label, z, mult in system.items():
        if label not in power_label:
            raise RecipeMismatchError("zero on a character outside the chi-power family")
        k = z.gamma / gamma
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise RecipeMismatchError("height off the k*gamma lattice")
        m[(power_label[label], int(round(k)))] = (
            m.get((power_label[label], int(round(k))), 0) + mult)

    def G(r):
        parts = {}
        for (j, k), mult in m.items():
            ph = 2.0 * math.pi * ((j * r) % n) / n
            parts[float(k)] = parts.get(float(k), 0j) + (
                mult / k) * cmath.exp(1j * ph)
        terms = []
        for k, z in sorted(parts.items()):
            if abs(z) > 0:
                terms.append((abs(z), k, math.atan2(z.imag, z.real)))
        return TrigPoly(tuple(terms))

    return {"m": m, "G": {r: G(r) for r in range(n)}, "n": n, "gamma": gamma}


def ref_decompose_two_generator_lattice(system, gamma, chi1_label, chi2_label):
    chars = system.chars
    chi1, chi2 = chars[chi1_label], chars[chi2_label]
    jk_label = {}
    for j in range(4):
        for k in range(2):
            if (j, k) != (0, 0):
                jk_label[chars.index((chi1**j) * (chi2**k))] = (j, k)
    m = {}
    for label, z, mult in system.items():
        if label not in jk_label:
            raise RecipeMismatchError("zero outside the chi1^j chi2^k family")
        l = z.gamma / gamma
        if abs(l - round(l)) > 1e-9 or round(l) < 1:
            raise RecipeMismatchError("height off the l*gamma lattice")
        j, k = jk_label[label]
        key = (j, k, int(round(l)))
        m[key] = m.get(key, 0) + mult

    def G(r, s):
        parts = {}
        for (j, k, l), mult in m.items():
            ph = math.pi / 2 * ((r * j + 2 * s * k) % 4)
            parts[float(l)] = parts.get(float(l), 0j) + (
                mult / l) * cmath.exp(1j * ph)
        terms = []
        for l, z in sorted(parts.items()):
            if abs(z) > 0:
                terms.append((abs(z), l, math.atan2(z.imag, z.real)))
        return TrigPoly(tuple(terms))

    return {"m": m,
            "G": {(r, s): G(r, s) for r in range(4) for s in range(2)},
            "gamma": gamma}


def assert_same_lattice(recipe, case, old_m, old_G):
    """The merged decomposition's m and G equal the old ones, keys mapped to
    exponent tuples and terms compared by repr (bit for bit, signed zeros
    included)."""
    new = theorem_decomposition(recipe.system, case, recipe.params)
    assert new["m"] == old_m
    assert list(new["G"]) == list(old_G)
    for r, poly in old_G.items():
        assert repr(new["G"][r].terms) == repr(poly.terms), (recipe.q, r)


def test_decompose_lattice_matches_old_decomposers():
    from racelab.barriers import build_extremal, build_thm311
    for q in range(7, 151):
        if q in (8, 10, 12, 24):
            continue
        rec = build_thm311(q)
        p = rec.params
        if p["case"] == "z4z2":
            old = ref_decompose_two_generator_lattice(
                rec.system, p["gamma"], p["chi1"], p["chi2"])
            old_m = {((j, k), l): v for (j, k, l), v in old["m"].items()}
            old_G = old["G"]
        else:
            old = ref_decompose_power_lattice(rec.system, p["a"], p["n"],
                                              p["gamma"], p["chi"])
            old_m = {((j,), k): v for (j, k), v in old["m"].items()}
            old_G = {(r,): g for r, g in old["G"].items()}
        assert_same_lattice(rec, "thm311", old_m, old_G)
    # the layered-census benchmark's extremal classes: cyclic order 6 with
    # a 3-member D, and cyclic order 16 with D = a, a^2, a^3, a^4
    for q, V in ((7, (1, 2, 3)), (9, (3, 4, 5)), (17, (1, 2, 3, 4))):
        g = unit_group(q)
        r = max(g.order(a) for a in g.units)
        gen = min(a for a in g.units if g.order(a) == r)
        sub = g.subgroup(gen)
        rec = build_extremal(q, gen, [sub[v] for v in V])
        p = rec.params
        old = ref_decompose_power_lattice(rec.system, p["a"], p["r"],
                                          p["gamma"], p["chi"])
        assert_same_lattice(rec, "thm43",
                            {((j,), k): v for (j, k), v in old["m"].items()},
                            {(r,): g for r, g in old["G"].items()})


def test_decompose_lattice_builds_each_g_on_first_read(monkeypatch):
    from racelab.barriers import build_thm311
    recipe = build_thm311(13)  # one cyclic factor, of order n = 6
    built = []
    from_phasors = TrigPoly.from_phasors
    monkeypatch.setattr(TrigPoly, "from_phasors", staticmethod(
        lambda phasors: built.append(1) or from_phasors(phasors)))
    G = theorem_decomposition(recipe.system, "thm311", recipe.params)["G"]
    assert list(G) == [(r,) for r in range(recipe.params["n"])] and not built
    assert G[(5,)] is G[(5,)] and len(built) == 1
    with pytest.raises(KeyError):
        G[(6,)]
    with pytest.raises(TypeError):
        G[(5,)] = TrigPoly.zero()


def test_trace_empty_system():
    system = ZeroSystem(5, {})
    s = RaceFunctionSet(5, system, (1, 2, 3, 4), pi_proxy="zero")
    tr = trace(s, (0.0, 10.0), 0.1)
    assert np.all(tr.values == 0.0)
    from racelab.orderings import census
    rep = census(tr)
    assert rep.strict_count == 0 and len(rep.weak) == 1  # one all-tie chain


def test_one_period_trace_of_a_lattice_system_without_zeros():
    # no zeros, no levels: the period's values are the zeros that `trace`
    # and `dominant_member_values` give, not a folded empty level list
    s = RaceFunctionSet(7, ZeroSystem(7, {}, height_lattice=1.0), (1, 2))
    tr = one_period_trace(s, samples=64)
    assert tr.periodic and tr.values.shape == (2, 64)
    assert np.array_equal(tr.values, np.zeros((2, 64)))
    assert np.array_equal(
        tr.values, dominant_member_values(s.system, s.members, tr.u))
    assert np.array_equal(trace(s, (0.0, 63.0), 1.0).values, tr.values)


def ref_amplitudes(system, members):
    """A[a, rho] = sum_chi n(rho, chi) w(rho) conj(chi)(a) by the loop over
    (label, zero, member), each value from `DirichletCharacter.conjugate()`,
    with each zero's number of labels L and weight sum S = sum_chi n w."""
    zeros = system.all_zeros()
    col = {z: k for k, z in enumerate(zeros)}
    amps = np.zeros((len(members), len(zeros)), dtype=complex)
    labels, weight = np.zeros(len(zeros)), np.zeros(len(zeros))
    for label, z, mult in system.items():
        w = mult * (0.5 if z.is_real else 1.0)
        chi_bar = system.chars[label].conjugate()
        for i, a in enumerate(members):
            amps[i, col[z]] += w * chi_bar(a)
        labels[col[z]] += 1
        weight[col[z]] += w
    return zeros, amps, labels, weight


def amplitude_cases():
    from importlib import resources
    from racelab.barriers import build_thm311
    from racelab.zerosys import load_zero_data
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        chi3 = load_zero_data(p)
    quarter, half, three = (label_with_phase(5, 2, Fraction(k, 4))
                            for k in (1, 2, 3))
    shared = ZeroSystem(5, {quarter: {Zero(0.75, 3.5): 2},
                            half: {Zero(0.75, 0.0): 1, Zero(0.75, 7.25): 3},
                            three: {Zero(0.75, 3.5): 1, Zero(0.7, 1.5): 5}})
    real_pair = ZeroSystem(5, {quarter: {Zero(0.8, 0.0): 2},
                               three: {Zero(0.8, 0.0): 2, Zero(0.6, 2.0): 1}})
    thm311 = build_thm311(7).system
    return {"half-weight real zero": (real_pair, (1, 2, 3, 4)),
            "zero on two characters": (shared, (1, 2, 3, 4)),
            "no members": (shared, ()),
            "unreduced residues": (thm311, (10, 3, 13, 6, 1)),
            "chi3 zeros": (chi3, (2, 1))}


@pytest.mark.parametrize("case", ["half-weight real zero",
                                  "zero on two characters", "no members",
                                  "unreduced residues", "chi3 zeros"])
def test_amplitudes_match_character_loop(case):
    """`_amplitudes` against the loop.  At each (a, rho) both sum the same
    L terms w_l e(theta_l), w_l = n w exact, theta_l = 2 pi x_l and x_l the
    phase numerator over lam.  Against that exact sum each lies within
    (17 + L) EPS S, S = sum_l |w_l|:
    - each character value within 16 EPS: the angle is rounded in x, in
      2 pi and in their product, 3/2 EPS relative, so by 3 pi EPS < 10 EPS,
      and cos and sin are within 4 ulp each, under 6 EPS in modulus;
    - each product w_l e(theta_l) within EPS |w_l|;
    - the sum, in any order, within (L - 1) EPS S.
    So the two lie within 2 (17 + L) EPS S of each other."""
    from racelab.simulator import _amplitudes
    from racelab.trigpoly import EPS
    system, members = amplitude_cases()[case]
    zeros, amps = _amplitudes(system, members)
    ref_zeros, ref, labels, weight = ref_amplitudes(system, members)
    assert zeros == ref_zeros and amps.shape == ref.shape
    assert amps.dtype == complex
    bound = 2 * (17 + labels) * EPS * weight
    assert np.all(np.abs(amps - ref) <= bound)
    if case == "half-weight real zero":
        assert set(weight) == {2.0, 1.0}  # mult 2 at half weight, twice
    if case == "zero on two characters":
        assert labels.max() == 2
    if case == "unreduced residues":
        assert np.array_equal(amps[0], amps[1])  # 10 = 3 mod 7
        assert np.array_equal(amps[2], amps[3])  # 13 = 6 mod 7


def test_trace_periodicity():
    system, z, _ = single_zero_system(gamma=10.0)
    s = RaceFunctionSet(5, system, (1, 2, 3, 4), pi_proxy="zero")
    tr = one_period_trace(s, samples=256)
    period = 2 * math.pi / 10.0
    again = dominant_member_values(system, s.members, tr.u + period)
    assert np.allclose(tr.values, again, atol=1e-12)
    assert tr.periodic


@pytest.mark.parametrize("q, crossings", [(7, 58), (13, 350), (15, 106),
                                          (19, 732)])
def test_period_census_closes_its_seam(q, crossings):
    # the lattice-1001 thm311 recipes over all units, 65536 samples: the
    # last sample is compared with the first, so every crossing of the
    # period counts, wherever the phase grid starts
    from racelab.barriers import build_thm311
    from racelab.orderings import census
    recipe = build_thm311(q, tau=1000.0)
    s = RaceFunctionSet(q, recipe.system, unit_group(q).units, pi_proxy="zero")
    for base_u in (0.0, 1.234e-4):
        rep = census(one_period_trace(s, samples=65536, base_u=base_u))
        assert len(rep.crossings) == crossings, base_u


def test_period_samples_the_phase_with_frozen_level_weights():
    from racelab.barriers import build_thm51
    recipe = build_thm51(15, tau=1000.0)
    lam = recipe.system.height_lattice
    s = RaceFunctionSet(15, recipe.system, unit_group(15).units,
                        pi_proxy="zero")
    tr = one_period_trace(s, samples=512, base_u=50.0)
    assert np.array_equal(tr.u, 50.0 + np.linspace(0.0, 2 * math.pi / lam,
                                                    512, endpoint=False))
    # each level weighted at base_u 50 for the whole period: the two
    # levels' values at the phase, the lower one scaled by e^(-0.1 * 50)
    levels = {}
    for beta in recipe.params["betas"]:
        one = ZeroSystem(15, {label: {z: m for z, m in zs.items()
                                      if z.beta == beta}
                              for label, zs in recipe.system.entries.items()},
                         height_lattice=lam)
        levels[beta] = dominant_member_values(one, s.members, tr.u)
    hi, lo = sorted(levels)[::-1]
    frozen = levels[hi] + math.exp((lo - hi) * 50.0) * levels[lo]
    assert np.max(np.abs(tr.values - frozen)) < 1e-12
    # weights that drift across the period move the values by far more
    drifting = dominant_member_values(recipe.system, s.members, tr.u)
    assert np.max(np.abs(drifting - frozen)) > 1e-9
    # far out the lower level's weight is below tie_tol's reach, and far
    # back it overflows: both are refused, naming the level
    for base_u in (200.0, -1e4):
        with pytest.raises(ValueError, match="level beta = 0.7 has weight"):
            one_period_trace(s, base_u=base_u)


def test_one_period_window_is_not_periodic():
    # only `one_period_trace` samples a period; a u-window of that length
    # drifts in its level weights and is censused as a window
    from racelab.barriers import build_thm311
    from racelab.orderings import census
    recipe = build_thm311(7, tau=1000.0)
    period = 2 * math.pi / recipe.system.height_lattice
    s = RaceFunctionSet(7, recipe.system, unit_group(7).units, pi_proxy="zero")
    tr = trace(s, (0.0, period), period / 256)
    assert not tr.periodic
    assert census(tr).to_dict()["census_kind"] == "window-lower-bound"
    assert one_period_trace(s, samples=256).periodic


def test_period_phase_past_the_floats_is_refused():
    system, _, _ = single_zero_system(gamma=10.0)
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="zero")
    with pytest.raises(ValueError, match="not finite"):
        one_period_trace(s, base_u=1e308)
    # a huge finite phase is one v0 in [0, 2 pi): the u column collapses,
    # the values do not
    tr = one_period_trace(s, samples=64, base_u=1e300)
    assert len(set(tr.u.tolist())) == 1
    assert np.all(np.isfinite(tr.values)) and np.ptp(tr.values[0]) > 0


def test_trace_overflow_guard():
    system, _, _ = single_zero_system()
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="zero")
    with pytest.raises(OverflowRiskError):
        trace(s, (900.0, 1000.0), 1.0, mode="full-formula")
    # beta* u stays below 690 here, but x = e^u itself overflows past 709.8
    with pytest.raises(OverflowRiskError):
        trace(s, (1.0, 800.0), 1.0, mode="full-formula")
    empty = RaceFunctionSet(5, ZeroSystem(5, {}), (1, 2), pi_proxy="zero")
    with pytest.raises(OverflowRiskError):
        trace(empty, (1.0, 800.0), 1.0, mode="full-formula")
    assert np.all(np.isfinite(
        trace(s, (689.0, 690.0), 0.5, mode="full-formula").values))


def test_member_oscillations_cancel_over_group():
    # zeros live on non-principal characters only, so summing the
    # oscillation term over every unit cancels by orthogonality
    system, _, _ = single_zero_system()
    group = unit_group(5)
    u = np.linspace(0.0, 1.0, 50)
    vals = dominant_member_values(system, group.units, u)
    assert np.max(np.abs(vals.sum(axis=0))) < 1e-12


def test_difference_antisymmetry():
    system, _, _ = single_zero_system()
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="li")
    vals = race_values(s, 500.0)
    assert (vals[2] - vals[1]) == -(vals[1] - vals[2])


def test_full_formula_agrees_with_dominant_signs():
    system, z, _ = single_zero_system(gamma=10.0)
    s = RaceFunctionSet(5, system, (1, 2), pi_proxy="zero")
    prof = dominant_profile(s, 2, 1)
    tr_full = trace(s, (12.0, 13.2), 0.05, mode="full-formula")
    tr_dom = trace(s, (12.0, 13.2), 0.05, mode="dominant-only")
    diff_full = tr_full.values[1] - tr_full.values[0]
    diff_dom = tr_dom.values[1] - tr_dom.values[0]
    checked = 0
    for k, u in enumerate(tr_full.u):
        bound = prof.residual_bound(math.exp(u))
        if abs(prof(u)) > bound:
            assert np.sign(diff_full[k]) == np.sign(diff_dom[k])
            checked += 1
    assert checked > 10


SCIPY_GUARD = """
import contextlib, io, json, os, sys
from importlib import resources
import racelab, racelab.cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [racelab.cli.main(argv) for argv in (
        ["barrier", "build", "thm311", "--q", "7", "--tau", "1000",
         "--out", os.path.join(sys.argv[1], "rec.json")],
        ["simulate", "--recipe", os.path.join(sys.argv[1], "rec.json"),
         "--mode", "full-formula", "--window", "5:6", "--step", "0.05",
         "--out", os.path.join(sys.argv[1], "trace.csv")],
        ["trig", "dominate", "--freqs", "1", "--b", "1", "--a", "1",
         "--gamma", "0.5", "--out", os.path.join(sys.argv[1], "dom.json")])]
li = racelab.simulator.li(1e6)
f = racelab.simulator.f_rho(0.5 + 14.134725j, 1e4)
with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
    zeros = racelab.zerosys.load_zero_data(p)
rfs = racelab.simulator.RaceFunctionSet(3, zeros, (1, 2), pi_proxy="li")
tr = racelab.simulator.trace(rfs, (9.0, 10.0), 0.025, mode="full-formula")
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy.")),
                  "li": li, "f_rho": [f.real, f.imag],
                  "trace_shape": list(tr.values.shape)}))
"""


def fresh_python(code, *args):
    """Run code in a fresh interpreter that imports racelab from this tree;
    another test may already have loaded what the code checks for."""
    src = str(Path(racelab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)


def test_scipy_never_imported(tmp_path):
    out = fresh_python(SCIPY_GUARD, str(tmp_path))
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["scipy"] == []
    assert got["trace_shape"] == [2, 41]
    import mpmath as mp
    with mp.workdps(40):
        li_ref = float(mp.li(1e6))
    assert abs(got["li"] - li_ref) <= 2e-15 * li_ref
    ref = mpmath_f_parts(0.5 + 14.134725j, 1e4)[0]
    assert abs(complex(*got["f_rho"]) - ref) <= F_RHO_REL_TOL * abs(ref)


NUMPY_MA_GUARD = """
import sys
import racelab.cli
from racelab import barriers, orderings, primes, simulator

barriers.build_thm51(5)
primes.sieve_race(3, 10**4)
recipe = barriers.build_extremal(7, 3, [3, 2, 6])
members = tuple(recipe.params["D"])
rep = orderings.census(simulator.one_period_trace(simulator.RaceFunctionSet(
    7, recipe.system, members, pi_proxy="zero")))
orderings.verdict(rep, "extremal_exact", r=len(members))
primes.first_lead_change(4, 3, 1, 10**4)
print("numpy.ma" in sys.modules)
"""


def test_numpy_ma_never_imported():
    # in numpy 2.x a plain np.unique imports numpy.ma, a few ms per process
    assert fresh_python(NUMPY_MA_GUARD).stdout.split() == ["False"]
