"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margins (run with -s or -rA to see the lines for passing tests).

Criterion 1's second clause asserts that the weighted sine sum R stays
negative on [0.758, pi - 1e-6].  That inequality is numerically false: R has
a zero at v ~ 2.74289 and R(2.75) = +0.00858, so the certified scan rightly
refuses it and the test stays red.  The three-residue barrier verifications
never use R's sign beyond 2.7 (the P-domination pieces take over there), so
criterion 2 is unaffected; test_barriers pins the interval that does hold,
[0.758, 2.72].
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

import racelab
from racelab.barriers import (build_extremal, build_thm311, build_thm51,
                              check_thm51_conditions, scan_qpr_properties,
                              solve_lemma44, verify_thm311)
from racelab.orderings import census, turan_graph_bound, verdict
from racelab.primes import (compare_with_simulator, first_lead_change,
                            sieve_race)
from racelab.simulator import RaceFunctionSet, one_period_trace
from racelab.trigpoly import (TrigPoly, empirical_moments, eps1, eps2,
                              eps_box, find_all_negative, find_dominating,
                              find_fractional_parts,
                              find_simultaneous_positive, l2_norm)
from racelab.zerosys import Zero, ZeroSystem, is_kt_candidate, load_zero_data

TWO_PI = 2 * math.pi


def report(criterion, ok, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_qpr_sign_properties():
    t0 = time.time()
    scan = scan_qpr_properties(step=1e-4)
    elapsed = time.time() - t0
    detail = (f"min margin |P|-sqrt3*Q = {scan.min_margin_p:.6g}, "
              f"min margin -R = {scan.min_margin_r:.6g}, {elapsed:.2f}s")
    assert elapsed < 1.0
    p_ok = all(s.ok for s in scan.p_dominates) and scan.min_margin_p > 0
    assert report("1a", p_ok, detail)
    r_ok = scan.r_negative.ok and scan.min_margin_r > 0
    report("1b", r_ok, f"R < 0 on [0.758, pi-1e-6]: min margin "
                       f"{scan.min_margin_r:.6g} at v = {scan.r_negative.argmin:.4f}")
    assert r_ok, ("R(v) >= 0 on [2.7429, pi): the stated negativity interval "
                  "is numerically false (R(2.75) = +0.0086); the certified "
                  "negativity interval is [0.758, 2.72]")


def test_criterion_2_thm311_verification():
    expected = {7: 20, 17: 34, 15: 16}
    for q, size in expected.items():
        t0 = time.time()
        rec = build_thm311(q, tau=1000.0)
        rep = verify_thm311(rec)
        elapsed = time.time() - t0
        assert rec.system.size == size
        assert rep.ok
        assert elapsed < 10.0
        assert report("2", True,
                      f"q={q} |B|={size} certified margin "
                      f"{rep.lower_bound:.4g}, {elapsed:.1f}s")


def test_criterion_3_extremal_census_exact():
    t0 = time.time()
    g7 = racelab.unit_group(7)
    gen7 = min(a for a in g7.units if g7.order(a) == 6)
    sub7 = g7.subgroup(gen7)
    rec7 = build_extremal(7, gen7, [sub7[1], sub7[2], sub7[3]])
    s7 = RaceFunctionSet(7, rec7.system, tuple(rec7.params["D"]),
                         pi_proxy="zero")
    rep7 = census(one_period_trace(s7, samples=8192))
    assert rep7.strict_count == 4
    assert verdict(rep7, "extremal_exact", r=3).ok

    g17 = racelab.unit_group(17)
    gen17 = min(a for a in g17.units if g17.order(a) == 8)
    sub17 = g17.subgroup(gen17)
    rec17 = build_extremal(17, gen17, [sub17[v] for v in (1, 2, 3, 4)])
    s17 = RaceFunctionSet(17, rec17.system, tuple(rec17.params["D"]),
                          pi_proxy="zero")
    rep17 = census(one_period_trace(s17, samples=16384))
    assert rep17.strict_count == 7
    assert verdict(rep17, "extremal_exact", r=4).ok
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert report("3", True,
                  f"census(q=7, r'=3) = 4 and census(q=17, r'=4) = 7, "
                  f"{elapsed:.1f}s")


def test_criterion_4_turan_machinery_random_kt():
    rng = np.random.default_rng(7)
    instances = 0
    tries = 0
    while instances < 20 and tries < 400:
        tries += 1
        q = int(rng.choice([5, 7, 8, 11]))
        group = racelab.unit_group(q)
        members = rng.choice(group.units, size=3, replace=False)
        chars = racelab.characters(q)
        nonprin = [i for i, c in enumerate(chars) if not c.is_principal]
        gamma0 = 10.0
        entries = {}
        for _ in range(int(rng.integers(2, 5))):
            lbl = int(rng.choice(nonprin))
            z = Zero(0.75, float(rng.integers(1, 6)) * gamma0)
            entries.setdefault(lbl, {})
            entries[lbl][z] = entries[lbl].get(z, 0) + int(rng.integers(1, 3))
        system = ZeroSystem(q, entries, height_lattice=gamma0)
        if not is_kt_candidate(system, [int(m) for m in members]).all_pass:
            continue
        instances += 1
        s = RaceFunctionSet(q, system, tuple(int(m) for m in members),
                            pi_proxy="zero")
        rep = census(one_period_trace(s, samples=8192))
        bound = turan_graph_bound(rep).lower_bound
        assert bound >= 3 * 2 // 2 + 1
        assert rep.strict_count >= 3 * 2 // 2 + 1
        assert rep.strict_count >= bound
    assert instances == 20
    assert report("4", True, f"20 random KT systems: census >= 4 and >= "
                             f"forest bound on each (sampled {tries})")


def test_criterion_5_thm51_census_caps():
    t0 = time.time()
    for q, cap in ((5, 12), (7, 30)):
        rec = build_thm51(q, tau=1000.0)
        ws = check_thm51_conditions(rec)  # raises on (A)-(D) failure
        group = racelab.unit_group(q)
        s = RaceFunctionSet(q, rec.system, group.units, pi_proxy="zero")
        rep = census(one_period_trace(s, samples=1 << 15))
        r = len(group.units)
        assert rep.strict_count <= cap
        assert verdict(rep, "thm51_upper", r=r).ok
        report("5", True, f"q={q}: (A)-(D) pass, census {rep.strict_count} "
                          f"<= {cap}")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    assert report("5", True, f"total {elapsed:.1f}s")


def test_criterion_6_constructive_lemmas_zero_failures():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        s = sorted(set(rng.uniform(0.2, 10.0, n)), reverse=True)
        while len(s) < n:
            s = sorted(set(rng.uniform(0.2, 10.0, n)), reverse=True)
        alpha = float(rng.uniform(0.25, 0.85))
        u = find_fractional_parts(s, alpha)
        eps = eps_box(n, alpha)
        for x in s:
            f = (u * x) % 1.0
            assert eps - 1e-12 <= f <= alpha + 1e-12
    for _ in range(100):
        n = int(rng.integers(1, 5))
        t = sorted(set(rng.uniform(0.3, 20.0, n)))
        while len(t) < n:
            t = sorted(set(rng.uniform(0.3, 20.0, n)))
        e2 = eps2(n)
        beta = rng.uniform(-e2, e2, n)
        u = find_all_negative(t, list(beta))
        for tk, bk in zip(t, beta):
            assert math.sin(tk * u + bk) < -e2
    for _ in range(100):
        n = int(rng.integers(1, 4))
        freqs = sorted(set(rng.uniform(0.5, 8.0, n)))
        while len(freqs) < n:
            freqs = sorted(set(rng.uniform(0.5, 8.0, n)))
        e1 = eps1(n)
        a = rng.uniform(0.2, 2.0, n) * rng.choice([-1, 1], n)
        b = rng.uniform(0.2, 2.0, n) * rng.choice([-1, 1], n)
        cert = find_simultaneous_positive(
            TrigPoly.cosine(list(a), freqs, list(rng.uniform(-e1, e1, n))),
            TrigPoly.sine(list(b), freqs, list(rng.uniform(-e1, e1, n))))
        assert min(cert.margins) > 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        freqs = sorted(set(rng.uniform(0.5, 8.0, n)))
        while len(freqs) < n:
            freqs = sorted(set(rng.uniform(0.5, 8.0, n)))
        c = rng.uniform(0.0, 1.0, n)
        a = rng.uniform(0.1, 1.5, n) * rng.choice([-1, 1], n)
        b = np.abs(a) + c + rng.uniform(0.0, 0.5, n)
        gamma = 0.9 * float(np.sum(np.abs(a)) / np.sum(b))
        cert = find_dominating(TrigPoly.sine(list(b), freqs),
                               TrigPoly.cosine(list(a), freqs),
                               TrigPoly.sine(list(c), freqs), gamma)
        assert cert.margins[0] > 0
    assert report("6", True, "100 instances each of the box/negativity/"
                             "positivity/domination searches, zero failures")


def test_criterion_7_norm_laws():
    rng = np.random.default_rng(1234)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        freqs = sorted(set(rng.uniform(0.5, 8.0, n)))
        while len(freqs) < n:
            freqs = sorted(set(rng.uniform(0.5, 8.0, n)))
        coeffs = rng.uniform(0.1, 2.0, n) * rng.choice([-1, 1], n)
        phases = rng.uniform(0, TWO_PI, n)
        p = TrigPoly(tuple(zip(coeffs, freqs, phases)))
        U = 1e4 * TWO_PI / p.min_freq
        step = TWO_PI / p.max_freq / 7.3
        em = empirical_moments(p, U, step)
        rel = abs(em.l2 - l2_norm(p)) / l2_norm(p)
        worst_rel = max(worst_rel, rel)
        assert rel < 0.01
        assert em.positive_fraction >= 1 / (4 * n) - 0.01
    assert report("7", True, f"50 random polynomials: worst closed-vs-"
                             f"empirical L2 deviation {worst_rel:.2%}")


def test_criterion_8_linear_solver():
    nu = solve_lemma44(3, [0.0, 0.0, 0.0], [0.0, 1.0, -1.0])
    assert nu == pytest.approx([0.0, 1 / math.sqrt(3), -1 / math.sqrt(3)])
    rng = np.random.default_rng(99)
    worst = 0.0
    for r in range(3, 13):
        for _ in range(3):
            c = np.zeros(r)
            d = np.zeros(r)
            c[0] = rng.normal()
            for v in range(1, r // 2 + 1):
                c[v] = c[r - v] = rng.normal()
                if v != r - v:
                    d[v] = rng.normal()
                    d[r - v] = -d[v]
            nu = solve_lemma44(r, c, d)
            us = rng.uniform(0, TWO_PI, 100)
            for v in range(r):
                lhs = sum(nu[j] * np.sin(us + TWO_PI * j * v / r)
                          for j in range(r))
                rhs = c[v] * np.sin(us) + d[v] * np.cos(us)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10
    assert report("8", True, f"r in 3..12: worst residual {worst:.2e}; "
                             f"worked r=3 example exact")


def test_criterion_9_real_primes():
    t0 = time.time()
    tab = sieve_race(3, 10**6)
    sieve_time = time.time() - t0
    assert sieve_time < 5.0
    for i, x in enumerate(tab.checkpoints):
        excluded = 1 if x >= 3 else 0
        assert tab.counts[i].sum() + excluded == tab.pi[i]
    lead = first_lead_change(4, 1, 3, 10**5)
    assert lead == 26861  # matches the trial-division oracle (test_primes)
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        zeros = load_zero_data(p)
    assert max(z.gamma for z in zeros.zeros_of(1)) <= 100.0
    rep = compare_with_simulator(tab, zeros, 0.5, 2, 1, x_min=1e3)
    assert rep.sign_agreement >= 0.9
    assert report("9", True,
                  f"sieve(1e6) in {sieve_time:.2f}s, partition identity "
                  f"exact, lead change 26861, sign agreement "
                  f"{rep.sign_agreement:.1%}")
