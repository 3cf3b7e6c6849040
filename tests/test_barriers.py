import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from racelab.barriers import (SQRT3_UP, BarrierRecipe,
                              ExcludedModulusError, OmegaSystem,
                              OmegaTypeLostError, _omega_crossing,
                              build_extremal,
                              build_omega, build_thm311, build_thm51,
                              check_hypotheses, check_omega_type,
                              check_thm51_conditions, fourier_cosine_coeffs,
                              omega_pattern, qpr_polys, scan_qpr_properties,
                              solve_lemma44, verify_thm311)
from racelab.residues import characters, unit_group
from racelab.simulator import (RaceFunctionSet, RecipeMismatchError,
                               one_period_trace)
from racelab.orderings import census, verdict
from racelab.zerosys import Zero, ZeroSystem


def min_height(system):
    """The least height of the system's zeros."""
    return min(z.gamma for _, z, _ in system.items())


def test_qpr_values():
    q, p, r = qpr_polys()
    assert q(0.0) == pytest.approx(0.0)
    assert p(0.0) == pytest.approx(1.5)
    assert r(0.0) == pytest.approx(0.0)
    # the sine-weight pattern 1,2,3,4,3,2 on k = 2..7
    weights = {int(t): c * t for c, t, _ in r.terms}
    assert weights == pytest.approx({2: 1, 3: 2, 4: 3, 5: 4, 6: 3, 7: 2})


def test_sqrt3_up_is_the_float_just_above_sqrt3():
    from mpmath import mp, mpf, sqrt
    with mp.workdps(40):
        assert mpf(math.sqrt(3.0)) < sqrt(3) <= mpf(SQRT3_UP)
    assert SQRT3_UP == math.nextafter(math.sqrt(3.0), 2.0)


def test_qpr_property_scan_true_intervals():
    # the fine scan passes on [0, 0.759] u [2.7, 2pi] for the P-domination
    # and on [0.758, 2.72] for the negativity of R (R in fact turns positive
    # near 2.743; the barrier verifications below never use it past 2.7)
    scan = scan_qpr_properties(step=1e-4, r_interval=(0.758, 2.72))
    assert scan.ok
    assert scan.min_margin_p > 0
    assert scan.min_margin_r > 0


def test_thm311_builds():
    expected = {7: ("thm311_even_cyclic", 20), 17: ("thm311_n8", 34),
                15: ("thm311_z4z2", 16)}
    for q, (kind, size) in expected.items():
        rec = build_thm311(q, tau=1000.0)
        assert rec.kind == kind
        assert rec.system.size == size
        assert "size" not in rec.params  # the system's size is the one size
        assert min_height(rec.system) > 1000.0
        assert len(rec.params["D"]) == 3


def test_thm311_case_selection_details():
    rec7 = build_thm311(7)
    assert rec7.params["n"] == 6 and rec7.params["h"] == 3
    assert rec7.params["s"] == 2  # 2^d with d = 1
    rec17 = build_thm311(17)
    assert rec17.params["n"] == 8
    g = unit_group(17)
    assert g.order(rec17.params["a"]) == 8


def test_thm311_excluded_moduli():
    for q in (8, 10, 12, 24, 6):
        with pytest.raises(ExcludedModulusError):
            build_thm311(q)


def test_thm311_verification():
    for q in (7, 17, 15):
        rec = build_thm311(q, tau=500.0)
        rep = verify_thm311(rec)
        assert rep.ok
        assert rep.lower_bound > 0  # designated max margin stays positive
        assert set(rep.identity_errors.values()) == {0.0}  # exact


def predicted_thm311_case(q):
    """Structure case from the group exponent lam alone: element orders are
    exactly the divisors of lam."""
    lam = unit_group(q).lam
    odd = lam
    while odd % 2 == 0:
        odd //= 2
    if lam % 2 == 0 and odd >= 3:
        return "even_cyclic"
    return "n8" if lam % 8 == 0 else "z4z2"


THM311_SIZES = {"even_cyclic": 20, "n8": 34, "z4z2": 16}


def check_thm311_modulus(q):
    rec = build_thm311(q, tau=50.0)
    case = predicted_thm311_case(q)
    assert rec.params["case"] == case, q
    assert rec.system.size == THM311_SIZES[case], q
    rep = verify_thm311(rec)
    assert rep.ok, (q, rep)
    assert set(rep.identity_errors.values()) == {0.0}, (q, rep)


def test_thm311_modulus_sweep():
    # every admissible modulus up to 150 picks the predicted structure case,
    # has the matching |B|, and verifies; so do 839, 1019 and 1307, whose
    # lattice orders n are 838, 1018 and 1306
    for q in [*range(7, 151), 839, 1019, 1307]:
        if q not in (8, 10, 12, 24):
            check_thm311_modulus(q)


@pytest.mark.slow
def test_thm311_modulus_sweep_to_2000():
    # the same for every admissible q <= 2000 (1990 moduli)
    for q in range(7, 2001):
        if q not in (8, 10, 12, 24):
            check_thm311_modulus(q)


def test_build_extremal_proper_subgroup():
    # order-6 subgroup of the (order-12) unit group mod 13
    g = unit_group(13)
    gen = min(a for a in g.units if g.order(a) == 6)
    sub = g.subgroup(gen)
    rec = build_extremal(13, gen, [sub[1], sub[2], sub[3]])
    s = RaceFunctionSet(13, rec.system, tuple(rec.params["D"]),
                        pi_proxy="zero")
    rep = census(one_period_trace(s, samples=8192))
    assert rep.strict_count == 4
    assert verdict(rep, "extremal_exact", r=3).ok


def test_build_extremal_two_members():
    g = unit_group(7)
    gen = min(a for a in g.units if g.order(a) == 6)
    sub = g.subgroup(gen)
    rec = build_extremal(7, gen, [sub[1], sub[2]])
    s = RaceFunctionSet(7, rec.system, tuple(rec.params["D"]), pi_proxy="zero")
    rep = census(one_period_trace(s, samples=4096))
    assert rep.strict_count == 2
    assert verdict(rep, "extremal_exact", r=2).ok


def test_builders_reject_non_finite_heights():
    g = unit_group(7)
    gen = min(a for a in g.units if g.order(a) == 6)
    sub = g.subgroup(gen)
    for bad in (math.inf, -math.inf, math.nan):
        for build in (lambda: build_thm311(7, gamma=bad),
                      lambda: build_thm311(7, tau=bad),
                      lambda: build_extremal(7, gen, [sub[1], sub[2]],
                                             gamma=bad),
                      lambda: build_thm51(5, gamma=bad),
                      lambda: build_thm51(5, tau=bad)):
            with pytest.raises(ValueError, match="must be finite"):
                build()


def test_thm311_h3_slope_is_sqrt3():
    # |(1 - cos(4pi/3)) / sin(4pi/3)| = (3/2) / (sqrt(3)/2) exactly
    c = 4 * math.pi / 3
    assert abs((1 - math.cos(c)) / math.sin(c)) == pytest.approx(math.sqrt(3))


def test_recipe_json_roundtrip():
    rec = build_thm311(7, tau=100.0)
    back = BarrierRecipe.from_json(rec.to_json())
    assert back.kind == rec.kind and back.q == rec.q
    assert back.system.entries == rec.system.entries
    assert back.params == json.loads(json.dumps(rec.params))


def test_solve_lemma44_worked_example():
    nu = solve_lemma44(3, [0.0, 0.0, 0.0], [0.0, 1.0, -1.0])
    assert nu == pytest.approx([0.0, 1 / math.sqrt(3), -1 / math.sqrt(3)])
    # check at v=1: sum nu_j sin(u + 2pi j/3) = cos u
    u = np.linspace(0, 6, 61)
    lhs = sum(nu[j] * np.sin(u + 2 * math.pi * j / 3) for j in range(3))
    assert np.max(np.abs(lhs - np.cos(u))) < 1e-12


def test_solve_lemma44_zero_input():
    assert solve_lemma44(4, [0.0] * 4, [0.0] * 4) == pytest.approx([0.0] * 4)


def test_solve_lemma44_random_property():
    rng = np.random.default_rng(23)
    for r in range(3, 13):
        rows = []
        for _ in range(4):
            c = np.zeros(r)
            d = np.zeros(r)
            c[0] = rng.normal()
            for v in range(1, r // 2 + 1):
                c[v] = c[r - v] = rng.normal()
                if v != r - v:
                    d[v] = rng.normal()
                    d[r - v] = -d[v]
            nu = solve_lemma44(r, c, d)
            us = rng.uniform(0, 2 * math.pi, 10)
            for v in range(r):
                lhs = sum(nu[j] * np.sin(us + 2 * math.pi * j * v / r)
                          for j in range(r))
                rhs = c[v] * np.sin(us) + d[v] * np.cos(us)
                assert np.max(np.abs(lhs - rhs)) < 1e-10
            rows.append((c, d, nu))
        # all systems at once: one row each, the same bits as one by one
        c, d, nu = map(np.array, zip(*rows))
        assert np.array_equal(solve_lemma44(r, c, d), nu)


def test_solve_lemma44_symmetry_validation():
    with pytest.raises(ValueError, match="need c_v"):
        solve_lemma44(4, [0, 1, 0, 2], [0.0] * 4)
    with pytest.raises(ValueError, match="need d_v"):
        solve_lemma44(4, [0.0] * 4, [0, 1, 0, 1])
    # several systems: the least offending v, in any row, names the symmetry
    with pytest.raises(ValueError, match="need d_v"):
        solve_lemma44(4, [[0.0] * 4, [0, 0, 1, 0]], [[0.0] * 4, [0, 1, 0, 1]])
    with pytest.raises(ValueError, match="need d_0"):
        solve_lemma44(4, [[0.0] * 4] * 2, [[0.0] * 4, [1, 0, 0, 0]])
    with pytest.raises(ValueError, match="length r"):
        solve_lemma44(4, [[0.0] * 4] * 2, [[0.0] * 4])


def random_omega_corners(r, V, seed):
    """build_omega's corners as drawn one at a time from Python's own
    `random.Random(seed)`: the reference across retries."""
    V = tuple(sorted(V))
    movable = [v for v in V if 2 * v != r]
    rng = random.Random(seed)
    for tries in range(1, 65):
        base = np.linspace(0.35 * math.pi, 0.75 * math.pi, len(movable))
        corners = {}
        for v, t in zip(movable, base):
            jitter = (-0.05 + 0.1 * rng.random()) * math.pi / len(movable)
            corners[v] = float(t + jitter)
        omega = OmegaSystem(r=r, V=V, corners=corners, crossings={})
        pts = [0.0, *sorted(_omega_crossing(omega, v, w)
                            for i, v in enumerate(V) for w in V[i + 1:]),
               math.pi]
        if np.diff(pts).min() >= 5e-3:
            return corners, tries


def test_build_omega_corners_are_randoms_across_retries():
    tries = {}
    for r, V, seeds in ((6, (1, 2, 3), range(50)),
                        (12, (1, 2, 3, 4, 5), range(100))):
        for seed in seeds:
            corners, tries[r, seed] = random_omega_corners(r, V, seed)
            assert build_omega(r, V, seed).corners == corners, (r, V, seed)
    # r = 12, V = 1..5: seeds 16 and 45 take 4 tries, 47 takes 3
    assert (tries[12, 16], tries[12, 45], tries[12, 47]) == (4, 4, 3)


def test_build_omega_refuses_negative_and_non_int_seeds():
    # Random seeds with |seed|, so -1 would repeat seed 1's corners
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        build_omega(6, [1, 2, 3], seed=-1)
    # None would be fresh OS entropy: not deterministic, refused
    for seed in (1.5, "3", None):
        with pytest.raises(TypeError):
            build_omega(6, [1, 2, 3], seed=seed)


def test_thm43_build_and_verify_leave_numpy_random_unloaded():
    # the README's thm43 inputs: q = 7, D = a, a^2, a^3 for a = 3
    script = (
        "import sys\n"
        "from racelab.barriers import build_extremal, verify_extremal\n"
        "recipe = build_extremal(7, 3, [3, 2, 6])\n"
        "assert verify_extremal(recipe).ok\n"
        "print('numpy.random' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_omega_construction():
    omega = build_omega(6, [1, 2, 3], seed=0)
    assert 3 not in omega.corners  # r/2 member is identically zero
    pts = omega.crossing_points()
    assert len(pts) == 3
    assert all(0 < p < math.pi for p in pts)
    assert len(set(round(p, 9) for p in pts)) == 3
    # zero mean over a period
    u = np.linspace(0, 2 * math.pi, 20001)
    for v in (1, 2):
        assert abs(np.trapezoid(omega.value(v, u), u)) < 1e-4


def test_omega_type_reference_and_perturbation():
    omega = build_omega(6, [1, 2, 3], seed=1)
    w = np.linspace(0, 2 * math.pi, 2048, endpoint=False)
    vals = omega.values(w)
    pattern = omega_pattern(omega, w)
    assert check_omega_type(vals, pattern).ok
    rng = np.random.default_rng(4)
    min_gap = 1e9
    pts = omega.crossing_points()
    wiggle = vals + rng.uniform(-1e-4, 1e-4, vals.shape)
    assert check_omega_type(wiggle, pattern).ok
    # removing one crossing (flattening a member onto another) fails
    broken = vals.copy()
    broken[0] = broken[1] + 1e-3
    assert not check_omega_type(broken, pattern).ok


def test_fourier_coeffs_match_function():
    omega = build_omega(6, [1, 2], seed=2)
    u = np.linspace(0, math.pi, 4001)
    for v in (1, 2):
        errs = {}
        for K in (64, 256):
            b = fourier_cosine_coeffs(omega, v, K)
            approx = sum(b[k - 1] * np.cos(k * u) for k in range(1, K + 1))
            errs[K] = np.max(np.abs(approx - omega.value(v, u)))
        assert errs[64] < 0.02  # corner limits sup convergence to O(1/K)
        assert errs[256] < 0.35 * errs[64]


def test_build_extremal_q7():
    g = unit_group(7)
    gen = min(a for a in g.units if g.order(a) == 6)
    sub = g.subgroup(gen)
    rec = build_extremal(7, gen, [sub[1], sub[2], sub[3]])
    assert rec.kind == "thm43_extremal"
    assert min(m for _, _, m in rec.system.items()) >= 1
    # sum over all character powers of each lattice level vanishes only up
    # to the dropped common mode; spot-check the emitted census instead
    s = RaceFunctionSet(7, rec.system, tuple(rec.params["D"]), pi_proxy="zero")
    rep = census(one_period_trace(s, samples=8192))
    assert rep.strict_count == 4
    assert verdict(rep, "extremal_exact", r=3).ok


# (q, V as powers of the least unit of maximal order, K asked, then K, N and
# the recipe JSON's sha256, or the OmegaTypeLostError message)
EXTREMAL_GOLDEN = [
    (7, (2, 5), 16, 16, 64,
     "862d3c39d57f7fc7ff17a79dcce11e93f9a6a0789dd27bc681246ac26bf4a4ff"),
    (7, (1, 2, 3), 16, 16, 128,
     "c21ff50edb4c88c0b04c3a3d36688f620d0b86f3523f9e84e40373b7a9eaef35"),
    (34, (4, 5, 6), 16, 16, 128,
     "33de2f6193c621a360193c7caff2a5043e485c5c77e5d6027bcd94b0009fb39f"),
    (19, (2, 8, 9), 16, 16, 256,
     "a6ebf2de06ddef07bd5350656255b86881e3ffdd861aed4144bca945ff07b723"),
    (19, (2, 8, 9), 2, 4, 256,  # K escalates 2 -> 4
     "408a102a78e80bfea90dbc971f69716ab5676a20320d2eff6bc5341084b72686"),
    (29, (1, 11, 14), 16, 16, 256,
     "9bc112458c0feedb3b16b8f0e2e2a211ec61ab331a5b35dd5c56275daff39019"),
    (34, (1, 2, 3, 4), 16, 16, 512,
     "4793d5aaff864842af624e7d4b65c658103ed3bac20234faa5e22b22f96f34fd"),
    (19, (12, 13, 14, 16), 16, 16, 512,
     "115f2708258ffa523c0a4bed0781e75b7131d49cbbaf72ab64822b63becae219"),
    (29, (5, 19, 24, 26), 16, 16, 512,
     "0d2b891cceb4d56ce689370f56ca98377914cba917563248ff62591419123276"),
    (31, (2, 23, 26, 29), 16, None, None,
     "N escalation exhausted: the integerization at N = 1024 lost the "
     "pattern first at w = 1.69351; raise N"),
]


def test_build_extremal_golden():
    for q, V, K_ask, K, N, want in EXTREMAL_GOLDEN:
        g = unit_group(q)
        gen = min(a for a in g.units if g.order(a) == g.phi)
        sub = g.subgroup(gen)
        D = [sub[v] for v in V]
        if K is None:
            with pytest.raises(OmegaTypeLostError) as exc:
                build_extremal(q, gen, D, K=K_ask)
            assert str(exc.value) == want, (q, V)
            continue
        rec = build_extremal(q, gen, D, K=K_ask)
        got = hashlib.sha256(rec.to_json().encode()).hexdigest()
        assert (rec.params["K"], rec.params["N"], got) == (K, N, want), (q, V)


@pytest.mark.parametrize("passes, want", [
    (0, "K escalation exhausted: the truncation at K = 256 lost the pattern "
        "first at w = 1.25; raise K"),
    (1, "N escalation exhausted: the integerization at N = 1024 lost the "
        "pattern first at w = 1.25; raise N"),
    (2, "the emitted dominant trace at K = 16, N = 64 lost the pattern first "
        "at w = 1.25; raise gamma or N"),
])
def test_omega_type_lost_names_stage_and_violation(monkeypatch, passes, want):
    """The K, N and emitted-trace checks run in that order; the first
    `passes` of them hold, then every check fails at w = 1.25."""
    import racelab.barriers as barriers

    calls = []

    def check(candidate, pattern, tie_tol=0.0):
        calls.append(None)
        if len(calls) <= passes:
            return check_omega_type(candidate, pattern, tie_tol)
        return barriers.OmegaTypeReport(False, first_violation=1.25,
                                        intervals_checked=3)

    monkeypatch.setattr(barriers, "check_omega_type", check)
    g = unit_group(7)
    with pytest.raises(OmegaTypeLostError) as exc:
        build_extremal(7, 3, [g.subgroup(3)[v] for v in (2, 5)])
    assert str(exc.value) == want


def test_thm43_counts_do_not_turn_on_rounding_noise(monkeypatch):
    # q = 13, V = (2, 8): the densities at j = 0, 3, 6, 9 are 0 in exact
    # arithmetic at every k, and the solve gives 0 or about +-3e-17 there.
    # Planted as +-1e-20 instead, they give the same recipe: floor alone
    # would take each negative one to -1 and move every multiplicity
    import racelab.barriers as barriers

    g = unit_group(13)
    gen = min(a for a in g.units if g.order(a) == 12)
    D = [g.subgroup(gen)[v] for v in (2, 8)]
    want = build_extremal(13, gen, D)
    solve, planted = barriers.solve_lemma44, []

    def noisy(r, c, d):
        nu = solve(r, c, d)
        zero = np.abs(nu) < 1e-12
        nu[zero] = np.where(np.arange(zero.sum()) % 2, 1e-20, -1e-20)
        planted.append(int(zero.sum()))
        return nu

    monkeypatch.setattr(barriers, "solve_lemma44", noisy)
    got = build_extremal(13, gen, D)
    assert planted == [64] and got.to_json() == want.to_json()


def test_thm43_load_check_reads_no_decomposition(monkeypatch):
    # the README recipe loads and verifies from its params and zeros alone
    import racelab.barriers as barriers
    import racelab.simulator as simulator
    from racelab.barriers import verify_extremal

    recipe = build_extremal(7, 3, [3, 2, 6])

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition was read")

    assert not hasattr(barriers, "theorem_decomposition")
    monkeypatch.setattr(simulator, "theorem_decomposition", refuse)
    monkeypatch.setattr(simulator, "decompose_lattice", refuse)
    verdict = verify_extremal(BarrierRecipe.from_json(recipe.to_json()))
    assert verdict.ok and verdict.detail["orderings"] == 4


def test_build_extremal_rejects_bad_sets():
    g = unit_group(7)
    gen = min(a for a in g.units if g.order(a) == 6)
    sub = g.subgroup(gen)
    with pytest.raises(ValueError):
        build_extremal(7, gen, [1, sub[1], sub[2]])  # contains 1
    with pytest.raises(ValueError):
        build_extremal(7, gen, [sub[1], sub[5]])  # inverse pair
    with pytest.raises(ValueError):
        build_extremal(5, 2, [2, 4])  # subgroup order 4 < 6
    with pytest.raises(ValueError, match="at least two members"):
        build_extremal(7, gen, [sub[1]])
    with pytest.raises(ValueError, match="names a member twice"):
        build_extremal(7, gen, [sub[1], sub[1] + 7])  # one unit, twice


def test_root_of_unity_sine_cancellation():
    # sum_{j=0}^{r-1} sin(ku + 2 pi j v / r) = 0 for v not divisible by r
    r = 6
    u = np.linspace(0, 2 * math.pi, 97)
    for v in range(1, r):
        for k in (1, 2, 3):
            total = sum(np.sin(k * u + 2 * math.pi * j * v / r)
                        for j in range(r))
            assert np.max(np.abs(total)) < 1e-12


def test_build_thm51_q5_and_conditions():
    rec = build_thm51(5, tau=1000.0)
    assert rec.kind == "thm51_census"
    assert min_height(rec.system) > 1000.0
    ws = check_thm51_conditions(rec)
    assert ws.orders == (4,)
    # (5.12): half-shift crossings at gamma*u = pi(1 - 2a/n) - eps_j (mod 2pi)
    gamma = rec.params["gamma"]
    beta = rec.params["betas"][0]
    eps_j = math.atan(beta / gamma)
    t1, t2 = ws.theta[(1, 0, 2)]
    assert sorted([t1 * gamma, t2 * gamma]) == pytest.approx(
        sorted([math.pi - eps_j, 2 * math.pi - eps_j]), abs=1e-6)


def test_thm51_m_below_one_is_refused():
    for M in (0, -3):
        with pytest.raises(ValueError, match=f"^M must be >= 1, got {M}$"):
            build_thm51(5, M=M)
    rec = build_thm51(5, tau=1000.0)
    rec.params["M"] = 0
    with pytest.raises(RecipeMismatchError, match="^M must be >= 1, got 0$"):
        check_thm51_conditions(rec)
    rec.params["M"] = 32  # the system carries M = 64
    with pytest.raises(RecipeMismatchError, match="with M = 32$"):
        check_thm51_conditions(rec)


def test_build_thm51_two_coefficient_shape():
    rec = build_thm51(5, M=32)
    zs = {z.gamma / rec.params["gamma"]: m for _, z, m in rec.system.items()}
    assert zs == {1.0: 32, 2.0: 1}
    assert rec.system.size == 33


def test_build_thm51_order2_levels():
    # q = 8: both generators have order 2, single-sine waves per (5.8)
    rec = build_thm51(8, tau=100.0)
    ws = check_thm51_conditions(rec)
    assert ws.orders == (2, 2)
    gamma = rec.params["gamma"]
    for j, beta in enumerate(rec.params["betas"], start=1):
        eps_j = math.atan(beta / gamma)
        t1, t2 = ws.theta[(j, 0, 1)]
        assert sorted([t1 * gamma, t2 * gamma]) == pytest.approx(
            sorted([math.pi - eps_j, 2 * math.pi - eps_j]), abs=1e-6)


def test_build_thm51_multi_level():
    rec = build_thm51(15, tau=500.0)
    ws = check_thm51_conditions(rec)
    assert len(ws.orders) == 2
    assert ws.margins["D_min_difference"] > 0
    assert ws.margins["P_min_abs"] > 0
    g = unit_group(15)
    s = RaceFunctionSet(15, rec.system, g.units, pi_proxy="zero")
    rep = census(one_period_trace(s, samples=1 << 15, base_u=60.0))
    r = len(g.units)
    assert verdict(rep, "thm51_upper", r=r).ok


def test_thm51_conditions_read_no_decomposition(monkeypatch):
    # building, loading and the conditions read the params' waves on the
    # zeros the load check pinned, and no decomposition of the system
    import racelab.simulator as simulator

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition was read")

    for name in dir(simulator):
        if name == "theorem_decomposition" or name.startswith("decompose_"):
            monkeypatch.setattr(simulator, name, refuse)
    for q in (5, 8, 15, 35):
        recipe = BarrierRecipe.from_json(build_thm51(q).to_json())
        assert check_thm51_conditions(recipe).margins["B_min_gap"] > 0


def test_thm51_waves_are_the_systems_member_values():
    # v_a(u) = -sum_j e^((beta_j - R+) u) w_{j, alpha_j(a)}(u): the waves
    # the conditions read are the members' dominant values, term for term
    from racelab.barriers import _thm51_waves
    from racelab.simulator import dominant_member_values

    u = np.linspace(0.0, 0.05, 2001)
    for q in (5, 8, 15, 16, 35, 40, 91):
        recipe = build_thm51(q)
        p, group = recipe.params, unit_group(q)
        waves = _thm51_waves(p)
        got = dominant_member_values(recipe.system, group.units, u)
        weights = [np.exp((beta - recipe.system.r_plus) * u) for beta in p["betas"]]
        want = -np.array([sum(
            weight * waves[(j, alpha % n_j)](u) for j, (weight, n_j, alpha)
            in enumerate(zip(weights, p["orders"], group.exponents(a)), start=1))
            for a in group.units])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), q


@pytest.mark.slow
def test_thm51_modulus_sweep_to_200():
    # every q <= 200 whose unit group needs two or more generators (115
    # moduli) builds the layered barrier: (A)-(D) pass at the defaults
    moduli = [q for q in range(3, 201) if len(unit_group(q).generators) >= 2]
    assert len(moduli) == 115
    for q in moduli:
        assert build_thm51(q).kind == "thm51_census"


def test_check_hypotheses_thresholds():
    q = 7
    chars = characters(q)
    from fractions import Fraction
    k1 = next(i for i, c in enumerate(chars) if c.phase(2) == Fraction(1, 3))
    high = ZeroSystem(q, {k1: {Zero(0.75, 14.0): 1}})
    low = ZeroSystem(q, {k1: {Zero(0.75, 3.0): 1}})
    rep = check_hypotheses(34, high, [2])
    assert rep.all_pass
    rep_low = check_hypotheses(34, low, [2])
    assert not rep_low.all_pass  # 3 < 2 + sqrt(3)
    rep36 = check_hypotheses(36, high, [2], n_cap=1)
    assert rep36.effective_tau == pytest.approx(13.0)
    assert rep36.all_pass  # heights 14 >= 13
    rep47 = check_hypotheses(47, high, [2], n_cap=1)
    assert rep47.effective_tau >= 400.0  # 1/eps1(1) dominates
    assert not rep47.all_pass


def test_sqrt_identity_behind_order3_threshold():
    val = (math.sqrt(9 / 8) - math.sqrt(3 / 8)
           - (math.sqrt(9 / 8) + math.sqrt(3 / 8)) / (2 + math.sqrt(3)))
    assert abs(val) < 1e-15


def test_order4_caseIIb_domination_end_to_end():
    # the order-4 analysis of two zeros at 3/4 + 300i on the character with
    # chi(2) = i mod 5, with beta_2 = beta_1 and skew weight equal to the
    # symmetric one: Q = 2 sin(300 u)/|rho|, P = 2 cos(300 u)/|rho|, R = 0;
    # the domination search must still find a certified point
    from racelab.trigpoly import TrigPoly, eps2, find_dominating

    gamma0 = 300.0
    amp = 2 / math.hypot(gamma0, 0.75)
    Q = TrigPoly.sine([amp], [gamma0])
    P = TrigPoly.cosine([amp], [gamma0])
    R = TrigPoly.zero()
    cert = find_dominating(Q, P, R, eps2(1) / 2)
    assert cert.margins[0] > 0
    u = cert.u
    assert Q(u) > max(abs(P(u)), R(u))


def test_forest_preserves_all_labels():
    # the q=7 three-residue barrier trace produces all 6 orderings of its
    # three members, a cyclic ordering graph; breaking cycles must keep one
    # edge per member pair
    rec = build_thm311(7, tau=100.0)
    s = RaceFunctionSet(7, rec.system, tuple(rec.params["D"]),
                        pi_proxy="zero")
    rep = census(one_period_trace(s, samples=8192))
    from racelab.orderings import turan_graph_bound
    tb = turan_graph_bound(rep)
    assert tb.labels_covered == 3
    assert len(tb.forest_edges) < len(tb.graph.edges)  # a cycle was broken
    assert rep.strict_count >= tb.lower_bound >= 4
