"""The thm311 certificates, identities and structure pick against direct
references.

`verify_thm311` decides a recipe from its case's one certificate
(`thm311_certificate`), scaled to a lower bound, and reads no
decomposition: on the zeros the load check pins, the identities G_0 - G_r
= f_r are exact.  They are checked here from the template's (e, k, w), in
40 digits for odd h up to 10^6 and exactly (`RootOfUnitySum`) for n <= 64.
`ref_scan` is the Lipschitz scan `verify_thm311` made per modulus before:
max_r G_r - G_0 over every designated G_r, evaluated term by term with
`TrigPoly.__call__`, bisected by `ref_certified_positive_scan`.  The
scaled lower bound must lie below every value it evaluated.  The
even-cyclic certificate kappa = max(|P| - c3 Q, -R) is checked at 40
digits, and so is the inequality that scales it to every odd h.
`ref_pick_structure` is the structure pick that asked
`ResidueGroup.order` once per unit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import cos, expj, expjpi, mp, mpf, pi, sin, sqrt
from test_scan_kernel import direct_objective, ref_certified_positive_scan

from racelab import barriers, simulator
from racelab.barriers import (SIN_WEIGHTS, SQRT3_UP, BarrierRecipe,
                              _even_cyclic_scale, _even_cyclic_split,
                              _pick_structure, _thm311_template, build_thm311,
                              qpr_polys, thm311_certificate, verify_thm311)
from racelab.budget import BudgetExceededError
from racelab.residues import RootOfUnitySum, unit_group
from racelab.simulator import theorem_decomposition
from racelab.trigpoly import EPS, certified_positive_scan

MODULI = [q for q in [*range(7, 151), 839, 1019, 1307]
          if q not in (8, 10, 12, 24)]


def designated_polys(recipe):
    params = recipe.params
    G = theorem_decomposition(recipe.system, "thm311", params)["G"]
    designated = [tuple(t) if isinstance(t, list) else (t,)
                  for t in params["designated"]]
    return G[(0,) * len(designated[0])], [G[r] for r in designated]


def ref_scan(recipe, step=1e-3):
    g0, grs = designated_polys(recipe)
    return ref_certified_positive_scan(*direct_objective(g0, grs), 0.0,
                                       2 * math.pi, step)


def qpr_at(v):
    """Q(v), P(v) and R(v) in 40 digits, the float terms taken as exact."""
    with mp.workdps(40):
        return [sum((mpf(c) * sin(mpf(t) * mpf(v) + mpf(a))
                     for c, t, a in poly.terms), mpf(0))
                for poly in qpr_polys()]


def kappa(v):
    """max(|P| - c3 Q, -R) at v in 40 digits, c3 = SQRT3_UP."""
    q, p, r = qpr_at(v)
    with mp.workdps(40):
        return max(abs(p) - mpf(SQRT3_UP) * q, -r)


@pytest.mark.parametrize("q", MODULI)
def test_scan_matches_direct_objective(q):
    recipe = build_thm311(q, tau=50.0)
    report, ref = verify_thm311(recipe), ref_scan(recipe)
    assert report.ok and ref.ok
    assert 0.0 < report.lower_bound <= ref.min_value


def test_large_odd_order_needs_few_depths():
    # q = 400067 has h = 200033: the even-cyclic certificate, scaled by
    # (1 - cos(2 pi/h))/c3 ~ 2.9e-10, still leaves a positive bound below
    # the per-modulus objective's least value
    recipe = build_thm311(400067, tau=1000.0)
    report = verify_thm311(recipe)
    assert report.ok and 0.0 < report.lower_bound < 1e-9
    with mp.workdps(40):
        scale = (1 - cos(2 * pi / recipe.params["h"])) / mpf(SQRT3_UP)
        assert report.lower_bound <= scale * mpf(report.scan.lower_bound)
    g0, grs = designated_polys(recipe)
    scan = certified_positive_scan(g0, grs, 0.0, 2 * math.pi, 1e-3)
    assert scan.ok and report.lower_bound <= scan.min_value


def test_kappa_is_certified_below_its_40_digit_values():
    cert = thm311_certificate("even_cyclic")
    assert cert.ok and 0.0 < cert.delta < 1e-12
    assert 0.0388 < cert.lower_bound <= cert.min_value < 0.0389
    assert abs(cert.argmin - 1.400) < 1e-3
    assert cert.lower_bound <= kappa(cert.argmin)
    assert min(kappa(v) for v in np.linspace(0.0, 2 * math.pi, 400)) \
        >= cert.lower_bound


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 499_999).map(lambda k: 2 * k + 1),
       st.floats(0.0, 2 * math.pi))
def test_even_cyclic_objective_is_at_least_scaled_kappa(h, v):
    # c = 4 pi s/n = 2 pi - 2 pi/h: the closed forms at s and n - s are
    # (1 - cos c) Q +- sin(c) P, and 2R at n/2
    q, p, r = qpr_at(v)
    with mp.workdps(40):
        c = 2 * pi - 2 * pi / h
        objective = max(-(1 - cos(c)) * q - sin(c) * p,
                        -(1 - cos(c)) * q + sin(c) * p, -2 * r)
        assert objective >= (1 - cos(2 * pi / h)) / mpf(SQRT3_UP) * kappa(v)


@pytest.fixture
def scans(monkeypatch):
    """The scans verify_thm311 runs, from no certificate made."""
    made = []

    def counting(*args, **kwargs):
        made.append(certified_positive_scan(*args, **kwargs))
        return made[-1]

    barriers._thm311_scan.cache_clear()
    monkeypatch.setattr(barriers, "certified_positive_scan", counting)
    yield made
    barriers._thm311_scan.cache_clear()


def test_one_scan_per_objective(scans):
    # one certificate per case, whatever the modulus: (Z/7)^* and (Z/9)^*
    # are Z6, (Z/13)^* is Z12 and (Z/83)^* Z82; 17 is n8, 15 Z4 x Z2
    reports = {q: verify_thm311(build_thm311(q, tau=50.0))
               for q in (7, 9, 13, 83, 17, 15)}
    assert len(scans) == 3
    assert all(reports[q].scan is scans[0] for q in (7, 9, 13, 83))
    assert reports[17].scan is scans[1] and reports[15].scan is scans[2]
    assert all(rep.ok for rep in reports.values())


def test_certificate_grid_is_refused_over_budget_made_or_not(scans,
                                                               monkeypatch):
    # the grid counts on every call: a scan made under the default budget
    # does not let a later call at budget 1000 through
    recipe = build_thm311(7, tau=1000.0)
    for made in (0, 1):
        monkeypatch.setenv("RACE_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceededError,
                           match="^scan grid of 6284.19 points exceeds"):
            verify_thm311(recipe)
        assert len(scans) == made
        monkeypatch.delenv("RACE_LAB_BUDGET")
        assert verify_thm311(recipe).ok and len(scans) == 1


def ref_pick_structure(q):
    group = unit_group(q)
    orders = {a: group.order(a) for a in group.units}
    cyclic = sorted(n for n in set(orders.values())
                    if n >= 6 and n % 2 == 0 and (n & (n - 1)) != 0)
    if cyclic:
        n = cyclic[0]
        a = min(u for u, o in orders.items() if o == n)
        return {"case": "even_cyclic", "a": a, "n": n}
    if any(o == 8 for o in orders.values()):
        a = min(u for u, o in orders.items() if o == 8)
        return {"case": "n8", "a": a, "n": 8}
    quads = sorted(u for u, o in orders.items() if o == 4)
    for a in quads:
        span = set(group.subgroup(a))
        invs = sorted(u for u, o in orders.items() if o == 2 and u not in span)
        if invs:
            return {"case": "z4z2", "a": a, "b": invs[0]}
    raise AssertionError(q)


def test_pick_structure_matches_per_unit_orders():
    for q in range(7, 601):
        if q not in (8, 10, 12, 24):
            got = _pick_structure(q)
            assert got == ref_pick_structure(q), q
            assert all(type(got[k]) is int for k in got if k != "case")


# --- the exact identities, the scale and the certificates' float terms -------


def test_verify_reads_no_decomposition(monkeypatch):
    # loading and verifying decide from the pinned zeros and the
    # certificates alone
    recipes = [build_thm311(q, tau=50.0) for q in (7, 15, 17, 1009)]

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition was read")

    assert not hasattr(barriers, "theorem_decomposition")
    monkeypatch.setattr(simulator, "theorem_decomposition", refuse)
    monkeypatch.setattr(simulator, "decompose_lattice", refuse)
    for recipe in recipes:
        report = verify_thm311(BarrierRecipe.from_json(recipe.to_json()))
        assert report.ok and report.lower_bound > 0.0
        assert set(report.identity_errors.values()) == {0.0}


def mpq(x):
    return mpf(x.numerator) / x.denominator


def template_phasors(zeros, orders, r):
    """{k: the phasor of G_0 - G_r} in 40 digits, from the template's (e,
    k, w): (w/k)(1 - e(<e, r>)) per zero, <e, r> = sum e_i r_i/n_i."""
    out = {}
    for e, k, w in zeros:
        phase = sum(Fraction(x * y, n) for x, y, n in zip(e, r, orders)) % 1
        out[k] = out.get(k, 0) + mpf(w) / k * (1 - expjpi(2 * mpq(phase)))
    return out


def mp_forms():
    """Q, P, R, sin v and cos v as {k: phasor}: sin kv is 1, cos kv is i."""
    return ({1: mpf(2), 6: mpf(1) / 2}, {1: 2j, 6: -0.5j},
            {k: mpf(w) / k for k, w in SIN_WEIGHTS.items()}, {1: mpf(1)},
            {1: 1j})


def lin(*terms):
    """sum of coefficient x phasor map over the (coefficient, map) terms."""
    out = {}
    for c, form in terms:
        for k, z in form.items():
            out[k] = out.get(k, 0) + c * z
    return out


def assert_phasors_agree(got, want):
    assert max(abs(got.get(k, 0) - want.get(k, 0))
               for k in range(1, 8)) < mpf(10) ** -30, (got, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 499_999).map(lambda k: 2 * k + 1),
       st.sampled_from([1, 2, 3]))
@example(3, 1)
@example(999_999, 3)
def test_even_cyclic_identities_hold_at_40_digits(h, d):
    # f_s, f_{n-s} = (1 - cos c) Q +- sin(c) P, c = 4 pi s/n, and f_{n/2}
    # = 2R
    n = 2**d * h
    p = {"case": "even_cyclic", "n": n, **_even_cyclic_split(n)}
    assert (p["h"], p["d"]) == (h, d)
    s = p["s"]
    with mp.workdps(40):
        q, pp, r, _, _ = mp_forms()
        c = 4 * pi * s / n
        forms = {s: lin((1 - cos(c), q), (sin(c), pp)),
                 n // 2: lin((2, r)),
                 n - s: lin((1 - cos(c), q), (-sin(c), pp))}
        for rr, f in forms.items():
            assert_phasors_agree(template_phasors(_thm311_template(p), (n,),
                                                  (rr,)), f)


def test_n8_and_z4z2_identities_hold_at_40_digits():
    with mp.workdps(40):
        _, _, r, sin_v, cos_v = mp_forms()
        tail = (2 - sqrt(2), r)
        cases = {"n8": ((8,), {(3,): lin((4, sin_v), (4, cos_v), tail),
                               (4,): lin((4, r)),
                               (5,): lin((4, sin_v), (-4, cos_v), tail)}),
                 "z4z2": ((4, 2), {(1, 0): lin((1, sin_v), (-1, cos_v)),
                                   (3, 0): lin((1, sin_v), (1, cos_v)),
                                   (0, 1): lin((2, r))})}
        for case, (orders, forms) in cases.items():
            for rr, f in forms.items():
                assert_phasors_agree(template_phasors(
                    _thm311_template({"case": case}), orders, rr), f)


def exact_difference(zeros, orders, r, form, level):
    """Is 420 (G_0 - G_r - f_r) zero at every frequency, as a
    `RootOfUnitySum` of the level?  form maps k to (numerator of e(x/level),
    rational coefficient) pairs; 420 clears every w/k and the halves."""
    for k in range(1, 8):
        total = RootOfUnitySum(level)
        for e, kk, w in zeros:
            if kk == k:
                x = sum(Fraction(a * b * level, n) for a, b, n in zip(e, r, orders))
                total.add(0, 420 * w // k).add(int(x), -(420 * w // k))
        for x, c in form.get(k, []):
            assert (420 * c).denominator == 1
            total.add(x, -int(420 * c))
        if not total.is_zero():
            return False
    return True


def times(alpha, form):
    """alpha f for alpha and the phasors of f as (numerator, coefficient)
    lists of one level."""
    return {k: [(x + y, a * b) for x, a in alpha for y, b in zs]
            for k, zs in form.items()}


def plus(*forms):
    out = {}
    for form in forms:
        for k, zs in form.items():
            out.setdefault(k, []).extend(zs)
    return out


def exact_forms(level):
    """Q, P, R, sin v and cos v, i = e(1/4) at the level."""
    i, half = level // 4, Fraction(1, 2)
    return ({1: [(0, 2)], 6: [(0, half)]}, {1: [(i, 2)], 6: [(i, -half)]},
            {k: [(0, Fraction(w, k))] for k, w in SIN_WEIGHTS.items()},
            {1: [(0, 1)]}, {1: [(i, 1)]})


@pytest.mark.parametrize("n", [n for n in range(6, 65, 2) if n & (n - 1)])
def test_even_cyclic_identities_are_exact(n):
    p = {"case": "even_cyclic", "n": n, **_even_cyclic_split(n)}
    s, level = p["s"], math.lcm(n, 4)
    q, pp, r, _, _ = exact_forms(level)
    j, i, half = 2 * s * level // n, level // 4, Fraction(1, 2)
    one_minus_cos = [(0, 1), (j, -half), (-j, -half)]  # 1 - cos(4 pi s/n)
    sin_c = [(j - i, half), (-j - i, -half)]  # (e(x) - e(-x))/(2i)
    minus_sin_c = [(x, -c) for x, c in sin_c]
    forms = {s: plus(times(one_minus_cos, q), times(sin_c, pp)),
             n // 2: times([(0, 2)], r),
             n - s: plus(times(one_minus_cos, q), times(minus_sin_c, pp))}
    for rr, f in forms.items():
        assert exact_difference(_thm311_template(p), (n,), (rr,), f, level)
    # a changed multiplicity breaks them
    zeros = _thm311_template(p)
    zeros[0] = (zeros[0][0], zeros[0][1], zeros[0][2] + 1)
    assert not exact_difference(zeros, (n,), (s,), forms[s], level)


def test_n8_and_z4z2_identities_are_exact():
    _, _, r, sin_v, cos_v = exact_forms(8)
    tail = times([(0, 2), (1, -1), (-1, -1)], r)  # sqrt 2 = e(1/8) + e(-1/8)
    for rr, f in {3: plus(times([(0, 4)], sin_v), times([(0, 4)], cos_v), tail),
                  4: times([(0, 4)], r),
                  5: plus(times([(0, 4)], sin_v), times([(0, -4)], cos_v),
                          tail)}.items():
        assert exact_difference(_thm311_template({"case": "n8"}), (8,), (rr,),
                                f, 8)
    _, _, r, sin_v, cos_v = exact_forms(4)
    for rr, f in {(1, 0): plus(sin_v, times([(0, -1)], cos_v)),
                  (3, 0): plus(sin_v, cos_v),
                  (0, 1): times([(0, 2)], r)}.items():
        assert exact_difference(_thm311_template({"case": "z4z2"}), (4, 2),
                                rr, f, 4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 49_999_999).map(lambda k: 2 * k + 1))
@example(3)
@example(5)
@example(200_033)
@example(2_700_143)
@example(99_999_999)
def test_even_cyclic_scale_is_rounded_down(h):
    # below 2 sin(pi/h)^2/c3 in 40 digits, and by little; so is its product
    # with the even-cyclic certificate's bound, as verify_thm311 forms it
    m = thm311_certificate("even_cyclic").lower_bound - barriers._CERT_SLACK
    scale = _even_cyclic_scale(h)
    with mp.workdps(40):
        exact = 2 * sin(pi / h) ** 2 / mpf(SQRT3_UP)
        assert exact * (1 - 40 * mpf(EPS)) <= scale < exact
        assert scale * m < exact * mpf(m)


def test_certificate_rows_are_within_the_slack_of_exact_ones(monkeypatch):
    # the summed phasor differences of a row bound its distance from the
    # exact polynomial at every v; kappa moves by at most the base's and
    # the farthest branch's
    rows = []
    monkeypatch.setattr(barriers, "certified_positive_scan",
                        lambda base, branches, *args: rows.append((base, branches)))
    cases = ("even_cyclic", "n8", "z4z2")
    for case in cases:
        barriers._thm311_scan.__wrapped__(case)
    with mp.workdps(40):
        q, pp, r, sin_v, cos_v = mp_forms()
        c3, t = mpf(SQRT3_UP), 2 - sqrt(2)
        exact = {"even_cyclic": (lin((c3, q)), [pp, lin((-1, pp)),
                                                lin((c3, q), (-1, r))]),
                 "n8": ({}, [lin((-4, sin_v), (-4, cos_v), (-t, r)),
                             lin((-4, r)),
                             lin((-4, sin_v), (4, cos_v), (-t, r))]),
                 "z4z2": ({}, [lin((-1, sin_v), (1, cos_v)),
                               lin((-1, sin_v), (-1, cos_v)), lin((-2, r))])}

        def distance(poly, form):
            got = {}
            for c, t, a in poly.terms:
                got[int(t)] = got.get(int(t), 0) + mpf(c) * expj(mpf(a))
            return sum(abs(got.get(k, 0) - form.get(k, 0)) for k in range(1, 8))

        for case, (base, branches) in zip(cases, rows):
            want_base, want_branches = exact[case]
            moved = distance(base, want_base) + max(
                distance(b, w) for b, w in zip(branches, want_branches))
            assert moved < 1e-14, (case, moved)
    assert barriers._CERT_SLACK >= 100 * 1e-14
