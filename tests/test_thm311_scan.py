"""The thm311 certificates and structure pick against direct references.

`verify_thm311` decides a recipe from its case's one certificate
(`thm311_certificate`) and the case identities, scaled to a lower bound.
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import cos, mp, mpf, pi, sin
from test_scan_kernel import direct_objective, ref_certified_positive_scan

from racelab import barriers
from racelab.barriers import (SQRT3_UP, _pick_structure, build_thm311,
                              qpr_polys, thm311_certificate, verify_thm311)
from racelab.budget import BudgetExceededError
from racelab.residues import unit_group
from racelab.simulator import theorem_decomposition
from racelab.trigpoly import certified_positive_scan

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
