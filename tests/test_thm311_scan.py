"""The thm311 certified scan and structure pick against the direct forms
they replaced.

`ref_scan` is the Lipschitz scan `verify_thm311` made before its scan took
the polynomials: max_r G_r - G_0 over every designated G_r, evaluated term
by term with `TrigPoly.__call__`, bisected by `ref_certified_positive_scan`.
Both scans must agree on the verdict, and the Taylor-cell scan's certified
lower bound must lie below every value either scan evaluated.  A scan
`verify_thm311` reuses for a repeated objective is checked the same way.
`ref_pick_structure` is the structure pick that asked
`ResidueGroup.order` once per unit.
"""

import json
import math

import pytest
from test_scan_kernel import direct_objective, ref_certified_positive_scan

from racelab import barriers
from racelab.barriers import (BarrierRecipe, _pick_structure, build_thm311,
                              verify_thm311)
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


@pytest.mark.parametrize("q", MODULI)
def test_scan_matches_direct_objective(q):
    recipe = build_thm311(q, tau=50.0)
    new, ref = verify_thm311(recipe).scan, ref_scan(recipe)
    assert new.ok == ref.ok
    assert new.lower_bound <= ref.min_value
    assert new.lower_bound <= new.min_value


def test_large_odd_order_needs_few_depths():
    # q = 400067 has h = 200033 and a margin of about 8e-10: the Taylor
    # cells certify it with cells of 1e-3 / 2^6, where a Lipschitz bound
    # needed 3e-11
    report = verify_thm311(build_thm311(400067, tau=1000.0))
    assert report.ok and report.scan.certified_step >= 1e-6
    assert 0.0 < report.scan.lower_bound <= report.scan.min_value < 1e-9


@pytest.fixture
def scans(monkeypatch):
    """The scans verify_thm311 runs, from an empty memo."""
    made = []

    def counting(*args, **kwargs):
        made.append(certified_positive_scan(*args, **kwargs))
        return made[-1]

    barriers._lattice_scan.cache_clear()
    monkeypatch.setattr(barriers, "certified_positive_scan", counting)
    yield made
    barriers._lattice_scan.cache_clear()


def test_one_scan_per_objective(scans):
    # (Z/7)^* and (Z/9)^* are both Z6: one (case, n, s) class, one objective
    r7, r9 = (verify_thm311(build_thm311(q, tau=50.0)) for q in (7, 9))
    assert len(scans) == 1
    assert r7.scan is r9.scan is scans[0]


@pytest.mark.parametrize("edit", ["mult", "gamma"])
def test_changed_objective_misses_the_memo(scans, edit):
    recipe = build_thm311(7, tau=50.0)
    verify_thm311(recipe)
    payload = json.loads(recipe.to_json())
    if edit == "mult":
        payload["system"]["zeros"][0]["mult"] += 1
    else:  # the heights k gamma become 2k (gamma / 2): new frequencies
        payload["params"]["gamma"] /= 2
        payload["system"]["height_lattice"] /= 2
    changed = BarrierRecipe.from_json(json.dumps(payload))
    report = verify_thm311(changed)
    assert len(scans) == 2 and report.scan is scans[1]
    barriers._lattice_scan.cache_clear()
    assert verify_thm311(changed) == report
    assert len(scans) == 3


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
