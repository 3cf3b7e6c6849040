import itertools
import math

import numpy as np
import pytest

from racelab.orderings import (InconclusiveWindowError, MissingLabelError,
                               OrderingTrace, census,
                               detect_crossings, turan_graph_bound, verdict)
from racelab.trigpoly import TrigPoly


def strict_expansions(chain):
    """All strict permutations compatible with the tie blocks of chain."""
    parts = [itertools.permutations(b) for b in chain]
    return tuple(tuple(itertools.chain(*combo))
                 for combo in itertools.product(*parts))


def expanded_count(rep):
    """Strict orderings, the expansions of observed ties included."""
    seen = set(rep.strict)
    for chain in rep.weak:
        seen.update(strict_expansions(chain))
    return len(seen)


def trace_from_polys(polys, members, u, periodic=False, tie_tol=1e-9):
    values = np.vstack([p(u) for p in polys])
    return OrderingTrace(u=u, members=tuple(members), values=values,
                         tie_tol=tie_tol, periodic=periodic)


def test_two_member_sine_census():
    u = np.linspace(0.0, 2 * math.pi, 729, endpoint=False)
    tr = trace_from_polys([TrigPoly.sine([1.0], [1.0]), TrigPoly.zero()],
                          (1, 3), u, periodic=True)
    rep = census(tr)
    assert rep.strict_count == 2
    # the tie at u=0 is recorded as a weak chain; expansion adds nothing new
    assert len(rep.weak) >= 1
    assert expanded_count(rep) == 2
    crossings = [c for c in rep.crossings]
    assert len(crossings) >= 1


def test_constant_trace_single_ordering():
    u = np.linspace(0.0, 1.0, 64)
    values = np.vstack([np.full_like(u, 3.0), np.full_like(u, 1.0)])
    tr = OrderingTrace(u=u, members=(1, 2), values=values)
    rep = census(tr)
    assert rep.strict_count == 1
    assert rep.labels() == ["a1>a2"]


def test_census_rescale_invariance():
    rng = np.random.default_rng(2)
    u = np.linspace(0.0, 2 * math.pi, 513)
    polys = [TrigPoly.sine([1.0, 0.3], [1.0, 3.0], [0.0, rng.uniform(0, 6)])
             for _ in range(3)]
    tr1 = trace_from_polys(polys, (1, 2, 3), u)
    tr2 = OrderingTrace(u=u, members=(1, 2, 3), values=tr1.values * 7.5,
                        tie_tol=tr1.tie_tol * 7.5)
    assert set(census(tr1).strict) == set(census(tr2).strict)


def test_census_period_stability():
    polys = [TrigPoly.sine([1.0], [1.0]),
             TrigPoly.sine([0.8], [2.0]),
             TrigPoly.sine([0.6], [3.0], [1.0])]
    u1 = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    u2 = np.linspace(0.0, 4 * math.pi, 8192, endpoint=False)
    rep1 = census(trace_from_polys(polys, (1, 2, 3), u1, periodic=True))
    rep2 = census(trace_from_polys(polys, (1, 2, 3), u2, periodic=True))
    assert set(rep1.strict) == set(rep2.strict)


def test_ordering_expansion():
    chain = ((0,), (1, 2))
    assert set(strict_expansions(chain)) == {(0, 1, 2), (0, 2, 1)}


def test_turan_bound_two_members():
    u = np.linspace(0.0, 2 * math.pi, 257, endpoint=False)
    tr = trace_from_polys([TrigPoly.sine([1.0], [1.0]), TrigPoly.zero()],
                          (1, 3), u, periodic=True)
    tb = turan_graph_bound(census(tr))
    assert tb.lower_bound == 2


def test_turan_bound_three_members():
    polys = [TrigPoly.sine([1.0], [1.0]),
             TrigPoly.sine([0.9], [2.0], [0.5]),
             TrigPoly.sine([0.8], [3.0], [1.1])]
    u = np.linspace(0.0, 2 * math.pi, 8192, endpoint=False)
    rep = census(trace_from_polys(polys, (1, 2, 3), u, periodic=True))
    tb = turan_graph_bound(rep)
    assert tb.lower_bound >= 4
    assert rep.strict_count >= tb.lower_bound


def test_turan_missing_label():
    u = np.linspace(0.0, 2 * math.pi, 257, endpoint=False)
    polys = [TrigPoly.sine([1.0], [1.0]), TrigPoly.zero()]
    values = np.vstack([polys[0](u), polys[1](u),
                        np.full_like(u, 5.0)])  # member 2 never crosses
    tr = OrderingTrace(u=u, members=(1, 3, 5), values=values, periodic=True)
    with pytest.raises(MissingLabelError):
        turan_graph_bound(census(tr))


def test_verdict_single_member():
    u = np.linspace(0.0, 1.0, 32)
    tr = OrderingTrace(u=u, members=(2,), values=np.zeros((1, len(u))))
    for claim in ("extremal_exact", "thm51_upper", "kt_all_pairs"):
        assert verdict(census(tr), claim).ok


def test_verdict_kt_all_pairs():
    u = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    polys = [TrigPoly.sine([1.0], [1.0]),
             TrigPoly.sine([0.9], [2.0], [0.5]),
             TrigPoly.sine([0.8], [3.0], [1.1])]
    rep = census(trace_from_polys(polys, (1, 2, 3), u, periodic=True))
    assert verdict(rep, "kt_all_pairs").ok
    values = np.vstack([polys[0](u), polys[0](u) + 10.0])
    tr2 = OrderingTrace(u=u, members=(1, 2), values=values, periodic=True)
    assert not verdict(census(tr2), "kt_all_pairs").ok


def test_verdict_lead_trail():
    u = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    polys = [TrigPoly.sine([1.0], [1.0]), TrigPoly.zero()]
    rep = census(trace_from_polys(polys, (1, 3), u, periodic=True))
    assert verdict(rep, "lead_trail", member=1).ok
    assert verdict(rep, "lead_trail", member=3).ok


def test_verdict_inconclusive_window():
    # aperiodic window where a new ordering first appears at the very edge
    u = np.linspace(0.0, 10.0, 1001)
    v1 = np.where(u < 9.9, 1.0, -1.0)
    v2 = np.zeros_like(u)
    tr = OrderingTrace(u=u, members=(1, 2), values=np.vstack([v1, v2]),
                       periodic=False)
    rep = census(tr)
    with pytest.raises(InconclusiveWindowError):
        verdict(rep, "extremal_exact", r=2)


def test_crossing_signs():
    u = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    tr = trace_from_polys([TrigPoly.sine([1.0], [1.0]), TrigPoly.zero()],
                          (1, 3), u, periodic=True)
    crossings = detect_crossings(tr)
    assert any(c.sign_before == 1 and c.sign_after == -1 for c in crossings)
