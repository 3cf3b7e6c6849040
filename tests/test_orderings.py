import itertools
import math
from typing import Dict, FrozenSet, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab.orderings import (InconclusiveWindowError, MissingLabelError,
                               OrderingTrace, build_ordering_graph, census,
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


@pytest.mark.parametrize("member", [99, None])
def test_verdict_lead_trail_needs_a_member_of_the_trace(member):
    u = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    polys = [TrigPoly.sine([1.0], [1.0]), TrigPoly.zero()]
    rep = census(trace_from_polys(polys, (1, 3), u, periodic=True))
    with pytest.raises(ValueError, match=rf"one of \[1, 3\]; got {member}"):
        verdict(rep, "lead_trail", member=member)
    # a one-member trace passes every claim, but not for a stranger
    rep = census(trace_from_polys(polys[:1], (1,), u, periodic=True))
    with pytest.raises(ValueError, match=rf"one of \[1\]; got {member}"):
        verdict(rep, "lead_trail", member=member)


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


# --- the cycle-breaking reference for the forest bound ---------------------------


def ref_find_cycle(n_vertices: int, edges: List[Tuple[int, int, FrozenSet[int]]],
                   ) -> List[int] | None:
    """Indices into edges forming a cycle, or None. Deterministic DFS."""
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for eidx, (a, b, _) in enumerate(edges):
        adj.setdefault(a, []).append((b, eidx))
        adj.setdefault(b, []).append((a, eidx))
    visited: Dict[int, Tuple[int | None, int | None]] = {}
    for root in range(n_vertices):
        if root in visited:
            continue
        stack = [(root, None, None)]
        while stack:
            node, parent_edge, parent = stack.pop()
            if node in visited:
                continue
            visited[node] = (parent, parent_edge)
            for nxt, eidx in sorted(adj.get(node, [])):
                if eidx == parent_edge:
                    continue
                if nxt in visited:
                    # walk both branches up to their common ancestor
                    cur = node
                    chain_a = []
                    while cur is not None:
                        chain_a.append(cur)
                        cur = visited[cur][0]
                    chain_a_set = {v: k for k, v in enumerate(chain_a)}
                    cur = nxt
                    cycle_edges = [eidx]
                    while cur not in chain_a_set:
                        par, pe = visited[cur]
                        cycle_edges.append(pe)
                        cur = par
                    meet = cur
                    cur = node
                    while cur != meet:
                        par, pe = visited[cur]
                        cycle_edges.append(pe)
                        cur = par
                    return [e for e in cycle_edges if e is not None]
                stack.append((nxt, eidx, node))
    return None


def ref_turan_graph_bound(report):
    """The forest bound by repeated cycle breaking: drop an edge whose label
    repeats along a cycle until no cycle is left.  Returns (lower_bound,
    labels_covered, number of forest edges)."""
    r = len(report.members)
    needed = {frozenset(p) for p in itertools.combinations(range(r), 2)}
    graph = build_ordering_graph(report)
    present = {lab for _, _, lab in graph.edges}
    missing = needed - present
    if missing:
        pretty = sorted(tuple(sorted(report.members[i] for i in lab))
                        for lab in missing)
        raise MissingLabelError(
            f"pairs never cross as adjacent transpositions in window: {pretty}")
    edges = list(graph.edges)
    while True:
        cycle = ref_find_cycle(len(graph.vertices), edges)
        if cycle is None:
            break
        labels_in_cycle: Dict[FrozenSet[int], List[int]] = {}
        for eidx in cycle:
            labels_in_cycle.setdefault(edges[eidx][2], []).append(eidx)
        dup = [idxs for idxs in labels_in_cycle.values() if len(idxs) > 1]
        if dup:
            drop = max(dup[0])
        else:
            # fall back: drop an edge whose label survives elsewhere
            cands = [e for e in cycle
                     if sum(1 for x in edges if x[2] == edges[e][2]) > 1]
            if not cands:
                raise MissingLabelError(
                    "cycle with all labels unique; cannot break safely")
            drop = cands[0]
        edges = [e for k, e in enumerate(edges) if k != drop]
    forest = tuple(edges)
    return len(forest) + 1, len({lab for _, _, lab in forest}), len(forest)


def component_count(n_vertices, edges):
    """Connected components of the graph on range(n_vertices)."""
    comp = list(range(n_vertices))
    changed = True
    while changed:
        changed = False
        for a, b, _ in edges:
            low = min(comp[a], comp[b])
            if comp[a] != low or comp[b] != low:
                comp[a] = comp[b] = low
                changed = True
    return len(set(comp))


@st.composite
def race_traces(draw):
    """2-6 members, each a first harmonic of random amplitude and phase (so
    the ordering tends to wind round and close cycles) plus up to two small
    random harmonics, over one period or a window; sometimes quantized, so
    that members tie.  Sizes come from the drawn seed, so that they spread
    evenly rather than cluster at the smallest."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    r, n, harmonics = rng.integers(2, 7), rng.integers(64, 801), rng.integers(1, 4)
    periodic = draw(st.booleans())
    span = 2 * math.pi if periodic else rng.uniform(2.0, 30.0)
    u = np.linspace(0.0, span, n, endpoint=not periodic)
    k = np.arange(1, harmonics + 1)[:, None, None]
    noise = draw(st.sampled_from([0.0, 0.1, 0.3]))
    amps = np.vstack([rng.uniform(0.5, 1.5, (1, r)),
                      noise * rng.normal(size=(harmonics - 1, r))])
    phases = rng.uniform(0.0, 2 * math.pi, (harmonics, r))
    values = np.einsum("kr,kru->ru", amps, np.sin(k * u + phases[:, :, None]))
    step = draw(st.sampled_from([None, None, None, 0.05, 0.25]))
    if step is not None:
        values = step * np.round(values / step)
    return OrderingTrace(u=u, members=tuple(range(1, r + 1)), values=values,
                         periodic=periodic)


def test_forest_matches_cycle_breaking_reference():
    # every label on a cycle of the ordering graph repeats, so one
    # union-find pass keeps what repeated cycle breaking keeps
    seen = {"examples": 0, "missing": 0, "cyclic": 0}

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(trace=race_traces())
    def check(trace):
        rep = census(trace)
        seen["examples"] += 1
        try:
            want = ref_turan_graph_bound(rep)
        except MissingLabelError as exc:
            with pytest.raises(MissingLabelError, match="never cross") as got:
                turan_graph_bound(rep)
            assert str(got.value) == str(exc)
            seen["missing"] += 1
            return
        tb = turan_graph_bound(rep)
        assert (tb.lower_bound, tb.labels_covered, len(tb.forest_edges)) == want
        n_vertices = len(tb.graph.vertices)
        components = component_count(n_vertices, tb.graph.edges)
        assert set(tb.forest_edges) <= set(tb.graph.edges)
        assert len(tb.forest_edges) == n_vertices - components
        assert component_count(n_vertices, tb.forest_edges) == components
        seen["cyclic"] += len(tb.graph.edges) > len(tb.forest_edges)

    check()
    assert seen["cyclic"] * 3 >= seen["examples"], seen
    assert seen["missing"] > 0, seen
