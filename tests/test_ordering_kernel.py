"""The vectorized ordering kernel against the per-sample loops it replaced.

The reference functions below are the earlier loop implementations of the
census, crossing detection, the omega-type check, the grid-and-bisection
wave-crossing root finder and the per-member dominant trace, kept here
verbatim apart from names (and two fixes: the root finder does not bracket
a cell whose end value is exactly zero, and the trace returns an empty
array for no members, where the loop's np.vstack raised); the root finder
is now the reference for `trigpoly.roots`.  Two semantic changes followed
the kernel: the crossing loop reads a periodic trace through `seam_closed`,
so crossings between its last and first sample count, and the trace loop
can weight every level at one frozen u, as a one-period trace does.  The
trace loop can also read its amplitudes from `simulator._amplitudes`' table:
given the same table, the streamed values are pinned bit for bit, and the
table itself is pinned against a character loop in `test_simulator.py`.
`scan_detect_crossings` is not
one of them: it is a per-sample scan, checked against the crossing loop and
fast enough for sweeps over many members.  Random traces are quantized so
that ties, tie runs at both ends of the window and all-tied columns occur
often; long traces with sparse order changes make crossing detection and
the census skip most columns.  The omega-type check sorts no candidate: it
tests the two known reference orderings of each column, and is pinned here
against the loop on random edits and on every candidate `build_extremal`
checks.
"""

import math
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Tuple

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racelab import barriers, residues, simulator, trigpoly, zerosys
from racelab.barriers import (OmegaTypeReport, build_extremal, build_omega,
                              build_thm51, check_omega_type, omega_pattern)
from racelab.orderings import (CensusReport, Crossing, OrderingTrace,
                               _chain, census, column_orders,
                               detect_crossings, run_edges, verdict)
from racelab.trigpoly import EPS, TrigPoly, roots as trig_roots

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


# --- the loop references ------------------------------------------------------


def ref_ordering_at(trace: OrderingTrace, idx: int) -> tuple:
    """The chain of tie blocks, in descending order, at sample idx."""
    vals = trace.values[:, idx]
    order = sorted(range(trace.n_members), key=lambda i: -vals[i])
    blocks: List[Tuple[int, ...]] = []
    cur = [order[0]]
    for i in order[1:]:
        if abs(vals[cur[-1]] - vals[i]) <= trace.tie_tol:
            cur.append(i)
        else:
            blocks.append(tuple(sorted(cur)))
            cur = [i]
    blocks.append(tuple(sorted(cur)))
    return tuple(blocks)


def seam_closed(trace: OrderingTrace) -> Tuple[OrderingTrace, int]:
    """A periodic trace as a window of two periods, the second a period on
    (n samples of its mean step), with the n of the first: its crossings
    are the window's whose sample before the change lies in the first
    period.  A window is itself, with its own length."""
    n = len(trace.u)
    if not trace.periodic or n < 2:
        return trace, n
    period = (trace.u[-1] - trace.u[0]) / (n - 1) * n
    return OrderingTrace(u=np.r_[trace.u, trace.u + period],
                         members=trace.members, tie_tol=trace.tie_tol,
                         values=np.hstack([trace.values, trace.values])), n


def ref_detect_crossings(trace: OrderingTrace) -> List[Crossing]:
    out: List[Crossing] = []
    trace, first = seam_closed(trace)
    u = trace.u
    for i in range(trace.n_members):
        for j in range(i + 1, trace.n_members):
            diff = trace.values[i] - trace.values[j]
            state = np.where(np.abs(diff) <= trace.tie_tol, 0, np.sign(diff))
            k = 0
            n = len(state)
            while k < n - 1 and k < first:
                if state[k] != 0 and state[k + 1] != 0 and state[k] != state[k + 1]:
                    out.append(Crossing((i, j), float(u[k]), float(u[k + 1]),
                                        int(state[k]), int(state[k + 1])))
                    k += 1
                    continue
                if state[k + 1] == 0:
                    start = k + 1
                    end = start
                    while end < n - 1 and state[end + 1] == 0:
                        end += 1
                    before = int(state[k]) if state[k] != 0 else 0
                    after = int(state[end + 1]) if end + 1 < n else 0
                    if before != 0 and after != 0 and before != after:
                        out.append(Crossing((i, j), float(u[start]),
                                            float(u[end]), before, after))
                    k = end
                    continue
                k += 1
    out.sort(key=lambda c: c.u_enter)
    return out


def scan_detect_crossings(trace: OrderingTrace) -> List[Crossing]:
    """The loop reference's reading of the pair states, stepping every pair
    at once, one sample at a time: a flip closes at each sign change between
    neighbours, and a tie run opens at a 0 after a sign and closes at the
    next sign, a crossing when that differs from the sign before the run
    (a run open from the first sample has sign 0 before it).  Same order:
    u_enter, then (i, j), then the sample where the loop met the crossing.
    Checked against `ref_detect_crossings` below; it takes O(samples) numpy
    steps instead of O(pairs x samples) Python ones, so the sweep over many
    members can use it.  A periodic trace is read as `seam_closed` reads
    it."""
    trace, first = seam_closed(trace)
    ii, jj = np.triu_indices(trace.n_members, 1)
    state = np.ascontiguousarray(np.concatenate([  # by sample, pairs (i, j > i)
        np.where(np.abs(diff) <= trace.tie_tol, 0, np.sign(diff)).astype(np.int8)
        for diff in (trace.values[i] - trace.values[i + 1:]
                     for i in range(trace.n_members))]).T)
    prev, cur = state[:-1], state[1:]  # sample k - 1 and sample k, by row
    flips, opens = prev * cur < 0, (prev != 0) & (cur == 0)
    closes = (prev == 0) & (cur != 0)
    u = trace.u.tolist()
    found = []  # (u_enter, i, j, sample met, crossing)
    before = np.zeros(len(ii), dtype=int)  # the sign before an open run
    start = np.zeros(len(ii), dtype=int)   # where the open run started
    for k in (np.flatnonzero((flips | opens | closes).any(axis=1)) + 1).tolist():
        before[opens[k - 1]], start[opens[k - 1]] = state[k - 1, opens[k - 1]], k
        p = np.flatnonzero(flips[k - 1])
        found += [(u[k - 1], i, j, k - 1, Crossing((i, j), u[k - 1], u[k], b, a))
                  for i, j, b, a in zip(*(x.tolist() for x in (
                      ii[p], jj[p], state[k - 1, p], state[k, p])))]
        p = np.flatnonzero(closes[k - 1])
        p = p[(before[p] != 0) & (before[p] != state[k, p])]
        found += [(u[s], i, j, s - 1, Crossing((i, j), u[s], u[k - 1], b, a))
                  for i, j, s, b, a in zip(*(x.tolist() for x in (
                      ii[p], jj[p], start[p], before[p], state[k, p])))]
    found.sort(key=lambda f: f[:4])
    return [f[4] for f in found if f[3] < first]


def ref_census(trace: OrderingTrace) -> CensusReport:
    strict: Dict[Tuple[int, ...], Tuple[float, float]] = {}
    counts: Dict[Tuple[int, ...], int] = {}
    weak: Dict[tuple, int] = {}
    sequence: List[Tuple[float, Tuple[int, ...]]] = []
    last_perm = None
    for idx in range(len(trace.u)):
        chain = ref_ordering_at(trace, idx)
        if all(len(b) == 1 for b in chain):
            perm = tuple(b[0] for b in chain)
            uu = float(trace.u[idx])
            counts[perm] = counts.get(perm, 0) + 1
            if perm in strict:
                first, _ = strict[perm]
                strict[perm] = (first, uu)
            else:
                strict[perm] = (uu, uu)
            if perm != last_perm:
                sequence.append((uu, perm))
                last_perm = perm
        else:
            weak[chain] = weak.get(chain, 0) + 1
    return CensusReport(members=trace.members, strict=strict, weak=weak,
                        crossings=ref_detect_crossings(trace),
                        sequence=sequence,
                        window=(float(trace.u[0]), float(trace.u[-1])),
                        periodic=trace.periodic, sample_counts=counts)


def ref_compatible(vals, perm, tol) -> bool:
    return all(vals[perm[i]] >= vals[perm[i + 1]] - tol
               for i in range(len(perm) - 1))


def ref_check_omega_type(candidate, w_grid, omega, tie_tol=0.0):
    pts = omega.crossing_points()
    pts = sorted(pts + [2 * math.pi - p for p in pts])
    mids = [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    wrap_mid = ((pts[-1] + pts[0] + 2 * math.pi) / 2.0) % (2 * math.pi)
    mids = sorted(mids + [wrap_mid])

    def ordering_at(u_val):
        vals = omega.values(np.array([u_val]))[:, 0]
        return tuple(np.argsort(-vals))

    ref = [ordering_at(m) for m in mids]
    n_mid = len(mids)
    checked = 0
    for col in range(candidate.shape[1]):
        u = float(w_grid[col]) % (2 * math.pi)
        idx = np.searchsorted(mids, u) - 1
        lo = ref[idx % n_mid]
        hi = ref[(idx + 1) % n_mid]
        vals = candidate[:, col]
        order = tuple(np.argsort(-vals))
        sorted_vals = vals[list(order)]
        if np.all(np.diff(sorted_vals) < -tie_tol):
            if order != lo and order != hi:
                return OmegaTypeReport(False, first_violation=u,
                                       intervals_checked=checked)
        elif not (ref_compatible(vals, lo, tie_tol)
                  or ref_compatible(vals, hi, tie_tol)):
            return OmegaTypeReport(False, first_violation=u,
                                   intervals_checked=checked)
        checked += 1
    return OmegaTypeReport(True, intervals_checked=checked)


def ref_wave_crossings(w1, w2, period, samples):
    u = np.linspace(0.0, period, samples, endpoint=False)
    diff = w1(u) - w2(u)
    roots = []
    for i in range(samples):
        a = u[i]
        b = u[i + 1] if i + 1 < samples else period
        fa = diff[i]
        fb = diff[(i + 1) % samples]
        if fa == 0.0:
            roots.append((float(a), 0.0))
            continue
        if fb != 0.0 and (fa > 0) != (fb > 0):
            lo, hi, flo = float(a), float(b), float(fa)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                fm = float(w1(mid) - w2(mid))
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append((0.5 * (lo + hi), hi - lo))
    return roots


def ref_dominant_member_values(system, members, u, at=None, table=None):
    """The loop, each level weighted by its decay at u, or at the one
    frozen u `at` given (as `one_period_trace` weighs a period).  Given
    table, the (zeros, A) of `simulator._amplitudes`, the loop reads its
    amplitudes A[a, rho]/rho, zero by zero in table order, in place of its
    own sum over characters (which `test_amplitudes_match_character_loop`
    pins against it), so that the evaluation can be compared bit for bit."""
    u = np.asarray(u, dtype=float)
    at = u if at is None else at
    beta_star = system.r_plus
    if beta_star is None:
        return np.zeros((len(members), len(u)))
    chi_bar = {label: system.chars[label].conjugate()
               for label in system.entries}
    rows = []
    for i, a in enumerate(members):
        if table is None:
            amps = {}
            for label, z, mult in system.items():
                w = 0.5 if z.is_real else 1.0
                c = mult * w * chi_bar[label](a) / z.rho
                amps[z] = amps.get(z, 0.0j) + c
        else:
            amps = {z: c / z.rho for z, c in zip(table[0], table[1][i])}
        acc = np.zeros_like(u)
        for z, c in amps.items():
            osc = (c * np.exp(1j * z.gamma * u)).real if z.gamma else np.full_like(u, c.real)
            if z.beta != beta_star:
                osc = osc * np.exp((z.beta - beta_star) * at)
            acc += osc
        rows.append(-acc)
    return np.vstack(rows) if rows else np.zeros((0, len(u)))


# --- strategies -----------------------------------------------------------------


@st.composite
def quantized_traces(draw):
    """Few members, few samples, values on a coarse grid: ties are common,
    including runs at either end of the window and all-tied columns."""
    r = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=40))
    levels = draw(st.integers(min_value=1, max_value=4))
    raw = draw(st.lists(st.integers(min_value=-levels, max_value=levels),
                        min_size=r * n, max_size=r * n))
    values = 0.5 * np.array(raw, dtype=float).reshape(r, n)
    tie_tol = draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0]))
    u = 0.25 * np.arange(n) + draw(st.sampled_from([0.0, -3.0, 7.5]))
    return OrderingTrace(u=u, members=tuple(range(1, r + 1)), values=values,
                         tie_tol=tie_tol, periodic=draw(st.booleans()))


def census_fields(rep: CensusReport):
    return (list(rep.strict.items()), list(rep.weak.items()), rep.crossings,
            rep.sequence, list(rep.sample_counts.items()), rep.window,
            rep.periodic)


# --- equivalence ----------------------------------------------------------------


@PROPERTY
@given(quantized_traces())
def test_census_matches_loop_reference(trace):
    assert census_fields(census(trace)) == census_fields(ref_census(trace))


def fixed_trace(rows, tie_tol=0.0):
    values = np.array(rows, dtype=float)
    return OrderingTrace(u=0.5 * np.arange(values.shape[1]),
                         members=tuple(range(1, len(values) + 1)),
                         values=values, tie_tol=tie_tol)


FIXED_TRACES = {
    # (1, 2) recurs after other strict runs, and after a tied run
    "recurring key": fixed_trace([[2, 2, 0, 0, 2, 1, 2, 2, 0],
                                  [1, 1, 1, 1, 1, 1, 1, 1, 1],
                                  [0, 0, 2, 2, 0, 0, 0, 0, 2]]),
    "single sample": fixed_trace([[0.5], [0.0], [1.0]]),
    "tied at both ends": fixed_trace([[0, 1, 0, 0, 1],
                                      [0, 0, 1, 0, 1],
                                      [0, 2, 2, 2, 0]], tie_tol=1e-9),
    "all tied": fixed_trace([[1, 1, 1], [1, 1, 1]]),
    # column 2 is strict and has the order of the tied column 1 before it;
    # column 3 lies inside a strict run, the one column crossing detection
    # skips
    "strict after tied, same order": fixed_trace([[2, 1, 1, 1, 1, 1],
                                                  [0, 1, 0, 0, 0, 2],
                                                  [3, 3, 3, 3, 3, 3]]),
    # tie runs of two samples touch the first and the last sample; (1, 3)
    # flips between them
    "tie runs at both ends": fixed_trace([[1, 1, 2, 2, 2, 0, 0],
                                          [1, 1, 0, 0, 0, 0, 0],
                                          [.5, .5, .5, .5, .5, .5, .5]],
                                         tie_tol=1e-9),
    "one member": fixed_trace([[0, 1, 2, 1, 0]]),
}


@pytest.mark.parametrize("name", list(FIXED_TRACES))
def test_census_matches_loop_reference_on_fixed_traces(name):
    trace = FIXED_TRACES[name]
    assert census_fields(census(trace)) == census_fields(ref_census(trace))


def test_census_recurring_key_keeps_first_and_last_sample():
    rep = census(FIXED_TRACES["recurring key"])
    top = (0, 1, 2)
    assert rep.strict[top] == (0.0, 3.5) and rep.sample_counts[top] == 5
    # the tie at sample 5 does not split the (1, 2, 3) arc in the sequence
    assert [p for _, p in rep.sequence] == [top, (2, 1, 0), top, (2, 1, 0)]


@PROPERTY
@given(quantized_traces())
def test_detect_crossings_matches_loop_reference(trace):
    assert detect_crossings(trace) == ref_detect_crossings(trace)


@PROPERTY
@given(quantized_traces())
def test_scan_reference_matches_loop_reference(trace):
    assert scan_detect_crossings(trace) == ref_detect_crossings(trace)


@pytest.mark.parametrize("name", list(FIXED_TRACES))
def test_detect_crossings_matches_loop_reference_on_fixed_traces(name):
    trace = FIXED_TRACES[name]
    assert detect_crossings(trace) == ref_detect_crossings(trace)
    assert scan_detect_crossings(trace) == ref_detect_crossings(trace)


def test_periodic_trace_closes_its_seam():
    # (0, 1) and (1, 2) flip from the last sample to the first, and (0, 2)
    # is tied at both, between signs + (sample 2) and - (sample 1)
    values = [[1, 1, -1, -1], [0, 0, 0, 0], [1, 2, -2, -1]]
    trace = fixed_trace(values, tie_tol=1e-9)
    inner = [Crossing((0, 1), 0.5, 1.0, 1, -1),
             Crossing((0, 2), 0.5, 1.0, -1, 1),
             Crossing((1, 2), 0.5, 1.0, -1, 1)]
    assert detect_crossings(trace) == inner
    periodic = trace._replace(periodic=True)
    assert detect_crossings(periodic) == inner + [
        Crossing((0, 1), 1.5, 2.0, -1, 1), Crossing((0, 2), 1.5, 2.0, 1, -1),
        Crossing((1, 2), 1.5, 2.0, 1, -1)]
    assert ref_detect_crossings(periodic) == detect_crossings(periodic)
    assert census(periodic).crossings == detect_crossings(periodic)


def kept_columns(trace):
    """The columns crossing detection reads: tied ones, the first and the
    last, and every edge of a run of equal (order, strict) keys."""
    order, _, strict = column_orders(trace.values, trace.tie_tol)
    heads, tails = run_edges(np.vstack([order, strict]))
    return np.flatnonzero(heads | tails | ~strict)


def test_run_edges_keep_a_strict_column_after_a_tie_with_its_order():
    trace = FIXED_TRACES["strict after tied, same order"]
    # column 2 differs from column 1 in its strict flag only
    assert kept_columns(trace).tolist() == [0, 1, 2, 4, 5]
    assert detect_crossings(trace) == [Crossing((0, 1), 2.0, 2.5, 1, -1)]


@st.composite
def long_traces(draw):
    """2048 to 4096 samples whose order changes at a few samples only: few
    members on piecewise-constant quantized levels (whole segments tie), or
    a few slow sine waves."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.sampled_from([2048, 3001, 4096]))
    if draw(st.booleans()):
        cuts = np.sort(rng.choice(np.arange(1, n), replace=False,
                                  size=draw(st.integers(0, 8))))
        levels = 0.5 * rng.integers(-3, 4, size=(r, len(cuts) + 1))
        values = levels[:, np.searchsorted(cuts, np.arange(n), side="right")]
    else:
        v = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        values = np.sin(rng.integers(1, 4, size=(r, 1)) * v
                        + rng.uniform(0.0, 2 * math.pi, size=(r, 1)))
    return OrderingTrace(u=0.5 * np.arange(n), members=tuple(range(1, r + 1)),
                         values=values,
                         tie_tol=draw(st.sampled_from([0.0, 1e-9, 0.5])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(long_traces())
def test_long_traces_match_loop_reference(trace):
    assume(len(kept_columns(trace)) < len(trace.u))  # columns are skipped
    assert detect_crossings(trace) == ref_detect_crossings(trace)
    assert census_fields(census(trace)) == census_fields(ref_census(trace))


@PROPERTY
@given(quantized_traces())
def test_ordering_at_matches_loop_reference(trace):
    # the kernel's ordering of one column, as the census chains it
    for idx in range(len(trace.u)):
        order, gaps, _ = column_orders(trace.values[:, [idx]], trace.tie_tol)
        chain = _chain(order[:, 0], gaps[:, 0] > trace.tie_tol)
        assert chain == ref_ordering_at(trace, idx)


@PROPERTY
@given(st.data())
def test_check_omega_type_matches_loop_reference(data):
    r, V = data.draw(st.sampled_from([(6, (1, 2, 3)), (6, (1, 2)),
                                      (8, (1, 2, 3)), (16, (1, 2, 3, 4))]))
    omega = build_omega(r, V, seed=data.draw(st.integers(0, 3)))
    w = np.linspace(0.0, 2 * math.pi,
                    data.draw(st.sampled_from([48, 96, 257, 2048])),
                    endpoint=False)
    quantum = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    vals = omega.values(w)
    if quantum:
        vals = quantum * np.round(vals / quantum)
    # on a stretch of the grid, swap two members or pin one next to another
    i, j = data.draw(st.sampled_from([(0, 1), (0, len(V) - 1)]))
    lo = data.draw(st.integers(0, len(w) - 1))
    hi = data.draw(st.integers(lo, len(w)))
    edit = data.draw(st.sampled_from(["none", "swap", "nudge"]))
    if edit == "swap":
        vals[[i, j], lo:hi] = vals[[j, i], lo:hi]
    elif edit == "nudge":
        vals[i, lo:hi] = vals[j, lo:hi] + data.draw(
            st.sampled_from([-0.05, -0.005, 0.0, 0.005, 0.05]))
    tie_tol = data.draw(st.sampled_from([0.0, 0.01, 0.1]))
    assert check_omega_type(vals, omega_pattern(omega, w), tie_tol) \
        == ref_check_omega_type(vals, w, omega, tie_tol)


def test_omega_failure_where_only_the_reference_interval_changes():
    # the candidate keeps one strict order, admissible in reference interval
    # k but not in k + 1, across the edge between them: the first failing
    # column has its left neighbour's order, only its interval is new
    omega = build_omega(6, (1, 2, 3), seed=0)
    w = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    pts = omega.crossing_points()
    pts = sorted(pts + [2 * math.pi - p for p in pts])
    mids = sorted([(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
                  + [((pts[-1] + pts[0] + 2 * math.pi) / 2.0) % (2 * math.pi)])
    ref, _, _ = column_orders(omega.values(np.array(mids)), 0.0)
    idx = np.searchsorted(mids, w) - 1
    k = next(k for k in range(len(mids) - 2)
             if {tuple(ref[:, k])} - {tuple(ref[:, k + 1]), tuple(ref[:, k + 2])})
    vals = omega.values(w)
    pattern = omega_pattern(omega, w)
    assert check_omega_type(vals, pattern).ok
    cols = np.flatnonzero((idx == k) | (idx == k + 1))
    vals[ref[:, k], cols[:, None]] = np.arange(3, 0, -1)  # strict, order ref[k]
    first = np.flatnonzero(idx == k + 1)[0]
    rep = check_omega_type(vals, pattern)
    assert rep == ref_check_omega_type(vals, w, omega)
    assert rep == OmegaTypeReport(False, first_violation=float(w[first]),
                                  intervals_checked=int(first))
    order, _, strict = column_orders(vals[:, first - 1:first + 1], 0.0)
    assert strict.all() and (order[:, 0] == order[:, 1]).all()


def omega_column_case():
    """omega(6, (1, 2, 3)) on 2048 points, its pattern, and the reference
    orderings lo and hi of every column, from the midpoints."""
    omega = build_omega(6, (1, 2, 3), seed=0)
    w = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    pts = omega.crossing_points()
    pts = sorted(pts + [2 * math.pi - p for p in pts])
    mids = sorted([(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
                  + [((pts[-1] + pts[0] + 2 * math.pi) / 2.0) % (2 * math.pi)])
    ref, _, _ = column_orders(omega.values(np.array(mids)), 0.0)
    idx = np.searchsorted(mids, w) - 1
    return (omega, w, omega_pattern(omega, w), ref[:, idx % len(mids)],
            ref[:, (idx + 1) % len(mids)])


def test_omega_quantized_column_admissible_only_as_v_a_ge_v_b_minus_tol():
    # a tied column (-0.1 - -0.2 is 0.1, not above tie_tol) holding lo's
    # members in ascending order: lo's neighbours hold as
    # v_above >= v_below - tie_tol, though v_above - v_below >= -tie_tol
    # fails for the first pair (-0.10000000000000003)
    omega, w, pattern, lo, _ = omega_column_case()
    vals, col, tol = omega.values(w), 700, 0.1
    vals[lo[:, col], col] = [-0.30000000000000004, -0.2, -0.1]
    a, b = vals[lo[0, col], col], vals[lo[1, col], col]
    assert a >= b - tol and not a - b >= -tol
    rep = check_omega_type(vals, pattern, tol)
    assert rep == ref_check_omega_type(vals, w, omega, tol)
    assert rep == OmegaTypeReport(True, intervals_checked=len(w))


def test_omega_strict_column_needs_the_reference_order_exactly():
    # a strict column (gaps 0.7 and 0.10000000000000003 > tie_tol 0.1)
    # whose order is neither lo nor hi fails, though v_above >= v_below -
    # tie_tol holds for every neighbour pair of lo: -0.2 - 0.1 rounds to
    # -0.30000000000000004
    omega, w, pattern, lo, hi = omega_column_case()
    col = np.flatnonzero(lo[2] == hi[2])[0]  # hi swaps lo's first two
    vals, tol = omega.values(w), 0.1
    vals[lo[:, col], col] = [0.5, -0.30000000000000004, -0.2]
    order, _, strict = column_orders(vals[:, [col]], tol)
    assert strict[0] and order[:, 0].tolist() not in (lo[:, col].tolist(),
                                                       hi[:, col].tolist())
    upper, lower = vals[lo[1:, col], col], vals[lo[:-1, col], col]
    assert (lower >= upper - tol).all()
    rep = check_omega_type(vals, pattern, tol)
    assert rep == ref_check_omega_type(vals, w, omega, tol)
    assert rep == OmegaTypeReport(False, first_violation=float(w[col]),
                                  intervals_checked=int(col))


@pytest.mark.parametrize("tie_tol", [0.0, 0.1])
def test_omega_nan_sample_fails_its_column(tie_tol):
    omega, w, pattern, _, _ = omega_column_case()
    vals = omega.values(w)
    vals[1, 1000] = np.nan
    rep = check_omega_type(vals, pattern, tie_tol)
    assert rep == ref_check_omega_type(vals, w, omega, tie_tol)
    assert rep == OmegaTypeReport(False, first_violation=float(w[1000]),
                                  intervals_checked=1000)


@pytest.mark.parametrize("shape", [(2, 64), (4, 64), (3, 50), (64,)])
def test_omega_candidate_of_the_wrong_shape_is_refused(shape):
    omega = build_omega(6, (1, 2, 3), seed=0)
    pattern = omega_pattern(omega, np.linspace(0.0, 2 * math.pi, 64,
                                               endpoint=False))
    want = (f"candidate of shape {shape} against an omega pattern of shape "
            f"(3, 64)")
    with pytest.raises(ValueError) as exc:
        check_omega_type(np.zeros(shape), pattern)
    assert str(exc.value) == want


def test_omega_negative_tie_tol_is_refused():
    omega = build_omega(6, (1, 2, 3), seed=0)
    w = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    with pytest.raises(ValueError, match="tie_tol must be >= 0"):
        check_omega_type(omega.values(w), omega_pattern(omega, w), -0.1)


@pytest.mark.parametrize("q, V, K", [(7, (1, 2, 3), 1), (7, (2, 3, 5), 16),
                                     (11, (2, 3), 16), (11, (1, 3, 5, 6), 1),
                                     (13, (5, 6, 9), 16)])
def test_build_extremal_checks_match_loop_reference(monkeypatch, q, V, K):
    """Every candidate build_extremal checks (its K rounds, N rounds and
    emitted trace, failing rounds included) gets the loop's report."""
    checked = []

    def recording(candidate, pattern, tie_tol=0.0):
        report = check_omega_type(candidate, pattern, tie_tol)
        checked.append((np.array(candidate), tie_tol, report))
        return report

    monkeypatch.setattr(barriers, "check_omega_type", recording)
    group = residues.unit_group(q)
    gen = min(a for a in group.units if group.order(a) == group.phi)
    sub = group.subgroup(gen)
    recipe = build_extremal(q, gen, [sub[v] for v in V], K=K)
    omega = build_omega(group.phi, V, seed=0)
    w = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    reports = [report for _, _, report in checked]
    assert reports == [ref_check_omega_type(c, w, omega, t)
                       for c, t, _ in checked]
    # K, 2K, ... up to the K used, N rounds likewise from 64, the trace
    assert len(reports) == ((recipe.params["K"] // K).bit_length()
                            + (recipe.params["N"] // 64).bit_length() + 1)
    assert [r.ok for r in reports].count(False) == len(reports) - 3


@PROPERTY
@given(st.data())
def test_trig_roots_match_loop_reference(data):
    def poly():
        k = data.draw(st.integers(1, 3))
        coeffs = data.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0]),
                                    min_size=k, max_size=k))
        freqs = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k,
                                   unique=True))
        phases = data.draw(st.lists(st.sampled_from([0.0, 0.0, math.pi / 2, 1.0]),
                                    min_size=k, max_size=k))
        return TrigPoly.sine(coeffs, [f * base for f in freqs], phases)

    base = data.draw(st.sampled_from([1.0, 1000.0]))
    w1, w2 = poly(), poly()
    diff = w1 + w2.scale(-1.0)
    assume(diff.n_terms > 0)
    samples = data.draw(st.sampled_from([12, 24, 64, 100]))
    period = 2 * math.pi / base
    [res] = trig_roots([diff], base)
    # every kept root is isolated: the interval ends straddle a sign change
    for r, rho in zip(res.roots, res.radii):
        assert diff(r - rho) * diff(r + rho) < 0
    if not res.certified:
        return
    # the grid can miss roots but cannot invent one
    ref = ref_wave_crossings(w1, w2, period, samples)
    assert len(ref) <= len(res.roots)
    for root, width in ref:
        dist = np.abs((res.roots - root + period / 2) % period - period / 2)
        i = int(np.argmin(dist))
        assert dist[i] <= width + res.radii[i]


def test_trig_roots_count_a_root_at_zero_once():
    # w1 - w2 > 0 just left of the wrap-around and 0 at u = 0, with a
    # negligible top term: one root at 0, one at half the period
    period = 2 * math.pi / 1000
    [res] = trig_roots([TrigPoly.sine([-1.0], [1000.0])
                        + TrigPoly.sine([1e-300], [2000.0]).scale(-1.0)], 1000.0)
    assert res.certified and len(res.roots) == 2
    assert res.roots[0] <= res.radii[0]
    assert abs(res.roots[1] - period / 2) <= res.radii[1] + 1e-18


def near_double_pair(gamma):
    """Waves whose difference kappa cos(v - 1) - cos(2(v - 1))/2, v = gamma u,
    has four real roots: 1 +- 8.6e-9 (about 3e-9 of the period apart, since
    kappa is the float just below 1/2) and 1 +- 2 pi/3."""
    kappa = float(np.nextafter(0.5, 0.0))
    return (TrigPoly.sine([kappa], [gamma], [math.pi / 2 - 1.0]),
            TrigPoly.sine([0.5], [2 * gamma], [math.pi / 2 - 2.0]))


def test_trig_roots_refuse_a_near_double_root():
    gamma = 1000.0
    w1, w2 = near_double_pair(gamma)
    diff = w1 + w2.scale(-1.0)
    # 40 digits, on the float coefficients: negative between the close
    # roots, positive outside them
    def exact(v):
        return sum(mpmath.mpf(c) * mpmath.sin(mpmath.mpf(t / gamma) * v
                                              + mpmath.mpf(a))
                   for c, t, a in diff.terms)
    with mpmath.workdps(40):
        one, step = mpmath.mpf(1), mpmath.mpf("2e-8")
        assert exact(one - step) > 0 > exact(one) and exact(one + step) > 0
    # a grid of 2^14 cells sees only the two far roots
    assert len(ref_wave_crossings(w1, w2, 2 * math.pi / gamma, 1 << 14)) == 2
    [res] = trig_roots([diff], gamma)
    assert res.unresolved > 0 and not res.certified


def exact_value(poly, v):
    """poly at v in mpmath, its float terms taken as exact numbers."""
    return sum(mpmath.mpf(c) * mpmath.sin(mpmath.mpf(t) * mpmath.mpf(v)
                                          + mpmath.mpf(a))
               for c, t, a in poly.terms)


def assert_isolated(poly, res):
    """Each interval's ends straddle a sign change, at 40 digits."""
    with mpmath.workdps(40):
        for r, rho in zip(res.roots, res.radii):
            assert exact_value(poly, r - rho) * exact_value(poly, r + rho) < 0


def test_trig_roots_leave_a_planted_double_root_unresolved():
    # cos t - cos 2t, t = v - 1: a double root at v = 1, simple ones at
    # 1 +- 2 pi/3
    poly = TrigPoly.cosine([1.0, -1.0], [1.0, 2.0], [-1.0, -2.0])
    [res] = trig_roots([poly], 1.0)
    assert res.unresolved > 0
    assert np.allclose(res.roots, [1 + 2 * math.pi / 3, 1 - 2 * math.pi / 3
                                   + 2 * math.pi], atol=1e-13)
    assert_isolated(poly, res)


def test_trig_roots_leave_two_roots_1e_15_apart_unresolved():
    # sin(v - x1) sin(v - x2) sin(v - x3) as its four product-to-sum terms:
    # roots x1, x2 = x1 + 1e-15 and x3, and each of them + pi
    x1, x2, x3 = 1.0, 1.0 + 1e-15, 2.5
    poly = TrigPoly.combine([
        TrigPoly.sine([0.25], [1.0], [x3 - x1 - x2]),
        TrigPoly.sine([0.25], [1.0], [x1 - x2 - x3]),
        TrigPoly.sine([0.25], [1.0], [x2 - x3 - x1]),
        TrigPoly.sine([-0.25], [3.0], [-(x1 + x2 + x3)])])
    [res] = trig_roots([poly], 1.0)
    assert res.unresolved > 0
    assert np.allclose(res.roots, [x3, x3 + math.pi], atol=1e-13)
    assert_isolated(poly, res)


def test_trig_roots_leave_an_all_zero_row_unresolved_unsplit(monkeypatch):
    seen = []
    evaluate = trigpoly.evaluate_phasors
    monkeypatch.setattr(trigpoly, "evaluate_phasors", lambda C, v, rows=None:
                        seen.append(rows) or evaluate(C, v, rows))
    zero, sine = trig_roots([TrigPoly.zero(), TrigPoly.sine([1.0], [1.0])],
                            1.0)
    assert zero.unresolved == 1 and len(zero.roots) == 0
    assert sine.certified and np.allclose(sine.roots, [0.0, math.pi])
    # rows 0 and 2 (its derivative) are the zero row's: never evaluated
    assert seen and not any(np.isin(rows, [0, 2]).any() for rows in seen)


@PROPERTY
@given(st.data())
def test_trig_roots_certified_rows_have_even_isolated_roots(data):
    part = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0]),
                     st.floats(-2.0, 2.0))
    n, K = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    table = [[complex(data.draw(part), data.draw(part)) for _ in range(K)]
             for _ in range(n)]
    polys = [TrigPoly.from_phasors(dict(enumerate(row, start=1)))
             for row in table]
    for poly, res in zip(polys, trig_roots(polys, 1.0)):
        if poly.n_terms == 0:
            assert res.unresolved == 1 and len(res.roots) == 0
        if not res.certified:
            continue
        # simple roots on a circle: the sign changes an even number of times
        assert len(res.roots) % 2 == 0
        assert np.all((res.roots >= 0.0) & (res.roots < 2 * math.pi))
        assert_isolated(poly, res)


def thm311_pair_polys(q):
    """The pair differences of the members' waves, all units as members, of
    `build_thm311(q, tau=1000)` in the lattice phase: each member's row is
    -1j * W of the lattice table W of its amplitudes over rho."""
    recipe = barriers.build_thm311(q, tau=1000.0)
    units = residues.unit_group(q).units
    zeros, amps = simulator._amplitudes(recipe.system, units)
    table = -1j * simulator._lattice_table(recipe.system, zeros,
                                           amps / [z.rho for z in zeros])
    a, b = np.triu_indices(len(units), 1)
    return recipe, units, [TrigPoly.from_phasors(dict(enumerate(row, start=1)))
                           for row in table[a] - table[b]]


@pytest.mark.parametrize("q, crossings", [(7, 58), (13, 350), (15, 106),
                                          (19, 732)])
def test_trig_roots_certify_every_thm311_pair(q, crossings):
    # today's sampled census sees every crossing of these recipes; the
    # kernel certifies the same count, with no cell left undecided
    recipe, units, polys = thm311_pair_polys(q)
    found = trig_roots(polys, 1.0)
    assert all(res.certified for res in found)
    assert sum(len(res.roots) for res in found) == crossings
    rfs = simulator.RaceFunctionSet(q, recipe.system, units, pi_proxy="zero")
    rep = census(simulator.one_period_trace(rfs, samples=65536))
    assert len(rep.crossings) == crossings


def test_thm51_condition_a_refuses_a_near_double_root(monkeypatch):
    gamma = 1000.0
    w1, w2 = near_double_pair(gamma)
    # q = 3 has one level, of order 2, so its two waves are the pair's
    recipe = build_thm51(3, gamma=gamma)
    monkeypatch.setattr(barriers, "_thm51_waves",
                        lambda p: {(1, 0): w1, (1, 1): w2})
    with pytest.raises(barriers.ConditionFailedError) as err:
        barriers.check_thm51_conditions(recipe)
    assert err.value.condition == "A"
    assert "level 1 phases (0,1)" in str(err.value)
    assert "unresolved cells" in str(err.value)


def test_q35_all_units_census_golden():
    """Pins the sampled census of the q=35 layered recipe with all 24 units
    as members at 1024 and 32768 samples, level weights frozen at base_u 0.
    It records what each sample count sees, not a converged count (more
    samples see more orderings).  With the seam closed every pair crosses
    twice, r(r-1) = 552 crossings, at both; at 32768 two samples tie the
    members at indices 4 and 19 within tie_tol (4.5e-10 apart)."""
    recipe = build_thm51(35, tau=1000.0)
    rfs = simulator.RaceFunctionSet(35, recipe.system,
                                    residues.unit_group(35).units,
                                    pi_proxy="zero")
    for samples, strict, crossings, tied in ((1024, 230, 552, 0),
                                             (32768, 346, 552, 2)):
        rep = census(simulator.one_period_trace(rfs, samples=samples))
        assert rep.strict_count == strict
        assert len(rep.crossings) == crossings
        assert sum(rep.weak.values()) == tied


# --- the dominant trace ---------------------------------------------------------


def assert_bitwise(values, ref):
    assert values.dtype == ref.dtype and values.shape == ref.shape
    assert values.tobytes() == ref.tobytes()


def recipe_case(recipe, members=None, samples=777):
    period = 2 * math.pi / recipe.system.height_lattice
    if members is None:
        members = residues.unit_group(recipe.q).units
    return recipe.system, members, np.linspace(-period, 3 * period, samples)


def mixed_level_case():
    """A real zero (half weight) on the quadratic character mod 13, two real
    parts (the lower one decays), and zeros shared by two characters."""
    chars = residues.characters(13)

    def label(phase):  # 2 generates the units mod 13
        return next(i for i, c in enumerate(chars) if c.phase(2) == phase)

    Zero = zerosys.Zero
    system = zerosys.ZeroSystem(13, {
        label(Fraction(1, 2)): {Zero(0.75, 0.0): 1, Zero(0.75, 4.0): 2,
                                Zero(0.6, 9.5): 1},
        label(Fraction(1, 4)): {Zero(0.75, 4.0): 1, Zero(0.6, 2.25): 3},
        label(Fraction(1, 3)): {Zero(0.6, 9.5): 2}})
    return system, residues.unit_group(13).units, np.linspace(-5.0, 40.0, 901)


def far_height_case():
    """The thm311 q = 7 lattice (heights 1..7 times lambda) plus one zero at
    100 lambda: K = 100 is too sparse for the phasor table."""
    system, members, u = recipe_case(barriers.build_thm311(7))
    entries = {label: dict(zs) for label, zs in system.entries.items()}
    far = zerosys.Zero(0.75, 100 * system.height_lattice)
    entries[next(iter(entries))][far] = 1
    return (zerosys.ZeroSystem(7, entries, height_lattice=system.height_lattice),
            members, u)


DOMINANT_CASES = {
    "thm311 Z4 x Z2": lambda: recipe_case(barriers.build_thm311(15, tau=1000.0)),
    "thm51 all units": lambda: recipe_case(build_thm51(35, tau=1000.0)),
    "thm43": lambda: recipe_case(barriers.build_extremal(7, 3, [3, 2, 6])),
    "real zero, two levels": mixed_level_case,
    "no members": lambda: recipe_case(barriers.build_thm311(7), members=()),
    "one sample": lambda: recipe_case(barriers.build_thm311(7), samples=1),
    "far sparse height": far_height_case,
}
# members of systems whose heights fill a lattice get `_lattice_table`s;
# those of one level take the phasor-table path and meet `lattice_bound`,
# the rest stream their zeros as the loop does, bit for bit ("no members"
# is on a lattice, but has no values to differ)
ON_LATTICE = {"thm311 Z4 x Z2", "thm51 all units", "thm43", "one sample"}
ONE_LEVEL = ON_LATTICE - {"thm51 all units"}


def lattice_bound(system, members, u):
    """How far the phasor-table values and the loop reference's may lie
    apart, per member and sample, on a one-level lattice: the sum of what
    each may lie from -Re sum_rho A_rho e^(i gamma_rho u), with the
    amplitudes A that both compute alike.  Per zero, in units of EPS |A|:
    - the table: `evaluate_phasors`' bound 6K + 4 on its (n, K) table (K
      the largest height multiple), and |gamma u| / 2 for v = fl(lambda u);
    - the loop: |gamma u| / 2 for fl(gamma u), 6 for cos and sin of up to
      4 ulp each (in modulus), 2 for the real part of A e^(i theta), and N
      for the sum over the N zeros.
    """
    lam = system.height_lattice
    amps = {}
    for label, z, mult in system.items():
        chi_bar = system.chars[label].conjugate()
        row = amps.setdefault(z, np.zeros(len(members), dtype=complex))
        row += [mult * chi_bar(a) / z.rho for a in members]
    assert len({z.beta for z in amps}) == 1
    K = max(round(z.gamma / lam) for z in amps)
    bound = np.zeros((len(members), len(u)))
    for z, a in amps.items():
        units = 6 * K + 4 + np.abs(z.gamma * u) + 6 + 2 + len(amps)
        bound += np.outer(np.abs(a), units)
    return EPS * bound


@pytest.mark.parametrize("case", list(DOMINANT_CASES))
def test_dominant_member_values_match_loop_reference(case):
    system, members, u = DOMINANT_CASES[case]()
    values = simulator.dominant_member_values(system, members, u)
    ref = ref_dominant_member_values(
        system, members, u, table=simulator._amplitudes(system, members))
    if case in ONE_LEVEL:
        assert values.dtype == ref.dtype and values.shape == ref.shape
        assert np.all(np.abs(values - ref) <= lattice_bound(system, members, u))
    else:
        assert_bitwise(values, ref)


def test_lattice_table_only_on_a_filled_lattice():
    """The members' wave table A/rho on the height lattice, and one table
    per real part (the other levels' amplitudes masked), which sum to it."""
    for case, build in DOMINANT_CASES.items():
        system, members, _ = build()
        zeros, amps = simulator._amplitudes(system, members)
        amps, betas = amps / [z.rho for z in zeros], [z.beta for z in zeros]
        table = simulator._lattice_table(system, zeros, amps)
        assert (table is not None) == (case in ON_LATTICE
                                       or case == "no members"), case
        if case in ON_LATTICE:
            levels = [simulator._lattice_table(
                system, zeros, amps * np.equal(betas, beta))
                for beta in dict.fromkeys(betas)]
            assert (len(levels) == 1) == (case in ONE_LEVEL), case
            np.testing.assert_allclose(sum(levels), table, rtol=1e-12)


@pytest.mark.slow
def test_thm51_census_matches_loop_reference_values():
    """Every thm51 recipe for q <= 100, all units as members, 1024 samples:
    the census of the phasor-table values and of the loop reference's
    values, with the level weights frozen at base_u 0, agree in strict
    orderings, crossings and verdict."""
    for q in range(3, 101):
        recipe = build_thm51(q, tau=1000.0)
        units = residues.unit_group(q).units
        tr = simulator.one_period_trace(simulator.RaceFunctionSet(
            q, recipe.system, units, pi_proxy="zero"), samples=1024)
        ref = OrderingTrace(u=tr.u, members=tr.members, tie_tol=tr.tie_tol,
                            values=ref_dominant_member_values(
                                recipe.system, units, tr.u, at=0.0),
                            periodic=True)
        rep, ref_rep = census(tr), census(ref)
        assert rep.strict == ref_rep.strict, q
        assert rep.crossings == ref_rep.crossings, q
        assert verdict(rep, "thm51_upper", r=len(units)) \
            == verdict(ref_rep, "thm51_upper", r=len(units)), q


@pytest.mark.slow
def test_thm51_census_crossings_match_scan_reference():
    """Every thm51 recipe for q <= 100, all units as members, 2048 samples:
    the census's crossings, read on run edges and tied columns only, are
    those of the per-sample scan over every column."""
    for q in range(3, 101):
        recipe = build_thm51(q, tau=1000.0)
        tr = simulator.one_period_trace(simulator.RaceFunctionSet(
            q, recipe.system, residues.unit_group(q).units, pi_proxy="zero"),
            samples=2048)
        assert census(tr).crossings == scan_detect_crossings(tr), q


def test_corollary13_sum_matches_loop_reference():
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        chi3 = zerosys.load_zero_data(p)
    u = np.linspace(0.0, 40.0, 1001)
    ref = ref_dominant_member_values(
        chi3, [2, 1], u, table=simulator._amplitudes(chi3, [2, 1]))
    assert_bitwise(simulator.corollary13_sum(chi3, 2, 1, u), ref[0] - ref[1])
