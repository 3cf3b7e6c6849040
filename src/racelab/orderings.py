"""Ordering census over sampled race traces, crossing detection, and the
label-preserving-forest lower bound on the number of orderings.

Orderings admit non-strict inequalities: a sample where members tie within
tolerance carries every ordering compatible with the tie blocks.  The strict
census is taken over tie-free samples (between crossings the strict ordering
is constant, so a dense grid sees every arc).

Every sample is ordered at once by one kernel, `column_orders`: a stable
descending argsort of each column, the gaps between neighbours in that
order, and the mask of tie-free columns.  Through a run of strict columns
with one order every member pair keeps its sign, so the consumers read only
run edges and tied columns (`run_edges`): the census groups the run heads
with `np.unique`, and crossing detection finds the flips and tie runs of
all member pairs there.  `barriers.check_omega_type` sorts no candidate: it
orders only its reference with `column_orders` and tests each column's two
known orderings neighbour pair by neighbour pair.

The ordering graph joins strict orderings that follow each other in the
trace and differ by one adjacent transposition, labelled by the member pair
it swaps.  A cycle of that graph returns to its starting permutation, so
each pair swaps an even number of times on it: every label on a cycle
repeats, and any spanning forest keeps every label of the graph.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

import numpy as np

from .budget import Record


class MissingLabelError(RuntimeError):
    """Some pair of members never crosses in the window (no KT evidence)."""


class InconclusiveWindowError(RuntimeError):
    """Census still growing at the window edge; a longer window is needed."""


Chain = Tuple[Tuple[int, ...], ...]  # descending tie blocks of member indices


class _OrderingTrace(NamedTuple):
    u: np.ndarray
    members: Tuple[int, ...]
    values: np.ndarray
    tie_tol: float
    periodic: bool


class OrderingTrace(_OrderingTrace):
    """Sampled member values over a u-grid.

    values has shape (n_members, n_samples).  periodic=True means the
    samples cover one period evenly, so the first follows the last (a seam
    that crossing detection closes); the census is still sampled.
    """

    __slots__ = ()

    def __new__(cls, u, members: Tuple[int, ...], values, tie_tol: float = 1e-9,
                periodic: bool = False) -> "OrderingTrace":
        u = np.asarray(u, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(members), len(u)):
            raise ValueError("values must be (n_members, n_samples)")
        return super().__new__(cls, u, members, values, tie_tol, periodic)

    @property
    def n_members(self) -> int:
        return len(self.members)


def column_orders(values: np.ndarray, tie_tol: float,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ordering kernel: for each column of values (members x samples),
    the member indices in descending order of value (a stable sort, so tied
    members keep index order), the gaps between neighbours in that order,
    and the mask of strict columns (every gap > tie_tol)."""
    order = np.argsort(-values, axis=0, kind="stable")
    gaps = -np.diff(np.take_along_axis(values, order, axis=0), axis=0)
    return order, gaps, np.all(gaps > tie_tol, axis=0)


def _chain(order: np.ndarray, cuts: np.ndarray) -> Chain:
    """Tie blocks of one column: the order split where its gap is a cut."""
    blocks = np.split(order, np.flatnonzero(cuts) + 1)
    return tuple(tuple(sorted(b.tolist())) for b in blocks)


def run_edges(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The run-edge rule: masks of the first and the last column of each run
    of equal neighbouring columns of keys.  With a key that holds the order
    and the strict flag, every member pair keeps its sign through a run, so
    only run edges and tied columns can change an ordering."""
    change = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    return np.r_[True, change], np.r_[change, True]


class Crossing(NamedTuple):
    pair: Tuple[int, int]          # member indices (i, j), i < j
    u_enter: float
    u_exit: float
    sign_before: int               # sign of value_i - value_j before
    sign_after: int


# pair x column cells per block of member pairs in detect_crossings
_PAIR_BLOCK = 1 << 19


def _pair_crossings(values: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                    tie_tol: float) -> Tuple[np.ndarray, ...]:
    """Crossings of the pairs (ii, jj) over the columns of values, ties
    within tie_tol read as sign 0: direct flips, then tie runs whose signs
    before and after differ, as the arrays (i, j, key column, enter, exit,
    sign before, sign after)."""
    diff = np.take(values, ii, axis=0)
    diff -= np.take(values, jj, axis=0)
    state = (diff > 0).view(np.int8) - (diff < 0).view(np.int8)
    state[np.abs(diff) <= tie_tol] = 0
    p, k = np.nonzero(state[:, :-1] * state[:, 1:] < 0)
    flips = (p, k, k, k + 1, state[p, k], state[p, k + 1])
    edges = np.diff(np.pad(state == 0, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rp, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1] - 1
    inner = (start > 0) & (end + 1 < state.shape[1])
    rp, start, end = rp[inner], start[inner], end[inner]
    before, after = state[rp, start - 1], state[rp, end + 1]
    cross = before != after
    runs = (rp[cross], start[cross] - 1, start[cross], end[cross],
            before[cross], after[cross])
    p, *rest = (np.concatenate(col) for col in zip(flips, runs))
    return (ii[p], jj[p], *rest)


def detect_crossings(trace: OrderingTrace,
                     kept: np.ndarray | None = None) -> List[Crossing]:
    """Sign changes of value_i - value_j (i < j), ties within tie_tol read as
    sign 0.  A direct flip between neighbouring samples is a crossing; so is
    a maximal tie run whose signs before and after differ.  A run starting at
    the first sample is never a crossing, and a run reaching the last sample
    has sign 0 after it, unless the trace is periodic: then it is read on, a
    period (n mean steps) later, into a run's end, so crossings at the seam
    count, their u_exit past the last sample.  Crossings come sorted by
    u_enter, ties in (i, j, sample) order.

    Only the columns where an ordering can change are read (`run_edges`):
    tied ones, the first and the last, and those whose (order, strict) key
    differs from a neighbour's, unless the caller passes them as kept.  All
    pairs are read at once, in blocks of at most _PAIR_BLOCK cells."""
    u, n = trace.u, len(trace.u)
    if kept is None:
        order, _, strict = column_orders(trace.values, trace.tie_tol)
        heads, tails = run_edges(np.vstack([order, strict]))
        kept = np.flatnonzero(heads | tails | ~strict)
    first = len(kept)
    if trace.periodic and n > 1:
        # read on, a period later, up to the first strict column (a run
        # head, so kept): every run across the seam has ended there
        strict = np.flatnonzero(column_orders(trace.values.take(kept, axis=1),
                                              trace.tie_tol)[2])
        kept = np.r_[kept, kept[:strict[0] + 1 if len(strict) else first] + n]
        u = np.r_[u, u + (u[-1] - u[0]) / (n - 1) * n]
    values = trace.values.take(kept % n, axis=1)
    ii, jj = np.triu_indices(trace.n_members, 1)
    step = max(1, _PAIR_BLOCK // max(len(kept), 1))
    blocks = [_pair_crossings(values, ii[s:s + step], jj[s:s + step],
                              trace.tie_tol)
              for s in range(0, max(len(ii), 1), step)]  # one, if no pairs
    cols = [np.concatenate(col) for col in zip(*blocks)]
    i, j, key, enter, exit_, sb, sa = (c[cols[2] < first] for c in cols)
    key, enter, exit_ = kept[key], kept[enter], kept[exit_]
    pick = np.lexsort((key, j, i, u[enter]))
    return [Crossing((a, b), ue, ux, s0, s1)
            for a, b, ue, ux, s0, s1 in zip(*(col[pick].tolist() for col in (
                i, j, u[enter], u[exit_], sb, sa)))]


class CensusReport(Record):
    """What `census` saw: strict maps each ordering to its first and last u,
    weak counts each observed tie chain, sequence holds the arc starts."""

    __slots__ = _fields = ("members", "strict", "weak", "crossings",
                           "sequence", "window", "periodic", "sample_counts")

    def __init__(self, members: Tuple[int, ...],
                 strict: Dict[Tuple[int, ...], Tuple[float, float]],
                 weak: Dict[Chain, int], crossings: List[Crossing],
                 sequence: List[Tuple[float, Tuple[int, ...]]],
                 window: Tuple[float, float], periodic: bool,
                 sample_counts: Dict[Tuple[int, ...], int] | None = None) -> None:
        self.members, self.strict, self.weak, self.crossings = (
            members, strict, weak, crossings)
        self.sequence, self.window, self.periodic = sequence, window, periodic
        self.sample_counts = {} if sample_counts is None else sample_counts

    @property
    def strict_count(self) -> int:
        return len(self.strict)

    def _label(self, perm: Tuple[int, ...]) -> str:
        return ">".join(f"a{self.members[i]}" for i in perm)

    def labels(self) -> List[str]:
        return sorted(map(self._label, self.strict))

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "strict_count": self.strict_count,
            "orderings": self.labels(),
            "counts": {self._label(p): self.sample_counts.get(p, 0)
                       for p in sorted(self.strict)},
            "crossings": [{"pair": [self.members[c.pair[0]],
                                    self.members[c.pair[1]]],
                           "u_enter": c.u_enter, "u_exit": c.u_exit,
                           "sign_before": c.sign_before,
                           "sign_after": c.sign_after}
                          for c in self.crossings],
            "window": list(self.window),
            "periodic": self.periodic,
            # sampled either way, whatever the label says; a window is only
            # a lower bound on what happens for ever-larger x
            "census_kind": "exact-period" if self.periodic
                           else "window-lower-bound",
        }


def census(trace: OrderingTrace) -> CensusReport:
    """All orderings observed on the sampled window.

    Strict orderings are collected at tie-free samples; tied samples are
    recorded as weak chains (their strict expansions occur on neighboring
    arcs, so the strict census between crossings is complete on a grid that
    resolves every arc).  Both dicts keep first-occurrence order.

    A column's key is its order plus where its tie blocks cut.  Neighbouring
    columns almost always share a key, so the columns are cut into runs of
    equal keys, and only the run heads are grouped with `np.unique`; first
    and last samples, sample counts and the sequence come from the run
    starts and lengths.
    """
    r = trace.n_members
    order, gaps, tie_free = column_orders(trace.values, trace.tie_tol)
    keys = np.concatenate([order, gaps > trace.tie_tol],
                          dtype=np.min_scalar_type(r), casting="unsafe")
    heads, ends = run_edges(keys)
    # finer runs than detect_crossings' only between tied columns, kept anyway
    kept = np.flatnonzero(heads | ends | ~tie_free)
    heads, ends = np.flatnonzero(heads), np.flatnonzero(ends)
    groups, first, run_group = np.unique(
        keys[:, heads], axis=1, return_index=True, return_inverse=True)
    run_group = run_group.reshape(-1)
    first = heads[first]
    last = np.zeros(len(first), dtype=np.intp)
    np.maximum.at(last, run_group, ends)
    counts = np.zeros(len(first), dtype=np.intp)
    np.add.at(counts, run_group, ends - heads + 1)
    u = trace.u
    strict: Dict[Tuple[int, ...], Tuple[float, float]] = {}
    sample_counts: Dict[Tuple[int, ...], int] = {}
    weak: Dict[Chain, int] = {}
    perms: Dict[int, Tuple[int, ...]] = {}  # group id -> strict permutation
    strict_group = np.all(groups[r:], axis=0)
    for g in np.argsort(first).tolist():
        if strict_group[g]:
            perm = perms[g] = tuple(groups[:r, g].tolist())
            strict[perm] = (float(u[first[g]]), float(u[last[g]]))
            sample_counts[perm] = int(counts[g])
        else:
            chain = _chain(groups[:r, g], groups[r:, g])
            weak[chain] = weak.get(chain, 0) + int(counts[g])
    # the strict ordering sequence: strict runs, merged where the runs
    # between two of the same ordering are all tied
    runs = np.flatnonzero(strict_group[run_group])
    ids = run_group[runs]
    new = np.diff(ids, prepend=-1) != 0
    sequence = [(float(u[heads[k]]), perms[g])
                for k, g in zip(runs[new].tolist(), ids[new].tolist())]
    return CensusReport(members=trace.members, strict=strict, weak=weak,
                        crossings=detect_crossings(trace, kept),
                        sequence=sequence, window=(float(u[0]), float(u[-1])),
                        periodic=trace.periodic, sample_counts=sample_counts)


# --- ordering graph and the forest lower bound --------------------------------


class OrderingGraph(NamedTuple):
    vertices: List[Tuple[int, ...]]
    edges: List[Tuple[int, int, FrozenSet[int]]]  # vertex idx, vertex idx, label


def _adjacent_transposition(p1: Tuple[int, ...], p2: Tuple[int, ...],
                            ) -> FrozenSet[int] | None:
    diff = [k for k in range(len(p1)) if p1[k] != p2[k]]
    if len(diff) == 2 and diff[1] == diff[0] + 1 \
            and p1[diff[0]] == p2[diff[1]] and p1[diff[1]] == p2[diff[0]]:
        return frozenset((p1[diff[0]], p1[diff[1]]))
    return None


def build_ordering_graph(report: CensusReport) -> OrderingGraph:
    """Vertices are observed strict orderings; edges join orderings adjacent
    in the trace that differ by one neighbor transposition, labeled by the
    crossing pair."""
    verts = sorted(report.strict)
    index = {p: i for i, p in enumerate(verts)}
    edges: set[Tuple[int, int, FrozenSet[int]]] = set()
    seq = [p for _, p in report.sequence]
    if report.periodic and len(seq) > 1:
        seq = seq + [seq[0]]
    for p1, p2 in zip(seq, seq[1:]):
        if p1 == p2:
            continue
        label = _adjacent_transposition(p1, p2)
        if label is not None:
            i, j = sorted((index[p1], index[p2]))
            edges.add((i, j, label))
    return OrderingGraph(vertices=verts, edges=sorted(edges, key=str))


class TuranBound(NamedTuple):
    graph: OrderingGraph
    forest_edges: Tuple[Tuple[int, int, FrozenSet[int]], ...]
    lower_bound: int
    labels_covered: int


def turan_graph_bound(report: CensusReport) -> TuranBound:
    """Extract a label-preserving forest from the ordering graph and return
    the resulting lower bound (#forest edges + 1) on the ordering census.

    Requires every pair of members to cross at least once in the window.
    Any spanning forest then keeps every pair label: going round a cycle of
    the ordering graph returns to the same permutation, so every pair of
    members swaps an even number of times on it, and each label occurs an
    even number of times on every cycle.
    """
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
    # one union-find pass keeps each edge that joins two components; an edge
    # that closes a cycle has its label (an even count) on the forest path
    root = list(range(len(graph.vertices)))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest = []
    for a, b, lab in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            forest.append((a, b, lab))
    return TuranBound(graph=graph, forest_edges=tuple(forest),
                      lower_bound=len(forest) + 1,
                      labels_covered=len({lab for _, _, lab in forest}))


# --- claim verdicts -------------------------------------------------------------


class Verdict(NamedTuple):
    claim: str
    ok: bool
    detail: dict

    def to_dict(self) -> dict:
        return {"claim": self.claim, "ok": self.ok, "detail": self.detail}


def _check_window_conclusive(report: CensusReport) -> None:
    if report.periodic:
        return
    lo, hi = report.window
    tail = hi - 0.05 * (hi - lo)
    growing = any(first >= tail for first, _ in report.strict.values())
    if growing:
        raise InconclusiveWindowError(
            "new orderings still appearing near the window edge; "
            "extend the window")


def verdict(report: CensusReport, claim: str, member: int | None = None,
            r: int | None = None) -> Verdict:
    """Evaluate a census claim.

    extremal_exact: census == r(r-1)/2 + 1;  thm51_upper: census <= r(r-1);
    kt_all_pairs: every pair crosses in the window;  lead_trail: the given
    member both strictly leads and strictly trails somewhere.
    """
    r = r if r is not None else len(report.members)
    n = report.strict_count
    if claim == "lead_trail" and member not in report.members:
        raise ValueError(f"lead_trail needs a member of the trace, one "
                         f"of {list(report.members)}; got {member}")
    if len(report.members) == 1:
        return Verdict(claim, True, {"orderings": 1, "note": "single member"})
    if claim == "extremal_exact":
        _check_window_conclusive(report)
        want = r * (r - 1) // 2 + 1
        return Verdict(claim, n == want, {"orderings": n, "expected": want})
    if claim == "thm51_upper":
        _check_window_conclusive(report)
        cap = r * (r - 1)
        return Verdict(claim, n <= cap, {"orderings": n, "cap": cap})
    if claim == "kt_all_pairs":
        crossed = {tuple(sorted(c.pair)) for c in report.crossings}
        pairs = list(itertools.combinations(range(len(report.members)), 2))
        missing = [p for p in pairs if p not in crossed]
        return Verdict(claim, not missing,
                       {"missing_pairs": [[report.members[i], report.members[j]]
                                          for i, j in missing]})
    if claim == "lead_trail":
        idx = report.members.index(member)
        leads = any(p[0] == idx for p in report.strict)
        trails = any(p[-1] == idx for p in report.strict)
        return Verdict(claim, leads and trails,
                       {"leads": leads, "trails": trails})
    raise ValueError(f"unknown claim {claim!r}")
