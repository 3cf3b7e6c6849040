"""The Taylor-cell certified scan against the Lipschitz bisection it
replaced.

The reference below is the earlier `certified_positive_scan`, kept verbatim
apart from its name, with the report record it returned: it samples a
callable f at the grid points and bisects every cell whose smaller end
value is not above (cell width) * L / 2, one at a time from a stack.  It
ignores the rounding of f.  The Taylor-cell scan certifies max_i B_i - A > 0
for trigonometric polynomials, rounding included, so against the reference
on the same objective it must never pass where the reference sampled a
value <= 0, and its certified lower bound must lie below every value the
reference sampled.  Where it fails at a point whose float value is below
zero by more than its rounding bound, the objective there must be <= 0 at
40 digits.
"""

import math
from typing import Callable, List, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import findroot, mp, mpf, sin

from racelab import trigpoly
from racelab.barriers import SQRT3_UP, qpr_polys, scan_qpr_properties
from racelab.trigpoly import (TrigPoly, _phasor_table, certified_positive_scan,
                              evaluate_phasors)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

# scan_qpr_properties(step=1e-4).r_negative: the failure is the first cell
# midpoint past the real zero of R at v = 2.742893
PINNED_R_FAILURE = 2.742943049502039
PINNED_R_MIN = -0.13259864937646004
PINNED_R_ARGMIN = 2.9348423775452845


class ScanReport(NamedTuple):
    """The report of the Lipschitz reference scan."""

    ok: bool
    min_value: float
    argmin: float
    certified_step: float
    lipschitz: float
    failure_point: float | None = None


def ref_certified_positive_scan(f: Callable[[np.ndarray], np.ndarray],
                                lipschitz: float, lo: float, hi: float,
                                step: float, max_depth: int = 40) -> ScanReport:
    """Certify f > 0 on [lo, hi]: each grid cell needs min endpoint value
    > (cell width) * L / 2; cells failing that are bisected recursively.

    f must accept an ndarray of points.  Returns the minimum sampled value
    (the reported margin) and the finest step used.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    pts = np.linspace(lo, hi, max(int(math.ceil((hi - lo) / step)) + 1, 3))
    vals = np.asarray(f(pts), dtype=float)
    min_val = float(vals.min())
    argmin = float(pts[int(vals.argmin())])
    finest = float(pts[1] - pts[0])

    stack: List[Tuple[float, float, float, float, int]] = []
    width = pts[1] - pts[0]
    need = width * lipschitz / 2.0
    for i in range(len(pts) - 1):
        if min(vals[i], vals[i + 1]) <= need:
            stack.append((pts[i], pts[i + 1], vals[i], vals[i + 1], 0))
    while stack:
        a, b, fa, fb, depth = stack.pop()
        if fa <= 0.0 or fb <= 0.0:
            bad = a if fa <= fb else b
            return ScanReport(False, min(min_val, fa, fb), argmin, finest,
                              lipschitz, failure_point=float(bad))
        if min(fa, fb) > (b - a) * lipschitz / 2.0:
            continue
        if depth >= max_depth:
            return ScanReport(False, min_val, argmin, finest, lipschitz,
                              failure_point=float(a))
        m = 0.5 * (a + b)
        fm = float(f(np.array([m]))[0])
        finest = min(finest, (b - a) / 2.0)
        if fm < min_val:
            min_val, argmin = fm, m
        stack.append((a, m, fa, fm, depth + 1))
        stack.append((m, b, fm, fb, depth + 1))
    return ScanReport(True, min_val, argmin, finest, lipschitz)


def direct_objective(base: TrigPoly, branches):
    """max_i B_i - A term by term, and its Lipschitz bound."""
    def f(v):
        return np.max(np.vstack([p(v) for p in branches]), axis=0) - base(v)
    return f, max(base.lipschitz_bound + p.lipschitz_bound for p in branches)


def exact_objective(base: TrigPoly, branches, v) -> mpf:
    """max_i B_i(v) - A(v) in 40 digits, the float terms taken as exact."""
    with mp.workdps(40):
        def value(p):
            return sum((mpf(c) * sin(mpf(t) * mpf(v) + mpf(a))
                        for c, t, a in p.terms), mpf(0))
        return max(value(p) for p in branches) - value(base)


def float_objective(base: TrigPoly, branches, v: float) -> float:
    """max_i B_i(v) - A(v) as the scan evaluates it, from the phasor rows
    C_i - C_0, within its rounding term delta."""
    C = _phasor_table([base, *branches], 1.0)
    return float(evaluate_phasors(C[1:] - C[0], np.array([v])).max())


@st.composite
def polys(draw, scale):
    n = draw(st.integers(min_value=0, max_value=4))
    coeffs = draw(st.lists(st.floats(-scale, scale), min_size=n, max_size=n))
    freqs = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n,
                          unique=True))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n,
                           max_size=n))
    return TrigPoly.sine(coeffs, [float(k) for k in freqs], phases)


@st.composite
def scans(draw):
    base = draw(polys(0.5))
    rest = draw(st.lists(polys(0.5), min_size=1, max_size=3))
    lo = draw(st.floats(-4.0, 4.0))
    hi = lo + draw(st.floats(0.05, 3.0))
    # a wave of frequency 1 that peaks inside [lo, hi] lifts every branch,
    # so that the objective is positive on some intervals and dips to zero
    # on others
    size = base.amplitude_sum + max(p.amplitude_sum for p in rest)
    lift = TrigPoly.sine([size * draw(st.floats(0.6, 1.6))], [1.0],
                         [math.pi / 2 - draw(st.floats(lo, hi))])
    branches = [lift + p for p in rest]
    step = draw(st.floats(0.01, 1.0))
    max_depth = draw(st.integers(min_value=0, max_value=16))
    return base, branches, lo, hi, step, max_depth


@PROPERTY
@given(scans())
def test_matches_reference(case):
    base, branches, lo, hi, step, max_depth = case
    new = certified_positive_scan(base, branches, lo, hi, step,
                                  max_depth=max_depth)
    ref = ref_certified_positive_scan(*direct_objective(base, branches),
                                      lo, hi, step, max_depth=max_depth)
    if ref.min_value <= 0.0:
        assert not new.ok
    assert new.lower_bound <= ref.min_value
    assert new.lower_bound <= new.min_value
    if new.ok:
        assert new.lower_bound > 0.0 and new.failure_point is None
        return
    point = new.failure_point
    assert lo <= point <= hi
    if float_objective(base, branches, point) + new.delta <= 0.0:
        assert exact_objective(base, branches, point) <= 0


def both(base, branches, lo, hi, step, max_depth=40):
    """The Taylor-cell scan and the reference on the same objective."""
    new = certified_positive_scan(base, branches, lo, hi, step,
                                  max_depth=max_depth)
    ref = ref_certified_positive_scan(*direct_objective(base, branches),
                                      lo, hi, step, max_depth=max_depth)
    assert new.ok == ref.ok
    return new, ref


def test_each_outcome_matches_reference():
    zero, sine = TrigPoly.zero(), TrigPoly.sine([1.0], [1.0])
    # passes after splitting the two end cells: sin v > 1e-9 near 0 and pi;
    # the reference bisects to a step of 2e-9 there
    new, ref = both(zero, [sine], 1e-9, math.pi - 1e-9, 1e-3)
    assert new.ok and 1e-5 < new.certified_step < 1e-3
    assert 0.0 < new.lower_bound <= ref.min_value == 1e-9
    # fails at a grid-cell midpoint: sin < 0 beyond pi, and the leftmost
    # failing cell is the first one past pi
    new, ref = both(zero, [sine], 0.5, 4.0, 1e-3)
    assert not new.ok and math.pi < new.failure_point < math.pi + 1e-3
    assert new.lower_bound <= new.min_value == pytest.approx(math.sin(4.0),
                                                            abs=1e-3)
    # -cos 8v is 1 at the 8 grid-cell midpoints, 0 at those of depth 1 and
    # first negative at pi / 32, a midpoint of depth 2; the reference fails
    # at once, on the grid points
    new, ref = both(zero, [TrigPoly.cosine([-1.0], [8.0])], 0.0, 2 * math.pi,
                    2 * math.pi / 8)
    assert not new.ok
    assert new.failure_point == pytest.approx(math.pi / 32)
    assert new.certified_step == pytest.approx(2 * math.pi / 32)
    assert new.min_value == pytest.approx(-math.sqrt(0.5))
    # never certified: the splits run out of depth at the left end
    new, ref = both(zero, [sine], 1e-9, math.pi - 1e-9, 1e-3, max_depth=2)
    width = (math.pi - 2e-9) / math.ceil((math.pi - 2e-9) / 1e-3)
    assert not new.ok and new.certified_step == pytest.approx(width / 4)
    assert new.failure_point == pytest.approx(1e-9 + width / 8)


def test_refuses_a_margin_below_delta():
    # sin v >= sin 1e-15 ~ 1e-15 on the interval, below the rounding bound
    # of one evaluation: positive, but not certifiably so
    rep = certified_positive_scan(TrigPoly.zero(), [TrigPoly.sine([1.0], [1.0])],
                                  1e-15, math.pi - 1e-15, 1e-3)
    assert not rep.ok and rep.delta > 1e-15
    assert rep.lower_bound <= 1e-15


@pytest.mark.parametrize("phase", [0.3, 0.7, 1.1, 2.0])
@pytest.mark.parametrize("coeff", [1.0, 1.7])
def test_refuses_near_cancelling_rows_beside_their_zero(phase, coeff):
    # B = (1 + 2^-30) A: B - A = 2^-30 c sin(v + phase) is tiny, but the
    # phasor rows of A and B round by EPS c each, which moves the computed
    # zero of their difference by up to ~1e-7; both sides of the true zero
    # pi - phase are negative for one order of A and B
    a = TrigPoly.sine([coeff], [1.0], [phase])
    b = a.scale(1 + 2.0 ** -30)
    zero = math.pi - phase
    for base, branch, lo, hi in ((a, b, zero + 1e-12, zero + 1e-8),
                                 (b, a, zero - 1e-8, zero - 1e-12)):
        assert max(exact_objective(base, [branch], v) for v in (lo, hi)) < 0
        rep = certified_positive_scan(base, [branch], lo, hi, 1e-3)
        assert not rep.ok
        assert exact_objective(base, [branch], rep.failure_point) <= 0
        assert rep.lower_bound <= exact_objective(base, [branch], rep.argmin)


def test_failing_r_scan_of_criterion_1():
    # acceptance 1b: R < 0 is false on [0.758, pi); the scan names the first
    # cell midpoint past the real zero of R, and its margin is the least
    # value of -R over every midpoint evaluated
    neg_r = scan_qpr_properties(step=1e-4).r_negative
    assert not neg_r.ok
    assert neg_r.failure_point == PINNED_R_FAILURE
    assert neg_r.min_value == PINNED_R_MIN
    assert neg_r.argmin == PINNED_R_ARGMIN
    _, _, r = qpr_polys()
    with mp.workdps(40):
        zero = findroot(lambda v: sum(mpf(c) * sin(mpf(t) * v + mpf(a))
                                      for c, t, a in r.terms), mpf(2.7429))
        assert zero < neg_r.failure_point <= zero + mpf(1e-4)


def test_qpr_lower_bounds_hold_at_40_digits():
    q, p, r = qpr_polys()
    scan = scan_qpr_properties(step=1e-4, r_interval=(0.758, 2.72))
    pieces = [(q.scale(SQRT3_UP), [p, p.scale(-1.0)], 0.0, 0.759),
              (q.scale(SQRT3_UP), [p, p.scale(-1.0)], 2.7, 2 * math.pi),
              (r, [TrigPoly.zero()], 0.758, 2.72)]
    for rep, (base, branches, lo, hi) in zip(
            [*scan.p_dominates, scan.r_negative], pieces):
        assert rep.ok and 0.0 < rep.lower_bound <= rep.min_value
        assert rep.lower_bound <= exact_objective(base, branches, rep.argmin)
        grid = np.linspace(lo, hi, 400)
        assert min(exact_objective(base, branches, v) for v in grid) \
            >= rep.lower_bound


def test_rejects_empty_interval():
    with pytest.raises(ValueError, match="lo < hi"):
        certified_positive_scan(TrigPoly.zero(), [TrigPoly.cosine([1.0], [1.0])],
                                1.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="branch"):
        certified_positive_scan(TrigPoly.zero(), [], 0.0, 1.0, 0.1)


def test_rejects_non_integer_frequencies():
    with pytest.raises(ValueError, match="integer multiples"):
        certified_positive_scan(TrigPoly.zero(), [TrigPoly.sine([1.0], [0.5])],
                                0.0, 1.0, 0.1)


@pytest.fixture
def sizes(monkeypatch):
    """The point count of every evaluation the scan makes."""
    made, evaluate_phasors = [], trigpoly.evaluate_phasors

    def counting(C, v, rows=None):
        made.append(len(v))
        return evaluate_phasors(C, v, rows)

    monkeypatch.setattr(trigpoly, "evaluate_phasors", counting)
    return made


def test_refuses_a_grid_over_budget(monkeypatch, sizes):
    from racelab.primes import BudgetExceededError
    monkeypatch.setenv("RACE_LAB_BUDGET", "1000")
    base, branches = TrigPoly.zero(), [TrigPoly.cosine([1.0], [1.0])]
    # 1000 cells are 1001 points; 999 cells fit
    with pytest.raises(BudgetExceededError, match="1001 points"):
        certified_positive_scan(base, branches, 0.0, 1.0, 1e-3)
    with pytest.raises(BudgetExceededError, match="inf points"):
        certified_positive_scan(base, branches, 0.0, 1.0, 1e-320)
    assert not sizes
    assert certified_positive_scan(base, branches, 0.0, 0.999, 1e-3).ok


def test_refuses_a_bisection_over_budget(monkeypatch, sizes):
    from racelab.primes import BudgetExceededError
    monkeypatch.setenv("RACE_LAB_BUDGET", "1000")
    # sin v + sin(400 v)/2 > 0.3 on [1, 2], but its curvature certifies no
    # cell of the first four depths, so the 10 cells of the 11-point grid
    # double at every depth; the 80 cells of depth 3 would bring the values
    # held to 11 + 5 * 150 + 8 * 80 > 1000
    branch = TrigPoly.sine([1.0, 0.5], [1.0, 400.0])
    with pytest.raises(BudgetExceededError, match="to depth 4 exceeds"):
        certified_positive_scan(TrigPoly.zero(), [branch], 1.0, 2.0, 0.1)
    assert sizes == [10, 20, 40, 80]


# the scan of test_refuses_a_bisection_over_budget
WAVY = (TrigPoly.zero(), [TrigPoly.sine([1.0, 0.5], [1.0, 400.0])], 1.0, 2.0,
        0.1)


def block_cases():
    """Scans whose reports must not depend on the scan's block size."""
    from racelab import barriers
    sine = TrigPoly.sine([1.0], [1.0])
    return [
        # the QPR pieces, and the refused R < 0 scan on [0.758, pi - 1e-6]
        lambda: scan_qpr_properties(step=1e-4),
        lambda: scan_qpr_properties(step=1e-4, r_interval=(0.758, 2.72)),
        # the three thm311 objectives, made anew
        lambda: [barriers._thm311_scan.__wrapped__(case)
                 for case in ("even_cyclic", "n8", "z4z2")],
        # fails at depth 0, where the end cells of 3142 are not certified
        lambda: certified_positive_scan(TrigPoly.zero(), [sine], 1e-9,
                                        math.pi - 1e-9, 1e-3, max_depth=0),
        # every cell splits at depths 1 to 3, so those span several blocks
        lambda: certified_positive_scan(*WAVY),
        # fails at depth 2, first at pi / 32 of the midpoints where -cos 8v
        # is negative
        lambda: certified_positive_scan(TrigPoly.zero(),
                                        [TrigPoly.cosine([-1.0], [8.0])],
                                        0.0, 2 * math.pi, 2 * math.pi / 8),
        # an objective of exactly 0: every midpoint ties for the minimum
        lambda: certified_positive_scan(sine, [sine], 0.0, 1.0, 0.01),
    ]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_size_does_not_change_the_report(monkeypatch, block):
    from racelab.primes import BudgetExceededError

    def refusal():
        with monkeypatch.context() as budget:
            budget.setenv("RACE_LAB_BUDGET", "1000")
            with pytest.raises(BudgetExceededError) as err:
                certified_positive_scan(*WAVY)
        return str(err.value)

    whole = [case() for case in block_cases()]
    refused = refusal()
    assert "to depth 4 exceeds" in refused
    assert not whole[0].ok and whole[0].r_negative.failure_point is not None
    assert not whole[3].ok and whole[4].ok and whole[4].certified_step < 0.01
    assert whole[5].failure_point == pytest.approx(math.pi / 32)
    assert whole[6].min_value == 0.0 and whole[6].argmin == 0.005
    monkeypatch.setattr(trigpoly, "_CHUNK", block)
    assert [case() for case in block_cases()] == whole
    assert refusal() == refused


def test_memory_is_bounded_by_a_block_not_the_grid():
    import tracemalloc
    q, p, _ = qpr_polys()
    tracemalloc.start()
    try:
        # 3.6 million cells at depth 0
        rep = certified_positive_scan(q.scale(SQRT3_UP), [p, p.scale(-1.0)],
                                      2.7, 2 * math.pi, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.certified_step < 1e-6
    assert peak < 16e6


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf),
                                    (-math.inf, math.inf), (math.nan, 1.0)])
def test_rejects_an_infinite_interval(lo, hi):
    with pytest.raises(ValueError, match="need a finite interval"):
        certified_positive_scan(TrigPoly.zero(), [TrigPoly.sine([1.0], [1.0])],
                                lo, hi, 0.1)


def test_blocks_are_whole_evaluation_blocks(sizes):
    # from K = 16 powers on, the floats of `evaluate_phasors` depend on its
    # blocks of _CHUNK // K points; the scan's blocks are whole ones, 40 of
    # 153 points at K = 40, so each value is the one a single call per
    # depth gives
    branch = TrigPoly.sine([3.0] + [0.01] * 39, np.arange(1.0, 41.0))
    rep = certified_positive_scan(TrigPoly.zero(), [branch], 0.5, 2.5, 1e-4)
    assert rep.ok and rep.certified_step == pytest.approx(1e-4)
    assert sizes == [6120, 6120, 6120, 1640]
