"""The depth-by-depth certified scan against the cell-by-cell bisection it
replaced.

The reference below is the earlier `certified_positive_scan`, kept verbatim
apart from its name: it tests every grid cell in Python and bisects failing
cells one at a time from a stack, right cell first.  The vectorized scan
must return the same ScanReport, field for field, on passing scans and on
every kind of failure.  Random objectives are sometimes quantized, so that
equal minima at several midpoints (and the tie-break they need) occur.
"""

import math
from typing import Callable, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab.barriers import scan_qpr_properties
from racelab.trigpoly import ScanReport, TrigPoly, certified_positive_scan

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

# scan_qpr_properties(step=1e-4).r_negative under the cell-by-cell bisection
PINNED_R_FAILURE = 3.1414916539399527
PINNED_R_MIN = -0.1325986585206163
PINNED_R_ARGMIN = 2.9347923777203646


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


def both(*args, **kwargs) -> Tuple[ScanReport, ScanReport]:
    return (certified_positive_scan(*args, **kwargs),
            ref_certified_positive_scan(*args, **kwargs))


@st.composite
def scans(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    freqs = draw(st.lists(st.floats(0.25, 12.0), min_size=n, max_size=n,
                          unique=True))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n,
                           max_size=n))
    p = TrigPoly.sine(coeffs, freqs, phases)
    # about the amplitude sum, so that f dips near zero and cells bisect
    offset = p.amplitude_sum * draw(st.floats(0.6, 1.2)) \
        + draw(st.sampled_from([0.0, 1e-3, -1e-3, 0.5]))
    quantum = draw(st.sampled_from([None, 2.0**-3, 2.0**-8]))

    def f(v):
        out = offset + p(v)
        return out if quantum is None else np.floor(out / quantum) * quantum

    lipschitz = (p.lipschitz_bound + draw(st.floats(0.0, 2.0))) \
        * draw(st.sampled_from([0.5, 1.0, 4.0]))
    lo = draw(st.floats(-4.0, 4.0))
    hi = lo + draw(st.floats(0.05, 7.0))
    step = draw(st.floats(0.01, 1.0))
    max_depth = draw(st.integers(min_value=0, max_value=16))
    return f, lipschitz, lo, hi, step, max_depth


@PROPERTY
@given(scans())
def test_matches_reference(case):
    f, lipschitz, lo, hi, step, max_depth = case
    new, ref = both(f, lipschitz, lo, hi, step, max_depth=max_depth)
    assert new == ref


def test_each_outcome_matches_reference():
    # passes after bisection
    new, ref = both(np.sin, 1.0, 0.1, math.pi - 0.1, 1e-3)
    assert new.ok and new.certified_step < 1e-3 and new == ref
    # fails on the grid: sin < 0 beyond pi; the rightmost cell is reported
    new, ref = both(np.sin, 1.0, 0.5, 4.0, 1e-3)
    assert new.failure_point == 4.0 and new.min_value == math.sin(4.0)
    assert new == ref
    # positive on the grid, negative at the depth-1 midpoints (h = 0.1)
    new, ref = both(lambda v: 0.5 + np.cos(20 * math.pi * v),
                    20 * math.pi, 0.0, 1.0, 0.1)
    assert not new.ok and new.min_value == pytest.approx(-0.5)
    assert new.failure_point == pytest.approx(0.95) and new == ref
    # never certified: the bisection runs out of depth
    new, ref = both(lambda v: np.ones_like(v), 1e6, 0.0, 1.0, 0.25,
                    max_depth=3)
    assert new.failure_point == 1 - 0.25 / 8 and new.certified_step == 0.25 / 8
    assert new == ref


def test_failing_r_scan_of_criterion_1():
    # acceptance 1b: R < 0 is false on [0.758, pi); the failure the scan
    # reports, and its margin, are those of the cell-by-cell bisection
    neg_r = scan_qpr_properties(step=1e-4).r_negative
    assert not neg_r.ok
    assert neg_r.failure_point == PINNED_R_FAILURE
    assert neg_r.min_value == PINNED_R_MIN
    assert neg_r.argmin == PINNED_R_ARGMIN


def test_rejects_empty_interval():
    with pytest.raises(ValueError, match="lo < hi"):
        certified_positive_scan(np.cos, 1.0, 1.0, 1.0, 0.1)
