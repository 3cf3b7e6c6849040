import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab.trigpoly import (_CHUNK, EPS, ResolutionTooCoarseError,
                              TrigPoly, _phasor_table, certified_positive_scan,
                              empirical_moments, eps1, eps2, eps_box,
                              eps_small_values, evaluate_phasors,
                              find_all_negative, find_dominating,
                              find_fractional_parts,
                              find_simultaneous_positive, l2_norm,
                              phasor_powers)

TWO_PI = 2 * math.pi


def random_poly(rng, n, f_lo=0.5, f_hi=8.0, c_hi=2.0):
    freqs = rng.uniform(f_lo, f_hi, n)
    while len(set(freqs)) < n:
        freqs = rng.uniform(f_lo, f_hi, n)
    coeffs = rng.uniform(0.1, c_hi, n) * rng.choice([-1.0, 1.0], n)
    phases = rng.uniform(0, TWO_PI, n)
    return TrigPoly(tuple(zip(coeffs, freqs, phases)))


def test_eval_examples():
    assert TrigPoly.sine([1.0], [1.0])(math.pi / 2) == pytest.approx(1.0)
    p = TrigPoly.sine([2.0, 0.5], [1.0, 6.0])
    assert p(0.0) == pytest.approx(0.0)
    q = TrigPoly.cosine([2.0, -0.5], [1.0, 6.0])
    assert q(0.0) == pytest.approx(1.5)


def test_construction_rejects_unequal_lengths():
    # zip would drop the extra entries of the longer list
    for build in (TrigPoly.sine, TrigPoly.cosine):
        for args in (([1.0, 1.0], [1.0]), ([1.0], [1.0, 2.0]),
                     ([1.0], [1.0], [0.0, 0.0]),
                     ([1.0, 1.0], [1.0, 2.0], [0.0])):
            with pytest.raises(ValueError, match="lengths differ"):
                build(*args)
    for beta in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="differ in length"):
            find_all_negative([1.0, math.sqrt(3)], beta)


def test_construction_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        TrigPoly(((1.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        TrigPoly(((1.0, 2.0, 0.0), (0.5, 2.0, 1.0)))
    # zero amplitudes are dropped, empty polynomial is fine
    assert TrigPoly(((0.0, 2.0, 0.0),)).n_terms == 0
    assert TrigPoly.zero().l2_norm() == 0.0


def test_l2_closed_forms():
    assert l2_norm(TrigPoly.sine([1.0], [1.0])) == pytest.approx(1 / math.sqrt(2))
    p = TrigPoly.sine([2.0, 0.5], [1.0, 6.0])
    assert l2_norm(p) == pytest.approx(math.sqrt(17 / 8))


def test_l2_empirical_agrees():
    # oracle: numeric time average over many periods
    p = TrigPoly.sine([2.0, 0.5], [1.0, 6.0])
    em = empirical_moments(p, TWO_PI * 1000, TWO_PI / 6 / 64)
    assert abs(em.l2 - math.sqrt(17 / 8)) < 1e-3
    assert abs(em.mean) < 1e-3


def test_moments_sine_symmetry():
    em = empirical_moments(TrigPoly.sine([1.0], [1.0]), TWO_PI * 1000,
                           TWO_PI / 64)
    assert abs(em.mean) < 1e-3
    assert abs(em.positive_fraction - 0.5) < 0.01
    assert em.sup_seen <= 1.0 + 1e-12


def test_moments_resolution_error():
    with pytest.raises(ResolutionTooCoarseError):
        empirical_moments(TrigPoly.sine([1.0], [1.0]), 100.0, TWO_PI)


def test_positive_fraction_lower_bound_small_sample():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        p = random_poly(rng, n)
        U = 1e4 * TWO_PI / p.min_freq
        em = empirical_moments(p, U, TWO_PI / p.max_freq / 8)
        assert em.positive_fraction >= 1 / (4 * n) - 0.01


def test_sup_at_least_half_max_coeff():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_poly(rng, int(rng.integers(1, 6)))
        U = 2e3 * TWO_PI / p.min_freq
        em = empirical_moments(p, U, TWO_PI / p.max_freq / 32)
        cmax = max(abs(c) for c, _, _ in p.terms)
        assert em.sup_seen >= cmax / 2 - 0.01 * p.amplitude_sum


def test_eps_constants():
    assert eps2(1) == pytest.approx(1 / 13)
    assert eps2(2) == pytest.approx(1 / 169)
    assert eps2(3) == pytest.approx(1 / 28561)
    assert eps1(1) == pytest.approx(1 / 400)
    assert eps_small_values(1, 1 / 3) == pytest.approx(1 / 60)


def test_fractional_parts_base_case():
    u = find_fractional_parts([1.0], 0.5)
    assert u == pytest.approx(0.5)
    assert (u * 1.0) % 1.0 == pytest.approx(0.5)


def test_fractional_parts_two_frequencies():
    alpha = 6 / 13
    u = find_fractional_parts([math.sqrt(2), 1.0], alpha)
    eps = eps_box(2, alpha)
    assert eps == pytest.approx(6 / 169)
    for s in (math.sqrt(2), 1.0):
        f = (u * s) % 1.0
        assert eps - 1e-12 <= f <= alpha + 1e-12


def test_fractional_parts_property():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        s = sorted(set(rng.uniform(0.2, 9.0, n)), reverse=True)
        while len(s) < n:
            s = sorted(set(rng.uniform(0.2, 9.0, n)), reverse=True)
        alpha = float(rng.uniform(0.25, 0.85))
        u = find_fractional_parts(s, alpha)
        eps = eps_box(n, alpha)
        for x in s:
            f = (u * x) % 1.0
            assert eps - 1e-12 <= f <= alpha + 1e-12


def test_fractional_parts_validation():
    with pytest.raises(ValueError):
        find_fractional_parts([1.0, 2.0], 0.5)  # not decreasing
    with pytest.raises(ValueError):
        find_fractional_parts([1.0], 1.5)


def test_all_negative_examples():
    u = find_all_negative([1.0], [0.0])
    assert math.sin(u) < -eps2(1)
    u2 = find_all_negative([1.0, math.sqrt(3)], [0.0, 0.0])
    assert math.sin(u2) < -eps2(2)
    assert math.sin(math.sqrt(3) * u2) < -eps2(2)


def test_all_negative_phase_bound():
    with pytest.raises(ValueError):
        find_all_negative([1.0], [0.5])  # phase way over eps2(1)


def test_simultaneous_positive_single_pair():
    cert = find_simultaneous_positive(TrigPoly.cosine([1.0], [1.0]),
                                      TrigPoly.sine([1.0], [1.0]))
    assert min(cert.margins) > 0
    u = cert.u
    assert math.cos(u) >= eps1(1) and math.sin(u) >= eps1(1)


def test_simultaneous_positive_two_frequencies():
    p = TrigPoly.cosine([1.0, 1.0], [1.0, 2.0])
    q = TrigPoly.sine([1.0, 1.0], [1.0, 2.0])
    cert = find_simultaneous_positive(p, q)
    assert min(cert.margins) > 0


def test_simultaneous_positive_boundary_phases():
    e1 = eps1(2)
    p = TrigPoly.cosine([1.0, -0.7], [1.0, 2.0], [e1, -e1])
    q = TrigPoly.sine([0.5, 1.2], [1.0, 2.0], [-e1, e1])
    cert = find_simultaneous_positive(p, q)
    assert min(cert.margins) > 0


def test_simultaneous_positive_frequency_mismatch():
    with pytest.raises(ValueError):
        find_simultaneous_positive(TrigPoly.cosine([1.0], [1.0]),
                                   TrigPoly.sine([1.0], [2.0]))


def test_find_dominating_single_term():
    q = TrigPoly.sine([1.0], [1.0])
    p = TrigPoly.cosine([1.0], [1.0])
    r = TrigPoly.zero()
    cert = find_dominating(q, p, r, gamma=0.5)
    u = cert.u
    assert math.sin(u) > max(abs(math.cos(u)), 0.0)
    assert cert.margins[0] > 0


def test_find_dominating_precondition():
    q = TrigPoly.sine([1.0], [1.0])
    p = TrigPoly.zero()
    r = TrigPoly.sine([1.0], [1.0])
    with pytest.raises(ValueError):
        find_dominating(q, p, r, gamma=0.5)  # sum|a| > gamma sum b fails


def test_certified_scan():
    sine = [TrigPoly.sine([1.0], [1.0])]
    rep = certified_positive_scan(TrigPoly.zero(), sine, 0.1, math.pi - 0.1,
                                  1e-3)
    assert rep.ok
    assert rep.min_value == pytest.approx(math.sin(0.1), abs=1e-3)
    assert rep.lower_bound == pytest.approx(math.sin(0.1), abs=1e-3)
    assert rep.lower_bound <= math.sin(0.1)
    bad = certified_positive_scan(TrigPoly.zero(), sine, 0.0, math.pi, 1e-3)
    assert not bad.ok  # endpoint zeros cannot be certified positive


def test_combine_merges_frequencies():
    a = TrigPoly.sine([1.0], [2.0])
    b = TrigPoly.cosine([1.0], [2.0])
    c = a + b
    assert c.n_terms == 1
    u = np.linspace(0, 7, 101)
    assert np.allclose(c(u), a(u) + b(u))


# --- the phasor-power evaluator ---------------------------------------------


@st.composite
def integer_frequency_polys(draw):
    """1-3 polynomials with integer frequencies k <= 16, phases of both
    signs, and points."""
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        ks = draw(st.lists(st.integers(1, 16), max_size=8, unique=True))
        polys.append(TrigPoly(tuple(
            (draw(st.floats(-2.0, 2.0)), float(k),
             draw(st.floats(-2 * math.pi, 2 * math.pi))) for k in ks)))
    v = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
    return polys, np.array(v)


def evaluate(polys, v):
    """Every polynomial at every point of v, from one phasor table."""
    return evaluate_phasors(_phasor_table(polys, 1.0), v)


def evaluate_bound(p):
    """evaluate_phasors' documented error bound for p."""
    return EPS * p.amplitude_sum * (6 * round(p.max_freq) + 4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_frequency_polys())
def test_evaluate_within_bound_of_mpmath(case):
    polys, v = case
    got = evaluate(polys, v)
    assert got.shape == (len(polys), len(v))
    with mpmath.workdps(40):
        for p, row in zip(polys, got):
            for x, y in zip(v, row):
                exact = sum(mpmath.mpf(c) * mpmath.sin(mpmath.mpf(t) * x
                                                       + mpmath.mpf(a))
                            for c, t, a in p.terms)
                assert abs(y - exact) <= evaluate_bound(p)


def test_evaluate_rejects_non_integer_frequency():
    for p in (TrigPoly.sine([1.0, 0.5], [1.0, 2.5]), TrigPoly.sine([1.0], [0.3])):
        with pytest.raises(ValueError, match="integer multiples"):
            evaluate([p], np.zeros(3))


def test_evaluate_empty_polynomial_is_zero():
    v = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(evaluate([TrigPoly.zero()], v), np.zeros((1, 7)))
    vals = evaluate([TrigPoly.zero(), TrigPoly.sine([1.0], [2.0])], v)
    assert np.array_equal(vals[0], np.zeros(7))
    assert np.allclose(vals[1], np.sin(2.0 * v), rtol=0, atol=1e-15)
    assert evaluate([], v).shape == (0, 7)
    assert evaluate([TrigPoly.sine([1.0], [2.0])], np.zeros(0)).shape == (1, 0)


def test_evaluate_longer_than_a_block_equals_its_blocks():
    rng = np.random.default_rng(5)
    polys = [TrigPoly.sine(rng.uniform(-1, 1, 7), np.arange(1.0, 8.0),
                           rng.uniform(-3, 3, 7)) for _ in range(4)]
    v = rng.uniform(0.0, TWO_PI, 2 * _CHUNK + 123)
    whole = evaluate(polys, v)
    for size in (_CHUNK, 1):
        parts = np.hstack([evaluate(polys, v[s:s + size])
                           for s in range(0, len(v), size)])
        assert whole.tobytes() == parts.tobytes()
    assert np.allclose(whole, [p(v) for p in polys], rtol=0, atol=1e-13)


@pytest.mark.parametrize("K", [1, 2, 7, 15, 16, 17, 40])
def test_evaluate_from_a_shared_power_table_equals_its_blocks(K):
    # a table built once over all of v is read in evaluate_phasors' own
    # blocks, so every value is the float the per-block powers give
    rng = np.random.default_rng(K)
    C = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))
    step = max(_CHUNK // K, 1)
    for n in sorted({1, 2, step - 1, step, step + 1, 4096} - {0}):
        v = np.linspace(0.0, TWO_PI, n, endpoint=False) + 0.25
        powers = phasor_powers(v, K)
        assert powers.shape == (K, n)
        rows = rng.integers(0, 3, n)
        assert (evaluate_phasors(C, v, powers=powers).tobytes()
                == evaluate_phasors(C, v).tobytes())
        assert (evaluate_phasors(C, v, rows, powers=powers).tobytes()
                == evaluate_phasors(C, v, rows).tobytes())


def test_trigpoly_record_semantics():
    p = TrigPoly(((1, 1, 0), (0.0, 2.0, 0.0), (2, 3, 0.5)))
    assert p.terms == ((1.0, 1.0, 0.0), (2.0, 3.0, 0.5))  # zero terms dropped
    assert p == TrigPoly(p.terms) and hash(p) == hash((p.terms,))
    assert p + TrigPoly.sine([1.0], [1.0]) == TrigPoly(((2.0, 1.0, 0.0),
                                                        (2.0, 3.0, 0.5)))
    assert p != p.terms
    with pytest.raises(TypeError):
        2 * p
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(AttributeError):
        p.terms = ()
