import hashlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab.primes import (SEGMENT, BudgetExceededError,
                            InsufficientZeroDataError, InvalidPairError,
                            PrimeRaceTable, checkpoints_from_rule,
                            compare_with_simulator, first_lead_change,
                            iter_prime_segments, sieve_race, simple_sieve)
from racelab.zerosys import load_zero_data, parse_zero_lines


def trial_division_primes(limit):
    """Oracle: independent of the sieve implementation."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        prime = True
        while d * d <= n:
            if n % d == 0:
                prime = False
                break
            d += 1
        if prime:
            out.append(n)
    return out


def bundled_chi3_zeros():
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        return load_zero_data(p)


def test_sieve_matches_trial_division():
    oracle = trial_division_primes(10_000)
    assert simple_sieve(10_000).tolist() == oracle
    segmented = np.concatenate(list(iter_prime_segments(10_000, segment=512)))
    assert segmented.tolist() == oracle


def assert_segments_match_oracle(x_max, segment):
    """Each yielded array holds exactly simple_sieve's primes in its segment
    [lo, min(lo + segment, x_max + 1)), lo = 2, 2 + segment, ..."""
    oracle = simple_sieve(x_max)
    got = list(iter_prime_segments(x_max, segment))
    bounds = range(2, x_max + 1, segment)
    assert len(got) == len(bounds)
    for arr, lo in zip(got, bounds):
        hi = min(lo + segment, x_max + 1)
        assert arr.dtype == np.int64
        assert np.array_equal(arr, oracle[(oracle >= lo) & (oracle < hi)])


@pytest.mark.parametrize("segment", [2, 7, 64, 1000, SEGMENT])
def test_segments_match_simple_sieve_small_x(segment):
    # below, at and around the wheel primes, 17^2 and 19^2
    for x_max in range(601):
        assert_segments_match_oracle(x_max, segment)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 * 10**5), st.integers(50, 1 << 18))
def test_segments_match_simple_sieve(x_max, segment):
    assert_segments_match_oracle(x_max, segment)


def test_sieve_race_q7_golden():
    csv = sieve_race(7, 10**6).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == \
        "414b56fe88d972a292636b3b62b8ac222717bbed208415074f8922955119b88e"


def test_sieve_race_matches_simple_sieve():
    # checkpoints on both sides of the segment boundary 2 + SEGMENT, inside
    # the last segment (empty of primes at x_max = SEGMENT + 2), and past
    # x_max; every count is checked against simple_sieve
    x_max = SEGMENT + 2
    cps = [2, 3, 4, 97, SEGMENT - 1, SEGMENT + 1, SEGMENT + 2, SEGMENT + 3]
    ps = simple_sieve(x_max)
    for q in (3, 4, 12, 35):
        tab = sieve_race(q, x_max, checkpoint_rule=cps)
        assert tab.checkpoints.tolist() == cps[:-1]
        for x, pi, row in zip(tab.checkpoints, tab.pi, tab.counts):
            below = ps[ps <= x]
            assert pi == len(below)
            assert row.tolist() == [int(np.sum(below % q == a))
                                    for a in tab.residues]


def test_pi_at_million():
    tab = sieve_race(3, 10**6, checkpoint_rule=[10**6])
    assert tab.pi[-1] == 78498


def test_counts_at_100():
    # primes below 100 split 11 / 13 between the classes 1 and 2 mod 3
    tab = sieve_race(3, 100, checkpoint_rule=[100])
    assert tab.counts[-1].tolist() == [11, 13]


def test_q4_partition_identity():
    tab = sieve_race(4, 10**6)
    for i, x in enumerate(tab.checkpoints):
        excluded = 1 if x >= 2 else 0  # the prime 2 is not a unit mod 4
        assert tab.counts[i].sum() + excluded == tab.pi[i]


def test_counts_monotone():
    tab = sieve_race(5, 10**5)
    assert np.all(np.diff(tab.counts, axis=0) >= 0)
    assert np.all(np.diff(tab.pi) >= 0)


def test_checkpoint_rules():
    geo = checkpoints_from_rule("geometric:1.5", 1000)
    assert geo[0] == 2 and geo[-1] == 1000
    assert np.all(np.diff(geo) > 0)
    lin = checkpoints_from_rule("linear:100", 1000)
    assert lin[-1] == 1000
    explicit = checkpoints_from_rule([10, 500, 500, 2000], 1000)
    assert explicit.tolist() == [10, 500]
    with pytest.raises(ValueError):
        checkpoints_from_rule("geometric:0.9", 1000)
    with pytest.raises(ValueError):
        checkpoints_from_rule("linear:0", 1000)
    # no rule yields a point outside [2, x_max]
    for rule in ("geometric", "linear:5", [0, 1, 2]):
        for x_max in (-1, 0, 1):
            pts = checkpoints_from_rule(rule, x_max)
            assert pts.dtype == np.int64 and pts.size == 0


def test_first_lead_change_q4():
    x = first_lead_change(4, 1, 3, 10**5)
    assert x == 26861
    # oracle: exact prime-by-prime scan via trial division
    diff = 0
    initial = 0
    found = None
    for p in trial_division_primes(30000):
        if p % 4 == 1:
            diff += 1
        elif p % 4 == 3:
            diff -= 1
        else:
            continue
        if initial == 0:
            initial = int(np.sign(diff)) if diff else 0
            continue
        if diff != 0 and int(np.sign(diff)) != initial:
            found = p
            break
    assert found == x


def test_first_lead_change_none_within_budget():
    assert first_lead_change(3, 1, 2, 10**6) is None


def test_first_lead_change_validation():
    with pytest.raises(InvalidPairError):
        first_lead_change(4, 1, 1, 1000)
    with pytest.raises(InvalidPairError):
        first_lead_change(4, 2, 1, 1000)


def test_budget(monkeypatch):
    monkeypatch.setenv("RACE_LAB_BUDGET", "1000")
    with pytest.raises(BudgetExceededError):
        sieve_race(3, 10**4)
    with pytest.raises(BudgetExceededError):
        first_lead_change(4, 1, 3, 10**4)
    monkeypatch.delenv("RACE_LAB_BUDGET")
    sieve_race(3, 10**4)


def test_csv_roundtrip_bit_exact():
    tab = sieve_race(5, 10**4)
    back = PrimeRaceTable.from_csv(tab.to_csv())
    assert back.q == tab.q and back.residues == tab.residues
    assert np.array_equal(back.checkpoints, tab.checkpoints)
    assert np.array_equal(back.counts, tab.counts)
    assert np.array_equal(back.pi, tab.pi)
    assert back.to_csv() == tab.to_csv()


def test_compare_with_simulator_q3():
    zeros = bundled_chi3_zeros()
    tab = sieve_race(3, 10**6)
    rep = compare_with_simulator(tab, zeros, 0.5, 2, 1, x_min=1e3)
    assert rep.sign_agreement >= 0.9
    assert rep.bias_constant == pytest.approx(1.0)  # (N_3(1) - N_3(2))/2
    # antisymmetric in the pair
    rep2 = compare_with_simulator(tab, zeros, 0.5, 1, 2, x_min=1e3)
    assert rep2.bias_constant == pytest.approx(-1.0)
    assert np.allclose(rep2.scaled_difference, -rep.scaled_difference)


def test_compare_with_simulator_errors():
    tab = sieve_race(3, 10**4)
    empty = parse_zero_lines([], q=3)
    with pytest.raises(InsufficientZeroDataError):
        compare_with_simulator(tab, empty, 0.5, 2, 1)
    # every checkpoint lies below x_min: nothing to compare, not NaN
    with pytest.raises(InsufficientZeroDataError, match="x_min = 100000"):
        compare_with_simulator(tab, bundled_chi3_zeros(), 0.5, 2, 1, x_min=1e5)


def test_compare_same_residue_is_zero():
    zeros = bundled_chi3_zeros()
    tab = sieve_race(3, 10**4)
    rep = compare_with_simulator(tab, zeros, 0.5, 2, 2, x_min=100.0)
    assert np.all(rep.scaled_difference == 0)
    assert np.allclose(rep.predicted, 0.0)
    assert rep.sign_agreement == 1.0
