import hashlib
import io
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racelab import primes
from racelab.primes import (SEGMENT, BudgetExceededError,
                            InsufficientZeroDataError, InvalidPairError,
                            PrimeRaceTable, checkpoints_from_rule,
                            compare_with_simulator, first_lead_change,
                            sieve_race, simple_sieve)
from racelab.residues import InvalidModulusError, unit_group
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


def odd_row_primes(x_max, segment=SEGMENT):
    """The primes in [2, x_max]: 2, then the kernel's odd row n = 1 + 2k,
    one ascending array per segment [lo, lo + segment), lo = 2, 2 + segment,
    and so on."""
    if x_max < 2:
        return
    edges = [lo // 2 for lo in range(2, x_max + 1, segment)]
    yield np.array([2], dtype=np.int64)
    rows = primes._progression_sieve(2, x_max)
    for k0, mask in rows(1, edges + [(x_max + 1) // 2]):
        yield 2 * (np.flatnonzero(mask) + k0) + 1


def test_sieve_matches_trial_division():
    oracle = trial_division_primes(10_000)
    assert simple_sieve(10_000).tolist() == oracle
    segmented = np.concatenate(list(odd_row_primes(10_000, segment=512)))
    assert segmented.dtype == np.int64 and segmented.tolist() == oracle
    assert list(odd_row_primes(1)) == []


def assert_segments_match_oracle(x_max, segment):
    """The kernel's odd row n = 1 + 2k, cut at n = 2, 2 + segment, ...,
    yields one mask per segment [lo, min(lo + segment, x_max + 1)), true
    exactly at simple_sieve's odd primes in it, and nothing for x_max < 2."""
    is_prime = np.zeros(x_max + 2, dtype=bool)
    is_prime[simple_sieve(x_max)] = True
    edges = [lo // 2 for lo in range(2, x_max + 1, segment)]
    ends = edges[1:] + [(x_max + 1) // 2]
    got = list(primes._progression_sieve(2, x_max)(1, edges + ends[-1:]))
    assert [k0 for k0, _ in got] == edges
    for (k0, mask), k1 in zip(got, ends):
        assert mask.dtype == bool
        assert np.array_equal(mask, is_prime[1 + 2 * np.arange(k0, k1)])


@pytest.mark.parametrize("segment", [2, 7, 64, 1000, SEGMENT])
def test_segments_match_simple_sieve_small_x(segment):
    # below, at and around the wheel primes, 17^2 and 19^2
    for x_max in range(601):
        assert_segments_match_oracle(x_max, segment)


@pytest.mark.parametrize("segment", [2, 3, 64, 100, 1000])
def test_segments_carry_strike_offsets(segment):
    # the 27 base primes from 19 to 139 carry their next strike across
    # many segment edges, landing on every offset in a segment
    assert_segments_match_oracle(20_000, segment)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 * 10**5), st.integers(50, 1 << 18))
def test_segments_match_simple_sieve(x_max, segment):
    assert_segments_match_oracle(x_max, segment)


def assert_prefix_counts(mask, pos):
    """_prefix_counts equals the Trues of mask below each sorted position,
    read off the list of True slots."""
    pos = np.sort(np.asarray(pos, dtype=np.int64))
    got = primes._prefix_counts(mask, pos)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(np.flatnonzero(mask), pos))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 300), st.sampled_from(["random", "all", "none"]),
       st.sampled_from(["sparse", "dense"]), st.data())
def test_prefix_counts_match_flatnonzero(n, fill, density, data):
    # lengths of every residue mod 8, masks random, all True or all False,
    # a few positions or more positions than slots, repeats, 0 and len
    if fill == "random":
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
    else:
        mask = np.full(n, fill == "all")
    most = 3 if density == "sparse" else 4 * n + 4
    pos = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=most))
    pos += data.draw(st.sampled_from([[], [0], [n], [0, n], [n, n, 0, 0]]))
    assert_prefix_counts(mask, pos)


def test_prefix_counts_long_masks():
    # segment-sized masks: a few cuts far apart, and many cuts per word
    rng = np.random.default_rng(7)
    for n in (SEGMENT // 2, SEGMENT // 2 - 5):
        mask = rng.random(n) < 0.1
        assert_prefix_counts(mask, [0, 1, 7, 8, 9, n // 3, n - 1, n])
        assert_prefix_counts(mask, rng.integers(0, n + 1, 3 * n))


def ref_sieve_race(q, x_max, checkpoint_rule="geometric:1.01"):
    """Reference: the per-prime sieve_race that the mask counting replaced
    (prime arrays reduced with % q, repeat and bincount)."""
    residues = unit_group(q).units
    phi = len(residues)
    # class column of each residue mod q; primes dividing q go to column phi
    col = np.full(q, phi, dtype=np.int64)
    col[list(residues)] = np.arange(phi)
    cps = checkpoints_from_rule(checkpoint_rule, int(x_max))
    # hist[i]: primes per column in (cps[i-1], cps[i]]; the last row takes
    # the primes above the last checkpoint
    hist = np.zeros((len(cps) + 1, phi + 1), dtype=np.int64)
    for primes in odd_row_primes(int(x_max)):
        if not len(primes):
            continue
        # rows first..last take the segment's primes, cut at the checkpoints
        # cps[first:last] that fall inside it
        first, last = np.searchsorted(cps, primes[[0, -1]])
        cuts = np.searchsorted(primes, cps[first:last], side="right")
        rows = last - first + 1
        slot = np.repeat(np.arange(rows),
                         np.diff(cuts, prepend=0, append=len(primes)))
        slot *= phi + 1
        slot += col[primes % q]
        hist[first:last + 1] += np.bincount(
            slot, minlength=rows * (phi + 1)).reshape(rows, phi + 1)
    cum = np.cumsum(hist[:-1], axis=0)
    counts, pi = cum[:, :phi], cum.sum(axis=1)
    return PrimeRaceTable(q=q, residues=residues, checkpoints=cps,
                          counts=counts, pi=pi)


def assert_same_table(q, x_max, rule):
    got, want = sieve_race(q, x_max, rule), ref_sieve_race(q, x_max, rule)
    assert got.residues == want.residues
    assert np.array_equal(got.checkpoints, want.checkpoints)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.pi, want.pi)
    assert got.counts.dtype == got.pi.dtype == np.int64


# the segments start at n = 2 + j * SEGMENT
EDGE_PRIMES = simple_sieve(2 * SEGMENT + 3)
EDGE_CHECKPOINTS = sorted(
    [2, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 18, 19, 20, 360, 361, 362]
    + [int(p) + e for p in EDGE_PRIMES[:40] for e in (-1, 0, 1)]
    + [lo + e for lo in (2 + SEGMENT, 2 + 2 * SEGMENT)
       for e in range(-4, 4)]
    + [int(p) + e for lo in (2 + SEGMENT, 2 + 2 * SEGMENT)
       for p in EDGE_PRIMES[np.searchsorted(EDGE_PRIMES, lo) - 2:
                            np.searchsorted(EDGE_PRIMES, lo) + 2]
       for e in (-1, 0, 1)]
    + [SEGMENT + 2, 2 * SEGMENT + 10, 10**9])
REF_X_MAX = [0, 1, 2, 3] + [SEGMENT * j + d for j in (1, 2)
                            for d in (-1, 0, 1, 2)]


@pytest.mark.parametrize("q", list(range(3, 41)) + [60, 210])
def test_sieve_race_matches_reference(q):
    # checkpoints at 2, at primes and their neighbours, at and around the
    # segment edges, duplicated, and above x_max
    for x_max in REF_X_MAX:
        assert_same_table(q, x_max, EDGE_CHECKPOINTS
                          + [x_max - 1, x_max, x_max, x_max + 1])
    assert_same_table(q, 2 * SEGMENT + 2, "geometric:1.01")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 100), st.integers(0, 5 * 10**6), st.data())
def test_sieve_race_matches_reference_property(q, x_max, data):
    cps = data.draw(st.lists(st.integers(-3, x_max + 3), max_size=60))
    assert_same_table(q, x_max, cps)


def expected_rows(q, x_max):
    """The rows n = c + d j that sieve_race sieves, restated: d = 2rw for
    the largest r | m, m = q / gcd(q, 2), with x_max >= r * SEGMENT, and,
    once r = m, w the product of the odd primes 3, 5, 7, ... not dividing q,
    taken in order while each lowers the modelled cost of the rows (per
    row: SLOT_S per slot, SLICE_S per base prime above 17 and segment, and
    ROW_S); one row per c < d prime to d, its slots j with 2 <= n <= x_max
    cut into the fewest equal segments of at most SEGMENT / 2 slots."""
    m = q // math.gcd(q, 2)
    r = max(r for r in range(1, m + 1) if m % r == 0
            and (r == 1 or r * SEGMENT <= x_max))
    base = int(np.sum(simple_sieve(math.isqrt(x_max)) > 17))

    def cost(d):
        slots = x_max // d + 1
        per_row = (primes.SLOT_S * slots + primes.ROW_S + primes.SLICE_S
                   * base * math.ceil(slots / (SEGMENT // 2)))
        return per_row * sum(math.gcd(c, d) == 1 for c in range(1, d, 2))

    w = 1
    for p in [3, 5, 7, 11, 13, 17] * (r == m):
        if q % p == 0:
            continue
        if cost(2 * r * w * p) >= cost(2 * r * w):
            break
        w *= p
    d = 2 * r * w
    rows = {}
    for c in range(1, d, 2):
        if math.gcd(c, d) == 1:
            lo, hi = int(c == 1), (x_max - c) // d + 1
            parts = -(-(hi - lo) // (SEGMENT // 2))
            rows[c] = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
    return d, rows


def spy_rows(monkeypatch):
    """Record (d, c) -> edges of every row that sieve_race sieves."""
    seen = {}
    kernel = primes._progression_sieve

    def spy(d, x_max):
        rows = kernel(d, x_max)

        def recorded(c, edges):
            seen[d, c] = list(edges)
            return rows(c, edges)
        return recorded

    monkeypatch.setattr(primes, "_progression_sieve", spy)
    return seen


# (q, x_max, r): r = 1 with many segments; 1 < r < m, odd and even, with
# sub-classes inside each row; r = m with more than one segment per row, or
# with w > 1 where the cost model takes wheel primes (WHEELED: its d = 2rw)
WHEELED = {(3, 10**8): 30, (4, 3 * 10**7): 60, (8, 3 * 10**7): 24,
           (12, 3 * 10**7): 60, (13, 3 * 10**7): 78}


@pytest.mark.parametrize("q,x_max,r", [
    (1009, 10**6, 1), (1009, 3 * 10**7, 1), (35, 3 * 10**7, 7),
    (60, 3 * 10**7, 10), (13, 3 * 10**7, 13), (12, 3 * 10**7, 6),
    (9, 3 * 10**7, 9), (3, 10**8, 3), (4, 3 * 10**7, 2),
    (8, 3 * 10**7, 4)])
def test_sieve_race_rows_match_reference(monkeypatch, q, x_max, r):
    d, rows = expected_rows(q, x_max)
    assert d == WHEELED.get((q, x_max), 2 * r)
    assert r == 1 or max(map(len, rows.values())) > 2 or d > 2 * r
    seen = spy_rows(monkeypatch)
    sieve_race(q, x_max, [x_max])
    monkeypatch.undo()
    assert seen == {(d, c): edges for c, edges in rows.items()}
    # checkpoints on both sides of every row-segment edge, and at the primes
    # dividing q or d: those dividing d lie in no row
    cps = [c + d * e + k for c, edges in rows.items() for e in edges
           for k in (-d, -1, 0, 1, d)]
    cps += [int(p) + k for p in simple_sieve(max(q, d))
            if q % p == 0 or d % p == 0 for k in (-1, 0, 1)]
    assert_same_table(q, x_max, cps + [x_max - 1, x_max])


@pytest.mark.parametrize("q,x_max", [(3, 10**6), (4, 2 * 10**6),
                                     (13, 10**6 + 7)])
def test_sieve_race_every_wheel_layout(monkeypatch, q, x_max):
    # every d = 2m w the cost model chooses among, forced, while a row keeps
    # 300 slots, at segments of 2^15 slots; and the model's own choice
    monkeypatch.setattr(primes, "SEGMENT", 1 << 16)
    m = q // math.gcd(q, 2)
    ds = [2 * m * math.prod(p for p in (3, 5, 7, 11, 13, 17)[:k] if q % p)
          for k in range(7)]
    ds = sorted(d for d in set(ds) if x_max // d >= 300)
    assert primes._row_layout(q, x_max)[0] in ds and len(ds) >= 4
    cps = [x_max // 7 * k + e for k in range(8) for e in (-1, 0, 1)]
    assert_same_table(q, x_max, cps)
    for d in ds:
        monkeypatch.setattr(primes, "_row_layout", lambda *_: (d, 1))
        assert_same_table(q, x_max, cps)


@pytest.mark.parametrize("d", [2, 2 * 3 * 5 * 7 * 11, 2 * 3 * 5 * 7 * 11 * 13])
def test_rows_tile_the_wheel_period(d):
    # segments shorter than, as long as and longer than the wheel pattern's
    # period P (255255, 221 and 17 slots), from phases on both sides of its
    # end, and one segment across several periods
    period = math.prod(p for p in primes.WHEEL if d % p)
    edges = [1, period - 3, period + 2, 2 * period + 2, 2 * period + 5,
             4 * period + 1, 5 * period + 1, 5 * period + 2, 9 * period - 1,
             9 * period + 40]
    x_max = d * edges[-1]
    is_prime = np.zeros(x_max + 1, dtype=bool)
    is_prime[simple_sieve(x_max)] = True
    rows = primes._progression_sieve(d, x_max)
    for c in [c for c in range(1, min(d, 60), 2) if math.gcd(c, d) == 1]:
        got = list(rows(c, edges))
        assert [j0 for j0, _ in got] == edges[:-1]
        for (j0, mask), j1 in zip(got, edges[1:]):
            assert np.array_equal(mask, is_prime[c + d * np.arange(j0, j1)])


@pytest.mark.parametrize("d", [2, 4, 6, 26, 38, 210, 2 * 19 * 23, 30030,
                               2 * 3 * 5 * 7 * 11 * 13 * 17 * 19])
def test_progression_rows_match_simple_sieve(d):
    # every row c < 400 prime to d, at uneven segments: a wheel prime or a
    # base prime as c, wheel and base primes dividing d, patterns shorter
    # and longer than a row
    x_max = 10**6
    is_prime = np.zeros(x_max + 1, dtype=bool)
    is_prime[simple_sieve(x_max)] = True
    rows = primes._progression_sieve(d, x_max)
    for c in range(1, min(d, 400), 2):
        if math.gcd(c, d) > 1:
            continue
        lo = int(c == 1)
        hi = max((x_max - c) // d + 1, lo)
        edges = [lo, *range(lo + 1, hi, 4999), hi]
        got = list(rows(c, edges))
        assert [j0 for j0, _ in got] == edges[:-1]
        assert np.array_equal(np.concatenate([mask for _, mask in got]),
                              is_prime[c + d * np.arange(lo, hi)])


def test_pi_powers_of_ten_to_1e8():
    cps = [10**k for k in range(3, 9)]
    tab = sieve_race(3, 10**8, checkpoint_rule=cps)
    assert tab.pi.tolist() == [168, 1229, 9592, 78498, 664579, 5761455]
    ref = ref_sieve_race(3, 10**8, checkpoint_rule=cps)
    assert np.array_equal(tab.counts, ref.counts)
    assert np.array_equal(tab.pi, ref.pi)


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


def test_count_refuses_non_units():
    # a is taken mod q; a residue outside the unit group is named with q,
    # as a missing checkpoint is named
    tab = sieve_race(3, 1000, [10, 100, 1000])
    assert tab.count(1, 100) == 11 and tab.count(5, 100) == 13
    for a in (0, 3, 6):
        with pytest.raises(ValueError, match=f"^{a} is not a unit mod 3$"):
            tab.count(a, 100)
    with pytest.raises(ValueError, match="^50 is not a checkpoint$"):
        tab.count(1, 50)


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
    for rule in ("linear:0", "linear:inf", "linear:nan", "geometric:nan"):
        with pytest.raises(ValueError):
            checkpoints_from_rule(rule, 1000)
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


def test_first_lead_change_checks_modulus_first():
    # race validates its pair through first_lead_change before any sieve
    for q in (0, 1, 2):
        with pytest.raises(InvalidModulusError):
            first_lead_change(q, 0, 0, 1000)


LEAD_PRIMES = simple_sieve(10**5)


def ref_lead_change(q, a, b, x_max):
    """Reference: the running sign of pi_{q,a} - pi_{q,b} over simple_sieve's
    primes reduced mod q, 2 included, and the first prime where it turns
    against its first nonzero value."""
    ps = LEAD_PRIMES[LEAD_PRIMES <= x_max]
    hits = ps[(ps % q == a) | (ps % q == b)]
    cums = np.cumsum(np.where(hits % q == a, 1, -1))
    nz = np.flatnonzero(cums)
    if not len(nz):
        return None
    flips = np.flatnonzero(np.sign(cums[nz[0]:]) == -np.sign(cums[nz[0]]))
    return int(hits[nz[0] + flips[0]]) if len(flips) else None


def assert_lead_changes_match(q, pairs, xs):
    """first_lead_change equals the reference for each pair at each x, and
    at the reference's flip x and one below it."""
    for a, b in pairs:
        for x in xs:
            want = ref_lead_change(q, a, b, x)
            assert first_lead_change(q, a, b, x) == want, (q, a, b, x)
            if want is not None:
                assert first_lead_change(q, a, b, want) == want
                assert first_lead_change(q, a, b, want - 1) is None


def unit_pairs(q, first=None):
    units = unit_group(q).units[:first]
    return [(a, b) for a in units for b in units if a != b]


@pytest.mark.parametrize("q", list(range(3, 41)) + [60, 210, 1009])
def test_first_lead_change_matches_reference(q):
    # every ordered unit pair (the first six units for 1009) up to 1e5, and
    # for small q also at x below 2, at and around 2 and below d
    xs = [10**5] + [-3, 0, 1, 2, 3, 10, 100, 3000] * (q <= 13)
    assert_lead_changes_match(q, unit_pairs(q, 6 if q == 1009 else None), xs)


@pytest.mark.parametrize("segment,xs", [(2, [3000]), (64, [3000, 10**5])])
def test_first_lead_change_across_segment_edges(monkeypatch, segment, xs):
    # SEGMENT / 2 slots of 1 and 32: both rows cross hundreds of edges,
    # with row 1 starting one slot after the other row
    monkeypatch.setattr(primes, "SEGMENT", segment)
    for q in (3, 4, 5, 7, 8, 12, 13, 30):
        assert_lead_changes_match(q, unit_pairs(q), xs)


def test_first_lead_change_edge_cases():
    # 2 lies in no row: for odd q it puts its class ahead at x = 2, so the
    # flips come at 83 and 17, where without it they come at 157 and 2459
    for q, a, b, flip in ((3, 2, 1, None), (5, 2, 3, 83), (5, 3, 2, 83),
                          (7, 2, 3, 17), (7, 3, 2, 17)):
        assert first_lead_change(q, a, b, 2) is None
        assert first_lead_change(q, a, b, 10**5) == flip
    # row c = 1 with x_max below d = 2q / gcd(q, 2)
    for q, x in ((1009, 1000), (210, 209), (7, 13)):
        for b in unit_group(q).units[1:4]:
            assert first_lead_change(q, 1, b, x) == ref_lead_change(q, 1, b, x)
    # x_max below 2, and a pair that never flips up to 1e5
    for x in (-5, 0, 1):
        assert first_lead_change(4, 1, 3, x) is None
        assert first_lead_change(3, 2, 1, x) is None
    assert first_lead_change(3, 2, 1, 10**5) is None


def test_first_lead_change_segments_grow_from_small(monkeypatch):
    # the flip at 26861 = 1 + 4 * 6715 of a race to 3e7 lies in the third
    # segment, s + 2s + 4s slots with s = SEGMENT / 1024, and no more of the
    # two rows (row 1 from slot 1) is sieved
    sieved = {}
    progression_sieve = primes._progression_sieve

    def spy(d, x_max):
        rows = progression_sieve(d, x_max)

        def spied_rows(c, edges):
            for j0, mask in rows(c, edges):
                sieved.setdefault(c, []).append(len(mask))
                yield j0, mask
        return spied_rows

    monkeypatch.setattr(primes, "_progression_sieve", spy)
    assert first_lead_change(4, 3, 1, 3 * 10**7) == 26861
    s = SEGMENT >> 10
    assert sieved == {3: [s, 2 * s, 4 * s], 1: [s - 1, 2 * s, 4 * s]}


def test_budget(monkeypatch):
    monkeypatch.setenv("RACE_LAB_BUDGET", "1000")
    for refused in (lambda: sieve_race(3, 10**4),
                    lambda: first_lead_change(4, 1, 3, 10**4)):
        with pytest.raises(BudgetExceededError) as exc:
            refused()
        assert str(exc.value) == ("x_max 10000 exceeds budget 1000 "
                                  "(RACE_LAB_BUDGET)")
    monkeypatch.delenv("RACE_LAB_BUDGET")
    sieve_race(3, 10**4)


def test_checkpoint_rows_over_budget(monkeypatch):
    # budget 3000 with phi(3) + 1 = 3 columns leaves 1000 checkpoint rows,
    # and phi(5) + 1 = 5 columns leave 600
    monkeypatch.setenv("RACE_LAB_BUDGET", "3000")
    for rule in ("linear:1", "linear:1.99", "geometric:1.000000000001",
                 "geometric:1.0001", list(range(2, 1003))):
        with pytest.raises(BudgetExceededError, match="rows x 3 columns"):
            sieve_race(3, 2000, checkpoint_rule=rule)
    for rule in ("linear:2", "geometric:1.01", list(range(2, 1002))):
        assert len(sieve_race(3, 2000, checkpoint_rule=rule).pi) <= 1000
    # linear:2 is exactly 1000 rows: at the limit for q = 3, over it at 5
    assert len(sieve_race(3, 2000, checkpoint_rule="linear:2").pi) == 1000
    with pytest.raises(BudgetExceededError, match="1000 rows x 5 columns"):
        sieve_race(5, 2000, checkpoint_rule="linear:2")
    # a linear row count is exact, a geometric one an upper bound within 5
    for x_max in (0, 1, 2, 3, 999, 1000, 1001):
        for step in (1, 2, 3, 7):
            rows = len(checkpoints_from_rule(f"linear:{step}", x_max))
            checkpoints_from_rule(f"linear:{step}", x_max, 3000 // rows
                                  if rows else 3000)
            if rows:
                with pytest.raises(BudgetExceededError):
                    checkpoints_from_rule(f"linear:{step}", x_max,
                                          3000 // rows + 1)
        for ratio in ("1.5", "1.01", "1.001"):
            rows = len(checkpoints_from_rule(f"geometric:{ratio}", x_max))
            checkpoints_from_rule(f"geometric:{ratio}", x_max,
                                  3000 // (rows + 5) if rows else 3000)


def table_from_csv(text):
    """The PrimeRaceTable that `to_csv` wrote."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = json.loads(lines[0].lstrip("# "))
    data = np.array([[int(v) for v in ln.split(",")] for ln in lines[2:]],
                    dtype=np.int64)
    return PrimeRaceTable(q=header["q"], residues=tuple(header["residues"]),
                          checkpoints=data[:, 0], pi=data[:, 1],
                          counts=data[:, 2:])


def test_csv_roundtrip_bit_exact():
    tab = sieve_race(5, 10**4)
    back = table_from_csv(tab.to_csv())
    assert back.q == tab.q and back.residues == tab.residues
    assert np.array_equal(back.checkpoints, tab.checkpoints)
    assert np.array_equal(back.counts, tab.counts)
    assert np.array_equal(back.pi, tab.pi)
    assert back.to_csv() == tab.to_csv()


def ref_to_csv(table):
    """PrimeRaceTable.to_csv written one formatted cell at a time."""
    buf = io.StringIO()
    buf.write("# " + json.dumps({"q": table.q,
                                 "residues": list(table.residues)}) + "\n")
    buf.write("x,pi," + ",".join(f"pi_{a}" for a in table.residues) + "\n")
    for i, x in enumerate(table.checkpoints):
        row = ",".join(str(int(c)) for c in table.counts[i])
        buf.write(f"{int(x)},{int(table.pi[i])},{row}\n")
    return buf.getvalue()


@pytest.mark.parametrize("q,x_max", [(3, 10**6), (60, 10**5), (2003, 10**6),
                                     (7, 1)])
def test_csv_matches_cellwise_reference(q, x_max):
    table = sieve_race(q, x_max)
    assert table.to_csv() == ref_to_csv(table)


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
    # zeros only on the real character mod 5, which takes one value at 1
    # and 4: no separating character carries zeros
    from racelab.residues import characters
    real = next(i for i, c in enumerate(characters(5)) if c.order == 2)
    zeros5 = parse_zero_lines([f"q=5 chi={real} gamma=6.6"])
    with pytest.raises(InsufficientZeroDataError, match="separating"):
        compare_with_simulator(sieve_race(5, 10**4), zeros5, 0.5, 4, 1)
    # the real character does separate 2 from 1
    rep = compare_with_simulator(sieve_race(5, 10**4), zeros5, 0.5, 2, 1)
    assert len(rep.checkpoints) > 0


def test_compare_same_residue_is_zero():
    zeros = bundled_chi3_zeros()
    tab = sieve_race(3, 10**4)
    rep = compare_with_simulator(tab, zeros, 0.5, 2, 2, x_min=100.0)
    assert np.all(rep.scaled_difference == 0)
    assert np.allclose(rep.predicted, 0.0)
    assert rep.sign_agreement == 1.0
