import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit.arithmetic import build_system, from_offsets
from sievekit.errors import BudgetExceeded, Int64Overflow, LimitTooLarge
from sievekit.search import (
    count_at_most,
    density_report,
    histogram_to_csv,
    omega_profile,
)


def naive_omega(m):
    c = 0
    d = 2
    while d * d <= m:
        while m % d == 0:
            c += 1
            m //= d
        d += 1
    return c + (1 if m > 1 else 0)


def naive_profile(L, x):
    counts = Counter()
    excluded = 0
    for n in range(1, x + 1):
        vals = [a * n + b for a, b in L.forms]
        if any(v == 0 for v in vals):
            excluded += 1
            continue
        counts[sum(naive_omega(abs(v)) for v in vals)] += 1
    return dict(sorted(counts.items())), excluded


class TestProfile:
    def test_single_form_ten(self, tuple_n):
        h = omega_profile(tuple_n, 10)
        assert h.counts == {0: 1, 1: 4, 2: 4, 3: 1}
        assert h.excluded == 0

    def test_twin_three(self, twin):
        # n=1 -> 3 (Omega 1), n=2 -> 8 (Omega 3), n=3 -> 15 (Omega 2);
        # recomputed by direct enumeration
        h = omega_profile(twin, 3)
        assert h.counts == {1: 1, 2: 1, 3: 1}

    def test_empty(self, twin):
        h = omega_profile(twin, 0)
        assert h.counts == {} and h.excluded == 0

    def test_mass_conservation(self, twin):
        h = omega_profile(twin, 5000)
        assert h.total() == 5000

    @pytest.mark.parametrize("offsets", [[0], [0, 2], [0, 2, 6]])
    def test_against_naive(self, offsets):
        L = from_offsets(offsets)
        h = omega_profile(L, 3000)
        counts, excluded = naive_profile(L, 3000)
        assert h.counts == counts
        assert h.excluded == excluded

    def test_general_forms_with_zero_values(self):
        # 3n - 9 ... not coprime; use (2n - 5)(n + 1) and (1n - 7)
        L = build_system([[2, -5], [1, 1]])
        h = omega_profile(L, 500)
        counts, excluded = naive_profile(L, 500)
        assert h.counts == counts and h.excluded == excluded
        Lz = build_system([[1, -7]])
        hz = omega_profile(Lz, 20)
        assert hz.excluded == 1  # n = 7
        assert hz.total() == 20

    @pytest.mark.parametrize("forms,x", [
        # a > 1: the primes dividing a (3 and 5; 3 for 9) divide no value
        # of their own form
        ([[3, 1], [5, -2]], 4000),
        ([[9, 2], [1, 1]], 4000),
        # negative values, the values -1 and 1, and a zero at n = 1000
        ([[-3, 2000], [1, -1000]], 4000),
        # 2^12 | n at n = 4096 and 3^8 | 2n - 1 at n = 3281
        ([[1, 0], [2, -1]], 5000),
    ])
    def test_prime_power_classes_against_naive(self, forms, x):
        L = build_system(forms)
        h = omega_profile(L, x)
        counts, excluded = naive_profile(L, x)
        assert h.counts == counts and h.excluded == excluded
        for seg in (7, 997):
            hs = omega_profile(L, x, segment_size=seg)
            assert hs.counts == h.counts and hs.excluded == h.excluded

    def test_segment_size_invariance(self, twin):
        a = omega_profile(twin, 20000, segment_size=1 << 17)
        b = omega_profile(twin, 20000, segment_size=997)
        assert a.counts == b.counts and a.excluded == b.excluded

    @pytest.mark.parametrize("size", [0, -5])
    def test_segment_size_below_one(self, twin, size):
        with pytest.raises(ValueError, match="segment_size"):
            omega_profile(twin, 100, segment_size=size)

    def test_thread_invariance(self, twin):
        base = omega_profile(twin, 100_000, threads=1)
        for t in (4, 8):
            h = omega_profile(twin, 100_000, threads=t)
            assert h.counts == base.counts
            assert h.excluded == base.excluded

    def test_budget(self, twin):
        with pytest.raises(BudgetExceeded):
            omega_profile(twin, 10 ** 9)

    def test_int64_guard(self):
        # 10 * 2^62 + 1 leaves int64; the guard fires before the prime
        # table up to sqrt(10 * 2^62) would hit its cap
        with pytest.raises(Int64Overflow):
            omega_profile(build_system([[1 << 62, 1]]), 10)
        # the value 2^62 + 1 fits, but 2 * 2^62 on the way to it does not
        with pytest.raises(Int64Overflow):
            omega_profile(build_system([[1 << 62, 1 - (1 << 62)]]), 2)
        # 2^62 + 1 fits in int64: the guard passes and the table cap stops it
        with pytest.raises(LimitTooLarge):
            omega_profile(build_system([[1 << 62, 1]]), 1)


class TestCounts:
    def test_twin_pairs_to_100(self, twin):
        # n = 1 gives L = 3 with a single prime factor, plus the eight
        # twin-prime n: 3, 5, 11, 17, 29, 41, 59, 71
        assert count_at_most(twin, 100, 2) == 9

    def test_prime_count_identity(self, tuple_n):
        # Omega <= 1 means n = 1 or n prime: 1 + pi(100) = 26
        assert count_at_most(tuple_n, 100, 1) == 26
        assert count_at_most(tuple_n, 10 ** 4, 1) == 1230

    def test_total_mass(self, twin):
        h = omega_profile(twin, 300)
        rmax = max(h.counts)
        assert count_at_most(twin, 300, rmax) == 300 - h.excluded

    def test_r_zero_edge(self, tuple_n, twin):
        assert count_at_most(tuple_n, 100, 0) == 1   # only n = 1
        assert count_at_most(twin, 100, 0) == 0

    def test_consistent_with_profile_partial_sums(self, twin):
        h = omega_profile(twin, 2000)
        for r in (2, 3, 5, 8):
            assert count_at_most(twin, 2000, r) == \
                sum(v for k, v in h.counts.items() if k <= r)


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 400), st.integers(10, 400), st.integers(0, 6), st.integers(0, 6))
def test_count_monotone(x1, x2, r1, r2):
    L = from_offsets([0, 2])
    if x1 > x2:
        x1, x2 = x2, x1
    if r1 > r2:
        r1, r2 = r2, r1
    assert count_at_most(L, x1, r1) <= count_at_most(L, x2, r1)
    assert count_at_most(L, x1, r1) <= count_at_most(L, x1, r2)


class TestDensity:
    def test_ratio_grows_with_x(self, twin):
        a = density_report(twin, 10 ** 3, 4)
        b = density_report(twin, 10 ** 4, 4)
        assert a.ratio > 0
        assert b.ratio > a.ratio

    def test_comparator_value(self, tuple_n):
        rep = density_report(tuple_n, 10 ** 4, 1)
        assert rep.count == 1230
        assert rep.comparator == pytest.approx(10 ** 4 / math.log(10 ** 4))

    def test_json(self, twin):
        rep = density_report(twin, 1000, 3)
        assert '"x": 1000' in rep.to_json()


def test_csv_output(twin):
    h = omega_profile(twin, 3)
    assert histogram_to_csv(h) == "omega,count\n1,1\n2,1\n3,1\n"
