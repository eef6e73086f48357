import hashlib
import math
import os
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import search
from sievekit.arithmetic import arithmetic_tables, build_system, from_offsets
from sievekit.cli import main
from sievekit.errors import BudgetExceeded, Int64Overflow, LimitTooLarge, RangeOverflow
from sievekit.search import (
    OmegaHistogram,
    _shift_groups,
    count_at_most,
    density_report,
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


def reference_profile(L, x):
    """The strided sieve that the log-weighted one replaced, kept as the
    oracle: each class of q = p^k adds 1 to Omega and multiplies p into
    the found part of the value, and the value counts one more prime
    when found < |value|.  Runs [1, x] as one segment."""
    form_vmax = [max(abs(a + b), abs(a * x + b)) for a, b in L.forms]
    primes = arithmetic_tables(max(math.isqrt(max(form_vmax)) + 1, 3))
    lo, hi = 1, x + 1
    n = np.arange(lo, hi, dtype=np.int64)
    omega = np.zeros(hi - lo, dtype=np.int32)
    zero_any = np.zeros(hi - lo, dtype=bool)
    for (a, b), vmax in zip(L.forms, form_vmax):
        av = np.abs(a * n + b)
        zero = av == 0
        zero_any |= zero
        # found starts at 0 where the value is 0, so it never overflows there
        found = (~zero).astype(np.int64)
        for p in primes[:np.searchsorted(primes, math.isqrt(vmax), "right")].tolist():
            if a % p == 0:
                continue
            q = p
            while q <= vmax:
                off = (-b * pow(a, -1, q) % q - lo) % q
                omega[off::q] += 1
                found[off::q] *= p
                q *= p
        omega += found < av
    hist = np.bincount(omega[~zero_any])
    return {k: int(v) for k, v in enumerate(hist) if v}, int(zero_any.sum())


# {0,2} at x = 10^6, as the strided sieve gave it
TWIN_1E6 = {
    1: 1, 2: 8169, 3: 43689, 4: 99700, 5: 135019, 6: 137269, 7: 133814,
    8: 131372, 9: 115018, 10: 84623, 11: 52745, 12: 29190, 13: 15146,
    14: 7530, 15: 3549, 16: 1732, 17: 789, 18: 360, 19: 159, 20: 73,
    21: 33, 22: 13, 23: 3, 24: 2, 25: 1, 26: 1,
}
# sha256 of `sievekit search --tuple 0,2 --x 1000000 --format json` stdout
TWIN_1E6_JSON_SHA256 = "37b12fe146146ebdacb23067ed3f9fd2cde6cb7322919e91d5f17320af36aa67"
# the kappa = 30 tuple of the first 30 primes above 30
PRIMES_ABOVE_30 = [int(p) for p in arithmetic_tables(200) if p > 30][:30]


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
        for seg in (1, 7, 997, 1 << 17, 1 << 20):
            for threads in (1, 2):
                hs = omega_profile(L, x, segment_size=seg, threads=threads)
                assert hs.counts == h.counts and hs.excluded == h.excluded

    def test_segment_size_invariance(self, twin):
        a = omega_profile(twin, 20000, segment_size=1 << 17)
        b = omega_profile(twin, 20000, segment_size=997)
        assert a.counts == b.counts and a.excluded == b.excluded

    @pytest.mark.parametrize("size", [0, -5])
    def test_segment_size_below_one(self, twin, size):
        with pytest.raises(ValueError, match="segment_size"):
            omega_profile(twin, 100, segment_size=size)

    @pytest.mark.parametrize("name", ["segment_size", "threads"])
    @pytest.mark.parametrize("value", [2.5, 1.5, True, math.nan])
    def test_sieve_settings_must_be_whole(self, twin, name, value):
        # segment_size 2.5 or nan raised a TypeError from range; True and
        # threads = 1.5 ran as 1
        with pytest.raises(ValueError, match=rf"^{name} = {value} must be an integer$"):
            omega_profile(twin, 100, **{name: value})

    def test_whole_float_settings_accepted(self, twin):
        h = omega_profile(twin, 100, segment_size=7.0, threads=np.int64(2))
        assert h == omega_profile(twin, 100, segment_size=7, threads=2)

    def test_thread_invariance(self, twin, monkeypatch):
        # eight cores, so that the 4- and 8-way splits run on any machine
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = omega_profile(twin, 100_000, threads=1)
        for t in (4, 8):
            h = omega_profile(twin, 100_000, threads=t)
            assert h.counts == base.counts
            assert h.excluded == base.excluded

    def test_threads_capped_at_cpu_count(self, twin, monkeypatch):
        # threads = 100,000 in segments of 1 asked the pool for 100,000 OS
        # threads; the stand-in pool records its size and starts none
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(search, "ThreadPoolExecutor", SerialPool)
        base = omega_profile(twin, 1000, segment_size=1)
        # cores, threads, segment size and the pool size: the least of the
        # cores, the threads and the 1000 / size segments
        for cpus, threads, size, workers in [(3, 100_000, 1, 3), (8, 4, 1, 4),
                                             (8, 100_000, 1, 8), (8, 100_000, 200, 5)]:
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            h = omega_profile(twin, 1000, segment_size=size, threads=threads)
            assert sizes[-1] == workers and h == base, (cpus, threads, size)
        # one core, or a core count the system cannot tell: no pool at all
        for cpus in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert omega_profile(twin, 1000, segment_size=1, threads=100_000) == base
        assert len(sizes) == 4

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


class TestAgainstReference:
    """The log-weighted sieve against the strided oracle where the naive
    profile is too slow, across segment sizes and thread counts."""

    @pytest.mark.parametrize("forms,x", [
        # 2^17 | n at n = 131072 and 3^11 | 2n - 1 at n = 88574: classes on
        # both sides of the default segment size
        ([[1, 0], [2, -1]], 140_000),
        ([[1, 0], [1, 2], [1, 6]], 20_000),
        # values near 1e12 and 1e13: most classes meet a segment at most once
        ([[1, 10 ** 12 + 39]], 300),
        ([[1, 10 ** 13 + 1], [3, 2]], 300),
        ([[7, -10 ** 12], [1, 1]], 300),
        # |a| above every q: each residue q mod |a| is its own
        ([[1000003, 17], [1, 1]], 300),
    ])
    def test_histogram_matches_reference(self, forms, x):
        L = build_system(forms)
        counts, excluded = reference_profile(L, x)
        # segment size 1 makes one segment per n: kept to the smaller x
        sizes = [1, 7, 997, 1 << 17, 1 << 20] if x <= 5000 else [7, 997, 1 << 17, 1 << 20]
        for size in sizes:
            for threads in (1, 2):
                h = omega_profile(L, x, segment_size=size, threads=threads)
                assert (h.counts, h.excluded) == (counts, excluded), (size, threads)

    @pytest.mark.parametrize("forms", [[[1, -7]], [[2, -5], [1, 1]]])
    def test_zero_and_unit_values_raise_no_warning(self, forms):
        L = build_system(forms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for size in (1, 7, 1 << 17):
                h = omega_profile(L, 500, segment_size=size)
                assert (h.counts, h.excluded) == naive_profile(L, 500)

    def test_twin_histogram_pinned(self, twin):
        h = omega_profile(twin, 10 ** 6)
        assert h.counts == TWIN_1E6 and h.excluded == 0

    def test_twin_cli_json_bytes_pinned(self, capsys):
        assert main(["search", "--tuple", "0,2", "--x", "1000000", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == TWIN_1E6_JSON_SHA256


def record_starts(monkeypatch):
    """Wrap search._constant_start: the returned dict maps the end values
    (v0, v1) of each window to whether it took the constant start."""
    taken = {}
    start = search._constant_start

    def recorded(v0, v1):
        s = start(v0, v1)
        taken[v0, v1] = s is not None
        return s

    monkeypatch.setattr(search, "_constant_start", recorded)
    return taken


class TestWindowStart:
    """Windows that start from one constant log and windows that take the
    log of every value, each with the wheel of the prime powers dividing
    27,720, against the oracles."""

    def test_both_starts_in_one_call(self, monkeypatch):
        taken = record_starts(monkeypatch)
        L = from_offsets([0, 2])
        want = reference_profile(L, 20_000)
        for threads in (1, 2):
            taken.clear()
            h = omega_profile(L, 20_000, segment_size=997, threads=threads)
            assert (h.counts, h.excluded) == want, threads
            # the window from 1 spreads by log 999, the last by log(20002/19941)
            assert taken == {**taken, (1, 999): False, (19_941, 20_002): True}

    @pytest.mark.parametrize("over", [False, True])
    def test_log_spread_at_the_edge(self, monkeypatch, over):
        # n + b in windows of 997 values: v0 = 1536 spreads log(2532/1536) =
        # 0.49982 and takes the constant start, v0 = 1535 spreads 0.50008 and
        # does not; 1536 = 2^9 * 3 sits where the constant is 1/4 above log v
        size, v0 = 997, 1535 if over else 1536
        spread = math.log((v0 + size - 1) / v0)
        assert abs(spread - 0.5) < 1e-3 and (spread > 0.5) == over
        taken = record_starts(monkeypatch)
        L = build_system([[1, v0 - 1]])
        want = reference_profile(L, 5 * size)
        for threads in (1, 2):
            h = omega_profile(L, 5 * size, segment_size=size, threads=threads)
            assert (h.counts, h.excluded) == want, threads
        assert taken[v0, v0 + size - 1] != over

    @pytest.mark.parametrize("forms,starts", [
        ([[5, 7]], {False, True}),
        # a < 0: positive values that fall, spread at most log(1e6 / 916000)
        # in all, and values that are all negative
        ([[-7, 10 ** 6]], {True}),
        ([[-1, -3]], {False, True}),
        # a zero at n = 5000, and sign changes between integers
        ([[1, -5000]], {False, True}),
        ([[3, -10_000]], {False, True}),
        ([[-2, 9001], [1, 1]], {False, True}),
    ])
    def test_signs_and_zeros(self, monkeypatch, forms, starts):
        taken = record_starts(monkeypatch)
        L = build_system(forms)
        want = reference_profile(L, 12_000)
        for size in (997, 1 << 17):
            for threads in (1, 2):
                h = omega_profile(L, 12_000, segment_size=size, threads=threads)
                assert (h.counts, h.excluded) == want, (size, threads)
        assert set(taken.values()) == starts
        # a window holding a zero or a sign change never takes the constant
        assert not any(t for (v0, v1), t in taken.items() if v0 * v1 <= 0)

    def test_groups_have_their_own_wheels(self, monkeypatch):
        # a drops its primes from the wheel: 3 takes out 3 and 9, 2310 every
        # prime of 27,720
        periods = []
        build = search._sieve_classes

        def recorded(*args):
            classes = build(*args)
            periods.append(len(classes[0]))
            return classes

        monkeypatch.setattr(search, "_sieve_classes", recorded)
        L = build_system([[1, 0], [1, 2], [3, 1], [5, 2], [7, -3], [2310, 1]])
        want = reference_profile(L, 20_000)
        for size in (997, 1 << 17):
            for threads in (1, 2):
                periods.clear()
                h = omega_profile(L, 20_000, segment_size=size, threads=threads)
                assert (h.counts, h.excluded) == want, (size, threads)
                assert sorted(periods) == [1, 27_720 // 9, 27_720 // 7, 27_720 // 5, 27_720]

    @pytest.mark.parametrize("a,b", [(1, 0), (3, 1), (-7, 100), (2, 2 ** 45 - 1)])
    def test_wheel_sums_its_classes(self, a, b):
        vmax = 10 ** 6
        primes = arithmetic_tables(1001)
        wheel, dense, (fq, _, _, _, _) = search._sieve_classes(a, b, vmax, primes, 1000)
        q, p, c = search._prime_power_classes(a, b, vmax, primes)
        small = 27_720 % q == 0
        want = np.zeros(math.lcm(*q[small].tolist()))
        for qi, pi, ci in zip(q[small].tolist(), p[small].tolist(), c[small].tolist()):
            want[ci::qi] += 64 - math.log(pi)
        assert wheel.dtype == np.float32
        assert np.array_equal(wheel, want.astype(np.float32))
        # every other class is a strided add or in the scatter template
        rest = sorted([qi for qi, _, _ in dense] + fq.tolist())
        assert rest == sorted(q[~small].tolist())

    @pytest.mark.parametrize("period", [1, 7, 30])
    def test_wheel_runs_tile_the_window(self, period):
        wheel = np.arange(period, dtype=np.float32) + 1
        for start in sorted({0, 1, period // 2, period - 1}):
            for n in sorted({1, 5, period - start, period, 3 * period + 2}):
                acc = np.zeros(n, np.float32)
                for out, part in search._wheel_runs(acc, wheel, start):
                    out += part
                assert np.array_equal(acc, wheel[(start + np.arange(n)) % period]), \
                    (start, n)


class TestShiftGroups:
    """Forms a*n + b_i with one a and one b_i mod |a| are sieved once, as
    a*(n + d_i) + b over a window that reaches d_i past the segment."""

    @pytest.mark.parametrize("forms,x,oracle", [
        # one group with a = 3: 3(n + d) + 1 for d = 0, 1, 2
        ([[3, 1], [3, 4], [3, 7]], 3000, naive_profile),
        # negative a, with zeros at n = 50 and n = 52
        ([[-1, 50], [-1, 52]], 3000, naive_profile),
        # the zeros at n = 7 and n = 5 are one window offset, read by both
        ([[1, -7], [1, -5]], 3000, naive_profile),
        # spread 40 passes segment sizes 1 and 7: two groups there
        ([[1, 0], [1, 40]], 3000, naive_profile),
        # segment size 1 makes one segment per n: kept to the smaller x
        ([[1, h] for h in PRIMES_ABOVE_30], 500, reference_profile),
    ])
    def test_groups_match_oracle(self, forms, x, oracle):
        L = build_system(forms)
        want = oracle(L, x)
        for size in (1, 7, 997, 1 << 17):
            for threads in (1, 2):
                h = omega_profile(L, x, segment_size=size, threads=threads)
                assert (h.counts, h.excluded) == want, (size, threads)

    def test_zero_read_by_no_member(self):
        # x = 40 in segments of 30: the second window, m in [31, 66), holds
        # the base zero m = 45, which member 0 reads only for n > x and
        # member 25 only in the first segment (n = 20)
        L = build_system([[1, -45], [1, -20]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = omega_profile(L, 40, segment_size=30)
        assert (h.counts, h.excluded) == naive_profile(L, 40)

    def test_thirty_forms_match_reference(self):
        L = from_offsets(PRIMES_ABOVE_30)
        want = reference_profile(L, 10 ** 5)
        for size in (997, 1 << 17):
            for threads in (1, 2):
                h = omega_profile(L, 10 ** 5, segment_size=size, threads=threads)
                assert (h.counts, h.excluded) == want, (size, threads)

    def test_grouping(self):
        vmax = [1, 2, 3]
        # b mod |a| decides the group; shifts ascend from 0
        assert _shift_groups([(3, 7), (3, 1), (3, 4)], vmax, 10) == [(3, 1, (0, 1, 2), 3)]
        assert _shift_groups([(-1, 50), (-1, 52)], vmax, 10) == [(-1, 52, (0, 2), 2)]
        assert _shift_groups([(3, 1), (3, 2), (5, 1)], vmax, 10) == \
            [(3, 1, (0,), 1), (3, 2, (0,), 2), (5, 1, (0,), 3)]
        # a spread above max_spread starts a new group
        assert _shift_groups([(1, 0), (1, 40)], vmax, 40) == [(1, 0, (0, 40), 2)]
        assert _shift_groups([(1, 0), (1, 40)], vmax, 7) == [(1, 0, (0,), 1), (1, 40, (0,), 2)]
        assert _shift_groups([(1, 0), (1, 5), (1, 8), (1, 12)], [1, 2, 3, 4], 7) == \
            [(1, 0, (0, 5), 2), (1, 8, (0, 4), 4)]

    @pytest.mark.parametrize("forms,size,sieves", [
        ([[1, 0], [1, 2], [1, 6]], 1 << 17, 1),
        ([[1, 0], [1, 40]], 7, 2),
        ([[3, 1], [5, -2]], 1 << 17, 2),
    ])
    def test_one_sieve_per_group(self, monkeypatch, forms, size, sieves):
        calls = []
        build = search._sieve_classes

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(search, "_sieve_classes", counted)
        L = build_system(forms)
        h = omega_profile(L, 1000, segment_size=size)
        assert len(calls) == sieves
        assert (h.counts, h.excluded) == naive_profile(L, 1000)


def factorint_profile(L, x):
    """The histogram with every value factored by sympy."""
    factorint = pytest.importorskip("sympy").factorint
    counts = Counter()
    excluded = 0
    for n in range(1, x + 1):
        vals = [a * n + b for a, b in L.forms]
        if 0 in vals:
            excluded += 1
        else:
            counts[sum(sum(factorint(abs(v)).values()) for v in vals)] += 1
    return dict(sorted(counts.items())), excluded


class TestFloat32Margin:
    """The float32 sums against sympy's factorizations where the
    accumulator is largest: values near 2^40 to 2^45 and 1e13, with
    Omega up to 44."""

    @pytest.mark.parametrize("forms,x,top", [
        # 2^40 at n = 150 and 2^44 at n = 77
        ([[1, 2 ** 40 - 150]], 300, 40),
        ([[-1, 2 ** 44 + 77]], 200, 44),
        # 3^25 at n = 100
        ([[1, 3 ** 25 - 100]], 200, 25),
        # a = 2 and a = 5 take the pow roots
        ([[2, 2 ** 45 - 1]], 100, None),
        ([[5, 10 ** 13 + 1], [1, 1]], 120, None),
    ])
    def test_histogram_matches_factorint(self, forms, x, top):
        L = build_system(forms)
        want = factorint_profile(L, x)
        if top is not None:
            assert max(want[0]) == top
        for size in (1, 7, 64, 1 << 17):
            h = omega_profile(L, x, segment_size=size)
            assert (h.counts, h.excluded) == want, size

    @pytest.mark.parametrize("size", [81 * 128 - 3, 81 * 128 - 2, 81 * 128 - 1])
    def test_strided_and_scattered_at_the_edge(self, size):
        # {0,2} sieves windows of size + 2: q = 81 is a strided add when
        # 81 * 128 <= size + 2 and one scatter per window otherwise
        L = from_offsets([0, 2])
        x = 30_000
        primes = arithmetic_tables(math.isqrt(x + 2) + 1)
        _, dense, _ = search._sieve_classes(1, 0, x + 2, primes, size + 2)
        assert (81 in [q for q, _, _ in dense]) == (81 * 128 <= size + 2)
        h = omega_profile(L, x, segment_size=size)
        assert (h.counts, h.excluded) == naive_profile(L, x)


class TestClassRoots:
    @pytest.mark.parametrize("a,b", [
        (1, 0), (1, 5), (1, -5), (1, 10 ** 12 + 39), (-1, 1), (-1, -1),
        (-1, 5), (-1, -(10 ** 12) - 1), (7, -5), (-6, 10 ** 12 + 39),
        # |a| of a few residues q mod |a|, and two where every q has its own
        (2, 2 ** 45 - 1), (3, -2), (5, 10 ** 13 + 1), (10 ** 6 + 3, 17),
        (-(2 ** 40 + 1), 5),
    ])
    def test_roots_match_pow(self, a, b):
        vmax = 10 ** 6
        primes = arithmetic_tables(1001)
        q, p, c = search._prime_power_classes(a, b, vmax, primes)
        want = {(r ** k, -b * pow(a, -1, r ** k) % r ** k)
                for r in primes.tolist() if r <= 1000 and a % r
                for k in range(1, 20) if r ** k <= vmax}
        assert len(q) == len(want)
        assert set(zip(q.tolist(), c.tolist())) == want
        assert all(qi % pi == 0 for qi, pi in zip(q.tolist(), p.tolist()))


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

    def test_fractional_x_refused(self, twin):
        # omega_profile(L, 1.5) counted only n <= 1
        with pytest.raises(ValueError, match=r"^x = 1.5 must be an integer$"):
            omega_profile(twin, 1.5)
        assert omega_profile(twin, 300.0) == omega_profile(twin, np.int64(300))

    @pytest.mark.parametrize("count", [count_at_most, density_report])
    def test_negative_r_raises_before_sieving(self, twin, count):
        # x above X_CAP would raise BudgetExceeded once sieving started
        with pytest.raises(ValueError, match=r"^r = -1 must be >= 0$"):
            count(twin, 10 ** 10, -1)

    @pytest.mark.parametrize("r", [2.5, True, math.nan])
    def test_r_must_be_whole(self, twin, r):
        # r = 2.5 counted Omega <= 2 and r = True Omega <= 1
        with pytest.raises(ValueError, match=rf"^r = {r} must be an integer$"):
            count_at_most(twin, 100, r)
        assert count_at_most(twin, 100, 2.0) == count_at_most(twin, 100, 2) == 9

    @pytest.mark.parametrize("r", [2.5, True, math.nan, -1])
    def test_profile_count_takes_the_same_r_rule(self, twin, r):
        # the method counted Omega <= 2 for r = 2.5 and Omega <= 1 for True
        h = omega_profile(twin, 100)
        with pytest.raises(ValueError) as method_error:
            h.count_at_most(r)
        with pytest.raises(ValueError) as function_error:
            count_at_most(twin, 100, r)
        assert str(method_error.value) == str(function_error.value)
        assert h.count_at_most(2.0) == h.count_at_most(np.int64(2)) == 9

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

    def test_unrepresentable_comparator_refused_before_sieving(self, monkeypatch):
        # x / log(x)^kappa overflowed with an untyped OverflowError after the
        # search; for kappa = 368, log(973)^368 = 1.74e308 is the last that fits
        def search_stub(L, x, **kwargs):
            return OmegaHistogram(L, x, {}, 0)

        def no_search(L, x, **kwargs):
            raise AssertionError("sieved")

        L = from_offsets(range(0, 736, 2))
        monkeypatch.setattr(search, "omega_profile", search_stub)
        assert 0 < density_report(L, 973, 10).comparator < 1e-305
        monkeypatch.setattr(search, "omega_profile", no_search)
        for x in (974, 1000):
            with pytest.raises(RangeOverflow, match=f"x = {x}, kappa = 368"):
                density_report(L, x, 10)

    def test_comparator_value(self, tuple_n):
        rep = density_report(tuple_n, 10 ** 4, 1)
        assert rep.count == 1230
        assert rep.comparator == pytest.approx(10 ** 4 / math.log(10 ** 4))
