"""Exact Omega histograms over n <= x for a linear-form product.

Responsibility: empirical counting only.  For a form a*n + b and a
prime p not dividing a, the n with p^k | a*n + b are one residue class
c = -b/a mod p^k.

Forms that differ by a shift are sieved once.  A shift group is a set
of forms with the same a and the same b mod |a|, so that each member
a*n + b_i = a*(n + d_i) + b for one base form a*m + b and shifts
0 = d_1 < ... < d_s.  Members are sorted by d_i, and a new group starts
where the spread d_s would pass the segment size; forms that share no
shift are groups of one.  For the segment [lo, hi) the group sieves the
window m in [lo, hi + d_s), and member i reads its Omega at window
offset d_i.  omega_profile computes the classes of each group once, for
every prime power q = p^k <= vmax with p <= sqrt(vmax), where vmax is
the largest |a*n + b_i| over the members and 1 <= n <= x.  The window's
values are a linear function of m, so they are bounded by their two
ends, m = lo (member 1 at n = lo) and m = hi - 1 + d_s (member s at
n = hi - 1): member values for n in [1, x], so at most vmax.  Once the
prime table up to sqrt(vmax) exists, vmax < arithmetic.TABLE_CAP^2 <
2^56, so the difference a*(m - lo) of two window values fits in int64
as well.

Each window is sieved by summed logarithms, in one float64 accumulator.
The accumulator starts at log|v| - log(2)/2 for the value v = a*m + b,
and every class that contains m adds 64 - log p.  If k classes hit m
and F is the product of their primes, which is the part of |v| made of
primes <= sqrt(vmax), then

    acc = 64 k + log(|v| / F) - log(2)/2.

The cofactor |v| / F has no prime factor <= sqrt(vmax) >= sqrt(|v|),
so it is 1 or a prime, and Omega(v) = ceil(acc / 64):

- cofactor 1: acc = 64 k - log(2)/2, so acc / 64 lies in (k - 1, k);
- cofactor a prime, so >= 2 and < 2^63: acc - 64 k lies in
  [log(2)/2, 63 log 2) and acc / 64 in (k, k + 1).

So each case is at least log(2)/2 = 0.35 from a multiple of 64.  Values
are below 2^63, so k = Omega(F) <= 62 and 0 < acc + 1 < 64 * 62 + 45 <
2^12 at every step.  Each float64 rounding on the way (the log, the
shift, at most 62 weights and 62 additions; the scaling by 1/64 is
exact) is then at most 2^-42, and their sum below 1e-10.  The count is
exact, not probabilistic, and does not depend on the order of the adds.

A class with q <= the window length (segment size plus spread) is one
strided add per window; the others meet a window at most once and are
applied together, as arrays, with one np.add.at.  A value 0 (m = -b/a,
so a = +-1) is found by scalar arithmetic, set to 1 in the window and
excluded for every member that reads it.  Segments are independent, so
threading changes nothing but wall time.  The segmented sieve follows
Bays and Hudson, BIT 17 (1977).
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arithmetic import LinearSystem, _whole, arithmetic_tables
from .errors import BudgetExceeded, Int64Overflow

X_CAP = 100_000_000
DEFAULT_SEGMENT = 1 << 17
_INT64_LIMIT = 1 << 63
_HALF_LOG2 = math.log(2) / 2


def _whole_r(r) -> int:
    """r as an int; ValueError unless it is a whole number >= 0."""
    r = _whole("r", r)
    if r < 0:
        raise ValueError(f"r = {r} must be >= 0")
    return r


@dataclass(frozen=True)
class OmegaHistogram:
    """counts[k] = #{n <= x : L(n) != 0, Omega(L(n)) = k}; n with
    L(n) = 0 are excluded and counted separately."""

    L: LinearSystem
    x: int
    counts: dict[int, int]
    excluded: int

    def total(self) -> int:
        return sum(self.counts.values()) + self.excluded

    def count_at_most(self, r: int) -> int:
        """#{n : Omega(L(n)) <= r}; ValueError unless r is a whole number >= 0."""
        r = _whole_r(r)
        return sum(c for k, c in self.counts.items() if k <= r)


def _sieve_classes(a: int, b: int, vmax: int, primes: np.ndarray, window: int):
    """The prime-power classes of the form a*m + b, each with its weight
    w = 64 - log p: for q = p^k <= vmax with p <= sqrt(vmax), q divides
    a*m + b exactly when m = c (mod q).  Primes dividing a are left out,
    since gcd(a, b) = 1 keeps them away from every value.  Classes with
    q <= window come back as a list of (q, c, w); the rest, which meet a
    window at most once, as arrays q, c and w."""
    dense, sparse = [], []
    for p in primes[:np.searchsorted(primes, math.isqrt(vmax), "right")].tolist():
        if a % p == 0:
            continue
        w = 64 - math.log(p)
        q = p
        while q <= vmax:
            (dense if q <= window else sparse).append((q, -b * pow(a, -1, q) % q, w))
            q *= p
    sq, sc, sw = zip(*sparse) if sparse else ((), (), ())
    return dense, (np.array(sq, dtype=np.int64), np.array(sc, dtype=np.int64),
                   np.array(sw, dtype=np.float64))


def _shift_groups(forms, form_vmax, max_spread: int):
    """The forms as shift groups (a, b, shifts, vmax): member i is
    a*(n + shifts[i]) + b, shifts ascend from 0 to at most max_spread,
    and vmax is the largest member vmax."""
    runs = []
    # a*n + b = a*(n + t) + r with r = b mod |a|, sorted by (a, r) and then t
    for a, r, t, vmax in sorted((a, b % abs(a), (b - b % abs(a)) // a, vmax)
                                for (a, b), vmax in zip(forms, form_vmax)):
        if not runs or runs[-1][:2] != (a, r) or t - runs[-1][2][0][0] > max_spread:
            runs.append((a, r, []))
        runs[-1][2].append((t, vmax))
    return [(a, a * run[0][0] + r, tuple(t - run[0][0] for t, _ in run),
             max(vmax for _, vmax in run)) for a, r, run in runs]


def _segments_histogram(groups, spans, classes):
    """Histogram of Omega(L(n)) over the segments [lo, hi) in ``spans``,
    and the number of n there with L(n) = 0; ``groups`` are the shift
    groups of L and ``classes[i]`` the sieve classes of group i.  One set
    of window-sized buffers serves every segment."""
    size = max(hi - lo for lo, hi in spans)
    width = size + max(shifts[-1] for _, _, shifts, _ in groups)
    index = np.arange(width, dtype=np.int64)
    value_buf, acc_buf, omega_buf = np.empty(width, np.int64), np.empty(width), np.empty(size)
    counts = Counter()
    excluded = 0
    for lo, hi in spans:
        m = hi - lo
        omega = omega_buf[:m]
        omega.fill(0)
        zeros = []
        for (a, b, shifts, _), (dense, (sq, sc, sw)) in zip(groups, classes):
            win = m + shifts[-1]
            v, acc = value_buf[:win], acc_buf[:win]
            np.multiply(index[:win], a, out=v)
            v += a * lo + b
            np.abs(v, out=v)
            # gcd(a, b) = 1, so the base form has an integer zero only when
            # a = +-1; at window offset j it is the zero of each member d
            # with 0 <= j - d < m, at n = lo + j - d
            j = -a * b - lo
            if abs(a) == 1 and 0 <= j < win:
                v[j] = 1
                zeros.extend(j - d for d in shifts if 0 <= j - d < m)
            np.log(v, out=acc)
            acc -= _HALF_LOG2
            for q, c, w in dense:
                run = acc[(c - lo) % q::q]
                run += w
            off = (sc - lo) % sq
            hit = off < win
            np.add.at(acc, off[hit], sw[hit])
            # acc = 64 Omega(F) + log(|v| / F) - log(2) / 2: see the module docstring
            acc *= 1 / 64
            np.ceil(acc, out=acc)
            for d in shifts:
                omega += acc[d:d + m]
        omega[zeros] = 0
        v = value_buf[:m]
        np.copyto(v, omega, casting="unsafe")
        hist = np.bincount(v)
        hist[0] -= len(zeros)
        counts.update({k: int(c) for k, c in enumerate(hist) if c})
        excluded += len(zeros)
    return counts, excluded


def omega_profile(L: LinearSystem, x: int, segment_size: int = DEFAULT_SEGMENT,
                  threads: int = 1) -> OmegaHistogram:
    """Exact histogram of Omega(L(n)) over 1 <= n <= x.

    Deterministic regardless of segment size or thread count: segment
    results are integer counters merged by addition.  Raises
    BudgetExceeded when x > X_CAP and Int64Overflow when a*n or a*n + b
    leaves the signed 64-bit range; ValueError when x, segment_size or
    threads is not a whole number, x < 0, segment_size < 1 or threads < 1.
    """
    x = _whole("x", x)
    segment_size = _whole("segment_size", segment_size)
    threads = _whole("threads", threads)
    if x < 0:
        raise ValueError("x must be >= 0")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if x > X_CAP:
        raise BudgetExceeded(f"x = {x} above cap {X_CAP}")
    if x == 0:
        return OmegaHistogram(L, 0, {}, 0)
    # |a*n + b| on 1 <= n <= x is largest at an end
    form_vmax = [max(abs(a + b), abs(a * x + b)) for a, b in L.forms]
    for (a, b), vmax in zip(L.forms, form_vmax):
        if max(vmax, abs(a) * x, abs(b)) >= _INT64_LIMIT:
            raise Int64Overflow(f"{a}*n + {b} does not fit in int64 for n <= {x}")
    primes = arithmetic_tables(max(math.isqrt(max(form_vmax)) + 1, 3))
    segment_size = min(segment_size, x)
    groups = _shift_groups(L.forms, form_vmax, segment_size)
    classes = [_sieve_classes(a, b, vmax, primes, segment_size + shifts[-1])
               for a, b, shifts, vmax in groups]
    spans = [(lo, min(lo + segment_size, x + 1))
             for lo in range(1, x + 1, segment_size)]
    # each of k threads takes every k-th segment, with its own buffers
    k = min(threads, len(spans))
    if k == 1:
        results = [_segments_histogram(groups, spans, classes)]
    else:
        with ThreadPoolExecutor(max_workers=k) as pool:
            results = list(pool.map(
                lambda i: _segments_histogram(groups, spans[i::k], classes), range(k)))
    counts = Counter()
    excluded = 0
    for c, ex in results:
        counts.update(c)
        excluded += ex
    return OmegaHistogram(L, x, dict(sorted(counts.items())), excluded)


def count_at_most(L: LinearSystem, x: int, r: int, **kwargs) -> int:
    """#{n <= x : L(n) != 0 and Omega(L(n)) <= r}; ValueError when r is
    not a whole number >= 0, before any sieving."""
    r = _whole_r(r)
    return omega_profile(L, x, **kwargs).count_at_most(r)


@dataclass(frozen=True)
class DensityReport:
    """Almost-prime count against the x/log^kappa(x) comparator.  The
    ratio carries no pass/fail semantics; its trend across x is the
    interesting output."""

    L_label: str
    x: int
    r: int
    count: int
    comparator: float
    ratio: float


def density_report(L: LinearSystem, x: int, r: int, **kwargs) -> DensityReport:
    if x < 3:
        raise ValueError("x must be >= 3")
    count = count_at_most(L, x, r, **kwargs)
    comparator = x / math.log(x) ** L.kappa
    return DensityReport(L.label(), x, r, count, comparator, count / comparator)

