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

Every class root comes from one rule.  With A = |a| and B = -b sign(a),
a*c = -b is A*c = B (mod q), and gcd(q, A) = 1.  The root is
c = (B + q*t)/A for t = -B/q mod A, and t depends on q only through
r = q mod A; so one pow(r, -1, A) per distinct r gives t_r and the exact
e_r = (B + r*t_r)/A, and c = e_r + k*t_r (mod q) for k = q // A.  For
A = 1 the one residue is r = 0 and c = B mod q.  No int64 term
overflows: |e_r| <= |b|/A + r < 2^63, since |b| < 2^63 is checked and
r <= q < 2^56; k*t_r < q, so (e_r mod q) + k*t_r < 2^57.

Each window is sieved by summed logarithms, in one float32 accumulator.
The accumulator starts at an estimate of log|v| - log(2)/2 for the
value v = a*m + b, off from it by e, and every class that contains m
adds 64 - log p.  If k classes hit m and F is the product of their
primes, which is the part of |v| made of primes <= sqrt(vmax), then

    acc = 64 k + log(|v| / F) - log(2)/2 + e.

The start comes one of two ways.  The window's values run linearly
from v0 (m = lo) to v1 (its last m).  When v0 and v1 have one sign, are
nonzero and |log(v1 / v0)| <= 1/2, every |v| in the window lies between
|v0| and |v1|, and the whole window starts at one constant,
(log|v0| + log|v1|)/2 - log(2)/2, so |e| <= 1/4.  Any other window,
near n = 1 where values grow fast or holding a zero or sign change,
takes the exact start: the float32 log of each |v|, so e is rounding
only.  Over {0,2} at x = 1e7, in segments of DEFAULT_SEGMENT, only
the first two windows take it.

The cofactor |v| / F has no prime factor <= sqrt(vmax) >= sqrt(|v|),
so it is 1 or a prime, and Omega(v) = ceil(acc / 64):

- cofactor 1: acc - 64 k = e - log(2)/2 lies in [-0.597, -0.097], so
  acc / 64 lies in (k - 1, k);
- cofactor a prime, so >= 2 and < 2^56: acc - 64 k lies in
  [log 2 - 0.597, 56 log 2) = [0.096, 38.9) and acc / 64 in (k, k + 1).

With an exact start these margins are the unchanged log(2)/2 = 0.347;
the constant start spends 1/4 of it and leaves 0.096.  Values are below
2^56, so k = Omega(F) <= 55 and |acc| < 64 * 55 + 39 < 2^12 at every
step.  The error budget in float32:

- exact start: the cast of the exact int64 value to float32 and the
  float32 log are off by a few units in the last place of a value below
  64, under 2e-5 (2.1e-6 at most, measured over 11 million values below
  2^56), and the shift by log(2)/2 adds one rounding of a value below
  64, at most 2^-19;
- constant start: the constant, computed in float64, is rounded once to
  float32, a value below 39, at most 2^-19; its error of at most 1/4 is
  the e above, not rounding;
- the wheel (below): each entry is a float64 sum of at most 8 weights,
  rounded once to float32, a value below 2^9, so off by at most 2^-16;
- each other weight 64 - log p is a float32 rounding of a value below
  64, at most 2^-19, so 55 weights are off by under 2e-4;
- each of at most 55 additions, the wheel's included, rounds a result
  below 2^12, by at most 2^-13, so under 0.007 in all;
- the scaling by 1/64 is exact.

The total stays below 0.01, far inside 0.096.  The count is exact, not
probabilistic, and does not depend on the order of the adds.  The
Omega buffer, also float32, sums at most 55 per form, a whole number
that float32 holds exactly for fewer than 300,000 forms.

The classes of the prime powers dividing 27,720 = 2^3 3^2 5 7 11, that
is q in {2, 4, 8, 3, 9, 5, 7, 11}, are summed once per group into a
float32 wheel whose period is the lcm of those q present (27,720 when
gcd(a, 2310) = 1 and vmax >= 121).  A window adds the wheel
from entry lo mod period: the partial turn at each end and the whole
turns between as one broadcast add, so the wheel is never tiled and
costs one period of memory per group.  With a constant start, the
wheel and the constant are written by the same adds.  The remaining
classes are split by the hits they can make in a window of length W
(segment size plus spread).  A class with 128 q <= W is one strided add
per window.  Every other class hits a window at most ceil(W / q) <= 128
times; for them a template, built once per group, lists each possible
hit as its class and k*q.  A window computes the first offset
(c - lo) mod q of every class, adds it to k*q, keeps the positions
inside the window and applies them all with one np.add.at.  Sieving the
smallest primes by a wheel and the few-hit classes in bulk follows
Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014).

A value 0 (m = -b/a, so a = +-1) sits in a window with v0 v1 <= 0, so
it takes the exact start; it is found there by scalar arithmetic, set to
1 in the window and excluded for every member that reads it.  Segments
are independent, so threading changes nothing but wall time, and
omega_profile starts at most os.cpu_count() threads.  The segmented
sieve follows Bays and Hudson, BIT 17 (1977).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arithmetic import LinearSystem, _whole, arithmetic_tables
from .errors import BudgetExceeded, Int64Overflow, RangeOverflow

X_CAP = 100_000_000
DEFAULT_SEGMENT = 1 << 17
_INT64_LIMIT = 1 << 63
_HALF_LOG2 = math.log(2) / 2
# a class with q * _FEW_HITS <= window is a strided add, the rest one scatter
_FEW_HITS = 128
# 2^3 3^2 5 7 11: the classes of the prime powers dividing it form one wheel
_WHEEL = 27_720
# a window whose |values| span at most this in log starts from one constant
_LOG_SPREAD = 0.5


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
        r = _whole("r", r, 0)
        return sum(c for k, c in self.counts.items() if k <= r)


def _prime_power_classes(a: int, b: int, vmax: int, primes: np.ndarray):
    """Arrays q, p and c over the prime powers q = p^k <= vmax with
    p <= sqrt(vmax) and p not dividing a: q divides a*m + b exactly when
    m = c (mod q).  Primes dividing a are left out, since gcd(a, b) = 1
    keeps them away from every value."""
    p = primes[:np.searchsorted(primes, math.isqrt(vmax), "right")].astype(np.int64)
    p = p[a % p != 0]
    qs, ps = [p], [p]
    while len(qs[-1]):
        # the next powers q * p <= vmax, found without overflow
        more = qs[-1] <= vmax // ps[-1]
        qs.append(qs[-1][more] * ps[-1][more])
        ps.append(ps[-1][more])
    q, p = np.concatenate(qs), np.concatenate(ps)
    # A*c = B (mod q) with A = |a|, B = -b*sign(a): c = e_r + (q // A)*t_r
    # for r = q mod A, one pow per distinct r (see the module docstring)
    A, B = abs(a), -b if a > 0 else b
    r, which = np.unique(q % A, return_inverse=True)
    t = [-B * pow(ri, -1, A) % A for ri in r.tolist()]
    e = np.array([(B + ri * ti) // A for ri, ti in zip(r.tolist(), t)], dtype=np.int64)
    c = (e[which] % q + q // A * np.array(t, dtype=np.int64)[which]) % q
    return q, p, c


def _sieve_classes(a: int, b: int, vmax: int, primes: np.ndarray, window: int):
    """The classes of _prime_power_classes as a wheel, strided adds and a
    scatter template.  Classes with q | _WHEEL are summed into the wheel:
    float32 of period lcm(q), whose entry t holds the weights w = 64 - log p
    of the classes that contain every m = t (mod period), added in float64
    and rounded once.  Of the rest, each with its weight in float32, those
    with q * _FEW_HITS <= window come back as a list of (q, c, w) for
    strided adds in a window of length ``window``.  The others come back
    as a template: their q and c, and for each of their possible hits k*q
    in a window (k < ceil(window / q)) its class index, k*q and weight."""
    q, p, c = _prime_power_classes(a, b, vmax, primes)
    w = 64 - np.log(p)
    small = _WHEEL % q == 0
    wheel = np.zeros(math.lcm(*q[small].tolist()))
    for qi, ci, wi in zip(q[small].tolist(), c[small].tolist(), w[small].tolist()):
        wheel[ci::qi] += wi
    q, c, w = q[~small], c[~small], w[~small].astype(np.float32)
    strided = q * _FEW_HITS <= window
    dense = list(zip(q[strided].tolist(), c[strided].tolist(), w[strided].tolist()))
    q, c, w = q[~strided], c[~strided], w[~strided]
    hits = -(-window // q)
    cls = np.repeat(np.arange(len(q)), hits)
    # k runs from 0 to hits - 1 within each class
    k = np.arange(len(cls)) - np.repeat(np.cumsum(hits) - hits, hits)
    return wheel.astype(np.float32), dense, (q, c, cls, k * q[cls], w[cls])


def _wheel_runs(acc: np.ndarray, wheel: np.ndarray, start: int):
    """Pairs (out, part) that tile ``acc``, where part holds the wheel
    entries that meet out: acc[i] meets wheel[(start + i) % len(wheel)].
    The whole turns of the wheel come as one 2-d view of acc, so each pair
    is one broadcast numpy call and the wheel is never tiled."""
    period, n = len(wheel), len(acc)
    head = min(period - start, n)
    turns = (n - head) // period
    tail = head + turns * period
    runs = [(acc[:head], wheel[start:start + head])]
    if turns:
        runs.append((acc[head:tail].reshape(turns, period), wheel))
    if tail < n:
        runs.append((acc[tail:], wheel[:n - tail]))
    return runs


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


def _constant_start(v0: int, v1: int):
    """The one accumulator start (log|v0| + log|v1|)/2 - log(2)/2 of a
    window whose values run linearly from v0 to v1, or None when the
    window holds a zero or a sign change or its |values| spread more than
    _LOG_SPREAD in log.  Otherwise every log|v| there is within
    _LOG_SPREAD / 2 of the start plus log(2)/2: see the module docstring."""
    if v0 * v1 > 0 and abs(math.log(v1 / v0)) <= _LOG_SPREAD:
        return math.log(v0 * v1) / 2 - _HALF_LOG2
    return None


def _segments_histogram(groups, spans, classes):
    """Histogram of Omega(L(n)) over the segments [lo, hi) in ``spans``,
    and the number of n there with L(n) = 0; ``groups`` are the shift
    groups of L and ``classes[i]`` the sieve classes of group i.  One set
    of window-sized buffers serves every segment."""
    size = max(hi - lo for lo, hi in spans)
    width = size + max(shifts[-1] for _, _, shifts, _ in groups)
    index = np.arange(width, dtype=np.int64)
    value_buf = np.empty(width, np.int64)
    acc_buf, omega_buf = np.empty(width, np.float32), np.empty(size, np.float32)
    counts = Counter()
    excluded = 0
    for lo, hi in spans:
        m = hi - lo
        omega = omega_buf[:m]
        omega.fill(0)
        zeros = []
        for (a, b, shifts, _), (wheel, dense, (fq, fc, cls, kq, fw)) in zip(groups, classes):
            win = m + shifts[-1]
            acc = acc_buf[:win]
            runs = _wheel_runs(acc, wheel, lo % len(wheel))
            v0 = a * lo + b
            start = _constant_start(v0, v0 + a * (win - 1))
            if start is not None:
                for out, part in runs:
                    np.add(part, start, out=out)
            else:
                v = value_buf[:win]
                np.multiply(index[:win], a, out=v)
                v += v0
                np.abs(v, out=v)
                # gcd(a, b) = 1, so the base form has an integer zero only
                # when a = +-1; at window offset j it is the zero of each
                # member d with 0 <= j - d < m, at n = lo + j - d
                j = -a * b - lo
                if abs(a) == 1 and 0 <= j < win:
                    v[j] = 1
                    zeros.extend(j - d for d in shifts if 0 <= j - d < m)
                np.log(v, out=acc, dtype=np.float32)
                acc -= _HALF_LOG2
                for out, part in runs:
                    out += part
            for q, c, w in dense:
                run = acc[(c - lo) % q::q]
                run += w
            pos = ((fc - lo) % fq)[cls]
            pos += kq
            hit = pos < win
            np.add.at(acc, pos[hit], fw[hit])
            # acc = 64 Omega(F) + log(|v| / F) - log(2)/2 + e: see the module docstring
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
    results are integer counters merged by addition, and at most
    os.cpu_count() threads are started.  Raises
    BudgetExceeded when x > X_CAP and Int64Overflow when a*n or a*n + b
    leaves the signed 64-bit range; ValueError when x, segment_size or
    threads is not a whole number, x < 0, segment_size < 1 or threads < 1.
    """
    x = _whole("x", x, 0)
    segment_size = _whole("segment_size", segment_size, 1)
    threads = _whole("threads", threads, 1)
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
    # each of k threads takes every k-th segment, with its own buffers;
    # threads beyond the cores add nothing but wall time
    k = min(threads, os.cpu_count() or 1, len(spans))
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
    r = _whole("r", r, 0)
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
    """The count of count_at_most against x / log(x)^kappa.  ValueError
    when x is not a whole number >= 3 or r not one >= 0; RangeOverflow
    when log(x)^kappa passes the largest float, both before any sieving."""
    x = _whole("x", x, 3)
    r = _whole("r", r, 0)
    try:
        comparator = x / math.log(x) ** L.kappa
    except OverflowError:
        raise RangeOverflow(f"log(x)^kappa for x = {x}, kappa = {L.kappa} "
                            "is above the largest float") from None
    count = count_at_most(L, x, r, **kwargs)
    return DensityReport(L.label(), x, r, count, comparator, count / comparator)

