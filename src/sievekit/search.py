"""Exact Omega histograms over n <= x for a linear-form product.

Responsibility: empirical counting only.  For a form a*n + b and a
prime p not dividing a, the n with p^k | a*n + b are one residue class
c = -b/a mod p^k.  omega_profile computes these classes once, for every
prime power q = p^k <= vmax = max |a*n + b| with p <= sqrt(vmax).

Each segment sieves by summed logarithms, in one float64 accumulator
per form.  The accumulator starts at log|v| - log(2)/2 for the value
v = a*n + b, and every class that contains n adds 64 - log p.  If k
classes hit n and F is the product of their primes, which is the part
of |v| made of primes <= sqrt(vmax), then

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
exact, not probabilistic.

A class with q <= segment size is one strided add per segment; the
others meet a segment at most once and are applied together, as arrays,
with one np.add.at.  A value 0 (n = -b/a, so a = +-1) is found by scalar
arithmetic and excluded.  Segments are independent, so threading
changes nothing but wall time.
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
        return sum(c for k, c in self.counts.items() if k <= r)


def _sieve_classes(a: int, b: int, vmax: int, primes: np.ndarray, segment_size: int):
    """The prime-power classes of the form a*n + b, each with its weight
    w = 64 - log p: for q = p^k <= vmax with p <= sqrt(vmax), q divides
    a*n + b exactly when n = c (mod q).  Primes dividing a are left out,
    since gcd(a, b) = 1 keeps them away from every value.  Classes with
    q <= segment_size come back as a list of (q, c, w); the rest, which
    meet a segment at most once, as arrays q, c and w."""
    dense, sparse = [], []
    for p in primes[:np.searchsorted(primes, math.isqrt(vmax), "right")].tolist():
        if a % p == 0:
            continue
        w = 64 - math.log(p)
        q = p
        while q <= vmax:
            (dense if q <= segment_size else sparse).append((q, -b * pow(a, -1, q) % q, w))
            q *= p
    sq, sc, sw = zip(*sparse) if sparse else ((), (), ())
    return dense, (np.array(sq, dtype=np.int64), np.array(sc, dtype=np.int64),
                   np.array(sw, dtype=np.float64))


def _segments_histogram(L: LinearSystem, spans, classes):
    """Histogram of Omega(L(n)) over the segments [lo, hi) in ``spans``,
    and the number of n there with L(n) = 0; ``classes[i]`` holds the
    sieve classes of form i.  One set of segment-sized buffers serves
    every segment."""
    size = max(hi - lo for lo, hi in spans)
    index = np.arange(size, dtype=np.int64)
    value_buf, acc_buf, omega_buf = np.empty(size, np.int64), np.empty(size), np.empty(size)
    counts = Counter()
    excluded = 0
    for lo, hi in spans:
        m = hi - lo
        v, acc, omega = value_buf[:m], acc_buf[:m], omega_buf[:m]
        omega.fill(0)
        zeros = []
        for (a, b), (dense, (sq, sc, sw)) in zip(L.forms, classes):
            np.multiply(index[:m], a, out=v)
            v += a * lo + b
            np.abs(v, out=v)
            # gcd(a, b) = 1, so a*n + b has an integer zero only when a = +-1
            if abs(a) == 1 and lo <= -a * b < hi:
                zeros.append(-a * b - lo)
                v[zeros[-1]] = 1
            np.log(v, out=acc)
            acc -= _HALF_LOG2
            for q, c, w in dense:
                run = acc[(c - lo) % q::q]
                run += w
            off = (sc - lo) % sq
            hit = off < m
            np.add.at(acc, off[hit], sw[hit])
            # acc = 64 Omega(F) + log(|v| / F) - log(2) / 2: see the module docstring
            acc *= 1 / 64
            omega += np.ceil(acc, out=acc)
        omega[zeros] = 0
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
    leaves the signed 64-bit range; ValueError when x is not a whole
    number >= 0, segment_size < 1 or threads < 1.
    """
    x = _whole("x", x)
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
    classes = [_sieve_classes(a, b, vmax, primes, segment_size)
               for (a, b), vmax in zip(L.forms, form_vmax)]
    spans = [(lo, min(lo + segment_size, x + 1))
             for lo in range(1, x + 1, segment_size)]
    # each of k threads takes every k-th segment, with its own buffers
    k = min(threads, len(spans))
    if k == 1:
        results = [_segments_histogram(L, spans, classes)]
    else:
        with ThreadPoolExecutor(max_workers=k) as pool:
            results = list(pool.map(
                lambda i: _segments_histogram(L, spans[i::k], classes), range(k)))
    counts = Counter()
    excluded = 0
    for c, ex in results:
        counts.update(c)
        excluded += ex
    return OmegaHistogram(L, x, dict(sorted(counts.items())), excluded)


def count_at_most(L: LinearSystem, x: int, r: int, **kwargs) -> int:
    """#{n <= x : L(n) != 0 and Omega(L(n)) <= r}; ValueError when r < 0,
    before any sieving."""
    if r < 0:
        raise ValueError(f"r = {r} must be >= 0")
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

