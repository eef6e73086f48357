"""Exact Omega histograms over n <= x for a linear-form product.

Responsibility: empirical counting only.  For a form a*n + b and a
prime p not dividing a, the n with p^k | a*n + b are one residue class
c = -b/a mod p^k.  omega_profile computes these classes once, for every
prime power q = p^k <= max |value| with p <= sqrt(max |value|); each
segment then takes one strided slice per class, adding 1 to Omega and
multiplying p into the found part of the value.  The cofactor |value| /
found has no prime factor below sqrt(max |value|), so it is 1 or a
prime.  This is exact, not probabilistic.  Segments are independent,
so threading changes nothing but wall time.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arithmetic import LinearSystem, arithmetic_tables
from .errors import BudgetExceeded, Int64Overflow

X_CAP = 100_000_000
DEFAULT_SEGMENT = 1 << 17
_INT64_LIMIT = 1 << 63


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


def _prime_power_classes(a: int, b: int, vmax: int, primes: np.ndarray):
    """(p, q, c) for each prime power q = p^k <= vmax with p <= sqrt(vmax):
    q divides a*n + b exactly when n = c (mod q).  Primes dividing a are
    left out, since gcd(a, b) = 1 keeps them away from every value."""
    classes = []
    for p in primes[:np.searchsorted(primes, math.isqrt(vmax), "right")].tolist():
        if a % p == 0:
            continue
        q = p
        while q <= vmax:
            classes.append((p, q, -b * pow(a, -1, q) % q))
            q *= p
    return classes


def _segment_histogram(L: LinearSystem, lo: int, hi: int, classes):
    """Histogram of Omega(L(n)) for n in [lo, hi); ``classes[i]`` holds
    the prime-power classes of form i."""
    n = np.arange(lo, hi, dtype=np.int64)
    omega = np.zeros(hi - lo, dtype=np.int32)
    zero_any = np.zeros(hi - lo, dtype=bool)
    for (a, b), form_classes in zip(L.forms, classes):
        av = np.abs(a * n + b)
        zero = av == 0
        zero_any |= zero
        # found = the part of |value| made of primes <= sqrt(vmax), so it
        # divides |value| and fits in int64.  Every q divides 0, so found
        # starts at 0 where the value is 0 and stays 0 there.
        found = (~zero).astype(np.int64)
        for p, q, c in form_classes:
            off = (c - lo) % q
            omega[off::q] += 1
            found[off::q] *= p
        # |value| / found has no prime factor <= sqrt(vmax): it is 1 or prime
        omega += found < av
    keep = ~zero_any
    hist = np.bincount(omega[keep])
    counts = Counter({k: int(v) for k, v in enumerate(hist) if v})
    return counts, int(zero_any.sum())


def omega_profile(L: LinearSystem, x: int, segment_size: int = DEFAULT_SEGMENT,
                  threads: int = 1) -> OmegaHistogram:
    """Exact histogram of Omega(L(n)) over 1 <= n <= x.

    Deterministic regardless of segment size or thread count: segment
    results are integer counters merged by addition.  Raises
    BudgetExceeded when x > X_CAP and Int64Overflow when a*n or a*n + b
    leaves the signed 64-bit range; ValueError when x < 0 or
    segment_size < 1.
    """
    x = int(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    if x > X_CAP:
        raise BudgetExceeded(f"x = {x} above cap {X_CAP}")
    if x == 0:
        return OmegaHistogram(L, 0, {}, 0)
    # |a*n + b| on 1 <= n <= x is largest at an end
    form_vmax = [max(abs(a + b), abs(a * x + b)) for a, b in L.forms]
    for (a, b), vmax in zip(L.forms, form_vmax):
        if max(vmax, abs(a) * x, abs(b)) >= _INT64_LIMIT:
            raise Int64Overflow(f"{a}*n + {b} does not fit in int64 for n <= {x}")
    primes = arithmetic_tables(max(math.isqrt(max(form_vmax)) + 1, 3)).primes
    classes = [_prime_power_classes(a, b, vmax, primes)
               for (a, b), vmax in zip(L.forms, form_vmax)]
    spans = [(lo, min(lo + segment_size, x + 1))
             for lo in range(1, x + 1, segment_size)]
    counts = Counter()
    excluded = 0
    if threads <= 1:
        results = [_segment_histogram(L, lo, hi, classes) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda span: _segment_histogram(L, span[0], span[1], classes), spans))
    for c, ex in results:
        counts.update(c)
        excluded += ex
    return OmegaHistogram(L, x, dict(sorted(counts.items())), excluded)


def count_at_most(L: LinearSystem, x: int, r: int, **kwargs) -> int:
    """#{n <= x : L(n) != 0 and Omega(L(n)) <= r}."""
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

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def density_report(L: LinearSystem, x: int, r: int, **kwargs) -> DensityReport:
    if x < 3:
        raise ValueError("x must be >= 3")
    count = count_at_most(L, x, r, **kwargs)
    comparator = x / math.log(x) ** L.kappa
    return DensityReport(L.label(), x, r, count, comparator, count / comparator)


def histogram_to_csv(hist: OmegaHistogram) -> str:
    lines = ["omega,count"]
    lines += [f"{k},{v}" for k, v in sorted(hist.counts.items())]
    return "\n".join(lines) + "\n"
