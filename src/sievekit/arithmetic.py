"""Integer substrate: linear-form systems, local densities, multiplicative
functions f and f', singular products, Mertens-type sums and the prime sieve.

A system is a product of integer linear forms a_i*n + b_i.  The local
density rho(d) counts roots of the product mod d; for squarefree d it is
multiplicative, and f(d) = d/rho(d), f' = f * mu (Dirichlet convolution
on squarefree arguments, so f'(p) = f(p) - 1).  rho(p) = kappa for every
prime p above M = max(A, 2AB), A = max |a_i| and B = max |b_i|: M bounds
each factor a_i and a_t b_s - a_s b_t of the discriminant, and none is 0,
so no p > M divides it.  Every loop over the primes below a cutoff reads
rho(p) from _rho_below, which counts roots only at the primes up to M.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BudgetExceeded,
    DensityZero,
    DomainError,
    GcdViolation,
    LimitTooLarge,
    ZeroDiscriminant,
    ZeroFactor,
    ZeroValue,
)

TABLE_CAP = 200_000_000
# Largest prime power whose residues rho scans one by one.
RHO_SCAN_CAP = 1_000_000

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _whole(name: str, value, low: int | None = None) -> int:
    """``value`` as an int, by the one whole-number check: ValueError
    "<name> = <value> must be an integer", or "... must be >= <low>" below
    ``low``.  10.0 and numpy integers pass; 1.5, nan, inf, bools and
    anything not a real number (a string such as '3') are refused, never
    truncated, parsed or read as 0 and 1."""
    if (isinstance(value, (bool, np.bool_))
            or not (isinstance(value, int)
                    or isinstance(value, numbers.Real) and float(value).is_integer())):
        raise ValueError(f"{name} = {value} must be an integer")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} = {value} must be >= {low}")
    return value


@dataclass(frozen=True)
class LinearSystem:
    """Validated product of linear forms.  Equality and hashing read
    (forms, kappa) only; the discriminant ``delta`` is multiplied out on
    first use and kept on the instance."""

    forms: tuple[tuple[int, int], ...]
    kappa: int

    @cached_property
    def delta(self) -> int:
        return _discriminant(self.forms)

    def value(self, n: int) -> int:
        """Product of all form values at n."""
        out = 1
        for a, b in self.forms:
            out *= a * n + b
        return out

    def label(self) -> str:
        if all(a == 1 for a, _ in self.forms):
            return "{" + ",".join(str(b) for _, b in self.forms) + "}"
        return str(list(map(list, self.forms)))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Result of the rho(p) < p check over the primes p <= kappa required
    by the sieve hypothesis; for p > kappa, rho(p) <= kappa < p holds
    always, so no other prime needs checking."""

    admissible: bool
    failing_prime: int | None
    checked_primes: tuple[int, ...]


def build_system(forms) -> LinearSystem:
    """Validate a list of (a, b) pairs and return a LinearSystem.

    Raises ValueError unless ``forms`` is a non-empty list of integer
    (not bool) pairs, GcdViolation when some gcd(a_i, b_i) != 1 and ZeroDiscriminant
    when the discriminant vanishes (covers a_i = 0 and repeated or
    proportional forms).
    """
    try:
        pairs = [(a, b) for a, b in forms]
        canon = [(operator.index(a), operator.index(b)) for a, b in pairs]
    except (TypeError, ValueError):
        pairs = canon = []
    if not canon or any(isinstance(v, bool) for pair in pairs for v in pair):
        raise ValueError("forms must be a non-empty list of integer pairs [a, b]")
    for a, b in canon:
        if math.gcd(a, b) != 1:
            raise GcdViolation(f"gcd({a},{b}) = {math.gcd(a, b)} != 1")
    # The discriminant is zero iff a factor is: some a_i = 0, or some
    # a_t b_s = a_s b_t, which for coprime pairs with a != 0 holds iff
    # (a_s, b_s) = +-(a_t, b_t).  So no product is formed here.
    signed = {(a, b) if a > 0 else (-a, -b) for a, b in canon}
    if any(a == 0 for a, _ in canon) or len(signed) < len(canon):
        raise ZeroDiscriminant("discriminant is zero (zero or proportional forms)")
    return LinearSystem(tuple(canon), len(canon))


def _discriminant(forms) -> int:
    d = 1
    for a, _ in forms:
        d *= a
    for t in range(len(forms)):
        at, bt = forms[t]
        for s in range(t + 1, len(forms)):
            a_s, b_s = forms[s]
            d *= at * b_s - a_s * bt
    return d


def discriminant(L: LinearSystem) -> int:
    """Exact discriminant prod a_i * prod_{t<s} (a_t b_s - a_s b_t),
    computed on first use and kept on L."""
    return L.delta


def from_offsets(offsets) -> LinearSystem:
    """System with forms n + h for each offset h."""
    return build_system([(1, int(h)) for h in offsets])


def parse_tuple_spec(text: str) -> LinearSystem:
    """Parse a tuple spec: a JSON file path, inline JSON {"forms": ...},
    or the shorthand "0,2,6" meaning forms n + h_i.  ValueError unless the
    JSON is an object whose "forms" is a non-empty list of integer pairs."""
    text = text.strip()
    if os.path.exists(text):
        with open(text) as fh:
            data = json.load(fh)
    elif text.startswith("{"):
        data = json.loads(text)
    else:
        try:
            return from_offsets([int(part) for part in text.split(",")])
        except ValueError:
            raise ValueError(f"tuple spec {text!r} is not a JSON file path, a JSON object "
                             '{"forms": ...} or comma-separated integer offsets') from None
    return build_system(data.get("forms") if isinstance(data, dict) else None)


def _rho_below(L: LinearSystem, z: float) -> list[int]:
    """rho(p) for the primes p < z, aligned with _primes_below(z), by the module's rule."""
    primes = _primes_below(z)
    A = max(abs(a) for a, _ in L.forms)
    k = bisect.bisect_right(primes, max(A, 2 * A * max(abs(b) for _, b in L.forms)))
    return [len(_roots_mod_prime(L, p)) for p in primes[:k]] + [L.kappa] * (len(primes) - k)


def _roots_mod_prime(L: LinearSystem, p: int):
    """Distinct roots of L(n) = 0 mod p.

    A form with p | a_i contributes no root: gcd(a_i, b_i) = 1 forces
    p to miss b_i, so a_i*n + b_i is never divisible by p.
    """
    return sorted({-b * pow(a, -1, p) % p for a, b in L.forms if a % p})


def rho(L: LinearSystem, d: int) -> int:
    """Number of n mod d with L(n) = 0 (mod d); rho(1) = 1.

    Multiplicative over the prime-power parts of d (CRT).  A prime part
    p counts the roots of L mod p; a part p^k with k > 1 is counted by a
    direct scan of its p^k residues (a documented extension used only by
    diagnostics, e.g. checking rho(p^2) bounds), and BudgetExceeded is
    raised before any scan when a part is above RHO_SCAN_CAP.
    """
    d = _whole("d", d, 1)
    parts = factorize(d)
    for p, e in parts:
        if e > 1 and p ** e > RHO_SCAN_CAP:
            raise BudgetExceeded(f"rho scan of {p}^{e} above cap {RHO_SCAN_CAP}")
    return math.prod(len(_roots_mod_prime(L, p)) if e == 1
                     else sum(L.value(n) % q == 0 for q in [p ** e] for n in range(q))
                     for p, e in parts)


def roots_mod_squarefree(L: LinearSystem, d: int) -> list[int]:
    """All residues c mod squarefree d >= 1 with L(c) = 0 (mod d), via CRT."""
    d = _whole("d", d, 1)
    roots, mod = [0], 1
    for p, e in factorize(d):
        if e > 1:
            raise ValueError("modulus must be squarefree")
        roots = _crt(roots, mod, _roots_mod_prime(L, p), p)
        mod *= p
    return sorted(roots)


def _crt(ra, a: int, rb, b: int) -> list[int]:
    """The residues mod a*b, a and b coprime, that are r mod a and s mod b
    for some r in ra and s in rb."""
    inv = pow(a, -1, b)
    return [r + a * ((s - r) * inv % b) for r in ra for s in rb]


def is_admissible(L: LinearSystem) -> AdmissibilityReport:
    """Check rho(p) < p for all primes p <= kappa (sieve hypothesis)."""
    small = _primes_below(L.kappa + 1)
    failing = next((p for p, r in zip(small, _rho_below(L, L.kappa + 1)) if r >= p), None)
    return AdmissibilityReport(admissible=failing is None, failing_prime=failing,
                               checked_primes=small)


def f_values(L: LinearSystem, d: int) -> tuple[Fraction, Fraction]:
    """Exact (f(d), f'(d)) for squarefree d >= 1: f(d) = d/rho(d),
    f'(d) = prod_{p|d} (f(p) - 1)."""
    d = _whole("d", d, 1)
    if d == 1:
        return Fraction(1), Fraction(1)
    f = Fraction(1)
    fp = Fraction(1)
    for p, e in factorize(d):
        if e > 1:
            raise ValueError("f is defined on squarefree arguments")
        r = len(_roots_mod_prime(L, p))
        if r == 0:
            raise DensityZero(f"rho({p}) = 0")
        f *= Fraction(p, r)
        fp *= Fraction(p, r) - 1
    return f, fp


def V_product(L: LinearSystem, z: float, exact: bool = False):
    """Singular product prod_{p<z} (1 - rho(p)/p).

    Strictly positive for admissible systems; raises ZeroFactor when some
    rho(p) = p.  Float by default, exact Fraction on request.
    """
    one = Fraction(1) if exact else 1.0
    out = one
    for p, r in zip(_primes_below(z), _rho_below(L, z)):
        if r == p:
            raise ZeroFactor(f"rho({p}) = {p}")
        out *= one - one * r / p
    return out


def H_sum(L: LinearSystem, s: float) -> tuple[float, float]:
    """Weighted Mertens sum sum_{p<s} rho(p) log(p)/p.

    Returns (value, residual) where residual = value - kappa*log(s);
    the residual stays O(1) because rho(p) = kappa for all but finitely
    many primes.  DomainError unless s is positive and finite.
    """
    if s <= 0:
        raise DomainError(f"s = {s:g} must be > 0")
    value = math.fsum(r * math.log(p) / p for p, r in zip(_primes_below(s), _rho_below(L, s)))
    return value, value - L.kappa * math.log(s)


def omega_L(L: LinearSystem, n: int) -> int:
    """Omega(|L(n)|): prime factors of the product counted with
    multiplicity.  Raises ZeroValue when a form vanishes at n."""
    n = _whole("n", n)
    total = 0
    for a, b in L.forms:
        v = a * n + b
        if v == 0:
            raise ZeroValue(f"form {a}*n+{b} vanishes at n={n}")
        total += omega(abs(v))
    return total


def omega(m: int) -> int:
    """Omega(m) for m >= 1, with multiplicity."""
    m = _whole("m", m, 1)
    return sum(e for _, e in factorize(m))


# ----------------------------------------------------------------------
# factorization / primality helpers

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n is odd: factorize calls this only after dividing by every prime < 10^5
    x0, c = 2, 1
    while True:
        x = y = x0
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x0 += 1
        c += 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of |n|, n != 0: trial division by the
    sieve's primes up to the power of two above isqrt(|n|), capped at 10^5
    (so at most 17 table sizes), stopping once p^2 exceeds the cofactor; a
    cofactor left above 1 goes to Miller-Rabin and Pollard rho."""
    n = abs(_whole("n", n))
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    for p in _primes_upto_list(min(1 << math.isqrt(n).bit_length(), 100_000)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


# ----------------------------------------------------------------------
# prime sieve

def arithmetic_tables(limit: int) -> np.ndarray:
    """Ascending int64 array of the primes <= limit, by a boolean sieve of
    Eratosthenes; the one prime sieve behind every prime list here.
    LimitTooLarge above TABLE_CAP."""
    limit = _whole("limit", limit, 2)
    if limit > TABLE_CAP:
        raise LimitTooLarge(f"limit {limit} exceeds cap {TABLE_CAP}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


@lru_cache(maxsize=64)
def _primes_upto_list(limit: int) -> tuple[int, ...]:
    return tuple(arithmetic_tables(limit).tolist())


def _primes_below(z: float) -> tuple[int, ...]:
    """Primes strictly below z; DomainError when z is not finite, so every
    prime cutoff is checked here."""
    if not math.isfinite(z):
        raise DomainError(f"cutoff z = {z} must be finite")
    if z <= 2:
        return ()
    return _primes_upto_list(math.ceil(z) - 1)
