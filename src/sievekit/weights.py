"""Richert weights, Selberg lambda/zeta weight systems, and the exact
decomposition of the weighted sieve sum into main and remainder terms.

The lambda system lives on the squarefree support {nu : nu | P(z'),
nu < xi}.  The dual coordinates zeta are defined by

    mu(r) zeta_r / f'(r) = sum_{d < xi/r} lambda_{dr} / f(dr)

and inverted by

    mu(d) lambda_d / f(d) = sum_{r < xi/d} zeta_{dr} / f'(dr).

Each system enumerates its support once into a SupportLattice of integer
tables, mu, rho and phi = prod (p - rho(p)) from one rho(p) per prime, so
f = m/rho and f' = phi/rho.  The support is divisor-closed, so both
directions are superset sums: one pass of acc[m/p] += acc[m] per prime p
over the m it divides, O(|S| omega) additions in all.

A sweep over (z', xi) asks for many supports of one prime set, each the
prefix m < xi of one sorted enumeration, so support_elements keeps the
last enumeration and cuts each prefix by bisection.  The first call for
a prime set enumerates exactly to xi; a repeat call past the kept bound
B enumerates again to max(xi, 2B), so an ascending sweep enumerates
about log2 xi times per prime set.  The classical zeta = 1 makes lambda
a function of (L, support, mode) alone, so the enumeration also keeps
every classical system built on one of its prefixes, keyed by (L, prefix
length, mode); callers get their own lambda and zeta dicts and share the
lattice, which nothing mutates.  A grown enumeration of the same primes
keeps them and one of another prime set drops them, so a sweep inverts
each support once per prime set, at the cost of keeping those systems:
about 15 MB for one float system at z' = 1000, xi = 10^5.

For a concrete instance A = {L(n) : n <= x} the weighted sum

    sum_n (sum_{d|L(n), d|P(z)} a_d) (sum_{nu|L(n), nu|P(z')} lambda_nu)^2

decomposes exactly as x*S + E with S the zeta-diagonalized main term,
one pass over the support's elements and one over its lattice steps, and
E the remainder sum over exact R_d = |A_d| - x rho(d)/d.  The identity
is linear in the a_d, so exact mode snapshots any real weights into
dyadic rationals and verifies a residual of exactly zero.  S, E and the
left side scale by one rule, _scaled: exact mode multiplies each set of
values by the lcm of its denominators and divides once per output, as
G_sum does (E also multiplies R_m by the lcm of the moduli); float mode
takes the values as they are.  E counts |A_m| for the joint moduli
m = [d, nu1, nu2] without factoring any m: the roots of each lcm
[nu1, nu2] come by CRT from the lattice's primes, and one chunked numpy
pass lifts them to every m = lcm * d, so its cost follows the number of
roots, not x.  The left side enumerates every n <= x, a chunk at a time:
per-n sums of a_d and of lambda_nu come from strided adds over the
residue classes n = c mod d of the roots c of L mod d, taken per
modulus, so it shares nothing with the lambda algebra or the lift in E.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arithmetic import (
    LinearSystem,
    _crt,
    _primes_below,
    _rho_below,
    _roots_mod_prime,
    _whole,
    is_prime,
    roots_mod_squarefree,
    V_product,
)
from .delay_ode import _resolve_j
from .errors import (
    BudgetExceeded,
    DensityZero,
    DivisionByZero,
    DomainError,
    SupportEmpty,
    ZeroFactor,
)
from .moments import SievePolynomial

SUPPORT_NODE_BUDGET = 10_000_000
GSUM_WORK_BUDGET = 100_000_000
DECOMPOSE_X_CAP = 1_000_000


# ----------------------------------------------------------------------
# Richert weights


@dataclass(frozen=True)
class RichertWeights:
    """Logarithmic weights: b at 1, -b at primes below y,
    -log(z/d)/log(z) at primes in [y, z), zero elsewhere."""

    b: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(b=self.b, y=self.y, z=self.z)
        if self.b <= 0:
            raise DomainError("b must be positive")
        if not (1.0 < self.y <= self.z):
            raise DomainError("need 1 < y <= z")


def _require_finite(**values):
    """DomainError naming the first non-finite value."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} = {v} must be finite")


def richert_a(W: RichertWeights, d: int) -> float:
    """Weight a_d per the four-case definition, for a whole d >= 1."""
    d = _whole("d", d, 1)
    if d == 1:
        return W.b
    return _prime_a(W, d) if d < W.z and is_prime(d) else 0.0


def _prime_a(W: RichertWeights, p: int) -> float:
    """a_p for a prime p < z: -b below y, -log(z/p)/log z from y on."""
    return -W.b if p < W.y else -math.log(W.z / p) / math.log(W.z)


# ----------------------------------------------------------------------
# squarefree support enumeration


# The last enumeration (B, primes, pairs, classical): the (m, primes of m)
# pairs for every squarefree product m < B of ``primes``, sorted by m,
# where primes are those below min(z', B) for the z' that asked; and the
# classical (zeta = 1) systems built on its prefixes, (L, n, exact) ->
# (support, lattice, zeta, lambda) for the first n pairs.
_enumerated = (0, (), [], {})


def support_elements(xi: float, z_prime: float,
                     budget: int = SUPPORT_NODE_BUDGET) -> list[tuple[int, tuple[int, ...]]]:
    """Squarefree m < xi with all prime factors < z', as (m, primes)
    pairs sorted by m.  BudgetExceeded when the lattice has more than
    ``budget`` nodes; DomainError when xi or z' is not finite, ValueError
    unless budget is a whole number >= 0."""
    global _enumerated
    _require_finite(xi=xi, z_prime=z_prime)
    budget = _whole("budget", budget, 0)
    if xi <= 1:
        raise SupportEmpty("xi <= 1 leaves no support")
    bound, have, pairs, classical = _enumerated
    # Both prime lists are initial runs of the primes, so they agree below
    # the cut when they count as many primes there.  A grown enumeration
    # of the same primes keeps their pairs as a prefix, so its classical
    # systems carry over; another prime set starts with none.
    cut = min(xi, bound)
    if bisect.bisect_left(_primes_below(min(z_prime, xi)), cut) != bisect.bisect_left(have, cut):
        bound, classical = 0, {}
    if xi > bound:
        grown = max(xi, 2 * bound)
        entry = _sorted_products(z_prime, grown, budget)
        if entry is None and grown > xi:
            entry = _sorted_products(z_prime, xi, budget)
        if entry is None:
            raise BudgetExceeded("support lattice above node budget")
        _enumerated = (*entry, classical)
        pairs = entry[2]
    n = bisect.bisect_left(pairs, xi, key=operator.itemgetter(0))
    if n > budget:
        raise BudgetExceeded("support lattice above node budget")
    return pairs[:n]


def _sorted_products(z_prime: float, bound: float, budget: int):
    """(bound, primes below min(z', bound), the sorted _products pairs
    below bound), or None past ``budget`` pairs."""
    primes = _primes_below(min(z_prime, bound))
    pairs = list(itertools.islice(_products(primes, bound), budget + 1))
    return None if len(pairs) > budget else (bound, primes, sorted(pairs))


def _products(primes, bound):
    """(m, primes of m) for every squarefree product m < bound of the
    ascending ``primes``, 1 first, by a DFS over ascending primes."""
    stack = [(1, (), 0)]
    while stack:
        m, pf, i = stack.pop()
        yield m, pf
        for k in range(i, len(primes)):
            mp = m * primes[k]
            if mp >= bound:
                break
            stack.append((mp, pf + (primes[k],), k + 1))


# ----------------------------------------------------------------------
# lambda / zeta systems


@dataclass(frozen=True)
class SupportLattice:
    """mu(m), rho(m) and phi(m) = prod_{p | m} (p - rho(p)) keyed by the
    elements m of one support, ascending, so f(m) = m/rho(m) and
    f'(m) = phi(m)/rho(m); and the triples (p, m, m/p) for each prime p
    of each element m, sorted by p."""

    mu: dict
    rho: dict
    phi: dict
    steps: tuple[tuple[int, int, int], ...]


@dataclass
class LambdaSystem:
    """zeta/lambda weight pair over the squarefree support.

    Values are Fractions in exact mode, floats otherwise; the mode also
    fixes the arithmetic of s_main, e_error, weighted_sum_direct and
    decompose on this system.  lambda_1 != 0 is required; normalized()
    returns lambda'_nu = lambda_nu / lambda_1.  zeta and lam are the
    system's own dicts.  A classical system shares its support tuple and
    lattice with the support enumeration it was built on, which keeps
    them until an enumeration of another prime set replaces it.
    """

    L: LinearSystem
    xi: float
    z_prime: float
    support: tuple[int, ...]
    zeta: dict
    lam: dict
    exact: bool
    lattice: SupportLattice = field(repr=False, compare=False)

    def normalized(self) -> dict:
        l1 = self.lam[1]
        if l1 == 0:
            raise DivisionByZero("lambda_1 = 0")
        return {nu: v / l1 for nu, v in self.lam.items()}


def _lattice(L: LinearSystem, sf) -> SupportLattice:
    """Lattice over the (m, primes) pairs of support_elements, with rho(m) =
    rho(m/p) rho(p) and phi(m) = phi(m/p) phi(p).  Every prime of the
    support is one of its elements, so rho(p) is read up to the largest.
    The smallest prime with rho(p) = 0 raises DensityZero, with rho(p) = p
    (f'(p) = 0) DivisionByZero."""
    primes = [m for m, pf in sf if len(pf) == 1]
    rho_p = dict(zip(primes, _rho_below(L, max(primes, default=1) + 1)))
    for p, r in rho_p.items():
        if r in (0, p):
            raise DensityZero(f"rho({p}) = 0") if r == 0 else DivisionByZero(f"f'({p}) = 0")
    rho, phi = {1: 1}, {1: 1}
    for m, pf in sf[1:]:
        p = pf[-1]
        rho[m], phi[m] = rho[m // p] * rho_p[p], phi[m // p] * (p - rho_p[p])
    return SupportLattice({m: (-1) ** len(pf) for m, pf in sf}, rho, phi,
                          tuple(sorted((p, m, m // p) for m, pf in sf for p in pf)))


def _scaled(values: dict, exact: bool) -> tuple[dict, int]:
    """(values * q, q) with q the lcm of their denominators in exact mode,
    so every scaled value is an integer; (values, 1) in float mode."""
    if not exact:
        return values, 1
    ratios = {k: v.as_integer_ratio() for k, v in values.items()}
    q = math.lcm(*(d for _, d in ratios.values()))
    return {k: n * (q // d) for k, (n, d) in ratios.items()}, q


def _dual(lat: SupportLattice, values: dict, to_lambda: bool, exact: bool) -> dict:
    """mu(d) g(d) sum_{m in support, d | m} values[m] / h(m) for every d in
    the support, (g, h) = (f, f') to lambda and (f', f) to zeta, by one
    superset-sum pass per prime.  With h = n_h/rho, exact mode scales each
    term by q T (q the lcm of the value denominators, T that of the n_h)
    to an integer and divides once per element at the end."""
    rho = lat.rho
    ident = dict(zip(rho, rho))
    inner, outer = (lat.phi, ident) if to_lambda else (ident, lat.phi)
    vals, q = _scaled(values, exact)
    t = math.lcm(*inner.values()) if exact else 1
    acc = {m: vals[m] * r * (t // inner[m]) if exact else float(vals[m]) * r / inner[m]
           for m, r in rho.items()}
    for _, m, d in lat.steps:
        acc[d] += acc[m]
    div = Fraction if exact else operator.truediv
    return {m: div(lat.mu[m] * outer[m] * a, q * t * rho[m]) for m, a in acc.items()}


def support_u(xi: float, z_prime: float) -> float:
    """u = log xi / log z', so that xi = z'^u.  DomainError unless xi and
    z' are finite, xi > 0 and z' > 1."""
    _require_finite(xi=xi, z_prime=z_prime)
    if xi <= 0:
        raise DomainError(f"xi = {xi:g} must be > 0")
    if z_prime <= 1:
        raise DomainError(f"z' = {z_prime:g} must be > 1")
    return math.log(xi) / math.log(z_prime)


def _poly_zeta(P: SievePolynomial, xi: float, z_prime: float, sf,
               exact: bool) -> dict:
    u = support_u(xi, z_prime)
    if P.u < u * (1.0 - 1e-12):
        raise DomainError(f"P defined on [0,{P.u}] but u = {u:.6g}")
    ms = [m for m, _ in sf]
    log_zp = math.log(z_prime)
    w = np.array([math.log(xi / m) / log_zp for m in ms])
    vals = P.star(w)
    return dict(zip(ms, map(Fraction, vals.tolist()) if exact else vals.tolist()))


def zeta_from_poly(P: SievePolynomial, xi: float, z_prime: float,
                   exact: bool = False) -> dict:
    """zeta_r = P(log(xi/r)/log z') over the support.  In exact mode the
    float value is snapshotted into a dyadic rational so the inversion
    relations can be verified exactly."""
    return _poly_zeta(P, xi, z_prime, support_elements(xi, z_prime), exact)


def _invert(L: LinearSystem, sf, values: dict, to_lambda: bool,
            exact: bool) -> tuple[SupportLattice, dict]:
    """(lattice, other coordinates) of the values over the support pairs
    sf: lambda from zeta when to_lambda, else zeta from lambda.
    DomainError naming the first element with no value or with a float
    value that is NaN or infinite."""
    name = "zeta" if to_lambda else "lambda"
    missing = next((m for m, _ in sf if m not in values), None)
    if missing is not None:
        raise DomainError(f"no {name} value for support element {missing}")
    bad = next((m for m, _ in sf if not isinstance(values[m], (int, Fraction))
                and not math.isfinite(values[m])), None)
    if bad is not None:
        raise DomainError(f"{name} value {values[bad]} for support element {bad} is not finite")
    lat = _lattice(L, sf)
    return lat, _dual(lat, values, to_lambda, exact)


def lambda_from_zeta(L: LinearSystem, xi: float, z_prime: float, zeta: dict,
                     exact: bool = True) -> dict:
    """Invert mu(d) lambda_d / f(d) = sum_{r < xi/d} zeta_{dr}/f'(dr).
    DomainError when zeta misses a support element."""
    return _invert(L, support_elements(xi, z_prime), zeta, True, exact)[1]


def zeta_from_lambda(L: LinearSystem, xi: float, z_prime: float, lam: dict,
                     exact: bool = True) -> dict:
    """The defining direction mu(r) zeta_r / f'(r) = sum lambda_{dr}/f(dr).
    DomainError when lam misses a support element."""
    return _invert(L, support_elements(xi, z_prime), lam, False, exact)[1]


def _classical(L: LinearSystem, sf, exact: bool):
    """(support, lattice, zeta, lambda) of the classical zeta = 1 over the
    support pairs sf, the first len(sf) pairs of the last enumeration:
    from that enumeration's classical systems, or inverted by _invert and
    kept there.  Their memory is the sum of the systems' (about 15 MB for
    a float system of 25,704 elements).  Callers copy zeta and lambda;
    nothing mutates a lattice or a support tuple."""
    classical = _enumerated[3]
    key = (L, len(sf), exact)
    held = classical.get(key)
    if held is None:
        support = tuple(m for m, _ in sf)
        zeta = dict.fromkeys(support, Fraction(1) if exact else 1.0)
        lat, lam = _invert(L, sf, zeta, True, exact)
        held = classical[key] = support, lat, zeta, lam
    return held


def build_lambda_system(L: LinearSystem, xi: float, z_prime: float,
                        zeta=None, P: SievePolynomial | None = None,
                        exact: bool = True) -> LambdaSystem:
    """Assemble a LambdaSystem from explicit zeta values, a polynomial
    (zeta_r = P(log(xi/r)/log z')), or the classical choice zeta = 1
    when neither is given.  The system keeps its support lattice.  A
    classical system comes from _classical, so it shares its lattice with
    every classical system of the same (L, support, mode) built on the
    same support enumeration.  DomainError when zeta and P are both given,
    or when explicit zeta values miss a support element or are not finite."""
    if zeta is not None and P is not None:
        raise DomainError("give zeta or P, not both")
    sf = support_elements(xi, z_prime)
    if zeta is None and P is None:
        # lambda_1 = sum 1/f'(m) > 0: no check needed
        support, lat, zeta, lam = _classical(L, sf, exact)
        return LambdaSystem(L, xi, z_prime, support, dict(zeta), dict(lam), exact, lat)
    support = tuple(m for m, _ in sf)
    if zeta is None:
        zeta = _poly_zeta(P, xi, z_prime, sf, exact)
    elif not isinstance(zeta, dict):
        zeta = {m: zeta(m) for m in support}
    lat, lam = _invert(L, sf, zeta, True, exact)
    if lam[1] == 0:
        raise DivisionByZero("lambda_1 = 0")
    return LambdaSystem(L, xi, z_prime, support, {m: zeta[m] for m in support}, lam,
                        exact, lat)


# ----------------------------------------------------------------------
# G sums


def G_sum(L: LinearSystem, r: float, z_prime: float, exact: bool = False,
          budget: int | None = None):
    """G(r, z') = sum over squarefree m < r, m | P(z'), of 1/f'(m).

    One recurrence over the floor values V = {floor(N/i)} u {0},
    N = ceil(r) - 1, serves both modes: S(v) starts at 1 for v >= 1 and
    each prime p < z' applies S(v) += S(floor(v/p)) / f'(p), reading the
    old values, so S(N) = G.  V is held as two arrays, ``small[v] = S(v)``
    for v <= s = isqrt(N) and ``large[j] = S(N // j)`` for 1 <= j <=
    jmax = N // (s + 1), so floor(v/p) is found by arithmetic, not by a
    search: ``large[j*p]`` while j*p <= jmax, else ``small[(N//j) // p]``,
    and ``small[v // p]`` by repeating each small value p times.  Only the
    v >= p are updated (the others would add S(0) = 0), so the work is
    sum over p of #{v in V : v >= p}.  Float mode uses 1/f'(p) =
    rho(p)/(p - rho(p)); exact mode keeps S scaled by D = prod (p - rho(p))
    in Python integers, multiplying both arrays by p - rho(p) and adding
    rho(p) times the old S(floor(v/p)), and returns Fraction(S(N), D).
    ``budget`` caps the upper bound pi(z') * |V| of the work
    (BudgetExceeded) before anything is allocated.  rho(p) = p raises
    ZeroFactor; rho(p) = 0 gives the prime weight 0.  DomainError when r
    is not finite, ValueError unless budget is a whole number >= 0.
    """
    _require_finite(r=r)
    budget = _whole("budget", GSUM_WORK_BUDGET if budget is None else budget, 0)
    if r <= 1:
        raise SupportEmpty("r <= 1 leaves no support")
    primes = _primes_below(min(z_prime, r))
    rhos = _rho_below(L, min(z_prime, r))
    for p, rho_p in zip(primes, rhos):
        if rho_p == p:
            raise ZeroFactor(f"rho({p}) = {p}: f'({p}) = 0 pole")
    # Every support element divides the product of these primes.
    N = math.ceil(r) - 1
    prod = 1
    for p in primes:
        prod *= p
        if prod > N:
            break
    else:
        N = prod
    s = math.isqrt(N)
    jmax = s - (N // s == s)
    size = s + 1 + jmax
    if len(primes) * size > budget:
        raise BudgetExceeded(f"G-sum work {len(primes)} x {size} above budget")
    dtype = object if exact else float
    small = np.ones(s + 1, dtype=dtype)
    small[0] = 0
    large = np.ones(jmax + 1, dtype=dtype)  # large[0] is never read
    quot = N // np.arange(1, jmax + 1, dtype=np.int64)  # quot[j - 1] = N // j
    scale = 1
    for p, rho_p in zip(primes, rhos):
        k, hi = jmax // p, min(jmax, N // p)
        below_large = np.concatenate((large[p:k * p + 1:p], small[quot[k:hi] // p]))
        below_small = np.repeat(small[1:s // p + 1], p)[:s + 1 - p]
        if exact:
            large *= p - rho_p
            small *= p - rho_p
            scale *= p - rho_p
            c = rho_p
        else:
            c = rho_p / (p - rho_p)
        large[1:hi + 1] += c * below_large
        small[p:] += c * below_small
    top = large[1] if jmax else small[N]
    return Fraction(int(top), scale) if exact else float(top)


def g_sum_report(L: LinearSystem, r: float, z_prime: float, J) -> dict:
    """Compare G(r, z') with its sieve-density approximation j_kappa(tau) /
    V(z'), tau = log r/log z', from J solved for L.kappa up to tau.
    DomainError unless z' > 1, as support_u requires."""
    tau = support_u(r, z_prime)
    g = G_sum(L, r, z_prime)
    J = _resolve_j(L.kappa, tau, J)
    v = V_product(L, z_prime)
    approx = J.j(tau) / v
    return {"G": g, "tau": tau, "V": v, "approx": approx, "ratio": g / approx}


# ----------------------------------------------------------------------
# concrete instances and the exact decomposition


@dataclass(frozen=True)
class SieveInstance:
    """A = {L(n) : 1 <= n <= x} with exact remainders
    R_d = |A_d| - x*rho(d)/d for squarefree d."""

    L: LinearSystem
    x: int

    def __post_init__(self):
        object.__setattr__(self, "x", _whole("x", self.x))
        if self.x < 0:
            raise DomainError(f"x = {self.x} must be >= 0")

    def count_multiples(self, d: int) -> int:
        """|A_d| = #{n <= x : L(n) = 0 mod d}, counted by residue class,
        for squarefree d >= 1."""
        return _count_in_classes(self.x, d, roots_mod_squarefree(self.L, d))

    def remainder(self, d: int) -> Fraction:
        """Exact R_d = |A_d| - x*rho(d)/d, with rho(d) the number of roots
        mod d (squarefree d >= 1), so the roots are enumerated once."""
        roots = roots_mod_squarefree(self.L, d)
        return _count_in_classes(self.x, d, roots) - Fraction(self.x * len(roots), d)


def _count_in_classes(x: int, d: int, roots) -> int:
    """#{1 <= n <= x : n = c mod d for some c in roots}, 0 <= c < d: the
    class of c starts at n = (c - 1) % d + 1."""
    return sum((x - 1 - (c - 1) % d) // d + 1 for c in roots)


@dataclass(frozen=True)
class Decomposition:
    """Exact split lhs = x*main + error plus the residual of the identity."""

    lhs: object
    main: object
    error: object
    residual: object
    mode: str


def _richert_weights(W: RichertWeights, exact: bool) -> dict:
    """{d: a_d} over 1 and the primes d < z with a_d != 0, by _prime_a:
    the one list of Richert weights that all three terms of the identity use."""
    a = {d: _prime_a(W, d) if d > 1 else W.b for d in (1, *_primes_below(W.z))}
    return {d: Fraction(v) if exact else v for d, v in a.items() if v != 0.0}


def _total(S: LambdaSystem, terms, scale: int = 1):
    """Sum of terms in the arithmetic of S: the exact sum over ``scale``
    in exact mode, math.fsum otherwise (where the scale is 1)."""
    return Fraction(sum(terms), scale) if S.exact else math.fsum(terms)


def s_main(W: RichertWeights, S: LambdaSystem, relaxed: bool = False):
    """Main term: sum over support m and d in {1} u {primes < z},
    (d, m) = 1 unless relaxed, of  (1/f'(m)) (a_d/f(d))
    (sum_{r|d} mu(r) zeta_{rm})^2, for the system S.L, exact or float
    as S is, with a_d/f(d), 1/f'(m) and zeta scaled by _scaled.

    zeta is 0 off the support, so zeta_{pm} is 0 unless pm is an
    element M, and then (p, M, m) is a lattice step.  With w_m = 1/f'(m),
    A = sum_d a_d/f(d) and (zeta_m - zeta_pm)^2 = zeta_m^2 +
    zeta_pm (zeta_pm - 2 zeta_m), the sum is

        sum_m A w_m zeta_m^2 + sum_{steps (p, M, m), a_p != 0} (a_p/f(p))
            [w_m zeta_M (zeta_M - 2 zeta_m) - w_M zeta_M^2],

    the last term taking out the d = p that divide M.  Primes p >= z'
    enter through A alone: the work is O(|S| + steps + pi(z)), not
    O(|S| pi(z)).  The relaxed variant drops the coprimality condition,
    so the last term; with Richert weights (a_p <= 0) the dropped terms
    are non-positive, so relaxed <= strict."""
    lat = S.lattice
    ratio = Fraction if S.exact else operator.truediv
    # a_d/f(d) = a_d/(d/rho(d)), rho(1) = 1; a prime with rho(p) = 0 adds 0
    rho = dict(zip((1, *_primes_below(W.z)), (1, *_rho_below(S.L, W.z))))
    a_f, a_scale = _scaled({d: v / ratio(d, rho[d]) for d, v in
                            _richert_weights(W, S.exact).items() if rho[d]}, S.exact)
    weight, w_scale = _scaled({m: ratio(r, lat.phi[m]) for m, r in lat.rho.items()}, S.exact)
    zeta, z_scale = _scaled(S.zeta, S.exact)
    A = sum(a_f.values()) if S.exact else math.fsum(a_f.values())
    terms = [A * w * zeta[m] ** 2 for m, w in weight.items()]
    for p, M, m in lat.steps:
        if p in a_f:
            zM = zeta[M]
            drop = 0 if relaxed else weight[M] * zM * zM
            terms.append(a_f[p] * (weight[m] * zM * (zM - 2 * zeta[m]) - drop))
    return _total(S, terms, a_scale * z_scale ** 2 * w_scale)


def e_error(inst: SieveInstance, W: RichertWeights, S: LambdaSystem):
    """Remainder term sum_{d, nu1, nu2} a_d lambda_nu1 lambda_nu2
    R_[d,nu1,nu2], exact or float as S is.  Each unordered pair is visited
    once, weight 2 when nu1 != nu2, and summed per lcm [nu1, nu2] before
    the d spread it over the joint moduli m = [d, nu1, nu2], one numpy
    grid of (lcm, d).  The roots of each lcm come by CRT from the
    lattice's primes and _class_hits lifts them to every m at once, so no
    modulus is factored.  Exact mode scales lambda and a_d to integers and
    ends with one Fraction over the lcm of the m."""
    a, a_scale = _scaled(_richert_weights(W, S.exact), S.exact)
    lam, lam_scale = _scaled(S.lam, S.exact)
    support = S.support
    if len(support) ** 2 * len(a) > SUPPORT_NODE_BUDGET:
        raise BudgetExceeded("error-term triple sum above budget")
    joint, split = {}, {}
    for i, n1 in enumerate(support):
        l1 = lam[n1]
        l1x2 = 2 * l1
        for n2 in support[i:]:
            rest = n2 // math.gcd(n1, n2)
            nn = n1 * rest
            if nn not in joint:
                joint[nn], split[nn] = 0, (n1, rest)
            joint[nn] += (l1 if n2 == n1 else l1x2) * lam[n2]
    if max(joint) * max(a) >= 1 << 63:
        raise BudgetExceeded("joint modulus above 2^63")
    # m = nn * d, or nn where d | nn, over the grid of lcms nn (first seen
    # first) and weighted d; add.at sums each m in that row order
    nn = np.array(list(joint), dtype=np.int64)[:, None]
    d = np.array(list(a), dtype=np.int64)
    spread = nn % d != 0
    grid = np.where(spread, nn * d, nn).ravel()
    moduli, first, at = np.unique(grid, return_index=True, return_inverse=True)
    dtype = object if S.exact else float
    coeff = np.zeros(len(moduli), dtype=dtype)
    np.add.at(coeff, at, np.multiply.outer(np.array(list(joint.values()), dtype),
                                           np.array(list(a.values()), dtype)).ravel())
    roots = _support_roots(inst.L, S.lattice)
    lcm_roots = [_crt(roots[n1], n1, roots[rest], rest) for n1, rest in split.values()]
    # the first (nn, d) of each m, with d = 1 where m = nn
    lift = np.where(spread.ravel()[first], d[first % len(d)], 1)
    x = inst.x
    hits, rho = _class_hits(inst.L, x, moduli, lift, first // len(d), lcm_roots)
    big = math.lcm(*moduli.tolist()) if S.exact else 1
    terms = []
    for m, c, h, r in zip(moduli.tolist(), coeff.tolist(), hits, rho):
        # m R_m = m |A_m| - x rho(m) = m h - (x mod m) rho(m), an integer
        mr = m * h - x % m * r
        terms.append(c * mr * (big // m) if S.exact else c * (mr / m))
    return _total(S, terms, big * a_scale * lam_scale ** 2)


def _support_roots(L: LinearSystem, lat: SupportLattice) -> dict:
    """Roots of L mod every support element m, as m = (m/p) * p for its
    largest prime p (the last step of m, steps being sorted by p)."""
    top = {m: (p, rest) for p, m, rest in lat.steps}
    roots = {1: [0]}
    for m in lat.rho:
        if m > 1:
            p, rest = top[m]
            roots[m] = _crt(roots[rest], rest, _roots_mod_prime(L, p), p)
    return roots


def _flat(lists):
    """(concatenation, start offsets, lengths) of lists of ints, in int64."""
    count = np.array([len(v) for v in lists], dtype=np.int64)
    return (np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64),
            np.cumsum(count) - count, count)


# Roots lifted per numpy pass in _class_hits: about 0.3 MB of int64
# temporaries, whatever the number of moduli or roots.
_LIFT_CHUNK = 4096


def _class_hits(L: LinearSystem, x: int, m, d, lcm_index, lcm_roots):
    """(hits, rho), lists over the int64 moduli m = nn * d, where nn is
    lcm number lcm_index[i] with roots lcm_roots[lcm_index[i]] and d is 1
    or a prime not dividing nn: rho(m) and the number of roots c of L
    mod m with 1 <= c <= x mod m.

    A root mod m is the CRT lift c = r + nn ((s - r) nn^-1 mod d) of a
    root r mod nn and a root s mod d.  The (m, r, s) triples are laid out
    flat and lifted _LIFT_CHUNK at a time.  Every int64 value stays below
    m or d^2: the caller keeps m < 2^63, and its budget keeps pi(z) below
    10^7, so d < 2^28.  #{n <= x : n = c mod m} is x // m plus 1 when
    1 <= c <= x mod m, so |A_m| = rho(m) (x // m) + hits, and x itself
    never enters int64."""
    nn = m // d
    nn_flat, nn_start, nn_count = _flat(lcm_roots)
    primes, d_index = np.unique(d, return_inverse=True)
    d_flat, d_start, d_count = _flat([_roots_mod_prime(L, q) if q > 1 else [0]
                                      for q in primes.tolist()])
    inv = np.array([pow(n, -1, q) for n, q in zip(nn.tolist(), d.tolist())], dtype=np.int64)
    below = np.array([x % v for v in m.tolist()], dtype=np.int64)
    r_start, per_d = nn_start[lcm_index], d_count[d_index]
    s_start = d_start[d_index]
    rho = nn_count[lcm_index] * per_d
    end = np.cumsum(rho)
    begin = end - rho
    hits = np.zeros(len(m), dtype=np.int64)
    for lo in range(0, int(end[-1]), _LIFT_CHUNK):
        at = np.arange(lo, min(lo + _LIFT_CHUNK, int(end[-1])))
        # modulus k of each triple and its place j among the rho(m) of k
        k = np.searchsorted(end, at, side="right")
        j = at - begin[k]
        r = nn_flat[r_start[k] + j // per_d[k]]
        s = d_flat[s_start[k] + j % per_d[k]]
        q = d[k]
        c = r + nn[k] * ((s - r % q) % q * inv[k] % q)
        k = k[(c >= 1) & (c <= below[k])]  # ascending
        if len(k):
            hits[k[0]:k[-1] + 1] += np.bincount(k - k[0])
    return hits.tolist(), rho.tolist()


# n per pass of weighted_sum_direct: a few MB of per-n sums in either mode.
_SUM_CHUNK = 1 << 16


def weighted_sum_direct(inst: SieveInstance, W: RichertWeights, S: LambdaSystem):
    """Left side by enumeration over n = 1..x, exact or float as S is, on
    the integers of _scaled in exact mode: sum_n a_sum l_sum^2, a_sum
    adding a_d on the classes n = c mod d of the roots c of L mod each
    weighted d (d = 1 has the one class of 0), l_sum lambda_nu on those
    mod each support element nu.  The roots come from roots_mod_squarefree,
    not from the lattice's CRT roots that e_error lifts."""
    a, a_scale = _scaled(_richert_weights(W, S.exact), S.exact)
    lam, lam_scale = _scaled(S.lam, S.exact)
    roots = {m: roots_mod_squarefree(inst.L, m) for m in {*a, *lam}}

    def sums(lo, weights):
        out = np.zeros(min(_SUM_CHUNK, inst.x - lo), dtype=object if S.exact else float)
        for m, w in weights.items():
            for c in roots[m]:
                out[(c - lo - 1) % m::m] += w  # n = lo + 1 + i = c mod m
        return out

    terms = ((sums(lo, a) * sums(lo, lam) ** 2).tolist()
             for lo in range(0, inst.x, _SUM_CHUNK))
    return _total(S, itertools.chain.from_iterable(terms), a_scale * lam_scale ** 2)


def decompose(inst: SieveInstance, W: RichertWeights, S: LambdaSystem) -> Decomposition:
    """Evaluate both sides of the sieve identity on a concrete instance.

    Returns (lhs, main, error, residual) with residual =
    lhs - (x*main + error).  The lambda system fixes the mode: an exact
    system gives Fractions and a residual of exactly zero, a float system
    floats.  DomainError when inst and S are over different systems or
    z' > z; BudgetExceeded when x > DECOMPOSE_X_CAP."""
    if inst.x > DECOMPOSE_X_CAP:
        raise BudgetExceeded(f"x = {inst.x} above enumeration cap {DECOMPOSE_X_CAP}")
    if inst.L != S.L:
        raise DomainError("instance and lambda system are over different systems")
    if S.z_prime > W.z:
        raise DomainError("need z' <= z")
    lhs = weighted_sum_direct(inst, W, S)
    main = s_main(W, S)
    err = e_error(inst, W, S)
    residual = lhs - (inst.x * main + err)
    return Decomposition(lhs, main, err, residual, "exact" if S.exact else "float")


def error_bound_analytic(L: LinearSystem, z: float, xi: float) -> float:
    """Crude analytic envelope z * xi^2 / V(z)^7 for the remainder term.
    DomainError unless z and xi are finite and > 0."""
    _require_finite(xi=xi)
    if z <= 0:
        raise DomainError(f"z = {z:g} must be > 0")
    if xi <= 0:
        raise DomainError(f"xi = {xi:g} must be > 0")
    v = V_product(L, z)
    return z * xi * xi / v ** 7
