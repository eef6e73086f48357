"""Special functions, moment integrals of j', their asymptotic
comparators, and the main-term integrals I1-I3 of the decomposition.

The two moment families are

    J1(i) = int_0^u w^i j'(u-w) dw,
    J2(i) = int_0^u w^i log(w) j'(u-w) dw,

with closed asymptotic forms at u = kappa - 1/9:

    J1(0) = 1/2 + O(1/kappa)
    J1(1) = sqrt(kappa/pi)/2 - 1/18 + O(1/sqrt(kappa))
    J2(0) = log(kappa)/4 + digamma(1/2)/4 - 1/(9 sqrt(pi kappa)) + O(log k/k)

``canonical_u`` is that u.  Every integral takes the solved j_kappa through
``delay_ode``'s one (kappa, u) check, which solves it when no J is given.

Every one of these integrals, and every main-term integral, is
int_0^u c(w) (log w)^(0 or 1) j'(u-w) dw with c a polynomial, and goes
through one quadrature routine.  It subdivides at the knots u - m where
j' loses smoothness.  Each piece between two knots is a whole interval
v = u - w in [m, m+1] of the delay-ODE solver, on which j' is analytic,
so fixed-order Gauss-Legendre reaches machine precision there: the
routine takes j' at the nodes of all these pieces from one table cached
on the solution, and checks each piece against half as many nodes.  The
two other piece kinds go to QUADPACK: the piece at w = 0, which holds the
log singularity (QAWS with log w as its weight), and a whole piece that
starts below w = 1/2, near it.
Accuracy is fixed by the module constants _ATOL and _EPSREL: each piece
must meet max(its share of _ATOL, _EPSREL * |value|).
The O-term constants are not specified by the source asymptotics; the
envelopes reported here carry constants calibrated once in the test
fixtures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.special as sc
from scipy import integrate

from .arithmetic import _whole
from .delay_ode import JFunction, _resolve_j, gauss_legendre
from .errors import DomainError, PoleError, QuadratureFailure, RangeOverflow

RANGE_GRID = 4001
_LOG_MAX = math.log(sys.float_info.max)

# ----------------------------------------------------------------------
# special functions


def log_gamma(x: float) -> float:
    """log |Gamma(x)|; PoleError at nonpositive integers, DomainError
    at NaN and -inf."""
    _check_pole(x)
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Psi(x) = Gamma'(x)/Gamma(x); PoleError at nonpositive integers,
    DomainError at NaN and -inf."""
    _check_pole(x)
    return float(sc.digamma(x))


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = int_x^inf t^(s-1) e^-t dt for s, x > 0; inf at
    s = inf, RangeOverflow where a finite s gives a value above the
    largest double."""
    if not (s > 0 and x > 0):
        raise ValueError("need s > 0 and x > 0")
    tail = float(sc.gammaincc(s, x))
    if tail == 0.0:
        return 0.0
    log_value = float(sc.gammaln(s)) + math.log(tail)
    if log_value > _LOG_MAX and s < math.inf:
        raise RangeOverflow(f"Gamma({s:g}, {x:g}) = exp({log_value:.6g}) overflows a double")
    return math.exp(log_value)


def _check_pole(x: float):
    # written so that NaN fails the test too
    if not x > -math.inf:
        raise DomainError(f"x = {x} must be a number above -inf")
    if x <= 0 and float(x).is_integer():
        raise PoleError(f"pole at {x}")


# ----------------------------------------------------------------------
# sieve polynomial


@dataclass(frozen=True)
class SievePolynomial:
    """Polynomial P(w) positive on [0, u]; P*(w) extends it by 0 for w < 0."""

    coef: tuple[float, ...]  # monomial basis, ascending
    u: float

    def __post_init__(self):
        if not 0 < self.u < math.inf:
            raise DomainError(f"u = {self.u:g} must be positive and finite")
        if len(self.coef) == 0:
            raise DomainError("P needs at least one coefficient")
        if not all(map(math.isfinite, self.coef)):
            raise DomainError(f"coefficients {self.coef} of P must be finite")
        ws = np.linspace(0.0, self.u, 2001)
        vals = np.polynomial.polynomial.polyval(ws, np.asarray(self.coef))
        if np.min(vals) <= 0.0:
            raise DomainError("P must be positive on [0, u]")
        if len(self.coef) > 1:
            roots = np.polynomial.polynomial.polyroots(np.asarray(self.coef))
            for r in roots:
                if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= self.u + 1e-12:
                    raise DomainError(f"P has a root at {r.real:.6g} inside [0, u]")

    @classmethod
    def one(cls, u: float) -> "SievePolynomial":
        return cls((1.0,), u)

    @property
    def degree(self) -> int:
        return len(self.coef) - 1

    def __call__(self, w: float) -> float:
        return float(np.polynomial.polynomial.polyval(w, np.asarray(self.coef)))

    def star(self, w):
        """P*(w): P(w), and 0 where w < 0; w a float or an array."""
        return np.where(w < 0, 0.0, np.polynomial.polynomial.polyval(w, np.asarray(self.coef)))

    def range_on_domain(self) -> tuple[float, float]:
        """(min, max) of P on RANGE_GRID equally spaced points of [0, u]."""
        ws = np.linspace(0.0, self.u, RANGE_GRID)
        vals = np.polynomial.polynomial.polyval(ws, np.asarray(self.coef))
        return float(np.min(vals)), float(np.max(vals))


# ----------------------------------------------------------------------
# quadrature helpers


_EPSREL = 1e-11
# absolute tolerance of one integral, shared equally among its pieces
_ATOL = 1e-8
_LIMIT = 200
# Gauss-Legendre nodes per whole unit piece; GL_NODES // 2 check the result
GL_NODES = 64


def _quad(f, a, b, epsabs, **weight):
    val, err, info, *rest = integrate.quad(
        f, a, b, epsabs=epsabs, epsrel=_EPSREL, limit=_LIMIT, full_output=1, **weight)
    if rest:
        raise QuadratureFailure(f"quad on [{a},{b}]: {rest[0]}")
    return val


def _node_sums(J, rows, u, coef, log, n):
    """n-node Gauss-Legendre value of each piece v = u - w in [m, m+1],
    m < ``rows``, of int c(w) (log w if ``log``) j'(u - w) dw."""
    t, weights = gauss_legendre(n)
    w = np.subtract(u, np.arange(rows)[:, None] + t)
    f = np.polynomial.polynomial.polyval(w, coef)
    f *= J.j_prime_nodes(n)[:rows]
    if log:
        f *= np.log(w)
    return f @ weights


def _integral(J, u, coef, *, log=False):
    """int_0^u c(w) (log w if ``log``) j'(u - w) dw, with c given by its
    ascending monomial coefficients ``coef`` and j' that of the solved
    ``J``: ``J.j_prime`` at one point, ``J.j_prime_nodes`` on whole pieces.

    The range is split at the knots u - m where j' loses smoothness.  A
    whole piece w in [u-m-1, u-m] that starts at w >= 1/2, clear of the
    log singularity, is the interval v in [m, m+1] and takes GL_NODES
    nodes; it fails with QuadratureFailure unless half as many nodes agree
    within QUADPACK's own rule, max(its share of _ATOL, _EPSREL * |value|).
    The other pieces, w in [0, u - rows], go to QUADPACK with the same
    tolerances, so _ATOL and _EPSREL alone fix the accuracy: with ``log``
    the first piece takes log(w) as the weight of its endpoint-singularity
    rule (QAWS), so the integrand it samples stays smooth at w = 0; the
    others multiply by log(w)."""
    top = math.ceil(u)
    per = _ATOL / top
    # the pieces v in [m, m+1], m < rows, start at w = u - m - 1 >= 1/2
    rows = max(0, math.floor(u - 0.5))
    parts = []
    if rows:
        fine, coarse = (_node_sums(J, rows, u, coef, log, n)
                        for n in (GL_NODES, GL_NODES // 2))
        err = np.abs(fine - coarse)
        failed = np.flatnonzero(err > np.maximum(per, _EPSREL * np.abs(fine)))
        if failed.size:
            m = int(failed[0])
            raise QuadratureFailure(
                f"Gauss-Legendre on [{u - (m + 1)},{u - m}]: {GL_NODES} and "
                f"{GL_NODES // 2} nodes differ by {err[m]:.3g}")
        parts = fine.tolist()
    pts = [0.0] + [u - m for m in range(top - 1, rows - 1, -1)]
    rev = [float(a) for a in reversed(coef)]
    jp = J.j_prime

    def f(w):
        c = 0.0
        for a in rev:
            c = c * w + a
        return c * jp(u - w)

    def f_log(w):
        return math.log(w) * f(w)

    (a, b), *rest = zip(pts, pts[1:])
    log_weight = {"weight": "alg-loga", "wvar": (0, 0)} if log else {}
    parts.append(_quad(f, a, b, per, **log_weight))
    parts += [_quad(f_log if log else f, a, b, per) for a, b in rest]
    return math.fsum(parts)


# ----------------------------------------------------------------------
# moment integrals


@dataclass(frozen=True)
class MomentReport:
    """Numeric moment value with its asymptotic comparator (when u is the
    canonical kappa - 1/9) and the O-term envelope used for reporting."""

    kappa: int
    u: float
    i: int
    quantity: str
    source: str  # always "dde", the solved j_kappa
    value: float
    asymptotic: float | None
    diff: float | None
    envelope: float | None


def canonical_u(kappa) -> float:
    """The paper's choice u = kappa - 1/9 of the sieve parameter u."""
    return kappa - 1.0 / 9.0


def _moment(kappa, u, i, J, log, comparator) -> MomentReport:
    """Report of int_0^u w^i (log w if ``log``) j'(u-w) dw, u canonical when
    None; only there does ``comparator()`` supply (asymptotic, envelope)."""
    if u is None:
        u = canonical_u(kappa)
    J = _resolve_j(kappa, u, J)
    value = _integral(J, u, [0.0] * i + [1.0], log=log)
    asym = env = diff = None
    if comparator and abs(u - canonical_u(kappa)) < 1e-9:
        asym, env = comparator()
        diff = value - asym
    name = f"J{2 if log else 1}({i})"
    return MomentReport(kappa, u, i, name, "dde", value, asym, diff, env)


def moment_J1(kappa: int, u: float | None = None, i: int = 0,
              J: JFunction | None = None) -> MomentReport:
    """J1(i) = int_0^u w^i j'(u-w) dw, with Lemma-style comparator at the
    canonical u = kappa - 1/9 (i in {0, 1})."""
    i = _whole("i", i)
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")

    def comparator():
        if i == 0:
            return 0.5, 2.0 / kappa
        return 0.5 * math.sqrt(kappa / math.pi) - 1.0 / 18.0, 2.0 / math.sqrt(kappa)

    return _moment(kappa, u, i, J, log=False, comparator=comparator)


def moment_J2(kappa: int, u: float | None = None, i: int = 0,
              J: JFunction | None = None) -> MomentReport:
    """J2(i) = int_0^u w^i log(w) j'(u-w) dw; the integrable log
    singularity at w = 0 goes to a log-weighted quadrature rule."""
    i = _whole("i", i, 0)

    def comparator():
        return (0.25 * math.log(kappa) + 0.25 * digamma(0.5)
                - 1.0 / (9.0 * math.sqrt(math.pi * kappa)),
                5.0 * math.log(kappa) / kappa)

    # at kappa = 1 the envelope 5 log(kappa)/kappa is 0: no comparator
    return _moment(kappa, u, i, J, log=True,
                   comparator=comparator if i == 0 and kappa > 1 else None)


@dataclass(frozen=True)
class RatioReport:
    """Numeric and asymptotic moment ratios r1 = J1(1)/J1(0),
    r2 = J2(0)/J1(0) at u = kappa - 1/9."""

    kappa: int
    r1: float
    r2: float
    r1_asymptotic: float
    r2_asymptotic: float


def ratios(kappa: int, J: JFunction | None = None) -> RatioReport:
    """Moment ratios with their closed asymptotic forms (d = -2/9)."""
    kappa = _whole("kappa", kappa, 2)
    J = _resolve_j(kappa, canonical_u(kappa), J)
    j10 = moment_J1(kappa, i=0, J=J).value
    j11 = moment_J1(kappa, i=1, J=J).value
    j20 = moment_J2(kappa, i=0, J=J).value
    return RatioReport(
        kappa=kappa,
        r1=j11 / j10,
        r2=j20 / j10,
        r1_asymptotic=ratio1_asymptotic(kappa),
        r2_asymptotic=ratio2_asymptotic(kappa),
    )


def ratio1_asymptotic(kappa: int) -> float:
    """sqrt(kappa/pi) - 1/9."""
    return math.sqrt(kappa / math.pi) - 1.0 / 9.0


def ratio2_asymptotic(kappa: int) -> float:
    """log(kappa)/2 + digamma(1/2)/2 - 2/(9 sqrt(pi kappa))."""
    return (0.5 * math.log(kappa) + 0.5 * digamma(0.5)
            - 2.0 / (9.0 * math.sqrt(math.pi * kappa)))


# ----------------------------------------------------------------------
# main-term integrals


@dataclass(frozen=True)
class MainIntegrals:
    i1: float
    i2: float
    i3: float


def _inner_i2_coeffs(pcoef: np.ndarray, l: float) -> np.ndarray:
    """Monomial coefficients in w of

        int_0^w (P(w) - P(w-t))^2 (1 - t/l) dt / t,

    exact polynomial algebra on the Taylor form P(w) - P(w-t) =
    sum_{j>=1} d_j(w) t^j with d_j = -(-1)^j P^(j)(w)/j!: each term
    t^(k-1) (1 - t/l) of the square over t integrates to
    w^k/k - w^(k+1)/((k+1) l)."""
    poly = np.polynomial.polynomial
    d = [-(-1.0) ** j * poly.polyder(pcoef, j) / math.factorial(j)
         for j in range(1, len(pcoef))]
    out = np.zeros(1)
    for i, di in enumerate(d, 1):
        for j, dj in enumerate(d, 1):
            k = i + j
            kernel = np.r_[np.zeros(k), 1.0 / k, -1.0 / ((k + 1) * l)]
            out = poly.polyadd(out, poly.polymul(poly.polymul(di, dj), kernel))
    return out


def main_integrals(kappa: int, u: float, l: float, P: SievePolynomial,
                   J: JFunction | None = None) -> MainIntegrals:
    """The three main-term integrals

        I1 = int_0^u P(w)^2 j'(u-w) dw
        I2 = int_0^u [int_0^w (P(w)-P(w-t))^2 (1-t/l) dt/t] j'(u-w) dw
        I3 = int_0^u P(w)^2 (log(l/w) - 1 + w/l) j'(u-w) dw

    where the I3 inner integral int_w^l (1-t/l) dt/t is already in closed
    form.  Requires u <= l < inf."""
    if not u <= l < math.inf:
        raise DomainError(f"need u <= l < inf, got u = {u:g}, l = {l:g}")
    if P.u < u * (1.0 - 1e-12):
        raise DomainError("P not defined up to u")
    J = _resolve_j(kappa, u, J)
    poly = np.polynomial.polynomial
    p2 = poly.polymul(P.coef, P.coef)

    i1 = _integral(J, u, p2)
    inner = _inner_i2_coeffs(np.asarray(P.coef, dtype=float), l)
    i2 = _integral(J, u, inner) if np.any(inner != 0.0) else 0.0
    # log(l/w) - 1 + w/l = (log l - 1 + w/l) - log w
    smooth = _integral(J, u, poly.polymul(p2, [math.log(l) - 1.0, 1.0 / l]))
    singular = _integral(J, u, p2, log=True)
    return MainIntegrals(i1, i2, smooth - singular)


# ----------------------------------------------------------------------
# reporting


def moment_table(kappas) -> list[MomentReport]:
    """J1(0), J1(1), J2(0) reports at u = kappa - 1/9 for each kappa."""
    rows = []
    for k in kappas:
        J = _resolve_j(k, canonical_u(k), None)
        rows += [moment_J1(k, i=0, J=J), moment_J1(k, i=1, J=J), moment_J2(k, i=0, J=J)]
    return rows

