"""Special functions, moment integrals of j', their asymptotic
comparators, and the main-term integrals I1-I3 of the decomposition.

The two moment families are

    J1(i) = int_0^u w^i j'(u-w) dw,
    J2(i) = int_0^u w^i log(w) j'(u-w) dw,

with closed asymptotic forms at u = kappa - 1/9:

    J1(0) = 1/2 + O(1/kappa)
    J1(1) = sqrt(kappa/pi)/2 - 1/18 + O(1/sqrt(kappa))
    J2(0) = log(kappa)/4 + digamma(1/2)/4 - 1/(9 sqrt(pi kappa)) + O(log k/k)

Quadrature subdivides at the knots u - m where j' loses smoothness, and
the integrable log singularity at w = 0 gets a closed-form local patch.
The O-term constants are not specified by the source asymptotics; the
envelopes reported here carry constants calibrated once in the test
fixtures.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc
from scipy import integrate

from .delay_ode import JFunction, SaddleParams, saddle_j_prime, solve_j
from .errors import DomainError, PoleError, QuadratureFailure

RANGE_GRID = 4001

# ----------------------------------------------------------------------
# special functions


def log_gamma(x: float) -> float:
    """log |Gamma(x)|; PoleError at nonpositive integers."""
    _check_pole(x)
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Psi(x) = Gamma'(x)/Gamma(x); PoleError at nonpositive integers."""
    _check_pole(x)
    return float(sc.digamma(x))


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = int_x^inf t^(s-1) e^-t dt for s, x > 0."""
    if s <= 0 or x <= 0:
        raise ValueError("need s > 0 and x > 0")
    tail = float(sc.gammaincc(s, x))
    if tail == 0.0:
        return 0.0
    return math.exp(float(sc.gammaln(s)) + math.log(tail))


def _check_pole(x: float):
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
        if self.u <= 0:
            raise DomainError("u must be positive")
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

    def star(self, w: float) -> float:
        return 0.0 if w < 0 else self(w)

    def range_on_domain(self) -> tuple[float, float]:
        """(min, max) of P on RANGE_GRID equally spaced points of [0, u]."""
        ws = np.linspace(0.0, self.u, RANGE_GRID)
        vals = np.polynomial.polynomial.polyval(ws, np.asarray(self.coef))
        return float(np.min(vals)), float(np.max(vals))


# ----------------------------------------------------------------------
# quadrature helpers


def _quad(f, a, b, epsabs, epsrel=1e-11, limit=200):
    val, err, info, *rest = integrate.quad(
        f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    if rest:
        raise QuadratureFailure(f"quad on [{a},{b}]: {rest[0]}")
    return val


def _knots_in(a, b, u):
    """Knots w = u - m interior to (a, b), where j' loses smoothness."""
    ks = []
    m = 0
    while u - m > a:
        w = u - m
        if a < w < b:
            ks.append(w)
        m += 1
    return sorted(ks)


def _integrate_smooth(f, a, b, u, atol):
    """Integrate f over [a, b] subdividing at the DDE knots u - m."""
    pts = [a] + _knots_in(a, b, u) + [b]
    per = atol / max(len(pts) - 1, 1)
    return math.fsum(_quad(f, lo, hi, per) for lo, hi in zip(pts, pts[1:]))


def _integrate_with_log(h, u, atol, delta=1e-5):
    """int_0^u log(w) h(w) dw with h smooth: closed-form patch on [0, delta]
    using a linear model of h, then knot-subdivided quadrature."""
    delta = min(delta, u / 4.0)
    h0 = h(0.0)
    slope = (h(delta) - h0) / delta
    # int_0^d w^n log w dw = d^(n+1) (log d/(n+1) - 1/(n+1)^2)
    ld = math.log(delta)
    head = h0 * delta * (ld - 1.0) + slope * delta ** 2 * (ld / 2.0 - 0.25)
    tail = _integrate_smooth(lambda w: math.log(w) * h(w), delta, u, u, atol)
    return head + tail


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
    source: str
    value: float
    asymptotic: float | None
    diff: float | None
    envelope: float | None


def _jprime_factory(kappa, u, source, J):
    if source == "dde":
        if J is None:
            J = solve_j(kappa, max(u, 1.0))
        if J.w_max < u * (1.0 - 1e-12):
            raise DomainError("JFunction solved below u")
        return J.j_prime, u
    if source == "saddle":
        sp = SaddleParams(kappa, d=kappa - 1.0 / 3.0 - u)
        cutoff = min(u, kappa ** 0.6)
        def jp(v):
            # argument is u - w; map back to the saddle variable w
            return saddle_j_prime(sp, u - v)[0]
        return jp, cutoff
    raise ValueError("source must be 'dde' or 'saddle'")


def _is_canonical_u(kappa, u):
    return abs(u - (kappa - 1.0 / 9.0)) < 1e-9


def moment_J1(kappa: int, u: float | None = None, i: int = 0,
              source: str = "dde", J: JFunction | None = None,
              atol: float = 1e-8) -> MomentReport:
    """J1(i) = int_0^u w^i j'(u-w) dw, with Lemma-style comparator at the
    canonical u = kappa - 1/9 (i in {0, 1})."""
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    if u is None:
        u = kappa - 1.0 / 9.0
    jp, upper = _jprime_factory(kappa, u, source, J)
    f = (lambda w: jp(u - w)) if i == 0 else (lambda w: w * jp(u - w))
    value = _integrate_smooth(f, 0.0, upper, u, atol)
    asym = None
    env = None
    if _is_canonical_u(kappa, u):
        if i == 0:
            asym = 0.5
            env = 2.0 / kappa
        else:
            asym = 0.5 * math.sqrt(kappa / math.pi) - 1.0 / 18.0
            env = 2.0 / math.sqrt(kappa)
    diff = None if asym is None else value - asym
    return MomentReport(kappa, u, i, f"J1({i})", source, value, asym, diff, env)


def moment_J2(kappa: int, u: float | None = None, i: int = 0,
              source: str = "dde", J: JFunction | None = None,
              atol: float = 1e-8) -> MomentReport:
    """J2(i) = int_0^u w^i log(w) j'(u-w) dw; integrable log singularity
    at w = 0 handled by a closed-form local patch."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if u is None:
        u = kappa - 1.0 / 9.0
    jp, upper = _jprime_factory(kappa, u, source, J)
    h = (lambda w: jp(u - w)) if i == 0 else (lambda w: w ** i * jp(u - w))
    value = _integrate_with_log(h, upper, atol)
    asym = None
    env = None
    if i == 0 and _is_canonical_u(kappa, u):
        asym = (0.25 * math.log(kappa) + 0.25 * digamma(0.5)
                - 1.0 / (9.0 * math.sqrt(math.pi * kappa)))
        env = 5.0 * math.log(kappa) / kappa
    diff = None if asym is None else value - asym
    return MomentReport(kappa, u, i, f"J2({i})", source, value, asym, diff, env)


@dataclass(frozen=True)
class RatioReport:
    """Numeric and asymptotic moment ratios r1 = J1(1)/J1(0),
    r2 = J2(0)/J1(0) at u = kappa - 1/9."""

    kappa: int
    r1: float
    r2: float
    r1_asymptotic: float
    r2_asymptotic: float


def ratios(kappa: int, J: JFunction | None = None, atol: float = 1e-9) -> RatioReport:
    """Moment ratios with their closed asymptotic forms (d = -2/9)."""
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    u = kappa - 1.0 / 9.0
    if J is None:
        J = solve_j(kappa, u)
    j10 = moment_J1(kappa, u, 0, J=J, atol=atol).value
    j11 = moment_J1(kappa, u, 1, J=J, atol=atol).value
    j20 = moment_J2(kappa, u, 0, J=J, atol=atol).value
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

    exact polynomial algebra: expand P(w) - P(w-t) in powers of t with
    polynomial-in-w coefficients, square, divide by t, integrate."""
    deg = len(pcoef) - 1
    if deg == 0:
        return np.zeros(1)
    # tfac[j] = coefficient of t^j in P(w) - P(w-t), a polynomial in w
    tfac = [np.zeros(deg + 1) for _ in range(deg + 1)]
    for m in range(deg + 1):
        pm = pcoef[m]
        if pm == 0.0:
            continue
        for j in range(1, m + 1):
            # -(coeff of t^j in (w-t)^m) * pm = -pm*C(m,j)(-1)^j w^(m-j)
            tfac[j][m - j] += -pm * math.comb(m, j) * (-1.0) ** j
    out = np.zeros(2 * deg + 2)
    for ji in range(1, deg + 1):
        for jj in range(1, deg + 1):
            k = ji + jj
            s = np.polynomial.polynomial.polymul(tfac[ji], tfac[jj])
            # term t^(k-1)(1 - t/l) integrates to w^k/k - w^(k+1)/((k+1) l)
            a = np.zeros(k + len(s))
            a[k:k + len(s)] += s / k
            b = np.zeros(k + 1 + len(s))
            b[k + 1:k + 1 + len(s)] += s / ((k + 1) * l)
            out = np.polynomial.polynomial.polyadd(out, np.polynomial.polynomial.polysub(a, b))
    return out


def main_integrals(kappa: int, u: float, l: float, P: SievePolynomial,
                   J: JFunction | None = None, atol: float = 1e-8) -> MainIntegrals:
    """The three main-term integrals

        I1 = int_0^u P(w)^2 j'(u-w) dw
        I2 = int_0^u [int_0^w (P(w)-P(w-t))^2 (1-t/l) dt/t] j'(u-w) dw
        I3 = int_0^u P(w)^2 (log(l/w) - 1 + w/l) j'(u-w) dw

    where the I3 inner integral int_w^l (1-t/l) dt/t is already in closed
    form.  Requires u <= l."""
    if u > l:
        raise DomainError("need u <= l")
    if P.u < u * (1.0 - 1e-12):
        raise DomainError("P not defined up to u")
    if J is None:
        J = solve_j(kappa, max(u, 1.0))
    jp = J.j_prime

    i1 = _integrate_smooth(lambda w: P(w) ** 2 * jp(u - w), 0.0, u, u, atol)

    inner = _inner_i2_coeffs(np.asarray(P.coef, dtype=float), l)
    if np.any(inner != 0.0):
        i2 = _integrate_smooth(
            lambda w: float(np.polynomial.polynomial.polyval(w, inner)) * jp(u - w),
            0.0, u, u, atol)
    else:
        i2 = 0.0

    log_l = math.log(l)
    smooth = _integrate_smooth(
        lambda w: P(w) ** 2 * (log_l - 1.0 + w / l) * jp(u - w), 0.0, u, u, atol)
    singular = _integrate_with_log(lambda w: P(w) ** 2 * jp(u - w), u, atol)
    return MainIntegrals(i1, i2, smooth - singular)


# ----------------------------------------------------------------------
# reporting


def moment_table(kappas, atol: float = 1e-8) -> list[MomentReport]:
    """J1(0), J1(1), J2(0) reports at u = kappa - 1/9 for each kappa."""
    rows = []
    for k in kappas:
        J = solve_j(k, k - 1.0 / 9.0)
        rows.append(moment_J1(k, i=0, J=J, atol=atol))
        rows.append(moment_J1(k, i=1, J=J, atol=atol))
        rows.append(moment_J2(k, i=0, J=J, atol=atol))
    return rows


def moments_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kappa", "quantity", "numeric", "asymptotic", "diff", "envelope"])
    for r in rows:
        writer.writerow([
            r.kappa, r.quantity, f"{r.value:.12g}",
            "" if r.asymptotic is None else f"{r.asymptotic:.12g}",
            "" if r.diff is None else f"{r.diff:.12g}",
            "" if r.envelope is None else f"{r.envelope:.12g}",
        ])
    return buf.getvalue()
