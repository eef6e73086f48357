"""Solver for the sieve delay differential equation

    w j'(w) = kappa j(w) - kappa j(w - 1),
    j(w) = c_kappa w^kappa on (0, 1],   j(w) = 0 for w <= 0,

with c_kappa = exp(-gamma*kappa)/Gamma(kappa+1), plus the saddle-point
approximation to j'.

The solver tracks the normalized solution q = j/c_kappa through the
scaled variable g(w) = q(w) * w^(-kappa).  Method of steps: on each unit
interval (m, m+1] the delayed term is known and

    g(w) = g(m) - kappa * int_m^w t^(-kappa-1) q(t-1) dt

is evaluated by expanding the integrand in a Chebyshev basis and
integrating term by term.  g has O(1) relative variation per interval
for every kappa (q itself spans hundreds of orders of magnitude, which
is why a direct polynomial representation of q would lose all relative
accuracy at large kappa).  On (0, 1], g = 1 identically, so q = w^kappa
is represented exactly there.  Each step is three products with fixed
matrices cached per degree: the previous interval's values at t - 1
(which has the same local coordinate there as t here, so the matrix is
the Chebyshev-Vandermonde matrix of the nodes), the fit of the
integrand's values at the Chebyshev-Gauss nodes to its coefficients
(discrete orthogonality of T_j at those nodes), and the term-by-term
integral from the interval's left end.

j' is evaluated two ways.  The integrals of ``moments`` need it at fixed
Gauss-Legendre nodes of whole unit intervals, so ``JFunction.j_prime_nodes``
computes it there for every interval at once: ``log_q_prime``'s formula,
in its operation order, on arrays.  g at the nodes of all intervals is one
product of the solution's padded coefficient matrix with a Chebyshev-
Vandermonde matrix, g(v - 1) is the previous interval's row at the same
local coordinate, and the table is kept on the instance.  The
scalar evaluators serve everything else (the one partial piece of each
integral, which scipy's quadrature samples, the CLI grid and the tests),
so they are kept to plain Python floats: each interval's coefficients are
held as a reversed tuple of floats, and ``_clenshaw`` runs numpy's
``chebval`` recurrence on them, operation for operation, so the values
are bit-identical to ``chebval``.

Linear values of q overflow doubles once kappa*log(w) grows past ~709
(around kappa = 150); j and j' themselves stay O(1) and are always
computed through logs, and every evaluator has a log-scaled variant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .arithmetic import _whole
from .errors import DomainError, OutOfRange, OutOfValidity, RangeOverflow, ToleranceNotMet

EULER_GAMMA = 0.5772156649015328606065120900824024

MAX_DEGREE = 256
# g(w_max) ~ exp((gamma-1)*kappa) underflows doubles near kappa ~ 1700.
MAX_KAPPA = 1500
TAIL_GRID = 512

_LOG_TINY = -745.0


@dataclass(frozen=True)
class CKappa:
    """log c_kappa and, when representable, its linear value."""

    log: float
    value: float | None


def c_kappa(kappa: int) -> CKappa:
    """c_kappa = exp(-gamma*kappa)/Gamma(kappa+1), computed in log domain.
    ValueError unless kappa is a whole number >= 1."""
    kappa = _whole("kappa", kappa, 1)
    log_c = -EULER_GAMMA * kappa - math.lgamma(kappa + 1)
    return CKappa(log_c, math.exp(log_c) if log_c > _LOG_TINY else None)


@dataclass(frozen=True)
class SaddleParams:
    """Shift parameters for the saddle-point formula, u = kappa - 1/3 - d,
    with u > 0 and kappa a whole number, stored as an int."""

    kappa: int
    d: float = -2.0 / 9.0

    def __post_init__(self):
        if not self.u > 0:
            raise ValueError("u = kappa - 1/3 - d must be positive")
        object.__setattr__(self, "kappa", _whole("kappa", self.kappa))

    @property
    def u(self) -> float:
        return self.kappa - 1.0 / 3.0 - self.d


def _clenshaw(x: float, rev) -> float:
    """Chebyshev series at x from its coefficients in reverse order
    (highest degree first, at least two): numpy's ``chebval`` recurrence
    on Python floats, with the same operations in the same order."""
    x2 = 2.0 * x
    c1, c0 = rev[0], rev[1]
    for a in rev[2:]:
        c0, c1 = a - c1, c0 + c1 * x2
    return c0 + c1 * x


class JFunction:
    """Solved delay ODE on [0, w_max].

    Interval (m, m+1] stores Chebyshev coefficients of the scaled
    solution g(w) = q(w) * w^(-kappa); on (0, 1] the solution q = w^kappa
    is exact.  Each interval's coefficients are kept as a tuple of floats
    in reverse order (highest degree first), the form ``_clenshaw`` takes,
    and as a row of one zero-padded matrix, which the array code reads.
    Instances are immutable after solve apart from one cache:
    ``j_prime_nodes`` stores its table per node count.
    """

    __slots__ = ("kappa", "w_max", "tol", "degree", "log_c", "_rev", "_coef", "_node_tables")

    def __init__(self, kappa, w_max, tol, degree, log_c, coeffs):
        self.kappa = kappa
        self.w_max = w_max
        self.tol = tol
        self.degree = degree
        self.log_c = log_c
        self._rev = [tuple(c[::-1].tolist()) for c in coeffs]
        self._coef = np.zeros((len(coeffs), max(map(len, coeffs), default=1)))
        for row, c in zip(self._coef, coeffs):
            row[:len(c)] = c
        self._node_tables = {}

    # -- scaled representation ------------------------------------------

    def _check(self, w: float):
        # written so that NaN fails the test too
        if not w <= self.w_max * (1.0 + 1e-12) + 1e-12:
            raise OutOfRange(f"w = {w} beyond solved range {self.w_max}")

    def _g(self, w: float) -> float:
        """g at w > 1 already checked against the range.  With no
        intervals (w_max = 1) such a w lies within the range tolerance of
        1, where g = 1 - O((w-1)^(kappa+1)) and the (0, 1] value 1 holds."""
        rev = self._rev
        if not rev:
            return 1.0
        m = min(int(math.ceil(w)) - 1, len(rev))
        return _clenshaw(2.0 * (w - m) - 1.0, rev[m - 1])

    def _log_q(self, w: float) -> float:
        """log q(w) at w > 0 already checked against the range."""
        if w <= 1.0:
            return self.kappa * math.log(w)
        return self.kappa * math.log(w) + math.log(self._g(w))

    def g(self, w: float) -> float:
        """q(w) * w^(-kappa); 0 for w < 0, where q is 0, and 1 on [0, 1]."""
        self._check(w)
        return float(w >= 0.0) if w <= 1.0 else self._g(w)

    # -- normalized solution q = j / c_kappa -----------------------------

    def log_q(self, w: float) -> float:
        if w <= 0.0:
            return -math.inf
        self._check(w)
        return self._log_q(w)

    def q(self, w: float) -> float:
        if w <= 0.0:
            return 0.0
        lq = self.log_q(w)
        if lq > 709.0:
            raise RangeOverflow("linear q overflows; use log_q")
        return math.exp(lq)

    def log_q_prime(self, w: float) -> float:
        """log of q'(w) = kappa*(q(w) - q(w-1))/w."""
        if w <= 0.0:
            return -math.inf if (w < 0.0 or self.kappa > 1) else 0.0
        self._check(w)
        if w <= 1.0:
            return math.log(self.kappa) + (self.kappa - 1) * math.log(w)
        # w - 1 > 0 exactly here, since w > 1
        lq = self._log_q(w)
        ratio = self._log_q(w - 1.0) - lq
        if ratio >= 0.0:  # flat to machine precision
            return -math.inf
        diff = lq + math.log1p(-math.exp(ratio))
        return math.log(self.kappa) + diff - math.log(w)

    def q_prime(self, w: float) -> float:
        lqp = self.log_q_prime(w)
        if lqp > 709.0:
            raise RangeOverflow("linear q' overflows; use log_q_prime")
        return math.exp(lqp) if lqp > _LOG_TINY else 0.0

    # -- j itself ---------------------------------------------------------

    def log_j(self, w: float) -> float:
        return self.log_c + self.log_q(w)

    def j(self, w: float) -> float:
        lj = self.log_j(w)
        return math.exp(lj) if lj > _LOG_TINY else 0.0

    def log_j_prime(self, w: float) -> float:
        return self.log_c + self.log_q_prime(w)

    def j_prime(self, w: float) -> float:
        lj = self.log_j_prime(w)
        return math.exp(lj) if lj > _LOG_TINY else 0.0

    def j_prime_nodes(self, n: int) -> np.ndarray:
        """j' at the n Gauss-Legendre nodes t_k of every unit interval: row m
        holds v = m + t_k, for m = 0 up to the number of solved intervals.

        ``log_q_prime``'s formula on arrays, with its cut-offs: j' is 0
        where q(v - 1) >= q(v) to machine precision or where log j' is at
        most _LOG_TINY.  Row 0 is the closed form on (0, 1].  The last row
        spans the whole top interval, beyond w_max when w_max is not an
        integer; the solver fitted g on all of it.  The table is read-only
        and computed once per n."""
        table = self._node_tables.get(n)
        if table is not None:
            return table
        t, _ = gauss_legendre(n)
        k = self.kappa
        v = np.arange(len(self._coef) + 1)[:, None] + t
        log_v = np.log(v)
        log_g = np.log(self._coef @ C.chebvander(2.0 * t - 1.0, self._coef.shape[1] - 1).T)
        lq = k * log_v[1:] + log_g
        lq_delayed = k * np.log(v[1:] - 1.0)  # g = 1 on (0, 1]
        lq_delayed[1:] += log_g[:-1]
        ratio = lq_delayed - lq
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = lq + np.log1p(-np.exp(ratio))
        log_q_prime = np.where(ratio >= 0.0, -math.inf, math.log(k) + diff - log_v[1:])
        log_j_prime = self.log_c + np.vstack([math.log(k) + (k - 1) * log_v[:1], log_q_prime])
        with np.errstate(under="ignore"):
            table = np.where(log_j_prime <= _LOG_TINY, 0.0, np.exp(log_j_prime))
        table.flags.writeable = False
        self._node_tables[n] = table
        return table

    # -- diagnostics ------------------------------------------------------

    def representation_residual(self, w: float) -> float:
        """Relative DDE residual of the stored representation at w,

            (w q'_rep - kappa q + kappa q(w-1)) / (kappa q),

        where q'_rep differentiates the interval polynomial (the exposed
        q' uses the DDE identity itself and would be trivially exact).
        """
        self._check(w)
        if w <= 1.0 or not self._rev:
            return 0.0
        m = min(int(math.ceil(w)) - 1, len(self._rev))
        coeffs = self._coef[m - 1]
        x = 2.0 * (w - m) - 1.0
        g = float(C.chebval(x, coeffs))
        gp = 2.0 * float(C.chebval(x, C.chebder(coeffs)))
        # w*q'_rep - kappa*q = w^kappa * (w*gp)  after cancellation
        delay_scaled = math.exp(self.log_q(w - 1.0) - self.kappa * math.log(w))
        residual_scaled = w * gp + self.kappa * delay_scaled
        return residual_scaled / (self.kappa * g)


@functools.lru_cache(maxsize=4)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes on [0, 1], ascending, and their weights,
    which sum to 1; read-only.

    Newton's method on the Legendre polynomial P_n from Tricomi's
    approximations to its roots, with P_n and P_n' from the three-term
    recurrence.  (numpy's ``leggauss`` starts from a LAPACK eigensolve,
    whose first call alone adds about 1 MB to the resident memory of a
    process that otherwise never calls LAPACK.)"""
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(n), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    t, weights = 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)
    for a in (t, weights):
        a.flags.writeable = False
    return t, weights


@functools.lru_cache(maxsize=8)
def _collocation(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n+1 Chebyshev-Gauss nodes x_k, the matrix that maps values at
    them to the degree-n interpolant's Chebyshev coefficients,
    c_j = (2/(n+1)) sum_k f(x_k) T_j(x_k) (halved for j = 0), and the
    (n+2) x (n+1) matrix that maps a degree-n series in the local
    coordinate x to the coefficients of its integral in t = m + (x+1)/2
    from the interval's left end (chebint from -1, scaled by dt/dx = 1/2)."""
    nodes = np.cos(np.pi * (2.0 * np.arange(n + 1) + 1.0) / (2.0 * (n + 1)))
    fit = C.chebvander(nodes, n).T * (2.0 / (n + 1))
    fit[0] *= 0.5
    integrate = C.chebint(np.eye(n + 1), lbnd=-1.0, scl=0.5)
    for a in (nodes, fit, integrate):
        a.flags.writeable = False
    return nodes, fit, integrate


@functools.lru_cache(maxsize=32)
def _previous_values(n: int, n_prev: int) -> np.ndarray:
    """The matrix that maps the previous interval's degree-n_prev
    coefficients to its values at t - 1 for the degree-n nodes t of this
    interval.  t - 1 has the same local coordinate x_k there, so this is
    the Chebyshev-Vandermonde matrix of the nodes."""
    vander = C.chebvander(_collocation(n)[0], n_prev)
    vander.flags.writeable = False
    return vander


def _solve_interval(kappa, m, coeffs, g_left, n):
    """Chebyshev coefficients of g on [m, m+1] plus a truncation estimate."""
    nodes, fit, integrate = _collocation(n)
    t = m + 0.5 * (nodes + 1.0)
    with np.errstate(under="ignore"):
        integrand = np.exp(kappa * np.log1p(-1.0 / t) - np.log(t))
    if m > 1:  # g = 1 on (0, 1]
        prev = coeffs[m - 2]
        integrand *= _previous_values(n, len(prev) - 1) @ prev
    fc = fit @ integrand
    gc = -kappa * (integrate @ fc)
    gc[0] += g_left
    tail = abs(fc[-1]) + abs(fc[-2])
    return gc, kappa * tail


def solve_j(kappa: int, w_max: float, tol: float = 1e-10, degree: int = 32) -> JFunction:
    """Solve the delay ODE for j_kappa on [0, w_max] by method of steps.

    Each unit interval is solved by Chebyshev collocation of the scaled
    update; the degree escalates (up to 256) until the truncation
    estimate drops below tol relative to g, else ToleranceNotMet.  A kappa
    that is not a whole number is refused, not truncated.
    """
    kappa = _whole("kappa", kappa, 1)
    if kappa > MAX_KAPPA:
        raise RangeOverflow(f"kappa > {MAX_KAPPA}: scaled solution underflows")
    if not 1.0 <= w_max <= kappa + 2.0 + 1e-9:
        raise ValueError("need 1 <= w_max <= kappa + 2")
    if not 4 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree = {degree} must be between 4 and {MAX_DEGREE}")
    w_max, tol = float(w_max), float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol = {tol:g} must be finite and > 0")

    n_intervals = max(int(math.ceil(w_max)) - 1, 0)
    coeffs: list[np.ndarray] = []
    g_left = 1.0
    max_deg = degree
    for m in range(1, n_intervals + 1):
        n = degree
        while True:
            gc, err = _solve_interval(kappa, m, coeffs, g_left, n)
            g_right = _clenshaw(1.0, gc[::-1].tolist())
            if err <= tol * max(abs(g_left), abs(g_right)):
                break
            if n >= MAX_DEGREE:
                raise ToleranceNotMet(
                    f"interval ({m},{m+1}]: estimate {err:.3g} above tol at degree {n}")
            n *= 2
        max_deg = max(max_deg, n)
        coeffs.append(gc)
        g_left = g_right

    return JFunction(kappa, w_max, tol, max_deg, c_kappa(kappa).log, coeffs)


def _resolve_j(kappa, u, J):
    """``J`` checked against kappa and u, or j_kappa solved on [0, max(u, 1)];
    DomainError unless u is positive and finite.  The one check of every
    consumer of a solved J at a sieve parameter u."""
    if not 0.0 < u < math.inf:
        raise DomainError(f"u = {u:g} must be positive and finite")
    if J is None:
        return solve_j(kappa, max(u, 1.0))
    if J.kappa != kappa or J.w_max < u * (1.0 - 1e-12):
        raise DomainError(f"J solved for kappa = {J.kappa} on [0, {J.w_max:g}] does "
                          f"not serve kappa = {kappa} up to u = {u:g}")
    return J


def saddle_j_prime(sp: SaddleParams, w: float) -> tuple[float, float]:
    """Main term of the saddle-point formula for j'(u - w), u = kappa-1/3-d:

        (pi*kappa)^(-1/2) exp(-w^2/kappa) (1 - 2dw/kappa - (4/9)w^3/kappa^2)

    valid for 0 <= w <= kappa^(3/5).  Returns (value, envelope) where
    envelope = (1/kappa + w^6/kappa^4)/sqrt(pi*kappa) is the shape of the
    neglected remainder (its absolute constant is calibrated in tests,
    not claimed).
    """
    k = sp.kappa
    if not 0.0 <= w <= k ** 0.6:
        raise OutOfValidity(f"saddle formula needs 0 <= w <= kappa^(3/5) = {k ** 0.6:.3f}")
    base = math.exp(-w * w / k) / math.sqrt(math.pi * k)
    value = base * (1.0 - 2.0 * sp.d * w / k - (4.0 / 9.0) * w ** 3 / k ** 2)
    envelope = (1.0 / k + w ** 6 / k ** 4) / math.sqrt(math.pi * k)
    return value, envelope


@dataclass(frozen=True)
class TailReport:
    """Grid check of j(u-w) <= exp(-w^2/kappa) on (kappa^(3/5), u]."""

    max_violation: float
    worst_w: float | None
    n_checked: int


def tail_check(J: JFunction, u: float) -> TailReport:
    """Verify the tail inequality j(u-w) <= exp(-w^2/kappa) on TAIL_GRID
    equal steps over (kappa^(3/5), u].  max_violation <= 0 means no
    violation; DomainError unless J serves a finite u > 0."""
    _resolve_j(J.kappa, u, J)
    k = J.kappa
    lo = k ** 0.6
    if lo >= u:
        return TailReport(-math.inf, None, 0)
    ws = np.linspace(lo, u, TAIL_GRID + 1)[1:].tolist()
    # keyed on the violation alone, so the first largest wins
    worst, worst_w = max(((J.j(u - w) - math.exp(-w ** 2 / k), w) for w in ws),
                         key=lambda vw: vw[0])
    return TailReport(worst, worst_w, len(ws))
