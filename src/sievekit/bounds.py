"""Parameter selection and the r_kappa bound table.

The explicit bound is the smallest integer r exceeding

    (1/2) k log k + (1 + gamma/2 + log 4) k + (13/18) sqrt(k/pi)

(plus an optional slack * log k modelling the unstated O-constant),
subject to the structural floor r > 2k - 10/9.  The numeric bound drives
the same positivity condition

    b(r) * I1 - kappa * I2 - kappa * I3 > 0,    b(r) = r + 1 - kappa*(1 + 2u/l),

directly from quadrature of the solved delay ODE, with the canonical
choices u = kappa - 1/9, l = 2*kappa and P = 1 unless overridden.  A
given J must be j_kappa solved up to u, l must be finite and >= u, and
a kappa that is not a whole number is refused, never truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arithmetic import _whole
from .delay_ode import EULER_GAMMA, MAX_KAPPA, JFunction
from .errors import InfeasibleB
from .moments import MainIntegrals, SievePolynomial, canonical_u, main_integrals

LINEAR_COEFF = 1.0 + EULER_GAMMA / 2.0 + math.log(4.0)


@dataclass(frozen=True)
class SieveParameters:
    """Exponent bookkeeping (x is never instantiated): y = x^(1/alpha),
    z = x^(1/U), z' = x^(1/V), xi = z'^u."""

    kappa: int
    u: float
    l: float
    U: float
    V: float
    alpha: float
    delta: float
    eps: float
    b: float
    r: int


def choose_params(kappa: int, r: int, delta: float = 0.0, eps: float = 0.0,
                  alpha: float | None = None) -> SieveParameters:
    """Canonical parameters u = kappa - 1/9, l = 2*kappa, U = 1 + 2u/l
    (+delta), V = l*U, b = r + 1 - (kappa + eps)*U.

    delta and eps are the vanishing slacks; they default to 0 and are
    exposed for sensitivity runs.  A slack only loosens its parameter, so
    each must be finite and >= 0; then U >= 1 + 2u/l > 1.  Raises
    InfeasibleB when b <= 0, which for zero slacks happens exactly when
    r <= 2*kappa - 10/9.  kappa and r must be whole numbers (ValueError)."""
    kappa, r = _whole("kappa", kappa, 2), _whole("r", r)
    for name, slack in (("delta", delta), ("eps", eps)):
        if not 0.0 <= slack < math.inf:
            raise ValueError(f"{name} = {slack:g} must be finite and >= 0")
    u = canonical_u(kappa)
    l = 2.0 * kappa
    U = 1.0 + 2.0 * u / l + delta
    V = l * U
    b = r + 1.0 - (kappa + eps) * U
    if b <= 0.0:
        raise InfeasibleB(f"b = {b:.6g} <= 0 for r = {r} (floor 2k-10/9 = {2*kappa-10/9:.4f})")
    if alpha is None:
        # p^2-removal needs 1/U < 1 - 1/alpha; keep a comfortable margin
        alpha = 10.0 * U / (U - 1.0)
    elif not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha = {alpha:g} must be finite and > 1")
    if 1.0 / U >= 1.0 - 1.0 / alpha:
        raise ValueError("alpha too small: need 1/U < 1 - 1/alpha")
    return SieveParameters(kappa, u, l, U, V, alpha, delta, eps, b, r)


def explicit_terms(kappa: int) -> tuple[float, float, float]:
    """The three displayed main terms of the bound."""
    return (0.5 * kappa * math.log(kappa),
            LINEAR_COEFF * kappa,
            (13.0 / 18.0) * math.sqrt(kappa / math.pi))


def r_floor(kappa: int) -> int:
    """Smallest integer r with r > 2*kappa - 10/9."""
    return math.floor(2.0 * kappa - 10.0 / 9.0) + 1


def r_bound_explicit(kappa: int, slack: float = 0.0) -> int:
    """Smallest integer strictly above the displayed main terms plus
    slack*log(kappa), never below the floor r > 2*kappa - 10/9."""
    kappa = _whole("kappa", kappa, 2)
    if not math.isfinite(slack):
        raise ValueError(f"slack = {slack:g} must be finite")
    t1, t2, t3 = explicit_terms(kappa)
    bound = t1 + t2 + t3 + slack * math.log(kappa)
    return max(math.floor(bound) + 1, r_floor(kappa))


@dataclass(frozen=True)
class NumericBound:
    """Positivity threshold computed from quadrature."""

    kappa: int
    u: float
    l: float
    r: int
    integrals: MainIntegrals
    b_needed: float

    def b(self, r: int) -> float:
        return r + 1.0 - self.kappa * (1.0 + 2.0 * self.u / self.l)

    def margin(self, r: int) -> float:
        i = self.integrals
        return self.b(r) * i.i1 - self.kappa * (i.i2 + i.i3)

    def margin_samples(self, lo_off: int = -2, hi_off: int = 5) -> list[tuple[int, float]]:
        lo, hi = _whole("lo_off", lo_off), _whole("hi_off", hi_off)
        return [(r, self.margin(r)) for r in range(self.r + lo, self.r + hi + 1)]


def r_bound_numeric(kappa: int, l: float | None = None, u: float | None = None,
                    P: SievePolynomial | None = None,
                    J: JFunction | None = None) -> NumericBound:
    """Smallest integer r with positive margin b(r)*I1 - kappa*(I2+I3),
    margin strictly increasing in r since I1 > 0."""
    kappa = _whole("kappa", kappa, 2)
    if u is None:
        u = canonical_u(kappa)
    if l is None:
        l = 2.0 * kappa
    if P is None:
        P = SievePolynomial.one(u)
    ints = main_integrals(kappa, u, l, P, J=J)
    b_needed = kappa * (ints.i2 + ints.i3) / ints.i1
    # b(r) = r + 1 - kappa(1 + 2u/l) > b_needed
    r_min = math.floor(b_needed - 1.0 + kappa * (1.0 + 2.0 * u / l)) + 1
    return NumericBound(kappa, u, l, r_min, ints, b_needed)


@dataclass(frozen=True)
class BoundRow:
    kappa: int
    r_explicit: int
    r_numeric: int | None
    term_half_klogk: float
    term_linear: float
    term_sqrt: float
    margin_at_r: float | None
    note: str = ""


def table(kappas, numeric: bool = True, slack: float = 0.0) -> list[BoundRow]:
    """One BoundRow per kappa, ordered by kappa.  The numeric column is
    omitted (with a reason) above delay_ode.MAX_KAPPA, where the solver
    refuses."""
    rows = []
    for kappa in sorted({_whole("kappa", k, 1) for k in kappas}):
        t1, t2, t3 = explicit_terms(kappa)
        r_exp = r_bound_explicit(kappa, slack=slack)
        r_num = None
        margin = None
        note = ""
        if numeric and kappa <= MAX_KAPPA:
            nb = r_bound_numeric(kappa)
            r_num = nb.r
            margin = nb.margin(nb.r)
        elif numeric:
            note = f"numeric column needs kappa <= {MAX_KAPPA}"
        rows.append(BoundRow(kappa, r_exp, r_num, t1, t2, t3, margin, note))
    return rows

