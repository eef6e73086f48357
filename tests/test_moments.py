import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from sievekit.bounds import r_bound_numeric
from sievekit.delay_ode import EULER_GAMMA, gauss_legendre, solve_j
from sievekit.errors import DomainError, PoleError, QuadratureFailure
from sievekit.moments import (
    SievePolynomial,
    _integral,
    digamma,
    log_gamma,
    main_integrals,
    moment_J1,
    moment_J2,
    ratio1_asymptotic,
    ratio2_asymptotic,
    ratios,
    upper_incomplete_gamma,
)

C1 = math.exp(-EULER_GAMMA)


def digamma_series(x):
    """Independent oracle: recurrence up to x+25 then the asymptotic
    expansion Psi(t) ~ log t - 1/2t - 1/12t^2 + 1/120t^4 - 1/252t^6
    (next term ~ t^-8, below 1e-13 once t >= 25)."""
    shift = 0.0
    while x < 25:
        shift -= 1.0 / x
        x += 1
    return shift + (math.log(x) - 0.5 / x - 1.0 / (12 * x ** 2)
                    + 1.0 / (120 * x ** 4) - 1.0 / (252 * x ** 6))


class TestSpecial:
    def test_digamma_half_identity(self):
        assert abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2)) <= 1e-12

    def test_digamma_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_digamma_vs_series_oracle(self):
        for x in (0.5, 1.0, 2.5, 7.0, 100.0, 5000.0):
            assert digamma(x) == pytest.approx(digamma_series(x), abs=1e-12)

    def test_log_gamma(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                digamma(x)
            with pytest.raises(PoleError):
                log_gamma(x)

    @pytest.mark.parametrize("x", [math.nan, -math.inf])
    def test_nan_refused(self, x):
        # both returned nan
        for fn in (log_gamma, digamma):
            with pytest.raises(DomainError, match=f"^x = {x} must be a number above -inf$"):
                fn(x)

    def test_incomplete_gamma_nan_refused(self):
        # both returned nan
        for s, x in [(math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError, match=r"^need s > 0 and x > 0$"):
                upper_incomplete_gamma(s, x)

    def test_limits_at_inf_kept(self):
        assert log_gamma(math.inf) == math.inf
        assert upper_incomplete_gamma(1.0, math.inf) == 0.0

    def test_incomplete_gamma_closed_form(self):
        # Gamma(2, x) = (x + 1) e^-x
        for x in (1.0, 10.0, 100.0):
            assert upper_incomplete_gamma(2.0, x) == pytest.approx(
                (x + 1) * math.exp(-x), rel=1e-12)

    def test_incomplete_gamma_estimate(self):
        # leading term x^(s-1) e^-x is within 2% at s=2, x=100
        ratio = upper_incomplete_gamma(2.0, 100.0) / (100.0 * math.exp(-100.0))
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_incomplete_gamma_vs_quadrature(self):
        val, _ = integrate.quad(lambda t: t ** 1.5 * math.exp(-t), 3.0, 60.0)
        tail = upper_incomplete_gamma(2.5, 3.0) - upper_incomplete_gamma(2.5, 60.0)
        assert tail == pytest.approx(val, rel=1e-9)


class TestSievePolynomial:
    def test_one(self):
        P = SievePolynomial.one(5.0)
        assert P(3.0) == 1.0
        assert P.star(-1.0) == 0.0

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            SievePolynomial((1.0, -1.0), 2.0)  # 1 - w crosses zero at 1
        with pytest.raises(DomainError):
            SievePolynomial((0.0, 1.0), 1.0)   # zero at w = 0

    @pytest.mark.parametrize("coef,u", [((1.0, math.nan), 2.0), ((math.inf,), 2.0),
                                        ((1.0,), math.nan), ((1.0,), math.inf)])
    def test_non_finite_rejected(self, coef, u):
        with pytest.raises(DomainError, match="must be"):
            SievePolynomial(coef, u)

    def test_needs_a_coefficient(self):
        # raised numpy's IndexError
        with pytest.raises(DomainError, match="^P needs at least one coefficient$"):
            SievePolynomial((), 1.0)

    def test_range(self):
        P = SievePolynomial((1.0, 1.0), 2.0)
        lo, hi = P.range_on_domain()
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(3.0)


class TestMomentJ1:
    def test_k1_closed_form(self):
        # j' = c_1 on (0,1), so J1(0) = c_1 * u = j(u)
        rep = moment_J1(1, u=8.0 / 9.0, i=0)
        assert rep.value == pytest.approx(C1 * 8.0 / 9.0, abs=1e-10)
        assert rep.value == pytest.approx(0.4990751, abs=1e-7)

    def test_equals_j_at_u(self, jfun):
        # fundamental theorem: integral of j' over [0,u] is j(u)
        for k in (2, 7, 25):
            J = jfun(k)
            rep = moment_J1(k, J=J)
            assert rep.value == pytest.approx(J.j(J.w_max), abs=1e-8)

    def test_lemma_convergence(self, jfun):
        # kappa * |J1(0) - 1/2| bounded by the calibrated constant 2 and
        # non-increasing across the doubling grid
        scaled = []
        for k in (10, 20, 40, 80):
            rep = moment_J1(k, J=jfun(k))
            scaled.append(k * abs(rep.value - 0.5))
        assert all(s <= 2.0 for s in scaled)
        assert all(a >= b for a, b in zip(scaled, scaled[1:]))

    def test_first_moment_asymptotic(self, jfun):
        # sqrt(k)*|J1(1) - (sqrt(k/pi)/2 - 1/18)| bounded (calibrated 2)
        for k in (10, 20, 40, 80):
            rep = moment_J1(k, i=1, J=jfun(k))
            assert math.sqrt(k) * abs(rep.diff) <= 2.0


class TestMomentJ2:
    def test_k1_closed_form(self):
        u = 8.0 / 9.0
        rep = moment_J2(1, u=u, i=0)
        assert rep.value == pytest.approx(C1 * u * (math.log(u) - 1.0), abs=1e-9)

    def test_negative_for_small_kappa(self):
        assert moment_J2(1, u=8.0 / 9.0).value < 0.0
        assert moment_J2(2, u=2.0 - 1.0 / 9.0).value < 0.0

    def test_asymptotic_envelope(self, jfun):
        # |J2(0) - asym| <= 5 log(k)/k (calibrated constant from the spec'd
        # envelope shape; observed values are ~1000x smaller)
        for k in (10, 20, 40, 80):
            rep = moment_J2(k, J=jfun(k))
            assert abs(rep.diff) <= 5.0 * math.log(k) / k


class TestMomentIndex:
    """i is a whole number: 1.0 raised a TypeError from list repetition and
    True was reported as the quantity J2(True)."""

    def test_whole_float_accepted(self, jfun):
        J = jfun(10)
        assert moment_J1(10, i=1.0, J=J) == moment_J1(10, i=1, J=J)
        assert moment_J2(10, i=2.0, J=J) == moment_J2(10, i=2, J=J)

    @pytest.mark.parametrize("moment", [moment_J1, moment_J2])
    @pytest.mark.parametrize("i", [True, 1.5, math.nan])
    def test_fractional_or_bool_refused(self, jfun, moment, i):
        with pytest.raises(ValueError):
            moment(10, i=i, J=jfun(10))

    def test_range_messages(self, jfun):
        with pytest.raises(ValueError, match="^i must be 0 or 1$"):
            moment_J1(10, i=2, J=jfun(10))
        with pytest.raises(ValueError, match="^i = -1 must be >= 0$"):
            moment_J2(10, i=-1, J=jfun(10))


class TestRatios:
    def test_asymptotic_forms_k100(self):
        assert ratio1_asymptotic(100) == pytest.approx(5.530784, abs=1e-6)
        assert ratio2_asymptotic(100) == pytest.approx(1.3083, abs=1e-4)

    def test_numeric_close_to_asymptotic_k40(self, jfun):
        rr = ratios(40, J=jfun(40))
        tol = 5.0 * math.log(40) / 40
        assert abs(rr.r1 - rr.r1_asymptotic) <= tol
        assert abs(rr.r2 - rr.r2_asymptotic) <= tol

    def test_gap_shrinks(self, jfun):
        gaps = []
        for k in (20, 80):
            rr = ratios(k, J=jfun(k))
            gaps.append(abs(rr.r1 - rr.r1_asymptotic) + abs(rr.r2 - rr.r2_asymptotic))
        assert gaps[1] < gaps[0]

    def test_r1_positive(self, jfun):
        assert ratios(5, J=jfun(5)).r1 > 0.0

    def test_kappa_floor(self):
        with pytest.raises(ValueError):
            ratios(1)

    @pytest.mark.parametrize("kappa,message", [(2.5, "must be an integer"),
                                               (True, "must be an integer"),
                                               ("3", "must be an integer"),
                                               (1, "must be >= 2")])
    def test_kappa_refusals(self, kappa, message):
        with pytest.raises(ValueError, match=f"^kappa = {kappa} {message}$"):
            ratios(kappa)


class TestMainIntegrals:
    def test_p_one_reduces_to_moments(self, jfun):
        k = 6
        u = k - 1.0 / 9.0
        l = 12.0
        J = jfun(k)
        mi = main_integrals(k, u, l, SievePolynomial.one(u), J=J)
        assert mi.i2 == 0.0
        assert mi.i1 == pytest.approx(J.j(u), abs=1e-8)
        j10 = moment_J1(k, J=J).value
        j11 = moment_J1(k, i=1, J=J).value
        j20 = moment_J2(k, J=J).value
        combo = (math.log(l) - 1.0) * j10 - j20 + j11 / l
        assert mi.i3 == pytest.approx(combo, abs=1e-7)

    def test_inner_i3_closed_form(self):
        # int_w^l (1 - t/l) dt/t = log(l/w) - 1 + w/l
        l = 9.0
        for w in (0.5, 2.0, 7.5):
            val, _ = integrate.quad(lambda t: (1 - t / l) / t, w, l)
            assert val == pytest.approx(math.log(l / w) - 1 + w / l, rel=1e-10)

    def test_i2_against_brute_double_quad(self, jfun):
        k = 6
        u = k - 1.0 / 9.0
        l = 12.0
        J = jfun(k)
        P = SievePolynomial((1.0, 0.25), u)
        mi = main_integrals(k, u, l, P, J=J)

        def inner(w):
            val, _ = integrate.quad(
                lambda t: (P(w) - P(w - t)) ** 2 * (1 - t / l) / t, 0, w,
                epsabs=1e-12)
            return val

        brute, _ = integrate.quad(lambda w: inner(w) * J.j_prime(u - w),
                                  0, u, epsabs=1e-10, limit=300)
        assert mi.i2 == pytest.approx(brute, abs=1e-8)

    def test_domain_check(self, jfun):
        with pytest.raises(DomainError):
            main_integrals(6, 6 - 1.0 / 9.0, 2.0, SievePolynomial.one(6.0), J=jfun(6))

    def test_log_piece_below_one_half_against_brute_quad(self, jfun):
        # u = 9.3: after the first piece [0, 0.3], the whole piece
        # [0.3, 1.3] starts below w = 1/2 and samples log(w) c(w) j'(u - w)
        u, l = 9.3, 20.0
        J = jfun(10, u)
        knots = [u - m for m in range(1, 10)]

        def brute(c):
            val, _ = integrate.quad(lambda w: c(w) * J.j_prime(u - w), 0, u,
                                    points=knots, limit=500)
            return val

        assert moment_J2(10, u=u, J=J).value == pytest.approx(brute(math.log), abs=1e-12)
        i3 = main_integrals(10, u, l, SievePolynomial.one(u), J=J).i3
        assert i3 == pytest.approx(brute(lambda w: math.log(l / w) - 1 + w / l), abs=1e-12)


class TestResolveJ:
    """A given J must be j_kappa for the kappa asked for, solved up to u, and
    u must be finite and positive; each used to give a silently wrong value,
    e.g. moment_J1(10, J=j_20) was 1.3e-4 against 0.500."""

    CALLS = {
        "J1": lambda J, u=None: moment_J1(10, u=u, J=J),
        "J2": lambda J, u=None: moment_J2(10, u=u, J=J),
        "ratios": lambda J, u=None: ratios(10, J=J),
        "main": lambda J, u=9.5: main_integrals(10, u, 20.0, SievePolynomial.one(9.5), J=J),
        "r_bound": lambda J, u=None: r_bound_numeric(10, u=u, J=J),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_j_for_another_kappa(self, jfun, name):
        with pytest.raises(DomainError, match="J solved for kappa = 20 on"):
            self.CALLS[name](jfun(20, 20.0))

    @pytest.mark.parametrize("name", CALLS)
    def test_j_below_u(self, jfun, name):
        with pytest.raises(DomainError, match=r"J solved for kappa = 10 on \[0, 5\]"):
            self.CALLS[name](jfun(10, 5.0))

    @pytest.mark.parametrize("name", ["J1", "J2", "r_bound"])
    @pytest.mark.parametrize("u", [-1.0, 0.0, math.nan, math.inf])
    def test_u_must_be_finite_and_positive(self, name, u):
        with pytest.raises(DomainError):
            self.CALLS[name](None, u)

    def test_u_refused_before_solving(self):
        with pytest.raises(DomainError, match="^u = -1 must be positive and finite$"):
            moment_J1(10, u=-1.0)

    def test_fractional_kappa_refused(self, jfun):
        with pytest.raises(ValueError, match="kappa = 2.7 must be an integer"):
            moment_J1(2.7)
        with pytest.raises(DomainError):
            moment_J1(2.7, J=jfun(2))


class TestMpmathReference:
    """kappa = 1, u = 1.9: j'(v) = e^-gamma on (0, 1) and
    e^-gamma (1 - log v) on (1, 2], so every integral has a 30-digit
    mpmath value, split at the knot w = u - 1 = 0.9."""

    U, L = 1.9, 4.0
    PCOEF = (1.0, 0.25)

    @pytest.fixture(scope="class")
    def reference(self):
        with mp.workdps(30):
            u, l = mp.mpf(self.U), mp.mpf(self.L)
            c1 = mp.exp(-mp.euler)

            def jp(v):
                return c1 if v <= 1 else c1 * (1 - mp.log(v))

            def integral(c):
                return mp.quad(lambda w: c(w) * jp(u - w), [0, u - 1, u])

            def P(w):
                return self.PCOEF[0] + self.PCOEF[1] * w

            def inner(w):
                return mp.quad(lambda t: (P(w) - P(w - t)) ** 2 * (1 - t / l) / t, [0, w])

            return {k: float(v) for k, v in {
                "J1(0)": integral(lambda w: 1),
                "J1(1)": integral(lambda w: w),
                "J2(0)": integral(mp.log),
                "J2(2)": integral(lambda w: w ** 2 * mp.log(w)),
                "I1": integral(lambda w: P(w) ** 2),
                "I2": integral(inner),
                "I3": integral(lambda w: P(w) ** 2 * (mp.log(l / w) - 1 + w / l)),
            }.items()}

    def test_moments(self, reference):
        J = solve_j(1, self.U)
        got = {"J1(0)": moment_J1(1, self.U, 0, J=J).value,
               "J1(1)": moment_J1(1, self.U, 1, J=J).value,
               "J2(0)": moment_J2(1, self.U, 0, J=J).value,
               "J2(2)": moment_J2(1, self.U, 2, J=J).value}
        for key, value in got.items():
            assert value == pytest.approx(reference[key], abs=1e-14), key

    def test_main_integrals(self, reference):
        P = SievePolynomial(self.PCOEF, self.U)
        mi = main_integrals(1, self.U, self.L, P, J=solve_j(1, self.U))
        assert mi.i1 == pytest.approx(reference["I1"], abs=1e-14)
        assert mi.i2 == pytest.approx(reference["I2"], abs=1e-14)
        assert mi.i3 == pytest.approx(reference["I3"], abs=1e-14)


class TestKappa3Reference:
    """kappa = 3, u = 3 - 1/9, l = 6, P = 1 + w/4.  v in (0, 1] and (1, 2]
    are whole node-table pieces, the second one solved by the Chebyshev
    solver; v in (2, u] is the piece that goes to QUADPACK.  The 30-digit
    values come from tests/data/kappa3_reference.py, which needs no
    sievekit; the tolerance, 2e-15, is about ten units in the last place
    of values below 1."""

    U, L, PCOEF = 3 - 1.0 / 9.0, 6.0, (1.0, 0.25)
    REF = json.loads((Path(__file__).parent / "data" / "kappa3_reference.json").read_text())

    def test_fixture_matches_parameters(self):
        assert (self.REF["kappa"], self.REF["l"], self.REF["P"]) == (3, self.L, list(self.PCOEF))
        assert self.REF["u"] == "26/9" and self.REF["dps"] >= 25

    def test_moments_and_main_integrals(self):
        J = solve_j(3, self.U)
        mi = main_integrals(3, self.U, self.L, SievePolynomial(self.PCOEF, self.U), J=J)
        got = {"J1(0)": moment_J1(3, self.U, 0, J=J).value,
               "J1(1)": moment_J1(3, self.U, 1, J=J).value,
               "J2(0)": moment_J2(3, self.U, 0, J=J).value,
               "I1": mi.i1, "I2": mi.i2, "I3": mi.i3}
        for key, value in got.items():
            assert value == pytest.approx(float(self.REF["values"][key]), abs=2e-15), key


class StubJ:
    """A stand-in for JFunction: j'(v) = h(v - floor v) at one point and on
    the node table, ``rows`` unit intervals of it."""

    def __init__(self, h, rows):
        self.h, self.rows = h, rows

    def j_prime(self, v):
        return float(self.h(v - math.floor(v)))

    def j_prime_nodes(self, n):
        t, _ = gauss_legendre(n)
        return np.tile(self.h(t), (self.rows, 1))


class TestNodeQuadrature:
    def test_pieces_cover_the_range_once(self):
        # u = 3.5: v in [0,1], [1,2], [2,3] on the nodes, [3, 3.5] on QUADPACK
        J = StubJ(lambda t: np.abs(t) ** 2, rows=4)
        assert _integral(J, 3.5, [1.0]) == pytest.approx(1.0 + 0.5 ** 3 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("u", [0.4, 1.0, 1.5, 2.0, 2.49, 7.75])
    def test_pieces_cover_any_range(self, u):
        # whole, half and short top pieces: int_0^u frac(v)^2 dv
        J = StubJ(lambda t: np.abs(t) ** 2, rows=math.ceil(u))
        whole, frac = divmod(u, 1.0)
        assert _integral(J, u, [1.0]) == pytest.approx((whole + frac ** 3) / 3.0, abs=1e-14)

    def test_doubling_check_raises(self):
        # a kink inside every unit interval: Gauss-Legendre converges only
        # algebraically there, and 32 nodes miss the 64-node value
        J = StubJ(lambda t: np.abs(t - 1.0 / 3.0), rows=4)
        with pytest.raises(QuadratureFailure, match="64 and 32 nodes differ by"):
            _integral(J, 3.5, [1.0])

    def test_one_quad_call_per_integral(self, jfun, monkeypatch):
        calls = []
        quad = integrate.quad

        def counting(f, a, b, **kw):
            calls.append((a, b))
            return quad(f, a, b, **kw)

        monkeypatch.setattr(integrate, "quad", counting)
        u = 40 - 1.0 / 9.0
        r_bound_numeric(40, J=jfun(40))  # I1, and I3 as a smooth and a log part
        assert calls == [(0.0, u - 39)] * 3
        calls.clear()
        # a second knot piece that starts below w = 1/2 stays on QUADPACK too
        moment_J1(10, u=9.3, J=jfun(10, 9.3))
        assert len(calls) == 2 and calls[1][0] == pytest.approx(0.3)

    @pytest.mark.parametrize("kappa", [2, 10, 40, 400, 1500])
    def test_j1_equals_j_at_u(self, jfun, kappa):
        # the log-domain evaluation of j and j' rounds at about
        # kappa log kappa units in the last place
        J = jfun(kappa)
        value = moment_J1(kappa, J=J).value
        assert abs(value - J.j(kappa - 1.0 / 9.0)) <= 1e-14 + 4e-16 * kappa * math.log(kappa)
