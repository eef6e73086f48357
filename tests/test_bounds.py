import math

import numpy as np
import pytest

from sievekit.bounds import (
    LINEAR_COEFF,
    choose_params,
    explicit_terms,
    r_bound_explicit,
    r_bound_numeric,
    r_floor,
    table,
)
from sievekit.delay_ode import EULER_GAMMA, MAX_KAPPA, solve_j
from sievekit.errors import DomainError, InfeasibleB, RangeOverflow
from sievekit.moments import SievePolynomial, moment_J1, moment_J2


class TestChooseParams:
    def test_k100_r502(self):
        p = choose_params(100, 502)
        assert p.u == pytest.approx(99.888889, abs=1e-5)
        assert p.l == 200.0
        assert p.U == pytest.approx(1.998889, abs=1e-5)
        assert p.V == pytest.approx(399.778, abs=1e-2)
        assert p.b == pytest.approx(303.11, abs=1e-2)

    def test_small_kappa(self):
        p = choose_params(2, 3)
        assert p.b == pytest.approx(4 - 2 * (1 + 2 * p.u / p.l))
        assert p.b > 0

    def test_below_floor_infeasible(self):
        # b <= 0 exactly when r <= 2*kappa - 10/9
        with pytest.raises(InfeasibleB):
            choose_params(100, 198)
        choose_params(100, 199)  # smallest feasible

    def test_invariants_over_range(self):
        for kappa in (2, 5, 17, 100, 400):
            r = r_bound_explicit(kappa)
            p = choose_params(kappa, r)
            assert p.u <= p.l
            assert p.U == pytest.approx(1 + 2 * p.u / p.l)
            assert p.b > 0
            assert p.r > 2 * kappa - 10.0 / 9.0
            assert 1.0 / p.U < 1.0 - 1.0 / p.alpha

    @pytest.mark.parametrize("name,kappa,r", [("kappa", 2.5, 10), ("r", 10, 39.5)])
    def test_fractional_arguments_refused(self, name, kappa, r):
        # choose_params(2.5, 10) once returned parameters for kappa = 2.5
        with pytest.raises(ValueError, match=rf"^{name} = \d+\.5 must be an integer"):
            choose_params(kappa, r)
        assert choose_params(10.0, np.int64(40)) == choose_params(10, 40)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, math.nan, math.inf])
    def test_alpha_must_be_finite_above_one(self, alpha):
        with pytest.raises(ValueError, match="must be finite and > 1"):
            choose_params(10, 50, alpha=alpha)

    @pytest.mark.parametrize("name,value", [
        ("delta", -0.9888888888888889), ("delta", -1e-3), ("delta", math.nan),
        ("delta", math.inf), ("eps", -0.5), ("eps", math.nan), ("eps", math.inf)])
    def test_slacks_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} = .* must be finite and >= 0$"):
            choose_params(10, 50, **{name: value})

    def test_slacks_enter(self):
        base = choose_params(10, 50)
        assert choose_params(10, 50, delta=0.01).U == pytest.approx(base.U + 0.01)
        assert choose_params(10, 50, eps=0.5).b < base.b


class TestExplicit:
    def test_k100_is_502(self):
        assert r_bound_explicit(100) == 502

    def test_independent_recomputation(self):
        # rebuild the bound from scratch at a few kappa
        for kappa in (10, 100, 1000):
            b = (0.5 * kappa * math.log(kappa)
                 + (1 + EULER_GAMMA / 2 + math.log(4)) * kappa
                 + 13.0 / 18.0 * math.sqrt(kappa / math.pi))
            assert r_bound_explicit(kappa) == max(
                math.floor(b) + 1, math.floor(2 * kappa - 10.0 / 9.0) + 1)

    def test_linear_coefficient(self):
        assert LINEAR_COEFF == pytest.approx(2.674902, abs=1e-6)

    def test_floor_enforced_small_kappa(self):
        # at kappa = 2 the displayed terms are below the structural floor
        t1, t2, t3 = explicit_terms(2)
        assert r_bound_explicit(2) >= r_floor(2)
        assert r_floor(2) == 3

    def test_slack_shifts(self):
        assert r_bound_explicit(100, slack=5.0) >= r_bound_explicit(100)

    def test_fractional_kappa_refused(self):
        # r_bound_explicit(2.5) once gave 9
        with pytest.raises(ValueError, match="^kappa = 2.5 must be an integer$"):
            r_bound_explicit(2.5)
        assert r_bound_explicit(100.0) == r_bound_explicit(np.int64(100)) == 502

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_slack_must_be_finite(self, slack):
        with pytest.raises(ValueError, match="^slack = .* must be finite$"):
            r_bound_explicit(100, slack=slack)

    def test_ratio_trend_large(self):
        prev = None
        for k in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            ratio = r_bound_explicit(k) / (0.5 * k * math.log(k))
            assert ratio > 1.0
            if prev is not None:
                assert ratio < prev
            prev = ratio

    def test_ratio_window_geometric_grid(self):
        # ratio sits in (1, 2) once kappa ~ 2^8 (it is 2.02 at kappa=200,
        # crossing 2 near kappa = 225)
        prev = None
        k = 256
        while k <= 2 ** 20:
            ratio = r_bound_explicit(k) / (0.5 * k * math.log(k))
            assert 1.0 < ratio < 2.0
            if prev is not None:
                assert ratio < prev
            prev = ratio
            k *= 2


class TestNumeric:
    def test_k4_fixture(self, jfun):
        # frozen from the independent RK4 + Simpson oracle
        nb = r_bound_numeric(4, l=8.0, u=35.0 / 9.0)
        assert nb.r == 14
        assert nb.margin(14) == pytest.approx(0.4297, abs=1e-3)
        assert nb.margin(13) < 0.0

    def test_margin_strictly_increasing(self, jfun):
        nb = r_bound_numeric(6, J=jfun(6))
        samples = nb.margin_samples(-2, 5)
        for (_, a), (_, b) in zip(samples, samples[1:]):
            assert b > a
        # slope is exactly I1 per unit r
        assert samples[1][1] - samples[0][1] == pytest.approx(nb.integrals.i1)
        assert nb.margin_samples(-2.0, 5.0) == samples
        # 0.5 raised a TypeError from range
        for lo, hi, name in [(0.5, 1, "lo_off = 0.5"), (0, math.nan, "hi_off = nan"),
                             (True, 1, "lo_off = True")]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                nb.margin_samples(lo, hi)

    def test_reduced_form_identity(self, jfun):
        # with P = 1 the threshold equals the closed-form combination of
        # moment ratios (two independent evaluation paths)
        k = 12
        u = k - 1.0 / 9.0
        l = 2.0 * k
        J = jfun(k)
        nb = r_bound_numeric(k, J=J)
        j10 = moment_J1(k, J=J).value
        j11 = moment_J1(k, i=1, J=J).value
        j20 = moment_J2(k, J=J).value
        alt = k * (math.log(l) - 1) - k * (j20 / j10) + (k / l) * (j11 / j10)
        assert nb.b_needed == pytest.approx(alt, abs=1e-7)

    def test_crossing_satisfies_floor(self, jfun):
        for k in (5, 10, 20):
            nb = r_bound_numeric(k, J=jfun(k))
            assert nb.r > 2 * k - 10.0 / 9.0

    def test_consistency_with_explicit(self, jfun):
        # the numeric condition is already positive at r_explicit
        # (calibrated slack C = 0 for kappa <= 60)
        for k in (10, 20, 40, 60):
            J = jfun(k) if k <= 40 else solve_j(60, 60 - 1.0 / 9.0)
            nb = r_bound_numeric(k, J=J)
            assert nb.margin(r_bound_explicit(k)) > 0.0

    def test_nontrivial_polynomial(self, jfun):
        k = 6
        u = k - 1.0 / 9.0
        P = SievePolynomial((1.0, 0.1), u)
        nb = r_bound_numeric(k, P=P, J=jfun(6))
        assert nb.integrals.i2 > 0.0
        assert nb.margin(nb.r) > 0.0 >= nb.margin(nb.r - 1)

    @pytest.mark.parametrize("l", [math.inf, math.nan])
    def test_l_must_be_finite(self, jfun, l):
        # l = inf overflowed in the I2 kernel, l = nan failed as quadrature
        with pytest.raises(DomainError, match="^need u <= l < inf"):
            r_bound_numeric(10, l=l, J=jfun(10))

    def test_fractional_kappa_refused(self):
        with pytest.raises(ValueError, match="^kappa = 10.5 must be an integer$"):
            r_bound_numeric(10.5)

    @pytest.mark.parametrize("kappa,message", [(2.5, "must be an integer"),
                                               (True, "must be an integer"),
                                               ("3", "must be an integer"),
                                               (1, "must be >= 2")])
    def test_kappa_refusals(self, kappa, message):
        # a kappa below 2 is refused before anything is solved
        with pytest.raises(ValueError, match=f"^kappa = {kappa} {message}$"):
            r_bound_numeric(kappa)


class TestTable:
    def test_rows_and_trend(self, jfun):
        rows = table([10, 20, 40], numeric=False)
        assert [r.kappa for r in rows] == [10, 20, 40]
        ratios = [r.r_explicit / r.term_half_klogk for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_empty(self):
        assert table([]) == []

    def test_fractional_kappa_refused(self):
        # table([10.7]) once gave a kappa = 10 row
        with pytest.raises(ValueError, match="^kappa = 10.7 must be an integer$"):
            table([10.7], numeric=False)
        assert [r.kappa for r in table([10.0, 20], numeric=False)] == [10, 20]

    def test_k100_row(self):
        row = table([100], numeric=False)[0]
        assert row.r_explicit == 502
        assert row.term_half_klogk == pytest.approx(230.2585, abs=1e-3)

    @pytest.mark.parametrize("kappa,r_numeric,r_explicit", [
        (130, 668, 669), (400, 2276, 2277), (MAX_KAPPA, 9512, 9514)])
    def test_numeric_rows_above_120(self, kappa, r_numeric, r_explicit):
        row = table([kappa])[0]
        assert (row.r_numeric, row.r_explicit, row.note) == (r_numeric, r_explicit, "")
        assert row.margin_at_r > 0.0

    def test_note_only_where_the_solver_refuses(self):
        row = table([MAX_KAPPA + 1])[0]
        assert row.r_numeric is None and row.margin_at_r is None
        assert row.note == f"numeric column needs kappa <= {MAX_KAPPA}"
        with pytest.raises(RangeOverflow):
            solve_j(MAX_KAPPA + 1, 2.0)
