import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from sievekit.delay_ode import (
    EULER_GAMMA,
    SaddleParams,
    _clenshaw,
    _collocation,
    _previous_values,
    c_kappa,
    gauss_legendre,
    saddle_j_prime,
    solve_j,
    tail_check,
)
from sievekit.errors import DomainError, OutOfRange, OutOfValidity, RangeOverflow


def closed_form_k1(w):
    """q_1 on (1, 2], from integrating the step ODE by hand."""
    return w * (2.0 - math.log(w)) - 1.0


def closed_form_k2(w):
    """q_2 on (1, 2]."""
    return w * w * (4.0 - 2.0 * math.log(w)) - 4.0 * w + 1.0


def rk4_step_oracle(kappa, w_target, h=1e-3):
    """Independent fixed-step RK4 method-of-steps for q (delayed values
    read off the previous interval's grid, cubic interpolation between
    nodes)."""
    N = round(1.0 / h)
    h = 1.0 / N
    prev = np.array([(i * h) ** kappa for i in range(N + 1)])
    m, q = 1, 1.0
    while True:
        steps = N if m + 1 <= w_target else round((w_target - m) / h)
        cur = np.empty(N + 1)
        cur[0] = q

        def qdel(x):
            s = (x - (m - 1)) / h
            r = round(s)
            if abs(s - r) < 1e-9:
                return prev[int(r)]
            i = min(max(int(s), 1), N - 2)
            t = s - i
            return (-t * (t - 1) * (t - 2) * prev[i - 1] / 6
                    + (t * t - 1) * (t - 2) * prev[i] / 2
                    - t * (t + 1) * (t - 2) * prev[i + 1] / 2
                    + t * (t * t - 1) * prev[i + 2] / 6)

        for i in range(steps):
            wi = m + i * h
            f = lambda x, y: kappa * (y - qdel(x - 1.0)) / x
            k1 = f(wi, q)
            k2 = f(wi + h / 2, q + h * k1 / 2)
            k3 = f(wi + h / 2, q + h * k2 / 2)
            k4 = f(wi + h, q + h * k3)
            q += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
            cur[i + 1] = q
        if steps < N or m + 1 >= w_target:
            return q
        prev = cur
        m += 1


def coefficient_arrays(J):
    """Each interval's Chebyshev coefficients, lowest degree first."""
    return [np.array(rev[::-1]) for rev in J._rev]


def log_q_oracle(J, w):
    """log q through numpy's chebval on the stored coefficients."""
    if w <= 0.0:
        return -math.inf
    if w <= 1.0:
        return J.kappa * math.log(w)
    m = min(int(math.ceil(w)) - 1, len(J._rev))
    g = float(C.chebval(2.0 * (w - m) - 1.0, coefficient_arrays(J)[m - 1]))
    return J.kappa * math.log(w) + math.log(g)


def log_q_prime_oracle(J, w):
    """log q'(w) from two full log q evaluations, as the evaluator did
    before it looked up both intervals itself."""
    k = J.kappa
    if w <= 0.0:
        return -math.inf if (w < 0.0 or k > 1) else 0.0
    if w <= 1.0:
        return math.log(k) + (k - 1) * math.log(w)
    lq, lqd = log_q_oracle(J, w), log_q_oracle(J, w - 1.0)
    if lqd == -math.inf:
        diff = lq
    else:
        ratio = lqd - lq
        if ratio >= 0.0:
            return -math.inf
        diff = lq + math.log1p(-math.exp(ratio))
    return math.log(k) + diff - math.log(w)


def evaluation_grid(J):
    """w <= 0, w in (0, 1], just above 1, every knot from both sides, the
    Chebyshev nodes of every interval, and w_max."""
    ws = [-0.5, 0.0, 1e-3, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 1e-9]
    nodes = np.cos(np.pi * (2.0 * np.arange(9) + 1.0) / 18.0)
    for m in range(1, len(J._rev) + 1):
        ws += [m, m + 1e-12, min(m + 1.0, J.w_max)]
        ws += [m + 0.5 * (x + 1.0) for x in nodes.tolist() if m + 0.5 * (x + 1.0) <= J.w_max]
    return ws + [J.w_max]


# At kappa = 150, kappa * log(w) passes 709 near w = 113: w^kappa would
# overflow, so only the log-scaled path works there.
ORACLE_KAPPAS = (1, 2, 10, 100, 150)


@pytest.fixture(scope="module", params=ORACLE_KAPPAS)
def oracle_j(request, jfun):
    kappa = request.param
    return jfun(kappa, max(kappa - 1.0 / 9.0, 3.0))


class TestScalarEvaluation:
    """The float-tuple Clenshaw and the one-pass log q' against numpy's
    chebval and the two-pass formula."""

    def test_clenshaw_equals_chebval(self, oracle_j):
        xs = [-1.0, 1.0, 0.0] + np.cos(np.pi * (2.0 * np.arange(33) + 1.0) / 66.0).tolist()
        assert oracle_j._rev
        for coeffs, rev in zip(coefficient_arrays(oracle_j), oracle_j._rev):
            for x in xs:
                assert _clenshaw(x, rev) == float(C.chebval(x, coeffs))

    def test_clenshaw_short_series(self):
        for c in ([0.25, -3.0], [1.5, 0.5, -0.125]):
            for x in (-1.0, -0.3, 0.7, 1.0):
                assert _clenshaw(x, c[::-1]) == float(C.chebval(x, np.asarray(c)))

    def test_log_q_prime_equals_two_pass_formula(self, oracle_j):
        for w in evaluation_grid(oracle_j):
            assert oracle_j.log_q_prime(w) == log_q_prime_oracle(oracle_j, w), w
            assert oracle_j.log_q(w) == log_q_oracle(oracle_j, w), w


class TestUnitRange:
    """w_max = 1 leaves no interval; the range tolerance above 1 takes
    the (0, 1] formula."""

    @pytest.mark.parametrize("kappa", [1, 3, 40])
    def test_tolerance_zone(self, kappa):
        J = solve_j(kappa, 1.0)
        for w in (1.0 + 5e-13, 1.0 + 1e-12, 1.0 + 1.5e-12):
            assert J.g(w) == 1.0
            assert J.log_q(w) == kappa * math.log(w)
            assert J.j(w) == pytest.approx(J.j(1.0), rel=1e-10)
            assert J.q_prime(w) == pytest.approx(kappa, rel=1e-10)
            assert J.j_prime(w) == pytest.approx(J.j_prime(1.0), rel=1e-10)
            assert J.log_j_prime(w) == pytest.approx(J.log_c + math.log(kappa), abs=1e-10)
            assert J.representation_residual(w) == 0.0

    def test_beyond_tolerance(self):
        J = solve_j(3, 1.0)
        for fn in (J.g, J.log_q, J.log_q_prime, J.j, J.j_prime):
            with pytest.raises(OutOfRange):
                fn(1.0 + 1e-9)


class TestJPrimeMemo:
    def test_repeated_calls_identical(self, jfun):
        J = jfun(10)
        ws = evaluation_grid(J)
        first = [J.j_prime(w) for w in ws]
        assert first == [math.exp(J.log_j_prime(w)) for w in ws]
        assert [J.j_prime(w) for w in ws] == first


class TestCollocation:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_matches_chebfit(self, n):
        nodes, fit, _ = _collocation(n)
        t = 7.0 + 0.5 * (nodes + 1.0)
        rng = np.random.default_rng(n)
        for f in (np.exp(40 * np.log1p(-1.0 / t) - np.log(t)),
                  np.sin(5.0 * nodes) / (1.5 + nodes),
                  rng.standard_normal(n + 1)):
            ref = C.chebfit(nodes, f, n)
            assert np.max(np.abs(fit @ f - ref)) <= 1e-13 * np.max(np.abs(f))

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("n_prev", [32, 64, 128])
    def test_previous_values_match_chebval(self, n, n_prev):
        # relative to sum |c_j|, the bound of the series on [-1, 1]
        nodes = _collocation(n)[0]
        vander = _previous_values(n, n_prev)
        rng = np.random.default_rng(1000 * n + n_prev)
        # collocation at degree n_prev - 1 leaves n_prev + 1 coefficients
        real = [c for c in coefficient_arrays(solve_j(40, 40 - 1.0 / 9.0, degree=n_prev - 1))
                if len(c) == n_prev + 1]
        assert len(real) == 39
        for c in [rng.standard_normal(n_prev + 1)] + real:
            err = np.max(np.abs(vander @ c - C.chebval(nodes, c)))
            assert err <= 1e-14 * np.sum(np.abs(c))

    @pytest.mark.parametrize("n", [4, 32, 64, 128, 256])
    def test_integration_matches_chebint(self, n):
        # chebint, minus its value at -1, halved for dt = dx/2
        integrate = _collocation(n)[2]
        rng = np.random.default_rng(n)
        for c in (rng.standard_normal(n + 1), 1.0 / (1.0 + np.arange(n + 1)) ** 2):
            ref = C.chebint(c)
            ref[0] -= C.chebval(-1.0, ref)
            ref *= 0.5
            assert integrate.shape == (n + 2, n + 1)
            assert np.max(np.abs(integrate @ c - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_low_degree_escalates(self):
        J = solve_j(10, 9.9, degree=4)
        assert J.degree > 4
        ref = solve_j(10, 9.9)
        ws = np.linspace(1.1, 9.9, 200)
        assert max(abs(J.q(float(w)) / ref.q(float(w)) - 1.0) for w in ws) < 1e-9

    def test_bench_kappas_stay_at_degree_32(self):
        for k in range(10, 121, 10):
            assert solve_j(k, k - 1.0 / 9.0).degree == 32


class TestCKappa:
    def test_k1(self):
        assert c_kappa(1).value == pytest.approx(0.5614594836, abs=1e-9)

    def test_k2(self):
        # e^(-2 gamma)/2
        assert c_kappa(2).value == pytest.approx(math.exp(-2 * EULER_GAMMA) / 2, rel=1e-14)

    def test_k100_log_domain(self):
        ck = c_kappa(100)
        assert ck.log == pytest.approx(-EULER_GAMMA * 100 - math.lgamma(101), rel=1e-15)
        assert ck.value == pytest.approx(math.exp(ck.log))

    def test_underflow_flagged(self):
        assert c_kappa(400).value is None
        assert c_kappa(400).log < -2000

    @pytest.mark.parametrize("kappa", [0, math.nan])
    def test_kappa_below_one_refused(self, kappa):
        # nan gave CKappa(log=nan, value=None)
        message = "must be >= 1" if kappa == 0 else "must be an integer"
        with pytest.raises(ValueError, match=f"^kappa = {kappa} {message}$"):
            c_kappa(kappa)

    @pytest.mark.parametrize("kappa", [2.5, True, math.inf, "3"])
    def test_kappa_not_whole_refused(self, kappa):
        # 2.5 and True gave values, inf gave CKappa(log=-inf, value=None) and
        # '3' an untyped TypeError
        with pytest.raises(ValueError, match=f"^kappa = {kappa} must be an integer$"):
            c_kappa(kappa)


class TestSolve:
    def test_normalization_q1(self, jfun):
        for k in (1, 2, 7, 40):
            assert jfun(k).q(1.0) == 1.0

    def test_k1_closed_form(self, jfun):
        J = jfun(1, 3.0)
        ws = np.linspace(1.0 + 1e-9, 2.0, 1501)
        sup = max(abs(J.q(float(w)) - closed_form_k1(float(w))) for w in ws)
        assert sup <= 1e-10

    def test_k2_closed_form(self, jfun):
        J = jfun(2, 4.0)
        ws = np.linspace(1.0 + 1e-9, 2.0, 1501)
        sup = max(abs(J.q(float(w)) - closed_form_k2(float(w))) for w in ws)
        assert sup <= 1e-10

    def test_k2_rk4_fixture(self, jfun):
        # frozen from the fixed-step oracle at h = 1e-5
        frozen = 4.555053586124128
        J = jfun(2, 4.0)
        assert J.q(2.5) == pytest.approx(frozen, abs=1e-9)
        assert rk4_step_oracle(2, 2.5, h=1e-3) == pytest.approx(frozen, abs=1e-8)

    def test_k10_rk4_oracle(self, jfun):
        J = jfun(10)
        oracle = rk4_step_oracle(10, 6.5, h=2e-3)
        assert J.q(6.5) == pytest.approx(oracle, rel=1e-8)

    def test_dde_residual_on_grid(self, jfun):
        for k in (1, 2, 5, 10, 40):
            J = jfun(k, max(k - 1.0 / 9.0, 1.5))
            ws = np.linspace(1.0 + 1e-6, J.w_max, 1000)
            worst = max(abs(J.representation_residual(float(w))) for w in ws)
            assert worst <= J.tol

    def test_monotone(self, jfun):
        # q' is an exp or 0, never negative, so monotonicity is checked on
        # log q itself: its smallest step on this grid is 5e-4 at kappa = 1
        for k in (1, 3, 20):
            J = jfun(k, max(k - 1.0 / 9.0, 2.0))
            lq = [J.log_q(float(w)) for w in np.linspace(1e-6, J.w_max, 700)]
            assert all(b > a for a, b in zip(lq, lq[1:]))

    def test_continuity_at_knots(self, jfun):
        J = jfun(12)
        for m in range(1, int(J.w_max)):
            lo = J.q(m - 1e-13) if m > 1 else J.q(1.0)
            hi = J.q(m + 1e-13)
            assert hi == pytest.approx(lo, rel=1e-9)

    def test_degree_independence(self):
        for k in (2, 40):
            u = max(k - 1.0 / 9.0, 2.0)
            a = solve_j(k, u, degree=16)
            b = solve_j(k, u, degree=32)
            ws = np.linspace(0.5, u, 300)
            assert max(abs(a.q(float(w)) / b.q(float(w)) - 1.0) for w in ws) < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_j(0, 1.0)
        with pytest.raises(ValueError):
            solve_j(3, 9.0)  # w_max > kappa + 2

    @pytest.mark.parametrize("kappa", [2.7, 10.5, math.nan])
    def test_kappa_must_be_an_integer(self, kappa):
        # a fractional kappa was once truncated, so solve_j(2.7, 3) solved j_2
        with pytest.raises(ValueError, match=f"^kappa = {kappa} must be an integer$"):
            solve_j(kappa, 3.0)

    def test_whole_kappa_of_any_type(self):
        for kappa in (3.0, np.int64(3), np.float64(3.0)):
            J = solve_j(kappa, 3.0)
            assert type(J.kappa) is int and J.kappa == 3

    @pytest.mark.parametrize("degree", [3, 257, 30000])
    def test_degree_between_4_and_max(self, degree):
        with pytest.raises(ValueError, match=f"degree = {degree} must be between 4 and 256"):
            solve_j(3, 2.0, degree=degree)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # no truncation estimate meets such a tol, so every interval would
        # escalate to MAX_DEGREE and fail as a budget error
        with pytest.raises(ValueError, match="^tol = .* must be finite and > 0$"):
            solve_j(3, 2.9, tol=tol)


def collocation_degrees(J):
    """The collocation degree n of each interval; its integrated series
    has degree n + 1, so n + 2 coefficients."""
    return [len(rev) - 2 for rev in J._rev]


class TestMixedDegrees:
    """Solves whose first interval escalates and the next does not, so
    that the previous-interval map joins two different degrees."""

    def test_k1_closed_form(self):
        J = solve_j(1, 3.0, degree=14)
        assert collocation_degrees(J) == [28, 14]
        ws = np.linspace(1.0 + 1e-9, 2.0, 1501)
        assert max(abs(J.q(float(w)) - closed_form_k1(float(w))) for w in ws) <= 1e-10
        ws = np.linspace(1.0 + 1e-6, 3.0, 400)
        assert max(abs(J.representation_residual(float(w))) for w in ws) <= J.tol

    def test_k2_closed_form_and_rk4_fixture(self):
        J = solve_j(2, 4.0, degree=16)
        assert collocation_degrees(J) == [32, 16, 16]
        ws = np.linspace(1.0 + 1e-9, 2.0, 1501)
        assert max(abs(J.q(float(w)) - closed_form_k2(float(w))) for w in ws) <= 1e-10
        # 2.5 lies in the degree-16 interval fed by the degree-32 one
        assert J.q(2.5) == pytest.approx(4.555053586124128, abs=1e-9)

    def test_k10_rk4_oracle(self):
        J = solve_j(10, 10 - 1.0 / 9.0, degree=16)
        assert collocation_degrees(J) == [32] + [16] * 8
        assert J.q(6.5) == pytest.approx(rk4_step_oracle(10, 6.5, h=2e-3), rel=1e-8)

    def test_degree_independence(self):
        u = 40 - 1.0 / 9.0
        a = solve_j(40, u, degree=8)
        degrees = collocation_degrees(a)
        assert 16 in degrees and degrees.count(8) > 30
        b = solve_j(40, u, degree=32)
        ws = np.linspace(0.5, u, 300)
        assert max(abs(a.q(float(w)) / b.q(float(w)) - 1.0) for w in ws) < 1e-10


def step_oracle(kappa, w_max, tol=1e-10, degree=32):
    """Method of steps through numpy's Chebyshev routines, one call each:
    the previous interval by chebval at t - 1, the interpolant by
    chebinterpolate at the Chebyshev-Gauss nodes, its integral by chebint
    from -1, and g at the right end by chebval at 1.  The degree doubles
    until the truncation estimate kappa (|c_n| + |c_(n-1)|) meets tol
    relative to g, as in ``solve_j``.  Each interval's coefficients."""
    coeffs, g_left = [], 1.0
    for m in range(1, max(math.ceil(w_max) - 1, 0) + 1):
        n = degree
        while True:
            def integrand(x):
                t = m + 0.5 * (x + 1.0)
                with np.errstate(under="ignore"):
                    f = np.exp(kappa * np.log1p(-1.0 / t) - np.log(t))
                return f * C.chebval(x, coeffs[-1]) if coeffs else f

            fc = C.chebinterpolate(integrand, n)
            gc = -kappa * C.chebint(fc, lbnd=-1.0, scl=0.5)
            gc[0] += g_left
            g_right = float(C.chebval(1.0, gc))
            if kappa * (abs(fc[-1]) + abs(fc[-2])) <= tol * max(abs(g_left), abs(g_right)):
                break
            n *= 2
        coeffs.append(gc)
        g_left = g_right
    return coeffs


class TestStepOracle:
    """Whole solves against ``step_oracle``.  The solver folds the fit and
    the integral into one matrix and sums the coefficients for g at the
    right end, so it rounds differently, and each interval starts from
    the last one's rounding.  The largest difference of an interval's
    coefficients, relative to the largest of them, is allowed 2 eps per
    interval (kappa of them, at least 10): it measured 1.6e-13 at
    kappa = 1500, 5.9e-15 at 100, 2.6e-15 at 40 with degree 8, and at
    most 2.8e-16 at kappa <= 10.  The degrees must be the same."""

    @pytest.mark.parametrize("kappa,w_max,degree", [
        (1, 3.0, 32), (2, 4.0, 32), (10, 10 - 1.0 / 9.0, 32), (100, 100 - 1.0 / 9.0, 32),
        (1500, 1500 - 1.0 / 9.0, 32), (10, 9.9, 4), (1, 3.0, 14), (2, 4.0, 16),
        (10, 10 - 1.0 / 9.0, 16), (40, 40 - 1.0 / 9.0, 8)])
    def test_coefficients(self, kappa, w_max, degree):
        J = solve_j(kappa, w_max, degree=degree)
        ref = step_oracle(kappa, w_max, degree=degree)
        got = coefficient_arrays(J)
        assert [len(c) for c in got] == [len(c) for c in ref]
        worst = max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(got, ref))
        assert worst <= 2 * np.finfo(float).eps * max(kappa, 10)


def assert_table_matches_scalar(J, n, rows=None):
    """``J.j_prime_nodes(n)`` against scalar ``J.j_prime`` at the same v.

    Both compute log j' = log c + log kappa + log q(v) + log1p(-q(v-1)/q(v))
    - log v in doubles, so each rounds at the scale of the terms it adds:
    |log c| and |log q| (about kappa log kappa), and the log1p term
    amplifies the error of log q(v-1) - log q(v) by q(v-1)/(q(v) -
    q(v-1)).  The tolerance is 1e-14 relative, widened to 8 eps times that
    scale where it is larger; values below the normal range (subnormal
    or zero) may differ by one subnormal step.  Points past w_max, where
    the scalar evaluator refuses, are skipped.  Returns the largest
    relative difference among normal values."""
    t, _ = gauss_legendre(n)
    table = J.j_prime_nodes(n)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    worst = 0.0
    for m in range(len(table)) if rows is None else rows:
        for k, tk in enumerate(t.tolist()):
            v = m + tk
            if v > J.w_max:
                continue
            got, want = float(table[m, k]), J.j_prime(v)
            if min(got, want) < tiny:
                assert abs(got - want) <= tiny, (m, k)
                continue
            worst = max(worst, abs(got - want) / want)
            lq, lq_delayed = J.log_q(v), J.log_q(v - 1.0)
            ratio = lq_delayed - lq
            amplify = 0.0 if lq_delayed == -math.inf else -math.exp(ratio) / math.expm1(ratio)
            scale = abs(J.log_c) + abs(lq) + amplify * (abs(lq) + abs(lq_delayed))
            assert abs(got - want) <= max(1e-14, 8 * eps * scale) * want, (m, k, got, want)
    return worst


class TestNodeTable:
    @pytest.mark.parametrize("n", [32, 64])
    def test_gauss_legendre(self, n):
        t, weights = gauss_legendre(n)
        assert not t.flags.writeable and not weights.flags.writeable
        assert np.all(np.diff(t) > 0) and 0.0 < t[0] and t[-1] < 1.0
        # exact on polynomials of degree < 2n
        for d in range(2 * n):
            assert float(weights @ t ** d) == pytest.approx(1.0 / (d + 1), rel=2e-14), d
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 2e-16
        assert np.max(np.abs(weights / (0.5 * w) - 1.0)) <= 5e-12

    @pytest.mark.parametrize("kappa", [1, 2, 10, 120, 1500])
    def test_matches_scalar_j_prime(self, jfun, kappa):
        J = jfun(kappa, max(kappa - 1.0 / 9.0, 3.0))
        for n in (32, 64):
            # every row up to kappa = 120; at 1500 every 10th row and the top ones
            rows = range(0, len(J._rev) + 1, 10 if kappa > 120 else 1)
            worst = assert_table_matches_scalar(J, n, rows)
            assert_table_matches_scalar(J, n, range(len(J._rev) - 2, len(J._rev) + 1))
            if kappa <= 2:  # the terms of log j' are small: plain 1e-14 holds
                assert worst <= 1e-14

    @pytest.mark.parametrize("kappa", [1, 2])
    def test_closed_form_rows(self, jfun, kappa):
        """Rows 0 and 1 against j' = kappa c v^(kappa-1) on (0, 1] and the
        derivative of closed_form_k1/k2 on (1, 2]."""
        J = jfun(kappa, 3.0)
        c = c_kappa(kappa).value
        t, _ = gauss_legendre(64)
        table = J.j_prime_nodes(64)
        row0 = kappa * c * t ** (kappa - 1)
        v = 1.0 + t
        row1 = c * (1.0 - np.log(v)) if kappa == 1 else c * (6.0 * v - 4.0 * v * np.log(v) - 4.0)
        assert np.max(np.abs(table[0] / row0 - 1.0)) <= 1e-14
        # row 1 is the degree-32 solve, converged far below its tol of 1e-10
        assert np.max(np.abs(table[1] / row1 - 1.0)) <= 1e-13

    def test_underflow_rows(self, jfun):
        J = jfun(1500)
        table = J.j_prime_nodes(64)
        zero_rows = np.flatnonzero(~table.any(axis=1))
        # j' ~ c v^(kappa-1) is far below the double range on the low rows
        assert zero_rows[0] == 0 and len(zero_rows) > 100
        assert np.all(zero_rows == np.arange(len(zero_rows)))
        assert_table_matches_scalar(J, 64, [0, len(zero_rows) - 1, len(zero_rows)])
        assert table[len(zero_rows)].any()

    @pytest.mark.parametrize("kappa,w_max,degree", [
        (1, 3.0, 14), (2, 4.0, 16), (10, 10 - 1.0 / 9.0, 16), (40, 40 - 1.0 / 9.0, 8)])
    def test_mixed_degrees(self, kappa, w_max, degree):
        J = solve_j(kappa, w_max, degree=degree)
        assert len(set(collocation_degrees(J))) == 2
        for n in (32, 64):
            assert_table_matches_scalar(J, n)

    def test_cached_and_read_only(self, jfun):
        J = jfun(10)
        table = J.j_prime_nodes(64)
        assert J.j_prime_nodes(64) is table
        assert table.shape == (len(J._rev) + 1, 64)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestEval:
    def test_zero_left_of_origin(self, jfun):
        J = jfun(3)
        assert J.j(-1.0) == J.j_prime(-1.0) == 0.0
        assert J.log_j(-1.0) == J.log_j_prime(-1.0) == -math.inf
        # g(-5) gave 1.0, though q is 0 there
        assert J.g(-5.0) == J.g(-1e-300) == 0.0
        assert J.g(0.0) == J.g(0.5) == J.g(1.0) == 1.0

    def test_closed_form_values(self, jfun):
        J = jfun(1, 3.0)
        c1 = math.exp(-EULER_GAMMA)
        assert J.j(0.5) == pytest.approx(c1 * 0.5, rel=1e-12)
        assert J.j(1.5) == pytest.approx(c1 * closed_form_k1(1.5), rel=1e-11)
        assert c1 * closed_form_k1(1.5) == pytest.approx(0.7814, abs=5e-4)

    def test_out_of_range(self, jfun):
        J = jfun(2, 3.0)
        for fn in (J.j, J.log_j, J.j_prime, J.log_j_prime):
            with pytest.raises(OutOfRange):
                fn(3.5)

    @pytest.mark.parametrize("method", ["j", "j_prime", "log_j", "representation_residual"])
    def test_nan_out_of_range(self, method):
        # NaN passed the range test and reached int(math.ceil(w)), which
        # raised an untyped ValueError
        with pytest.raises(OutOfRange):
            getattr(solve_j(5, 5.0), method)(math.nan)

    def test_log_scale_consistent(self, jfun):
        J = jfun(10)
        for w in (0.3, 1.7, 5.5, 9.8):
            assert math.exp(J.log_j(w)) == pytest.approx(J.j(w), rel=1e-12)
            assert math.exp(J.log_j_prime(w)) == pytest.approx(J.j_prime(w), rel=1e-12)

    def test_jprime_continuity_at_1(self, jfun):
        J = jfun(4)
        assert J.q_prime(1.0) == pytest.approx(4.0)
        assert J.q_prime(1.0 + 1e-12) == pytest.approx(4.0, rel=1e-6)

    def test_large_kappa_log_mode(self):
        # q overflows linear doubles near kappa ~ 150; log path keeps working
        J = solve_j(200, 100.0)
        assert np.isfinite(J.log_q(90.0))
        assert 0.0 < J.j(90.0) < 1.0
        with pytest.raises(RangeOverflow):
            J.q(90.0)

    def test_solve_kappa_cap(self):
        with pytest.raises(RangeOverflow):
            solve_j(2000, 10.0)


class TestSaddle:
    def test_value_at_origin(self):
        sp = SaddleParams(100)
        val, env = saddle_j_prime(sp, 0.0)
        assert val == pytest.approx(1.0 / math.sqrt(100 * math.pi), rel=1e-12)
        assert val == pytest.approx(0.0564190, abs=1e-7)
        assert env == pytest.approx(0.01 / math.sqrt(100 * math.pi), rel=1e-12)

    def test_bounded_by_gaussian_factor(self):
        # for d = -2/9 the cubic term wins once w > sqrt(kappa)
        sp = SaddleParams(100)
        for w in (11.0, 13.0, 15.0):
            val, _ = saddle_j_prime(sp, w)
            assert val < math.exp(-w * w / 100) / math.sqrt(100 * math.pi)

    def test_k40_fixture(self):
        # direct evaluation of the main term
        sp = SaddleParams(40)
        val, _ = saddle_j_prime(sp, 5.0)
        expect = (math.exp(-25.0 / 40.0) / math.sqrt(40 * math.pi)
                  * (1.0 + (4.0 / 9.0) * 5.0 / 40.0 - (4.0 / 9.0) * 125.0 / 1600.0))
        assert val == pytest.approx(expect, rel=1e-14)

    def test_out_of_validity(self):
        sp = SaddleParams(40)
        with pytest.raises(OutOfValidity):
            saddle_j_prime(sp, 40 ** 0.6 + 0.1)
        with pytest.raises(OutOfValidity):
            saddle_j_prime(sp, -0.5)
        with pytest.raises(OutOfValidity):  # returned (nan, nan)
            saddle_j_prime(sp, math.nan)

    def test_default_d_gives_canonical_u(self):
        sp = SaddleParams(40)
        assert sp.u == pytest.approx(40 - 1.0 / 9.0)

    @pytest.mark.parametrize("kappa,d", [(math.nan, -2.0 / 9.0), (40, math.nan), (0, 0.0)])
    def test_u_not_positive_refused(self, kappa, d):
        # a nan kappa or d built a SaddleParams with u = nan
        with pytest.raises(ValueError, match=r"^u = kappa - 1/3 - d must be positive$"):
            SaddleParams(kappa, d)

    @pytest.mark.parametrize("kappa", [2.5, True, math.inf])
    def test_kappa_not_whole_refused(self, kappa):
        # each was built
        with pytest.raises(ValueError, match=f"^kappa = {kappa} must be an integer$"):
            SaddleParams(kappa)

    def test_stores_kappa_as_int(self):
        sp = SaddleParams(40.0)
        assert type(sp.kappa) is int and sp == SaddleParams(40)

    def test_agreement_with_dde(self, jfun):
        # envelope constant calibrated <= 3 (acceptance pins exactly 3)
        k = 40
        u = k - 1.0 / 9.0
        J = jfun(k)
        sp = SaddleParams(k)
        for w in np.linspace(0.0, k ** 0.6, 200):
            val, env = saddle_j_prime(sp, float(w))
            assert abs(val - J.j_prime(u - float(w))) <= 3.0 * env


class TestTail:
    @pytest.mark.parametrize("kappa", [10, 20, 40])
    def test_no_violation(self, jfun, kappa):
        u = kappa - 1.0 / 9.0
        rep = tail_check(jfun(kappa), u)
        assert rep.max_violation <= 0.0

    def test_margin_just_above_cutoff(self, jfun):
        for k in (10, 20, 40, 60):
            u = k - 1.0 / 9.0
            J = jfun(k, u) if k != 60 else solve_j(60, u)
            w = k ** 0.6 * 1.001
            assert J.j(u - w) < math.exp(-w * w / k)

    @pytest.mark.parametrize("u", [-5.0, 0.0, math.nan, math.inf, 10.5])
    def test_u_must_be_served_by_j(self, jfun, u):
        # u <= 0 passed with nothing checked, NaN raised numpy's integer
        # conversion error, and u beyond w_max raised OutOfRange
        with pytest.raises(DomainError):
            tail_check(jfun(10, 10.0), u)
