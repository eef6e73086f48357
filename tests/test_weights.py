import dataclasses
import gc
import math
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sievekit import arithmetic, weights
from sievekit.arithmetic import (
    build_system, f_values, from_offsets, is_admissible, rho, V_product)
from sievekit.delay_ode import solve_j
from sievekit.errors import (
    BudgetExceeded,
    DensityZero,
    DivisionByZero,
    DomainError,
    SupportEmpty,
    ZeroFactor,
)
from sievekit.moments import SievePolynomial, main_integrals
from sievekit.weights import (
    G_sum,
    RichertWeights,
    SieveInstance,
    build_lambda_system,
    decompose,
    e_error,
    error_bound_analytic,
    g_sum_report,
    lambda_from_zeta,
    richert_a,
    s_main,
    support_elements,
    weighted_sum_direct,
    zeta_from_lambda,
    zeta_from_poly,
)

from test_arithmetic import brute_rho


class TestRichert:
    def test_four_cases(self):
        W = RichertWeights(b=2.0, y=10.0, z=100.0)
        assert richert_a(W, 1) == 2.0
        assert richert_a(W, 7) == -2.0                      # prime below y
        assert richert_a(W, 6) == 0.0                       # composite
        assert richert_a(W, 50) == 0.0                      # composite in [y,z)
        assert richert_a(W, 53) == pytest.approx(-math.log(100 / 53) / math.log(100))
        assert richert_a(W, 53) == pytest.approx(-0.1378, abs=1e-4)
        assert richert_a(W, 101) == 0.0                     # beyond z

    def test_prime_weights_nonpositive(self):
        W = RichertWeights(b=1.5, y=5.0, z=40.0)
        for p in (2, 3, 5, 7, 11, 13, 37):
            assert richert_a(W, p) <= 0.0

    @pytest.mark.parametrize("d,message", [(2.5, "d = 2.5 must be an integer"),
                                           (True, "d = True must be an integer"),
                                           (0, "d = 0 must be >= 1")])
    def test_d_must_be_a_whole_number(self, d, message):
        # 2.5 failed in pow with a TypeError, and True gave a_1 = b
        with pytest.raises(ValueError, match=f"^{message}$"):
            richert_a(RichertWeights(b=2.0, y=10.0, z=100.0), d)

    def test_whole_d_of_any_type(self):
        W = RichertWeights(b=2.0, y=10.0, z=100.0)
        for d in (1, 7, 53):
            assert richert_a(W, float(d)) == richert_a(W, np.int64(d)) == richert_a(W, d)

    # y = z, a prime y, a prime z, z just above a prime, and y = z below 3
    @pytest.mark.parametrize("y,z", [(13.0, 13.0), (7.0, 50.0), (4.0, 47.0),
                                     (3.5, math.nextafter(31.0, math.inf)), (2.5, 2.5)])
    @pytest.mark.parametrize("exact", [True, False])
    def test_table_is_richert_a_over_the_primes(self, y, z, exact):
        W = RichertWeights(b=2.0, y=y, z=z)
        want = [(d, Fraction(v) if exact else v) for d in range(1, math.ceil(z))
                if (v := richert_a(W, d)) != 0.0]
        got = weights._richert_weights(W, exact)
        assert list(got.items()) == want
        assert all(type(v) is (Fraction if exact else float) for v in got.values())

    def test_weights_read_from_the_prime_table(self, twin, monkeypatch):
        # _richert_weights tested every prime below z again by is_prime, and
        # s_main factored each of them by trial division in f_values
        W = RichertWeights(b=3.0, y=5.0, z=200.0)
        systems = [build_lambda_system(twin, 60, 20, exact=exact) for exact in (True, False)]
        want = [(s_main(W, S), s_main(W, S, relaxed=True)) for S in systems]

        def refuse(*args):
            raise AssertionError("no call expected")

        for module, name in [(weights, "is_prime"), (weights, "f_values"), (arithmetic, "is_prime"),
                             (arithmetic, "factorize"), (arithmetic, "f_values")]:
            monkeypatch.setattr(module, name, refuse, raising=False)
        assert [(s_main(W, S), s_main(W, S, relaxed=True)) for S in systems] == want
        assert len(weights._richert_weights(W, True)) == 1 + 46

    def test_validation(self):
        with pytest.raises(DomainError):
            RichertWeights(b=0.0, y=2.0, z=10.0)
        with pytest.raises(DomainError):
            RichertWeights(b=1.0, y=20.0, z=10.0)

    @pytest.mark.parametrize("name", ["b", "y", "z"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        kw = {"b": 2.0, "y": 3.0, "z": 10.0, name: value}
        with pytest.raises(DomainError, match=f"^{name} = {value} must be finite$"):
            RichertWeights(**kw)


class TestSupport:
    def test_small(self):
        elems = [m for m, _ in support_elements(10, 10)]
        assert elems == [1, 2, 3, 5, 6, 7]

    def test_empty(self):
        with pytest.raises(SupportEmpty):
            support_elements(1, 10)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            support_elements(10 ** 6, 10 ** 6, budget=100)
        # 2.5 raised islice's untyped "Stop argument ... must be None or an integer"
        for budget, message in [(2.5, "budget = 2.5 must be an integer"),
                                (math.nan, "budget = nan must be an integer"),
                                (-1, "budget = -1 must be >= 0"),
                                (True, "budget = True must be an integer")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                support_elements(100, 10, budget=budget)
        with pytest.raises(BudgetExceeded):
            support_elements(100, 10, budget=0)
        assert support_elements(100, 10, budget=25.0) == support_elements(100, 10)

    @pytest.mark.parametrize("fn", [support_elements, weights.support_u])
    @pytest.mark.parametrize("xi,zp,message", [
        (math.inf, 10, "xi = inf"), (math.nan, 10, "xi = nan"),
        (10, math.inf, "z_prime = inf"), (10, math.nan, "z_prime = nan"),
    ])
    def test_non_finite_rejected(self, fn, xi, zp, message):
        with pytest.raises(DomainError, match=f"^{message} must be finite$"):
            fn(xi, zp)

    @pytest.mark.parametrize("xi", [0, -5, -0.5])
    def test_u_needs_positive_xi(self, xi):
        # log xi raised an untyped "math domain error"
        with pytest.raises(DomainError, match=f"^xi = {xi:g} must be > 0$"):
            weights.support_u(xi, 10)


def primes_below(c):
    """Primes p < c by trial division."""
    return [p for p in range(2, math.ceil(c)) if all(p % d for d in range(2, math.isqrt(p) + 1))]


DFS = weights._products


def support_oracle(xi, zp):
    """The support straight from the DFS, by no memo."""
    return sorted(DFS(primes_below(min(zp, xi)), xi))


PREFIX_XIS = (1.5, 2, 2.5, 3, 7.5, 8, 29, 30, 30.5, 31, 64, 100, 150.25, 200)
PREFIX_ZPS = (1.5, 2, 2.5, 3, 7, 12, 13, 30, 30.5, 60, 1000)


class TestSupportPrefix:
    """support_elements serves each xi as a prefix of one kept enumeration."""

    @pytest.fixture
    def bounds(self, monkeypatch):
        """The bound of every enumeration, from an empty memo on."""
        monkeypatch.setattr(weights, "_enumerated", (0, (), [], {}))
        seen = []
        inner = weights._products

        def counting(primes, bound):
            seen.append(bound)
            return inner(primes, bound)

        monkeypatch.setattr(weights, "_products", counting)
        return seen

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_oracle_in_any_order(self, bounds, order):
        calls = [(xi, zp) for zp in PREFIX_ZPS for xi in PREFIX_XIS]
        if order == "descending":
            calls.reverse()
        elif order == "shuffled":
            calls = [calls[i] for i in np.random.default_rng(31).permutation(len(calls))]
        for xi, zp in calls:
            assert support_elements(xi, zp) == support_oracle(xi, zp), (xi, zp)

    def test_mutating_a_result_leaves_the_next(self, bounds):
        want = support_oracle(100, 10)
        got = support_elements(100, 10)
        got.clear()
        assert support_elements(100, 10) == want
        got = support_elements(50, 10)
        got[0] = (4, (2, 2))
        got.append((1000, ()))
        assert support_elements(50, 10) == support_oracle(50, 10)
        assert support_elements(100, 10) == want

    def test_budget_counts_the_prefix_only(self, bounds):
        support_elements(200, 10)
        count = len(support_oracle(100, 10))
        assert len(support_oracle(200, 10)) > count
        assert support_elements(100, 10, budget=count) == support_oracle(100, 10)
        with pytest.raises(BudgetExceeded, match="^support lattice above node budget$"):
            support_elements(100, 10, budget=count - 1)
        with pytest.raises(BudgetExceeded):
            support_elements(100, 10, budget=0)

    def test_doubling_past_the_budget_enumerates_to_xi(self, bounds):
        support_elements(100, 30)
        count = len(support_oracle(150, 30))
        assert len(support_oracle(200, 30)) > count
        assert support_elements(150, 30, budget=count) == support_oracle(150, 30)
        assert bounds == [100, 200, 150]
        with pytest.raises(BudgetExceeded):
            support_elements(160, 30, budget=count)
        assert support_elements(120, 30) == support_oracle(120, 30)

    def test_first_call_enumerates_to_xi_and_repeats_double(self, bounds):
        support_elements(100, 10)
        support_elements(150.5, 30)     # new primes below min(z', xi)
        support_elements(120, 30.5)     # the same primes: a prefix
        support_elements(160, 31)       # the same primes below 150.5: doubled
        support_elements(40, 1000)      # 31 is prime: new again
        assert bounds == [100, 150.5, 301.0, 40]

    def test_criterion_6_order_enumerates_log_xi_times_per_z_prime(self, bounds):
        per_zp = {}
        for zp in range(2, 51):
            before = len(bounds)
            for xi in range(2, 201):
                support_elements(xi, zp)
            per_zp[zp] = len(bounds) - before
        assert max(per_zp.values()) <= math.ceil(math.log2(200)) + 1
        assert per_zp[31] == 0  # the primes below 31 are those below 30


class TestZetaLambda:
    def test_hand_inversion(self, tuple_n):
        S = build_lambda_system(tuple_n, 4, 4)
        assert S.lam == {1: Fraction(5, 2), 2: Fraction(-2), 3: Fraction(-3, 2)}

    def test_roundtrip_classical(self, twin):
        S = build_lambda_system(twin, 30, 12)
        back = zeta_from_lambda(twin, 30, 12, S.lam)
        assert back == S.zeta

    def test_roundtrip_random_rational_zeta(self, twin):
        rng = np.random.default_rng(7)
        support = [m for m, _ in support_elements(24, 11)]
        zeta = {m: Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 9)))
                for m in support}
        lam = lambda_from_zeta(twin, 24, 11, zeta)
        assert zeta_from_lambda(twin, 24, 11, lam) == zeta

    def test_normalized(self, twin):
        S = build_lambda_system(twin, 30, 12)
        assert S.normalized()[1] == 1

    def test_zeta_from_poly(self, twin):
        xi, zp = 16, 4
        u = math.log(xi) / math.log(zp)
        P = SievePolynomial((0.5, 1.0), u)
        z = zeta_from_poly(P, xi, zp)
        assert z[1] == pytest.approx(P(u))
        for m in z:
            assert z[m] == pytest.approx(P(math.log(xi / m) / math.log(zp)))

    def test_zeta_one_everywhere_for_constant_poly(self, twin):
        u = math.log(20) / math.log(10)
        z = zeta_from_poly(SievePolynomial.one(u), 20, 10)
        assert all(v == 1.0 for v in z.values())

    def test_classical_lambda_bound_exhaustive(self, classical_lambda_sweep):
        # |lambda~_nu| <= lambda~_1 over the full grid, exact arithmetic
        violations = sum(1 for v in classical_lambda_sweep.values() if v)
        assert violations == 0

    def test_lambda_ratio_bound_linear_poly(self, twin):
        xi, zp = 100, 20
        u = math.log(xi) / math.log(zp)
        P = SievePolynomial((1.0, 1.0 / u), u + 1e-9)
        S = build_lambda_system(twin, xi, zp, P=P, exact=False)
        lo, hi = P.range_on_domain()
        worst = max(abs(v) for v in S.lam.values()) / abs(S.lam[1])
        assert worst <= hi / lo + 1e-12

    def test_lambda1_bounded_by_supP_times_G(self, twin):
        xi, zp = 60, 14
        u = math.log(xi) / math.log(zp)
        P = SievePolynomial((1.0, 0.5), u + 1e-9)
        S = build_lambda_system(twin, xi, zp, P=P, exact=False)
        G = G_sum(twin, xi, zp)
        _, sup = P.range_on_domain()
        assert S.lam[1] <= sup * G * (1 + 1e-12)

    def test_lambda1_times_V_bounded(self, tuple_n):
        # lambda_1 << 1/V(z'): the product stays bounded as z' grows
        for zp in (20, 50, 100, 200):
            S = build_lambda_system(tuple_n, zp * zp, zp, exact=False)
            assert S.lam[1] * V_product(tuple_n, zp) <= 1.05


def loop_f_tables(L, support_factored, exact):
    """Per-element f and f' from f_values, one factorization per
    element: the reference for the lattice's multiplicative tables."""
    f = {}
    fp = {}
    for m, pf in support_factored:
        if m == 1:
            f[1] = Fraction(1) if exact else 1.0
            fp[1] = Fraction(1) if exact else 1.0
            continue
        fm, fpm = f_values(L, m)
        if fpm == 0:
            raise DivisionByZero(f"f'({m}) = 0")
        f[m] = fm if exact else float(fm)
        fp[m] = fpm if exact else float(fpm)
    return f, fp


def divisors_from_primes(pf):
    divs = [1]
    for p in pf:
        divs += [d * p for d in divs]
    return divs


def push_inversion(L, xi, z_prime, values, exact, to_lambda):
    """Either direction of the lambda/zeta inversion by pushing each
    element's term to all 2^omega of its divisors: the reference for
    the superset-sum transform."""
    sf = support_elements(xi, z_prime)
    f, fp = loop_f_tables(L, sf, exact)
    inner, outer = (fp, f) if to_lambda else (f, fp)
    acc = {m: (Fraction(0) if exact else 0.0) for m, _ in sf}
    for m, pf in sf:
        term = values[m] / inner[m]
        for d in divisors_from_primes(pf):
            acc[d] += term
    return {m: (-1 if len(pf) % 2 else 1) * outer[m] * acc[m] for m, pf in sf}


ORACLE_FORMS = [[[1, 0]], [[1, 0], [1, 2]], [[1, 0], [1, 2], [1, 6]], [[3, 1], [5, -1]],
                [[3, 1], [5, -2]]]
# xi = 2 (support {1}), xi < z', xi = z', xi > z', and z' far above xi
ORACLE_GRID = [(2, 30), (2, 2), (10, 30), (13, 13), (30, 12), (97, 13),
               (210, 50), (300, 7), (60, 1000)]


class TestLatticeOracle:
    @staticmethod
    def _random_rationals(rng, support):
        return {m: Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9)))
                for m in support}

    @pytest.mark.parametrize("forms", ORACLE_FORMS)
    @pytest.mark.parametrize("xi,zp", ORACLE_GRID)
    def test_exact_inversions_match_divisor_push(self, forms, xi, zp):
        L = build_system(forms)
        ones = {m: Fraction(1) for m, _ in support_elements(xi, zp)}
        try:
            want = push_inversion(L, xi, zp, ones, True, True)
        except DivisionByZero as exc:
            # rho(2) = 2 for [[3,1],[5,-2]]: every path refuses it alike
            for call in (lambda: build_lambda_system(L, xi, zp),
                         lambda: lambda_from_zeta(L, xi, zp, ones),
                         lambda: zeta_from_lambda(L, xi, zp, ones)):
                with pytest.raises(DivisionByZero, match=re.escape(str(exc))):
                    call()
            return
        S = build_lambda_system(L, xi, zp)
        assert S.lam == want
        assert lambda_from_zeta(L, xi, zp, S.zeta) == want
        rng = np.random.default_rng(xi * 1000 + zp)
        zeta = self._random_rationals(rng, S.support)
        assert lambda_from_zeta(L, xi, zp, zeta) == push_inversion(L, xi, zp, zeta, True, True)
        assert build_lambda_system(L, xi, zp, zeta=zeta).lam == \
            push_inversion(L, xi, zp, zeta, True, True)
        lam = self._random_rationals(rng, S.support)
        assert zeta_from_lambda(L, xi, zp, lam) == push_inversion(L, xi, zp, lam, True, False)
        assert zeta_from_lambda(L, xi, zp, S.lam) == S.zeta

    @pytest.mark.parametrize("forms", ORACLE_FORMS[:4])
    @pytest.mark.parametrize("xi,zp", ORACLE_GRID)
    def test_f_tables_match_f_values(self, forms, xi, zp):
        L = build_system(forms)
        exact = build_lambda_system(L, xi, zp).lattice
        flt = build_lambda_system(L, xi, zp, exact=False).lattice
        assert list(exact.rho) == [m for m, _ in support_elements(xi, zp)]
        for m, r in exact.rho.items():
            # f(m) = m/rho(m), f'(m) = phi(m)/rho(m)
            f, fp = f_values(L, m)
            assert (Fraction(m, r), Fraction(exact.phi[m], r)) == (f, fp)
        # the tables are integers, the same in both modes
        assert (flt.rho, flt.phi) == (exact.rho, exact.phi)

    @pytest.mark.parametrize("forms", ORACLE_FORMS[:4])
    @pytest.mark.parametrize("xi,zp", ORACLE_GRID)
    def test_float_lambda_close_to_exact(self, forms, xi, zp):
        L = build_system(forms)
        exact = build_lambda_system(L, xi, zp).lam
        flt = build_lambda_system(L, xi, zp, exact=False).lam
        tol = 1e-12 * abs(float(exact[1]))
        assert all(abs(flt[m] - float(v)) <= tol for m, v in exact.items())


class TestErrorPaths:
    @pytest.mark.parametrize("exact", [True, False])
    def test_rho_equals_p_is_a_pole_of_f_prime(self, exact):
        with pytest.raises(DivisionByZero, match=r"^f'\(2\) = 0$"):
            build_lambda_system(from_offsets([0, 1]), 10, 10, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_rho_zero_has_no_density(self, exact):
        with pytest.raises(DensityZero, match=r"^rho\(2\) = 0$"):
            build_lambda_system(build_system([[2, 1]]), 10, 10, exact=exact)

    def test_zeta_missing_a_support_element(self, twin):
        # raised an untyped KeyError: 2
        with pytest.raises(DomainError, match="^no zeta value for support element 2$"):
            build_lambda_system(twin, 100, 10, zeta={1: 1})
        zeta = dict.fromkeys(m for m, _ in support_elements(100, 10) if m != 35)
        with pytest.raises(DomainError, match="^no zeta value for support element 35$"):
            build_lambda_system(twin, 100, 10, zeta=zeta)

    @pytest.mark.parametrize("invert,name", [(lambda_from_zeta, "zeta"),
                                             (zeta_from_lambda, "lambda")])
    def test_inverse_missing_a_support_element(self, twin, invert, name):
        # both raised an untyped KeyError: 2
        with pytest.raises(DomainError, match=f"^no {name} value for support element 2$"):
            invert(twin, 100, 10, {1: 1})
        values = dict.fromkeys((m for m, _ in support_elements(100, 10) if m != 35),
                               Fraction(1))
        with pytest.raises(DomainError, match=f"^no {name} value for support element 35$"):
            invert(twin, 100, 10, values)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_refused(self, twin, exact, bad):
        # float mode built lambda_1 = nan and decompose returned nan; exact
        # mode raised an untyped ValueError (nan) or OverflowError (inf)
        zeta = {m: bad if m == 3 else 1.0 for m, _ in support_elements(30, 10)}
        for given in (zeta.get, zeta):
            with pytest.raises(DomainError, match=f"^zeta value {bad} for support element 3 "
                                                  "is not finite$"):
                build_lambda_system(twin, 30, 10, zeta=given, exact=exact)
        with pytest.raises(DomainError, match=f"^lambda value {bad} for support element 3 "
                                              "is not finite$"):
            zeta_from_lambda(twin, 30, 10, zeta, exact=exact)
        with pytest.raises(DomainError, match=f"^zeta value {bad} for support element 3 "
                                              "is not finite$"):
            lambda_from_zeta(twin, 30, 10, zeta, exact=exact)

    def test_zeta_and_P_together_refused(self, twin, monkeypatch):
        # P was ignored without a word
        def refuse(*args):
            raise AssertionError("support enumerated")

        monkeypatch.setattr(weights, "support_elements", refuse)
        with pytest.raises(DomainError, match="^give zeta or P, not both$"):
            build_lambda_system(twin, 30, 10, zeta={1: 1}, P=SievePolynomial.one(2.0))


def memoless_classical(L, xi, zp, exact):
    """Classical lambda straight from _lattice and _dual, by no cache."""
    lat = weights._lattice(L, support_elements(xi, zp))
    return weights._dual(lat, dict.fromkeys(lat.rho, Fraction(1) if exact else 1.0),
                         True, exact)


def bits(lam):
    """(m, type, value) with floats as hex: equal only when bit for bit."""
    return [(m, type(v), v.hex() if isinstance(v, float) else v) for m, v in lam.items()]


MEMO_FORMS = ([[1, 0]], [[1, 0], [1, 2]], [[3, 1], [5, -1]])


class TestClassicalMemo:
    """build_lambda_system keeps the classical (zeta = 1) systems of the
    current prime set."""

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_lambda_bit_identical_to_memoless(self, exact, order):
        calls = [(forms, zp, xi) for forms in MEMO_FORMS for zp in (2, 7, 12, 13)
                 for xi in range(2, 48)]
        if order == "descending":
            calls.reverse()
        elif order == "interleaved":
            # across forms and z' too, so that supports repeat out of turn
            calls = [calls[i] for i in np.random.default_rng(19).permutation(len(calls))]
        for forms, zp, xi in calls:
            L = build_system(forms)
            S = build_lambda_system(L, xi, zp, exact=exact)
            assert bits(S.lam) == bits(memoless_classical(L, xi, zp, exact))
            assert S.zeta == dict.fromkeys(S.support, 1) and S.support == tuple(S.lam)

    @pytest.mark.parametrize("exact", [True, False])
    def test_mutating_a_system_leaves_the_next(self, twin, exact):
        want = bits(memoless_classical(twin, 30, 12, exact))
        S = build_lambda_system(twin, 30, 12, exact=exact)
        S.lam[1] = 0
        S.lam.pop(2)
        S.zeta[1] = 7
        # z' = 13 has the same support as z' = 12
        T = build_lambda_system(twin, 30, 13, exact=exact)
        assert bits(T.lam) == want
        assert set(T.zeta.values()) == {1}
        assert T.lam is not S.lam and T.zeta is not S.zeta

    @pytest.mark.parametrize("forms,error,message", [
        ([[1, 0], [1, 1]], DivisionByZero, r"^f'\(2\) = 0$"),
        ([[3, 1], [5, -2]], DivisionByZero, r"^f'\(2\) = 0$"),
        ([[2, 1]], DensityZero, r"^rho\(2\) = 0$"),
    ])
    def test_errors_are_not_kept(self, twin, forms, error, message):
        build_lambda_system(twin, 40, 12)
        for _ in range(2):
            with pytest.raises(error, match=message):
                build_lambda_system(build_system(forms), 40, 12)
        assert bits(build_lambda_system(twin, 40, 12).lam) == \
            bits(memoless_classical(twin, 40, 12, True))

    @pytest.mark.parametrize("exact", [True, False])
    def test_polynomial_and_explicit_zeta_skip_the_memo(self, twin, monkeypatch, exact):
        u = math.log(60) / math.log(14)
        want = build_lambda_system(twin, 60, 14, P=SievePolynomial.one(u + 1e-9), exact=exact)

        def refuse(*args):
            raise AssertionError("classical memo read")

        monkeypatch.setattr(weights, "_classical", refuse)
        for kw in ({"P": SievePolynomial.one(u + 1e-9)}, {"zeta": lambda m: want.zeta[m]},
                   {"zeta": want.zeta}):
            S = build_lambda_system(twin, 60, 14, exact=exact, **kw)
            assert bits(S.lam) == bits(want.lam)
            assert S.lattice is not want.lattice

    @pytest.fixture
    def fresh(self, monkeypatch):
        """No enumeration and no classical system held."""
        monkeypatch.setattr(weights, "_enumerated", (0, (), [], {}))

    def test_held_while_the_prime_set_lasts(self, fresh, twin):
        S = build_lambda_system(twin, 30, 12)
        held = weakref.ref(S.lattice)
        del S
        # primes below 12, 13 and min(12, 10) are one set: 4 supports
        for xi, zp in ((31, 12), (20, 12), (30, 13), (10, 12), (31, 13)):
            build_lambda_system(twin, xi, zp)
            gc.collect()
            assert held() is not None
        assert len(weights._enumerated[3]) == 4
        build_lambda_system(twin, 30, 14)  # 13 joins the primes
        gc.collect()
        assert held() is None
        assert len(weights._enumerated[3]) == 1

    def test_a_refused_enumeration_keeps_the_systems(self, fresh, twin):
        # the classical systems were dropped before the enumeration of the
        # other prime set ran, so a refused one left the kept enumeration
        # without them, and the next call inverted its support again
        first = build_lambda_system(twin, 30, 12)
        with pytest.raises(BudgetExceeded):
            support_elements(10 ** 6, 10 ** 6, budget=100)
        assert build_lambda_system(twin, 30, 12).lattice is first.lattice

    @pytest.mark.parametrize("exact", [True, False])
    def test_reuses_a_system_across_z_prime(self, twin, exact):
        first = build_lambda_system(twin, 30, 12, exact=exact)
        build_lambda_system(twin, 31, 12, exact=exact)
        third = build_lambda_system(twin, 30, 13, exact=exact)
        assert third.lattice is first.lattice
        assert bits(third.lam) == bits(first.lam) and third.lam is not first.lam


@pytest.mark.parametrize("exact", [True, False])
def test_classical_memo_tells_equal_sized_supports_apart(twin, exact):
    # (8, 8) and (11, 6) both have 6 elements, over 4 and over 3 primes
    for xi, zp in ((8, 8), (11, 6), (8, 8)):
        S = build_lambda_system(twin, xi, zp, exact=exact)
        assert S.support == tuple(m for m, _ in support_oracle(xi, zp))
        assert bits(S.lam) == bits(memoless_classical(twin, xi, zp, exact))


class TestEnumerateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        inner = weights.support_elements

        def counting(*args, **kwargs):
            counter.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(weights, "support_elements", counting)
        return counter

    @pytest.mark.parametrize("exact", [True, False])
    def test_build_enumerates_once(self, calls, twin, exact):
        u = math.log(60) / math.log(14)
        for P in (None, SievePolynomial((1.0, 0.5), u + 1e-9)):
            calls.clear()
            S = build_lambda_system(twin, 60, 14, P=P, exact=exact)
            assert len(calls) == 1
            calls.clear()
            build_lambda_system(twin, 60, 14, zeta=lambda m: S.zeta[m], exact=exact)
            assert len(calls) == 1

    def test_decompose_does_not_enumerate(self, calls, twin):
        S = build_lambda_system(twin, 30, 12)
        calls.clear()
        dec = decompose(SieveInstance(twin, 300), RichertWeights(2.0, 4.0, 15.0), S)
        assert dec.residual == 0
        assert calls == []


def G_oracle(L, r, z_prime):
    """G(r, z') by enumerating squarefree m < r with every prime factor
    below z', and 1/f'(p) = rho(p)/(p - rho(p)) from brute_rho."""
    weight = {}
    total = Fraction(0)
    for m in range(1, math.ceil(r)):
        primes, rest, p = [], m, 2
        while p * p <= rest:
            if rest % p == 0:
                primes.append(p)
                rest //= p
            else:
                p += 1
        if rest > 1:
            primes.append(rest)
        if len(set(primes)) < len(primes) or any(p >= z_prime for p in primes):
            continue
        term = Fraction(1)
        for p in primes:
            if p not in weight:
                rho_p = brute_rho(L, p)
                weight[p] = Fraction(rho_p, p - rho_p)
            term *= weight[p]
        total += term
    return total


def g_floor_oracle(L, r, z_prime, exact=False):
    """G(r, z') by the searchsorted form of the floor-value recurrence:
    V = {floor(N/i)} u {0} sorted, and each prime p < z' reads the old
    S(floor(v/p)) at its binary-searched index in V."""
    primes = arithmetic._primes_below(min(z_prime, r))
    rhos = [brute_rho(L, p) for p in primes]
    N = math.ceil(r) - 1
    prod = 1
    for p in primes:
        prod *= p
        if prod > N:
            break
    else:
        N = prod
    s = math.isqrt(N)
    large = N // np.arange(s, 0, -1, dtype=np.int64)
    V = np.concatenate((np.arange(s + 1, dtype=np.int64), large[large > s]))
    S = np.ones(len(V), dtype=object if exact else float)
    S[0] = 0
    scale = 1
    for p, rho_p in zip(primes, rhos):
        below = S[np.searchsorted(V, V // p)]
        if exact:
            S = (p - rho_p) * S + rho_p * below
            scale *= p - rho_p
        else:
            S += rho_p / (p - rho_p) * below
    return Fraction(int(S[-1]), scale) if exact else float(S[-1])


class TestGSum:
    @pytest.mark.parametrize("forms", [[[1, 0]], [[1, 0], [1, 2]],
                                       [[1, 0], [1, 2], [1, 6]], [[2, 1]]])
    @pytest.mark.parametrize("r,zp", [(2, 30), (5, 5), (97, 13), (1000.5, 30),
                                      (50, 100), (200, 200), (3000, 60),
                                      (2311, 12), (10 ** 4, 8)])
    def test_matches_enumeration(self, forms, r, zp):
        # non-integer r, r <= z', and r above the primorial (2310, 210)
        L = build_system(forms)
        want = G_oracle(L, r, zp)
        assert G_sum(L, r, zp, exact=True) == want
        assert G_sum(L, r, zp) == pytest.approx(float(want), rel=1e-13)

    def test_float_matches_exact_large(self, twin):
        a = G_sum(twin, 10 ** 5, 300)
        b = G_sum(twin, 10 ** 5, 300, exact=True)
        assert a == pytest.approx(float(b), rel=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    def test_rho_equals_p_raises(self, exact):
        with pytest.raises(ZeroFactor):
            G_sum(from_offsets([0, 1]), 10, 10, exact=exact)

    def test_hand_value(self, tuple_n):
        assert G_sum(tuple_n, 5, 5, exact=True) == Fraction(5, 2)

    def test_only_unit(self, tuple_n):
        assert G_sum(tuple_n, 2, 30, exact=True) == 1

    def test_classical_lambda1_equals_G(self, twin):
        S = build_lambda_system(twin, 50, 13)
        assert S.lam[1] == G_sum(twin, 50, 13, exact=True)

    def test_float_matches_exact(self, twin):
        a = G_sum(twin, 200, 30)
        b = float(G_sum(twin, 200, 30, exact=True))
        assert a == pytest.approx(b, rel=1e-12)

    def test_budget(self, twin):
        with pytest.raises(BudgetExceeded):
            G_sum(twin, 10 ** 7, 10 ** 4, budget=1000)
        # nan ignored the budget and returned 12.93
        for budget in (math.nan, math.inf, 75.5, -1):
            message = "must be >= 0" if budget == -1 else "must be an integer"
            with pytest.raises(ValueError, match=f"^budget = {budget} {message}$"):
                G_sum(twin, 100, 10, budget=budget)

    def test_budget_zero_is_a_budget(self, twin):
        # 0 once fell back to GSUM_WORK_BUDGET and returned 12.93
        with pytest.raises(BudgetExceeded, match=r"^G-sum work 4 x 19 above budget$"):
            G_sum(twin, 100, 10, budget=0)
        assert G_sum(twin, 100, 10, budget=4 * 19) == G_sum(twin, 100, 10)

    @pytest.mark.parametrize("r,zp,message", [
        (100, math.nan, "cutoff z = nan"), (math.nan, 10, "r = nan"), (math.inf, 10, "r = inf")])
    def test_non_finite_cutoff_refused(self, twin, r, zp, message):
        # these failed inside math.floor or math.ceil with untyped errors;
        # z' = inf stays the unrestricted sum over m < r
        with pytest.raises(DomainError, match=f"^{message} must be finite$"):
            G_sum(twin, r, zp)
        assert G_sum(twin, 100, math.inf) == G_sum(twin, 100, 100)

    @pytest.mark.parametrize("zp", [1, 0.5])
    def test_density_report_needs_z_prime_above_one(self, twin, zp):
        # z' = 1 raised ZeroDivisionError from log z'
        with pytest.raises(DomainError, match=f"^z' = {zp:g} must be > 1$"):
            g_sum_report(twin, 100, zp, None)

    def test_density_approximation_trend(self, tuple_n, twin):
        # |G V / j(tau) - 1| decreasing in z' at fixed tau = 2
        for L in (tuple_n, twin):
            J = solve_j(L.kappa, 2.0)
            errs = [abs(g_sum_report(L, zp * zp, zp, J)["ratio"] - 1.0)
                    for zp in (100, 1000, 10_000)]
            assert errs[2] < errs[1] < errs[0]

    def test_density_report_refuses_j_for_another_kappa(self, twin):
        # j_3 in place of j_2 once gave the ratio 3.60 against 1.44
        with pytest.raises(DomainError, match="J solved for kappa = 3 on"):
            g_sum_report(twin, 10 ** 4, 100, solve_j(3, 2.0))
        with pytest.raises(DomainError, match=r"on \[0, 1\] does not serve kappa = 2 up to u = 2"):
            g_sum_report(twin, 10 ** 4, 100, solve_j(2, 1.0))


G_FORMS = [[[1, 0]], [[1, 0], [1, 2]], [[1, 0], [1, 2], [1, 6]], [[2, 1]]]


class TestGSumFloorOracle:
    """The split small/large arrays of G_sum against the searchsorted
    recurrence: float bit for bit, exact Fraction for Fraction."""

    @pytest.mark.parametrize("forms", G_FORMS)
    @pytest.mark.parametrize("r,zp", [
        (10, 30), (11, 30), (12, 5),          # N // isqrt(N) == isqrt(N)
        (2, 30), (1.5, 30),                   # N = 1: no large entries
        (2311, 12), (10 ** 5, 8),             # r above the primorial
        (1000, 50), (200, 200), (50, 100),    # z' > sqrt(r), z' >= r
        (1000.5, 30), (Fraction(2001, 2), 30), (Fraction(7, 3), 30),
        (10 ** 4, 100), (10 ** 6, 1000)])     # criterion-7 sizes
    def test_matches_floor_oracle(self, forms, r, zp):
        L = build_system(forms)
        got = G_sum(L, r, zp)
        assert type(got) is float and got == g_floor_oracle(L, r, zp)
        assert G_sum(L, r, zp, exact=True) == g_floor_oracle(L, r, zp, exact=True)

    @pytest.mark.parametrize("forms", G_FORMS[:3])
    def test_matches_floor_oracle_float_criterion_7_top(self, forms):
        # exact G at (1e8, 1e4) takes about 20 s, so float alone here
        L = build_system(forms)
        assert G_sum(L, 10 ** 8, 10 ** 4) == g_floor_oracle(L, 10 ** 8, 10 ** 4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=0, max_size=3, unique=True),
           st.integers(2, 30_000), st.booleans(), st.integers(2, 400))
    def test_float_matches_exact(self, offsets, r, half, zp):
        L = from_offsets([0, *offsets])
        assume(is_admissible(L).admissible)
        r = r + 0.5 if half else r
        exact = G_sum(L, r, zp, exact=True)
        assert G_sum(L, r, zp) == pytest.approx(float(exact), rel=1e-12)


class TestInstance:
    def test_negative_x_rejected(self, twin):
        with pytest.raises(DomainError, match=r"^x = -5 must be >= 0$"):
            SieveInstance(twin, -5)
        assert SieveInstance(twin, 0).count_multiples(3) == 0

    @pytest.mark.parametrize("x", [100.5, math.nan, math.inf])
    def test_fractional_x_refused(self, twin, x):
        # 100.5 counted 67.0 multiples of 3, and its remainder raised an
        # untyped TypeError
        with pytest.raises(ValueError, match=f"^x = {x} must be an integer$"):
            SieveInstance(twin, x)

    def test_whole_float_x_is_an_int(self, twin):
        inst = SieveInstance(twin, 100.0)
        assert inst == SieveInstance(twin, 100) and type(inst.x) is int
        assert inst.count_multiples(3) == 67 and inst.remainder(3) == Fraction(1, 3)

    def test_counts_by_residue_match_scan(self, twin):
        inst = SieveInstance(twin, 200)
        for d in (1, 2, 3, 5, 6, 15, 21, 35):
            scan = sum(1 for n in range(1, 201) if twin.value(n) % d == 0)
            assert inst.count_multiples(d) == scan

    def test_remainder_bound(self, twin):
        # |R_d| <= rho(d) on the whole small support
        inst = SieveInstance(twin, 137)
        for d, _ in support_elements(40, 20):
            assert abs(inst.remainder(d)) <= rho(twin, d)

    @pytest.mark.parametrize("forms", [[[1, 0], [1, 2], [1, 6]], [[3, 1], [5, -2]]])
    @pytest.mark.parametrize("x", [1, 37, 1000])
    def test_remainder_matches_enumeration(self, forms, x):
        # every support modulus d of (xi, z') = (2000, 30): |A_d| by a
        # direct count over n <= x, rho(d) by brute_rho
        L = build_system(forms)
        inst = SieveInstance(L, x)
        for d, _ in support_elements(2000, 30):
            count = sum(1 for n in range(1, x + 1) if L.value(n) % d == 0)
            assert inst.count_multiples(d) == count
            assert inst.remainder(d) == count - Fraction(x * brute_rho(L, d), d)

    @pytest.mark.parametrize("d", [-3, 0])
    def test_modulus_below_one_rejected(self, twin, d):
        inst = SieveInstance(twin, 100)
        for fn in (inst.count_multiples, inst.remainder):
            with pytest.raises(ValueError, match=rf"^d = {d} must be >= 1$"):
                fn(d)

    def test_remainder_hand_values(self, tuple_n):
        inst = SieveInstance(tuple_n, 100)
        assert inst.remainder(3) == Fraction(-1, 3)   # 33 - 100/3
        assert inst.remainder(7) == Fraction(-2, 7)   # 14 - 100/7
        assert inst.remainder(1) == 0


def richert_list(W, exact):
    """(d, a_d) for d = 1 and the primes d < z, in the mode's arithmetic."""
    a = [(d, richert_a(W, d)) for d in range(1, math.ceil(W.z))]
    return [(d, Fraction(v) if exact else v) for d, v in a if v != 0.0]


def weighted_sum_oracle(inst, W, S):
    """Left side by testing |L(n)| % d for every n <= x, every weighted
    prime and every support element: the reference for the sums over
    residue classes."""
    (_, b), *primes_z = richert_list(W, S.exact)
    terms = []
    for n in range(1, inst.x + 1):
        av = abs(inst.L.value(n))
        a_sum = b
        for p, ap in primes_z:
            if av % p == 0:
                a_sum = a_sum + ap
        l_sum = 0
        for nu in S.support:
            if av % nu == 0:
                l_sum = l_sum + S.lam[nu]
        terms.append(a_sum * l_sum * l_sum)
    return sum(terms, Fraction(0)) if S.exact else math.fsum(terms)


def e_error_oracle(inst, W, S):
    """Remainder term by one product a_d lambda_nu1 lambda_nu2 per
    (unordered pair, d) triple, accumulated per joint modulus m and
    weighted by SieveInstance.remainder(m): the reference for the sums per
    lcm and the integer coefficients."""
    d_list = richert_list(W, S.exact)
    coeff = {}
    for i, n1 in enumerate(S.support):
        for n2 in S.support[i:]:
            l12 = (1 if n1 == n2 else 2) * S.lam[n1] * S.lam[n2]
            nn = math.lcm(n1, n2)
            for d, a in d_list:
                m = math.lcm(nn, d)
                coeff[m] = coeff.get(m, 0) + a * l12
    terms = [c * (inst.remainder(m) if S.exact else float(inst.remainder(m)))
             for m, c in coeff.items()]
    return sum(terms, Fraction(0)) if S.exact else math.fsum(terms)


# ORACLE_FORMS plus edge cases: L(7) = 0, where n is in a root class of
# every modulus, and values below zero for n < 1000 with L(1000) = 0 and 7 | a
IDENTITY_FORMS = ORACLE_FORMS + [[[1, -7]], [[1, -1000], [7, 4]]]
# (x, z, z', xi): x = 1, z' = 2 (support {1}), xi = z', xi < z', xi > z',
# and 46 primes below z
IDENTITY_GRID = [(1, 10, 5, 20), (600, 2.5, 2, 30), (500, 13, 13, 13),
                 (400, 30, 30, 12), (300, 20, 10, 40), (1000, 30, 30, 200),
                 (500, 200, 20, 40)]


class TestIdentityOracles:
    @pytest.mark.parametrize("forms", IDENTITY_FORMS)
    @pytest.mark.parametrize("x,z,zp,xi", IDENTITY_GRID)
    def test_match_loop_oracles(self, forms, x, z, zp, xi):
        L = build_system(forms)
        W = RichertWeights(b=2.5, y=min(3.0, z), z=z)
        inst = SieveInstance(L, x)
        try:
            exact = build_lambda_system(L, xi, zp)
        except DivisionByZero:
            assert brute_rho(L, 2) == 2 and zp > 2
            return
        flt = build_lambda_system(L, xi, zp, exact=False)
        for fn, oracle in ((weighted_sum_direct, weighted_sum_oracle),
                           (e_error, e_error_oracle)):
            want = oracle(inst, W, exact)
            assert fn(inst, W, exact) == want
            assert abs(fn(inst, W, flt) - oracle(inst, W, flt)) <= 1e-12 * abs(want)
        assert decompose(inst, W, exact).residual == 0


# The bench identity ({0,2}, x = 20,000, z = z' = 50, xi = 300, the CLI's
# b = y = 3) and a large x with small moduli
LIFT_CASES = [(20_000, 50, 50, 300), (10 ** 6, 30, 30, 60)]


class TestJointModulusLift:
    @pytest.mark.parametrize("x,z,zp,xi", LIFT_CASES)
    def test_match_oracle(self, twin, x, z, zp, xi):
        W = RichertWeights(b=3.0, y=3.0, z=z)
        inst = SieveInstance(twin, x)
        exact = build_lambda_system(twin, xi, zp)
        want = e_error_oracle(inst, W, exact)
        assert e_error(inst, W, exact) == want
        flt = build_lambda_system(twin, xi, zp, exact=False)
        assert abs(e_error(inst, W, flt) - e_error_oracle(inst, W, flt)) <= 1e-12 * abs(want)

    def test_factors_no_modulus(self, twin, monkeypatch):
        W = RichertWeights(b=3.0, y=3.0, z=50.0)
        inst = SieveInstance(twin, 20_000)
        S = build_lambda_system(twin, 300, 50)
        want = e_error(inst, W, S)

        def refuse(*args):
            pytest.fail("a modulus was factored")

        monkeypatch.setattr(arithmetic, "factorize", refuse)
        monkeypatch.setattr(weights, "roots_mod_squarefree", refuse)
        assert e_error(inst, W, S) == want

    def test_traced_peak_below_4_mb(self, twin):
        W = RichertWeights(b=3.0, y=3.0, z=50.0)
        inst = SieveInstance(twin, 20_000)
        S = build_lambda_system(twin, 300, 50)
        e_error(inst, W, S)
        tracemalloc.start()
        try:
            e_error(inst, W, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_modulus_above_int64_refused(self, twin):
        # a support element near 2^62 times the prime d = 3 of a
        W = RichertWeights(b=3.0, y=3.0, z=5.0)
        S = build_lambda_system(twin, 10, 5)
        big = 2 ** 62 + 1
        huge = dataclasses.replace(S, support=(1, big), lam={1: S.lam[1], big: S.lam[1]})
        with pytest.raises(BudgetExceeded, match=r"^joint modulus above 2\^63$"):
            e_error(SieveInstance(twin, 100), W, huge)

    def test_triple_sum_above_budget_refused_before_the_pairs(self, twin):
        # |S|^2 |a| = 918^2 * 26, about 2.2e7 triples; lambda reads that
        # fail show that the refusal comes before the pair loop
        class Unread(dict):
            def __getitem__(self, key):
                pytest.fail("the pair loop ran")

        W = RichertWeights(b=3.0, y=3.0, z=100.0)
        S = build_lambda_system(twin, 5000, 100, exact=False)
        assert len(S.support) == 918
        assert len(S.support) ** 2 * 26 > weights.SUPPORT_NODE_BUDGET
        S = dataclasses.replace(S, lam=Unread(S.lam))
        with pytest.raises(BudgetExceeded, match="^error-term triple sum above budget$"):
            e_error(SieveInstance(twin, 1000), W, S)


class TestResidueClassSums:
    def test_traced_peak_below_4_mb(self, twin):
        # x = 10^6 is 16 chunks of n; one pass over all n peaked at 68 MB.
        # Float mode: tracing every Python int of exact mode is 20x slower
        W = RichertWeights(b=3.0, y=3.0, z=50.0)
        S = build_lambda_system(twin, 300, 50, exact=False)
        inst = SieveInstance(twin, 10 ** 6)
        tracemalloc.start()
        try:
            weighted_sum_direct(inst, W, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_many_primes(self, twin):
        # 168 primes below z, against 46 in IDENTITY_GRID
        W = RichertWeights(b=3.0, y=3.0, z=1000.0)
        inst = SieveInstance(twin, 5000)
        dec = decompose(inst, W, build_lambda_system(twin, 100, 30))
        assert dec.residual == 0
        flt = weighted_sum_direct(inst, W, build_lambda_system(twin, 100, 30, exact=False))
        assert abs(flt - dec.lhs) <= 1e-12 * abs(dec.lhs)


class TestDecompose:
    def test_spec_instance_exact_zero(self, tuple_n):
        W = RichertWeights(b=3.0, y=3.0, z=10.0)
        S = build_lambda_system(tuple_n, 10, 10)
        dec = decompose(SieveInstance(tuple_n, 100), W, S)
        assert dec.residual == 0
        assert dec.lhs == weighted_sum_direct(SieveInstance(tuple_n, 100), W, S)

    def test_float_mode_residual_small(self, tuple_n):
        W = RichertWeights(b=3.0, y=3.0, z=10.0)
        S = build_lambda_system(tuple_n, 10, 10, exact=False)
        dec = decompose(SieveInstance(tuple_n, 100), W, S)
        assert abs(dec.residual) <= 1e-6 * abs(dec.lhs)

    def test_mode_follows_lambda_system(self, twin):
        W = RichertWeights(b=3.0, y=3.0, z=20.0)
        inst = SieveInstance(twin, 500)
        flt = decompose(inst, W, build_lambda_system(twin, 60, 20, exact=False))
        assert flt.mode == "float"
        assert all(isinstance(v, float)
                   for v in (flt.lhs, flt.main, flt.error, flt.residual))
        assert abs(flt.residual) <= 1e-12 * abs(flt.lhs)
        ex = decompose(inst, W, build_lambda_system(twin, 60, 20))
        assert ex.mode == "exact"
        assert isinstance(ex.residual, Fraction) and ex.residual == 0
        assert flt.lhs == pytest.approx(float(ex.lhs), rel=1e-12)

    def test_instance_over_another_system(self, tuple_n, twin):
        W = RichertWeights(b=3.0, y=3.0, z=20.0)
        S = build_lambda_system(twin, 60, 20)
        with pytest.raises(DomainError):
            decompose(SieveInstance(tuple_n, 500), W, S)

    def test_perturbed_lambda_gives_nonzero_residual(self, twin):
        # the left side is an enumeration over n, not the lambda algebra:
        # a lambda that no longer inverts zeta must break the identity
        W = RichertWeights(b=3.0, y=3.0, z=20.0)
        S = build_lambda_system(twin, 60, 20)
        inst = SieveInstance(twin, 500)
        assert decompose(inst, W, S).residual == 0
        for nu in S.support:
            lam = dict(S.lam)
            lam[nu] += Fraction(1, 1000)
            bad = dataclasses.replace(S, lam=lam)
            assert decompose(inst, W, bad).residual != 0

    @pytest.mark.parametrize("exact", [True, False])
    def test_weighted_prime_without_density_adds_nothing(self, exact):
        # rho(3) = 0 for 3n + 1 and 3n + 7, and 3 < z: s_main raised
        # DensityZero("rho(3) = 0"), though a_3 rho(3)/3 = 0
        L = build_system([[3, 1], [3, 7]])
        W = RichertWeights(b=3.0, y=3.0, z=20.0)
        dec = decompose(SieveInstance(L, 2000), W, build_lambda_system(L, 10, 3, exact=exact))
        if exact:
            assert dec.residual == 0
        else:
            assert abs(dec.residual) <= 1e-12 * abs(dec.lhs)

    def test_zeta_beyond_the_support_is_not_kept(self, twin):
        # s_main read zeta_dm for dm off the support: the residual was
        # -42679033167937855825/5066549580791808 for the classical lambda
        S = build_lambda_system(twin, 30, 10, zeta={m: 1 for m in range(1, 400)})
        classical = build_lambda_system(twin, 30, 10)
        assert list(S.zeta) == list(S.support) and S.lam == classical.lam
        W = RichertWeights(b=3.0, y=3.0, z=10.0)
        inst = SieveInstance(twin, 2000)
        dec = decompose(inst, W, S)
        assert dec.residual == 0
        assert dec.main == decompose(inst, W, classical).main

    def test_degenerate_supports(self, tuple_n):
        # lambda on {1} only, a on {1} only
        W = RichertWeights(b=3.0, y=1.5, z=2.0)
        S = build_lambda_system(tuple_n, 2, 2)
        inst = SieveInstance(tuple_n, 50)
        dec = decompose(inst, W, S)
        assert dec.lhs == 3 * 50          # b * lambda_1^2 * |A|
        assert dec.main == 3              # b * zeta_1^2
        assert dec.error == 0             # R_1 = 0
        assert dec.residual == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_randomized_exact_instances(self, seed):
        rng = np.random.default_rng(seed)
        offsets = [0] if rng.integers(2) == 0 else [0, 2]
        L = from_offsets(offsets)
        x = int(rng.integers(200, 2000))
        zp = int(rng.integers(5, 20))
        z = int(rng.integers(zp, 31))
        xi = int(rng.integers(4, 31))
        y = float(rng.integers(2, max(int(z), 3)))
        b = float(rng.integers(1, 4))
        if seed == 5:
            u = math.log(xi) / math.log(zp)
            P = SievePolynomial((1.0, 0.5), u + 1e-9)
            S = build_lambda_system(L, xi, zp, P=P)
        else:
            S = build_lambda_system(L, xi, zp)
        W = RichertWeights(b=b, y=y, z=float(z))
        dec = decompose(SieveInstance(L, x), W, S)
        assert dec.residual == 0

    def test_triple_loop_cross_check(self, tuple_n):
        # grouped remainder accumulation vs the direct triple loop
        W = RichertWeights(b=2.0, y=3.0, z=8.0)
        S = build_lambda_system(tuple_n, 8, 8)
        inst = SieveInstance(tuple_n, 60)
        grouped = e_error(inst, W, S)
        direct = Fraction(0)
        d_list = [1] + [p for p in (2, 3, 5, 7) if richert_a(W, p) != 0.0]
        for d in d_list:
            a = Fraction(W.b) if d == 1 else Fraction(richert_a(W, d))
            for n1 in S.support:
                for n2 in S.support:
                    m = math.lcm(d, n1, n2)
                    direct += a * S.lam[n1] * S.lam[n2] * inst.remainder(m)
        assert grouped == direct

    def test_budget_guard(self, tuple_n):
        W = RichertWeights(b=1.0, y=2.0, z=5.0)
        S = build_lambda_system(tuple_n, 4, 4)
        with pytest.raises(BudgetExceeded):
            decompose(SieveInstance(tuple_n, 10 ** 7), W, S)

    def test_z_prime_must_not_exceed_z(self, tuple_n):
        W = RichertWeights(b=1.0, y=2.0, z=5.0)
        S = build_lambda_system(tuple_n, 10, 10)
        with pytest.raises(DomainError):
            decompose(SieveInstance(tuple_n, 100), W, S)


def pairwise_s_main(W, S, relaxed=False):
    """Main term by one term (1/f'(m)) (a_d/f(d)) (zeta_m - zeta_dm)^2
    per support element m and weighted d, skipping d | m unless relaxed:
    the reference for the sum over lattice elements and steps."""
    _, fp = loop_f_tables(S.L, support_elements(S.xi, S.z_prime), S.exact)
    a_f = [(d, ad / f_values(S.L, d)[0]) for d, ad in richert_list(W, S.exact)]
    terms = []
    for m in S.support:
        zm = S.zeta[m]
        for d, af in a_f:
            if d > 1 and m % d == 0 and not relaxed:
                continue
            inner = zm - S.zeta.get(d * m, 0) if d > 1 else zm
            terms.append(af * inner * inner / fp[m])
    return sum(terms, Fraction(0)) if S.exact else math.fsum(terms)


MAIN_FORMS = ORACLE_FORMS[:4]
# (b, y, z, z', xi): z > z', z = z' (the last the bench identity), z < z'
# (lattice primes in [z, z') carry a_p = 0), xi < z', and the support {1}
MAIN_GRID = [(2.0, 4.0, 15.0, 10, 20), (3.0, 3.0, 50.0, 8, 120), (2.5, 5.0, 40.0, 13, 300),
             (3.0, 3.0, 10.0, 10, 10), (2.0, 4.0, 30.0, 30, 200), (3.0, 3.0, 50.0, 50, 300),
             (2.0, 3.0, 7.0, 20, 100), (2.5, 2.5, 12.0, 30, 60), (2.0, 4.0, 30.0, 30, 12),
             (3.0, 3.0, 100.0, 60, 40), (2.0, 3.0, 10.0, 10, 2)]
# each set with zeta = 1, and every other one with P = 1 + w/2
MAIN_CASES = [(*case, False) for case in MAIN_GRID] + [(*case, True) for case in MAIN_GRID[::2]]


class TestMainTermForms:
    def test_relaxed_below_strict(self, twin):
        # dropping (d, m) = 1 only adds non-positive terms
        W = RichertWeights(b=2.0, y=4.0, z=15.0)
        S = build_lambda_system(twin, 20, 10)
        assert s_main(W, S, relaxed=True) <= s_main(W, S)

    @pytest.mark.parametrize("forms", MAIN_FORMS)
    @pytest.mark.parametrize("b,y,z,zp,xi,poly", MAIN_CASES)
    def test_match_pairwise_oracle(self, forms, b, y, z, zp, xi, poly):
        L = build_system(forms)
        W = RichertWeights(b=b, y=y, z=z)
        P = SievePolynomial((1.0, 0.5), weights.support_u(xi, zp) + 1e-9) if poly else None
        exact = build_lambda_system(L, xi, zp, P=P)
        flt = build_lambda_system(L, xi, zp, P=P, exact=False)
        for relaxed in (False, True):
            want = pairwise_s_main(W, exact, relaxed)
            assert s_main(W, exact, relaxed) == want
            got = s_main(W, flt, relaxed)
            assert abs(got - pairwise_s_main(W, flt, relaxed)) <= 1e-14 * abs(got)
            assert abs(got - float(want)) <= 1e-14 * abs(float(want))


class TestMainTermTrend:
    """V(z') s_main tends to the margin b I1 - kappa (I2 + I3) of the bound."""

    def test_ratio_falls_toward_one(self):
        # {0}, P = 1, b = 4, y = 2 and z = xi = z'^2, so u = l = 2
        P = SievePolynomial.one(2.0)
        I = main_integrals(1, 2.0, 2.0, P)
        margin = 4.0 * I.i1 - (I.i2 + I.i3)
        assert margin == pytest.approx(3.3436, abs=1e-4)
        L = from_offsets([0])
        ratios = [V_product(L, zp) * s_main(RichertWeights(b=4.0, y=2.0, z=zp * zp),
                                            build_lambda_system(L, zp * zp, zp, P=P, exact=False))
                  / margin for zp in (10, 30, 100, 300)]
        assert [round(r, 4) for r in ratios] == [1.1273, 1.0971, 1.0734, 1.0563]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 1


class TestErrorBound:
    def test_hand_value(self, tuple_n):
        bound = error_bound_analytic(tuple_n, 10, 10)
        assert bound == pytest.approx(1000 * (35 / 8) ** 7, rel=1e-12)
        assert bound == pytest.approx(3.07e7, rel=1e-2)

    def test_xi_one(self, tuple_n):
        v = V_product(tuple_n, 10)
        assert error_bound_analytic(tuple_n, 10, 1) == pytest.approx(10 / v ** 7)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_cutoff_refused(self, tuple_n, z):
        with pytest.raises(DomainError, match=f"^cutoff z = {z} must be finite$"):
            error_bound_analytic(tuple_n, z, 10)

    @pytest.mark.parametrize("xi", [math.nan, math.inf])
    def test_non_finite_xi_refused(self, tuple_n, xi):
        with pytest.raises(DomainError, match=f"^xi = {xi} must be finite$"):
            error_bound_analytic(tuple_n, 10, xi)

    @pytest.mark.parametrize("z", [0, -5])
    def test_z_must_be_positive(self, twin, z):
        # z = -5 gave the negative "bound" -450000.0, z = 0 gave 0.0
        with pytest.raises(DomainError, match=f"^z = {z} must be > 0$"):
            error_bound_analytic(twin, z, 300)

    @pytest.mark.parametrize("xi", [0, -5])
    def test_xi_must_be_positive(self, twin, xi):
        # xi = -5 gave 2.6e10, as xi^2 hides the sign
        with pytest.raises(DomainError, match=f"^xi = {xi} must be > 0$"):
            error_bound_analytic(twin, 10, xi)

    def test_dominates_exact_error(self, tuple_n):
        W = RichertWeights(b=3.0, y=3.0, z=10.0)
        S = build_lambda_system(tuple_n, 10, 10)
        err = e_error(SieveInstance(tuple_n, 100), W, S)
        assert abs(float(err)) <= error_bound_analytic(tuple_n, 10, 10)
