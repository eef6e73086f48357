import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import arithmetic
from sievekit.arithmetic import (
    H_sum,
    V_product,
    arithmetic_tables,
    build_system,
    discriminant,
    f_values,
    factorize,
    from_offsets,
    is_admissible,
    is_prime,
    omega,
    omega_L,
    parse_tuple_spec,
    rho,
    roots_mod_squarefree,
    RHO_SCAN_CAP,
    _primes_below,
    _primes_upto_list,
    _roots_mod_prime,
    _rho_prime,
)
from sievekit.errors import (
    BudgetExceeded,
    DomainError,
    GcdViolation,
    LimitTooLarge,
    ZeroDiscriminant,
    ZeroValue,
)


def brute_rho(L, d):
    """#{0 <= n < d : d | L(n)} by direct count: the product of the
    (a*n + b) mod d, reduced mod d after each factor, one chunk of n at
    a time.  Each partial product is below d^2, which must fit in int64."""
    assert d * d < 2 ** 63
    count = 0
    chunk = 1 << 20
    for lo in range(0, d, chunk):
        n = np.arange(lo, min(lo + chunk, d), dtype=np.int64)
        prod = np.ones_like(n)
        for a, b in L.forms:
            prod = prod * ((a * n + b) % d) % d
        count += int(np.count_nonzero(prod == 0))
    return count


def loop_tables(limit):
    """The primes <= limit by the least-prime-factor loop over every
    p <= limit, kept as the reference for arithmetic_tables."""
    lpf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if lpf[p] == 0:
            sl = lpf[p::p]
            sl[sl == 0] = p
    return np.flatnonzero(lpf[2:] == np.arange(2, limit + 1)) + 2


class TestBuildSystem:
    def test_basic(self):
        L = build_system([[1, 0], [1, 2]])
        assert L.kappa == 2
        assert L.delta == 2

    def test_repeated_form_rejected(self):
        with pytest.raises(ZeroDiscriminant):
            build_system([[1, 0], [1, 0]])

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroDiscriminant):
            build_system([[0, 1]])

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            build_system([[2, 4]])

    def test_empty(self):
        with pytest.raises(ValueError):
            build_system([])

    @pytest.mark.parametrize("forms", [[[True, 0]], [[1, 0], [1, False]]])
    def test_bool_coefficient_rejected(self, forms):
        # bool is an int subclass, so operator.index alone accepts it
        with pytest.raises(ValueError, match="list of integer pairs"):
            build_system(forms)


class TestDiscriminant:
    @pytest.mark.parametrize("forms,expected", [
        ([[1, 0], [1, 2]], 2),
        ([[1, 0], [2, 1]], 2),
        ([[1, 0]], 1),
        ([[1, 0], [1, 2], [1, 6]], 2 * 6 * 4),
    ])
    def test_values(self, forms, expected):
        assert discriminant(build_system(forms)) == expected


class TestRho:
    def test_twin_small(self, twin):
        assert rho(twin, 2) == 1
        assert rho(twin, 15) == 4  # rho(3)*rho(5) = 2*2

    def test_unit(self, twin):
        assert rho(twin, 1) == 1

    def test_scan_vs_roots_paths(self, twin):
        # the root-solving path against an independent residue scan
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 97, 101]:
            assert _rho_prime(twin, p) == brute_rho(twin, p)
            assert len(_roots_mod_prime(twin, p)) == brute_rho(twin, p)

    def test_rho_equals_kappa_off_discriminant(self, primes_10k):
        for offs in ([0, 2], [0, 2, 6], [0, 4, 6, 10]):
            L = from_offsets(offs)
            for p in primes_10k[primes_10k < 1000]:
                p = int(p)
                if p > L.kappa and L.delta % p != 0:
                    assert _rho_prime(L, p) == L.kappa

    def test_non_squarefree_direct_count(self, twin):
        # documented extension: direct root count mod d
        assert rho(twin, 4) == brute_rho(twin, 4)
        assert rho(twin, 9) == brute_rho(twin, 9)

    def test_nagel_square_bound(self):
        L = from_offsets([0, 2, 6])
        for p in (2, 3, 5, 7, 11, 13):
            assert rho(L, p * p) <= L.kappa * L.delta ** 2

    def test_prime_power_parts(self, twin):
        # 4*10^7 = 2^9 * 5^7: one scan of 512 and one of 78125 residues,
        # not of 4*10^7
        assert rho(twin, 4 * 10 ** 7) == brute_rho(twin, 2 ** 9) * brute_rho(twin, 5 ** 7)
        L = from_offsets([0, 2, 6])
        assert rho(L, 2 ** 3 * 3 ** 2 * 5 * 7) == brute_rho(L, 2 ** 3 * 3 ** 2 * 5 * 7)

    def test_scan_cap_refused(self, twin, monkeypatch):
        big = 2 ** RHO_SCAN_CAP.bit_length()
        assert big > RHO_SCAN_CAP
        monkeypatch.setattr(twin.__class__, "value", lambda *a: pytest.fail("scanned"))
        with pytest.raises(BudgetExceeded, match=rf"^rho scan of 2\^{big.bit_length() - 1} "):
            rho(twin, 3 * big)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
                min_size=1, max_size=4, unique=True),
       st.lists(st.sampled_from([29, 31, 37, 41, 43]),
                min_size=1, max_size=2, unique=True))
def test_rho_multiplicative(ps, qs):
    L = from_offsets([0, 2])
    d1 = math.prod(ps)
    d2 = math.prod(qs)
    assert rho(L, d1) * rho(L, d2) == rho(L, d1 * d2)
    assert rho(L, d1 * d2) == brute_rho(L, d1 * d2)


class TestAdmissibility:
    def test_three_consecutive_evens_fails_at_3(self):
        rep = is_admissible(from_offsets([0, 2, 4]))
        assert not rep.admissible
        assert rep.failing_prime == 3

    def test_admissible_triple(self):
        rep = is_admissible(from_offsets([0, 2, 6]))
        assert rep.admissible
        assert rep.failing_prime is None
        assert rep.checked_primes == (2, 3)

    def test_large_discriminant_not_factored(self):
        # the discriminant holds the primes p ~ 1e16 and q ~ 3e16; only the
        # primes <= kappa = 3 are checked, and the check fails at 2
        p, q = (next(filter(is_prime, itertools.count(lo))) for lo in (10**16, 3 * 10**16))
        rep = is_admissible(from_offsets([0, 1, 2 * p * q]))
        assert not rep.admissible
        assert rep.failing_prime == 2
        assert rep.checked_primes == (2, 3)

    def test_single_form(self):
        rep = is_admissible(from_offsets([0]))
        assert rep.admissible
        assert rep.failing_prime is None


class TestFValues:
    def test_twin_at_3(self, twin):
        f, fp = f_values(twin, 3)
        assert f == Fraction(3, 2)
        assert fp == Fraction(1, 2)

    def test_single_form_at_6(self, tuple_n):
        f, fp = f_values(tuple_n, 6)
        assert f == 6
        assert fp == 2

    def test_unit(self, twin):
        assert f_values(twin, 1) == (1, 1)

    @pytest.mark.parametrize("d", [-15, -3, 0])
    def test_modulus_below_one_refused(self, twin, d):
        # |d| was factored, so d = -15 once gave the roots and f of 15
        for fn in (rho, f_values, roots_mod_squarefree):
            with pytest.raises(ValueError, match=f"^d = {d} must be >= 1$"):
                fn(twin, d)

    @pytest.mark.parametrize("fn", [rho, f_values, roots_mod_squarefree])
    def test_fractional_modulus_refused(self, twin, fn):
        # d = 1.5 was truncated to 1: rho gave 1, f_values (1, 1), the roots [0]
        with pytest.raises(ValueError, match=r"^d = 1.5 must be an integer$"):
            fn(twin, 1.5)
        assert fn(twin, 15.0) == fn(twin, np.int64(15)) == fn(twin, 15)

    @pytest.mark.parametrize("fn", [rho, f_values, roots_mod_squarefree])
    @pytest.mark.parametrize("d", [True, np.True_])
    def test_bool_modulus_refused(self, twin, fn, d):
        # True was read as the modulus 1
        with pytest.raises(ValueError, match=r"^d = True must be an integer$"):
            fn(twin, d)

    def test_roundtrip_f_times_rho(self, twin):
        for d in (2, 3, 5, 6, 15, 30, 105):
            f, _ = f_values(twin, d)
            assert f * rho(twin, d) == d


class TestVProduct:
    def test_twin_at_5(self, twin):
        assert V_product(twin, 5, exact=True) == Fraction(1, 6)

    def test_single_at_3(self, tuple_n):
        assert V_product(tuple_n, 3, exact=True) == Fraction(1, 2)

    def test_empty_product(self, twin):
        assert V_product(twin, 2) == 1.0

    def test_zero_factor_raised(self):
        from sievekit.errors import ZeroFactor
        L = from_offsets([0, 2, 4])  # rho(3) = 3
        with pytest.raises(ZeroFactor):
            V_product(L, 5)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_cutoff_refused(self, twin, z):
        with pytest.raises(DomainError, match=f"^cutoff z = {z} must be finite$"):
            V_product(twin, z)

    def test_log_power_bound(self):
        # calibrated once: max of 1/(V log^k z) stays below 3 on the grid
        for offs in ([0], [0, 2], [0, 2, 6]):
            L = from_offsets(offs)
            for z in (10, 100, 1000, 10_000):
                v = V_product(L, z)
                assert 1.0 / v <= 3.0 * math.log(z) ** L.kappa


class TestHSum:
    def test_single_form_at_10(self, tuple_n):
        val, _ = H_sum(tuple_n, 10)
        expect = sum(math.log(p) / p for p in (2, 3, 5, 7))
        assert val == pytest.approx(expect, abs=1e-12)
        assert val == pytest.approx(1.3127, abs=5e-4)

    def test_empty(self, tuple_n):
        assert H_sum(tuple_n, 2) == (0.0, pytest.approx(-math.log(2)))

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_cutoff_refused(self, twin, s):
        with pytest.raises(DomainError, match=f"^cutoff z = {s} must be finite$"):
            H_sum(twin, s)

    @pytest.mark.parametrize("s", [0, -1.0])
    def test_log_s_needs_positive_s(self, twin, s):
        # H_sum(L, 0) raised "math domain error" from log(0)
        with pytest.raises(DomainError, match=f"^s = {s:g} must be > 0$"):
            H_sum(twin, s)

    def test_twin_residual_bounded(self, twin):
        val, res = H_sum(twin, 1000)
        assert abs(res) < 4.0
        assert res == pytest.approx(-2.9431, abs=1e-3)


class TestOmegaL:
    def test_examples(self, twin, tuple_n):
        assert omega_L(twin, 3) == 2          # 3*5
        assert omega_L(twin, 7) == 3          # 7*9 = 7*3^2
        assert omega_L(tuple_n, 1) == 0

    def test_zero_value(self):
        L = build_system([[1, -3]])
        with pytest.raises(ZeroValue):
            omega_L(L, 3)

    def test_fractional_argument_refused(self, twin):
        # n = 2.5 gave Omega(2.5) + Omega(4.5) = 3, omega(10.5) gave 2 and
        # omega(True) gave 0; whole floats still pass
        with pytest.raises(ValueError, match=r"^n = 2.5 must be an integer$"):
            omega_L(twin, 2.5)
        with pytest.raises(ValueError, match=r"^m = 10.5 must be an integer$"):
            omega(10.5)
        with pytest.raises(ValueError, match=r"^m = True must be an integer$"):
            omega(True)
        assert omega_L(twin, 3.0) == 2
        assert omega(10.0) == 2

    @pytest.mark.parametrize("m,message", [(2.5, "must be an integer"),
                                           (True, "must be an integer"),
                                           ("12", "must be an integer"),
                                           (0, "must be >= 1"), (-6, "must be >= 1")])
    def test_omega_refusals(self, m, message):
        with pytest.raises(ValueError, match=f"^m = {m} {message}$"):
            omega(m)

    def test_against_naive(self, twin):
        def naive(m):
            c = 0
            d = 2
            while d * d <= m:
                while m % d == 0:
                    c += 1
                    m //= d
                d += 1
            return c + (1 if m > 1 else 0)
        for n in range(1, 400):
            assert omega_L(twin, n) == naive(n) + naive(n + 2)


class TestTables:
    def test_hand_table(self):
        assert arithmetic_tables(10).tolist() == [2, 3, 5, 7]

    def test_minimal(self):
        assert arithmetic_tables(2).tolist() == [2]

    def test_invariants(self, primes_10k):
        # the sieve agrees with Miller-Rabin on every n <= 10^4
        assert primes_10k.tolist() == [n for n in range(10_001) if is_prime(n)]

    def test_cap(self):
        with pytest.raises(LimitTooLarge):
            arithmetic_tables(10 ** 12)
        with pytest.raises(ValueError):
            arithmetic_tables(1)

    def test_fractional_limit_refused(self):
        # 2.5 was truncated to 2, and nan raised an untyped int() error
        with pytest.raises(ValueError, match=r"^limit = 2.5 must be an integer$"):
            arithmetic_tables(2.5)
        with pytest.raises(ValueError, match=r"^limit = nan must be an integer$"):
            arithmetic_tables(float("nan"))
        assert arithmetic_tables(10.0).tolist() == [2, 3, 5, 7]

    @pytest.mark.parametrize("limit,message", [(2.5, "must be an integer"),
                                               (True, "must be an integer"),
                                               ("10", "must be an integer"),
                                               (1, "must be >= 2"), (-3, "must be >= 2")])
    def test_limit_refusals(self, limit, message):
        with pytest.raises(ValueError, match=f"^limit = {limit} {message}$"):
            arithmetic_tables(limit)

    # 3,162,278 = isqrt(10^13) + 1 is the table of the 1e13 search tests
    @pytest.mark.parametrize("limit", [2, 10, 30, 10 ** 4, 10 ** 6, 3_162_278])
    def test_matches_loop_sieve(self, limit):
        primes = arithmetic_tables(limit)
        assert np.array_equal(primes, loop_tables(limit))
        assert primes.dtype == np.int64
        # every other prime list reads the same sieve
        assert _primes_upto_list(limit) == tuple(primes.tolist())


class TestPrimality:
    def test_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_large(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)

    def test_factorize_roundtrip(self):
        for n in (2 * 3 * 5 * 7, 97 * 101, 2 ** 10, 999_999_999_989):
            assert math.prod(p ** e for p, e in factorize(n)) == n

    def test_factorize_fractional_refused(self):
        # 12.9 was truncated to 12 and factored as [(2, 2), (3, 1)]
        with pytest.raises(ValueError, match=r"^n = 12.9 must be an integer$"):
            factorize(12.9)
        assert factorize(12.0) == [(2, 2), (3, 1)]
        with pytest.raises(ValueError, match=r"^cannot factor 0$"):
            factorize(0)

    # no prime factor below the trial-division bound 10^5 is left, so the
    # composite cofactor goes to Pollard rho: two distinct primes, a square
    @pytest.mark.parametrize("n", [1_000_003 * 1_000_033, 7 * 1_000_003 ** 2])
    def test_pollard_cofactor_against_sympy(self, twin, n):
        factorint = pytest.importorskip("sympy").factorint
        assert factorize(n) == sorted(factorint(n).items())
        assert omega(n) == sum(factorint(n).values())
        assert omega_L(twin, n) == omega(n) + sum(factorint(n + 2).values())


def primes_near(k):
    """The prime just below and the prime just above k."""
    below = next(p for p in range(k, 1, -1) if is_prime(p))
    above = next(filter(is_prime, itertools.count(k + 1)))
    return below, above


# the power-of-two table edges and the trial-division bound 10^5
TABLE_EDGES = [1 << k for k in range(1, 17)] + [100_000]


class TestFactorizeByTable:
    """factorize trial-divides by the sieve's primes up to the power of two
    above isqrt(|n|), capped at 10^5, and hands what is left to Pollard rho."""

    @pytest.fixture(scope="class")
    def factorint(self):
        return pytest.importorskip("sympy").factorint

    def test_every_n_below_20000(self, factorint):
        for n in range(1, 20_000):
            assert factorize(n) == sorted(factorint(n).items()), n

    @pytest.mark.parametrize("edge", TABLE_EDGES)
    def test_prime_powers_and_products_at_table_edges(self, factorint, edge):
        p, q = primes_near(edge)
        for n in (p * p, p ** 3, q * q, q ** 3, p * q, 2 * p * q, p * p * q):
            assert factorize(n) == sorted(factorint(n).items()), n

    # 99991 is the largest prime tried, 100003 the smallest one left to rho
    @pytest.mark.parametrize("n", [99_991 ** 2, 99_991 * 100_003, 100_003 ** 2])
    def test_either_side_of_the_trial_bound(self, factorint, n):
        assert factorize(n) == sorted(factorint(n).items())

    @pytest.mark.parametrize("k", range(1, 33))
    def test_powers_of_four_and_neighbours(self, factorint, k):
        for n in (4 ** k - 1, 4 ** k, 4 ** k + 1):
            assert factorize(n) == sorted(factorint(n).items()), n

    def test_negative(self, factorint):
        for n in (-1, -2, -12, -99_991 * 100_003, -(4 ** 20 + 1)):
            assert factorize(n) == sorted(factorint(-n).items()), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 15, 16, 17, 255, 256, 65_535, 65_536,
                                   10 ** 9, 2 ** 32 - 1, 2 ** 32, 10 ** 13 + 37,
                                   1_000_003 * 1_000_033])
    def test_table_covers_sqrt_n(self, monkeypatch, n):
        # factorize(6) must not sieve to 10^5: one table, sized to sqrt(n)
        requested = []
        tables = arithmetic.arithmetic_tables

        def spy(limit):
            requested.append(limit)
            return tables(limit)

        monkeypatch.setattr(arithmetic, "arithmetic_tables", spy)
        _primes_upto_list.cache_clear()
        try:
            factorize(n)
        finally:
            _primes_upto_list.cache_clear()
        assert len(requested) == 1
        assert requested[0] <= min(max(2, 1 << math.isqrt(n).bit_length()), 100_000)

    @pytest.mark.parametrize("z", [*range(-3, 40), *(k / 2 for k in range(-3, 80)),
                                   Fraction(7, 3), Fraction(22, 7), Fraction(-5, 2),
                                   Fraction(2001, 2), Fraction(10 ** 20 + 1, 10 ** 19),
                                   2, 2 + 1e-9, 3, 3 - 1e-12, 1e6 + 0.5])
    def test_primes_below_keeps_the_two_branch_rule(self, z):
        if z <= 2:
            expected = ()
        else:
            hi = int(math.ceil(z)) - 1 if float(z).is_integer() else int(math.floor(z))
            expected = _primes_upto_list(hi)
        assert _primes_below(z) == expected

    @pytest.mark.parametrize("offsets,checked", [
        ((0,), ()), ((0, 2), (2,)), ((0, 2, 6), (2, 3)),
        ((0, 2, 6, 8, 12, 18, 20, 26, 30, 32), (2, 3, 5, 7)),
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (2, 3, 5, 7)),
    ])
    def test_admissibility_checks_the_primes_up_to_kappa(self, offsets, checked):
        assert is_admissible(from_offsets(offsets)).checked_primes == checked


class TestTupleSpec:
    def test_shorthand(self):
        L = parse_tuple_spec("0,2,6")
        assert L.forms == ((1, 0), (1, 2), (1, 6))

    def test_inline_json(self):
        L = parse_tuple_spec('{"forms": [[1, 0], [2, 1]]}')
        assert L.delta == 2

    def test_file(self, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text('{"forms": [[1, 0], [1, 4]]}')
        assert parse_tuple_spec(str(path)).kappa == 2

    def test_file_without_forms_object(self, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text("[[1, 0], [1, 4]]")
        with pytest.raises(ValueError, match="list of integer pairs"):
            parse_tuple_spec(str(path))
