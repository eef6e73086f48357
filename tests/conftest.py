from fractions import Fraction

import pytest

from sievekit.arithmetic import arithmetic_tables, from_offsets
from sievekit.delay_ode import solve_j
from sievekit.weights import build_lambda_system


@pytest.fixture(scope="session")
def primes_10k():
    return arithmetic_tables(10_000)


@pytest.fixture(scope="session")
def tuple_n():
    return from_offsets([0])


@pytest.fixture(scope="session")
def twin():
    return from_offsets([0, 2])


@pytest.fixture(scope="session")
def classical_lambda_sweep():
    """The exhaustive exact lambda sweep shared by criterion 6 and the
    weight tests: tuples {0} and {0,2}, 2 <= z' <= 50, 2 <= xi <= 200.
    Maps (offsets, z', xi) to the number of nu with |lambda~_nu| >
    |lambda~_1|."""
    violations = {}
    for offsets in ((0,), (0, 2)):
        L = from_offsets(offsets)
        for zp in range(2, 51):
            for xi in range(2, 201):
                S = build_lambda_system(L, xi, zp)
                # |n/d| > |n1/d1| on integers: |n| d1 > |n1| d
                n1, d1 = S.lam[1].as_integer_ratio()
                n1 = abs(n1)
                violations[offsets, zp, xi] = sum(
                    1 for n, d in map(Fraction.as_integer_ratio, S.lam.values())
                    if abs(n) * d1 > n1 * d)
    return violations


@pytest.fixture(scope="session")
def jfun():
    """Session cache of solved delay ODEs keyed by (kappa, w_max)."""
    cache = {}

    def get(kappa, w_max=None):
        if w_max is None:
            w_max = max(kappa - 1.0 / 9.0, 1.0)
        key = (kappa, round(w_max, 9))
        if key not in cache:
            cache[key] = solve_j(kappa, w_max)
        return cache[key]

    return get
