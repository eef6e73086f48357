"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them all).

Criterion 9a is asserted exactly as stated and marked xfail(strict):
direct enumeration gives 9, not 8, because n = 1 contributes 1*3 = 3
with a single prime factor; the remaining eight are the twin-prime n
below 100.  See the test body for the arithmetic.
"""

import math
import time

import numpy as np
import pytest

from sievekit.arithmetic import from_offsets
from sievekit.bounds import r_bound_explicit, r_floor
from sievekit.delay_ode import (
    EULER_GAMMA,
    SaddleParams,
    saddle_j_prime,
    solve_j,
    tail_check,
)
from sievekit.moments import (
    digamma,
    moment_J1,
    ratios,
    upper_incomplete_gamma,
)
from sievekit.search import count_at_most, omega_profile
from sievekit.weights import (
    RichertWeights,
    SieveInstance,
    build_lambda_system,
    decompose,
    g_sum_report,
)
from sievekit.moments import SievePolynomial


def report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_closed_form_k1():
    """kappa=1 closed form, sup error <= 1e-10 on (1, 2], under 1 s."""
    t0 = time.perf_counter()
    J = solve_j(1, 2.0)
    ws = np.linspace(1.0 + 1e-12, 2.0, 4001)
    sup = max(abs(J.q(float(w)) - (w * (2.0 - math.log(w)) - 1.0)) for w in ws)
    elapsed = time.perf_counter() - t0
    ok = sup <= 1e-10 and elapsed < 1.0
    assert report(1, ok, f"(sup={sup:.2e}, {elapsed:.2f}s)")


def test_criterion_2_lemma_convergence():
    """kappa*|J1(0) - 1/2| <= 2 for kappa in {10, 20, 40, 80}, under 1 min."""
    t0 = time.perf_counter()
    worst = 0.0
    for k in (10, 20, 40, 80):
        rep = moment_J1(k, J=solve_j(k, k - 1.0 / 9.0))
        worst = max(worst, k * abs(rep.value - 0.5))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2.0 and elapsed < 60.0
    assert report(2, ok, f"(max k|J1(0)-1/2| = {worst:.4f}, {elapsed:.1f}s)")


def test_criterion_3_ratio_asymptotics():
    """Numeric ratios match the displayed forms within 5 log(k)/k at k=40,
    and the gap shrinks from k=20 to k=80."""
    gaps = {}
    for k in (20, 40, 80):
        rr = ratios(k)
        gaps[k] = (abs(rr.r1 - rr.r1_asymptotic), abs(rr.r2 - rr.r2_asymptotic))
    tol40 = 5.0 * math.log(40) / 40
    ok = (gaps[40][0] <= tol40 and gaps[40][1] <= tol40
          and gaps[80][0] < gaps[20][0] and gaps[80][1] < gaps[20][1])
    assert report(3, ok, f"(gaps@40 = {gaps[40][0]:.4f}, {gaps[40][1]:.4f}; tol {tol40:.3f})")


def test_criterion_4_saddle_and_tail():
    """|saddle - DDE j'| <= 3*envelope on [0, kappa^(3/5)] at kappa=40,
    d=-2/9; tail inequality clean for kappa in {10, 20, 40}."""
    k = 40
    u = k - 1.0 / 9.0
    J = solve_j(k, u)
    sp = SaddleParams(k)
    worst_ratio = 0.0
    for w in np.linspace(0.0, k ** 0.6, 500):
        val, env = saddle_j_prime(sp, float(w))
        worst_ratio = max(worst_ratio, abs(val - J.j_prime(u - float(w))) / env)
    tails_ok = True
    for kk in (10, 20, 40):
        uu = kk - 1.0 / 9.0
        rep = tail_check(solve_j(kk, uu), uu)
        tails_ok = tails_ok and rep.max_violation <= 0.0
    ok = worst_ratio <= 3.0 and tails_ok
    assert report(4, ok, f"(saddle |diff|/env max = {worst_ratio:.3f}, tails clean = {tails_ok})")


def test_criterion_5_exact_identity():
    """Exact-rational residual 0 on 5 randomized instances, under 1 min."""
    t0 = time.perf_counter()
    all_zero = True
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        offsets = [0] if rng.integers(2) == 0 else [0, 2]
        L = from_offsets(offsets)
        x = int(rng.integers(500, 10_001))
        zp = int(rng.integers(5, 25))
        z = int(rng.integers(zp, 31))
        xi = int(rng.integers(4, 31))
        y = float(rng.integers(2, z + 1))
        b = float(rng.integers(1, 4))
        if seed == 5:
            u = math.log(xi) / math.log(zp)
            S = build_lambda_system(L, xi, zp, P=SievePolynomial((1.0, 0.5), u + 1e-9))
        else:
            S = build_lambda_system(L, xi, zp)
        W = RichertWeights(b=b, y=y, z=float(z))
        dec = decompose(SieveInstance(L, x), W, S)
        all_zero = all_zero and dec.residual == 0
    elapsed = time.perf_counter() - t0
    ok = all_zero and elapsed < 60.0
    assert report(5, ok, f"(all residuals exactly 0, {elapsed:.1f}s)")


def test_criterion_6_classical_lambda_bound(classical_lambda_sweep):
    """|lambda~_nu| <= lambda~_1 exhaustively, xi <= 200, z' <= 50,
    tuples {0} and {0,2}; zero violations."""
    assert len(classical_lambda_sweep) == 2 * 49 * 199
    violations = sum(classical_lambda_sweep.values())
    ok = violations == 0
    assert report(6, ok, f"(violations = {violations})")


def test_criterion_7_density_lemma_trend():
    """|G V / j_2(2) - 1| strictly decreasing over z' in {1e2, 1e3, 1e4}."""
    L = from_offsets([0, 2])
    J = solve_j(2, 2.0)
    errs = [abs(g_sum_report(L, zp * zp, zp, J)["ratio"] - 1.0)
            for zp in (100, 1000, 10_000)]
    ok = errs[0] > errs[1] > errs[2]
    assert report(7, ok, f"(errors = {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f})")


def test_criterion_8_theorem_table():
    """r_explicit(100) = 502 by independent recomputation; the ratio to
    (1/2) k log k decreases toward 1 on {1e3..1e6}; floor everywhere."""
    indep = (0.5 * 100 * math.log(100)
             + (1 + EULER_GAMMA / 2 + math.log(4)) * 100
             + 13.0 / 18.0 * math.sqrt(100 / math.pi))
    ok = r_bound_explicit(100) == math.floor(indep) + 1 == 502
    prev = math.inf
    for k in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        ratio = r_bound_explicit(k) / (0.5 * k * math.log(k))
        ok = ok and 1.0 < ratio < prev
        prev = ratio
    for k in (2, 3, 10, 100, 10 ** 4):
        ok = ok and r_bound_explicit(k) > 2 * k - 10.0 / 9.0 \
            and r_bound_explicit(k) >= r_floor(k)
    assert report(8, ok, f"(r(100) = {r_bound_explicit(100)}, ratio@1e6 = {prev:.4f})")


@pytest.mark.xfail(strict=True, reason=(
    "stated value 8 misses n=1: L(1) = 1*3 = 3 has Omega = 1 <= 2, so the "
    "true direct-enumeration count is 9 (eight twin-prime n plus n=1); the "
    "operation is implemented per its contract and verified against a naive "
    "oracle in test_search.py"))
def test_criterion_9a_twin_count_as_stated():
    """count_at_most({0,2}, 100, 2) = 8 as stated."""
    count = count_at_most(from_offsets([0, 2]), 100, 2)
    report("9a", count == 8, f"(stated 8, direct enumeration gives {count})")
    assert count == 8


def test_criterion_9b_profile_and_threads():
    """omega_profile({0}, 10) table; thread-count invariance at x = 1e6;
    runtime under 30 s."""
    ok = omega_profile(from_offsets([0]), 10).counts == {0: 1, 1: 4, 2: 4, 3: 1}
    twin = from_offsets([0, 2])
    t0 = time.perf_counter()
    h1 = omega_profile(twin, 10 ** 6, threads=1)
    elapsed = time.perf_counter() - t0
    h4 = omega_profile(twin, 10 ** 6, threads=4)
    h8 = omega_profile(twin, 10 ** 6, threads=8)
    identical = h1.counts == h4.counts == h8.counts and \
        h1.excluded == h4.excluded == h8.excluded
    ok = ok and identical and elapsed < 30.0
    assert report("9b", ok, f"(profile ok, identical across 1/4/8 threads, {elapsed:.1f}s)")


def test_criterion_10_special_functions():
    """Psi(1/2) = -gamma - 2 log 2 to 1e-12; Gamma(2,100) within 2% of
    100 e^-100."""
    psi_err = abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2))
    ratio = upper_incomplete_gamma(2.0, 100.0) / (100.0 * math.exp(-100.0))
    ok = psi_err <= 1e-12 and abs(ratio - 1.0) <= 0.02
    assert report(10, ok, f"(psi err = {psi_err:.1e}, gamma ratio = {ratio:.4f})")
