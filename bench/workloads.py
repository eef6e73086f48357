"""Workload inputs and the API jobs the worker runs.

``make_jobs(workload, seed)`` turns a seed into the list of jobs of one
pass.  A job is JSON data: either ``{"name", "cli": argv}`` for a
``sievekit`` command line, or ``{"name", "api", "args"}`` for one of the
API functions below.  The default seed gives the reference inputs;
every other seed varies the named inputs while keeping the work per pass
close to the reference, so that run-to-run spread reflects the program
and not the draw.

Importing this module does not import sievekit: the parent process only
builds inputs, and sievekit is imported by the worker that runs them.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

DEFAULT_SEED = 0


def make_jobs(workload: str, seed: int) -> list[dict]:
    """Jobs of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {tuple(WORKLOADS)}")
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


def _even_shift(rng, hi: int) -> int:
    """h for the admissible pair {0, h}: 2 by default, else even in [2, hi]."""
    return 2 if rng is None else 2 * rng.randint(1, hi // 2)


def _bound_moments(rng) -> list[dict]:
    # The cost of a bound row grows with kappa, so a plain shift of the
    # grid would change the work per pass.  Other seeds jitter adjacent
    # rows in opposite directions instead: the same 12 rows inside
    # [2, 120] and the same kappa sum (likewise for the moment rows).
    if rng is None:
        bound_k, moment_k = "10:121:10", "10,20,40,80"
    else:
        grid = list(range(10, 121, 10))
        for i in range(0, len(grid), 2):
            d = rng.randint(0 if grid[i + 1] == 120 else -3, 3)
            grid[i] += d
            grid[i + 1] -= d
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        bound_k = ",".join(map(str, grid))
        moment_k = ",".join(map(str, (10 + a, 20 - a, 40 + b, 80 - b)))
    return [
        {"name": "bound", "cli": ["bound", "--kappa", bound_k, "--format", "json"]},
        {"name": "moments", "cli": ["moments", "--kappa", moment_k, "--format", "json"]},
    ]


def _omega_search(rng) -> list[dict]:
    h = _even_shift(rng, 100)
    return [{"name": "search",
             "cli": ["search", "--tuple", f"0,{h}", "--x", "10000000",
                     "--threads", "1", "--format", "json"]}]


def _weights_exact(rng) -> list[dict]:
    # Criterion-5-style draws held to the reference sizes.  The size of
    # the exact fractions, and so the cost, depends on rho(p) for the
    # primes p < 300 the jobs sieve by, so h = 2q with q = 1 or a prime
    # above 300 keeps every rho(p) and varies only the roots of the
    # identity's remainders; the support (z', xi), y and b stay fixed.
    if rng is None:
        h, x = 2, 20_000
    else:
        big_primes = [q for q in range(301, 1000, 2)
                      if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]
        h = 2 * rng.choice([1] + big_primes)
        x = rng.randint(19_000, 20_000)
    return [
        {"name": "identity",
         "cli": ["identity", "--tuple", f"0,{h}", "--x", str(x), "--z", "50",
                 "--zp", "50", "--xi", "300", "--exact"]},
        {"name": "lambda_sweep", "api": "lambda_sweep",
         "args": {"offsets": [0, h], "zp_max": 30, "xi_max": 100}},
        {"name": "g_exact", "api": "g_exact",
         "args": {"offsets": [0, h], "r": 100_000, "z_prime": 300}},
    ]


def _density_lemma(rng) -> list[dict]:
    h = _even_shift(rng, 100)
    return [{"name": "density_trend", "api": "density_trend",
             "args": {"offsets": [0, h], "z_primes": [100, 1000, 5000]}}]


WORKLOADS = {"bound_moments": _bound_moments, "omega_search": _omega_search,
             "weights_exact": _weights_exact, "density_lemma": _density_lemma}


# ----------------------------------------------------------------------
# API jobs.  Each calls sievekit through module attributes, so that the
# traced run sees the calls; each returns its raw result, and
# ``api_record`` turns that into checkable JSON after the timed window.


def lambda_sweep(offsets, zp_max, xi_max):
    """Criterion 6: one lambda system per (z', xi), 2 <= z' <= zp_max,
    2 <= xi <= xi_max."""
    from sievekit import arithmetic, weights
    L = arithmetic.from_offsets(offsets)
    return [(zp, xi, weights.build_lambda_system(L, xi, zp).lam)
            for zp in range(2, zp_max + 1) for xi in range(2, xi_max + 1)]


def g_exact(offsets, r, z_prime):
    from sievekit import arithmetic, weights
    return weights.G_sum(arithmetic.from_offsets(offsets), r, z_prime, exact=True)


def density_trend(offsets, z_primes):
    """Criterion 7: G(z'^2, z') against j_2(2)/V(z') for each z'."""
    from sievekit import arithmetic, delay_ode, weights
    L = arithmetic.from_offsets(offsets)
    J = delay_ode.solve_j(2, 2.0)
    return [weights.g_sum_report(L, zp * zp, zp, J) for zp in z_primes]


API = {"lambda_sweep": lambda_sweep, "g_exact": g_exact,
       "density_trend": density_trend}


def api_record(job: dict, result) -> dict:
    """JSON form of an API job's result, as the output checks read it."""
    if job["api"] == "lambda_sweep":
        digest = hashlib.sha256()
        violations = 0
        for zp, xi, lam in result:
            l1 = abs(lam[1])
            violations += sum(1 for v in lam.values() if abs(v) > l1)
            items = ";".join(f"{m}:{v}" for m, v in sorted(lam.items()))
            digest.update(f"{zp} {xi} {items}\n".encode())
        return {"systems": len(result), "violations": violations,
                "lambda_sha256": digest.hexdigest()}
    if job["api"] == "g_exact":
        if not isinstance(result, Fraction):
            raise TypeError(f"exact G_sum returned {type(result).__name__}")
        return {"G": str(result)}
    return {"reports": [{k: float(v) for k, v in rep.items()} for rep in result]}
