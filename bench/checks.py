"""Output checks behind the benchmark's ``failed`` count.

``check_job`` returns the problems found in one job's record; an empty
list means the job passed.  Every seed is checked by invariants that
follow from the mathematics, computed here independently of sievekit.
The default seed is also compared with the stored reference outputs:
integers, strings and booleans must match exactly, floats within the
jobs' own tolerance ATOL, absolute plus relative.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ATOL = 1e-8
EULER_GAMMA = 0.5772156649015329


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def check_job(job: dict, record: dict, expected: dict | None = None) -> list[str]:
    """Problems in ``record``, the result of ``job``; ``expected`` is the
    reference record when the seed has one."""
    if "error" in record:
        return [f"raised {record['error']}"]
    if "cli" in job:
        if record["rc"] != 0:
            return [f"exit code {record['rc']}"]
        data = record["output"]
    else:
        data = record["result"]
    try:
        problems = _INVARIANTS[job["name"]](job, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"malformed output: {exc!r}"]
    if expected is not None:
        ref = expected["output"] if "cli" in job else expected["result"]
        problems += compare(data, ref)
    return problems


def compare(actual, expected, path: str = "") -> list[str]:
    """Differences between two JSON values under the reference rules."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (actual, expected)):
            return [f"{path}: {actual!r} != {expected!r}"]
        if abs(actual - expected) > ATOL + ATOL * abs(expected):
            return [f"{path}: {actual!r} differs from {expected!r}"]
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: {len(actual)} items, expected {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, f"{path}[{i}]")]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


# ----------------------------------------------------------------------
# invariants, one per job name


def _arg(job: dict, flag: str) -> str:
    argv = job["cli"]
    return argv[argv.index(flag) + 1]


def _kappas(spec: str) -> list[int]:
    if ":" in spec:
        start, stop, step = (int(p) for p in spec.split(":"))
        return list(range(start, stop, step))
    return [int(p) for p in spec.split(",")]


def r_floor(kappa: int) -> int:
    """Smallest integer r > 2 kappa - 10/9."""
    return math.floor(2 * kappa - 10 / 9) + 1


def r_explicit(kappa: int) -> int:
    """Smallest integer above (1/2) k log k + (1 + gamma/2 + log 4) k
    + (13/18) sqrt(k/pi), and never below the floor."""
    k = kappa
    main = (0.5 * k * math.log(k) + (1 + EULER_GAMMA / 2 + math.log(4)) * k
            + 13 / 18 * math.sqrt(k / math.pi))
    return max(math.floor(main) + 1, r_floor(k))


def _bound(job, rows) -> list[str]:
    problems = []
    want = sorted(set(_kappas(_arg(job, "--kappa"))))
    if [r["kappa"] for r in rows] != want:
        problems.append(f"rows for kappa {[r['kappa'] for r in rows]}, asked {want}")
    for r in rows:
        k = r["kappa"]
        if r["r_explicit"] != r_explicit(k):
            problems.append(f"kappa {k}: r_explicit {r['r_explicit']} != {r_explicit(k)}")
        if r["r_numeric"] is None or r["r_numeric"] < r_floor(k):
            problems.append(f"kappa {k}: r_numeric {r['r_numeric']} below floor {r_floor(k)}")
        if r["margin_at_r"] is None or not r["margin_at_r"] > 0:
            problems.append(f"kappa {k}: margin_at_r {r['margin_at_r']} not positive")
    return problems


def _moments(job, rows) -> list[str]:
    problems = []
    want = [(k, q) for k in _kappas(_arg(job, "--kappa"))
            for q in ("J1(0)", "J1(1)", "J2(0)")]
    if [(r["kappa"], r["quantity"]) for r in rows] != want:
        problems.append("moment rows do not match the requested kappas")
    for r in rows:
        where = f"kappa {r['kappa']} {r['quantity']}"
        if abs(r["value"] - r["asymptotic"] - r["diff"]) > ATOL:
            problems.append(f"{where}: diff != value - asymptotic")
        if not abs(r["diff"]) <= r["envelope"]:
            problems.append(f"{where}: |diff| {abs(r['diff']):.3g} above envelope")
    return problems


def _search(job, out) -> list[str]:
    x = int(_arg(job, "--x"))
    total = sum(out["counts"].values()) + out["excluded"]
    if out["x"] != x or total != x:
        return [f"counts + excluded = {total} for x = {out['x']}, asked {x}"]
    return []


def _identity(job, out) -> list[str]:
    problems = []
    if out["residual"] != "0" or out["residual_is_zero"] is not True:
        problems.append(f"residual {out['residual']!r} is not exactly 0")
    lhs, main, err = (Fraction(out[k]) for k in ("lhs", "main", "error"))
    if lhs != out["x"] * main + err:
        problems.append("lhs != x*main + error")
    return problems


def _lambda_sweep(job, out) -> list[str]:
    a = job["args"]
    systems = (a["zp_max"] - 1) * (a["xi_max"] - 1)
    problems = []
    if out["systems"] != systems:
        problems.append(f"{out['systems']} lambda systems, expected {systems}")
    if out["violations"] != 0:
        problems.append(f"{out['violations']} violations of |lambda_nu| <= lambda_1")
    return problems


def g_float(offsets, r: float, z_prime: float) -> float:
    """Float G(r, z') by direct enumeration of the squarefree support."""
    primes = [p for p in range(2, math.ceil(min(z_prime, r)))
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    wts = []
    for p in primes:
        rho = len({-h % p for h in offsets})
        wts.append(rho / (p - rho))
    total = 0.0
    stack = [(0, 1, 1.0)]
    while stack:
        i0, m, w = stack.pop()
        total += w
        for i in range(i0, len(primes)):
            if m * primes[i] >= r:
                break
            stack.append((i + 1, m * primes[i], w * wts[i]))
    return total


def _g_exact(job, out) -> list[str]:
    a = job["args"]
    got = float(Fraction(out["G"]))
    want = g_float(a["offsets"], a["r"], a["z_prime"])
    if abs(got - want) > 1e-9 * want:
        return [f"exact G = {got!r}, independent float sum {want!r}"]
    return []


def _density_trend(job, out) -> list[str]:
    problems = []
    reps = out["reports"]
    if len(reps) != len(job["args"]["z_primes"]):
        return ["one report per z' expected"]
    for rep in reps:
        if abs(rep["tau"] - 2.0) > ATOL or not 0 < rep["V"] < 1 or rep["G"] <= 0:
            problems.append(f"implausible report {rep}")
        if abs(rep["ratio"] - rep["G"] / rep["approx"]) > ATOL * abs(rep["ratio"]):
            problems.append("ratio != G/approx")
    errs = [abs(rep["ratio"] - 1.0) for rep in reps]
    if any(e1 <= e2 for e1, e2 in zip(errs, errs[1:])):
        problems.append(f"criterion-7 errors {errs} do not strictly decrease")
    return problems


_INVARIANTS = {"bound": _bound, "moments": _moments, "search": _search,
               "identity": _identity, "lambda_sweep": _lambda_sweep,
               "g_exact": _g_exact, "density_trend": _density_trend}
