"""Tests of the benchmark itself: seeded inputs, output checks, the
traced run and the set-up failure path.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def default_jobs(workload):
    return workloads.make_jobs(workload, workloads.DEFAULT_SEED)


def job_and_ref(workload, name):
    jobs = default_jobs(workload)
    refs = checks.load_reference(workload)
    i = [j["name"] for j in jobs].index(name)
    return jobs[i], copy.deepcopy(refs[i])


# ----------------------------------------------------------------------
# inputs


def test_default_seed_gives_the_reference_inputs():
    assert [j["cli"] for j in default_jobs("bound_moments")] == [
        ["bound", "--kappa", "10:121:10", "--format", "json"],
        ["moments", "--kappa", "10,20,40,80", "--format", "json"]]
    assert default_jobs("omega_search") == [{"name": "search", "cli": [
        "search", "--tuple", "0,2", "--x", "10000000", "--threads", "1",
        "--format", "json"]}]
    identity, sweep, g = default_jobs("weights_exact")
    assert identity["cli"] == ["identity", "--tuple", "0,2", "--x", "20000", "--z", "50",
                               "--zp", "50", "--xi", "300", "--exact"]
    assert sweep["args"] == {"offsets": [0, 2], "zp_max": 30, "xi_max": 100}
    assert g["args"] == {"offsets": [0, 2], "r": 100_000, "z_prime": 300}
    assert default_jobs("density_lemma")[0]["args"] == {
        "offsets": [0, 2], "z_primes": [100, 1000, 5000]}


@pytest.mark.parametrize("seed", range(1, 25))
def test_other_seeds_repeat_and_keep_the_sizes(seed):
    for name in workloads.WORKLOADS:
        assert workloads.make_jobs(name, seed) == workloads.make_jobs(name, seed)
    bound, moments = workloads.make_jobs("bound_moments", seed)
    grid = checks._kappas(bound["cli"][2])
    assert len(set(grid)) == 12 and min(grid) >= 2 and max(grid) <= 120
    assert sum(grid) == sum(range(10, 121, 10))
    assert sum(checks._kappas(moments["cli"][2])) == 150
    search = workloads.make_jobs("omega_search", seed)[0]["cli"]
    h = int(search[2].split(",")[1])
    assert h >= 2 and h % 2 == 0
    identity = workloads.make_jobs("weights_exact", seed)[0]["cli"]
    assert 19_000 <= int(identity[identity.index("--x") + 1]) <= 20_000
    q = int(identity[2].split(",")[1]) // 2
    assert q == 1 or (q > 300 and all(q % d for d in range(2, math.isqrt(q) + 1)))


# ----------------------------------------------------------------------
# output checks


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_passes_its_own_checks(workload):
    for job, ref in zip(default_jobs(workload), checks.load_reference(workload)):
        assert checks.check_job(job, ref, ref) == []
        assert checks.check_job(job, ref) == []


def fails(job, record, ref):
    """The perturbed record fails, and a pass holding it counts a failure."""
    problems = checks.check_job(job, record, ref)
    result = {"records": [record]}
    return bool(problems) and run.judge([job], [ref], result, None) == 1


def test_histogram_off_by_one_fails():
    job, ref = job_and_ref("omega_search", "search")
    bad = copy.deepcopy(ref)
    bad["output"]["counts"]["2"] += 1
    assert fails(job, bad, ref)
    assert checks.check_job(job, bad) != []  # caught without a reference too


def test_nonzero_residual_fails():
    job, ref = job_and_ref("weights_exact", "identity")
    bad = copy.deepcopy(ref)
    bad["output"]["residual"] = "1"
    assert fails(job, bad, ref)
    assert checks.check_job(job, bad) != []
    bad = copy.deepcopy(ref)
    bad["output"]["error"] = "1"
    assert checks.check_job(job, bad) != []  # lhs != x*main + error


@pytest.mark.parametrize("delta", [-1, 1])
def test_r_numeric_off_by_one_fails(delta):
    job, ref = job_and_ref("bound_moments", "bound")
    bad = copy.deepcopy(ref)
    bad["output"][5]["r_numeric"] += delta
    assert fails(job, bad, ref)


def test_r_explicit_off_by_one_fails_without_reference():
    job, ref = job_and_ref("bound_moments", "bound")
    ref["output"][0]["r_explicit"] += 1
    assert checks.check_job(job, ref) != []


@pytest.mark.parametrize("workload,name,path", [
    ("bound_moments", "bound", ("output", 3, "margin_at_r")),
    ("bound_moments", "moments", ("output", 4, "value")),
    ("density_lemma", "density_trend", ("result", "reports", 1, "ratio")),
])
def test_float_off_by_1e_6_fails(workload, name, path):
    job, ref = job_and_ref(workload, name)
    bad = copy.deepcopy(ref)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1e-6
    assert fails(job, bad, ref)


def test_float_within_tolerance_passes():
    job, ref = job_and_ref("bound_moments", "bound")
    ok = copy.deepcopy(ref)
    ok["output"][3]["margin_at_r"] += 1e-10
    assert checks.check_job(job, ok, ref) == []


def test_exact_values_must_match():
    job, ref = job_and_ref("weights_exact", "g_exact")
    num, den = ref["result"]["G"].split("/")
    bad = copy.deepcopy(ref)
    bad["result"]["G"] = f"{int(num) + 1}/{den}"
    assert fails(job, bad, ref)
    bad["result"]["G"] = f"{2 * int(num)}/{den}"
    assert checks.check_job(job, bad) != []  # independent float sum
    job, ref = job_and_ref("weights_exact", "lambda_sweep")
    bad = copy.deepcopy(ref)
    bad["result"]["violations"] = 1
    assert fails(job, bad, ref)
    bad = copy.deepcopy(ref)
    bad["result"]["lambda_sha256"] = "0" * 64
    assert fails(job, bad, ref)


def test_failed_exit_and_exception_fail():
    job, ref = job_and_ref("omega_search", "search")
    assert fails(job, {"rc": 3, "output": None}, ref)
    assert fails(job, {"error": "RuntimeError()"}, ref)
    assert run.judge([job], [ref], None, None) == 1  # the pass died


def test_density_trend_must_decrease():
    job, ref = job_and_ref("density_lemma", "density_trend")
    reps = ref["result"]["reports"]
    reps[2]["ratio"] = reps[0]["ratio"]
    reps[2]["G"] = reps[2]["ratio"] * reps[2]["approx"]
    assert any("strictly" in p for p in checks.check_job(job, ref))


def test_independent_formulas():
    assert checks.r_explicit(100) == 502
    assert checks.r_floor(10) == 19
    # m in {1, 2, 3, 6}: 1/f'(2) = 1 (rho = 1), 1/f'(3) = 2 (rho = 2)
    assert checks.g_float([0, 2], 10, 5) == 1 + 1 + 2 + 2


# ----------------------------------------------------------------------
# the tracer


def test_tracer_self_and_busy_time():
    ticks = iter(range(1000))
    tracer = layertrace.Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)

    def rec(n):
        if n:
            traced_rec(n - 1)

    traced_rec = tracer.span("rec", rec)

    def outer():
        inner()
        inner()
        traced_rec(2)

    tracer.span("outer", outer)()
    s = tracer.summary()
    # clock ticks: outer 0-11 > inner 1-2, inner 3-4, rec 5-10 > rec 6-9 > rec 7-8
    assert s["outer.calls"] == 1 and s["outer.busy_s"] == 11
    assert s["inner.calls"] == 2 and s["inner.busy_s"] == 2 and s["inner.self_s"] == 2
    assert s["outer.self_s"] == 11 - 2 - 5
    assert s["rec.calls"] == 3 and s["rec.busy_s"] == 5 and s["rec.self_s"] == 5


# ----------------------------------------------------------------------
# worker passes on small inputs

SMALL_JOBS = [
    {"name": "bound", "cli": ["bound", "--kappa", "10,20", "--format", "json"]},
    {"name": "moments", "cli": ["moments", "--kappa", "10", "--format", "json"]},
    {"name": "search", "cli": ["search", "--tuple", "0,2", "--x", "100000",
                               "--threads", "1", "--format", "json"]},
    {"name": "identity", "cli": ["identity", "--tuple", "0,2", "--x", "2000", "--z", "20",
                                 "--zp", "20", "--xi", "60", "--exact"]},
    {"name": "lambda_sweep", "api": "lambda_sweep",
     "args": {"offsets": [0, 2], "zp_max": 6, "xi_max": 12}},
    {"name": "g_exact", "api": "g_exact",
     "args": {"offsets": [0, 2], "r": 3000, "z_prime": 50}},
    {"name": "density_trend", "api": "density_trend",
     "args": {"offsets": [0, 2], "z_primes": [30, 100]}},
]


@pytest.fixture(scope="module")
def passes():
    return [run.run_worker(SMALL_JOBS, trace=t, timeout=120) for t in (False, True, True)]


def test_small_pass_is_correct(passes):
    untraced = passes[0]
    assert untraced["layers"] is None
    assert run.judge(SMALL_JOBS, [None] * len(SMALL_JOBS), untraced, None) == 0
    assert untraced["job_s"] > 0 and untraced["setup_s"] > 0 and untraced["peak_rss_mb"] > 0


def test_traced_output_is_identical_to_untraced(passes):
    untraced, traced, _ = passes
    for job, a, b in zip(SMALL_JOBS, untraced["records"], traced["records"]):
        assert a == b, job["name"]
        if "cli" in job:
            assert a["stdout_sha256"] == b["stdout_sha256"]
    assert run.judge(SMALL_JOBS, [None] * len(SMALL_JOBS), traced, untraced) == 0


def test_traced_counts_repeat_exactly(passes):
    first, second = passes[1]["layers"], passes[2]["layers"]
    counts = {k for k in first if not k.endswith("_s")}
    assert counts == {k for k in second if not k.endswith("_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_traced_layers(passes):
    layers = passes[1]["layers"]
    assert layers["delay_ode.j_prime.calls"] > 0
    assert layers["moments.quad.calls"] > 0
    assert layers["bounds.r_bound_numeric.calls"] == 2
    assert layers["delay_ode.solve_j.max_degree"] >= 32
    assert layers["search.segments"] == 1 and layers["search.values"] == 200_000
    assert layers["arithmetic.arithmetic_tables.max_limit"] == math.isqrt(100_002) + 1
    assert layers["weights.G_sum_exact.calls"] == 1
    assert layers["weights.G_sum_float.calls"] == 2
    assert layers["weights.build_lambda_system.calls"] == 5 * 11 + 1
    assert layers["weights.support_elements.redundancy"] >= 1
    for name in ("bounds.table", "weights.e_error", "search.omega_profile"):
        assert 0 <= layers[f"{name}.self_s"] <= layers[f"{name}.busy_s"]
    span_metrics = [m["name"] for m in SPEC["per_layer"]
                    if not m["name"].startswith(("setup.", "trace."))]
    assert set(span_metrics) <= set(layers)


def test_import_times_cover_every_module():
    times = run.import_times()
    wanted = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("setup.")]
    assert set(wanted) <= set(times)
    assert times["setup.import.sievekit_cum_s"] >= times["setup.import.moments_cum_s"] > 0


# ----------------------------------------------------------------------
# the command


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "omega_search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
