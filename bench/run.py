"""sievekit benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; sievekit is imported from ``src/`` of the checkout
that holds this file.  A run builds the workload's jobs from the seed,
then repeats passes until ``--seconds`` have gone and at least
MIN_PASSES passes are done.  Each pass is a fresh Python process
(``worker.py``) that imports ``sievekit.cli`` and runs every job once,
single-threaded, so each pass pays the import and starts with cold
caches, as a command-line user does.  Every output is checked
(``checks.py``).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json as medians over the passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: medians over the traced passes, import times from
``python -X importtime``, and the tracing overhead.  Progress and
problems go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3
# Start no pass that could end after this many seconds of the run, so
# that the run exits well within three minutes.
DEADLINE_S = 150.0


class SetupError(RuntimeError):
    """sievekit could not be imported from src/."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread per process: numpy's BLAS pool stays at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(jobs: list[dict], trace: bool, timeout: float) -> dict | None:
    """One pass in a fresh process; None when the process died."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({"jobs": jobs, "trace": trace}),
            capture_output=True, text=True, env=worker_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"pass killed after {timeout:.0f} s\n")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode == 2:
        raise SetupError(proc.stderr.strip())
    if proc.returncode != 0:
        sys.stderr.write(f"pass died with exit code {proc.returncode}\n")
        return None
    return json.loads(proc.stdout)


def import_times() -> dict[str, float]:
    """Self and cumulative import time of each sievekit module, in s."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sievekit.cli"],
        capture_output=True, text=True, env=worker_env(), timeout=60)
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip())
    out = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "sievekit" or name.startswith("sievekit."):
            short = name.rpartition(".")[2]
            out[f"setup.import.{short}_s"] = int(fields[0]) / 1e6
            out[f"setup.import.{short}_cum_s"] = int(fields[1]) / 1e6
    return out


def judge(jobs, refs, result, baseline) -> int:
    """Failed jobs of one pass.  A traced pass must also reproduce the
    records of the untraced ``baseline`` pass exactly."""
    if result is None:
        return len(jobs)
    failed = 0
    for i, (job, record, ref) in enumerate(zip(jobs, result["records"], refs)):
        problems = checks.check_job(job, record, ref)
        if baseline is not None and record != baseline["records"][i]:
            problems.append("traced output differs from untraced output")
        if problems:
            failed += 1
            sys.stderr.write(f"job {job['name']} failed: " + "; ".join(problems[:5]) + "\n")
    return failed


def measure(args, jobs, refs):
    """Run passes; returns (attempted, failed, untraced, traced, imports)."""
    start = time.monotonic()
    # Untimed warm-up: compiles bytecode and fills the file cache.
    subprocess.run([sys.executable, "-c", "import sievekit.cli"],
                   env=worker_env(), capture_output=True, timeout=60)
    window = time.monotonic()
    untraced, traced, imports = [], [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        tracing = bool(args.trace) and len(untraced) > len(traced)
        t0 = time.monotonic()
        timeout = start + DEADLINE_S + 20 - t0
        result = run_worker(jobs, tracing, timeout)
        longest = max(longest, time.monotonic() - t0)
        attempted += len(jobs)
        failed += judge(jobs, refs, result,
                        untraced[0] if tracing and untraced else None)
        if result is None:
            break
        (traced if tracing else untraced).append(result)
        if tracing:
            imports.append(import_times())
        now = time.monotonic()
        done = (len(untraced) >= MIN_PASSES if not args.trace
                else untraced and traced and len(untraced) == len(traced))
        if done and now - window >= args.seconds:
            break
        if now + longest > start + DEADLINE_S:
            break
    return attempted, failed, untraced, traced, imports


def end_to_end(untraced, attempted, failed) -> dict[str, float]:
    values = {key: statistics.median(r[key] for r in untraced)
              for key in ("job_s", "setup_s", "cpu_s", "peak_rss_mb")}
    values["ok_frac"] = (attempted - failed) / attempted
    return values


def per_layer(names, untraced, traced, imports) -> tuple[dict[str, float], int]:
    """Per-layer metrics and the number of counts that differ between
    traced passes (counts are every metric not in seconds)."""
    values = {}
    unstable = 0
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["job_s"] for r in traced)
                            - statistics.median(r["job_s"] for r in untraced))
            continue
        source = imports if name.startswith("setup.") else [r["layers"] for r in traced]
        samples = [s.get(name, 0) for s in source]
        counted = not name.endswith("_s")
        if counted and len(set(samples)) > 1:
            unstable += 1
            sys.stderr.write(f"count {name} differs between traced passes: {samples}\n")
        values[name] = (statistics.median_low if counted else statistics.median)(samples)
    return values, unstable


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sievekit" / "__init__.py").is_file():
        sys.stderr.write(f"no sievekit sources under {ROOT / 'src'}\n")
        return 1
    jobs = workloads.make_jobs(args.workload, args.seed)
    refs = (checks.load_reference(args.workload) if args.seed == workloads.DEFAULT_SEED
            else [None] * len(jobs))
    try:
        attempted, failed, untraced, traced, imports = measure(args, jobs, refs)
    except SetupError as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 1
    if not untraced or (args.trace and not traced):
        sys.stderr.write("no pass completed\n")
        return 1

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, unstable = per_layer(names, untraced, traced, imports)
        failed = min(attempted, failed + (unstable > 0))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(untraced, attempted, failed)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sys.stderr.write(f"{len(untraced)} untraced and {len(traced)} traced passes\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
