"""One pass of a workload in a fresh process.

Reads ``{"jobs": [...], "trace": bool}`` as JSON on stdin, imports
``sievekit.cli`` (timed as ``setup_s``), runs every job once and writes
one JSON object on stdout: the timings of the pass, its peak resident
memory, one record per job and, when traced, the per-layer metrics.
sievekit must be importable, e.g. with ``PYTHONPATH=src``.  Exit code 2
means sievekit could not be imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import workloads


def run_job(job: dict):
    """Raw result of one job; exceptions are returned, not raised."""
    try:
        if "cli" in job:
            import sievekit.cli
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = sievekit.cli.main(list(job["cli"]))
            return {"rc": rc, "stdout": out.getvalue()}
        return {"result": workloads.API[job["api"]](**job["args"])}
    except Exception as exc:  # a failed job is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return {"error": repr(exc)}


def to_record(job: dict, raw: dict) -> dict:
    """JSON record of a job's raw result for the output checks."""
    if "error" in raw:
        return raw
    try:
        if "cli" in job:
            text = raw["stdout"]
            return {"rc": raw["rc"],
                    "output": json.loads(text) if raw["rc"] == 0 else None,
                    "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
        return {"result": workloads.api_record(job, raw["result"])}
    except (ValueError, TypeError, KeyError) as exc:
        return {"error": f"unreadable output: {exc!r}"}


def main() -> int:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    try:
        import sievekit.cli  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"cannot import sievekit: {exc}\n")
        return 2
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    jobs = spec["jobs"]
    raws = []
    w0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        raws.append(run_job(job))
    job_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "cpu_s": cpu_s,
        "records": [to_record(job, raw) for job, raw in zip(jobs, raws)],
        "layers": tracer.summary() if tracer else None,
        "peak_rss_mb": peak_rss_mb,
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
