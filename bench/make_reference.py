"""Write the reference outputs of the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one untraced pass of each named workload (default: all) at the
default seed, checks it by the invariants alone, and stores its records
under ``reference/``.  Regenerate only when an output is meant to
change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main(argv: list[str]) -> int:
    for name in argv or workloads.WORKLOADS:
        jobs = workloads.make_jobs(name, workloads.DEFAULT_SEED)
        result = run.run_worker(jobs, trace=False, timeout=600)
        if result is None or run.judge(jobs, [None] * len(jobs), result, None):
            sys.stderr.write(f"{name}: pass failed; reference not written\n")
            return 1
        records = [{k: v for k, v in rec.items() if k != "stdout_sha256"}
                   for rec in result["records"]]
        with open(checks.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(records)} records written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
