"""Record the reference payloads every benchmark run is checked against.

Usage (from the repository root): python3 perfbench/record.py

Runs each workload's jobs once at seed 0 and writes perfbench/reference.json.
Record only from a commit whose outputs are known to be right: the file in
the repository was recorded from the commit that added the benchmark.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    jobs = {}
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, 0, run.WORK):
            argv = [sys.executable, "-m", "floergrowth.cli", *job.argv]
            _, _, code, out, err = run.spawn(argv, env)
            if code != 0 or "Traceback" in err:
                print(f"error: {job.name} failed: {err.strip()[-300:]}", file=sys.stderr)
                return 1
            jobs[job.name] = checks.reference_form(json.loads(out))
    data = {"recorded_from": run.environment(), "jobs": jobs}
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} reference payloads to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
