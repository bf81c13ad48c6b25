"""Benchmark self-test: one short traced run of every workload.

    python3 perfbench/selftest.py [--seed N]

A traced run fails when a span expected on its workload records no calls,
when the trace and the counters disagree, when repeats differ, or when an
output check fails.  A refactor that moves a call site out of the probes'
reach therefore fails here instead of reporting 0 us.  Takes about two
minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            failures.append(workload)
            errors = [ln for ln in proc.stderr.splitlines()
                      if ln.startswith(("  error:", "error:"))]
            print(f"FAIL {workload}: exit {proc.returncode}", *errors, sep="\n  ")
        else:
            print(f"ok   {workload}: {len(result['metrics'])} per-layer metrics")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
