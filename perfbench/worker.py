"""Set up one workload in this (fresh) process, run one unit, write the result.

Started by run.py, which pins BLAS/OpenMP to one thread and puts ``src`` on
PYTHONPATH.  The process builds the workload (the set-up, timed as
``setup_s``), then runs one timed unit, traced or not, and checks its
outputs outside the timed section.  ``--setup-only`` stops after the set-up.
With ``--probe`` the host speed probe (speed.py) is timed after the set-up
and before each parameter update; the unit is then split into segments
between probes, which leave out the probes' own time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from machine import describe
from speed import settled_probe
from tracing import Counters, Tracer
from workloads import WORKLOADS, Outcome

from treecell.evolution import EvolutionConfig


def run_unit(workload, index, counters, tracer) -> dict:
    counters.reset()
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        outcome = workload.run(index)
    except Exception as exc:   # a failed unit is counted, never fatal
        traceback.print_exc()
        outcome = Outcome(ops=1, errors=[f"unit raised {exc!r}"])
    ended = time.perf_counter()
    marks, probes = list(counters.marks), list(counters.probes)
    if tracer is not None:
        tracer.uninstall()
    starts = [started] + [end for _, end in marks]
    stops = [start for start, _ in marks] + [ended]
    unit = {"wall_s": ended - started, "traced": tracer is not None, "probes": probes,
            "segments": [b - a for a, b in zip(starts, stops)]}
    if outcome.payload is not None:
        try:
            workload.check(outcome)
        except Exception as exc:
            traceback.print_exc()
            outcome.errors.append(f"output check raised {exc!r}")
    counts = counters.snapshot()
    counts.update(outcome.counts)
    counts["genomes"] = counts["trained"] + outcome.genomes
    unit.update(ops=outcome.ops, errors=outcome.errors, digest=outcome.digest,
                counts=counts)
    if tracer is not None:
        summary = tracer.summary(EvolutionConfig().max_shame_retries)
        unit["trace"] = dataclasses.asdict(summary)
    return unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="unit number within the run")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true", help="time the host speed probe")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    counters = Counters(probing=args.probe)
    counters.install()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.probe:
        result["setup_probe_s"] = settled_probe()
    if not args.setup_only:
        unit = run_unit(workload, args.index, counters,
                        Tracer() if args.traced else None)
        unit["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(unit=unit, machine=describe())
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
