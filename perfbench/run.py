"""treecell benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload evolve-desk --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each call starts fresh worker processes
(perfbench/worker.py) with BLAS/OpenMP pinned to one thread and ``src`` on
PYTHONPATH.  Each unit of work runs in its own process, which sets up and
then runs the unit.  Before each unit, and after the last, a process only
sets up, so the samples for the median ``setup_s`` are spread over the run.
Times are corrected to the host's full speed with a probe (speed.py).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate run whose units after the first are traced.  A
readable table, the machine facts and any errors go to standard error; the
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_UNITS = 2                # repeats are compared; a traced run needs both kinds
DEADLINE_S = 170.0           # the whole call ends well inside three minutes
REQUIRED = ("src/treecell/__init__.py", "configs/desk_evolution.ini")

sys.path.insert(0, str(HERE))
from machine import load_and_steal  # noqa: E402
from metrics import check_consistency, end_to_end, per_layer  # noqa: E402


def read_benchmark() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, workdir: Path, deadline: float, *flags: str) -> dict:
    """One worker process; returns its result, or raises RuntimeError."""
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir),
           "--result", str(result), *flags]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for another worker")
    # the worker's stdout goes to our stderr: our stdout carries only the result
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=child_env(),
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    out = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def measure(args, root: Path, deadline: float):
    """Units in fresh processes while the next would end within --seconds.

    Returns the units, the set-up samples as (set-up seconds, probe seconds)
    and the machine facts.  Only the end-to-end run probes host speed and
    samples set-ups; in a traced run the units after the first are traced.
    """
    units, setups = [], []
    probe = [] if args.trace else ["--probe"]

    def set_up_only():
        result = spawn(args, root / f"setup{len(setups)}", deadline, "--setup-only", *probe)
        setups.append((result["setup_s"], result["setup_probe_s"]))

    started = time.monotonic()
    while True:
        if not args.trace:
            set_up_only()
        unit_started = time.monotonic()
        flags = ["--index", str(len(units)), *probe]
        if args.trace and units:
            flags.append("--traced")
        result = spawn(args, root / f"unit{len(units)}", deadline, *flags)
        units.append(result["unit"])
        if not args.trace:
            setups.append((result["setup_s"], result["setup_probe_s"]))
        now = time.monotonic()
        if len(units) >= MIN_UNITS and \
                (now - started) + (now - unit_started) > args.seconds:
            break
    if not args.trace:
        set_up_only()
    return units, setups, result["machine"]


def report(args, spec, units, setups, machine) -> dict:
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        measured, samples = per_layer(units), {}
    else:
        measured, samples = end_to_end(units, setups)
    missing = sorted(set(wanted) - set(measured))
    if missing:
        raise RuntimeError(f"worker reported no {', '.join(missing)}")
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in wanted.items()}
    attempted = sum(u["ops"] for u in units)
    failed = sum(min(len(u["errors"]), u["ops"]) for u in units)
    print(f"\n== {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'error_rate':44s} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations)", file=sys.stderr)
    for error in (e for u in units for e in u["errors"]):
        print(f"  error: {error}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples_s": setups, "machine": machine, **samples,
              "units": [{k: v for k, v in u.items()
                         if k not in ("segments", "probes", "trace")} for u in units]}
    print("detail: " + json.dumps(detail, sort_keys=True), file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec = read_benchmark()
    parser = argparse.ArgumentParser(description="treecell benchmark")
    parser.add_argument("--workload", required=True, choices=spec["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"error: run from the treecell repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    machine = {"start": load_and_steal()}
    root = Path(".perfbench_work") / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        units, setups, facts = measure(args, root, deadline)
        check_consistency(units, args.workload)
        machine.update(facts, end=load_and_steal())
        result = report(args, spec, units, setups, machine)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if Path(".perfbench_work").is_dir() and not any(Path(".perfbench_work").iterdir()):
            Path(".perfbench_work").rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
