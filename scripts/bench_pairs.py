#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts of treecell.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload train-panel \\
        --seeds 1601-1610 --seconds 50

For each seed, runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, from that checkout's root, and switches
which side goes first from one pair to the next, so a drift of the host's
speed does not favour one side.  Then prints, for each end-to-end metric
that ``BENCHMARK.json`` declares, both sides' medians and interquartile
ranges, the change of the median, and in how many pairs the change side was
better.  A change is "beyond IQR" when its median is better than the
parent's by more than the parent's interquartile range, and "over bound"
when its median is worse than the parent's by more than the metric's
``bound`` in ``BENCHMARK.json``, a fraction of the parent's median.

Each metric gets one verdict, the first that holds of:

* ``over bound``: as above;
* ``unresolved``: either side's interquartile range is wider than the
  metric's bound times the parent's median, unless every change run beat
  every parent run;
* ``gain``: the change was better in at least 90% of the pairs and its
  median is beyond IQR;
* ``flat``: anything else.

Every pair must do the same work: both runs' unit output digests and exact
counts, read from the ``detail:`` line that perfbench prints on standard
error, must be equal.  The exit code is 1 when a run fails, reports failed
operations, a pair's digests or counts differ, or a metric is over bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``1601-1610`` or ``1601,1605,1609``."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` perfbench run; returns its result, digests and counts,
    or ``{"error": ...}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    details = [line[len("detail: "):] for line in proc.stderr.splitlines()
               if line.startswith("detail: ")]
    if proc.returncode != 0 or not details or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = json.loads(details[-1])["units"]
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "digests": sorted({u["digest"] for u in units}),
            "counts": units[0]["counts"]}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _verdict(row, n_pairs, separated) -> str:
    bound = row["bound"]
    if row["over_bound"]:
        return "over bound"
    widest = max(hi - lo for lo, hi in (row["parent_iqr"], row["change_iqr"]))
    if bound is not None and widest > bound * abs(row["parent"]) and not separated:
        return "unresolved"
    if row["wins"] >= 0.9 * n_pairs and row["beyond_iqr"]:
        return "gain"
    return "flat"


def summarize(pairs, metrics, bounds=None) -> list[dict]:
    """One row per metric over the pairs, each a {side: metrics} dict;
    ``metrics`` maps a name to "lower" or "higher", the better direction,
    and ``bounds`` a name to the fraction by which its median may worsen."""
    bounds = bounds or {}
    rows = []
    for name, better in metrics.items():
        a = [p["parent"][name] for p in pairs]
        b = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        row = {"metric": name, "parent": am, "change": bm,
               "delta_pct": (bm - am) / am * 100.0,
               "parent_iqr": (a1, a3), "change_iqr": (b1, b3),
               "wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
               "beyond_iqr": sign * (bm - am) > a3 - a1,
               "bound": bounds.get(name),
               "over_bound": name in bounds and -sign * (bm - am) > bounds[name] * abs(am)}
        separated = min(sign * y for y in b) > max(sign * x for x in a)
        row["verdict"] = _verdict(row, len(pairs), separated)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one seed per pair: 1601-1610 or 1601,1605")
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}

    pairs, problems = [], []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {}
        for side in order:
            runs[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: " + (runs[side].get("error") or " ".join(
                f"{k}={v:.6g}" for k, v in runs[side]["metrics"].items())), file=sys.stderr)
        bad = [f"{side}: {run['error']}" if "error" in run else
               f"{side}: {run['failed']} failed operations"
               for side, run in runs.items() if "error" in run or not run["correct"]]
        if not bad:
            for key in ("digests", "counts"):
                if runs["parent"][key] != runs["change"][key]:
                    bad.append(f"{key} differ: {runs['parent'][key]} != {runs['change'][key]}")
        if bad:
            problems.extend(f"seed {seed}: {b}" for b in bad)
        else:
            pairs.append({side: runs[side]["metrics"] for side in SIDES})

    print(f"{args.workload}: {len(pairs)} of {len(args.seeds)} pairs with equal digests "
          f"and counts, seeds {args.seeds[0]}..{args.seeds[-1]}, --seconds {args.seconds:g}")
    if pairs:
        print(f"{'metric':14s} {'verdict':10s} {'parent':>10s} {'change':>10s} {'delta':>8s} "
              f"{'parent IQR':>21s} {'change IQR':>21s} {'bound':>10s} {'wins':>7s}"
              f"  beyond IQR")
        for r in summarize(pairs, metrics, bounds):
            bound = f"{r['bound']:.0%} {'OVER' if r['over_bound'] else 'ok'}"
            print(f"{r['metric']:14s} {r['verdict']:10s} {r['parent']:10.4g} {r['change']:10.4g} "
                  f"{r['delta_pct']:+7.2f}% "
                  f"{r['parent_iqr'][0]:10.4g}-{r['parent_iqr'][1]:<10.4g} "
                  f"{r['change_iqr'][0]:10.4g}-{r['change_iqr'][1]:<10.4g} "
                  f"{bound:>10s} "
                  f"{r['wins']:>3d}/{len(pairs):<3d}  {'yes' if r['beyond_iqr'] else 'no'}")
            if r["over_bound"]:
                problems.append(f"{r['metric']}: change median {r['delta_pct']:+.2f}% "
                                f"is worse than the parent's by more than its "
                                f"{r['bound']:.0%} bound")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
