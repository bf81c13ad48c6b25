#!/usr/bin/env python3
"""Peak resident memory after each phase of one train-panel unit.

    python3 scripts/rss_by_phase.py --seed 901

Builds the train-panel workload of ``perfbench/workloads.py`` from the
given seed, then runs the parts of one of its units in this one process,
in the unit's order: ``treecell train`` on each panel genome, the
``treecell hetero`` sweep, and the curve-predictor fit with its held-out
predictions.  After each part it prints the process's ``ru_maxrss`` so far,
in MB as perfbench reports ``peak_rss_mb``, so the phase that first reaches
the unit's peak is the one that sets it.  BLAS is pinned to one thread, as
in perfbench.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from treecell import meta  # noqa: E402


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phases(seed: int, workdir: Path):
    """Yield (phase, exit code or None, peak MB so far) for each part of one unit."""
    panel = workloads.TrainPanel(seed, workdir)
    yield "setup", None, peak_mb()
    for name, path in panel.genome_paths.items():
        rc = workloads._quiet_cli(["train", path, "--config", panel.train_config,
                                   "--out", workdir / f"curve-{name}.csv"])
        yield f"train {name}", rc, peak_mb()
    rc = workloads._quiet_cli(["hetero", panel.pool, "--config", panel.hetero_config,
                               "--count", workloads.HETERO_COUNT,
                               "--out", workdir / "hetero.csv"])
    yield "hetero", rc, peak_mb()
    model = meta.train_meta(panel.samples, panel.meta_config)
    model.predict_batch(panel.prefixes)
    yield "predictor fit", None, peak_mb()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=901, help="workload seed")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # the workload reads configs/ relative to the repository root
    failed = False
    with tempfile.TemporaryDirectory(prefix="rss-by-phase-") as tmp:
        for phase, rc, mb in run_phases(args.seed, Path(tmp)):
            status = "" if rc is None else f"  exit {rc}"
            print(f"{phase:<14} ru_maxrss {mb:8.2f} MB{status}", flush=True)
            failed |= bool(rc)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
