"""The workloads.  Each drives treecell only through public entry points.

A workload is built once (the set-up, timed as ``setup_s``) and then runs
identical units: ``run(index)`` is the timed operation and ``check(outcome)``
verifies its outputs outside the timed section.  Every input derives from
the workload seed, so repeated units of one run must produce the same
digest and the same counts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from treecell import cli, evolution, meta
from treecell.compiler import compile_tree, lstm_reference_tree
from treecell.config import load_config, save_config
from treecell.grammar import parse, serialize
from treecell.tree import seed_tree

BENCH_DIR = Path(__file__).resolve().parent
DESK_CONFIG = Path("configs") / "desk_evolution.ini"

EVOLVE_GENERATIONS = 2       # one reproduction; a unit short enough to repeat 4 times
PANEL_EPOCHS = 2
HETERO_WIDTH, HETERO_CARDINALITY, HETERO_COUNT = 100, 20, 2
HETERO_DRAW_SEED = 2       # fixes which panel cells fill the hetero slots
META_SAMPLES, META_HELD_OUT, META_EPOCHS = 500, 100, 2
REPLAY_SAMPLE = 20
OFFSPRING_STRIDE = 64      # rng-key slots per offspring in evolution.reproduce


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


@dataclass
class Outcome:
    ops: int                      # operations attempted in the unit
    genomes: int = 0              # predictor members fitted (trained networks are counted by probe)
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    digest: str = ""
    payload: object = None        # what run() hands to check()


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def lineage_op_counts(lines) -> dict:
    """Operator calls and archive re-mutations, read back from lineage lines.

    Reproduction gives each offspring a block of OFFSPRING_STRIDE rng keys;
    every mutate line in a block after the first is a re-mutation out of an
    archived region.
    """
    mutate = crossover = 0
    per_block: dict = {}
    for line in lines:
        generation, key, op = line.split("\t", 3)[:3]
        if op == "mutate":
            mutate += 1
            if int(generation) > 0:
                block = (generation, int(key) // OFFSPRING_STRIDE)
                per_block[block] = per_block.get(block, 0) + 1
        elif op == "crossover":
            crossover += 1
    return {"mutate_calls": mutate, "crossover_calls": crossover,
            "remutations": sum(n - 1 for n in per_block.values())}


class EvolveDesk:
    """`treecell evolve` on the desk config cut to two generations."""

    name = "evolve-desk"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        config = load_config(DESK_CONFIG)
        config.evolution.generations = EVOLVE_GENERATIONS
        self.config_path = workdir / "evolve.ini"
        save_config(config, self.config_path)
        # what `evolve --seed` runs with, for replaying lineage lines
        self.evolution = config.evolution
        self.evolution.seed = seed

    def run(self, index: int) -> Outcome:
        out = self.workdir / f"evolve-{index}"
        rc = _quiet_cli(["evolve", "--config", self.config_path, "--out", out,
                         "--workers", 1, "--seed", self.seed])
        return Outcome(ops=1, payload=(rc, out))

    def check(self, outcome: Outcome) -> None:
        rc, out = outcome.payload
        if rc != 0:
            outcome.errors.append(f"evolve exited {rc}")
        files = ["stats.csv", "best.genome", "checkpoint.json", "lineage.log"]
        missing = [f for f in files if not (out / f).is_file()]
        if missing:
            outcome.errors.append(f"evolve wrote no {', '.join(missing)}")
            return
        with open(out / "stats.csv", encoding="utf-8") as fh:
            best = [float(row["best_fitness"]) for row in csv.DictReader(fh)]
        if len(best) != EVOLVE_GENERATIONS:
            outcome.errors.append(f"stats.csv has {len(best)} generations")
        if not all(math.isfinite(b) for b in best):
            outcome.errors.append(f"non-finite best fitness {best}")
        if any(b > a for a, b in zip(best, best[1:])):
            outcome.errors.append(f"best fitness worsened: {best}")
        lines = (out / "lineage.log").read_text(encoding="utf-8").splitlines()
        outcome.counts.update(lineage_op_counts(lines))
        rng = np.random.Generator(np.random.PCG64(self.seed))
        picks = rng.choice(len(lines), size=min(REPLAY_SAMPLE, len(lines)), replace=False)
        for i in sorted(int(p) for p in picks):
            if evolution.replay_line(lines[i], self.evolution) != lines[i].rsplit("\t", 1)[1]:
                outcome.errors.append(f"lineage line {i + 1} does not replay")
        outcome.digest = _digest(*((out / f).read_bytes() for f in files))
        shutil.rmtree(out)


class TrainPanel:
    """Training with no search, through both recurrent engines.

    `treecell train` on a fixed genome panel, a `treecell hetero` sweep over
    the panel (both through ``Network``), and a curve-predictor fit with
    `meta.train_meta` (through ``meta._RecurrentStack``).
    """

    name = "train-panel"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        deep_path = BENCH_DIR / "panel" / "deep.genome"
        if _quiet_cli(["validate", deep_path]) != 0:
            raise SetupError(f"{deep_path} fails `treecell validate`")
        deep = parse(deep_path.read_text(encoding="utf-8").strip())
        self.panel = {"seed": seed_tree(), "lstm": lstm_reference_tree(), "deep": deep}
        for tree in self.panel.values():
            compile_tree(tree)
        pool = workdir / "pool"
        pool.mkdir()
        self.genome_paths = {}
        for name, tree in self.panel.items():
            path = workdir / f"{name}.genome"
            path.write_text(serialize(tree) + "\n", encoding="utf-8")
            self.genome_paths[name] = path
        (pool / "panel.txt").write_text(
            "".join(serialize(t) + "\n" for t in self.panel.values()), encoding="utf-8")
        self.pool = pool

        config = load_config(DESK_CONFIG)
        config.seed = seed
        config.task.data_seed = seed
        config.train.epochs = PANEL_EPOCHS
        self.train_config = workdir / "train.ini"
        save_config(config, self.train_config)
        config.seed = HETERO_DRAW_SEED
        config.network.width = HETERO_WIDTH
        config.network.cardinality = HETERO_CARDINALITY
        config.evolution.partial_epochs = PANEL_EPOCHS
        self.hetero_config = workdir / "hetero.ini"
        save_config(config, self.hetero_config)

        self.samples, _ = meta.synthetic_curves(META_SAMPLES, seed=seed)
        held_out, _ = meta.synthetic_curves(META_HELD_OUT, seed=seed + 1_000_003)
        self.prefixes = [s.prefix for s in held_out]
        # the acceptance-gate shape; patience >= epochs, so early stopping
        # never changes the work
        self.meta_config = meta.MetaConfig(width=40, layers=2, decoder_lens=(30, 1),
                                           epochs=META_EPOCHS, lr=0.01, batch_size=50,
                                           patience=META_EPOCHS, seed=seed)

    def run(self, index: int) -> Outcome:
        codes = []
        curves = []
        for name, path in self.genome_paths.items():
            curve = self.workdir / f"curve-{name}-{index}.csv"
            codes.append(_quiet_cli(["train", path, "--config", self.train_config,
                                     "--out", curve]))
            curves.append(curve)
        ranked = self.workdir / f"hetero-{index}.csv"
        codes.append(_quiet_cli(["hetero", self.pool, "--config", self.hetero_config,
                                 "--count", HETERO_COUNT, "--out", ranked]))
        model = meta.train_meta(self.samples, self.meta_config)
        preds = np.asarray(model.predict_batch(self.prefixes))
        return Outcome(ops=len(codes) + 1, genomes=len(model.members),
                       payload=(codes, curves, ranked, model, preds))

    def check(self, outcome: Outcome) -> None:
        codes, curves, ranked, model, preds = outcome.payload
        parts = []
        for rc, path in zip(codes, curves + [ranked]):
            if rc != 0 or not path.is_file():
                outcome.errors.append(f"{path.name}: exit {rc}")
                continue
            text = path.read_text(encoding="utf-8")
            parts.append(text)
            rows = list(csv.reader(io.StringIO(text)))[1:]
            if path is ranked:
                fits = [float(r[1]) for r in rows]
                if len(rows) != HETERO_COUNT or fits != sorted(fits) \
                        or [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
                    outcome.errors.append(f"hetero CSV not ranked: {rows}")
            else:
                values = [float(r[1]) for r in rows]
                if len(values) != PANEL_EPOCHS or not all(map(math.isfinite, values)):
                    outcome.errors.append(f"{path.name}: bad curve {values}")
            path.unlink()
        if preds.shape != (META_HELD_OUT,) or not np.all(np.isfinite(preds)) \
                or not np.all(preds > 0):
            outcome.errors.append("held-out predictions not finite and positive")
        parts.append(preds.tobytes())
        parts += [v.tobytes() for m in model.members for _, v in sorted(m.params.items())]
        outcome.digest = _digest(*parts)


WORKLOADS = {cls.name: cls for cls in (EvolveDesk, TrainPanel)}
