"""Command-line entry points.

Commands: evolve, train, hetero, distance, meta, validate.  Every file
output but the append-only lineage log goes through ``data.atomic_write``
(temp file + rename), CSVs carry a header row and trailing newline, and
runs are byte-reproducible given a seed, single worker, and 64-bit
precision.  ``train`` and ``hetero`` check the genome rules as they read.
Commands raise their errors and ``main`` alone prints the one ``error:``
line and returns 1: an OSError that names a file as ``error: <file>: <reason>``,
a ValueError or configparser.Error as ``error: <message>``.  Any other
exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import evolution, meta
from .config import ExperimentConfig, load_config
from .data import atomic_write
from .fitness import EvalContext, keep_freed_heap, stable_seed
from .genetic import tree_distance
from .grammar import read_genome, read_population, serialize
from .network import heterogeneous_layer
from .training import TrainingDiverged
from .tree import validate as validate_tree


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _load_experiment(args) -> ExperimentConfig:
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
        config.evolution.seed = args.seed
    else:
        config.evolution.seed = config.seed
    if getattr(args, "precision", None) is not None:
        config.precision = args.precision
    return config


# --- evolve --------------------------------------------------------------------


# stats.csv columns and checkpoint history rows: GenerationStats' fields, in order
STATS_HEADER = tuple(f.name for f in dataclasses.fields(evolution.GenerationStats))


def cmd_evolve(args) -> int:
    config = args.experiment
    predictor = None
    if config.evolution.fitness_mode == "meta_predicted":
        if config.evolution.partial_epochs != meta.PREFIX_LEN:
            raise ValueError(f"meta_predicted fitness needs partial_epochs = "
                             f"{meta.PREFIX_LEN}, the predictor's prefix length; got "
                             f"{config.evolution.partial_epochs}")
        if not config.paths.meta_model:
            raise ValueError("meta_predicted fitness requires paths.meta_model")
        predictor = meta.load_model(config.paths.meta_model)
    ctx = EvalContext(config)
    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.json"

    state, lineage_bytes = None, 0
    if args.resume and checkpoint_path.exists():
        try:
            state, lineage_bytes = evolution.RunState.from_json(
                checkpoint_path.read_text(encoding="utf-8"), config.evolution)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt checkpoint {checkpoint_path}: {exc}") from exc

    with open(out_dir / "lineage.log", "a", encoding="utf-8") as sink:
        # drop lines a crash left behind after the checkpoint was written (a
        # fresh run keeps none); never pad a log that is already shorter
        sink.truncate(min(lineage_bytes, sink.tell()))
        lineage = evolution.LineageLog(sink)
        if state is None:
            state = evolution.RunState.start(config.evolution, lineage)

        def on_generation(stats, population, spec_state, records):
            write_csv(out_dir / "stats.csv", STATS_HEADER,
                      [dataclasses.astuple(h) for h in state.history])
            atomic_write(checkpoint_path, state.to_json(sink.tell()))

        pool = contextlib.nullcontext()
        if args.workers > 1:
            # imported here: the pool's modules cost every other run start-up time
            from concurrent.futures import ProcessPoolExecutor

            # each task pickles ctx, task arrays included, with its genome
            pool = ProcessPoolExecutor(max_workers=args.workers,
                                       initializer=keep_freed_heap)
        # a finished run's checkpoint has no generation left to run
        with pool as executor:
            evolution.run(config.evolution, ctx, predictor=predictor,
                          lineage=lineage, on_generation=on_generation,
                          start_state=state, pool=executor)

    best = serialize(state.best_genome)
    atomic_write(out_dir / "best.genome", best + "\n")
    print(f"best fitness: {state.best_fitness}")
    print(best)
    return 0


# --- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = args.experiment
    genome = read_genome(args.genome, check=True)
    try:
        curve = EvalContext(config).train_genome(serialize(genome), seed=config.seed,
                                                 epochs=config.train.epochs)
    except TrainingDiverged as exc:
        raise ValueError(f"training diverged at epoch {exc.epoch}, batch {exc.batch}") from exc
    seconds = curve.seconds if args.timing else [0.0] * len(curve.metrics)
    rows = [(i + 1, m, s)
            for i, (m, s) in enumerate(zip(curve.metrics, seconds))]
    write_csv(args.out or "curve.csv", ("epoch", curve.metric_name, "seconds"), rows)
    print(f"final {curve.metric_name}: {curve.final()}")
    return 0


# --- hetero ------------------------------------------------------------------------


def cmd_hetero(args) -> int:
    config = args.experiment
    files = sorted(p for p in Path(args.pool).iterdir() if p.is_file())
    genomes = [g for f in files for g in read_population(f, check=True)]
    if not genomes:
        raise ValueError("pool contains no genomes")
    cardinality = config.network.cardinality
    width = config.network.width
    if width % cardinality:
        raise ValueError(f"layer width {width} is not a multiple of cardinality {cardinality}")
    slots = width // cardinality
    ctx = EvalContext(config)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    results = []
    for i in range(args.count):
        chosen = [int(rng.integers(len(genomes))) for _ in range(slots)]
        trees = [genomes[c] for c in chosen]
        layers = [heterogeneous_layer(range(slots), cardinality)
                  for _ in range(config.network.layers)]
        try:
            curve = ctx.train_layers(layers, trees, stable_seed(config.seed, i, *chosen),
                                     epochs=config.evolution.partial_epochs)
            fitness = curve.lower_is_better()[-1]
        except TrainingDiverged:
            fitness = math.inf
        results.append((fitness, [serialize(t) for t in trees]))
        print(f"network {i + 1}/{args.count}: fitness {fitness}")
    results.sort(key=lambda r: r[0])
    rows = [(rank + 1, fitness, "|".join(texts))
            for rank, (fitness, texts) in enumerate(results)]
    write_csv(args.out or "hetero.csv", ("rank", "fitness", "genomes"), rows)
    return 0


# --- small commands -----------------------------------------------------------------


def cmd_distance(args) -> int:
    print(tree_distance(read_genome(args.genome_a), read_genome(args.genome_b)))
    return 0


def cmd_validate(args) -> int:
    report = validate_tree(read_genome(args.genome))
    print("\n".join(f"violation: {v}" for v in report) or "valid")
    return 1 if report else 0


def cmd_meta(args) -> int:
    if args.action == "train":
        if not args.dataset:
            raise ValueError("provide --dataset CURVES.csv")
        samples = meta.load_samples_csv(args.dataset)
        cfg = meta.MetaConfig() if args.config is None else args.experiment.meta
        if args.seed is not None:
            cfg.seed = args.seed
        model = meta.train_meta(samples, cfg)
        out = args.out or "meta_model.npz"
        meta.save_model(model, out)
        print(f"saved model to {out}")
        return 0
    # predict
    if not args.model:
        raise ValueError("provide --model MODEL.npz")
    model = meta.load_model(args.model)
    if not args.curve:
        raise ValueError("provide --curve v1,...,v10")
    try:
        values = [float(v) for v in args.curve.split(",")]
        prediction = float(model.predict_batch([values])[0])
    except ValueError as exc:
        raise ValueError(f"--curve: {exc}") from exc
    print(prediction)
    return 0


# --- parser -------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecell",
        description="Evolve gated recurrent cells encoded as trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--precision", type=int, choices=(32, 64), default=None)

    p = sub.add_parser("evolve", help="run the evolutionary search")
    common(p)
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in the output directory")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("train", help="train one genome and emit its curve")
    p.add_argument("genome", help="genome text file")
    common(p)
    p.add_argument("--out", default=None, help="curve CSV path")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock seconds in the curve CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hetero", help="random heterogeneous network sweep")
    p.add_argument("pool", help="directory of genome files")
    common(p)
    p.add_argument("--count", type=_int_at_least(0), required=True,
                   help="number of networks to build")
    p.add_argument("--out", default=None, help="ranked results CSV")
    p.set_defaults(func=cmd_hetero)

    p = sub.add_parser("distance", help="structural distance between two genomes")
    p.add_argument("genome_a")
    p.add_argument("genome_b")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("validate", help="check a genome against every rule")
    p.add_argument("genome")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("meta", help="train or query the curve predictor")
    p.add_argument("action", choices=("train", "predict"))
    p.add_argument("--dataset", help="curve CSV (train)")
    p.add_argument("--model", help="model checkpoint (predict)")
    p.add_argument("--curve", help="comma-separated 10-epoch prefix (predict)")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_meta)
    return parser


def main(argv=None) -> int:
    keep_freed_heap()
    args = make_parser().parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            args.experiment = _load_experiment(args)
        return args.func(args)
    except OSError as exc:
        # every command's file errors end here; one that names no file is
        # no file problem: let it show
        if exc.filename is None:
            raise
        message = f"{exc.filename}: {exc.strerror or exc}"
    except (ValueError, configparser.Error) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
