"""Command-line entry points.

Commands: evolve, train, hetero, distance, meta, validate.  All file
outputs are written atomically (temp file + rename), CSVs carry a header
row and trailing newline, and runs are byte-reproducible given a seed,
single worker, and 64-bit precision.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import evolution, meta
from .config import ExperimentConfig, emit_config, load_config
from .fitness import EvalContext, _eval_in_worker, _init_worker, stable_seed
from .genetic import tree_distance
from .grammar import ParseError, parse, read_population, serialize
from .network import heterogeneous_layer
from .training import TrainingDiverged
from .tree import validate as validate_tree


def atomic_write(path, content: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_genome(path):
    """The genome in a text file; None, with the error printed, if the file
    cannot be read or does not parse."""
    try:
        return parse(Path(path).read_text(encoding="utf-8").strip())
    except OSError as exc:
        _fail(str(exc))
    except Exception as exc:
        _fail(f"genome does not parse: {exc}")
    return None


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
            return _fail(f"meta_predicted fitness needs partial_epochs = {meta.PREFIX_LEN}, "
                         f"the predictor's prefix length; got "
                         f"{config.evolution.partial_epochs}")
        if not config.paths.meta_model:
            return _fail("meta_predicted fitness requires paths.meta_model")
        predictor = meta.load_model(config.paths.meta_model)
    try:
        ctx = EvalContext(config)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.json"

    state, lineage_bytes = None, 0
    if args.resume and checkpoint_path.exists():
        try:
            state, lineage_bytes = evolution.RunState.from_json(
                checkpoint_path.read_text(encoding="utf-8"), config.evolution)
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(f"corrupt checkpoint {checkpoint_path}: {exc}")
        if state.next_generation >= config.evolution.generations:
            print(f"run already finished; best fitness {state.best_fitness}")
            print(serialize(state.best_genome))
            return 0

    lineage_path = out_dir / "lineage.log"
    with open(lineage_path, "a" if state is not None else "w", encoding="utf-8") as sink:
        # drop lines a crash left behind after the checkpoint was written;
        # never pad a log that is already shorter
        sink.truncate(min(lineage_bytes, sink.tell()))
        lineage = evolution.LineageLog(sink)
        if state is None:
            state = evolution.RunState.start(config.evolution, lineage)

        def on_generation(stats, population, spec_state, records):
            write_csv(out_dir / "stats.csv", STATS_HEADER,
                      [dataclasses.astuple(h) for h in state.history])
            atomic_write(checkpoint_path, state.to_json(sink.tell()))

        pool = None
        try:
            if args.workers > 1:
                pool = ProcessPoolExecutor(
                    max_workers=args.workers, initializer=_init_worker,
                    initargs=(emit_config(config),))
                evaluator = _eval_in_worker
            else:
                evaluator = ctx
            evolution.run(config.evolution, evaluator, predictor=predictor,
                          lineage=lineage, on_generation=on_generation,
                          start_state=state, pool=pool)
        finally:
            if pool is not None:
                pool.shutdown()

    best = serialize(state.best_genome)
    atomic_write(out_dir / "best.genome", best + "\n")
    print(f"best fitness: {state.best_fitness}")
    print(best)
    return 0


# --- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = args.experiment
    genome = _read_genome(args.genome)
    if genome is None:
        return 1
    report = validate_tree(genome)
    if report:
        for violation in report:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    try:
        ctx = EvalContext(config)
        curve = ctx.train_genome(serialize(genome), epochs=config.train.epochs,
                                 seed=config.seed)
    except TrainingDiverged as exc:
        return _fail(f"training diverged at epoch {exc.epoch}, batch {exc.batch}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    seconds = curve.seconds if args.timing else [0.0] * len(curve.metrics)
    rows = [(i + 1, m, s)
            for i, (m, s) in enumerate(zip(curve.metrics, seconds))]
    out = args.out or "curve.csv"
    write_csv(out, ("epoch", curve.metric_name, "seconds"), rows)
    print(f"final {curve.metric_name}: {curve.final()}")
    return 0


# --- hetero ------------------------------------------------------------------------


def cmd_hetero(args) -> int:
    config = args.experiment
    pool_dir = Path(args.pool)
    if not pool_dir.exists():
        return _fail(f"pool path {pool_dir} does not exist")
    files = sorted(p for p in pool_dir.iterdir() if p.is_file())
    genomes = []
    for f in files:
        try:
            genomes.extend(read_population(f))
        except ParseError as exc:
            return _fail(f"{f}:{exc}")
    if not genomes:
        return _fail("pool contains no genomes")
    cardinality = config.network.cardinality
    width = config.network.width
    if width % cardinality:
        return _fail(f"layer width {width} is not a multiple of cardinality {cardinality}")
    slots = width // cardinality
    try:
        ctx = EvalContext(config)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
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
    a = _read_genome(args.genome_a)
    b = None if a is None else _read_genome(args.genome_b)
    if b is None:
        return 1
    print(tree_distance(a, b))
    return 0


def cmd_validate(args) -> int:
    genome = _read_genome(args.genome)
    if genome is None:
        return 1
    report = validate_tree(genome)
    if report:
        for violation in report:
            print(f"violation: {violation}")
        return 1
    print("valid")
    return 0


def cmd_meta(args) -> int:
    if args.action == "train":
        try:
            samples = meta.load_samples_csv(args.dataset)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
        cfg = meta.MetaConfig() if args.config is None else args.experiment.meta
        if args.seed is not None:
            cfg.seed = args.seed
        try:
            model = meta.train_meta(samples, cfg)
        except ValueError as exc:
            return _fail(str(exc))
        out = args.out or "meta_model.npz"
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        meta.save_model(model, out)
        print(f"saved model to {out}")
        return 0
    # predict
    try:
        model = meta.load_model(args.model)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if not args.curve:
        return _fail("provide --curve v1,...,v10")
    try:
        values = [float(v) for v in args.curve.split(",")]
        prediction = float(model.predict_batch([values])[0])
    except ValueError as exc:
        return _fail(f"--curve: {exc}")
    print(prediction)
    return 0


# --- parser -------------------------------------------------------------------------


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
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--count", type=int, required=True,
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
    args = make_parser().parse_args(argv)
    if getattr(args, "config", None) is not None:
        try:
            args.experiment = _load_experiment(args)
        except (OSError, ValueError, configparser.Error) as exc:
            return _fail(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
