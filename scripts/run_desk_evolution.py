#!/usr/bin/env python3
"""Desk-scale end-to-end experiment: evolve cells on the delayed-copy task,
then fully train the best genome and the starting tree and compare."""

import argparse
import sys
from pathlib import Path

from treecell import cli
from treecell.config import load_config
from treecell.fitness import EvalContext
from treecell.grammar import read_genome, serialize
from treecell.tree import seed_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/desk_evolution.ini")
    parser.add_argument("--out", default="runs/desk")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    code = cli.main(["evolve", "--config", args.config, "--out", args.out,
                     "--workers", str(args.workers)])
    if code:
        return code

    config = load_config(args.config)
    ctx = EvalContext(config)
    best_text = serialize(read_genome(Path(args.out, "best.genome")))
    full_epochs = config.train.epochs
    best_curve = ctx.train_genome(best_text, epochs=full_epochs, seed=config.seed)
    seed_curve = ctx.train_genome(serialize(seed_tree()), epochs=full_epochs,
                                  seed=config.seed)
    print(f"fully trained best genome: {best_curve.final():.4f}")
    print(f"fully trained seed tree:   {seed_curve.final():.4f}")
    rel = (seed_curve.final() - best_curve.final()) / seed_curve.final()
    print(f"relative improvement: {rel * 100:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
