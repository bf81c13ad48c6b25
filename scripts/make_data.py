#!/usr/bin/env python3
"""Generate the bundled desk-scale datasets: a seeded pseudo-text corpus
for character modeling and a synthetic piano-roll matrix.

Any real UTF-8 text or 88-row 0/1 matrix file can be dropped in instead;
these generators just make the repository self-contained.
"""

import argparse
from pathlib import Path

from treecell.data import (atomic_write, generate_babble_text, generate_pianoroll,
                           save_pianoroll)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--corpus-chars", type=int, default=1_000_000)
    parser.add_argument("--roll-steps", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out_dir)
    corpus = out / "corpus.txt"
    atomic_write(corpus, generate_babble_text(args.corpus_chars, args.seed))
    print(f"wrote {corpus} ({corpus.stat().st_size} bytes)")
    roll_path = out / "pianoroll.txt"
    save_pianoroll(roll_path, generate_pianoroll(args.roll_steps, args.seed))
    print(f"wrote {roll_path}")


if __name__ == "__main__":
    main()
