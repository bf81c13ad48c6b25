"""Task data: character corpora, piano-roll matrices, and synthetic streams.

Every task reduces to aligned (input, target) streams per split.  A task
with a vocabulary is a token task and trains against a softmax head over
its integer ids; the piano-roll task feeds 88-wide int8 0/1 frames to a
sigmoid head, predicting the next frame, so a roll with T timesteps
yields T-1 usable steps.
:func:`read_text` reads every text input file (corpora, rolls, genomes,
pools, configs and curve datasets), so one that is not UTF-8 is named in
its error; :func:`atomic_write` writes every output file but the
append-only lineage log, so a failed write leaves the previous file as it
was.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PIANO_PITCHES = 88
CHAR_FRACTIONS = (0.9, 0.05, 0.05)    # train, valid, test
MUSIC_FRACTIONS = (0.6, 0.2, 0.2)


def read_text(path) -> str:
    """The text of a UTF-8 file, with universal newlines; raises OSError if
    it cannot be read, and ValueError naming it if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def atomic_write(path, content: str | bytes) -> None:
    """Write ``content`` (text as UTF-8) to a temp file beside ``path``, then
    rename it over ``path``, making its directory if missing; an interrupted
    write leaves ``path`` as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file 0o600; give it the mode a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(content.encode("utf-8") if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the file asked for, not the temp file
            exc.filename, exc.filename2 = str(path), None
        raise


@dataclass
class SequenceTask:
    """Aligned input/target streams per split.

    A task with ``vocab_size`` > 0 has int token streams, for a softmax head
    over the vocabulary; otherwise int8 0/1 frame streams ``io_dim`` wide,
    for a sigmoid head per pitch.
    """

    splits: dict[str, tuple[np.ndarray, np.ndarray]]
    vocab_size: int = 0
    io_dim: int = 0

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.splits or len(self.splits[name][0]) == 0:
            raise ValueError(f"empty or missing split {name!r}")
        return self.splits[name]


def _contiguous_splits(stream: np.ndarray, fractions) -> dict:
    """Cut one stream into train/valid/test runs, in order, and pair each
    run's steps with their successors as (input, target)."""
    n = len(stream)
    bounds = (0, int(n * fractions[0]), int(n * (fractions[0] + fractions[1])), n)
    splits = {}
    for name, lo, hi in zip(("train", "valid", "test"), bounds, bounds[1:]):
        chunk = stream[lo:hi]
        splits[name] = (chunk[:-1], chunk[1:])
    return splits


# --- character language modeling -------------------------------------------


def char_task_from_text(text: str) -> SequenceTask:
    """Character-level next-token prediction over one UTF-8 text."""
    if not text:
        raise ValueError("empty corpus text")
    vocab = sorted(set(text))
    stoi = {ch: i for i, ch in enumerate(vocab)}
    ids = np.array([stoi[ch] for ch in text], dtype=np.int64)
    return SequenceTask(_contiguous_splits(ids, CHAR_FRACTIONS), vocab_size=len(vocab))


def generate_babble_text(n_chars: int, seed: int = 0) -> str:
    """Deterministic pseudo-text: seeded word soup with clause structure.

    Stands in for a bundled corpus so desk runs need no external data;
    any UTF-8 text file can be supplied instead.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    syllables = ["ba", "be", "bo", "da", "de", "di", "ka", "ko", "la", "le",
                 "li", "lo", "ma", "mi", "mo", "na", "ne", "no", "ra", "re",
                 "ri", "ro", "sa", "se", "so", "ta", "te", "ti", "to", "va"]
    words = ["".join(rng.choice(syllables, size=rng.integers(1, 4)))
             for _ in range(400)]
    weights = rng.dirichlet(np.full(len(words), 0.3))
    out: list[str] = []
    total = 0
    while total < n_chars:
        clause_len = int(rng.integers(4, 12))
        clause = rng.choice(words, size=clause_len, p=weights)
        sentence = " ".join(clause)
        if rng.random() < 0.5:
            sentence = sentence.capitalize()
        sentence += rng.choice([".", ".", ",", "?"]) + " "
        out.append(sentence)
        total += len(sentence)
    return "".join(out)[:n_chars]


# --- synthetic memory task ---------------------------------------------------


def delayed_copy_task(vocab_size: int = 8, delay: int = 4,
                      train_tokens: int = 12_000, valid_tokens: int = 3_000,
                      test_tokens: int = 3_000, seed: int = 0) -> SequenceTask:
    """Predict the token seen ``delay`` steps earlier.

    The target stream is the input stream shifted by the delay, so a cell
    must hold state across the gap; the first ``delay`` positions of each
    split wrap around and stay unpredictable noise at a constant floor.
    """
    if delay < 1:
        raise ValueError("delay must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    splits = {}
    for name, n in (("train", train_tokens), ("valid", valid_tokens),
                    ("test", test_tokens)):
        stream = rng.integers(0, vocab_size, size=n, dtype=np.int64)
        target = np.roll(stream, delay)
        splits[name] = (stream, target)
    return SequenceTask(splits, vocab_size=vocab_size)


# --- piano rolls --------------------------------------------------------------


def load_pianoroll(path) -> np.ndarray:
    """Read an 88 x T binary matrix from delimited text: one row per pitch,
    entries split by spaces or commas, blank lines skipped.  An entry that
    is not an integer, or a row of another length than the first, raises
    ``ValueError`` as ``<path>:<line>: <reason>``; a wrong row count or an
    entry other than 0 or 1 as ``<path>: <reason>``."""
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        cells = line.replace(",", " ").split()
        if not cells:
            continue
        try:
            rows.append([int(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if len(cells) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} columns, "
                             f"got {len(cells)}")
    if len(rows) != PIANO_PITCHES:
        raise ValueError(f"{path}: piano roll must have {PIANO_PITCHES} rows, "
                         f"got {len(rows)}")
    roll = np.array(rows)
    if not np.isin(roll, (0, 1)).all():
        raise ValueError(f"{path}: piano roll entries must be 0 or 1")
    return roll.astype(np.int8)


def music_task_from_roll(roll: np.ndarray) -> SequenceTask:
    """Next-frame prediction; splits are contiguous in time (60/20/20)."""
    roll = np.asarray(roll)
    if roll.shape[0] != PIANO_PITCHES:
        raise ValueError(f"expected {PIANO_PITCHES} pitch rows")
    frames = roll.T.astype(np.int8)  # (T, 88)
    return SequenceTask(_contiguous_splits(frames, MUSIC_FRACTIONS), io_dim=PIANO_PITCHES)


def generate_pianoroll(timesteps: int, seed: int = 0) -> np.ndarray:
    """Synthetic roll: drifting chords plus a walking bass line."""
    rng = np.random.Generator(np.random.PCG64(seed))
    roll = np.zeros((PIANO_PITCHES, timesteps), dtype=np.int8)
    chord_root = int(rng.integers(30, 50))
    bass = 20
    for t in range(timesteps):
        if t % 8 == 0:
            chord_root = int(np.clip(chord_root + rng.integers(-4, 5), 24, 60))
        for offset in (0, 4, 7):
            roll[chord_root + offset, t] = 1
        bass = int(np.clip(bass + rng.integers(-2, 3), 12, 30))
        roll[bass, t] = 1
    return roll


def save_pianoroll(path, roll: np.ndarray) -> None:
    atomic_write(path, "".join(" ".join(str(int(v)) for v in row) + "\n"
                               for row in np.asarray(roll, dtype=np.int8)))


# --- batching ----------------------------------------------------------------


def make_streams(inputs: np.ndarray, targets: np.ndarray,
                 batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold aligned streams into batch_size parallel columns.

    Trailing remainder tokens are dropped; result shapes are
    (batch_size, length) for tokens or (batch_size, length, dim) for frames.
    """
    n = (len(inputs) // batch_size) * batch_size
    if n == 0:
        raise ValueError(f"split too small for batch size {batch_size}")
    x = inputs[:n].reshape(batch_size, -1, *inputs.shape[1:])
    y = targets[:n].reshape(batch_size, -1, *targets.shape[1:])
    return x, y
