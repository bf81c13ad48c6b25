"""Candidate fitness evaluation: genome text -> partial-training curve.

:class:`EvalContext` is the one evaluator.  It pickles, task arrays
included, so a process pool maps the parent's own context over genomes;
each candidate trains from a seed derived from the genome itself, so
results do not depend on which process trains it or when.
Curves are lower-is-better (perplexity as-is, music as 1 - F1).
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import os

import numpy as np

from .config import ExperimentConfig
from .data import (
    SequenceTask,
    char_task_from_text,
    delayed_copy_task,
    generate_babble_text,
    load_pianoroll,
    make_streams,
    music_task_from_roll,
    read_text,
)
from .grammar import parse
from .network import NetworkSpec, build_network, homogeneous_spec
from .training import TrainingDiverged, train


def stable_seed(*parts) -> int:
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def build_task(config: ExperimentConfig) -> SequenceTask:
    task = config.task
    if task.name == "synthetic":
        return delayed_copy_task(task.vocab_size, task.delay, task.train_tokens,
                                 task.valid_tokens, task.test_tokens,
                                 task.data_seed)
    if task.name == "char_lm":
        if not task.data_path:
            return char_task_from_text(
                generate_babble_text(task.train_tokens + task.valid_tokens
                                     + task.test_tokens, task.data_seed))
        return char_task_from_text(read_text(task.data_path))
    return music_task_from_roll(load_pianoroll(task.data_path))


class EvalContext:
    """Holds the task and configs; maps genome text to a fitness curve.

    The training budget comes from the config alone: ``train.epochs`` in
    ``full_train`` mode, ``partial_epochs`` otherwise.  A train or valid
    split too small to fill one batch raises ``ValueError``.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.task = build_task(config)
        for split in ("train", "valid"):
            make_streams(*self.task.split(split), config.train.batch_size)
        if config.evolution.fitness_mode == "full_train":
            self.epochs = config.train.epochs
        else:
            self.epochs = config.evolution.partial_epochs
        self.dtype = np.float64 if config.precision == 64 else np.float32

    def train_genome(self, text: str, epochs: int | None = None,
                     seed: int | None = None):
        """Train one genome; returns its raw metric curve."""
        net = self.config.network
        layers = homogeneous_spec(net.width, net.layers, net.embedding_dim).layers
        train_seed = seed if seed is not None else stable_seed(
            self.config.seed, text)
        return self.train_layers(layers, [parse(text)], train_seed, epochs)

    def train_layers(self, layers, trees, seed: int, epochs: int | None = None):
        """Train a network of ``layers`` over ``trees`` on the task; returns
        its raw metric curve.  ``seed`` drives initialisation and dropout."""
        task = self.task
        # only a token task embeds its inputs; frames feed the layers as they are
        embedding_dim = self.config.network.embedding_dim if task.vocab_size else 0
        spec = NetworkSpec(layers, embedding_dim, task.vocab_size, task.io_dim)
        network = build_network(spec, trees, np.random.Generator(np.random.PCG64(seed)),
                                dtype=self.dtype)
        cfg = dataclasses.replace(self.config.train, seed=seed,
                                  epochs=epochs if epochs is not None else self.epochs)
        return train(network, task, cfg)

    def __call__(self, text: str):
        """Fitness curve for one genome; divergence yields None (worst)."""
        try:
            return self.train_genome(text).lower_is_better()
        except TrainingDiverged:
            return None


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_heap() -> bool:
    """Keep freed heap memory in this process, on glibc; elsewhere a no-op.

    Otherwise glibc hands the heap's freed top back to the OS after most
    training chunks, and the next chunk page-faults it back in.  Up to
    64 MiB of freed heap stay resident, and blocks up to 32 MiB come from
    the heap, not ``mmap``.  Returns whether both settings took.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    # the mmap threshold first: setting the trim threshold alone freezes
    # the mmap threshold at 128 KiB, and every larger block goes to mmap
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)

