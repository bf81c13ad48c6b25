"""Candidate fitness evaluation: genome text -> partial-training curve.

The evaluator is process-pool friendly: workers rebuild the task from a
small payload once (initializer) and train each candidate from a seed
derived from the genome itself, so results do not depend on scheduling.
Curves are lower-is-better (perplexity as-is, music as 1 - F1).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .config import ExperimentConfig
from .data import (
    SequenceTask,
    char_task_from_text,
    delayed_copy_task,
    generate_babble_text,
    load_char_corpus,
    load_pianoroll,
    music_task_from_roll,
)
from .grammar import parse
from .network import NetworkSpec, build_network, homogeneous_spec
from .training import TrainConfig, TrainingDiverged, train


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
        return load_char_corpus(task.data_path)
    if task.name == "music":
        return music_task_from_roll(load_pianoroll(task.data_path))
    raise ValueError(f"unknown task {task.name!r}")


class EvalContext:
    """Holds the task and configs; maps genome text to a fitness curve."""

    def __init__(self, config: ExperimentConfig, epochs: int | None = None):
        self.config = config
        self.task = build_task(config)
        if epochs is not None:
            self.epochs = epochs
        elif config.evolution.fitness_mode == "full_train":
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
        if task.kind == "tokens":
            spec = NetworkSpec(layers, self.config.network.embedding_dim,
                               vocab_size=task.vocab_size, head="softmax")
        else:
            spec = NetworkSpec(layers, 0, io_dim=task.io_dim, head="sigmoid")
        network = build_network(spec, trees, np.random.Generator(np.random.PCG64(seed)),
                                dtype=self.dtype)
        cfg = TrainConfig(**{f: getattr(self.config.train, f)
                             for f in ("unroll_steps", "batch_size", "optimizer",
                                       "lr", "lr_decay", "decay_after_epoch",
                                       "dropout_ff", "dropout_rec", "l2",
                                       "grad_clip_norm")},
                          epochs=epochs if epochs is not None else self.epochs,
                          seed=seed)
        return train(network, task, cfg)

    def __call__(self, text: str):
        """Fitness curve for one genome; divergence yields None (worst)."""
        try:
            curve = self.train_genome(text)
        except TrainingDiverged:
            return None
        if curve.metric_name == "f1":
            return [1.0 - v for v in curve.metrics]
        return list(curve.metrics)


_WORKER_CTX: dict = {}


def _init_worker(config_text: str, epochs) -> None:
    from .config import parse_config

    _WORKER_CTX["ctx"] = EvalContext(parse_config(config_text), epochs)


def _eval_in_worker(text: str):
    return _WORKER_CTX["ctx"](text)
