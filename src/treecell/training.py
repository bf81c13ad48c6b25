"""Training loop: truncated backpropagation through time with state
carryover, variational dropout, global-norm gradient clipping, and the
two optimizer schedules (plain SGD with late decay, Adam).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import SequenceTask, make_streams
from .network import Network, NonFiniteCellInput


@dataclass
class TrainConfig:
    unroll_steps: int = 35
    batch_size: int = 20
    epochs: int = 10
    optimizer: str = "sgd"          # sgd | adam
    lr: float = 1.0
    lr_decay: float = 0.9
    decay_after_epoch: int = 6
    dropout_ff: float = 0.4
    dropout_rec: float = 0.15
    l2: float = 1e-4
    grad_clip_norm: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def lr_at(self, epoch: int) -> float:
        """SGD's learning rate for a 1-based epoch index."""
        extra = max(0, epoch - self.decay_after_epoch)
        return self.lr * (self.lr_decay ** extra)


@dataclass
class TrainingCurve:
    metric_name: str                  # perplexity | f1
    metrics: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def final(self) -> float:
        return self.metrics[-1]

    def lower_is_better(self) -> list[float]:
        """The metrics as a fitness curve: perplexity as-is, F1 as 1 - F1."""
        if self.metric_name == "f1":
            return [1.0 - v for v in self.metrics]
        return list(self.metrics)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


# --- losses -------------------------------------------------------------------


def softmax_ce(logits: np.ndarray, targets: np.ndarray):
    """Mean next-token cross-entropy and its logit gradient."""
    b, l, v = logits.shape
    # each row's max as a leading-axis max over the (V, N) transposed copy,
    # far cheaper than a last-axis max over short rows.  A max is exact in
    # any order, and the sign of a zero max does not survive exp.
    row_max = np.ascontiguousarray(logits.reshape(-1, v).T).max(axis=0)
    shifted = logits - row_max.reshape(b, l, 1)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    flat = probs.reshape(-1, v)
    idx = targets.reshape(-1)
    picked = flat[np.arange(flat.shape[0]), idx]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dlogits = flat.copy()
    dlogits[np.arange(flat.shape[0]), idx] -= 1.0
    dlogits /= flat.shape[0]
    return loss, dlogits.reshape(logits.shape)


def sigmoid_bce(logits: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy from logits, elementwise over all cells."""
    z, y = logits, targets
    loss_elems = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.mean(loss_elems))
    probs = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    dlogits = (probs - y) / y.size
    return loss, dlogits


# --- optimizers -----------------------------------------------------------------


class SGD:
    def __init__(self, config: TrainConfig):
        self.config = config
        self.epoch = 1

    def step(self, params, grads):
        """One update of ``params`` (a ``FlatParams``) by ``grads``, of the
        same layout, in one pass over the flat vectors."""
        params.flat -= self.config.lr_at(self.epoch) * grads.flat


def adam_update(p, g, m, v, t: int, lr) -> None:
    """One Adam step on flat vectors, in place: ``p`` the parameters, ``g``
    their gradient, ``m`` and ``v`` the moments, ``t`` the 1-based step.

    Each value is rounded as in ``p -= lr * mhat / (sqrt(vhat) + eps)``
    with ``m = beta1 * m + (1 - beta1) * g`` and ``v = beta2 * v +
    (1 - beta2) * g * g``; keep that order, or the results change bits.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    step = m / (1 - beta1 ** t)
    denom = np.sqrt(v / (1 - beta2 ** t))
    denom += eps
    step *= lr
    step /= denom
    p -= step


class Adam:
    def __init__(self, config: TrainConfig):
        self.config = config
        self.m = self.v = None
        self.t = 0
        self.epoch = 1

    def step(self, params, grads):
        """One update of ``params`` (a ``FlatParams``) by ``grads``, of the
        same layout, in one pass over the flat vectors."""
        self.t += 1
        if self.m is None:
            self.m = np.zeros_like(grads.flat)
            self.v = np.zeros_like(grads.flat)
        adam_update(params.flat, grads.flat, self.m, self.v, self.t, self.config.lr)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "adam":
        return Adam(config)
    if config.optimizer == "sgd":
        return SGD(config)
    raise ValueError(f"unknown optimizer {config.optimizer!r}")


def clip_gradients(grads, max_norm: float) -> float:
    """Scale ``grads`` (a ``FlatParams``) so the global norm is at most
    max_norm.

    The norm adds one sum per entry, in layout order.  Each is rounded as
    ``np.sum(g * g)`` rounds it; one ``reduceat`` over the flat squares
    would not round the same.
    """
    squares = grads.flat * grads.flat
    total = 0.0
    for _, lo, hi, _ in grads.layout:
        total += float(np.add.reduce(squares[lo:hi]))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        grads.flat *= max_norm / (norm + 1e-12)
        return max_norm
    return norm


def _l2_ranges(layout) -> list[tuple[int, int]]:
    """The flat ranges of the runs of adjacent entries in ``layout`` that
    have two or more dimensions, the entries the L2 term decays.

    Ranges rather than a 0/1 mask leave 1-D entries untouched, and with them
    the sign of a zero gradient.
    """
    ranges: list[tuple[int, int]] = []
    for _, lo, hi, shape in layout:
        if len(shape) < 2:
            continue
        if ranges and ranges[-1][1] == lo:
            ranges[-1] = (ranges[-1][0], hi)
        else:
            ranges.append((lo, hi))
    return ranges


# --- dropout masks ----------------------------------------------------------------


def draw_masks(network: Network, batch: int, config: TrainConfig,
               rng: np.random.Generator):
    """One inverted-dropout mask set per unrolled chunk (variational style):
    the same mask is reused at every timestep of the chunk."""
    if config.dropout_ff <= 0 and config.dropout_rec <= 0:
        return None
    spec = network.spec
    dtype = network.dtype

    def mask(shape, rate):
        if rate <= 0:
            return np.ones(shape, dtype=dtype)
        keep = 1.0 - rate
        return (rng.random(shape) < keep).astype(dtype) / keep

    ff = []
    rec = []
    prev = spec.in_dim
    for layer in spec.layers:
        ff.append(mask((batch, prev), config.dropout_ff))
        rec.append(mask((batch, layer.width), config.dropout_rec))
        prev = layer.width
    out = mask((batch, prev), config.dropout_ff)
    return {"ff": ff, "rec": rec, "out": out}


# --- evaluation ----------------------------------------------------------------


def _stream_logits(network: Network, inputs, targets, batch_size, unroll):
    """Yield (logits, target chunk) over a split with carried state."""
    x, y = make_streams(inputs, targets, batch_size)
    states = network.zero_states(batch_size)
    length = x.shape[1]
    for start in range(0, length, unroll):
        xc = x[:, start:start + unroll]
        yc = y[:, start:start + unroll]
        logits, states, _ = network.forward_chunk(xc, states)
        yield logits, yc


def eval_perplexity(network: Network, inputs, targets, batch_size: int = 20,
                    unroll: int = 35) -> float:
    """exp(mean next-token cross-entropy) over the split."""
    total, count = 0.0, 0
    for logits, yc in _stream_logits(network, inputs, targets, batch_size, unroll):
        loss, _ = softmax_ce(logits, yc)
        n = yc.size
        total += loss * n
        count += n
    return float(np.exp(total / count))


def micro_f1(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Frame-level micro-averaged F1 over all (pitch, timestep) cells."""
    pred = np.asarray(predictions, dtype=bool)
    targ = np.asarray(targets, dtype=bool)
    tp = int(np.sum(pred & targ))
    fp = int(np.sum(pred & ~targ))
    fn = int(np.sum(~pred & targ))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def eval_f1(network: Network, inputs, targets, batch_size: int = 20,
            unroll: int = 35) -> float:
    """Micro F1 of sigmoid outputs thresholded at 0.5 over the split."""
    pred, targ = [], []
    for logits, yc in _stream_logits(network, inputs, targets, batch_size, unroll):
        pred.append((1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500))) >= 0.5).ravel())
        targ.append((yc >= 0.5).ravel())
    return micro_f1(np.concatenate(pred), np.concatenate(targ))


# --- the training loop ------------------------------------------------------------


def train(network: Network, task: SequenceTask, config: TrainConfig) -> TrainingCurve:
    """Train with truncated BPTT and report the validation metric per epoch.

    The final hidden states of each minibatch chunk seed the next chunk;
    states reset to zero at each epoch start.  Deterministic given the
    config seed (single-threaded).
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    x, y = make_streams(*task.split("train"), config.batch_size)
    vx, vy = task.split("valid")
    # a valid split too small to fill a batch is an error, not a divergence
    make_streams(vx, vy, config.batch_size)
    optimizer = make_optimizer(config)
    is_tokens = task.kind == "tokens"
    curve = TrainingCurve("perplexity" if is_tokens else "f1")
    length = x.shape[1]
    decayed = _l2_ranges(network.params.layout) if config.l2 > 0 else []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        optimizer.epoch = epoch
        states = network.zero_states(config.batch_size)
        for bi, start in enumerate(range(0, length, config.unroll_steps)):
            xc = x[:, start:start + config.unroll_steps]
            yc = y[:, start:start + config.unroll_steps]
            masks = draw_masks(network, config.batch_size, config, rng)
            try:
                # unstable candidates may overflow; the per-layer check on
                # the cell inputs and the loss check turn that into a
                # divergence signal
                with np.errstate(over="ignore", invalid="ignore"):
                    logits, states, cache = network.forward_chunk(
                        xc, states, masks=masks, record=True)
            except NonFiniteCellInput as exc:
                raise TrainingDiverged(epoch, bi) from exc
            if is_tokens:
                loss, dlogits = softmax_ce(logits, yc)
            else:
                loss, dlogits = sigmoid_bce(logits, yc)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, bi)
            with np.errstate(over="ignore", invalid="ignore"):
                grads = network.backward_chunk(cache, dlogits)
            del cache  # or it stays alive through the next chunk's forward
            for lo, hi in decayed:
                grads.flat[lo:hi] += config.l2 * network.params.flat[lo:hi]
            clip_gradients(grads, config.grad_clip_norm)
            optimizer.step(network.params, grads)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if is_tokens:
                    metric = eval_perplexity(network, vx, vy, config.batch_size,
                                             config.unroll_steps)
                else:
                    metric = eval_f1(network, vx, vy, config.batch_size,
                                     config.unroll_steps)
        except NonFiniteCellInput as exc:
            raise TrainingDiverged(epoch, -1) from exc
        if not np.isfinite(metric):
            raise TrainingDiverged(epoch, -1)
        curve.metrics.append(metric)
        curve.seconds.append(time.perf_counter() - started)
    return curve
