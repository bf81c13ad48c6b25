"""Learning-curve fitness predictor.

A sequence-to-sequence ensemble reads the first ten epochs of a
validation-metric curve and predicts the final-epoch value, replacing
full training during evolution.  Two members share an architecture (two
recurrent layers of the package's own gated reference cell) and differ in
decoder rollout length, 30 steps versus 1; the ensemble prediction is the
mean of the members' final outputs.  The naive alternative it must beat
is simply reading the epoch-10 value.

Training records one cache per minibatch (every decoder step's tapes) and
drops it once its gradients are taken, so at most one cache is alive
during the fit; the backward itself lets each step's tapes go as it
consumes them.  A 30-step member's cache at width 40, two layers and
batch 50 holds about 9 MB: the tapes keep only what the reverse reads,
and the gated cell's reverse reads no base input, so no step's
projection stays alive.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .compiler import compile_tree, lstm_reference_tree
from .data import atomic_write, read_text
from .network import FlatParams, RecurrentLayers, init_uniform
from .training import adam_update

PREFIX_LEN = 10


@dataclass(frozen=True)
class CurveSample:
    """Ten-epoch prefix plus the final-epoch target.

    ``continuation`` optionally carries the metric values between epoch 11
    and the final epoch (ending at the target); when present it supervises
    the long decoder's intermediate steps.  The on-disk dataset format
    stays prefix + target only.
    """

    prefix: tuple               # validation metric at epochs 1..10, positive
    target: float               # validation metric at the final epoch
    continuation: tuple | None = None

    def __post_init__(self):
        if len(self.prefix) != PREFIX_LEN:
            raise ValueError(f"prefix must have {PREFIX_LEN} values")
        if min(self.prefix) <= 0 or self.target <= 0:
            raise ValueError("curve values must be positive")
        if self.continuation is not None and min(self.continuation) <= 0:
            raise ValueError("curve values must be positive")


@dataclass
class MetaConfig:
    width: int = 40
    layers: int = 2
    decoder_lens: tuple = (30, 1)
    epochs: int = 400
    lr: float = 0.005
    batch_size: int = 0            # 0 = full batch
    patience: int = 60
    val_fraction: float = 0.2
    seed: int = 0
    min_samples: int = 100

    def __post_init__(self):
        for name in ("width", "layers", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.decoder_lens or min(self.decoder_lens) < 1:
            raise ValueError(f"decoder_lens must list one or more lengths >= 1, "
                             f"got {self.decoder_lens}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


def baseline_epoch10(prefix) -> float:
    """The naive fitness: the epoch-10 validation value itself."""
    return float(prefix[PREFIX_LEN - 1])


def mae_percent(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.abs(p - t) / t) * 100.0)


def kendall_tau(a, b) -> float:
    """Rank correlation (tau-a): concordant minus discordant pair fraction."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(a)
    if n < 2:
        raise ValueError("need at least two points")
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    upper = np.triu_indices(n, k=1)
    return float(np.mean(da[upper] * db[upper]))


class _Seq2Seq:
    """One ensemble member: encoder over the log prefix, autoregressive
    decoder rolled out ``decoder_len`` steps; the final output is the
    log of the predicted final metric."""

    dtype = np.float64

    def __init__(self, decoder_len, config: MetaConfig, rng):
        self.decoder_len = decoder_len
        self.config = config
        slots = [[(compile_tree(lstm_reference_tree()), config.width)]] * config.layers
        params: dict[str, np.ndarray] = {}
        self.encoder = RecurrentLayers(slots, 1, rng, params, "enc.", self.dtype)
        self.decoder = RecurrentLayers(slots, 1, rng, params, "dec.", self.dtype)
        params["head.W"] = init_uniform(rng, (config.width, 1), config.width, self.dtype)
        params["head.b"] = np.zeros(1, dtype=self.dtype)
        self.params = FlatParams.pack(params)

    def forward(self, prefix_log, record=False):
        batch = prefix_log.shape[0]
        # the encoder reads the prefix as one sequence, (PREFIX_LEN, batch, 1)
        _, states, enc_cache = self.encoder.forward(
            self.params, prefix_log.T[:, :, None], self.encoder.zero_states(batch),
            record=record)
        dec_caches = [] if record else None
        inp = prefix_log[:, -1:]
        outs = np.empty((batch, self.decoder_len), dtype=self.dtype)
        for j in range(self.decoder_len):
            # each decoder step reads the previous output: a 1-step sequence
            hs, states, cache = self.decoder.forward(self.params, inp[None], states,
                                                     record=record)
            h_top = hs[0]
            out = h_top @ self.params["head.W"] + self.params["head.b"]
            outs[:, j] = out[:, 0]
            if record:
                dec_caches.append({"stack": cache, "h_top": h_top})
            inp = out
        if record:
            return outs, {"enc": enc_cache, "dec": dec_caches}
        return outs

    def backward(self, cache, douts):
        """Adjoints of all parameters for a recorded forward.

        ``douts`` holds the loss adjoint of every decoder output, shape
        (batch, decoder_len); unsupervised steps pass zero columns and
        still receive gradient through the autoregressive feedback path.
        Consumes ``cache``: each decoder step's entry is dropped once used,
        and a second backward on the same cache raises ValueError.
        """
        dec_caches = cache["dec"]
        if len(dec_caches) != self.decoder_len:
            raise ValueError("this cache was consumed by an earlier backward")
        grads = self.params.zeros_like()
        batch = douts.shape[0]
        carry = self.decoder.zero_states(batch)
        dout_next = None  # adjoint fed back from the following step's input
        for j in range(self.decoder_len - 1, -1, -1):
            step = dec_caches.pop()
            dout = douts[:, j:j + 1].copy()
            if dout_next is not None:
                dout += dout_next
            grads["head.W"] += step["h_top"].T @ dout
            grads["head.b"] += dout.sum(axis=0)
            dh_top = dout @ self.params["head.W"].T
            # the previous step produced this step's input
            dout_next = self.decoder.backward(self.params, grads, step["stack"],
                                              dh_top[None], carry)[0]
        # the decoder's initial state is the encoder's final state; the
        # encoder's outputs feed nothing else
        zero_top = np.zeros((batch, self.config.width), self.dtype)
        self.encoder.backward(self.params, grads, cache["enc"],
                              np.broadcast_to(zero_top, (PREFIX_LEN, *zero_top.shape)), carry)
        return grads


@dataclass
class CurvePredictor:
    """Ensemble of two seq2seq members; prediction is their mean."""

    config: MetaConfig
    members: list = field(default_factory=list)

    def predict_batch(self, prefixes) -> np.ndarray:
        """Predicted final metric for each row of ``prefixes``, shape
        (n, PREFIX_LEN); every value must be finite and positive."""
        if not self.members:
            raise RuntimeError("model is not trained")
        prefixes = np.asarray(prefixes, dtype=np.float64)
        if prefixes.ndim != 2 or prefixes.shape[1] != PREFIX_LEN:
            raise ValueError(f"each prefix must have {PREFIX_LEN} values")
        if not np.all(np.isfinite(prefixes) & (prefixes > 0)):
            raise ValueError("prefix values must be finite and positive")
        logp = np.log(prefixes)
        member_preds = [np.exp(m.forward(logp)[:, -1]) for m in self.members]
        return np.mean(member_preds, axis=0)


def _adam_step(state, params, grads, lr):
    """One Adam update of a member's ``FlatParams`` by ``grads``; ``state``
    holds the step count and the flat moments."""
    state["t"] += 1
    adam_update(params.flat, grads.flat, state["m"], state["v"], state["t"], lr)


def _train_member(member: _Seq2Seq, train_x, train_y, val_x, val_y,
                  config: MetaConfig, rng, step_targets=None) -> None:
    """Minimize the mean absolute error percentage with early stopping.

    ``step_targets`` (n, decoder_len), when given, supervises every decoder
    step; otherwise only the final step carries loss.  Early stopping
    always watches the final-step error, the quantity used at prediction.
    """
    # start the head at the mean log target so gradients are on-scale
    member.params["head.b"][:] = float(np.mean(np.log(train_y)))
    opt = {"t": 0, "m": np.zeros_like(member.params.flat),
           "v": np.zeros_like(member.params.flat)}
    best_val = np.inf
    best_params = member.params.flat.copy()
    since_best = 0
    n = train_x.shape[0]
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    for _ in range(config.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            bx = train_x[idx]
            outs, cache = member.forward(bx, record=True)
            preds = np.exp(outs)
            douts = np.zeros_like(outs)
            if step_targets is not None:
                ys = step_targets[idx]
                douts = np.sign(preds - ys) * preds / ys / (len(idx) * outs.shape[1])
            else:
                by = train_y[idx]
                final = preds[:, -1]
                douts[:, -1] = np.sign(final - by) * final / by / len(idx)
            grads = member.backward(cache, douts)
            del cache  # or it stays alive through the next minibatch's forward
            _adam_step(opt, member.params, grads, config.lr)
        val_pred = np.exp(member.forward(val_x)[:, -1])
        val_mae = mae_percent(val_pred, val_y)
        if val_mae < best_val - 1e-9:
            best_val = val_mae
            best_params = member.params.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    member.params.flat[...] = best_params


def train_meta(samples, config: MetaConfig = MetaConfig()) -> CurvePredictor:
    """Train the two-member ensemble on CurveSamples.

    A ``val_fraction`` validation split decides when to stop; training is
    deterministic given the config seed.
    """
    samples = list(samples)
    if len(samples) < config.min_samples:
        raise ValueError(
            f"need at least {config.min_samples} samples, have {len(samples)}")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    order = rng.permutation(len(samples))
    n_val = max(1, int(len(samples) * config.val_fraction))
    val_idx = set(order[:n_val].tolist())
    train_set = [s for i, s in enumerate(samples) if i not in val_idx]
    val_set = [s for i, s in enumerate(samples) if i in val_idx]
    tx = np.log(np.array([s.prefix for s in train_set], dtype=np.float64))
    ty = np.array([s.target for s in train_set], dtype=np.float64)
    vx = np.log(np.array([s.prefix for s in val_set], dtype=np.float64))
    vy = np.array([s.target for s in val_set], dtype=np.float64)
    model = CurvePredictor(config)
    for dec_len in config.decoder_lens:
        member = _Seq2Seq(dec_len, config,
                          np.random.Generator(np.random.PCG64((config.seed, dec_len))))
        step_targets = _step_targets(train_set, dec_len)
        _train_member(member, tx, ty, vx, vy, config, rng, step_targets)
        model.members.append(member)
    return model


def _step_targets(samples, decoder_len):
    """Per-step decoder targets when every sample carries a continuation
    of matching length; otherwise None (final-step supervision only)."""
    if decoder_len <= 1:
        return None
    if any(s.continuation is None or len(s.continuation) != decoder_len
           for s in samples):
        return None
    return np.array([s.continuation for s in samples], dtype=np.float64)


# --- synthetic crossing-curve family ------------------------------------------


def synthetic_curves(n: int, seed: int = 0, epochs: int = 40,
                     noise: float = 0.01):
    """Exponential-decay curves whose early and final rankings disagree.

    v(e) = (a + b * exp(-lambda * (e-1))) * (1 + noise), with the decay
    rate positively tied to the asymptote: fast learners settle higher, so
    picking by the epoch-10 value is misleading while the full curve is
    predictable from its prefix.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = []
    curves = []
    for _ in range(n):
        lam = rng.uniform(0.03, 0.5)
        b = rng.uniform(2.0, 8.0)
        a = 4.0 + 3.0 * (lam - 0.03) / 0.47 + rng.uniform(-0.4, 0.4)
        e = np.arange(1, epochs + 1, dtype=np.float64)
        curve = (a + b * np.exp(-lam * (e - 1.0)))
        curve = curve * (1.0 + noise * rng.standard_normal(epochs))
        curve = np.maximum(curve, 0.1)
        curves.append(curve)
        samples.append(CurveSample(tuple(curve[:PREFIX_LEN]), float(curve[-1]),
                                   tuple(curve[PREFIX_LEN:])))
    return samples, curves


# --- persistence -----------------------------------------------------------------


CURVES_HEADER = ",".join([f"epoch{i}" for i in range(1, PREFIX_LEN + 1)] + ["final"])


def save_samples_csv(path, samples) -> None:
    rows = [",".join(repr(float(v)) for v in (*s.prefix, s.target)) for s in samples]
    atomic_write(path, "\n".join([CURVES_HEADER] + rows) + "\n")


def load_samples_csv(path):
    """The samples of a dataset :func:`save_samples_csv` wrote; a bad header
    or row raises ValueError naming the file and the line."""
    text = read_text(path)
    if not text:
        raise ValueError(f"{path}: empty curve dataset")
    header, *rows = text.split("\n")
    if header.strip() != CURVES_HEADER:
        raise ValueError(f"{path}:1: expected the header {CURVES_HEADER}")
    samples = []
    for lineno, line in enumerate(rows, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            values = [float(v) for v in line.split(",")]
            if len(values) != PREFIX_LEN + 1:
                raise ValueError(f"expected {PREFIX_LEN + 1} columns, got {len(values)}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        samples.append(CurveSample(tuple(values[:PREFIX_LEN]), values[-1]))
    return samples


def save_model(model: CurvePredictor, path) -> None:
    """Single-file .npz checkpoint with a format/version tag, written whole
    to ``path`` (see :func:`atomic_write`)."""
    arrays = {
        "format": np.array("treecell-meta"),
        "version": np.array(1),
        "config": np.array(json.dumps({
            "width": model.config.width,
            "layers": model.config.layers,
            "decoder_lens": list(model.config.decoder_lens),
            "seed": model.config.seed,
        })),
    }
    for i, member in enumerate(model.members):
        arrays[f"member{i}/decoder_len"] = np.array(member.decoder_len)
        for k, v in member.params.items():
            arrays[f"member{i}/{k}"] = v
    blob = io.BytesIO()
    np.savez(blob, **arrays)
    atomic_write(path, blob.getvalue())


def load_model(path) -> CurvePredictor:
    """The predictor :func:`save_model` wrote to ``path``.

    Raises OSError when the file cannot be read, and ValueError when it is
    not a whole curve-predictor checkpoint: another kind of file, a
    truncated one, or one that lacks an entry.
    """
    try:
        with np.load(path, allow_pickle=False) as blob:
            arrays = dict(blob)
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not a curve-predictor checkpoint: {path}") from exc
    if str(arrays.get("format")) != "treecell-meta":
        raise ValueError(f"not a curve-predictor checkpoint: {path}")
    try:
        if int(arrays["version"]) != 1:
            raise ValueError(f"unsupported checkpoint version {arrays['version']}")
        meta = json.loads(str(arrays["config"]))
        config = MetaConfig(width=meta["width"], layers=meta["layers"],
                            decoder_lens=tuple(meta["decoder_lens"]),
                            seed=meta["seed"])
        model = CurvePredictor(config)
        for i in range(len(config.decoder_lens)):
            member = _Seq2Seq(int(arrays[f"member{i}/decoder_len"]), config,
                              np.random.Generator(np.random.PCG64(0)))
            for k, param in member.params.items():
                saved = arrays[f"member{i}/{k}"]
                if saved.shape != param.shape:
                    raise ValueError(f"member{i}/{k} has shape {saved.shape}, "
                                     f"expected {param.shape}")
                param[...] = saved
            model.members.append(member)
    except KeyError as exc:
        raise ValueError(f"not a curve-predictor checkpoint: {path} has no {exc}") from exc
    return model
