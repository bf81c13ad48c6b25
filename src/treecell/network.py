"""Recurrent networks built from compiled tree cells.

A layer holds one cell type across its full width (homogeneous) or
several cell types in fixed-cardinality column slots (heterogeneous).
Trainable parameters are the embedding, eight per-layer input projections
combining the layer input with the previous-step h, and the output head;
edges inside the cells carry no parameters, so the cell's memory-cell
count never changes the parameter count.  :class:`RecurrentLayers` is the
one layer engine; the curve predictor in ``meta`` builds on it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import CellState, cell_backward, cell_forward, compile_tree, zero_state
from .tree import N_BASE_INPUTS

DEFAULT_CARDINALITY = 20


@dataclass
class LayerSpec:
    width: int
    slots: list[tuple[int, int]]  # (tree index, cardinality); cardinalities sum to width


@dataclass
class NetworkSpec:
    layers: list[LayerSpec]
    embedding_dim: int          # 0 for raw frame inputs
    vocab_size: int = 0         # softmax head when > 0
    io_dim: int = 0             # sigmoid head width for frame tasks
    head: str = "softmax"       # softmax | sigmoid

    @property
    def out_dim(self) -> int:
        return self.vocab_size if self.head == "softmax" else self.io_dim

    @property
    def in_dim(self) -> int:
        return self.embedding_dim if self.embedding_dim > 0 else self.io_dim


def homogeneous_spec(width: int, n_layers: int, embedding_dim: int,
                     vocab_size: int = 0, io_dim: int = 0,
                     head: str = "softmax") -> NetworkSpec:
    layers = [LayerSpec(width, [(0, width)]) for _ in range(n_layers)]
    return NetworkSpec(layers, embedding_dim, vocab_size, io_dim, head)


def heterogeneous_layer(tree_indices, cardinality: int = DEFAULT_CARDINALITY) -> LayerSpec:
    slots = [(idx, cardinality) for idx in tree_indices]
    return LayerSpec(cardinality * len(slots), slots)


def init_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    """Weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), cast to ``dtype``."""
    limit = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class RecurrentLayers:
    """A stack of recurrent layers, stepped one time step at a time.

    Each layer projects its input and the previous-step h to the eight
    base inputs of every unit, then runs compiled cells over column slots.
    ``slots`` holds, per layer, (compiled cell, cardinality) pairs; the
    parameters ``{prefix}layer{i}.W|U|b`` are created in ``params``.
    """

    def __init__(self, slots, in_dim: int, rng: np.random.Generator, params: dict,
                 prefix: str = "", dtype=np.float64):
        self.dtype = dtype
        self.cells = []  # per layer: [(cell, lo, hi), ...]
        for layer in slots:
            offset = 0
            compiled = []
            for cell, card in layer:
                compiled.append((cell, offset, offset + card))
                offset += card
            self.cells.append(compiled)
        self.widths = [layer[-1][2] for layer in self.cells]
        self.names = [tuple(f"{prefix}layer{li}.{p}" for p in "WUb")
                      for li in range(len(self.cells))]
        prev = in_dim
        for (w_name, u_name, b_name), w in zip(self.names, self.widths):
            params[w_name] = init_uniform(rng, (prev, N_BASE_INPUTS * w), prev, dtype)
            params[u_name] = init_uniform(rng, (w, N_BASE_INPUTS * w), w, dtype)
            params[b_name] = np.zeros(N_BASE_INPUTS * w, dtype=dtype)
            prev = w

    def zero_states(self, batch: int) -> list[CellState]:
        return [zero_state((batch, w), self.dtype) for w in self.widths]

    def step(self, params, xin, states, masks=None, record: bool = False):
        """One time step up the stack; returns (top h, new states, caches).

        ``masks`` holds the ``ff``/``rec`` dropout masks or None.  The
        per-layer caches (None unless ``record``) feed :meth:`backward_step`.
        """
        new_states = []
        caches = [] if record else None
        for li, slots in enumerate(self.cells):
            w_name, u_name, b_name = self.names[li]
            state = states[li]
            h_prev = state.h
            if masks is not None:
                xin = xin * masks["ff"][li]
                h_prev = h_prev * masks["rec"][li]
            pre = xin @ params[w_name] + h_prev @ params[u_name] + params[b_name]
            batch, width = pre.shape[0], self.widths[li]
            base = pre.reshape(batch, N_BASE_INPUTS, width).transpose(1, 0, 2)
            tapes = []
            if len(slots) == 1:
                out = cell_forward(slots[0][0], base, state, record=record)
                if record:
                    out, tape = out
                    tapes.append(tape)
            else:
                out = CellState(np.empty((batch, width), dtype=self.dtype),
                                np.empty((batch, width), dtype=self.dtype),
                                np.empty((batch, width), dtype=self.dtype))
                for cell, lo, hi in slots:
                    sub = cell_forward(cell, base[:, :, lo:hi],
                                       CellState(state.h[:, lo:hi], state.c[:, lo:hi],
                                                 state.d[:, lo:hi]), record=record)
                    if record:
                        sub, tape = sub
                        tapes.append(tape)
                    out.h[:, lo:hi] = sub.h
                    out.c[:, lo:hi] = sub.c
                    out.d[:, lo:hi] = sub.d
            if record:
                caches.append({"xin": xin, "h_prev": h_prev, "tapes": tapes})
            new_states.append(out)
            xin = out.h
        return xin, new_states, caches

    def backward_step(self, params, grads, caches, dh_top, carry, masks=None):
        """One reverse time step down the stack; returns the input adjoint.

        Adds parameter adjoints into ``grads`` and replaces ``carry[li]``,
        the adjoints of layer ``li``'s previous-step h, c and d.
        """
        dh_above = dh_top
        for li in range(len(self.cells) - 1, -1, -1):
            slots = self.cells[li]
            cache = caches[li]
            w_name, u_name, b_name = self.names[li]
            dh = dh_above + carry[li].h
            batch, width = dh.shape[0], self.widths[li]
            if len(slots) == 1:
                cg = cell_backward(slots[0][0], cache["tapes"][0], dh,
                                   carry[li].c, carry[li].d)
                dbase, dc_prev, dd_prev = cg.base, cg.c_prev, cg.d_prev
            else:
                # stored as (batch, 8, width), like a cell's own base adjoint,
                # so dpre below is a view
                dbase = np.empty((batch, N_BASE_INPUTS, width),
                                 dtype=self.dtype).transpose(1, 0, 2)
                dc_prev = np.empty((batch, width), dtype=self.dtype)
                dd_prev = np.empty_like(dc_prev)
                for (cell, lo, hi), tape in zip(slots, cache["tapes"]):
                    cg = cell_backward(cell, tape, dh[:, lo:hi], carry[li].c[:, lo:hi],
                                       carry[li].d[:, lo:hi])
                    dbase[:, :, lo:hi] = cg.base
                    dc_prev[:, lo:hi] = cg.c_prev
                    dd_prev[:, lo:hi] = cg.d_prev
            dpre = dbase.transpose(1, 0, 2).reshape(batch, N_BASE_INPUTS * width)
            grads[w_name] += cache["xin"].T @ dpre
            grads[u_name] += cache["h_prev"].T @ dpre
            grads[b_name] += dpre.sum(axis=0)
            dh_above = dpre @ params[w_name].T
            dh_prev = dpre @ params[u_name].T
            if masks is not None:
                dh_above = dh_above * masks["ff"][li]
                dh_prev = dh_prev * masks["rec"][li]
            carry[li] = CellState(dh_prev, dc_prev, dd_prev)
        return dh_above


class Network:
    """Compiled cells plus the trainable parameter set."""

    def __init__(self, spec: NetworkSpec, trees, rng: np.random.Generator,
                 dtype=np.float64):
        self.spec = spec
        self.dtype = dtype
        for layer in spec.layers:
            total = sum(card for _, card in layer.slots)
            if total != layer.width:
                raise ValueError(
                    f"slot cardinalities sum to {total}, layer width is {layer.width}")
        self.params: dict[str, np.ndarray] = {}
        if spec.embedding_dim > 0:
            self.params["embedding"] = init_uniform(
                rng, (spec.vocab_size, spec.embedding_dim), spec.vocab_size, dtype)
        self.layers = RecurrentLayers(
            [[(compile_tree(trees[idx]), card) for idx, card in layer.slots]
             for layer in spec.layers],
            spec.in_dim, rng, self.params, dtype=dtype)
        self.cells = self.layers.cells
        top = spec.layers[-1].width if spec.layers else spec.in_dim
        self.params["head.W"] = init_uniform(rng, (top, spec.out_dim), top, dtype)
        self.params["head.b"] = np.zeros(spec.out_dim, dtype=dtype)

    def param_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def zero_states(self, batch: int) -> list[CellState]:
        return self.layers.zero_states(batch)

    # -- forward/backward over one unrolled chunk -------------------------------

    def forward_chunk(self, x, states, masks=None, record: bool = False):
        """Run ``L`` steps; returns (logits, final states, cache).

        x: (B, L) int tokens or (B, L, D) frames.  ``masks`` holds the
        per-chunk dropout masks or None for evaluation.  States are the
        carried-in CellStates per layer and are not modified in place.
        """
        spec = self.spec
        batch, length = x.shape[0], x.shape[1]
        logits = np.empty((batch, length, spec.out_dim), dtype=self.dtype)
        cache = {"x": x, "steps": [], "masks": masks} if record else None
        for t in range(length):
            if spec.embedding_dim > 0:
                xin = self.params["embedding"][x[:, t]]
            else:
                xin = x[:, t].astype(self.dtype)
            top, states, layer_caches = self.layers.step(self.params, xin, states,
                                                         masks, record)
            if masks is not None:
                top = top * masks["out"]
            logits[:, t] = top @ self.params["head.W"] + self.params["head.b"]
            if record:
                cache["steps"].append({"layers": layer_caches, "top": top})
        return logits, states, cache

    def backward_chunk(self, cache, dlogits) -> dict[str, np.ndarray]:
        """Adjoints of every parameter for one recorded chunk.

        Gradients truncate at the chunk boundary: adjoints of the carried-in
        state are dropped, matching truncated backpropagation through time.
        """
        x = cache["x"]
        masks = cache["masks"]
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        carry = self.zero_states(x.shape[0])
        for t in range(x.shape[1] - 1, -1, -1):
            step = cache["steps"][t]
            dl = dlogits[:, t]
            grads["head.W"] += step["top"].T @ dl
            grads["head.b"] += dl.sum(axis=0)
            dtop = dl @ self.params["head.W"].T
            if masks is not None:
                dtop = dtop * masks["out"]
            dx = self.layers.backward_step(self.params, grads, step["layers"], dtop,
                                           carry, masks)
            if self.spec.embedding_dim > 0:
                np.add.at(grads["embedding"], x[:, t], dx)
        return grads


def build_network(spec: NetworkSpec, trees, rng: np.random.Generator,
                  dtype=np.float64) -> Network:
    """Compile trees into a trainable network per the layer/slot layout."""
    return Network(spec, trees, rng, dtype)
