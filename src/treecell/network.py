"""Recurrent networks built from compiled tree cells.

A layer holds one cell type across its full width (homogeneous) or
several cell types in fixed-cardinality column slots (heterogeneous).
Trainable parameters are the embedding, eight per-layer input projections
combining the layer input with the previous-step h, and the output head;
edges inside the cells carry no parameters, so the cell's memory-cell
count never changes the parameter count.  :class:`RecurrentLayers` is the
one layer engine, run over a whole sequence layer by layer, one cell per
layer; the curve predictor in ``meta`` builds on it too.
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


class FlatParams(dict):
    """Named arrays that are all views of one flat vector, ``flat``.

    An optimizer updates every array with one pass over ``flat``.  Write
    into an entry (``params[name][...] = value``) rather than rebinding it,
    or the entry stops being part of ``flat``.
    """

    def __init__(self, flat: np.ndarray, layout):
        super().__init__({name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in layout})
        self.flat = flat
        self.layout = layout   # (name, start, stop, shape) per entry

    @classmethod
    def pack(cls, arrays: dict) -> "FlatParams":
        """Copy ``arrays`` into one new flat vector, in their order."""
        layout, start = [], 0
        for name, a in arrays.items():
            layout.append((name, start, start + a.size, a.shape))
            start += a.size
        return cls(np.concatenate([a.ravel() for a in arrays.values()]), layout)

    def zeros_like(self) -> "FlatParams":
        # np.zeros allocates zeroed memory; np.zeros_like fills an empty array
        return FlatParams(np.zeros(self.flat.shape, self.flat.dtype), self.layout)


def _batch_sums(stack: np.ndarray) -> np.ndarray:
    """Sums over the batch axis of an (L, B, N) stack, per step.

    Each row is rounded as ``stack[t].sum(axis=0)`` rounds it: numpy adds a
    (B, N) block row by row, but sums a (B, 1) column pairwise.
    """
    if stack.shape[2] == 1:
        return np.ascontiguousarray(stack[:, :, 0]).sum(axis=1)[:, None]
    return stack.sum(axis=1)


def _scatter_rows(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``np.add.at(zeros((n_rows, N)), rows, values)``, bit for bit.

    For float64 it is one weighted ``bincount`` over flattened (row, column)
    indices, which adds in the same order from the same +0.0; ``bincount``
    sums in float64, so other dtypes keep ``add.at``.
    """
    width = values.shape[1]
    if values.dtype != np.float64:
        out = np.zeros((n_rows, width), dtype=values.dtype)
        np.add.at(out, rows, values)
        return out
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=n_rows * width).reshape(n_rows, width)


class NonFiniteCellInput(ValueError):
    """A cell input is inf or NaN: the candidate diverged, not the code."""


def _check_finite(bases: np.ndarray, carried: list) -> None:
    """Raise unless a layer's chunk of cell inputs is all finite.

    ``bases`` holds every step's base inputs and ``carried`` the c and d
    arrays the steps read.  A cell that passes c or d through hands the
    same array to every step, so each distinct array is checked once; when
    more than two remain, they are stacked into one.
    """
    carried = list({id(a): a for a in carried}.values())
    arrays = [bases, *carried] if len(carried) <= 2 else [bases, np.array(carried)]
    # one ufunc reduction each; cheaper per call than np.all on small arrays
    if not all(np.logical_and.reduce(np.isfinite(a), axis=None) for a in arrays):
        raise NonFiniteCellInput("non-finite cell input")


def _add_descending(acc: np.ndarray, stack: np.ndarray) -> None:
    """acc += stack[L-1] + ... + stack[0], one step at a time, latest first,
    the order in which backpropagation through time meets the steps."""
    for t in range(len(stack) - 1, -1, -1):
        acc += stack[t]


class CellRow:
    """Compiled cells side by side over column ranges, stepped as one cell.

    ``slots`` holds (cell, lo, hi) per slot.  Like a compiled cell, the row
    has the kernels :func:`cell_forward` and :func:`cell_backward` call: each
    runs every slot's kernel on its columns and joins the results; a tape
    lists the slots' tapes.  Backward writes the base adjoints only into the
    ``base`` buffer its caller passes, each slot into its own columns, and
    returns the joined adjoints of c and d.
    """

    def __init__(self, slots):
        self.slots = slots
        self.n_slots = len(slots)   # the tape's length
        self.keeps_base = any(cell.keeps_base for cell, _, _ in slots)

    def forward(self, base, c, d):
        steps = [cell.forward(base[..., lo:hi], c[..., lo:hi], d[..., lo:hi])
                 for cell, lo, hi in self.slots]
        hs, cs, ds, tapes = zip(*steps)
        return (np.concatenate(hs, axis=-1), np.concatenate(cs, axis=-1),
                np.concatenate(ds, axis=-1), list(tapes))

    def backward(self, tapes, gh, gc, gd, base):
        # each slot reads its tape, then writes only its own columns of base
        steps = [cell.backward(tape, gh[..., lo:hi], gc[..., lo:hi], gd[..., lo:hi],
                               base[..., lo:hi])
                 for (cell, lo, hi), tape in zip(self.slots, tapes)]
        dcs, dds = zip(*steps)
        return np.concatenate(dcs, axis=-1), np.concatenate(dds, axis=-1)


class RecurrentLayers:
    """A stack of recurrent layers, run over a sequence one layer at a time.

    Each layer projects its input and the previous-step h to the eight base
    inputs of every unit, then steps one cell (a :class:`CellRow` for several
    slots).  ``slots`` holds, per layer, (compiled cell, cardinality) pairs;
    the parameters ``{prefix}layer{i}.W|U|b`` are created in ``params``.

    A layer multiplies its whole input sequence by W in one stacked matmul,
    so the time loop keeps only the recurrent work: h_prev @ U, the bias and
    the cell.  The stacked (3-D) matmul runs the same BLAS product on each
    step's (B, K) slice as a per-step loop would, so results are bit for bit
    those of a step-major engine; a flattened (L * B, K) product is not.
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
        # the one cell each layer's time loops step
        self.layer_cells = [layer[0][0] if len(layer) == 1 else CellRow(layer)
                            for layer in self.cells]
        # the layers whose tapes pin their projection, which backward then
        # reuses as its base-adjoint buffer
        self.keeps_base = [cell.keeps_base for cell in self.layer_cells]
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

    # the cells may run on inf or NaN until the layer's finite check
    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, params, xs, states, masks=None, record: bool = False):
        """Run the stack over ``xs`` (L, B, in_dim); returns (top h (L, B, W),
        final states, cache).

        ``masks`` holds the ``ff``/``rec`` dropout masks or None.  The cache
        (None unless ``record``) feeds :meth:`backward`.  States are not
        modified in place.  Raises NonFiniteCellInput when any cell input is
        inf or NaN: a step's base inputs, or the c or d it reads.  Each layer
        is checked once, after its time loop, so the cells run on such values,
        with floating-point warnings off, until then.
        """
        new_states = []
        caches = [] if record else None
        for li, cell in enumerate(self.layer_cells):
            w_name, u_name, b_name = self.names[li]
            u, b = params[u_name], params[b_name]
            rec = None
            if masks is not None:
                xs = xs * masks["ff"][li]
                rec = masks["rec"][li]
            xproj = xs @ params[w_name]
            # a same-shape add per step is faster than a broadcast one
            b = np.broadcast_to(b, xproj.shape[1:]).copy()
            bases = xproj.reshape(*xproj.shape[:2], N_BASE_INPUTS,
                                  self.widths[li]).transpose(0, 2, 1, 3)
            state = states[li]
            hs, cs, ds, h_prevs, tapes = [], [state.c], [state.d], [], []
            for pre, base in zip(xproj, bases):
                h_prev = state.h if rec is None else state.h * rec
                pre += h_prev @ u
                pre += b
                state = cell_forward(cell, base, state, record=record)
                if record:
                    state, tape = state
                hs.append(state.h)
                cs.append(state.c)
                ds.append(state.d)
                if record:
                    h_prevs.append(h_prev)
                    tapes.append(tape)
            # xproj now holds every step's base; the last step's c and d
            # are the next chunk's (or the caller's) to check
            _check_finite(xproj, cs[:-1] + ds[:-1])
            if record:
                caches.append({"xs": xs, "h_prev": h_prevs, "tapes": tapes,
                               "xproj": xproj if self.keeps_base[li] else None})
            new_states.append(state)
            # a view for a 1-step sequence: the predictor's decoder records
            # one per step, and a copy there raises its peak memory
            xs = hs[0][None] if len(hs) == 1 else np.array(hs)
        return xs, new_states, caches

    def backward(self, params, grads, cache, dh_top, carry, masks=None):
        """Reverse of :meth:`forward`; returns the adjoint of ``xs``.

        ``dh_top`` (L, B, W) is the adjoint of the top layer's h at each step.
        Adds parameter adjoints into ``grads`` and replaces ``carry[li]``,
        the adjoints of layer ``li``'s carried-in h, c and d.  Consumes
        ``cache``: each layer's entry, and each step's tape in it, is let go
        once used, and a second backward on the same cache raises ValueError.
        """
        if any(layer is None for layer in cache):
            raise ValueError("this cache was consumed by an earlier backward")
        dh_above = dh_top
        for li in range(len(self.cells) - 1, -1, -1):
            layer, cache[li] = cache[li], None
            # the layer's buffers die on return, before the layer below makes its own
            dh_above, carry[li] = self._layer_backward(li, params, grads, layer, dh_above,
                                                       carry[li], masks)
        return dh_above

    def _layer_backward(self, li, params, grads, layer, dh_above, state, masks):
        """One layer of :meth:`backward`, popping each step's tape and h_prev
        from ``layer`` as it goes; returns the adjoints of the layer's input
        and of its carried-in state."""
        cell = self.layer_cells[li]
        w_name, u_name, b_name = self.names[li]
        grad_w, grad_u = grads[w_name], grads[u_name]
        u_t = params[u_name].T
        rec = masks["rec"][li] if masks is not None else None
        xs, h_prevs, tapes = layer["xs"], layer["h_prev"], layer["tapes"]
        # the cells write each step's base adjoint (8, B, W) into a (L, B, 8W)
        # buffer, so every dpre and the stack are views.  A projection that the
        # tapes pin has that layout and is that buffer: a cell reads its tape
        # before it writes, and a row's slot writes only its own columns
        length, batch, width = len(tapes), state.h.shape[0], self.widths[li]
        dpres = layer.pop("xproj")
        if dpres is None:
            dpres = np.empty((length, batch, N_BASE_INPUTS * width), dtype=self.dtype)
        douts = dpres.reshape(length, batch, N_BASE_INPUTS, width).transpose(0, 2, 1, 3)
        dh_prev, dc, dd = state.h, state.c, state.d
        for t in range(length - 1, -1, -1):
            dh = dh_above[t] + dh_prev
            dc, dd = cell_backward(cell, tapes.pop(), dh, dc, dd, douts[t])
            dpre = dpres[t]
            grad_w += xs[t].T @ dpre
            grad_u += h_prevs.pop().T @ dpre
            dh_prev = dpre @ u_t
            if rec is not None:
                dh_prev = dh_prev * rec
        _add_descending(grads[b_name], _batch_sums(dpres))
        dh_below = dpres @ params[w_name].T
        if masks is not None:
            dh_below = dh_below * masks["ff"][li]
        return dh_below, CellState(dh_prev, dc, dd)


class Network:
    """Compiled cells plus the trainable parameter set, one ``FlatParams``."""

    def __init__(self, spec: NetworkSpec, trees, rng: np.random.Generator,
                 dtype=np.float64):
        self.spec = spec
        self.dtype = dtype
        for layer in spec.layers:
            total = sum(card for _, card in layer.slots)
            if total != layer.width:
                raise ValueError(
                    f"slot cardinalities sum to {total}, layer width is {layer.width}")
        params: dict[str, np.ndarray] = {}
        if spec.embedding_dim > 0:
            params["embedding"] = init_uniform(
                rng, (spec.vocab_size, spec.embedding_dim), spec.vocab_size, dtype)
        self.layers = RecurrentLayers(
            [[(compile_tree(trees[idx]), card) for idx, card in layer.slots]
             for layer in spec.layers],
            spec.in_dim, rng, params, dtype=dtype)
        self.cells = self.layers.cells
        top = spec.layers[-1].width if spec.layers else spec.in_dim
        params["head.W"] = init_uniform(rng, (top, spec.out_dim), top, dtype)
        params["head.b"] = np.zeros(spec.out_dim, dtype=dtype)
        self.params = FlatParams.pack(params)

    def param_count(self) -> int:
        return self.params.flat.size

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
        if spec.embedding_dim > 0:
            xs = self.params["embedding"][x.T]
        else:
            xs = x.transpose(1, 0, 2).astype(self.dtype, order="C")
        tops, states, layer_caches = self.layers.forward(self.params, xs, states,
                                                         masks, record)
        if masks is not None:
            tops = tops * masks["out"]
        logits = np.empty((batch, length, spec.out_dim), dtype=self.dtype)
        np.add(tops @ self.params["head.W"], self.params["head.b"],
               out=logits.transpose(1, 0, 2))
        cache = None
        if record:
            cache = {"x": x, "masks": masks, "layers": layer_caches, "tops": tops}
        return logits, states, cache

    def backward_chunk(self, cache, dlogits) -> FlatParams:
        """Adjoints of every parameter for one recorded chunk.

        Gradients truncate at the chunk boundary: adjoints of the carried-in
        state are dropped, matching truncated backpropagation through time.
        """
        x = cache["x"]
        masks = cache["masks"]
        grads = self.params.zeros_like()
        dls = dlogits.transpose(1, 0, 2)
        _add_descending(grads["head.W"], cache["tops"].transpose(0, 2, 1) @ dls)
        _add_descending(grads["head.b"], _batch_sums(dls))
        dtops = dls @ self.params["head.W"].T
        if masks is not None:
            dtops = dtops * masks["out"]
        dxs = self.layers.backward(self.params, grads, cache["layers"], dtops,
                                   self.zero_states(x.shape[0]), masks)
        if self.spec.embedding_dim > 0:
            # one scatter, adding in backpropagation order: t descending, then b
            grads["embedding"][...] = _scatter_rows(x.T[::-1].ravel(),
                                                   dxs[::-1].reshape(-1, dxs.shape[2]),
                                                   self.spec.vocab_size)
        return grads


def build_network(spec: NetworkSpec, trees, rng: np.random.Generator,
                  dtype=np.float64) -> Network:
    """Compile trees into a trainable network per the layer/slot layout."""
    return Network(spec, trees, rng, dtype)
