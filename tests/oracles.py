"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the package's own forward/backward code paths:
the gated-cell oracle is the textbook closed form, gradients come from
central finite differences, ``interpret_forward``/``interpret_backward``
run a compiled cell op by op, dispatching on the op name, as the reference
for the generated straight-line kernels, and the ``step_major_*`` functions
run networks and predictor members one time step at a time up the layer
stack, as the reference for the layer-major sequence engine.
``assert_views_of_flat`` checks a parameter set against its flat vector,
``global_norm`` is the textbook global L2 norm of a gradient set, and
``watch_cache_lifetimes`` sees whether a training loop still holds one
recorded cache when it records the next.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from treecell import tree as T
from treecell.compiler import (
    N_INPUT_SLOTS,
    SLOT_CPREV,
    SLOT_DPREV,
    CellState,
    CompiledCell,
    Op,
    cell_backward,
    cell_forward,
    compile_tree,
)
from treecell.meta import PREFIX_LEN
from treecell.tree import N_BASE_INPUTS


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def assert_views_of_flat(params):
    """Every entry of ``params`` is a view of its own stretch of ``params.flat``."""
    params.flat[...] = np.arange(params.flat.size)
    entries = np.concatenate([p.ravel() for p in params.values()])
    assert np.array_equal(np.sort(entries), np.arange(params.flat.size))


def watch_cache_lifetimes(monkeypatch, owner, name, op_output):
    """Patch the recorded forward ``owner.name``, whose result ends with its
    cache, for the rest of the test.

    Returns a list that gets one entry per recorded call after the first:
    whether ``op_output(cache)`` of the previous recorded call, an array
    that only that cache holds, was still alive when the call started.
    """
    original = getattr(owner, name)
    previous = []
    alive = []

    def forward(self, *args, record=False, **kwargs):
        if record and previous:
            alive.append(previous[-1]() is not None)
        result = original(self, *args, record=record, **kwargs)
        if record:
            array = op_output(result[-1])
            assert array.base is None, "a view may be held elsewhere"
            previous.append(weakref.ref(array))
        return result

    monkeypatch.setattr(owner, name, forward)
    return alive


def global_norm(grads) -> float:
    """sqrt of the sum of squares over every entry of every gradient."""
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def closed_form_lstm(x_gates, c_prev):
    """Textbook gated-cell equations; rows of x_gates are the four gate
    preactivations (input, forget, candidate, output)."""
    i = 1.0 / (1.0 + np.exp(-x_gates[0]))
    f = 1.0 / (1.0 + np.exp(-x_gates[1]))
    g = np.tanh(x_gates[2])
    o = 1.0 / (1.0 + np.exp(-x_gates[3]))
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def finite_difference_check(genome, seed, eps=1e-5, width=4):
    """Worst relative error between reverse-mode and central-difference
    gradients of all three outputs w.r.t. all ten inputs."""
    cell = compile_tree(genome)
    rng = rng_for(seed)
    base = state = None
    for _ in range(50):
        base = rng.normal(0.0, 1.0, size=(8, width))
        state = CellState(rng.normal(size=width), rng.normal(size=width),
                          rng.normal(size=width))
        # finite differences are invalid near relu kinks; redraw if close
        _, tape = cell_forward(cell, base, state, record=True)
        if all(op.func != "relu" or np.min(np.abs(tape[op.args[0]])) >= 50 * eps
               for op in cell.ops):
            break
    else:
        pytest.skip("could not find a kink-free sample")

    weights = [rng.normal(size=width) for _ in range(3)]

    def objectives(b, c_prev, d_prev):
        out = cell_forward(cell, b, CellState(state.h, c_prev, d_prev))
        return (float(weights[0] @ out.h), float(weights[1] @ out.c),
                float(weights[2] @ out.d))

    _, tape = cell_forward(cell, base, state, record=True)
    worst = 0.0
    zeros = np.zeros(width)
    for which in range(3):
        gh = weights[0] if which == 0 else zeros
        gc = weights[1] if which == 1 else zeros
        gd = weights[2] if which == 2 else zeros
        dbase = np.empty((8, width))
        dc, dd = cell_backward(cell, tape, gh, gc, gd, dbase)
        analytic = np.concatenate([dbase.ravel(), dc, dd])
        fd = np.zeros_like(analytic)
        idx = 0
        for k in range(8):
            for u in range(width):
                bp = base.copy(); bp[k, u] += eps
                bm = base.copy(); bm[k, u] -= eps
                fd[idx] = (objectives(bp, state.c, state.d)[which]
                           - objectives(bm, state.c, state.d)[which]) / (2 * eps)
                idx += 1
        for u in range(width):
            cp = state.c.copy(); cp[u] += eps
            cm = state.c.copy(); cm[u] -= eps
            fd[idx] = (objectives(base, cp, state.d)[which]
                       - objectives(base, cm, state.d)[which]) / (2 * eps)
            idx += 1
        for u in range(width):
            dp = state.d.copy(); dp[u] += eps
            dm = state.d.copy(); dm[u] -= eps
            fd[idx] = (objectives(base, state.c, dp)[which]
                       - objectives(base, state.c, dm)[which]) / (2 * eps)
            idx += 1
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    return worst


# --- the op-by-op interpreter ---------------------------------------------------


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # branch on sign so exp never overflows
    out = np.empty_like(a)
    pos = a >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[neg])
    out[neg] = ea / (1.0 + ea)
    return out


def _eval_op(op: Op, values: list) -> np.ndarray:
    a = values[op.args[0]]
    if op.func == "add":
        return a + values[op.args[1]]
    if op.func == "mul":
        return a * values[op.args[1]]
    if op.func == "tanh":
        return np.tanh(a)
    if op.func == "sigmoid":
        return _sigmoid(np.asarray(a))
    if op.func == "relu":
        return np.maximum(a, 0.0)
    raise ValueError(f"unknown op {op.func}")


def interpret_forward(cell: CompiledCell, base_inputs, state: CellState,
                      record: bool = False):
    """One step of the cell, elementwise per unit.

    ``base_inputs`` holds the eight tree inputs, shape (8, *unit_shape);
    returns the new CellState, plus the forward tape when ``record``.
    Untapped outputs pass the previous memory value through unchanged.
    """
    base = np.asarray(base_inputs)
    if base.shape[0] != T.N_BASE_INPUTS:
        raise ValueError(f"expected {T.N_BASE_INPUTS} base inputs, got {base.shape[0]}")
    if base.shape[1:] != state.c.shape:
        raise ValueError(f"width mismatch: inputs {base.shape[1:]}, state {state.c.shape}")
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(state.c))
            and np.all(np.isfinite(state.d))):
        raise ValueError("non-finite cell input")
    values: list = [base[k] for k in range(T.N_BASE_INPUTS)]
    values.append(state.c)
    values.append(state.d)
    for op in cell.ops:
        values.append(_eval_op(op, values))
    h = values[cell.h_slot]
    if cell.c_slots:
        c = values[cell.c_slots[0]]
        for s in cell.c_slots[1:]:
            c = c + values[s]
    else:
        c = state.c
    if cell.d_slots:
        d = values[cell.d_slots[0]]
        for s in cell.d_slots[1:]:
            d = d + values[s]
    else:
        d = state.d
    new_state = CellState(np.asarray(h), np.asarray(c), np.asarray(d))
    if record:
        return new_state, values
    return new_state


@dataclass
class CellGrads:
    """What :func:`interpret_backward` returns."""
    base: np.ndarray      # (8, *unit_shape)
    c_prev: np.ndarray
    d_prev: np.ndarray


def interpret_backward(cell: CompiledCell, tape, grad_h, grad_c, grad_d) -> CellGrads:
    """Exact reverse-mode adjoints of (h, c, d) w.r.t. the ten input slots.

    ``tape`` is the values list from a recorded forward.  Fan-out (input
    reuse and shared subtrees) accumulates; relu's derivative at 0 is 0.
    """
    if tape is None or len(tape) != cell.n_slots:
        raise ValueError("missing or mismatched forward tape")
    adj = [None] * cell.n_slots

    def accumulate(slot, g):
        if adj[slot] is None:
            adj[slot] = np.array(g, dtype=tape[slot].dtype)
        else:
            adj[slot] = adj[slot] + g

    accumulate(cell.h_slot, grad_h)
    for s in cell.c_slots:
        accumulate(s, grad_c)
    for s in cell.d_slots:
        accumulate(s, grad_d)
    for i in range(len(cell.ops) - 1, -1, -1):
        slot = N_INPUT_SLOTS + i
        g = adj[slot]
        if g is None:
            continue
        op = cell.ops[i]
        if op.func == "add":
            accumulate(op.args[0], g)
            accumulate(op.args[1], g)
        elif op.func == "mul":
            accumulate(op.args[0], g * tape[op.args[1]])
            accumulate(op.args[1], g * tape[op.args[0]])
        elif op.func == "tanh":
            accumulate(op.args[0], g * (1.0 - tape[slot] ** 2))
        elif op.func == "sigmoid":
            accumulate(op.args[0], g * tape[slot] * (1.0 - tape[slot]))
        elif op.func == "relu":
            accumulate(op.args[0], g * (tape[op.args[0]] > 0))
    shape = np.shape(grad_h)
    dtype = tape[cell.h_slot].dtype

    def take(slot):
        return adj[slot] if adj[slot] is not None else np.zeros(shape, dtype)

    base = np.stack([take(k) for k in range(T.N_BASE_INPUTS)])
    c_prev = take(SLOT_CPREV)
    d_prev = take(SLOT_DPREV)
    if not cell.c_slots:
        c_prev = c_prev + grad_c  # pass-through: identity gradient
    if not cell.d_slots:
        d_prev = d_prev + grad_d
    return CellGrads(base, c_prev, d_prev)


# --- the step-major recurrent engine --------------------------------------------
#
# The engine as it was before it ran a chunk layer by layer: one time step
# at a time up the stack, with every projection, bias sum and head product
# made per step, and every cell input checked for inf and NaN before the
# step that reads it.  ``self`` is the RecurrentLayers, Network or _Seq2Seq
# the function stands in a method of.


def _guard(base, state):
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(state.c))
            and np.all(np.isfinite(state.d))):
        raise ValueError("non-finite cell input")


def step_major_step(self, params, xin, states, masks=None, record: bool = False):
    """One time step up the stack; returns (top h, new states, caches).

    ``masks`` holds the ``ff``/``rec`` dropout masks or None.  The
    per-layer caches (None unless ``record``) feed :func:`step_major_backward_step`.
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
            _guard(base, state)
            out = cell_forward(slots[0][0], base, state, record=record)
            if record:
                out, tape = out
                tapes.append(tape)
        else:
            out = CellState(np.empty((batch, width), dtype=self.dtype),
                            np.empty((batch, width), dtype=self.dtype),
                            np.empty((batch, width), dtype=self.dtype))
            for cell, lo, hi in slots:
                sub_state = CellState(state.h[:, lo:hi], state.c[:, lo:hi],
                                      state.d[:, lo:hi])
                _guard(base[:, :, lo:hi], sub_state)
                sub = cell_forward(cell, base[:, :, lo:hi], sub_state, record=record)
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


def step_major_backward_step(self, params, grads, caches, dh_top, carry, masks=None):
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
        # stored as (batch, 8, width), like a layer's base-adjoint buffer, so
        # dpre below is a view
        dbase = np.empty((batch, N_BASE_INPUTS, width), dtype=self.dtype).transpose(1, 0, 2)
        if len(slots) == 1:
            dc_prev, dd_prev = cell_backward(slots[0][0], cache["tapes"][0], dh,
                                             carry[li].c, carry[li].d, dbase)
        else:
            dc_prev = np.empty((batch, width), dtype=self.dtype)
            dd_prev = np.empty_like(dc_prev)
            for (cell, lo, hi), tape in zip(slots, cache["tapes"]):
                dc_prev[:, lo:hi], dd_prev[:, lo:hi] = cell_backward(
                    cell, tape, dh[:, lo:hi], carry[li].c[:, lo:hi],
                    carry[li].d[:, lo:hi], dbase[:, :, lo:hi])
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


def step_major_forward_chunk(self, x, states, masks=None, record: bool = False):
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
        top, states, layer_caches = step_major_step(self.layers, self.params, xin, states,
                                                    masks, record)
        if masks is not None:
            top = top * masks["out"]
        logits[:, t] = top @ self.params["head.W"] + self.params["head.b"]
        if record:
            cache["steps"].append({"layers": layer_caches, "top": top})
    return logits, states, cache


def step_major_backward_chunk(self, cache, dlogits) -> dict:
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
        dx = step_major_backward_step(self.layers, self.params, grads, step["layers"],
                                      dtop, carry, masks)
        if self.spec.embedding_dim > 0:
            np.add.at(grads["embedding"], x[:, t], dx)
    return grads


def step_major_seq2seq_forward(self, prefix_log, record=False):
    batch = prefix_log.shape[0]
    states = self.encoder.zero_states(batch)
    enc_caches = [] if record else None
    for t in range(PREFIX_LEN):
        _, states, cache = step_major_step(
            self.encoder, self.params, prefix_log[:, t:t + 1], states, record=record)
        if record:
            enc_caches.append(cache)
    dec_caches = [] if record else None
    inp = prefix_log[:, -1:]
    outs = np.empty((batch, self.decoder_len), dtype=self.dtype)
    for j in range(self.decoder_len):
        h_top, states, cache = step_major_step(self.decoder, self.params, inp, states,
                                               record=record)
        out = h_top @ self.params["head.W"] + self.params["head.b"]
        outs[:, j] = out[:, 0]
        if record:
            dec_caches.append({"stack": cache, "h_top": h_top})
        inp = out
    if record:
        return outs, {"enc": enc_caches, "dec": dec_caches}
    return outs


def step_major_seq2seq_backward(self, cache, douts):
    """Adjoints of all parameters for a recorded forward.

    ``douts`` holds the loss adjoint of every decoder output, shape
    (batch, decoder_len); unsupervised steps pass zero columns and
    still receive gradient through the autoregressive feedback path.
    """
    grads = {k: np.zeros_like(v) for k, v in self.params.items()}
    batch = douts.shape[0]
    carry = self.decoder.zero_states(batch)
    dout_next = None  # adjoint fed back from the following step's input
    for j in range(self.decoder_len - 1, -1, -1):
        step = cache["dec"][j]
        dout = douts[:, j:j + 1].copy()
        if dout_next is not None:
            dout += dout_next
        grads["head.W"] += step["h_top"].T @ dout
        grads["head.b"] += dout.sum(axis=0)
        dh_top = dout @ self.params["head.W"].T
        # the previous step produced this step's input
        dout_next = step_major_backward_step(self.decoder, self.params, grads,
                                             step["stack"], dh_top, carry)
    # the decoder's initial state is the encoder's final state
    zero_top = np.zeros((batch, self.config.width), self.dtype)
    for t in range(PREFIX_LEN - 1, -1, -1):
        step_major_backward_step(self.encoder, self.params, grads, cache["enc"][t],
                                 zero_top, carry)
    return grads
