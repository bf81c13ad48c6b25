"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the package's own forward/backward code paths:
the gated-cell oracle is the textbook closed form, gradients come from
central finite differences, and ``interpret_forward``/``interpret_backward``
run a compiled cell op by op, dispatching on the op name, as the reference
for the generated straight-line kernels.
"""

import numpy as np
import pytest

from treecell import tree as T
from treecell.compiler import (
    N_INPUT_SLOTS,
    SLOT_CPREV,
    SLOT_DPREV,
    CellGrads,
    CellState,
    CompiledCell,
    Op,
    cell_backward,
    cell_forward,
    compile_tree,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


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
        grads = cell_backward(cell, tape, gh, gc, gd)
        analytic = np.concatenate([grads.base.ravel(), grads.c_prev, grads.d_prev])
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
