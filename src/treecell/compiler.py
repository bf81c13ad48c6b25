"""Compile a tree genome into an executable recurrent cell.

The compiled cell is a topologically ordered list of primitive ops over
ten input slots (x0..x7, cprev, dprev).  Identical subtrees share one op
(all ops are pure), internal edges carry no weights, and evaluation is
elementwise over arbitrarily shaped unit arrays.  The reverse pass
replays the forward tape and accumulates exact adjoints, including
through input reuse and the c/d output taps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tree as T
from .tree import NodeTree, build_tree, validate

N_INPUT_SLOTS = 10  # x0..x7, cprev, dprev
SLOT_CPREV = 8
SLOT_DPREV = 9


@dataclass(frozen=True)
class Op:
    func: str  # add | mul | tanh | sigmoid | relu
    args: tuple[int, ...]


@dataclass(frozen=True)
class CompiledCell:
    ops: tuple[Op, ...]               # computed slots, in evaluation order
    h_slot: int
    c_slots: tuple[int, ...]          # tapped sources summed into c; empty = pass-through
    d_slots: tuple[int, ...]

    @property
    def n_slots(self) -> int:
        return N_INPUT_SLOTS + len(self.ops)


@dataclass
class CellState:
    h: np.ndarray
    c: np.ndarray
    d: np.ndarray


def zero_state(shape, dtype=np.float64) -> CellState:
    return CellState(np.zeros(shape, dtype), np.zeros(shape, dtype), np.zeros(shape, dtype))


class CompileError(ValueError):
    """Tree failed validation; carries the report."""

    def __init__(self, report):
        super().__init__("; ".join(str(v) for v in report))
        self.report = report


def compile_tree(tree: NodeTree) -> CompiledCell:
    """Lower a valid tree to a CompiledCell.

    Deterministic: slots are assigned in postorder, with identical
    (kind, args) subtrees deduplicated to a single op.
    """
    report = validate(tree)
    if report:
        raise CompileError(report)
    leaf_slot = {name: i for i, name in enumerate(T.LEAVES)}
    ops: list[Op] = []
    cse: dict[tuple, int] = {}
    node_to_slot: dict[int, int] = {}
    for nid in tree.postorder():
        node = tree.nodes[nid]
        if T.is_leaf(node.kind):
            node_to_slot[nid] = leaf_slot[node.kind]
            continue
        args = tuple(node_to_slot[c] for c in node.children)
        key = (node.kind, args)
        slot = cse.get(key)
        if slot is None:
            slot = N_INPUT_SLOTS + len(ops)
            ops.append(Op(node.kind, args))
            cse[key] = slot
        node_to_slot[nid] = slot
    c_slots = tuple(node_to_slot[nid] for nid in tree.postorder()
                    if tree.nodes[nid].tap == "c")
    d_slots = tuple(node_to_slot[nid] for nid in tree.postorder()
                    if tree.nodes[nid].tap == "d")
    return CompiledCell(tuple(ops), node_to_slot[tree.root], c_slots, d_slots)


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


def cell_forward(cell: CompiledCell, base_inputs, state: CellState,
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
    base: np.ndarray      # (8, *unit_shape)
    c_prev: np.ndarray
    d_prev: np.ndarray


def cell_backward(cell: CompiledCell, tape, grad_h, grad_c, grad_d) -> CellGrads:
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


def lstm_reference_tree() -> NodeTree:
    """The standard gated cell as a genome, used as the built-in oracle.

    c(t) = sigmoid(x1) * cprev + sigmoid(x0) * tanh(x2), tapped to c;
    h(t) = sigmoid(x3) * tanh(c(t)); d is untouched.  Uses four of the
    eight base inputs, exactly like the classic four-gate cell.
    """
    c_node = ("add@c",
              ("mul", ("sigmoid", "x1"), "cprev"),
              ("mul", ("sigmoid", "x0"), ("tanh", "x2")))
    return build_tree(("mul", ("sigmoid", "x3"), ("tanh", c_node)))
