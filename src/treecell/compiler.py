"""Compile a tree genome into an executable recurrent cell.

The compiled cell is a topologically ordered list of primitive ops over
ten input slots (x0..x7, cprev, dprev).  Identical subtrees share one op
(all ops are pure), internal edges carry no weights, and evaluation is
elementwise over arbitrarily shaped unit arrays.  Each distinct op list
is turned, once per process, into Python source for two straight-line
numpy functions: a forward step that keeps every slot in a local, and
its reverse, which reads the forward tape and accumulates exact adjoints,
including through input reuse and the c/d output taps.  The reverse
writes the eight base adjoints only into the buffer its caller passes, so
that buffer's memory layout is the layer engine's (``network``) alone.  The
tape holds only the slots the reverse reads, so a cell whose reverse reads
no base input does not keep its layer's projection alive; a layer whose
tapes do keep it passes it as that buffer, which is safe because the
reverse reads every tape value before its first write to ``base``.  Both
kernels keep numpy calls few, since at small widths each call's fixed cost
is most of its price: sigmoid needs no branch, an adjoint an add passes on
unchanged gets no line of its own, and equal adjacent base adjoints are
stored by one slice assignment.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

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
    # the generated straight-line kernels, shared by every cell with this op list
    forward: Callable = field(init=False, compare=False, repr=False)
    backward: Callable = field(init=False, compare=False, repr=False)
    # whether the tape keeps a base input (x0..x7), a view of the layer's projection
    keeps_base: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        forward, backward = _kernels(self.ops, self.h_slot, self.c_slots, self.d_slots)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", backward)
        object.__setattr__(self, "keeps_base",
                           min(_taped_slots(self.ops, self.h_slot)) < T.N_BASE_INPUTS)

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
        if node.kind in T.LEAVES:
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


def cell_forward(cell: CompiledCell, base_inputs, state: CellState,
                 record: bool = False):
    """One step of the cell, elementwise per unit.

    ``base_inputs`` holds the eight tree inputs, shape (8, *unit_shape);
    returns the new CellState, plus the forward tape when ``record``: a list
    indexed by slot that holds the value of each slot :func:`cell_backward`
    reads (the arguments of mul and relu, the outputs of tanh and sigmoid,
    and h) and None at every other slot.  Untapped outputs pass the
    previous memory value through unchanged.  Inputs are not checked for
    inf or NaN here: :class:`network.RecurrentLayers` checks a whole
    chunk's cell inputs once per layer.
    """
    base = np.asarray(base_inputs)
    if base.shape[0] != T.N_BASE_INPUTS:
        raise ValueError(f"expected {T.N_BASE_INPUTS} base inputs, got {base.shape[0]}")
    if base.shape[1:] != state.c.shape:
        raise ValueError(f"width mismatch: inputs {base.shape[1:]}, state {state.c.shape}")
    h, c, d, tape = cell.forward(base, state.c, state.d)
    new_state = CellState(h, c, d)
    if record:
        return new_state, tape
    return new_state


def cell_backward(cell: CompiledCell, tape, grad_h, grad_c, grad_d, out):
    """Exact reverse-mode adjoints of (h, c, d) w.r.t. the ten input slots.

    ``tape`` is the values list from a recorded forward.  Fan-out (input
    reuse and shared subtrees) accumulates; relu's derivative at 0 is 0.
    The eight base adjoints are written into ``out``, an (8, *unit_shape)
    array; returns the adjoints of the carried-in c and d.
    """
    if tape is None or len(tape) != cell.n_slots:
        raise ValueError("missing or mismatched forward tape")
    return cell.backward(tape, grad_h, grad_c, grad_d, out)


# --- kernel generation ---------------------------------------------------------

# op -> (forward expression, adjoint term added to each argument in turn);
# {0}, {1} are the arguments, {out} the op's value and {g} its adjoint.
# sigmoid is e^min(a, 0) / (1 + e^-|a|): 1 / (1 + e^-a) for a >= 0 and
# e^a / (1 + e^a) below, so exp never overflows and no branch is needed.
# It gives the bits of the branching form on every input but NaN, whose
# payload may differ; the layers' finite check rejects NaN anyway.
_RULES = {
    "add": ("{0} + {1}", ("{g}", "{g}")),
    "mul": ("{0} * {1}", ("{g} * {1}", "{g} * {0}")),
    "tanh": ("tanh({0})", ("{g} * (1.0 - {out} ** 2)",)),
    "sigmoid": ("exp(minimum({0}, 0.0)) / (1.0 + exp(-absolute({0})))",
                ("{g} * {out} * (1.0 - {out})",)),
    "relu": ("maximum({0}, 0.0)", ("{g} * ({0} > 0)",)),
}


def _taped_slots(ops, h_slot: int) -> set[int]:
    """The slots a tape keeps, those the reverse reads: each argument or
    output that an op's adjoint terms name (the arguments of mul and relu,
    the outputs of tanh and sigmoid), and h, whose dtype the adjoints take
    and which the layer keeps anyway."""
    kept = {h_slot}
    for slot, op in enumerate(ops, N_INPUT_SLOTS):
        terms = "".join(_RULES[op.func][1])
        kept.update(arg for i, arg in enumerate(op.args) if f"{{{i}}}" in terms)
        if "{out}" in terms:
            kept.add(slot)
    return kept


def _kernel_source(ops, h_slot: int, c_slots, d_slots) -> str:
    """Python source of ``forward`` and ``backward`` for one op list.

    Slots are locals ``v<slot>`` and adjoints ``g<slot>``.  The tape lists
    every slot, with None where the backward reads nothing.  The backward
    walks the ops in reverse and adds each contribution to an adjoint in
    the order a slot-by-slot replay of the tape would, so the rounding of
    every sum is fixed by the op list alone.  An adjoint that equals
    another (an add passes its own on) gets no line: the other's name is
    written where it is used.  All eight base adjoints land in ``base``,
    the caller's buffer, zero for inputs the cell does not read; runs of
    adjacent slots that hold the same adjoint, or zero, are filled by one
    slice assignment.
    Nothing after the first write to ``base`` reads a tape value, so
    ``base`` may be the storage the tape's base inputs are views of.
    """
    n = N_INPUT_SLOTS + len(ops)
    kept = _taped_slots(ops, h_slot)
    fwd_tape = ", ".join(f"v{s}" if s in kept else "None" for s in range(n))
    bwd_tape = ", ".join(f"v{s}" if s in kept else "_" for s in range(n))
    fwd = ["def forward(base, v8, v9):",
           "    " + ", ".join(f"v{k}" for k in range(T.N_BASE_INPUTS)) + " = base"]
    for slot, op in enumerate(ops, N_INPUT_SLOTS):
        fwd.append(f"    v{slot} = " + _RULES[op.func][0].format(*(f"v{s}" for s in op.args)))
    c = " + ".join(f"v{s}" for s in c_slots) or f"v{SLOT_CPREV}"
    d = " + ".join(f"v{s}" for s in d_slots) or f"v{SLOT_DPREV}"
    fwd.append(f"    return v{h_slot}, {c}, {d}, [{fwd_tape}]")

    bwd = ["def backward(tape, gh, gc, gd, base):", f"    {bwd_tape} = tape"]
    alias: dict[int, str] = {}   # adjoint -> the name of the one it equals
    seen: set[int] = set()

    def name(slot: int) -> str:
        return alias.get(slot, f"g{slot}")

    def accumulate(slot: int, term: str) -> None:
        if slot in seen:
            bwd.append(f"    g{slot} = {name(slot)} + {term}")
            alias.pop(slot, None)
            return
        seen.add(slot)
        if term.isidentifier():  # another adjoint, unchanged
            alias[slot] = term
        else:
            bwd.append(f"    g{slot} = {term}")

    accumulate(h_slot, "gh")
    for s in c_slots:
        accumulate(s, "gc")
    for s in d_slots:
        accumulate(s, "gd")
    for slot in range(n - 1, N_INPUT_SLOTS - 1, -1):
        if slot not in seen:
            continue
        op = ops[slot - N_INPUT_SLOTS]
        args = [f"v{s}" for s in op.args]
        for arg, term in zip(op.args, _RULES[op.func][1]):
            accumulate(arg, term.format(*args, g=name(slot), out=f"v{slot}"))
    dtype = f"v{h_slot}.dtype"
    outs = []
    for slot, taps, seed in ((SLOT_CPREV, c_slots, "gc"), (SLOT_DPREV, d_slots, "gd")):
        if slot in seen:
            outs.append(name(slot) if taps else f"{name(slot)} + {seed}")
        elif taps:  # made here, since it reads the tape
            bwd.append(f"    g{slot} = zeros(gh.shape, {dtype})")
            outs.append(f"g{slot}")
        else:
            outs.append(f"{seed} + 0.0")  # pass-through; == 0 + seed bit for bit
    lo = 0
    for value, run in itertools.groupby(name(k) if k in seen else "0.0"
                                        for k in range(T.N_BASE_INPUTS)):
        hi = lo + len(list(run))
        bwd.append(f"    base[{lo if hi == lo + 1 else f'{lo}:{hi}'}] = {value}")
        lo = hi
    bwd.append(f"    return {outs[0]}, {outs[1]}")
    return "\n".join(fwd + [""] + bwd) + "\n"


_KERNEL_GLOBALS = {"absolute": np.absolute, "exp": np.exp, "maximum": np.maximum,
                   "minimum": np.minimum, "tanh": np.tanh, "zeros": np.zeros}


# bounded: a long search meets thousands of distinct cells, ~6 KiB of code each
@functools.lru_cache(maxsize=512)
def _kernels(ops, h_slot: int, c_slots, d_slots) -> tuple[Callable, Callable]:
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(_kernel_source(ops, h_slot, c_slots, d_slots), "<cell kernel>", "exec"),
         namespace)
    return namespace["forward"], namespace["backward"]


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
