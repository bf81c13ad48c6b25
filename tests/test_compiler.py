import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecell import tree as T
from treecell.compiler import (
    N_INPUT_SLOTS,
    CellState,
    CompileError,
    _kernel_source,
    cell_backward,
    cell_forward,
    compile_tree,
    lstm_reference_tree,
    zero_state,
)
from treecell.genetic import random_genome
from treecell.grammar import parse, serialize
from treecell.tree import build_tree, seed_tree, validate


from oracles import (
    closed_form_lstm,
    finite_difference_check,
    interpret_backward,
    interpret_forward,
    rng_for,
)

DEEP_GENOME = Path(__file__).resolve().parent.parent / "perfbench" / "panel" / "deep.genome"


def test_lstm_reference_tree_is_valid_and_uses_four_inputs():
    t = lstm_reference_tree()
    assert validate(t) == []
    used = {t.nodes[n].kind for n in t.preorder() if t.nodes[n].kind in T.LEAVES}
    assert used == {"x0", "x1", "x2", "x3", "cprev"}
    base_used = [k for k in used if k.startswith("x")]
    assert len(base_used) == 4


def test_lstm_oracle_equivalence():
    cell = compile_tree(lstm_reference_tree())
    rng = rng_for(123)
    width = 16
    worst = 0.0
    for _ in range(1000):
        base = rng.normal(0.0, 2.0, size=(8, width))
        state = CellState(rng.normal(size=width), rng.normal(size=width),
                          rng.normal(size=width))
        out = cell_forward(cell, base, state)
        h, c = closed_form_lstm(base[:4], state.c)
        worst = max(worst, np.max(np.abs(out.h - h)), np.max(np.abs(out.c - c)))
        assert np.array_equal(out.d, state.d)  # untapped: exact pass-through
    assert worst <= 1e-12


def test_lstm_forced_gates_hand_values():
    # zero preactivations force i=f=o=0.5, g=0; with c_prev=1:
    # c = 0.5, h = 0.5*tanh(0.5)
    cell = compile_tree(lstm_reference_tree())
    base = np.zeros((8, 3))
    state = CellState(np.zeros(3), np.ones(3), np.zeros(3))
    out = cell_forward(cell, base, state)
    assert out.c == pytest.approx(0.5)
    assert out.h == pytest.approx(0.5 * np.tanh(0.5))


def test_seed_tree_zero_inputs_give_zero_h():
    cell = compile_tree(seed_tree())
    out = cell_forward(cell, np.zeros((8, 4)), zero_state(4))
    assert np.all(out.h == 0.0)
    assert np.all(out.c == 0.0)


def _backward(cell, tape, gh, gc, gd):
    """:func:`cell_backward` into a new (8, *unit_shape) buffer; returns the
    base adjoints, then the adjoints of c and d."""
    base = np.empty((8, *np.shape(gh)))
    return (base, *cell_backward(cell, tape, gh, gc, gd, base))


def test_compile_rejects_invalid_tree():
    bad = build_tree(("tanh", ("sigmoid", "x0")))
    with pytest.raises(CompileError):
        compile_tree(bad)


def test_input_reuse_shares_port_and_accumulates_gradient():
    t = build_tree(("tanh", ("add", ("add", ("mul", "x0", "x0"),
                                     ("add", "x0", "x1")),
                            ("add", ("add", ("add", "x2", "x3"), "x4"),
                             ("add", "cprev", "dprev")))))
    assert validate(t) == []
    cell = compile_tree(t)
    width = 5
    rng = rng_for(7)
    base = rng.normal(size=(8, width))
    state = zero_state(width)
    out, tape = cell_forward(cell, base, state, record=True)
    dbase, _, _ = _backward(cell, tape, np.ones(width), np.zeros(width), np.zeros(width))
    # d h / d x0 = (1 - h^2) * (2*x0 + 1)
    expected = (1.0 - out.h ** 2) * (2.0 * base[0] + 1.0)
    assert np.allclose(dbase[0], expected, atol=1e-12)


def test_common_subtree_shared_once():
    repeated = ("mul", ("sigmoid", "x0"), "cprev")
    t = build_tree(("tanh", ("add",
                             ("add", repeated, ("add", repeated, ("add", "x1", "x2"))),
                             ("add", "x3", "x4"))))
    assert validate(t) == []
    cell = compile_tree(t)
    mul_ops = [op for op in cell.ops if op.func == "mul"]
    sig_ops = [op for op in cell.ops if op.func == "sigmoid"]
    assert len(sig_ops) == 1  # shared subexpression evaluated once
    assert len(mul_ops) == 1


def test_identity_path_gradient():
    # h = x0 via add with zeroed sibling is not expressible; use mul product rule
    t = build_tree(("tanh", ("add", ("mul", "x0", "x1"),
                            ("add", ("add", ("add", "x2", "x3"), "x4"),
                             ("add", "cprev", "dprev")))))
    cell = compile_tree(t)
    width = 3
    rng = rng_for(11)
    base = rng.normal(size=(8, width))
    state = zero_state(width)
    out, tape = cell_forward(cell, base, state, record=True)
    dbase, _, _ = _backward(cell, tape, np.ones(width), np.zeros(width), np.zeros(width))
    scale = 1.0 - out.h ** 2
    assert np.allclose(dbase[0], scale * base[1], atol=1e-12)
    assert np.allclose(dbase[1], scale * base[0], atol=1e-12)


def test_gradients_match_finite_differences():
    for seed in range(12):
        genome = random_genome(rng_for(seed), steps=8)
        worst = finite_difference_check(genome, seed + 1000)
        assert worst < 1e-5, f"seed {seed}: fd mismatch {worst}"


def test_untapped_c_passthrough_and_skip_gradient():
    t = seed_tree()
    cell = compile_tree(t)
    rng = rng_for(3)
    width = 6
    base = rng.normal(size=(8, width))
    state = CellState(rng.normal(size=width), rng.normal(size=width),
                      rng.normal(size=width))
    out, tape = cell_forward(cell, base, state, record=True)
    assert np.array_equal(out.c, state.c)  # bit-exact pass-through
    gc = rng.normal(size=width)
    _, dc, _ = _backward(cell, tape, np.zeros(width), gc, np.zeros(width))
    # gradient flows through the skip unchanged, plus the cprev leaf path
    _, leaf_dc, _ = _backward(cell, tape, np.zeros(width), np.zeros(width), np.zeros(width))
    assert np.allclose(dc - gc, leaf_dc, atol=1e-15)


def test_compile_serialize_round_trip_semantics():
    rng = rng_for(29)
    for seed in range(30):
        genome = random_genome(rng_for(seed), steps=6)
        again = parse(serialize(genome))
        ca = compile_tree(genome)
        cb = compile_tree(again)
        base = rng.normal(size=(8, 5))
        state = CellState(rng.normal(size=5), rng.normal(size=5), rng.normal(size=5))
        oa = cell_forward(ca, base, state)
        ob = cell_forward(cb, base, state)
        assert np.array_equal(oa.h, ob.h)
        assert np.array_equal(oa.c, ob.c)
        assert np.array_equal(oa.d, ob.d)


def test_forward_rejects_bad_inputs():
    cell = compile_tree(seed_tree())
    with pytest.raises(ValueError):
        cell_forward(cell, np.zeros((8, 3)), zero_state(4))
    with pytest.raises(ValueError):
        cell_backward(cell, None, np.zeros(3), np.zeros(3), np.zeros(3), np.empty((8, 3)))


# one shared subtree tapped to both c and d, and x0 read four times, so
# slots receive three or more adjoint contributions
SHARED_TAPS = build_tree(
    ("tanh", ("add",
              ("mul", ("sigmoid", ("add@c", ("mul", "x0", "cprev"), "dprev")),
               ("add@d", ("mul", "x0", "cprev"), "dprev")),
              ("add", "x0", ("add", "x0", "x1")))))

KERNEL_GENOMES = st.one_of(
    st.sampled_from([lstm_reference_tree(), seed_tree(), parse(DEEP_GENOME.read_text()),
                     SHARED_TAPS]),
    st.builds(lambda seed, steps: random_genome(rng_for(seed), steps=steps),
              st.integers(0, 10_000), st.sampled_from([2, 8, 20, 40])))


def test_backward_reads_the_tape_before_it_writes_base():
    """A layer whose tapes pin its projection writes the base adjoints into
    it, so no line from a backward's first ``base[`` on may read a forward
    value; and ``keeps_base`` says whether the tape holds a base input."""
    from test_network import BOTH_TAPS

    rng = rng_for(21)
    genomes = [lstm_reference_tree(), seed_tree(), BOTH_TAPS, parse(DEEP_GENOME.read_text())]
    genomes += [random_genome(rng, steps=steps) for steps in (2, 8, 20, 40) * 50]
    kept = []
    for genome in genomes:
        cell = compile_tree(genome)
        source = _kernel_source(cell.ops, cell.h_slot, cell.c_slots, cell.d_slots)
        backward = source[source.index("def backward"):].splitlines()
        first = next(i for i, line in enumerate(backward) if line.lstrip().startswith("base["))
        for line in backward[first:]:
            assert not re.search(r"\bv\d+\b", line), (serialize(genome), line)
        _, tape = cell_forward(cell, rng.normal(size=(8, 2)), zero_state((2,)), record=True)
        assert cell.keeps_base == any(v is not None for v in tape[:T.N_BASE_INPUTS])
        kept.append(cell.keeps_base)
    assert kept[:4] == [False, False, False, True] and any(kept[4:]) and not all(kept[4:])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(genome=KERNEL_GENOMES, batch=st.sampled_from([None, 3]), width=st.integers(1, 6),
       scale=st.sampled_from([1.0, 30.0, 800.0]), seed=st.integers(0, 2**32 - 1))
def test_kernels_match_interpreter_bit_for_bit(genome, batch, width, scale, seed):
    cell = compile_tree(genome)
    rng = rng_for(seed)
    unit = (width,) if batch is None else (batch, width)

    def draw(shape):
        # up to ~800 so exp overflows, with +0.0 and -0.0 at relu's kink
        x = rng.uniform(-scale, scale, size=shape)
        x[rng.random(shape) < 0.1] = 0.0
        x[rng.random(shape) < 0.05] = -0.0
        return x

    if batch is None:
        base = draw((8, width))
    else:  # the strided view of the projection that a layer passes
        base = draw((batch, 8 * width)).reshape(batch, 8, width).transpose(1, 0, 2)
    state = CellState(draw(unit), draw(unit), draw(unit))
    grads = [draw(unit) for _ in range(3)]
    with np.errstate(all="ignore"):
        out, tape = cell_forward(cell, base, state, record=True)
        ref, ref_tape = interpret_forward(cell, base, state, record=True)
        ref_back = interpret_backward(cell, ref_tape, *grads)
    assert len(tape) == len(ref_tape) == cell.n_slots
    # the tape keeps only what the reverse reads: the arguments of mul and
    # relu, the outputs of tanh and sigmoid, and h
    read = {cell.h_slot}
    for slot, op in enumerate(cell.ops, N_INPUT_SLOTS):
        read.update(op.args if op.func in ("mul", "relu") else ())
        read.update((slot,) if op.func in ("tanh", "sigmoid") else ())
    assert {slot for slot, a in enumerate(tape) if a is not None} == read
    for slot in read:
        assert np.array_equal(_bits(tape[slot]), _bits(ref_tape[slot])), f"tape slot {slot}"
    for name in ("h", "c", "d"):
        assert np.array_equal(_bits(getattr(out, name)), _bits(getattr(ref, name))), name
    # into a plain (8, *unit) buffer and into the (B, 8, W) storage a layer
    # passes, NaN first, so that a base slot the kernel misses or writes
    # twice with a stale value shows
    for out in (np.full((8, *unit), np.nan),
                np.moveaxis(np.full(unit[:-1] + (8, width), np.nan), -2, 0)):
        with np.errstate(all="ignore"):
            dc, dd = cell_backward(cell, tape, *grads, out)
        for name, got in (("base", out), ("c_prev", dc), ("d_prev", dd)):
            assert np.array_equal(_bits(got), _bits(getattr(ref_back, name))), name
