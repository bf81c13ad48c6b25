import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecell.compiler import (
    CellState,
    cell_backward,
    cell_forward,
    compile_tree,
    lstm_reference_tree,
)
from treecell.data import (
    delayed_copy_task,
    generate_pianoroll,
    make_streams,
    music_task_from_roll,
)
from treecell.genetic import random_genome
from treecell.grammar import parse
from treecell.network import (
    CellRow,
    FlatParams,
    LayerSpec,
    NetworkSpec,
    RecurrentLayers,
    _add_descending,
    _scatter_rows,
    build_network,
    heterogeneous_layer,
    homogeneous_spec,
)
from treecell.training import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    _l2_ranges,
    clip_gradients,
    draw_masks,
    eval_perplexity,
    micro_f1,
    sigmoid_bce,
    softmax_ce,
    train,
)
from treecell.tree import build_tree, seed_tree, validate

from oracles import (
    assert_views_of_flat,
    global_norm,
    step_major_backward_chunk,
    step_major_forward_chunk,
    watch_cache_lifetimes,
)


DEEP_GENOME = Path(__file__).resolve().parent.parent / "perfbench" / "panel" / "deep.genome"


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# taps both c and d, so a slot's c and d adjoints both carry through time
BOTH_TAPS = build_tree(("mul", ("sigmoid", "x3"),
                        ("tanh", ("add@c", ("mul", ("sigmoid", "x1"), "cprev"),
                                  ("mul@d", ("sigmoid", "x0"), ("tanh", "dprev"))))))


def lstm_param_formula(in_dim, hidden):
    # classic four-gate cell: 4 * (in + hidden + 1) * hidden
    return 4 * (in_dim + hidden + 1) * hidden


def test_param_count_matches_lstm_formula_with_base8_factor():
    vocab, emb, width = 40, 16, 64
    spec = homogeneous_spec(width, 2, emb, vocab_size=vocab)
    net = build_network(spec, [lstm_reference_tree()], rng_for(0))
    # eight projections are exactly twice the classic four-gate count
    base8 = 8 * (emb + width + 1) * width + 8 * (width + width + 1) * width
    four_gate = lstm_param_formula(emb, width) + lstm_param_formula(width, width)
    assert base8 == 2 * four_gate
    head = width * vocab + vocab
    assert net.param_count() == vocab * emb + base8 + head


def test_heterogeneous_layer_slots():
    trees = [random_genome(rng_for(s), steps=4) for s in range(5)]
    layer = heterogeneous_layer(range(5), cardinality=20)
    assert layer.width == 100
    assert len(layer.slots) == 5
    spec = NetworkSpec([layer], embedding_dim=12, vocab_size=30)
    net = build_network(spec, trees, rng_for(1))
    assert [(lo, hi) for _, lo, hi in net.cells[0]] == [
        (0, 20), (20, 40), (40, 60), (60, 80), (80, 100)]


def test_param_count_invariant_in_memory_cells():
    # same dims, one tree uses only c, the other taps both c and d
    only_c = lstm_reference_tree()
    spec = homogeneous_spec(24, 1, 8, vocab_size=11)
    net_a = build_network(spec, [only_c], rng_for(2))
    net_b = build_network(spec, [BOTH_TAPS], rng_for(2))
    assert net_a.param_count() == net_b.param_count()


def test_slot_cardinality_mismatch_rejected():
    spec = NetworkSpec([LayerSpec(50, [(0, 20), (0, 20)])], 8, vocab_size=9)
    with pytest.raises(ValueError):
        build_network(spec, [lstm_reference_tree()], rng_for(0))


@pytest.mark.parametrize("case", ["plain", "dropout", "hetero", "frames"])
def test_network_gradients_match_finite_differences(case):
    vocab, emb, width = 5, 4, 6
    trees = [lstm_reference_tree(), BOTH_TAPS]
    if case == "hetero":  # two slots per layer, of different cells
        spec = NetworkSpec([LayerSpec(width, [(0, 3), (1, 3)])] * 2, emb, vocab_size=vocab)
    elif case == "frames":
        spec = homogeneous_spec(width, 2, 0, io_dim=vocab, head="sigmoid")
    else:
        spec = homogeneous_spec(width, 2, emb, vocab_size=vocab)
    net = build_network(spec, trees, rng_for(3))
    rng = rng_for(4)
    if case == "frames":
        x = rng.normal(size=(3, 7, vocab))
        y = (rng.random((3, 7, vocab)) < 0.5).astype(np.float64)
        loss_fn = sigmoid_bce
    else:
        x = rng.integers(0, vocab, size=(3, 7))
        y = rng.integers(0, vocab, size=(3, 7))
        loss_fn = softmax_ce
    masks = None
    if case == "dropout":  # one mask set, the same in every evaluation below
        masks = draw_masks(net, 3, TrainConfig(dropout_ff=0.3, dropout_rec=0.3), rng_for(5))
    states = net.zero_states(3)

    def loss_value():
        logits, _, _ = net.forward_chunk(x, states, masks)
        loss, _ = loss_fn(logits, y)
        return loss

    logits, _, cache = net.forward_chunk(x, states, masks, record=True)
    _, dlogits = loss_fn(logits, y)
    grads = net.backward_chunk(cache, dlogits)
    eps = 1e-6
    for name in net.params:
        flat = net.params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_value()
            flat[idx] = orig - eps
            down = loss_value()
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            denom = max(1.0, abs(fd), abs(gflat[idx]))
            assert abs(fd - gflat[idx]) / denom < 1e-5, (name, idx, fd, gflat[idx])


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(f"i{a.itemsize}")


ENGINE_TREES = st.one_of(
    st.sampled_from([lstm_reference_tree(), seed_tree(), BOTH_TAPS]),
    st.builds(lambda seed: random_genome(rng_for(seed), steps=8), st.integers(0, 10_000)))


@settings(max_examples=60, deadline=None)
@given(trees=st.lists(ENGINE_TREES, min_size=2, max_size=2), n_layers=st.sampled_from([1, 2]),
       hetero=st.booleans(), tokens=st.booleans(), dropout=st.booleans(),
       length=st.sampled_from([1, 2, 7, 35]), batch=st.sampled_from([1, 3, 20]),
       out_dim=st.sampled_from([1, 3, 8]), seed=st.integers(0, 2**32 - 1))
def test_layer_major_engine_matches_step_major_bit_for_bit(trees, n_layers, hetero, tokens,
                                                           dropout, length, batch, out_dim,
                                                           seed):
    """The sequence engine against the step-major engine it replaced: logits,
    final states and every gradient, bit for bit, from carried-in states.
    The desk shape (width 24, embedding 12, batch 20, 35 steps) is among the
    draws; a flattened (L * B, K) product differs from the per-step ones there."""
    if hetero:
        layers = [LayerSpec(24, [(0, 10), (1, 14)])] * n_layers
    else:
        layers = [LayerSpec(24, [(0, 24)])] * n_layers
    if tokens:
        spec = NetworkSpec(layers, 12, vocab_size=out_dim)
    else:
        spec = NetworkSpec(layers, 0, io_dim=out_dim, head="sigmoid")
    net = build_network(spec, trees, rng_for(seed))
    rng = rng_for(seed + 1)
    if tokens:
        x = rng.integers(0, out_dim, size=(batch, length))
        y = rng.integers(0, out_dim, size=(batch, length))
    else:
        x = (rng.random((batch, length, out_dim)) < 0.5).astype(np.float64)
        y = (rng.random((batch, length, out_dim)) < 0.5).astype(np.float64)
    masks = None
    if dropout:
        masks = draw_masks(net, batch, TrainConfig(dropout_ff=0.4, dropout_rec=0.3), rng)
    states = [CellState(*(rng.normal(size=s.h.shape) for _ in range(3)))
              for s in net.zero_states(batch)]
    loss_fn = softmax_ce if tokens else sigmoid_bce
    with np.errstate(all="ignore"):
        try:
            ref_logits, ref_final, ref_cache = step_major_forward_chunk(net, x, states, masks,
                                                                        record=True)
        except ValueError:  # a cell input overflowed; the guard must stop both
            with pytest.raises(ValueError, match="non-finite cell input"):
                net.forward_chunk(x, states, masks, record=True)
            return
        logits, final, cache = net.forward_chunk(x, states, masks, record=True)
        _, dlogits = loss_fn(ref_logits, y)
        grads = net.backward_chunk(cache, dlogits)
        ref_grads = step_major_backward_chunk(net, ref_cache, dlogits)
    assert np.array_equal(_bits(logits), _bits(ref_logits))
    for li, (state, ref) in enumerate(zip(final, ref_final)):
        for name in ("h", "c", "d"):
            assert np.array_equal(_bits(getattr(state, name)), _bits(getattr(ref, name))), \
                (li, name)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(_bits(grads[name]), _bits(ref_grads[name])), name


# reads x1 (a mul argument) and x0 (a relu argument) in reverse, so its
# tapes pin the layer's projection, which backward then writes base adjoints into
READS_BASE = build_tree(("mul", ("sigmoid", "x3"),
                         ("tanh", ("add@c", ("mul", "x1", "cprev"),
                                   ("mul@d", ("relu", "x0"), ("tanh", "dprev"))))))


def _matches_step_major(net, length, dropout, seed):
    """Runs a recorded chunk of ``length`` steps, with non-zero biases and
    random carried-in states, through ``net`` and through the step-major
    engine; asserts equal logits, final states and gradients, bit for bit.
    Returns whether each layer kept its projection for the backward."""
    rng = rng_for(seed)
    for w_name, u_name, b_name in net.layers.names:
        # a bias of zeros would hide a tiled bias that is wrong
        net.params[b_name][...] = rng.normal(size=net.params[b_name].shape)
    x = rng.integers(0, 8, size=(20, length))
    y = rng.integers(0, 8, size=(20, length))
    masks = None
    if dropout:
        masks = draw_masks(net, 20, TrainConfig(dropout_ff=0.4, dropout_rec=0.3), rng)
    states = [CellState(*(rng.normal(size=s.h.shape).astype(net.dtype) for _ in range(3)))
              for s in net.zero_states(20)]
    logits, final, cache = net.forward_chunk(x, states, masks, record=True)
    kept = [layer["xproj"] is not None for layer in cache["layers"]]
    ref_logits, ref_final, ref_cache = step_major_forward_chunk(net, x, states, masks,
                                                                record=True)
    _, dlogits = softmax_ce(logits, y)
    grads = net.backward_chunk(cache, dlogits)
    ref_grads = step_major_backward_chunk(net, ref_cache, dlogits)
    assert np.array_equal(_bits(logits), _bits(ref_logits))
    # after the backward: the carried state shares no storage with the buffer
    for state, ref in zip(final, ref_final):
        for name in ("h", "c", "d"):
            assert np.array_equal(_bits(getattr(state, name)), _bits(getattr(ref, name))), name
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(_bits(grads[name]), _bits(ref_grads[name])), name
    return kept


@pytest.mark.parametrize("length", [1, 35])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("order", ["base-reader first", "base-reader second"])
def test_layer_that_reuses_its_projection_matches_step_major_bit_for_bit(dropout, order,
                                                                        length):
    """Two layers of two slots, one cell whose reverse reads base inputs and
    one whose reverse does not: the reused projection gives the step-major
    engine's logits, final states and gradients, bit for bit, with the
    bias tiled once per chunk of 1 and of 35 steps."""
    trees = [READS_BASE, lstm_reference_tree()]
    if order == "base-reader second":
        trees.reverse()
    spec = NetworkSpec([LayerSpec(24, [(0, 10), (1, 14)])] * 2, 12, vocab_size=8)
    net = build_network(spec, trees, rng_for(31))
    assert net.layers.keeps_base == [True, True]
    assert _matches_step_major(net, length, dropout, 32) == [True, True]


@pytest.mark.parametrize("length", [1, 35])
@pytest.mark.parametrize("dropout", [False, True])
def test_one_slot_layers_match_step_major_bit_for_bit(dropout, length):
    """Two one-slot layers, whose time loops call the cell directly: one
    that reuses its projection in reverse and one that does not."""
    spec = NetworkSpec([LayerSpec(24, [(0, 24)]), LayerSpec(16, [(1, 16)])], 12,
                       vocab_size=8)
    net = build_network(spec, [READS_BASE, lstm_reference_tree()], rng_for(33))
    assert _matches_step_major(net, length, dropout, 34) == [True, False]


# passes c and d through, and its reverse reads no base input
PASSES_THROUGH = build_tree(("tanh", ("add", ("mul", ("sigmoid", ("add", "x0", "x1")),
                                              ("tanh", "x2")),
                                     ("add", "cprev", ("tanh", "dprev")))))

# trees, slots and dtype of each layer of a two-layer net of rows
ROWS = {
    "one cell twice": ([READS_BASE], [(0, 12), (0, 12)], np.float64),
    "all pass through": ([seed_tree(), PASSES_THROUGH], [(0, 10), (1, 14)], np.float64),
    "float32": ([READS_BASE, lstm_reference_tree()], [(0, 10), (1, 14)], np.float32),
}


@pytest.mark.parametrize("length", [1, 35])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("row", ROWS)
def test_rows_match_step_major_bit_for_bit(row, dropout, length):
    """Layers that each step one ``CellRow``: two adjacent slots of one
    cell, slots that all pass c and d through, and a row at float32."""
    trees, slots, dtype = ROWS[row]
    spec = NetworkSpec([LayerSpec(24, slots)] * 2, 12, vocab_size=8)
    net = build_network(spec, trees, rng_for(35), dtype=dtype)
    assert [type(cell) for cell in net.layers.layer_cells] == [CellRow, CellRow]
    kept = row != "all pass through"
    assert _matches_step_major(net, length, dropout, 36) == [kept, kept]


def test_row_backward_writes_the_base_adjoints_its_slots_write():
    """``cell_backward`` on a row writes into ``out`` the base adjoints that
    per-slot calls write, column for column, and joins their dc and dd."""
    trees = [READS_BASE, lstm_reference_tree(), BOTH_TAPS, seed_tree(), READS_BASE]
    bounds = [0, 3, 7, 8, 13, 16]
    slots = [(compile_tree(t), lo, hi) for t, lo, hi in zip(trees, bounds, bounds[1:])]
    row = CellRow(slots)
    rng = rng_for(37)
    base = rng.normal(size=(8, 5, 16))
    _, tape = cell_forward(row, base, CellState(*(rng.normal(size=(5, 16)) for _ in range(3))),
                           record=True)
    gh, gc, gd = (rng.normal(size=(5, 16)) for _ in range(3))
    out = np.full((5, 8, 16), np.nan).transpose(1, 0, 2)
    dc, dd = cell_backward(row, tape, gh, gc, gd, out)
    for (cell, lo, hi), slot_tape in zip(slots, tape):
        want = np.empty((8, 5, hi - lo))
        want_dc, want_dd = cell_backward(cell, slot_tape, gh[:, lo:hi], gc[:, lo:hi],
                                         gd[:, lo:hi], want)
        assert np.array_equal(_bits(out[:, :, lo:hi]), _bits(want)), (lo, hi)
        assert np.array_equal(_bits(dc[:, lo:hi]), _bits(want_dc)), (lo, hi)
        assert np.array_equal(_bits(dd[:, lo:hi]), _bits(want_dd)), (lo, hi)


def _descending_cases():
    """(name, acc, stack) over step counts, accumulator shapes and dtypes,
    with non-zero accumulators, and with signed zeros: a column of -0.0
    throughout, whose sum is -0.0, and a +0.0 start over a -0.0 column."""
    rng = rng_for(41)
    widths = (1, 2, 7, 8, 192, 800)
    for dtype in (np.float32, np.float64):
        for length in (1, 2, 7, 8, 9, 35):
            for shape in [(n,) for n in widths] + [(3, n) for n in widths]:
                size = (length, *shape)
                stack = rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size)
                acc = rng.normal(size=shape)
                name = f"{np.dtype(dtype).name} L={length} {shape}"
                yield f"{name} non-zero", acc.astype(dtype), stack.astype(dtype)
                stack[rng.random(size) < 0.5] = -0.0
                stack[..., :2] = -0.0
                acc[rng.random(shape) < 0.5] = -0.0
                acc[..., 0] = -0.0
                acc[..., 1:2] = 0.0
                yield f"{name} signed zeros", acc.astype(dtype), stack.astype(dtype)


def test_add_descending_matches_the_step_loop_bit_for_bit():
    """``_add_descending`` against acc += stack[t] for t descending: a
    faster form must pass this sweep (a bare ``np.add.reduce`` does not)."""
    differ = []
    for name, acc, stack in _descending_cases():
        expected = acc.copy()
        for t in range(len(stack) - 1, -1, -1):
            expected += stack[t]
        _add_descending(acc, stack)
        if acc.dtype != expected.dtype or not np.array_equal(acc.view(np.uint8),
                                                             expected.view(np.uint8)):
            differ.append(name)
    assert differ == []


def test_a_backward_consumes_its_cache():
    """A second backward on the same cache raises instead of returning
    gradients from overwritten buffers, for a network and a predictor member."""
    from treecell.meta import MetaConfig, _Seq2Seq

    spec = NetworkSpec([LayerSpec(6, [(0, 3), (1, 3)])] * 2, 4, vocab_size=5)
    net = build_network(spec, [READS_BASE, lstm_reference_tree()], rng_for(1))
    x = rng_for(2).integers(0, 5, size=(3, 7))
    logits, _, cache = net.forward_chunk(x, net.zero_states(3), record=True)
    dlogits = softmax_ce(logits, x)[1]
    net.backward_chunk(cache, dlogits)
    assert cache["layers"] == [None, None]
    with pytest.raises(ValueError, match="consumed"):
        net.backward_chunk(cache, dlogits)
    member = _Seq2Seq(3, MetaConfig(width=4, layers=2), rng_for(3))
    outs, cache = member.forward(np.log(rng_for(4).uniform(2.0, 9.0, size=(5, 10))),
                                 record=True)
    member.backward(cache, np.ones_like(outs))
    with pytest.raises(ValueError, match="consumed"):
        member.backward(cache, np.ones_like(outs))


def test_state_carryover_chunked_equals_single_pass():
    vocab, emb, width = 7, 5, 8
    spec = homogeneous_spec(width, 2, emb, vocab_size=vocab)
    net = build_network(spec, [lstm_reference_tree()], rng_for(5))
    rng = rng_for(6)
    x = rng.integers(0, vocab, size=(4, 30))
    one_pass, _, _ = net.forward_chunk(x, net.zero_states(4))
    states = net.zero_states(4)
    chunks = []
    for start in range(0, 30, 7):
        logits, states, _ = net.forward_chunk(x[:, start:start + 7], states)
        chunks.append(logits)
    chunked = np.concatenate(chunks, axis=1)
    assert np.array_equal(one_pass, chunked)


def test_gradient_clipping_bounds_global_norm():
    grads = FlatParams.pack({"a": np.full((10, 10), 3.0), "b": np.full(7, -2.0)})
    clip_gradients(grads, 10.0)
    assert global_norm(grads) <= 10.0 + 1e-9
    small = FlatParams.pack({"a": np.full(3, 0.1)})
    norm_before = global_norm(small)
    clip_gradients(small, 10.0)
    assert global_norm(small) == pytest.approx(norm_before)


def _decay_and_clip_per_entry(grads, params, l2, max_norm) -> float:
    """The per-entry L2 term and clip that ``train`` ran before both went flat."""
    for k, p in params.items():
        if p.ndim >= 2:
            grads[k] += l2 * p
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for k in grads:
            grads[k] *= scale
        return max_norm
    return norm


def test_flat_l2_and_clip_match_the_per_entry_loops_bit_for_bit():
    rng = rng_for(15)
    clipped = kept_negative_zeros = 0
    for case in range(120):
        dtype = np.float32 if case % 3 == 0 else np.float64
        shapes = []
        for _ in range(rng.integers(2, 9)):
            dims = rng.integers(1, 200, size=rng.integers(1, 3))
            shapes.append(tuple(int(d) for d in dims))
        params = FlatParams.pack({f"p{i}": rng.normal(size=s).astype(dtype)
                                  for i, s in enumerate(shapes)})
        grads = FlatParams.pack({
            f"p{i}": rng.normal(scale=rng.choice([1e-3, 1.0]), size=s).astype(dtype)
            for i, s in enumerate(shapes)})
        # zeros of both signs in every entry; the L2 term must leave a 1-D
        # entry's -0.0 as it is
        grads.flat[::7] = -0.0
        grads.flat[3::7] = 0.0
        old = {k: g.copy() for k, g in grads.items()}
        max_norm = 10.0 if case % 2 else 1e9
        want = _decay_and_clip_per_entry(old, params, 1e-4, max_norm)
        for lo, hi in _l2_ranges(params.layout):
            grads.flat[lo:hi] += 1e-4 * params.flat[lo:hi]
        got = clip_gradients(grads, max_norm)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), case
        bits = f"i{grads.flat.itemsize}"
        for k, g in grads.items():
            assert np.array_equal(g.view(bits), old[k].view(bits)), (case, k)
            if g.ndim == 1:
                kept_negative_zeros += np.count_nonzero((g == 0) & np.signbit(g))
        clipped += want == max_norm
    assert clipped > 30
    assert kept_negative_zeros > 0


def test_l2_ranges_join_adjacent_matrices():
    net = build_network(homogeneous_spec(24, 1, 12, vocab_size=8), [seed_tree()], rng_for(0))
    names = [name for name, *_ in net.params.layout]
    assert names == ["embedding", "layer0.W", "layer0.U", "layer0.b", "head.W", "head.b"]
    spans = {name: (lo, hi) for name, lo, hi, _ in net.params.layout}
    assert _l2_ranges(net.params.layout) == [
        (0, spans["layer0.U"][1]), spans["head.W"]]


def test_training_deterministic_given_seed():
    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=1200,
                             valid_tokens=400, test_tokens=400, seed=0)
    curves = []
    for _ in range(2):
        spec = homogeneous_spec(10, 1, 6, vocab_size=5)
        net = build_network(spec, [lstm_reference_tree()], rng_for(7))
        config = TrainConfig(unroll_steps=10, batch_size=4, epochs=2,
                             optimizer="adam", lr=0.01, dropout_ff=0.1,
                             dropout_rec=0.1, seed=11)
        curves.append(train(net, task, config).metrics)
    assert curves[0] == curves[1]  # bit-identical


def test_a_valid_split_smaller_than_a_batch_is_an_error_not_a_divergence():
    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=400,
                             valid_tokens=3, test_tokens=3, seed=0)
    net = build_network(homogeneous_spec(6, 1, 4, vocab_size=5),
                        [lstm_reference_tree()], rng_for(0))
    config = TrainConfig(unroll_steps=10, batch_size=4, epochs=1, optimizer="adam",
                         lr=0.01, dropout_ff=0.0, dropout_rec=0.0, seed=0)
    with pytest.raises(ValueError, match="split too small for batch size 4"):
        train(net, task, config)


def test_a_wiring_bug_is_an_error_not_a_divergence():
    """An 88-pitch frames task on a network built for 5 inputs fails in the
    input projection's matmul; that bug must stop the caller, not read as a
    diverged genome (which evolution would score as the worst fitness)."""
    task = music_task_from_roll(generate_pianoroll(400, seed=0))
    spec = homogeneous_spec(6, 1, 0, io_dim=5, head="sigmoid")
    net = build_network(spec, [lstm_reference_tree()], rng_for(0))
    config = TrainConfig(unroll_steps=10, batch_size=4, epochs=1, optimizer="adam",
                         lr=0.01, dropout_ff=0.0, dropout_rec=0.0, seed=0)
    with pytest.raises(ValueError, match="matmul") as info:
        train(net, task, config)
    assert not isinstance(info.value, TrainingDiverged)


def test_memory_overflow_stops_training_in_the_chunk_that_reads_it():
    """d(t) = d(t-1)^2 + sigmoid(x0) overflows to inf in the second chunk,
    while h = tanh(...) stays finite.  The layer's check on the d each step
    reads stops training in that chunk; a check on h or on the loss alone
    would fire only a chunk later, once NaN gradients reach the parameters."""
    genome = build_tree(("tanh", ("add", ("add", ("add", ("add", "x1", "x2"), "x3"), "x4"),
                                  ("add@d", ("mul", "dprev", "dprev"), ("sigmoid", "x0")))))
    assert validate(genome) == []
    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=800,
                             valid_tokens=300, test_tokens=300, seed=0)
    net = build_network(homogeneous_spec(6, 1, 4, vocab_size=5), [genome], rng_for(0))
    config = TrainConfig(unroll_steps=10, batch_size=4, epochs=2, optimizer="adam",
                         lr=0.01, dropout_ff=0.0, dropout_rec=0.0, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        train(net, task, config)
    assert (info.value.epoch, info.value.batch) == (1, 1)


SUM4 = ("add", ("add", ("add", "x1", "x2"), "x3"), "x4")
# c(t) = c(t-1)^2 + sigmoid(x0) overflows to inf while h = tanh(...) and
# the base inputs stay finite and d stays zero
C_OVERFLOW = build_tree(("tanh", ("add", SUM4, ("add@c", ("mul", "cprev", "cprev"),
                                                ("sigmoid", "x0")))))
D_OVERFLOW = build_tree(("tanh", ("add", SUM4, ("add@d", ("mul", "dprev", "dprev"),
                                                ("sigmoid", "x0")))))
# h is a product of two base-input sums and reads no memory, so only the
# base inputs (through h_prev @ U) can overflow
BASE_OVERFLOW = build_tree(("mul", ("add", SUM4, "x0"),
                            ("add", ("add", ("add", ("add", "x5", "x6"), "x7"), "x0"), "x1")))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("layer, trees, train_tokens, where", [
    pytest.param(LayerSpec(6, [(0, 6)]), [C_OVERFLOW], 800, (1, 1), id="c-only"),
    pytest.param(LayerSpec(6, [(0, 6)]), [BASE_OVERFLOW], 800, (1, 8), id="base"),
    pytest.param(LayerSpec(6, [(0, 3), (1, 3)]), [lstm_reference_tree(), C_OVERFLOW], 800,
                 (1, 1), id="hetero-one-slot"),
    # one 10-step chunk per epoch: d stays finite in training and overflows
    # in the longer pass over the validation split
    pytest.param(LayerSpec(6, [(0, 6)]), [D_OVERFLOW], 40, (1, -1), id="eval-pass"),
])
def test_divergence_raises_where_a_per_step_guard_raised(layer, trees, train_tokens, where):
    """Each (epoch, batch) was recorded from the engine that checked every
    cell input before every step; one check per layer per chunk must stop
    training at the same place, from the same finite-input check."""
    assert all(validate(t) == [] for t in trees)
    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=train_tokens,
                             valid_tokens=300, test_tokens=300, seed=0)
    net = build_network(NetworkSpec([layer], 4, vocab_size=5), trees, rng_for(0))
    config = TrainConfig(unroll_steps=10, batch_size=4, epochs=2, optimizer="adam",
                         lr=0.01, dropout_ff=0.0, dropout_rec=0.0, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        train(net, task, config)
    assert (info.value.epoch, info.value.batch) == where
    assert str(info.value.__cause__) == "non-finite cell input"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_layer_forward_rejects_non_finite_cell_inputs():
    """The layer checks every step's base and the c and d each step reads,
    once per chunk, with its own floating-point warnings off; the c and d
    the last step writes are left to the next chunk."""
    params = {}
    layers = RecurrentLayers([[(compile_tree(lstm_reference_tree()), 3),
                               (compile_tree(C_OVERFLOW), 2)]], 2, rng_for(0), params)
    xs = np.zeros((3, 4, 2))
    layers.forward(params, xs, layers.zero_states(4))
    bad = xs.copy()
    bad[2, 1, 0] = np.nan  # read by the last step only
    with pytest.raises(ValueError, match="non-finite cell input"):
        layers.forward(params, bad, layers.zero_states(4))
    states = layers.zero_states(4)
    states[0].d[3, 4] = np.inf  # carried in, in the second slot only
    with pytest.raises(ValueError, match="non-finite cell input"):
        layers.forward(params, xs, states)
    # c = cprev^2 + sigmoid(x0) overflows in step 0 from a carried-in 1e200
    states = layers.zero_states(4)
    states[0].c[:, 3:] = 1e200
    with pytest.raises(ValueError, match="non-finite cell input"):
        layers.forward(params, xs[:2], states)
    _, after, _ = layers.forward(params, xs[:1], states)
    assert np.isinf(after[0].c[:, 3:]).all()
    with pytest.raises(ValueError, match="non-finite cell input"):
        layers.forward(params, xs[:1], after)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pass_through_layer_rejects_a_carried_in_inf():
    """The seed tree passes c and d through, so every step reads the
    carried-in arrays themselves; each is checked, in 1-step chunks too."""
    params = {}
    layers = RecurrentLayers([[(compile_tree(seed_tree()), 3)]], 2, rng_for(0), params)
    xs = np.zeros((3, 4, 2))
    for length in (1, 3):
        layers.forward(params, xs[:length], layers.zero_states(4))
        for memory in ("c", "d"):
            states = layers.zero_states(4)
            getattr(states[0], memory)[2, 1] = np.inf
            with pytest.raises(ValueError, match="non-finite cell input"):
                layers.forward(params, xs[:length], states)


def test_parameters_and_gradients_are_views_of_one_flat_vector():
    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=400,
                             valid_tokens=200, test_tokens=200, seed=0)
    spec = NetworkSpec([LayerSpec(6, [(0, 3), (1, 3)])] * 2, 4, vocab_size=5)
    for optimizer in ("sgd", "adam"):
        net = build_network(spec, [lstm_reference_tree(), BOTH_TAPS], rng_for(1))
        before = {k: v.copy() for k, v in net.params.items()}
        train(net, task, TrainConfig(unroll_steps=10, batch_size=4, epochs=1,
                                     optimizer=optimizer, lr=0.01, seed=2))
        assert all(not np.array_equal(before[k], v) for k, v in net.params.items())
        x = rng_for(3).integers(0, 5, size=(4, 7))
        logits, _, cache = net.forward_chunk(x, net.zero_states(4), record=True)
        grads = net.backward_chunk(cache, softmax_ce(logits, x)[1])
        assert grads.keys() == net.params.keys()
        assert_views_of_flat(grads)
        assert_views_of_flat(net.params)
        assert net.param_count() == net.params.flat.size


def test_training_holds_one_recorded_chunk_cache_at_a_time(monkeypatch):
    """A chunk's cache dies before the next chunk records its own."""
    from treecell.network import Network

    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=400,
                             valid_tokens=200, test_tokens=200, seed=0)
    net = build_network(homogeneous_spec(6, 1, 4, vocab_size=5), [lstm_reference_tree()],
                        rng_for(1))
    # the last slot of the first step's tape: an op output, not a carried state
    alive = watch_cache_lifetimes(monkeypatch, Network, "forward_chunk",
                                  lambda cache: cache["layers"][0]["tapes"][0][-1])
    train(net, task, TrainConfig(unroll_steps=10, batch_size=4, epochs=2,
                                 optimizer="adam", lr=0.01, seed=2))
    assert alive and not any(alive)


def _mib_held(record):
    """MiB that numpy and Python hold, by ``tracemalloc``, in what ``record()``
    returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = record()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return held / 2**20


def test_recorded_predictor_minibatch_holds_no_projection():
    """A tape keeps only what the reverse reads, so a 30-step member's
    recorded minibatch at the predictor's shape (width 40, two layers, batch
    50) keeps no step's projection alive: about 8.9 MiB, where the
    projections alone take about 12."""
    from treecell.meta import MetaConfig, _Seq2Seq

    member = _Seq2Seq(30, MetaConfig(width=40, layers=2), rng_for(0))
    prefix_log = np.log(rng_for(1).uniform(2.0, 10.0, size=(50, 10)))
    assert _mib_held(lambda: member.forward(prefix_log, record=True)) < 10.6


def test_recorded_desk_chunk_of_the_seed_tree_is_small():
    """The seed tree's reverse reads no base input, so its recorded chunk at
    the desk shape (width 24, batch 20, 35 steps) holds about 0.39 MiB and
    no (35, 20, 192) projection (1 MiB)."""
    net = build_network(homogeneous_spec(24, 1, 12, vocab_size=8), [seed_tree()],
                        rng_for(1))
    tokens = rng_for(2).integers(0, 8, size=(20, 35))
    assert _mib_held(lambda: net.forward_chunk(tokens, net.zero_states(20),
                                               record=True)) < 1.0


def _traced_peak_mib(run, before=lambda: None):
    """MiB by which ``tracemalloc``'s peak during ``run()`` exceeds what was
    held once ``before()`` had returned; both run under tracing."""
    tracemalloc.start()
    try:
        kept = before()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(kept)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return peak / 2**20


# the traced peak of the chunk below before backward reused the projection
HETERO_CHUNK_PEAK_BEFORE_MIB = 18.22


def test_hetero_chunk_that_pins_its_projection_writes_adjoints_into_it():
    """A width-100 layer of five 20-unit slots, two of them a cell whose
    reverse reads base inputs, at the desk chunk (batch 20, 35 steps): one
    recorded forward plus backward peaks at least one (35, 20, 800)
    projection, 4.27 MiB, below the 18.22 MiB it took with a separate
    base-adjoint buffer (about 13.7 MiB now)."""
    deep = parse(DEEP_GENOME.read_text())
    trees = [deep, lstm_reference_tree(), seed_tree(), deep, lstm_reference_tree()]
    net = build_network(NetworkSpec([heterogeneous_layer(range(5), 20)], 12, vocab_size=8),
                        trees, rng_for(1))
    assert net.layers.keeps_base == [True]
    tokens = rng_for(2).integers(0, 8, size=(20, 35))

    def chunk(_=None):
        logits, _, cache = net.forward_chunk(tokens, net.zero_states(20), record=True)
        return net.backward_chunk(cache, softmax_ce(logits, tokens)[1])

    chunk()  # compiles the kernels outside the trace
    projection = 35 * 20 * 8 * 100 * 8 / 2**20
    assert _traced_peak_mib(chunk) <= HETERO_CHUNK_PEAK_BEFORE_MIB - projection


def test_predictor_backward_peaks_about_one_mib_above_its_cache():
    """The backward of a 30-step member at the predictor's shape lets each
    step's tapes and each layer's adjoint buffer go once used, so it peaks
    about 1 MiB (the 0.6 MiB of gradients included) above the 8.9 MiB
    recorded cache; with every buffer kept to the end it was 3.5 MiB."""
    from treecell.meta import MetaConfig, _Seq2Seq

    member = _Seq2Seq(30, MetaConfig(width=40, layers=2), rng_for(0))
    prefix_log = np.log(rng_for(1).uniform(2.0, 10.0, size=(50, 10)))
    assert _traced_peak_mib(lambda cache: member.backward(cache, np.ones((50, 30))),
                            lambda: member.forward(prefix_log, record=True)[1]) < 1.25


def _arrays(obj):
    """Every array in a nest of dicts, lists and tuples; None is skipped."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return []


@pytest.mark.parametrize("slots, trees", [
    ([(0, 24)], [seed_tree()]),                               # one cell, a fresh buffer
    ([(0, 12), (1, 12)], [READS_BASE, lstm_reference_tree()]),  # a row, the projection
])
def test_a_float32_training_step_stays_float32(monkeypatch, slots, trees):
    """One desk chunk at float32, recorded, run backward, clipped and given
    one Adam update: the cache, the base-adjoint buffer each step's cell
    writes into, the gradients and Adam's moments are all float32."""
    import treecell.network as network

    net = build_network(NetworkSpec([LayerSpec(24, slots)], 12, vocab_size=8), trees,
                        rng_for(5), dtype=np.float32)
    tokens = rng_for(6).integers(0, 8, size=(20, 36))
    logits, _, cache = net.forward_chunk(tokens[:, :35], net.zero_states(20), record=True)
    layer = cache["layers"][0]
    assert (layer["xproj"] is None) == (len(slots) == 1)
    cached = _arrays(layer) + [cache["tops"]]
    assert len(_arrays(layer["tapes"])) >= 35 and len(layer["h_prev"]) == 35
    assert {a.dtype for a in cached} == {np.dtype(np.float32)}

    backward = network.cell_backward
    buffers = []

    def watched(cell, tape, gh, gc, gd, out):
        buffers.append(out.dtype)
        return backward(cell, tape, gh, gc, gd, out)

    monkeypatch.setattr(network, "cell_backward", watched)
    _, dlogits = softmax_ce(logits, tokens[:, 1:])
    grads = net.backward_chunk(cache, dlogits)
    assert buffers == [np.dtype(np.float32)] * 35
    clip_gradients(grads, 1e-3)
    adam = Adam(TrainConfig(lr=0.01))
    adam.step(net.params, grads)
    for arrays in (grads.values(), [grads.flat, adam.m, adam.v, net.params.flat]):
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


def test_flat_adam_matches_per_parameter_adam_bit_for_bit():
    """The one-pass update against the per-parameter loop it replaced."""
    spec = NetworkSpec([LayerSpec(6, [(0, 6)])], 4, vocab_size=5)
    for dtype in (np.float64, np.float32):
        net = build_network(spec, [lstm_reference_tree()], rng_for(4), dtype=dtype)
        ref = {k: v.copy() for k, v in net.params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        config = TrainConfig(optimizer="adam", lr=0.01)
        adam = Adam(config)
        rng = rng_for(5)
        for t in range(1, 4):
            grads = net.params.zeros_like()
            grads.flat[...] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-6, 3)
            adam.step(net.params, grads)
            for k in ref:
                g = grads[k]
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                mhat = m[k] / (1 - 0.9 ** t)
                vhat = v[k] / (1 - 0.999 ** t)
                ref[k] -= config.lr * mhat / (np.sqrt(vhat) + 1e-8)
            for k in ref:
                assert net.params[k].dtype == dtype
                assert net.params[k].tobytes() == ref[k].tobytes(), (dtype, t, k)


def test_scatter_rows_matches_add_at_bit_for_bit():
    rng = rng_for(3)
    rows = rng.integers(0, 5, size=300)  # 300 rows into 5: every row repeats
    values = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-8, 9, size=(300, 1))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    values[rows == 4] = -0.0  # a row of -0.0 alone sums to +0.0
    for dtype in (np.float64, np.float32):
        v = values.astype(dtype)
        expected = np.zeros((6, 7), dtype=dtype)  # row 5 gets nothing
        np.add.at(expected, rows, v)
        got = _scatter_rows(rows, v, 6)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()


def test_softmax_ce_matches_last_axis_max_bit_for_bit():
    rng = rng_for(4)
    logits = rng.normal(size=(3, 5, 4)) * 30.0
    logits[0, 0] = [-0.0, -1.0, 0.0, -2.0]   # zero max of either sign
    logits[0, 1] = [-0.0, -0.0, -3.0, -1.0]
    logits[1, 2] = [2.0, 2.0, 2.0, 2.0]
    targets = rng.integers(0, 4, size=(3, 5))
    loss, dlogits = softmax_ce(logits, targets)
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = (exp / exp.sum(axis=-1, keepdims=True)).reshape(-1, 4)
    picked = probs[np.arange(15), targets.ravel()]
    assert loss == float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    expected = probs.copy()
    expected[np.arange(15), targets.ravel()] -= 1.0
    expected /= 15
    assert dlogits.tobytes() == expected.reshape(3, 5, 4).tobytes()


def test_zero_lr_freezes_metric():
    task = delayed_copy_task(vocab_size=5, delay=2, train_tokens=800,
                             valid_tokens=300, test_tokens=300, seed=1)
    spec = homogeneous_spec(8, 1, 6, vocab_size=5)
    net = build_network(spec, [lstm_reference_tree()], rng_for(8))
    config = TrainConfig(unroll_steps=10, batch_size=4, epochs=3,
                         optimizer="sgd", lr=0.0, dropout_ff=0.0,
                         dropout_rec=0.0, l2=0.0, seed=3)
    curve = train(net, task, config)
    assert curve.metrics[0] == curve.metrics[1] == curve.metrics[2]


def test_untrained_lm_loss_near_log_vocab():
    vocab = 10
    task = delayed_copy_task(vocab_size=vocab, delay=1, train_tokens=600,
                             valid_tokens=300, test_tokens=300, seed=2)
    spec = homogeneous_spec(8, 1, 6, vocab_size=vocab)
    net = build_network(spec, [lstm_reference_tree()], rng_for(9))
    net.params["head.W"][:] = 0.0
    net.params["head.b"][:] = 0.0
    vx, vy = task.split("valid")
    ppl = eval_perplexity(net, vx, vy, batch_size=4, unroll=10)
    assert ppl == pytest.approx(vocab, rel=1e-12)


def test_perplexity_one_on_deterministic_sequence():
    vocab = 4
    n = 200
    stream = np.full(n, 2, dtype=np.int64)
    spec = homogeneous_spec(6, 1, 5, vocab_size=vocab)
    net = build_network(spec, [lstm_reference_tree()], rng_for(10))
    net.params["head.W"][:] = 0.0
    net.params["head.b"][:] = -50.0
    net.params["head.b"][2] = 50.0
    ppl = eval_perplexity(net, stream[:-1], stream[1:], batch_size=2, unroll=16)
    assert ppl == pytest.approx(1.0, abs=1e-9)


def test_perplexity_matches_independent_accumulation():
    vocab = 6
    task = delayed_copy_task(vocab_size=vocab, delay=1, train_tokens=500,
                             valid_tokens=260, test_tokens=260, seed=3)
    spec = homogeneous_spec(8, 1, 6, vocab_size=vocab)
    net = build_network(spec, [lstm_reference_tree()], rng_for(11))
    vx, vy = task.split("valid")
    batch, unroll = 4, 9
    ppl = eval_perplexity(net, vx, vy, batch_size=batch, unroll=unroll)
    # oracle: token-by-token log-prob accumulation with math.fsum
    x, y = make_streams(vx, vy, batch)
    states = net.zero_states(batch)
    logps = []
    for start in range(0, x.shape[1], unroll):
        logits, states, _ = net.forward_chunk(x[:, start:start + unroll], states)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=-1))
        yc = y[:, start:start + unroll]
        for b in range(logits.shape[0]):
            for t in range(logits.shape[1]):
                logps.append(float(shifted[b, t, yc[b, t]] - logz[b, t]))
    oracle = math.exp(-math.fsum(logps) / len(logps))
    assert ppl == pytest.approx(oracle, abs=1e-9)


def test_micro_f1_hand_case():
    # TP=2, FP=1, FN=1 -> precision = recall = 2/3 -> F1 = 2/3
    pred = np.array([[1, 1, 1], [0, 0, 0]])
    targ = np.array([[1, 1, 0], [1, 0, 0]])
    assert micro_f1(pred, targ) == pytest.approx(2 / 3)


def test_micro_f1_trivial_cases():
    targ = np.array([[1, 0], [0, 1]])
    assert micro_f1(targ, targ) == 1.0
    assert micro_f1(np.zeros_like(targ), targ) == 0.0


def test_training_loss_decreases_first_epoch_char_lm():
    from treecell.data import char_task_from_text, generate_babble_text

    text = generate_babble_text(30_000, seed=4)
    task = char_task_from_text(text)
    spec = homogeneous_spec(24, 1, 16, vocab_size=task.vocab_size)
    net = build_network(spec, [lstm_reference_tree()], rng_for(12))
    vx, vy = task.split("valid")
    before = eval_perplexity(net, vx, vy, batch_size=10, unroll=35)
    config = TrainConfig(unroll_steps=35, batch_size=10, epochs=1,
                         optimizer="adam", lr=0.01, dropout_ff=0.0,
                         dropout_rec=0.0, seed=5)
    curve = train(net, task, config)
    assert curve.metrics[0] < before


def test_music_task_trains_and_reports_f1():
    from treecell.data import generate_pianoroll, music_task_from_roll

    task = music_task_from_roll(generate_pianoroll(400, seed=6))
    spec = homogeneous_spec(16, 1, 0, io_dim=88, head="sigmoid")
    net = build_network(spec, [lstm_reference_tree()], rng_for(20))
    config = TrainConfig(unroll_steps=20, batch_size=4, epochs=2,
                         optimizer="adam", lr=0.01, dropout_ff=0.0,
                         dropout_rec=0.0, l2=0.0, seed=9)
    curve = train(net, task, config)
    assert curve.metric_name == "f1"
    assert len(curve.metrics) == 2
    assert all(0.0 <= v <= 1.0 for v in curve.metrics)
