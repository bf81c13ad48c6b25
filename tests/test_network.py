import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecell.compiler import CellState, compile_tree, lstm_reference_tree
from treecell.data import delayed_copy_task, make_streams
from treecell.genetic import random_genome
from treecell.network import (
    LayerSpec,
    NetworkSpec,
    RecurrentLayers,
    _scatter_rows,
    build_network,
    heterogeneous_layer,
    homogeneous_spec,
)
from treecell.training import (
    Adam,
    TrainConfig,
    TrainingDiverged,
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
    return np.ascontiguousarray(a).view(np.int64)


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
    grads = {"a": np.full((10, 10), 3.0), "b": np.full(7, -2.0)}
    clip_gradients(grads, 10.0)
    assert global_norm(grads) <= 10.0 + 1e-9
    small = {"a": np.full(3, 0.1)}
    norm_before = global_norm(small)
    clip_gradients(small, 10.0)
    assert global_norm(small) == pytest.approx(norm_before)


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
