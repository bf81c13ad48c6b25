import math

import numpy as np
import pytest

from treecell.compiler import lstm_reference_tree
from treecell.data import delayed_copy_task, make_streams
from treecell.genetic import random_genome
from treecell.network import (
    LayerSpec,
    NetworkSpec,
    build_network,
    heterogeneous_layer,
    homogeneous_spec,
)
from treecell.training import (
    TrainConfig,
    clip_gradients,
    eval_perplexity,
    global_norm,
    micro_f1,
    softmax_ce,
    train,
)
from treecell.tree import build_tree


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


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
    both = build_tree(("mul", ("sigmoid", "x3"),
                       ("tanh", ("add@c", ("mul", ("sigmoid", "x1"), "cprev"),
                                 ("mul@d", ("sigmoid", "x0"), ("tanh", "dprev"))))))
    spec = homogeneous_spec(24, 1, 8, vocab_size=11)
    net_a = build_network(spec, [only_c], rng_for(2))
    net_b = build_network(spec, [both], rng_for(2))
    assert net_a.param_count() == net_b.param_count()


def test_slot_cardinality_mismatch_rejected():
    spec = NetworkSpec([LayerSpec(50, [(0, 20), (0, 20)])], 8, vocab_size=9)
    with pytest.raises(ValueError):
        build_network(spec, [lstm_reference_tree()], rng_for(0))


def test_network_gradients_match_finite_differences():
    vocab, emb, width = 5, 4, 6
    spec = homogeneous_spec(width, 2, emb, vocab_size=vocab)
    net = build_network(spec, [lstm_reference_tree()], rng_for(3))
    rng = rng_for(4)
    x = rng.integers(0, vocab, size=(3, 7))
    y = rng.integers(0, vocab, size=(3, 7))
    states = net.zero_states(3)

    def loss_value():
        logits, _, _ = net.forward_chunk(x, states)
        loss, _ = softmax_ce(logits, y)
        return loss

    logits, _, cache = net.forward_chunk(x, states, record=True)
    _, dlogits = softmax_ce(logits, y)
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
                             dropout_rec=0.1, seed=11, check_grad_norm=True)
        curves.append(train(net, task, config).metrics)
    assert curves[0] == curves[1]  # bit-identical


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
