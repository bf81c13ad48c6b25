import numpy as np
import pytest

from treecell.meta import (
    CurveSample,
    MetaConfig,
    baseline_epoch10,
    kendall_tau,
    load_model,
    load_samples_csv,
    mae_percent,
    save_model,
    save_samples_csv,
    synthetic_curves,
    train_meta,
)

from oracles import assert_views_of_flat, watch_cache_lifetimes


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def constant_family(n, seed=0, lo=2.0, hi=20.0):
    rng = rng_for(seed)
    return [CurveSample(tuple([v] * 10), float(v))
            for v in rng.uniform(lo, hi, size=n)]


@pytest.fixture(scope="module")
def constant_model():
    cfg = MetaConfig(width=16, layers=2, epochs=150, batch_size=40, lr=0.01,
                     patience=60, seed=1)
    return train_meta(constant_family(150, seed=0), cfg), cfg


@pytest.fixture(scope="module")
def crossing_model():
    train_s, _ = synthetic_curves(220, seed=5)
    cfg = MetaConfig(width=16, layers=2, epochs=80, batch_size=40, lr=0.01,
                     patience=40, seed=0)
    return train_meta(train_s, cfg), cfg


def test_baseline_returns_epoch10_value():
    prefix = [9.0, 8.0, 7.9, 7.8, 7.7, 7.6, 7.5, 7.45, 7.4, 7.3]
    assert baseline_epoch10(prefix) == 7.3
    constant = [4.2] * 10
    assert baseline_epoch10(constant) == 4.2  # equals the target exactly


def test_curve_sample_validation():
    with pytest.raises(ValueError):
        CurveSample((1.0,) * 9, 2.0)
    with pytest.raises(ValueError):
        CurveSample((1.0,) * 10, -2.0)
    with pytest.raises(ValueError):
        CurveSample((0.0,) + (1.0,) * 9, 2.0)


def test_mae_percent_scale_invariant():
    rng = rng_for(3)
    preds = rng.uniform(1, 10, size=50)
    targets = rng.uniform(1, 10, size=50)
    base = mae_percent(preds, targets)
    for scale in (0.01, 7.0, 1234.5):
        assert mae_percent(preds * scale, targets * scale) == pytest.approx(base)


def test_kendall_tau_sanity():
    assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    with pytest.raises(ValueError):
        kendall_tau([1], [1])


def test_samples_csv_round_trip(tmp_path):
    samples, _ = synthetic_curves(20, seed=9)
    path = tmp_path / "curves.csv"
    save_samples_csv(path, samples)
    header = path.read_text().splitlines()[0]
    assert len(header.split(",")) == 11
    again = load_samples_csv(path)
    assert len(again) == len(samples)
    for a, b in zip(samples, again):
        assert a.prefix == b.prefix
        assert a.target == b.target


def test_train_meta_requires_enough_samples():
    with pytest.raises(ValueError):
        train_meta(constant_family(50), MetaConfig(min_samples=100))


def test_constant_family_learns_below_one_percent(constant_model):
    model, _ = constant_model
    held = constant_family(40, seed=42, lo=2.5, hi=19.0)
    preds = model.predict_batch([s.prefix for s in held])
    mae = mae_percent(preds, [s.target for s in held])
    assert mae < 1.0


def test_constant_family_train_set_recall(constant_model):
    model, _ = constant_model
    sample = constant_family(150, seed=0)[7]
    pred = model.predict_batch([sample.prefix])[0]
    assert abs(pred - sample.target) / sample.target < 0.01


def test_prediction_is_member_mean_and_positive(constant_model):
    model, _ = constant_model
    prefix = np.full(10, 5.0)
    member_preds = [float(np.exp(m.forward(np.log(prefix)[None, :])[0, -1]))
                    for m in model.members]
    assert model.predict_batch([prefix])[0] == pytest.approx(np.mean(member_preds))
    assert model.predict_batch([prefix])[0] > 0
    assert len(model.members) == 2
    assert {m.decoder_len for m in model.members} == {30, 1}


def test_same_seed_same_model():
    cfg = MetaConfig(width=8, layers=2, epochs=20, batch_size=40, lr=0.01,
                     patience=20, seed=7)
    samples = constant_family(120, seed=3)
    a = train_meta(samples, cfg)
    b = train_meta(samples, cfg)
    prefix = np.full(10, 6.0)
    assert a.predict_batch([prefix])[0] == b.predict_batch([prefix])[0]


def test_predictor_fit_holds_one_recorded_cache_at_a_time(monkeypatch):
    """A minibatch's cache, every decoder step's tapes, dies before the next
    minibatch records its own: two at once raised the fit's peak by a cache."""
    from treecell.meta import _Seq2Seq

    # the last slot of the first decoder step's bottom-layer tape, an op output
    alive = watch_cache_lifetimes(
        monkeypatch, _Seq2Seq, "forward",
        lambda cache: cache["dec"][0]["stack"][0]["tapes"][0][-1])
    cfg = MetaConfig(width=8, layers=2, epochs=2, batch_size=40, patience=2, seed=7)
    train_meta(constant_family(120, seed=3), cfg)
    assert alive and not any(alive)


def test_duplication_invariance_of_loss_and_gradients():
    # the mean-absolute-percentage loss and its gradient are unchanged when
    # every sample is duplicated, so training sees the identical objective
    from treecell.meta import _Seq2Seq

    cfg = MetaConfig(width=8, layers=2, seed=5)
    member = _Seq2Seq(1, cfg, rng_for(2))
    samples = constant_family(60, seed=4)
    x = np.log(np.array([s.prefix for s in samples]))
    y = np.array([s.target for s in samples])
    xd = np.concatenate([x, x])
    yd = np.concatenate([y, y])

    def loss_and_grads(bx, by):
        outs, cache = member.forward(bx, record=True)
        preds = np.exp(outs)
        loss = float(np.mean(np.abs(preds[:, -1] - by) / by))
        douts = np.zeros_like(outs)
        douts[:, -1] = np.sign(preds[:, -1] - by) * preds[:, -1] / by / len(by)
        return loss, member.backward(cache, douts)

    loss_a, grads_a = loss_and_grads(x, y)
    loss_b, grads_b = loss_and_grads(xd, yd)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)
    for k in grads_a:
        assert np.allclose(grads_a[k], grads_b[k], rtol=1e-9, atol=1e-12), k


def test_seq2seq_backward_matches_finite_differences():
    # every parameter: the encoder's gradient arrives only through the
    # encoder-to-decoder state hand-off, and each decoder step after the
    # first reads the previous step's output back in as its input
    from treecell.meta import _Seq2Seq

    member = _Seq2Seq(4, MetaConfig(width=3, layers=2), rng_for(11))
    rng = rng_for(12)
    x = np.log(rng.uniform(1.0, 10.0, size=(2, 10)))
    weights = rng.normal(size=(2, 4))
    weights[:, 1] = 0.0  # an unsupervised step still passes gradient back

    def objective():
        return float(np.sum(weights * member.forward(x)))

    _, cache = member.forward(x, record=True)
    grads = member.backward(cache, weights)
    assert np.any(grads["enc.layer0.W"] != 0)
    eps = 1e-6
    worst = 0.0
    for name, param in member.params.items():
        flat = param.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = objective()
            flat[i] = orig - eps
            down = objective()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])))
    assert worst < 1e-5


def test_seq2seq_matches_step_major_bit_for_bit():
    """The encoder run as one sequence and the decoder as 1-step sequences
    give the step-major engine's outputs and gradients, bit for bit."""
    from treecell.meta import _Seq2Seq

    from oracles import step_major_seq2seq_backward, step_major_seq2seq_forward

    member = _Seq2Seq(6, MetaConfig(width=8, layers=2), rng_for(13))
    rng = rng_for(14)
    x = np.log(rng.uniform(1.0, 10.0, size=(13, 10)))
    douts = rng.normal(size=(13, 6))
    douts[:, 2] = 0.0
    outs, cache = member.forward(x, record=True)
    ref_outs, ref_cache = step_major_seq2seq_forward(member, x, record=True)
    assert np.array_equal(outs.view(np.int64), ref_outs.view(np.int64))
    grads = member.backward(cache, douts)
    ref_grads = step_major_seq2seq_backward(member, ref_cache, douts)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name].view(np.int64), ref_grads[name].view(np.int64)), name


def test_untrained_and_bad_prefix_raise(constant_model):
    from treecell.meta import CurvePredictor

    model, cfg = constant_model
    with pytest.raises(RuntimeError):
        CurvePredictor(cfg).predict_batch([[1.0] * 10])
    for bad in ([[1.0] * 9], [1.0] * 10, [[1.0] * 10, [1.0] * 9],
                [[-1.0] + [1.0] * 9], [[0.0] + [1.0] * 9],
                [[1.0] * 10, [float("nan")] + [1.0] * 9], [[float("inf")] + [1.0] * 9]):
        with pytest.raises(ValueError):
            model.predict_batch(bad)


def test_model_file_round_trip(tmp_path, constant_model):
    model, _ = constant_model
    path = tmp_path / "meta.npz"
    save_model(model, path)
    again = load_model(path)
    prefix = np.full(10, 4.0)
    assert again.predict_batch([prefix])[0] == model.predict_batch([prefix])[0]


def test_member_parameters_stay_views_after_restore_and_load(tmp_path):
    # patience 1 over 4 epochs: the best parameters are copied back at the end
    cfg = MetaConfig(width=4, layers=1, epochs=4, batch_size=40, lr=0.01,
                     patience=1, seed=2)
    model = train_meta(constant_family(120, seed=3), cfg)
    path = tmp_path / "meta.npz"
    save_model(model, path)
    again = load_model(path)
    for a, b in zip(model.members, again.members):
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
    for member in model.members + again.members:
        assert_views_of_flat(member.params)


def test_load_model_rejects_a_parameter_of_the_wrong_shape(tmp_path, constant_model):
    model, _ = constant_model
    path = tmp_path / "meta.npz"
    save_model(model, path)
    with np.load(path) as blob:
        arrays = dict(blob)
    arrays["member0/head.b"] = np.zeros(2)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValueError, match="member0/head.b has shape"):
        load_model(path)


def test_crossing_family_beats_baseline(crossing_model):
    model, _ = crossing_model
    test_s, _ = synthetic_curves(80, seed=77)
    tx = [s.prefix for s in test_s]
    ty = np.array([s.target for s in test_s])
    preds = model.predict_batch(tx)
    baseline = [baseline_epoch10(p) for p in tx]
    assert mae_percent(preds, ty) <= 10.0
    assert kendall_tau(preds, ty) > kendall_tau(baseline, ty)


def test_monotone_prefix_prediction_sanity_band(crossing_model):
    model, _ = crossing_model
    test_s, _ = synthetic_curves(80, seed=77)
    monotone = [s for s in test_s
                if all(a >= b for a, b in zip(s.prefix, s.prefix[1:]))]
    if len(monotone) < 10:
        pytest.skip("too few strictly monotone prefixes in this draw")
    ok = sum(1 for s in monotone if model.predict_batch([s.prefix])[0] <= s.prefix[0])
    assert ok / len(monotone) >= 0.95


def test_synthetic_family_contains_crossings():
    samples, curves = synthetic_curves(200, seed=1)
    flips = 0
    for i in range(0, 180, 2):
        a, b = samples[i], samples[i + 1]
        early = baseline_epoch10(a.prefix) - baseline_epoch10(b.prefix)
        late = a.target - b.target
        if early * late < 0:
            flips += 1
    assert flips >= 15  # rankings genuinely disagree between epoch 10 and the end
