"""MLP forward/backward, Adam training, and head retraining variants."""

from dataclasses import replace

import numpy as np
import pytest

from oib.errors import DimensionError, NumericalError
from oib.inference_net import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS,
                               BLAS_THREADS, LR_DECAY_FACTOR, MlpModel,
                               TrainConfig, _batch_loss_grads, _FlatAdam,
                               _forward_layers, _train_core, accuracy,
                               finetune_head, forward, forward_from_layer,
                               head_inputs, head_model, init_mlp, train,
                               train_head_on_z, train_multi_rho_head)


def blob_data(seed, n=240, d=6, classes=3):
    """Linearly separable class blobs."""
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.standard_normal((classes, d))
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + rng.standard_normal((n, d))
    return x.astype(np.float32), labels


def test_init_mlp_he_uniform_and_reproducible():
    a = init_mlp([8, 5, 3], seed=0)
    b = init_mlp([8, 5, 3], seed=0)
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
    assert a.dtype == np.float32
    assert a.layer_sizes == [8, 5, 3]
    w0, b0 = a.layers[0]
    assert np.max(np.abs(w0)) <= np.sqrt(6.0 / 8)
    assert np.all(b0 == 0)
    c = init_mlp([8, 5, 3], seed=1)
    assert not np.array_equal(c.layers[0][0], w0)


def test_model_layer_chaining_is_validated():
    w1 = np.zeros((5, 8), dtype=np.float32)
    w2 = np.zeros((3, 4), dtype=np.float32)  # expects 4, gets 5
    with pytest.raises(DimensionError):
        MlpModel([(w1, np.zeros(5, np.float32)), (w2, np.zeros(3, np.float32))])
    with pytest.raises(DimensionError):
        MlpModel([])


def test_forward_matches_manual_relu_chain():
    model = init_mlp([4, 3, 2], seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    (w0, b0), (w1, b1) = model.layers
    manual = np.maximum(x @ w0.T + b0, 0) @ w1.T + b1
    np.testing.assert_array_equal(forward(model, x), manual)
    # single rows hit a different BLAS kernel (dot vs gemm), so allow ulps
    np.testing.assert_allclose(forward(model, x[0]), manual[0],
                               rtol=1e-6, atol=1e-6)
    with pytest.raises(DimensionError):
        forward(model, np.zeros(5))
    with pytest.raises(DimensionError):
        forward(model, x[:, :, None])


def test_forward_from_layer_matches_full_pass():
    model = init_mlp([6, 5, 4, 3], seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 6)).astype(np.float32)
    pre = x @ model.layers[0][0].T + model.layers[0][1]
    np.testing.assert_array_equal(forward_from_layer(model, 1, pre),
                                  forward(model, x))
    np.testing.assert_array_equal(forward_from_layer(model, 0, x),
                                  forward(model, x))
    # one vector, within the ulps of test_forward_matches_manual_relu_chain
    np.testing.assert_allclose(forward_from_layer(model, 1, pre[0]),
                               forward(model, x)[0], rtol=1e-6, atol=1e-6)
    with pytest.raises(DimensionError):
        forward_from_layer(model, 4, pre)
    with pytest.raises(DimensionError):
        forward_from_layer(model, 1, pre[:, :, None])


def test_forward_from_layer_enters_on_the_head_inputs():
    model = init_mlp([6, 5, 4, 3], seed=4)
    y = np.random.default_rng(5).standard_normal((9, 5))
    assert y.dtype == np.float64 and y.min() < 0
    np.testing.assert_array_equal(
        forward_from_layer(model, 1, y),
        forward(head_model(model), head_inputs(y, model.dtype)))


def test_head_trainers_refuse_pools_in_another_dtype():
    x, labels = blob_data(19, n=60)
    model = init_mlp([6, 8, 3], seed=0)
    pre = (x @ model.layers[0][0].T).astype(np.float64)
    cfg = TrainConfig(epochs=1, seed=1)
    with pytest.raises(DimensionError, match="dtype"):
        finetune_head(head_model(model), {0: pre}, labels, cfg)
    with pytest.raises(DimensionError, match="dtype"):
        train_multi_rho_head(model, {10: head_inputs(pre, model.dtype),
                                     20: pre}, labels, cfg)


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    sizes = [6, 5, 4, 3]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        layers.append((rng.standard_normal((fan_out, fan_in)),
                       rng.standard_normal(fan_out)))
    xb = rng.standard_normal((11, 6))
    yb = rng.integers(0, 3, size=11)
    _, grads = _batch_loss_grads(layers, xb, yb)
    eps = 1e-6
    worst = 0.0
    for li, (w, b) in enumerate(layers):
        for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
            flat = arr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                up, _ = _batch_loss_grads(layers, xb, yb)
                flat[k] = keep - eps
                down, _ = _batch_loss_grads(layers, xb, yb)
                flat[k] = keep
                fd = (up - down) / (2.0 * eps)
                ga = g.ravel()[k]
                rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-10)
                worst = max(worst, rel)
    assert worst < 1e-4


def test_training_reduces_loss_and_is_bitwise_reproducible():
    x, labels = blob_data(7)
    cfg = TrainConfig(epochs=8, learning_rate=1e-2, batch_size=32, seed=1)
    model = init_mlp([6, 16, 3], seed=0)
    trained1, losses1 = train(model, x, labels, cfg)
    trained2, losses2 = train(model, x, labels, cfg)
    assert losses1 == losses2
    for (w1, b1), (w2, b2) in zip(trained1.layers, trained2.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert losses1[-1] < 0.5 * losses1[0]
    assert accuracy(trained1, x, labels) > 0.9
    # the input model is left untouched
    assert np.array_equal(model.layers[0][0], init_mlp([6, 16, 3], 0).layers[0][0])


def test_zero_epochs_and_zero_learning_rate_keep_weights():
    x, labels = blob_data(8)
    model = init_mlp([6, 8, 3], seed=0)
    for cfg in (TrainConfig(epochs=0, seed=1),
                TrainConfig(epochs=3, learning_rate=0.0, seed=1)):
        trained, _ = train(model, x, labels, cfg)
        for (w1, b1), (w2, b2) in zip(trained.layers, model.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)


def test_learning_rate_decay_matches_rescaled_rate():
    x, labels = blob_data(9)
    model = init_mlp([6, 8, 3], seed=0)
    lr = 1e-2
    decayed, _ = train(model, x, labels,
                       TrainConfig(epochs=4, learning_rate=lr, seed=2,
                                   lr_decay_at=0))
    direct, _ = train(model, x, labels,
                      TrainConfig(epochs=4, learning_rate=lr * LR_DECAY_FACTOR,
                                  seed=2))
    for (w1, b1), (w2, b2) in zip(decayed.layers, direct.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)


def test_non_finite_loss_raises():
    x, labels = blob_data(10)
    x = x.copy()
    x[0, 0] = np.nan
    model = init_mlp([6, 8, 3], seed=0)
    with pytest.raises(NumericalError, match="diverged"):
        train(model, x, labels, TrainConfig(epochs=1, seed=1))


def perfect_model(x, labels, sizes):
    """A model that classifies every sample right, so that no epoch of
    further training can beat its validation accuracy."""
    model, _ = train(init_mlp(sizes, seed=0), x, labels,
                     TrainConfig(epochs=10, learning_rate=1e-2, seed=9))
    assert accuracy(model, x, labels) == 1.0
    return model


def test_run_that_never_improves_returns_initial_weights():
    x, labels = blob_data(11)
    model = perfect_model(x, labels, [6, 8, 3])
    cfg = TrainConfig(epochs=4, learning_rate=1e-2, seed=3)
    moved, _ = train(model, x, labels, cfg)
    assert not np.array_equal(moved.layers[0][0], model.layers[0][0])
    for cfg in (TrainConfig(epochs=4, learning_rate=1e-2, seed=3,
                            val_fraction=0.25),
                TrainConfig(epochs=4, learning_rate=0.0, seed=3,
                            val_fraction=0.25)):
        trained, _ = train(model, x, labels, cfg)
        for (w1, b1), (w2, b2) in zip(trained.layers, model.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)


def test_validation_early_stopping_adopts_improvements():
    x, labels = blob_data(12)
    model = init_mlp([6, 16, 3], seed=0)
    cfg = TrainConfig(epochs=10, learning_rate=1e-2, seed=4,
                      val_fraction=0.25)
    trained, _ = train(model, x, labels, cfg)
    assert not np.array_equal(trained.layers[0][0], model.layers[0][0])
    assert accuracy(trained, x, labels) > accuracy(model, x, labels)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)


def test_head_retraining_on_reconstructions():
    x, labels = blob_data(14, n=300)
    model = init_mlp([6, 16, 8, 3], seed=0)
    model, _ = train(model, x, labels,
                     TrainConfig(epochs=6, learning_rate=1e-2, seed=1))
    w0, b0 = model.layers[0]
    pre = x @ w0.T + b0
    # corrupt the pre-activations, then let the head adapt
    noisy = pre + 0.5 * np.random.default_rng(15).standard_normal(pre.shape)
    head = head_model(model)
    relu = np.maximum(noisy, 0)
    base_acc = float(np.mean(forward(head, relu).argmax(1) == labels))
    tuned = finetune_head(head_model(model),
                          {0: head_inputs(noisy, model.dtype)}, labels,
                          TrainConfig(epochs=6, learning_rate=1e-3, seed=2))[0]
    tuned_acc = float(np.mean(forward(tuned, relu).argmax(1) == labels))
    assert tuned_acc >= base_acc
    assert tuned.layer_sizes == model.layer_sizes[1:]


def test_single_pool_multi_rho_equals_plain_finetune():
    # with one pool no pool draws are made, so the random streams align
    x, labels = blob_data(16, n=200)
    model = init_mlp([6, 10, 3], seed=0)
    pre = x @ model.layers[0][0].T + model.layers[0][1]
    cfg = TrainConfig(epochs=3, learning_rate=1e-3, seed=5)
    pool = head_inputs(pre, model.dtype)
    multi = train_multi_rho_head(model, {40: pool}, labels, cfg)
    plain = finetune_head(head_model(model), {0: pool}, labels, cfg)[0]
    for (w1, b1), (w2, b2) in zip(multi.layers, plain.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)


def test_multi_rho_head_mixes_pools_deterministically():
    x, labels = blob_data(17, n=200)
    model = init_mlp([6, 10, 3], seed=0)
    pre = x @ model.layers[0][0].T + model.layers[0][1]
    pools = {10: pre, 20: pre + 0.1, 30: pre - 0.1}
    cfg = TrainConfig(epochs=3, learning_rate=1e-3, seed=6)
    a = train_multi_rho_head(model, pools, labels, cfg)
    b = train_multi_rho_head(model, pools, labels, cfg)
    for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    with pytest.raises(ValueError):
        train_multi_rho_head(model, {}, labels, cfg)


def test_train_head_on_z_checks_width():
    x, labels = blob_data(18, n=120)
    z = x[:, :4]
    cfg = TrainConfig(epochs=2, seed=7)
    head = train_head_on_z(z, labels, [4, 8, 3], cfg)
    assert head.layer_sizes == [4, 8, 3]
    with pytest.raises(DimensionError):
        train_head_on_z(z, labels, [5, 8, 3], cfg)


def _oracle_loss_grads(layers, xb, yb):
    """Loss and per-layer gradients, each gradient a new array."""
    acts = [xb]
    a = xb
    for i, (w, b) in enumerate(layers):
        a = a @ w.T + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0)
        acts.append(a)
    z = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(p[np.arange(len(yb)), yb] + 1e-30))
    g = p.copy()
    g[np.arange(len(yb)), yb] -= 1.0
    g /= len(yb)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[i] = (g.T @ acts[i], g.sum(axis=0))
        if i > 0:
            g = (g @ w) * (acts[i] > 0)
    return float(loss), grads


def _oracle_train_core(layers, pools, labels, cfg):
    """Adam as first written: one update expression per tensor, with its
    temporaries, and per-tensor copies for the early-stopping snapshot.
    Kept as the reference for the flat in-place update of ``_train_core``.
    """
    layers = [(w.copy(), b.copy()) for w, b in layers]
    rng = np.random.default_rng(cfg.seed)
    n = len(labels)
    if cfg.val_fraction > 0.0:
        perm = rng.permutation(n)
        n_val = int(round(cfg.val_fraction * n))
        val_idx, fit_idx = perm[:n_val], perm[n_val:]
        fit_pools = [p[fit_idx] for p in pools]
        fit_labels = labels[fit_idx]
        val_pools = [p[val_idx] for p in pools]
        val_labels = labels[val_idx]
    else:
        fit_pools, fit_labels = pools, labels
        val_pools = val_labels = None

    def val_accuracy(current):
        hits = 0.0
        for p in val_pools:
            logits = _forward_layers(current, p)
            hits += float(np.mean(logits.argmax(axis=1) == val_labels))
        return hits / len(val_pools)

    best = None
    best_val = -np.inf
    if val_pools is not None:
        best = [(w.copy(), b.copy()) for w, b in layers]
        best_val = val_accuracy(layers)
    ms = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    vs = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = 0
    n_fit = len(fit_labels)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate
        if cfg.lr_decay_at is not None and epoch >= cfg.lr_decay_at:
            lr = lr * LR_DECAY_FACTOR
        order = rng.permutation(n_fit)
        total = 0.0
        for start in range(0, n_fit, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            pool = rng.integers(len(fit_pools)) if len(fit_pools) > 1 else 0
            xb, yb = fit_pools[pool][idx], fit_labels[idx]
            loss, grads = _oracle_loss_grads(layers, xb, yb)
            total += loss * len(yb)
            t += 1
            c1 = 1.0 - beta1 ** t
            c2 = 1.0 - beta2 ** t
            for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(layers, grads,
                                                            ms, vs):
                for par, grad, m, v in ((w, gw, mw, vw), (b, gb, mb, vb)):
                    m *= beta1
                    m += (1.0 - beta1) * grad
                    v *= beta2
                    v += (1.0 - beta2) * grad * grad
                    par -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        losses.append(total / n_fit)
        if val_pools is not None:
            va = val_accuracy(layers)
            if va > best_val:
                best_val = va
                best = [(w.copy(), b.copy()) for w, b in layers]
    if val_pools is not None:
        layers = best
    return layers, losses


def _adam_case(name):
    """(layers, pools, labels, cfg) for one oracle comparison."""
    if name == "wide_first_layer":
        rng = np.random.default_rng(20)
        x = rng.random((96, 784)).astype(np.float32)
        labels = rng.integers(0, 10, size=96)
        return (init_mlp([784, 64, 16, 10], seed=3).layers, [x], labels,
                TrainConfig(epochs=1, seed=8))
    if name == "multi_block":
        # 76,330 parameters: one full ADAM_BLOCK and a ragged second block
        rng = np.random.default_rng(21)
        x = rng.random((96, 784)).astype(np.float32)
        labels = rng.integers(0, 10, size=96)
        return (init_mlp([784, 96, 10], seed=4).layers, [x], labels,
                TrainConfig(epochs=2, seed=9))
    x, labels = blob_data(19, n=300, d=12, classes=4)
    if name == "never_improves":
        return (perfect_model(x, labels, [12, 24, 16, 4]).layers, [x],
                labels, TrainConfig(epochs=3, learning_rate=1e-2, seed=5,
                                    val_fraction=0.2))
    layers = init_mlp([12, 24, 16, 4], seed=1).layers
    cfg = {"single_pool": TrainConfig(epochs=4, learning_rate=1e-2, seed=2),
           "lr_decay": TrainConfig(epochs=4, learning_rate=1e-2, seed=3,
                                   lr_decay_at=2),
           "early_stopping": TrainConfig(epochs=6, learning_rate=3e-2,
                                         seed=4, val_fraction=0.25),
           "multi_pool": TrainConfig(epochs=4, learning_rate=1e-2, seed=6,
                                     val_fraction=0.2)}[name]
    pools = [x]
    if name == "multi_pool":
        pools = [x, (x + 0.3).astype(np.float32), (0.8 * x).astype(
            np.float32)]
    return layers, pools, labels, cfg


@pytest.mark.parametrize("name", ["single_pool", "lr_decay",
                                  "early_stopping", "never_improves",
                                  "multi_pool", "wide_first_layer",
                                  "multi_block"])
def test_flat_adam_matches_the_per_tensor_oracle(name):
    layers, pools, labels, cfg = _adam_case(name)
    if name == "multi_block":
        n_params = sum(w.size + b.size for w, b in layers)
        assert ADAM_BLOCK < n_params < 2 * ADAM_BLOCK
    [(got, got_losses)] = _train_core(layers, [pools], labels, [cfg])
    with BLAS_THREADS.one_thread():
        want, want_losses = _oracle_train_core(layers, pools, labels, cfg)
    assert got_losses == want_losses
    assert len(got) == len(want)
    for (w1, b1), (w2, b2) in zip(got, want):
        assert w1.dtype == w2.dtype and w1.shape == w2.shape
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    # the input layers are left untouched
    for (w0, b0), (w1, _) in zip(layers, _adam_case(name)[0]):
        assert np.array_equal(w0, w1)
    if name == "never_improves":
        for (w1, b1), (w0, b0) in zip(got, layers):
            assert np.array_equal(w1, w0) and np.array_equal(b1, b0)
    else:
        assert not np.array_equal(got[0][0], layers[0][0])


@pytest.mark.parametrize("lr", [1e-3, 1e-4])
def test_moment_floor_removes_subnormals_and_keeps_weights(lr):
    """A third of the entries get gradients on every step, a third only on
    the first five, and a third on the first five and again from step 850
    on.  The unfloored recurrence decays the idle first moments into
    float32 subnormals; the floored update never holds one, and every
    weight equals the recurrence's bitwise after every step."""
    rng = np.random.default_rng(22)
    n = 3000
    params = rng.uniform(-0.1, 0.1, n).astype(np.float32)
    want = params.copy()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    adam = _FlatAdam(params)
    tiny = np.finfo(np.float32).tiny
    oracle_subnormal = False
    for t in range(1, 1001):
        g = np.zeros(n, dtype=np.float32)
        g[:1000] = 1e-2 * rng.standard_normal(1000)
        if t <= 5:
            g[1000:] = 1e-2 * rng.standard_normal(2000)
        elif t >= 850:
            g[2000:] = 1e-2 * rng.standard_normal(1000)
        adam.grad[:] = g
        adam.step(lr)
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        want -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        assert np.array_equal(params, want)
        assert not np.any((adam.m != 0) & (np.abs(adam.m) < tiny))
        oracle_subnormal |= bool(np.any((m != 0) & (np.abs(m) < tiny)))
    assert oracle_subnormal
    assert np.all(adam.m[1000:2000] == 0)


def test_stacked_finetunes_are_each_heads_own_training_for_any_split():
    """Heads fine-tuned as one stack, as two or one per call are bitwise
    what the per-tensor oracle trains for each alone.  On clean inputs
    the head is already perfect, so it keeps its start; on noisy inputs
    heads can improve and move."""
    x, labels = blob_data(23, n=300, d=12, classes=4)
    model = perfect_model(x, labels, [12, 24, 16, 4])
    w0, b0 = model.layers[0]
    pre = x @ w0.T + b0
    noise = np.random.default_rng(24).standard_normal(pre.shape)
    pools = {0: pre, 3: pre + 3.0 * noise, 7: pre - 3.0 * noise,
             12: pre + 5.0 * noise}
    head = head_model(model)
    cfg = TrainConfig(epochs=3, learning_rate=1e-2, seed=5,
                      val_fraction=0.2)
    want = {}
    with BLAS_THREADS.one_thread():
        for k, pool in pools.items():
            want[k], _ = _oracle_train_core(
                head.layers, [np.maximum(pool, 0).astype(np.float32)],
                labels, replace(cfg, seed=cfg.seed + k))
    sizes = list(pools)
    for split in ([sizes], [sizes[:2], sizes[2:]], [[k] for k in sizes]):
        got = {}
        for stack in split:
            got.update(finetune_head(
                head, {k: head_inputs(pools[k], head.dtype) for k in stack},
                labels, cfg))
        assert list(got) == sizes
        for k in sizes:
            for (w1, b1), (w2, b2) in zip(got[k].layers, want[k]):
                assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    kept = [k for k in sizes
            if all(np.array_equal(w1, w2) for (w1, _), (w2, _)
                   in zip(got[k].layers, head.layers))]
    assert 0 in kept and len(kept) < len(sizes)


def test_stacked_configs_must_agree_but_for_the_seed():
    x, labels = blob_data(25, n=60)
    layers = init_mlp([6, 8, 3], seed=0).layers
    cfg = TrainConfig(epochs=1, seed=1)
    with pytest.raises(ValueError, match="seed"):
        _train_core(layers, [[x], [x]], labels,
                    [cfg, replace(cfg, seed=2, learning_rate=1e-2)])
    with pytest.raises(ValueError, match="seed"):
        _train_core(layers, [[x], [x]], labels, [cfg])


def test_a_diverging_head_in_a_stack_raises():
    x, labels = blob_data(26, n=60)
    head = init_mlp([6, 8, 3], seed=0)
    bad = x.copy()
    bad[:, 0] = np.nan
    with pytest.raises(NumericalError, match="diverged.*seed 4"):
        finetune_head(head, {0: x, 3: bad}, labels,
                      TrainConfig(epochs=2, seed=1))
