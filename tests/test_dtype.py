"""float32 end to end: with float32 parameters every encoder kernel, both
training objectives, the optimizer and both training loops return float32
arrays, and their float32 gradients agree with the float64 gradients of
the same parameters."""

import numpy as np
import pytest

from bitextmine import encoder
from bitextmine.encoder import (
    EncoderConfig,
    backward_batch,
    encode_batch,
    forward_batch,
    init_params,
    mlm_loss_and_grad,
    plan_masks,
    stack_grow,
)
from bitextmine.loss import LossConfig, loss_and_grad_wrt_embeddings
from bitextmine.negatives import shard_batch, sharded_bidirectional_loss
from bitextmine.trainer import (
    PretrainConfig,
    Stage,
    TrainConfig,
    finetune_dual_encoder,
    init_optimizer_state,
    optimizer_step,
    pretrain,
)
from bitextmine.vocab import CLS_ID, SEP_ID

from conftest import columns, float64_params

F32 = np.dtype(np.float32)


def params_of(vocab_size=40, d=16, layers=3, seed=0):
    cfg = EncoderConfig(vocab_size=vocab_size, hidden_dim=d, num_layers=layers, max_seq_len=16)
    return init_params(cfg, seed=seed)


def sentences(rng, n, vocab_size=40):
    return [[CLS_ID, *rng.integers(5, vocab_size, size=rng.integers(1, 9)).tolist(), SEP_ID] for _ in range(n)]


@pytest.fixture()
def layer_inputs(monkeypatch):
    """The dtypes of the arrays that reach the layer backward and the
    embedding scatter; a promotion there would not show in the
    gradients, which are accumulated in place."""
    seen = []
    backward_layers, scatter_add = encoder._backward_layers, encoder._scatter_add

    def record_backward(params, cache, d_top, grads):
        seen.append(("d_top", d_top.dtype))
        return backward_layers(params, cache, d_top, grads)

    def record_scatter(target, ids, rows):
        seen.append(("scatter rows", rows.dtype))
        return scatter_add(target, ids, rows)

    monkeypatch.setattr(encoder, "_backward_layers", record_backward)
    monkeypatch.setattr(encoder, "_scatter_add", record_scatter)
    return seen


def test_forward_encode_and_backward_stay_float32(layer_inputs):
    p = params_of()
    assert p.flat.dtype == F32
    batch = sentences(np.random.default_rng(0), 12)
    vectors, cache = forward_batch(p, batch)
    assert vectors.dtype == F32
    for name in ("hiddens", "gates", "pooled", "pre_norm", "norms"):
        assert getattr(cache, name).dtype == F32, name
    assert encode_batch(p, batch).dtype == F32
    grads = backward_batch(p, cache, np.ones_like(vectors))
    assert grads.flat.dtype == F32
    assert layer_inputs == [("d_top", F32), ("scatter rows", F32)]


def test_masked_token_head_stays_float32(layer_inputs):
    p = params_of()
    batch = plan_masks(sentences(np.random.default_rng(1), 12), np.random.default_rng(2), fraction=0.5)
    loss, grads = mlm_loss_and_grad(p, batch)
    assert isinstance(loss, float)
    assert grads.flat.dtype == F32
    assert layer_inputs == [("d_top", F32), ("scatter rows", F32)]


@pytest.mark.parametrize("shards", [1, 4])
def test_ranking_loss_stays_float32(shards):
    rng = np.random.default_rng(3)
    X, Y = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in rng.normal(size=(2, 8, 6)).astype(F32))
    for _, dX, dY in (
        loss_and_grad_wrt_embeddings(X, Y, LossConfig()),
        sharded_bidirectional_loss(shard_batch(X, Y, shards), LossConfig()),
    ):
        assert dX.dtype == dY.dtype == F32


def test_optimizer_step_and_stack_grow_stay_float32():
    p = params_of(layers=1)
    state = init_optimizer_state(p, TrainConfig(batch_size=4, steps=10, weight_decay=0.1))
    grads = encoder.zeros_like_params(p)
    grads.flat[:] = np.random.default_rng(4).normal(size=p.flat.size)
    optimizer_step(p, grads, state)
    for vec in (p.flat, state.first_moment, state.second_moment):
        assert vec.dtype == F32
    assert stack_grow(p, 2).flat.dtype == F32


def test_training_loops_return_float32(toy_small, toy_vocab, toy_encoder_config):
    mono, pairs = columns(toy_small.mono_sentences), columns(toy_small.train_pairs)
    params, state = finetune_dual_encoder(
        init_params(toy_encoder_config, 1), pairs, TrainConfig(batch_size=8, steps=2), toy_vocab
    )
    for vec in (params.flat, state.first_moment, state.second_moment):
        assert vec.dtype == F32
    start = init_params(EncoderConfig(len(toy_vocab), hidden_dim=8, num_layers=1, max_seq_len=16), 2)
    config = PretrainConfig((Stage(1, 2), Stage(2, 2)), batch_size=8)
    assert pretrain(start, mono, pairs, config, toy_vocab).flat.dtype == F32


# Relative tolerance of a float32 gradient tensor against the float64
# gradient of the same parameters, in the norm of their difference.
GRAD_RTOL = 1e-4


def assert_close_to_float64(grads32, grads64):
    for (name, g32), (_, g64) in zip(grads32.named_arrays(), grads64.named_arrays()):
        assert g32.dtype == F32 and g64.dtype == np.float64, name
        if not g64.any():  # a tensor the objective does not reach
            assert not g32.any(), name
            continue
        err = np.linalg.norm(g32.astype(np.float64) - g64) / np.linalg.norm(g64)
        assert err <= GRAD_RTOL, (name, err)


def assert_float64_matches_finite_differences(p64, grads64, objective, coords=40):
    """A central-difference spot check of the float64 gradient, the
    reference the float32 one is held to."""
    rng = np.random.default_rng(8)
    h = 1e-6
    fd, an = [], []
    for k in rng.choice(p64.flat.size, size=coords, replace=False):
        orig = p64.flat[k]
        p64.flat[k] = orig + h
        lp = objective()
        p64.flat[k] = orig - h
        lm = objective()
        p64.flat[k] = orig
        fd.append((lp - lm) / (2 * h))
        an.append(grads64.flat[k])
    assert np.linalg.norm(np.subtract(fd, an)) <= 1e-6 * np.linalg.norm(an)


def test_float32_backward_matches_the_float64_gradient():
    p32 = params_of(seed=5)
    p64 = float64_params(p32)
    batch = sentences(np.random.default_rng(6), 16)
    c = np.random.default_rng(7).normal(size=(len(batch), p32.config.embed_dim))
    v32, cache32 = forward_batch(p32, batch)
    v64, cache64 = forward_batch(p64, batch)
    np.testing.assert_allclose(v32, v64, atol=1e-6)
    grads64 = backward_batch(p64, cache64, c)
    assert_close_to_float64(backward_batch(p32, cache32, c.astype(F32)), grads64)
    assert_float64_matches_finite_differences(p64, grads64, lambda: float((forward_batch(p64, batch)[0] * c).sum()))


def test_float32_masked_token_gradient_matches_the_float64_gradient():
    p32 = params_of(seed=9)
    p64 = float64_params(p32)
    batch = plan_masks(sentences(np.random.default_rng(10), 16), np.random.default_rng(11), fraction=0.5)
    loss32, grads32 = mlm_loss_and_grad(p32, batch)
    loss64, grads64 = mlm_loss_and_grad(p64, batch)
    assert loss32 == pytest.approx(loss64, rel=1e-6)
    assert_close_to_float64(grads32, grads64)
    assert_float64_matches_finite_differences(p64, grads64, lambda: mlm_loss_and_grad(p64, batch)[0])
