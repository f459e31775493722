import ast
import io
import math
import struct
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bitextmine import trainer as trainer_module
from bitextmine.corpus import Sentence, SentencePair, SentencePairs
from bitextmine.encoder import (
    EncoderConfig, EncoderParams, _pack, encode, forward_batch, init_params, param_count, plan_masks, tlm_sequence,
)
from bitextmine.errors import CheckpointError, NumericalError
from bitextmine.loss import LossConfig
from bitextmine.mining import MiningConfig
from bitextmine.trainer import (
    BETA1,
    BETA2,
    EPS,
    OptimizerState,
    PretrainConfig,
    Stage,
    TrainConfig,
    checkpoint_to_bytes,
    finetune_dual_encoder,
    init_optimizer_state,
    load_checkpoint,
    lr_at,
    optimizer_step,
    pretrain,
    save_checkpoint,
)
from bitextmine.vocab import SPECIAL_TOKENS, Vocab, check_build_options, tokenize_sentence

from conftest import assert_same_masked_batch, columns, float64_params, unpacked, version_2_bytes

EMPTY_PAIRS = SentencePairs([], [], [], [], [], [])


def small_setup(layers=2, d=8, seed=0, vocab_size=40):
    cfg = EncoderConfig(vocab_size=vocab_size, hidden_dim=d, num_layers=layers, max_seq_len=16)
    return init_params(cfg, seed=seed)


def grads_like(params, fill=0.0):
    from bitextmine.encoder import zeros_like_params

    g = zeros_like_params(params)
    if fill:
        for _, arr in g.named_arrays():
            arr[:] = fill
    return g


def reference_step(theta, grads, first, second, t, config):
    """The per-tensor update that the flat one replaced, written out on
    dicts of named tensors: the new parameters and both new moments."""
    lr_t = lr_at(config, t)
    new_theta, new_first, new_second = {}, {}, {}
    for name, target in theta.items():
        g = grads[name]
        m = BETA1 * first[name] + (1.0 - BETA1) * g
        v = BETA2 * second[name] + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        update = lr_t * (m_hat / (np.sqrt(v_hat) + EPS) + config.weight_decay * target)
        new_theta[name], new_first[name], new_second[name] = target - update, m, v
    return new_theta, new_first, new_second


def named(params, flat=None):
    """Copies of the named tensors of ``params``, or of ``flat`` laid out like them."""
    view = params if flat is None else EncoderParams.from_flat(params.config, flat)
    return {name: arr.copy() for name, arr in view.named_arrays()}


class TestOptimizerStep:
    # 1 - BETA1**t rounds to exactly 1.0 from t = 356 on, so steps 354-358
    # cross the point where the first moment's bias correction vanishes.
    @pytest.mark.parametrize("start", [0, 353])
    def test_matches_the_per_tensor_reference_bit_for_bit(self, start):
        assert 1.0 - BETA1 ** (start + 1) < 1.0
        rng = np.random.default_rng(start)
        p = small_setup(seed=5)
        cfg = TrainConfig(batch_size=4, steps=1000, learning_rate=0.01, weight_decay=0.5)
        state = init_optimizer_state(p, cfg)
        if start:
            state.step_count = start
            state.first_moment[:] = rng.normal(0.0, 1e-2, p.flat.size)
            state.second_moment[:] = rng.random(p.flat.size) * 1e-4
        theta, first, second = named(p), named(p, state.first_moment), named(p, state.second_moment)
        for t in range(start + 1, start + 6):
            g = grads_like(p)
            g.flat[:] = rng.normal(0.0, 1.0, p.flat.size)
            theta, first, second = reference_step(theta, named(g), first, second, t, cfg)
            optimizer_step(p, g, state)
            assert state.step_count == t
            for name, arr in p.named_arrays():
                assert np.array_equal(arr, theta[name]), (t, name)
            for moment, ref in ((state.first_moment, first), (state.second_moment, second)):
                for name, arr in EncoderParams.from_flat(p.config, moment).named_arrays():
                    assert np.array_equal(arr, ref[name]), (t, name)
        if start:
            assert 1.0 - BETA1**t == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_without_decay_matches_the_full_formula_bit_for_bit(self, data):
        """With weight_decay 0 the step skips theta * 0, which could only
        turn an update of -0.0 into +0.0 and leave theta - update as it is."""
        p = small_setup(d=2, layers=1, vocab_size=6)
        signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0, width=32))
        vector = lambda elements: data.draw(arrays(np.float32, p.flat.size, elements=elements))
        p.flat[:] = vector(signed)
        cfg = TrainConfig(batch_size=4, steps=10, learning_rate=0.1, weight_decay=0.0)
        state = init_optimizer_state(p, cfg)
        state.first_moment[:] = vector(signed)
        state.second_moment[:] = vector(st.one_of(st.just(0.0), st.floats(0.0, 2.0, width=32)))
        theta, first, second = named(p), named(p, state.first_moment), named(p, state.second_moment)
        for t in range(1, 4):
            g = grads_like(p)
            g.flat[:] = vector(signed)
            theta, first, second = reference_step(theta, named(g), first, second, t, cfg)
            optimizer_step(p, g, state)
            for name, arr in p.named_arrays():
                assert arr.tobytes() == theta[name].tobytes(), (t, name)

    def test_nan_gradient_names_its_tensor_and_leaves_params(self):
        p = small_setup()
        before = checkpoint_to_bytes(p, None)
        g = grads_like(p)
        g.layers[1].bias[2] = np.nan
        state = init_optimizer_state(p, TrainConfig(batch_size=4, steps=10, learning_rate=0.1))
        with pytest.raises(NumericalError, match=r"'layers\.1\.bias' at step 1"):
            optimizer_step(p, g, state)
        assert checkpoint_to_bytes(p, None) == before
        assert state.step_count == 0

    def test_zero_gradient_no_decay_leaves_params(self):
        p = small_setup()
        before = p.copy()
        cfg = TrainConfig(batch_size=4, steps=10, learning_rate=0.1, weight_decay=0.0)
        state = init_optimizer_state(p, cfg)
        optimizer_step(p, grads_like(p), state)
        assert checkpoint_to_bytes(p, None) == checkpoint_to_bytes(before, None)
        assert state.step_count == 1

    def test_single_step_on_quadratic_decreases_magnitude(self):
        # f(theta) = theta^2 / 2, gradient = theta, from theta = 1
        p = small_setup(d=1, layers=1, vocab_size=6)
        p.output_bias[:] = 1.0
        g = grads_like(p)
        g.output_bias[:] = 1.0
        before = p.copy()
        cfg = TrainConfig(batch_size=4, steps=10, learning_rate=0.1)
        optimizer_step(p, g, init_optimizer_state(p, cfg))
        assert abs(p.output_bias[0]) < abs(before.output_bias[0])

    def test_decoupled_decay_shrinks_params(self):
        p = float64_params(small_setup())
        p0 = p.copy()
        cfg = TrainConfig(batch_size=4, steps=10, learning_rate=0.1, weight_decay=0.5)
        optimizer_step(p, grads_like(p), init_optimizer_state(p, cfg))
        before = np.linalg.norm(p0.token_embeddings)
        after = np.linalg.norm(p.token_embeddings)
        assert after < before
        np.testing.assert_allclose(p.token_embeddings, p0.token_embeddings * (1 - 0.1 * 0.5))

    def test_linear_decay_schedule(self):
        cfg = TrainConfig(batch_size=4, steps=100, learning_rate=1.0)
        assert lr_at(cfg, 1) == 1.0
        assert lr_at(cfg, 51) == pytest.approx(0.5)
        assert lr_at(cfg, 100) == pytest.approx(0.01)

    def test_non_finite_update_raises(self):
        p = small_setup()
        g = grads_like(p, fill=float("nan"))
        cfg = TrainConfig(batch_size=4, steps=10, learning_rate=0.1)
        with pytest.raises(NumericalError):
            optimizer_step(p, g, init_optimizer_state(p, cfg))


class TestFinetune:
    def run(self, toy_small, toy_vocab, params, steps, seed=0, **kw):
        cfg = TrainConfig(batch_size=8, steps=steps, learning_rate=1e-3, seed=seed, **kw)
        return finetune_dual_encoder(params, columns(toy_small.train_pairs), cfg, toy_vocab)

    def test_deterministic_trajectories(self, toy_small, toy_vocab, toy_encoder_config):
        a, _ = self.run(toy_small, toy_vocab, init_params(toy_encoder_config, 1), steps=12, seed=3)
        b, _ = self.run(toy_small, toy_vocab, init_params(toy_encoder_config, 1), steps=12, seed=3)
        assert checkpoint_to_bytes(a, None) == checkpoint_to_bytes(b, None)

    def test_shared_encoder_same_embedding_for_both_roles(self, toy_small, toy_vocab, toy_encoder_config):
        params, _ = self.run(toy_small, toy_vocab, init_params(toy_encoder_config, 1), steps=5)
        seq = tokenize_sentence(toy_small.train_pairs[0].src, toy_vocab, 16)
        np.testing.assert_array_equal(encode(params, seq), encode(params, seq))

    def test_sharded_config_matches_unsharded_run(self, toy_small, toy_vocab, toy_encoder_config):
        a, _ = self.run(toy_small, toy_vocab, init_params(toy_encoder_config, 1), steps=8, shards=1)
        b, _ = self.run(toy_small, toy_vocab, init_params(toy_encoder_config, 1), steps=8, shards=4)
        # the sharded loss equals the unsharded one, so trajectories agree
        assert checkpoint_to_bytes(a, None) == checkpoint_to_bytes(b, None)

    def test_training_log_format(self, toy_small, toy_vocab, toy_encoder_config):
        log, pairs = io.StringIO(), columns(toy_small.train_pairs)
        cfg = TrainConfig(batch_size=8, steps=3, learning_rate=1e-3, seed=0)
        finetune_dual_encoder(init_params(toy_encoder_config, 1), pairs, cfg, toy_vocab, log=log)
        lines = log.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("step=1 loss=")
        assert "pairs_seen=8" in lines[0]
        assert "pairs_seen=24" in lines[2]
        # a resumed run writes the unbroken run's line: its steps and pairs continue
        params, state = finetune_dual_encoder(
            init_params(toy_encoder_config, 1), pairs, cfg, toy_vocab, stop_step=2
        )
        resumed = io.StringIO()
        finetune_dual_encoder(params, pairs, cfg, toy_vocab, state=state, log=resumed)
        assert resumed.getvalue() == lines[2] + "\n"

    def test_loss_decreases_on_eval_batch(self, toy_small, toy_vocab, toy_encoder_config):
        from bitextmine.encoder import encode_batch
        from bitextmine.loss import LossConfig, loss_and_grad_wrt_embeddings

        eval_pairs = toy_small.test_pairs[:16]
        src = [tokenize_sentence(p.src, toy_vocab, 16) for p in eval_pairs]
        tgt = [tokenize_sentence(p.tgt, toy_vocab, 16) for p in eval_pairs]
        lcfg = LossConfig()

        def eval_loss(params):
            X, Y = encode_batch(params, src), encode_batch(params, tgt)
            return loss_and_grad_wrt_embeddings(X, Y, lcfg)[0]

        cfg = TrainConfig(batch_size=16, steps=200, learning_rate=3e-3, seed=0)
        params = init_params(toy_encoder_config, 1)
        state = None
        losses = [eval_loss(params)]
        stops = range(20, 201, 20)
        for stop in stops:
            params, state = finetune_dual_encoder(
                params, columns(toy_small.train_pairs), cfg, toy_vocab, state=state, stop_step=stop
            )
            losses.append(eval_loss(params))
        # The linear decay promises no monotone held-out loss near the
        # plateau, so strict drops are asked for only while the learning
        # rate is at least half its peak (steps 1-100, the first five
        # intervals); over the whole run the loss must at least halve, and
        # a sustained late rise must not take the final loss more than 10%
        # above the lowest one seen.
        half_peak = [i for i, stop in enumerate(stops) if lr_at(cfg, stop) >= 0.5 * cfg.learning_rate]
        assert half_peak == [0, 1, 2, 3, 4]
        for i in half_peak:
            assert losses[i + 1] < losses[i], (i, losses)
        assert losses[-1] <= 0.5 * losses[0], losses
        assert losses[-1] <= 1.1 * min(losses), losses

    def test_caller_params_and_resumed_state_left_unchanged(self, toy_small, toy_vocab, toy_encoder_config):
        cfg = TrainConfig(batch_size=8, steps=8, learning_rate=1e-3, seed=2, weight_decay=0.1)
        pairs = columns(toy_small.train_pairs)
        params, state = finetune_dual_encoder(init_params(toy_encoder_config, 1), pairs, cfg, toy_vocab, stop_step=4)
        before = checkpoint_to_bytes(params, state)
        trained, trained_state = finetune_dual_encoder(params, pairs, cfg, toy_vocab, state=state)
        assert checkpoint_to_bytes(params, state) == before
        assert trained_state.step_count == 8
        assert checkpoint_to_bytes(trained, None) != checkpoint_to_bytes(params, None)

    def test_empty_corpus_rejected(self, toy_vocab, toy_encoder_config):
        cfg = TrainConfig(batch_size=4, steps=2, learning_rate=1e-3)
        with pytest.raises(ValueError):
            finetune_dual_encoder(init_params(toy_encoder_config, 1), EMPTY_PAIRS, cfg, toy_vocab)


class TestPackedRankingStep:
    """A ranking step encodes the B sources, then the B targets, in one
    ``forward_batch`` call and backpropagates all 2B rows in one
    ``backward_batch`` call."""

    def record_steps(self, monkeypatch, toy_small, toy_vocab, params, steps):
        forward, backward = trainer_module.forward_batch, trainer_module.backward_batch
        calls = []

        def recorded_forward(p, batch):
            vectors, cache = forward(p, batch)
            calls.append(("forward", p.copy(), batch, vectors.copy()))
            return vectors, cache

        def recorded_backward(p, cache, d_embeddings, grads):
            backward(p, cache, d_embeddings, grads)
            calls.append(("backward", d_embeddings.copy(), grads.flat.copy()))
            return grads

        monkeypatch.setattr(trainer_module, "forward_batch", recorded_forward)
        monkeypatch.setattr(trainer_module, "backward_batch", recorded_backward)
        cfg = TrainConfig(batch_size=8, steps=steps, learning_rate=1e-3, seed=5)
        finetune_dual_encoder(params, columns(toy_small.train_pairs), cfg, toy_vocab)
        return calls

    def test_each_step_makes_one_forward_and_one_backward_call(
        self, monkeypatch, toy_small, toy_vocab, toy_encoder_config
    ):
        calls = self.record_steps(monkeypatch, toy_small, toy_vocab, init_params(toy_encoder_config, 1), steps=3)
        assert [c[0] for c in calls] == ["forward", "backward"] * 3
        assert all(len(unpacked(c[2])) == 16 for c in calls[::2])

    def test_packed_step_matches_per_side_calls(self, monkeypatch, toy_small, toy_vocab, toy_encoder_config):
        from bitextmine.encoder import backward_batch, forward_batch

        params = float64_params(init_params(toy_encoder_config, 1))
        (_, step_params, batch, vectors), (_, d_embeddings, grads) = self.record_steps(
            monkeypatch, toy_small, toy_vocab, params, steps=1
        )
        _, idx = trainer_module._draw([5, trainer_module._STREAM_FINETUNE, 0], len(toy_small.train_pairs), 8)
        pairs = [toy_small.train_pairs[i] for i in idx]
        src, tgt = unpacked(batch)[:8], unpacked(batch)[8:]
        assert src == [tokenize_sentence(p.src, toy_vocab, 16) for p in pairs]
        assert tgt == [tokenize_sentence(p.tgt, toy_vocab, 16) for p in pairs]
        vx, cache_x = forward_batch(step_params, src)
        vy, cache_y = forward_batch(step_params, tgt)
        np.testing.assert_array_equal(vectors, np.concatenate((vx, vy)))
        per_side = backward_batch(step_params, cache_x, d_embeddings[:8])
        backward_batch(step_params, cache_y, d_embeddings[8:], per_side)
        np.testing.assert_allclose(grads, per_side.flat, rtol=1e-12)


class TestPretrain:
    def test_single_stage_runs_and_returns_same_depth(self, toy_small, toy_vocab, toy_encoder_config):
        params = init_params(toy_encoder_config, 2)
        cfg = PretrainConfig((Stage(2, 6),), batch_size=8, learning_rate=1e-3, seed=1)
        out = pretrain(params, columns(toy_small.mono_sentences), columns(toy_small.train_pairs), cfg, toy_vocab)
        assert len(out.layers) == 2

    def test_stage_schedule_grows_layers(self, toy_small, toy_vocab):
        cfg0 = EncoderConfig(vocab_size=600, hidden_dim=8, num_layers=1, max_seq_len=16)
        params = init_params(cfg0, 2)
        cfg = PretrainConfig((Stage(1, 4), Stage(2, 4), Stage(4, 4)), batch_size=8, learning_rate=1e-3, seed=1)
        out = pretrain(params, columns(toy_small.mono_sentences), columns(toy_small.train_pairs), cfg, toy_vocab)
        assert len(out.layers) == 4

    def test_wrong_initial_depth_rejected(self, toy_small, toy_vocab, toy_encoder_config):
        params = init_params(toy_encoder_config, 2)  # 2 layers
        cfg = PretrainConfig((Stage(1, 4),), batch_size=8, learning_rate=1e-3)
        with pytest.raises(ValueError, match="params have 2 layers, the first stage wants 1"):
            pretrain(params, columns(toy_small.mono_sentences), EMPTY_PAIRS, cfg, toy_vocab)

    def test_non_dividing_schedule_rejected(self):
        with pytest.raises(ValueError, match="stage layers 3 must be a multiple of 2"):
            PretrainConfig((Stage(2, 4), Stage(3, 4)), batch_size=8, learning_rate=1e-3)

    @pytest.mark.parametrize(
        "stages, message",
        [
            ((), "stage schedule is empty"),
            ((Stage(0, 4), Stage(2, 4)), "stage layers must be positive, got 0"),
            ((Stage(-2, 4), Stage(4, 4)), "stage layers must be positive, got -2"),
            ((Stage(2, 4), Stage(1, 4)), "stage schedule shrinks from 2 to 1 layers"),
            ((Stage(2, 4), Stage(4, 0)), "batch_size and steps must be positive"),
        ],
    )
    def test_bad_schedule_rejected_at_construction(self, stages, message):
        with pytest.raises(ValueError, match=message):
            PretrainConfig(stages)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"mix": (-1, 2)}, "bad objective mix"),
            ({"batch_size": 0}, "batch_size and steps must be positive"),
            ({"learning_rate": 0.0}, "learning_rate must be positive"),
        ],
    )
    def test_bad_option_rejected_at_construction(self, options, message):
        with pytest.raises(ValueError, match=message):
            PretrainConfig((Stage(1, 4), Stage(2, 4)), **options)

    def test_stage_config_is_the_stage_optimizer_config(self):
        cfg = PretrainConfig((Stage(1, 3), Stage(2, 7)), batch_size=8, learning_rate=2e-3, seed=5)
        assert cfg.stage_config(cfg.stages[1]) == TrainConfig(batch_size=8, steps=7, learning_rate=2e-3, seed=5)

    def test_mlm_loss_starts_near_log_vocab_and_drops(self, toy_small, toy_vocab, toy_encoder_config):
        log = io.StringIO()
        params = init_params(toy_encoder_config, 3)
        params.mlm_weight[:] = 0.0
        params.mlm_bias[:] = 0.0
        cfg = PretrainConfig((Stage(2, 500),), batch_size=16, learning_rate=3e-3, seed=2)
        pretrain(params, columns(toy_small.mono_sentences), columns(toy_small.train_pairs), cfg, toy_vocab, log=log)
        losses = [float(line.split()[1].split("=")[1]) for line in log.getvalue().splitlines()]
        assert losses[0] == pytest.approx(math.log(len(toy_vocab)), rel=0.02)
        tail = sum(losses[-10:]) / 10
        assert tail <= 0.8 * losses[0]

    def test_training_log_numbers_steps_across_stages(self, toy_small, toy_vocab):
        log = io.StringIO()
        params = init_params(EncoderConfig(len(toy_vocab), hidden_dim=8, num_layers=1, max_seq_len=16), 2)
        stages = (Stage(1, 3), Stage(2, 4))
        cfg = PretrainConfig(stages, batch_size=8, learning_rate=2e-3, seed=1, mix=(1, 1))
        pretrain(params, columns(toy_small.mono_sentences), columns(toy_small.train_pairs), cfg, toy_vocab, log=log)
        fields = [dict(f.split("=") for f in line.split()) for line in log.getvalue().splitlines()]
        assert [int(f["step"]) for f in fields] == [1, 2, 3, 4, 5, 6, 7]
        # each stage starts its (mlm, tlm) cycle again with MLM; only TLM steps see pairs
        assert [int(f["pairs_seen"]) for f in fields] == [0, 8, 8, 8, 16, 16, 24]
        lrs = [float(f["lr"]) for f in fields]
        stage_lrs = [lr_at(cfg.stage_config(s), t) for s in stages for t in range(1, s.steps + 1)]
        assert lrs == pytest.approx(stage_lrs, abs=1e-8)
        assert lrs[3] == pytest.approx(cfg.learning_rate) and lrs[2] < lrs[3]

    def test_caller_params_left_unchanged(self, toy_small, toy_vocab, toy_encoder_config):
        params = init_params(toy_encoder_config, 4)
        before = checkpoint_to_bytes(params, None)
        cfg = PretrainConfig((Stage(2, 6),), batch_size=8, learning_rate=1e-3, seed=5)
        trained = pretrain(params, columns(toy_small.mono_sentences), columns(toy_small.train_pairs), cfg, toy_vocab)
        assert checkpoint_to_bytes(params, None) == before
        assert checkpoint_to_bytes(trained, None) != before

    def test_deterministic(self, toy_small, toy_vocab, toy_encoder_config):
        cfg = PretrainConfig((Stage(2, 6),), batch_size=8, learning_rate=1e-3, seed=5)
        runs, mono, pairs = [], columns(toy_small.mono_sentences), columns(toy_small.train_pairs)
        for _ in range(2):
            params = init_params(toy_encoder_config, 4)
            trained = pretrain(params, mono, pairs, cfg, toy_vocab)
            runs.append(checkpoint_to_bytes(trained, None))
        assert runs[0] == runs[1]


# A tiny vocabulary and corpora of its letters; "d" is not in it, so a word
# holding a "d" is one [UNK].
STORE_VOCAB = Vocab(list(SPECIAL_TOKENS) + ["a", "b", "c", "##a", "##b", "##c", "ab", "##bc", "ca"])
_texts = st.lists(st.text("abcd", min_size=1, max_size=4), min_size=1, max_size=6).map(" ".join)
_mono = st.lists(_texts, min_size=1, max_size=8).map(
    lambda texts: columns([Sentence(str(i), "aa", text) for i, text in enumerate(texts)])
)
_pairs = st.lists(st.tuples(_texts, _texts), min_size=1, max_size=8).map(
    lambda sides: columns([
        SentencePair(Sentence(f"{i}s", "aa", s), Sentence(f"{i}t", "bb", t)) for i, (s, t) in enumerate(sides)
    ])
)


class TestTokenStore:
    """Both training loops tokenize each drawn item once, into a packed
    store, and gather every step's batch from it; the batches are the ones
    that tokenizing every item and packing per-step lists gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        mono=_mono, pairs=_pairs, mix=st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 3)]),
        stages=st.sampled_from([((1, 3),), ((1, 2), (2, 3)), ((2, 1), (2, 4))]),
        batch_size=st.integers(1, 5), max_len=st.integers(3, 12), seed=st.integers(0, 2**32),
        fraction=st.sampled_from([0.2, 0.5, 1.0]), cap=st.integers(1, 4),
    )
    def test_pretraining_batches_equal_the_list_path(
        self, mono, pairs, mix, stages, batch_size, max_len, seed, fraction, cap
    ):
        config = PretrainConfig(
            tuple(Stage(*stage) for stage in stages), batch_size=batch_size, seed=seed, mix=mix,
            mask_fraction=fraction, mask_cap=cap,
        )
        # the list path: every item tokenized on first use, per-step lists packed by plan_masks
        seqs = {
            trainer_module._STREAM_MLM: lambda: [tokenize_sentence(s, STORE_VOCAB, max_len) for s in mono],
            trainer_module._STREAM_TLM: lambda: [tlm_sequence(p.src.text, p.tgt.text, STORE_VOCAB, max_len) for p in pairs],
        }
        expected, refused = [], None
        try:
            for k, (_, steps) in enumerate(stages):
                for t in range(steps):
                    stream = trainer_module._STREAM_MLM if t % sum(mix) < mix[0] else trainer_module._STREAM_TLM
                    items = seqs[stream]()
                    rng, idx = trainer_module._draw([seed, stream, k, t], len(items), batch_size)
                    expected.append(plan_masks([items[i] for i in idx], rng, fraction, cap))
        except ValueError as exc:  # a TLM layout that max_len cannot hold
            refused = str(exc)
        seen = []

        def recording_loss(params, batch, grads):
            seen.append(batch)
            return 1.0, grads

        params = init_params(EncoderConfig(len(STORE_VOCAB), 4, stages[0][0], max_len), 0)
        with mock.patch.object(trainer_module, "mlm_loss_and_grad", recording_loss):
            if refused is None:
                pretrain(params, mono, pairs, config, STORE_VOCAB)
            else:
                with pytest.raises(ValueError) as caught:
                    pretrain(params, mono, pairs, config, STORE_VOCAB)
                assert str(caught.value) == refused
        assert len(seen) == (len(expected) if refused is None else 0)
        for got, want in zip(seen, expected):
            assert_same_masked_batch(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=_pairs, batch_size=st.integers(1, 4), steps=st.integers(1, 4), split=st.integers(0, 4),
        max_len=st.integers(3, 12), seed=st.integers(0, 2**32),
    )
    def test_ranking_batches_equal_the_list_path(self, pairs, batch_size, steps, split, max_len, seed):
        config = TrainConfig(batch_size=batch_size, steps=steps, seed=seed)
        seen = []

        def recording_forward(params, batch):
            seen.append(batch)
            return forward_batch(params, batch)

        params = init_params(EncoderConfig(len(STORE_VOCAB), 4, 1, max_len), 0)
        with mock.patch.object(trainer_module, "forward_batch", recording_forward):
            params, state = finetune_dual_encoder(params, pairs, config, STORE_VOCAB, stop_step=split)
            finetune_dual_encoder(params, pairs, config, STORE_VOCAB, state=state)  # resumed to the end
        src = [tokenize_sentence(p.src, STORE_VOCAB, max_len) for p in pairs]
        tgt = [tokenize_sentence(p.tgt, STORE_VOCAB, max_len) for p in pairs]
        assert len(seen) == steps
        for t, got in enumerate(seen):
            _, idx = trainer_module._draw([seed, trainer_module._STREAM_FINETUNE, t], len(pairs), batch_size)
            for a, b in zip(got, _pack([src[i] for i in idx] + [tgt[i] for i in idx])):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def spy(self, monkeypatch, name):
        """Count the calls of trainer's ``name`` by the ids of their text
        arguments: all but the last two, the vocabulary and ``max_len``."""
        calls, real = Counter(), getattr(trainer_module, name)

        def counted(*args):
            calls[tuple(map(id, args[:-2]))] += 1
            return real(*args)

        monkeypatch.setattr(trainer_module, name, counted)
        return calls

    def drawn(self, key, population, batch_size, steps):
        """The distinct items that the steps of ``steps`` draw."""
        return {i for t in steps for i in trainer_module._draw([*key, t], population, batch_size)[1].tolist()}

    def test_pretraining_tokenizes_each_drawn_item_once_and_no_other(
        self, monkeypatch, toy_small, toy_vocab, toy_encoder_config
    ):
        sentences, tokenized = self.spy(monkeypatch, "tokenize"), self.spy(monkeypatch, "tlm_sequence")
        mono, pairs = columns(toy_small.mono_sentences), columns(toy_small.train_pairs)
        cfg = PretrainConfig((Stage(2, 4), Stage(4, 2)), batch_size=4, seed=3, mix=(1, 1))
        pretrain(init_params(toy_encoder_config, 2), mono, pairs, cfg, toy_vocab)
        mlm, tlm = set(), set()
        for k, stage in enumerate(cfg.stages):  # even steps draw MLM batches, odd ones TLM batches
            mlm |= self.drawn([3, trainer_module._STREAM_MLM, k], len(mono), 4, range(0, stage.steps, 2))
            tlm |= self.drawn([3, trainer_module._STREAM_TLM, k], len(pairs), 4, range(1, stage.steps, 2))
        assert 0 < len(mlm) < len(mono) and 0 < len(tlm) < len(pairs)
        assert sentences == Counter((id(mono.texts[i]),) for i in mlm)
        assert tokenized == Counter((id(pairs.src_texts[i]), id(pairs.tgt_texts[i])) for i in tlm)

    def test_fine_tuning_tokenizes_each_drawn_side_once_and_no_other(
        self, monkeypatch, toy_small, toy_vocab, toy_encoder_config
    ):
        calls, pairs = self.spy(monkeypatch, "tokenize"), columns(toy_small.train_pairs)
        cfg = TrainConfig(batch_size=4, steps=5, seed=8)
        params, state = finetune_dual_encoder(init_params(toy_encoder_config, 2), pairs, cfg, toy_vocab, stop_step=2)
        key = [8, trainer_module._STREAM_FINETUNE]
        first = self.drawn(key, len(pairs), 4, range(2))
        assert calls == Counter((id(text),) for i in first for text in (pairs.src_texts[i], pairs.tgt_texts[i]))
        calls.clear()
        finetune_dual_encoder(params, pairs, cfg, toy_vocab, state=state)  # steps 3 to 5 only
        rest = self.drawn(key, len(pairs), 4, range(2, 5))
        assert 0 < len(rest) < len(pairs)
        assert calls == Counter((id(text),) for i in rest for text in (pairs.src_texts[i], pairs.tgt_texts[i]))


class TestOneGeneratorPerStep:
    """Each step's generator is built once, in the index pass: the step
    gathers the indices drawn there and, in pretraining, continues the
    generator's stream from its recorded state."""

    @staticmethod
    def counted_keys(monkeypatch):
        """The seed key of each ``np.random.default_rng`` call, in call order."""
        keys, real = [], np.random.default_rng

        def counted(seed=None):
            keys.append(tuple(seed))
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        return keys

    @settings(max_examples=15, deadline=None)
    @given(steps=st.integers(1, 6), split=st.integers(0, 6), seed=st.integers(0, 2**32))
    def test_fine_tuning_builds_one_generator_per_step_it_runs(self, steps, split, seed):
        pairs, config = _ONE_PER_STEP_PAIRS, TrainConfig(batch_size=3, steps=steps, seed=seed)
        params = init_params(EncoderConfig(len(STORE_VOCAB), 4, 1, 8), 0)
        key = (seed, trainer_module._STREAM_FINETUNE)
        with pytest.MonkeyPatch.context() as monkeypatch:
            keys = self.counted_keys(monkeypatch)
            fresh, _ = finetune_dual_encoder(params, pairs, config, STORE_VOCAB)
            assert keys == [(*key, t) for t in range(steps)]
            keys.clear()
            part, state = finetune_dual_encoder(params, pairs, config, STORE_VOCAB, stop_step=split)
            assert keys == [(*key, t) for t in range(min(split, steps))]
            keys.clear()
            resumed, _ = finetune_dual_encoder(part, pairs, config, STORE_VOCAB, state=state)
            assert keys == [(*key, t) for t in range(min(split, steps), steps)]
        assert checkpoint_to_bytes(resumed, None) == checkpoint_to_bytes(fresh, None)

    @pytest.mark.parametrize("mix", [(1, 1), (2, 1)])
    def test_two_stage_pretraining_builds_one_generator_per_step(self, monkeypatch, mix):
        config = PretrainConfig((Stage(1, 4), Stage(2, 5)), batch_size=3, seed=11, mix=mix)
        mono = columns([p.src for p in _ONE_PER_STEP_PAIRS])
        params = init_params(EncoderConfig(len(STORE_VOCAB), 4, 1, 12), 0)
        keys = self.counted_keys(monkeypatch)
        pretrain(params, mono, _ONE_PER_STEP_PAIRS, config, STORE_VOCAB)
        expected = [
            (11, trainer_module._STREAM_MLM if t % sum(mix) < mix[0] else trainer_module._STREAM_TLM, k, t)
            for k, stage in enumerate(config.stages) for t in range(stage.steps)
        ]
        assert keys == expected


_ONE_PER_STEP_PAIRS = columns([
    SentencePair(Sentence(f"{i}s", "aa", s), Sentence(f"{i}t", "bb", t))
    for i, (s, t) in enumerate([("ab c", "ca"), ("a b", "bc ab"), ("c", "a a"), ("ab", "b"), ("ca ab", "c b")])
])


def test_one_step_loop_for_both_objectives():
    """Both training drivers step through one runner: ``trainer.py`` holds
    one optimizer-step call, one batch-index draw, one zeroing of the
    gradient and one ``step=`` log line, and the optimizer step, the
    zeroing, the log line and every checkpoint save sit in one function."""
    sites = {"optimizer_step": [], "integers": [], "fill": [], "step=": [], "save_checkpoint": []}
    for top in ast.parse(Path(trainer_module.__file__).read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            elif isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
                name = "step=" if node.values[0].value.startswith("step=") else None
            else:
                continue
            if name in sites:
                sites[name].append(getattr(top, "name", "<module>"))
    assert {name: len(found) for name, found in sites.items() if name != "save_checkpoint"} == {
        "optimizer_step": 1, "integers": 1, "fill": 1, "step=": 1,
    }
    holders = {sites[name][0] for name in ("optimizer_step", "fill", "step=")}
    assert len(holders) == 1 and set(sites["save_checkpoint"]) <= holders


class TestCheckpoint:
    """The one checkpoint format: ``BXCK``, u32 version 3, the encoder
    config, a state flag with the step count and TrainConfig, then the
    ``<f4`` tensors."""

    @pytest.mark.parametrize("with_state", [False, True])
    def test_layout_is_the_header_then_little_endian_float32_vectors(self, with_state):
        p = small_setup(seed=3)
        c = p.config
        dims = (c.vocab_size, c.hidden_dim, c.num_layers, c.max_seq_len, c.embed_dim)
        head = b"BXCK" + struct.pack("<I5IB", 3, *dims, with_state)
        vectors = [p.flat]
        state = None
        if with_state:
            cfg = TrainConfig(batch_size=16, steps=40, learning_rate=0.25, seed=7, weight_decay=0.5)
            state = init_optimizer_state(p, cfg)
            state.step_count = 5
            state.first_moment[:] = np.linspace(-1.0, 1.0, p.flat.size)
            state.second_moment[:] = np.linspace(0.0, 2.0, p.flat.size)
            head += struct.pack("<QQQdddQqd", 5, *astuple(cfg))
            vectors += [state.first_moment, state.second_moment]
        assert checkpoint_to_bytes(p, state) == head + b"".join(v.astype("<f4").tobytes() for v in vectors)

    @pytest.mark.parametrize("vector", ["params", "second_moment"])
    def test_float64_vectors_are_refused_not_rounded(self, tmp_path, vector):
        p = small_setup()
        state = init_optimizer_state(p, TrainConfig())
        if vector == "params":
            p = float64_params(p)
        else:
            state.second_moment = state.second_moment.astype(np.float64)
        with pytest.raises(ValueError, match="a checkpoint stores float32 vectors, got float64"):
            save_checkpoint(p, state, tmp_path / "ck.bin")
        assert not (tmp_path / "ck.bin").exists()

    @pytest.mark.parametrize("with_state", [False, True])
    def test_version_2_checkpoint_of_float64_vectors_rejected(self, tmp_path, with_state):
        p = small_setup(seed=8)
        state = init_optimizer_state(p, TrainConfig()) if with_state else None
        (tmp_path / "ck.bin").write_bytes(version_2_bytes(p, state))
        with pytest.raises(CheckpointError, match=r"unsupported checkpoint version 2 \(expected 3\)"):
            load_checkpoint(tmp_path / "ck.bin")

    def test_roundtrip_byte_identical(self, tmp_path):
        p = small_setup(seed=3)
        cfg = TrainConfig(batch_size=16, steps=40, learning_rate=0.25, seed=2**62 + 3, weight_decay=0.5)
        state = init_optimizer_state(p, cfg)
        state.step_count = 17
        state.first_moment[:] = 0.5
        path = tmp_path / "ck.bin"
        save_checkpoint(p, state, path)
        p2, state2 = load_checkpoint(path)
        save_checkpoint(p2, state2, tmp_path / "ck2.bin")
        assert path.read_bytes() == (tmp_path / "ck2.bin").read_bytes()
        assert state2.step_count == 17
        assert state2.config == cfg

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: EncoderConfig(5, 4, 1, 2**32), r"max_seq_len must be below 2\*\*32, got 4294967296"),
            (lambda: EncoderConfig(2**32, 4, 1, 16), r"vocab_size must be below 2\*\*32"),
            (lambda: TrainConfig(seed=2**63), r"seed must be in \[0, 2\*\*63\), got 9223372036854775808"),
            (lambda: TrainConfig(batch_size=2**64), r"batch_size must be below 2\*\*64"),
            (lambda: TrainConfig(steps=2**64), r"steps must be below 2\*\*64"),
            (lambda: TrainConfig(batch_size=2**64 - 1, shards=2**64), r"shards must be below 2\*\*64"),
            (lambda: PretrainConfig((Stage(1, 4), Stage(2**32, 4))), r"stage layers must be below 2\*\*32"),
        ],
    )
    def test_configs_refuse_values_a_checkpoint_cannot_store(self, make, message):
        # the header packs the shape as u32, batch_size, steps and shards as u64, the seed as i64
        with pytest.raises(ValueError, match=message):
            make()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_config_that_constructs_round_trips_bit_equal(self, data, tmp_path_factory):
        # small shapes allocate little; the fields that allocate nothing are
        # drawn up to the edge of what their checkpoint field holds
        config = EncoderConfig(
            vocab_size=data.draw(st.integers(1, 8)),
            hidden_dim=data.draw(st.integers(1, 4)),
            num_layers=data.draw(st.integers(1, 3)),
            max_seq_len=data.draw(st.integers(3, 2**32 - 1)),
            embed_dim=data.draw(st.integers(0, 4)),
        )
        bits = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, 2**32, (3, param_count(config)))
        vectors = bits.astype(np.uint32).view(np.float32)  # any float32, NaN payloads included
        params = EncoderParams.from_flat(config, vectors[0].copy())
        state = None
        if data.draw(st.booleans()):
            shards = data.draw(st.integers(1, 2**64 - 1))
            train = TrainConfig(
                batch_size=shards * data.draw(st.integers(1, (2**64 - 1) // shards)),
                steps=data.draw(st.integers(1, 2**64 - 1)),
                learning_rate=data.draw(st.floats(min_value=0, allow_infinity=False, exclude_min=True)),
                margin=data.draw(st.floats(0, 1, exclude_max=True)),
                scale=data.draw(st.floats(min_value=0, allow_infinity=False, exclude_min=True)),
                shards=shards,
                seed=data.draw(st.integers(0, 2**63 - 1)),
                weight_decay=data.draw(st.floats(min_value=0, allow_infinity=False)),
            )
            state = OptimizerState(train, vectors[1].copy(), vectors[2].copy(), data.draw(st.integers(0, train.steps)))
        path = tmp_path_factory.mktemp("ck") / "ck.bin"
        path.write_bytes(checkpoint_to_bytes(params, state))
        loaded, loaded_state = load_checkpoint(path)
        assert loaded.config == config
        assert loaded.flat.view(np.uint32).tolist() == params.flat.view(np.uint32).tolist()
        assert (loaded_state is None) == (state is None)
        if state is not None:
            assert (loaded_state.config, loaded_state.step_count) == (state.config, state.step_count)
            for got, want in ((loaded_state.first_moment, state.first_moment), (loaded_state.second_moment, state.second_moment)):
                assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()

    def test_params_only_checkpoint(self, tmp_path):
        p = small_setup(seed=4)
        save_checkpoint(p, None, tmp_path / "ck.bin")
        p2, state = load_checkpoint(tmp_path / "ck.bin")
        assert state is None
        assert p2.config == p.config
        assert checkpoint_to_bytes(p2, None) == checkpoint_to_bytes(p, None)

    def test_mismatched_config_rejected(self, toy_small, toy_vocab, toy_encoder_config, tmp_path):
        # a resumed run must use the TrainConfig its optimizer state was made under
        cfg = TrainConfig(batch_size=16, steps=10, learning_rate=1e-3, seed=1)
        params, state = finetune_dual_encoder(
            init_params(toy_encoder_config, 7), columns(toy_small.train_pairs), cfg, toy_vocab, stop_step=4
        )
        save_checkpoint(params, state, tmp_path / "ck.bin")
        params, state = load_checkpoint(tmp_path / "ck.bin")
        for field, other in (
            ("batch_size", replace(cfg, batch_size=8)),
            ("steps", replace(cfg, steps=20)),
            ("seed", replace(cfg, seed=2)),
        ):
            with pytest.raises(CheckpointError, match=f"{field}={getattr(cfg, field)!r}"):
                finetune_dual_encoder(params, columns(toy_small.train_pairs), other, toy_vocab, state=state)

    def test_bad_magic(self, tmp_path):
        data = bytearray(checkpoint_to_bytes(small_setup(), None))
        data[0:4] = b"NOPE"
        (tmp_path / "ck.bin").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="bad checkpoint magic at byte offset 0"):
            load_checkpoint(tmp_path / "ck.bin")

    def test_wrapped_encoder_version_1_rejected(self, tmp_path):
        # version 1 wrapped a ``BXEN`` parameter block (u32 version 2) after the header
        p = small_setup(seed=8)
        data = bytearray(checkpoint_to_bytes(p, init_optimizer_state(p, TrainConfig())))
        data[4:8] = (1).to_bytes(4, "little")
        data[8:8] = b"BXEN" + (2).to_bytes(4, "little")
        (tmp_path / "ck.bin").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"unsupported checkpoint version 1 \(expected 3\)"):
            load_checkpoint(tmp_path / "ck.bin")

    def test_truncation_reports_offset(self, tmp_path):
        p = small_setup(seed=6)
        save_checkpoint(p, init_optimizer_state(p, TrainConfig()), tmp_path / "ck.bin")
        raw = (tmp_path / "ck.bin").read_bytes()
        (tmp_path / "ck.bin").write_bytes(raw[:-20])
        with pytest.raises(CheckpointError, match="truncated at byte offset"):
            load_checkpoint(tmp_path / "ck.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        p = small_setup(seed=6)
        for state in (None, init_optimizer_state(p, TrainConfig())):
            raw = checkpoint_to_bytes(p, state)
            (tmp_path / "ck.bin").write_bytes(raw + b"\0")
            with pytest.raises(CheckpointError, match=f"1 trailing bytes at offset {len(raw)}"):
                load_checkpoint(tmp_path / "ck.bin")

    def test_oversized_header_reads_no_further_than_the_file(self, tmp_path):
        # a header claiming 2**31 tokens must fail as truncated, not allocate
        data = bytearray(checkpoint_to_bytes(small_setup(), None))
        data[8:12] = (2**31).to_bytes(4, "little")
        (tmp_path / "ck.bin").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="truncated at byte offset 29"):
            load_checkpoint(tmp_path / "ck.bin")

    def test_resume_matches_unbroken_run_step_for_step(self, toy_small, toy_vocab, toy_encoder_config, tmp_path):
        cfg = TrainConfig(batch_size=8, steps=20, learning_rate=1e-3, seed=9)
        # unbroken reference, snapshots after every step from 10 to 20
        params, pairs = init_params(toy_encoder_config, 7), columns(toy_small.train_pairs)
        params, state = finetune_dual_encoder(params, pairs, cfg, toy_vocab, stop_step=10)
        unbroken = [checkpoint_to_bytes(params, None)]
        ref_params, ref_state = params, state
        for stop in range(11, 21):
            ref_params, ref_state = finetune_dual_encoder(
                ref_params, pairs, cfg, toy_vocab, state=ref_state, stop_step=stop
            )
            unbroken.append(checkpoint_to_bytes(ref_params, None))
        # serialize at step 10, reload, and continue step by step
        save_checkpoint(params, state, tmp_path / "mid.bin")
        res_params, res_state = load_checkpoint(tmp_path / "mid.bin")
        assert res_params.flat.dtype == res_state.first_moment.dtype == np.float32
        resumed = [checkpoint_to_bytes(res_params, None)]
        for stop in range(11, 21):
            res_params, res_state = finetune_dual_encoder(
                res_params, pairs, cfg, toy_vocab, state=res_state, stop_step=stop
            )
            resumed.append(checkpoint_to_bytes(res_params, None))
        assert resumed == unbroken


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=5, shards=2)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(margin=1.5)


# Each float config field: a builder that sets it and keeps every other
# value valid, a value it accepts, and the message that names it.
FLOAT_FIELDS = {
    "TrainConfig.learning_rate": (lambda x: TrainConfig(learning_rate=x), 1e-3, "learning_rate"),
    "TrainConfig.margin": (lambda x: TrainConfig(margin=x), 0.3, "margin"),
    "TrainConfig.scale": (lambda x: TrainConfig(scale=x), 10.0, "scale"),
    "TrainConfig.weight_decay": (lambda x: TrainConfig(weight_decay=x), 0.0, "weight_decay"),
    "PretrainConfig.learning_rate": (lambda x: PretrainConfig((Stage(1, 4),), learning_rate=x), 1e-3, "learning_rate"),
    "PretrainConfig.mask_fraction": (lambda x: PretrainConfig((Stage(1, 4),), mask_fraction=x), 0.2, "mask fraction"),
    "LossConfig.margin": (lambda x: LossConfig(margin=x), 0.3, "margin"),
    "LossConfig.scale": (lambda x: LossConfig(scale=x), 10.0, "scale"),
    "MiningConfig.similarity_threshold": (lambda x: MiningConfig(similarity_threshold=x), 0.6, "similarity threshold"),
    "MiningConfig.selection_fraction": (lambda x: MiningConfig(selection_fraction=x), 0.2, "selection fraction"),
    "check_build_options.smoothing_exponent": (lambda x: check_build_options(x, 1.0), 0.3, "smoothing exponent"),
    "check_build_options.character_coverage": (lambda x: check_build_options(0.3, x), 1.0, "character_coverage"),
}


@given(
    field=st.sampled_from(sorted(FLOAT_FIELDS)),
    value=st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
)
def test_every_float_config_field_refuses_nan_and_infinity(field, value):
    build, valid, message = FLOAT_FIELDS[field]
    build(valid)
    with pytest.raises(ValueError, match=message):
        build(value)
