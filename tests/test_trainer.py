import ast
import io
import math
import struct
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from bitextmine import trainer as trainer_module
from bitextmine.encoder import EncoderConfig, EncoderParams, encode, init_params
from bitextmine.errors import CheckpointError, NumericalError
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
from bitextmine.vocab import CLS_ID, SEP_ID, tokenize_sentence

from conftest import float64_params, version_2_bytes


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
        return finetune_dual_encoder(params, toy_small.train_pairs, cfg, toy_vocab)

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
        log = io.StringIO()
        cfg = TrainConfig(batch_size=8, steps=3, learning_rate=1e-3, seed=0)
        finetune_dual_encoder(init_params(toy_encoder_config, 1), toy_small.train_pairs, cfg, toy_vocab, log=log)
        lines = log.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("step=1 loss=")
        assert "pairs_seen=8" in lines[0]
        assert "pairs_seen=24" in lines[2]
        # a resumed run writes the unbroken run's line: its steps and pairs continue
        params, state = finetune_dual_encoder(
            init_params(toy_encoder_config, 1), toy_small.train_pairs, cfg, toy_vocab, stop_step=2
        )
        resumed = io.StringIO()
        finetune_dual_encoder(params, toy_small.train_pairs, cfg, toy_vocab, state=state, log=resumed)
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
                params, toy_small.train_pairs, cfg, toy_vocab, state=state, stop_step=stop
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
        params, state = finetune_dual_encoder(
            init_params(toy_encoder_config, 1), toy_small.train_pairs, cfg, toy_vocab, stop_step=4
        )
        before = checkpoint_to_bytes(params, state)
        trained, trained_state = finetune_dual_encoder(params, toy_small.train_pairs, cfg, toy_vocab, state=state)
        assert checkpoint_to_bytes(params, state) == before
        assert trained_state.step_count == 8
        assert checkpoint_to_bytes(trained, None) != checkpoint_to_bytes(params, None)

    def test_empty_corpus_rejected(self, toy_vocab, toy_encoder_config):
        cfg = TrainConfig(batch_size=4, steps=2, learning_rate=1e-3)
        with pytest.raises(ValueError):
            finetune_dual_encoder(init_params(toy_encoder_config, 1), [], cfg, toy_vocab)


class TestPretrain:
    def test_single_stage_runs_and_returns_same_depth(self, toy_small, toy_vocab, toy_encoder_config):
        params = init_params(toy_encoder_config, 2)
        cfg = PretrainConfig((Stage(2, 6),), batch_size=8, learning_rate=1e-3, seed=1)
        out = pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, cfg, toy_vocab)
        assert len(out.layers) == 2

    def test_stage_schedule_grows_layers(self, toy_small, toy_vocab):
        cfg0 = EncoderConfig(vocab_size=600, hidden_dim=8, num_layers=1, max_seq_len=16)
        params = init_params(cfg0, 2)
        cfg = PretrainConfig((Stage(1, 4), Stage(2, 4), Stage(4, 4)), batch_size=8, learning_rate=1e-3, seed=1)
        out = pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, cfg, toy_vocab)
        assert len(out.layers) == 4

    def test_wrong_initial_depth_rejected(self, toy_small, toy_vocab, toy_encoder_config):
        params = init_params(toy_encoder_config, 2)  # 2 layers
        cfg = PretrainConfig((Stage(1, 4),), batch_size=8, learning_rate=1e-3)
        with pytest.raises(ValueError, match="params have 2 layers, the first stage wants 1"):
            pretrain(params, toy_small.mono_sentences, [], cfg, toy_vocab)

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
        pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, cfg, toy_vocab, log=log)
        losses = [float(line.split()[1].split("=")[1]) for line in log.getvalue().splitlines()]
        assert losses[0] == pytest.approx(math.log(len(toy_vocab)), rel=0.02)
        tail = sum(losses[-10:]) / 10
        assert tail <= 0.8 * losses[0]

    def test_training_log_numbers_steps_across_stages(self, toy_small, toy_vocab):
        log = io.StringIO()
        params = init_params(EncoderConfig(len(toy_vocab), hidden_dim=8, num_layers=1, max_seq_len=16), 2)
        stages = (Stage(1, 3), Stage(2, 4))
        cfg = PretrainConfig(stages, batch_size=8, learning_rate=2e-3, seed=1, mix=(1, 1))
        pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, cfg, toy_vocab, log=log)
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
        trained = pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, cfg, toy_vocab)
        assert checkpoint_to_bytes(params, None) == before
        assert checkpoint_to_bytes(trained, None) != before

    def test_deterministic(self, toy_small, toy_vocab, toy_encoder_config):
        cfg = PretrainConfig((Stage(2, 6),), batch_size=8, learning_rate=1e-3, seed=5)
        runs = []
        for _ in range(2):
            params = init_params(toy_encoder_config, 4)
            trained = pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, cfg, toy_vocab)
            runs.append(checkpoint_to_bytes(trained, None))
        assert runs[0] == runs[1]


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
            init_params(toy_encoder_config, 7), toy_small.train_pairs, cfg, toy_vocab, stop_step=4
        )
        save_checkpoint(params, state, tmp_path / "ck.bin")
        params, state = load_checkpoint(tmp_path / "ck.bin")
        for field, other in (
            ("batch_size", replace(cfg, batch_size=8)),
            ("steps", replace(cfg, steps=20)),
            ("seed", replace(cfg, seed=2)),
        ):
            with pytest.raises(CheckpointError, match=f"{field}={getattr(cfg, field)!r}"):
                finetune_dual_encoder(params, toy_small.train_pairs, other, toy_vocab, state=state)

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
        params = init_params(toy_encoder_config, 7)
        state = None
        params, state = finetune_dual_encoder(params, toy_small.train_pairs, cfg, toy_vocab, state=state, stop_step=10)
        unbroken = [checkpoint_to_bytes(params, None)]
        ref_params, ref_state = params, state
        for stop in range(11, 21):
            ref_params, ref_state = finetune_dual_encoder(
                ref_params, toy_small.train_pairs, cfg, toy_vocab, state=ref_state, stop_step=stop
            )
            unbroken.append(checkpoint_to_bytes(ref_params, None))
        # serialize at step 10, reload, and continue step by step
        save_checkpoint(params, state, tmp_path / "mid.bin")
        res_params, res_state = load_checkpoint(tmp_path / "mid.bin")
        assert res_params.flat.dtype == res_state.first_moment.dtype == np.float32
        resumed = [checkpoint_to_bytes(res_params, None)]
        for stop in range(11, 21):
            res_params, res_state = finetune_dual_encoder(
                res_params, toy_small.train_pairs, cfg, toy_vocab, state=res_state, stop_step=stop
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
