import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bitextmine.corpus import Sentence, SentencePair
from bitextmine.encoder import (
    _ENCODE_CHUNK,
    EncoderConfig,
    _layout,
    backward_batch,
    encode,
    encode_batch,
    forward_batch,
    init_params,
    mlm_loss_and_grad,
    plan_masks,
    stack_grow,
    tlm_sequence,
    zeros_like_params,
)
from bitextmine.errors import CheckpointError
from bitextmine.trainer import _tensor_at, checkpoint_to_bytes, load_checkpoint, save_checkpoint
from bitextmine.vocab import CLS_ID, MASK_ID, PAD_ID, SEP_ID, SPECIAL_TOKENS, Vocab, content_ids

from conftest import float64_params


def small_params(vocab_size=24, d=6, layers=2, max_len=12, seed=0):
    cfg = EncoderConfig(vocab_size=vocab_size, hidden_dim=d, num_layers=layers, max_seq_len=max_len)
    return init_params(cfg, seed=seed)


class TestEncode:
    def test_unit_norm(self):
        p = small_params()
        v = encode(p, [CLS_ID, 7, 8, SEP_ID])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        p = small_params()
        ids = [CLS_ID, 9, 10, SEP_ID]
        np.testing.assert_array_equal(encode(p, ids), encode(p, ids))

    def test_identity_pipeline_returns_normalized_embedding_row(self):
        p = small_params(d=6)
        for layer in p.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
        p.output_weight[:] = np.eye(6)
        p.output_bias[:] = 0.0
        row = p.token_embeddings[7]
        np.testing.assert_allclose(encode(p, [7]), row / np.linalg.norm(row), atol=1e-12)

    def test_padding_beyond_sep_is_ignored(self):
        # a packed batch holds no PAD: the rows beyond an item's SEP are the
        # next item's, and they leave the item's vector as it is alone
        p = small_params()
        item = [CLS_ID, 7, SEP_ID]
        base = encode(p, item)
        for after in ([CLS_ID, 8, 9, 10, SEP_ID], [11], [SEP_ID, SEP_ID]):
            np.testing.assert_array_equal(encode_batch(p, [item, after])[0], base)
            np.testing.assert_array_equal(forward_batch(p, [item, after])[0][0], base)

    def test_pad_id_is_refused(self):
        p = small_params()
        other, item = [CLS_ID, 6, SEP_ID], [CLS_ID, 7, SEP_ID, PAD_ID]
        for call in (
            lambda: encode(p, item),
            lambda: encode_batch(p, [other, item]),
            lambda: forward_batch(p, [other, item]),
        ):
            with pytest.raises(ValueError, match="out of range or PAD"):
                call()

    def test_out_of_range_id(self):
        # the forward refuses ids with one ids.min() <= PAD_ID, which holds
        # only because PAD_ID is the least id: ids index the pieces
        assert PAD_ID == 0
        p = small_params(vocab_size=10)
        calls = [
            lambda seq: encode(p, seq),
            lambda seq: encode_batch(p, [[CLS_ID, 6, SEP_ID], seq]),
            lambda seq: forward_batch(p, [seq, [CLS_ID, 6, SEP_ID]]),
        ]
        for call in calls:
            for bad in (10, -1, PAD_ID, 1 << 40, -(1 << 40)):
                with pytest.raises(ValueError, match="out of range or PAD"):
                    call([CLS_ID, bad, SEP_ID])
            call([CLS_ID, 9, SEP_ID])  # the largest id is kept

    def test_too_long_sequence(self):
        p = small_params(max_len=4)
        with pytest.raises(ValueError):
            encode(p, [CLS_ID, 6, 7, 8, SEP_ID])

    @pytest.mark.parametrize(
        "batch",
        [[], [[CLS_ID, 6, SEP_ID], []], [[[CLS_ID, 6], [7, SEP_ID]]], [[CLS_ID, "six", SEP_ID]], [[CLS_ID, None]]],
        ids=["empty-batch", "empty-item", "2-d-item", "non-numeric-item", "none-item"],
    )
    @pytest.mark.parametrize("call", [forward_batch, encode_batch], ids=["forward_batch", "encode_batch"])
    def test_malformed_batch_is_refused(self, batch, call):
        with pytest.raises(ValueError, match="^token sequence must be a non-empty 1-D id list$"):
            call(small_params(), batch)


class TestEncodeBatch:
    def test_rows_equal_single_encode_exactly(self):
        p = small_params()
        batch = [[CLS_ID, 6, SEP_ID], [CLS_ID, 7, 8, 9, SEP_ID], [CLS_ID, 10, SEP_ID]]
        M = encode_batch(p, batch)
        for i, item in enumerate(batch):
            np.testing.assert_array_equal(M[i], encode(p, item))

    def test_permutation_equivariance(self):
        p = small_params()
        batch = [[CLS_ID, 6, SEP_ID], [CLS_ID, 7, SEP_ID], [CLS_ID, 8, 9, SEP_ID]]
        M = encode_batch(p, batch)
        perm = [2, 0, 1]
        np.testing.assert_array_equal(encode_batch(p, [batch[i] for i in perm]), M[perm])

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        p = small_params()
        batch = [[CLS_ID, *rng.integers(5, 24, size=rng.integers(1, 8)), SEP_ID] for _ in range(8)]
        M = encode_batch(p, batch)
        np.testing.assert_allclose(np.linalg.norm(M, axis=1), 1.0, atol=1e-6)

    def test_batched_forward_matches_encode(self):
        p = small_params()
        batch = [[CLS_ID, 6, SEP_ID], [CLS_ID, 7, 8, 9, 10, SEP_ID]]
        V, _ = forward_batch(p, batch)
        for i, item in enumerate(batch):
            np.testing.assert_allclose(V[i], encode(p, item), atol=1e-12)

    def test_neighbours_reach_each_position(self):
        # changing one token moves its neighbour's hidden state, so a
        # masked position can be predicted from its context
        p = small_params()
        a = forward_batch(p, [[CLS_ID, 6, MASK_ID, 8, SEP_ID]])[1].hiddens[-1][2]
        b = forward_batch(p, [[CLS_ID, 7, MASK_ID, 8, SEP_ID]])[1].hiddens[-1][2]
        assert np.abs(a - b).max() > 1e-3

    def test_padding_inside_an_item_breaks_the_chain(self):
        # PAD is refused, so the one break in the chain is a sentence
        # boundary: rows of the second item never see the first item's tokens
        p = small_params(layers=3)
        a = forward_batch(p, [[CLS_ID, 6], [8, 9, SEP_ID]])[1].hiddens[-1]
        b = forward_batch(p, [[CLS_ID, 7], [8, 9, SEP_ID]])[1].hiddens[-1]
        assert a.shape[0] == 5  # one row per packed position
        np.testing.assert_array_equal(a[2:], b[2:])
        assert np.abs(a[:2] - b[:2]).max() > 1e-3

    def test_chunked_mixed_lengths_equal_single_encode_exactly(self):
        rng = np.random.default_rng(8)
        p = small_params(max_len=16)
        batch = [
            [CLS_ID, *rng.integers(5, 24, size=rng.integers(1, 10)), SEP_ID]
            for _ in range(2 * _ENCODE_CHUNK + 7)
        ]
        M = encode_batch(p, batch)
        for i, item in enumerate(batch):
            np.testing.assert_array_equal(M[i], encode(p, item))

    def test_backward_batch_matches_finite_differences(self):
        # mixed lengths, every parameter the sentence path reaches
        p = float64_params(small_params(vocab_size=16, d=4, layers=2))
        batch = [[CLS_ID, 6, 7, SEP_ID], [CLS_ID, 8, 9, 10, 11, SEP_ID], [CLS_ID, 12, SEP_ID]]
        c = np.random.default_rng(7).normal(size=(len(batch), p.config.embed_dim))

        def objective():
            return float((forward_batch(p, batch)[0] * c).sum())

        _, cache = forward_batch(p, batch)
        grads = backward_batch(p, cache, c)
        assert_grads_match_finite_differences(p, grads, objective, atol=1e-7)

    def test_backward_batch_with_inner_padding_matches_finite_differences(self):
        # where a PAD once split a chain, sentence boundaries now do: the
        # one-token item's row both starts and ends a sentence, next to a
        # two-token item
        p = float64_params(small_params(vocab_size=16, d=4, layers=2))
        batch = [[CLS_ID, 6, 7, SEP_ID], [CLS_ID, 8, 9, 10, 11, SEP_ID], [13], [CLS_ID, 12], [CLS_ID, 14, SEP_ID]]
        c = np.random.default_rng(9).normal(size=(len(batch), p.config.embed_dim))

        def objective():
            return float((forward_batch(p, batch)[0] * c).sum())

        _, cache = forward_batch(p, batch)
        grads = backward_batch(p, cache, c)
        assert_grads_match_finite_differences(p, grads, objective, atol=1e-7)


def assert_grads_match_finite_differences(p, grads, objective, atol):
    """Every coordinate of every tensor against a central difference."""
    gmap = dict(grads.named_arrays())
    h = 1e-6
    for name, arr in p.named_arrays():
        flat = arr.reshape(-1)
        fd = np.empty(flat.size)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = objective()
            flat[k] = orig - h
            lm = objective()
            flat[k] = orig
            fd[k] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(gmap[name].reshape(-1), fd, atol=atol, err_msg=name)


class TestStackGrow:
    def test_copies_single_layer_bitwise(self):
        p = small_params(layers=1)
        grown = stack_grow(p, 2)
        assert len(grown.layers) == 2
        for layer in grown.layers:
            np.testing.assert_array_equal(layer.weight, p.layers[0].weight)
            np.testing.assert_array_equal(layer.bias, p.layers[0].bias)

    def test_identity_when_target_equals_current(self):
        p = small_params(layers=2)
        grown = stack_grow(p, 2)
        assert checkpoint_to_bytes(grown, None) == checkpoint_to_bytes(p, None)

    def test_layer_cycling_order(self):
        p = small_params(layers=2)
        grown = stack_grow(p, 6)
        for j in range(6):
            np.testing.assert_array_equal(grown.layers[j].weight, p.layers[j % 2].weight)

    def test_paper_style_doubling_schedule(self):
        # 3 -> 6 -> 12 layers: each step doubles and copies
        p = small_params(layers=3)
        mid = stack_grow(p, 6)
        full = stack_grow(mid, 12)
        assert len(full.layers) == 12
        np.testing.assert_array_equal(full.layers[11].weight, p.layers[2].weight)

    def test_non_multiple_target_errors(self):
        p = small_params(layers=2)
        with pytest.raises(ValueError):
            stack_grow(p, 3)

    def test_other_tensors_copied_verbatim(self):
        p = small_params(layers=1)
        grown = stack_grow(p, 4)
        np.testing.assert_array_equal(grown.token_embeddings, p.token_embeddings)
        np.testing.assert_array_equal(grown.mlm_weight, p.mlm_weight)


def padded_plan_masks(batch, rng, fraction, cap):
    """Reference planner on (B, T) ids padded with PAD: argsort each row's
    draws, maskable positions first, and mask the row's first n."""
    ids = np.full((len(batch), max(len(s) for s in batch)), PAD_ID, dtype=np.int64)
    for i, seq in enumerate(batch):
        ids[i, : len(seq)] = seq
    maskable = ~np.isin(ids, (PAD_ID, CLS_ID, SEP_ID))
    n = np.minimum(np.ceil(fraction * maskable.sum(axis=1)), cap).astype(np.int64)
    draws = rng.random(ids.shape)
    draws[~maskable] = np.inf
    positions = np.empty_like(maskable)
    first_n = np.arange(ids.shape[1]) < n[:, None]
    np.put_along_axis(positions, np.argsort(draws, axis=1), first_n, axis=1)
    return np.where(positions, MASK_ID, ids), ids, positions


class TestMasking:
    def test_mask_count_respects_fraction_and_cap(self):
        rng = np.random.default_rng(0)
        seq = [CLS_ID, *range(5, 5 + 500), SEP_ID]
        batch = plan_masks([seq], rng, fraction=0.2, cap=80)
        assert batch.masked_count() == 80  # min(ceil(0.2*500), 80)
        batch = plan_masks([seq], rng, fraction=0.2, cap=1000)
        assert batch.masked_count() == 100

    def test_masked_positions_hold_mask_id(self):
        rng = np.random.default_rng(1)
        batch = plan_masks([[CLS_ID, 6, 7, 8, 9, SEP_ID]], rng, fraction=0.5)
        assert np.all(batch.input_ids[batch.mask_positions] == MASK_ID)
        assert np.all(batch.target_ids[~batch.mask_positions] == batch.input_ids[~batch.mask_positions])

    def test_specials_never_masked(self):
        rng = np.random.default_rng(2)
        batch = plan_masks([[CLS_ID, 6, SEP_ID], [CLS_ID, 7, 8, SEP_ID]], rng, fraction=1.0)
        assert not batch.mask_positions[batch.bounds[:-1]].any()  # CLS
        assert not batch.mask_positions[batch.bounds[1:] - 1].any()  # SEP
        assert batch.masked_count() == 3

    def test_mask_counts_per_row_of_a_mixed_batch(self):
        rng = np.random.default_rng(3)
        batch = [[CLS_ID, *range(5, 5 + n), SEP_ID] for n in (1, 4, 9, 13)] + [[CLS_ID, 6, SEP_ID, 7, SEP_ID]]
        for _ in range(20):
            masked = plan_masks(batch, rng, fraction=0.3, cap=3)
            counts = np.add.reduceat(masked.mask_positions, masked.bounds[:-1], dtype=np.int64)
            assert counts.tolist() == [1, 2, 3, 3, 1]
            assert not np.isin(masked.target_ids[masked.mask_positions], (CLS_ID, SEP_ID)).any()

    @settings(max_examples=300, deadline=None)
    @given(
        batch=st.lists(
            st.lists(st.sampled_from([CLS_ID, SEP_ID, *range(5, 30)]), min_size=1, max_size=14),
            min_size=1,
            max_size=9,
        ),
        fraction=st.floats(min_value=0.01, max_value=1.0),
        cap=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_packed_plan_matches_the_padded_reference(self, batch, fraction, cap, seed):
        packed = plan_masks(batch, np.random.default_rng(seed), fraction=fraction, cap=cap)
        inputs, targets, positions = padded_plan_masks(batch, np.random.default_rng(seed), fraction, cap)
        assert packed.bounds.tolist() == np.cumsum([0] + [len(s) for s in batch]).tolist()
        for b, seq in enumerate(batch):
            rows = slice(packed.bounds[b], packed.bounds[b + 1])
            np.testing.assert_array_equal(packed.input_ids[rows], inputs[b, : len(seq)])
            np.testing.assert_array_equal(packed.target_ids[rows], targets[b, : len(seq)])
            np.testing.assert_array_equal(packed.mask_positions[rows], positions[b, : len(seq)])
            assert not positions[b, len(seq) :].any()

    def test_fraction_above_one_refused(self):
        with pytest.raises(ValueError):
            plan_masks([[CLS_ID, 6, 7, SEP_ID]], np.random.default_rng(0), fraction=1.5)


class TestMlmLoss:
    def test_uniform_head_gives_log_vocab(self):
        p = float64_params(small_params(vocab_size=64))
        p.mlm_weight[:] = 0.0
        p.mlm_bias[:] = 0.0
        rng = np.random.default_rng(3)
        batch = plan_masks([[CLS_ID, 6, 7, 8, 9, 10, SEP_ID]], rng, fraction=0.5)
        loss, _ = mlm_loss_and_grad(p, batch)
        assert loss == pytest.approx(math.log(64), abs=1e-12)

    def test_no_masked_positions_errors(self):
        p = small_params()
        rng = np.random.default_rng(4)
        batch = plan_masks([[CLS_ID, SEP_ID]], rng)
        with pytest.raises(ValueError):
            mlm_loss_and_grad(p, batch)

    def test_gradient_matches_finite_differences(self):
        p = float64_params(small_params(vocab_size=20, d=5, layers=2))
        rng = np.random.default_rng(5)
        batch = plan_masks(
            [[CLS_ID, 6, 7, 8, SEP_ID], [CLS_ID, 9, 10, 11, 12, SEP_ID]], rng, fraction=0.5
        )
        _, grads = mlm_loss_and_grad(p, batch)
        gmap = dict(grads.named_arrays())
        h = 1e-6
        fd_vals, an_vals = [], []
        coord_rng = np.random.default_rng(6)
        for name, arr in p.named_arrays():
            flat = arr.reshape(-1)
            for k in coord_rng.integers(0, flat.size, size=min(5, flat.size)):
                orig = flat[k]
                flat[k] = orig + h
                lp, _ = mlm_loss_and_grad(p, batch)
                flat[k] = orig - h
                lm, _ = mlm_loss_and_grad(p, batch)
                flat[k] = orig
                fd_vals.append((lp - lm) / (2 * h))
                an_vals.append(gmap[name].reshape(-1)[k])
        fd_vals, an_vals = np.array(fd_vals), np.array(an_vals)
        rel = np.linalg.norm(fd_vals - an_vals) / max(
            np.linalg.norm(fd_vals), np.linalg.norm(an_vals)
        )
        assert rel <= 1e-4

    def test_gradient_with_inner_padding_matches_finite_differences(self):
        # every coordinate; where a PAD once split a chain, sentence
        # boundaries now do: a one-token and a two-token item sit side by side
        p = float64_params(small_params(vocab_size=14, d=3, layers=2))
        batch = plan_masks(
            [[CLS_ID, 6, 7, 8, 9, SEP_ID], [12], [CLS_ID, 13], [CLS_ID, 10, 11, SEP_ID]],
            np.random.default_rng(10),
            fraction=0.5,
        )
        assert batch.masked_count() == 5  # ceil(0.5 * 4) + 1 + 1 + ceil(0.5 * 2)
        _, grads = mlm_loss_and_grad(p, batch)
        assert_grads_match_finite_differences(p, grads, lambda: mlm_loss_and_grad(p, batch)[0], atol=1e-8)


def tlm_vocab():
    return Vocab(pieces=list(SPECIAL_TOKENS) + ["a", "b"])


def make_pair(src_text, tgt_text):
    return SentencePair(
        src=Sentence(id="s", lang="aa", text=src_text),
        tgt=Sentence(id="t", lang="bb", text=tgt_text),
    )


def tlm_by_tokens(pair, vocab, max_len):
    """The layout tlm_sequence should give: pop the last token of the
    longer segment, the source on a tie, until it fits."""
    sides = (content_ids(pair.src.text, vocab), content_ids(pair.tgt.text, vocab))
    segments = [toks for toks in sides if toks]
    while sum(len(s) for s in segments) > max_len - 1 - len(segments):
        max(segments, key=len).pop()
    return (CLS_ID, *[i for seg in segments for i in (*seg, SEP_ID)])


class TestTlm:
    @settings(max_examples=300, deadline=None)
    @given(
        src=st.lists(st.sampled_from("abcd"), max_size=14),
        tgt=st.lists(st.sampled_from("abcd"), max_size=14),
        max_len=st.integers(1, 32),
    )
    def test_truncation_equals_trimming_token_by_token(self, src, tgt, max_len):
        # one-sided pairs, ties, and sides that differ by one or by many
        vocab = Vocab(pieces=list(SPECIAL_TOKENS) + list("abcd"))
        assume(src or tgt)
        pair = make_pair(" ".join(src), " ".join(tgt))
        if max_len < 1 + 2 * (bool(src) + bool(tgt)):
            with pytest.raises(ValueError, match="cannot hold"):
                tlm_sequence(pair, vocab, max_len)
            return
        assert tlm_sequence(pair, vocab, max_len) == tlm_by_tokens(pair, vocab, max_len)

    def test_layout(self):
        vocab = tlm_vocab()
        seq = tlm_sequence(make_pair("a", "b"), vocab, max_len=10)
        a, b = vocab.piece_to_id["a"], vocab.piece_to_id["b"]
        assert seq == (CLS_ID, a, SEP_ID, b, SEP_ID)

    def test_empty_target_reduces_to_mlm_layout(self):
        vocab = tlm_vocab()
        seq = tlm_sequence(make_pair("a a", ""), vocab, max_len=10)
        a = vocab.piece_to_id["a"]
        assert seq == (CLS_ID, a, a, SEP_ID)

    def test_both_sides_empty_errors(self):
        with pytest.raises(ValueError):
            tlm_sequence(make_pair("", ""), tlm_vocab(), max_len=10)

    def test_truncation_trims_longer_segment(self):
        vocab = tlm_vocab()
        seq = tlm_sequence(make_pair("a a a a a a", "b b"), vocab, max_len=8)
        assert len(seq) == 8
        b = vocab.piece_to_id["b"]
        assert list(seq).count(b) == 2  # short side survives

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4])
    def test_max_len_too_short_for_both_sides_errors(self, max_len):
        # [CLS] a [SEP] b [SEP] needs 5; nothing is silently emptied or popped
        with pytest.raises(ValueError, match=f"max_len {max_len} cannot hold"):
            tlm_sequence(make_pair("a a", "b b b"), tlm_vocab(), max_len=max_len)

    def test_max_len_fits_one_token_per_side(self):
        vocab = tlm_vocab()
        a, b = vocab.piece_to_id["a"], vocab.piece_to_id["b"]
        assert tlm_sequence(make_pair("a a", "b b b"), vocab, max_len=5) == (CLS_ID, a, SEP_ID, b, SEP_ID)
        assert tlm_sequence(make_pair("a a", ""), vocab, max_len=3) == (CLS_ID, a, SEP_ID)
        with pytest.raises(ValueError, match="max_len 2 cannot hold"):
            tlm_sequence(make_pair("a a", ""), vocab, max_len=2)

    def test_no_language_hint_token(self):
        # every output id is CLS, SEP, or a plain content piece
        vocab = tlm_vocab()
        seq = tlm_sequence(make_pair("a b a", "b a"), vocab, max_len=16)
        allowed = {CLS_ID, SEP_ID, vocab.piece_to_id["a"], vocab.piece_to_id["b"]}
        assert set(seq) <= allowed

    def test_tlm_batch_masks_across_both_segments(self):
        # pretrain's TLM batches: plan_masks over tlm_sequence layouts
        vocab = tlm_vocab()
        seqs = [tlm_sequence(make_pair("a a a a", "b b b b"), vocab, 16) for _ in range(4)]
        batch = plan_masks(seqs, np.random.default_rng(0), fraction=0.9)
        masked_targets = batch.target_ids[batch.mask_positions]
        assert vocab.piece_to_id["a"] in masked_targets
        assert vocab.piece_to_id["b"] in masked_targets


class TestCheckpointFormat:
    """A params-only checkpoint (``BXCK``, u32 version 3, the encoder
    config, a zero state flag, then the ``<f4`` tensors), as ``pretrain``
    writes it and ``encode`` reads it."""

    def test_roundtrip_bytes_identical(self, tmp_path):
        p = small_params(seed=9)
        path = tmp_path / "enc.bin"
        save_checkpoint(p, None, path)
        loaded, _ = load_checkpoint(path)
        save_checkpoint(loaded, None, tmp_path / "enc2.bin")
        assert (tmp_path / "enc.bin").read_bytes() == (tmp_path / "enc2.bin").read_bytes()
        assert loaded.config == p.config
        assert loaded.flat.dtype == np.float32
        np.testing.assert_array_equal(loaded.flat.view(np.uint32), p.flat.view(np.uint32))

    def test_truncated_file_reports_offset(self, tmp_path):
        p = small_params()
        path = tmp_path / "enc.bin"
        save_checkpoint(p, None, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated at byte offset"):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        # version-1 files share the magic; the loader reads no further than the version
        path = tmp_path / "enc.bin"
        save_checkpoint(small_params(), None, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"unsupported checkpoint version 1 \(expected 3\)"):
            load_checkpoint(path)


def assert_views_tile_flat(params):
    """``named_arrays`` yields ``_layout``'s names and shapes, in its order
    and each name once; each tensor is a view into ``params.flat`` at its
    offset in that order, and the views cover ``flat`` exactly. A tensor
    rebound to its own array would drop out of the optimizer's update."""
    named = [(name, arr.shape) for name, arr in params.named_arrays()]
    assert named == [(name, shape) for name, shape, _ in _layout(params.config)]
    assert len(dict(named)) == len(named)
    base = params.flat.__array_interface__["data"][0]
    offset = 0
    for name, arr in params.named_arrays():
        assert arr.dtype == params.flat.dtype and arr.flags.c_contiguous, name
        assert np.shares_memory(arr, params.flat), name
        assert arr.__array_interface__["data"][0] == base + params.flat.itemsize * offset, name
        offset += arr.size
    assert params.flat.shape == (offset,)


def test_every_tensor_is_a_view_into_flat(tmp_path):
    # float64 params as the gradient checks build them, and float32 ones
    # as init_params and load_checkpoint make them
    p = float64_params(small_params(layers=2))
    grown = stack_grow(p, 4)
    save_checkpoint(stack_grow(small_params(layers=2), 4), None, tmp_path / "ck.bin")
    loaded, _ = load_checkpoint(tmp_path / "ck.bin")
    copied = p.copy()
    assert not np.shares_memory(copied.flat, p.flat)
    for params in (p, copied, zeros_like_params(p), grown, loaded, small_params(layers=2)):
        assert_views_tile_flat(params)
    assert loaded.flat.dtype == np.float32 and grown.flat.dtype == np.float64


@pytest.mark.parametrize("layers, embed_dim, factor", [(1, 0, 3), (2, 3, 2), (3, 0, 2)])
def test_the_layout_table_is_the_parameter_layout(layers, embed_dim, factor):
    cfg = EncoderConfig(vocab_size=19, hidden_dim=5, num_layers=layers, max_seq_len=8, embed_dim=embed_dim)
    p = init_params(cfg, seed=3)
    grown = stack_grow(p, factor * layers)
    for params in (p, grown):
        assert_views_tile_flat(params)
        start = 0
        for name, arr in params.named_arrays():
            assert _tensor_at(params, start) == name
            assert _tensor_at(params, start + arr.size - 1) == name
            start += arr.size
    before, after = dict(p.named_arrays()), dict(grown.named_arrays())
    for j in range(factor * layers):
        for field in ("weight", "bias"):
            np.testing.assert_array_equal(after.pop(f"layers.{j}.{field}"), before[f"layers.{j % layers}.{field}"])
    assert set(after) == {name for name in before if not name.startswith("layers.")}
    for name, arr in after.items():
        np.testing.assert_array_equal(arr, before[name])


# sha256 of checkpoint_to_bytes(init_params(cfg, seed), None) and of the same
# model grown to twice its layers. Any change to the init draws, their order
# or the flat layout changes them, and with them every checkpoint a seed gives.
PINNED_DIGESTS = {
    ((24, 6, 2, 12, 0), 0): (
        "85d2df5ec38699525fee66ccc9f658d47641c0f7ac6a20e1afe20ff5538dc97c",
        "caea98f7e85e0c9a65eba52e3a65707cc6096308a3bda7b4cef73c04a507956b",
    ),
    ((24, 6, 2, 12, 0), 7): (
        "71907bdddec7d2a4210242ccb4aa443c3d9fbf80e170044345537f4f831897df",
        "f2a8fc721eb751ed983a5d0c55e0c0b5926f94d04b2259b62b00fc45b7a77c7e",
    ),
    ((17, 5, 1, 8, 3), 0): (
        "76fd82a2d3866757749f973d0881c17714f6636290c2ec89c552ff004cee34dc",
        "cfd91719114ff991c274ebd2bd0e76264991d9ec300675c9ea6728c434452fb8",
    ),
    ((17, 5, 1, 8, 3), 7): (
        "9fc3156335d5075f2d5dd92925bac1be3336b85b91dad8ad5971548c5336ee4e",
        "f8f4126eac3d1aff1dd784df7c63e5a0aee857688ec1f2532b31ac9ab04c1724",
    ),
}


@pytest.mark.parametrize("dims, seed", sorted(PINNED_DIGESTS))
def test_fresh_and_grown_models_are_pinned(dims, seed):
    cfg = EncoderConfig(*dims)
    fresh = init_params(cfg, seed)
    grown = stack_grow(fresh, 2 * cfg.num_layers)
    digests = tuple(hashlib.sha256(checkpoint_to_bytes(p, None)).hexdigest() for p in (fresh, grown))
    assert digests == PINNED_DIGESTS[dims, seed]


def test_mlm_gradient_accumulates_into_given_grads():
    p = small_params()
    batch = plan_masks([[CLS_ID, 6, 7, 8, SEP_ID]], np.random.default_rng(1), fraction=0.5)
    loss, fresh = mlm_loss_and_grad(p, batch)
    grads = zeros_like_params(p)
    grads.flat[:] = 1.0
    again, out = mlm_loss_and_grad(p, batch, grads)
    assert out is grads and again == loss
    np.testing.assert_array_equal(grads.flat, 1.0 + fresh.flat)


def test_zeros_like_params_shapes():
    p = small_params()
    z = zeros_like_params(p)
    for (name, a), (zname, b) in zip(p.named_arrays(), z.named_arrays()):
        assert name == zname and a.shape == b.shape
        assert not b.any()


def test_config_embed_dim_defaults_to_hidden():
    cfg = EncoderConfig(vocab_size=10, hidden_dim=8, num_layers=1, max_seq_len=4)
    assert cfg.embed_dim == 8


def test_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=0, hidden_dim=8, num_layers=1, max_seq_len=4)
