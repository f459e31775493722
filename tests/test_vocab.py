import os

import pytest
from hypothesis import given, strategies as st

from bitextmine.corpus import Sentence
from bitextmine.vocab import (
    CLS_ID,
    CONTINUATION_MARKER,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
    language_weights,
    tokenize,
)


def sents(lang, *texts):
    return [Sentence(id=str(i), lang=lang, text=t) for i, t in enumerate(texts)]


def manual_vocab(extra):
    return Vocab(pieces=list(SPECIAL_TOKENS) + extra)


class TestLanguageWeights:
    def test_single_language_alpha_one_is_identity(self):
        w = language_weights({"aa": 100}, 1.0)
        assert w["aa"] == pytest.approx(1.0)

    def test_smoothing_upweights_low_resource(self):
        w = language_weights({"big": 90, "small": 10}, 0.3)
        assert w["big"] == pytest.approx(0.9**0.3 / 0.9)
        assert w["small"] == pytest.approx(0.1**0.3 / 0.1)
        assert w["small"] / w["big"] == pytest.approx(4.6555, abs=1e-3)

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            language_weights({"aa": 1}, 0.0)
        with pytest.raises(ValueError):
            language_weights({"aa": 1}, 1.5)


class TestBuildVocab:
    def test_specials_occupy_first_five_ids(self):
        vocab = build_vocab({"aa": sents("aa", "ab ab")}, target_size=20)
        assert tuple(vocab.pieces[:5]) == SPECIAL_TOKENS

    def test_target_too_small_errors(self):
        with pytest.raises(ValueError):
            build_vocab({"aa": sents("aa", "abc")}, target_size=7)

    def test_merges_most_frequent_pair_first(self):
        # "ab" occurs 3 times, "cd" once: first merged piece is "ab"
        vocab = build_vocab({"aa": sents("aa", "ab ab ab cd")}, target_size=12)
        alphabet = {"a", "b", "c", "d", "##b", "##d"}
        first_merge = [p for p in vocab.pieces[5:] if p not in alphabet][0]
        assert first_merge == "ab"

    def test_deterministic(self):
        corp = {"aa": sents("aa", "kade gibe kade"), "bb": sents("bb", "somu noru")}
        a = build_vocab(corp, target_size=40)
        b = build_vocab(corp, target_size=40)
        assert a.pieces == b.pieces

    def test_alpha_one_single_language_equals_raw_counts(self):
        # with one language the weight is 1 regardless of alpha
        corp = {"aa": sents("aa", "xy xy zq")}
        assert build_vocab(corp, 15, smoothing_exponent=1.0).pieces == build_vocab(
            corp, 15, smoothing_exponent=0.3
        ).pieces

    def test_smoothing_changes_merge_priority(self):
        # "aa" outcounts "cc" raw (12 vs 10), but the small language's
        # upweighting under alpha=0.3 is (100/10)^0.7 ~ 5x, flipping the
        # first merge. Single-char filler words contribute no pairs.
        corp = {
            "big": sents("big", *(["aa"] * 12 + ["x"] * 88)),
            "small": sents("small", *["cc"] * 10),
        }
        unsmoothed = build_vocab(corp, 11, smoothing_exponent=1.0)
        smoothed = build_vocab(corp, 11, smoothing_exponent=0.3)
        assert unsmoothed.pieces[-1] == "aa"
        assert smoothed.pieces[-1] == "cc"

    def test_vocab_file_roundtrip(self, tmp_path):
        vocab = build_vocab({"aa": sents("aa", "kade gibe")}, target_size=30)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.pieces == vocab.pieces
        assert path.read_text(encoding="utf-8").splitlines()[:5] == list(SPECIAL_TOKENS)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        build_vocab({"aa": sents("aa", "kade")}, target_size=30).save(path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            build_vocab({"aa": sents("aa", "kade gibe lomu")}, target_size=30).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


class TestTokenize:
    def test_greedy_longest_match(self):
        vocab = manual_vocab(["a", "ab", "##c"])
        seq = tokenize("abc", vocab, max_len=8)
        assert seq == (CLS_ID, vocab.piece_to_id["ab"], vocab.piece_to_id["##c"], SEP_ID)

    def test_empty_text(self):
        vocab = manual_vocab(["a"])
        assert tokenize("", vocab, 8) == (CLS_ID, SEP_ID)

    def test_out_of_alphabet_is_unk(self):
        vocab = manual_vocab(["a"])
        assert tokenize("☃", vocab, 8) == (CLS_ID, UNK_ID, SEP_ID)

    def test_partial_match_failure_is_single_unk(self):
        vocab = manual_vocab(["a"])  # "ab" starts matching then fails on b
        assert tokenize("ab", vocab, 8) == (CLS_ID, UNK_ID, SEP_ID)

    def test_truncation_keeps_first_tokens(self):
        vocab = manual_vocab(["a"])
        seq = tokenize("a a a a a a", vocab, max_len=4)
        assert len(seq) == 4
        assert seq[0] == CLS_ID and seq[-1] == SEP_ID

    def test_never_emits_pad_or_mask(self):
        vocab = manual_vocab(["a", "b", "##a"])
        seq = tokenize("aa bb ☃", vocab, 16)
        assert PAD_ID not in seq and MASK_ID not in seq

    def test_max_len_bound(self):
        vocab = manual_vocab(["a"])
        for max_len in (3, 4, 7):
            assert len(tokenize("a " * 30, vocab, max_len)) <= max_len

    def test_case_preserved(self):
        vocab = manual_vocab(["A", "a"])
        seq = tokenize("A a", vocab, 8)
        assert seq[1] == vocab.piece_to_id["A"]
        assert seq[2] == vocab.piece_to_id["a"]


def rebuild_words(ids, vocab):
    """Join the pieces of ``ids`` between CLS and SEP back into words."""
    marker = CONTINUATION_MARKER
    words: list[str] = []
    for tid in ids[1:-1]:
        piece = vocab.pieces[tid]
        if piece.startswith(marker):
            words[-1] += piece[len(marker):]
        else:
            words.append(piece)
    return words


class TestDetokenize:
    """``tokenize`` loses nothing on UNK-free text: its pieces rebuild the words."""

    def test_inverse_of_tokenize_example(self):
        vocab = manual_vocab(["a", "ab", "##c"])
        assert rebuild_words(tokenize("abc", vocab, 8), vocab) == ["abc"]

    def test_empty(self):
        vocab = manual_vocab(["a"])
        seq = tokenize("", vocab, 8)
        assert list(seq) == [CLS_ID, SEP_ID]
        assert rebuild_words(seq, vocab) == []

    @given(
        st.lists(
            st.text(alphabet="kgdfbaei", min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_on_unk_free_sentences(self, words):
        corp = {"aa": sents("aa", " ".join(words))}
        vocab = build_vocab(corp, target_size=200)
        text = " ".join(words)
        seq = tokenize(text, vocab, max_len=64)
        assert UNK_ID not in seq
        assert rebuild_words(seq, vocab) == text.split()


def test_vocab_rejects_bad_specials():
    with pytest.raises(ValueError):
        Vocab(pieces=["a", "b", "c", "d", "e"])


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocab(pieces=list(SPECIAL_TOKENS) + ["a", "a"])
