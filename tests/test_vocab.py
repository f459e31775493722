import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bitextmine import vocab as vocab_module
from bitextmine.errors import DataError
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
    word_tokens,
)


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
        vocab = build_vocab({"aa": ["ab ab"]}, target_size=20)
        assert tuple(vocab.pieces[:5]) == SPECIAL_TOKENS

    def test_target_too_small_errors(self):
        with pytest.raises(ValueError):
            build_vocab({"aa": ["abc"]}, target_size=7)

    def test_merges_most_frequent_pair_first(self):
        # "ab" occurs 3 times, "cd" once: first merged piece is "ab"
        vocab = build_vocab({"aa": ["ab ab ab cd"]}, target_size=12)
        alphabet = {"a", "b", "c", "d", "##b", "##d"}
        first_merge = [p for p in vocab.pieces[5:] if p not in alphabet][0]
        assert first_merge == "ab"

    def test_deterministic(self):
        corp = {"aa": ["kade gibe kade"], "bb": ["somu noru"]}
        a = build_vocab(corp, target_size=40)
        b = build_vocab(corp, target_size=40)
        assert a.pieces == b.pieces

    def test_alpha_one_single_language_equals_raw_counts(self):
        # with one language the weight is 1 regardless of alpha
        corp = {"aa": ["xy xy zq"]}
        assert build_vocab(corp, 15, smoothing_exponent=1.0).pieces == build_vocab(
            corp, 15, smoothing_exponent=0.3
        ).pieces

    def test_smoothing_changes_merge_priority(self):
        # "aa" outcounts "cc" raw (12 vs 10), but the small language's
        # upweighting under alpha=0.3 is (100/10)^0.7 ~ 5x, flipping the
        # first merge. Single-char filler words contribute no pairs.
        corp = {
            "big": ["aa"] * 12 + ["x"] * 88,
            "small": ["cc"] * 10,
        }
        unsmoothed = build_vocab(corp, 11, smoothing_exponent=1.0)
        smoothed = build_vocab(corp, 11, smoothing_exponent=0.3)
        assert unsmoothed.pieces[-1] == "aa"
        assert smoothed.pieces[-1] == "cc"

    def test_vocab_file_roundtrip(self, tmp_path):
        vocab = build_vocab({"aa": ["kade gibe"]}, target_size=30)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.pieces == vocab.pieces
        assert path.read_text(encoding="utf-8").splitlines()[:5] == list(SPECIAL_TOKENS)

    @pytest.mark.parametrize("piece", ["", "two\nlines", "two\rlines", "end\r"])
    def test_a_piece_that_is_empty_or_holds_a_line_end_is_refused(self, piece):
        with pytest.raises(ValueError, match=f"^piece {re.escape(repr(piece))} is empty or holds a line end$"):
            manual_vocab(["ka", piece])

    def test_only_line_feed_ends_a_piece_line_and_crlf_loses_its_carriage_return(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(("\r\n".join(SPECIAL_TOKENS) + "\r\nka\u2028\x85\x0b\nbe\n").encode("utf-8"))
        assert Vocab.load(path).pieces == [*SPECIAL_TOKENS, "ka\u2028\x85\x0b", "be"]
        bad = "ka\rbe"
        path.write_bytes(("\n".join(SPECIAL_TOKENS) + f"\n{bad}\n").encode("utf-8"))
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: piece {bad!r}')} is empty or holds a line end$"):
            Vocab.load(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        build_vocab({"aa": ["kade"]}, target_size=30).save(path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            build_vocab({"aa": ["kade gibe lomu"]}, target_size=30).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


def full_rescan_build_vocab(corpora, target_size, smoothing_exponent=0.3, character_coverage=1.0):
    """The builder before incremental merge statistics: every merge round
    recounts all pair frequencies over every word and rewrites every
    symbol sequence. The reference that ``build_vocab`` must match piece
    for piece."""
    word_counts, token_totals = {}, {}
    for lang, texts in corpora.items():
        counts, n = {}, 0
        for text in texts:
            for word in text.split():
                counts[word] = counts.get(word, 0) + 1
                n += 1
        word_counts[lang], token_totals[lang] = counts, n
    weights = language_weights(token_totals, smoothing_exponent)
    weighted = {}
    for lang, counts in word_counts.items():
        for word, c in counts.items():
            weighted[word] = weighted.get(word, 0.0) + c * weights[lang]
    char_occ = {}
    for word, f in weighted.items():
        for ch in word:
            char_occ[ch] = char_occ.get(ch, 0.0) + f
    covered, running, total_occ = set(), 0.0, sum(char_occ.values())
    for ch in sorted(char_occ, key=lambda c: (-char_occ[c], c)):
        if running >= character_coverage * total_occ and covered:
            break
        covered.add(ch)
        running += char_occ[ch]
    work = {}
    for word, f in weighted.items():
        if all(ch in covered for ch in word):
            seq = (word[0],) + tuple(CONTINUATION_MARKER + c for c in word[1:])
            work[seq] = work.get(seq, 0.0) + f
    alphabet = sorted({sym for seq in work for sym in seq})
    if target_size <= len(SPECIAL_TOKENS) + len(alphabet):
        raise ValueError("target_size too small")
    pieces = list(SPECIAL_TOKENS) + alphabet
    while len(pieces) < target_size:
        pair_freq = {}
        for seq, f in work.items():
            for a, b in zip(seq, seq[1:]):
                pair_freq[(a, b)] = pair_freq.get((a, b), 0.0) + f
        if not pair_freq:
            break
        a, b = min(pair_freq, key=lambda p: (-pair_freq[p], p))
        merged = a + b.removeprefix(CONTINUATION_MARKER)
        if merged not in pieces:
            pieces.append(merged)
        new_work = {}
        for seq, f in work.items():
            out, i = [], 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_work[tuple(out)] = new_work.get(tuple(out), 0.0) + f
        work = new_work
    return pieces


@st.composite
def smoothed_corpora(draw):
    """1-3 languages, each over its own 2-6 letter alphabet (letters may be
    shared), with words of 1-8 characters."""
    corpora = {}
    for lang in ("aa", "bb", "cc")[: draw(st.integers(1, 3))]:
        letters = draw(st.text(alphabet="abcdefghij", min_size=2, max_size=6))
        word = st.text(alphabet=letters, min_size=1, max_size=8)
        lines = draw(st.lists(st.lists(word, min_size=1, max_size=5), min_size=1, max_size=12))
        corpora[lang] = [" ".join(words) for words in lines]
    return corpora


def alphabet_size(pieces):
    return sum(len(p.removeprefix(CONTINUATION_MARKER)) == 1 for p in pieces[len(SPECIAL_TOKENS):])


class TestIncrementalMerges:
    """``build_vocab`` recounts only the pairs a merge touches; it must
    produce exactly the pieces of the full rescan, near-ties included."""

    @settings(max_examples=150, deadline=None)
    @given(
        smoothed_corpora(),
        st.sampled_from([1.0, 0.9, 0.6]),
        st.sampled_from([0.3, 1.0]),
        st.integers(1, 40) | st.just(10_000),
    )
    def test_matches_the_full_rescan(self, corpora, coverage, alpha, extra):
        exhausted = full_rescan_build_vocab(corpora, 10_000, alpha, coverage)
        target = len(SPECIAL_TOKENS) + alphabet_size(exhausted) + extra
        expected = full_rescan_build_vocab(corpora, target, alpha, coverage)
        assert build_vocab(corpora, target, alpha, coverage).pieces == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.text(alphabet="abc \t\n\u3000\x1c", max_size=12), max_size=6), min_size=1, max_size=3
        ),
        st.sampled_from([0.3, 1.0]),
    )
    def test_one_counter_pass_counts_as_each_text_split(self, languages, alpha):
        # runs of mixed whitespace, and texts that are blank or start or end with one
        corpora = {f"l{i}": texts for i, texts in enumerate(languages)}
        try:
            expected = full_rescan_build_vocab(corpora, 10_000, alpha)
        except ValueError:  # no tokens at all
            with pytest.raises(ValueError, match="^no tokens in corpus$"):
                build_vocab(corpora, 10_000, alpha)
            return
        assert build_vocab(corpora, 10_000, alpha).pieces == expected

    def test_matches_the_full_rescan_on_the_toy_corpus(self, toy_small):
        corpora = {"aa": [p.src.text for p in toy_small.train_pairs], "bb": [p.tgt.text for p in toy_small.train_pairs]}
        for target in (120, 600, 5000):
            assert build_vocab(corpora, target).pieces == full_rescan_build_vocab(corpora, target)


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


class TestWordCache:
    """Each ``Vocab`` remembers the pieces of the words it has tokenized."""

    @staticmethod
    def tokenize_all(vocab, toy_small):
        return [tokenize(s.text, vocab, 16) for p in toy_small.train_pairs for s in (p.src, p.tgt)]

    def test_warm_cache_gives_the_cold_output(self, toy_small, toy_vocab, monkeypatch):
        vocab = Vocab(pieces=list(toy_vocab.pieces))
        with monkeypatch.context() as m:
            m.setattr(vocab_module, "WORD_CACHE_LIMIT", 0)
            uncached = self.tokenize_all(vocab, toy_small)
            assert vocab.word_cache == {}
        cold = self.tokenize_all(vocab, toy_small)
        assert vocab.word_cache
        assert self.tokenize_all(vocab, toy_small) == cold == uncached

    def test_word_tokens_returns_a_tuple(self):
        vocab = manual_vocab(["a", "ab", "##c"])
        for _ in range(2):
            assert word_tokens("abc", vocab) == (vocab.piece_to_id["ab"], vocab.piece_to_id["##c"])
        assert word_tokens("☃", vocab) == (UNK_ID,)
        assert all(isinstance(ids, tuple) for ids in vocab.word_cache.values())

    def test_cache_stops_growing_at_the_limit(self, toy_small, toy_vocab, monkeypatch):
        expected = self.tokenize_all(Vocab(pieces=list(toy_vocab.pieces)), toy_small)
        monkeypatch.setattr(vocab_module, "WORD_CACHE_LIMIT", 2)
        vocab = Vocab(pieces=list(toy_vocab.pieces))
        for p in toy_small.train_pairs:
            for s in (p.src, p.tgt):
                tokenize(s.text, vocab, 16)
                assert len(vocab.word_cache) <= 2
        assert len(vocab.word_cache) == 2
        assert self.tokenize_all(vocab, toy_small) == expected

    def test_equality_ignores_the_cache(self):
        a, b = manual_vocab(["a", "b"]), manual_vocab(["a", "b"])
        tokenize("ab a b", a, 8)
        assert a.word_cache and not b.word_cache
        assert a == b
        assert a != manual_vocab(["a", "c"])


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
        corp = {"aa": [" ".join(words)]}
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


# Pieces a vocab file can hold: no line end, with the separators that
# str.splitlines would split on, tabs and spaces drawn often.
PIECES = st.text(
    st.characters(exclude_characters="\n\r", exclude_categories=["Cs"])
    | st.sampled_from(["\x0b", "\x0c", "\x85", "\u2028", "\u2029", "\t", " "]),
    min_size=1,
    max_size=5,
).filter(lambda piece: piece not in SPECIAL_TOKENS)

# Pieces that no line of a vocab file can hold: an empty one, or one that
# holds a line end.
UNWRITABLE_PIECES = st.just("") | st.builds(
    lambda head, end, tail: head + end + tail,
    st.text(max_size=3),
    st.sampled_from(["\n", "\r", "\r\n"]),
    st.text(max_size=3),
)


class TestVocabRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(extra=st.lists(PIECES, max_size=8, unique=True))
    def test_save_then_load(self, extra):
        vocab = manual_vocab(extra)
        with tempfile.TemporaryDirectory() as tmp:
            vocab.save(Path(tmp) / "vocab.txt")
            assert Vocab.load(Path(tmp) / "vocab.txt").pieces == vocab.pieces

    @settings(max_examples=100, deadline=None)
    @given(extra=st.lists(PIECES, max_size=6, unique=True), bad=UNWRITABLE_PIECES, data=st.data())
    def test_vocab_refuses_first_what_load_could_not_read_back(self, extra, bad, data):
        extra.insert(data.draw(st.integers(0, len(extra))), bad)
        pieces = [*SPECIAL_TOKENS, *extra]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vocab.txt"
            path.write_text("\n".join(pieces) + "\n", encoding="utf-8", newline="")
            try:
                loaded = Vocab.load(path).pieces
            except DataError:
                loaded = None
        assert loaded != pieces
        with pytest.raises(ValueError, match=f"^piece {re.escape(repr(bad))} is empty or holds a line end$"):
            Vocab(pieces=pieces)
