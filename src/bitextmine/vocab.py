"""Subword vocabulary with language-smoothed induction and greedy
longest-match tokenization.

Induction is merge-based: per-language token counts are reweighted by
(p_l**alpha)/p_l (alpha = smoothing exponent, upweighting low-resource
languages), then the most frequent adjacent piece pair is merged until
the target size is reached; ties go to the lexicographically smallest
pair. The merge statistics are incremental (as in Sennrich et al.,
arXiv 1508.07909): an index from each pair to the words containing it
lets a merge rewrite only those words and recount only the pairs they
held before or after. Each recount sums in word order, one addition per
occurrence, so frequencies and the vocabulary are exactly those of a
full rescan of every word at every merge.

The tokenizer side is greedy longest-match-first within whitespace-split
words, with ``##`` marking word-internal continuation pieces. Each
``Vocab`` remembers the pieces of up to ``WORD_CACHE_LIMIT`` distinct
words, so a word is matched once per vocabulary, not once per
occurrence.

Vocab file format: one piece per line, line number = id, first five
lines are the special tokens.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Sentence
from .errors import DataError
from .fileio import atomic_write_text

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

CONTINUATION_MARKER = "##"

# Distinct words whose tokenization a Vocab remembers. Real corpora have
# millions of word types; past this many, further words are matched on
# every call instead of growing the cache without bound.
WORD_CACHE_LIMIT = 1 << 16


@dataclass
class Vocab:
    """Immutable-by-convention piece inventory with dense ids, and the
    pieces of the words it has tokenized (``word_tokens``)."""

    pieces: list[str]
    piece_to_id: dict[str, int] = field(init=False, repr=False)
    word_cache: dict[str, tuple[int, ...]] = field(
        init=False, default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if tuple(self.pieces[:5]) != SPECIAL_TOKENS:
            raise ValueError("first five pieces must be the special tokens")
        self.piece_to_id = {p: i for i, p in enumerate(self.pieces)}
        if len(self.piece_to_id) != len(self.pieces):
            raise ValueError("duplicate pieces in vocabulary")

    def __len__(self) -> int:
        return len(self.pieces)

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, "\n".join(self.pieces) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            pieces = [line.rstrip("\n") for line in fh]
        while pieces and pieces[-1] == "":
            pieces.pop()
        try:
            return cls(pieces=pieces)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _word_symbols(word: str) -> tuple[str, ...]:
    """Split a word into its initial character and ## continuations."""
    return (word[0],) + tuple(CONTINUATION_MARKER + c for c in word[1:])


def _merge_pair(seq: list[str], a: str, b: str, merged: str) -> list[str]:
    """Replace each ``a b`` in ``seq`` by ``merged``, greedily left to right."""
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def _pair_frequency(occ: Mapping[int, int], freqs: Sequence[float]) -> float:
    """A pair's frequency from its occurrences, summed as a rescan of all
    words would: in word order, one addition per occurrence. Summing in
    any other order (or by deltas) can change the last bits and flip a
    near-tie between merges."""
    total = 0.0
    for w in sorted(occ):
        f = freqs[w]
        for _ in range(occ[w]):
            total += f
    return total


def _pop_best(
    heap: list[tuple[float, str, str]], pair_freq: Mapping[tuple[str, str], float]
) -> tuple[str, str] | None:
    """Pop the most frequent pair, ties to the smallest, skipping entries
    whose frequency is no longer the pair's current one; None when no
    pair is left."""
    while heap:
        neg_f, a, b = heapq.heappop(heap)
        if pair_freq.get((a, b)) == -neg_f:
            return a, b
    return None


def check_build_options(smoothing_exponent: float, character_coverage: float = 1.0) -> None:
    """Raise ValueError unless the language smoothing exponent and the
    character coverage of ``build_vocab`` are both in (0, 1]."""
    if not (0.0 < smoothing_exponent <= 1.0):
        raise ValueError(f"smoothing exponent must be in (0, 1], got {smoothing_exponent}")
    if not (0.0 < character_coverage <= 1.0):
        raise ValueError(f"character_coverage must be in (0, 1], got {character_coverage}")


def language_weights(
    token_counts: Mapping[str, int], smoothing_exponent: float
) -> dict[str, float]:
    """Per-language reweighting factors (p_l**alpha)/p_l.

    With alpha < 1 this upweights low-resource languages; alpha = 1 is
    the identity.
    """
    check_build_options(smoothing_exponent)
    total = sum(token_counts.values())
    if total == 0:
        raise ValueError("no tokens in corpus")
    weights = {}
    for lang, count in token_counts.items():
        if count == 0:
            weights[lang] = 0.0
            continue
        p = count / total
        weights[lang] = p**smoothing_exponent / p
    return weights


def build_vocab(
    corpora: Mapping[str, Sequence[Sentence]],
    target_size: int,
    smoothing_exponent: float = 0.3,
    character_coverage: float = 1.0,
) -> Vocab:
    """Induce a subword vocabulary of exactly ``target_size`` pieces (or
    fewer if merges are exhausted first).

    Word counts are whitespace-based and case-preserving. Merge ties
    break on the lexicographically smallest symbol pair, so the build is
    deterministic for a given input. Both options are checked, by
    ``check_build_options``, before the corpora are counted.
    """
    check_build_options(smoothing_exponent, character_coverage)

    word_counts: dict[str, dict[str, int]] = {}
    token_totals: dict[str, int] = {}
    for lang, sentences in corpora.items():
        counts: dict[str, int] = {}
        n = 0
        for sent in sentences:
            for word in sent.text.split():
                counts[word] = counts.get(word, 0) + 1
                n += 1
        word_counts[lang] = counts
        token_totals[lang] = n

    weights = language_weights(token_totals, smoothing_exponent)

    # Smoothed frequency per distinct word, merged across languages.
    weighted: dict[str, float] = {}
    for lang, counts in word_counts.items():
        w = weights[lang]
        for word, c in counts.items():
            weighted[word] = weighted.get(word, 0.0) + c * w

    # Character coverage: keep the most frequent characters covering the
    # requested fraction of character occurrences.
    char_occ: dict[str, float] = {}
    for word, f in weighted.items():
        for ch in word:
            char_occ[ch] = char_occ.get(ch, 0.0) + f
    ranked_chars = sorted(char_occ, key=lambda c: (-char_occ[c], c))
    covered: set[str] = set()
    running, total_occ = 0.0, sum(char_occ.values())
    for ch in ranked_chars:
        if running >= character_coverage * total_occ and covered:
            break
        covered.add(ch)
        running += char_occ[ch]

    # Initial symbol inventory: only forms that occur in covered words.
    sequences: dict[tuple[str, ...], float] = {}
    for word, f in weighted.items():
        if not all(ch in covered for ch in word):
            continue
        seq = _word_symbols(word)
        sequences[seq] = sequences.get(seq, 0.0) + f
    alphabet = sorted({sym for seq in sequences for sym in seq})

    if target_size <= len(SPECIAL_TOKENS) + len(alphabet):
        raise ValueError(
            f"target_size={target_size} must exceed specials+alphabet="
            f"{len(SPECIAL_TOKENS) + len(alphabet)}"
        )

    pieces = list(SPECIAL_TOKENS) + alphabet
    known = set(pieces)
    words = [list(seq) for seq in sequences]
    freqs = list(sequences.values())
    # Occurrences of each adjacent pair: word index -> count in that word.
    where: dict[tuple[str, str], dict[int, int]] = {}
    for w, seq in enumerate(words):
        for pair in zip(seq, seq[1:]):
            occ = where.setdefault(pair, {})
            occ[w] = occ.get(w, 0) + 1
    pair_freq = {pair: _pair_frequency(occ, freqs) for pair, occ in where.items()}
    heap = [(-f, a, b) for (a, b), f in pair_freq.items()]
    heapq.heapify(heap)
    while len(pieces) < target_size:
        best = _pop_best(heap, pair_freq)
        if best is None:
            break
        a, b = best
        merged = a + b.removeprefix(CONTINUATION_MARKER)
        if merged not in known:
            pieces.append(merged)
            known.add(merged)
        touched: set[tuple[str, str]] = set()
        for w in list(where[best]):
            old = words[w]
            new = _merge_pair(old, a, b, merged)
            for pair in zip(old, old[1:]):
                where[pair].pop(w, None)
                touched.add(pair)
            for pair in zip(new, new[1:]):
                occ = where.setdefault(pair, {})
                occ[w] = occ.get(w, 0) + 1
                touched.add(pair)
            words[w] = new
        for pair in touched:
            occ = where[pair]
            if not occ:
                del where[pair], pair_freq[pair]
                continue
            f = _pair_frequency(occ, freqs)
            if pair_freq.get(pair) != f:
                pair_freq[pair] = f
                heapq.heappush(heap, (-f, *pair))

    return Vocab(pieces=pieces)


def word_tokens(word: str, vocab: Vocab) -> tuple[int, ...]:
    """Greedy longest-match-first tokenization of a single word,
    remembered per vocabulary (up to ``WORD_CACHE_LIMIT`` words).

    Returns (UNK_ID,) when any position fails to match.
    """
    ids = vocab.word_cache.get(word)
    if ids is None:
        ids = _match_word(word, vocab.piece_to_id)
        if len(vocab.word_cache) < WORD_CACHE_LIMIT:
            vocab.word_cache[word] = ids
    return ids


def _match_word(word: str, table: Mapping[str, int]) -> tuple[int, ...]:
    ids: list[int] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_MARKER + piece
            tid = table.get(piece)
            if tid is not None:
                found = tid
                break
            end -= 1
        if found is None:
            return (UNK_ID,)
        ids.append(found)
        start = end
    return tuple(ids)


def content_ids(text: str, vocab: Vocab) -> list[int]:
    """Whitespace pre-split, then the wordpiece ids of each word in turn."""
    ids: list[int] = []
    for word in text.split():
        ids.extend(word_tokens(word, vocab))
    return ids


def tokenize(text: str, vocab: Vocab, max_len: int) -> tuple[int, ...]:
    """Content ids wrapped with CLS/SEP.

    Truncation keeps the first max_len-2 content tokens.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    return (CLS_ID, *content_ids(text, vocab)[: max_len - 2], SEP_ID)


def tokenize_sentence(sentence: Sentence, vocab: Vocab, max_len: int) -> tuple[int, ...]:
    return tokenize(sentence.text, vocab, max_len)

