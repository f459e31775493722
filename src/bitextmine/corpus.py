"""Corpus data types, file readers and writers.

File formats handled here, each read by the one line rule of
``fileio.read_lines`` (UTF-8, only ``\n`` or ``\r\n`` ends a line, lines
that are empty or whitespace only skipped but counted, errors name
``path:line``):
  * monolingual corpus: one sentence per line, optional leading
    ``lang<TAB>`` prefix;
  * bilingual pairs: headerless TSV with columns src_lang, tgt_lang,
    src_text, tgt_text and an optional fifth score column.

The readers check a whole file, then keep it as columns, one list per
field in line order: ``Sentences`` holds ``ids``, ``langs`` and ``texts``,
``SentencePairs`` the line numbers, both sides' languages and texts, and
the scores. Each is a read-only sequence whose item i is a
``Sentence`` or ``SentencePair`` built afresh from row i each time it is
indexed, and kept nowhere; a slice is the sliced columns. Callers that
need only texts, as ``encode``, ``build-vocab`` and training do, read the
columns and build no record.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .fileio import parse_score, read_lines, read_rows

_LANG_PREFIX_RE = re.compile(r"[a-z]{2,3}(?:[-_][a-z0-9]{2,8})?")
_EMPTY_LANG = "sentence language tag must be non-empty"


@dataclass(frozen=True)
class Sentence:
    """One sentence with an opaque id and a lowercase language tag."""

    id: str
    lang: str
    text: str

    def __post_init__(self) -> None:
        if not self.lang:
            raise ValueError(_EMPTY_LANG)


@dataclass(frozen=True)
class SentencePair:
    """An aligned source/target sentence pair with an optional quality score."""

    src: Sentence
    tgt: Sentence
    score: float | None = None

    def __post_init__(self) -> None:
        if self.score is not None and not math.isfinite(self.score):
            raise ValueError(f"pair score must be finite, got {self.score!r}")


@dataclass(frozen=True)
class Sentences(Sequence):
    """Sentences as the columns ``ids``, ``langs`` and ``texts``; item i
    is a fresh ``Sentence(ids[i], langs[i], texts[i])``, a slice the
    sliced columns, and ``+`` joins the columns of two."""

    ids: list[str]
    langs: list[str]
    texts: list[str]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Sentences(self.ids[i], self.langs[i], self.texts[i])
        return Sentence(self.ids[i], self.langs[i], self.texts[i])

    def __add__(self, other: Sentences) -> Sentences:
        if not isinstance(other, Sentences):
            return NotImplemented
        return Sentences(self.ids + other.ids, self.langs + other.langs, self.texts + other.texts)


@dataclass(frozen=True)
class SentencePairs(Sequence):
    """Pairs read from a pairs file, as columns: the line numbers
    ``lines``, ``src_langs``, ``tgt_langs``, ``src_texts``, ``tgt_texts``
    and ``scores`` (None where a row has none). Item i is a fresh
    ``SentencePair`` whose sentences have the ids ``"<line>:src"`` and
    ``"<line>:tgt"``; a slice is the sliced columns."""

    lines: list[int]
    src_langs: list[str]
    tgt_langs: list[str]
    src_texts: list[str]
    tgt_texts: list[str]
    scores: list[float | None]

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SentencePairs(
                self.lines[i], self.src_langs[i], self.tgt_langs[i],
                self.src_texts[i], self.tgt_texts[i], self.scores[i],
            )
        line = self.lines[i]
        src = Sentence(f"{line}:src", self.src_langs[i], self.src_texts[i])
        return SentencePair(src, Sentence(f"{line}:tgt", self.tgt_langs[i], self.tgt_texts[i]), self.scores[i])


def read_monolingual(path: str | Path, default_lang: str = "und") -> Sentences:
    """Read a one-sentence-per-line file, honoring optional lang prefixes.

    A line of the form ``lang<TAB>text`` (lang matching an ISO-639-style
    tag) sets that sentence's language; other lines get ``default_lang``.
    Sentence ids are 1-based line numbers. A prefixed line whose text is
    empty or whitespace only raises ``DataError`` naming ``path:line``, as
    a blank text field of ``read_pairs_tsv`` does; an empty
    ``default_lang`` raises ``ValueError`` at the first line that takes it,
    as a ``Sentence`` would.
    """
    ids: list[str] = []
    langs: list[str] = []
    texts: list[str] = []
    is_tag: dict[str, bool] = {}  # each distinct prefix is matched once
    for lineno, line in read_lines(path):
        lang, text = default_lang, line
        head, tab, rest = line.partition("\t")
        if tab:
            if head not in is_tag:
                is_tag[head] = _LANG_PREFIX_RE.fullmatch(head) is not None
            if is_tag[head]:
                lang, text = head, rest
                if not text or text.isspace():  # an unprefixed line is never blank
                    raise DataError(f"{path}:{lineno}: blank text")
        if not lang:
            raise ValueError(_EMPTY_LANG)
        ids.append(str(lineno))
        langs.append(lang)
        texts.append(text)
    return Sentences(ids, langs, texts)


def read_pairs_tsv(path: str | Path) -> SentencePairs:
    """Read headerless TSV pairs: src_lang, tgt_lang, src_text, tgt_text[, score or empty].

    A row whose src_text or tgt_text is empty or whitespace only raises
    ``DataError`` naming ``path:line``: it would give a sentence with no
    content token. So does a row with an empty language tag, as its
    ``Sentence`` would.
    """
    lines: list[int] = []
    src_langs: list[str] = []
    tgt_langs: list[str] = []
    src_texts: list[str] = []
    tgt_texts: list[str] = []
    scores: list[float | None] = []
    for lineno, cols in read_rows(path, (4, 5), "4 or 5 tab-separated columns"):
        src_lang, tgt_lang, src_text, tgt_text = cols[:4]
        for side, text in (("src", src_text), ("tgt", tgt_text)):
            if not text.strip():
                raise DataError(f"{path}:{lineno}: blank {side}_text")
        score = parse_score(cols[4], path, lineno) if len(cols) == 5 and cols[4] else None
        if not src_lang or not tgt_lang:
            raise DataError(f"{path}:{lineno}: {_EMPTY_LANG}")
        lines.append(lineno)
        src_langs.append(src_lang)
        tgt_langs.append(tgt_lang)
        src_texts.append(src_text)
        tgt_texts.append(tgt_text)
        scores.append(score)
    return SentencePairs(lines, src_langs, tgt_langs, src_texts, tgt_texts, scores)


def format_pairs_tsv(pairs: Iterable[SentencePair]) -> str:
    """Serialize pairs to the TSV wire format (scores with 6 decimals).
    ``ValueError`` naming the sentence id refuses what ``read_pairs_tsv``
    would not read back: a blank text, a text or language tag that holds a
    tab, ``\n`` or ``\r``, which would split its column or its row, and a
    source language tag that starts with a byte-order mark, as its row
    would. Each row is checked as a whole; only a refused row's fields are
    checked one by one, to name the first fault."""
    rows = []
    for p in pairs:
        src, tgt = p.src, p.tgt
        row = f"{src.lang}\t{tgt.lang}\t{src.text}\t{tgt.text}"
        if (
            row.count("\t") != 3
            or "\n" in row
            or "\r" in row
            or src.lang.startswith("\ufeff")
            or not src.text
            or src.text.isspace()  # as ``not text.strip()``: both use str's whitespace
            or not tgt.text
            or tgt.text.isspace()
        ):
            raise ValueError(_row_fault(p))
        rows.append(row if p.score is None else f"{row}\t{p.score:.6f}")
    return "\n".join(rows) + ("\n" if rows else "")


def _row_fault(p: SentencePair) -> str:
    """Why ``format_pairs_tsv`` refuses the pair ``p``: its first fault,
    field by field, in the order the fields are checked."""
    if p.src.lang.startswith("\ufeff"):
        return f"sentence {p.src.id!r} language tag starts with a byte-order mark"
    for s in (p.src, p.tgt):
        if not s.text.strip():
            return f"sentence {s.id!r} has a blank text"
        for what, value in (("", s.text), (" language tag", s.lang)):
            for char, name in (("\t", "a tab"), ("\n", "a line feed"), ("\r", "a carriage return")):
                if char in value:
                    return f"sentence {s.id!r}{what} holds {name} and cannot be written as one TSV column"
    raise AssertionError(f"pair {p!r} has no fault")
