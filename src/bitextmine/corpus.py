"""Corpus data types, file readers and writers.

File formats handled here, each read by the one line rule of
``fileio.read_lines`` (UTF-8, lines that are empty or whitespace only
skipped but counted, errors name ``path:line``):
  * monolingual corpus: one sentence per line, optional leading
    ``lang<TAB>`` prefix;
  * bilingual pairs: headerless TSV with columns src_lang, tgt_lang,
    src_text, tgt_text and an optional fifth score column.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .fileio import parse_score, read_lines, read_rows

_LANG_PREFIX_RE = re.compile(r"[a-z]{2,3}(?:[-_][a-z0-9]{2,8})?")


@dataclass(frozen=True)
class Sentence:
    """One sentence with an opaque id and a lowercase language tag."""

    id: str
    lang: str
    text: str

    def __post_init__(self) -> None:
        if not self.lang:
            raise ValueError("sentence language tag must be non-empty")


@dataclass(frozen=True)
class SentencePair:
    """An aligned source/target sentence pair with an optional quality score."""

    src: Sentence
    tgt: Sentence
    score: float | None = None

    def __post_init__(self) -> None:
        if self.score is not None and not math.isfinite(self.score):
            raise ValueError(f"pair score must be finite, got {self.score!r}")


def read_monolingual(path: str | Path, default_lang: str = "und") -> list[Sentence]:
    """Read a one-sentence-per-line file, honoring optional lang prefixes.

    A line of the form ``lang<TAB>text`` (lang matching an ISO-639-style
    tag) sets that sentence's language; other lines get ``default_lang``.
    Sentence ids are 1-based line numbers. A prefixed line whose text is
    empty or whitespace only raises ``DataError`` naming ``path:line``, as
    a blank text field of ``read_pairs_tsv`` does.
    """
    out: list[Sentence] = []
    for lineno, line in read_lines(path):
        lang, text = default_lang, line
        head, tab, rest = line.partition("\t")
        if tab and _LANG_PREFIX_RE.fullmatch(head):
            lang, text = head, rest
        if not text.strip():
            raise DataError(f"{path}:{lineno}: blank text")
        out.append(Sentence(id=str(lineno), lang=lang, text=text))
    return out


def read_pairs_tsv(path: str | Path) -> list[SentencePair]:
    """Read headerless TSV pairs: src_lang, tgt_lang, src_text, tgt_text[, score or empty].

    A row whose src_text or tgt_text is empty or whitespace only raises
    ``DataError`` naming ``path:line``: it would give a sentence with no
    content token.
    """
    out: list[SentencePair] = []
    for lineno, cols in read_rows(path, (4, 5), "4 or 5 tab-separated columns"):
        src_lang, tgt_lang, src_text, tgt_text = cols[:4]
        for side, text in (("src", src_text), ("tgt", tgt_text)):
            if not text.strip():
                raise DataError(f"{path}:{lineno}: blank {side}_text")
        score = parse_score(cols[4], path, lineno) if len(cols) == 5 and cols[4] else None
        try:
            out.append(
                SentencePair(
                    src=Sentence(id=f"{lineno}:src", lang=src_lang, text=src_text),
                    tgt=Sentence(id=f"{lineno}:tgt", lang=tgt_lang, text=tgt_text),
                    score=score,
                )
            )
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def format_pairs_tsv(pairs: Iterable[SentencePair]) -> str:
    """Serialize pairs to the TSV wire format (scores with 6 decimals)."""
    rows = []
    for p in pairs:
        base = f"{p.src.lang}\t{p.tgt.lang}\t{p.src.text}\t{p.tgt.text}"
        rows.append(base if p.score is None else f"{base}\t{p.score:.6f}")
    return "\n".join(rows) + ("\n" if rows else "")
