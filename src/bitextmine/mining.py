"""End-to-end parallel-text mining: keep the ``evaluation.bucc_candidates``
of a source pool in a target index that reach a cosine threshold, dedup,
and select the top-scoring fraction.

Output pairs go to TSV (src_lang, tgt_lang, src_text, tgt_text, score
with 6 decimals); the run report is line-delimited metric=value records
including a score histogram at bin width 0.05.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence, SentencePair
from .evaluation import bucc_candidates
from .vecindex import VectorIndex

HISTOGRAM_BIN_WIDTH = 0.05


@dataclass(frozen=True)
class MiningConfig:
    similarity_threshold: float = 0.6
    neighbors_k: int = 1
    selection_fraction: float = 0.2
    direction: str = "auto"  # auto | forward (given sides as-is)

    def __post_init__(self) -> None:
        if not (-1.0 < self.similarity_threshold <= 1.0):
            raise ValueError(
                f"similarity threshold must be in (-1, 1], got {self.similarity_threshold}"
            )
        if self.neighbors_k < 1:
            raise ValueError(f"neighbors_k must be >= 1, got {self.neighbors_k}")
        if not (0.0 < self.selection_fraction <= 1.0):
            raise ValueError(
                f"selection fraction must be in (0, 1], got {self.selection_fraction}"
            )
        if self.direction not in ("auto", "forward"):
            raise ValueError(f"unknown direction {self.direction!r}")


def choose_query_side(count_a: int, count_b: int) -> str:
    """The smaller side queries the larger side's index ('a' or 'b')."""
    return "a" if count_a <= count_b else "b"


def mine(
    src: VectorIndex,
    tgt: VectorIndex,
    src_lookup: Mapping[str, Sentence],
    tgt_lookup: Mapping[str, Sentence],
    config: MiningConfig,
) -> list[SentencePair]:
    """The top-k candidates of each source that score at or above the
    similarity threshold, as pairs of sentences, in source pool order."""
    return [
        SentencePair(src=src_lookup[s], tgt=tgt_lookup[t], score=score)
        for s, t, score in bucc_candidates(src, tgt, k=config.neighbors_k)
        if score >= config.similarity_threshold
    ]


def dedup(pairs: Sequence[SentencePair]) -> list[SentencePair]:
    """Collapse exact (src_text, tgt_text) duplicates, keeping the
    highest-scored instance at the first occurrence's position."""
    best: dict[tuple[str, str], tuple[int, SentencePair]] = {}
    for pos, pair in enumerate(pairs):
        key = (pair.src.text, pair.tgt.text)
        if key not in best:
            best[key] = (pos, pair)
            continue
        kept_pos, kept = best[key]
        old = kept.score if kept.score is not None else -math.inf
        new = pair.score if pair.score is not None else -math.inf
        if new > old:
            best[key] = (kept_pos, pair)
    return [pair for _, pair in sorted(best.values(), key=lambda t: t[0])]


def select_top_fraction(
    pairs: Sequence[SentencePair], fraction: float
) -> list[SentencePair]:
    """Keep the ceil(fraction * n) best pairs by their stored scores.

    Ties break by input order, and the kept pairs stay in input order.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    unscored = sum(p.score is None for p in pairs)
    if unscored:
        raise ValueError(f"{unscored} mined pairs lack scores")
    take = math.ceil(fraction * len(pairs))
    best = sorted(range(len(pairs)), key=lambda i: (-pairs[i].score, i))[:take]
    return [pairs[i] for i in sorted(best)]


def score_histogram(pairs: Sequence[SentencePair]) -> dict[str, int]:
    """Histogram of scores over [-1, 1] at fixed bin width 0.05.

    Keys are ``hist[lo,hi)`` edges; the last bin includes 1.0. Bin
    counts sum to the number of pairs.
    """
    edges = np.round(np.linspace(-1.0, 1.0, int(2 / HISTOGRAM_BIN_WIDTH) + 1), 10)
    scores = np.clip([p.score if p.score is not None else 0.0 for p in pairs], -1.0, 1.0)
    counts, _ = np.histogram(scores, bins=edges)
    return {
        f"hist[{edges[i]:+.2f},{edges[i + 1]:+.2f})": int(c)
        for i, c in enumerate(counts)
    }


def mining_report(
    pairs: Sequence[SentencePair],
    config: MiningConfig,
    sources_processed: int,
) -> tuple[dict[str, object], list[SentencePair]]:
    """Dedup the emitted pairs and select the top fraction, once.

    Returns the report, which holds the pipeline counts (emitted,
    post-dedup, post-selection) plus the emitted-score histogram, and the
    selected pairs.
    """
    deduped = dedup(pairs)
    selected = select_top_fraction(deduped, config.selection_fraction)
    report: dict[str, object] = {
        "sources_processed": sources_processed,
        "pairs_emitted": len(pairs),
        "pairs_post_dedup": len(deduped),
        "pairs_post_selection": len(selected),
        "similarity_threshold": config.similarity_threshold,
        "selection_fraction": config.selection_fraction,
    }
    report.update(score_histogram(pairs))
    return report, selected
