"""Retrieval evaluation: precision-at-1 from one pool into another,
per-language retrieval accuracy with grouped macro-averages, best-F1
threshold sweeps over candidate pair lists, and arccos-similarity Pearson
correlation.

Both sides of a retrieval are exact indexes (``vecindex.build``) over
validated pools: unique ids and unit-norm rows, whichever side a pool is
on. The source index's rows are the queries of one ``vecindex.search``
into the target index.

Gold files are TSV ``src_id<TAB>tgt_id``; candidate files add a third
score column; score files hold one score per line. All three are read by
the line rule of ``fileio.read_lines``, scores by ``fileio.parse_score``.
Reports are line-delimited ``metric=value`` records plus a JSON summary.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .fileio import atomic_write_text, parse_score, read_lines, read_rows
from .vecindex import VectorIndex, search


@dataclass(frozen=True)
class GoldAlignment:
    """True translation pairs; each source has at most one gold target."""

    pairs: frozenset[tuple[str, str]]
    src_universe: frozenset[str]
    tgt_universe: frozenset[str]

    def __post_init__(self) -> None:
        srcs = [s for s, _ in self.pairs]
        if len(set(srcs)) != len(srcs):
            raise ValueError("a source id may appear at most once in the gold alignment")
        for s, t in self.pairs:
            if s not in self.src_universe or t not in self.tgt_universe:
                raise ValueError(f"gold pair ({s!r}, {t!r}) outside its universe")

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[tuple[str, str]],
        src_universe: Sequence[str] | None = None,
        tgt_universe: Sequence[str] | None = None,
    ) -> "GoldAlignment":
        srcs = frozenset(src_universe) if src_universe is not None else frozenset(s for s, _ in pairs)
        tgts = frozenset(tgt_universe) if tgt_universe is not None else frozenset(t for _, t in pairs)
        return cls(pairs=frozenset(pairs), src_universe=srcs, tgt_universe=tgts)


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    threshold: float


def p_at_1(src: VectorIndex, tgt: VectorIndex, gold: GoldAlignment) -> float:
    """Fraction of gold sources whose top-1 retrieved id is the gold target."""
    if not gold.pairs:
        raise ValueError("empty gold alignment")
    pairs = sorted(gold.pairs)
    row_of = {src_id: row for row, src_id in enumerate(src.ids)}
    for src_id, _ in pairs:
        if src_id not in row_of:
            raise DataError(f"no embedding for gold source {src_id!r}")
    tops = search(tgt, src.vectors[[row_of[src_id] for src_id, _ in pairs]], k=1)
    hits = sum(top[0][0] == tgt_id for top, (_, tgt_id) in zip(tops, pairs))
    return hits / len(pairs)


@dataclass
class RetrievalGroupResult:
    per_language: dict[str, float]
    group_means: dict[str, float | None]
    missing: dict[str, list[str]]


def tatoeba_accuracy(
    per_language_sets: Mapping[str, tuple[VectorIndex, VectorIndex, GoldAlignment]],
    groups: Mapping[str, Sequence[str]] | None = None,
) -> RetrievalGroupResult:
    """Per-language P@1 within each language's own (src, tgt, gold) pools,
    plus unweighted macro-averages over named language groups.

    Languages referenced by a group but absent from the evaluation sets
    are excluded from the mean and reported under ``missing``.
    """
    per_language = {lang: p_at_1(*per_language_sets[lang]) for lang in sorted(per_language_sets)}

    group_means: dict[str, float | None] = {}
    missing: dict[str, list[str]] = {}
    for name, langs in (groups or {}).items():
        present = [l for l in langs if l in per_language]
        absent = [l for l in langs if l not in per_language]
        if absent:
            missing[name] = absent
        group_means[name] = (
            sum(per_language[l] for l in present) / len(present) if present else None
        )
    return RetrievalGroupResult(per_language=per_language, group_means=group_means, missing=missing)


def bucc_best_f1(
    candidates: Sequence[tuple[str, str, float]], gold: GoldAlignment
) -> PRF:
    """Sweep thresholds over the distinct candidate scores and return the
    PRF at the F1-maximizing threshold (ties favor the larger threshold).

    Candidates must be deduplicated on (src_id, tgt_id) and carry finite
    scores.
    """
    if not gold.pairs:
        raise ValueError("empty gold alignment")
    seen = set()
    for s, t, score in candidates:
        if not math.isfinite(score):
            raise ValueError(f"non-finite candidate score for ({s!r}, {t!r})")
        if (s, t) in seen:
            raise ValueError(f"duplicate candidate ({s!r}, {t!r})")
        seen.add((s, t))
    if not candidates:
        return PRF(0.0, 0.0, 0.0, float("nan"))

    ranked = sorted(candidates, key=lambda c: -c[2])
    gold_pairs = gold.pairs
    best: PRF | None = None
    tp = 0
    n_pred = 0
    i = 0
    while i < len(ranked):
        tau = ranked[i][2]
        while i < len(ranked) and ranked[i][2] == tau:
            s, t, _ = ranked[i]
            n_pred += 1
            tp += (s, t) in gold_pairs
            i += 1
        precision = tp / n_pred
        recall = tp / len(gold_pairs)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        if best is None or f1 > best.f1:
            best = PRF(precision=precision, recall=recall, f1=f1, threshold=tau)
    assert best is not None
    return best


def bucc_candidates(src: VectorIndex, tgt: VectorIndex, k: int = 1) -> list[tuple[str, str, float]]:
    """Nearest-neighbor candidate generation: top-k targets per source,
    sources in ascending id order."""
    rows = np.argsort(src.id_rank)
    tops = search(tgt, src.vectors[rows], k=k)
    return [
        (src.ids[row], tgt_id, score) for row, top in zip(rows.tolist(), tops) for tgt_id, score in top
    ]


def arccos_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Angular similarity 1 - arccos(clamp(u.v, -1, 1)) / pi."""
    dot = float(np.clip(np.dot(u, v), -1.0, 1.0))
    return 1.0 - math.acos(dot) / math.pi

def sts_pearson(
    embedding_pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    gold_scores: Sequence[float],
) -> float:
    """Pearson correlation between arccos similarities and gold scores."""
    if len(embedding_pairs) != len(gold_scores):
        raise ValueError("one gold score per embedding pair is required")
    if len(embedding_pairs) < 2:
        raise ValueError("correlation needs at least 2 pairs")
    model = np.array([arccos_similarity(u, v) for u, v in embedding_pairs])
    gold = np.asarray(gold_scores, dtype=np.float64)
    for name, x in (("gold", gold), ("model", model)):
        if np.all(x == x[0]):
            raise ValueError(f"{name} scores are constant; correlation undefined")
    mx = model - model.mean()
    gx = gold - gold.mean()
    return float((mx @ gx) / math.sqrt((mx @ mx) * (gx @ gx)))


# ---------------------------------------------------------------------------
# Report and gold/candidate file handling.
# ---------------------------------------------------------------------------


def read_gold_tsv(path: str | Path) -> GoldAlignment:
    pairs = [(cols[0], cols[1]) for _, cols in read_rows(path, (2,), "src_id<TAB>tgt_id")]
    if not pairs:
        raise DataError(f"{path}: no gold pairs")
    try:
        return GoldAlignment.from_pairs(pairs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_candidates_tsv(path: str | Path) -> list[tuple[str, str, float]]:
    """Candidate triples with finite scores, each (src_id, tgt_id) once."""
    out, seen = [], set()
    for lineno, (s, t, raw_score) in read_rows(path, (3,), "src_id<TAB>tgt_id<TAB>score"):
        score = parse_score(raw_score, path, lineno)
        if (s, t) in seen:
            raise DataError(f"{path}:{lineno}: duplicate candidate ({s!r}, {t!r})")
        seen.add((s, t))
        out.append((s, t, score))
    return out


def read_scores(path: str | Path) -> list[float]:
    """One finite score per line, e.g. STS gold similarities."""
    return [parse_score(line, path, lineno) for lineno, line in read_lines(path)]


def format_metric_lines(metrics: Mapping[str, object]) -> str:
    lines = []
    for name, value in metrics.items():
        if isinstance(value, float):
            lines.append(f"{name}={value:.6f}")
        else:
            lines.append(f"{name}={value}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_report(metrics: Mapping[str, object], path: str | Path) -> None:
    """Write metric=value lines plus a machine-readable JSON summary."""
    atomic_write_text(path, format_metric_lines(metrics))
    atomic_write_text(
        str(path) + ".json", json.dumps(dict(metrics), indent=2, sort_keys=True) + "\n"
    )
