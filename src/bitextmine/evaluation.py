"""Retrieval evaluation: precision-at-1 from one pool into another,
per-language retrieval accuracy with grouped macro-averages, best-F1
threshold sweeps over candidate pair lists, and arccos-similarity Pearson
correlation.

Both sides of a retrieval are exact indexes (``vecindex.build``) over
validated pools: unique ids and unit-norm rows, whichever side a pool is
on. The source index's rows are the queries of one ``vecindex.search``
into the target index, and the scoring reads its flat (query row, pool
row, score) arrays: P@1 compares the top-1 pool rows with the gold
target rows, candidates take their ids from the two pools by row, and
the best-F1 sweep runs over score and hit arrays in numpy.

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
        srcs = {s for s, _ in self.pairs}
        if len(srcs) != len(self.pairs):
            raise ValueError("a source id may appear at most once in the gold alignment")
        if not (srcs <= self.src_universe and {t for _, t in self.pairs} <= self.tgt_universe):
            s, t = min(p for p in self.pairs if p[0] not in self.src_universe or p[1] not in self.tgt_universe)
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
    """Fraction of gold sources whose top-1 retrieved id is the gold
    target: the top-1 pool rows of one search of the gold sources' rows,
    compared with the gold targets' rows."""
    if not gold.pairs:
        raise ValueError("empty gold alignment")
    src_row, tgt_row = dict(zip(src.ids, range(len(src)))), dict(zip(tgt.ids, range(len(tgt))))
    srcs, tgts = zip(*gold.pairs)
    if not src_row.keys() >= set(srcs):
        raise DataError(f"no embedding for gold source {min(s for s in srcs if s not in src_row)!r}")
    top = search(tgt, src.vectors[list(map(src_row.__getitem__, srcs))], k=1)[1]  # one row each: tgt is not empty
    want = np.fromiter((tgt_row.get(t, -1) for t in tgts), np.int64, len(tgts))  # -1: a target outside tgt
    return np.count_nonzero(top == want) / len(srcs)


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


def _checked_candidates(candidates: Sequence[tuple[str, str, float]]) -> tuple[list[tuple[str, str]], np.ndarray]:
    """The (src_id, tgt_id) of each candidate and the float64 scores;
    ValueError unless there are candidates, each (src_id, tgt_id) once,
    with finite scores, naming the first that is not."""
    if not candidates:
        raise ValueError("no candidates")
    keys = [(s, t) for s, t, _ in candidates]
    scores = np.fromiter((score for _, _, score in candidates), np.float64, len(keys))
    if len(set(keys)) < len(keys) or not np.isfinite(scores).all():
        seen = set()
        for s, t, score in candidates:
            if not math.isfinite(score):
                raise ValueError(f"non-finite candidate score for ({s!r}, {t!r})")
            if (s, t) in seen:
                raise ValueError(f"duplicate candidate ({s!r}, {t!r})")
            seen.add((s, t))
    return keys, scores


def bucc_best_f1(
    candidates: Sequence[tuple[str, str, float]], gold: GoldAlignment
) -> PRF:
    """Sweep thresholds over the distinct candidate scores and return the
    PRF at the F1-maximizing threshold (ties favor the larger threshold).

    Candidates must be non-empty, deduplicated on (src_id, tgt_id) and
    carry finite scores. The sweep ranks them by descending score, stably,
    and takes each group of equal scores at once: its threshold is the
    group's first score, its true positives the hits up to the group's
    end. Each value is the float64 of ``tp / predicted``, ``tp / gold``
    and ``2 * p * r / (p + r)`` (0 where p + r is 0), and the first
    maximum wins.
    """
    if not gold.pairs:
        raise ValueError("empty gold alignment")
    keys, scores = _checked_candidates(candidates)
    hits = np.fromiter(map(gold.pairs.__contains__, keys), bool, len(keys))
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.r_[ranked[1:] != ranked[:-1], True])  # the last row of each tie group
    starts = np.r_[0, ends[:-1] + 1]
    tp = np.cumsum(hits[order])[ends]
    precision = tp / (ends + 1)
    recall = tp / len(gold.pairs)
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros_like(total), where=total > 0)
    best = int(np.argmax(f1))
    return PRF(
        precision=float(precision[best]),
        recall=float(recall[best]),
        f1=float(f1[best]),
        threshold=float(ranked[starts[best]]),
    )


def bucc_candidates(src: VectorIndex, tgt: VectorIndex, k: int = 1) -> list[tuple[str, str, float]]:
    """Nearest-neighbor candidate generation: the top-k ``(src_id,
    tgt_id, score)`` of each source in ``tgt``, sources in pool order,
    each source's best first."""
    rows, cols, scores = search(tgt, src.vectors, k=k)
    return list(zip(map(src.ids.__getitem__, rows.tolist()), map(tgt.ids.__getitem__, cols.tolist()), scores.tolist()))


def arccos_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Angular similarity 1 - arccos(clamp(u.v, -1, 1)) / pi, u.v in float64."""
    dot = float(np.clip(np.dot(np.asarray(u, np.float64), np.asarray(v, np.float64)), -1.0, 1.0))
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


def read_gold_tsv(
    path: str | Path, src_ids: Sequence[str] | None = None, tgt_ids: Sequence[str] | None = None
) -> GoldAlignment:
    """The gold alignment in ``path``, over the pools' ids when they are
    given (else over the ids it names). ``DataError`` names ``path:line``
    and the earlier line of a pair given twice or of a source given a
    second target, and ``path`` for a file with no pairs or a pair outside
    the pools."""
    target: dict[str, tuple[str, int]] = {}  # each source's target and its line
    for lineno, (s, t) in read_rows(path, (2,), "src_id<TAB>tgt_id"):
        if s in target:
            first, earlier = target[s]
            if first == t:
                raise DataError(f"{path}:{lineno}: gold pair ({s!r}, {t!r}) repeats line {earlier}")
            raise DataError(f"{path}:{lineno}: source {s!r} has a second target {t!r}; line {earlier} gives {first!r}")
        target[s] = t, lineno
    if not target:
        raise DataError(f"{path}: no gold pairs")
    try:
        return GoldAlignment.from_pairs([(s, t) for s, (t, _) in target.items()], src_ids, tgt_ids)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_candidates_tsv(path: str | Path) -> list[tuple[str, str, float]]:
    """Candidate triples with finite scores, each (src_id, tgt_id) once;
    a file with none raises ``DataError``."""
    out, seen = [], set()
    for lineno, (s, t, raw_score) in read_rows(path, (3,), "src_id<TAB>tgt_id<TAB>score"):
        score = parse_score(raw_score, path, lineno)
        if (s, t) in seen:
            raise DataError(f"{path}:{lineno}: duplicate candidate ({s!r}, {t!r})")
        seen.add((s, t))
        out.append((s, t, score))
    if not out:
        raise DataError(f"{path}: no candidates")
    return out


def format_candidates_tsv(candidates: Sequence[tuple[str, str, float]]) -> str:
    """Serialize candidates to the TSV that ``read_candidates_tsv`` reads,
    scores with 6 decimals. ``ValueError`` refuses what the reader would
    not read back: what ``bucc_best_f1`` refuses, a pool id holding a tab
    or a line end, and a first source id that starts with a byte-order
    mark."""
    _checked_candidates(candidates)
    for name in dict.fromkeys(name for s, t, _ in candidates for name in (s, t)):
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"pool id {name!r} holds a tab or a line end and cannot be written as one column")
    if candidates[0][0].startswith("\ufeff"):
        raise ValueError(f"pool id {candidates[0][0]!r} starts with a byte-order mark and cannot begin the file")
    return "".join(f"{s}\t{t}\t{score:.6f}\n" for s, t, score in candidates)


def read_scores(path: str | Path) -> list[float]:
    """One finite score per line, e.g. STS gold similarities."""
    return [parse_score(line, path, lineno) for lineno, line in read_lines(path)]


def format_metric_lines(metrics: Mapping[str, object]) -> str:
    """One ``name=value`` line per metric, floats with 6 decimals.
    ``ValueError`` refuses a name holding ``=`` or a line end and a text
    value holding a line end, which would misread as another metric."""
    lines = []
    for name, value in metrics.items():
        if "=" in name or "\n" in name or "\r" in name:
            raise ValueError(f"metric name {name!r} holds '=' or a line end")
        if isinstance(value, str) and ("\n" in value or "\r" in value):
            raise ValueError(f"metric {name!r} value {value!r} holds a line end")
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
