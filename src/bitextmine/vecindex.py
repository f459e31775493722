"""Exact and partitioned (inverted-file) cosine-similarity search over
unit-norm embedding pools.

Partitioned mode clusters the pool with spherical k-means (cosine
objective, unit-norm centroids): deterministic farthest-point-style
initialization from a seeded start, fixed iteration count, empty
clusters re-seeded from the largest cluster's farthest member. Searches
probe the P clusters whose centroids best match the query and rank the
gathered candidates by exact cosine, so approximation only ever affects
the candidate set, never a reported score.

Pool file format: one ASCII header line ``M d``, then M rows of
little-endian float32; ids live in a companion file, one per line. An
index directory persists the pool, the centroids (same format), and a
one-line-per-row assignment file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

EXACT = "exact"
PARTITIONED = "partitioned"

_UNIT_ATOL = 1e-4  # float32 round-trips denormalize unit rows slightly


@dataclass(frozen=True)
class IndexConfig:
    clusters: int
    probes: int
    kmeans_iters: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        if not (1 <= self.probes <= self.clusters):
            raise ValueError(f"probes must be in [1, {self.clusters}], got {self.probes}")
        if self.kmeans_iters < 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")


@dataclass
class VectorIndex:
    mode: str
    vectors: np.ndarray  # (M, d) unit-norm
    ids: list[str]
    id_rank: np.ndarray  # rank of each row's id in ascending id order
    config: IndexConfig | None = None
    centroids: np.ndarray | None = None  # (C, d) unit-norm
    assignments: list[np.ndarray] | None = None  # member row indices per centroid

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _validate_pool(vectors: np.ndarray, ids: list[str]) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError(f"pool must be a non-empty M x d matrix, got {vectors.shape}")
    if len(ids) != vectors.shape[0]:
        raise ValueError(f"{len(ids)} ids for {vectors.shape[0]} vectors")
    if len(set(ids)) != len(ids):
        raise ValueError("pool ids must be unique")
    norms = np.linalg.norm(vectors, axis=1)
    if not np.allclose(norms, 1.0, atol=_UNIT_ATOL):
        raise ValueError(f"pool rows must be unit-norm (max |n-1| = {abs(norms - 1).max():.2e})")
    return vectors


def _id_rank(ids: list[str]) -> np.ndarray:
    """Rank of each row's id in ascending id order (the search tie-break)."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=lambda i: ids[i])] = np.arange(len(ids))
    return rank


def _farthest_point_init(vectors: np.ndarray, C: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = vectors.shape[0]
    chosen = [int(rng.integers(m))]
    best_sim = vectors @ vectors[chosen[0]]
    best_sim[chosen[0]] = np.inf
    for _ in range(C - 1):
        nxt = int(np.argmin(best_sim))
        chosen.append(nxt)
        best_sim = np.maximum(best_sim, vectors @ vectors[nxt])
        best_sim[nxt] = np.inf
    return vectors[chosen].copy()


def _respawn_centroid(vectors: np.ndarray, assign: np.ndarray, centroids: np.ndarray, empty: int) -> None:
    """Re-seed an empty cluster from the largest cluster's farthest member."""
    sizes = np.bincount(assign, minlength=centroids.shape[0])
    largest = int(np.argmax(sizes))
    members = np.flatnonzero(assign == largest)
    sims = vectors[members] @ centroids[largest]
    farthest = members[int(np.argmin(sims))]
    centroids[empty] = vectors[farthest]
    assign[farthest] = empty


def build(
    vectors: np.ndarray, ids: list[str], config: IndexConfig | None = None
) -> VectorIndex:
    """Build an exact index (config None) or a spherical-k-means one."""
    vectors = _validate_pool(vectors, list(ids))
    id_rank = _id_rank(ids)
    if config is None:
        return VectorIndex(mode=EXACT, vectors=vectors, ids=list(ids), id_rank=id_rank)

    m = vectors.shape[0]
    if m < config.clusters:
        raise ValueError(f"pool of {m} rows cannot form {config.clusters} clusters")
    centroids = _farthest_point_init(vectors, config.clusters, config.seed)
    assign = np.zeros(m, dtype=np.int64)
    for _ in range(config.kmeans_iters):
        assign = np.argmax(vectors @ centroids.T, axis=1)
        for c in range(config.clusters):
            if not np.any(assign == c):
                _respawn_centroid(vectors, assign, centroids, c)
        for c in range(config.clusters):
            members = vectors[assign == c]
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm < 1e-12:
                _respawn_centroid(vectors, assign, centroids, c)
            else:
                centroids[c] = mean / norm
    assign = np.argmax(vectors @ centroids.T, axis=1)
    for c in range(config.clusters):
        if not np.any(assign == c):
            _respawn_centroid(vectors, assign, centroids, c)
    assignments = [np.flatnonzero(assign == c) for c in range(config.clusters)]
    return VectorIndex(
        mode=PARTITIONED,
        vectors=vectors,
        ids=list(ids),
        id_rank=id_rank,
        config=config,
        centroids=centroids,
        assignments=assignments,
    )


def _rank_candidates(
    index: VectorIndex, candidates: np.ndarray, query: np.ndarray, k: int
) -> list[tuple[str, float]]:
    scores = index.vectors[candidates] @ query
    order = np.lexsort((index.id_rank[candidates], -scores))[:k]
    return [(index.ids[candidates[i]], float(scores[i])) for i in order]


def search(
    index: VectorIndex, query: np.ndarray, k: int, probes: int | None = None
) -> list[tuple[str, float]]:
    """Top-k (id, cosine) by descending score, ties broken by ascending id.

    Exact mode scans everything; partitioned mode scans the ``probes``
    best-matching clusters (defaults to the build config). Returns
    min(k, candidates) results; scores are exact cosines.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        raise ValueError("search on an empty index")
    query = np.asarray(query, dtype=np.float64)
    if index.mode == EXACT:
        return _rank_candidates(index, np.arange(len(index)), query, k)
    assert index.centroids is not None and index.assignments is not None and index.config
    p = index.config.probes if probes is None else probes
    if not (1 <= p <= index.config.clusters):
        raise ValueError(f"probes must be in [1, {index.config.clusters}], got {p}")
    centroid_scores = index.centroids @ query
    probe_order = np.lexsort((np.arange(len(centroid_scores)), -centroid_scores))[:p]
    candidates = np.concatenate([index.assignments[c] for c in probe_order])
    if candidates.size == 0:
        raise ValueError("probed clusters are empty")
    return _rank_candidates(index, candidates, query, k)


def recall_vs_exact(index: VectorIndex, queries: np.ndarray, k: int, probes: int | None = None) -> float:
    """Fraction of queries whose exact top-1 appears in the index's top-k."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    hits = 0
    for q in queries:
        scores = index.vectors @ q
        best = int(np.lexsort((index.id_rank, -scores))[0])
        truth = index.ids[best]
        got = {name for name, _ in search(index, q, k, probes=probes)}
        hits += truth in got
    return hits / queries.shape[0]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def write_pool(path: str | Path, vectors: np.ndarray, ids: list[str] | None = None) -> None:
    """Write ``M d`` header plus little-endian float32 rows; ids go to
    ``<path>.ids`` when given."""
    from .fileio import atomic_write_bytes, atomic_write_text

    vectors = np.asarray(vectors)
    m, d = vectors.shape
    payload = f"{m} {d}\n".encode("ascii") + np.ascontiguousarray(
        vectors, dtype="<f4"
    ).tobytes()
    atomic_write_bytes(path, payload)
    if ids is not None:
        if len(ids) != m:
            raise ValueError(f"{len(ids)} ids for {m} vectors")
        atomic_write_text(str(path) + ".ids", "\n".join(ids) + ("\n" if ids else ""))


def read_pool(path: str | Path, with_ids: bool = True) -> tuple[np.ndarray, list[str] | None]:
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            m, d = (int(x) for x in header.split())
        except ValueError as exc:
            raise DataError(f"{path}: bad pool header {header!r}") from exc
        body = fh.read()
    expected = m * d * 4
    if len(body) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    vectors = np.frombuffer(body, dtype="<f4").reshape(m, d).astype(np.float64)
    ids = None
    if with_ids:
        ids_path = Path(str(path) + ".ids")
        if not ids_path.exists():
            raise DataError(f"{ids_path}: companion id file missing")
        ids = [line.rstrip("\n") for line in ids_path.read_text(encoding="utf-8").splitlines()]
        if len(ids) != m:
            raise DataError(f"{ids_path}: {len(ids)} ids for {m} vectors")
    return vectors, ids


def save_index(index: VectorIndex, directory: str | Path) -> None:
    from .fileio import atomic_write_text

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_pool(directory / "vectors.pool", index.vectors, index.ids)
    if index.mode == PARTITIONED:
        assert index.centroids is not None and index.assignments is not None
        write_pool(directory / "centroids.pool", index.centroids)
        assign = np.empty(len(index), dtype=np.int64)
        for c, members in enumerate(index.assignments):
            assign[members] = c
        atomic_write_text(
            directory / "assignments.txt", "\n".join(str(c) for c in assign) + "\n"
        )
        cfg = index.config
        assert cfg is not None
        atomic_write_text(
            directory / "index.cfg",
            f"clusters={cfg.clusters}\nprobes={cfg.probes}\n"
            f"kmeans_iters={cfg.kmeans_iters}\nseed={cfg.seed}\n",
        )


def load_index(directory: str | Path) -> VectorIndex:
    directory = Path(directory)
    vectors, ids = read_pool(directory / "vectors.pool")
    assert ids is not None
    id_rank = _id_rank(ids)
    cfg_path = directory / "index.cfg"
    if not cfg_path.exists():
        return VectorIndex(mode=EXACT, vectors=vectors, ids=ids, id_rank=id_rank)
    cfg_map = dict(
        line.split("=", 1) for line in cfg_path.read_text().splitlines() if line
    )
    config = IndexConfig(
        clusters=int(cfg_map["clusters"]),
        probes=int(cfg_map["probes"]),
        kmeans_iters=int(cfg_map["kmeans_iters"]),
        seed=int(cfg_map["seed"]),
    )
    centroids, _ = read_pool(directory / "centroids.pool", with_ids=False)
    assign = np.array(
        [int(x) for x in (directory / "assignments.txt").read_text().split()],
        dtype=np.int64,
    )
    if assign.size != len(ids):
        raise DataError(f"{directory}: assignment count {assign.size} != pool size {len(ids)}")
    assignments = [np.flatnonzero(assign == c) for c in range(config.clusters)]
    return VectorIndex(
        mode=PARTITIONED,
        vectors=vectors,
        ids=ids,
        id_rank=id_rank,
        config=config,
        centroids=centroids,
        assignments=assignments,
    )
