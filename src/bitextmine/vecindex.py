"""Exact and partitioned (inverted-file) cosine-similarity search over
unit-norm embedding pools.

``search`` takes a block of queries, one per row, and returns each
row's top-k. It scores the queries in chunks of ``QUERY_CHUNK`` rows,
each row with one matrix-vector product against the whole pool, so a
row's scores do not depend on the block it came in. A max (k = 1) or a
partition finds each row's k-th best score; only the columns at or
above it are ordered by (score descending, id ascending), so ties at
the boundary are decided by id, never by position.

Partitioned mode clusters the pool with spherical k-means (cosine
objective, unit-norm centroids): deterministic farthest-point-style
initialization from a seeded start, fixed iteration count, empty
clusters re-seeded from the largest cluster's farthest member during the
iterations only, final centroids rounded through float32 as stored. Each
row belongs to its best-scoring centroid, ties to the lower index, so a
pool row probes its own cluster first; a cluster may be empty. A search
picks the P non-empty clusters whose centroids best match the query (the
same top-k rule, ties to the lower index) and masks out every row
outside them. It scores the whole pool first, so every reported score
and tie is the exact-mode one: the clusters prune candidates, not
arithmetic.

Pool file format: one ASCII header line ``M d``, then M rows of
little-endian float32; ids live in a required companion file, one per
line. ``read_pool`` is the one pool reader: every pool it reads is checked
by ``build``. An index directory holds the pool (``vectors.pool``) and,
if partitioned, the centroids (``centroids.pool``, same rows, no ids)
and the config (``index.cfg``); the partition is derived on load.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError

EXACT = "exact"
PARTITIONED = "partitioned"

_UNIT_ATOL = 1e-4  # float32 round-trips denormalize unit rows slightly
QUERY_CHUNK = 256  # query rows scored at once: a 4 MB block against 2000 rows


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class VectorIndex:
    mode: str
    vectors: np.ndarray  # (M, d) unit-norm
    ids: list[str]
    id_rank: np.ndarray  # rank of each row's id in ascending id order
    config: IndexConfig | None = None
    centroids: np.ndarray | None = None  # (C, d) unit-norm
    cluster_of: np.ndarray | None = None  # (M,) each row's best-scoring centroid, from ``_cluster_of``

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def assignments(self) -> list[np.ndarray] | None:
        """Member row indices per centroid."""
        if self.cluster_of is None:
            return None
        return [np.flatnonzero(self.cluster_of == c) for c in range(len(self.centroids))]


def _validate_pool(vectors: np.ndarray, ids: list[str]) -> np.ndarray:
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError(f"pool must be a non-empty M x d matrix, got {vectors.shape}")
    if len(ids) != vectors.shape[0]:
        raise ValueError(f"{len(ids)} ids for {vectors.shape[0]} vectors")
    if len(set(ids)) != len(ids):
        raise ValueError("pool ids must be unique")
    _check_unit_rows(vectors, "pool")
    return vectors


def _check_unit_rows(rows: np.ndarray, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless every row is a finite unit vector."""
    norms = np.linalg.norm(rows, axis=1)
    if not np.allclose(norms, 1.0, atol=_UNIT_ATOL):  # a NaN or inf norm is not close
        raise error(f"{what} rows must be unit-norm (max |n-1| = {abs(norms - 1).max():.2e})")


def _id_rank(ids: list[str]) -> np.ndarray:
    """Rank of each row's id in ascending id order (the search tie-break)."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=lambda i: ids[i])] = np.arange(len(ids))
    return rank


def _scores(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(n, M) cosines of each block row against each matrix row.

    The stacked product runs one matrix-vector product per row, so row i
    is bit-equal to ``matrix @ block[i]`` whatever the block holds."""
    return np.matmul(block[:, None, :], matrix.T)[:, 0, :]


def _cluster_of(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's best-scoring centroid, ties to the lower index: with the
    search's own scores, the cluster that row probes first as a query."""
    return np.argmax(_scores(centroids, vectors), axis=1)


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
    for _ in range(config.kmeans_iters):
        # working labels: one product is twice as fast, and only the partition must match search
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
    centroids = centroids.astype(np.float32).astype(np.float64)  # as ``centroids.pool`` stores them
    return VectorIndex(
        mode=PARTITIONED,
        vectors=vectors,
        ids=list(ids),
        id_rank=id_rank,
        config=config,
        centroids=centroids,
        cluster_of=_cluster_of(vectors, centroids),
    )


def check_k(k: int) -> None:
    """Raise ValueError unless k asks for at least one neighbour."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _top_k(scores: np.ndarray, k: int, tie_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best k columns of each row of ``scores`` by (score descending,
    tie_rank ascending), as flat (row, column) arrays in row order, each
    row's columns best first. A score of -inf excludes its column, so a
    row with fewer other columns returns fewer than k."""
    k = min(k, scores.shape[1])
    kth = scores.max(axis=1) if k == 1 else np.partition(scores, -k, axis=1)[:, -k]
    # every column at or above the k-th best stays in, so boundary ties are
    # settled by the tie rank; the floor keeps -inf out when kth is -inf
    keep = scores >= np.maximum(kth, np.finfo(scores.dtype).min)[:, None]
    rows, cols = np.nonzero(keep)
    order = np.lexsort((tie_rank[cols], -scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank_in_row = np.arange(rows.size) - np.searchsorted(rows, rows)
    best = rank_in_row < k
    return rows[best], cols[best]


def _mask_unprobed(index: VectorIndex, block: np.ndarray, scores: np.ndarray, probes: int) -> None:
    """Set to -inf, in place, the scores of the rows outside each query's
    ``probes`` best non-empty clusters."""
    assert index.centroids is not None and index.cluster_of is not None
    clusters = index.centroids.shape[0]
    centroid_scores = _scores(index.centroids, block)
    centroid_scores[:, np.bincount(index.cluster_of, minlength=clusters) == 0] = -np.inf
    rows, cols = _top_k(centroid_scores, probes, np.arange(clusters))
    unprobed = np.ones((block.shape[0], clusters), dtype=bool)
    unprobed[rows, cols] = False
    np.putmask(scores, unprobed[:, index.cluster_of], -np.inf)


def search(
    index: VectorIndex, queries: np.ndarray, k: int, probes: int | None = None
) -> list[list[tuple[str, float]]]:
    """Top-k (id, cosine) of each query row, by descending score with ties
    broken by ascending id.

    ``queries`` is an (n, d) block; pass ``q[None]`` for one query. Exact
    mode scans everything; partitioned mode scans the ``probes``
    best-matching non-empty clusters (defaults to the build config). Each
    row gets min(k, candidates) results; scores are exact cosines.
    """
    check_k(k)
    if len(index) == 0:
        raise ValueError("search on an empty index")
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.vectors.shape[1]:
        raise ValueError(f"queries must be an n x {index.vectors.shape[1]} block, got {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")  # a NaN row would match nothing
    p = None
    if index.mode == PARTITIONED:
        assert index.config is not None
        p = index.config.probes if probes is None else probes
        if not (1 <= p <= index.config.clusters):
            raise ValueError(f"probes must be in [1, {index.config.clusters}], got {p}")
    results: list[list[tuple[str, float]]] = []
    for start in range(0, queries.shape[0], QUERY_CHUNK):
        block = queries[start : start + QUERY_CHUNK]
        scores = _scores(index.vectors, block)
        if p is not None:
            _mask_unprobed(index, block, scores, p)
        rows, cols = _top_k(scores, k, index.id_rank)
        bounds = np.searchsorted(rows, np.arange(block.shape[0] + 1)).tolist()
        names = [index.ids[c] for c in cols.tolist()]
        values = scores[rows, cols].tolist()
        results.extend(
            list(zip(names[a:b], values[a:b])) for a, b in zip(bounds, bounds[1:])
        )
    return results


def recall_vs_exact(index: VectorIndex, queries: np.ndarray, k: int, probes: int | None = None) -> float:
    """Fraction of queries whose exact top-1 appears in the index's top-k."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    every_cluster = index.config.clusters if index.mode == PARTITIONED else None
    truth = search(index, queries, 1, probes=every_cluster)
    got = search(index, queries, k, probes=probes)
    hits = sum(best[0][0] in {name for name, _ in top} for best, top in zip(truth, got))
    return hits / queries.shape[0]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def _write_rows(path: str | Path, rows: np.ndarray) -> None:
    """Write the ``M d`` header line, then the rows as little-endian float32."""
    from .fileio import atomic_write_bytes

    rows = np.asarray(rows)
    m, d = rows.shape
    atomic_write_bytes(path, f"{m} {d}\n".encode("ascii") + np.ascontiguousarray(rows, dtype="<f4").tobytes())


def _read_rows(path: str | Path) -> np.ndarray:
    """The (M, d) float64 rows of a file written by ``_write_rows``."""
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
    return np.frombuffer(body, dtype="<f4").reshape(m, d).astype(np.float64)


def pool_files(path: str | Path) -> list[Path]:
    """The two files of the pool at ``path``: its rows and its ids (``<path>.ids``)."""
    return [Path(path), Path(str(path) + ".ids")]


def write_pool(path: str | Path, vectors: np.ndarray, ids: list[str]) -> None:
    """Write the rows to ``path`` and their ids to ``<path>.ids``, one per line."""
    from .fileio import atomic_write_text

    if len(ids) != len(vectors):
        raise ValueError(f"{len(ids)} ids for {len(vectors)} vectors")
    rows_path, ids_path = pool_files(path)
    _write_rows(rows_path, vectors)
    atomic_write_text(ids_path, "\n".join(ids) + ("\n" if ids else ""))


def read_pool(path: str | Path) -> VectorIndex:
    """The pool at ``path`` and its ids in ``<path>.ids``, as a validated exact index."""
    rows_path, ids_path = pool_files(path)
    vectors = _read_rows(rows_path)
    if not ids_path.exists():
        raise DataError(f"{ids_path}: companion id file missing")
    ids = [line.rstrip("\n") for line in ids_path.read_text(encoding="utf-8").splitlines()]
    if len(ids) != len(vectors):
        raise DataError(f"{ids_path}: {len(ids)} ids for {len(vectors)} vectors")
    return build(vectors, ids)


def index_files(directory: str | Path) -> list[Path]:
    """The files of the index in ``directory``: its pool's two, then the
    centroids and the config, which exist only for a partitioned index."""
    directory = Path(directory)
    return [*pool_files(directory / "vectors.pool"), directory / "centroids.pool", directory / "index.cfg"]


def save_index(index: VectorIndex, directory: str | Path) -> None:
    """Write the index into ``directory``, with no partition files if it is exact."""
    from .fileio import atomic_write_text

    Path(directory).mkdir(parents=True, exist_ok=True)
    pool_path, _, centroids_path, cfg_path = index_files(directory)
    cfg_path.unlink(missing_ok=True)  # first, so a rewrite cut short leaves an exact index, not a stale partition
    centroids_path.unlink(missing_ok=True)
    write_pool(pool_path, index.vectors, index.ids)
    if index.mode == PARTITIONED:
        assert index.centroids is not None and index.config is not None
        _write_rows(centroids_path, index.centroids)
        atomic_write_text(cfg_path, "".join(f"{key}={value}\n" for key, value in asdict(index.config).items()))


def load_index(directory: str | Path) -> VectorIndex:
    pool_path, _, centroids_path, cfg_path = index_files(directory)
    index = read_pool(pool_path)
    if not cfg_path.exists():
        return index
    cfg_map = {}
    for line in filter(None, cfg_path.read_text().splitlines()):
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{cfg_path}: line {line!r} is not key=value")
        cfg_map[key] = value
    keys = [field.name for field in fields(IndexConfig)]
    missing = [key for key in keys if key not in cfg_map]
    if missing:
        raise DataError(f"{cfg_path}: missing key(s) {', '.join(missing)}")
    try:
        config = IndexConfig(**{key: int(cfg_map[key]) for key in keys})
    except ValueError as exc:
        raise DataError(f"{cfg_path}: {exc}") from exc
    centroids = _read_rows(centroids_path)
    if centroids.shape != (config.clusters, index.vectors.shape[1]):
        raise DataError(f"{centroids_path}: centroids of shape {centroids.shape} for {config.clusters} clusters")
    _check_unit_rows(centroids, f"{centroids_path}: centroid", DataError)
    cluster_of = _cluster_of(index.vectors, centroids)
    return replace(index, mode=PARTITIONED, config=config, centroids=centroids, cluster_of=cluster_of)
