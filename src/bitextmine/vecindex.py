"""Exact and partitioned (inverted-file) cosine-similarity search over
unit-norm embedding pools.

An index holds its rows and centroids in float32, as its files store
them; ``build`` rounds float64 rows to float32. A score is exact: the
float64 sum of the products of the float64 query q and the pool row p
widened to float64, as ``(p * q).sum()`` forms it, so it depends on the
pair alone, never on the block, the pool slice or the BLAS. One
selection kernel serves pool search, centroid probing and the
partition: ``_candidates`` finds the pairs that may rank, ``_best_k``
orders them, ``_top_k`` is the two in turn. Each query row is scaled to
unit norm in float64 (a zero row stays zero) and rounded to float32.
``_candidates`` cuts the index's own float32 rows into tiles and forms
one float32 product per tile and the queries that scan it: in exact mode
each block of queries scans every tile of at most ``_TILE_ROWS`` rows,
in partitioned mode each cluster is a tile, scanned by the queries that
probe it. It keeps each query's columns within a slack of its k-th best
approximate score T over all the tiles it scans, and rescores only those
exactly. So the float32 product decides which pairs are rescored, never
a score or a tie. Each tile first keeps what lies within the slack of
its own k-th best, which is at most T, and the query then keeps what
lies within the slack of T itself, one threshold over all its tiles.

The slack. Let u = 2**-24, q' the unit row (q' = q/c up to float64
rounding, c > 0) and a the float32 product of q' and p, q' first rounded
to float32; p is float32 already. Rounding q' moves the product by at
most u*|q'|*|p|, and a float32 dot product in any summation order errs
by at most g*(1 + u)*|q'|*|p|, g = d*u/(1 - d*u) (Higham, Accuracy and
Stability of Numerical Algorithms, 3.1). For d*u <= 0.01 that gives
|a - (q.p)/c| <= D = 1.02*(d + 1)*u*max|p|, max|p| over the rows the
query scans (the rows of its probed clusters, in partitioned mode); the
float64 errors of q' and of the exact score, a few d*2**-53*max|p| while
no product p_i*q_i underflows in float64, are far inside it. Underflow
adds at most d*2**-1075 to an exact score, so d*2**-1075/c after
dividing by c, far inside it too for |q| >= 2**-1000 (about 1e-301); for
smaller nonzero queries the guarantee is not made. A column more than
2D below T trails k columns whose exact scores over c are at
least T - D, above its own, so it is not in the top-k. The slack,
4*(d + 2)*u*max|p|, exceeds 2D with room for rounding the threshold and
max|p| in float32 and for float32 underflow (a few d*2**-150 per score,
far below unit rows' scale). ``_slack`` takes max|p| over every row
of the array that the tiles cut, which bounds it over the rows of any
query's tiles. A product holds at most ``_SCORE_BYTES`` of float32
scores, or one query row's.

Partitioned mode clusters the pool with spherical k-means (cosine
objective, unit-norm centroids): deterministic farthest-point-style
initialization from a seeded start, fixed iteration count, empty
clusters re-seeded from the largest cluster's farthest member during the
iterations only, all in float64 over the widened rows; the final
centroids are rounded to float32, as stored. An iteration groups the
rows by cluster with one stable argsort and sums each cluster's rows with
one ``np.add.reduceat``, top row first from 0.0 as ``mean`` sums them, so
each centroid is its cluster's ``mean`` over its norm, bit for bit. A
zero mean re-seeds its cluster instead, which moves a row between
clusters, so the clusters after it are grouped again. Each row belongs
to its best-scoring centroid by exact score, ties to the lower index, so
a pool row probes its own cluster first; a cluster may be empty. A
search picks the P non-empty clusters whose centroids best match the
query (ties to the lower index). One ``_candidates`` call scans, for
each query, the tiles of its probed clusters, and one ``_best_k`` orders
what it keeps, so only probed rows are scored and the rows it returns
keep their exact-mode scores and ties.

Pool file format: one ASCII header line ``M d``, then M rows of
little-endian float32; ids live in a required companion file, one per
line, each ended by ``\n``. ``read_pool`` is the one pool reader: every
pool it reads is checked by ``build``. An index directory holds the pool
(``vectors.pool``) and, if partitioned, the centroids (``centroids.pool``,
same rows, no ids) and the config (``index.cfg``); the partition is
derived on load.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError

EXACT = "exact"
PARTITIONED = "partitioned"

_UNIT_ATOL = 1e-4  # float32 round-trips denormalize unit rows slightly
_SCORE_BYTES = 1 << 22  # float32 approximate scores formed at once: 256 queries by one full tile
_TILE_ROWS = 4096  # rows per tile: a 1 MB float32 tile at d = 64
_RESCORE_PAIRS = 4096  # candidate pairs rescored at once: 2 MB gathers at d = 64
_SLACK = 4 * 2.0**-24  # per (d + 2) and unit of max|p|: see the module docstring


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
    vectors: np.ndarray  # (M, d) unit-norm float32 rows in pool order, as the pool file stores them
    ids: list[str]
    id_rank: np.ndarray  # rank of each row's id in ascending id order
    config: IndexConfig | None = None
    centroids: np.ndarray | None = None  # (C, d) unit-norm float32
    order: np.ndarray | None = None  # (M,) pool rows by cluster, ascending within one
    list_starts: np.ndarray | None = None  # (C + 1,) where each cluster's rows start in ``order``
    grouped: np.ndarray | None = None  # ``vectors[order]``: each cluster's rows together

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def assignments(self) -> list[np.ndarray] | None:
        """Member row indices per centroid."""
        if self.order is None:
            return None
        return np.split(self.order, self.list_starts[1:-1])


def _validate_pool(vectors: np.ndarray, ids: list[str]) -> np.ndarray:
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError(f"pool must be a non-empty M x d matrix, got {vectors.shape}")
    if len(ids) != vectors.shape[0]:
        raise ValueError(f"{len(ids)} ids for {vectors.shape[0]} vectors")
    if len(set(ids)) != len(ids):
        raise ValueError("pool ids must be unique")
    _check_unit_rows(vectors, "pool")
    return vectors


def _check_unit_rows(rows: np.ndarray, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless every row is a finite unit vector (norms in float64)."""
    norms = np.linalg.norm(rows.astype(np.float64), axis=1)
    if not np.allclose(norms, 1.0, atol=_UNIT_ATOL):  # a NaN or inf norm is not close
        raise error(f"{what} rows must be unit-norm (max |n-1| = {abs(norms - 1).max():.2e})")


def _id_rank(ids: list[str]) -> np.ndarray:
    """Rank of each row's id in ascending id order (the search tie-break)."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=lambda i: ids[i])] = np.arange(len(ids))
    return rank


def _partition(vectors: np.ndarray, centroids: np.ndarray) -> dict:
    """The partition fields of an index over ``vectors``: each row goes
    to its best-scoring centroid, ties to the lower index, by the search's
    own kernel, so it is the cluster that row probes first as a query."""
    queries = vectors.astype(np.float64)  # as ``search`` widens its queries
    cluster_of = _top_k(centroids, queries, _unit32(queries), 1, np.arange(len(centroids)))[1]
    order = np.argsort(cluster_of, kind="stable")
    return dict(
        centroids=centroids,
        order=order,
        list_starts=np.searchsorted(cluster_of[order], np.arange(len(centroids) + 1)),
        grouped=vectors[order],
    )


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


def _move_centroids(vectors: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> None:
    """Move each centroid, in cluster order, to the unit mean of its
    cluster's rows, every cluster non-empty. A mean of norm below 1e-12
    re-seeds its cluster instead, which moves a row between clusters, so
    the clusters after it are grouped again."""
    first, clusters = 0, centroids.shape[0]
    while first < clusters:
        sizes = np.bincount(assign, minlength=clusters)
        grouped = vectors[np.argsort(assign, kind="stable")]  # each cluster's rows, ascending
        # as ``mean`` sums from 0.0 down the rows: adding 0.0 turns an all -0.0 sum to +0.0
        sums = np.add.reduceat(grouped, np.cumsum(sizes) - sizes, axis=0)[first:] + 0.0
        means = sums / sizes[first:, None]
        norms = np.sqrt([mean @ mean for mean in means])  # as ``np.linalg.norm`` forms each
        zero = np.flatnonzero(norms < 1e-12)
        stop = first + zero[0] if zero.size else clusters
        centroids[first:stop] = means[: stop - first] / norms[: stop - first, None]
        if zero.size:
            _respawn_centroid(vectors, assign, centroids, stop)
        first = stop + 1


def build(
    vectors: np.ndarray, ids: list[str], config: IndexConfig | None = None
) -> VectorIndex:
    """Build an exact index (config None) or a spherical-k-means one."""
    pool = dict(vectors=_validate_pool(vectors, list(ids)), ids=list(ids), id_rank=_id_rank(ids))
    if config is None:
        return VectorIndex(mode=EXACT, **pool)

    vectors = pool["vectors"].astype(np.float64)  # k-means works in float64
    m = vectors.shape[0]
    if m < config.clusters:
        raise ValueError(f"pool of {m} rows cannot form {config.clusters} clusters")
    centroids = _farthest_point_init(vectors, config.clusters, config.seed)
    for _ in range(config.kmeans_iters):
        # working labels: one product is twice as fast, and only the partition must match search
        assign = np.argmax(vectors @ centroids.T, axis=1)
        # a re-seed takes a row from a cluster of two or more, so it empties no other
        for c in np.flatnonzero(np.bincount(assign, minlength=config.clusters) == 0):
            _respawn_centroid(vectors, assign, centroids, c)
        _move_centroids(vectors, assign, centroids)
    centroids = centroids.astype(np.float32)  # as ``centroids.pool`` stores them
    return VectorIndex(mode=PARTITIONED, config=config, **pool, **_partition(pool["vectors"], centroids))


def check_k(k: int) -> None:
    """Raise ValueError unless k asks for at least one neighbour."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _unit32(block: np.ndarray) -> np.ndarray:
    """Each row of ``block`` scaled to unit norm in float64, then rounded
    to float32. Scaling by the largest entry first keeps the norm of any
    finite row from overflowing or underflowing; a zero row stays zero."""
    scale = np.abs(block).max(axis=1, keepdims=True)
    rows = np.divide(block, scale, out=np.zeros_like(block), where=scale > 0)
    rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)  # >= 1 unless the row is zero
    return rows.astype(np.float32)


def _block_rows(m: int) -> int:
    """Query rows per block against m rows: as many as ``_SCORE_BYTES`` of
    float32 scores hold, at least one."""
    return max(1, _SCORE_BYTES // (4 * m))


def _best_values(approx: np.ndarray, k: int) -> np.ndarray:
    """Each row's k best values, unordered (all of them if it has fewer)."""
    k = min(k, approx.shape[1])
    return approx.max(axis=1, keepdims=True) if k == 1 else np.partition(approx, -k, axis=1)[:, -k:]


def _best_k(
    rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, k: int, tie_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first k (row, col, score) triples of each row by (score
    descending, tie_rank of col ascending), rows ascending."""
    order = np.lexsort((tie_rank[cols], -scores, rows))
    rows, cols, scores = rows[order], cols[order], scores[order]
    best = np.arange(rows.size) - np.searchsorted(rows, rows) < k  # rank in row below k
    return rows[best], cols[best], scores[best]


def _slack(rows: np.ndarray) -> np.float32:
    """How far below a query's k-th best approximate score over the
    float32 ``rows`` a row may lie and still rank: see the module docstring."""
    return np.float32(_SLACK * (rows.shape[1] + 2)) * np.sqrt(np.einsum("ij,ij->i", rows, rows).max())


def _candidates(
    rows: np.ndarray,
    block: np.ndarray,
    units: np.ndarray,
    k: int,
    tiles: list[tuple],
    width: int,
    slack: np.float32,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (block row, column, exact score) triples, unordered, of every
    pair that may be in a block row's top k among the rows it scans, a
    column being a row number of the float32 ``rows``. Each tile
    (queries, slots, lo, hi) is rows[lo:hi], scanned by the block rows
    ``queries`` (a slice or an index array), which it gives the slots
    ``slots``: a block row's tiles hold distinct slots below ``width``.
    ``units`` is ``_unit32(block)``: the approximate products read
    ``units`` and ``rows``, the exact scores the float64 ``block`` and
    ``rows`` widened; ``slack`` is ``_slack`` of the rows scanned, or of
    more."""
    positions = np.arange(block.shape[0])
    tops = np.full((block.shape[0], width, k), -np.inf, dtype=np.float32)  # each tile's k best per block row
    found = []
    for queries, slots, lo, hi in tiles:
        approx = units[queries] @ rows[lo:hi].T
        best = _best_values(approx, k)
        tops[queries, slots, : best.shape[1]] = best
        flat = np.flatnonzero(approx >= (best.min(axis=1) - slack)[:, None])
        tile_rows, tile_cols = np.divmod(flat, hi - lo)
        found.append((positions[queries][tile_rows], tile_cols + lo, approx.ravel()[flat]))
    at, cols, approx = _concat(found)
    if width > 1:  # a tile's k-th best may trail the row's
        keep = approx >= (_best_values(tops.reshape(block.shape[0], -1), k).min(axis=1) - slack)[at]
        at, cols = at[keep], cols[keep]
    scores = np.empty(at.size)
    for s in range(0, at.size, _RESCORE_PAIRS):
        pairs = slice(s, s + _RESCORE_PAIRS)
        scores[pairs] = (rows[cols[pairs]] * block[at[pairs]]).sum(axis=1)
    return at, cols, scores


def _concat(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (rows, cols, scores) triple from several."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _top_k(
    rows: np.ndarray, block: np.ndarray, units: np.ndarray, k: int, tie_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best k of ``rows`` for each row of ``block`` by (exact score
    descending, tie_rank of the column ascending), as flat (block row,
    column, exact score) arrays in block-row order, each row's best first;
    the other arguments are ``_candidates``'. Each block of query rows
    scans every tile of at most ``_TILE_ROWS`` rows."""
    m = rows.shape[0]
    tiles = [(slice(None), t, lo, min(lo + _TILE_ROWS, m)) for t, lo in enumerate(range(0, m, _TILE_ROWS))]
    step, slack = _block_rows(min(m, _TILE_ROWS)), _slack(rows)
    parts = []
    for start in range(0, block.shape[0], step):
        part = slice(start, start + step)
        at, cols, scores = _candidates(rows, block[part], units[part], k, tiles, len(tiles), slack)
        parts.append(_best_k(at + start, cols, scores, k, tie_rank))
    return _concat(parts)


def _search_lists(
    index: VectorIndex, queries: np.ndarray, units: np.ndarray, k: int, probes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_top_k``'s triples for a partitioned index: each query's best k
    over the rows of its ``probes`` best non-empty clusters, each cluster
    a tile of ``index.grouped`` scanned by the queries that probe it."""
    starts = index.list_starts
    filled = np.flatnonzero(np.diff(starts))
    lists = filled[_top_k(index.centroids[filled], queries, units, probes, np.arange(filled.size))[1]]
    width = lists.size // queries.shape[0]  # each query's min(probes, filled.size) clusters, best first
    by_list = np.argsort(lists, kind="stable")  # (query, probe) pairs by cluster, in query order
    cuts = np.flatnonzero(np.diff(lists[by_list])) + 1
    tiles = []
    for c, pairs in zip(lists[by_list[np.r_[0, cuts]]].tolist(), np.split(by_list, cuts)):
        lo, hi = starts[c], starts[c + 1]
        step = _block_rows(hi - lo)
        for i in range(0, pairs.size, step):
            chunk = pairs[i : i + step]
            tiles.append((chunk // width, chunk % width, lo, hi))
    at, cols, scores = _candidates(index.grouped, queries, units, k, tiles, width, _slack(index.grouped))
    return _best_k(at, index.order[cols], scores, k, index.id_rank)


def search(
    index: VectorIndex, queries: np.ndarray, k: int, probes: int | None = None
) -> list[list[tuple[str, float]]]:
    """Top-k (id, exact score) of each query row, by descending score
    with ties broken by ascending id.

    ``queries`` is an (n, d) block; pass ``q[None]`` for one query. Exact
    mode scans everything; partitioned mode scans the ``probes``
    best-matching non-empty clusters (defaults to the build config). Each
    row gets min(k, candidates) results, the same as brute force over them
    with the module's exact score, which no block or BLAS order changes.
    """
    check_k(k)
    if len(index) == 0:
        raise ValueError("search on an empty index")
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.vectors.shape[1]:
        raise ValueError(f"queries must be an n x {index.vectors.shape[1]} block, got {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")  # a NaN row would match nothing
    if queries.shape[0] == 0:
        return []
    if index.mode == PARTITIONED:
        assert index.config is not None
        p = index.config.probes if probes is None else probes
        if not (1 <= p <= index.config.clusters):
            raise ValueError(f"probes must be in [1, {index.config.clusters}], got {p}")
        rows, cols, scores = _search_lists(index, queries, _unit32(queries), k, p)
    else:
        rows, cols, scores = _top_k(index.vectors, queries, _unit32(queries), k, index.id_rank)
    bounds = np.searchsorted(rows, np.arange(queries.shape[0] + 1)).tolist()
    hits = list(zip([index.ids[c] for c in cols.tolist()], scores.tolist()))
    return [hits[a:b] for a, b in zip(bounds, bounds[1:])]


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
    """The (M, d) float32 rows of a file written by ``_write_rows``."""
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
    return np.frombuffer(body, dtype="<f4").reshape(m, d).astype(np.float32)


def pool_files(path: str | Path) -> list[Path]:
    """The two files of the pool at ``path``: its rows and its ids (``<path>.ids``)."""
    return [Path(path), Path(str(path) + ".ids")]


def write_pool(path: str | Path, vectors: np.ndarray, ids: list[str]) -> None:
    """Write the rows to ``path`` and their ids to ``<path>.ids``, one per
    line; an id holding ``\n`` or ``\r`` is refused, as no line could hold it."""
    from .fileio import atomic_write_text

    if len(ids) != len(vectors):
        raise ValueError(f"{len(ids)} ids for {len(vectors)} vectors")
    for name in ids:
        if "\n" in name or "\r" in name:
            raise ValueError(f"pool id {name!r} holds a line end")
    rows_path, ids_path = pool_files(path)
    _write_rows(rows_path, vectors)
    atomic_write_text(ids_path, "\n".join(ids) + ("\n" if ids else ""))


def read_pool(path: str | Path) -> VectorIndex:
    """The pool at ``path`` and its ids in ``<path>.ids``, as a validated exact index."""
    rows_path, ids_path = pool_files(path)
    vectors = _read_rows(rows_path)
    if not ids_path.exists():
        raise DataError(f"{ids_path}: companion id file missing")
    text = ids_path.read_bytes().decode("utf-8")
    ids = text.removesuffix("\n").split("\n") if text else []  # only \n ends a line, as in ``fileio.read_lines``
    for lineno, name in enumerate(ids, start=1):
        if "\r" in name.removesuffix("\r"):
            raise DataError(f"{ids_path}:{lineno}: carriage return inside an id")
    ids = [name.removesuffix("\r") for name in ids]
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
    return replace(index, mode=PARTITIONED, config=config, **_partition(index.vectors, centroids))
