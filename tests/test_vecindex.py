import ast
from pathlib import Path

import numpy as np
import pytest

from bitextmine.errors import DataError
from bitextmine.vecindex import (
    EXACT,
    IndexConfig,
    PARTITIONED,
    QUERY_CHUNK,
    _read_rows,
    _write_rows,
    build,
    load_index,
    read_pool,
    recall_vs_exact,
    save_index,
    search,
    write_pool,
)

from conftest import unit_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "bitextmine"


def brute_force_topk(vectors, ids, query, k, rows=None):
    """Top-k of ``rows`` (default all) scored against the whole pool."""
    scores = vectors @ query
    rows = range(len(ids)) if rows is None else rows
    order = sorted(rows, key=lambda i: (-scores[i], ids[i]))[:k]
    return [(ids[i], float(scores[i])) for i in order]


def probed_rows(index, query, probes):
    """Rows of the ``probes`` non-empty clusters whose centroids score
    best, ties to the lower cluster index."""
    scores = index.centroids @ query
    filled = [c for c, members in enumerate(index.assignments) if len(members)]
    best = sorted(filled, key=lambda c: (-scores[c], c))[:probes]
    return np.concatenate([index.assignments[c] for c in best]).tolist()


def duplicate_heavy_pool(rng):
    """A few distinct unit rows, each repeated, and a cluster count that
    leaves some clusters with only copies of one row or with none."""
    distinct = int(rng.integers(3, 10))
    m = int(rng.integers(max(5, distinct), 40))
    V = unit_rows(rng, distinct, 8)[rng.integers(0, distinct, size=m)]
    return V, [f"v{i:02d}" for i in rng.permutation(m)], int(rng.integers(2, min(12, m) + 1))


def make_pool(rng, kind, m, d):
    """Unit rows, with many exact duplicates or coarsely rounded values
    (exact score ties), under ids whose order is not the row order."""
    V = unit_rows(rng, m, d)
    if kind == "duplicates":
        V = V[rng.integers(0, max(1, m // 4), size=m)]
    elif kind == "rounded":
        V = np.round(V, 1)
        V[np.all(V == 0, axis=1), 0] = 1.0
        V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V, [f"v{i:05d}" for i in rng.permutation(m)]


class TestExactSearch:
    def test_self_retrieval_on_orthonormal_rows(self):
        index = build(np.eye(3), ["a", "b", "c"])
        assert search(index, np.eye(3)[1:2], k=1) == [[("b", 1.0)]]

    def test_equals_brute_force_on_random_pools(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, d = int(rng.integers(2, 400)), int(rng.integers(2, 24))
            V = unit_rows(rng, m, d)
            ids = [f"v{i:04d}" for i in range(m)]
            index = build(V, ids)
            q = unit_rows(rng, 1, d)[0]
            k = int(rng.integers(1, m + 1))
            assert search(index, q[None], k)[0] == brute_force_topk(V, ids, q, k)

    def test_full_k_returns_everything_sorted(self):
        rng = np.random.default_rng(1)
        V = unit_rows(rng, 20, 6)
        ids = [f"x{i}" for i in range(20)]
        index = build(V, ids)
        q = unit_rows(rng, 1, 6)[0]
        got = search(index, q[None], k=20)[0]
        assert len(got) == 20
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_ascending_id(self):
        # orthogonal pool: every score is 0, so ids decide
        index = build(np.eye(4)[:3], ["c", "a", "b"])
        got = search(index, np.eye(4)[3:], k=3)[0]
        assert [name for name, _ in got] == ["a", "b", "c"]
        assert all(s == pytest.approx(0.0) for _, s in got)

    def test_k_must_be_positive(self):
        index = build(np.eye(2), ["a", "b"])
        with pytest.raises(ValueError):
            search(index, np.eye(2)[:1], k=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build(np.eye(2), ["a", "a"])

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            build(np.eye(2) * 2.0, ["a", "b"])


class TestPartitioned:
    def test_single_cluster_equals_exact(self):
        rng = np.random.default_rng(2)
        V = unit_rows(rng, 50, 8)
        ids = [f"v{i:03d}" for i in range(50)]
        exact = build(V, ids)
        part = build(V, ids, IndexConfig(clusters=1, probes=1, seed=0))
        q = unit_rows(rng, 1, 8)[0]
        assert search(part, q[None], k=5) == search(exact, q[None], k=5)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        V = unit_rows(rng, 200, 8)
        ids = [f"v{i:03d}" for i in range(200)]
        a = build(V, ids, IndexConfig(clusters=8, probes=2, seed=5))
        b = build(V, ids, IndexConfig(clusters=8, probes=2, seed=5))
        np.testing.assert_array_equal(a.centroids, b.centroids)
        for ma, mb in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(ma, mb)

    def test_every_row_assigned_once(self):
        rng = np.random.default_rng(4)
        V = unit_rows(rng, 100, 6)
        index = build(V, [str(i) for i in range(100)], IndexConfig(clusters=10, probes=3))
        all_members = np.concatenate(index.assignments)
        assert sorted(all_members.tolist()) == list(range(100))

    def test_scores_are_exact_cosines(self):
        rng = np.random.default_rng(5)
        V = unit_rows(rng, 120, 8)
        ids = [f"v{i:03d}" for i in range(120)]
        index = build(V, ids, IndexConfig(clusters=8, probes=2, seed=0))
        q = unit_rows(rng, 1, 8)[0]
        for name, score in search(index, q[None], k=5)[0]:
            row = ids.index(name)
            assert score == pytest.approx(float(V[row] @ q), abs=1e-12)

    def test_probe_full_is_exhaustive(self):
        rng = np.random.default_rng(6)
        V = unit_rows(rng, 150, 8)
        ids = [f"v{i:03d}" for i in range(150)]
        index = build(V, ids, IndexConfig(clusters=8, probes=8, seed=0))
        assert recall_vs_exact(index, unit_rows(rng, 30, 8), k=1) == 1.0

    def test_recall_monotone_in_probes(self):
        rng = np.random.default_rng(7)
        V = unit_rows(rng, 1500, 12)
        ids = [f"v{i:05d}" for i in range(1500)]
        index = build(V, ids, IndexConfig(clusters=16, probes=16, seed=0))
        queries = unit_rows(rng, 60, 12)
        recalls = [recall_vs_exact(index, queries, k=1, probes=p) for p in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0

    def test_candidate_budget_bounded_by_probed_clusters(self):
        rng = np.random.default_rng(8)
        V = unit_rows(rng, 300, 8)
        index = build(V, [str(i) for i in range(300)], IndexConfig(clusters=12, probes=3, seed=0))
        sizes = sorted((len(m) for m in index.assignments), reverse=True)
        assert sum(sizes[:3]) < 300  # probing 3 clusters cannot scan the pool

    def test_every_pool_row_is_found_with_one_probe_on_duplicate_heavy_pools(self):
        # a row is in the cluster it probes first, so its own copies are
        # always candidates and exact top-1 is never missed
        rng = np.random.default_rng(23)
        for _ in range(40):
            V, ids, clusters = duplicate_heavy_pool(rng)
            index = build(V, ids, IndexConfig(clusters=clusters, probes=1, seed=int(rng.integers(100))))
            assert recall_vs_exact(index, index.vectors, k=1) == 1.0

    def test_fewer_rows_than_clusters_errors(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            build(unit_rows(rng, 4, 4), ["a", "b", "c", "d"], IndexConfig(clusters=8, probes=1))

    def test_exact_index_recall_is_one(self):
        rng = np.random.default_rng(10)
        V = unit_rows(rng, 100, 8)
        index = build(V, [str(i) for i in range(100)])
        assert recall_vs_exact(index, unit_rows(rng, 20, 8), k=1) == 1.0


class TestBlockSearch:
    @pytest.mark.parametrize("kind", ["random", "duplicates", "rounded"])
    def test_block_equals_per_query_brute_force(self, kind):
        rng = np.random.default_rng(["random", "duplicates", "rounded"].index(kind))
        for _ in range(8):
            m, d = int(rng.integers(8, 300)), int(rng.integers(2, 16))
            V, ids = make_pool(rng, kind, m, d)
            Q = np.concatenate([unit_rows(rng, 20, d), V[rng.integers(0, m, size=10)]])
            k = int(rng.integers(1, 12))
            got = search(build(V, ids), Q, k)
            assert got == [brute_force_topk(V, ids, q, k) for q in Q]
            clusters = int(rng.integers(2, 8))
            probes = int(rng.integers(1, clusters + 1))
            ivf = build(V, ids, IndexConfig(clusters=clusters, probes=probes, seed=3))
            for k in (k, m):  # m exceeds the candidates of any probe short of all clusters
                got = search(ivf, Q, k)
                assert got == [brute_force_topk(V, ids, q, k, probed_rows(ivf, q, probes)) for q in Q]

    def test_block_longer_than_one_chunk(self):
        rng = np.random.default_rng(20)
        V, ids = make_pool(rng, "rounded", 60, 5)
        Q = unit_rows(rng, QUERY_CHUNK + 9, 5)
        for config in (None, IndexConfig(clusters=4, probes=2)):
            index = build(V, ids, config)
            rows = [None if config is None else probed_rows(index, q, 2) for q in Q]
            got = search(index, Q, 3)
            assert got == [brute_force_topk(V, ids, q, 3, r) for q, r in zip(Q, rows)]

    def test_one_row_block_equals_that_row_of_a_larger_block(self):
        rng = np.random.default_rng(21)
        V, ids = make_pool(rng, "random", 500, 32)
        Q = unit_rows(rng, 40, 32)
        for config in (None, IndexConfig(clusters=6, probes=2)):
            index = build(V, ids, config)
            block = search(index, Q, 5)
            assert [search(index, q[None], 5)[0] for q in Q] == block

    def test_empty_block_gives_no_results(self):
        index = build(np.eye(3), ["a", "b", "c"])
        assert search(index, np.zeros((0, 3)), 2) == []

    @pytest.mark.parametrize("queries", [np.eye(2), np.full((1, 3), np.nan)])
    def test_malformed_queries_rejected(self, queries):
        index = build(np.eye(3), ["a", "b", "c"])
        with pytest.raises(ValueError):
            search(index, queries, 1)

    def test_partitioned_scores_and_ties_equal_exact_mode(self):
        # every row has three exact copies under ids that do not follow the
        # row order; a partitioned search must report the exact-mode score of
        # each (query, id) and break ties by ascending id
        rng = np.random.default_rng(22)
        base = unit_rows(rng, 500, 64)
        V = np.repeat(base, 3, axis=0)
        ids = [f"v{i:05d}" for i in rng.permutation(len(V))]
        exact = build(V, ids)
        ivf = build(V, ids, IndexConfig(clusters=8, probes=3, seed=0))
        Q = np.concatenate([unit_rows(rng, 200, 64), base[:100]])
        exact_scores = [dict(top) for top in search(exact, Q, len(V))]
        for scores, top in zip(exact_scores, search(ivf, Q, 12)):
            assert [s for _, s in top] == [scores[name] for name, _ in top]
            assert top == sorted(top, key=lambda hit: (-hit[1], hit[0]))


class TestPersistence:
    def test_pool_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        V = unit_rows(rng, 10, 4).astype(np.float32).astype(np.float64)
        ids = [f"v{i}" for i in range(10)]
        write_pool(tmp_path / "p.pool", V, ids)
        pool = read_pool(tmp_path / "p.pool")
        np.testing.assert_array_equal(pool.vectors, V)
        assert pool.ids == ids

    def test_pool_header_and_payload_sizes(self, tmp_path):
        rng = np.random.default_rng(12)
        V = unit_rows(rng, 3, 5)
        write_pool(tmp_path / "p.pool", V, ["a", "b", "c"])
        raw = (tmp_path / "p.pool").read_bytes()
        header, _, payload = raw.partition(b"\n")
        assert header == b"3 5"
        assert len(payload) == 3 * 5 * 4

    def test_truncated_pool_errors(self, tmp_path):
        (tmp_path / "bad.pool").write_bytes(b"4 4\n\x00\x00")
        with pytest.raises(DataError):
            _read_rows(tmp_path / "bad.pool")

    def test_index_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        V = unit_rows(rng, 12, 4).astype(np.float32).astype(np.float64)
        index = build(V, [f"v{i}" for i in range(12)])
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.mode == EXACT
        q = unit_rows(rng, 1, 4)[0]
        assert search(loaded, q[None], k=3) == search(index, q[None], k=3)

    def test_index_roundtrip_partitioned(self, tmp_path):
        # a saved index loads as exactly the index that was built
        rng = np.random.default_rng(14)
        for seed, d in [(1, 4), (2, 8), (3, 16), (4, 32), (5, 3)]:
            V, ids = make_pool(rng, "random", int(rng.integers(40, 300)), d)
            V = V.astype(np.float32).astype(np.float64)
            index = build(V, ids, IndexConfig(clusters=int(rng.integers(2, 12)), probes=2, seed=seed))
            save_index(index, tmp_path / f"idx{seed}")
            loaded = load_index(tmp_path / f"idx{seed}")
            assert loaded.mode == PARTITIONED and loaded.config == index.config
            np.testing.assert_array_equal(loaded.centroids, index.centroids)
            np.testing.assert_array_equal(loaded.cluster_of, index.cluster_of)
            Q = np.concatenate([unit_rows(rng, 30, d), V[:30]])
            assert search(loaded, Q, k=4) == search(index, Q, k=4)

    def test_stale_assignment_file_is_ignored(self, tmp_path):
        # an older index directory also held each row's cluster label in
        # assignments.txt; the partition comes from the centroids alone
        rng = np.random.default_rng(17)
        V = unit_rows(rng, 50, 6).astype(np.float32).astype(np.float64)
        ids = [f"v{i:02d}" for i in range(50)]
        index = build(V, ids, IndexConfig(clusters=4, probes=1, seed=2))
        save_index(index, tmp_path)
        (tmp_path / "assignments.txt").write_text("".join(f"{(c + 1) % 4}\n" for c in index.cluster_of))
        loaded = load_index(tmp_path)
        np.testing.assert_array_equal(loaded.cluster_of, index.cluster_of)
        assert [top[0][0] for top in search(loaded, V, k=1)] == ids

    @pytest.mark.parametrize("corrupt", ["missing-centroid", "nan-centroid", "non-unit-centroid"])
    def test_corrupt_partitioned_index_errors(self, tmp_path, corrupt):
        rng = np.random.default_rng(15)
        V = unit_rows(rng, 20, 4).astype(np.float32).astype(np.float64)
        save_index(build(V, [f"v{i:02d}" for i in range(20)], IndexConfig(clusters=4, probes=2)), tmp_path)
        centroids = _read_rows(tmp_path / "centroids.pool")
        if corrupt == "missing-centroid":
            centroids = centroids[:3]
        else:
            centroids[1] = np.nan if corrupt == "nan-centroid" else 2.0 * centroids[1]
        _write_rows(tmp_path / "centroids.pool", centroids)
        with pytest.raises(DataError, match="centroids.pool"):
            load_index(tmp_path)

    @pytest.mark.parametrize("defect", ["duplicate-ids", "non-unit"])
    def test_pool_is_validated_on_read(self, tmp_path, defect):
        rng = np.random.default_rng(16)
        V = unit_rows(rng, 5, 4)
        ids = [f"v{i}" for i in range(5)]
        if defect == "duplicate-ids":
            ids[1] = ids[0]
        else:
            V = 2.0 * V
        write_pool(tmp_path / "p.pool", V, ids)
        with pytest.raises(ValueError, match="unique" if defect == "duplicate-ids" else "unit-norm"):
            read_pool(tmp_path / "p.pool")


def test_vector_index_is_constructed_only_by_build():
    """Every ``VectorIndex(...)`` call in the package, as (module, the
    top-level function or class it is in): ``build`` alone makes one, so
    every index passes its checks."""
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "VectorIndex" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    calls.add((path.stem, getattr(top, "name", "<module>")))
    assert calls == {("vecindex", "build")}
