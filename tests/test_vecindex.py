import ast
import hashlib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextmine import vecindex
from bitextmine.errors import DataError
from bitextmine.vecindex import (
    EXACT,
    IndexConfig,
    PARTITIONED,
    _RESCORE_PAIRS,
    _block_rows,
    _read_rows,
    _write_rows,
    build,
    load_index,
    pool_files,
    read_pool,
    recall_vs_exact,
    save_index,
    search,
    stable_order,
    write_pool,
)

from conftest import search_hits, unit_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "bitextmine"


def pool_rows(rng, n, d):
    """Unit rows as a pool file stores them, in float32."""
    return unit_rows(rng, n, d).astype(np.float32)


def brute_force_topk(vectors, ids, query, k, rows=None):
    """Top-k of ``rows`` (default all) of the float32 ``vectors`` by exact
    score: each row's float64 sum of products with the float64 query, as
    ``vecindex`` defines it."""
    scores = (vectors * query).sum(axis=1)
    rows = range(len(ids)) if rows is None else rows
    order = sorted(rows, key=lambda i: (-scores[i], ids[i]))[:k]
    return [(ids[i], float(scores[i])) for i in order]


def probed_rows(index, query, probes):
    """Rows of the ``probes`` non-empty clusters whose centroids score
    best, ties to the lower cluster index."""
    scores = (index.centroids * query).sum(axis=1)
    filled = [c for c, members in enumerate(index.assignments) if len(members)]
    best = sorted(filled, key=lambda c: (-scores[c], c))[:probes]
    return np.concatenate([index.assignments[c] for c in best]).tolist()


def duplicate_heavy_pool(rng):
    """A few distinct unit rows, each repeated, and a cluster count that
    leaves some clusters with only copies of one row or with none."""
    distinct = int(rng.integers(3, 10))
    m = int(rng.integers(max(5, distinct), 40))
    V = pool_rows(rng, distinct, 8)[rng.integers(0, distinct, size=m)]
    return V, [f"v{i:02d}" for i in rng.permutation(m)], int(rng.integers(2, min(12, m) + 1))


def make_pool(rng, kind, m, d):
    """Float32 unit rows, with many exact duplicates or coarsely rounded
    values (exact score ties), under ids whose order is not the row order."""
    V = unit_rows(rng, m, d)
    if kind == "duplicates":
        V = V[rng.integers(0, max(1, m // 4), size=m)]
    elif kind == "rounded":
        V = np.round(V, 1)
        V[np.all(V == 0, axis=1), 0] = 1.0
        V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V.astype(np.float32), [f"v{i:05d}" for i in rng.permutation(m)]


def near_tie_pool(rng, m, d, ulps="float32"):
    """A few unit rows, each repeated in the dtype ``ulps`` with every
    coordinate moved 0-4 of its ulps away from zero (0 keeps an exact
    copy), under ids whose order is not the row order: the scores of a base
    row's copies differ by a few ulps or not at all. The float32 ulps are
    the least moves that the rows an index holds can make."""
    base = unit_rows(rng, max(2, m // 10), d)
    V = base[rng.integers(0, len(base), size=m)].astype(ulps)
    away = np.copysign(np.inf, V)
    for t in range(4):
        moved = rng.integers(0, 5, size=m) > t
        V[moved] = np.nextafter(V[moved], away[moved])
    return V, base, [f"v{i:05d}" for i in rng.permutation(m)]


def counting_pool_pairs(monkeypatch, index):
    """A list that receives, for each ``_candidates`` call over
    ``index``'s pool rows, the number of (query, pool row) pairs it scores:
    each query scans the tiles it probes."""
    scored = []
    kernel = vecindex._candidates

    def counting(rows, block, units, k, tiles, *args):
        if np.shares_memory(rows, index.grouped):
            scored.append(sum(np.arange(block.shape[0])[queries].size * (hi - lo) for queries, _, lo, hi in tiles))
        return kernel(rows, block, units, k, tiles, *args)

    monkeypatch.setattr(vecindex, "_candidates", counting)
    return scored


def counting_respawns(monkeypatch):
    """A list that receives the cluster of each k-means re-seed."""
    respawned = []
    respawn = vecindex._respawn_centroid

    def counting(vectors, assign, centroids, empty):
        respawned.append(int(empty))
        return respawn(vectors, assign, centroids, empty)

    monkeypatch.setattr(vecindex, "_respawn_centroid", counting)
    return respawned


class TestExactSearch:
    def test_self_retrieval_on_orthonormal_rows(self):
        index = build(np.eye(3), ["a", "b", "c"])
        assert search_hits(index, np.eye(3)[1:2], k=1) == [[("b", 1.0)]]

    def test_equals_brute_force_on_random_pools(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, d = int(rng.integers(2, 400)), int(rng.integers(2, 24))
            V = pool_rows(rng, m, d)
            ids = [f"v{i:04d}" for i in range(m)]
            index = build(V, ids)
            q = unit_rows(rng, 1, d)[0]
            k = int(rng.integers(1, m + 1))
            assert search_hits(index, q[None], k)[0] == brute_force_topk(V, ids, q, k)

    def test_full_k_returns_everything_sorted(self):
        rng = np.random.default_rng(1)
        V = pool_rows(rng, 20, 6)
        ids = [f"x{i}" for i in range(20)]
        index = build(V, ids)
        q = unit_rows(rng, 1, 6)[0]
        got = search_hits(index, q[None], k=20)[0]
        assert len(got) == 20
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_ascending_id(self):
        # orthogonal pool: every score is 0, so ids decide
        index = build(np.eye(4)[:3], ["c", "a", "b"])
        got = search_hits(index, np.eye(4)[3:], k=3)[0]
        assert [name for name, _ in got] == ["a", "b", "c"]
        assert all(s == pytest.approx(0.0) for _, s in got)

    def test_k_must_be_positive(self):
        index = build(np.eye(2), ["a", "b"])
        with pytest.raises(ValueError):
            search_hits(index, np.eye(2)[:1], k=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build(np.eye(2), ["a", "a"])

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            build(np.eye(2) * 2.0, ["a", "b"])


class TestPartitioned:
    def test_single_cluster_equals_exact(self):
        rng = np.random.default_rng(2)
        V = pool_rows(rng, 50, 8)
        ids = [f"v{i:03d}" for i in range(50)]
        exact = build(V, ids)
        part = build(V, ids, IndexConfig(clusters=1, probes=1, seed=0))
        q = unit_rows(rng, 1, 8)[0]
        assert search_hits(part, q[None], k=5) == search_hits(exact, q[None], k=5)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        V = pool_rows(rng, 200, 8)
        ids = [f"v{i:03d}" for i in range(200)]
        a = build(V, ids, IndexConfig(clusters=8, probes=2, seed=5))
        b = build(V, ids, IndexConfig(clusters=8, probes=2, seed=5))
        np.testing.assert_array_equal(a.centroids, b.centroids)
        for ma, mb in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(ma, mb)

    @pytest.mark.parametrize(
        "pool, centroids_sha256, order_sha256",
        [
            ("random", "3c3113fc9d6261059b6db8bfc00d4d91465eac3627bd323e0ea9c1933e83e6c1",
             "c2cca4d6320958755beee5658a0c1392f267f2083f22ab8e3893918cb01cda85"),
            ("mine-size", "b7ac0bd8981e692455fd23c86e4a0a79e32ae987db8bf0ac7d7bb40f1e0c0cac",
             "7bd41de90ea8021b3ec85e82b81f9a9fe2d6232e9cfc167de23f3e8b54944eec"),
            ("duplicates", "e79c0f6644b03046129f5c3076f533175e7746a86e4fb4ee20a752a970a71d42",
             "fa3efd5b8488fc94e1ca48546a80939bf026c3fa15d5ed02efddb47446fd23d5"),
        ],
    )
    def test_partition_is_pinned(self, monkeypatch, pool, centroids_sha256, order_sha256):
        # the centroids and the row order of seeded builds, recorded when
        # k-means took each mean over a boolean mask of its cluster; the
        # duplicate-heavy pool re-seeds empty clusters
        rng = np.random.default_rng({"random": 40, "mine-size": 41, "duplicates": 42}[pool])
        if pool == "random":
            V, config = pool_rows(rng, 300, 8), IndexConfig(clusters=12, probes=2, seed=5)
        elif pool == "mine-size":
            V, config = pool_rows(rng, 2000, 64), IndexConfig(clusters=64, probes=8, seed=0)
        else:
            V = pool_rows(rng, 6, 8)[rng.integers(0, 6, size=60)]
            config = IndexConfig(clusters=10, probes=1, seed=3)
        respawned = counting_respawns(monkeypatch)
        index = build(V, [f"v{i:04d}" for i in range(len(V))], config)
        assert hashlib.sha256(index.centroids.tobytes()).hexdigest() == centroids_sha256
        assert hashlib.sha256(index.order.astype(np.int64).tobytes()).hexdigest() == order_sha256
        assert (len(respawned) > 0) == (pool == "duplicates")

    @pytest.mark.parametrize(
        "iters, centroid", [(1, [1.0, 0.0, 0.0]), (2, [-1.0, -0.0, -0.0]), (3, [1.0, 0.0, 0.0])]
    )
    def test_zero_mean_cluster_is_re_seeded(self, monkeypatch, iters, centroid):
        # e1 and -e1 in one cluster have a zero mean, so each iteration
        # re-seeds it from the row farthest from its centroid: the two rows
        # take turns (the signs of the zeros are pinned too)
        respawned = counting_respawns(monkeypatch)
        e = np.eye(3)
        config = IndexConfig(clusters=1, probes=1, kmeans_iters=iters)
        index = build(np.stack([e[0], -e[0]]), ["a", "b"], config)
        assert index.centroids.tobytes() == np.array([centroid], dtype=np.float32).tobytes()
        assert respawned == [0] * iters
        assert index.order.tolist() == [0, 1]

    @pytest.mark.parametrize("largest", ["later", "earlier", "itself"])
    def test_grouped_means_equal_one_mean_per_cluster(self, largest):
        # a zero-mean re-seed moves a row out of the largest cluster; when
        # that cluster comes later its mean must lose the row, as in a loop
        # that takes one masked mean per cluster in turn
        rng = np.random.default_rng(43)
        e = np.eye(4)
        near_e2 = unit_rows(rng, 1, 4) * 0.1 + e[1]
        near_e2 = near_e2 / np.linalg.norm(near_e2)
        pair, crowd = [e[0], -e[0]], [e[1], e[1], near_e2[0]]
        rows, assign = {
            "later": (pair + crowd + [e[2]], [0, 0, 1, 1, 1, 2]),
            "earlier": (crowd + pair + [e[2]], [0, 0, 0, 1, 1, 2]),
            "itself": (pair + pair + [e[1], e[2]], [1, 1, 1, 1, 0, 2]),
        }[largest]
        vectors = np.array(rows)
        start = np.array([e[3], e[2], e[1]])
        want, got = start.copy(), start.copy()
        assign_want, assign_got = np.array(assign), np.array(assign)
        for c in range(len(want)):
            mean = vectors[assign_want == c].mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm < 1e-12:
                vecindex._respawn_centroid(vectors, assign_want, want, c)
            else:
                want[c] = mean / norm
        vecindex._move_centroids(vectors, assign_got, got)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(assign_got, assign_want)
        assert np.array_equal(assign_got, assign) == (largest == "itself")  # or a row moved

    def test_every_row_assigned_once(self):
        rng = np.random.default_rng(4)
        V = pool_rows(rng, 100, 6)
        index = build(V, [str(i) for i in range(100)], IndexConfig(clusters=10, probes=3))
        all_members = np.concatenate(index.assignments)
        assert sorted(all_members.tolist()) == list(range(100))

    def test_scores_are_exact_cosines(self):
        rng = np.random.default_rng(5)
        V = pool_rows(rng, 120, 8)
        ids = [f"v{i:03d}" for i in range(120)]
        index = build(V, ids, IndexConfig(clusters=8, probes=2, seed=0))
        q = unit_rows(rng, 1, 8)[0]
        for name, score in search_hits(index, q[None], k=5)[0]:
            row = ids.index(name)
            assert score == pytest.approx(float(V[row] @ q), abs=1e-12)

    def test_probe_full_is_exhaustive(self):
        rng = np.random.default_rng(6)
        V = pool_rows(rng, 150, 8)
        ids = [f"v{i:03d}" for i in range(150)]
        index = build(V, ids, IndexConfig(clusters=8, probes=8, seed=0))
        assert recall_vs_exact(index, unit_rows(rng, 30, 8), k=1) == 1.0

    def test_recall_monotone_in_probes(self):
        rng = np.random.default_rng(7)
        V = pool_rows(rng, 1500, 12)
        ids = [f"v{i:05d}" for i in range(1500)]
        index = build(V, ids, IndexConfig(clusters=16, probes=16, seed=0))
        queries = unit_rows(rng, 60, 12)
        recalls = [recall_vs_exact(index, queries, k=1, probes=p) for p in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0

    def test_candidate_budget_bounded_by_probed_clusters(self):
        rng = np.random.default_rng(8)
        V = pool_rows(rng, 300, 8)
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
            build(pool_rows(rng, 4, 4), ["a", "b", "c", "d"], IndexConfig(clusters=8, probes=1))

    def test_exact_index_recall_is_one(self):
        rng = np.random.default_rng(10)
        V = pool_rows(rng, 100, 8)
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
            got = search_hits(build(V, ids), Q, k)
            assert got == [brute_force_topk(V, ids, q, k) for q in Q]
            clusters = int(rng.integers(2, 8))
            probes = int(rng.integers(1, clusters + 1))
            ivf = build(V, ids, IndexConfig(clusters=clusters, probes=probes, seed=3))
            for k in (k, m):  # m exceeds the candidates of any probe short of all clusters
                got = search_hits(ivf, Q, k)
                assert got == [brute_force_topk(V, ids, q, k, probed_rows(ivf, q, probes)) for q in Q]

    def test_block_longer_than_one_chunk(self):
        # a pool of one full tile, so the block rule gives 256 query rows
        rng = np.random.default_rng(20)
        V, ids = make_pool(rng, "rounded", 4096, 5)
        Q = unit_rows(rng, _block_rows(len(V)) + 9, 5)
        for config in (None, IndexConfig(clusters=4, probes=2)):
            index = build(V, ids, config)
            rows = [None if config is None else probed_rows(index, q, 2) for q in Q]
            got = search_hits(index, Q, 3)
            assert got == [brute_force_topk(V, ids, q, 3, r) for q, r in zip(Q, rows)]

    def test_results_do_not_depend_on_blocks_or_tiles(self, monkeypatch):
        # one-row blocks and one-row tiles, small tiles, and one block
        # holding everything give the same results, equal to brute force
        rng = np.random.default_rng(24)
        V, base, ids = near_tie_pool(rng, 300, 16)
        Q = np.concatenate([base, unit_rows(rng, 10, 16), np.zeros((1, 16))])
        for config in (None, IndexConfig(clusters=5, probes=2, seed=4)):
            index = build(V, ids, config)
            rows = [None if config is None else probed_rows(index, q, 2) for q in Q]
            for k in (1, 4, len(V)):
                want = [brute_force_topk(V, ids, q, k, r) for q, r in zip(Q, rows)]
                for budget, tile in [(1, 1), (1, 7), (1 << 40, 64), (1 << 40, 1 << 40)]:
                    monkeypatch.setattr(vecindex, "_SCORE_BYTES", budget)
                    monkeypatch.setattr(vecindex, "_TILE_ROWS", tile)
                    assert search_hits(index, Q, k) == want, (k, budget, tile)

    def test_partitioned_search_scores_only_probed_rows(self, monkeypatch):
        rng = np.random.default_rng(25)
        V, ids = make_pool(rng, "random", 2000, 16)
        index = build(V, ids, IndexConfig(clusters=32, probes=4, seed=0))
        Q = unit_rows(rng, 300, 16)
        scored = counting_pool_pairs(monkeypatch, index)
        got = search_hits(index, Q, 3)
        probed = [probed_rows(index, q, 4) for q in Q]
        assert got == [brute_force_topk(V, ids, q, 3, r) for q, r in zip(Q, probed)]
        assert sum(scored) <= sum(len(r) for r in probed) < len(Q) * len(V) // 4

    def test_one_row_block_equals_that_row_of_a_larger_block(self):
        rng = np.random.default_rng(21)
        V, ids = make_pool(rng, "random", 500, 32)
        Q = unit_rows(rng, 40, 32)
        for config in (None, IndexConfig(clusters=6, probes=2)):
            index = build(V, ids, config)
            block = search_hits(index, Q, 5)
            assert [search_hits(index, q[None], 5)[0] for q in Q] == block

    def test_empty_block_gives_no_results(self):
        index = build(np.eye(3), ["a", "b", "c"])
        assert search_hits(index, np.zeros((0, 3)), 2) == []

    @pytest.mark.parametrize("queries", [np.eye(2), np.full((1, 3), np.nan)])
    def test_malformed_queries_rejected(self, queries):
        index = build(np.eye(3), ["a", "b", "c"])
        with pytest.raises(ValueError):
            search_hits(index, queries, 1)

    def test_partitioned_scores_and_ties_equal_exact_mode(self):
        # every row has three exact copies under ids that do not follow the
        # row order; a partitioned search must report the exact-mode score of
        # each (query, id) and break ties by ascending id
        rng = np.random.default_rng(22)
        base = pool_rows(rng, 500, 64)
        V = np.repeat(base, 3, axis=0)
        ids = [f"v{i:05d}" for i in rng.permutation(len(V))]
        exact = build(V, ids)
        ivf = build(V, ids, IndexConfig(clusters=8, probes=3, seed=0))
        Q = np.concatenate([unit_rows(rng, 200, 64), base[:100]])
        exact_scores = [dict(top) for top in search_hits(exact, Q, len(V))]
        for scores, top in zip(exact_scores, search_hits(ivf, Q, 12)):
            assert [s for _, s in top] == [scores[name] for name, _ in top]
            assert top == sorted(top, key=lambda hit: (-hit[1], hit[0]))


class TestNearTies:
    @staticmethod
    def check_near_ties(d, ulps):
        # the slack around the k-th approximate score must keep every row of
        # the exact top-k at any query norm down to the stated floor of
        # 2**-1000, and for a zero query, whose scores all tie
        rng = np.random.default_rng(d)
        V, base, ids = near_tie_pool(rng, 90, d, ulps)
        Q = np.concatenate([base, unit_rows(rng, 6, d)])
        exact = build(V, ids)
        ivf = build(V, ids, IndexConfig(clusters=3, probes=2, seed=1))
        widen = 2.0**29  # float32 eps over float64 eps
        for scale in (2.0**-1000, 1e-200, 1e-40, 1e-3, 1.0, 1e3, 1e38, 1e200, 0.0):
            Qs = Q * scale if scale else np.zeros((1, d))
            top = [brute_force_topk(V, ids, q, len(V)) for q in Qs]
            if scale:
                gaps = np.array([a[1] - b[1] for t in top for a, b in zip(t, t[1:])])
                assert np.any((gaps > 0) & (gaps <= 4 * widen * np.spacing(scale)))  # near ties do occur
            for k in (1, 3, len(V)):
                assert search_hits(exact, Qs, k) == [t[:k] for t in top]
                rows = [probed_rows(ivf, q, 2) for q in Qs]
                assert search_hits(ivf, Qs, k) == [brute_force_topk(V, ids, q, k, r) for q, r in zip(Qs, rows)]

    @pytest.mark.parametrize("ulps", ["float32"])
    @pytest.mark.parametrize("d", [7, 33, 65])
    def test_float32_near_ties_equal_brute_force(self, d, ulps):
        # copies a few float32 ulps apart: an index holds float32 rows, so
        # no two of its rows are closer
        self.check_near_ties(d, ulps)

    @settings(max_examples=300, deadline=None)
    @given(row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=70))
    def test_query_rows_become_unit_rows_at_any_finite_scale(self, row):
        # the slack is stated for a unit query row; a zero row stays zero
        norm = np.linalg.norm(vecindex._unit32(np.array([row])).astype(np.float64))
        assert norm == 0.0 if not any(row) else abs(norm - 1.0) < 1e-6

    def test_more_candidates_than_one_rescoring_slice(self):
        rng = np.random.default_rng(31)
        V, base, ids = near_tie_pool(rng, 150, 9)
        Q = np.concatenate([base, unit_rows(rng, 25, 9)])
        assert len(Q) * len(V) > _RESCORE_PAIRS
        for config in (None, IndexConfig(clusters=4, probes=3, seed=2)):
            index = build(V, ids, config)
            rows = [None if config is None else probed_rows(index, q, 3) for q in Q]
            got = search_hits(index, Q, len(V))
            assert got == [brute_force_topk(V, ids, q, len(V), r) for q, r in zip(Q, rows)]


class TestPersistence:
    def test_pool_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        V = pool_rows(rng, 10, 4)
        ids = [f"v{i}" for i in range(10)]
        write_pool(tmp_path / "p.pool", V, ids)
        pool = read_pool(tmp_path / "p.pool")
        np.testing.assert_array_equal(pool.vectors, V)
        assert pool.ids == ids

    def test_pool_header_and_payload_sizes(self, tmp_path):
        rng = np.random.default_rng(12)
        V = pool_rows(rng, 3, 5)
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
        V = pool_rows(rng, 12, 4)
        index = build(V, [f"v{i}" for i in range(12)])
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.mode == EXACT
        q = unit_rows(rng, 1, 4)[0]
        assert search_hits(loaded, q[None], k=3) == search_hits(index, q[None], k=3)

    def test_index_roundtrip_partitioned(self, tmp_path):
        # a saved index loads as exactly the index that was built
        rng = np.random.default_rng(14)
        for seed, d in [(1, 4), (2, 8), (3, 16), (4, 32), (5, 3)]:
            V, ids = make_pool(rng, "random", int(rng.integers(40, 300)), d)
            index = build(V, ids, IndexConfig(clusters=int(rng.integers(2, 12)), probes=2, seed=seed))
            save_index(index, tmp_path / f"idx{seed}")
            loaded = load_index(tmp_path / f"idx{seed}")
            assert loaded.mode == PARTITIONED and loaded.config == index.config
            np.testing.assert_array_equal(loaded.centroids, index.centroids)
            np.testing.assert_array_equal(loaded.order, index.order)
            np.testing.assert_array_equal(loaded.list_starts, index.list_starts)
            Q = np.concatenate([unit_rows(rng, 30, d), V[:30]])
            assert search_hits(loaded, Q, k=4) == search_hits(index, Q, k=4)

    def test_stale_assignment_file_is_ignored(self, tmp_path):
        # an older index directory also held each row's cluster label in
        # assignments.txt; the partition comes from the centroids alone
        rng = np.random.default_rng(17)
        V = pool_rows(rng, 50, 6)
        ids = [f"v{i:02d}" for i in range(50)]
        index = build(V, ids, IndexConfig(clusters=4, probes=1, seed=2))
        save_index(index, tmp_path)
        cluster_of = np.repeat(np.arange(4), np.diff(index.list_starts))[np.argsort(index.order)]
        (tmp_path / "assignments.txt").write_text("".join(f"{(c + 1) % 4}\n" for c in cluster_of))
        loaded = load_index(tmp_path)
        np.testing.assert_array_equal(loaded.order, index.order)
        np.testing.assert_array_equal(loaded.list_starts, index.list_starts)
        assert [top[0][0] for top in search_hits(loaded, V, k=1)] == ids

    @pytest.mark.parametrize("corrupt", ["missing-centroid", "nan-centroid", "non-unit-centroid"])
    def test_corrupt_partitioned_index_errors(self, tmp_path, corrupt):
        rng = np.random.default_rng(15)
        V = pool_rows(rng, 20, 4)
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
        V = pool_rows(rng, 5, 4)
        ids = [f"v{i}" for i in range(5)]
        if defect == "duplicate-ids":
            ids[1] = ids[0]
        else:
            V = 2.0 * V
        path = tmp_path / "p.pool"
        write_pool(path, V, ids)
        message = {"duplicate-ids": f"{path}.ids:2: id 'v0' repeats line 1", "non-unit": f"{path}: row 1 is not a finite unit vector"}
        with pytest.raises(DataError, match=f"^{re.escape(message[defect])}$"):
            read_pool(path)

    # (header, payload bytes): signs, digit separators, a zero width,
    # padding and a missing line end, each with the payload its numbers
    # would ask for where they ask for one
    BAD_HEADERS = [
        (b"-2 -2\n", 16), (b"-1 4\n", 16), (b"1_0 4\n", 160), (b"+1 4\n", 16), (b"1 +4\n", 16),
        (b"2 0\n", 0), (b"0 0\n", 0), (b" 1 4\n", 16), (b"1  4\n", 16), (b"1 4 \n", 16), (b"1\t4\n", 16),
        (b"1 4\r\n", 16), (b"1 4 1\n", 16), (b"1\n", 16), (b"\n", 0), (b"", 0), (b"1 4", 0),
    ]

    @pytest.mark.parametrize("header, payload", BAD_HEADERS)
    def test_malformed_pool_header_is_refused_naming_the_file(self, tmp_path, header, payload):
        path = tmp_path / "p.pool"
        write_pool(path, np.eye(4)[:1], ["a"])
        path.write_bytes(header + bytes(payload))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: bad pool header {re.escape(repr(header))}$"):
            read_pool(path)

    @pytest.mark.parametrize("header, payload", BAD_HEADERS)
    def test_malformed_centroids_header_is_refused_naming_the_file(self, tmp_path, header, payload):
        save_index(build(np.eye(4), list("abcd"), IndexConfig(clusters=2, probes=1)), tmp_path)
        path = tmp_path / "centroids.pool"
        path.write_bytes(header + bytes(payload))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: bad pool header {re.escape(repr(header))}$"):
            load_index(tmp_path)

    def test_rows_file_of_no_rows_reads_back(self, tmp_path):
        _write_rows(tmp_path / "p.pool", np.zeros((0, 4)))
        assert (tmp_path / "p.pool").read_bytes() == b"0 4\n"
        assert _read_rows(tmp_path / "p.pool").shape == (0, 4)

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_ids_holding_other_line_separators_round_trip(self, tmp_path, sep):
        # only \n ends an id line; str.splitlines would split these too
        V = np.eye(3)
        ids = ["a", f"b{sep}c", f"{sep}d"]
        write_pool(tmp_path / "p.pool", V, ids)
        assert read_pool(tmp_path / "p.pool").ids == ids

    def test_id_file_with_crlf_line_ends_reads_and_a_lone_cr_is_refused(self, tmp_path):
        write_pool(tmp_path / "p.pool", np.eye(3), ["a", "b", "c"])
        ids_path = pool_files(tmp_path / "p.pool")[1]
        ids_path.write_bytes(b"a\r\nb\r\nc\r\n")
        assert read_pool(tmp_path / "p.pool").ids == ["a", "b", "c"]
        ids_path.write_bytes(b"a\nb\rx\nc\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(ids_path))}:2: carriage return inside an id$"):
            read_pool(tmp_path / "p.pool")


# Ids that a pool file can hold: any text without \n or \r, with the
# separators that str.splitlines would split on, a leading byte-order mark
# and edge spaces drawn often.
POOL_IDS = st.text(
    st.characters(exclude_characters="\n\r", exclude_categories=["Cs"])
    | st.sampled_from(["\x0b", "\x0c", "\x85", "\u2028", "\u2029", "\ufeff", " ", "\t"]),
    max_size=5,
)


@st.composite
def unit_pools(draw, max_rows=12, dtype=np.float32):
    """(rows, ids): unit rows in ``dtype``, by default float32 as a pool
    file stores them (zeros of either sign and subnormals among them), and
    unique ids."""
    m, d = draw(st.integers(1, max_rows)), draw(st.integers(1, 6))
    width = np.finfo(dtype).bits
    raw = np.array(draw(st.lists(st.floats(-1e3, 1e3, width=width), min_size=m * d, max_size=m * d)))
    raw = raw.reshape(m, d)
    raw[np.abs(raw).max(axis=1) == 0, 0] = -1.0
    raw /= np.abs(raw).max(axis=1, keepdims=True)  # so that no square underflows
    rows = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(dtype)
    ids = draw(st.lists(POOL_IDS, min_size=m, max_size=m, unique=True))
    return rows, ids


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(pool=unit_pools())
    def test_write_pool_then_read_pool(self, pool):
        rows, ids = pool
        with tempfile.TemporaryDirectory() as tmp:
            write_pool(Path(tmp) / "p.pool", rows, ids)
            back = read_pool(Path(tmp) / "p.pool")
        assert back.vectors.tobytes() == rows.tobytes() and back.ids == ids

    @settings(max_examples=40, deadline=None)
    @given(pool=unit_pools(max_rows=30), clusters=st.integers(0, 6), seed=st.integers(0, 5))
    def test_save_index_then_load_index(self, pool, clusters, seed):
        rows, ids = pool
        config = IndexConfig(clusters=clusters, probes=1, seed=seed) if 0 < clusters <= len(rows) else None
        index = build(rows, ids, config)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            back = load_index(tmp)
        assert back.vectors.tobytes() == rows.tobytes() and back.ids == ids
        assert (back.mode, back.config) == (index.mode, index.config)
        if config is not None:
            assert back.centroids.tobytes() == index.centroids.tobytes()
            np.testing.assert_array_equal(back.order, index.order)
            np.testing.assert_array_equal(back.list_starts, index.list_starts)

    @settings(max_examples=40, deadline=None)
    @given(pool=unit_pools(max_rows=30, dtype=np.float64), clusters=st.integers(0, 6), seed=st.integers(0, 5))
    def test_index_of_float64_rows_loads_back_as_built(self, pool, clusters, seed):
        # the index holds the float32 rows its files store, so what loads
        # is what was built, down to each search
        rows, ids = pool
        config = IndexConfig(clusters=clusters, probes=1, seed=seed) if 0 < clusters <= len(rows) else None
        index = build(rows, ids, config)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            back = load_index(tmp)
        assert back.vectors.tobytes() == index.vectors.tobytes() and back.ids == index.ids
        assert (back.mode, back.config) == (index.mode, index.config)
        if config is not None:
            assert back.centroids.tobytes() == index.centroids.tobytes()
            np.testing.assert_array_equal(back.order, index.order)
            np.testing.assert_array_equal(back.list_starts, index.list_starts)
        assert search_hits(back, rows, k=2) == search_hits(index, rows, k=2)

    @settings(max_examples=60, deadline=None)
    @given(head=POOL_IDS, end=st.sampled_from(["\n", "\r", "\r\n"]), tail=POOL_IDS)
    def test_write_pool_refuses_first_what_read_pool_could_not_read(self, head, end, tail):
        bad = head + end + tail
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError, match=f"^pool id {re.escape(repr(bad))} holds a line end$"):
                write_pool(Path(tmp) / "p.pool", np.eye(2), ["x", bad])
            assert not any(path.exists() for path in pool_files(Path(tmp) / "p.pool"))


def brute_force_arrays(vectors, ids, queries, k):
    """The flat (rows, cols, scores) that ``search`` returns, by scanning:
    each query's exact scores with every row, ranked by descending score
    then ascending id, the first k kept, queries in order."""
    rows, cols, scores = [], [], []
    for r, query in enumerate(queries.astype(np.float64)):
        exact = (vectors * query).sum(axis=1)
        top = sorted(range(len(ids)), key=lambda c: (-exact[c], ids[c]))[:k]
        rows += [r] * len(top)
        cols += top
        scores += [exact[c] for c in top]
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(scores)


class TestSearchArraysProperty:
    @settings(max_examples=80, deadline=None)
    @given(pool=unit_pools(max_rows=30), data=st.data())
    def test_search_arrays_equal_brute_force(self, pool, data):
        # the flat arrays of an exact index, and of a partitioned one that
        # probes every cluster, are the brute-force top k, bit for bit
        rows, ids = pool
        m, d = rows.shape
        picks = data.draw(st.lists(st.integers(0, m - 1), max_size=6))
        scale = data.draw(st.sampled_from([1.0, 1e-3, 7.0]))
        queries = np.concatenate([rows[picks], unit_rows(np.random.default_rng(m), 3, d)]) * scale
        k = data.draw(st.integers(1, m + 2))
        want = brute_force_arrays(rows, ids, queries, k)
        clusters = data.draw(st.integers(1, m))
        config = IndexConfig(clusters=clusters, probes=1, seed=data.draw(st.integers(0, 3)))
        for index, probes in ((build(rows, ids), None), (build(rows, ids, config), clusters)):
            got = search(index, queries, k, probes)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_index_arrays_of_float64_rows_are_float32():
    # an exact index holds one float32 copy of its rows; a partitioned one
    # adds the float32 centroids and one cluster-grouped copy of the rows
    rng = np.random.default_rng(18)
    V = unit_rows(rng, 40, 6)
    ids = [f"v{i:02d}" for i in range(40)]
    for config in (None, IndexConfig(clusters=4, probes=2)):
        index = build(V, ids, config)
        arrays = {name: value for name, value in vars(index).items() if isinstance(value, np.ndarray)}
        assert {name for name, value in arrays.items() if value.dtype.kind == "f"} == (
            {"vectors"} if config is None else {"vectors", "centroids", "grouped"}
        )
        assert all(value.dtype == np.float32 for value in arrays.values() if value.dtype.kind == "f")
        np.testing.assert_array_equal(index.vectors, V.astype(np.float32))


def test_search_scale_experiment_runs_at_a_tiny_size():
    # the experiment's own command line, so a change to the index cannot
    # leave it broken unseen
    script = SRC.parents[1] / "experiments" / "search_scale.py"
    argv = [sys.executable, script, "--rows", "200,300", "--queries", "40", "--ks", "1,3", "--repeats", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    head = [name.strip() for name in out.splitlines()[1].strip("|").split("|")]
    rows = [dict(zip(head, (cell.strip() for cell in line.strip("|").split("|")))) for line in out.splitlines()[3:]]
    assert [(row["pool rows"], row["k"]) for row in rows] == [("200", "1"), ("200", "3"), ("300", "1"), ("300", "3")]
    assert all(row["recall@1"] == "1.000" for row in rows)  # 8 of 14 or 17 clusters, queries near pool rows
    assert [row["exact B/row"] for row in rows] == ["264"] * 4  # 64 float32 coordinates and an id rank per row
    for row in rows:  # each search and the partitioned build, timed beside each other
        for column in ("exact", "partitioned", "partitioned build"):
            assert re.fullmatch(r"\d+\.\d ms", row[column]), (column, row[column])
            assert re.fullmatch(r"\d+\.\d ms", row[f"{column} IQR"]), (column, row[f"{column} IQR"])
            assert re.fullmatch(r"\d+\.\d\d", row[f"{column} slowdown"]), (column, row[f"{column} slowdown"])


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


@settings(max_examples=200, deadline=None)
@given(bound=st.sampled_from([1, 2, 255, 256, 65_535, 65_536, 2**40]), data=st.data())
def test_stable_order_is_the_stable_argsort_of_its_keys(bound, data):
    # keys below each bound, drawn often at its edges, where the sort dtype
    # widens (uint8 to uint16 at 256, uint16 to uint32 at 65,536)
    key = st.sampled_from([0, bound - 1, max(bound - 2, 0), bound // 2]) | st.integers(0, bound - 1)
    keys = np.array(data.draw(st.lists(key, max_size=300)), dtype=np.int64)
    order = stable_order(keys, bound)
    np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
    assert order.dtype == np.intp
