import math

import numpy as np
import pytest

from bitextmine.corpus import Sentence, SentencePair
from bitextmine.loss import (
    LossConfig,
    bidirectional_loss,
    loss_and_grad_wrt_embeddings,
    similarity_matrix,
)
from bitextmine.negatives import (
    AugmentedBatch,
    augment_batch_with_hard_negatives,
    augmented_bidirectional_loss,
    mine_hard_negatives,
    shard_batch,
    sharded_bidirectional_loss,
)

from conftest import unit_rows

CFG = LossConfig(margin=0.3, scale=10.0)


class TestShardBatch:
    def test_8_by_4_gives_4_shards_of_2(self):
        rng = np.random.default_rng(0)
        X, Y = unit_rows(rng, 8, 4), unit_rows(rng, 8, 4)
        sharded = shard_batch(X, Y, 4)
        assert sharded.num_shards == 4
        assert all(xk.shape == (2, 4) for xk, _ in sharded.shards)

    def test_single_shard_is_whole_batch(self):
        rng = np.random.default_rng(1)
        X, Y = unit_rows(rng, 6, 3), unit_rows(rng, 6, 3)
        sharded = shard_batch(X, Y, 1)
        np.testing.assert_array_equal(sharded.shards[0][0], X)

    def test_reconstruction_bit_identical(self):
        rng = np.random.default_rng(2)
        X, Y = unit_rows(rng, 12, 5), unit_rows(rng, 12, 5)
        for K in (1, 2, 3, 4, 6, 12):
            X2, Y2 = shard_batch(X, Y, K).reconstruct()
            np.testing.assert_array_equal(X2, X)
            np.testing.assert_array_equal(Y2, Y)

    def test_nondividing_k_errors(self):
        rng = np.random.default_rng(3)
        X, Y = unit_rows(rng, 6, 3), unit_rows(rng, 6, 3)
        with pytest.raises(ValueError):
            shard_batch(X, Y, 4)


class TestShardedLoss:
    def test_k1_equals_unsharded_exactly(self):
        rng = np.random.default_rng(4)
        X, Y = unit_rows(rng, 8, 6), unit_rows(rng, 8, 6)
        base = bidirectional_loss(similarity_matrix(X, Y), CFG)
        assert sharded_bidirectional_loss(shard_batch(X, Y, 1), CFG)[0] == pytest.approx(base, abs=1e-12)

    def test_equivalence_across_divisors(self):
        rng = np.random.default_rng(5)
        for n in (4, 8, 16):
            X, Y = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
            base = bidirectional_loss(similarity_matrix(X, Y), CFG)
            _, base_dX, base_dY = loss_and_grad_wrt_embeddings(X, Y, CFG)
            for k in (k for k in range(1, n + 1) if n % k == 0):
                value, dX, dY = sharded_bidirectional_loss(shard_batch(X, Y, k), CFG)
                assert abs(value - base) <= 1e-9
                np.testing.assert_array_equal(dX, base_dX)
                np.testing.assert_array_equal(dY, base_dY)

    def test_removing_broadcast_never_increases_loss(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, Y = unit_rows(rng, 8, 6), unit_rows(rng, 8, 6)
            sharded = shard_batch(X, Y, 4)
            full = sharded_bidirectional_loss(sharded, CFG)[0]
            local = sharded_bidirectional_loss(sharded, CFG, broadcast=False)[0]
            assert local <= full + 1e-12

    @pytest.mark.parametrize("broadcast", [True, False])
    def test_gradient_matches_finite_differences(self, broadcast):
        rng = np.random.default_rng(12)
        X, Y = unit_rows(rng, 8, 5), unit_rows(rng, 8, 5)

        def loss(X, Y):
            return sharded_bidirectional_loss(shard_batch(X, Y, 4), CFG, broadcast)[0]

        _, dX, dY = sharded_bidirectional_loss(shard_batch(X, Y, 4), CFG, broadcast)
        h = 1e-6
        for M, grad in ((X, dX), (Y, dY)):
            fd = np.zeros_like(M)
            for idx in np.ndindex(M.shape):
                saved = M[idx]
                M[idx] = saved + h
                up = loss(X, Y)
                M[idx] = saved - h
                down = loss(X, Y)
                M[idx] = saved
                fd[idx] = (up - down) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(fd), np.linalg.norm(grad))
            assert rel <= 1e-4


def sentence(sid, text="w", lang="bb"):
    return Sentence(id=sid, lang=lang, text=text)


def lookup_encoder(table):
    """Encoder stub mapping sentence ids to fixed unit vectors."""

    def encode_sentence(s):
        return table[s.id]

    return encode_sentence


class TestHardNegatives:
    def make_setup(self, n_pool=10, d=4, seed=0):
        rng = np.random.default_rng(seed)
        pool = [sentence(f"p{i}") for i in range(n_pool)]
        table = {s.id: v for s, v in zip(pool, unit_rows(rng, n_pool, d))}
        pairs = []
        for i in range(3):
            src = sentence(f"s{i}", lang="aa")
            table[src.id] = unit_rows(rng, 1, d)[0]
            pairs.append(SentencePair(src=src, tgt=pool[i]))
        return pairs, pool, table

    def test_excludes_true_target(self):
        pairs, pool, table = self.make_setup()
        negset = mine_hard_negatives(lookup_encoder(table), pairs, pool, count=3)
        for pair in pairs:
            mined_ids = [s.id for s, _ in negset.negatives[pair.src.id]]
            assert pair.tgt.id not in mined_ids
            assert len(mined_ids) == 3

    def test_matches_brute_force_scan(self):
        pairs, pool, table = self.make_setup(seed=1)
        negset = mine_hard_negatives(lookup_encoder(table), pairs, pool, count=4)
        for pair in pairs:
            q = table[pair.src.id]
            scored = [
                (i, float(np.dot(table[s.id], q)))
                for i, s in enumerate(pool)
                if s.id != pair.tgt.id
            ]
            best = sorted(scored, key=lambda t: (-t[1], t[0]))[:4]
            want = [pool[i].id for i, _ in best]
            got = [s.id for s, _ in negset.negatives[pair.src.id]]
            assert got == want

    def test_decoys_returned_when_pool_is_target_plus_decoys(self):
        d = 4
        src = sentence("s0", lang="aa")
        tgt = sentence("t0")
        decoys = [sentence(f"d{i}") for i in range(3)]
        table = {"s0": np.eye(d)[0], "t0": np.eye(d)[0]}
        for i, s in enumerate(decoys):
            table[s.id] = np.eye(d)[1 + i]  # orthogonal to the query
        negset = mine_hard_negatives(
            lookup_encoder(table), [SentencePair(src=src, tgt=tgt)], [tgt] + decoys, count=3
        )
        assert sorted(s.id for s, _ in negset.negatives["s0"]) == ["d0", "d1", "d2"]

    def test_pool_too_small(self):
        pairs, pool, table = self.make_setup(n_pool=3)
        with pytest.raises(ValueError):
            mine_hard_negatives(lookup_encoder(table), pairs, pool, count=3)


def brute_force_rectangular_loss(X, columns, Y, cfg):
    """Independent recomputation: explicit per-row log-sum-exp loops."""
    n = X.shape[0]
    total = 0.0
    for i in range(n):
        z = [cfg.scale * (float(np.dot(X[i], c)) - (cfg.margin if j == i else 0.0)) for j, c in enumerate(columns)]
        total += math.log(sum(math.exp(v) for v in z)) - z[i]
    for j in range(n):
        z = [cfg.scale * (float(np.dot(Y[j], X[i])) - (cfg.margin if i == j else 0.0)) for i in range(n)]
        total += math.log(sum(math.exp(v) for v in z)) - z[j]
    return total / n


class TestAugmentedBatch:
    def test_zero_negatives_is_identity(self):
        rng = np.random.default_rng(7)
        X, Y = unit_rows(rng, 4, 5), unit_rows(rng, 4, 5)
        aug = AugmentedBatch(X=X, Y=Y, extra_targets=np.zeros((0, 5)))
        base = bidirectional_loss(similarity_matrix(X, Y), CFG)
        assert augmented_bidirectional_loss(aug, CFG) == pytest.approx(base, abs=1e-12)

    def test_column_count_grows_by_h_times_n(self):
        rng = np.random.default_rng(8)
        X, Y = unit_rows(rng, 2, 4), unit_rows(rng, 2, 4)
        extra = unit_rows(rng, 2, 4)  # H=1, N=2
        aug = AugmentedBatch(X=X, Y=Y, extra_targets=extra)
        # forward softmax sees 4 columns per row
        columns = np.concatenate([Y, extra])
        assert columns.shape[0] == 4
        want = brute_force_rectangular_loss(X, columns, Y, CFG)
        assert augmented_bidirectional_loss(aug, CFG) == pytest.approx(want, abs=1e-9)

    def test_duplicate_appends_equal_repeated_columns(self):
        rng = np.random.default_rng(9)
        X, Y = unit_rows(rng, 3, 4), unit_rows(rng, 3, 4)
        aug = AugmentedBatch(X=X, Y=Y, extra_targets=Y.copy())  # duplicates of in-batch targets
        want = brute_force_rectangular_loss(X, np.concatenate([Y, Y]), Y, CFG)
        assert augmented_bidirectional_loss(aug, CFG) == pytest.approx(want, abs=1e-9)

    def test_augment_requires_all_negatives(self):
        rng = np.random.default_rng(10)
        X, Y = unit_rows(rng, 2, 4), unit_rows(rng, 2, 4)
        from bitextmine.negatives import HardNegativeSet

        negset = HardNegativeSet(negatives={"s0": [(sentence("n0"), 0.5)]}, count_per_source=1)
        with pytest.raises(ValueError):
            augment_batch_with_hard_negatives(
                X, Y, ["s0", "s1"], negset, lambda s: np.zeros(4)
            )

    def test_augment_encodes_mined_sentences(self):
        rng = np.random.default_rng(11)
        X, Y = unit_rows(rng, 2, 4), unit_rows(rng, 2, 4)
        from bitextmine.negatives import HardNegativeSet

        vec = {"n0": np.eye(4)[0], "n1": np.eye(4)[1]}
        negset = HardNegativeSet(
            negatives={
                "s0": [(sentence("n0"), 0.9)],
                "s1": [(sentence("n1"), 0.8)],
            },
            count_per_source=1,
        )
        aug = augment_batch_with_hard_negatives(
            X, Y, ["s0", "s1"], negset, lambda s: vec[s.id]
        )
        np.testing.assert_array_equal(aug.extra_targets, np.stack([vec["n0"], vec["n1"]]))
