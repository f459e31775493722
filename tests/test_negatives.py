import numpy as np
import pytest

from bitextmine.loss import LossConfig, loss_and_grad_wrt_embeddings
from bitextmine.negatives import shard_batch, sharded_bidirectional_loss

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
        base, _, _ = loss_and_grad_wrt_embeddings(X, Y, CFG)
        assert sharded_bidirectional_loss(shard_batch(X, Y, 1), CFG)[0] == pytest.approx(base, abs=1e-12)

    def test_equivalence_across_divisors(self):
        rng = np.random.default_rng(5)
        for n in (4, 8, 16):
            X, Y = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
            base, base_dX, base_dY = loss_and_grad_wrt_embeddings(X, Y, CFG)
            for k in (k for k in range(1, n + 1) if n % k == 0):
                value, dX, dY = sharded_bidirectional_loss(shard_batch(X, Y, k), CFG)
                assert abs(value - base) <= 1e-9
                np.testing.assert_array_equal(dX, base_dX)
                np.testing.assert_array_equal(dY, base_dY)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        X, Y = unit_rows(rng, 8, 5), unit_rows(rng, 8, 5)

        def loss(X, Y):
            return sharded_bidirectional_loss(shard_batch(X, Y, 4), CFG)[0]

        _, dX, dY = sharded_bidirectional_loss(shard_batch(X, Y, 4), CFG)
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

