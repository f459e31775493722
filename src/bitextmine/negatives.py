"""Deterministic single-process simulation of cross-shard negative
sampling.

A batch of N aligned embedding pairs is split into K equal contiguous
shards. Each shard ranks its own rows against the column space gathered
from every shard, so the sharded loss and its gradients equal the
unsharded ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import LossConfig, loss_and_grad_wrt_embeddings


@dataclass
class ShardedBatch:
    shards: list[tuple[np.ndarray, np.ndarray]]  # K blocks of (X_k, Y_k)
    global_order: np.ndarray  # (K, N/K) global row index per (shard, local)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate shards back into the original batch, bit-identical."""
        n = self.global_order.size
        d = self.shards[0][0].shape[1]
        X = np.empty((n, d), dtype=self.shards[0][0].dtype)
        Y = np.empty((n, d), dtype=self.shards[0][1].dtype)
        for (xk, yk), order in zip(self.shards, self.global_order):
            X[order] = xk
            Y[order] = yk
        return X, Y


def shard_batch(X: np.ndarray, Y: np.ndarray, K: int) -> ShardedBatch:
    """Contiguous equal partition of an aligned batch into K shards."""
    X, Y = np.asarray(X), np.asarray(Y)
    if X.shape != Y.shape or X.ndim != 2:
        raise ValueError(f"X and Y must be matching N x d matrices, got {X.shape}, {Y.shape}")
    n = X.shape[0]
    if K < 1 or n % K != 0:
        raise ValueError(f"shard count {K} must divide batch size {n}")
    size = n // K
    shards = [(X[k * size : (k + 1) * size], Y[k * size : (k + 1) * size]) for k in range(K)]
    order = np.arange(n, dtype=np.int64).reshape(K, size)
    return ShardedBatch(shards=shards, global_order=order)


def sharded_bidirectional_loss(
    sharded: ShardedBatch, config: LossConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bidirectional ranking loss and its gradients with respect to the
    (normalized) embeddings of a sharded batch.

    Returns ``(loss, dX, dY)`` with gradient rows in global order. Every
    shard's rows see the full gathered column space, so the result is the
    unsharded ``loss_and_grad_wrt_embeddings`` bit for bit.
    """
    return loss_and_grad_wrt_embeddings(*sharded.reconstruct(), config)
