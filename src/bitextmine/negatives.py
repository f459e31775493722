"""Deterministic single-process simulation of cross-shard negative
sampling, plus hard-negative mining with a weaker encoder.

A batch of N aligned embedding pairs is split into K equal contiguous
shards. With the broadcast, each shard ranks its own rows against the
column space gathered from every shard, so the sharded loss and its
gradients equal the unsharded ones bit for bit. Disabling the broadcast
restricts each row to its local shard's columns, which can only shrink
softmax denominators and therefore the loss.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Sentence, SentencePair
from .loss import LossConfig, _rank_rows, loss_and_grad_wrt_embeddings


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
        X = np.empty((n, d))
        Y = np.empty((n, d))
        for (xk, yk), order in zip(self.shards, self.global_order):
            X[order] = xk
            Y[order] = yk
        return X, Y


def shard_batch(X: np.ndarray, Y: np.ndarray, K: int) -> ShardedBatch:
    """Contiguous equal partition of an aligned batch into K shards."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
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
    sharded: ShardedBatch, config: LossConfig, broadcast: bool = True
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bidirectional ranking loss and its gradients with respect to the
    (normalized) embeddings, computed shard by shard.

    Returns ``(loss, dX, dY)`` with gradient rows in global order. With
    the broadcast every shard's rows see the full gathered column space,
    and the result is the unsharded ``loss_and_grad_wrt_embeddings``
    bit for bit. Without it each row competes only against its local
    shard (the ablation setting), and each shard's loss and gradients
    are weighted by its share of the rows.
    """
    if broadcast:
        return loss_and_grad_wrt_embeddings(*sharded.reconstruct(), config)
    n = sharded.global_order.size
    d = sharded.shards[0][0].shape[1]
    value = 0.0
    dX = np.empty((n, d))
    dY = np.empty((n, d))
    for (xk, yk), rows in zip(sharded.shards, sharded.global_order):
        weight = rows.size / n
        loss_k, dxk, dyk = loss_and_grad_wrt_embeddings(xk, yk, config)
        value += weight * loss_k
        dX[rows] = weight * dxk
        dY[rows] = weight * dyk
    return value, dX, dY


@dataclass
class HardNegativeSet:
    """Per-source mined negatives: source id -> H (sentence, score) pairs."""

    negatives: dict[str, list[tuple[Sentence, float]]]
    count_per_source: int


def mine_hard_negatives(
    encode_sentence: Callable[[Sentence], np.ndarray],
    pairs: Sequence[SentencePair],
    pool: Sequence[Sentence],
    count: int = 3,
) -> HardNegativeSet:
    """Mine the highest-cosine pool sentences per source, excluding the
    true target, under a (typically weaker) encoder.

    ``encode_sentence`` maps a sentence to a unit-norm vector. Ties break
    by pool order.
    """
    if count < 1:
        raise ValueError(f"negative count must be >= 1, got {count}")
    if len(pool) < count + 1:
        raise ValueError(f"pool of {len(pool)} cannot supply {count} negatives plus the target")
    pool_vecs = np.stack([encode_sentence(s) for s in pool])
    out: dict[str, list[tuple[Sentence, float]]] = {}
    for pair in pairs:
        q = encode_sentence(pair.src)
        scores = pool_vecs @ q
        ranked = np.argsort(-scores, kind="stable")
        picked: list[tuple[Sentence, float]] = []
        for idx in ranked:
            if pool[idx].id == pair.tgt.id:
                continue
            picked.append((pool[idx], float(scores[idx])))
            if len(picked) == count:
                break
        out[pair.src.id] = picked
    return HardNegativeSet(negatives=out, count_per_source=count)


@dataclass
class AugmentedBatch:
    """Aligned batch whose source-to-target direction gained extra columns."""

    X: np.ndarray  # (N, d) source embeddings
    Y: np.ndarray  # (N, d) positive target embeddings
    extra_targets: np.ndarray  # (H*N, d) mined negatives, grouped by source


def augment_batch_with_hard_negatives(
    X: np.ndarray,
    Y: np.ndarray,
    src_ids: Sequence[str],
    negset: HardNegativeSet,
    encode_sentence: Callable[[Sentence], np.ndarray],
) -> AugmentedBatch:
    """Append each source's mined negatives to the target column space.

    Mined targets never appear as positives; the target-to-source
    direction is unaffected. With count_per_source == 0 this is the
    identity extension.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if len(src_ids) != X.shape[0]:
        raise ValueError("one source id per batch row is required")
    h = negset.count_per_source
    extras: list[np.ndarray] = []
    for sid in src_ids:
        mined = negset.negatives.get(sid)
        if mined is None or len(mined) != h:
            raise ValueError(f"source {sid!r} lacks its {h} mined negatives")
        for sent, _ in mined:
            extras.append(encode_sentence(sent))
    extra = np.stack(extras) if extras else np.zeros((0, X.shape[1]))
    return AugmentedBatch(X=X, Y=Y, extra_targets=extra)


def augmented_bidirectional_loss(batch: AugmentedBatch, config: LossConfig) -> float:
    """Bidirectional loss where forward rows rank against [Y; extras]."""
    n = batch.X.shape[0]
    columns = np.concatenate([batch.Y, batch.extra_targets], axis=0)
    fwd, _ = _rank_rows(batch.X @ columns.T, config)
    bwd, _ = _rank_rows(batch.Y @ batch.X.T, config)
    return float(np.sum(fwd) / n + np.sum(bwd) / n)
