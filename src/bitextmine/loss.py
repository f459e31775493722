"""Bidirectional additive-margin softmax ranking loss over cosine
similarity, with analytic gradients.

For a batch of N aligned pairs with unit-norm embeddings X, Y, the
similarity matrix is S = X Y^T (cosine reduces to the dot product).
Per-row logits in the source-to-target direction are

    z_ij = s * (S_ij - m * [i == j])

and the loss is the mean cross-entropy of the diagonal against each
row, computed with a numerically stable log-sum-exp. The
target-to-source direction applies the same construction to S^T; the
bidirectional loss is their sum.

This is the only logit form. A run that scaled each embedding instead
(logits s^2 * S_ij - m * [i == j], the removed embedding scale mode)
is the same loss with margin m / s^2 and scale s^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

SOURCE_TO_TARGET = "source_to_target"
TARGET_TO_SOURCE = "target_to_source"


@dataclass(frozen=True)
class LossConfig:
    margin: float = 0.3
    scale: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.margin < 1.0):
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        if not (0.0 < self.scale < float("inf")):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def similarity_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix for unit-norm rows: S = X @ Y.T."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape != Y.shape:
        raise ValueError(f"expected matching N x d matrices, got {X.shape} and {Y.shape}")
    return X @ Y.T


def _rank_rows(sim: np.ndarray, config: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ranking-loss kernel for an (n, c >= n) similarity block whose
    positive for row i is column i.

    Returns each row's -log softmax of its margined positive, and the
    derivative of that term with respect to the row's logits: the row
    softmax minus the positive indicator. The derivative with respect to
    ``sim`` is ``config.scale`` times the latter.
    """
    if not np.all(np.isfinite(sim)):
        raise NumericalError("similarity matrix contains non-finite entries")
    positive = np.eye(*sim.shape)
    z = config.scale * (sim - config.margin * positive)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1, keepdims=True)
    terms = zmax[:, 0] + np.log(total[:, 0]) - np.diagonal(z)
    return terms, e / total - positive


def ams_loss(sim: np.ndarray, config: LossConfig, direction: str = SOURCE_TO_TARGET) -> float:
    """One-directional additive-margin softmax loss over a similarity matrix."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] or sim.shape[0] < 1:
        raise ValueError(f"similarity matrix must be square and non-empty, got {sim.shape}")
    if direction == TARGET_TO_SOURCE:
        sim = sim.T
    elif direction != SOURCE_TO_TARGET:
        raise ValueError(f"unknown direction {direction!r}")
    terms, _ = _rank_rows(sim, config)
    return float(np.sum(terms) / sim.shape[0])


def bidirectional_loss(sim: np.ndarray, config: LossConfig) -> float:
    """Sum of the source-to-target and target-to-source losses."""
    return ams_loss(sim, config, SOURCE_TO_TARGET) + ams_loss(sim, config, TARGET_TO_SOURCE)


def loss_and_grad_wrt_embeddings(
    X: np.ndarray, Y: np.ndarray, config: LossConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bidirectional loss plus gradients with respect to the (normalized)
    embeddings."""
    sim = similarity_matrix(X, Y)
    n = sim.shape[0]
    fwd_terms, fwd_grad = _rank_rows(sim, config)
    bwd_terms, bwd_grad = _rank_rows(sim.T, config)
    value = float(np.sum(fwd_terms) / n) + float(np.sum(bwd_terms) / n)
    dsim = (config.scale / n) * fwd_grad + (config.scale / n) * bwd_grad.T
    dX = dsim @ Y
    dY = dsim.T @ X
    return value, dX, dY

