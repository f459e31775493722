"""The softmax cross-entropy kernel of both training objectives, and the
bidirectional additive-margin ranking loss built on it.

``softmax_cross_entropy`` scores an (n, c) block of logits against one
target column per row, with a numerically stable log-sum-exp. It has two
callers:

  * the ranking loss here. For a batch of N aligned pairs with unit-norm
    embeddings X, Y, the similarity matrix is S = X Y^T (cosine reduces
    to the dot product). The source-to-target logits are

        z_ij = s * (S_ij - m * [i == j])

    with row i's target at column i. The target-to-source direction
    builds the same logits from S^T. The loss is the sum of the two
    directions' mean cross-entropies;
  * the masked-token head (``encoder.mlm_loss_and_grad``), whose logits
    score each masked position against the vocabulary and whose targets
    are the original token ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class LossConfig:
    margin: float = 0.3
    scale: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.margin < 1.0):
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        if not (0.0 < self.scale < float("inf")):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each row of an (n, c) logit block against its
    target column ``targets[i]``.

    Returns each row's ``-log softmax`` at its target, and the derivative
    of that term with respect to the row's logits: the row softmax minus
    the one-hot target. Non-finite logits raise NumericalError.
    """
    if not np.all(np.isfinite(logits)):
        raise NumericalError("logits contain non-finite entries")
    rows = np.arange(logits.shape[0])
    zmax = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - zmax)
    total = e.sum(axis=1, keepdims=True)
    terms = zmax[:, 0] + np.log(total[:, 0]) - logits[rows, targets]
    e /= total
    e[rows, targets] -= 1.0
    return terms, e


def _rank_rows(sim: np.ndarray, config: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """The kernel over an (n, c >= n) similarity block whose positive for
    row i is column i, with the margin and scale applied. The derivative
    with respect to ``sim`` is ``config.scale`` times the returned one.

    The logits are a C-ordered copy of ``sim`` (also of a transposed view)
    with the margin taken from its diagonal, then scaled in place: bit for
    bit ``scale * (sim - margin * eye)``, as ``x - 0.0`` is ``x``."""
    n, c = sim.shape
    z = np.array(sim, order="C")
    z.reshape(-1)[:: c + 1] -= config.margin  # z[i, i] for each of the n rows, as c >= n
    z *= config.scale
    return softmax_cross_entropy(z, np.arange(n))


def loss_and_grad_wrt_embeddings(
    X: np.ndarray, Y: np.ndarray, config: LossConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bidirectional loss plus gradients with respect to the (normalized)
    embeddings, two matching N x d matrices, computed in their dtype."""
    X, Y = np.asarray(X), np.asarray(Y)
    if X.ndim != 2 or X.shape != Y.shape:
        raise ValueError(f"expected matching N x d matrices, got {X.shape} and {Y.shape}")
    sim = X @ Y.T
    n = sim.shape[0]
    fwd_terms, fwd_grad = _rank_rows(sim, config)
    bwd_terms, bwd_grad = _rank_rows(sim.T, config)
    value = float(np.sum(fwd_terms) / n) + float(np.sum(bwd_terms) / n)
    dsim = (config.scale / n) * fwd_grad + (config.scale / n) * bwd_grad.T
    dX = dsim @ Y
    dY = dsim.T @ X
    return value, dX, dY
