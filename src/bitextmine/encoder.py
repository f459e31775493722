"""Layered sentence encoder producing unit-norm embeddings, with
masked-token-prediction training objectives and progressive layer
stacking.

Architecture:

    embed -> L residual blocks h + tanh((M h) W + b)

where M sums each position with its left and right neighbours, padding
excluded, so a masked position sees its context. Sentence path:
mean-pool the final hidden states over non-padding positions, apply the
output projection, L2-normalize. The masked-token path instead projects
each masked position and applies the prediction head. Residual blocks
keep the identity function reachable (zero weights), M adds no
parameters, and everything is smooth, so analytic gradients can be
checked against central finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .corpus import SentencePair
from .errors import NumericalError
from .vocab import CLS_ID, MASK_ID, PAD_ID, SEP_ID, Vocab, word_tokens

_NORM_EPS = 1e-12


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden_dim: int
    num_layers: int
    max_seq_len: int
    embed_dim: int = 0  # 0 means "same as hidden_dim"

    def __post_init__(self) -> None:
        if self.embed_dim == 0:
            object.__setattr__(self, "embed_dim", self.hidden_dim)
        for name in ("vocab_size", "hidden_dim", "num_layers", "max_seq_len", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class LayerParams:
    weight: np.ndarray  # (d, d)
    bias: np.ndarray  # (d,)


@dataclass
class EncoderParams:
    config: EncoderConfig
    token_embeddings: np.ndarray  # (V, d)
    layers: list[LayerParams]
    output_weight: np.ndarray  # (d, e)
    output_bias: np.ndarray  # (e,)
    mlm_weight: np.ndarray  # (e, V)
    mlm_bias: np.ndarray  # (V,)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Parameter tensors in the declared (checkpoint) order."""
        yield "token_embeddings", self.token_embeddings
        for i, layer in enumerate(self.layers):
            yield f"layers.{i}.weight", layer.weight
            yield f"layers.{i}.bias", layer.bias
        yield "output.weight", self.output_weight
        yield "output.bias", self.output_bias
        yield "mlm.weight", self.mlm_weight
        yield "mlm.bias", self.mlm_bias

    @classmethod
    def build(
        cls, config: EncoderConfig, make: Callable[[tuple[int, ...]], np.ndarray]
    ) -> "EncoderParams":
        """Make each tensor from its shape, in the declared (checkpoint) order."""
        d, e, v = config.hidden_dim, config.embed_dim, config.vocab_size
        return cls(
            config=config,
            token_embeddings=make((v, d)),
            layers=[LayerParams(make((d, d)), make((d,))) for _ in range(config.num_layers)],
            output_weight=make((d, e)),
            output_bias=make((e,)),
            mlm_weight=make((e, v)),
            mlm_bias=make((v,)),
        )

    def copy(self) -> "EncoderParams":
        arrays = (arr for _, arr in self.named_arrays())
        return EncoderParams.build(self.config, lambda _shape: next(arrays).copy())


def init_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    d, e, v = config.hidden_dim, config.embed_dim, config.vocab_size
    return EncoderParams(
        config=config,
        token_embeddings=rng.normal(0.0, 0.1, (v, d)),
        layers=[
            LayerParams(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d)), np.zeros(d))
            for _ in range(config.num_layers)
        ],
        output_weight=rng.normal(0.0, 1.0 / math.sqrt(d), (d, e)),
        output_bias=np.zeros(e),
        mlm_weight=rng.normal(0.0, 0.02, (e, v)),
        mlm_bias=np.zeros(v),
    )


def zeros_like_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams.build(params.config, np.zeros)


def _as_id_array(tokens: Sequence[int]) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("token sequence must be a non-empty 1-D id list")
    return arr


def encode(params: EncoderParams, tokens: Sequence[int]) -> np.ndarray:
    """Embed one token sequence as a unit-norm vector."""
    return encode_batch(params, [tokens])[0]


_ENCODE_CHUNK = 256  # sequences per batched forward in encode_batch


def encode_batch(
    params: EncoderParams, batch: Sequence[Sequence[int]]
) -> np.ndarray:
    """Unit-norm embeddings, one row per item, in input order.

    Items of equal length run through the batched forward together,
    unpadded, in chunks of at most ``_ENCODE_CHUNK``. Every row is thus
    bitwise equal to encode() of its item, whatever else is in the batch.
    """
    arrs = [_as_id_array(item) for item in batch]
    out = np.empty((len(arrs), params.config.embed_dim))
    by_length: dict[int, list[int]] = {}
    for i, arr in enumerate(arrs):
        by_length.setdefault(arr.size, []).append(i)
    for rows in by_length.values():
        for start in range(0, len(rows), _ENCODE_CHUNK):
            chunk = rows[start : start + _ENCODE_CHUNK]
            ids = np.stack([arrs[i] for i in chunk])
            out[chunk] = _embed(params, _forward_hiddens(params, ids, keep=False))
    return out


# ---------------------------------------------------------------------------
# The batched forward, shared by encoding, fine-tuning and the masked-token
# objectives, and its backward. Each block reads its position and both
# neighbours through the band matrix M (B, T, T) = I + shift(+1) + shift(-1)
# with padding columns zeroed:
#
#     x = M h;  h' = h + tanh(x W + b)
#
# Every product is batched over the leading axis, so a row's arithmetic
# does not depend on the other rows; the output projection is stacked as
# (B, 1, d) @ (d, e) for the same reason (a 2-D product's rows change with
# the batch size). encode_batch relies on this for bitwise-equal rows.
# Padded batches (forward_batch) give rows mathematically equal to encode().
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    ids: np.ndarray  # (B, T) padded with PAD_ID
    content_mask: np.ndarray  # (B, T) bool
    counts: np.ndarray  # (B,)
    band: np.ndarray  # (B, T, T) neighbour mixing matrix M
    hiddens: list[np.ndarray]  # H_0 .. H_L, each (B, T, d); only H_L unless kept
    gates: list[np.ndarray]  # tanh outputs per layer, (B, T, d); empty unless kept
    pooled: np.ndarray | None = None  # (B, d)
    pre_norm: np.ndarray | None = None  # (B, e)
    norms: np.ndarray | None = None  # (B,)


def pad_batch(batch: Sequence[Sequence[int]]) -> np.ndarray:
    arrs = [_as_id_array(item) for item in batch]
    width = max(a.size for a in arrs)
    ids = np.full((len(arrs), width), PAD_ID, dtype=np.int64)
    for i, a in enumerate(arrs):
        ids[i, : a.size] = a
    return ids


def _band(mask: np.ndarray) -> np.ndarray:
    """M[b, t, s] = 1 where |t - s| <= 1 and position s is content."""
    pos = np.arange(mask.shape[1])
    near = np.abs(pos[:, None] - pos[None, :]) <= 1
    return (near[None, :, :] & mask[:, None, :]).astype(np.float64)


def _forward_hiddens(params: EncoderParams, ids: np.ndarray, keep: bool = True) -> ForwardCache:
    """Run the blocks over (B, T) ids; ``keep`` retains what backprop needs."""
    if ids.shape[1] > params.config.max_seq_len:
        raise ValueError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len {params.config.max_seq_len}"
        )
    if ids.min() < 0 or ids.max() >= params.config.vocab_size:
        raise ValueError("token id out of range")
    mask = ids != PAD_ID
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("sequence has no content positions (all padding)")
    band = _band(mask)
    h = params.token_embeddings[ids]
    hiddens = [h]
    gates = []
    for layer in params.layers:
        g = np.tanh((band @ h) @ layer.weight + layer.bias)
        h = h + g
        if keep:
            gates.append(g)
            hiddens.append(h)
    return ForwardCache(
        ids=ids,
        content_mask=mask,
        counts=counts,
        band=band,
        hiddens=hiddens if keep else [h],
        gates=gates,
    )


def _embed(params: EncoderParams, cache: ForwardCache) -> np.ndarray:
    """Mean-pool content positions, project, L2-normalize (fills the cache)."""
    top = cache.hiddens[-1]
    weighted = cache.content_mask[:, :, None] / cache.counts[:, None, None]
    cache.pooled = (top * weighted).sum(axis=1)
    u = (cache.pooled[:, None, :] @ params.output_weight)[:, 0, :] + params.output_bias
    cache.pre_norm = u
    cache.norms = np.linalg.norm(u, axis=1)
    if np.any(cache.norms < _NORM_EPS):
        raise NumericalError("degenerate encoder state: zero vector before normalization")
    return u / cache.norms[:, None]


def forward_batch(
    params: EncoderParams, batch: Sequence[Sequence[int]]
) -> tuple[np.ndarray, ForwardCache]:
    """Unit-norm embeddings for a padded batch, plus the cache for backprop."""
    cache = _forward_hiddens(params, pad_batch(batch))
    return _embed(params, cache), cache


def grad_through_normalization(cache: ForwardCache, d_normalized: np.ndarray) -> np.ndarray:
    """Map d(loss)/d(normalized) to d(loss)/d(pre-norm) via the L2 Jacobian."""
    u = cache.pre_norm
    norms = cache.norms[:, None]
    v = u / norms
    inner = (d_normalized * v).sum(axis=1, keepdims=True)
    return (d_normalized - inner * v) / norms


def _backward_layers(
    params: EncoderParams, cache: ForwardCache, d_top: np.ndarray, grads: EncoderParams
) -> None:
    """Backprop from d(loss)/d(H_L) into layer and embedding gradients.

    With da = dh' * (1 - g^2) and e = M^T da: dW = h^T e, db = sum(da),
    dh = dh' + e W^T, so the mixed input M h is never stored.
    """
    d = params.config.hidden_dim
    band_t = cache.band.transpose(0, 2, 1)
    dh = d_top
    for l in range(len(params.layers) - 1, -1, -1):
        da = dh * (1.0 - cache.gates[l] ** 2)
        mixed = band_t @ da
        grads.layers[l].weight += cache.hiddens[l].reshape(-1, d).T @ mixed.reshape(-1, d)
        grads.layers[l].bias += da.sum(axis=(0, 1))
        dh = dh + mixed @ params.layers[l].weight.T
    np.add.at(grads.token_embeddings, cache.ids.ravel(), dh.reshape(-1, d))


def backward_batch(
    params: EncoderParams,
    cache: ForwardCache,
    d_pre_norm: np.ndarray,
    grads: EncoderParams | None = None,
) -> EncoderParams:
    """Accumulate parameter gradients from d(loss)/d(pre-norm embeddings)."""
    grads = grads if grads is not None else zeros_like_params(params)
    grads.output_weight += cache.pooled.T @ d_pre_norm
    grads.output_bias += d_pre_norm.sum(axis=0)
    dpooled = d_pre_norm @ params.output_weight.T
    weighted = cache.content_mask[:, :, None] / cache.counts[:, None, None]
    d_top = dpooled[:, None, :] * weighted
    _backward_layers(params, cache, d_top, grads)
    return grads


# ---------------------------------------------------------------------------
# Masked-token objectives (monolingual and translation-pair variants).
# ---------------------------------------------------------------------------

MLM_FRACTION = 0.2
MLM_CAP = 80

_NEVER_MASK = (PAD_ID, CLS_ID, SEP_ID)


@dataclass
class MaskedBatch:
    input_ids: np.ndarray  # (B, T), masked positions replaced by MASK
    target_ids: np.ndarray  # (B, T), original ids
    mask_positions: np.ndarray  # (B, T) bool

    def masked_count(self) -> int:
        return int(self.mask_positions.sum())


def plan_masks(
    batch: Sequence[Sequence[int]],
    rng: np.random.Generator,
    fraction: float = MLM_FRACTION,
    cap: int = MLM_CAP,
) -> MaskedBatch:
    """Mask min(ceil(fraction * maskable), cap) positions per sequence.

    Masked positions are replaced by the MASK id (no random/keep split).
    Special tokens and padding are never masked.
    """
    ids = pad_batch(batch)
    input_ids = ids.copy()
    positions = np.zeros_like(ids, dtype=bool)
    for row in range(ids.shape[0]):
        maskable = np.flatnonzero(~np.isin(ids[row], _NEVER_MASK))
        if maskable.size == 0:
            continue
        n = min(math.ceil(fraction * maskable.size), cap)
        chosen = rng.choice(maskable, size=n, replace=False)
        positions[row, chosen] = True
        input_ids[row, chosen] = MASK_ID
    return MaskedBatch(input_ids=input_ids, target_ids=ids, mask_positions=positions)


def mlm_loss_and_grad(
    params: EncoderParams, batch: MaskedBatch
) -> tuple[float, EncoderParams]:
    """Mean cross-entropy at masked positions, with analytic gradients."""
    m_total = batch.masked_count()
    if m_total == 0:
        raise ValueError("no masked positions in batch")
    cache = _forward_hiddens(params, batch.input_ids)
    top = cache.hiddens[-1]
    rows = top[batch.mask_positions]  # (M, d)
    proj = rows @ params.output_weight + params.output_bias  # (M, e)
    logits = proj @ params.mlm_weight + params.mlm_bias  # (M, V)
    targets = batch.target_ids[batch.mask_positions]

    zmax = logits.max(axis=1, keepdims=True)
    shifted = logits - zmax
    lse = zmax[:, 0] + np.log(np.exp(shifted).sum(axis=1))
    picked = logits[np.arange(m_total), targets]
    loss = float(np.sum(lse - picked) / m_total)
    if not math.isfinite(loss):
        raise NumericalError("non-finite masked-prediction loss")

    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    dlogits = probs
    dlogits[np.arange(m_total), targets] -= 1.0
    dlogits /= m_total

    grads = zeros_like_params(params)
    grads.mlm_weight += proj.T @ dlogits
    grads.mlm_bias += dlogits.sum(axis=0)
    dproj = dlogits @ params.mlm_weight.T
    grads.output_weight += rows.T @ dproj
    grads.output_bias += dproj.sum(axis=0)
    d_top = np.zeros_like(top)
    d_top[batch.mask_positions] = dproj @ params.output_weight.T
    _backward_layers(params, cache, d_top, grads)
    return loss, grads


def tlm_sequence(pair: SentencePair, vocab: Vocab, max_len: int) -> tuple[int, ...]:
    """Concatenated translation-pair layout [CLS] src [SEP] tgt [SEP].

    An empty side drops its segment (and separator); no language
    identifier token is inserted. Truncation trims the longer segment
    token by token until the layout fits max_len.
    """
    segments = []
    for side in (pair.src, pair.tgt):
        toks: list[int] = []
        for word in side.text.split():
            toks.extend(word_tokens(word, vocab))
        if toks:
            segments.append(toks)
    total = 1 + sum(len(s) + 1 for s in segments)
    if total < 3:
        raise ValueError("translation-pair sequence shorter than 3 tokens")
    budget = max_len - 1 - len(segments)
    while sum(len(s) for s in segments) > budget:
        longest = max(segments, key=len)
        longest.pop()
    ids: list[int] = [CLS_ID]
    for seg in segments:
        ids.extend(seg)
        ids.append(SEP_ID)
    return tuple(ids)


def stack_grow(params: EncoderParams, target_layers: int) -> EncoderParams:
    """Duplicate the trained layer stack to initialize a deeper encoder.

    Output layer j copies input layer j mod L bitwise; all other tensors
    are copied verbatim.
    """
    current = len(params.layers)
    if target_layers < current or target_layers % current != 0:
        raise ValueError(
            f"target_layers={target_layers} must be a positive multiple of {current}"
        )
    grown = params.copy()
    grown.config = replace(params.config, num_layers=target_layers)
    grown.layers = [
        LayerParams(
            params.layers[j % current].weight.copy(),
            params.layers[j % current].bias.copy(),
        )
        for j in range(target_layers)
    ]
    return grown

