"""Layered sentence encoder producing unit-norm embeddings, with
masked-token-prediction training objectives and progressive layer
stacking.

Architecture:

    embed -> L residual blocks h + tanh((M h) W + b)

where M sums each position with its left and right neighbours in the same
sentence, so a masked position sees its context. A batch is packed: its
sentences' ids one after another, with their bounds ("The packed forward"
below).
Sentence path: mean-pool each sentence's final hidden states, apply the
output projection, L2-normalize. The masked-token path instead projects
each masked position and applies the prediction head. Its logits over
the vocabulary, with the original token ids as targets, go through the
softmax cross-entropy kernel that the ranking loss also uses
(``loss.softmax_cross_entropy``), and the loss is its mean over the
masked positions. Residual blocks keep the identity function reachable
(zero weights), M adds no parameters, and everything is smooth, so
analytic gradients can be checked against central finite differences.

Parameters are float32 (``PARAM_DTYPE``), as ``init_params`` makes them
and checkpoints store them. Every kernel computes in the dtype of
``params.flat``, so float64 parameters run the same forward, backward and
masked-token head in float64; the finite-difference checks rely on that.
``encode_batch`` rows come out in that dtype too, and ``vecindex`` widens
pools and queries to float64, so every reported score is a float64 cosine.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .corpus import SentencePair
from .errors import NumericalError
from .loss import softmax_cross_entropy
from .vocab import CLS_ID, MASK_ID, PAD_ID, SEP_ID, Vocab, content_ids

_NORM_EPS = 1e-12
PARAM_DTYPE = np.float32  # of init_params and of every checkpoint


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


def _shapes(config: EncoderConfig) -> list[tuple[int, ...]]:
    """Parameter tensor shapes in the declared (checkpoint) order."""
    d, e, v = config.hidden_dim, config.embed_dim, config.vocab_size
    return [(v, d), *[(d, d), (d,)] * config.num_layers, (d, e), (e,), (e, v), (v,)]


def param_count(config: EncoderConfig) -> int:
    return sum(math.prod(shape) for shape in _shapes(config))


@dataclass
class EncoderParams:
    """The encoder's parameters in one contiguous vector, ``flat``
    (float32 from ``init_params`` and checkpoints). Every named tensor is
    a view into it, laid out in ``named_arrays`` order, so gradients and
    optimizer moments can be vectors of the same layout. Write into the
    tensors; never rebind them."""

    config: EncoderConfig
    flat: np.ndarray  # (param_count(config),)
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
    def from_flat(cls, config: EncoderConfig, flat: np.ndarray) -> "EncoderParams":
        """View ``flat`` (not copied) as the tensors of ``config``."""
        if flat.shape != (param_count(config),):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {config}")
        views, start = [], 0
        for shape in _shapes(config):
            stop = start + math.prod(shape)
            views.append(flat[start:stop].reshape(shape))
            start = stop
        embeddings, *layer_views, output_weight, output_bias, mlm_weight, mlm_bias = views
        return cls(
            config=config,
            flat=flat,
            token_embeddings=embeddings,
            layers=[LayerParams(w, b) for w, b in zip(layer_views[::2], layer_views[1::2])],
            output_weight=output_weight,
            output_bias=output_bias,
            mlm_weight=mlm_weight,
            mlm_bias=mlm_bias,
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams.from_flat(self.config, self.flat.copy())


def init_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    d, e, v = config.hidden_dim, config.embed_dim, config.vocab_size
    params = EncoderParams.from_flat(config, np.zeros(param_count(config), dtype=PARAM_DTYPE))
    params.token_embeddings[:] = rng.normal(0.0, 0.1, (v, d))
    for layer in params.layers:  # biases stay zero
        layer.weight[:] = rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))
    params.output_weight[:] = rng.normal(0.0, 1.0 / math.sqrt(d), (d, e))
    params.mlm_weight[:] = rng.normal(0.0, 0.02, (e, v))
    return params


def zeros_like_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams.from_flat(params.config, np.zeros_like(params.flat))


def _as_id_array(tokens: Sequence[int]) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("token sequence must be a non-empty 1-D id list")
    return arr


def _pack(batch: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The batch's ids, sentence after sentence, (N,), and its bounds,
    (B + 1,): sentence b is ids[bounds[b]:bounds[b + 1]]."""
    arrs = [_as_id_array(item) for item in batch]
    return np.concatenate(arrs), np.cumsum([0] + [a.size for a in arrs])


def encode(params: EncoderParams, tokens: Sequence[int]) -> np.ndarray:
    """Embed one token sequence as a unit-norm vector."""
    return encode_batch(params, [tokens])[0]


_ENCODE_CHUNK = 64  # sequences per packed forward in encode_batch
_BLOCK_ROWS = 64  # row granularity of the forward's hidden-state block


def encode_batch(
    params: EncoderParams, batch: Sequence[Sequence[int]]
) -> np.ndarray:
    """Unit-norm embeddings, one row per item, in input order.

    Items run through the packed forward in input order, in chunks of at
    most ``_ENCODE_CHUNK``. Every row is bitwise equal to encode() of its
    item, whatever else is in the batch, except for a bare one-token item,
    whose lone encode() may differ in the last bits (see below).
    """
    out = np.empty((len(batch), params.config.embed_dim), dtype=params.flat.dtype)
    for start in range(0, len(batch), _ENCODE_CHUNK):
        cache = _forward_hiddens(params, *_pack(batch[start : start + _ENCODE_CHUNK]), keep=False)
        out[start : start + _ENCODE_CHUNK] = _embed(params, cache)
    return out


# ---------------------------------------------------------------------------
# The packed forward, shared by encoding, fine-tuning and the masked-token
# objectives, and its backward. A batch is one (N, d) block with a row per
# position, sentence after sentence; sentence b is rows bounds[b]:bounds[b + 1].
# M adds each row's neighbours in its sentence: two shifts over the whole
# block, each followed by restoring the rows that it fed across a boundary:
#
#     y = h W;  h' = h + tanh(M y + b)      ((M h) W = M (h W))
#
# M is symmetric, so the backward's M^T da is the same shifts. Rows are
# bitwise equal whatever else is in the block: the shifts, tanh and the
# per-sentence sums work row by row, and a 2-D product of two or more rows
# gives each row the same bits. A one-row product takes numpy's
# matrix-vector path, which rounds differently, so the output projection
# is stacked, (B, 1, d) @ (d, e), whatever B.
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    ids: np.ndarray  # (N,) token id of each position, sentence after sentence
    bounds: np.ndarray  # (B + 1,) sentence b is rows bounds[b]:bounds[b + 1]
    hiddens: np.ndarray  # (L + 1, N, d) H_0 .. H_L; only H_L, (1, N, d), unless kept
    gates: np.ndarray  # (L, N, d) tanh outputs per layer; meaningless unless kept
    pooled: np.ndarray | None = None  # (B, d)
    pre_norm: np.ndarray | None = None  # (B, e)
    norms: np.ndarray | None = None  # (B,)


def _add_neighbours(out: np.ndarray, h: np.ndarray, bounds: np.ndarray) -> None:
    """out += (M - I) h: add to each row its left and right neighbours in
    the same sentence."""
    # One sentence has no boundary rows. mining.mine encodes one sentence
    # per call, and there their copies took about a fifth of the forward.
    if bounds.size == 2:
        out[1:] += h[:-1]
        out[:-1] += h[1:]
        return
    starts = bounds[1:-1]  # first rows of all sentences but the first
    ends = starts - 1  # last rows of all sentences but the last
    kept = out[starts]
    out[1:] += h[:-1]
    out[starts] = kept
    kept = out[ends]
    out[:-1] += h[1:]
    out[ends] = kept


def _forward_hiddens(
    params: EncoderParams, ids: np.ndarray, bounds: np.ndarray, keep: bool = True
) -> ForwardCache:
    """Run the blocks over packed ids, (N,), with sentence bounds, (B + 1,),
    every sentence non-empty; ``keep`` retains what backprop needs."""
    longest = np.diff(bounds).max()
    if longest > params.config.max_seq_len:
        raise ValueError(
            f"sequence length {longest} exceeds max_seq_len {params.config.max_seq_len}"
        )
    if PAD_ID in ids or ids.min() < 0 or ids.max() >= params.config.vocab_size:
        raise ValueError("token id out of range or PAD")
    n, d, depth = ids.size, params.config.hidden_dim, len(params.layers)
    # Hidden states and gates share one block. Its rows are rounded up to a
    # multiple of _BLOCK_ROWS, so that batches of similar size reuse freed
    # blocks instead of fragmenting the heap with slightly different sizes.
    rows = -(-n // _BLOCK_ROWS) * _BLOCK_ROWS
    block = np.empty((2 * depth + 1 if keep else 2, rows, d), dtype=params.flat.dtype)[:, :n]
    hiddens, gates = (block[: depth + 1], block[depth + 1 :]) if keep else (block[:1], block[1:])
    h = params.token_embeddings.take(ids, axis=0, out=hiddens[0])
    for l, layer in enumerate(params.layers):
        y = h @ layer.weight
        g = np.add(y, layer.bias, out=gates[l if keep else 0])
        _add_neighbours(g, y, bounds)
        np.tanh(g, out=g)
        h = np.add(h, g, out=hiddens[l + 1 if keep else 0])
    return ForwardCache(ids=ids, bounds=bounds, hiddens=hiddens, gates=gates)


def _embed(params: EncoderParams, cache: ForwardCache) -> np.ndarray:
    """Mean-pool each sentence's rows, project, L2-normalize (fills the cache)."""
    top = cache.hiddens[-1]
    counts = np.diff(cache.bounds).astype(top.dtype)
    cache.pooled = np.add.reduceat(top, cache.bounds[:-1], axis=0) / counts[:, None]
    u = (cache.pooled[:, None, :] @ params.output_weight)[:, 0, :] + params.output_bias
    cache.pre_norm = u
    cache.norms = np.linalg.norm(u, axis=1)
    if np.any(cache.norms < _NORM_EPS):
        raise NumericalError("degenerate encoder state: zero vector before normalization")
    return u / cache.norms[:, None]


def forward_batch(
    params: EncoderParams, batch: Sequence[Sequence[int]]
) -> tuple[np.ndarray, ForwardCache]:
    """Unit-norm embeddings for a batch, plus the cache for backprop."""
    cache = _forward_hiddens(params, *_pack(batch))
    return _embed(params, cache), cache


def _grad_through_normalization(cache: ForwardCache, d_normalized: np.ndarray) -> np.ndarray:
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

    With da = dh' * (1 - g^2) and e = M^T da = M da: dW = h^T e,
    db = sum(da), dh = dh' + e W^T.
    """
    dh = d_top
    for l in range(len(params.layers) - 1, -1, -1):
        da = dh * (1.0 - cache.gates[l] ** 2)
        mixed = da.copy()
        _add_neighbours(mixed, da, cache.bounds)
        grads.layers[l].weight += cache.hiddens[l].T @ mixed
        grads.layers[l].bias += da.sum(axis=0)
        dh = dh + mixed @ params.layers[l].weight.T
    _scatter_add(grads.token_embeddings, cache.ids, dh)


def _scatter_add(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """np.add.at(target, ids, rows), several times faster and in the rows'
    dtype: sort the rows by id, then sum each id's run with one reduceat."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    target[sorted_ids[starts]] += np.add.reduceat(rows.take(order, axis=0), starts, axis=0)


def backward_batch(
    params: EncoderParams,
    cache: ForwardCache,
    d_embeddings: np.ndarray,
    grads: EncoderParams | None = None,
) -> EncoderParams:
    """Accumulate parameter gradients from d(loss)/d(the unit-norm
    embeddings ``forward_batch`` returned with ``cache``)."""
    grads = grads if grads is not None else zeros_like_params(params)
    d_pre_norm = _grad_through_normalization(cache, d_embeddings)
    grads.output_weight += cache.pooled.T @ d_pre_norm
    grads.output_bias += d_pre_norm.sum(axis=0)
    dpooled = d_pre_norm @ params.output_weight.T
    counts = np.diff(cache.bounds)
    d_top = np.repeat(dpooled / counts[:, None].astype(dpooled.dtype), counts, axis=0)
    _backward_layers(params, cache, d_top, grads)
    return grads


# ---------------------------------------------------------------------------
# Masked-token objectives (monolingual and translation-pair variants).
# ---------------------------------------------------------------------------

MLM_FRACTION = 0.2
MLM_CAP = 80

_NEVER_MASK = (CLS_ID, SEP_ID)


@dataclass
class MaskedBatch:
    input_ids: np.ndarray  # (N,), masked positions replaced by MASK
    target_ids: np.ndarray  # (N,), original ids
    mask_positions: np.ndarray  # (N,) bool
    bounds: np.ndarray  # (B + 1,) sequence b is positions bounds[b]:bounds[b + 1]

    def masked_count(self) -> int:
        return int(self.mask_positions.sum())


def plan_masks(
    batch: Sequence[Sequence[int]],
    rng: np.random.Generator,
    fraction: float = MLM_FRACTION,
    cap: int = MLM_CAP,
) -> MaskedBatch:
    """Mask min(ceil(fraction * maskable), cap) positions per sequence.

    The n maskable positions with the smallest uniform draws are replaced
    by the MASK id (no random/keep split). Special tokens are never
    masked. The draws come from one (B, longest) uniform matrix, whose
    row b gives sequence b's positions their draws in order.
    """
    if fraction > 1.0:
        raise ValueError(f"mask fraction must be at most 1, got {fraction}")
    ids, bounds = _pack(batch)
    lengths = np.diff(bounds)
    seq = np.repeat(np.arange(lengths.size), lengths)  # sequence of each position
    offset = np.arange(ids.size) - bounds[seq]  # position within its sequence
    maskable = ~np.isin(ids, _NEVER_MASK)
    counts = np.add.reduceat(maskable, bounds[:-1], dtype=np.int64)
    n = np.minimum(np.ceil(fraction * counts), cap).astype(np.int64)
    draws = rng.random((lengths.size, lengths.max()))[seq, offset]
    draws[~maskable] = np.inf
    # Sorted by (sequence, draw), sequence b still fills bounds[b]:bounds[b + 1],
    # so offset gives each position's rank among its sequence's draws.
    positions = np.empty_like(maskable)
    positions[np.lexsort((draws, seq))] = offset < n[seq]
    input_ids = np.where(positions, MASK_ID, ids)
    return MaskedBatch(input_ids=input_ids, target_ids=ids, mask_positions=positions, bounds=bounds)


def mlm_loss_and_grad(
    params: EncoderParams, batch: MaskedBatch, grads: EncoderParams | None = None
) -> tuple[float, EncoderParams]:
    """Mean cross-entropy at masked positions (``softmax_cross_entropy``
    of their vocabulary logits); its analytic gradients are accumulated
    into ``grads`` (fresh zeros if None)."""
    m_total = batch.masked_count()
    if m_total == 0:
        raise ValueError("no masked positions in batch")
    cache = _forward_hiddens(params, batch.input_ids, batch.bounds)
    masked = batch.mask_positions
    top = cache.hiddens[-1]
    rows = top[masked]  # (M, d)
    proj = rows @ params.output_weight + params.output_bias  # (M, e)
    logits = proj @ params.mlm_weight + params.mlm_bias  # (M, V)
    terms, dlogits = softmax_cross_entropy(logits, batch.target_ids[masked])
    loss = float(np.sum(terms) / m_total)
    dlogits /= m_total

    grads = grads if grads is not None else zeros_like_params(params)
    grads.mlm_weight += proj.T @ dlogits
    grads.mlm_bias += dlogits.sum(axis=0)
    dproj = dlogits @ params.mlm_weight.T
    grads.output_weight += rows.T @ dproj
    grads.output_bias += dproj.sum(axis=0)
    d_top = np.zeros_like(top)
    d_top[masked] = dproj @ params.output_weight.T
    _backward_layers(params, cache, d_top, grads)
    return loss, grads


def tlm_sequence(pair: SentencePair, vocab: Vocab, max_len: int) -> tuple[int, ...]:
    """Concatenated translation-pair layout [CLS] src [SEP] tgt [SEP].

    An empty side drops its segment (and separator); no language
    identifier token is inserted. Truncation trims the longer segment
    token by token until the layout fits max_len; a max_len that cannot
    keep a token of each non-empty side is refused.
    """
    sides = (content_ids(pair.src.text, vocab), content_ids(pair.tgt.text, vocab))
    segments = [toks for toks in sides if toks]
    total = 1 + sum(len(s) + 1 for s in segments)
    if total < 3:
        raise ValueError("translation-pair sequence shorter than 3 tokens")
    if max_len < 1 + 2 * len(segments):
        raise ValueError(
            f"max_len {max_len} cannot hold [CLS] and, per non-empty side, a token and [SEP]"
        )
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
    # The layers lie between the embeddings and the output tensors, so
    # tiling their block makes output layer j a copy of layer j mod L.
    head = params.token_embeddings.size
    tail = head + sum(layer.weight.size + layer.bias.size for layer in params.layers)
    flat = np.concatenate(
        (
            params.flat[:head],
            np.tile(params.flat[head:tail], target_layers // current),
            params.flat[tail:],
        )
    )
    return EncoderParams.from_flat(replace(params.config, num_layers=target_layers), flat)
