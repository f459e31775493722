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
``encode_batch`` rows come out in that dtype too. ``vecindex`` stores
pool rows in float32, as pool files do, and widens them and the queries
to float64 to score, so every reported score is a float64 cosine.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .loss import softmax_cross_entropy
from .vecindex import stable_order
from .vocab import CLS_ID, MASK_ID, PAD_ID, SEP_ID, Vocab, content_ids, word_tokens

_NORM_EPS = 1e-12
PARAM_DTYPE = np.float32  # of init_params and of every checkpoint
_BAD_SEQUENCE = "token sequence must be a non-empty 1-D id list"


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
        for name in ("vocab_size", "hidden_dim", "num_layers", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_seq_len < 3:
            raise ValueError(f"max_seq_len must be >= 3 ([CLS], a token, [SEP]), got {self.max_seq_len}")
        for name in ("vocab_size", "hidden_dim", "num_layers", "max_seq_len", "embed_dim"):
            if getattr(self, name) >= 2**32:  # a checkpoint stores each as a u32
                raise ValueError(f"{name} must be below 2**32, got {getattr(self, name)}")


@dataclass
class LayerParams:
    weight: np.ndarray  # (d, d)
    bias: np.ndarray  # (d,)


def _layout(config: EncoderConfig) -> Iterator[tuple[str, tuple[int, ...], float]]:
    """Every parameter tensor's name, shape and init scale, in flat
    (checkpoint) order. ``init_params`` draws each tensor from N(0, scale^2)
    in this order, and a scale of 0 leaves it zero."""
    d, e, v = config.hidden_dim, config.embed_dim, config.vocab_size
    yield "token_embeddings", (v, d), 0.1
    for i in range(config.num_layers):
        yield f"layers.{i}.weight", (d, d), 1.0 / math.sqrt(d)
        yield f"layers.{i}.bias", (d,), 0.0
    yield "output.weight", (d, e), 1.0 / math.sqrt(d)
    yield "output.bias", (e,), 0.0
    yield "mlm.weight", (e, v), 0.02
    yield "mlm.bias", (v,), 0.0


def param_count(config: EncoderConfig) -> int:
    return sum(math.prod(shape) for _, shape, _ in _layout(config))


@dataclass
class EncoderParams:
    """The encoder's parameters in one contiguous vector, ``flat``
    (float32 from ``init_params`` and checkpoints). ``tensors`` maps each
    name of ``_layout`` to its view into ``flat``, in that order, so
    gradients and optimizer moments can be vectors of the same layout; the
    typed attributes are the same views. Write into the tensors; never
    rebind them."""

    config: EncoderConfig
    flat: np.ndarray  # (param_count(config),)
    tensors: dict[str, np.ndarray]
    token_embeddings: np.ndarray  # (V, d)
    layers: list[LayerParams]
    output_weight: np.ndarray  # (d, e)
    output_bias: np.ndarray  # (e,)
    mlm_weight: np.ndarray  # (e, V)
    mlm_bias: np.ndarray  # (V,)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Parameter tensors in ``_layout`` (checkpoint) order."""
        return iter(self.tensors.items())

    @classmethod
    def from_flat(cls, config: EncoderConfig, flat: np.ndarray) -> "EncoderParams":
        """View ``flat`` (not copied) as the tensors of ``config``."""
        if flat.shape != (param_count(config),):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {config}")
        t, start = {}, 0
        for name, shape, _ in _layout(config):
            stop = start + math.prod(shape)
            t[name] = flat[start:stop].reshape(shape)
            start = stop
        return cls(
            config, flat, t, t["token_embeddings"],
            [LayerParams(t[f"layers.{i}.weight"], t[f"layers.{i}.bias"]) for i in range(config.num_layers)],
            t["output.weight"], t["output.bias"], t["mlm.weight"], t["mlm.bias"],
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams.from_flat(self.config, self.flat.copy())


def init_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    params = EncoderParams.from_flat(config, np.zeros(param_count(config), dtype=PARAM_DTYPE))
    for name, shape, scale in _layout(config):
        if scale:
            params.tensors[name][:] = rng.normal(0.0, scale, shape)
    return params


def zeros_like_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams.from_flat(params.config, np.zeros_like(params.flat))


class PackedBatch(NamedTuple):
    """A batch packed as ``_pack`` packs a list of sequences. The caller
    vouches for it: int64 ``bounds`` rise strictly from 0 to ``ids.size``."""

    ids: np.ndarray  # (N,) int64, sentence after sentence
    bounds: np.ndarray  # (B + 1,) int64; sentence b is ids[bounds[b]:bounds[b + 1]]


Batch = Sequence[Sequence[int]] | PackedBatch


def _pack(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """The batch's ids, sentence after sentence, (N,), and its bounds,
    (B + 1,): sentence b is ids[bounds[b]:bounds[b + 1]]. A PackedBatch is
    passed through as it is. An empty batch, or an item that is not a
    non-empty sequence of ids (a ``str`` or ``bytes`` item is refused, as
    ``encode`` refuses it, not read as the codes of its characters),
    raises ValueError."""
    if isinstance(batch, PackedBatch):
        return batch
    try:
        if any(isinstance(item, (str, bytes)) or not isinstance(item, (Sequence, np.ndarray)) for item in batch):
            raise TypeError("an item is not a sequence of ids")
        lengths = [len(item) for item in batch]
        ids = np.fromiter(itertools.chain.from_iterable(batch), np.int64, count=sum(lengths))
    except (TypeError, ValueError) as exc:
        raise ValueError(_BAD_SEQUENCE) from exc
    if not lengths or min(lengths) == 0:
        raise ValueError(_BAD_SEQUENCE)
    # itertools.accumulate, not np.cumsum: np.cumsum of a short list alone
    # takes about 4 µs
    return ids, np.fromiter(itertools.accumulate(lengths, initial=0), np.int64, count=len(lengths) + 1)


def pack_texts(texts: Sequence[str], vocab: Vocab, max_len: int) -> PackedBatch:
    """Tokenize ``texts`` straight into one PackedBatch: row b is
    ``vocab.tokenize(texts[b], vocab, max_len)``, [CLS], the first
    max_len - 2 content ids, [SEP], with no tuple per text and no
    repacking."""
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    keep, cache = max_len - 2, vocab.word_cache
    ids: list[int] = []
    ends: list[int] = []
    for text in texts:
        ids.append(CLS_ID)
        first = len(ids)
        for word in text.split():  # as vocab.content_ids
            ids.extend(cache.get(word) or word_tokens(word, vocab))
        if len(ids) - first > keep:
            del ids[first + keep :]
        ids.append(SEP_ID)
        ends.append(len(ids))
    bounds = np.zeros(len(ends) + 1, dtype=np.int64)
    bounds[1:] = ends
    return PackedBatch(np.array(ids, dtype=np.int64), bounds)


def encode(params: EncoderParams, tokens: Sequence[int]) -> np.ndarray:
    """Embed one token sequence as a unit-norm vector.

    The sequence runs through the packed forward alone, as a batch of one
    with no packing step (cli.cmd_mine makes one call per source), and is
    refused as ``_pack`` refuses an item, with the same message. Its
    vector is bitwise equal to its row of ``encode_batch``, except for a
    bare one-token sequence (see ``encode_batch``).
    """
    try:
        ids = np.array(tokens, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError(_BAD_SEQUENCE) from exc
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(_BAD_SEQUENCE)
    cache = _forward_hiddens(params, ids, np.array((0, ids.size), dtype=np.int64), keep=False)
    return _embed(params, cache)[0]


_ENCODE_CHUNK = 64  # sequences per packed forward in encode_batch
_BLOCK_ROWS = 64  # row granularity of the forward's hidden-state block


def encode_batch(params: EncoderParams, batch: Batch) -> np.ndarray:
    """Unit-norm embeddings, one row per item, in input order, of a list
    of sequences or of a PackedBatch (such as ``pack_texts`` makes).

    The batch is packed once, and its rows run through the packed forward
    in input order, in chunks of at most ``_ENCODE_CHUNK`` cut from its
    bounds. Every row is bitwise equal to encode() of its item, whatever
    else is in the batch, except for a bare one-token item, whose lone
    encode() may differ in the last bits (see below).
    """
    ids, bounds = _pack(batch)
    rows = bounds.size - 1
    if rows < 1:
        raise ValueError(_BAD_SEQUENCE)
    out = np.empty((rows, params.config.embed_dim), dtype=params.flat.dtype)
    for start in range(0, rows, _ENCODE_CHUNK):
        chunk = bounds[start : start + _ENCODE_CHUNK + 1]
        cache = _forward_hiddens(params, ids[chunk[0] : chunk[-1]], chunk - chunk[0], keep=False)
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
# is stacked, (B, 1, d) @ (d, e), whatever B. So fine-tuning packs the
# sources and targets of a step into one block and keeps every row's
# bits; only the backward's sums over rows (h^T e, the scatter-add) change.
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    ids: np.ndarray  # (N,) token id of each position, sentence after sentence
    bounds: np.ndarray  # (B + 1,) sentence b is rows bounds[b]:bounds[b + 1]
    lengths: np.ndarray  # (B,) rows per sentence, bounds[1:] - bounds[:-1]
    hiddens: np.ndarray  # (L + 1, N, d) H_0 .. H_L; only H_L, (1, N, d), unless kept
    gates: np.ndarray  # (L, N, d) tanh outputs per layer; meaningless unless kept
    pooled: np.ndarray | None = None  # (B, d)
    pre_norm: np.ndarray | None = None  # (B, e)
    norms: np.ndarray | None = None  # (B,)


def _add_neighbours(out: np.ndarray, h: np.ndarray, bounds: np.ndarray) -> None:
    """out += (M - I) h: add to each row its left and right neighbours in
    the same sentence."""
    # One sentence has no boundary rows. encode runs one sentence per call
    # (cli.cmd_mine, per source), and there their copies took about a fifth
    # of the forward.
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
    lengths = bounds[1:] - bounds[:-1]  # np.diff without its Python wrapper (about 1.6 µs)
    longest = lengths.max()
    if longest > params.config.max_seq_len:
        raise ValueError(
            f"sequence length {longest} exceeds max_seq_len {params.config.max_seq_len}"
        )
    if ids.min() <= PAD_ID or ids.max() >= params.config.vocab_size:  # PAD_ID is the least id
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
    return ForwardCache(ids=ids, bounds=bounds, lengths=lengths, hiddens=hiddens, gates=gates)


def _row_norms(u: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a real (B, e) block: what
    ``np.linalg.norm(u, axis=1)`` forms, bit for bit, without its Python
    wrapper (about 1.5 µs a call)."""
    return np.sqrt(np.add.reduce(u * u, axis=1))


def _embed(params: EncoderParams, cache: ForwardCache) -> np.ndarray:
    """Mean-pool each sentence's rows, project, L2-normalize (fills the cache)."""
    top = cache.hiddens[-1]
    cache.pooled = np.add.reduceat(top, cache.bounds[:-1], axis=0) / cache.lengths[:, None].astype(top.dtype)
    u = (cache.pooled[:, None, :] @ params.output_weight)[:, 0, :] + params.output_bias
    cache.pre_norm = u
    cache.norms = _row_norms(u)
    if cache.norms.min() < _NORM_EPS:
        raise NumericalError("degenerate encoder state: zero vector before normalization")
    return u / cache.norms[:, None]


def forward_batch(params: EncoderParams, batch: Batch) -> tuple[np.ndarray, ForwardCache]:
    """Unit-norm embeddings for a batch (a list of sequences or a
    PackedBatch), plus the cache for backprop."""
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
    """Backprop from d(loss)/d(H_L), ``d_top``, into layer and embedding
    gradients. ``d_top`` is consumed: it is overwritten with d(loss)/d(H_0).
    Three more (N, d) arrays are allocated once per call and reused by every
    layer.

    With da = dh' * (1 - g^2) and e = M^T da = M da: dW = h^T e,
    db = sum(da), dh = dh' + e W^T.
    """
    dh = d_top
    da, mixed, back = np.empty_like(dh), np.empty_like(dh), np.empty_like(dh)
    for l in range(len(params.layers) - 1, -1, -1):
        np.square(cache.gates[l], out=da)
        np.subtract(1.0, da, out=da)
        da *= dh
        np.copyto(mixed, da)
        _add_neighbours(mixed, da, cache.bounds)
        grads.layers[l].weight += cache.hiddens[l].T @ mixed
        grads.layers[l].bias += da.sum(axis=0)
        dh += np.matmul(mixed, params.layers[l].weight.T, out=back)
    _scatter_add(grads.token_embeddings, cache.ids, dh)


def _scatter_add(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """np.add.at(target, ids, rows), several times faster and in the rows'
    dtype: sort the rows by id, then sum each id's run with one reduceat."""
    order = stable_order(ids, target.shape[0])
    sorted_ids = ids[order]
    run_start = np.empty(sorted_ids.size, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
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
    counts = cache.lengths
    d_top = np.repeat(dpooled / counts[:, None].astype(dpooled.dtype), counts, axis=0)
    _backward_layers(params, cache, d_top, grads)
    return grads


# ---------------------------------------------------------------------------
# Masked-token objectives (monolingual and translation-pair variants).
# ---------------------------------------------------------------------------

MLM_FRACTION = 0.2
MLM_CAP = 80


@dataclass
class MaskedBatch:
    input_ids: np.ndarray  # (N,), masked positions replaced by MASK
    target_ids: np.ndarray  # (N,), original ids
    mask_positions: np.ndarray  # (N,) bool
    bounds: np.ndarray  # (B + 1,) sequence b is positions bounds[b]:bounds[b + 1]

    def masked_count(self) -> int:
        return int(self.mask_positions.sum())


def plan_masks(
    batch: Batch,
    rng: np.random.Generator,
    fraction: float = MLM_FRACTION,
    cap: int = MLM_CAP,
) -> MaskedBatch:
    """Mask min(ceil(fraction * maskable), cap) positions per sequence.

    The n maskable positions with the smallest uniform draws are replaced
    by the MASK id (no random/keep split). [CLS] and [SEP] are never
    masked. The draws come from one (B, longest) uniform matrix, whose
    row b gives sequence b's positions their draws in order. The batch is
    a list of sequences or a PackedBatch.
    """
    if fraction > 1.0:
        raise ValueError(f"mask fraction must be at most 1, got {fraction}")
    ids, bounds = _pack(batch)
    lengths = bounds[1:] - bounds[:-1]
    rows, width = lengths.size, lengths.max()
    seq = np.repeat(np.arange(rows), lengths)  # sequence of each position
    cell = np.arange(ids.size) + (seq * width - bounds[seq])  # its cell of the (B, longest) draws, row-major
    maskable = (ids != CLS_ID) & (ids != SEP_ID)
    counts = np.add.reduceat(maskable, bounds[:-1], dtype=np.int64)
    n = np.minimum(np.ceil(fraction * counts), cap).astype(np.int64)
    draws = np.full(rows * width, np.inf)  # pad and unmaskable cells are never chosen
    maskable_cells = cell[maskable]
    draws[maskable_cells] = rng.random((rows, width)).ravel()[maskable_cells]
    # each row's n smallest draws, found by a stable sort of that row alone
    order = np.argsort(draws.reshape(rows, width), axis=1, kind="stable")
    chosen = np.empty((rows, width), dtype=bool)
    chosen[np.arange(rows)[:, None], order] = np.arange(width) < n[:, None]
    positions = chosen.ravel()[cell]
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


def tlm_sequence(src_text: str, tgt_text: str, vocab: Vocab, max_len: int) -> tuple[int, ...]:
    """The translation-pair layout [CLS] src [SEP] tgt [SEP] of a pair's
    source text ``src_text`` and target text ``tgt_text``.

    An empty side drops its segment (and separator); no language
    identifier token is inserted. Truncation trims the longer segment
    token by token, the source on a tie, until the layout fits max_len; a
    max_len that cannot keep a token of each non-empty side is refused.
    """
    sides = (content_ids(src_text, vocab), content_ids(tgt_text, vocab))
    segments = [toks for toks in sides if toks]
    total = 1 + sum(len(s) + 1 for s in segments)
    if total < 3:
        raise ValueError("translation-pair sequence shorter than 3 tokens")
    if max_len < 1 + 2 * len(segments):
        raise ValueError(
            f"max_len {max_len} cannot hold [CLS] and, per non-empty side, a token and [SEP]"
        )
    if total > max_len:  # as trimming the longer side token by token, the source on a tie, would
        budget = max_len - 1 - len(segments)
        if len(segments) == 1:
            del segments[0][budget:]
        else:
            src, tgt = segments
            kept = min(len(src), max(budget - len(tgt), budget // 2))
            del src[kept:], tgt[budget - kept :]
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

    def source(name: str) -> np.ndarray:
        if name.startswith("layers."):
            _, j, field = name.split(".")
            name = f"layers.{int(j) % current}.{field}"
        return params.tensors[name].ravel()

    config = replace(params.config, num_layers=target_layers)
    return EncoderParams.from_flat(config, np.concatenate([source(name) for name, _, _ in _layout(config)]))
