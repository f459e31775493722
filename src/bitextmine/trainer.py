"""Training drivers: masked-token pretraining with progressive layer
stacking under one PretrainConfig, checked when it is built; dual-encoder
fine-tuning with the bidirectional ranking loss under a TrainConfig; an
adaptive-moment optimizer with decoupled weight decay; and exact
checkpoint round-trips.

Parameters, gradients and both optimizer moments are flat vectors of
one layout and one dtype (``EncoderParams.flat``: float32, unless a
caller builds float64 parameters), and ``optimizer_step`` updates the
parameters and moments in place with whole-vector operations, in that
dtype. Both drivers copy the caller's parameters (and a resumed
optimizer state) once, then step the copy in place through one step
runner, each with its own per-step objective: ranking pairs, or one
pretraining stage's masked-token batches. Only fine-tuning saves
checkpoints on the way; a stopped pretraining run starts over.

Determinism: every step draws from a fresh generator seeded by (config
seed, stream tag, step index), with the stage index before the step in
pretraining, so a resumed run reproduces the unbroken run bit for bit.
Before its first step, each run builds the generator of every step it
will run, once, draws that step's corpus indices from it and tokenizes
each drawn item once, in corpus order, into one ``TokenStore``; an item
that no step draws is never tokenized. Of each generator it keeps only
what the step needs: the indices, and in pretraining the four integers
of the PCG64 state that the indices left. A step gathers its packed
batch from the store, and a pretraining step restores that state into
one generator that the run reuses, which goes on to choose its masks as
the step's own generator would. Each step drops its record.
The learning rate decays linearly to zero over the configured step
horizon. The optimizer state carries the TrainConfig it was made under,
and a run that continues a state must use that same config.

Training log lines: ``step=<n> loss=<f> lr=<f> pairs_seen=<n>``, with the
rate the step used. Pretraining numbers steps 1..N across its stages, each
stage's rate starting again at the configured one. ``pairs_seen`` counts
translation pairs: B per ranking or TLM step, none per MLM step.

Checkpoint format, version 3 (all integers and floats little-endian):
magic ``BXCK``; u32 version; five u32 EncoderConfig integers
(vocab_size, hidden_dim, num_layers, max_seq_len, embed_dim); u8 state
flag; when the flag is 1, the u64 optimizer step count and the
TrainConfig fields in declared order (batch_size, steps and shards as
u64, seed as i64, float fields as f64); then the flat float32 (``<f4``)
vectors, each in ``encoder._layout`` order: the parameters, then, with
state, the first and the second optimizer moments. Saving
refuses vectors that are not float32 rather than round them, and
EncoderConfig and TrainConfig refuse a value that the header cannot hold.
Older versions are refused: version 2 stored float64 vectors, and
version 1 nested a separately versioned parameter block.
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Callable, Iterable, Sequence
from dataclasses import astuple, dataclass, fields, replace
from typing import TextIO

import numpy as np

from .corpus import Sentence, SentencePair
from .encoder import (
    MLM_CAP, MLM_FRACTION, PARAM_DTYPE, EncoderConfig, EncoderParams, PackedBatch, backward_batch,
    forward_batch, mlm_loss_and_grad, param_count, plan_masks, stack_grow, tlm_sequence, zeros_like_params,
)
from .errors import CheckpointError, NumericalError
from .fileio import atomic_write_bytes
from .loss import LossConfig
from .negatives import shard_batch, sharded_bidirectional_loss
from .vocab import Vocab, tokenize_sentence

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

_CKPT_MAGIC = b"BXCK"
_CKPT_VERSION = 3  # 3: float32 vectors (2 stored float64 ones)
_CKPT_HEAD = "<5IB"  # EncoderConfig integers, state flag
_CKPT_STATE = "<QQQdddQqd"  # step count, then the TrainConfig fields in declared order

# Stream tags keep the per-step RNG draws of different objectives disjoint.
_STREAM_FINETUNE = 1
_STREAM_MLM = 2
_STREAM_TLM = 3


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    steps: int = 2000
    learning_rate: float = 1e-3
    margin: float = 0.3
    scale: float = 10.0
    shards: int = 1
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.steps < 1:
            raise ValueError("batch_size and steps must be positive")
        for name in ("batch_size", "steps", "shards"):
            if getattr(self, name) >= 2**64:  # a checkpoint stores each as a u64
                raise ValueError(f"{name} must be below 2**64, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.shards < 1 or self.batch_size % self.shards != 0:
            raise ValueError(f"shards={self.shards} must divide batch_size={self.batch_size}")
        if not 0.0 <= self.weight_decay < float("inf"):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0 <= self.seed < 2**63:  # a checkpoint stores it as an i64
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
        self.loss_config()  # LossConfig checks margin and scale

    def loss_config(self) -> LossConfig:
        return LossConfig(margin=self.margin, scale=self.scale)


@dataclass
class OptimizerState:
    config: TrainConfig  # the schedule and hyperparameters the moments belong to
    first_moment: np.ndarray  # laid out like EncoderParams.flat
    second_moment: np.ndarray
    step_count: int = 0

    def copy(self) -> "OptimizerState":
        return replace(
            self, first_moment=self.first_moment.copy(), second_moment=self.second_moment.copy()
        )


def init_optimizer_state(params: EncoderParams, config: TrainConfig) -> OptimizerState:
    return OptimizerState(config, np.zeros_like(params.flat), np.zeros_like(params.flat))


def lr_at(config: TrainConfig, step: int) -> float:
    """Linearly decayed learning rate for 1-based step numbers."""
    return config.learning_rate * max(0.0, 1.0 - (step - 1) / config.steps)


def optimizer_step(params: EncoderParams, grads: EncoderParams, state: OptimizerState) -> None:
    """One adaptive-moment update with decoupled weight decay, under the
    state's own config, made in place on the flat vectors of ``params``
    and ``state``.

    m <- b1 m + (1-b1) g;  v <- b2 v + ((1-b2) g) g; both bias-corrected;
    theta <- theta - lr_t (m_hat / (sqrt(v_hat) + eps) + wd * theta).

    A non-finite update raises NumericalError naming the first tensor it
    hits; the parameters and the step count are then unchanged, the
    moments are not.
    """
    config = state.config
    t = state.step_count + 1
    theta, g, m, v = params.flat, grads.flat, state.first_moment, state.second_moment
    update, scratch = np.empty_like(theta), np.empty_like(theta)
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=scratch)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=scratch)
    v += np.multiply(scratch, g, out=scratch)
    np.divide(v, 1.0 - BETA2**t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += EPS
    np.divide(m, 1.0 - BETA1**t, out=update)  # m_hat
    update /= scratch
    if config.weight_decay:  # theta * 0 could only turn an update of -0.0 into +0.0: the same theta
        update += np.multiply(theta, config.weight_decay, out=scratch)
    update *= lr_at(config, t)
    if not np.isfinite(update).all():
        bad = int(np.flatnonzero(~np.isfinite(update))[0])
        raise NumericalError(
            f"non-finite optimizer update for {_tensor_at(params, bad)!r} at step {t}"
        )
    theta -= update
    state.step_count = t


def _tensor_at(params: EncoderParams, index: int) -> str:
    """The name of the tensor that holds ``params.flat[index]``."""
    for name, arr in params.named_arrays():
        if index < arr.size:
            return name
        index -= arr.size
    raise IndexError(index)


def check_resumable(state: OptimizerState, config: TrainConfig) -> None:
    """Raise CheckpointError naming each field in which the config the
    state was trained with differs from ``config``."""
    changed = [
        f"{f.name}={getattr(state.config, f.name)!r} (this run: {getattr(config, f.name)!r})"
        for f in fields(TrainConfig)
        if getattr(state.config, f.name) != getattr(config, f.name)
    ]
    if changed:
        raise CheckpointError(
            "cannot resume: the optimizer state was trained with " + ", ".join(changed)
        )


def _draw(key: list[int], population: int, batch_size: int) -> tuple[np.random.Generator, np.ndarray]:
    """Step ``key[-1]``'s generator, seeded by ``key``, and its batch of corpus indices."""
    rng = np.random.default_rng(key)
    return rng, rng.integers(0, population, size=batch_size)


def _stream_state(rng: np.random.Generator) -> tuple[int, int, int, int]:
    """The four integers of a PCG64 generator's state, from which
    ``_resume_stream`` lets another generator continue its stream."""
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]


def _resume_stream(rng: np.random.Generator, stream: tuple[int, int, int, int]) -> None:
    """Set ``rng``, a PCG64 generator, to continue the stream that ``_stream_state`` read."""
    state, inc, has_uint32, uinteger = stream
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": has_uint32, "uinteger": uinteger,
    }


@dataclass(frozen=True)
class TokenStore:
    """The token ids of the items that a run's steps draw, packed in item
    order: item i is ids[starts[i]:starts[i] + lengths[i]], and an item
    that no step draws has length 0."""

    ids: np.ndarray  # (N,) int64
    starts: np.ndarray  # (items,) int64
    lengths: np.ndarray  # (items,) int64

    @classmethod
    def of_drawn(
        cls, items: int, draws: Iterable[np.ndarray], sequence: Callable[[int], Sequence[int]]
    ) -> "TokenStore":
        """Mark every item in ``draws``, then call ``sequence(i)`` once for
        each marked item i, in item order."""
        drawn = np.zeros(items, dtype=bool)
        for idx in draws:
            drawn[idx] = True
        marked = np.flatnonzero(drawn).tolist()
        seqs = [sequence(i) for i in marked]
        lengths = np.zeros(items, dtype=np.int64)
        lengths[marked] = [len(seq) for seq in seqs]
        ids = np.fromiter(itertools.chain.from_iterable(seqs), np.int64, count=int(lengths.sum()))
        return cls(ids, np.cumsum(lengths) - lengths, lengths)

    def gather(self, items: np.ndarray) -> PackedBatch:
        """The batch of ``items``, in that order, packed as ``encoder._pack`` packs one."""
        lengths = self.lengths[items]
        bounds = np.zeros(items.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        offsets = np.repeat(self.starts[items] - bounds[:-1], lengths)
        offsets += np.arange(bounds[-1])
        return PackedBatch(self.ids[offsets], bounds)


def _run_steps(
    params: EncoderParams, state: OptimizerState, objective: Callable[..., tuple[float, int]],
    stop: int, log: TextIO | None, *, step_offset: int = 0, pairs_seen: int = 0,
    checkpoint_path=None, checkpoint_interval: int = 0,
) -> int:
    """Step ``params`` and ``state`` in place up to step ``stop`` and return
    ``pairs_seen``. ``objective(params, grads, t)`` adds step t's gradient to
    the zeroed ``grads`` and returns (loss, pairs). Checkpoints are saved as
    ``finetune_dual_encoder`` says."""
    grads, saved_at = zeros_like_params(params), None
    while state.step_count < stop:
        grads.flat.fill(0.0)
        loss, pairs = objective(params, grads, state.step_count)
        optimizer_step(params, grads, state)
        pairs_seen, t = pairs_seen + pairs, state.step_count
        if log is not None:
            lr = lr_at(state.config, t)
            log.write(f"step={step_offset + t} loss={loss:.6f} lr={lr:.8f} pairs_seen={pairs_seen}\n")
        if checkpoint_path is not None and checkpoint_interval > 0 and t % checkpoint_interval == 0:
            save_checkpoint(params, state, checkpoint_path)
            saved_at = t
    if checkpoint_path is not None and saved_at != state.step_count:
        save_checkpoint(params, state, checkpoint_path)
    return pairs_seen


def finetune_dual_encoder(
    params: EncoderParams,
    pair_corpus: Sequence[SentencePair],
    config: TrainConfig,
    vocab: Vocab,
    *,
    state: OptimizerState | None = None,
    stop_step: int | None = None,
    log: TextIO | None = None,
    checkpoint_path=None,
    checkpoint_interval: int = 0,
) -> tuple[EncoderParams, OptimizerState]:
    """Train the shared encoder on translation pairs with the sharded
    bidirectional additive-margin loss, and return the trained
    parameters and optimizer state. The caller's ``params`` and ``state``
    are copied once and left unchanged.

    The encoder is shared, so each step packs the B sources and then the
    B targets into one ``forward_batch`` call, computes the loss and its
    gradients once with ``sharded_bidirectional_loss``, and makes one
    ``backward_batch`` call over all 2B rows. Every embedding row is
    bitwise what a per-side call would give; only the gradient sums
    differ from two per-side backward calls, in the last bits.

    Resuming from a checkpointed (params, state) reproduces the unbroken
    run exactly; training continues from state.step_count up to
    ``stop_step`` (default: the full configured horizon). A state made
    under another config raises CheckpointError naming each field that
    differs. With a ``checkpoint_path``, (params, state) are saved there
    every ``checkpoint_interval`` steps (never, if 0) and after the last
    step, each step's state at most once.
    """
    if not pair_corpus:
        raise ValueError("empty pair corpus")
    state = init_optimizer_state(params, config) if state is None else state.copy()
    check_resumable(state, config)
    params = params.copy()
    stop = config.steps if stop_step is None else min(stop_step, config.steps)
    loss_cfg = config.loss_config()
    max_len, n = params.config.max_seq_len, len(pair_corpus)

    def draw(t: int) -> np.ndarray:
        """Step t's store items: its B sources, then their B targets."""
        _, idx = _draw([config.seed, _STREAM_FINETUNE, t], n, config.batch_size)
        return np.concatenate((idx, idx + n))

    def side(i: int) -> Sentence:
        return pair_corpus[i].src if i < n else pair_corpus[i - n].tgt

    items = {t: draw(t) for t in range(state.step_count, stop)}  # the steps still to run
    store = TokenStore.of_drawn(2 * n, items.values(), lambda i: tokenize_sentence(side(i), vocab, max_len))

    def ranking_step(params: EncoderParams, grads: EncoderParams, t: int) -> tuple[float, int]:
        v, cache = forward_batch(params, store.gather(items.pop(t)))
        vx, vy = v[: config.batch_size], v[config.batch_size :]
        loss_value, dvx, dvy = sharded_bidirectional_loss(shard_batch(vx, vy, config.shards), loss_cfg)
        backward_batch(params, cache, np.concatenate((dvx, dvy)), grads)
        return loss_value, config.batch_size

    _run_steps(
        params, state, ranking_step, stop, log, pairs_seen=state.step_count * config.batch_size,
        checkpoint_path=checkpoint_path, checkpoint_interval=checkpoint_interval,
    )
    return params, state


@dataclass(frozen=True)
class Stage:
    num_layers: int
    steps: int


@dataclass(frozen=True)
class PretrainConfig:
    """Every pretraining option, checked on construction: the stacking
    schedule (positive layer counts, each dividing the next), the batch
    size, learning rate and seed that every stage's optimizer shares, the
    (mlm, tlm) step mix per cycle and the masking rule."""

    stages: tuple[Stage, ...]
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    mix: tuple[int, int] = (1, 1)
    mask_fraction: float = MLM_FRACTION
    mask_cap: int = MLM_CAP

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("stage schedule is empty")
        for stage in self.stages:
            if stage.num_layers < 1:
                raise ValueError(f"stage layers must be positive, got {stage.num_layers}")
            if stage.num_layers >= 2**32:  # as EncoderConfig.num_layers
                raise ValueError(f"stage layers must be below 2**32, got {stage.num_layers}")
            self.stage_config(stage)  # TrainConfig checks batch size, steps, learning rate and seed
        for a, b in zip(self.stages, self.stages[1:]):
            if b.num_layers < a.num_layers:
                raise ValueError(f"stage schedule shrinks from {a.num_layers} to {b.num_layers} layers")
            if b.num_layers % a.num_layers != 0:
                raise ValueError(f"stage layers {b.num_layers} must be a multiple of {a.num_layers}")
        if min(self.mix) < 0 or sum(self.mix) == 0:
            raise ValueError(f"bad objective mix {self.mix!r}")
        if not 0.0 < self.mask_fraction <= 1.0:
            raise ValueError(f"mask fraction must be in (0, 1], got {self.mask_fraction!r}")
        if self.mask_cap < 1:
            raise ValueError(f"mask cap must be >= 1, got {self.mask_cap!r}")

    def stage_config(self, stage: Stage) -> TrainConfig:
        """The optimizer config of one stage, whose decay horizon is its own step count."""
        return TrainConfig(self.batch_size, stage.steps, self.learning_rate, seed=self.seed)


def pretrain(
    params: EncoderParams,
    corpus: Sequence[Sentence],
    pair_corpus: Sequence[SentencePair],
    config: PretrainConfig,
    vocab: Vocab,
    *,
    log: TextIO | None = None,
) -> EncoderParams:
    """Masked-token pretraining over monolingual and translation-pair
    batches, alternating at ``config.mix`` = (mlm, tlm) within each cycle,
    with progressive layer stacking between stages.

    ``params`` must have the first stage's depth, and each objective the
    mix asks for a non-empty corpus. Parameters learned in one stage are
    duplicated to initialize the next, and a fresh optimizer (and decay
    horizon) starts each stage, while the log's step numbers run on. No
    checkpoint is written. The caller's ``params`` are copied once.
    """
    first_layers = config.stages[0].num_layers
    if len(params.layers) != first_layers:
        raise ValueError(f"params have {len(params.layers)} layers, the first stage wants {first_layers}")
    mlm_share, tlm_share = config.mix
    if mlm_share and not corpus:
        raise ValueError("MLM batches requested but the monolingual corpus is empty")
    if tlm_share and not pair_corpus:
        raise ValueError("TLM batches requested but the pair corpus is empty")

    max_len, m, cycle = params.config.max_seq_len, len(corpus), mlm_share + tlm_share

    def is_mlm(t: int) -> bool:
        return (t % cycle) < mlm_share

    def draw(stage_idx: int, t: int) -> tuple[np.ndarray, tuple[int, int, int, int]]:
        """Step t's store items (the monolingual sentences, then the pairs'
        TLM layouts) and the state its generator goes on from to mask them."""
        stream, population, first = (_STREAM_MLM, m, 0) if is_mlm(t) else (_STREAM_TLM, len(pair_corpus), m)
        rng, idx = _draw([config.seed, stream, stage_idx, t], population, config.batch_size)
        return idx + first, _stream_state(rng)

    def sequence(i: int) -> tuple[int, ...]:
        if i < m:
            return tokenize_sentence(corpus[i], vocab, max_len)
        return tlm_sequence(pair_corpus[i - m], vocab, max_len)

    plans = {(k, t): draw(k, t) for k, stage in enumerate(config.stages) for t in range(stage.steps)}
    store = TokenStore.of_drawn(m + len(pair_corpus), (items for items, _ in plans.values()), sequence)
    rng = np.random.Generator(np.random.PCG64())  # every step's generator, resumed from its plan
    pairs_seen = steps_done = 0
    params = params.copy()
    for stage_idx, stage in enumerate(config.stages):
        if len(params.layers) != stage.num_layers:
            params = stack_grow(params, stage.num_layers)

        def masked_step(params: EncoderParams, grads: EncoderParams, t: int) -> tuple[float, int]:
            items, stream = plans.pop((stage_idx, t))
            _resume_stream(rng, stream)
            batch = plan_masks(store.gather(items), rng, config.mask_fraction, config.mask_cap)
            loss_value, _ = mlm_loss_and_grad(params, batch, grads)
            return loss_value, 0 if is_mlm(t) else config.batch_size

        state = init_optimizer_state(params, config.stage_config(stage))
        pairs_seen = _run_steps(
            params, state, masked_step, stage.steps, log, step_offset=steps_done, pairs_seen=pairs_seen
        )
        steps_done += stage.steps
    return params


# ---------------------------------------------------------------------------
# Checkpointing: parameters plus optimizer state, exact round trip. The
# format is laid out in the module docstring.
# ---------------------------------------------------------------------------


def checkpoint_to_bytes(params: EncoderParams, state: OptimizerState | None) -> bytes:
    chunks = [
        _CKPT_MAGIC,
        struct.pack("<I", _CKPT_VERSION),
        struct.pack(_CKPT_HEAD, *astuple(params.config), state is not None),
    ]
    vectors = [params.flat]
    if state is not None:
        chunks.append(struct.pack(_CKPT_STATE, state.step_count, *astuple(state.config)))
        vectors += [state.first_moment, state.second_moment]
    for vec in vectors:
        if vec.dtype != PARAM_DTYPE:
            raise ValueError(f"a checkpoint stores {np.dtype(PARAM_DTYPE)} vectors, got {vec.dtype}")
    chunks.extend(np.ascontiguousarray(vec, dtype="<f4").tobytes() for vec in vectors)
    return b"".join(chunks)


def save_checkpoint(params: EncoderParams, state: OptimizerState | None, path) -> None:
    atomic_write_bytes(path, checkpoint_to_bytes(params, state))


class _Reader:
    """Reads a checkpoint front to back. A read past the end raises
    CheckpointError with its byte offset before anything is allocated, so
    a corrupt header cannot ask for more memory than the file holds."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"{self.path}: truncated at byte offset {self.pos} "
                f"(wanted {n} more bytes, file has {len(self.data)})"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, layout: str) -> tuple:
        return struct.unpack(layout, self.take(struct.calcsize(layout)))

    def vector(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(n * 4), dtype="<f4").astype(PARAM_DTYPE)


def load_checkpoint(path) -> tuple[EncoderParams, OptimizerState | None]:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), str(path))
    if reader.take(4) != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic at byte offset 0")
    (version,) = reader.unpack("<I")
    if version != _CKPT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (expected {_CKPT_VERSION})"
        )
    *dims, has_state = reader.unpack(_CKPT_HEAD)
    try:
        encoder_config = EncoderConfig(*dims)
        if has_state:
            step_count, *train = reader.unpack(_CKPT_STATE)
            train_config = TrainConfig(*train)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    n = param_count(encoder_config)
    params = EncoderParams.from_flat(encoder_config, reader.vector(n))
    state: OptimizerState | None = None
    if has_state:
        state = OptimizerState(train_config, reader.vector(n), reader.vector(n), step_count)
    if reader.pos != len(reader.data):
        raise CheckpointError(
            f"{path}: {len(reader.data) - reader.pos} trailing bytes at offset {reader.pos}"
        )
    return params, state
