import numpy as np
import pytest

from bitextmine.corpus import SentencePair, SentencePairs, Sentences
from bitextmine.encoder import EncoderConfig, EncoderParams, init_params
from bitextmine.toydata import make_toy_corpus
from bitextmine.trainer import checkpoint_to_bytes
from bitextmine.vecindex import search
from bitextmine.vocab import build_vocab


@pytest.fixture(scope="session")
def toy_small():
    """Small cipher corpus for unit tests (fast to train on)."""
    return make_toy_corpus(300, 60, seed=7, lexicon_size=50, min_words=3, max_words=5)


@pytest.fixture(scope="session")
def toy_vocab(toy_small):
    corpora = {
        "aa": [p.src.text for p in toy_small.train_pairs],
        "bb": [p.tgt.text for p in toy_small.train_pairs],
    }
    return build_vocab(corpora, target_size=600)


@pytest.fixture(scope="session")
def toy_encoder_config(toy_vocab):
    return EncoderConfig(vocab_size=len(toy_vocab), hidden_dim=16, num_layers=2, max_seq_len=16)


@pytest.fixture()
def toy_params(toy_encoder_config):
    return init_params(toy_encoder_config, seed=11)


def columns(records):
    """The columns of a list of records, as training reads them: a
    ``SentencePairs`` (lines numbered from 1) of ``SentencePair``s, else a
    ``Sentences`` of ``Sentence``s."""
    if records and isinstance(records[0], SentencePair):
        return SentencePairs(
            list(range(1, len(records) + 1)), [p.src.lang for p in records], [p.tgt.lang for p in records],
            [p.src.text for p in records], [p.tgt.text for p in records], [p.score for p in records],
        )
    return Sentences([s.id for s in records], [s.lang for s in records], [s.text for s in records])


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def search_hits(index, queries, k, probes=None):
    """``vecindex.search``'s flat arrays as one list per query row of
    (id, score), each row's best first; checks that the rows ascend."""
    rows, cols, scores = search(index, queries, k, probes)
    assert rows.dtype.kind == cols.dtype.kind == "i" and scores.dtype == np.float64
    assert np.all(np.diff(rows) >= 0)
    hits = [[] for _ in range(len(queries))]
    for row, col, score in zip(rows.tolist(), cols.tolist(), scores.tolist()):
        hits[row].append((index.ids[col], score))
    return hits


def unpacked(batch) -> list[tuple[int, ...]]:
    """A PackedBatch as the list of id tuples it packs; checks its dtypes
    and that its bounds rise strictly from 0 to the id count."""
    ids, bounds = batch
    assert ids.dtype == bounds.dtype == np.int64
    assert bounds[0] == 0 and bounds[-1] == ids.size and np.all(np.diff(bounds) > 0)
    return [tuple(ids[a:b].tolist()) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def assert_same_masked_batch(got, want):
    """Each array of two MaskedBatches has the same dtype and values."""
    for field in ("input_ids", "target_ids", "mask_positions", "bounds"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def float64_params(params: EncoderParams) -> EncoderParams:
    """A float64 copy of ``params``. Every kernel follows the dtype of
    ``params.flat``, so tests whose tolerances need exact float64
    arithmetic (finite differences, closed forms) run the float32 code
    path in float64 through this."""
    return EncoderParams.from_flat(params.config, params.flat.astype(np.float64))


def version_2_bytes(params, state):
    """A version-2 checkpoint of ``params`` (and ``state``): the same
    header as version 3, then the vectors as ``<f8``."""
    vectors = [params.flat] + ([] if state is None else [state.first_moment, state.second_moment])
    v3 = checkpoint_to_bytes(params, state)
    header = bytearray(v3[: len(v3) - 4 * sum(v.size for v in vectors)])
    header[4:8] = (2).to_bytes(4, "little")
    return bytes(header) + b"".join(v.astype("<f8").tobytes() for v in vectors)
