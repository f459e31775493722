import numpy as np
import pytest

from bitextmine.encoder import EncoderConfig, EncoderParams, init_params
from bitextmine.toydata import make_toy_corpus
from bitextmine.trainer import checkpoint_to_bytes
from bitextmine.vocab import build_vocab


@pytest.fixture(scope="session")
def toy_small():
    """Small cipher corpus for unit tests (fast to train on)."""
    return make_toy_corpus(300, 60, seed=7, lexicon_size=50, min_words=3, max_words=5)


@pytest.fixture(scope="session")
def toy_vocab(toy_small):
    corpora = {
        "aa": [p.src for p in toy_small.train_pairs],
        "bb": [p.tgt for p in toy_small.train_pairs],
    }
    return build_vocab(corpora, target_size=600)


@pytest.fixture(scope="session")
def toy_encoder_config(toy_vocab):
    return EncoderConfig(vocab_size=len(toy_vocab), hidden_dim=16, num_layers=2, max_seq_len=16)


@pytest.fixture()
def toy_params(toy_encoder_config):
    return init_params(toy_encoder_config, seed=11)


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


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
