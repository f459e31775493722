import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitextmine.corpus import Sentence, SentencePair
from bitextmine.encoder import encode
from bitextmine.mining import (
    MiningConfig,
    choose_query_side,
    dedup,
    mine,
    mining_report,
    score_histogram,
    select_top_fraction,
)
from bitextmine.vecindex import build
from bitextmine.vocab import tokenize_sentence

from conftest import float64_params


def pair(src_text, tgt_text, score=None, n=0):
    return SentencePair(
        src=Sentence(id=f"{n}s", lang="aa", text=src_text),
        tgt=Sentence(id=f"{n}t", lang="bb", text=tgt_text),
        score=score,
    )


class TestConfig:
    def test_defaults_match_pipeline_settings(self):
        cfg = MiningConfig()
        assert cfg.similarity_threshold == 0.6
        assert cfg.neighbors_k == 1
        assert cfg.selection_fraction == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(similarity_threshold=-1.0)
        with pytest.raises(ValueError):
            MiningConfig(selection_fraction=0.0)
        with pytest.raises(ValueError):
            MiningConfig(neighbors_k=0)


class TestChooseQuerySide:
    def test_smaller_side_queries(self):
        assert choose_query_side(10, 100) == "a"
        assert choose_query_side(100, 10) == "b"
        assert choose_query_side(5, 5) == "a"


class TestMine:
    def test_threshold_is_inclusive_and_filters(self, toy_small, toy_vocab, toy_params):
        # train-free encoder: scores are arbitrary, so pick the threshold
        # from observed scores to exercise both sides of the cut
        pool = [p.tgt for p in toy_small.test_pairs[:30]]
        seqs = [tokenize_sentence(s, toy_vocab, 16) for s in pool]
        vectors = np.stack([encode(toy_params, q) for q in seqs])
        index = build(vectors, [s.id for s in pool])
        lookup = {s.id: s for s in pool}
        sources = [p.src for p in toy_small.test_pairs[:20]]
        loose = mine(sources, index, lookup, toy_params, toy_vocab, MiningConfig(similarity_threshold=-0.99, neighbors_k=2))
        cut = sorted(p.score for p in loose)[len(loose) // 2]
        tight = mine(sources, index, lookup, toy_params, toy_vocab, MiningConfig(similarity_threshold=cut, neighbors_k=2))
        assert all(p.score >= cut for p in tight)
        assert {(p.src.id, p.tgt.id) for p in tight} == {
            (p.src.id, p.tgt.id) for p in loose if p.score >= cut
        }

    def test_identical_embedding_scores_one(self, toy_small, toy_vocab, toy_params):
        params = float64_params(toy_params)
        sent = toy_small.test_pairs[0].src
        vec = encode(params, tokenize_sentence(sent, toy_vocab, 16))
        index = build(vec[None, :], ["only"])
        got = mine([sent], index, {"only": sent}, params, toy_vocab, MiningConfig())
        assert len(got) == 1
        assert got[0].score == pytest.approx(1.0, abs=1e-9)

    def test_emission_order_follows_sources(self, toy_small, toy_vocab, toy_params):
        pool = [p.tgt for p in toy_small.test_pairs[:10]]
        vectors = np.stack(
            [encode(toy_params, tokenize_sentence(s, toy_vocab, 16)) for s in pool]
        )
        index = build(vectors, [s.id for s in pool])
        lookup = {s.id: s for s in pool}
        sources = [p.src for p in toy_small.test_pairs[:10]]
        out = mine(sources, index, lookup, toy_params, toy_vocab, MiningConfig(similarity_threshold=-1 + 1e-9))
        assert [p.src.id for p in out] == [s.id for s in sources]


class TestDedup:
    def test_no_duplicates_is_identity(self):
        pairs = [pair("a", "b", 0.9, n=0), pair("c", "d", 0.8, n=1)]
        assert dedup(pairs) == pairs

    def test_keeps_highest_scored_instance(self):
        pairs = [pair("a", "b", 0.7, n=0), pair("a", "b", 0.8, n=1)]
        out = dedup(pairs)
        assert len(out) == 1 and out[0].score == 0.8

    def test_text_keyed_ignores_ids(self):
        pairs = [pair("a", "b", 0.8, n=0), pair("a", "b", 0.7, n=99)]
        out = dedup(pairs)
        assert len(out) == 1 and out[0].score == 0.8

    def test_position_of_first_occurrence_kept(self):
        pairs = [pair("a", "b", 0.5, n=0), pair("x", "y", 0.9, n=1), pair("a", "b", 0.7, n=2)]
        out = dedup(pairs)
        assert [(p.src.text, p.score) for p in out] == [("a", 0.7), ("x", 0.9)]

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("xy"), st.floats(0, 1)),
            max_size=20,
        )
    )
    def test_idempotent_and_shrinking(self, raw):
        pairs = [pair(s, t, sc, n=i) for i, (s, t, sc) in enumerate(raw)]
        once = dedup(pairs)
        assert dedup(once) == once
        assert len(once) <= len(pairs)


class TestSelection:
    def test_exact_ceil_count(self):
        pairs = [pair(str(i), "t", i / 10, n=i) for i in range(10)]
        for fraction, want in [(0.2, 2), (0.21, 3)]:
            assert len(select_top_fraction(pairs, fraction)) == want
        assert select_top_fraction([], 0.5) == []

    def test_keeps_best_scores(self):
        # (scores, fraction, kept indices): the kept pairs stay in input
        # order; tests/test_corpus.py covers ties and larger fractions
        cases = [
            ([0.3, 0.9, 0.1, 0.7], 0.5, [1, 3]),
            ([0.7, 0.1, 0.9], 0.5, [0, 2]),
        ]
        for scores, fraction, want in cases:
            pairs = [pair(str(i), "t", sc, n=i) for i, sc in enumerate(scores)]
            assert select_top_fraction(pairs, fraction) == [pairs[i] for i in want]

    def test_unscored_pairs_rejected(self):
        with pytest.raises(ValueError, match="1 mined pairs lack scores"):
            select_top_fraction([pair("a", "b", None)], 0.5)
        mixed = [pair("a", "b", 0.9, n=0), pair("c", "d", None, n=1), pair("e", "f", None, n=2)]
        with pytest.raises(ValueError, match="2 mined pairs lack scores"):
            select_top_fraction(mixed, 1.0)

    def test_fraction_outside_unit_interval_rejected(self):
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                select_top_fraction([pair("a", "b", 0.5)], fraction)


class TestReport:
    def test_empty_run(self):
        report, selected = mining_report([], MiningConfig(), sources_processed=0)
        assert selected == []
        assert report["pairs_emitted"] == 0
        assert report["pairs_post_dedup"] == 0
        assert report["pairs_post_selection"] == 0

    def test_selection_count(self):
        pairs = [pair(str(i), "t", i / 10, n=i) for i in range(10)]
        report, selected = mining_report(pairs, MiningConfig(selection_fraction=0.2), sources_processed=10)
        assert report["pairs_post_selection"] == 2
        assert selected == pairs[8:]
        assert report["sources_processed"] == 10

    def test_histogram_partitions_pairs(self):
        rng = np.random.default_rng(0)
        pairs = [pair(str(i), "t", float(s), n=i) for i, s in enumerate(rng.uniform(-1, 1, 37))]
        hist = score_histogram(pairs)
        assert sum(hist.values()) == 37
        assert len(hist) == 40  # 0.05-wide bins over [-1, 1]

    def test_histogram_includes_exact_one(self):
        hist = score_histogram([pair("a", "b", 1.0)])
        assert hist["hist[+0.95,+1.00)"] == 1
