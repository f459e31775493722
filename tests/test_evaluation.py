import math

import numpy as np
import pytest

from bitextmine.errors import DataError
from bitextmine.evaluation import (
    GoldAlignment,
    PRF,
    arccos_similarity,
    bucc_best_f1,
    bucc_candidates,
    format_metric_lines,
    p_at_1,
    read_candidates_tsv,
    read_gold_tsv,
    read_scores,
    sts_pearson,
    tatoeba_accuracy,
    write_metrics_report,
)
from bitextmine.vecindex import build, search

from conftest import unit_rows


def gold_of(*pairs, src=None, tgt=None):
    return GoldAlignment.from_pairs(list(pairs), src, tgt)


class TestGoldAlignment:
    def test_source_appears_once(self):
        with pytest.raises(ValueError):
            gold_of(("s1", "t1"), ("s1", "t2"))

    def test_universe_membership_enforced(self):
        with pytest.raises(ValueError):
            GoldAlignment.from_pairs([("s1", "t1")], src_universe=["s2"], tgt_universe=["t1"])


class TestPAt1:
    def test_identical_sets_identity_gold(self):
        V = np.eye(4)
        ids = [f"t{i}" for i in range(4)]
        index = build(V, ids)
        src = build(V, [f"s{i}" for i in range(4)])
        gold = gold_of(*[(f"s{i}", f"t{i}") for i in range(4)])
        assert p_at_1(src, index, gold) == 1.0

    def test_adversarial_pool_scores_zero(self):
        d = 6
        rng = np.random.default_rng(0)
        q = unit_rows(rng, 3, d)
        # decoys exactly equal the queries; true targets orthogonal-ish
        pool = np.concatenate([q, unit_rows(rng, 3, d) * 0 + np.eye(d)[5]])
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        ids = [f"d{i}" for i in range(3)] + [f"t{i}" for i in range(3)]
        index = build(pool, ids)
        src = build(q, [f"s{i}" for i in range(3)])
        gold = gold_of(*[(f"s{i}", f"t{i}") for i in range(3)])
        assert p_at_1(src, index, gold) == 0.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        pool = unit_rows(rng, 100, 8)
        # plant near-duplicates of some queries
        queries = unit_rows(rng, 10, 8)
        pool[:10] = queries + rng.normal(0, 0.01, size=(10, 8))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        ids = [f"t{i:03d}" for i in range(100)]
        index = build(pool, ids)
        src = build(queries, [f"s{i}" for i in range(10)])
        gold = gold_of(*[(f"s{i}", f"t{i:03d}") for i in range(10)])
        got = p_at_1(src, index, gold)
        hits = 0
        for i in range(10):
            scores = pool @ queries[i]
            best = sorted(range(100), key=lambda r: (-scores[r], ids[r]))[0]
            hits += ids[best] == f"t{i:03d}"
        assert got == pytest.approx(hits / 10)

    def test_missing_embedding_errors(self):
        index = build(np.eye(2), ["t0", "t1"])
        gold = gold_of(("s0", "t0"))
        with pytest.raises(DataError):
            p_at_1(build(np.eye(2), ["s1", "s2"]), index, gold)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(2)
        pool = unit_rows(rng, 30, 6)
        ids = [f"t{i}" for i in range(30)]
        queries = pool[:5] + rng.normal(0, 0.05, (5, 6))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        gold = gold_of(*[(f"s{i}", f"t{i}") for i in range(5)])
        index = build(pool, ids)
        base = p_at_1(build(queries, [f"s{i}" for i in range(5)]), index, gold)
        # a source pool is unit-norm, so the rescaling goes to the rows
        # that p_at_1 hands to search
        tops = search(index, 7.3 * queries, k=1)
        assert sum(top[0][0] == f"t{i}" for i, top in enumerate(tops)) / 5 == base


class TestTatoeba:
    def pool_for(self, accuracy_one: bool, seed: int):
        rng = np.random.default_rng(seed)
        V = np.eye(4)
        src = V if accuracy_one else V[[1, 2, 3, 0]]  # else every query retrieves a decoy
        gold = gold_of(*[(f"s{i}", f"t{i}") for i in range(4)])
        return build(src, [f"s{i}" for i in range(4)]), build(V, [f"t{i}" for i in range(4)]), gold

    def test_single_language_group(self):
        result = tatoeba_accuracy({"de": self.pool_for(True, 0)}, {"g": ["de"]})
        assert result.per_language["de"] == 1.0
        assert result.group_means["g"] == 1.0

    def test_macro_average_is_unweighted(self):
        sets = {"de": self.pool_for(True, 0), "fr": self.pool_for(False, 1)}
        result = tatoeba_accuracy(sets, {"both": ["de", "fr"]})
        assert result.per_language["fr"] == 0.0
        assert result.group_means["both"] == 0.5

    def test_missing_language_flagged_and_excluded(self):
        result = tatoeba_accuracy({"de": self.pool_for(True, 0)}, {"g": ["de", "xx"]})
        assert result.group_means["g"] == 1.0
        assert result.missing["g"] == ["xx"]

    def test_group_order_invariance(self):
        sets = {"de": self.pool_for(True, 0), "fr": self.pool_for(False, 1)}
        a = tatoeba_accuracy(sets, {"g": ["de", "fr"]}).group_means["g"]
        b = tatoeba_accuracy(sets, {"g": ["fr", "de"]}).group_means["g"]
        assert a == b


def brute_force_best_f1(candidates, gold_pairs):
    best = None
    for tau in sorted({c[2] for c in candidates}, reverse=True):
        pred = [(s, t) for s, t, sc in candidates if sc >= tau]
        tp = sum(1 for p in pred if p in gold_pairs)
        precision = tp / len(pred)
        recall = tp / len(gold_pairs)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if best is None or f1 > best[2]:
            best = (precision, recall, f1, tau)
    return best


class TestBuccBestF1:
    def test_simple_two_candidate_case(self):
        gold = gold_of(("s1", "t1"), src=["s1", "s2"], tgt=["t1", "t5"])
        prf = bucc_best_f1([("s1", "t1", 0.9), ("s2", "t5", 0.8)], gold)
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)
        assert prf.threshold == 0.9

    def test_no_overlap_gives_zero_f1(self):
        gold = gold_of(("s1", "t1"), src=["s1", "s9"], tgt=["t1", "t9"])
        prf = bucc_best_f1([("s9", "t9", 0.7)], gold)
        assert prf.f1 == 0.0

    def test_gold_equals_candidates_uniform_scores(self):
        pairs = [(f"s{i}", f"t{i}") for i in range(5)]
        gold = gold_of(*pairs)
        prf = bucc_best_f1([(s, t, 0.5) for s, t in pairs], gold)
        assert (prf.precision, prf.recall, prf.f1, prf.threshold) == (1.0, 1.0, 1.0, 0.5)

    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n_src, n_tgt = 30, 30
            gold_pairs = [(f"s{i}", f"t{i}") for i in range(rng.integers(1, 15))]
            gold = gold_of(
                *gold_pairs,
                src=[f"s{i}" for i in range(n_src)],
                tgt=[f"t{i}" for i in range(n_tgt)],
            )
            candidates = []
            for i in range(n_src):
                if rng.random() < 0.7:
                    j = int(rng.integers(0, n_tgt))
                    candidates.append((f"s{i}", f"t{j}", float(np.round(rng.random(), 2))))
            if not candidates:
                continue
            prf = bucc_best_f1(candidates, gold)
            want = brute_force_best_f1(candidates, gold.pairs)
            assert (prf.precision, prf.recall, prf.f1, prf.threshold) == pytest.approx(want)

    def test_tie_takes_larger_threshold(self):
        # both thresholds give F1=0: the larger must be reported
        gold = gold_of(("s1", "t1"), src=["s1", "s2", "s3"], tgt=["t1", "t2", "t3"])
        prf = bucc_best_f1([("s2", "t2", 0.9), ("s3", "t3", 0.4)], gold)
        assert prf.f1 == 0.0 and prf.threshold == 0.9

    def test_duplicates_rejected(self):
        gold = gold_of(("s1", "t1"))
        with pytest.raises(ValueError):
            bucc_best_f1([("s1", "t1", 0.9), ("s1", "t1", 0.8)], gold)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            bucc_best_f1([("s1", "t1", 0.9)], GoldAlignment.from_pairs([]))

    def test_returned_threshold_dominates_all_others(self):
        rng = np.random.default_rng(4)
        gold = gold_of(*[(f"s{i}", f"t{i}") for i in range(8)])
        candidates = [
            (f"s{i}", f"t{i if rng.random() < 0.5 else (i + 1) % 8}", float(rng.random()))
            for i in range(8)
        ]
        prf = bucc_best_f1(candidates, gold)
        for tau in {c[2] for c in candidates}:
            pred = [(s, t) for s, t, sc in candidates if sc >= tau]
            tp = sum(1 for p in pred if p in gold.pairs)
            precision = tp / len(pred)
            recall = tp / len(gold.pairs)
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert prf.f1 >= f1 - 1e-12


class TestBuccCandidates:
    def test_top1_per_source(self):
        V = np.eye(3)
        index = build(V, ["t0", "t1", "t2"])
        out = bucc_candidates(build(V[[2, 0]], ["s1", "s0"]), index, k=1)
        assert out == [("s0", "t0", 1.0), ("s1", "t2", 1.0)]

    def test_configurable_k(self):
        V = np.eye(3)
        index = build(V, ["t0", "t1", "t2"])
        out = bucc_candidates(build(V[:1], ["s0"]), index, k=3)
        assert len(out) == 3


class TestStsPearson:
    def embed_for(self, dots):
        pairs = []
        for c in dots:
            u = np.array([1.0, 0.0])
            v = np.array([c, math.sqrt(max(0.0, 1 - c * c))])
            pairs.append((u, v))
        return pairs

    def test_perfect_linear_relation_is_one(self):
        pairs = self.embed_for([0.2, 0.5, 0.8])
        sims = [arccos_similarity(u, v) for u, v in pairs]
        gold = [2 * s for s in sims]
        assert sts_pearson(pairs, gold) == pytest.approx(1.0, abs=1e-15)

    def test_reversed_gold_is_minus_one(self):
        pairs = self.embed_for([0.2, 0.5, 0.8])
        sims = [arccos_similarity(u, v) for u, v in pairs]
        gold = [-2 * s for s in sims]
        assert sts_pearson(pairs, gold) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_independent_two_pass_formula(self):
        rng = np.random.default_rng(5)
        pairs = [(u, v) for u, v in zip(unit_rows(rng, 10, 4), unit_rows(rng, 10, 4))]
        gold = rng.normal(size=10).tolist()
        got = sts_pearson(pairs, gold)
        model = np.array([1 - math.acos(max(-1, min(1, float(np.dot(u, v))))) / math.pi for u, v in pairs])
        g = np.array(gold)
        num = np.sum((model - model.mean()) * (g - g.mean()))
        den = math.sqrt(np.sum((model - model.mean()) ** 2) * np.sum((g - g.mean()) ** 2))
        assert got == pytest.approx(num / den, abs=1e-12)

    def test_constant_gold_rejected(self):
        pairs = self.embed_for([0.2, 0.5])
        with pytest.raises(ValueError):
            sts_pearson(pairs, [1.0, 1.0])

    def test_constant_model_rejected(self):
        pairs = self.embed_for([0.5, 0.5])
        with pytest.raises(ValueError):
            sts_pearson(pairs, [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sts_pearson(self.embed_for([0.1]), [1.0, 2.0])


class TestFilesAndReports:
    def test_gold_tsv_roundtrip(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("s1\tt1\ns2\tt2\n", encoding="utf-8")
        gold = read_gold_tsv(path)
        assert gold.pairs == {("s1", "t1"), ("s2", "t2")}

    def test_gold_tsv_bad_columns(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("s1\tt1\textra\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"gold\.tsv:1: expected src_id<TAB>tgt_id, got 3$"):
            read_gold_tsv(path)

    def test_candidates_tsv(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("s1\tt1\t0.75\n", encoding="utf-8")
        assert read_candidates_tsv(path) == [("s1", "t1", 0.75)]

    def test_scores_skip_whitespace_only_lines_and_name_the_counted_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n  \n 1.5 \n\t\nx\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"scores\.txt:5: bad score 'x'$"):
            read_scores(path)
        path.write_text("0.5\n  \n 1.5 \n\t\n", encoding="utf-8")
        assert read_scores(path) == [0.5, 1.5]

    def test_metric_lines_format(self):
        text = format_metric_lines({"p_at_1": 0.5, "count": 7})
        assert text == "p_at_1=0.500000\ncount=7\n"

    def test_write_report_and_json(self, tmp_path):
        path = tmp_path / "report.txt"
        write_metrics_report({"f1": 1.0}, path)
        assert path.read_text().startswith("f1=1.000000")
        assert (tmp_path / "report.txt.json").exists()


def test_prf_invariant():
    prf = PRF(precision=0.5, recall=0.25, f1=2 * 0.5 * 0.25 / 0.75, threshold=0.5)
    assert prf.f1 == pytest.approx(2 * prf.precision * prf.recall / (prf.precision + prf.recall))
