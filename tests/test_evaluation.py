import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bitextmine.errors import DataError
from bitextmine.evaluation import (
    GoldAlignment,
    PRF,
    arccos_similarity,
    bucc_best_f1,
    bucc_candidates,
    format_candidates_tsv,
    format_metric_lines,
    p_at_1,
    read_candidates_tsv,
    read_gold_tsv,
    read_scores,
    sts_pearson,
    tatoeba_accuracy,
    write_metrics_report,
)
from bitextmine.vecindex import build

from conftest import search_hits, unit_rows


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
        tops = search_hits(index, 7.3 * queries, k=1)
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

    def test_empty_candidates_rejected(self):
        # an empty sweep has no threshold to report
        with pytest.raises(ValueError, match="no candidates"):
            bucc_best_f1([], gold_of(("s1", "t1")))

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


def python_sweep(candidates, gold):
    """The best-F1 sweep as a Python loop over the candidates ranked by
    descending score (a stable sort), one tie group at a time, the first
    maximum kept: the reference for ``bucc_best_f1``."""
    ranked = sorted(candidates, key=lambda c: -c[2])
    best, tp, n_pred, i = None, 0, 0, 0
    while i < len(ranked):
        tau = ranked[i][2]
        while i < len(ranked) and ranked[i][2] == tau:
            s, t, _ = ranked[i]
            n_pred += 1
            tp += (s, t) in gold.pairs
            i += 1
        precision = tp / n_pred
        recall = tp / len(gold.pairs)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        if best is None or f1 > best.f1:
            best = PRF(precision=precision, recall=recall, f1=f1, threshold=tau)
    return best


@st.composite
def sweeps(draw):
    """(candidates, gold): up to 3 candidates per source over a few
    targets, scores from a small set (many ties, 0.0 and -0.0 among
    them), and a gold alignment that may miss every candidate."""
    n_src, n_tgt = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    values = st.sampled_from([0.9, 0.5, 0.25, 0.0, -0.0, -0.5]) | st.floats(-1, 1)
    candidates = []
    for s in range(n_src):
        for t in draw(st.lists(st.integers(0, n_tgt - 1), max_size=3, unique=True)):
            candidates.append((f"s{s}", f"t{t}", draw(values)))
    assume(candidates)
    gold = draw(st.dictionaries(st.integers(0, n_src + 2), st.integers(0, n_tgt + 2), min_size=1))
    return draw(st.permutations(candidates)), gold_of(*[(f"s{s}", f"t{t}") for s, t in gold.items()])


class TestBuccSweepProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=sweeps())
    @example(case=([("s0", "t0", 0.5)], gold_of(("s0", "t0"))))  # one candidate, a hit
    @example(case=([("s0", "t1", 0.5), ("s1", "t0", 0.5)], gold_of(("s0", "t0"))))  # all misses, tied
    @example(case=([("s0", "t0", -0.0), ("s1", "t1", 0.0)], gold_of(("s1", "t1"))))  # the group's first zero
    def test_numpy_sweep_equals_the_python_loop(self, case):
        candidates, gold = case
        got, want = bucc_best_f1(candidates, gold), python_sweep(candidates, gold)
        assert [x.hex() for x in vars(got).values()] == [float(x).hex() for x in vars(want).values()]


def brute_force_p_at_1(src, tgt, gold):
    """P@1 by scanning: each gold source's exact score with every target
    row (its float32 row widened, as ``search`` scores it), the best by
    descending score, then ascending id."""
    hits = 0
    for s, t in gold.pairs:
        scores = (tgt.vectors * src.vectors[src.ids.index(s)].astype(np.float64)).sum(axis=1)
        best = min(range(len(tgt.ids)), key=lambda r: (-scores[r], tgt.ids[r]))
        hits += tgt.ids[best] == t
    return hits / len(gold.pairs)


@st.composite
def retrievals(draw):
    """(src, tgt, gold): a target pool of coarse unit rows with exact
    copies (many tied scores) under ids out of row order, sources near
    some of them, and gold targets that may repeat or lie outside it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, d, n = draw(st.integers(1, 30)), draw(st.integers(1, 5)), draw(st.integers(1, 12))
    base = np.round(unit_rows(rng, max(1, m // 3), d), 1)
    base[np.all(base == 0, axis=1), 0] = 1.0
    V = base[rng.integers(0, len(base), size=m)]
    tgt_ids = [f"t{i:02d}" for i in rng.permutation(m)]
    Q = np.concatenate([V[rng.integers(0, m, size=n)], unit_rows(rng, n, d)])[rng.permutation(2 * n)[:n]]
    src = build(Q / np.linalg.norm(Q, axis=1, keepdims=True), [f"s{i}" for i in range(n)])
    tgt = build(V / np.linalg.norm(V, axis=1, keepdims=True), tgt_ids)
    targets = st.just("outside") | st.sampled_from(tgt_ids)
    gold = draw(st.dictionaries(st.sampled_from(src.ids), targets, min_size=1))
    return src, tgt, gold_of(*gold.items(), src=src.ids, tgt=tgt_ids + ["outside"])


class TestPAt1Property:
    @settings(max_examples=150, deadline=None)
    @given(case=retrievals())
    @example(  # the gold target lies outside the pool, and the source's best is its first row
        case=(build(np.eye(2)[:1], ["s0"]), build(np.eye(2), ["t0", "t1"]), gold_of(("s0", "x"), tgt=["t0", "t1", "x"]))
    )
    def test_p_at_1_equals_brute_force(self, case):
        assert p_at_1(*case) == brute_force_p_at_1(*case)


class TestBuccCandidates:
    def test_top1_per_source(self):
        V = np.eye(3)
        index = build(V, ["t0", "t1", "t2"])
        out = bucc_candidates(build(V[[2, 0]], ["s1", "s0"]), index, k=1)
        assert out == [("s1", "t2", 1.0), ("s0", "t0", 1.0)]  # sources in pool order

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("s1\tt1\ns2\tt2\ns1\tt1\n", r"gold\.tsv:3: gold pair \('s1', 't1'\) repeats line 1$"),
            ("s1\tt1\n\ns1\tt2\n", r"gold\.tsv:3: source 's1' has a second target 't2'; line 1 gives 't1'$"),
            ("s1\tt1\ns2\tt9\n", r"gold\.tsv: gold pair \('s2', 't9'\) outside its universe$"),
        ],
    )
    def test_gold_tsv_read_over_the_pools_ids_names_a_bad_line(self, tmp_path, text, message):
        path = tmp_path / "gold.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_gold_tsv(path, ["s1", "s2"], ["t1", "t2"])

    def test_gold_tsv_over_the_pools_ids_takes_them_as_universes(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("s1\tt2\n", encoding="utf-8")
        gold = read_gold_tsv(path, ["s1", "s2"], ["t1", "t2"])
        assert (gold.pairs, gold.src_universe, gold.tgt_universe) == ({("s1", "t2")}, {"s1", "s2"}, {"t1", "t2"})

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

    @pytest.mark.parametrize(
        "metrics, message",
        [
            ({"a=b": 1}, r"metric name 'a=b' holds '=' or a line end"),
            ({"group_g\nx": 0.5}, r"metric name 'group_g\\nx' holds '=' or a line end"),
            ({"a\rb": 1}, r"metric name 'a\\rb' holds '=' or a line end"),
            ({"missing_g": "xx\ny=1"}, r"metric 'missing_g' value 'xx\\ny=1' holds a line end"),
            ({"missing_g": "xx\r"}, r"metric 'missing_g' value 'xx\\r' holds a line end"),
        ],
    )
    def test_report_refuses_a_metric_that_would_read_as_another(self, tmp_path, metrics, message):
        path = tmp_path / "report.txt"
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_metrics_report({"f1": 1.0, **metrics}, path)
        assert not path.exists()
        assert not (tmp_path / "report.txt.json").exists()


# Pool ids a candidates file can hold: no tab or line end, with the
# separators that str.splitlines would split on, a byte-order mark and
# spaces drawn often.
CANDIDATE_ID = st.text(
    st.characters(exclude_characters="\t\n\r", exclude_categories=["Cs"])
    | st.sampled_from(["\x0b", "\x0c", "\x85", "\u2028", "\u2029", "\ufeff", " "]),
    max_size=4,
)


@st.composite
def writable_candidates(draw):
    """Candidates that ``format_candidates_tsv`` accepts."""
    keys = draw(
        st.lists(st.tuples(CANDIDATE_ID, CANDIDATE_ID), min_size=1, max_size=5, unique=True).filter(
            lambda keys: not keys[0][0].startswith("\ufeff")
        )
    )
    return [(s, t, draw(st.floats(allow_nan=False, allow_infinity=False))) for s, t in keys]


def as_read(candidates):
    """What ``read_candidates_tsv`` should give: each score as its 6 written decimals."""
    return [(s, t, float(f"{score:.6f}")) for s, t, score in candidates]


def read_back(text):
    """What ``read_candidates_tsv`` reads from ``text``, or None if it refuses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cand.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            return read_candidates_tsv(path)
        except DataError:
            return None


class TestCandidatesRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(candidates=writable_candidates())
    def test_candidates_the_writer_accepts_read_back_equal(self, candidates):
        assert read_back(format_candidates_tsv(candidates)) == as_read(candidates)

    @settings(max_examples=100, deadline=None)
    @given(candidates=writable_candidates(), data=st.data())
    def test_writer_refuses_first_what_the_reader_could_not_read_back(self, candidates, data):
        fault = data.draw(st.sampled_from(["id", "lead", "score", "duplicate", "none"]))
        n = data.draw(st.integers(0, len(candidates) - 1))
        s, t, score = candidates[n]
        if fault == "id":
            side = data.draw(st.integers(0, 1))
            bad = data.draw(CANDIDATE_ID) + data.draw(st.sampled_from(["\t", "\n", "\r", "\r\n"])) + data.draw(CANDIDATE_ID)
            candidates[n] = (bad, t, score) if side == 0 else (s, bad, score)
            message = f"pool id {re.escape(repr(bad))} holds a tab or a line end"
        elif fault == "lead":
            bad = "\ufeff" + data.draw(CANDIDATE_ID)
            assume((bad, candidates[0][1]) not in {c[:2] for c in candidates[1:]})  # a duplicate is refused first
            candidates[0] = (bad, *candidates[0][1:])
            message = f"pool id {re.escape(repr(bad))} starts with a byte-order mark"
        elif fault == "score":
            candidates[n] = (s, t, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
            message = "non-finite candidate score"
        elif fault == "duplicate":
            candidates.insert(data.draw(st.integers(n + 1, len(candidates))), (s, t, data.draw(st.floats(-1, 1))))
            message = "duplicate candidate"
        else:
            candidates = []
            message = "no candidates"
        unchecked = "".join(f"{s}\t{t}\t{score:.6f}\n" for s, t, score in candidates)
        assert read_back(unchecked) != as_read(candidates)
        with pytest.raises(ValueError, match=f"^{message}"):
            format_candidates_tsv(candidates)


def test_prf_invariant():
    prf = PRF(precision=0.5, recall=0.25, f1=2 * 0.5 * 0.25 / 0.75, threshold=0.5)
    assert prf.f1 == pytest.approx(2 * prf.precision * prf.recall / (prf.precision + prf.recall))
