import re

import pytest

from bitextmine.corpus import (
    Sentence,
    SentencePair,
    format_pairs_tsv,
    read_monolingual,
    read_pairs_tsv,
)
from bitextmine.errors import DataError
from bitextmine.mining import select_top_fraction


def pair(src_text, tgt_text, score=None, src_lang="aa", tgt_lang="bb", n=0):
    return SentencePair(
        src=Sentence(id=f"{n}s", lang=src_lang, text=src_text),
        tgt=Sentence(id=f"{n}t", lang=tgt_lang, text=tgt_text),
        score=score,
    )


class TestCapPairs:
    """``select_top_fraction`` caps the pairs it keeps at the ceil(f * n) best."""

    def test_highest_scored_survive(self):
        pairs = [pair("a", "b", score=sc, n=i) for i, sc in enumerate([0.9, 0.8, 0.7, 0.6])]
        kept = select_top_fraction(pairs, 0.5)
        assert [p.score for p in kept] == [0.9, 0.8]

    def test_tie_break_by_input_order(self):
        pairs = [pair(f"t{i}", "b", score=0.5, n=i) for i in range(4)]
        kept = select_top_fraction(pairs, 0.5)
        assert [p.src.text for p in kept] == ["t0", "t1"]

    def test_output_is_subset_in_input_order(self):
        pairs = [pair(f"t{i}", "b", score=float(i % 3), n=i) for i in range(9)]
        kept = select_top_fraction(pairs, 0.5)
        assert [p.src.text for p in kept] == ["t1", "t2", "t4", "t5", "t8"]
        positions = [pairs.index(p) for p in kept]
        assert positions == sorted(positions)


class TestSelectByScore:
    def test_top_fraction_identity(self):
        pairs = [pair("a", "b", 0.5, n=i) for i in range(4)]
        assert select_top_fraction(pairs, 1.0) == pairs

    def test_top_fraction_ceil(self):
        pairs = [pair(str(i), "b", sc, n=i) for i, sc in enumerate([0.1, 0.5, 0.9])]
        kept = select_top_fraction(pairs, 1 / 3)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_output_size_matches_ceil(self):
        pairs = [pair(str(i), "b", float(i), n=i) for i in range(10)]
        for frac, want in [(0.2, 2), (0.25, 3), (0.5, 5), (1.0, 10)]:
            assert len(select_top_fraction(pairs, frac)) == want


class TestFiles:
    def test_monolingual_roundtrip(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text("de\thallo welt\nplain line\n\n", encoding="utf-8")
        sentences = read_monolingual(path, default_lang="en")
        assert [x.lang for x in sentences] == ["de", "en"]
        assert sentences[0].text == "hallo welt"
        assert sentences[1].id == "2"

    def test_monolingual_whitespace_only_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text("first\n   \n\t \nlast line \n", encoding="utf-8")
        sentences = read_monolingual(path)
        assert [(x.id, x.text) for x in sentences] == [("1", "first"), ("4", "last line ")]

    def test_tab_without_lang_prefix_stays_text(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text("NOTLANG\tkeeps the tab\n", encoding="utf-8")
        sentences = read_monolingual(path)
        assert sentences[0].text == "NOTLANG\tkeeps the tab"

    def test_pairs_tsv_roundtrip(self, tmp_path):
        pairs = [pair("hello", "hallo", 0.5, n=0), pair("sun", "sonne", n=1)]
        path = tmp_path / "pairs.tsv"
        path.write_text(format_pairs_tsv(pairs), encoding="utf-8")
        back = read_pairs_tsv(path)
        assert [(p.src.text, p.tgt.text) for p in back] == [("hello", "hallo"), ("sun", "sonne")]
        assert back[0].score == pytest.approx(0.5)
        assert back[1].score is None

    def test_pairs_tsv_ids_count_empty_lines_and_an_empty_fifth_column_is_no_score(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("\naa\tbb\tx\ty\t\n", encoding="utf-8")
        (back,) = read_pairs_tsv(path)
        assert (back.src.id, back.tgt.id, back.score) == ("2:src", "2:tgt", None)

    def test_pairs_tsv_row_of_blank_fields_is_skipped_but_counted(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(" \t \t \t \naa\tbb\tx\ty\n", encoding="utf-8")
        (back,) = read_pairs_tsv(path)
        assert (back.src.id, back.src.lang, back.tgt.lang) == ("2:src", "aa", "bb")

    @pytest.mark.parametrize(
        "row, side",
        [("aa\tbb\t \tx", "src"), ("aa\tbb\tx\t\t0.5", "tgt"), ("aa\tbb\t\t \t", "src")],
    )
    def test_pairs_tsv_blank_text_field_names_its_line(self, tmp_path, row, side):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"aa\tbb\tx\ty\n\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: blank {side}_text$"):
            read_pairs_tsv(path)

    @pytest.mark.parametrize("row", ["aa\t ", "aa\t\t", "de-ch\t \t "])
    def test_monolingual_blank_text_after_lang_prefix_names_its_line(self, tmp_path, row):
        path = tmp_path / "mono.txt"
        path.write_text(f"aa\tx\n\n{row}\nbb\ty\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: blank text$"):
            read_monolingual(path)

    def test_pairs_tsv_bad_column_count(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("only\tthree\tcolumns\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_pairs_tsv(path)


def test_sentence_requires_lang():
    with pytest.raises(ValueError):
        Sentence(id="1", lang="", text="x")


def test_pair_score_must_be_finite():
    with pytest.raises(ValueError):
        pair("a", "b", float("nan"))
