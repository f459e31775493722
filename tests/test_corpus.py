import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextmine.corpus import (
    Sentence,
    SentencePair,
    SentencePairs,
    Sentences,
    format_pairs_tsv,
    read_monolingual,
    read_pairs_tsv,
)
from bitextmine.errors import DataError
from bitextmine.fileio import read_lines
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

    @pytest.mark.parametrize("side", ["src", "tgt"])
    def test_pairs_tsv_writer_refuses_a_text_with_a_tab(self, side):
        texts = {"src": "hello", "tgt": "hallo", side: "NOTLANG\tkeeps the tab"}
        with pytest.raises(ValueError, match=f"sentence '0{side[0]}' holds a tab"):
            format_pairs_tsv([pair("sun", "sonne", n=1), pair(texts["src"], texts["tgt"], n=0)])

    @pytest.mark.parametrize("char, name", [("\n", "a line feed"), ("\r", "a carriage return")])
    @pytest.mark.parametrize("side", ["src", "tgt"])
    def test_pairs_tsv_writer_refuses_a_text_with_a_line_break(self, side, char, name):
        texts = {"src": "hello", "tgt": "hallo", side: f"two{char}lines"}
        with pytest.raises(ValueError, match=f"sentence '0{side[0]}' holds {name}"):
            format_pairs_tsv([pair("sun", "sonne", n=1), pair(texts["src"], texts["tgt"], n=0)])

    @pytest.mark.parametrize(
        "text, lang, message",
        [
            (" \t", "aa", "has a blank text"),
            ("sun", "a\tb", "language tag holds a tab"),
            ("sun", "aa\n", "language tag holds a line feed"),
            ("sun", "\ufeffaa", "language tag starts with a byte-order mark"),
        ],
    )
    def test_pairs_tsv_writer_refuses_a_blank_text_and_a_language_tag_its_reader_refuses(self, text, lang, message):
        with pytest.raises(ValueError, match=f"^sentence '0s' {message}"):
            format_pairs_tsv([pair("sun", "sonne", n=1), pair(text, "sonne", src_lang=lang, n=0)])

    def test_only_line_feed_ends_a_line_and_crlf_loses_its_carriage_return(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_bytes("de\thallo\r\n \r\nnext\u2028same\u0085line\n".encode("utf-8"))
        sentences = read_monolingual(path)
        assert [(x.id, x.lang, x.text) for x in sentences] == [
            ("1", "de", "hallo"),
            ("3", "und", "next\u2028same\u0085line"),
        ]

    @pytest.mark.parametrize("data", ["one\rtwo\nthree\n", "one\ntwo\r\r\n", "one\ntwo\r"])
    def test_carriage_return_inside_a_line_names_it(self, tmp_path, data):
        path = tmp_path / "mono.txt"
        path.write_bytes(data.encode("utf-8"))
        line = 1 if data.startswith("one\r") else 2
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: carriage return inside a line$"):
            read_monolingual(path)

    @pytest.mark.parametrize("reader", [read_monolingual, read_pairs_tsv])
    def test_byte_order_mark_is_refused_naming_the_file(self, tmp_path, reader):
        path = tmp_path / "data.txt"
        path.write_bytes("\ufeffaa\tbb\tgeki geba\tgoki\n".encode("utf-8"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:1: starts with a UTF-8 byte-order mark$"):
            reader(path)

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


MONO_TEXT = "de\thallo welt\nplain line\n\n  \nNOTLANG\tkeeps the tab\nfr\tbonjour\n"
MONO_RECORDS = [
    Sentence("1", "de", "hallo welt"),
    Sentence("2", "en", "plain line"),
    Sentence("5", "en", "NOTLANG\tkeeps the tab"),
    Sentence("6", "fr", "bonjour"),
]
PAIRS_TEXT = "aa\tbb\tgeki\tgoki\t0.5\n\naa\tcc\tgeba\tgoba\ndd\tbb\tx y\tz\t\n"
PAIRS_RECORDS = [
    SentencePair(Sentence("1:src", "aa", "geki"), Sentence("1:tgt", "bb", "goki"), 0.5),
    SentencePair(Sentence("3:src", "aa", "geba"), Sentence("3:tgt", "cc", "goba"), None),
    SentencePair(Sentence("4:src", "dd", "x y"), Sentence("4:tgt", "bb", "z"), None),
]


def read_mono_example(directory):
    path = directory / "mono.txt"
    path.write_text(MONO_TEXT, encoding="utf-8")
    return read_monolingual(path, default_lang="en")


def read_pairs_example(directory):
    path = directory / "pairs.tsv"
    path.write_text(PAIRS_TEXT, encoding="utf-8")
    return read_pairs_tsv(path)


READERS = {
    "monolingual": (read_mono_example, Sentences, MONO_RECORDS),
    "pairs": (read_pairs_example, SentencePairs, PAIRS_RECORDS),
}


class TestColumns:
    """Each reader's columns index, slice and iterate as the list of
    records it used to build, and build a record, afresh, only when one is
    indexed."""

    def test_columns_hold_each_field_in_line_order(self, tmp_path):
        sentences = read_mono_example(tmp_path)
        assert (sentences.ids, sentences.langs) == (["1", "2", "5", "6"], ["de", "en", "en", "fr"])
        assert sentences.texts == ["hallo welt", "plain line", "NOTLANG\tkeeps the tab", "bonjour"]
        pairs = read_pairs_example(tmp_path)
        assert (pairs.lines, pairs.src_langs, pairs.tgt_langs) == ([1, 3, 4], ["aa", "aa", "dd"], ["bb", "cc", "bb"])
        assert (pairs.src_texts, pairs.tgt_texts, pairs.scores) == (["geki", "geba", "x y"], ["goki", "goba", "z"], [0.5, None, None])

    @pytest.mark.parametrize("reader", READERS)
    def test_equals_slices_and_iterates_as_its_record_list(self, tmp_path, reader):
        read, kind, records = READERS[reader]
        seq = read(tmp_path)
        assert type(seq) is kind
        assert len(seq) == len(records) and bool(seq) and not seq[:0]
        assert list(seq) == list(seq) == records  # iterates more than once
        assert list(reversed(seq)) == records[::-1]
        assert [seq[i] for i in range(-len(records), len(records))] == records + records
        for i in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                seq[i]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(0, 3, 2), slice(5, 9)):
            part = seq[cut]
            assert type(part) is kind and list(part) == records[cut]
        if kind is Sentences:  # joined as pretrain joins its --mono files
            assert list(seq + seq[1:]) == records + records[1:]
        assert seq == read(tmp_path) and seq != read(tmp_path)[1:]
        assert all(record in seq for record in records) and seq.index(records[-1]) == len(records) - 1
        with pytest.raises(TypeError):
            hash(seq)

    @pytest.mark.parametrize("reader", READERS)
    def test_builds_no_record_until_one_is_indexed(self, tmp_path, monkeypatch, reader):
        built = []
        for record_type in (Sentence, SentencePair):
            def counting(self, *args, _init=record_type.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(record_type, "__init__", counting)
        read, _, records = READERS[reader]
        per_record = 3 if reader == "pairs" else 1  # a pair and its two sentences
        seq = read(tmp_path)
        assert built == [] and len(seq) == len(records) and len(seq[1:]) == len(records) - 1
        first = seq[1]
        assert first == records[1] and len(built) == per_record
        assert seq[1] == first and len(built) == 2 * per_record  # built afresh: nothing is kept
        assert list(seq) == records
        assert len(built) == per_record * (len(records) + 2)

    def test_an_empty_language_tag_is_refused_at_read_naming_its_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        for row in ("\tbb\tx\ty", "aa\t\tx\ty"):
            path.write_text(f"aa\tbb\tx\ty\n{row}\n", encoding="utf-8")
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: sentence language tag must be non-empty$"):
                read_pairs_tsv(path)
        path = tmp_path / "mono.txt"
        path.write_text("aa\tx\nplain\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^sentence language tag must be non-empty$"):
            read_monolingual(path, default_lang="")
        path.write_text("aa\tx\nbb\ty\n", encoding="utf-8")  # every line carries its own tag
        assert read_monolingual(path, default_lang="").langs == ["aa", "bb"]


def per_line_read_lines(path):
    """The line rule applied one line at a time as the file is read: the
    reference that ``read_lines``, which splits the whole file at once,
    must match."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw[:-2] if raw.endswith("\r\n") else raw.removesuffix("\n")
            if "\r" in line:
                raise DataError(f"{path}:{lineno}: carriage return inside a line")
            if lineno == 1 and line.startswith("\ufeff"):
                raise DataError(f"{path}:1: starts with a UTF-8 byte-order mark")
            if line and not line.isspace():
                yield lineno, line


def lines_or_error(reader, path):
    try:
        return list(reader(path))
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    bom=st.booleans(),
    pieces=st.lists(st.sampled_from(["a", " ", "\t", "\n", "\r\n", "\r"]), max_size=12),
    final_newline=st.booleans(),
)
def test_read_lines_matches_the_per_line_rule(bom, pieces, final_newline):
    """Lines, numbers and the first ``DataError`` equal the per-line
    reference's for texts with CRLF and lone CR line ends, blank lines, a
    leading byte-order mark and with or without a final newline."""
    text = ("\ufeff" if bom else "") + "".join(pieces) + ("\n" if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_bytes(text.encode("utf-8"))
        assert lines_or_error(read_lines, path) == lines_or_error(per_line_read_lines, path)


def test_sentence_requires_lang():
    with pytest.raises(ValueError):
        Sentence(id="1", lang="", text="x")


def test_pair_score_must_be_finite():
    with pytest.raises(ValueError):
        pair("a", "b", float("nan"))


# Texts and language tags a pairs file can hold: no tab or line end, with
# the separators that str.splitlines would split on, a byte-order mark and
# edge spaces drawn often.
TSV_FIELD = st.text(
    st.characters(exclude_characters="\t\n\r", exclude_categories=["Cs"])
    | st.sampled_from(["\x0b", "\x0c", "\x85", "\u2028", "\u2029", "\ufeff", " "]),
    min_size=1,
    max_size=5,
)
TSV_TEXT = TSV_FIELD.filter(str.strip)
SCORES = st.none() | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def writable_pairs(draw, min_size=0):
    """Pairs that ``format_pairs_tsv`` accepts, sentence ids ``<n>s`` and ``<n>t``."""
    src_lang = TSV_FIELD.filter(lambda lang: lang[0] != "\ufeff")
    return [
        pair(draw(TSV_TEXT), draw(TSV_TEXT), draw(SCORES), draw(src_lang), draw(TSV_FIELD), n)
        for n in range(draw(st.integers(min_size, 4)))
    ]


def as_read(pairs):
    """What ``read_pairs_tsv`` should give for ``pairs``: languages, texts
    and each score as its 6 written decimals."""
    return [
        (p.src.lang, p.tgt.lang, p.src.text, p.tgt.text, None if p.score is None else float(f"{p.score:.6f}"))
        for p in pairs
    ]


def read_back(text):
    """``as_read`` of what ``read_pairs_tsv`` reads from ``text``, or None if it refuses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            return [(p.src.lang, p.tgt.lang, p.src.text, p.tgt.text, p.score) for p in read_pairs_tsv(path)]
        except DataError:
            return None


@st.composite
def unwritable_field(draw, field):
    """A value for ``field`` (``text``, ``lang`` or ``lead``, the first
    source language tag) that ``read_pairs_tsv`` could not read back."""
    if field == "lead":
        return "\ufeff" + draw(TSV_FIELD)
    if field == "text" and draw(st.booleans()):
        return draw(st.text(st.sampled_from(" \x0b\x85\u2028\u3000"), max_size=3))  # blank
    return draw(TSV_FIELD) + draw(st.sampled_from(["\t", "\n", "\r", "\r\n"])) + draw(TSV_FIELD)


class TestPairsRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(pairs=writable_pairs())
    def test_pairs_the_writer_accepts_read_back_equal(self, pairs):
        assert read_back(format_pairs_tsv(pairs)) == as_read(pairs)

    @settings(max_examples=100, deadline=None)
    @given(pairs=writable_pairs(min_size=1), data=st.data())
    def test_writer_refuses_first_what_the_reader_could_not_read_back(self, pairs, data):
        n = data.draw(st.integers(0, len(pairs) - 1))
        side, field = data.draw(st.sampled_from([(s, f) for s in ("src", "tgt") for f in ("text", "lang")]))
        if n == 0 and side == "src" and field == "lang" and data.draw(st.booleans()):
            field = "lead"
        sentence = getattr(pairs[n], side)
        value = data.draw(unwritable_field(field))
        bad = replace(sentence, **{"text" if field == "text" else "lang": value})
        pairs[n] = replace(pairs[n], **{side: bad})
        unchecked = "".join(
            f"{p.src.lang}\t{p.tgt.lang}\t{p.src.text}\t{p.tgt.text}" + ("" if p.score is None else f"\t{p.score:.6f}") + "\n"
            for p in pairs
        )
        assert read_back(unchecked) != as_read(pairs)
        with pytest.raises(ValueError, match=f"^sentence {re.escape(repr(bad.id))} "):
            format_pairs_tsv(pairs)


def per_field_format_pairs_tsv(pairs):
    """``format_pairs_tsv`` as it once was: every field of every pair
    checked one by one, the reference for its one check per row."""
    rows = []
    for p in pairs:
        if p.src.lang.startswith("\ufeff"):
            raise ValueError(f"sentence {p.src.id!r} language tag starts with a byte-order mark")
        for s in (p.src, p.tgt):
            if not s.text.strip():
                raise ValueError(f"sentence {s.id!r} has a blank text")
            for what, value in (("", s.text), (" language tag", s.lang)):
                for char, name in (("\t", "a tab"), ("\n", "a line feed"), ("\r", "a carriage return")):
                    if char in value:
                        raise ValueError(f"sentence {s.id!r}{what} holds {name} and cannot be written as one TSV column")
        base = f"{p.src.lang}\t{p.tgt.lang}\t{p.src.text}\t{p.tgt.text}"
        rows.append(base if p.score is None else f"{base}\t{p.score:.6f}")
    return "\n".join(rows) + ("\n" if rows else "")


def written_or_refused(writer, pairs):
    try:
        return writer(pairs)
    except ValueError as exc:
        return ("refused", str(exc))


# Fields that are often unwritable: tabs, line ends, blanks and a leading
# byte-order mark, among ordinary characters.
FAULTY_FIELD = TSV_FIELD | st.text(st.sampled_from("ab \t\n\r\ufeff\x0b\u3000"), max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(st.tuples(FAULTY_FIELD, FAULTY_FIELD, FAULTY_FIELD, FAULTY_FIELD, SCORES), max_size=4),
)
def test_one_check_per_row_writes_and_refuses_as_the_per_field_checks(fields):
    # the same text for pairs the writer accepts, and the same first
    # message for any it refuses, on whichever pair the fault sits
    pairs = [
        pair(src_text, tgt_text, score, src_lang or "aa", tgt_lang or "bb", n)
        for n, (src_lang, tgt_lang, src_text, tgt_text, score) in enumerate(fields)
    ]
    assert written_or_refused(format_pairs_tsv, pairs) == written_or_refused(per_field_format_pairs_tsv, pairs)
