"""The benchmark's input writers (``bench/inputs.py``, loaded by path)
round-trip through the library's readers: the monolingual text files
through ``read_monolingual``, the gold files through ``read_gold_tsv``."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextmine.corpus import Sentence, read_monolingual
from bitextmine.errors import DataError
from bitextmine.evaluation import read_gold_tsv

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
)
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # its dataclasses look themselves up
_spec.loader.exec_module(inputs)

TAG = re.compile(r"[a-z]{2,3}(?:[-_][a-z0-9]{2,8})?")  # a valid language prefix
_tags = st.from_regex(TAG, fullmatch=True)
# any text on one line: no line end, no surrogate, no byte-order mark (which would hide a first line's tag)
_chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\ufeff")
_blank = st.text(st.sampled_from(" \t\u3000\x0b\x0c\x85"), max_size=3)
_text = st.text(_chars, min_size=1, max_size=12).filter(lambda text: not text.isspace())


def _unprefixed(text: str) -> bool:
    """Whether ``text`` reads back as itself with the default tag: it has
    no tab, or what stands before its first tab is not a tag."""
    head, tab, _ = text.partition("\t")
    return not tab or TAG.fullmatch(head) is None


_line = st.one_of(
    st.tuples(st.none(), _blank),  # a blank or whitespace-only line
    st.tuples(st.just(""), _text.filter(_unprefixed)),  # a line without a prefix
    st.tuples(_tags, _text),  # tag<TAB>text
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_line, max_size=12), default=_tags)
def test_monolingual_lines_read_back_with_their_text_tag_and_line_number(lines, default, tmp_path_factory):
    path = tmp_path_factory.mktemp("mono") / "mono.txt"
    inputs._write_lines(path, [f"{tag}\t{text}" if tag else text for tag, text in lines])
    assert read_monolingual(path, default) == [
        Sentence(str(lineno), tag or default, text)
        for lineno, (tag, text) in enumerate(lines, start=1)
        if tag is not None
    ]


@st.composite
def injective_gold(draw):
    """Pool sizes and an injective map from source to target line ids, as pairs."""
    n_src, n_tgt = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    sources = draw(st.lists(st.integers(1, n_src), min_size=1, max_size=min(n_src, n_tgt), unique=True))
    targets = draw(st.lists(st.integers(1, n_tgt), min_size=len(sources), max_size=len(sources), unique=True))
    return n_src, n_tgt, list(zip(sources, targets))


def _pool_ids(directory: Path, name: str, size: int) -> list[str]:
    """The ids ``read_monolingual`` gives a pool of ``size`` lines that ``_write_lines`` wrote."""
    inputs._write_lines(directory / name, [f"{name} {i}" for i in range(size)])
    return [s.id for s in read_monolingual(directory / name)]


@settings(max_examples=100, deadline=None)
@given(gold=injective_gold())
def test_gold_pairs_read_back_over_the_pools_ids(gold, tmp_path_factory):
    n_src, n_tgt, pairs = gold
    directory = tmp_path_factory.mktemp("gold")
    src_ids, tgt_ids = _pool_ids(directory, "src", n_src), _pool_ids(directory, "tgt", n_tgt)
    inputs._write_gold(directory / "gold.tsv", pairs)
    alignment = read_gold_tsv(directory / "gold.tsv", src_ids, tgt_ids)
    assert alignment.pairs == {(str(s), str(t)) for s, t in pairs}
    assert alignment.src_universe == set(src_ids) and alignment.tgt_universe == set(tgt_ids)


@settings(max_examples=100, deadline=None)
@given(gold=injective_gold(), data=st.data())
@pytest.mark.parametrize("same_target", [True, False], ids=["repeated pair", "second target"])
def test_a_source_given_twice_is_refused_naming_both_lines(gold, data, same_target, tmp_path_factory):
    _, n_tgt, pairs = gold
    first = data.draw(st.integers(0, len(pairs) - 1), label="first")
    again = data.draw(st.integers(first + 1, len(pairs)), label="again")  # where the second line goes
    s, t = pairs[first]
    if not same_target:
        t = data.draw(st.integers(1, n_tgt + 1).filter(lambda other: other != t), label="other target")
    path = tmp_path_factory.mktemp("gold") / "gold.tsv"
    inputs._write_gold(path, pairs[:again] + [(s, t)] + pairs[again:])
    with pytest.raises(DataError) as refused:
        read_gold_tsv(path)
    message = str(refused.value)
    assert message.startswith(f"{path}:{again + 1}: ") and f"line {first + 1}" in message
    assert ("repeats" in message) == same_target
