"""Seeded input generator for the benchmark workloads.

Every file a workload feeds to the ``bitextmine`` CLI is written here from
the workload seed alone; the program never sees the seed. The corpora come
from ``bitextmine.toydata.make_toy_corpus`` (two cipher "languages"), made
harder than the library's default toy regime so that quality is not
saturated:

* a wide lexicon (all 225 words), and a share of the training targets
  mispaired;
* word-order groups: two sentences with the same word multiset in
  different orders. A position-blind encoder cannot tell them apart, so
  P@1 on held-out groups sits at 0.5. Some groups go into training;
* BUCC-like mining pools: some sources have no gold target, and
  distractor targets differ from a gold target in one word.

Every text is unique on its side, so pairs mined by text map back to
line ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bitextmine.toydata import SRC_LANG, TGT_LANG, make_toy_corpus


@dataclass(frozen=True)
class Size:
    """Input sizes and model shape of one workload."""

    n_train: int = 5000
    n_test: int = 1000
    order_train_groups: int = 250
    order_test_groups: int = 500
    mine_gold: int = 1600
    mine_unmatched: int = 400
    mine_distractors: int = 400
    lexicon: int = 225
    min_words: int = 2
    max_words: int = 4
    mispair_fraction: float = 0.2
    vocab_size: int = 400
    hidden_dim: int = 64
    layers: int = 4
    max_seq_len: int = 24
    batch_size: int = 64
    train_steps: int = 300
    train_lr: float = 5e-3
    checkpoint_interval: int = 100
    pretrain_stages: tuple[tuple[int, int], ...] = ((2, 100), (4, 100))
    mlm_tail_steps: int = 50
    clusters: int = 64
    probes: int = 8
    mine_threshold: float = 0.8
    mine_fraction: float = 0.9


# The workloads differ in sentence length: ``short`` has 2-4 words, where
# per-call and per-sentence overhead weighs most; ``long`` has 6-10 words,
# so per-position work grows, TLM sequences (both sides of a pair) get
# truncated, and a one-word distractor is harder to reject. ``long`` has
# fewer steps, to keep its pass as short as that of ``short``.
SIZES = {
    "short": Size(),
    "long": Size(min_words=6, max_words=10, train_steps=250, pretrain_stages=((2, 80), (4, 80)), mlm_tail_steps=40),
}


def tiny(size: Size) -> Size:
    """The same sentence shape at sizes small enough for the smoke test."""
    return replace(
        size,
        n_train=400,
        n_test=100,
        order_train_groups=20,
        order_test_groups=40,
        mine_gold=160,
        mine_unmatched=40,
        mine_distractors=40,
        vocab_size=120,
        hidden_dim=16,
        layers=2,
        batch_size=16,
        train_steps=100,
        checkpoint_interval=50,
        pretrain_stages=((1, 40), (2, 40)),
        mlm_tail_steps=10,
        clusters=8,
        probes=2,
    )


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_pairs_tsv(path: Path, pairs: list[tuple[str, str]]) -> None:
    _write_lines(path, [f"{SRC_LANG}\t{TGT_LANG}\t{s}\t{t}" for s, t in pairs])


def _write_gold(path: Path, gold: list[tuple[int, int]]) -> None:
    """Gold ids are 1-based line numbers, as ``read_monolingual`` assigns."""
    _write_lines(path, [f"{s}\t{t}" for s, t in gold])


def _write_aligned_set(
    directory: Path, name: str, pairs: list[tuple[str, str]], rng: np.random.Generator
) -> dict[str, int]:
    """Write sources in order and targets shuffled, plus the gold ids;
    return the row count of each text file."""
    perm = rng.permutation(len(pairs))
    tgt_lines = [pairs[i][1] for i in perm]
    tgt_line_of = {int(i): k + 1 for k, i in enumerate(perm)}
    _write_lines(directory / f"{name}_src.txt", [s for s, _ in pairs])
    _write_lines(directory / f"{name}_tgt.txt", tgt_lines)
    _write_gold(directory / f"{name}_gold.tsv", [(k + 1, tgt_line_of[k]) for k in range(len(pairs))])
    return {f"{name}_src": len(pairs), f"{name}_tgt": len(pairs)}


def _corpus(size: Size, seed: int, n_test: int):
    return make_toy_corpus(
        n_train=size.n_train,
        n_test=n_test,
        seed=seed,
        lexicon_size=size.lexicon,
        min_words=size.min_words,
        max_words=size.max_words,
        mispair_fraction=size.mispair_fraction,
    )


def _order_groups(corpus, size: Size, rng: np.random.Generator, count: int) -> list[list[tuple[str, str]]]:
    """Groups of two pairs whose sources share a word multiset in two orders."""
    lexicon = sorted(corpus.cipher)
    taken = {
        tuple(sorted(p.src.text.split())) for p in corpus.train_pairs + corpus.test_pairs
    }
    groups = []
    while len(groups) < count:
        n = int(rng.integers(max(2, size.min_words), size.max_words + 1))
        words = [lexicon[i] for i in rng.choice(len(lexicon), size=n, replace=False)]
        key = tuple(sorted(words))
        if key in taken:
            continue
        taken.add(key)
        other = list(words)
        while other == words:
            other = [words[i] for i in rng.permutation(n)]
        groups.append(
            [(" ".join(w), " ".join(corpus.cipher[x] for x in w)) for w in (words, other)]
        )
    return groups


def _pair_texts(pairs) -> list[tuple[str, str]]:
    return [(p.src.text, p.tgt.text) for p in pairs]


def _write_mining_pools(
    directory: Path, corpus, held: list[tuple[str, str]], size: Size, rng: np.random.Generator
) -> dict[str, int]:
    """A source and a target file to mine, plus the gold line ids.

    Sources: gold sources and sources whose translation is absent.
    Targets: gold targets and distractors, each a gold target with one
    word replaced.
    """
    gold, unmatched = held[: size.mine_gold], held[size.mine_gold :]
    lexicon = sorted(corpus.cipher)
    taken = {
        tuple(sorted(p.src.text.split())) for p in corpus.train_pairs + corpus.test_pairs
    }
    distractors: list[str] = []
    while len(distractors) < size.mine_distractors:
        words = gold[int(rng.integers(len(gold)))][0].split()
        words[int(rng.integers(len(words)))] = lexicon[int(rng.integers(len(lexicon)))]
        key = tuple(sorted(words))
        if key in taken:
            continue
        taken.add(key)
        distractors.append(" ".join(corpus.cipher[w] for w in words))

    src = [s for s, _ in gold] + [s for s, _ in unmatched]
    tgt = [t for _, t in gold] + distractors
    src_perm = rng.permutation(len(src))
    tgt_perm = rng.permutation(len(tgt))
    src_line = {int(i): k + 1 for k, i in enumerate(src_perm)}
    tgt_line = {int(i): k + 1 for k, i in enumerate(tgt_perm)}
    _write_lines(directory / "mine_src.txt", [src[i] for i in src_perm])
    _write_lines(directory / "mine_tgt.txt", [tgt[i] for i in tgt_perm])
    _write_gold(directory / "mine_gold.tsv", sorted((src_line[k], tgt_line[k]) for k in range(len(gold))))
    return {"mine_src": len(src), "mine_tgt": len(tgt), "mine_gold": len(gold)}


def generate(directory: Path, seed: int, size: Size) -> dict[str, int]:
    """Write every input file of a workload into ``directory``; return the
    row count of each file by its stem.

    * ``train.tsv``: training pairs, a share mispaired, plus the training
      word-order groups; ``mono.txt``: both sides of the training pairs as
      language-prefixed monolingual lines, for ``pretrain``;
    * ``test_*``: a clean held-out set; ``order_*``: held-out word-order
      groups;
    * ``mine_*``: BUCC-like pools (see ``_write_mining_pools``).
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    held_out = size.n_test + size.mine_gold + size.mine_unmatched
    corpus = _corpus(size, seed, held_out)
    groups = _order_groups(corpus, size, rng, size.order_train_groups + size.order_test_groups)
    train = _pair_texts(corpus.train_pairs)
    train += [pair for group in groups[: size.order_train_groups] for pair in group]
    train = [train[i] for i in rng.permutation(len(train))]
    order = [pair for group in groups[size.order_train_groups :] for pair in group]
    _write_pairs_tsv(directory / "train.tsv", train)
    mono = [f"{SRC_LANG}\t{s}" for s, _ in train] + [f"{TGT_LANG}\t{t}" for _, t in train]
    _write_lines(directory / "mono.txt", [mono[i] for i in rng.permutation(len(mono))])
    held = _pair_texts(corpus.test_pairs)
    return {
        "train": len(train),
        "mono": len(mono),
        **_write_aligned_set(directory, "test", held[: size.n_test], rng),
        **_write_aligned_set(directory, "order", order, rng),
        **_write_mining_pools(directory, corpus, held[size.n_test :], size, rng),
    }


def digest_dir(directory: Path) -> str:
    """One sha256 over the names and bytes of every file in ``directory``
    except run manifests, which record paths and durations."""
    h = hashlib.sha256()
    files = (p for p in directory.rglob("*") if p.is_file() and not p.name.endswith(".manifest.json"))
    for path in sorted(files):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
