"""``bitextmine.cli.main`` on a small toy corpus: rejected flag values
exit 1 (usage error), refused checkpoints and index configs exit 2 (data
error), ``search`` writes the library's results for an exact and a
partitioned index, and ``report`` applies the mining selection rule to an
existing pair file."""

import json
import math

import pytest

from bitextmine import cli
from bitextmine.corpus import SentencePair, format_pairs_tsv
from bitextmine.toydata import make_toy_corpus
from bitextmine.trainer import load_checkpoint
from bitextmine.vecindex import load_index, read_pool, search


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A pair file, its two sides as monolingual files, and a vocab, a
    two-step checkpoint and a target pool made from them by the CLI."""
    d = tmp_path_factory.mktemp("cli")
    pairs = make_toy_corpus(40, 0, seed=3, lexicon_size=20, min_words=2, max_words=4).train_pairs
    (d / "pairs.tsv").write_text(format_pairs_tsv(pairs), encoding="utf-8")
    (d / "src.txt").write_text("".join(p.src.text + "\n" for p in pairs), encoding="utf-8")
    (d / "tgt.txt").write_text("".join(p.tgt.text + "\n" for p in pairs), encoding="utf-8")
    assert run("build-vocab", "--pairs", d / "pairs.tsv", "--target-size", 200, "--out", d / "vocab.txt") == 0
    assert (
        run(
            "train", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", d / "model.ckpt",
            "--steps", 2, "--batch-size", 8, "--hidden-dim", 8,
        )
        == 0
    )
    assert (
        run("encode", "--input", d / "tgt.txt", "--vocab", d / "vocab.txt", "--ckpt", d / "model.ckpt", "--out", d / "tgt.pool")
        == 0
    )
    return d


def invalid_argv(d, case):
    out = d / "rejected.out"
    train = ["train", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", out, "--steps", 2]
    pretrain = [
        "pretrain", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", out, "--stage-steps", "2,2",
    ]
    mine = [
        "mine", "--src", d / "src.txt", "--tgt", d / "tgt.txt", "--vocab", d / "vocab.txt",
        "--ckpt", d / "model.ckpt", "--out", out,
    ]
    return out, {
        "train-shards": train + ["--shards", 3],
        "train-margin": train + ["--margin", 1.5],
        "train-lr": train + ["--lr", 0],
        "train-seed": train + ["--seed", -1],
        "pretrain-mix": pretrain + ["--mix", "0:x"],
        "pretrain-mix-zero": pretrain + ["--mix", "0:0"],
        "pretrain-mask-fraction-high": pretrain + ["--mix", "0:1", "--mask-fraction", 1.5],
        "pretrain-mask-fraction-zero": pretrain + ["--mask-fraction", 0],
        "pretrain-mask-cap": pretrain + ["--mask-cap", 0],
        "pretrain-seed": pretrain + ["--seed", -1],
        "mine-fraction": mine + ["--fraction", 0],
        "mine-seed": mine + ["--clusters", 2, "--seed", -1],
        "index-probes": ["index", "--pool", d / "tgt.pool", "--out", out, "--clusters", 2, "--probes", 3],
        "index-seed": ["index", "--pool", d / "tgt.pool", "--out", out, "--clusters", 4, "--probes", 2, "--seed", -1],
        # inputs that do not exist: a usage error must come before any read
        "search-k": ["search", "--index", d / "no-index", "--queries", d / "no.pool", "--out", out, "--k", 0],
        "eval-bucc-k": [
            "eval-bucc", "--src-pool", d / "no.pool", "--tgt-pool", d / "no.pool", "--gold", d / "no.tsv",
            "--out", out, "--k", 0,
        ],
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "train-shards",
        "train-margin",
        "train-lr",
        "train-seed",
        "pretrain-mix",
        "pretrain-mix-zero",
        "pretrain-mask-fraction-high",
        "pretrain-mask-fraction-zero",
        "pretrain-mask-cap",
        "pretrain-seed",
        "mine-fraction",
        "mine-seed",
        "index-probes",
        "index-seed",
        "search-k",
        "eval-bucc-k",
    ],
)
def test_invalid_flag_value_is_usage_error(work, case, capsys):
    out, argv = invalid_argv(work, case)
    assert run(*argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
    assert not (work / "rejected.out.log").exists()  # refused before the training log opens


def test_version_1_checkpoint_is_data_error(work, capsys):
    # version-1 files share the magic; the loader reads no further than the version
    data = bytearray((work / "model.ckpt").read_bytes())
    data[4:8] = (1).to_bytes(4, "little")
    (work / "v1.ckpt").write_bytes(bytes(data))
    argv = ["encode", "--input", work / "tgt.txt", "--vocab", work / "vocab.txt", "--ckpt", work / "v1.ckpt"]
    assert run(*argv, "--out", work / "v1.pool") == 2
    assert "unsupported checkpoint version 1 (expected 2)" in capsys.readouterr().err
    assert not (work / "v1.pool").exists()


def resume_argv(d, *extra):
    """Resume the fixture's checkpoint with the flags it was trained with, then ``extra``."""
    return [
        "train", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--resume", d / "model.ckpt",
        "--steps", 2, "--batch-size", 8, *extra, "--out", d / "resumed.ckpt",
    ]


def test_resume_with_the_same_flags_runs(work):
    assert run(*resume_argv(work)) == 0
    _, state = load_checkpoint(work / "resumed.ckpt")
    assert state.step_count == 2


@pytest.mark.parametrize(
    "extra, stored",
    [
        (["--batch-size", 16], "batch_size=8"),
        (["--seed", 2], "seed=0"),
        (["--lr", 0.5], "learning_rate=0.001"),
        (["--steps", 20], "steps=2"),
    ],
)
def test_resume_with_other_training_flags_is_data_error(work, capsys, extra, stored):
    (work / "resumed.ckpt").unlink(missing_ok=True)
    assert run(*resume_argv(work, *extra)) == 2
    err = capsys.readouterr().err
    assert "cannot resume" in err and stored in err
    assert not (work / "resumed.ckpt").exists()


def test_refused_resume_leaves_the_log_alone(work, capsys):
    log = work / "resumed.ckpt.log"
    log.unlink(missing_ok=True)
    assert run(*resume_argv(work, "--batch-size", 16)) == 2
    assert not log.exists()
    log.write_bytes(b"step=1 loss=1.0 lr=0.001 pairs_seen=8\n")
    assert run(*resume_argv(work, "--batch-size", 16)) == 2
    assert log.read_bytes() == b"step=1 loss=1.0 lr=0.001 pairs_seen=8\n"
    assert capsys.readouterr().err.count("cannot resume") == 2


@pytest.mark.parametrize("index_flags", [[], ["--clusters", 4, "--probes", 2]])
def test_search_writes_the_per_query_results(work, tmp_path, index_flags):
    queries = tmp_path / "src.pool"
    assert (
        run("encode", "--input", work / "src.txt", "--vocab", work / "vocab.txt", "--ckpt", work / "model.ckpt", "--out", queries)
        == 0
    )
    assert run("index", "--pool", work / "tgt.pool", "--out", tmp_path / "idx", *index_flags) == 0
    assert run("search", "--index", tmp_path / "idx", "--queries", queries, "--k", 3, "--out", tmp_path / "hits.tsv") == 0
    index = load_index(tmp_path / "idx")
    vectors, qids = read_pool(queries)
    expected = [
        f"{qid}\t{name}\t{score:.6f}"
        for qid, q in zip(qids, vectors)
        for name, score in search(index, q[None], k=3)[0]
    ]
    assert len(expected) == 3 * len(qids)
    assert (tmp_path / "hits.tsv").read_text(encoding="utf-8").splitlines() == expected


def test_index_config_without_a_key_is_data_error(work, tmp_path, capsys):
    idx = tmp_path / "idx"
    assert run("index", "--pool", work / "tgt.pool", "--out", idx, "--clusters", 4, "--probes", 2) == 0
    (idx / "index.cfg").write_text("clusters=4\nprobes=2\n", encoding="utf-8")
    out = tmp_path / "hits.tsv"
    assert run("search", "--index", idx, "--queries", work / "tgt.pool", "--k", 1, "--out", out) == 2
    assert "index.cfg: missing key(s) kmeans_iters, seed" in capsys.readouterr().err
    assert not out.exists()


def test_report_on_unscored_pairs_is_data_error(work, capsys):
    assert run("report", "--pairs", work / "pairs.tsv", "--out", work / "unscored.report") == 2
    assert "lack scores" in capsys.readouterr().err


@pytest.mark.parametrize("fraction", [0.2, 0.33, 1.0])
def test_report_selects_ceil_of_fraction(work, tmp_path, fraction):
    pairs = make_toy_corpus(25, 0, seed=5, lexicon_size=20, min_words=2, max_words=4).train_pairs
    scored = [SentencePair(p.src, p.tgt, score=(i % 7) / 10) for i, p in enumerate(pairs)]
    (tmp_path / "scored.tsv").write_text(format_pairs_tsv(scored), encoding="utf-8")
    out = tmp_path / "scored.report"
    assert run("report", "--pairs", tmp_path / "scored.tsv", "--fraction", fraction, "--out", out) == 0
    report = json.loads((tmp_path / "scored.report.json").read_text(encoding="utf-8"))
    assert report["pairs_emitted"] == report["pairs_post_dedup"] == 25
    assert report["pairs_post_selection"] == math.ceil(fraction * 25)
