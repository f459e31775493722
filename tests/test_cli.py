"""``bitextmine.cli.main`` on a small toy corpus: every subcommand writes
a manifest of its config, input digests and outputs, and a failed run
writes none; rejected flag values and config-file values exit 1 (usage
error), refused checkpoints, index configs and malformed inputs exit 2
(data error), divergent training exits 3 (numerical failure); ``search``
writes the library's results for an exact and a partitioned index."""

import json
import os

import numpy as np
import pytest

from bitextmine import cli
from bitextmine.corpus import format_pairs_tsv
from bitextmine.fileio import sha256_file
from bitextmine.toydata import make_toy_corpus
from bitextmine.trainer import load_checkpoint
from bitextmine.vecindex import EXACT, _read_rows, _write_rows, load_index, read_pool, search, write_pool
from bitextmine.vocab import Vocab

from conftest import version_2_bytes


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A pair file, its two sides as monolingual files, a gold alignment of
    their line ids, and a vocab, a two-step checkpoint and the two sides'
    pools made from them by the CLI."""
    d = tmp_path_factory.mktemp("cli")
    pairs = make_toy_corpus(40, 0, seed=3, lexicon_size=20, min_words=2, max_words=4).train_pairs
    (d / "pairs.tsv").write_text(format_pairs_tsv(pairs), encoding="utf-8")
    (d / "src.txt").write_text("".join(p.src.text + "\n" for p in pairs), encoding="utf-8")
    (d / "tgt.txt").write_text("".join(p.tgt.text + "\n" for p in pairs), encoding="utf-8")
    (d / "gold.tsv").write_text("".join(f"{i}\t{i}\n" for i in range(1, len(pairs) + 1)), encoding="utf-8")
    assert run("build-vocab", "--pairs", d / "pairs.tsv", "--target-size", 200, "--out", d / "vocab.txt") == 0
    assert (
        run(
            "train", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", d / "model.ckpt",
            "--steps", 2, "--batch-size", 8, "--hidden-dim", 8,
        )
        == 0
    )
    for side in ("src", "tgt"):
        argv = ["encode", "--input", d / f"{side}.txt", "--vocab", d / "vocab.txt", "--ckpt", d / "model.ckpt"]
        assert run(*argv, "--out", d / f"{side}.pool") == 0
    return d


def manifest_path(output):
    return output / "manifest.json" if output.is_dir() else output.with_name(output.name + ".manifest.json")


def invalid_argv(d, case):
    out = d / f"rejected-{case}.out"
    train = ["train", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", out, "--steps", 2]
    pretrain = [
        "pretrain", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", out, "--stage-steps", "2,2",
    ]
    build_vocab = ["build-vocab", "--pairs", d / "no-pairs.tsv", "--target-size", 50, "--out", out]
    mine = [
        "mine", "--src", d / "src.txt", "--tgt", d / "tgt.txt", "--vocab", d / "vocab.txt",
        "--ckpt", d / "model.ckpt", "--out", out,
    ]
    return out, {
        "train-shards": train + ["--shards", 3],
        "train-margin": train + ["--margin", 1.5],
        "train-lr": train + ["--lr", 0],
        "train-seed": train + ["--seed", -1],
        "train-checkpoint-interval": train + ["--checkpoint-interval", -1],
        "pretrain-mix": pretrain + ["--mix", "0:x"],
        "pretrain-mix-zero": pretrain + ["--mix", "0:0"],
        "pretrain-mix-one-share": pretrain + ["--mix", "1"],
        "pretrain-stage-layers-empty-entry": pretrain + ["--stage-layers", "1,,2"],
        "pretrain-stage-steps-empty-entry": pretrain + ["--stage-steps", "2,2,"],
        "pretrain-mask-fraction-high": pretrain + ["--mix", "0:1", "--mask-fraction", 1.5],
        "pretrain-mask-fraction-zero": pretrain + ["--mask-fraction", 0],
        "pretrain-mask-cap": pretrain + ["--mask-cap", 0],
        "pretrain-seed": pretrain + ["--seed", -1],
        "pretrain-stage-layers-not-dividing": pretrain + ["--stage-layers", "2,3"],
        "pretrain-stage-layers-shrinking": pretrain + ["--stage-layers", "2,1"],
        # with pairs for every step, a zero-step second stage is the only fault
        "pretrain-stage-steps-zero": pretrain + ["--mix", "0:1", "--stage-steps", "2,0"],
        # a vocab that does not exist: the encoder shape is checked before any read
        "pretrain-hidden-dim": pretrain + ["--vocab", d / "no-vocab.txt", "--hidden-dim", 0],
        "train-hidden-dim": train + ["--vocab", d / "no-vocab.txt", "--hidden-dim", 0],
        # pairs that do not exist: the build options are checked before any read
        "build-vocab-smoothing": build_vocab + ["--smoothing", 1.5],
        "build-vocab-coverage": build_vocab + ["--coverage", 0],
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
        "train-init-and-resume": train + ["--init", d / "no.ckpt", "--resume", d / "no.ckpt"],
        "train-init-from-config-and-resume": train + ["--config", init_config(d), "--resume", d / "no.ckpt"],
        "eval-bucc-candidates-and-pools": [
            "eval-bucc", "--candidates", d / "no.tsv", "--src-pool", d / "no.pool", "--tgt-pool", d / "no.pool",
            "--gold", d / "no.tsv", "--out", out,
        ],
        "eval-tatoeba-group": ["eval-tatoeba", "--set", tatoeba_set(d), "--group", "foo", "--out", out],
        "eval-tatoeba-set-no-lang": ["eval-tatoeba", "--set", tatoeba_set(d, lang=""), "--out", out],
        "eval-tatoeba-set-twice": ["eval-tatoeba", "--set", tatoeba_set(d), "--set", tatoeba_set(d), "--out", out],
        "eval-tatoeba-group-twice": [
            "eval-tatoeba", "--set", tatoeba_set(d), "--group", "g=xx", "--group", "g=yy", "--out", out,
        ],
    }[case]


def init_config(d):
    """A config file whose ``train`` section names an ``--init`` checkpoint."""
    (d / "init.ini").write_text(f"[train]\ninit = {d / 'no.ckpt'}\n", encoding="utf-8")
    return d / "init.ini"


def tatoeba_set(d, lang="xx"):
    return f"{lang}={d / 'src.pool'},{d / 'tgt.pool'},{d / 'gold.tsv'}"


# Cases of a malformed list flag, and the flag their message must name.
LIST_FLAG = {
    "pretrain-mix": "--mix",
    "pretrain-mix-one-share": "--mix",
    "pretrain-stage-layers-empty-entry": "--stage-layers",
    "pretrain-stage-steps-empty-entry": "--stage-steps",
}


@pytest.mark.parametrize(
    "case",
    [
        "train-shards",
        "train-margin",
        "train-lr",
        "train-seed",
        "train-checkpoint-interval",
        "pretrain-mix",
        "pretrain-mix-zero",
        "pretrain-mix-one-share",
        "pretrain-stage-layers-empty-entry",
        "pretrain-stage-steps-empty-entry",
        "pretrain-mask-fraction-high",
        "pretrain-mask-fraction-zero",
        "pretrain-mask-cap",
        "pretrain-seed",
        "pretrain-stage-layers-not-dividing",
        "pretrain-stage-layers-shrinking",
        "pretrain-stage-steps-zero",
        "pretrain-hidden-dim",
        "train-hidden-dim",
        "build-vocab-smoothing",
        "build-vocab-coverage",
        "mine-fraction",
        "mine-seed",
        "index-probes",
        "index-seed",
        "search-k",
        "eval-bucc-k",
        "eval-tatoeba-group",
        "eval-tatoeba-set-no-lang",
        "eval-tatoeba-set-twice",
        "eval-tatoeba-group-twice",
        "train-init-and-resume",
        "train-init-from-config-and-resume",
        "eval-bucc-candidates-and-pools",
    ],
)
def test_invalid_flag_value_is_usage_error(work, case, capsys):
    out, argv = invalid_argv(work, case)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert case not in LIST_FLAG or f"usage error: {LIST_FLAG[case]} wants " in err
    assert not out.exists()
    assert not manifest_path(out).exists()
    assert not out.with_name(out.name + ".log").exists()  # refused before the training log opens


def test_version_1_checkpoint_is_data_error(work, capsys):
    # version-1 files share the magic; the loader reads no further than the version
    data = bytearray((work / "model.ckpt").read_bytes())
    data[4:8] = (1).to_bytes(4, "little")
    (work / "v1.ckpt").write_bytes(bytes(data))
    argv = ["encode", "--input", work / "tgt.txt", "--vocab", work / "vocab.txt", "--ckpt", work / "v1.ckpt"]
    assert run(*argv, "--out", work / "v1.pool") == 2
    assert "unsupported checkpoint version 1 (expected 3)" in capsys.readouterr().err
    assert not (work / "v1.pool").exists()


def test_version_2_checkpoint_of_float64_vectors_is_data_error(work, capsys):
    (work / "v2.ckpt").write_bytes(version_2_bytes(*load_checkpoint(work / "model.ckpt")))
    argv = ["train", "--pairs", work / "pairs.tsv", "--vocab", work / "vocab.txt", "--resume", work / "v2.ckpt"]
    assert run(*argv, "--steps", 4, "--batch-size", 8, "--out", work / "v2-resumed.ckpt") == 2
    assert "unsupported checkpoint version 2 (expected 3)" in capsys.readouterr().err
    assert not (work / "v2-resumed.ckpt").exists()


def test_blank_pair_text_is_data_error_naming_its_line(work, tmp_path, capsys):
    pairs = (work / "pairs.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "pairs.tsv").write_text("".join(pairs[:2]) + "aa\tbb\t \tx\n", encoding="utf-8")
    argv = ["train", "--pairs", tmp_path / "pairs.tsv", "--vocab", work / "vocab.txt", "--steps", 2]
    assert run(*argv, "--out", tmp_path / "model.ckpt") == 2
    assert f"{tmp_path / 'pairs.tsv'}:3: blank src_text" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("command", ["encode", "mine", "pretrain", "build-vocab"])
def test_blank_monolingual_text_is_data_error_naming_its_line(work, tmp_path, command, capsys):
    lines = (work / "src.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    mono = tmp_path / "mono.txt"
    mono.write_text("".join(lines[:2]) + "aa\t \n", encoding="utf-8")
    out = tmp_path / "out"
    vocab, ckpt = work / "vocab.txt", work / "model.ckpt"
    argv = {
        "encode": ["encode", "--input", mono, "--vocab", vocab, "--ckpt", ckpt],
        "mine": ["mine", "--src", mono, "--tgt", work / "tgt.txt", "--vocab", vocab, "--ckpt", ckpt],
        "pretrain": ["pretrain", "--mono", mono, "--vocab", vocab, "--stage-steps", "2,2", "--mix", "1:0"],
        "build-vocab": ["build-vocab", "--mono", mono, "--target-size", 50],
    }[command]
    assert run(*argv, "--out", out) == 2
    assert f"{mono}:3: blank text" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_same_seed_runs_write_identical_checkpoints_and_logs(work, tmp_path, command):
    argv = [command, "--pairs", work / "pairs.tsv", "--vocab", work / "vocab.txt", "--hidden-dim", 8, "--seed", 5]
    if command == "train":
        argv += ["--steps", 3, "--batch-size", 8]
    else:
        argv += ["--mono", work / "src.txt", "--stage-steps", "2,2", "--batch-size", 8]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.ckpt"
        assert run(*argv, "--out", out) == 0
        runs.append((out.read_bytes(), (tmp_path / f"{name}.ckpt.log").read_bytes()))
    assert runs[0] == runs[1]
    params, _ = load_checkpoint(tmp_path / "a.ckpt")
    assert params.flat.dtype == np.float32


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


@pytest.fixture(scope="module")
def small_model(work):
    """A vocab with fewer pieces than the fixture's, and a two-step
    checkpoint trained with it."""
    vocab, ckpt = work / "small-vocab.txt", work / "small.ckpt"
    assert run("build-vocab", "--pairs", work / "pairs.tsv", "--target-size", 60, "--out", vocab) == 0
    argv = ["train", "--pairs", work / "pairs.tsv", "--vocab", vocab, "--out", ckpt]
    assert run(*argv, "--steps", 2, "--batch-size", 8, "--hidden-dim", 8) == 0
    return vocab, ckpt


@pytest.mark.parametrize("vocab_is", ["smaller", "larger"])
@pytest.mark.parametrize("command", ["encode", "mine", "train-init", "train-resume"])
def test_checkpoint_for_a_vocab_of_another_size_is_data_error(work, small_model, tmp_path, capsys, command, vocab_is):
    """Token ids of another vocab would select the wrong embedding rows;
    the refusal names both files and both sizes, before the log opens."""
    vocab, ckpt = (small_model[0], work / "model.ckpt") if vocab_is == "smaller" else (work / "vocab.txt", small_model[1])
    vocab_size, ckpt_size = len(Vocab.load(vocab)), load_checkpoint(ckpt)[0].config.vocab_size
    assert (vocab_size < ckpt_size) == (vocab_is == "smaller")
    train = ["train", "--pairs", work / "pairs.tsv", "--steps", 2, "--batch-size", 8]
    argv = {
        "encode": ["encode", "--input", work / "src.txt", "--ckpt", ckpt],
        "mine": ["mine", "--src", work / "src.txt", "--tgt", work / "tgt.txt", "--ckpt", ckpt],
        "train-init": train + ["--init", ckpt],
        "train-resume": train + ["--resume", ckpt],
    }[command]
    out = tmp_path / "out"
    assert run(*argv, "--vocab", vocab, "--out", out) == 2
    message = f"{ckpt}: checkpoint has vocab_size {ckpt_size}, but {vocab} holds {vocab_size} pieces"
    assert f"bitextmine: data error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()
    assert not (tmp_path / "out.log").exists()


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
    pool = read_pool(queries)
    expected = [
        f"{qid}\t{name}\t{score:.6f}"
        for qid, q in zip(pool.ids, pool.vectors)
        for name, score in search(index, q[None], k=3)[0]
    ]
    assert len(expected) == 3 * len(pool.ids)
    assert (tmp_path / "hits.tsv").read_text(encoding="utf-8").splitlines() == expected


def search_with_index_file(d, t, name, text):
    """Exit code of ``search`` over a partitioned index of the target pool
    whose file ``name`` now holds ``text``; results go to ``t/hits.tsv``."""
    idx = t / "idx"
    assert run("index", "--pool", d / "tgt.pool", "--out", idx, "--clusters", 4, "--probes", 2) == 0
    (idx / name).write_text(text, encoding="utf-8")
    return run("search", "--index", idx, "--queries", d / "tgt.pool", "--k", 1, "--out", t / "hits.tsv")


def test_index_config_without_a_key_is_data_error(work, tmp_path, capsys):
    assert search_with_index_file(work, tmp_path, "index.cfg", "clusters=4\nprobes=2\n") == 2
    assert "index.cfg: missing key(s) kmeans_iters, seed" in capsys.readouterr().err
    assert not (tmp_path / "hits.tsv").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [("index.cfg", "clusters=4\nprobes\nkmeans_iters=10\nseed=0\n", "index.cfg: line 'probes' is not key=value")],
    ids=["cfg-line-without-equals"],
)
def test_index_file_that_does_not_parse_is_data_error_naming_it(work, tmp_path, capsys, name, text, message):
    assert search_with_index_file(work, tmp_path, name, text) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "hits.tsv").exists()


@pytest.mark.parametrize("defect", ["nan", "non-unit"])
def test_centroids_that_are_not_unit_rows_are_data_error_naming_the_file(work, tmp_path, capsys, defect):
    idx, hits = tmp_path / "idx", tmp_path / "hits.tsv"
    assert run("index", "--pool", work / "tgt.pool", "--out", idx, "--clusters", 4, "--probes", 1) == 0
    centroids = _read_rows(idx / "centroids.pool")
    centroids[2] = np.nan if defect == "nan" else 0.5 * centroids[2]
    _write_rows(idx / "centroids.pool", centroids)
    assert run("search", "--index", idx, "--queries", work / "tgt.pool", "--k", 1, "--out", hits) == 2
    assert f"{idx / 'centroids.pool'}: centroid rows must be unit-norm" in capsys.readouterr().err
    assert not hits.exists()
    assert not manifest_path(hits).exists()


def test_exact_index_written_over_a_partitioned_one_leaves_no_partition(work, tmp_path):
    idx, hits = tmp_path / "idx", tmp_path / "hits.tsv"
    assert run("index", "--pool", work / "tgt.pool", "--out", idx, "--clusters", 6, "--probes", 1) == 0
    assert run("index", "--pool", work / "src.pool", "--out", idx) == 0
    assert not (idx / "index.cfg").exists() and not (idx / "centroids.pool").exists()
    assert load_index(idx).mode == EXACT
    assert run("search", "--index", idx, "--queries", work / "tgt.pool", "--k", 1, "--out", hits) == 0
    pool, queries = read_pool(work / "src.pool"), read_pool(work / "tgt.pool")
    expected = [
        f"{qid}\t{name}\t{score:.6f}"
        for qid, top in zip(queries.ids, search(pool, queries.vectors, k=1))
        for name, score in top
    ]
    assert hits.read_text(encoding="utf-8").splitlines() == expected


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_pair_score_that_is_not_finite_names_its_line(tmp_path, capsys, bad):
    (tmp_path / "scored.tsv").write_text(f"aa\tbb\tx\ty\t0.5\n\naa\tbb\tz\tw\t{bad}\n", encoding="utf-8")
    out = tmp_path / "vocab.txt"
    assert run("build-vocab", "--pairs", tmp_path / "scored.tsv", "--target-size", 50, "--out", out) == 2
    assert f"{tmp_path / 'scored.tsv'}:3: bad score {bad!r}" in capsys.readouterr().err
    assert not out.exists()


def test_auto_direction_keeps_src_in_the_source_columns(work, tmp_path):
    """A smaller ``--tgt`` queries ``--src``, and each mined row still
    starts with ``--src``'s language and text."""
    src = (work / "src.txt").read_text(encoding="utf-8").splitlines()
    tgt = (work / "tgt.txt").read_text(encoding="utf-8").splitlines()[:10]
    (tmp_path / "tgt.txt").write_text("".join(line + "\n" for line in tgt), encoding="utf-8")
    argv = [
        "mine", "--src", work / "src.txt", "--tgt", tmp_path / "tgt.txt", "--src-lang", "aa", "--tgt-lang", "bb",
        "--vocab", work / "vocab.txt", "--ckpt", work / "model.ckpt", "--threshold", -0.5, "--fraction", 1.0,
    ]
    assert run(*argv, "--out", tmp_path / "mined.tsv") == 0
    rows = [line.split("\t") for line in (tmp_path / "mined.tsv").read_text(encoding="utf-8").splitlines()]
    assert rows
    assert all(row[:2] == ["aa", "bb"] and row[2] in src and row[3] in tgt for row in rows)


def manifest_case(d, t, command):
    """``(before, argv, inputs, outputs)``: runs that make ``command``'s
    inputs, one run of it, the files its manifest digests and the paths it
    lists as outputs, first output first."""
    pools = ["--src-pool", d / "src.pool", "--tgt-pool", d / "tgt.pool", "--gold", d / "gold.tsv"]
    pool_inputs = [d / "src.pool", d / "src.pool.ids", d / "tgt.pool", d / "tgt.pool.ids", d / "gold.tsv"]
    model = ["--vocab", d / "vocab.txt", "--ckpt", d / "model.ckpt"]

    def report(name):
        return [t / name, t / f"{name}.json"]

    (t / "scores.txt").write_text("".join(f"{i % 5}\n" for i in range(40)), encoding="utf-8")
    index = ["index", "--pool", d / "tgt.pool", "--out", t / "idx", "--clusters", 4, "--probes", 2]
    return {
        "build-vocab": (
            [],
            ["--mono", d / "src.txt", "--pairs", d / "pairs.tsv", "--target-size", 200, "--out", t / "vocab.txt"],
            [d / "src.txt", d / "pairs.tsv"],
            [t / "vocab.txt"],
        ),
        "pretrain": (
            [],
            [
                "--mono", d / "src.txt", "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--out", t / "p.ckpt",
                "--stage-steps", "2,2", "--batch-size", 8, "--hidden-dim", 8,
            ],
            [d / "src.txt", d / "pairs.tsv", d / "vocab.txt"],
            [t / "p.ckpt", t / "p.ckpt.log"],
        ),
        "train": (
            [],
            [
                "--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--init", d / "model.ckpt",
                "--out", t / "m.ckpt", "--steps", 2, "--batch-size", 8,
            ],
            [d / "pairs.tsv", d / "vocab.txt", d / "model.ckpt"],
            [t / "m.ckpt", t / "m.ckpt.log"],
        ),
        "encode": (
            [],
            ["--input", d / "src.txt", *model, "--out", t / "s.pool"],
            [d / "src.txt", d / "vocab.txt", d / "model.ckpt"],
            [t / "s.pool", t / "s.pool.ids"],
        ),
        "index": ([], index[1:], [d / "tgt.pool", d / "tgt.pool.ids"], [t / "idx"]),
        "search": (
            [index],
            ["--index", t / "idx", "--queries", d / "src.pool", "--k", 2, "--out", t / "hits.tsv"],
            [d / "src.pool", d / "src.pool.ids"]
            + [t / "idx" / name for name in ("vectors.pool", "vectors.pool.ids", "centroids.pool", "index.cfg")],
            [t / "hits.tsv"],
        ),
        "mine": (
            [],
            ["--src", d / "src.txt", "--tgt", d / "tgt.txt", *model, "--threshold", 0, "--out", t / "mined.tsv"],
            [d / "src.txt", d / "tgt.txt", d / "vocab.txt", d / "model.ckpt"],
            [t / "mined.tsv", t / "mined.tsv.report", t / "mined.tsv.report.json"],
        ),
        "eval-p1": ([], [*pools, "--out", t / "p1"], pool_inputs, report("p1")),
        "eval-tatoeba": (
            [],
            ["--set", tatoeba_set(d), "--group", "g=xx+yy", "--out", t / "tat"],
            pool_inputs,
            report("tat"),
        ),
        "eval-bucc": ([], [*pools, "--k", 2, "--out", t / "bucc"], pool_inputs, report("bucc")),
        "eval-sts": (
            [],
            ["--pool-a", d / "src.pool", "--pool-b", d / "tgt.pool", "--gold-scores", t / "scores.txt", "--out", t / "sts"],
            [d / "src.pool", d / "src.pool.ids", d / "tgt.pool", d / "tgt.pool.ids", t / "scores.txt"],
            report("sts"),
        ),
    }[command]


COMMANDS = list(cli.build_parser()[1])


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_records_config_inputs_and_outputs(work, tmp_path, command):
    before, argv, inputs, outputs = manifest_case(work, tmp_path, command)
    for prior in before:
        assert run(*prior) == 0
    assert run(command, *argv) == 0
    manifest = json.loads(manifest_path(outputs[0]).read_text(encoding="utf-8"))
    assert manifest["command"] == command
    options = {a.dest for a in cli.build_parser()[1][command]._actions} - {"help", "config"}
    assert set(manifest["config"]) == options
    assert manifest["config"]["out"] == str(outputs[0])
    assert manifest["seed"] == manifest["config"].get("seed")
    assert manifest["inputs"] == {str(p): sha256_file(p) for p in inputs}
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert all(p.exists() for p in outputs)
    assert manifest["duration_s"] >= 0


@pytest.mark.parametrize("steps, interval, saved_at", [(4, 2, [2, 4]), (5, 2, [2, 4, 5]), (3, 0, [3])])
def test_train_writes_each_checkpoint_once(work, tmp_path, monkeypatch, steps, interval, saved_at):
    """``train`` saves every ``--checkpoint-interval`` steps and after the
    last step, each step's state once, also when the interval divides
    ``--steps``."""
    from bitextmine import trainer

    saves = []
    save = trainer.save_checkpoint

    def counted(params, state, path):
        saves.append(state.step_count)
        save(params, state, path)

    monkeypatch.setattr(trainer, "save_checkpoint", counted)
    out = tmp_path / "m.ckpt"
    argv = ["train", "--pairs", work / "pairs.tsv", "--vocab", work / "vocab.txt", "--out", out]
    assert run(*argv, "--batch-size", 8, "--hidden-dim", 8, "--steps", steps, "--checkpoint-interval", interval) == 0
    assert saves == saved_at
    assert load_checkpoint(out)[1].step_count == steps


def test_whitespace_only_monolingual_file_has_no_sentences(work, tmp_path, capsys):
    (tmp_path / "blank.txt").write_text(" \n\t\n", encoding="utf-8")
    argv = ["encode", "--input", tmp_path / "blank.txt", "--vocab", work / "vocab.txt", "--ckpt", work / "model.ckpt"]
    assert run(*argv, "--out", tmp_path / "blank.pool") == 2
    assert f"{tmp_path / 'blank.txt'}: no sentences" in capsys.readouterr().err
    assert not (tmp_path / "blank.pool").exists()


def bucc_argv(d, t):
    """``eval-bucc`` over the fixture's pools without ``--k``, its report at ``t/bucc``."""
    pools = ["--src-pool", d / "src.pool", "--tgt-pool", d / "tgt.pool"]
    return ["eval-bucc", *pools, "--gold", d / "gold.tsv", "--out", t / "bucc"]


def p1_pools(d):
    return ["eval-p1", "--src-pool", d / "src.pool", "--tgt-pool", d / "tgt.pool"]


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("spelling", ["--config PATH", "--config=PATH", "--conf PATH"])
def test_config_file_value_becomes_the_default(work, tmp_path, spelling):
    (tmp_path / "run.ini").write_text("[eval-bucc]\nk = 2\n", encoding="utf-8")
    assert run(*bucc_argv(work, tmp_path), *spelling.replace("PATH", str(tmp_path / "run.ini")).split()) == 0
    assert read_json(tmp_path / "bucc.json")["candidates"] == 80
    assert read_json(tmp_path / "bucc.manifest.json")["config"]["k"] == 2


@pytest.mark.parametrize("flag", ["--config", "--determ"])
def test_deterministic_from_any_spelling_pins_blas_threads(work, tmp_path, monkeypatch, flag):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    (tmp_path / "run.ini").write_text("[eval-bucc]\ndeterministic = true\n", encoding="utf-8")
    assert run(*bucc_argv(work, tmp_path), *([flag, tmp_path / "run.ini"] if flag == "--config" else [flag])) == 0
    assert all(os.environ[var] == "1" for var in cli._THREAD_VARS)


def test_flag_overrides_the_config_file(work, tmp_path):
    (tmp_path / "run.ini").write_text("[eval-bucc]\nk = 2\n", encoding="utf-8")
    assert run(*bucc_argv(work, tmp_path), "--config", tmp_path / "run.ini", "--k", 3) == 0
    assert read_json(tmp_path / "bucc.json")["candidates"] == 120


def test_repeatable_flag_replaces_the_config_file_list(work, tmp_path):
    (tmp_path / "run.ini").write_text(f"[build-vocab]\nmono = {work / 'src.txt'}\n", encoding="utf-8")
    argv = ["build-vocab", "--target-size", 200, "--out", tmp_path / "v.txt", "--config", tmp_path / "run.ini"]
    assert run(*argv, "--mono", work / "tgt.txt", "--mono", work / "tgt.txt") == 0
    assert read_json(tmp_path / "v.txt.manifest.json")["config"]["mono"] == [str(work / "tgt.txt")] * 2
    assert run(*argv) == 0
    assert read_json(tmp_path / "v.txt.manifest.json")["config"]["mono"] == [str(work / "src.txt")]


def test_config_file_supplies_a_required_option(work, tmp_path):
    (tmp_path / "run.ini").write_text(f"[eval-p1]\ngold = {work / 'gold.tsv'}\n", encoding="utf-8")
    assert run(*p1_pools(work), "--out", tmp_path / "p1", "--config", tmp_path / "run.ini") == 0
    assert read_json(tmp_path / "p1.json")["gold_pairs"] == 40
    assert read_json(tmp_path / "p1.manifest.json")["config"]["gold"] == str(work / "gold.tsv")


def test_required_option_in_neither_flags_nor_config_file_is_usage_error(work, tmp_path, capsys):
    (tmp_path / "run.ini").write_text(f"[eval-p1]\ngold = {work / 'gold.tsv'}\n", encoding="utf-8")
    assert run(*p1_pools(work), "--config", tmp_path / "run.ini") == 1
    err = capsys.readouterr().err
    assert "the following arguments are required: --out" in err and "--gold" not in err.splitlines()[-1]
    assert run(*p1_pools(work), "--out", tmp_path / "p1") == 1
    assert "the following arguments are required: --gold" in capsys.readouterr().err
    assert not (tmp_path / "p1").exists()


def test_config_file_value_of_the_wrong_type_is_usage_error(work, tmp_path, capsys):
    (tmp_path / "run.ini").write_text("[train]\nsteps = abc\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    argv = ["train", "--pairs", work / "pairs.tsv", "--vocab", work / "vocab.txt", "--out", out]
    assert run(*argv, "--config", tmp_path / "run.ini") == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "run.ini" in err and "'steps'" in err and "'abc'" in err
    assert not out.exists()


def library_error_case(d, t, command):
    """``(argv, message)``: a run whose inputs the library refuses with a ValueError."""
    if command == "build-vocab":
        # the pairs' alphabet alone outnumbers the pieces asked for
        return ["--pairs", d / "pairs.tsv", "--target-size", 6], "target_size=6 must exceed specials+alphabet="
    if command == "index":
        return ["--pool", d / "tgt.pool", "--clusters", 50], "pool of 40 rows cannot form 50 clusters"
    if command == "eval-bucc":
        pool, gold = bad_source_pool(d, t, "non-unit")
        return ["--src-pool", pool, "--tgt-pool", d / "tgt.pool", "--gold", gold], "pool rows must be unit-norm"
    if command == "pretrain":
        argv = ["--pairs", d / "pairs.tsv", "--vocab", d / "vocab.txt", "--mix", "0:1", "--max-seq-len", 2]
        return argv, "max_len 2 cannot hold [CLS] and, per non-empty side, a token and [SEP]"
    (t / "flat.txt").write_text("1\n" * 40, encoding="utf-8")
    argv = ["--pool-a", d / "src.pool", "--pool-b", d / "tgt.pool", "--gold-scores", t / "flat.txt"]
    return argv, "gold scores are constant; correlation undefined"


@pytest.mark.parametrize("command", ["build-vocab", "index", "eval-bucc", "eval-sts", "pretrain"])
def test_library_value_error_is_data_error_and_writes_no_manifest(work, tmp_path, capsys, command):
    argv, message = library_error_case(work, tmp_path, command)
    out = tmp_path / "out"
    assert run(command, *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"bitextmine: data error: {message}" in err
    assert not out.exists()
    assert not manifest_path(out).exists()


def eval_data_error_case(d, t, case):
    """``(argv, message)``: an ``eval-bucc`` or ``eval-p1`` run whose gold or
    candidate file holds a bad entry or no entry, and the error that names
    its place."""
    if case == "gold-id-outside-pool":
        (t / "gold.tsv").write_text("1\t1\n2\tzz\n", encoding="utf-8")
        argv = ["eval-p1", "--src-pool", d / "src.pool", "--tgt-pool", d / "tgt.pool", "--gold", t / "gold.tsv"]
        return argv, f"{t / 'gold.tsv'}: gold pair ('2', 'zz') outside its universe"
    if case == "empty-gold":
        (t / "gold.tsv").write_text("\n", encoding="utf-8")
        (t / "cands.tsv").write_text("1\t1\t0.5\n", encoding="utf-8")
        argv = ["eval-bucc", "--candidates", t / "cands.tsv", "--gold", t / "gold.tsv"]
        return argv, f"{t / 'gold.tsv'}: no gold pairs"
    line = {"nan-score": "2\t2\tnan", "inf-score": "2\t2\tinf", "duplicate-candidate": "1\t1\t0.4"}[case]
    (t / "cands.tsv").write_text(f"1\t1\t0.5\n{line}\n", encoding="utf-8")
    argv = ["eval-bucc", "--candidates", t / "cands.tsv", "--gold", d / "gold.tsv"]
    message = "duplicate candidate ('1', '1')" if case == "duplicate-candidate" else f"bad score {line.split()[2]!r}"
    return argv, f"{t / 'cands.tsv'}:2: {message}"


@pytest.mark.parametrize(
    "case", ["gold-id-outside-pool", "empty-gold", "nan-score", "inf-score", "duplicate-candidate"]
)
def test_eval_data_error_names_its_file(work, tmp_path, capsys, case):
    argv, message = eval_data_error_case(work, tmp_path, case)
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 2
    assert f"bitextmine: data error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()


def bad_source_pool(d, t, defect):
    """A copy of the source pool with duplicate ids or non-unit rows, and a
    gold file that names only ids it holds."""
    pool = read_pool(d / "src.pool")
    vectors, ids = pool.vectors, list(pool.ids)
    if defect == "duplicate-ids":
        ids[1] = ids[0]
    else:
        vectors = 2.0 * vectors
    write_pool(t / "bad.pool", vectors, ids)
    (t / "bad_gold.tsv").write_text("".join(f"{i}\t{i}\n" for i in dict.fromkeys(ids)), encoding="utf-8")
    return t / "bad.pool", t / "bad_gold.tsv"


def sts_scores(t):
    """Gold scores for the fixture's 40 pairs, not all equal."""
    (t / "scores.txt").write_text("".join(f"{i % 5}\n" for i in range(40)), encoding="utf-8")
    return t / "scores.txt"


def bad_pool_argv(d, t, command, pool, gold):
    """The command and its flags, with ``pool`` in the place of one pool it reads."""
    if command == "eval-tatoeba":
        return [command, "--set", f"xx={pool},{d / 'tgt.pool'},{gold}"]
    if command == "eval-sts":
        return [command, "--pool-a", pool, "--pool-b", d / "tgt.pool", "--gold-scores", sts_scores(t)]
    if command == "index":
        return [command, "--pool", pool]
    if command == "search-queries":
        assert run("index", "--pool", d / "tgt.pool", "--out", t / "idx") == 0
        return ["search", "--index", t / "idx", "--queries", pool]
    if command == "search-index":
        assert run("index", "--pool", d / "tgt.pool", "--out", t / "idx") == 0
        for suffix in ("", ".ids"):
            (t / "idx" / f"vectors.pool{suffix}").write_bytes((t / f"bad.pool{suffix}").read_bytes())
        return ["search", "--index", t / "idx", "--queries", d / "tgt.pool"]
    return [command, "--src-pool", pool, "--tgt-pool", d / "tgt.pool", "--gold", gold]


@pytest.mark.parametrize(
    "defect, message", [("duplicate-ids", "pool ids must be unique"), ("non-unit", "pool rows must be unit-norm")]
)
@pytest.mark.parametrize(
    "command", ["eval-p1", "eval-bucc", "eval-tatoeba", "eval-sts", "search-queries", "search-index", "index"]
)
def test_source_pool_is_checked_like_the_target_pool(work, tmp_path, capsys, command, defect, message):
    pool, gold = bad_source_pool(work, tmp_path, defect)
    out = tmp_path / "out"
    assert run(*bad_pool_argv(work, tmp_path, command, pool, gold), "--out", out) == 2
    assert f"bitextmine: data error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()


def test_sts_pools_with_other_ids_are_data_error(work, tmp_path, capsys):
    pool = read_pool(work / "tgt.pool")
    write_pool(tmp_path / "reordered.pool", pool.vectors, pool.ids[::-1])
    argv = ["--pool-a", work / "src.pool", "--pool-b", tmp_path / "reordered.pool", "--gold-scores", sts_scores(tmp_path)]
    out = tmp_path / "sts"
    assert run("eval-sts", *argv, "--out", out) == 2
    assert "pool-a and pool-b must hold vectors of one dimension with the same ids, row for row" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()


@pytest.mark.parametrize("bad", ["abc", "nan", "-inf"])
def test_sts_gold_score_that_is_not_a_finite_number_names_its_line(work, tmp_path, capsys, bad):
    (tmp_path / "scores.txt").write_text(f"0.5\n\n{bad}\n" + "1\n" * 37, encoding="utf-8")
    argv = ["--pool-a", work / "src.pool", "--pool-b", work / "tgt.pool", "--gold-scores", tmp_path / "scores.txt"]
    assert run("eval-sts", *argv, "--out", tmp_path / "sts") == 2
    assert f"{tmp_path / 'scores.txt'}:3: bad score {bad!r}" in capsys.readouterr().err
    assert not (tmp_path / "sts").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_is_numerical_failure(work, tmp_path, capsys):
    out = tmp_path / "div.ckpt"
    argv = ["train", "--pairs", work / "pairs.tsv", "--vocab", work / "vocab.txt", "--out", out]
    assert run(*argv, "--lr", 1e300, "--steps", 4, "--batch-size", 8, "--hidden-dim", 8) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()
