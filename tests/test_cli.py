"""``bitextmine.cli.main`` on a small toy corpus: every subcommand writes
a manifest of its config, input digests and outputs, and a failed run
writes none; rejected flag values and config-file values exit 1 (usage
error), refused checkpoints, index configs and malformed inputs exit 2
(data error), divergent training exits 3 (numerical failure); ``search``
writes the library's results for an exact and a partitioned index, and
``report`` applies the mining selection rule to an existing pair file."""

import json
import math
import os

import pytest

from bitextmine import cli
from bitextmine.corpus import SentencePair, format_pairs_tsv, read_pairs_tsv
from bitextmine.fileio import sha256_file
from bitextmine.toydata import make_toy_corpus
from bitextmine.trainer import load_checkpoint
from bitextmine.vecindex import load_index, read_pool, search


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
        "eval-tatoeba-group": ["eval-tatoeba", "--set", tatoeba_set(d), "--group", "foo", "--out", out],
        "eval-tatoeba-set-no-lang": ["eval-tatoeba", "--set", tatoeba_set(d, lang=""), "--out", out],
        "eval-tatoeba-set-twice": ["eval-tatoeba", "--set", tatoeba_set(d), "--set", tatoeba_set(d), "--out", out],
        "eval-tatoeba-group-twice": [
            "eval-tatoeba", "--set", tatoeba_set(d), "--group", "g=xx", "--group", "g=yy", "--out", out,
        ],
    }[case]


def tatoeba_set(d, lang="xx"):
    return f"{lang}={d / 'src.pool'},{d / 'tgt.pool'},{d / 'gold.tsv'}"


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
        "eval-tatoeba-group",
        "eval-tatoeba-set-no-lang",
        "eval-tatoeba-set-twice",
        "eval-tatoeba-group-twice",
    ],
)
def test_invalid_flag_value_is_usage_error(work, case, capsys):
    out, argv = invalid_argv(work, case)
    assert run(*argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()
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


def manifest_case(d, t, command):
    """``(before, argv, inputs, outputs)``: runs that make ``command``'s
    inputs, one run of it, the files its manifest digests and the paths it
    lists as outputs, first output first."""
    pools = ["--src-pool", d / "src.pool", "--tgt-pool", d / "tgt.pool", "--gold", d / "gold.tsv"]
    pool_inputs = [d / "src.pool", d / "tgt.pool", d / "gold.tsv"]
    model = ["--vocab", d / "vocab.txt", "--ckpt", d / "model.ckpt"]

    def report(name):
        return [t / name, t / f"{name}.json"]

    (t / "scores.txt").write_text("".join(f"{i % 5}\n" for i in range(40)), encoding="utf-8")
    scored = [SentencePair(p.src, p.tgt, score=i / 10) for i, p in enumerate(read_pairs_tsv(d / "pairs.tsv")[:8])]
    (t / "scored.tsv").write_text(format_pairs_tsv(scored), encoding="utf-8")
    index = ["index", "--pool", d / "tgt.pool", "--out", t / "idx"]
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
        "index": ([], index[1:] + ["--clusters", 4, "--probes", 2], [d / "tgt.pool", d / "tgt.pool.ids"], [t / "idx"]),
        "search": (
            [index],
            ["--index", t / "idx", "--queries", d / "src.pool", "--k", 2, "--out", t / "hits.tsv"],
            [d / "src.pool", d / "src.pool.ids"],
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
            [d / "src.pool", d / "tgt.pool", t / "scores.txt"],
            report("sts"),
        ),
        "stats": (
            [],
            ["--mono", d / "src.txt", "--mono", d / "tgt.txt", "--vocab", d / "vocab.txt", "--out", t / "stats"],
            [d / "src.txt", d / "tgt.txt", d / "vocab.txt"],
            [t / "stats"],
        ),
        "report": ([], ["--pairs", t / "scored.tsv", "--out", t / "rep"], [t / "scored.tsv"], report("rep")),
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


@pytest.mark.parametrize("spelling", ["--config PATH", "--config=PATH", "--conf PATH"])
def test_config_file_value_becomes_the_default(work, tmp_path, spelling):
    _, argv, _, _ = manifest_case(work, tmp_path, "report")
    (tmp_path / "run.ini").write_text("[report]\nfraction = 0.5\n", encoding="utf-8")
    assert run("report", *argv, *spelling.replace("PATH", str(tmp_path / "run.ini")).split()) == 0
    assert json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))["pairs_post_selection"] == 4
    assert json.loads((tmp_path / "rep.manifest.json").read_text(encoding="utf-8"))["config"]["fraction"] == 0.5


@pytest.mark.parametrize("flag", ["--config", "--determ"])
def test_deterministic_from_any_spelling_pins_blas_threads(work, tmp_path, monkeypatch, flag):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    _, argv, _, _ = manifest_case(work, tmp_path, "report")
    (tmp_path / "run.ini").write_text("[report]\ndeterministic = true\n", encoding="utf-8")
    assert run("report", *argv, *([flag, tmp_path / "run.ini"] if flag == "--config" else [flag])) == 0
    assert all(os.environ[var] == "1" for var in cli._THREAD_VARS)


def test_flag_overrides_the_config_file(work, tmp_path):
    _, argv, _, _ = manifest_case(work, tmp_path, "report")
    (tmp_path / "run.ini").write_text("[report]\nfraction = 0.5\n", encoding="utf-8")
    assert run("report", *argv, "--config", tmp_path / "run.ini", "--fraction", 1.0) == 0
    assert json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))["pairs_post_selection"] == 8


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
        (t / "blank.txt").write_text(" \n", encoding="utf-8")
        return ["--mono", t / "blank.txt", "--target-size", 50], "no tokens in corpus"
    if command == "index":
        return ["--pool", d / "tgt.pool", "--clusters", 50], "pool of 40 rows cannot form 50 clusters"
    if command == "eval-bucc":
        (t / "cands.tsv").write_text("1\t1\t0.5\n1\t1\t0.4\n", encoding="utf-8")
        return ["--candidates", t / "cands.tsv", "--gold", d / "gold.tsv"], "duplicate candidate ('1', '1')"
    (t / "flat.txt").write_text("1\n" * 40, encoding="utf-8")
    argv = ["--pool-a", d / "src.pool", "--pool-b", d / "tgt.pool", "--gold-scores", t / "flat.txt"]
    return argv, "gold scores are constant; correlation undefined"


@pytest.mark.parametrize("command", ["build-vocab", "index", "eval-bucc", "eval-sts"])
def test_library_value_error_is_data_error_and_writes_no_manifest(work, tmp_path, capsys, command):
    argv, message = library_error_case(work, tmp_path, command)
    out = tmp_path / "out"
    assert run(command, *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"bitextmine: data error: {message}" in err
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
