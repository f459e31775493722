"""The benchmark's traced run times the functions named in
``bench/tracing.py``; a name that no longer resolves, or that the
benchmark's pass no longer calls, drops its metrics from the benchmark.
The list is read from the file's source, so the benchmark code itself is
not imported here. The names that ``bench/*.py`` import from
``bitextmine`` are read the same way, since removing one would break the
benchmark. The benchmark's per-step latency is timed between calls to
``trainer.optimizer_step``, so each training step must make exactly one.
"""

import ast
import collections
import functools
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import bitextmine
from bitextmine import cli, trainer
from bitextmine.corpus import format_pairs_tsv
from bitextmine.encoder import EncoderConfig, init_params
from bitextmine.toydata import make_toy_corpus

from conftest import columns

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def traced_layers():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [(module, function) for module, function, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACING} defines no LAYERS list")


def test_every_traced_layer_resolves_to_a_function():
    missing = [
        f"bitextmine.{module}.{function}"
        for module, function in traced_layers()
        if not callable(getattr(importlib.import_module(f"bitextmine.{module}"), function, None))
    ]
    assert missing == []


def bench_imports():
    """``(module, name)`` for each ``from bitextmine... import name`` in ``bench/*.py``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bitextmine":
                yield from ((node.module, alias.name) for alias in node.names)


def importable(module, name):
    """Whether ``from module import name`` succeeds: an attribute or a submodule."""
    try:
        return hasattr(importlib.import_module(module), name) or bool(importlib.import_module(f"{module}.{name}"))
    except ImportError:
        return False


def test_every_name_the_benchmark_imports_resolves():
    imported = list(bench_imports())
    assert ("bitextmine.toydata", "make_toy_corpus") in imported
    assert [f"{module}.{name}" for module, name in imported if not importable(module, name)] == []


@pytest.mark.parametrize("run", ["finetune", "pretrain"])
def test_each_training_step_makes_one_optimizer_step(monkeypatch, toy_small, toy_vocab, run):
    calls = []
    step = trainer.optimizer_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(trainer, "optimizer_step", counted)
    config = trainer.TrainConfig(batch_size=8, steps=12, learning_rate=1e-3)
    params = init_params(EncoderConfig(len(toy_vocab), hidden_dim=8, num_layers=1, max_seq_len=16))
    if run == "finetune":
        trainer.finetune_dual_encoder(params, columns(toy_small.train_pairs), config, toy_vocab)
    else:
        stages = (trainer.Stage(1, 6), trainer.Stage(2, 6))
        pretrain_config = trainer.PretrainConfig(stages, batch_size=8, learning_rate=1e-3)
        mono, pairs = columns(toy_small.mono_sentences), columns(toy_small.train_pairs)
        trainer.pretrain(params, mono, pairs, pretrain_config, toy_vocab)
    assert len(calls) == 12


def counting(calls, name, fn):
    """``fn`` counting its calls under ``name``; ``vecindex.build`` and
    ``vecindex.search`` also under their index mode, as the benchmark
    splits their spans."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        if name == "vecindex.build":
            config = args[2] if len(args) > 2 else kwargs.get("config")
            calls[f"{name}.{'exact' if config is None else 'partitioned'}"] += 1
        elif name == "vecindex.search":
            calls[f"{name}.{(args[0] if args else kwargs['index']).mode}"] += 1
        return fn(*args, **kwargs)

    return counted


def test_a_toy_benchmark_pass_calls_every_traced_function(tmp_path, monkeypatch):
    # every binding of each function is wrapped, as the benchmark's recorder wraps them
    for info in pkgutil.iter_modules(bitextmine.__path__):
        importlib.import_module(f"bitextmine.{info.name}")
    modules = [m for name, m in sys.modules.items() if name.startswith("bitextmine.")]
    calls = collections.Counter()
    for module, function in traced_layers():
        original = getattr(importlib.import_module(f"bitextmine.{module}"), function)
        wrapper = counting(calls, f"{module}.{function}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)

    d = tmp_path
    pairs = make_toy_corpus(40, 0, seed=3, lexicon_size=20, min_words=2, max_words=4).train_pairs
    (d / "pairs.tsv").write_text(format_pairs_tsv(pairs), encoding="utf-8")
    for side in ("src", "tgt"):
        (d / f"{side}.txt").write_text("".join(getattr(p, side).text + "\n" for p in pairs), encoding="utf-8")
    (d / "gold.tsv").write_text("".join(f"{i}\t{i}\n" for i in range(1, len(pairs) + 1)), encoding="utf-8")
    vocab, model = ["--vocab", d / "vocab.txt"], ["--ckpt", d / "model.ckpt"]
    pools = ["--src-pool", d / "src.pool", "--tgt-pool", d / "tgt.pool", "--gold", d / "gold.tsv"]
    # the benchmark's pass (bench/workloads.py), at a toy size
    commands = [
        ["build-vocab", "--pairs", d / "pairs.tsv", "--target-size", 200, "--out", d / "vocab.txt"],
        ["pretrain", "--mono", d / "src.txt", "--pairs", d / "pairs.tsv", *vocab, "--out", d / "pretrain.ckpt",
         "--hidden-dim", 8, "--stage-layers", "1,2", "--stage-steps", "2,2", "--batch-size", 8, "--mix", "1:1"],
        ["train", "--pairs", d / "pairs.tsv", *vocab, "--out", d / "model.ckpt", "--hidden-dim", 8,
         "--batch-size", 8, "--steps", 4, "--checkpoint-interval", 2],
        *[["encode", "--input", d / f"{side}.txt", *vocab, *model, "--out", d / f"{side}.pool"] for side in ("src", "tgt")],
        ["mine", "--src", d / "src.txt", "--tgt", d / "tgt.txt", *vocab, *model, "--clusters", 4, "--probes", 2,
         "--threshold", -0.99, "--direction", "forward", "--out", d / "mined.tsv"],
        ["eval-p1", *pools, "--out", d / "test.p1"],
        ["eval-bucc", *pools, "--k", 1, "--out", d / "mine.bucc"],
    ]
    for argv in commands:
        assert cli.main([str(a) for a in argv]) == 0, argv[0]
    expected = [f"{module}.{function}" for module, function in traced_layers()]
    expected += [f"vecindex.{fn}.{mode}" for fn in ("build", "search") for mode in ("exact", "partitioned")]
    assert [name for name in expected if calls[name] == 0] == []
