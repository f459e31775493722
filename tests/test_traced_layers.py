"""The benchmark's traced run times the functions named in
``bench/tracing.py``; a name that no longer resolves drops its metrics
from the benchmark. The list is read from the file's source, so the
benchmark code itself is not imported here. The names that
``bench/*.py`` import from ``bitextmine`` are read the same way, since
removing one would break the benchmark. The benchmark's per-step
latency is timed between calls to ``trainer.optimizer_step``, so each
training step must make exactly one.
"""

import ast
import importlib
from pathlib import Path

import pytest

from bitextmine import trainer
from bitextmine.encoder import EncoderConfig, init_params

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
        trainer.finetune_dual_encoder(params, toy_small.train_pairs, config, toy_vocab)
    else:
        stages = (trainer.Stage(1, 6), trainer.Stage(2, 6))
        pretrain_config = trainer.PretrainConfig(stages, batch_size=8, learning_rate=1e-3)
        trainer.pretrain(params, toy_small.mono_sentences, toy_small.train_pairs, pretrain_config, toy_vocab)
    assert len(calls) == 12
