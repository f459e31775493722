"""The benchmark's traced run times the functions named in
``bench/tracing.py``; a name that no longer resolves drops its metrics
from the benchmark. The list is read from the file's source, so the
benchmark code itself is not imported here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
