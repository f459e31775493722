"""Span recorder for the traced benchmark run.

The recorder wraps the program's public functions from outside: each
function is replaced at every binding its callers use (the defining
module and every ``bitextmine`` module that imported it by name), and
the originals are put back afterwards. A function that no longer exists
is listed as missing, not treated as an error.

Spans are kept in memory as ``(span_id, parent_id, root_id, name, start,
end, self_s, pass_no)`` and written out when the run ends. A span's self
time is its duration minus the time covered by its child spans, so under
each root span the self times add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function, hot). Hot functions are called many times per command
# and also get per-call latency percentiles.
LAYERS = [
    ("vocab", "build_vocab", False),
    ("vocab", "tokenize_sentence", True),
    ("encoder", "encode", True),
    ("encoder", "encode_batch", False),
    ("encoder", "forward_batch", True),
    ("encoder", "backward_batch", True),
    ("encoder", "plan_masks", True),
    ("encoder", "mlm_loss_and_grad", True),
    ("encoder", "tlm_sequence", False),
    ("encoder", "stack_grow", False),
    ("loss", "loss_and_grad_wrt_embeddings", True),
    ("negatives", "sharded_bidirectional_loss", False),
    ("negatives", "shard_batch", False),
    ("trainer", "finetune_dual_encoder", False),
    ("trainer", "pretrain", False),
    ("trainer", "optimizer_step", True),
    ("trainer", "save_checkpoint", False),
    ("trainer", "load_checkpoint", False),
    ("vecindex", "build", False),
    ("vecindex", "search", True),
    ("vecindex", "read_pool", False),
    ("vecindex", "write_pool", False),
    ("mining", "mine", False),
    ("mining", "dedup", False),
    ("mining", "select_top_fraction", False),
    ("mining", "mining_report", False),
    ("evaluation", "p_at_1", False),
    ("evaluation", "bucc_candidates", False),
    ("evaluation", "bucc_best_f1", False),
    ("evaluation", "read_gold_tsv", False),
    ("evaluation", "write_metrics_report", False),
    ("corpus", "read_pairs_tsv", False),
    ("corpus", "read_monolingual", False),
    ("corpus", "format_pairs_tsv", False),
    ("fileio", "atomic_write_bytes", False),
    ("fileio", "atomic_write_text", False),
    ("fileio", "sha256_file", False),
]


def _build_mode(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return "exact" if config is None else "partitioned"


def _search_mode(args, kwargs) -> str:
    index = args[0] if args else kwargs["index"]
    return str(index.mode)


# Spans split by the index mode, so that exact (evaluation) and partitioned
# (mining) search are measured apart.
SPLIT_BY = {"vecindex.build": _build_mode, "vecindex.search": _search_mode}

STEP_SPAN = "trainer.optimizer_step"


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def latency_ms(durations_s: list[float]) -> tuple[float, float]:
    """(p50, tail) in milliseconds; the tail is the maximum when there are
    too few samples for any percentile."""
    ms = np.asarray(durations_s) * 1e3
    p = tail_percentile(ms.size)
    return float(np.percentile(ms, 50)), float(np.percentile(ms, p)) if p is not None else float(ms.max())


class Recorder:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.pass_no = 0
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span_id, child_time, root_id]
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> list:
        span_id = next(self._ids)
        root = self._stack[0][0] if self._stack else span_id
        frame = [span_id, 0.0, root]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        self.spans.append((frame[0], parent, frame[2], name, start, end, dur - frame[1], self.pass_no))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, perf_counter())

    def _wrap(self, name: str, fn):
        split = SPLIT_BY.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name if split is None else f"{name}.{split(args, kwargs)}"
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, full, start, perf_counter())

        return wrapper

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` at each of its bindings."""
        self.missing = []
        modules = [m for k, m in list(sys.modules.items()) if k == "bitextmine" or k.startswith("bitextmine.")]
        for module_name, func_name, _ in LAYERS:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"bitextmine.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules + [module]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def per_layer(self, traced_passes: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per traced pass.

        Root spans (``cli.<command>``) give ``wall_s`` and ``untraced_s``
        (their self time); other spans give ``calls`` and ``self_s``, plus
        ``p50_ms``/``tail_ms`` for hot functions. ``trainer.step`` gives
        the latency between consecutive optimizer-step ends. Spans recorded
        outside the traced passes (set-up) count once, as they ran once.
        """
        hot = {f"{m}.{f}" for m, f, h in LAYERS if h}
        counted = set(traced_passes)
        groups: dict[str, dict] = {}
        step_ends: dict[int, list[float]] = {}
        for _, parent, root, name, start, end, self_s, pass_no in self.spans:
            g = groups.setdefault(name, {"root": parent < 0, "durs": [], "once": [0, 0.0, 0.0], "passes": [0, 0.0, 0.0]})
            acc = g["passes"] if pass_no in counted else g["once"]
            acc[0] += 1
            acc[1] += self_s
            acc[2] += end - start
            g["durs"].append(end - start)
            if name == STEP_SPAN:
                step_ends.setdefault(root, []).append(end)
        n = len(counted)
        out: dict[str, tuple[float, str]] = {}
        for name, g in sorted(groups.items()):
            calls, self_s, wall = (once + per / n for once, per in zip(g["once"], g["passes"]))
            if g["root"]:
                out[f"{name}.wall_s"] = (wall, "s")
                out[f"{name}.untraced_s"] = (self_s, "s")
                continue
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            if name in hot or name.rsplit(".", 1)[0] in hot:
                p50, tail = latency_ms(g["durs"])
                out[f"{name}.p50_ms"] = (p50, "ms")
                out[f"{name}.tail_ms"] = (tail, "ms")
        gaps = [b - a for ends in step_ends.values() for a, b in zip(ends, ends[1:])]
        if gaps:
            p50, tail = latency_ms(gaps)
            out["trainer.step.p50_ms"] = (p50, "ms")
            out["trainer.step.tail_ms"] = (tail, "ms")
        return out

    def write(self, path: Path) -> None:
        """Write one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("span", "parent", "root", "name", "start", "end", "self_s", "pass")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {"trace": self.trace_id, **dict(zip(keys, span))}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
