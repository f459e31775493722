"""The benchmark workloads, each driven through ``bitextmine.cli.main``.

Every workload runs the paper's whole toy pipeline; the workloads differ
in their inputs (``inputs.SIZES``). The set-up generates the inputs and
runs ``build-vocab``. A pass is the timed part:

1. ``pretrain``: MLM and TLM batches mixed, a two-stage stacking schedule;
2. ``train``: the dual encoder from a fresh init, periodic checkpoints;
3. ``encode`` of the held-out, word-order and mining sets;
4. ``mine`` over an IVF index;
5. ``eval-p1`` on the held-out and the word-order sets, ``eval-bucc`` on
   the mining pools, over exact indexes.

Every CLI call is one operation; it fails on a non-zero exit code or a
failed output check, and a failure is counted, never raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from bitextmine import cli
from bitextmine.corpus import read_monolingual
from bitextmine.encoder import encode_batch
from bitextmine.trainer import load_checkpoint
from bitextmine.vecindex import IndexConfig, build, recall_vs_exact
from bitextmine.vocab import Vocab, tokenize_sentence

from inputs import Size, generate

_LOG_LINE = re.compile(r"step=(\d+) loss=(\S+) lr=\S+ pairs_seen=\d+")
RECALL_SAMPLE = 500


class CheckFailed(Exception):
    """An output of a CLI call is missing or wrong."""


class Runner:
    """Runs CLI calls and counts operations and failures. While
    ``recorder`` is set, each call runs with the span wrappers installed
    under a root span ``cli.<command>``. While ``probe`` is set, it is
    called before and after each call and returns the host's slowdown."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.recorder = None
        self.probe = None
        self._last_slowdown = None

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    def _slowdown(self, fresh: bool) -> float | None:
        """The probe after one call also serves as the probe before the next."""
        if self.probe is None:
            return None
        if fresh or self._last_slowdown is None:
            self._last_slowdown = self.probe()
        return self._last_slowdown

    def call(self, argv: list, check=None):
        """Run one CLI command; return ``(wall_s, check_result, slowdown)``
        or None when the call or its check failed. ``slowdown`` is the mean
        of the probes before and after the call (None without a probe)."""
        argv = [str(a) for a in argv] + ["--deterministic"]
        self.attempted += 1
        before = self._slowdown(fresh=False)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.ExitStack() as stack:
            if self.recorder is not None:
                stack.enter_context(self.recorder.installed())
            start = perf_counter()
            try:
                if self.recorder is not None:
                    with self.recorder.span(f"cli.{argv[0]}"):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
            except Exception:
                code = f"raised:\n{traceback.format_exc()}"
            wall = perf_counter() - start
        slowdown = None if before is None else (before + self._slowdown(fresh=True)) / 2
        if code != 0:
            self.failures.append(f"{argv[0]}: exit {code}: {err.getvalue().strip()[-500:]}")
            return None
        try:
            return wall, (check() if check is not None else None), slowdown
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{argv[0]}: check failed: {exc}")
            return None


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def check_log(path: Path, steps: int) -> list[float]:
    """One ``step=`` line per step, numbered 1..steps, every loss finite."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != steps:
        raise CheckFailed(f"{path.name}: {len(lines)} log lines for {steps} steps")
    losses = []
    for expect, line in enumerate(lines, start=1):
        m = _LOG_LINE.fullmatch(line)
        if m is None or int(m.group(1)) != expect:
            raise CheckFailed(f"{path.name}: bad log line {line!r}")
        loss = float(m.group(2))
        if not math.isfinite(loss):
            raise CheckFailed(f"{path.name}: non-finite loss at step {expect}")
        losses.append(loss)
    return losses


def check_file(path: Path) -> None:
    if not path.is_file() or path.stat().st_size == 0:
        raise CheckFailed(f"{path.name} missing or empty")


def check_pool(path: Path, rows: int) -> None:
    """The pool holds ``rows`` float32 rows and as many ids."""
    with open(path, "rb") as fh:
        header = fh.readline()
    m, d = (int(x) for x in header.split())
    if m != rows or path.stat().st_size != len(header) + m * d * 4:
        raise CheckFailed(f"{path.name}: {m} rows, expected {rows}")
    ids = Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()
    if len(ids) != rows:
        raise CheckFailed(f"{path.name}.ids: {len(ids)} ids, expected {rows}")


def check_report(path: Path) -> dict:
    """The JSON summary beside a report parses."""
    try:
        return json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}.json does not parse: {exc}") from exc


def check_fraction(report: dict, key: str) -> float:
    value = report.get(key)
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise CheckFailed(f"report {key}={value!r} is not a fraction")
    return float(value)


def check_mined(path: Path, threshold: float, src_id: dict, tgt_id: dict) -> list[tuple[str, str]]:
    """Every mined pair scores at or above the threshold and maps back to
    line ids on both sides."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        cols = line.split("\t")
        if len(cols) != 5:
            raise CheckFailed(f"{path.name}: bad row {line!r}")
        if float(cols[4]) < threshold:
            raise CheckFailed(f"{path.name}: score {cols[4]} below threshold {threshold}")
        if cols[2] not in src_id or cols[3] not in tgt_id:
            raise CheckFailed(f"{path.name}: text does not map to an input line")
        out.append((src_id[cols[2]], tgt_id[cols[3]]))
    return out


class Same:
    """Checks that a quality value repeats bit for bit in every pass."""

    def __init__(self) -> None:
        self.first: dict[str, object] = {}

    def __call__(self, key: str, value):
        if self.first.setdefault(key, value) != value:
            raise CheckFailed(f"{key}={value!r} differs from the first pass ({self.first[key]!r})")
        return value


def _read_ids(path: Path) -> dict[str, str]:
    """Text -> line id, as ``read_monolingual`` numbers lines."""
    return {line: str(k) for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)}


def _gold_pairs(path: Path) -> set[tuple[str, str]]:
    return {tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()}


def _f1(predicted: list[tuple[str, str]], gold: set[tuple[str, str]]) -> float:
    tp = len(set(predicted) & gold)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(set(predicted)), tp / len(gold)
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def _median(passes: list[dict], fn) -> float | None:
    """Median over passes of ``fn(pass)``, skipping passes with a failed call."""
    values = []
    for p in passes:
        try:
            values.append(fn(p))
        except (KeyError, TypeError):
            continue
    return statistics.median(values) if values else None


def _wall(p: dict, *labels: str) -> float:
    """Wall time of the calls at the reference host's speed."""
    return sum(wall / (slowdown or 1.0) for wall, _, slowdown in (p[label] for label in labels))


class Pipeline:
    """Set-up, pass and metrics of one workload."""

    ENCODES = ("test_src", "test_tgt", "order_src", "order_tgt", "mine_src", "mine_tgt")

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed
        self.same = Same()
        self.rows: dict[str, int] = {}

    def setup(self, runner: Runner, d: Path, recorder=None) -> None:
        self.rows = generate(d, self.seed, self.size)
        runner.recorder = recorder
        try:
            runner.call(
                ["build-vocab", "--pairs", d / "train.tsv", "--target-size", self.size.vocab_size, "--out", d / "vocab.txt"],
                check=lambda: check_file(d / "vocab.txt"),
            )
        finally:
            runner.recorder = None

    def _pretrain(self, runner: Runner, d: Path, out: Path):
        s = self.size
        steps = sum(n for _, n in s.pretrain_stages)
        ckpt, log = out / "pretrain.ckpt", out / "pretrain.log"

        def check():
            check_file(ckpt)
            losses = check_log(log, steps)
            return self.same("mlm_loss_final", statistics.fmean(losses[-s.mlm_tail_steps :]))

        return runner.call(
            ["pretrain", "--mono", d / "mono.txt", "--pairs", d / "train.tsv", "--vocab", d / "vocab.txt",
             "--out", ckpt, "--log", log, "--hidden-dim", s.hidden_dim, "--max-seq-len", s.max_seq_len,
             "--stage-layers", ",".join(str(l) for l, _ in s.pretrain_stages),
             "--stage-steps", ",".join(str(n) for _, n in s.pretrain_stages),
             "--batch-size", s.batch_size, "--mix", "1:1", "--seed", self.seed],
            check=check,
        )

    def _train(self, runner: Runner, d: Path, out: Path):
        s = self.size
        ckpt, log = out / "model.ckpt", out / "train.log"
        return runner.call(
            ["train", "--pairs", d / "train.tsv", "--vocab", d / "vocab.txt", "--out", ckpt, "--log", log,
             "--hidden-dim", s.hidden_dim, "--layers", s.layers, "--max-seq-len", s.max_seq_len,
             "--batch-size", s.batch_size, "--steps", s.train_steps, "--lr", s.train_lr, "--seed", self.seed,
             "--checkpoint-interval", s.checkpoint_interval],
            check=lambda: (check_file(ckpt), check_log(log, s.train_steps)),
        )

    def _encode(self, runner: Runner, d: Path, out: Path, name: str):
        pool = out / f"{name}.pool"
        return runner.call(
            ["encode", "--input", d / f"{name}.txt", "--vocab", d / "vocab.txt", "--ckpt", out / "model.ckpt",
             "--out", pool],
            check=lambda: check_pool(pool, self.rows[name]),
        )

    def _mine(self, runner: Runner, d: Path, out: Path):
        s = self.size
        mined = out / "mined.tsv"
        gold = _gold_pairs(d / "mine_gold.tsv")

        def check():
            pairs = check_mined(mined, s.mine_threshold, _read_ids(d / "mine_src.txt"), _read_ids(d / "mine_tgt.txt"))
            report = check_report(Path(str(mined) + ".report"))
            if report["pairs_post_selection"] != len(pairs):
                raise CheckFailed(f"report selects {report['pairs_post_selection']} pairs, TSV holds {len(pairs)}")
            return self.same("mined_f1", _f1(pairs, gold)), report["pairs_emitted"], len(pairs)

        return runner.call(
            ["mine", "--src", d / "mine_src.txt", "--tgt", d / "mine_tgt.txt", "--vocab", d / "vocab.txt",
             "--ckpt", out / "model.ckpt", "--clusters", s.clusters, "--probes", s.probes,
             "--threshold", s.mine_threshold, "--fraction", s.mine_fraction, "--direction", "forward",
             "--seed", self.seed, "--out", mined],
            check=check,
        )

    def _eval_p1(self, runner: Runner, d: Path, out: Path, name: str, key: str):
        report = out / f"{name}.p1"
        return runner.call(
            ["eval-p1", "--src-pool", out / f"{name}_src.pool", "--tgt-pool", out / f"{name}_tgt.pool",
             "--gold", d / f"{name}_gold.tsv", "--out", report],
            check=lambda: self.same(key, check_fraction(check_report(report), "p_at_1")),
        )

    def _eval_bucc(self, runner: Runner, d: Path, out: Path):
        report = out / "mine.bucc"
        return runner.call(
            ["eval-bucc", "--src-pool", out / "mine_src.pool", "--tgt-pool", out / "mine_tgt.pool",
             "--gold", d / "mine_gold.tsv", "--k", 1, "--out", report],
            check=lambda: self.same("bucc_f1", check_fraction(check_report(report), "f1")),
        )

    def warm_up(self, runner: Runner, d: Path, out: Path) -> None:
        """One ``pretrain`` call, checked but not timed."""
        out.mkdir(parents=True)
        self._pretrain(runner, d, out)
        shutil.rmtree(out)

    def run_pass(self, runner: Runner, d: Path, out: Path) -> dict:
        """One pass of the pipeline; ``{label: (wall_s, check result) or
        None}``. A call whose input a failed call should have made fails
        too, and is counted."""
        res = {"pretrain": self._pretrain(runner, d, out), "train": self._train(runner, d, out)}
        for name in self.ENCODES:
            res[f"encode_{name}"] = self._encode(runner, d, out, name)
        res["mine"] = self._mine(runner, d, out)
        res["p_at_1"] = self._eval_p1(runner, d, out, "test", "p_at_1")
        res["p_at_1_order"] = self._eval_p1(runner, d, out, "order", "p_at_1_order")
        res["bucc_f1"] = self._eval_bucc(runner, d, out)
        return res

    def metrics(self, passes: list[dict]) -> dict[str, tuple[float, str]]:
        s, rows = self.size, self.rows
        seqs = sum(n for _, n in s.pretrain_stages) * s.batch_size
        encoded = sum(rows[name] for name in self.ENCODES)
        encodes = [f"encode_{name}" for name in self.ENCODES]
        # Exact-index queries: every source of the two P@1 sets and of the pools.
        queries = rows["test_src"] + rows["order_src"] + rows["mine_src"]
        return {
            "pretrain_seqs_per_s": (_median(passes, lambda p: seqs / _wall(p, "pretrain")), "seqs/s"),
            "train_pairs_per_s": (_median(passes, lambda p: s.train_steps * s.batch_size / _wall(p, "train")), "pairs/s"),
            "encode_sents_per_s": (_median(passes, lambda p: encoded / _wall(p, *encodes)), "sents/s"),
            "mine_sents_per_s": (_median(passes, lambda p: rows["mine_src"] / _wall(p, "mine")), "sents/s"),
            "eval_queries_per_s": (
                _median(passes, lambda p: queries / _wall(p, "p_at_1", "p_at_1_order", "bucc_f1")), "queries/s"
            ),
            "mlm_loss_final": (_median(passes, lambda p: p["pretrain"][1]), "nats"),
            "p_at_1": (_median(passes, lambda p: p["p_at_1"][1]), "fraction"),
            "p_at_1_order": (_median(passes, lambda p: p["p_at_1_order"][1]), "fraction"),
            "bucc_f1": (_median(passes, lambda p: p["bucc_f1"][1]), "fraction"),
            "mined_f1": (_median(passes, lambda p: p["mine"][1][0]), "fraction"),
        }

    def layer_counts(self, d: Path, out: Path, res: dict) -> dict[str, tuple[float, str]]:
        """Work counts of a traced pass: the IVF index ``mine`` built,
        rebuilt here with the same config from the same vectors, and the
        mined pairs."""
        if res["train"] is None:
            return {}
        s = self.size
        vocab = Vocab.load(d / "vocab.txt")
        params, _ = load_checkpoint(out / "model.ckpt")

        def vectors(sentences) -> np.ndarray:
            return encode_batch(params, [tokenize_sentence(x, vocab, params.config.max_seq_len) for x in sentences])

        targets = read_monolingual(d / "mine_tgt.txt")
        index = build(vectors(targets), [t.id for t in targets], IndexConfig(clusters=s.clusters, probes=s.probes, seed=self.seed))
        sizes = [len(a) for a in index.assignments]
        queries = vectors(read_monolingual(d / "mine_src.txt")[:RECALL_SAMPLE])
        counts = {
            "vecindex.cluster_size_max": (float(max(sizes)), "count"),
            "vecindex.cluster_size_mean": (float(statistics.fmean(sizes)), "count"),
            "vecindex.ivf_recall_at_1": (recall_vs_exact(index, queries, k=1), "fraction"),
        }
        if res["mine"] is not None:
            _, (_, emitted, selected), _ = res["mine"]
            counts["mining.pairs_emitted"] = (float(emitted), "count")
            counts["mining.pairs_selected"] = (float(selected), "count")
        return counts

