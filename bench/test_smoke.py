"""Smoke test of the benchmark at tiny input sizes. From the repository root:

    python3 -m pytest -q bench/test_smoke.py

It checks that every workload emits every metric named in
``BENCHMARK.json`` with its unit, that quality metrics repeat bit for bit
for a seed, that the seed drives the generated inputs, that span self
times add up to each command's wall time, and that the benchmark fails
without the program.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "smoke"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUALITY = ("p_at_1", "p_at_1_order", "bucc_f1", "mined_f1", "mlm_loss_final")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, tag: int = 0) -> dict:
    """One tiny run; ``tag`` only tells repeated runs apart in the cache."""
    proc = _bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    metrics = run(workload, 3, trace)["metrics"]
    assert set(metrics) == set(units), f"{workload} emits {sorted(set(metrics) ^ set(units))} unlike BENCHMARK.json"
    for name, metric in metrics.items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quality_metrics_repeat_bit_for_bit(workload):
    first, second = run(workload, 3, 0), run(workload, 3, 0, tag=1)
    for name in QUALITY:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_inputs(workload):
    from inputs import SIZES, digest_dir, generate, tiny

    digests = []
    for n, seed in enumerate((1, 1, 2)):
        d = SCRATCH / f"inputs-{workload}-{n}"
        shutil.rmtree(d, ignore_errors=True)
        generate(d, seed, tiny(SIZES[workload]))
        digests.append(digest_dir(d))
        shutil.rmtree(d)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_each_command(workload):
    run(workload, 3, 1)
    lines = (ROOT / ".bench_out" / f"trace-{workload}-seed3-trace1.jsonl").read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    roots = {s["span"]: s for s in spans if s["parent"] == -1}
    assert roots and all(s["name"].startswith("cli.") for s in roots.values())
    covered = {span_id: 0.0 for span_id in roots}
    for s in spans:
        covered[s["root"]] += s["self_s"]
    for span_id, root in roots.items():
        assert covered[span_id] == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-9)


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
