"""Benchmark of the ``bitextmine`` pipeline, driven in-process through
``bitextmine.cli.main``. Run it from the repository root:

    python3 bench/run.py --workload short --seed 1 --seconds 55 --trace 0

Workloads: ``short`` and ``long`` (``inputs.SIZES``). Each runs the whole
pipeline (``workloads.py``) on its own inputs. The seed makes the inputs
(``inputs.py``); the program sees only files.

With ``--trace 0`` the run sets up the workload three times (median
``setup_s``), makes one untimed warm-up call, then repeats the workload's
pass for as long as another pass ends within ``--seconds`` of the warm-up's
start, and reports the end-to-end metrics as medians over the passes.

The speed of a shared host drifts by up to 2x over seconds to minutes,
which no statistic within one run removes. So a fixed kernel
(``host_probe_s``) is timed before and after each set-up and each CLI
call, and each of their times is divided by the host's slowdown beside
it (the mean of the two probes relative to ``REFERENCE_PROBE_S``):
``setup_s`` and every throughput read as on the reference host. The
unscaled times and the slowdowns are kept in the result file.
With ``--trace 1`` it sets up once, warms up and alternates untraced and
traced passes; the traced passes give the per-layer metrics (``tracing.py``) and
the two kinds of pass give ``trace.overhead_frac``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance. Work files go to ``.bench_work/`` and are removed; the result
and, when traced, the spans go to ``.bench_out/``. ``--tiny`` shrinks every
input for the smoke test.
"""

import os

# Pin BLAS threads before numpy is first imported, so that numerics (and
# with them the quality metrics) are bit-exact for a seed.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3


def _import_program() -> None:
    """Import every module of the checkout's ``src/bitextmine`` up front,
    so no pass pays a first import. Exits non-zero when it is absent."""
    src = ROOT / "src"
    if not (src / "bitextmine" / "cli.py").is_file():
        sys.exit(f"bench: no bitextmine sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import bitextmine

    if Path(bitextmine.__file__).resolve().parent != (src / "bitextmine").resolve():
        sys.exit(f"bench: bitextmine imported from {bitextmine.__file__}, not from {src}")
    for info in pkgutil.iter_modules(bitextmine.__path__):
        importlib.import_module(f"bitextmine.{info.name}")


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_revision": _git_revision(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# Seconds the host probe takes on an unloaded host (Intel Xeon, 2 vCPUs,
# one BLAS thread). Only the ratio to it enters the metrics.
REFERENCE_PROBE_S = 0.055


def host_probe_s() -> float:
    """Time of a fixed kernel with the three kinds of work the program
    does: small numpy products (a batched residual-tanh forward and
    backward with a scatter-add, then a per-query matmul and lexsort over a
    2,500-row pool), interpreted Python (dict and string work, as in
    tokenizing), and fresh multi-megabyte arrays (a softmax over a vocabulary,
    whose page faults weigh on ``pretrain``)."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.normal(size=(64, 64)) / 8
    batch = rng.normal(size=(64, 10, 64))
    ids = rng.integers(0, 400, size=640)
    table = np.zeros((400, 64))
    pool, queries, rank = rng.normal(size=(2500, 64)), rng.normal(size=(25, 64)), np.arange(2500)
    words = [f"w{i % 97}x{i % 13}" for i in range(3000)]
    logits, emb = rng.normal(size=(1536, 400)), rng.normal(size=(400, 64))
    start = perf_counter()
    for _ in range(8):
        h, gates = batch, []
        for _ in range(4):
            g = np.tanh(h @ w)
            h = h + g
            gates.append(g)
        dh = h
        for g in reversed(gates):
            da = dh * (1 - g * g)
            h.reshape(-1, 64).T @ da.reshape(-1, 64)
            dh = dh + da @ w.T
        np.add.at(table, ids, dh.reshape(-1, 64))
    for q in queries:
        np.lexsort((rank, -(pool @ q)))
    for _ in range(10):
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + len(word.split("x"))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for _ in range(3):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        e.T @ (e @ emb)
    return perf_counter() - start


def host_slowdown() -> float:
    """How much slower than the reference host this host runs right now."""
    return host_probe_s() / REFERENCE_PROBE_S


def _pass_wall(result: dict) -> float:
    return sum(v[0] for v in result.values() if v is not None)


def run(args, work: Path):
    """Set up, run the passes and compute the metrics; return the runner,
    the recorder (traced runs), the metrics and details for the result file."""
    from inputs import SIZES, digest_dir, tiny
    from tracing import Recorder
    from workloads import Pipeline, Runner

    size = SIZES[args.workload]
    workload = Pipeline(tiny(size) if args.tiny else size, args.seed)
    runner = Runner()
    recorder = Recorder(f"{args.workload}-seed{args.seed}") if args.trace else None

    setups, digest = [], None
    for i in range(1 if args.trace else SETUPS):
        d = work / f"setup{i}"
        before = host_slowdown()
        start = perf_counter()
        workload.setup(runner, d, recorder)
        wall = perf_counter() - start
        setups.append((wall, (before + host_slowdown()) / 2))
        if digest is None:
            digest, data = digest_dir(d), d
        else:
            if digest_dir(d) != digest:
                runner.failures.append(f"set-up {i} made different files from set-up 0")
            shutil.rmtree(d)

    # Untraced runs time every CLI call at the reference host's speed.
    runner.probe = None if args.trace else host_slowdown
    untraced, traced, traced_nos, counts, durations = [], [], [], {}, []
    start = perf_counter()
    # The first heavy call in a process runs up to a third slower than
    # later ones, so an untimed ``pretrain`` goes first.
    workload.warm_up(runner, data, work / "warm-up")
    n = 0
    # Traced runs alternate untraced (even) and traced (odd) passes. A pass
    # starts only when a pass of the median duration still ends in time.
    while n < (2 if args.trace else 1) or perf_counter() - start + statistics.median(durations) <= args.seconds:
        began = perf_counter()
        is_traced = bool(args.trace) and n % 2 == 1
        if is_traced:
            recorder.pass_no = n + 1
            traced_nos.append(n + 1)
        runner.recorder = recorder if is_traced else None
        out = work / f"pass{n}"
        out.mkdir(parents=True)
        res = workload.run_pass(runner, data, out)
        runner.recorder = None
        if is_traced:
            traced.append(res)
            counts = workload.layer_counts(data, out, res)
        else:
            untraced.append(res)
        shutil.rmtree(out)
        durations.append(perf_counter() - began)
        n += 1

    if args.trace:
        metrics = recorder.per_layer(traced_nos)
        metrics.update(counts)
        overhead = statistics.median(map(_pass_wall, traced)) / statistics.median(map(_pass_wall, untraced)) - 1
        metrics["trace.overhead_frac"] = (overhead, "fraction")
    else:
        metrics = {"setup_s": (statistics.median(w / slow for w, slow in setups), "s"), **workload.metrics(untraced)}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["success_rate"] = ((runner.attempted - runner.failed) / runner.attempted, "fraction")
    info = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "missing_spans": recorder.missing if recorder else [],
        "setups": [{"wall_s": w, "host_slowdown": slow} for w, slow in setups],
        "calls": [
            {label: {"wall_s": v[0], "host_slowdown": v[2]} for label, v in res.items() if v is not None}
            for res in untraced + traced
        ],
    }
    return runner, recorder, {k: v for k, v in metrics.items() if v[0] is not None}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="short or long")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    _import_program()
    from inputs import SIZES

    if args.workload not in SIZES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(SIZES)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner, recorder, metrics, info = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in runner.failures:
        print(f"bench: {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    prov = provenance(args)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"provenance": prov, "failures": runner.failures, **info, **result}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if recorder is not None:
        recorder.write(out_dir / f"trace-{stem}.jsonl")
    print(json.dumps({"provenance": prov, "passes": info["passes"], "missing_spans": info["missing_spans"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
