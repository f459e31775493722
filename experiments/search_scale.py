"""Time exact and partitioned ``vecindex.search`` as the pool grows, and
report the partitioned index's recall against exact search.

Run it from the repository root:

    python3 experiments/search_scale.py
    python3 experiments/search_scale.py --rows 2000,20000 --repeats 5

Each pool holds random unit rows (d = 64 by default). The queries are
noisy copies of pool rows: a row plus Gaussian noise of ``--noise`` per
coordinate, scaled back to unit norm. The partitioned index has about
sqrt(M) clusters and probes 8 of them. Each search time is the median
of ``--repeats`` searches of the whole query block, and the partitioned
build time the median of ``--repeats`` builds of the pool (k-means and
partition), each with the interquartile range of its repeats beside it,
with BLAS pinned to one thread unless the environment already sets it.
A shared host's speed drifts, so each timed column is corrected as
``bench/run.py`` corrects its calls: its fixed kernel
(``host_slowdown``) runs before and after the column's repeats, and the
median and IQR are divided by the mean of the two slowdowns, which is
printed beside them (1.00 reads as the reference host). The correction
follows drift between columns, not within one, so read a difference
smaller than the IQRs as noise. recall@1 is the share of queries whose
exact best row is among the partitioned index's top k. The last two
columns give the bytes of each index's arrays per pool row.
The benchmark does not run this script; the test suite runs it once at
a tiny size (``tests/test_vecindex.py``), to keep it working.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bitextmine.vecindex import IndexConfig, build, recall_vs_exact, search  # noqa: E402

# The benchmark's host probe, loaded by path. bench/run.py pins the BLAS
# variables when loaded; numpy has read them already, so the pinning above
# (or the environment's own setting) stays in force.
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def bytes_per_row(index) -> float:
    """The bytes of all of ``index``'s arrays, per pool row."""
    return sum(value.nbytes for value in vars(index).values() if isinstance(value, np.ndarray)) / len(index)


def timed(repeats: int, fn) -> str:
    """The median and the interquartile range of the wall times of
    ``repeats`` calls of ``fn``, each divided by the host's slowdown (the
    mean of ``host_slowdown`` before and after the calls), and that
    slowdown, as ``"<median> ms | <IQR> ms | <slowdown>"``."""
    before = bench_run.host_slowdown()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    slowdown = (before + bench_run.host_slowdown()) / 2
    q1, median, q3 = np.percentile(times, [25, 50, 75]) * 1e3 / slowdown
    return f"{median:.1f} ms | {q3 - q1:.1f} ms | {slowdown:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", default="2000,20000,100000", help="comma-separated pool sizes")
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--ks", default="1,4", help="comma-separated neighbour counts")
    parser.add_argument("--probes", type=int, default=8)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print(f"d = {args.dim}, {args.queries} queries, noise {args.noise}, {args.probes} probes, {args.repeats} repeats")
    head = ["pool rows", "clusters", "k"]
    for name in ("exact", "partitioned", "partitioned build"):
        head += [name, f"{name} IQR", f"{name} slowdown"]
    head += ["recall@1", "exact B/row", "partitioned B/row"]
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for m in (int(x) for x in args.rows.split(",")):
        pool = unit(rng.normal(size=(m, args.dim)))
        ids = [f"v{i:07d}" for i in range(m)]
        noise = args.noise * rng.normal(size=(args.queries, args.dim))
        queries = unit(pool[rng.integers(0, m, size=args.queries)] + noise)
        clusters = max(1, round(m**0.5))
        exact = build(pool, ids)
        config = IndexConfig(clusters=clusters, probes=min(args.probes, clusters), seed=args.seed)
        build_ms = timed(args.repeats, lambda: build(pool, ids, config))
        ivf = build(pool, ids, config)
        sizes = f"{bytes_per_row(exact):.0f} | {bytes_per_row(ivf):.0f}"
        for k in (int(x) for x in args.ks.split(",")):
            times = f"{timed(args.repeats, lambda: search(exact, queries, k))} | "
            times += f"{timed(args.repeats, lambda: search(ivf, queries, k))} | {build_ms}"
            print(f"| {m:,} | {clusters} | {k} | {times} | {recall_vs_exact(ivf, queries, k):.3f} | {sizes} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
