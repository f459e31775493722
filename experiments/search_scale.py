"""Time exact and partitioned ``vecindex.search`` as the pool grows, and
report the partitioned index's recall against exact search.

Run it from the repository root:

    python3 experiments/search_scale.py
    python3 experiments/search_scale.py --rows 2000,20000 --repeats 5

Each pool holds random unit rows (d = 64 by default). The queries are
noisy copies of pool rows: a row plus Gaussian noise of ``--noise`` per
coordinate, scaled back to unit norm. The partitioned index has about
sqrt(M) clusters and probes 8 of them. Each search time is the best of
``--repeats`` searches of the whole query block, and the partitioned
build time the best of ``--repeats`` builds of the pool (k-means and
partition), with BLAS pinned to one thread unless the environment
already sets it. recall@1 is the share of
queries whose exact best row is among the partitioned index's top k. The
last two columns give the bytes of each index's arrays per pool row.
The benchmark does not run this script; the test suite runs it once at
a tiny size (``tests/test_vecindex.py``), to keep it working.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bitextmine.vecindex import IndexConfig, build, recall_vs_exact, search  # noqa: E402


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def bytes_per_row(index) -> float:
    """The bytes of all of ``index``'s arrays, per pool row."""
    return sum(value.nbytes for value in vars(index).values() if isinstance(value, np.ndarray)) / len(index)


def best_of(repeats: int, fn) -> float:
    """The least wall time of ``repeats`` calls of ``fn``, in seconds."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", default="2000,20000,100000", help="comma-separated pool sizes")
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--ks", default="1,4", help="comma-separated neighbour counts")
    parser.add_argument("--probes", type=int, default=8)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print(f"d = {args.dim}, {args.queries} queries, noise {args.noise}, {args.probes} probes, best of {args.repeats}")
    head = ["pool rows", "clusters", "k", "exact", "partitioned", "partitioned build", "recall@1"]
    print("| " + " | ".join(head + ["exact B/row", "partitioned B/row"]) + " |")
    print("|---" * (len(head) + 2) + "|")
    for m in (int(x) for x in args.rows.split(",")):
        pool = unit(rng.normal(size=(m, args.dim)))
        ids = [f"v{i:07d}" for i in range(m)]
        noise = args.noise * rng.normal(size=(args.queries, args.dim))
        queries = unit(pool[rng.integers(0, m, size=args.queries)] + noise)
        clusters = max(1, round(m**0.5))
        exact = build(pool, ids)
        config = IndexConfig(clusters=clusters, probes=min(args.probes, clusters), seed=args.seed)
        build_s = best_of(args.repeats, lambda: build(pool, ids, config))
        ivf = build(pool, ids, config)
        sizes = f"{bytes_per_row(exact):.0f} | {bytes_per_row(ivf):.0f}"
        for k in (int(x) for x in args.ks.split(",")):
            exact_s = best_of(args.repeats, lambda: search(exact, queries, k))
            ivf_s = best_of(args.repeats, lambda: search(ivf, queries, k))
            recall = recall_vs_exact(ivf, queries, k)
            times = f"{exact_s * 1e3:.1f} ms | {ivf_s * 1e3:.1f} ms | {build_s * 1e3:.1f} ms"
            print(f"| {m:,} | {clusters} | {k} | {times} | {recall:.3f} | {sizes} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
