#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Usage:
    python benchmarks/bench_kernels.py [--n 400] [--p 1500] [--repeats 3]

The numba path is what GWASEL_BACKEND selects by default; this script calls
both builds directly so one run covers the comparison.
"""

import argparse
import time

import numpy as np

from gwasel import _kernels
from gwasel.backend import NUMBA_AVAILABLE


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_impute(n, p, repeats):
    rng = np.random.default_rng(0)
    values = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(n, p))
    observed = rng.random((n, p)) >= 0.05
    observed[0] = True
    masked = np.where(observed, values, 0).astype(np.int8)
    args = (masked, observed, 50, 4)
    _kernels._impute_fill_numba(*args)  # compile outside the timer
    t_nb = timeit(lambda: _kernels._impute_fill_numba(*args), repeats)
    t_np = timeit(lambda: _kernels._impute_fill_grouped(*args), repeats)
    return "impute_fill", f"{n}x{p}, 5% missing, window 50", t_nb, t_np


def bench_cluster(n, p, repeats):
    rng = np.random.default_rng(1)
    base = rng.choice([-1.0, 0.0, 1.0], size=(n, p))
    # duplicate a tenth of the columns to create real clusters
    for j in range(0, p, 10):
        base[:, j] = base[:, (j + 1) % p]
    args = (base, 0.7, 200)
    _kernels._leader_cluster_numba(*args)
    t_nb = timeit(lambda: _kernels._leader_cluster_numba(*args), repeats)
    t_np = timeit(lambda: _kernels._leader_cluster_blocked(*args), repeats)
    return "leader_cluster", f"{n}x{p}, C=0.7, window 200", t_nb, t_np


def bench_subset(n, s, repeats):
    rng = np.random.default_rng(2)
    z = rng.normal(size=(n, s))
    z -= z.mean(axis=0)
    y = rng.normal(size=n)
    y -= y.mean()
    args = (
        z,
        y,
        float(y @ y),
        np.einsum("ij,ij->j", z, z),
        np.linspace(0.0, 60.0, 6),
        5,
        True,
        float(n),
        1.0,
        1e-12,
        1e-20,
    )
    _kernels._best_subset_numba(*args)
    t_nb = timeit(lambda: _kernels._best_subset_numba(*args), repeats)
    t_np = timeit(lambda: _kernels._best_subset_qr(*args), repeats)
    n_subsets = _kernels._best_subset_qr(*args)[2]
    return "best_subset", f"n={n}, {s} columns, {n_subsets} subsets (size<=5)", t_nb, t_np


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=400, help="individuals")
    ap.add_argument("--p", type=int, default=1500, help="markers for impute/cluster")
    ap.add_argument("--subset-cols", type=int, default=22)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    if not NUMBA_AVAILABLE:
        raise SystemExit("numba is not importable; nothing to compare")

    rows = [
        bench_impute(args.n, args.p, args.repeats),
        bench_cluster(args.n, args.p, args.repeats),
        bench_subset(args.n, args.subset_cols, args.repeats),
    ]
    print(f"{'kernel':<16} {'workload':<42} {'numba':>10} {'numpy':>10} {'speedup':>8}")
    for name, workload, t_nb, t_np in rows:
        print(f"{name:<16} {workload:<42} {t_nb*1e3:>8.1f}ms {t_np*1e3:>8.1f}ms {t_np/t_nb:>7.1f}x")


if __name__ == "__main__":
    main()
