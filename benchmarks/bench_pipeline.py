"""Per-layer timings of the panel pipeline: load, impute, cluster, scan, output.

    python3 benchmarks/bench_pipeline.py --out BENCH.json \
        --src parent=/path/to/parent/src --src change=src --pairs 10 --seeds 1 2 3

Each ``--src LABEL=DIR`` names a gwasel source tree; the first is the base
the others are compared against.  The panel of each seed is written to a
temporary directory by ``perfbench/workloads.py::write_panel`` at its full
size (600 x 20k, 2% missing calls in 1000 columns).  Every run is a fresh
child process with ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP and MKL
equivalents) that imports gwasel from one source tree and times

* ``load_s``     -- ``load_dataset`` of the genotype and trait text
* ``impute_s``   -- ``impute_missing`` (window 500, 4 predictors)
* ``cluster_s``  -- ``cluster_snps`` of the imputed panel (|R| > 0.7, window 1000)
* ``scan_s``     -- ``single_marker_scan`` plus Bonferroni and BH
* ``output_s``   -- formatting and writing what ``gwasel impute``, ``cluster``
  and ``scan`` write
* ``end_to_end_s`` -- ``gwasel impute``, ``cluster`` and ``scan`` through
  ``gwasel.cli.main``, as the perfbench ``panel`` workload runs them

and its peak RSS (``resource.getrusage``).  The sources alternate which
runs first in each pair.  The output JSON holds every run, each label's
median and quartiles per metric, and how many pairs each later label won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("load_s", "impute_s", "cluster_s", "scan_s", "output_s", "end_to_end_s",
           "peak_rss_mb")
WINDOW, PREDICTORS = 500, 4
THRESHOLD, CLUSTER_WINDOW = 0.7, 1000


def run_layers(inputs: Path, work: Path) -> dict:
    """One timed pass over the layers, in this process."""
    import resource

    from gwasel import cli
    from gwasel.cluster import cluster_snps
    from gwasel.genotype import impute_missing, load_dataset
    from gwasel.mtest import benjamini_hochberg, bonferroni, scan_to_tsv, single_marker_scan

    geno, trait = inputs / "genotypes.txt", inputs / "trait.txt"
    out: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = fn()
        out[name] = time.perf_counter() - t0
        return result

    ds = timed("load_s", lambda: load_dataset(geno, trait_path=trait))
    done = timed("impute_s", lambda: impute_missing(ds, window=WINDOW, n_predictors=PREDICTORS))
    clusters = timed("cluster_s", lambda: cluster_snps(done, THRESHOLD, CLUSTER_WINDOW))

    def scan():
        result = single_marker_scan(done)
        return result, bonferroni(result, 0.05, clusters.effective_count), \
            benjamini_hochberg(result, 0.05)

    result, _, _ = timed("scan_s", scan)
    ids = [m.snp_id for m in done.meta]

    def write():
        cli._write_atomic(work / "layers" / "imputed.txt",
                          "\t".join(ids) + "\n" + cli._genotype_rows(done.genotypes.values))
        cli._write_atomic(work / "layers" / "clusters.tsv", clusters.to_tsv(ids))
        cli._write_atomic(work / "layers" / "scan.tsv", scan_to_tsv(result, ids))

    timed("output_s", write)

    def end_to_end():
        imputed, cl = work / "cli" / "imputed.txt", work / "cli" / "cluster"
        codes = [cli.main(["impute", "--genotypes", str(geno), "--out", str(imputed)]),
                 cli.main(["cluster", "--genotypes", str(imputed), "--out", str(cl)])]
        p_eff = json.loads((cl / "summary.json").read_text())["effective_count"]
        codes.append(cli.main(["scan", "--genotypes", str(imputed), "--trait", str(trait),
                               "--p-effective", str(p_eff), "--out", str(work / "cli" / "scan")]))
        if any(codes):
            raise RuntimeError(f"gwasel exit codes {codes}")

    timed("end_to_end_s", end_to_end)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def child(src: Path, inputs: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, __file__, "--child", str(inputs), "--work", work]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the run of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def revision(src: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads BLAS; children inherit it
        os.environ[var] = "1"
    if args.child:
        print(json.dumps(run_layers(args.child, args.work)))
        return 0
    if args.out is None or not args.src:
        ap.error("--out and at least one --src are required")
    sources = {}
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "gwasel").is_dir():
            ap.error(f"--src {spec!r} is not LABEL=DIR with DIR holding gwasel/")
        sources[label] = Path(path).resolve()

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # read-only: the panel the perfbench workload generates

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            inputs = Path(tmp) / f"seed{seed}"
            if not inputs.exists():
                workloads.write_panel(workloads.FULL, seed, inputs / "genotypes.txt",
                                      inputs / "trait.txt")
            labels = list(sources) if pair % 2 == 0 else list(sources)[::-1]
            for label in labels:
                runs.append({"label": label, "pair": pair, "seed": seed,
                             **child(sources[label], inputs)})
                print(json.dumps(runs[-1]), file=sys.stderr)

    base = next(iter(sources))
    summary = {label: {m: quartiles([r[m] for r in runs if r["label"] == label])
                       for m in METRICS} for label in sources}
    by_pair = {(r["pair"], r["label"]): r for r in runs}
    wins = {}
    for label in list(sources)[1:]:
        wins[label] = {m: sum(by_pair[(k, label)][m] < by_pair[(k, base)][m]
                              for k in range(args.pairs)) for m in METRICS}
    report = {
        "benchmark": "benchmarks/bench_pipeline.py",
        "workload": "panel",
        "sizes": {"n": workloads.FULL.panel_n, "p": workloads.FULL.panel_p,
                  "missing_columns": workloads.FULL.panel_missing_cols,
                  "missing_rate": workloads.FULL.panel_missing_rate,
                  "impute_window": WINDOW, "impute_predictors": PREDICTORS,
                  "cluster_threshold": THRESHOLD, "cluster_window": CLUSTER_WINDOW},
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "sources": {label: revision(src) for label, src in sources.items()},
        "base": base,
        "pairs": args.pairs,
        "seeds": args.seeds,
        "summary": summary,
        "pairs_won_vs_base": wins,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
