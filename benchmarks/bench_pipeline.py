"""Per-layer timings of the panel pipeline, one desk-study replicate, the
paper-shape selects or the paper-shape command chain.

    python3 benchmarks/bench_pipeline.py --out BENCH.json \
        [--workload panel|desk|paper|chain] \
        --src parent=/path/to/parent/src --src change=src --pairs 10 --seeds 1 2 3

Each ``--src LABEL=DIR`` names a gwasel source tree; the first is the base
the others are compared against.  Every run is a fresh child process with
``OPENBLAS_NUM_THREADS=1`` (and the OpenMP and MKL equivalents) that
imports gwasel from one source tree, times the layers of its workload and
records its peak RSS (``resource.getrusage``).  The sources alternate which
runs first in each pair.  ``--toy`` takes the sizes of
``perfbench/workloads.py::TOY`` instead of ``FULL``.

``panel`` (the default): the panel of each seed is written to a temporary
directory by ``perfbench/workloads.py::write_panel`` (full size: 600 x 20k,
2% missing calls in 1000 columns), and a run times

* ``load_s``     -- ``load_dataset`` of the genotype and trait text
* ``impute_s``   -- ``impute_missing`` (window 500, 4 predictors)
* ``cluster_s``  -- ``cluster_snps`` of the imputed panel (|R| > 0.7, window 1000)
* ``scan_s``     -- ``single_marker_scan`` plus Bonferroni and BH
* ``output_s``   -- formatting and writing what ``gwasel impute``, ``cluster``
  and ``scan`` write
* ``end_to_end_s`` -- ``gwasel impute``, ``cluster`` and ``scan`` through
  ``gwasel.cli.main``, as the perfbench ``panel`` workload runs them

``desk``: replicate 0 of the study ``perfbench/workloads.py::desk_study``
builds (full size: 600 x 10k, k=30, Bonferroni, BH, mBIC and mBIC2).  As in
the perfbench set-up, the dataset's float cache is built before any timer
starts, so ``--seeds`` is not used.  A run times

* ``engine_build_s`` -- ``ScanEngine`` of the panel
* ``scan_s``     -- the scan of the replicate's trait
* ``forward_s``  -- the forward stage the mBIC and mBIC2 searches share
* ``select_s``   -- both ``select_model`` calls, from that forward stage
* ``study_s``    -- ``run_study`` of the one replicate, end to end

``paper``: a panel of the paper's shape, 649 x 309,788, held in memory:
``synthetic_dataset`` (seed 3) with 30 causal SNPs spread evenly over the
panel, effects ``effect_grid(30)`` and the trait of replicate 0 (seed 3);
``--toy`` takes 200 x 1000.  ``--seeds`` is not used.  The panel, its trait
and its float cache are built before any timer starts.  A run times

* ``scan_s``         -- ``single_marker_scan`` of the trait
* ``mbic_select_s``  -- ``select_model`` under mBIC with the default
  ``SearchConfig``, from that scan
* ``mbic2_select_s`` -- the same under mBIC2

and records each select's model, the ``repr`` of its RSS and its search
stats, so the sides can be checked for the same results.

``chain``: the same paper-shape panel as a text file, run through the
commands.  Before anything is timed, a process of its own writes to a
temporary directory the panel with a header of ids and ``NA`` at 2% of the
calls in 5% of the columns (seed 3), and the trait of replicate 0 drawn
from the complete panel; ``--toy`` takes 200 x 1000.  ``--seeds`` is not
used.  A run calls ``gwasel.cli.main`` in a fresh process for each of

* ``impute``  -- ``gwasel impute`` of the panel (window 500, 4 predictors)
* ``cluster`` -- ``gwasel cluster`` of the imputed panel (|R| > 0.7, window 1000)
* ``scan``    -- ``gwasel scan`` of the imputed panel and the trait
* ``select``  -- ``gwasel select --criterion mbic2`` of the same, with
  ``--p-effective`` the ``effective_count`` that ``cluster`` reported

and records each command's ``wall_s`` and ``peak_rss_mb`` from its
manifest (``<command>_wall_s``, ``<command>_peak_rss_mb``) and the SHA-256
of every file the command wrote but its manifest, so the sides can be
checked for the same bytes.  The panel file is ~0.5 GB, and each run
writes an imputed copy of the same size.

The output JSON holds every run, each label's median and quartiles per
metric, and how many pairs each later label won.

On SIGTERM (or Ctrl-C) the harness kills each running child together with
the processes it started, which share its process group, and removes its
temporary directories before it exits.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
METRICS = {
    "panel": ("load_s", "impute_s", "cluster_s", "scan_s", "output_s", "end_to_end_s",
              "peak_rss_mb"),
    "desk": ("engine_build_s", "scan_s", "forward_s", "select_s", "study_s", "peak_rss_mb"),
    "paper": ("scan_s", "mbic_select_s", "mbic2_select_s", "peak_rss_mb"),
}
CHAIN_COMMANDS = ("impute", "cluster", "scan", "select")
METRICS["chain"] = tuple(f"{cmd}_{m}" for cmd in CHAIN_COMMANDS
                         for m in ("wall_s", "peak_rss_mb"))
WINDOW, PREDICTORS = 500, 4
THRESHOLD, CLUSTER_WINDOW = 0.7, 1000
PAPER_SHAPE, PAPER_TOY_SHAPE = (649, 309_788), (200, 1000)
PAPER_K, PAPER_SEED = 30, 3
CHAIN_MISSING_COLUMNS, CHAIN_MISSING_RATE = 0.05, 0.02
CLI = "import sys; from gwasel import cli; sys.exit(cli.main(sys.argv[1:]))"


def stop(signum, frame):
    """Turn SIGTERM into SystemExit, so that ``with`` blocks clean up."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # one clean-up, not one per signal
    raise SystemExit(128 + signum)


def run_grouped(cmd, **popen) -> subprocess.CompletedProcess:
    """``subprocess.run`` with the child leading a process group of its own.

    If this process is stopped while it waits, the whole group (the child
    and any process it started) is killed and reaped before the exception
    goes on, so nothing outlives the harness or writes into a temporary
    directory being removed.
    """
    with subprocess.Popen(cmd, process_group=0, **popen) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def timer(out: dict):
    def timed(name, fn):
        t0 = time.perf_counter()
        result = fn()
        out[name] = time.perf_counter() - t0
        return result

    return timed


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_panel(inputs: Path, work: Path) -> dict:
    """One timed pass over the panel layers, in this process."""
    from gwasel import cli
    from gwasel.cluster import cluster_snps
    from gwasel.genotype import impute_missing, load_dataset
    from gwasel.mtest import benjamini_hochberg, bonferroni, scan_to_tsv, single_marker_scan

    geno, trait = inputs / "genotypes.txt", inputs / "trait.txt"
    out: dict[str, float] = {}
    timed = timer(out)

    ds = timed("load_s", lambda: load_dataset(geno, trait_path=trait))
    done = timed("impute_s", lambda: impute_missing(ds, window=WINDOW, n_predictors=PREDICTORS))
    clusters = timed("cluster_s", lambda: cluster_snps(done, THRESHOLD, CLUSTER_WINDOW))

    def scan():
        result = single_marker_scan(done)
        return result, bonferroni(result, 0.05, clusters.effective_count), \
            benjamini_hochberg(result, 0.05)

    result, _, _ = timed("scan_s", scan)
    ids = done.snp_ids

    def write():
        header = "\t".join(ids) + "\n"
        rows = cli._genotype_rows(done.genotypes.values)
        # an older source tree under comparison renders the rows as one string
        text = header + rows if isinstance(rows, str) else itertools.chain([header.encode()], rows)
        cli._write_atomic(work / "layers" / "imputed.txt", text)
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
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def run_desk(sizes) -> dict:
    """One timed pass over replicate 0 of the desk study, in this process."""
    import workloads

    from gwasel.mtest import ScanEngine
    from gwasel.search import forward_stage, select_model
    from gwasel.simulate import run_study, simulate_trait

    ds, sim, methods = workloads.desk_study(sizes, 1)
    ds.float_values  # the float cache, built untimed as in the perfbench set-up
    out: dict[str, float] = {}
    timed = timer(out)

    engine = timed("engine_build_s", lambda: ScanEngine(ds))
    y = simulate_trait(ds, sim, 0)
    ds_rep = ds.with_trait(y)
    scan = timed("scan_s", lambda: engine.scan(y))
    searches = [m.search for m in methods if m.search is not None]
    state = timed("forward_s", lambda: forward_stage(ds_rep, searches[0], scan))
    timed("select_s", lambda: [select_model(ds_rep, cfg, scan=scan, _state=state)
                               for cfg in searches])
    timed("study_s", lambda: run_study(ds, sim, methods))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def run_paper(toy: bool) -> dict:
    """The paper-shape scan and the mBIC and mBIC2 selects, in this process."""
    import numpy as np

    from gwasel.criteria import CriterionConfig
    from gwasel.mtest import single_marker_scan
    from gwasel.search import SearchConfig, select_model
    from gwasel.simulate import SimulationConfig, effect_grid, simulate_trait, synthetic_dataset

    n, p = PAPER_TOY_SHAPE if toy else PAPER_SHAPE
    ds = synthetic_dataset(n, p, seed=PAPER_SEED)
    causal = tuple(np.linspace(0, p - 1, PAPER_K).astype(int).tolist())
    sim = SimulationConfig(causal, tuple(effect_grid(PAPER_K)), sigma=1.0, seed=PAPER_SEED)
    ds = ds.with_trait(simulate_trait(ds, sim, 0))
    ds.float_values  # the float cache, built untimed as in the perfbench set-up
    out: dict = {}
    timed = timer(out)

    scan = timed("scan_s", lambda: single_marker_scan(ds))
    results = {}
    for kind in ("mbic", "mbic2"):
        cfg = SearchConfig(criterion=CriterionConfig(kind, n=n, p_effective=p))
        model, fit, trace = timed(f"{kind}_select_s", lambda: select_model(ds, cfg, scan=scan))
        results[kind] = {"model": list(model.snp_indices), "rss": repr(fit.rss),
                         "search_stats": trace.stats}
    out["peak_rss_mb"] = peak_rss_mb()
    out["results"] = results
    return out


def make_chain_inputs(inputs: Path, toy: bool) -> None:
    """Write the chain's panel text, with missing calls, and its trait."""
    import numpy as np

    from gwasel.simulate import SimulationConfig, effect_grid, simulate_trait, synthetic_dataset

    n, p = PAPER_TOY_SHAPE if toy else PAPER_SHAPE
    ds = synthetic_dataset(n, p, seed=PAPER_SEED)
    causal = tuple(np.linspace(0, p - 1, PAPER_K).astype(int).tolist())
    sim = SimulationConfig(causal, tuple(effect_grid(PAPER_K)), sigma=1.0, seed=PAPER_SEED)
    y = simulate_trait(ds, sim, 0)
    rng = np.random.default_rng(PAPER_SEED)
    cols = np.sort(rng.choice(p, size=int(p * CHAIN_MISSING_COLUMNS), replace=False))
    missing = np.zeros((n, p), dtype=bool)
    missing[:, cols] = rng.random((n, cols.size)) < CHAIN_MISSING_RATE
    inputs.mkdir(parents=True, exist_ok=True)
    rows = max(1, (1 << 20) // (2 * p))
    with open(inputs / "genotypes.txt", "wb") as fh:
        fh.write(("\t".join(ds.snp_ids) + "\n").encode())
        for start in range(0, n, rows):
            codes = ds.genotypes.values[start : start + rows]
            cells = np.empty(codes.shape + (2,), dtype=np.uint8)  # a code byte, then a separator
            cells[:, :, 0] = codes + ord("0")  # -1 lands on "/"
            cells[:, :, 0][missing[start : start + rows]] = ord("?")
            cells[:, :, 1] = ord("\t")
            cells[:, -1, 1] = ord("\n")
            fh.write(cells.tobytes().replace(b"/", b"-1").replace(b"?", b"NA"))
    (inputs / "trait.txt").write_text("".join(f"{v!r}\n" for v in y.tolist()))


def run_chain(inputs: Path, work: Path) -> dict:
    """The four commands, each in a fresh process, over the chain's inputs."""
    geno, trait = inputs / "genotypes.txt", inputs / "trait.txt"
    imputed = work / "imputed.txt"
    outs = {"impute": imputed, "cluster": work / "cluster", "scan": work / "scan",
            "select": work / "select"}
    argvs = {
        "impute": ["impute", "--genotypes", str(geno), "--window", str(WINDOW),
                   "--predictors", str(PREDICTORS), "--out", str(imputed)],
        "cluster": ["cluster", "--genotypes", str(imputed), "--threshold", str(THRESHOLD),
                    "--window", str(CLUSTER_WINDOW), "--out", str(outs["cluster"])],
        "scan": ["scan", "--genotypes", str(imputed), "--trait", str(trait)],
        "select": ["select", "--genotypes", str(imputed), "--trait", str(trait),
                   "--criterion", "mbic2"],
    }
    out: dict = {"digests": {}}
    for cmd in CHAIN_COMMANDS:
        argv = argvs[cmd]
        if cmd in ("scan", "select"):
            summary = json.loads((outs["cluster"] / "summary.json").read_text())
            argv = argv + ["--p-effective", str(summary["effective_count"]),
                           "--out", str(outs[cmd])]
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"gwasel {cmd} exited {proc.returncode}:\n{proc.stderr}")
        if cmd == "impute":
            manifest = work / f"{imputed.name}.manifest.json"
            written = [imputed]
        else:
            manifest = outs[cmd] / "manifest.json"
            written = sorted(f for f in outs[cmd].iterdir() if f != manifest)
        record = json.loads(manifest.read_text())
        out[f"{cmd}_wall_s"] = record["wall_s"]
        out[f"{cmd}_peak_rss_mb"] = record["peak_rss_mb"]
        for f in written:
            with open(f, "rb") as fh:
                out["digests"][f"{cmd}/{f.name}"] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def child(src: Path, workload: str, inputs: Path | None, toy: bool) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, __file__, "--workload", workload, "--child", "--work", work]
        cmd += ["--inputs", str(inputs)] if inputs else []
        cmd += ["--toy"] if toy else []
        proc = run_grouped(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
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
    ap.add_argument("--workload", choices=tuple(METRICS), default="panel")
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--toy", action="store_true", help="perfbench's self-test sizes")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--make-chain", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, stop)
    for var in BLAS_VARS:  # before numpy loads BLAS; children inherit it
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # read-only: the inputs the perfbench workloads generate

    sizes = workloads.TOY if args.toy else workloads.FULL
    if args.make_chain:
        make_chain_inputs(args.make_chain, args.toy)
        return 0
    if args.child:
        if args.workload == "desk":
            out = run_desk(sizes)
        elif args.workload == "paper":
            out = run_paper(args.toy)
        elif args.workload == "chain":
            out = run_chain(args.inputs, args.work)
        else:
            out = run_panel(args.inputs, args.work)
        print(json.dumps(out))
        return 0
    if args.out is None or not args.src:
        ap.error("--out and at least one --src are required")
    sources = {}
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "gwasel").is_dir():
            ap.error(f"--src {spec!r} is not LABEL=DIR with DIR holding gwasel/")
        sources[label] = Path(path).resolve()

    panel = args.workload == "panel"
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        chain = Path(tmp) / "chain" if args.workload == "chain" else None
        if chain:  # written once, by this tree, in a process of its own
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            cmd = [sys.executable, __file__, "--make-chain", str(chain)]
            run_grouped(cmd + (["--toy"] if args.toy else []), env=env).check_returncode()
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)] if panel else None
            inputs = Path(tmp) / f"seed{seed}" if panel else chain
            if panel and not inputs.exists():
                workloads.write_panel(sizes, seed, inputs / "genotypes.txt",
                                      inputs / "trait.txt")
            labels = list(sources) if pair % 2 == 0 else list(sources)[::-1]
            for label in labels:
                runs.append({"label": label, "pair": pair, "seed": seed,
                             **child(sources[label], args.workload, inputs, args.toy)})
                print(json.dumps(runs[-1]), file=sys.stderr)

    metrics = METRICS[args.workload]
    base = next(iter(sources))
    summary = {label: {m: quartiles([r[m] for r in runs if r["label"] == label])
                       for m in metrics} for label in sources}
    by_pair = {(r["pair"], r["label"]): r for r in runs}
    wins = {}
    for label in list(sources)[1:]:
        wins[label] = {m: sum(by_pair[(k, label)][m] < by_pair[(k, base)][m]
                              for k in range(args.pairs)) for m in metrics}
    if args.workload == "paper":
        n, p = PAPER_TOY_SHAPE if args.toy else PAPER_SHAPE
        study = {"n": n, "p": p, "k": PAPER_K, "replicate": 0, "data_seed": PAPER_SEED,
                 "trait_seed": PAPER_SEED, "methods": ["mbic", "mbic2"]}
    elif args.workload == "chain":
        n, p = PAPER_TOY_SHAPE if args.toy else PAPER_SHAPE
        study = {"n": n, "p": p, "k": PAPER_K, "replicate": 0, "data_seed": PAPER_SEED,
                 "trait_seed": PAPER_SEED, "missing_columns": CHAIN_MISSING_COLUMNS,
                 "missing_rate": CHAIN_MISSING_RATE, "impute_window": WINDOW,
                 "impute_predictors": PREDICTORS, "cluster_threshold": THRESHOLD,
                 "cluster_window": CLUSTER_WINDOW, "select_criterion": "mbic2",
                 "commands": list(CHAIN_COMMANDS)}
    elif args.workload == "desk":
        study = {"n": sizes.desk_n, "p": sizes.desk_p, "k": sizes.desk_k, "replicate": 0,
                 "data_seed": workloads.DESK_DATA_SEED, "trait_seed": workloads.DESK_TRAIT_SEED,
                 "methods": list(workloads.METHODS),
                 "refinement_trigger": workloads.REFINEMENT_TRIGGER}
    else:
        study = {"n": sizes.panel_n, "p": sizes.panel_p,
                 "missing_columns": sizes.panel_missing_cols,
                 "missing_rate": sizes.panel_missing_rate,
                 "impute_window": WINDOW, "impute_predictors": PREDICTORS,
                 "cluster_threshold": THRESHOLD, "cluster_window": CLUSTER_WINDOW}
    report = {
        "benchmark": "benchmarks/bench_pipeline.py",
        "workload": args.workload,
        "sizes": study,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "sources": {label: revision(src) for label, src in sources.items()},
        "base": base,
        "pairs": args.pairs,
        "seeds": args.seeds if panel else None,
        "summary": summary,
        "pairs_won_vs_base": wins,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
