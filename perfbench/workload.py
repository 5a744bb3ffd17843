"""One benchmark workload, run in a fresh process by ``run.py``.

    workload.py --workload desk --seed 0 --seconds 25 --trace 0 --t0 <epoch> --out result.json
    workload.py --workload desk --probe --t0 <epoch>       # set-up only, prints setup_s
    workload.py --make-panel DIR --seed 0                  # panel inputs, own process

The parent pins the BLAS thread variables and ``PYTHONPATH`` before this
process starts.  A run repeats one *pass* of fixed work until ``--seconds``
would be exceeded (at least one pass):

* desk, null -- one ``run_study`` call over the first replicates of the study;
* panel      -- ``gwasel impute``, ``cluster`` and ``scan`` through ``gwasel.cli.main``.

After the timed part every output is checked against the recorded
references and against independent numpy/scipy computations; each failed
check marks its operation as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as T
import workloads as W
from calibrate import Calibration, Clock

HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=None, help="parent's launch time (epoch s)")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--work", type=Path, help="scratch directory for CLI outputs")
    ap.add_argument("--inputs", type=Path, help="directory holding the panel inputs")
    ap.add_argument("--reference-dir", type=Path, default=HERE / "reference")
    ap.add_argument("--toy", action="store_true", help="self-test sizes")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one detection before checking (self-test)")
    ap.add_argument("--probe", action="store_true", help="measure set-up only")
    ap.add_argument("--make-panel", type=Path, metavar="DIR")
    return ap.parse_args(argv)


class Ops:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, str] = {}

    def add(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, op: str, why: str) -> None:
        self.failed.setdefault(op, why)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(args, sizes: W.Sizes) -> dict:
    """Import gwasel and build what every pass reuses (not timed as a pass)."""
    import gwasel  # noqa: F401
    import gwasel.cli
    import gwasel.mtest
    import gwasel.regress
    import gwasel.search
    import gwasel.simulate

    state = {"modules": {"simulate": gwasel.simulate, "search": gwasel.search,
                         "mtest": gwasel.mtest, "regress": gwasel.regress,
                         "cli": gwasel.cli}}
    if args.workload == "desk":
        state["study"] = W.desk_study(sizes, sizes.desk_replicates)
    elif args.workload == "null":
        state["study"] = W.null_study(sizes, sizes.null_replicates)
    if "study" in state:
        state["study"][0].float_values  # the float cache every layer reads
    return state


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def timed_passes(run_one, clock: Clock, seconds: float, first_index: int = 0):
    """Run passes until the next one would overrun ``seconds``; at least one.

    Returns each pass's wall seconds and its wall time over calibration time.
    """
    raw: list[float] = []
    rel: list[float] = []
    start = time.perf_counter()
    while True:
        ok, dt, ratio = run_one(first_index + len(raw), clock)
        raw.append(dt)
        rel.append(ratio)
        if not ok or time.perf_counter() - start + statistics.median(raw) > seconds:
            return raw, rel


class StudyRunner:
    """desk / null: one ``run_study`` call per pass."""

    def __init__(self, state, ops: Ops):
        self.simulate = state["modules"]["simulate"]
        self.ds, self.sim, self.methods = state["study"]
        self.ops = ops
        self.reports: list = []
        self.select_s: list[float] = []
        self.tracer: T.Tracer | None = None
        orig = self.simulate.select_model
        select_s = self.select_s

        def timed_select(*a, **k):  # op latency, the only wrapper of untraced runs
            t0 = time.perf_counter()
            try:
                return orig(*a, **k)
            finally:
                select_s.append(time.perf_counter() - t0)

        self._orig_select, self._timed_select = orig, timed_select

    def ops_per_replicate(self) -> int:
        return 1 + len(self.methods)  # one scan plus one correction or select per method

    def __call__(self, index: int, clock: Clock):
        self.ops.add(self.sim.n_replicates * self.ops_per_replicate())
        report, dt, ratio = clock.chunk(lambda: self._study(index))
        if report is not None:
            self.reports.append(report)
        return report is not None, dt, ratio

    def _study(self, index: int):
        tr = self.tracer
        if tr is None:
            self.simulate.select_model = self._timed_select
        sid = tr.open("simulate.run_study") if tr else None
        try:
            return self.simulate.run_study(self.ds, self.sim, self.methods)
        except Exception:
            self.ops.fail(f"pass{index}", "run_study raised:\n" + traceback.format_exc())
            return None
        finally:
            if tr:
                tr.close(sid)
            else:
                self.simulate.select_model = self._orig_select


class PanelRunner:
    """panel: impute, cluster and scan through ``gwasel.cli.main``, in-process."""

    def __init__(self, state, inputs: Path, work: Path, ops: Ops):
        self.cli = state["modules"]["cli"]
        self.geno = inputs / "genotypes.txt"
        self.trait = inputs / "trait.txt"
        self.work = work
        self.ops = ops
        self.tracer: T.Tracer | None = None
        self.results: list[dict] = []  # per pass: command -> exit code

    def __call__(self, index: int, clock: Clock):
        out = self.work / f"pass{index}"
        imputed = out / "imputed.txt"
        done: dict[str, object] = {}
        self.results.append(done)
        steps = [
            ("impute", lambda: ["impute", "--genotypes", str(self.geno), "--out", str(imputed)]),
            ("cluster", lambda: ["cluster", "--genotypes", str(imputed), "--out", str(out / "cluster")]),
            ("scan", lambda: ["scan", "--genotypes", str(imputed), "--trait", str(self.trait),
                              "--p-effective", str(self._effective_count(out)),
                              "--out", str(out / "scan")]),
        ]
        total_s = total_ratio = 0.0
        for name, argv in steps:
            self.ops.add()
            if self.tracer:
                self.tracer.request = name
            rc, dt, ratio = clock.chunk(lambda: self._main(argv()))
            total_s += dt
            total_ratio += ratio
            done[name] = rc
            if rc != 0:
                self.ops.fail(f"pass{index}.{name}", f"exit {rc}")
                for rest, _ in steps[len(done):]:  # later commands cannot run
                    self.ops.add()
                    self.ops.fail(f"pass{index}.{rest}", f"not run after {name} failed")
                return False, total_s, total_ratio
        return True, total_s, total_ratio

    def _main(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            return "exception: " + traceback.format_exc()

    @staticmethod
    def _effective_count(out: Path) -> int:
        return int(json.loads((out / "cluster" / "summary.json").read_text())["effective_count"])

    def bytes_written(self) -> int:
        return sum(f.stat().st_size for f in self.work.rglob("*") if f.is_file())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def scipy_scan_p(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Single-marker F-test p-values from scipy, independent of gwasel."""
    from scipy import stats

    n = y.shape[0]
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    sxx = np.einsum("ij,ij->j", Xc, Xc)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = (Xc.T @ yc) ** 2 / (sxx * float(yc @ yc))
        f = (n - 2) * r2 / (1.0 - r2)
    p = stats.f.sf(f, 1, n - 2)
    return np.where(sxx > 0, p, 1.0)


def check_scan_sample(p_values: np.ndarray, X: np.ndarray, y: np.ndarray,
                      rng: np.random.Generator, k: int) -> str | None:
    """Compare k seeded columns against scipy.stats.linregress."""
    from scipy import stats

    cols = rng.choice(X.shape[1], size=min(k, X.shape[1]), replace=False)
    for j in cols:
        x = X[:, j]
        want = 1.0 if np.ptp(x) == 0 else stats.linregress(x, y).pvalue
        if not np.isclose(p_values[j], want, rtol=1e-6, atol=1e-12):
            return f"column {j}: p {p_values[j]!r} against scipy {want!r}"
    return None


def lstsq_rss(X: np.ndarray, y: np.ndarray, cols) -> float:
    A = np.column_stack([np.ones(y.shape[0]), X[:, list(cols)]])
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    r = y - A @ beta
    return float(r @ r)


def check_study(runner: StudyRunner, workload: str, ref_dir: Path, seed: int,
                sizes: W.Sizes, inject: bool) -> dict:
    import gwasel
    from gwasel.regress import ModelSpec

    ops = runner.ops
    ds, sim = runner.ds, runner.sim
    X = ds.float_values
    ref_path = ref_dir / f"{workload}.json"
    ref = json.loads(ref_path.read_text())["detections"] if ref_path.exists() else None
    if ref is None:
        ops.fail("reference", f"missing {ref_path}")
    kinds = [m.kind for m in runner.methods]
    traits = [gwasel.simulate_trait(ds, sim, r) for r in range(sim.n_replicates)]
    for index, report in enumerate(runner.reports):
        det = report.detections
        if inject and index == 0:
            det[kinds[0]][0] = det[kinds[0]][0] + [ds.n_snps - 1]
        for kind in kinds:
            for r in range(sim.n_replicates):
                op = f"pass{index}.rep{r}.{kind}"
                if ref is not None and (r >= len(ref[kind]) or det[kind][r] != ref[kind][r]):
                    ops.fail(op, "detections differ from the reference")
                if kind in ("mbic", "mbic2"):
                    res = gwasel.fit(ds.with_trait(traits[r]), ModelSpec(tuple(det[kind][r])))
                    want = lstsq_rss(X, traits[r], det[kind][r])
                    if abs(res.rss - want) > 1e-8 * max(abs(want), 1e-300):
                        ops.fail(op, f"FitResult.rss {res.rss!r} against lstsq {want!r}")
    scan = gwasel.single_marker_scan(ds.with_trait(traits[0]))
    bad = check_scan_sample(scan.p_values, X, traits[0], np.random.default_rng(seed),
                            sizes.scan_check_columns)
    if bad:
        ops.fail("pass0.rep0.scan", bad)
    if not runner.reports:
        return {}
    report = runner.reports[0]
    quality = {}
    for kind in ("mbic", "mbic2"):
        if kind in kinds and workload == "desk":
            quality[f"power_{kind}_r07"] = (report.mean_power(kind, 0.7), "ratio")
            quality[f"fdr_{kind}_r07"] = (report.mean_fdr(kind, 0.7), "ratio")
    if workload == "null":
        nonempty = sum(1 for d in report.detections["mbic"] if d)
        quality["nonempty_rate_mbic"] = (nonempty / sim.n_replicates, "ratio")
    return quality


def check_panel(runner: PanelRunner, inputs: Path, ref_dir: Path, seed: int,
                sizes: W.Sizes, inject: bool) -> None:
    ops = runner.ops
    desc = json.loads((inputs / "panel.json").read_text())
    ids_in, codes_in, mask_in = W.parse_codes(runner.geno)
    y = np.loadtxt(runner.trait, dtype=np.float64)
    ref_path = ref_dir / "panel.json"
    ref = json.loads(ref_path.read_text()).get(str(seed)) if ref_path.exists() else None
    if ref is not None and (ref.get("shape") or list(codes_in.shape)) != list(codes_in.shape):
        ref = None  # recorded at another panel size
    for index, done in enumerate(runner.results):
        out = runner.work / f"pass{index}"
        if done.get("impute") == 0:
            op = f"pass{index}.impute"
            ids, codes, mask = W.parse_codes(out / "imputed.txt")
            if ids != ids_in or codes.shape != codes_in.shape or mask.any():
                ops.fail(op, "imputed file has the wrong ids, shape or missing calls")
            elif not np.array_equal(codes[~mask_in], codes_in[~mask_in]):
                ops.fail(op, "imputation changed observed calls")
            elif ref is not None and W.matrix_digest(codes) != ref["imputed_sha256"]:
                ops.fail(op, "imputed matrix differs from the reference")
        if done.get("cluster") == 0:
            eff = runner._effective_count(out)
            want = ref["effective_count"] if ref is not None else desc["blocks"]
            if eff != desc["blocks"] or eff != want:
                ops.fail(f"pass{index}.cluster", f"effective count {eff}, expected {want}")
        if done.get("scan") == 0:
            check_panel_scan(runner, out, ids, codes, y, ref, seed, sizes,
                             inject and index == 0, f"pass{index}.scan")


def check_panel_scan(runner, out, ids, codes, y, ref, seed, sizes, inject, op) -> None:
    ops = runner.ops
    rows = (out / "scan" / "scan.tsv").read_text().splitlines()[1:]
    p_out = np.array([float(r.split("\t")[2]) for r in rows])
    X = codes.astype(np.float64)
    bad = check_scan_sample(p_out, X, y, np.random.default_rng(seed), sizes.scan_check_columns)
    if bad:
        ops.fail(op, bad)
        return
    rej = json.loads((out / "scan" / "rejections.json").read_text())
    index_of = {s: i for i, s in enumerate(ids)}
    got = {k: sorted(index_of[s] for s in rej[k]) for k in ("bonferroni", "benjamini_hochberg")}
    if inject:
        got["bonferroni"] = got["bonferroni"] + [X.shape[1]]
    p = scipy_scan_p(X, y)
    m = p.shape[0]
    bonf_cut = 0.05 / rej["p_effective"]
    order = np.sort(p)
    below = np.nonzero(order <= 0.05 * np.arange(1, m + 1) / m)[0]
    bh_cut = order[below[-1]] if below.size else -1.0
    for kind, cut in (("bonferroni", bonf_cut), ("benjamini_hochberg", bh_cut)):
        want = set(np.nonzero(p <= cut)[0].tolist())
        # columns within rounding of the cut may fall either way
        odd = [j for j in want.symmetric_difference(got[kind])
               if not (j < m and abs(p[j] - cut) <= 1e-9 * max(cut, 1e-300))]
        if odd:
            ops.fail(op, f"{kind} rejections differ from scipy at columns {odd[:5]}")
        elif ref is not None and got[kind] != ref[kind]:
            ops.fail(op, f"{kind} rejections differ from the reference")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    sizes = W.TOY if args.toy else W.FULL
    if args.make_panel:
        desc = W.write_panel(sizes, args.seed, args.make_panel / "genotypes.txt",
                             args.make_panel / "trait.txt")
        (args.make_panel / "panel.json").write_text(json.dumps(desc))
        return 0

    state = setup(args, sizes)
    setup_s = time.time() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import scipy

    ops = Ops()
    if args.workload == "panel":
        args.work.mkdir(parents=True, exist_ok=True)
        runner = PanelRunner(state, args.inputs, args.work, ops)
    else:
        runner = StudyRunner(state, ops)

    clock = Clock(Calibration())
    tracer = None
    if args.trace:
        # traced passes first (so the RSS mark after the first load is the
        # load's own), then the same work untraced; half the time each
        tracer = T.Tracer()
        T.install(tracer, state["modules"])
        runner.tracer = tracer
        try:
            traced_s, traced_rel = timed_passes(runner, clock, args.seconds / 2)
        finally:
            tracer.restore()
            runner.tracer = None
        pass_s, pass_rel = timed_passes(runner, clock, args.seconds / 2,
                                        first_index=len(traced_s))
    else:
        pass_s, pass_rel = timed_passes(runner, clock, args.seconds)
    peak_rss = T.rss_mb()

    quality = {}
    try:
        if args.workload == "panel":
            check_panel(runner, args.inputs, args.reference_dir, args.seed, sizes,
                        args.inject_mismatch)
        else:
            quality = check_study(runner, args.workload, args.reference_dir, args.seed, sizes,
                                  args.inject_mismatch)
    except Exception:
        ops.fail("checks", "a check raised:\n" + traceback.format_exc())

    wall_s = statistics.median(pass_s)
    detail = {"setup_s": (setup_s, "s"), "wall_per_cal": (statistics.median(pass_rel), "ratio"),
              "wall_s": (wall_s, "s"),
              "peak_rss_mb": (peak_rss, "MB"),
              "ops_failed_frac": (len(ops.failed) / max(ops.attempted, 1), "ratio")}
    if args.workload == "panel":
        detail["markers_per_s"] = (sizes.panel_p / wall_s, "SNP/s")
    else:
        replicates = runner.sim.n_replicates * len(pass_s)
        detail["replicates_per_s"] = (replicates / sum(pass_s), "1/s")
        if runner.select_s:
            detail["select_p50_s"] = (statistics.median(runner.select_s), "s")
    detail.update(quality)

    result = {
        "workload": args.workload, "seed": args.seed, "passes": len(pass_s),
        "pass_s": pass_s, "pass_rel": pass_rel, "cal_s": clock.cal.samples,
        "attempted": ops.attempted, "failed": len(ops.failed),
        "failures": ops.failed, "detail": detail,
        "env": {"numpy": np.__version__, "scipy": scipy.__version__,
                **{v: os.environ.get(v) for v in BLAS_VARS}},
    }
    if tracer is not None:
        written = runner.bytes_written() / len(runner.results) if args.workload == "panel" else 0
        extra = {"cli.bytes_written": written}
        layers, absent = T.layer_metrics(tracer, len(traced_s), statistics.median(traced_rel),
                                         statistics.median(pass_rel), extra)
        result.update(traced_pass_s=traced_s, layers=layers, absent=absent,
                      absent_names=tracer.absent)
        spans_path = args.out.with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
