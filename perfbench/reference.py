"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/reference.py desk            # full 100-replicate desk study
    python3 perfbench/reference.py null            # first null replicates
    python3 perfbench/reference.py panel 0 1 2 ... # panels of the given seeds

Each writes ``perfbench/reference/<workload>.json`` (panel seeds are merged
into the existing file).  The desk study must reproduce the fingerprint
pinned in ROADMAP.md; the script exits 1 when it does not.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402

REF_DIR = HERE / "reference"
DESK_FINGERPRINT = "05b9aa0196d7f7993b412465b32b0de1fbb0c5adf3b772acd8c32236a4236588"
NULL_REPLICATES = 40


def _write(name: str, payload: dict) -> None:
    REF_DIR.mkdir(exist_ok=True)
    (REF_DIR / f"{name}.json").write_text(json.dumps(payload, sort_keys=True) + "\n")


def _summary(report) -> dict:
    return {
        m: {str(t): {"power": report.mean_power(m, t), "fdr": report.mean_fdr(m, t)}
            for t in report.thresholds}
        for m in report.methods
    }


def desk_reference(sizes: W.Sizes = W.FULL, n_replicates: int = 100) -> dict:
    from gwasel import run_study

    ds, sim, methods = W.desk_study(sizes, n_replicates)
    t0 = time.perf_counter()
    report = run_study(ds, sim, methods)
    return {
        "n_replicates": n_replicates,
        "detections": report.detections,
        "fingerprint": W.fingerprint(report.detections),
        "summary": _summary(report),
        "seconds": time.perf_counter() - t0,
    }


def null_reference(sizes: W.Sizes = W.FULL, n_replicates: int = NULL_REPLICATES) -> dict:
    from gwasel import run_study

    ds, sim, methods = W.null_study(sizes, n_replicates)
    report = run_study(ds, sim, methods)
    return {"n_replicates": n_replicates, "detections": report.detections,
            "fingerprint": W.fingerprint(report.detections)}


def panel_reference(sizes: W.Sizes, seed: int) -> dict:
    """Imputed digest, effective count and scan rejections of one panel."""
    from gwasel import (benjamini_hochberg, bonferroni, cluster_snps, impute_missing,
                        load_dataset, single_marker_scan)

    with tempfile.TemporaryDirectory() as tmp:
        g, y = Path(tmp) / "g.txt", Path(tmp) / "y.txt"
        W.write_panel(sizes, seed, g, y)
        ds = load_dataset(g, trait_path=y)
    full = impute_missing(ds)
    eff = cluster_snps(full).effective_count
    scan = single_marker_scan(full)
    return {
        "shape": list(full.genotypes.values.shape),
        "imputed_sha256": W.matrix_digest(full.genotypes.values),
        "effective_count": eff,
        "bonferroni": [int(j) for j in bonferroni(scan, 0.05, eff)],
        "benjamini_hochberg": [int(j) for j in benjamini_hochberg(scan, 0.05)],
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in W.NAMES:
        print(__doc__, file=sys.stderr)
        return 2
    name = argv[0]
    if name == "desk":
        ref = desk_reference()
        _write("desk", ref)
        ok = ref["fingerprint"] == DESK_FINGERPRINT
        print(json.dumps({"fingerprint": ref["fingerprint"], "matches": ok,
                          "summary": ref["summary"], "seconds": ref["seconds"]}))
        return 0 if ok else 1
    if name == "null":
        _write("null", null_reference())
        return 0
    path = REF_DIR / "panel.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for seed in (int(s) for s in argv[1:]):
        table[str(seed)] = panel_reference(W.FULL, seed)
        _write("panel", table)
        print(seed, table[str(seed)]["effective_count"], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
