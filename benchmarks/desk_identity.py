"""One digest over every select of the 100-replicate desk study.

    python3 benchmarks/desk_identity.py [--src DIR] [--toy]

Runs ``run_study`` on the desk study that
``perfbench/workloads.py::desk_study`` builds (600 x 10k, k=30, seeds
42/7, Bonferroni, BH, mBIC and mBIC2 with refinement_trigger 12; 100
replicates, the ROADMAP fingerprint's study) with BLAS on one thread,
importing gwasel from ``--src`` (default: the ``src`` of this tree).
Every ``select_model`` call the study makes is recorded, and one sha256
is taken, in call order, over each select's trace (``to_jsonl``), the
``repr`` of its final RSS, intercept and coefficients, its model and its
search stats.  A change meant to leave every result as it was prints the
same digests on the parent and on the change:

    python3 benchmarks/desk_identity.py --src ../parent/src
    python3 benchmarks/desk_identity.py

The second line printed is the detections fingerprint of the study
(``05b9aa01...`` in ROADMAP).  The third is the first digest with the
search stats left out, so a change that moves only those counters can show
that every result is still byte-identical.  The fourth, ``structure``, is
the first digest with the criterion values left out of the trace: each
record gives only its stage, action, SNP and model size.  A change that
rounds the search's candidate statistics differently may move criterion
values in their last bits, and so the first and third digests; an
unchanged fourth digest shows that every decision, final model, RSS,
coefficient and search stat is still the same.  The fifth, ``decisions``,
is the fourth with the RSS, intercept and coefficient reprs left out too:
a change that rounds the fit itself differently (how the workspace
orthogonalises a column, say) moves those in their last bits, and an
unchanged fifth digest shows that every decision, final model and search
stat is still the same.  ``--toy`` takes the sizes
of ``perfbench/workloads.py::TOY`` instead (2 replicates of 200 x 400).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
DESK_REPLICATES = 100


def select_record(out, snp_ids, with_stats: bool = True, with_values: bool = True,
                  with_fit: bool = True) -> bytes:
    """The bytes one ``select_model`` return value contributes to a digest."""
    model, result, trace = out
    if with_values:
        rows = trace.to_jsonl(snp_ids)
    else:
        rows = [[r.stage, r.action, None if r.snp is None else snp_ids[r.snp], r.model_size]
                for r in trace.records]
    record = {
        "trace": rows,
        "model": [list(model.snp_indices), list(model.forced_indices)],
    }
    if with_fit:
        record.update({
            "rss": repr(result.rss),
            "intercept": repr(result.intercept),
            "coefficients": [repr(float(b)) for b in result.snp_coefficients],
            "forced_coefficients": [repr(float(b)) for b in result.forced_coefficients],
        })
    if with_stats:
        record["stats"] = trace.stats
    return json.dumps(record, sort_keys=True).encode() + b"\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="gwasel source tree")
    ap.add_argument("--toy", action="store_true", help="perfbench's self-test sizes")
    args = ap.parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import workloads  # read-only: the study the perfbench desk workload runs

    from gwasel import simulate

    sizes = workloads.TOY if args.toy else workloads.FULL
    ds, sim, methods = workloads.desk_study(sizes, sizes.desk_replicates if args.toy
                                            else DESK_REPLICATES)
    digest, results, structure, decisions = (hashlib.sha256() for _ in range(4))
    count = 0
    select_model = simulate.select_model

    def recorded(*a, **kw):
        nonlocal count
        out = select_model(*a, **kw)
        digest.update(select_record(out, ds.snp_ids))
        results.update(select_record(out, ds.snp_ids, with_stats=False))
        structure.update(select_record(out, ds.snp_ids, with_values=False))
        decisions.update(select_record(out, ds.snp_ids, with_values=False, with_fit=False))
        count += 1
        return out

    simulate.select_model = recorded
    try:
        report = simulate.run_study(ds, sim, methods)
    finally:
        simulate.select_model = select_model
    print(f"selects {count} {digest.hexdigest()}")
    print(f"detections {workloads.fingerprint(report.detections)}")
    print(f"results {count} {results.hexdigest()}")
    print(f"structure {count} {structure.hexdigest()}")
    print(f"decisions {count} {decisions.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
