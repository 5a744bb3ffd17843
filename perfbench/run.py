"""gwasel pipeline benchmark.

    python3 perfbench/run.py --workload desk|null|panel --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
child process with BLAS pinned to one thread; panel inputs are generated
from the seed in a process of their own before anything is timed.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  The line before it is a JSON
``detail`` object with the per-workload metrics, the checks that failed,
and the environment of the run.  Exit code 2 means the checkout has no
gwasel sources; nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # extra set-ups per run; setup_s is the median with the run's own
CHILD_TIMEOUT_S = 170.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="gwasel pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=("desk", "null", "panel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="self-test sizes")
    ap.add_argument("--inject-mismatch", action="store_true", help="self-test only")
    ap.add_argument("--reference-dir", type=Path, default=None)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same import cost on every run, nothing written
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gwasel" / "__init__.py").is_file():
        print(f"perfbench: no gwasel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        common.append("--toy")

    try:
        extra: list[str] = []
        if args.workload == "panel":
            inputs = work / "inputs"
            made = run_child(["--make-panel", str(inputs), *common], CHILD_TIMEOUT_S)
            if made.returncode != 0:
                print(made.stderr, file=sys.stderr)
                return 1
            extra = ["--inputs", str(inputs), "--work", str(work / "out")]
        if args.reference_dir is not None:
            extra += ["--reference-dir", str(args.reference_dir)]
        if args.inject_mismatch:
            extra.append("--inject-mismatch")

        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child([*common, "--probe", "--t0", repr(time.time())], CHILD_TIMEOUT_S)
                if probe.returncode != 0:
                    print(probe.stderr, file=sys.stderr)
                    return 1
                setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])

        out_path = work / "result.json"
        remaining = CHILD_TIMEOUT_S - (time.monotonic() - t_start)
        child = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--out", str(out_path), *extra, "--t0", repr(time.time())],
                          max(remaining, 10.0))
        if child.returncode != 0 or not out_path.exists():
            print(child.stderr, file=sys.stderr)
            return 1
        res = json.loads(out_path.read_text())
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: child timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        # inputs and CLI outputs are large; the result and spans stay for inspection
        for sub in ("inputs", "out"):
            shutil.rmtree(work / sub, ignore_errors=True)

    detail = res["detail"]
    setups.append(detail["setup_s"][0])
    detail["setup_s"] = [statistics.median(setups), "s"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": detail[k][0], "unit": detail[k][1]}
                   for k in ("setup_s", "wall_per_cal", "peak_rss_mb")}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": res["passes"], "pass_s": res["pass_s"], "pass_rel": res["pass_rel"],
        "cal_s": res["cal_s"], "setup_samples_s": setups,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in detail.items()},
        "failures": res["failures"],
        "absent": res.get("absent", []), "absent_names": res.get("absent_names", []),
        "spans": res.get("spans"),
        "env": {**res["env"], "python": sys.version.split()[0], "nproc": os.cpu_count(),
                "git_commit": git_commit(),
                "numba_importable": importlib.util.find_spec("numba") is not None},
    }
    print(json.dumps({"detail": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
