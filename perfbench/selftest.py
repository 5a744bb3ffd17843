"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit
on every workload, that clean runs pass their output checks, that an
injected detection mismatch raises ``ops_failed_frac`` above 0, that names
missing from the package are reported as absent, and that the runner
refuses a directory without gwasel sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

WORK = ROOT / ".perfbench" / "selftest"
SEED = 3


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def toy_references(ref_dir: Path) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    toy = W.TOY
    refs = {
        "desk": R.desk_reference(toy, toy.desk_replicates),
        "null": R.null_reference(toy, toy.null_replicates),
        "panel": {str(SEED): R.panel_reference(toy, SEED)},
    }
    for name, payload in refs.items():
        (ref_dir / f"{name}.json").write_text(json.dumps(payload))


def run(workload: str, trace: int, ref_dir: Path, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy",
           "--reference-dir", str(ref_dir), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def last_json(proc) -> tuple[dict, dict]:
    if proc.returncode != 0:
        fail(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"last line has keys {sorted(result)}")
    return result, json.loads(lines[-2])["detail"]


def check_absent_tolerance() -> None:
    """A package without rss_if_dropped and refit_* still yields layer metrics."""
    class Workspace:
        def __init__(self):
            pass

        def add_snp(self, j):
            return j

    mods = {"simulate": types.SimpleNamespace(), "search": types.SimpleNamespace(),
            "mtest": types.SimpleNamespace(), "regress": types.SimpleNamespace(FitWorkspace=Workspace),
            "cli": types.SimpleNamespace()}
    tr = T.Tracer()
    T.install(tr, mods)
    Workspace().add_snp(1)
    tr.restore()
    layers, absent = T.layer_metrics(tr, 1, 1.0, 1.0, {})
    if "regress.rss_if_dropped" not in tr.absent or "regress.rss_if_dropped_s" not in absent:
        fail("a missing rss_if_dropped was not reported as absent")
    if "regress.rss_if_dropped_s" in layers or layers.get("regress.add_snp_calls") != 1:
        fail("layer metrics of a partial package are wrong")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    ref_dir = WORK / "reference"
    toy_references(ref_dir)
    check_absent_tolerance()

    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, detail = last_json(run(name, trace, ref_dir))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} trace {trace}: checks failed: {detail['failures']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units[trace]:
                diff = set(got.items()) ^ set(units[trace].items())
                fail(f"{name} trace {trace}: metrics differ from BENCHMARK.json: {sorted(diff)}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                fail(f"{name} trace {trace}: a metric value is not a number")
        result, detail = last_json(run(name, 0, ref_dir, "--inject-mismatch"))
        if result["correct"] or detail["metrics"]["ops_failed_frac"]["value"] <= 0:
            fail(f"{name}: an injected detection mismatch went unnoticed")
        print(f"selftest: {name} ok", flush=True)

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("desk", 0, ref_dir, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without gwasel sources did not fail cleanly")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
