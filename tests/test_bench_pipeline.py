"""Toy runs of the `benchmarks/` scripts: `bench_pipeline.py` writes every
metric, `desk_identity.py` prints stable digests and `code_lines.py` counts
code lines."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
KEYS = {
    "panel": {"load_s", "impute_s", "cluster_s", "scan_s", "output_s", "end_to_end_s",
              "peak_rss_mb"},
    "desk": {"engine_build_s", "scan_s", "forward_s", "select_s", "study_s", "peak_rss_mb"},
    "paper": {"scan_s", "mbic_select_s", "mbic2_select_s", "peak_rss_mb"},
    "chain": {f"{cmd}_{m}" for cmd in ("impute", "cluster", "scan", "select")
              for m in ("wall_s", "peak_rss_mb")},
}
RECORDS = {"panel": set(), "desk": set(), "paper": {"results"},  # run fields beside the metrics
           "chain": {"digests"}}
CHAIN_OUTPUTS = {"impute/imputed.txt", "cluster/clusters.tsv", "cluster/summary.json",
                 "scan/scan.tsv", "scan/rejections.json", "select/selection.json",
                 "select/trace.jsonl"}


@pytest.mark.parametrize("workload", sorted(KEYS))
def test_toy_pair_reports_every_layer(tmp_path, workload):
    out = tmp_path / "bench.json"
    src = str(ROOT / "src")
    cmd = [sys.executable, str(ROOT / "benchmarks" / "bench_pipeline.py"), "--toy",
           "--workload", workload, "--pairs", "1", "--src", f"a={src}", "--src", f"b={src}",
           "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    assert report["workload"] == workload
    assert [(r["label"], r["pair"]) for r in report["runs"]] == [("a", 0), ("b", 0)]
    for run in report["runs"]:
        assert set(run) == KEYS[workload] | RECORDS[workload] | {"label", "pair", "seed"}
        assert all(np.isfinite(run[k]) and run[k] > 0 for k in KEYS[workload])
    assert set(report["summary"]["a"]) == KEYS[workload]
    assert set(report["pairs_won_vs_base"]["b"]) == KEYS[workload]
    assert set(report["blas_threads"].values()) == {"1"}
    if workload == "paper":
        # both sides import the same tree, so they select the same models
        a, b = (run["results"] for run in report["runs"])
        assert a == b and set(a) == {"mbic", "mbic2"}
    if workload == "chain":
        # the same tree writes the same bytes; manifests are not digested
        a, b = (run["digests"] for run in report["runs"])
        assert a == b and set(a) == CHAIN_OUTPUTS


def processes_with(marker: bytes) -> dict[int, bytes]:
    """The command lines of the live processes whose environment holds
    ``marker`` (a zombie's is empty), by process id."""
    found = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if marker in (entry / "environ").read_bytes():
                    found[int(entry.name)] = (entry / "cmdline").read_bytes()
            except OSError:  # gone, or not ours
                pass
    return found


@pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="reads /proc")
def test_sigterm_mid_chain_leaves_no_process_or_temp_dir(tmp_path):
    temp = tmp_path / "temp"
    temp.mkdir()
    marker = f"{tmp_path.name}-{os.getpid()}"
    env = dict(os.environ, TMPDIR=str(temp), BENCH_SIGTERM_MARKER=marker)
    cmd = [sys.executable, str(ROOT / "benchmarks" / "bench_pipeline.py"), "--toy",
           "--workload", "chain", "--pairs", "1", "--src", f"a={ROOT / 'src'}",
           "--out", str(tmp_path / "bench.json")]
    harness = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while harness.poll() is None and time.monotonic() < deadline:
            # a gwasel command running under the harness's child
            if any(b"from gwasel import cli" in cmdline
                   for cmdline in processes_with(marker.encode()).values()):
                break
            time.sleep(0.01)
        assert harness.poll() is None, "the chain ended before a command was seen running"
        harness.send_signal(signal.SIGTERM)
        assert harness.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        harness.kill()
        harness.wait()
    deadline = time.monotonic() + 10
    while processes_with(marker.encode()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert processes_with(marker.encode()) == {}
    assert list(temp.iterdir()) == []
    assert not (tmp_path / "bench.json").exists()


def test_desk_identity_toy_prints_stable_digests():
    cmd = [sys.executable, str(ROOT / "benchmarks" / "desk_identity.py"), "--toy"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    selects, detections, results, structure, decisions = runs[0].stdout.splitlines()
    # 2 replicates x the mBIC and mBIC2 searches
    assert re.fullmatch(r"selects 4 [0-9a-f]{64}", selects)
    assert re.fullmatch(r"detections [0-9a-f]{64}", detections)
    assert re.fullmatch(r"results 4 [0-9a-f]{64}", results)
    assert re.fullmatch(r"structure 4 [0-9a-f]{64}", structure)
    assert re.fullmatch(r"decisions 4 [0-9a-f]{64}", decisions)
    assert results.split()[2] != selects.split()[2]  # the stats are left out
    # the criterion values are left out
    assert structure.split()[2] not in (selects.split()[2], results.split()[2])
    # and the fit's reprs too
    assert decisions.split()[2] not in (selects.split()[2], results.split()[2],
                                        structure.split()[2])
    assert runs[1].stdout == runs[0].stdout


def test_desk_identity_pins_the_desk_detections_and_decisions():
    # the ROADMAP fingerprint, and every search decision behind it: a change
    # that moves a decision but keeps the detections fails here too
    cmd = [sys.executable, str(ROOT / "benchmarks" / "desk_identity.py")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert lines["detections"] == \
        "05b9aa0196d7f7993b412465b32b0de1fbb0c5adf3b772acd8c32236a4236588"
    assert lines["decisions"] == \
        "200 ebbc6b7987514c692cd3df383323871cbf7a8c03a82e11a8e7c2100d78dea8e9"


def test_structure_record_leaves_out_only_criterion_values():
    import dataclasses
    import importlib.util

    from gwasel.criteria import CriterionConfig
    from gwasel.search import SearchConfig, select_model
    from gwasel.simulate import SimulationConfig, simulate_trait, synthetic_dataset

    spec = importlib.util.spec_from_file_location(
        "desk_identity", ROOT / "benchmarks" / "desk_identity.py")
    desk_identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk_identity)
    ds = synthetic_dataset(120, 40, seed=3)
    sim = SimulationConfig((5, 20), (1.0, 0.8), sigma=1.0, seed=4)
    ds = ds.with_trait(simulate_trait(ds, sim, 0))
    cfg = SearchConfig(criterion=CriterionConfig("mbic2", n=120, p_effective=40))
    model, result, trace = select_model(ds, cfg)
    assert any(r.criterion_value is not None for r in trace.records)
    moved = dataclasses.replace(trace, records=[
        dataclasses.replace(r, criterion_value=None if r.criterion_value is None
                            else np.nextafter(r.criterion_value, np.inf))
        for r in trace.records])
    same = desk_identity.select_record((model, result, trace), ds.snp_ids, with_values=False)
    assert desk_identity.select_record((model, result, moved), ds.snp_ids,
                                       with_values=False) == same
    assert desk_identity.select_record((model, result, moved), ds.snp_ids) != \
        desk_identity.select_record((model, result, trace), ds.snp_ids)
    bigger = dataclasses.replace(result, rss=np.nextafter(result.rss, np.inf))
    assert desk_identity.select_record((model, bigger, trace), ds.snp_ids,
                                       with_values=False) != same
    # the decisions record leaves out the fit's reprs as well
    decided = desk_identity.select_record((model, result, trace), ds.snp_ids,
                                          with_values=False, with_fit=False)
    assert desk_identity.select_record((model, bigger, moved), ds.snp_ids,
                                       with_values=False, with_fit=False) == decided
    assert decided != same

TOY_MODULE = '''"""Module docstring: not code."""
# a comment line

import math  # a trailing comment keeps the line


def area(r):
    """Function docstring,
    over two lines."""
    label = """a multi-line string
    that is code"""
    return (math.pi *
            r * r), label


class Shape:
    "class docstring"
    sides = 0
'''


def test_code_lines_counts_a_toy_package(tmp_path):
    # code lines: import, def, label = (2 lines), return (2 lines), class, sides
    package = tmp_path / "gwasel"
    package.mkdir()
    (package / "toy.py").write_text(TOY_MODULE)
    (package / "empty.py").write_text("# only a comment\n\n")
    cmd = [sys.executable, str(ROOT / "benchmarks" / "code_lines.py"), "--src", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["empty.py 0", "toy.py 8", "total 8"]
