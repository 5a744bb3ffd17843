"""What the benchmark relies on in the package.

The tracer must find every name it wraps: a wrapped name the package no
longer has is reported as absent, and the per-layer metrics resting on it
drop out of the benchmark's result line.  Its op latency and search
counters come from ``gwasel.simulate.select_model``, called once per
mBIC/mBIC2 method and replicate, with traces that start at the forward
stage.  And a toy run must end with its JSON result line.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwasel.cli
import gwasel.mtest
import gwasel.regress
import gwasel.search
import gwasel.simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_module():
    return load_module("perfbench_tracer", TRACER_PATH)


def test_tracer_finds_every_wrapped_name():
    tracer_mod = load_tracer_module()
    modules = {"simulate": gwasel.simulate, "search": gwasel.search, "mtest": gwasel.mtest,
               "regress": gwasel.regress, "cli": gwasel.cli}
    owners = [*modules.values(), gwasel.regress.FitWorkspace, gwasel.mtest.ScanEngine]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer, modules)
    try:
        assert tracer.absent == []
    finally:
        tracer.restore()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner


def test_study_calls_select_model_once_per_search_and_replicate(monkeypatch):
    from gwasel import CriterionConfig, MethodSpec, SearchConfig, SimulationConfig
    from gwasel.simulate import run_study, synthetic_dataset

    ds = synthetic_dataset(120, 200, seed=5)
    sim = SimulationConfig((20, 150), (0.8, 0.6), n_replicates=3, seed=6)
    methods = [MethodSpec("bonferroni"), MethodSpec("bh")]
    for kind in ("mbic", "mbic2"):
        crit = CriterionConfig(kind, n=120, p_effective=200)
        methods.append(MethodSpec(kind, search=SearchConfig(criterion=crit,
                                                            refinement_trigger=12)))
    calls = []
    select = gwasel.simulate.select_model

    def counted(*args, **kwargs):
        out = select(*args, **kwargs)
        calls.append(out[2])
        return out

    monkeypatch.setattr(gwasel.simulate, "select_model", counted)
    run_study(ds, sim, methods)
    assert len(calls) == 2 * sim.n_replicates
    for mbic, mbic2 in zip(calls[::2], calls[1::2]):
        stages = [[r.stage for r in t.records] for t in (mbic, mbic2)]
        n_forward = stages[0].count("forward")
        assert n_forward > 0
        for st in stages:
            assert st[:n_forward] == ["forward"] * n_forward
            assert "forward" not in st[n_forward:]
        assert mbic.records[:n_forward] == mbic2.records[:n_forward]


@pytest.mark.parametrize("workload, trace", [("desk", 0), ("desk", 1), ("null", 0)])
def test_toy_benchmark_run_ends_with_a_result_line(tmp_path, monkeypatch, workload, trace):
    # the traced run goes through the tracer's wrappers of the search;
    # references for the toy sizes, as perfbench/selftest.py builds them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the reference module pins these on import
    monkeypatch.syspath_prepend(str(PERFBENCH))
    reference = load_module("perfbench_reference", PERFBENCH / "reference.py")
    sys.modules.pop("workloads", None)  # imported by the reference module
    toy = reference.W.TOY
    ref_dir = tmp_path / "reference"
    ref_dir.mkdir()
    if workload == "desk":
        ref = reference.desk_reference(toy, toy.desk_replicates)
    else:
        ref = reference.null_reference(toy, toy.null_replicates)
    (ref_dir / f"{workload}.json").write_text(json.dumps(ref))

    cmd = [sys.executable, str(PERFBENCH / "run.py"), "--toy", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--reference-dir", str(ref_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=PERFBENCH.parent)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v) for v in metrics.values())
    if trace:
        assert json.loads(lines[-2])["detail"]["absent"] == []
        assert metrics["search.selects"] > 0 and metrics["search.refine_s"] > 0
    else:
        assert set(metrics) == {"setup_s", "wall_per_cal", "peak_rss_mb"}
