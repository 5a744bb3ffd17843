"""The benchmark's tracer must find every name it wraps in the package.

A wrapped name the package no longer has is reported as absent, and the
per-layer metrics resting on it drop out of the benchmark's result line.
"""

import importlib.util
from pathlib import Path

import gwasel.cli
import gwasel.mtest
import gwasel.regress
import gwasel.search
import gwasel.simulate

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
