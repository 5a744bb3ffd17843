"""Spans and counters recorded from outside the package.

:class:`Tracer` replaces public names in gwasel's modules with timing
wrappers and restores them on exit.  Calls that happen at most a few
thousand times per run become spans (name, start, end, parent, request);
per-call ``FitWorkspace`` methods only add to a call count and a total
time.  A name missing from the package (removed by a later change) is
recorded in ``absent`` instead of failing the run, and the metrics derived
from it are left out.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # replicate index or CLI command of the current call
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [count, seconds]
        self.values: dict[str, list] = defaultdict(list)  # name -> observations
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def _lookup(self, owner, attr: str, name: str):
        orig = getattr(owner, attr, _MISSING) if owner is not None else _MISSING
        if orig is _MISSING:
            self.absent.append(name)
            return None
        self._saved.append((owner, attr, orig))
        return orig

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` so every call becomes a span named ``name``.

        ``before(args, kwargs)`` runs ahead of the call and ``after(args,
        kwargs, result)`` after it, both outside the span's interval.
        """
        orig = self._lookup(owner, attr, name)
        if orig is None:
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` with a call counter and a total time only."""
        orig = self._lookup(owner, attr, name)
        if orig is None:
            return
        slot = self.calls[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += time.perf_counter() - t0

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- summaries ------------------------------------------------------

    def _matching(self, name: str, request):
        return [(i, s) for i, s in enumerate(self.spans)
                if s.name == name and (request is _MISSING or s.request == request)]

    def total(self, name: str, request=_MISSING) -> float:
        return sum(s.seconds for _, s in self._matching(name, request))

    def durations(self, name: str) -> list[float]:
        return [s.seconds for _, s in self._matching(name, _MISSING)]

    def self_time(self, name: str, request=_MISSING) -> float:
        """Time inside spans called ``name`` not covered by their child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return sum(s.seconds - child[i] for i, s in self._matching(name, request))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request}) + "\n")


_UNITS = {
    "genotype.load_mtokens_per_s": "Mtoken/s",
    "genotype.load_rss_hwm_mb": "MB",
    "genotype.impute_ms_per_cell": "ms",
    "cluster.us_per_snp": "us",
    "search.select_tail_pct": "%",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric: seconds for ``*_s``, else a count unless listed."""
    return _UNITS.get(name, "s" if name.endswith("_s") else "count")


def rss_mb() -> float:
    """High-water mark of this process's resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer, gwasel_modules: dict) -> None:
    """Wrap the public names each layer is reached through.

    ``gwasel_modules`` maps short names (``simulate``, ``search``, ``mtest``,
    ``regress``, ``cli``) to the imported modules; a name that is missing
    from its module is recorded as absent.
    """
    simulate = gwasel_modules["simulate"]
    search = gwasel_modules["search"]
    mtest = gwasel_modules["mtest"]
    regress = gwasel_modules["regress"]
    cli = gwasel_modules["cli"]
    values = tracer.values

    def set_request(args, kwargs):
        tracer.request = int(kwargs.get("replicate_index", args[2] if len(args) > 2 else 0))

    def after_select(args, kwargs, result):
        for key, n in _trace_counts(result[2]).items():
            values[key].append(n)

    def after_screen(args, kwargs, result):
        values["search.candidates_screened"].append(len(result))

    def after_load(args, kwargs, result):
        values["genotype.load_tokens"].append(result.n_individuals * result.n_snps + result.n_snps)
        if "genotype.load_rss_hwm_mb" not in values:
            values["genotype.load_rss_hwm_mb"].append(rss_mb())

    def before_impute(args, kwargs):
        ds = args[0] if args else kwargs["dataset"]
        values["genotype.impute_cells"].append(int(ds.genotypes.missing_mask.sum()))

    def after_cluster(args, kwargs, result):
        values["cluster.snps"].append(int(result.cluster_id.shape[0]))
        values["cluster.effective_count"].append(int(result.effective_count))

    tracer.span(simulate, "simulate_trait", "simulate.simulate_trait", before=set_request)
    tracer.span(simulate, "classify_detections", "simulate.classify_detections")
    tracer.span(simulate, "select_model", "search.select_model", after=after_select)
    tracer.span(simulate, "bonferroni", "mtest.correction")
    tracer.span(simulate, "benjamini_hochberg", "mtest.correction")
    engine = getattr(mtest, "ScanEngine", None)
    tracer.span(engine, "__init__", "mtest.engine_build")
    tracer.span(engine, "scan", "mtest.scan")
    tracer.span(search, "refine_subsets", "search.refine_subsets")
    tracer.span(search, "fit", "regress.fit")
    tracer.span(search, "screen", "search.screen", after=after_screen)
    workspace = getattr(regress, "FitWorkspace", None)
    for attr in ("__init__", "add_snp", "drop_snp", "rss_if_dropped"):
        tracer.count(workspace, attr, f"regress.{attr}")
    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "load_dataset", "genotype.load_dataset", after=after_load)
    tracer.span(cli, "impute_missing", "genotype.impute_missing", before=before_impute)
    tracer.span(cli, "cluster_snps", "cluster.cluster_snps", after=after_cluster)
    tracer.span(cli, "single_marker_scan", "mtest.single_marker_scan")
    tracer.span(cli, "bonferroni", "mtest.correction")
    tracer.span(cli, "benjamini_hochberg", "mtest.correction")


_TRACE_EVENTS = {
    ("forward", "add"): "search.forward_adds",
    ("backward", "drop"): "search.backward_drops",
    ("stepwise", "add"): "search.stepwise_adds",
    ("stepwise", "drop"): "search.stepwise_drops",
    ("refine", "fallback_backward"): "search.refine_fallbacks",
    ("refine", "replace"): "search.refine_replacements",
}


def _trace_counts(trace) -> dict[str, int]:
    counts = dict.fromkeys(_TRACE_EVENTS.values(), 0)
    counts["search.collinear_skips"] = 0
    for r in trace.records:
        key = _TRACE_EVENTS.get((r.stage, r.action))
        if key is not None:
            counts[key] += 1
        if r.action == "skip_collinear":
            counts["search.collinear_skips"] += 1
    return counts


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile on a 50/75/90/95/99
    ladder with at least ten samples beyond it; (0, 0, n) when n < 20."""
    xs = sorted(samples)
    n = len(xs)
    for pct in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            rank = min(n - 1, max(0, int(round(pct / 100.0 * (n - 1)))))
            return xs[rank], pct, n
    return 0.0, 0.0, n


def layer_metrics(tracer: Tracer, passes: int, wall_traced: float, wall_untraced: float,
                  extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-pass layer metrics, plus the per-layer names that could not be measured."""
    t, v = tracer, tracer.values
    per = 1.0 / max(passes, 1)
    m: dict[str, float] = {}

    load_s = t.total("genotype.load_dataset")
    m["genotype.load_s"] = load_s * per
    m["genotype.load_mtokens_per_s"] = sum(v["genotype.load_tokens"]) / load_s / 1e6 if load_s else 0.0
    m["genotype.load_rss_hwm_mb"] = v["genotype.load_rss_hwm_mb"][0] if v["genotype.load_rss_hwm_mb"] else 0.0
    impute_s = t.total("genotype.impute_missing")
    cells = sum(v["genotype.impute_cells"])
    m["genotype.impute_s"] = impute_s * per
    m["genotype.impute_cells"] = cells * per
    m["genotype.impute_ms_per_cell"] = impute_s / cells * 1e3 if cells else 0.0

    leader_s = t.total("cluster.cluster_snps")
    snps = sum(v["cluster.snps"])
    m["cluster.leader_s"] = leader_s * per
    m["cluster.us_per_snp"] = leader_s / snps * 1e6 if snps else 0.0
    m["cluster.effective_count"] = v["cluster.effective_count"][-1] if v["cluster.effective_count"] else 0

    m["mtest.engine_build_s"] = t.total("mtest.engine_build") * per
    m["mtest.scan_s"] = t.total("mtest.scan") * per
    m["mtest.scans"] = len(t.durations("mtest.scan")) * per
    m["mtest.correction_s"] = t.total("mtest.correction") * per

    selects = t.durations("search.select_model")
    select_s = sum(selects)
    refine_s = t.total("search.refine_subsets")
    fit_s = t.total("regress.fit")
    m["search.select_s"] = select_s * per
    m["search.selects"] = len(selects) * per
    m["search.select_tail_s"], m["search.select_tail_pct"], m["search.select_tail_n"] = tail(selects)
    m["search.refine_s"] = refine_s * per
    m["search.stages_s"] = (select_s - refine_s - fit_s) * per if selects else 0.0
    screened = v["search.candidates_screened"]
    m["search.candidates_screened"] = sum(screened) / len(screened) if screened else 0.0
    for key in [*_TRACE_EVENTS.values(), "search.collinear_skips"]:
        m[key] = sum(v[key]) * per

    for attr, key in (("rss_if_dropped", "regress.rss_if_dropped_calls"),
                      ("add_snp", "regress.add_snp_calls"),
                      ("drop_snp", "regress.drop_snp_calls"),
                      ("__init__", "regress.workspace_builds")):
        m[key] = t.calls[f"regress.{attr}"][0] * per
    m["regress.rss_if_dropped_s"] = t.calls["regress.rss_if_dropped"][1] * per
    m["regress.fit_s"] = fit_s * per

    m["simulate.study_s"] = t.total("simulate.run_study") * per
    m["simulate.trait_s"] = t.total("simulate.simulate_trait") * per
    m["simulate.classify_s"] = t.total("simulate.classify_detections") * per
    m["simulate.loop_self_s"] = t.self_time("simulate.run_study") * per

    for cmd in ("impute", "cluster", "scan"):
        m[f"cli.{cmd}_cmd_s"] = t.total("cli.main", request=cmd) * per
    m["cli.self_s"] = t.self_time("cli.main") * per
    m.update(extra)
    m["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0 if wall_untraced else 0.0

    # metrics resting on a name the package no longer has
    depends = {
        "simulate.simulate_trait": ["simulate.trait_s"],
        "simulate.classify_detections": ["simulate.classify_s"],
        "search.select_model": ["search.select_s", "search.selects", "search.select_tail_s",
                                "search.select_tail_pct", "search.select_tail_n",
                                "search.stages_s", *_TRACE_EVENTS.values(),
                                "search.collinear_skips"],
        "mtest.engine_build": ["mtest.engine_build_s"],
        "mtest.scan": ["mtest.scan_s", "mtest.scans"],
        "search.refine_subsets": ["search.refine_s"],
        "regress.fit": ["regress.fit_s"],
        "search.screen": ["search.candidates_screened"],
        "regress.rss_if_dropped": ["regress.rss_if_dropped_calls", "regress.rss_if_dropped_s"],
        "regress.add_snp": ["regress.add_snp_calls"],
        "regress.drop_snp": ["regress.drop_snp_calls"],
        "regress.__init__": ["regress.workspace_builds"],
        "genotype.load_dataset": ["genotype.load_s", "genotype.load_mtokens_per_s",
                                  "genotype.load_rss_hwm_mb"],
        "genotype.impute_missing": ["genotype.impute_s", "genotype.impute_cells",
                                    "genotype.impute_ms_per_cell"],
        "cluster.cluster_snps": ["cluster.leader_s", "cluster.us_per_snp",
                                 "cluster.effective_count"],
    }
    missing = sorted({key for name in tracer.absent for key in depends.get(name, [])})
    for key in missing:
        m.pop(key, None)
    return m, missing
