"""Stagewise model search over screened marker candidates.

The pipeline mirrors a screen-then-refine strategy: a single-marker p-value
screen, a one-pass forward build-up under plain BIC seeded with the best
marker, backward elimination (sweep downdates of the inverse Gram matrix)
and stepwise refinement under the configured criterion, and a final
subset-enumeration step.  Every accepted move must strictly lower the
criterion, so traces are monotone and termination is guaranteed.

Every stage scores moves with the same two updates.  Adding a candidate x
lowers the RSS by t^2/s, with s and t from projecting x off the model basis
(``_project``: one product Q'x, s = ||x||^2 - ||Q'x||^2) and downdated by
each basis vector added later (``_downdate``); x is skipped as collinear
while s is at or below ``regress._gate``, the gate the scan and the subset
kernel also use.  Both differences of squares cancel near the model's span,
so an s below ``REPROJECT_BELOW`` of ||x||^2 is projected explicitly, which
keeps the gate sound.  Dropping a model SNP raises the RSS by
beta_j^2 / S_jj, with S and beta from ``FitWorkspace.inverse_gram``
(``_drop_rss``).  Forward projects a block of ``FORWARD_BLOCK`` candidates
at a time and an add downdates only the rest of its block; backward sweeps
S in place from one inversion per stage; stepwise projects all its
candidates once, downdates them on each add, restores the dropped
direction on each drop (``_restore``, a rank-one update) and scores drops
from a fresh inverse.

Refinement scores subsets of the selected model with ``_kernels.best_subset``,
which walks them depth first and skips each subtree whose exact lower bound
cannot beat the best value so far or the value refinement must beat (leaps
and bounds: Furnival & Wilson, Technometrics 1974).  Its walks share one
running best, which starts at the incumbent.  ``SUBSET_BUDGET`` caps the
subsets one walk scores, not the subsets it could reach;
``EXHAUSTIVE_SIZE_CAP`` and ``MAX_STEPWISE_ITERATIONS`` are the other fixed
limits of the search.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from gwasel import _kernels
from gwasel.criteria import CriterionConfig, penalty
from gwasel.errors import CollinearityError
from gwasel.genotype import Dataset
from gwasel.mtest import ScanResult, single_marker_scan
from gwasel.regress import (
    REPROJECT_BELOW,
    FitResult,
    FitWorkspace,
    ModelSpec,
    _gate,
    fit,
    workspace_for,
)

SUBSET_BUDGET = 10**7  # subsets one refinement walk may score
EXHAUSTIVE_SIZE_CAP = 5  # largest subset of the model plus extras that refinement scores
MAX_STEPWISE_ITERATIONS = 1000  # moves stepwise makes before it stops
FORWARD_BLOCK = 128  # screened candidates projected per matrix product in forward


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the staged search.

    ``refinement_trigger`` is the largest model plus extras that refinement
    enumerates rather than reducing it by backward elimination first; it may
    not lie below ``EXHAUSTIVE_SIZE_CAP``.
    """

    criterion: CriterionConfig
    screen_threshold: float = 0.15
    max_forward_size: int = 140
    refinement_trigger: int = 25

    def __post_init__(self):
        if not 0.0 < self.screen_threshold <= 1.0:
            raise ValueError("screen_threshold must lie in (0, 1]")
        if self.max_forward_size < 1:
            raise ValueError("max_forward_size must be >= 1")
        if self.refinement_trigger < EXHAUSTIVE_SIZE_CAP:
            raise ValueError(f"refinement_trigger must be >= {EXHAUSTIVE_SIZE_CAP}")


@dataclass(frozen=True)
class TraceRecord:
    stage: str
    action: str
    snp: int | None
    criterion_value: float | None
    model_size: int


@dataclass
class SearchTrace:
    """Append-only record of every accepted or notable search event."""

    records: list[TraceRecord] = field(default_factory=list)
    truncated: bool = False
    # refinement counters: subsets the enumeration scored, subsets the bound
    # ruled out without scoring, and fallbacks to backward elimination taken
    stats: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("subsets_scored", "subsets_skipped_by_bound", "refine_fallbacks"), 0))

    def append(self, stage: str, action: str, snp: int | None,
               value: float | None, size: int) -> None:
        self.records.append(TraceRecord(stage, action, snp, value, size))

    def accepted(self, stage: str | None = None) -> list[TraceRecord]:
        out = [r for r in self.records if r.action in ("add", "drop")]
        if stage is not None:
            out = [r for r in out if r.stage == stage]
        return out

    def to_jsonl(self, snp_ids: Sequence[str]) -> str:
        lines = []
        for r in self.records:
            lines.append(json.dumps({
                "stage": r.stage,
                "action": r.action,
                "snp_id": None if r.snp is None else snp_ids[r.snp],
                "criterion_value": r.criterion_value,
                "model_size": r.model_size,
            }))
        return "\n".join(lines) + ("\n" if lines else "")


class _CriterionEval:
    """Floored criterion evaluation usable on saturated models.

    ``criteria.evaluate`` rejects RSS <= 0; during search a saturated model
    simply gets the floored value so comparisons stay total.
    """

    def __init__(self, config: CriterionConfig, rss_base: float):
        self.config = config
        self.log_mode = config.sigma is None
        self.sigma2 = 1.0 if config.sigma is None else float(config.sigma) ** 2
        self.n = config.n
        self.floor = max(rss_base * 1e-12, 1e-300)
        self._pens: list[float] = []

    def pen(self, q: int) -> float:
        while len(self._pens) <= q:
            self._pens.append(penalty(self.config, len(self._pens)))
        return self._pens[q]

    def value(self, rss: float, q: int) -> float:
        if self.log_mode:
            return self.n * math.log(max(rss, self.floor)) + self.pen(q)
        return rss / self.sigma2 + self.pen(q)

    def value_array(self, rss: np.ndarray, q: int) -> np.ndarray:
        if self.log_mode:
            return self.n * np.log(np.maximum(rss, self.floor)) + self.pen(q)
        return rss / self.sigma2 + self.pen(q)


def screen(scan: ScanResult, threshold: float) -> list[int]:
    """Candidate columns with p strictly below threshold, best p first."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    return scan.order[scan.p_values[scan.order] < threshold].tolist()


def _max_snps(ws: FitWorkspace) -> int:
    return ws.n - len(ws.forced_indices) - 2


def _reproject(Q: np.ndarray, cols: np.ndarray, norm2: np.ndarray, s: np.ndarray) -> None:
    """Replace in place each s below ``REPROJECT_BELOW`` of its column's
    squared norm by ||x - Q Q'x||^2, which resolves the collinearity gate
    where a difference of squares has cancelled."""
    low = np.flatnonzero(s < REPROJECT_BELOW * norm2)
    if low.size:
        sub = cols[:, low]
        z = sub - Q @ (Q.T @ sub)
        s[low] = np.einsum("ij,ij->j", z, z)


def _project(ws: FitWorkspace, cols: np.ndarray,
             norm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) of the candidate columns ``cols`` (squared norms ``norm2``)
    against the model of ``ws``.

    With z a column less its projection on the model basis Q, s = ||z||^2 =
    ||x||^2 - ||Q'x||^2 and t = z'r = x'r, so adding the column lowers the
    RSS by t^2 / s.  One product Q'x gives s; where it cancels, near the
    model's span, ``_reproject`` projects explicitly.
    """
    Q = ws.basis
    g = Q.T @ cols
    s = norm2 - np.einsum("ij,ij->j", g, g)
    _reproject(Q, cols, norm2, s)
    return s, cols.T @ ws.residual


def _downdate(ws: FitWorkspace, cols: np.ndarray, norm2: np.ndarray, s: np.ndarray,
              t: np.ndarray, u: np.ndarray, d: float) -> None:
    """Update s and t of ``cols`` in place for the basis vector u with y-load
    d that ``ws`` has just added; s = s - (u'x)^2 cancels like the closed
    form of ``_project`` and is re-projected the same way."""
    c = cols.T @ u
    s -= c * c
    t -= c * d
    _reproject(ws.basis, cols, norm2, s)


def _restore(cols: np.ndarray, s: np.ndarray, t: np.ndarray, w: np.ndarray, d: float) -> None:
    """Update s and t of ``cols`` in place for a direction w with y-load d
    leaving the model's span (``FitWorkspace.drop_direction``)."""
    c = cols.T @ w
    s += c * c
    t += c * d


def _drop_rss(rss: float, S: np.ndarray, beta: np.ndarray,
              pos: slice | np.ndarray) -> np.ndarray:
    """RSS after dropping each SNP column, from (S, beta) of ``inverse_gram``.

    Dropping column k raises the RSS by beta_k^2 / S_kk (Miller, Subset
    Selection in Regression, 2002); ``pos`` indexes the SNP columns of S
    and beta (a slice past the intercept and forced columns, or the
    positions still live in a sweep).
    """
    return rss + beta[pos] ** 2 / S.diagonal()[pos]


def _forward(ws: FitWorkspace, idx: np.ndarray, cols: np.ndarray, norm2: np.ndarray,
             config: SearchConfig, ev: _CriterionEval, trace: SearchTrace) -> None:
    """One pass over the candidates ``idx`` (columns ``cols``), best p first.

    A candidate is added when it lowers the criterion (the first one always
    is).  s and t of a block of ``FORWARD_BLOCK`` candidates come from one
    product with the basis at the block's start (``_project``); each add
    downdates the rest of the block only, since earlier candidates are not
    revisited.  Either step projects explicitly the s that cancel below
    ``REPROJECT_BELOW``, so a copy of a model column fails the gate.
    """
    q_cap = min(config.max_forward_size, _max_snps(ws))
    if q_cap < 1:
        return
    gate = _gate(norm2)
    cur_rss = ws.rss
    cur_val = None
    for start in range(0, idx.size, FORWARD_BLOCK):
        block = cols[:, start:start + FORWARD_BLOCK]
        norms = norm2[start:start + FORWARD_BLOCK]
        s, t = _project(ws, block, norms)
        for i in range(block.shape[1]):
            if len(ws.snps) >= q_cap:
                return
            j = int(idx[start + i])
            if s[i] <= gate[start + i]:
                trace.append("forward", "skip_collinear", j, None, len(ws.snps))
                continue
            new_rss = max(cur_rss - t[i] ** 2 / s[i], 0.0)
            if cur_val is None:
                accept = True  # the stage starts from the best single marker
            else:
                accept = ev.value(new_rss, len(ws.snps) + 1) < cur_val
            if accept:
                try:
                    u, d = ws.add_snp(j)
                except CollinearityError:
                    trace.append("forward", "skip_collinear", j, None, len(ws.snps))
                    continue
                _downdate(ws, block[:, i + 1:], norms[i + 1:], s[i + 1:], t[i + 1:], u, d)
                cur_rss = new_rss
                cur_val = ev.value(cur_rss, len(ws.snps))
                trace.append("forward", "add", j, cur_val, len(ws.snps))


def _first_min(vals: np.ndarray, keys: np.ndarray) -> int:
    """Position of the smallest of ``vals``, equal values to the smallest
    key: ``np.lexsort((keys, vals))[0]`` without the sort (no NaN in vals)."""
    ties = np.flatnonzero(vals == vals.min())
    return int(ties[np.argmin(keys[ties])])


def _pick_drop(drop_rss: np.ndarray, snps: np.ndarray, ev: _CriterionEval) -> tuple[float, int]:
    """(criterion value, position) of the best drop given each SNP's drop RSS.

    Equal values drop the largest SNP index, which leaves the
    lexicographically smallest model.
    """
    vals = ev.value_array(drop_rss, snps.size - 1)
    pick = int(np.lexsort((-snps, vals))[0])
    return float(vals[pick]), pick


def _best_drop(ws: FitWorkspace, ev: _CriterionEval) -> tuple[float, int] | None:
    """Best single drop as (criterion value, SNP)."""
    if not ws.snps:
        return None
    snps = np.asarray(ws.snps, dtype=np.int64)
    drops = _drop_rss(ws.rss, *ws.inverse_gram(), slice(ws.m - snps.size, None))
    val, pick = _pick_drop(drops, snps, ev)
    return val, int(snps[pick])


# a sweep downdate lost too many digits once a surviving diagonal of S has
# shrunk below this fraction of its value at the last inversion
SWEEP_LOSS = 1e-6


def _backward(ws: FitWorkspace, ev: _CriterionEval, trace: SearchTrace,
              stage: str = "backward") -> ModelSpec:
    """Backward elimination by sweep downdates of S = (X'X)^-1.

    Dropping column k leaves S - S[:, k] S[k, :] / S_kk and
    beta - S[:, k] beta_k / S_kk over the remaining columns (the sweep
    operator: Goodnight, Am. Stat. 1979).  The sweep runs in place on the
    full S and beta; ``pos`` holds the workspace positions of the SNPs still
    live, and only those entries are read.  S is inverted afresh from the
    survivors whenever a downdate leaves a live diagonal that is not
    positive or has lost most of its digits to cancellation.  The workspace
    is rebuilt once, from the survivors in insertion order.
    """
    live = list(ws.snps)
    pos = np.arange(ws.m - len(live), ws.m)
    cur_val = ev.value(ws.rss, len(live))
    S, beta = ws.inverse_gram()
    rss = ws.rss
    ref = S.diagonal().copy()
    while live:
        drops = _drop_rss(rss, S, beta, pos)
        val, i = _pick_drop(drops, np.asarray(live, dtype=np.int64), ev)
        if val >= cur_val:
            break
        k = pos[i]
        col = S[:, k] / S[k, k]
        beta -= col * beta[k]
        S -= col[:, None] * S[k]
        pos = pos[pos != k]
        rss = float(drops[i])
        j = live.pop(i)
        cur_val = val
        trace.append(stage, "drop", j, cur_val, len(live))
        if not np.all(S.diagonal()[pos] > SWEEP_LOSS * ref[pos]):
            ws.rebuild(live)
            S, beta = ws.inverse_gram()
            rss = ws.rss
            pos = np.arange(ws.m - len(live), ws.m)
            ref = S.diagonal().copy()
    if len(live) < len(ws.snps):
        ws.rebuild(live)
    return ws.model()


def _stepwise(ws: FitWorkspace, idx: np.ndarray, cols: np.ndarray, norm2: np.ndarray,
              ev: _CriterionEval, trace: SearchTrace) -> ModelSpec:
    """Alternate the best add among the candidates ``idx`` (columns ``cols``,
    squared norms ``norm2``) and the best drop while either lowers the
    criterion, for at most ``MAX_STEPWISE_ITERATIONS`` moves.

    s and t of the candidates come from one projection on entry and are
    then kept by rank-one updates: an add downdates them by its new basis
    vector u (``_downdate``), and a drop restores the direction w it takes
    out of the model's span, since P_M = P_(M-k) + w w' (``_restore``).  A
    collinear pick projects them afresh.
    """
    gate = _gate(norm2)
    s, t = _project(ws, cols, norm2)
    in_model = np.isin(idx, ws.snps)
    moves = 0
    cur_rss = ws.rss
    cur_val = ev.value(cur_rss, len(ws.snps))
    q_cap = _max_snps(ws)
    made_move = True
    while made_move:
        made_move = False
        for action in ("add", "drop"):
            if action == "add":
                if len(ws.snps) >= q_cap:
                    continue
                open_pos = np.nonzero(~in_model & (s > gate))[0]
                if not open_pos.size:
                    continue
                new_rss = np.maximum(cur_rss - t[open_pos] ** 2 / s[open_pos], 0.0)
                vals = ev.value_array(new_rss, len(ws.snps) + 1)
                pick = _first_min(vals, idx[open_pos])
                if vals[pick] >= cur_val:
                    continue
                pos = int(open_pos[pick])
                j = int(idx[pos])
                try:
                    u, d = ws.add_snp(j)
                except CollinearityError:
                    # the workspace's rank test, which rounds apart from the
                    # gate at the boundary, refused the pick; project afresh,
                    # let the rejected column fail the gate and try the adds
                    # again before any drop
                    trace.append("stepwise", "skip_collinear", j, None, len(ws.snps))
                    s, t = _project(ws, cols, norm2)
                    s[pos] = 0.0
                    made_move = True
                    break
                _downdate(ws, cols, norm2, s, t, u, d)
                in_model[pos] = True
                cur_rss, cur_val = float(new_rss[pick]), float(vals[pick])
            else:
                found = _best_drop(ws, ev)
                if found is None or found[0] >= cur_val:
                    continue
                cur_val, j = found
                w, d = ws.drop_direction(j)
                ws.drop_snp(j)
                _restore(cols, s, t, w, d)
                in_model[idx == j] = False
                cur_rss = ws.rss
            trace.append("stepwise", action, j, cur_val, len(ws.snps))
            moves += 1
            made_move = True
            if moves >= MAX_STEPWISE_ITERATIONS:
                trace.truncated = True
                trace.append("stepwise", "truncated", None, cur_val, len(ws.snps))
                return ws.model()
    return ws.model()


def _enumerate_best(ws: FitWorkspace, columns: list[int], max_size: int,
                    ev: _CriterionEval, to_beat: float, stats: dict[str, int]):
    """Best subset of ``columns`` (sizes 0..max_size) behind the forced base of
    ``ws``, exact when its value is at or below ``to_beat``; the subsets scored
    and ruled out by the bound are added to ``stats``."""
    cols = np.asarray(columns, dtype=np.int64)
    sub = ws.X[:, cols]
    Q = ws.basis[:, : ws.m - len(ws.snps)]
    z = sub - Q @ (Q.T @ sub)
    orig_norm2 = np.einsum("ij,ij->j", sub, sub)
    max_size = min(max_size, _max_snps(ws), cols.size)
    val, local_idx, n_scored, n_pruned = _kernels.best_subset(
        z, ws.base_residual, ws.rss_base, _gate(orig_norm2), max_size, ev.value_array,
        to_beat, SUBSET_BUDGET)
    stats["subsets_scored"] += n_scored
    stats["subsets_skipped_by_bound"] += n_pruned
    return float(val), tuple(int(cols[i]) for i in local_idx)


def _checked_extras(dataset: Dataset, extra_candidates) -> set[int]:
    extras = {int(e) for e in extra_candidates}
    dataset.check_snps(sorted(extras), "extra candidate")
    return extras


def refine_subsets(dataset: Dataset, model: ModelSpec, extra_candidates,
                   config: SearchConfig, _trace: SearchTrace | None = None,
                   _ws: FitWorkspace | None = None) -> ModelSpec:
    """Final enumeration step over the model plus externally suggested SNPs.

    One running best, keyed (value, size, lexicographic order), starts at
    the incumbent and is handed to each walk as the value to beat.  When the
    combined set is at most ``refinement_trigger``, every subset of the
    incumbent is walked and, when there are extras, every subset of the
    combined set up to ``EXHAUSTIVE_SIZE_CAP``.  Larger combined sets fall
    back to backward elimination: the reduced model enters the running best
    and its subsets strictly below the cap are walked.  The minimizer is
    returned when it beats the incumbent, which wins every tie.  Each walk
    skips the subtrees that cannot beat the running best (see the module
    docstring) and raises ``BudgetError`` once it has scored more than
    ``SUBSET_BUDGET`` subsets.  Forced covariates are always retained.  An
    extra candidate outside [0, p) raises ``ValueError``.
    ``_ws`` is a workspace holding exactly ``model`` to work from instead of
    building one; it is left unchanged.
    """
    trace = _trace if _trace is not None else SearchTrace()
    stats = trace.stats
    extras = sorted(_checked_extras(dataset, extra_candidates) - set(model.snp_indices))
    n_combined = model.size + len(extras)
    ws = _ws if _ws is not None else workspace_for(dataset, model)
    ev = _CriterionEval(config.criterion, ws.rss_base)
    inc_val = ev.value(ws.rss, model.size)
    best = (inc_val, model.size, model.snp_indices)

    if n_combined <= config.refinement_trigger:
        walks = [(ws, list(model.snp_indices), model.size)]
        if extras:
            walks.append((ws, sorted([*model.snp_indices, *extras]), EXHAUSTIVE_SIZE_CAP))
    else:
        trace.append("refine", "fallback_backward", None, None, n_combined)
        stats["refine_fallbacks"] += 1
        red_ws = ws.copy()
        for j in extras:
            try:
                red_ws.add_snp(j)
            except CollinearityError:
                trace.append("refine", "skip_collinear", j, None, len(red_ws.snps))
        reduced = _backward(red_ws, ev, trace, stage="refine_backward")
        best = min(best, (ev.value(red_ws.rss, reduced.size), reduced.size, reduced.snp_indices))
        walks = [(red_ws, list(reduced.snp_indices), EXHAUSTIVE_SIZE_CAP - 1)]
    for walk_ws, columns, max_size in walks:
        val, subset = _enumerate_best(walk_ws, columns, max_size, ev, best[0], stats)
        best = min(best, (val, len(subset), subset))

    best_val, _, subset = best
    if best_val >= inc_val:
        return model
    if subset != model.snp_indices:
        trace.append("refine", "replace", None, best_val, len(subset))
    return ModelSpec(subset, model.forced_indices)


@dataclass(frozen=True)
class ForwardState:
    """Screen and forward build-up of one search, before any criterion stage.

    The forward stage runs under plain BIC whatever the search criterion, so
    it depends only on the dataset, the scan, ``screen_threshold`` and
    ``max_forward_size``.  Searches that agree on those can start from one
    state: each runs on its own copy of the workspace, and the screened
    candidates, their n x C column block and its squared column norms are
    shared read-only.
    """

    dataset: Dataset
    screen_threshold: float
    max_forward_size: int
    ws: FitWorkspace
    candidates: np.ndarray  # screened SNPs, best p first
    cols: np.ndarray
    norm2: np.ndarray
    records: tuple[TraceRecord, ...]


def forward_stage(dataset: Dataset, config: SearchConfig,
                  scan: ScanResult | None = None) -> ForwardState:
    """Scan (unless given), screen and the forward stage under plain BIC."""
    if scan is None:
        dataset.float_values  # the workspace reads this cache; built first, the scan reads it too
        scan = single_marker_scan(dataset)
    idx = np.asarray(screen(scan, config.screen_threshold), dtype=np.int64)
    cols = np.take(dataset.genotypes.values, idx, axis=1).astype(np.float64)
    norm2 = np.einsum("ij,ij->j", cols, cols)
    ws = FitWorkspace(dataset, tuple(range(dataset.n_covariates)))
    bic_cfg = CriterionConfig(
        "bic", n=dataset.n_individuals, p_effective=max(dataset.n_snps, 1), sigma=None
    )
    trace = SearchTrace()
    _forward(ws, idx, cols, norm2, config, _CriterionEval(bic_cfg, ws.rss_base), trace)
    return ForwardState(dataset, config.screen_threshold, config.max_forward_size,
                        ws, idx, cols, norm2, tuple(trace.records))


def select_model(dataset: Dataset, config: SearchConfig, extra_candidates=(),
                 scan: ScanResult | None = None,
                 _state: ForwardState | None = None) -> tuple[ModelSpec, FitResult, SearchTrace]:
    """Full pipeline: scan, screen, forward, backward, stepwise, refine.

    ``_state`` is a :func:`forward_stage` of this very dataset, with this
    ``screen_threshold`` and ``max_forward_size``, to start from instead of
    building one; the search runs on a copy of its workspace and leaves it
    unchanged.  One workspace carries the search from backward through
    refinement to the returned fit.  An extra candidate outside [0, p) raises
    ``ValueError`` before any stage runs.
    """
    if dataset.trait is None:
        raise ValueError("dataset has no trait")
    if config.criterion.n != dataset.n_individuals:
        raise ValueError(
            f"criterion config has n={config.criterion.n} but dataset has "
            f"{dataset.n_individuals} individuals"
        )
    extras = _checked_extras(dataset, extra_candidates)
    if _state is None:
        state = forward_stage(dataset, config, scan)
        ws = state.ws
    else:
        if _state.dataset is not dataset:
            raise ValueError("forward state was built for another dataset")
        if (_state.screen_threshold, _state.max_forward_size) != (
                config.screen_threshold, config.max_forward_size):
            raise ValueError("forward state was built with another screen_threshold "
                             "or max_forward_size")
        state = _state
        ws = state.ws.copy()
    trace = SearchTrace(list(state.records))

    ev = _CriterionEval(config.criterion, ws.rss_base)
    _backward(ws, ev, trace)
    _stepwise(ws, state.candidates, state.cols, state.norm2, ev, trace)

    found = ws.model()
    model = refine_subsets(dataset, found, extras, config, _trace=trace, _ws=ws)
    return model, ws.result() if model == found else fit(dataset, model), trace
