"""Stagewise model search over screened marker candidates.

The pipeline mirrors a screen-then-refine strategy: a single-marker p-value
screen, a one-pass forward build-up under plain BIC seeded with the best
marker, backward elimination (sweep downdates of the inverse Gram matrix)
and stepwise refinement under the configured criterion, and a final
subset-enumeration step.  Every accepted move must strictly lower the
criterion, so traces are monotone and termination is guaranteed.

The forward pass walks the screened candidates in blocks of
``FORWARD_BLOCK``: each block is projected off the current model basis in
one matrix product, and an accepted candidate updates only the rest of its
block by a rank-one downdate.

The refinement fallback enumerates small subsets of the backward-reduced
model M only when an exact bound leaves room for one to win (the global
bound of leaps and bounds: Furnival & Wilson, Technometrics 1974).  With Z
the SNP block of M projected off the forced base and beta its coefficients,
every subset T of M has RSS(T) >= RSS(M) + lambda_min(Z'Z) * ||beta_D||^2
for D = M minus T, hence at least RSS(M) plus lambda_min times the sum of
the |M| - |T| smallest beta_j^2.  When the criterion at that bound exceeds
M's own value for every admissible size, the enumeration cannot change the
result and is skipped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from gwasel import _kernels
from gwasel.criteria import CriterionConfig, penalty
from gwasel.errors import BudgetError, CollinearityError
from gwasel.genotype import Dataset
from gwasel.mtest import ScanResult, single_marker_scan
from gwasel.regress import (
    RANK_TOL,
    FitResult,
    FitWorkspace,
    ModelSpec,
    fit,
    workspace_for,
)

SUBSET_BUDGET = 10**7
FORWARD_BLOCK = 128  # screened candidates projected per matrix product in forward
# the bound must clear the reduced model's value by this relative margin,
# which absorbs the rounding of the values the enumeration would compute
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the staged search."""

    criterion: CriterionConfig
    screen_threshold: float = 0.15
    max_forward_size: int = 140
    refinement_trigger: int = 25
    exhaustive_size_cap: int = 5
    max_stepwise_iterations: int = 1000

    def __post_init__(self):
        if not 0.0 < self.screen_threshold <= 1.0:
            raise ValueError("screen_threshold must lie in (0, 1]")
        if self.max_forward_size < 1:
            raise ValueError("max_forward_size must be >= 1")
        if self.exhaustive_size_cap < 0:
            raise ValueError("exhaustive_size_cap must be >= 0")
        if self.exhaustive_size_cap > self.refinement_trigger:
            raise ValueError("exhaustive_size_cap must not exceed refinement_trigger")
        if self.max_stepwise_iterations < 1:
            raise ValueError("max_stepwise_iterations must be >= 1")


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

    def to_jsonl(self, snp_ids: list[str] | None = None) -> str:
        lines = []
        for r in self.records:
            snp_id = None
            if r.snp is not None:
                snp_id = snp_ids[r.snp] if snp_ids is not None else f"snp{r.snp}"
            lines.append(json.dumps({
                "stage": r.stage,
                "action": r.action,
                "snp_id": snp_id,
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

    def pens_array(self, q_max: int) -> np.ndarray:
        return np.asarray([self.pen(q) for q in range(q_max + 1)], dtype=np.float64)

    def value(self, rss: float, q: int) -> float:
        if self.log_mode:
            return self.n * math.log(max(rss, self.floor)) + self.pen(q)
        return rss / self.sigma2 + self.pen(q)

    def value_array(self, rss: np.ndarray, q: int) -> np.ndarray:
        if self.log_mode:
            return self.n * np.log(np.maximum(rss, self.floor)) + self.pen(q)
        return rss / self.sigma2 + self.pen(q)


class _CandidateTracker:
    """Residual projections of candidate columns against the live model.

    For candidate x with residual part z (x minus its projection on the
    model basis): s = ||z||^2 and t = z'r, so adding x changes RSS by
    -t^2/s.  Pushing a new basis vector u with y-load d updates these as
    s -= (u'x)^2 and t -= (u'x) d; drops require a rebuild.  ``cols`` is the
    n x C block of the candidates ``idx`` and ``orig_norm2`` its squared
    column norms; both are read only.
    """

    def __init__(self, idx: np.ndarray, cols: np.ndarray, orig_norm2: np.ndarray,
                 ws: FitWorkspace, tol: float = RANK_TOL):
        self.idx = idx
        self.cols = cols
        self.orig_norm2 = orig_norm2
        self.tol2 = tol * tol
        self.sync(ws)

    def sync(self, ws: FitWorkspace) -> None:
        Q = ws.basis
        z = self.cols - Q @ (Q.T @ self.cols)
        self.s = np.einsum("ij,ij->j", z, z)
        self.t = self.cols.T @ ws.residual
        self.in_model = np.isin(self.idx, ws.snps)

    def on_push(self, u: np.ndarray, d: float) -> None:
        c = self.cols.T @ u
        self.s = np.maximum(self.s - c * c, 0.0)
        self.t = self.t - c * d

    def addable(self) -> np.ndarray:
        return self.s > self.tol2 * np.maximum(self.orig_norm2, 1e-300)


def screen(scan: ScanResult, threshold: float) -> list[int]:
    """Candidate columns with p strictly below threshold, best p first."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    return scan.order[scan.p_values[scan.order] < threshold].tolist()


def _max_snps(ws: FitWorkspace) -> int:
    return ws.n - len(ws.forced_indices) - 2


def _forward(ws: FitWorkspace, idx: np.ndarray, cols: np.ndarray, norm2: np.ndarray,
             config: SearchConfig, ev: _CriterionEval, trace: SearchTrace) -> None:
    """One pass over the candidates ``idx`` (columns ``cols``), best p first.

    A candidate is added when it lowers the criterion (the first one always
    is).  s and t of a block of ``FORWARD_BLOCK`` candidates come from one
    projection against the basis at the block's start; each add downdates
    the rest of the block only, since earlier candidates are not revisited.
    """
    q_cap = min(config.max_forward_size, _max_snps(ws))
    if q_cap < 1:
        return
    gate = RANK_TOL * RANK_TOL * np.maximum(norm2, 1e-300)
    cur_rss = ws.rss
    cur_val = None
    for start in range(0, idx.size, FORWARD_BLOCK):
        block = cols[:, start:start + FORWARD_BLOCK]
        Q = ws.basis
        z = block - Q @ (Q.T @ block)
        s = np.einsum("ij,ij->j", z, z)
        t = block.T @ ws.residual
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
                c = block[:, i + 1:].T @ u
                s[i + 1:] = np.maximum(s[i + 1:] - c * c, 0.0)
                t[i + 1:] -= c * d
                cur_rss = new_rss
                cur_val = ev.value(cur_rss, len(ws.snps))
                trace.append("forward", "add", j, cur_val, len(ws.snps))


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
    val, pick = _pick_drop(ws.drop_rss(), snps, ev)
    return val, int(snps[pick])


# a sweep downdate lost too many digits once a surviving diagonal of S has
# shrunk below this fraction of its value at the last inversion
SWEEP_LOSS = 1e-6


def _backward(ws: FitWorkspace, ev: _CriterionEval, trace: SearchTrace,
              stage: str = "backward") -> ModelSpec:
    """Backward elimination by sweep downdates of S = (X'X)^-1.

    Dropping column k raises the RSS by beta_k^2 / S_kk and leaves
    S - S[:, k] S[k, :] / S_kk and beta - S[:, k] beta_k / S_kk over the
    remaining columns (the sweep operator: Goodnight, Am. Stat. 1979).  S is
    inverted afresh from the survivors whenever a downdate leaves a diagonal
    that is not positive or has lost most of its digits to cancellation.
    The workspace is rebuilt once, from the survivors in insertion order.
    """
    live = list(ws.snps)
    base = ws.m - len(live)
    cur_val = ev.value(ws.rss, len(live))
    S, beta = ws.inverse_gram()
    rss = ws.rss
    ref = S.diagonal()[base:].copy()
    while live:
        drops = rss + beta[base:] ** 2 / S.diagonal()[base:]
        val, pos = _pick_drop(drops, np.asarray(live, dtype=np.int64), ev)
        if val >= cur_val:
            break
        k = base + pos
        col = S[:, k] / S[k, k]
        beta = np.delete(beta - col * beta[k], k)
        S = np.delete(np.delete(S - np.outer(col, S[k]), k, axis=0), k, axis=1)
        ref = np.delete(ref, pos)
        rss = float(drops[pos])
        j = live.pop(pos)
        cur_val = val
        trace.append(stage, "drop", j, cur_val, len(live))
        if not np.all(S.diagonal()[base:] > SWEEP_LOSS * ref):
            ws.rebuild(live)
            S, beta = ws.inverse_gram()
            rss = ws.rss
            ref = S.diagonal()[base:].copy()
    if len(live) < len(ws.snps):
        ws.rebuild(live)
    return ws.model()


def _stepwise(ws: FitWorkspace, tracker: _CandidateTracker, config: SearchConfig,
              ev: _CriterionEval, trace: SearchTrace) -> ModelSpec:
    moves = 0
    cur_rss = ws.rss
    cur_val = ev.value(cur_rss, len(ws.snps))
    q_cap = _max_snps(ws)
    while True:
        made_move = False

        if tracker.idx.size and len(ws.snps) < q_cap:
            open_pos = np.nonzero(~tracker.in_model & tracker.addable())[0]
            if open_pos.size:
                new_rss = np.maximum(
                    cur_rss - tracker.t[open_pos] ** 2 / tracker.s[open_pos], 0.0
                )
                vals = ev.value_array(new_rss, len(ws.snps) + 1)
                pick = np.lexsort((tracker.idx[open_pos], vals))[0]
                if vals[pick] < cur_val:
                    pos = int(open_pos[pick])
                    j = int(tracker.idx[pos])
                    try:
                        u, d = ws.add_snp(j)
                    except CollinearityError:
                        # the tracker's incremental stats drifted; resync and
                        # let the rejected column fail the addable() gate
                        trace.append("stepwise", "skip_collinear", j, None, len(ws.snps))
                        tracker.sync(ws)
                        tracker.s[pos] = 0.0
                        continue
                    tracker.on_push(u, d)
                    tracker.in_model[pos] = True
                    cur_rss = float(new_rss[pick])
                    cur_val = float(vals[pick])
                    trace.append("stepwise", "add", j, cur_val, len(ws.snps))
                    moves += 1
                    made_move = True
                    if moves >= config.max_stepwise_iterations:
                        trace.truncated = True
                        trace.append("stepwise", "truncated", None, cur_val, len(ws.snps))
                        return ws.model()

        found = _best_drop(ws, ev)
        if found is not None and found[0] < cur_val:
            val, j = found
            ws.drop_snp(j)
            tracker.sync(ws)
            cur_rss = ws.rss
            cur_val = val
            trace.append("stepwise", "drop", j, cur_val, len(ws.snps))
            moves += 1
            made_move = True
            if moves >= config.max_stepwise_iterations:
                trace.truncated = True
                trace.append("stepwise", "truncated", None, cur_val, len(ws.snps))
                return ws.model()

        if not made_move:
            break
    return ws.model()


def _subset_counts(n_cols: int, max_size: int) -> int:
    total = 0
    for q in range(min(max_size, n_cols) + 1):
        total += math.comb(n_cols, q)
    return total


def _enumerate_best(ws: FitWorkspace, columns: list[int], max_size: int,
                    ev: _CriterionEval):
    """Best subset of ``columns`` (sizes 0..max_size) behind the forced base of ``ws``."""
    cols = np.asarray(columns, dtype=np.int64)
    sub = ws.X[:, cols]
    Q = ws.basis[:, : ws.m - len(ws.snps)]
    z = sub - Q @ (Q.T @ sub)
    orig_norm2 = np.einsum("ij,ij->j", sub, sub)
    max_size = min(max_size, _max_snps(ws), cols.size)
    pens = ev.pens_array(max(max_size, 0))
    val, local_idx, n_eval = _kernels.best_subset(
        z,
        ws.base_residual,
        ws.rss_base,
        orig_norm2,
        pens,
        max_size,
        log_mode=ev.log_mode,
        n_obs=ev.n,
        sigma2=ev.sigma2,
        floor=ev.floor,
        tol=RANK_TOL,
    )
    subset = tuple(int(cols[i]) for i in local_idx)
    return float(val), subset, n_eval


def _subset_bounds(ws: FitWorkspace, max_size: int, ev: _CriterionEval) -> np.ndarray:
    """Lower bounds on the criterion value of any q-SNP subset of the SNPs
    of ``ws``, for q = 0..max_size (see the module docstring).

    R of the workspace restricted to the SNP block satisfies Z'Z = R22'R22,
    so lambda_min(Z'Z) is the smallest singular value of R22 squared; it is
    lowered by the backward error of the SVD and clamped at 0, so an
    ill-conditioned model is never ruled out on a rounded bound.
    """
    k = len(ws.snps)
    b = ws.m - k
    sig = np.linalg.svd(ws.r_factor[b:, b:], compute_uv=False)
    lam = max(sig[-1] ** 2 - 2 * k * np.finfo(np.float64).eps * sig[0] ** 2, 0.0)
    # smallest[j] = sum of the j smallest beta^2
    smallest = np.concatenate(([0.0], np.cumsum(np.sort(ws.inverse_gram()[1][b:] ** 2))))
    rss = ws.rss
    return np.array([ev.value(rss + lam * smallest[k - q], q) for q in range(max_size + 1)])


def refine_subsets(dataset: Dataset, model: ModelSpec, extra_candidates,
                   config: SearchConfig, _trace: SearchTrace | None = None,
                   _ws: FitWorkspace | None = None) -> ModelSpec:
    """Final enumeration step over the model plus externally suggested SNPs.

    When the combined set is small enough, subsets of it up to
    ``exhaustive_size_cap`` and every subset of the incumbent are scored and
    the minimizer returned, ties going to the incumbent.  Larger combined
    sets fall back to backward elimination followed by enumeration of
    subsets strictly below the cap, skipped when the bound in the module
    docstring rules every such subset out.  Forced covariates are always
    retained.  ``_ws`` is a workspace holding exactly ``model`` to work from
    instead of building one; it is left unchanged.
    """
    trace = _trace if _trace is not None else SearchTrace()
    stats = trace.stats
    forced = model.forced_indices
    extras = sorted({int(e) for e in extra_candidates} - set(model.snp_indices))
    n_combined = model.size + len(extras)
    ws = _ws if _ws is not None else workspace_for(dataset, model)
    ev = _CriterionEval(config.criterion, ws.rss_base)
    inc_val = ev.value(ws.rss, model.size)

    cap = config.exhaustive_size_cap
    candidates: list[tuple[float, int, tuple[int, ...]]] = []
    if n_combined <= config.refinement_trigger:
        predicted = _subset_counts(n_combined, cap) + 2 ** model.size
        if predicted > SUBSET_BUDGET:
            raise BudgetError(
                f"refinement would score ~{predicted} subsets (> {SUBSET_BUDGET}); "
                "lower exhaustive_size_cap or refinement_trigger"
            )
        combined = sorted([*model.snp_indices, *extras])
        val, subset, n_eval = _enumerate_best(ws, combined, cap, ev)
        stats["subsets_scored"] += n_eval
        candidates.append((val, len(subset), subset))
        if model.size:
            val_i, subset_i, n_eval = _enumerate_best(ws, list(model.snp_indices), model.size, ev)
            stats["subsets_scored"] += n_eval
            candidates.append((val_i, len(subset_i), subset_i))
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
        red_val = ev.value(red_ws.rss, reduced.size)
        candidates.append((red_val, reduced.size, reduced.snp_indices))
        predicted = _subset_counts(reduced.size, cap - 1)
        if predicted > SUBSET_BUDGET:
            raise BudgetError(
                f"refinement would score ~{predicted} subsets (> {SUBSET_BUDGET}); "
                "lower exhaustive_size_cap"
            )
        max_size = min(cap - 1, _max_snps(red_ws), reduced.size)
        # at max_size == |M| the model itself is a candidate, so nothing is
        # ruled out; below 0 (a cap of 0) there is no size to score
        if 0 <= max_size < reduced.size and (_subset_bounds(red_ws, max_size, ev).min()
                                        > red_val + BOUND_MARGIN * abs(red_val)):
            stats["subsets_skipped_by_bound"] += _subset_counts(reduced.size, max_size)
        elif max_size >= 0:
            val, subset, n_eval = _enumerate_best(red_ws, list(reduced.snp_indices), cap - 1, ev)
            stats["subsets_scored"] += n_eval
            candidates.append((val, len(subset), subset))

    best_val, _, best_subset_idx = min(candidates)
    if best_val < inc_val:
        result = ModelSpec(tuple(sorted(best_subset_idx)), forced)
        if set(result.snp_indices) != set(model.snp_indices):
            trace.append("refine", "replace", None, best_val, result.size)
        return result
    return model


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
        scan = single_marker_scan(dataset)
    idx = np.asarray(screen(scan, config.screen_threshold), dtype=np.int64)
    cols = dataset.float_values[:, idx]
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
    refinement to the returned fit.
    """
    if dataset.trait is None:
        raise ValueError("dataset has no trait")
    if config.criterion.n != dataset.n_individuals:
        raise ValueError(
            f"criterion config has n={config.criterion.n} but dataset has "
            f"{dataset.n_individuals} individuals"
        )
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
    tracker = _CandidateTracker(state.candidates, state.cols, state.norm2, ws)
    _stepwise(ws, tracker, config, ev, trace)

    found = ws.model()
    model = refine_subsets(dataset, found, extra_candidates, config, _trace=trace, _ws=ws)
    return model, ws.result() if model == found else fit(dataset, model), trace
