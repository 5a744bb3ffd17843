import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gwasel.criteria import CriterionConfig, evaluate
from gwasel.errors import BudgetError, CollinearityError
from gwasel.mtest import ScanEngine, ScanResult, single_marker_scan
from gwasel.regress import FitWorkspace, ModelSpec, _gate, fit, workspace_for
import gwasel.search
from gwasel.search import (
    REPROJECT_BELOW,
    ForwardState,
    SearchConfig,
    SearchTrace,
    _backward,
    _CriterionEval,
    _downdate,
    _drop_rss,
    _enumerate_best,
    _first_min,
    _forward,
    _project,
    _restore,
    _smallest_drop,
    _stepwise,
    forward_stage,
    refine_subsets,
    screen,
    select_model,
)
from gwasel.simulate import (
    MethodSpec,
    SimulationConfig,
    effect_grid,
    run_study,
    simulate_trait,
    synthetic_dataset,
)

from conftest import dataset_from_values, random_genotypes, search_constants, unpruned
from oracles import (
    _best_drop,
    backward_by_deletes,
    backward_by_drops,
    forward_by_pushes,
    lstsq_design,
    lstsq_rss,
    project_two_products,
)


def make_config(kind, dataset, **kw):
    crit = CriterionConfig(kind, n=dataset.n_individuals, p_effective=dataset.n_snps)
    return SearchConfig(criterion=crit, **kw)


def scan_of(p_values):
    p = np.asarray(p_values, dtype=np.float64)
    return ScanResult(
        p_values=p,
        f_statistics=np.zeros_like(p),
        order=np.argsort(p, kind="stable").astype(np.int64),
        degenerate=np.zeros(p.shape, dtype=bool),
    )


def forward_adds(dataset, p_values, config):
    """SNPs the forward stage of ``select_model`` adds, screening on p_values."""
    _, _, trace = select_model(dataset, config, scan=scan_of(p_values))
    return [r.snp for r in trace.accepted("forward")], trace


def exhaustive_minimizer(dataset, crit, p):
    """Direct lstsq enumeration of every SNP subset."""
    X = dataset.float_values
    y = dataset.trait
    n = len(y)
    best = None
    for size in range(p + 1):
        for sub in itertools.combinations(range(p), size):
            D = np.column_stack([np.ones(n)] + [X[:, j] for j in sub])
            beta, _, rank, _ = np.linalg.lstsq(D, y, rcond=None)
            if rank < D.shape[1]:
                continue
            r = y - D @ beta
            rss = float(r @ r)
            if rss <= 0.0:
                continue
            key = (evaluate(crit, rss, size), size, sub)
            if best is None or key < best:
                best = key
    return best


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------


def test_screen_empty_when_all_above():
    assert screen(scan_of([0.5, 0.5, 0.5]), 0.15) == []


def test_screen_strict_boundary_and_order():
    assert screen(scan_of([0.01, 0.14999, 0.15]), 0.15) == [0, 1]


def test_screen_matches_filter_and_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ps = rng.random(30)
        got = screen(scan_of(ps), 0.35)
        expected = sorted((j for j in range(30) if ps[j] < 0.35), key=lambda j: (ps[j], j))
        assert got == expected


def screen_by_loop(scan, threshold):
    """The per-SNP loop ``screen`` replaced."""
    return [int(j) for j in scan.order if scan.p_values[j] < threshold]


@given(st.lists(st.sampled_from([0.0, 1e-12, 0.05, 0.15, 0.15, 0.3, 0.999, 1.0, 1.0]),
                max_size=40),
       st.sampled_from([0.05, 0.15, 0.3, 1.0]))
@settings(max_examples=200, deadline=None)
def test_screen_matches_per_snp_loop(p_values, threshold):
    # few distinct values: ties, p exactly at the threshold and p = 1
    scan = scan_of(p_values)
    got = screen(scan, threshold)
    assert got == screen_by_loop(scan, threshold)
    assert all(type(j) is int for j in got)


def test_screen_matches_per_snp_loop_on_degenerate_columns():
    rng = np.random.default_rng(31)
    values = random_genotypes(rng, 40, 12)
    values[:, [2, 7]] = 0  # zero variance: p = 1, flagged degenerate
    values[:, 9] = values[:, 4]  # a tie in p
    ds = dataset_from_values(values, trait=values[:, 4] + rng.normal(size=40))
    scan = single_marker_scan(ds)
    assert scan.p_values[[2, 7]].tolist() == [1.0, 1.0]
    for threshold in (1e-3, 0.15, scan.p_values[4], 1.0):
        assert screen(scan, threshold) == screen_by_loop(scan, threshold)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_single_useful_candidate():
    rng = np.random.default_rng(1)
    values = random_genotypes(rng, 60, 4)
    y = 1.5 * values[:, 2] + rng.normal(size=60)
    ds = dataset_from_values(values, trait=y)
    added, _ = forward_adds(ds, [0.5, 0.5, 0.01, 0.5], make_config("mbic", ds))
    assert added == [2]


def test_forward_empty_candidates_gives_null_model():
    rng = np.random.default_rng(2)
    ds = dataset_from_values(random_genotypes(rng, 30, 3), trait=rng.normal(size=30))
    added, trace = forward_adds(ds, [0.5, 0.5, 0.5], make_config("mbic", ds))
    assert added == []
    assert trace.records == []


def test_forward_stops_at_cap_with_141_strong_effects():
    # n large enough that every strong candidate lowers one-pass BIC
    ds = synthetic_dataset(1500, 141, seed=3)
    effects = np.full(141, 1.2)
    sim = SimulationConfig(tuple(range(141)), tuple(effects), sigma=0.5, seed=4)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    scan = single_marker_scan(dsy)
    assert len(screen(scan, 0.9999)) == 141
    # a size-1 cap keeps the refinement after the forward stage within budget
    with search_constants(EXHAUSTIVE_SIZE_CAP=1):
        cfg = make_config("mbic", dsy, screen_threshold=0.9999)
        added, _ = forward_adds(dsy, scan.p_values, cfg)
    assert len(added) == 140


def test_forward_skips_collinear_duplicates():
    rng = np.random.default_rng(5)
    values = random_genotypes(rng, 50, 6)
    values[:, 3] = values[:, 1]
    y = 2.0 * values[:, 1] + rng.normal(size=50)
    ds = dataset_from_values(values, trait=y)
    added, trace = forward_adds(ds, [0.5, 0.01, 0.5, 0.02, 0.5, 0.5],
                                make_config("mbic", ds))
    assert added == [1]
    assert [(r.action, r.snp) for r in trace.records if r.stage == "forward"] == [
        ("add", 1), ("skip_collinear", 3)]


# ---------------------------------------------------------------------------
# candidate projections
# ---------------------------------------------------------------------------

# The downdated s and t carry rounding of the order of 1e-15 of the
# column's squared norm (s) or of |x| |y| (t); this bounds them with margin.
DOWNDATE_TOL = 1e-12


def gathered(ds, candidates):
    """(indices, n x C column block, squared column norms) as forward_stage gathers them."""
    idx = np.asarray(candidates, dtype=np.int64)
    cols = ds.float_values[:, idx]
    return idx, cols, np.einsum("ij,ij->j", cols, cols)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0),
       st.lists(st.integers(0, 13), max_size=20))
@settings(max_examples=150, deadline=None)
def test_downdated_stats_match_fresh_projection(seed, n_forced, neg_log_eps, adds):
    ds, forced, _ = design_with_near_collinearity(seed, n_forced, 10.0**-neg_log_eps)
    candidates = [int(j) for j in np.random.default_rng(seed).permutation(ds.n_snps)]
    idx, cols, norm2 = gathered(ds, candidates)
    gate = _gate(norm2)
    ws = FitWorkspace(ds, forced)
    s, t, _ = _project(ws, cols, norm2)
    in_model = np.zeros(idx.size, dtype=bool)
    y_norm = float(np.sqrt(ds.trait @ ds.trait))
    for j in adds:
        if j in ws.snps:
            continue
        try:
            u, d = ws.add_snp(j)
        except CollinearityError:
            continue
        _downdate(ws, cols, norm2, s, t, u, d)
        in_model[candidates.index(j)] = True

        fresh_s, fresh_t = project_two_products(ws, cols)
        assert np.all(np.abs(s - fresh_s) <= DOWNDATE_TOL * norm2)
        assert np.all(np.abs(t - fresh_t) <= DOWNDATE_TOL * np.sqrt(norm2) * y_norm)
        fresh_in_model = np.isin(idx, ws.snps)
        assert fresh_in_model.dtype == bool
        assert fresh_in_model.tolist() == [c in ws.snps for c in candidates]
        assert np.array_equal(in_model, fresh_in_model)
        # the gates agree on every column: a downdated s that cancels below
        # REPROJECT_BELOW of its squared norm is projected explicitly, so an
        # exact copy of a model column (13 of 4)
        # falls to rounding of that projection, far below the 1e-20 gate
        assert np.array_equal(s <= gate, fresh_s <= gate)


def random_workspace(ds, forced, seed):
    """``filled_workspace`` of column 4, which column 13 copies, and up to
    8 random SNPs."""
    rest = np.random.default_rng(seed).permutation(ds.n_snps)[:8]
    return filled_workspace(ds, forced, [4, *(int(j) for j in rest if j != 4)])


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0))
@settings(max_examples=150, deadline=None)
def test_project_matches_two_product_oracle(seed, n_forced, neg_log_eps):
    # column 13 copies column 4, which the model holds, and column 1 lies
    # within ~eps of the forced x0 + x1 and x0 when those are in the model:
    # s = ||x||^2 - ||Q'x||^2 cancels there and must be projected explicitly
    ds, forced, _ = design_with_near_collinearity(seed, n_forced, 10.0**-neg_log_eps)
    ws = random_workspace(ds, forced, seed)
    idx, cols, norm2 = gathered(ds, range(ds.n_snps))
    s, t, _ = _project(ws, cols, norm2)
    want_s, want_t = project_two_products(ws, cols)
    assert np.array_equal(t, want_t)
    assert np.all(np.abs(s - want_s) <= DOWNDATE_TOL * norm2)
    low = want_s < REPROJECT_BELOW * norm2
    assert low[13]
    # near the model's span, s is good to far below the gate, so the two
    # agree on which columns are collinear
    assert np.all(np.abs(s - want_s)[low] <= 1e-21 * norm2[low])
    gate = _gate(norm2)
    assert np.array_equal(s <= gate, want_s <= gate)
    assert s[13] <= gate[13]


def design_condition(ds, ws):
    """Condition number of the column-scaled design of the model of ``ws``."""
    D = lstsq_design(ds, ws.snps, ws.forced_indices)
    return float(np.linalg.cond(D / np.linalg.norm(D, axis=0)))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
@example(seed=326, n_forced=1, neg_log_eps=7.0, n_drops=1)  # kappa = 2.1e7
def test_rank_one_drop_matches_fresh_projection(seed, n_forced, neg_log_eps, n_drops):
    ds, forced, _ = design_with_near_collinearity(seed, n_forced, 10.0**-neg_log_eps)
    ws = random_workspace(ds, forced, seed)
    idx, cols, norm2 = gathered(ds, range(ds.n_snps))
    s, t, _ = _project(ws, cols, norm2)
    gate = _gate(norm2)
    y_norm = float(np.sqrt(ds.trait @ ds.trait))
    # both sides hold s to rounding amplified by the conditioning of the
    # model they were projected against, which drops can only lower
    kappa = design_condition(ds, ws)
    rng = np.random.default_rng(seed)
    for _ in range(n_drops):
        if len(ws.snps) < 2:
            break
        j = int(rng.choice([k for k in ws.snps if k != 4]))  # column 13 stays collinear
        S, beta = ws.inverse_gram()
        k = ws.snps.index(j) + ws.m - len(ws.snps)
        r_before = ws.residual.copy()
        w, d = ws.drop_direction(j)
        assert float(w @ w) == pytest.approx(1.0, abs=1e-12)
        # two triangular solves, equal in exact arithmetic, round ~1e-16 * kappa apart
        assert d == pytest.approx(beta[k] / math.sqrt(S[k, k]), rel=1e-9,
                                  abs=1e-12 * kappa * y_norm)
        ws.drop_snp(j)
        np.testing.assert_allclose(ws.residual, r_before + d * w, rtol=0,
                                   atol=1e-9 * kappa * y_norm)
        _restore(cols, s, t, w, d)

        fresh_s, fresh_t = project_two_products(ws, cols)
        assert np.all(np.abs(s - fresh_s) <= DOWNDATE_TOL * kappa * norm2)
        assert np.all(np.abs(t - fresh_t) <= DOWNDATE_TOL * kappa * np.sqrt(norm2) * y_norm)
        # s only grows on a drop, so a column in the span of the model that
        # is left stays at or below the gate
        assert s[13] <= gate[13]
        assert np.array_equal(s <= gate, fresh_s <= gate)


def fresh_projection(ws, j):
    """(s, t) of candidate j from one projection against the basis of ``ws``."""
    x = ws.dataset.float_values[:, j]
    z = x - ws.basis @ (ws.basis.T @ x)
    return float(z @ z), float(x @ ws.residual)


def record_key(r):
    return (r.stage, r.action, r.snp, r.model_size)


def forward_allowance(ds, forced, records):
    """Rounding allowance on each forward record's criterion value.

    The per-push walk's downdated s and t are good to DOWNDATE_TOL (see
    the projection test above), so each add's predicted RSS drop t^2/s may
    move by (2 |t| dt + t^2/s ds) / s; these accumulate along the walk, and the
    unknown-sigma criterion n log(RSS) turns them into n drift / RSS.
    """
    y_norm = float(np.sqrt(ds.trait @ ds.trait))
    ws = FitWorkspace(ds, forced)
    drift, out = 0.0, []
    for r in records:
        if r.action == "add":
            s, t = fresh_projection(ws, r.snp)
            norm2 = float(ws.dataset.float_values[:, r.snp] @ ws.dataset.float_values[:, r.snp])
            ds_, dt = DOWNDATE_TOL * norm2, DOWNDATE_TOL * np.sqrt(norm2) * y_norm
            drift += (2.0 * abs(t) * dt + t * t / s * ds_) / s
            ws.add_snp(r.snp)
        out.append(ds.n_individuals * drift / ws.rss)
    return out, ws


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0),
       st.integers(1, 14), st.floats(0.0, 2.0))
@settings(max_examples=150, deadline=None)
def test_blocked_forward_matches_per_push_oracle(seed, n_forced, neg_log_eps, max_forward,
                                                 effect):
    ds, forced, order = strong_design(seed, n_forced, 10.0**-neg_log_eps, effect)
    crit = CriterionConfig("bic", n=ds.n_individuals, p_effective=ds.n_snps)
    config = SearchConfig(criterion=crit, max_forward_size=max_forward)
    block = gathered(ds, order)
    runs = []
    for blocked in (True, False):
        ws = FitWorkspace(ds, forced)
        ev, trace = _CriterionEval(crit, ws.rss_base), SearchTrace()
        if blocked:
            # blocks of 3 so that walks cross block boundaries
            with mock.patch.object(gwasel.search, "FORWARD_BLOCK", 3):
                _forward(ws, *block, config, ev, trace)
        else:
            forward_by_pushes(ws, *block, config, ev, trace)
        runs.append(trace.records)
    got, want = runs
    allowance, _ = forward_allowance(ds, forced, want)
    for i, (r, r_o) in enumerate(itertools.zip_longest(got, want)):
        if r is None or r_o is None or record_key(r) != record_key(r_o):
            # allowed only where the first candidate the two walks treat
            # differently has a fresh s within rounding of the collinearity gate
            j = min((q.snp for q in (r, r_o) if q is not None), key=order.index)
            _, ws = forward_allowance(ds, forced, got[:i])
            s = fresh_projection(ws, j)[0]
            norm2 = float(ws.dataset.float_values[:, j] @ ws.dataset.float_values[:, j])
            gate = float(_gate(norm2))
            assert abs(s - gate) <= DOWNDATE_TOL * norm2, (r, r_o)
            return
        if r_o.criterion_value is None:
            assert r.criterion_value is None
        else:
            tol = 1e-12 * abs(r_o.criterion_value) + allowance[i]
            assert abs(r.criterion_value - r_o.criterion_value) <= tol, (r, r_o)


def collinear_design(seed):
    """Genotypes with two copies of column 1 and a trait on column 1, every
    column in order."""
    rng = np.random.default_rng(seed)
    values = random_genotypes(rng, 50, 8)
    values[:, 3] = values[:, 1]
    values[:, 6] = values[:, 1]
    y = 2.0 * values[:, 1] + values[:, 5] + rng.normal(size=50)
    return dataset_from_values(values, trait=y), (), list(range(8))


@pytest.mark.parametrize("block_size", [3, 128])
@pytest.mark.parametrize("seed, eps", [*((seed, None) for seed in range(3)),
                                       *((seed, eps) for seed in range(5)
                                         for eps in (1e-3, 1e-7))])
def test_forward_records_match_the_per_push_oracle(seed, eps, block_size):
    # forward hands each add the block product as its first Gram-Schmidt pass;
    # the oracle's adds project afresh, and both take the same decisions
    ds, forced, order = (collinear_design(seed) if eps is None
                         else strong_design(seed, 1, eps, 1.0))
    crit = CriterionConfig("bic", n=ds.n_individuals, p_effective=ds.n_snps)
    config = SearchConfig(criterion=crit)
    runs = []
    for walk in (_forward, forward_by_pushes):
        ws = FitWorkspace(ds, forced)
        trace = SearchTrace()
        with mock.patch.object(gwasel.search, "FORWARD_BLOCK", block_size):
            walk(ws, *gathered(ds, order), config, _CriterionEval(crit, ws.rss_base), trace)
        runs.append([record_key(r) for r in trace.records])
    assert runs[0] == runs[1]
    assert any(key[1] == "add" for key in runs[0])
    if eps is None:
        assert [key[2] for key in runs[0] if key[1] == "skip_collinear"] == [3, 6]


# ---------------------------------------------------------------------------
# backward / stepwise
# ---------------------------------------------------------------------------


def backward_rebuilt(ws, ev, trace, stage="backward", path=None):
    """``_backward`` with ``ws`` rebuilt from the survivors, as refinement's
    fallback does; the model left."""
    survivors = _backward(ws, ev, trace, stage, path)
    if survivors is not None:
        ws.rebuild(survivors)
    return ws.model()


def test_backward_drops_noise_snp_vs_submodel_oracle():
    ds = synthetic_dataset(500, 2, seed=6)
    sim = SimulationConfig((0,), (1.0,), sigma=1.0, seed=7)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    crit = CriterionConfig("mbic", n=500, p_effective=2)
    ws = workspace_for(dsy, ModelSpec((0, 1)))
    model = backward_rebuilt(ws, _CriterionEval(crit, ws.rss_base), SearchTrace())

    best = exhaustive_minimizer(dsy, crit, 2)
    assert model.snp_indices == best[2] == (0,)


def test_backward_fixed_point():
    ds = synthetic_dataset(400, 3, seed=8)
    sim = SimulationConfig((0, 1, 2), (1.0, 1.2, 0.9), sigma=1.0, seed=9)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    cfg = make_config("mbic", dsy)
    ws = workspace_for(dsy, ModelSpec((0, 1, 2)))
    ev = _CriterionEval(cfg.criterion, ws.rss_base)
    trace = SearchTrace()
    assert _backward(ws, ev, trace) is None
    model = ws.model()
    assert model.snp_indices == (0, 1, 2)
    assert _stepwise(ws, *gathered(dsy, [0, 1, 2]), ev, trace).snp_indices == (0, 1, 2)
    assert trace.records == []


def design_with_near_collinearity(seed, n_forced, eps):
    """Genotypes with a duplicated column and a column one entry away from
    another, and a forced covariate equal to x0 + x1 up to noise of scale
    ``eps``."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(30, 80)), 14
    values = random_genotypes(rng, n, p)
    values[:, 13] = values[:, 4]
    values[:, 12] = values[:, 5]
    values[0, 12] = (values[0, 5] + 2) % 3 - 1
    cov = rng.normal(size=(n, 2))
    cov[:, 0] = values[:, 0] + values[:, 1] + eps * rng.normal(size=n)
    y = values[:, 2:5] @ rng.normal(0.0, 0.4, size=3) + rng.normal(size=n)
    order = [int(j) for j in rng.permutation(p)[: int(rng.integers(4, p + 1))]]
    ds = dataset_from_values(values, trait=y, covariates=cov)
    return ds, tuple(range(n_forced)), order


def strong_design(seed, n_forced, eps, effect):
    """design_with_near_collinearity with the effects of the first half of its
    column order raised by ``effect``, and that column order."""
    ds, forced, order = design_with_near_collinearity(seed, n_forced, eps)
    y = ds.trait + effect * ds.float_values[:, order[: len(order) // 2]].sum(axis=1)
    return ds.with_trait(y), forced, order


def filled_workspace(ds, forced, order):
    ws = FitWorkspace(ds, forced)
    for j in order:
        try:
            ws.add_snp(j)
        except CollinearityError:
            pass
    return ws


def assert_backward_matches_oracle(ds, forced, order, crit):
    runs = []
    for backward in (backward_rebuilt, backward_by_drops):
        ws = filled_workspace(ds, forced, order)
        trace = SearchTrace()
        model = backward(ws, _CriterionEval(crit, ws.rss_base), trace)
        runs.append((ws, model, trace.records))
    (ws, model, records), (ws_o, model_o, records_o) = runs
    assert model == model_o
    assert ws.snps == ws_o.snps
    assert ([(r.stage, r.action, r.snp, r.model_size) for r in records]
            == [(r.stage, r.action, r.snp, r.model_size) for r in records_o])
    for r, r_o in zip(records, records_o):
        assert r.criterion_value == pytest.approx(r_o.criterion_value, rel=1e-9)
    assert ws.rss == pytest.approx(lstsq_rss(ds, ws.snps, forced)[0], rel=1e-8)
    return records


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0),
       st.sampled_from(["mbic", "mbic2", "bic"]), st.booleans(), st.integers(14, 5000))
@settings(max_examples=80, deadline=None)
def test_backward_sweeps_match_per_drop_oracle(seed, n_forced, neg_log_eps, kind, log_mode,
                                               p_effective):
    ds, forced, order = design_with_near_collinearity(seed, n_forced, 10.0**-neg_log_eps)
    crit = CriterionConfig(kind, n=ds.n_individuals, p_effective=p_effective,
                           sigma=None if log_mode else 1.0)
    assert_backward_matches_oracle(ds, forced, order, crit)
    assert_backward_sweeps_in_place(ds, forced, order, crit)


def assert_backward_sweeps_in_place(ds, forced, order, crit):
    """The in-place sweep against the sweep on compacted arrays: the same
    records to the last bit and the same final workspace."""
    runs = []
    for backward in (backward_rebuilt, backward_by_deletes):
        ws = filled_workspace(ds, forced, order)
        trace = SearchTrace()
        model = backward(ws, _CriterionEval(crit, ws.rss_base), trace)
        runs.append((model, ws.snps, ws.rss, trace.records))
    assert runs[0] == runs[1]
    return runs[0][3]


@pytest.mark.parametrize("log_mode", [True, False])
def test_backward_rebuilds_when_a_sweep_loses_its_pivot(monkeypatch, log_mode):
    # x0 and x1 each sit within 1e-7 of the span of the other and the forced
    # x0 + x1 + noise, so S_00 and S_11 are ~1e14 times their values once
    # either is dropped: the downdate that drops one cancels the other's pivot
    ds, forced, order = design_with_near_collinearity(3, 1, 1e-7)
    order = [0, 1, 6, 7, 8, 9]
    crit = CriterionConfig("mbic", n=ds.n_individuals, p_effective=5000,
                           sigma=None if log_mode else 1.0)
    inversions = []
    inverse_gram = FitWorkspace.inverse_gram

    def counted(self):
        inversions.append(list(self.snps))
        return inverse_gram(self)

    monkeypatch.setattr(FitWorkspace, "inverse_gram", counted)
    records = assert_backward_matches_oracle(ds, forced, order, crit)
    dropped = [r.snp for r in records]
    assert {0, 1} & set(dropped)
    assert len(inversions) >= 2  # the stage start and at least one guarded rebuild
    assert assert_backward_sweeps_in_place(ds, forced, order, crit) == records


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_first_min_picks_as_the_lexsort_on_tied_values(data):
    # few distinct values, so most draws tie at the minimum; keys are
    # distinct SNP indices in any order, as stepwise's candidates are
    size = data.draw(st.integers(1, 40))
    pool = data.draw(st.lists(st.sampled_from([-math.inf, -3.5, 0.0, 0.25, 1e300]),
                              min_size=1, max_size=3))
    vals = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    keys = np.array(data.draw(st.permutations(range(size + data.draw(st.integers(0, 5))))))
    keys = keys[:size].astype(np.int64)
    assert _first_min(vals, keys) == int(np.lexsort((keys, vals))[0])


def saturated_design(seed, n_forced, exact):
    """Genotypes with as many columns as individuals, a duplicated column and
    a column one entry away from another, and a column order that fills
    the model to the search's size cap.  With ``exact`` the trait is
    x0 + x1 exactly, so every model holding both fits it to rounding and
    its drop RSS fall below the log criteria's floor."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 25))
    values = random_genotypes(rng, n, n)
    values[:, 7] = values[:, 3]
    values[:, 8] = values[:, 4]
    values[0, 8] = (values[0, 4] + 2) % 3 - 1
    cov = rng.normal(size=(n, 2))
    x = values.astype(np.float64)
    y = x[:, 0] + x[:, 1] if exact else x[:, :3] @ rng.normal(0.0, 0.5, size=3) + rng.normal(size=n)
    order = [0, 1, *(int(j) for j in rng.permutation(np.arange(2, n)))]
    order = order[: n - n_forced - 2]  # the search's cap, _max_snps
    return dataset_from_values(values, trait=y, covariates=cov), tuple(range(n_forced)), order


def state_of(ds, forced, order):
    """A ForwardState whose forward model holds ``order`` (collinear columns
    skipped), as the default SearchConfig would start from it."""
    ws = filled_workspace(ds, forced, order)
    idx = np.asarray(order, dtype=np.int64)
    cols = ds.columns(idx)
    return ForwardState(ds, 0.15, 140, ws, idx, cols, np.einsum("ij,ij->j", cols, cols), ())


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from(["near", "noise", "exact"]),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_shared_backward_path_cut_per_criterion_is_each_own_elimination(seed, n_forced, design,
                                                                        log_mode, random):
    # an exact fit with sigma known is the tie of the next test but one
    assume(log_mode or design != "exact")
    if design == "near":
        ds, forced, order = design_with_near_collinearity(seed, n_forced, 1e-5)
    else:
        ds, forced, order = saturated_design(seed, n_forced, design == "exact")
    state = state_of(ds, forced, order)
    before = state_arrays(state)
    n = ds.n_individuals
    crits = [CriterionConfig(kind, n=n, p_effective=p_eff, kappa=0.5,
                             sigma=None if log_mode else sigma)
             for kind in ("bic", "mbic", "mbic2", "ebic") for p_eff in (60, 5000)
             for sigma in (0.8, 1.0)]
    random.shuffle(crits)  # whichever walk comes first extends the path
    walks = []
    for crit in crits:
        ev = _CriterionEval(crit, state.ws.rss_base)
        runs = []
        for backward in (backward_rebuilt, backward_by_deletes):
            ws = state.ws.copy()
            trace = SearchTrace()
            kw = {"path": state.backward_path(ev)} if backward is backward_rebuilt else {}
            model = backward(ws, ev, trace, **kw)
            runs.append((model, ws.snps, ws.rss, trace.records))
        assert runs[0] == runs[1]  # record for record, to the last bit
        walks.append(len(runs[0][3]))
    path = state.backward_path(ev)
    # as far as the longest walk read: its drops and the step that stopped it
    assert len(path.steps) == min(max(walks) + 1, len(state.ws.snps))
    for got, want in zip(state_arrays(state), before):
        assert np.array_equal(got, want)


def test_saturated_exact_design_ranks_drops_at_the_floor():
    # the trait is x0 + x1: every further drop leaves an RSS of rounding
    # size, below the floor, where the log criteria value all drops alike
    # and the largest SNP index goes first
    ds, forced, order = saturated_design(5, 0, exact=True)
    state = state_of(ds, forced, order)
    crit = CriterionConfig("mbic", n=ds.n_individuals, p_effective=5000)
    ev = _CriterionEval(crit, state.ws.rss_base)
    trace = SearchTrace()
    model = backward_rebuilt(state.ws.copy(), ev, trace, path=state.backward_path(ev))
    assert model.snp_indices == (0, 1)
    floored = [r.snp for r in trace.records[:-1]]  # the last drop leaves x0 or x1 alone
    assert len(floored) >= 2 and floored == sorted(floored, reverse=True)


def test_exact_fit_with_sigma_known_ties_every_drop():
    # With sigma known there is no floor: the drop RSS of rounding size are
    # absorbed by the penalty, so every drop takes one criterion value.
    # Elimination by criterion value then drops the largest SNP index, the
    # path the smallest RSS; both end at the same model and RSS.
    ds, forced, order = saturated_design(5, 0, exact=True)
    state = state_of(ds, forced, order)
    crit = CriterionConfig("mbic", n=ds.n_individuals, p_effective=5000, sigma=1.0)
    ev = _CriterionEval(crit, state.ws.rss_base)
    runs = []
    for backward in (backward_rebuilt, backward_by_deletes):
        ws = state.ws.copy()
        trace = SearchTrace()
        runs.append((backward(ws, ev, trace), ws.rss, [r.snp for r in trace.records]))
    (model, rss, drops), (model_o, rss_o, drops_o) = runs
    assert (model, rss) == (model_o, rss_o)
    assert drops != drops_o and sorted(drops) == sorted(drops_o)
    assert drops_o[:-1] == sorted(drops_o[:-1], reverse=True)
    # stepwise drops by the same rule: from the forward model its first drop
    # is the one of smallest RSS, where the value-ranked oracle takes the
    # largest SNP index at the same criterion value
    ws = state.ws.copy()
    snps = np.asarray(ws.snps, dtype=np.int64)
    drop_rss = _drop_rss(ws.rss, *ws.inverse_gram(), slice(ws.m - snps.size, None))
    val_o, j_o = _best_drop(ws, ev)
    trace = SearchTrace()
    _stepwise(ws, *gathered(ds, []), ev, trace)
    first = trace.records[0]
    assert (first.stage, first.action) == ("stepwise", "drop")
    assert first.snp == int(snps[drop_rss.argmin()]) != j_o == snps.max()
    assert first.criterion_value == val_o


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from(["near", "noise"]),
       st.sampled_from(["bic", "mbic", "mbic2"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_smallest_drop_is_the_value_ranked_drop_where_no_values_tie(seed, n_forced, design,
                                                                     kind, log_mode):
    if design == "near":
        ds, forced, order = design_with_near_collinearity(seed, n_forced, 1e-5)
    else:
        ds, forced, order = saturated_design(seed, n_forced, exact=False)
    ws = filled_workspace(ds, forced, order)
    crit = CriterionConfig(kind, n=ds.n_individuals, p_effective=5000,
                           sigma=None if log_mode else 1.0)
    ev = _CriterionEval(crit, ws.rss_base)
    snps = np.asarray(ws.snps, dtype=np.int64)
    drop_rss = _drop_rss(ws.rss, *ws.inverse_gram(), slice(ws.m - snps.size, None))
    vals = ev.value_array(drop_rss, snps.size - 1)
    assume(np.unique(vals).size == vals.size)
    pick = _smallest_drop(drop_rss, -snps, ev.tie_floor)
    assert (float(vals[pick]), int(snps[pick])) == _best_drop(ws, ev)


@pytest.mark.parametrize("log_mode", [True, False])
def test_path_reinverts_on_a_private_copy(log_mode):
    # x0 and x1 each sit within 1e-7 of the span of the other and the forced
    # x0 + x1 + noise, so dropping one cancels the other's pivot and the
    # path re-inverts S from a rebuilt copy of the forward workspace
    ds, forced, _ = design_with_near_collinearity(3, 1, 1e-7)
    state = state_of(ds, forced, [0, 1, 6, 7, 8, 9])
    before = state_arrays(state)
    outs = {}
    for kind in ("mbic", "mbic2", "mbic"):
        crit = CriterionConfig(kind, n=ds.n_individuals, p_effective=5000,
                               sigma=None if log_mode else 1.0)
        ev = _CriterionEval(crit, state.ws.rss_base)
        ws = state.ws.copy()
        trace = SearchTrace()
        model = backward_by_deletes(ws, ev, trace)
        out = select_model(ds, SearchConfig(criterion=crit), _state=state)
        assert out[2].accepted("backward") == trace.accepted("backward")
        assert out[0] == outs.setdefault(kind, out[0])
        assert model.snp_indices != (0, 1, 6, 7, 8, 9)
    assert state.backward_path(ev)._own is not None  # the guard tripped
    for got, want in zip(state_arrays(state), before):
        assert np.array_equal(got, want)


def test_stepwise_trace_strictly_decreases():
    ds = synthetic_dataset(150, 40, seed=10)
    sim = SimulationConfig((5, 20), (0.8, 1.0), sigma=1.0, seed=11)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    _, _, trace = select_model(dsy, make_config("mbic2", dsy))
    by_stage: dict[str, list[float]] = {}
    for rec in trace.accepted():
        by_stage.setdefault(rec.stage, []).append(rec.criterion_value)
    assert by_stage  # at least one accepted move somewhere
    for stage, vals in by_stage.items():
        if stage == "forward":
            continue  # the seeding add may sit above later BIC values
        assert all(b < a for a, b in zip(vals, vals[1:])), stage


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def test_refine_no_extras_small_incumbent_picks_best_subset():
    rng = np.random.default_rng(12)
    ds = synthetic_dataset(200, 6, seed=12)
    sim = SimulationConfig((1,), (1.5,), sigma=1.0, seed=13)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    crit = CriterionConfig("mbic2", n=200, p_effective=6)
    cfg = SearchConfig(criterion=crit)
    incumbent = ModelSpec((1, 3, 4))
    refined = refine_subsets(dsy, incumbent, (), cfg)
    subsets = [s for s in powerset((1, 3, 4))]
    best = min(
        ((value_of(dsy, crit, s), len(s), s) for s in subsets if value_of(dsy, crit, s) is not None)
    )
    assert refined.snp_indices == best[2]


def powerset(items):
    out = []
    for size in range(len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return out


def value_of(dataset, crit, subset):
    res = fit(dataset, ModelSpec(tuple(subset)))
    if res.rss <= 0.0:
        return None
    return evaluate(crit, res.rss, len(subset))


def test_refine_dominant_snp_exhaustive_oracle():
    rng = np.random.default_rng(14)
    ds = synthetic_dataset(300, 10, seed=14)
    sim = SimulationConfig((4,), (2.0,), sigma=1.0, seed=15)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    crit = CriterionConfig("mbic2", n=300, p_effective=10)
    cfg = SearchConfig(criterion=crit)
    refined = refine_subsets(dsy, ModelSpec((4,)), tuple(j for j in range(10) if j != 4), cfg)
    best = exhaustive_minimizer(dsy, crit, 10)
    assert refined.snp_indices == best[2] == (4,)


def test_refine_large_combined_takes_backward_fallback():
    rng = np.random.default_rng(16)
    ds = synthetic_dataset(150, 30, seed=16)
    sim = SimulationConfig((2, 9), (1.2, 1.0), sigma=1.0, seed=17)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    cfg = make_config("mbic2", dsy)
    from gwasel.search import SearchTrace

    trace = SearchTrace()
    refined = refine_subsets(dsy, ModelSpec((2, 9)), tuple(range(30)), cfg, _trace=trace)
    assert any(r.action == "fallback_backward" for r in trace.records)
    assert set(refined.snp_indices) >= set()  # returns a valid model
    assert {2, 9} <= set(refined.snp_indices)


@pytest.mark.parametrize("extra", [-1, 30])
@pytest.mark.parametrize("trigger", [25, 1])  # the exhaustive path, the backward fallback
def test_refine_refuses_extras_outside_the_panel(extra, trigger):
    # -1 would otherwise alias column 29 and 30 end in a bare IndexError
    ds = synthetic_dataset(200, 30, seed=52)
    sim = SimulationConfig((3, 17), (1.0, 0.8), sigma=1.0, seed=53)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    with search_constants(EXHAUSTIVE_SIZE_CAP=min(trigger, 5)):
        cfg = make_config("mbic2", dsy, refinement_trigger=trigger)
        with pytest.raises(ValueError, match=rf"extra candidate {extra} is outside \[0, 30\)"):
            refine_subsets(dsy, ModelSpec((3,)), (extra, 17), cfg)


@pytest.mark.parametrize("extra", [-1, 30])
def test_select_refuses_extras_outside_the_panel_before_any_stage(extra, monkeypatch):
    ds = synthetic_dataset(200, 30, seed=52)
    sim = SimulationConfig((3, 17), (1.0, 0.8), sigma=1.0, seed=53)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))

    def must_not_run(*args, **kwargs):
        raise AssertionError("a search stage ran before the extra candidates were checked")

    monkeypatch.setattr(gwasel.search, "single_marker_scan", must_not_run)
    monkeypatch.setattr(gwasel.search, "forward_stage", must_not_run)
    with pytest.raises(ValueError, match=rf"extra candidate {extra} is outside \[0, 30\)"):
        select_model(dsy, make_config("mbic2", dsy), extra_candidates=(17, extra))


def test_refine_budget_error(monkeypatch):
    # a noise incumbent of 24 SNPs: the pruned walks finish after scoring a
    # few hundred of its 2^24 subsets, so only a small budget is exceeded
    rng = np.random.default_rng(18)
    values = random_genotypes(rng, 60, 30)
    y = rng.normal(size=60)
    ds = dataset_from_values(values, trait=y)
    cfg = make_config("mbic2", ds)
    incumbent = ModelSpec(tuple(range(24)))
    trace = SearchTrace()
    refine_subsets(ds, incumbent, (), cfg, _trace=trace)
    assert 0 < trace.stats["subsets_scored"] < 10**4
    monkeypatch.setattr(gwasel.search, "SUBSET_BUDGET", 10)
    with pytest.raises(BudgetError, match="scored more than 10 subsets"):
        refine_subsets(ds, incumbent, (), cfg)


def full_count(k, max_size):
    """Subsets of k columns with at most ``max_size`` of them, the empty one included."""
    return sum(math.comb(k, q) for q in range(min(k, max_size) + 1))


criterion_kinds = st.sampled_from(["bic", "mbic", "mbic2", "ebic"])


def criterion_for(kind, ds, known_sigma):
    return CriterionConfig(kind, n=ds.n_individuals, p_effective=5000,
                           sigma=1.0 if known_sigma else None, kappa=0.5)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0),
       st.floats(0.0, 3.0), criterion_kinds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_subset_bound_never_exceeds_the_best_subset_of_each_size(seed, n_forced, neg_log_eps,
                                                                 effect, kind, known_sigma):
    # a subtree the bound rules out never holds the itertools + lstsq minimum
    ds, forced, order = strong_design(seed, n_forced, 10.0**-neg_log_eps, effect)
    ws = filled_workspace(ds, forced, order[:9])
    k = len(ws.snps)
    crit = criterion_for(kind, ds, known_sigma)
    ev = _CriterionEval(crit, ws.rss_base)
    inc_val = ev.value(ws.rss, k)
    best_upto = np.inf
    for q in range(min(3, k - 1) + 1):
        best = min(ev.value(lstsq_rss(ds, sub, forced)[0], q)
                   for sub in itertools.combinations(ws.snps, q))
        best_upto = min(best_upto, best)
        for to_beat in (math.inf, inc_val):  # nothing to beat, the incumbent as refinement has it
            stats = dict.fromkeys(("subsets_scored", "subsets_skipped_by_bound"), 0)
            val, _ = _enumerate_best(ws, ws.snps, q, ev, to_beat, stats)
            assert stats["subsets_scored"] + stats["subsets_skipped_by_bound"] == full_count(k, q)
            if best_upto <= to_beat:
                assert val == pytest.approx(best_upto, rel=1e-9), q
            else:
                assert val >= best_upto - 1e-9 * abs(best_upto), q


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(2.0, 7.0),
       st.floats(0.0, 3.0), criterion_kinds, st.booleans(), st.integers(1, 4),
       st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_bounded_refine_matches_always_enumerate(seed, n_forced, neg_log_eps, effect, kind,
                                                 known_sigma, trigger, cap_below, n_extra):
    ds, forced, order = strong_design(seed, n_forced, 10.0**-neg_log_eps, effect)
    ws = filled_workspace(ds, forced, order)
    model = ws.model()
    rest = [j for j in range(ds.n_snps) if j not in ws.snps]
    extras = rest[:n_extra]
    runs = []
    for bounded in (True, False):
        trace = SearchTrace()
        work = ws.copy()
        with search_constants(EXHAUSTIVE_SIZE_CAP=max(trigger - cap_below, 1)):
            cfg = SearchConfig(criterion=criterion_for(kind, ds, known_sigma),
                               refinement_trigger=trigger)
            if bounded:
                refined = refine_subsets(ds, model, extras, cfg, _trace=trace, _ws=work)
            else:
                with unpruned():
                    refined = refine_subsets(ds, model, extras, cfg, _trace=trace, _ws=work)
        assert work.snps == ws.snps and work.rss == ws.rss  # the workspace is left as it was
        runs.append((refined, trace))
    (got, trace), (want, trace_o) = runs
    assert got == want
    assert trace.to_jsonl(ds.snp_ids) == trace_o.to_jsonl(ds.snp_ids)
    assert trace.stats["refine_fallbacks"] == trace_o.stats["refine_fallbacks"]
    scored, skipped = trace.stats["subsets_scored"], trace.stats["subsets_skipped_by_bound"]
    assert trace_o.stats["subsets_skipped_by_bound"] == 0
    # the bound also counts the collinear subsets of a skipped subtree
    assert scored <= trace_o.stats["subsets_scored"] <= scored + skipped


@given(st.integers(0, 2**32 - 1), criterion_kinds, st.booleans(), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_exhaustive_refine_matches_the_union_oracle(seed, kind, known_sigma, cap, above_cap,
                                                    n_extra):
    # an incumbent M larger than the cap plus extras E, on the exhaustive path:
    # the result is the (value, size, lexicographic) minimum over every subset
    # of M and the subsets of M + E up to the cap, by itertools + lstsq
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(40, 80)), 10
    values = random_genotypes(rng, n, p)
    assume(len({values[:, j].tobytes() for j in range(p)}) == p)
    assume(all(np.ptp(values[:, j]) > 0 for j in range(p)))
    order = [int(j) for j in rng.permutation(p)]
    incumbent = tuple(sorted(order[: cap + above_cap]))
    extras = tuple(sorted(order[cap + above_cap: cap + above_cap + n_extra]))
    # effects on a random share of the columns, so the best subset may be larger
    # than the cap or the incumbent itself
    effects = rng.uniform(0.3, 1.2, size=p) * (rng.random(p) < rng.uniform(0.3, 1.0))
    ds = dataset_from_values(values, trait=values @ effects + rng.normal(size=n))
    crit = criterion_for(kind, ds, known_sigma)
    with search_constants(EXHAUSTIVE_SIZE_CAP=cap):
        cfg = SearchConfig(criterion=crit, refinement_trigger=len(incumbent) + len(extras))
        trace = SearchTrace()
        got = refine_subsets(ds, ModelSpec(incumbent), extras, cfg, _trace=trace)
    assert trace.stats["refine_fallbacks"] == 0

    def value(sub):
        return evaluate(crit, lstsq_rss(ds, sub)[0], len(sub))

    union = set(powerset(incumbent)) | {
        sub for q in range(cap + 1)
        for sub in itertools.combinations(sorted(incumbent + extras), q)}
    keys = sorted((value(sub), len(sub), sub) for sub in union)
    want = keys[0]
    tol = 1e-9 * max(abs(want[0]), 1.0)
    assert value(got.snp_indices) == pytest.approx(want[0], abs=tol)
    if keys[1][0] - want[0] > tol:  # no near tie that rounding could swap
        assert got.snp_indices == want[2]


def test_bound_skips_the_enumeration_of_a_strong_model():
    ds = synthetic_dataset(300, 12, seed=50)
    causal = tuple(range(8))
    sim = SimulationConfig(causal, (1.0,) * 8, sigma=1.0, seed=51)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    cfg = SearchConfig(criterion=CriterionConfig("mbic2", n=300, p_effective=12),
                       refinement_trigger=6)
    trace = SearchTrace()
    refined = refine_subsets(dsy, ModelSpec(causal), (), cfg, _trace=trace)
    assert refined.snp_indices == causal
    # the bound rules out the whole walk: only the empty subset is scored
    assert trace.stats == {"subsets_scored": 1, "refine_fallbacks": 1,
                           "subsets_skipped_by_bound": full_count(8, 4) - 1}
    with unpruned():
        oracle = SearchTrace()
        assert refine_subsets(dsy, ModelSpec(causal), (), cfg, _trace=oracle) == refined
    assert oracle.stats["subsets_scored"] == full_count(8, 4)
    assert oracle.to_jsonl(dsy.snp_ids) == trace.to_jsonl(dsy.snp_ids)


# ---------------------------------------------------------------------------
# select_model
# ---------------------------------------------------------------------------


def test_select_single_strong_signal():
    ds = synthetic_dataset(300, 50, seed=19)
    sim = SimulationConfig((17,), (2.0,), sigma=1.0, seed=20)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    model, result, trace = select_model(dsy, make_config("mbic", dsy))
    assert model.snp_indices == (17,)
    assert result.p_value < 1e-6


@pytest.mark.parametrize("kind, trigger", [("mbic", 25), ("mbic2", 2)])
def test_select_fit_matches_a_fresh_fit(kind, trigger):
    # the fit comes from the search's own workspace when refinement keeps the model
    ds = synthetic_dataset(200, 60, seed=32)
    sim = SimulationConfig((4, 30, 51), (0.9, 1.1, 0.8), sigma=1.0, seed=33)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    with search_constants(EXHAUSTIVE_SIZE_CAP=min(trigger, 5)):
        model, result, trace = select_model(dsy, make_config(kind, dsy,
                                                             refinement_trigger=trigger))
    assert model.size >= 2
    assert trace.stats["refine_fallbacks"] == int(trigger == 2)
    want = fit(dsy, model)
    for name in ("rss", "mss", "intercept", "f_statistic", "p_value"):
        assert getattr(result, name) == pytest.approx(getattr(want, name), rel=1e-9), name
    assert result.snp_coefficients == pytest.approx(want.snp_coefficients, rel=1e-9)
    assert (result.df_model, result.df_resid, result.perfect_fit) == (
        want.df_model, want.df_resid, want.perfect_fit)


def test_select_null_mostly_empty():
    ds = synthetic_dataset(200, 500, seed=21)
    sim = SimulationConfig((), (), sigma=1.0, n_replicates=50, seed=22)
    cfg = make_config("mbic", ds)
    empties = 0
    for rep in range(50):
        dsy = ds.with_trait(simulate_trait(ds, sim, rep))
        model, _, _ = select_model(dsy, cfg)
        if model.size == 0:
            empties += 1
    assert empties >= 45


def test_select_never_worse_than_null_model():
    rng = np.random.default_rng(23)
    for inst in range(30):
        ds = synthetic_dataset(80, 15, seed=100 + inst)
        k = inst % 3
        causal = tuple(sorted(rng.choice(15, size=k, replace=False).tolist()))
        sim = SimulationConfig(causal, tuple(rng.uniform(0.2, 1.0, size=k)), seed=inst)
        dsy = ds.with_trait(simulate_trait(ds, sim, 0))
        crit = CriterionConfig("mbic2", n=80, p_effective=15)
        model, result, _ = select_model(dsy, SearchConfig(criterion=crit))
        null_rss = value_of(dsy, crit, ())
        if model.size == 0:
            continue
        assert evaluate(crit, result.rss, model.size) <= null_rss + 1e-9


def test_select_deterministic():
    ds = synthetic_dataset(120, 60, seed=24)
    sim = SimulationConfig((3, 40), (0.9, 1.1), sigma=1.0, seed=25)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    cfg = make_config("mbic2", dsy)
    m1, r1, t1 = select_model(dsy, cfg)
    m2, r2, t2 = select_model(dsy, cfg)
    assert m1 == m2
    assert r1.rss == r2.rss
    assert t1.records == t2.records


def test_select_fit_and_refine_leave_the_float_copy_unbuilt():
    # the workspace and the subset walk read the int8 codes, as the scan does
    rng = np.random.default_rng(5)
    values = random_genotypes(rng, 120, 60)
    y = values[:, [3, 17, 40]] @ np.array([1.0, 0.8, 0.6]) + rng.normal(size=120)
    ds = dataset_from_values(values, trait=y)
    cfg = make_config("mbic2", ds)
    model, _, trace = select_model(ds, cfg)
    assert model.size and trace.accepted("forward")
    assert "float_values" not in ds.__dict__
    fit(ds, model)
    assert "float_values" not in ds.__dict__
    refine_subsets(ds, model, (0, 1, 2), cfg)
    assert "float_values" not in ds.__dict__


def test_select_keeps_forced_covariates():
    rng = np.random.default_rng(26)
    values = random_genotypes(rng, 100, 20)
    cov = rng.normal(size=(100, 2))
    y = cov @ np.array([2.0, -1.0]) + 1.0 * values[:, 7] + rng.normal(size=100)
    ds = dataset_from_values(values, trait=y, covariates=cov)
    model, result, _ = select_model(ds, make_config("mbic", ds))
    assert model.forced_indices == (0, 1)
    assert 7 in model.snp_indices
    assert result.forced_coefficients.shape == (2,)


def test_select_matches_exhaustive_on_small_p():
    hits = 0
    rng = np.random.default_rng(27)
    for inst in range(10):
        ds = synthetic_dataset(100, 12, seed=200 + inst)
        k = inst % 4
        causal = tuple(sorted(rng.choice(12, size=k, replace=False).tolist()))
        sim = SimulationConfig(causal, tuple(rng.uniform(0.5, 1.2, size=k)), seed=inst)
        dsy = ds.with_trait(simulate_trait(ds, sim, 0))
        crit = CriterionConfig("mbic2", n=100, p_effective=12)
        model, _, _ = select_model(dsy, SearchConfig(criterion=crit, screen_threshold=1.0))
        best = exhaustive_minimizer(dsy, crit, 12)
        if model.snp_indices == best[2]:
            hits += 1
    assert hits >= 9


def test_select_with_fewer_snps_than_subset_cap():
    # p = 3 < EXHAUSTIVE_SIZE_CAP = 5: the subset step scores sizes 0..3 only
    ds = synthetic_dataset(120, 3, seed=30)
    sim = SimulationConfig((1,), (1.5,), sigma=1.0, seed=31)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    crit = CriterionConfig("mbic", n=120, p_effective=3)
    model, _, _ = select_model(dsy, SearchConfig(criterion=crit, screen_threshold=1.0))
    assert model.snp_indices == exhaustive_minimizer(dsy, crit, 3)[2] == (1,)


def test_trace_jsonl_export():
    ds = synthetic_dataset(150, 10, seed=28)
    sim = SimulationConfig((2,), (1.5,), sigma=1.0, seed=29)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    _, _, trace = select_model(dsy, make_config("mbic", dsy))
    text = trace.to_jsonl(dsy.snp_ids)
    for line in text.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"stage", "action", "snp_id", "criterion_value", "model_size"}


# ---------------------------------------------------------------------------
# forward stage shared between searches
# ---------------------------------------------------------------------------


def small_study(thresholds):
    ds = synthetic_dataset(150, 300, seed=40)
    sim = SimulationConfig((10, 120, 250), (0.6, 0.8, 0.5), sigma=1.0, n_replicates=3, seed=41)
    methods = [MethodSpec("bonferroni"), MethodSpec("bh")]
    for kind, thr in zip(("mbic", "mbic2"), thresholds):
        methods.append(MethodSpec(kind, search=make_config(kind, ds, screen_threshold=thr,
                                                           refinement_trigger=12)))
    return ds, sim, methods


@pytest.mark.parametrize("thresholds, forwards_per_replicate", [
    ((0.15, 0.15), 1),  # mBIC and mBIC2 share one forward stage
    ((0.15, 0.3), 2),   # different screens: one forward stage each
])
def test_run_study_matches_standalone_selects(monkeypatch, thresholds, forwards_per_replicate):
    import gwasel.search
    import gwasel.simulate

    ds, sim, methods = small_study(thresholds)
    forwards, traces = [], []
    forward, select = gwasel.search._forward, gwasel.simulate.select_model

    def counted_forward(*args):
        forwards.append(1)
        return forward(*args)

    def recorded_select(*args, **kwargs):
        out = select(*args, **kwargs)
        traces.append(out[2])
        return out

    monkeypatch.setattr(gwasel.search, "_forward", counted_forward)
    monkeypatch.setattr(gwasel.simulate, "select_model", recorded_select)
    report = run_study(ds, sim, methods)
    monkeypatch.undo()
    assert len(forwards) == forwards_per_replicate * sim.n_replicates

    engine = ScanEngine(ds)
    searches = [m for m in methods if m.search is not None]
    for rep in range(sim.n_replicates):
        y = simulate_trait(ds, sim, rep)
        dsy = ds.with_trait(y)
        for pos, spec in enumerate(searches):
            model, _, trace = select_model(dsy, spec.search, scan=engine.scan(y))
            assert report.detections[spec.kind][rep] == list(model.snp_indices)
            shared = traces[rep * len(searches) + pos]
            assert shared.to_jsonl(ds.snp_ids) == trace.to_jsonl(ds.snp_ids)
            assert shared.truncated == trace.truncated


def state_arrays(state):
    ws = state.ws
    m = ws.m
    return [ws._Q[:, :m].copy(), ws._R[:m, :m].copy(), ws._qty[:m].copy(), ws.residual.copy(),
            np.asarray(ws.snps), state.candidates.copy(), state.cols.copy(), state.norm2.copy()]


def test_shared_forward_state_is_left_unchanged():
    ds, sim, methods = small_study((0.15, 0.15))
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    mbic, mbic2 = (m.search for m in methods[2:])
    state = forward_stage(dsy, mbic, single_marker_scan(dsy))
    assert state.records and all(r.stage == "forward" for r in state.records)
    # gathered from the int8 codes: the float cache's columns to the bit
    assert state.cols.dtype == np.float64
    assert np.array_equal(state.cols, dsy.float_values[:, state.candidates])
    before = state_arrays(state)

    own = select_model(dsy, mbic2)
    first = select_model(dsy, mbic2, _state=state)
    select_model(dsy, mbic, _state=state)
    second = select_model(dsy, mbic2, _state=state)
    for out in (first, second):
        assert out[0] == own[0]
        assert out[2].records == own[2].records
    for got, want in zip(state_arrays(state), before):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, p, causal, effects, kind, seed, drops", [
    (400, 3, (0, 1, 2), (1.0, 1.2, 0.9), "mbic", 8, False),  # backward keeps the model whole
    (150, 40, (5, 20), (0.8, 1.0), "mbic2", 10, True),      # backward drops SNPs
])
def test_private_and_shared_state_selects_match_to_the_bit(n, p, causal, effects, kind, seed,
                                                           drops):
    ds = synthetic_dataset(n, p, seed=seed)
    sim = SimulationConfig(causal, effects, sigma=1.0, seed=seed + 1)
    dsy = ds.with_trait(simulate_trait(ds, sim, 0))
    cfg = make_config(kind, dsy)
    scan = single_marker_scan(dsy)
    outs = [select_model(dsy, cfg, scan=scan),
            select_model(dsy, cfg, scan=scan, _state=forward_stage(dsy, cfg, scan))]
    (model, result, trace), (model_s, result_s, trace_s) = outs
    assert bool(trace.accepted("backward")) == drops
    assert trace.to_jsonl(dsy.snp_ids) == trace_s.to_jsonl(dsy.snp_ids)
    assert model == model_s
    assert repr(result.rss) == repr(result_s.rss)
    assert repr(result.intercept) == repr(result_s.intercept)
    assert result.snp_coefficients.tobytes() == result_s.snp_coefficients.tobytes()


def test_forward_state_of_another_dataset_or_screen_is_refused():
    ds, sim, methods = small_study((0.15, 0.3))
    y = simulate_trait(ds, sim, 0)
    dsy = ds.with_trait(y)
    mbic, mbic2 = (m.search for m in methods[2:])
    state = forward_stage(dsy, mbic)
    with pytest.raises(ValueError, match="another dataset"):
        select_model(ds.with_trait(y), mbic, _state=state)
    with pytest.raises(ValueError, match="screen_threshold"):
        select_model(dsy, mbic2, _state=state)


@pytest.mark.parametrize("order", [("mbic", "mbic2"), ("mbic2", "mbic")])
def test_searches_sharing_a_backward_path_in_either_order_match_fresh_selects(order):
    ds, sim, methods = small_study((0.15, 0.15))
    cfgs = {m.kind: m.search for m in methods[2:]}
    for rep in range(sim.n_replicates):
        dsy = ds.with_trait(simulate_trait(ds, sim, rep))
        scan = single_marker_scan(dsy)
        state = forward_stage(dsy, cfgs["mbic"], scan)
        for kind in order:
            model, result, trace = select_model(dsy, cfgs[kind], scan=scan, _state=state)
            own_model, own_result, own_trace = select_model(dsy, cfgs[kind], scan=scan)
            assert model == own_model
            assert trace.records == own_trace.records
            assert result.rss == own_result.rss
        assert len(state._paths) == 1  # both log-mode criteria walk one path


# ---------------------------------------------------------------------------
# the desk design of ROADMAP.md: pinned traces and the stepwise branches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    """(dataset, simulation, scan engine, mBIC and mBIC2 configs) of the desk study."""
    n, p, k = 600, 10_000, 30
    ds = synthetic_dataset(n, p, seed=42)
    causal = tuple(np.linspace(0, p - 1, k).astype(int).tolist())
    sim = SimulationConfig(causal, tuple(effect_grid(k)), sigma=1.0, n_replicates=100, seed=7)
    cfgs = {kind: SearchConfig(criterion=CriterionConfig(kind, n=n, p_effective=p),
                               refinement_trigger=12) for kind in ("mbic", "mbic2")}
    return ds, sim, ScanEngine(ds), cfgs


def desk_replicate(desk, rep):
    """(dataset with the trait of replicate ``rep``, its scan)."""
    ds, sim, engine, _ = desk
    y = simulate_trait(ds, sim, rep)
    return ds.with_trait(y), engine.scan(y)


# sha256 of (stage, action, snp, model_size) of every record of the mBIC and
# mBIC2 selects of desk replicates 0-18, which share their forward stage as
# in run_study.  Criterion values are left out: they may move by rounding,
# while the records themselves are fixed by the tie-breaking rules.  These
# replicates make stepwise adds (0-5, 10, 18) and drops (10, 18).
DESK_TRACE_DIGEST = "6d0ccbcb17d115d241c3e95303b759b0e8cca85994a882fd619d16975d28c0f5"


def test_desk_trace_structure_is_pinned(desk):
    cfgs = desk[3]
    digest = hashlib.sha256()
    stepwise = Counter()
    for rep in range(19):
        dsy, scan = desk_replicate(desk, rep)
        state = forward_stage(dsy, cfgs["mbic"], scan)
        for cfg in cfgs.values():
            _, _, trace = select_model(dsy, cfg, scan=scan, _state=state)
            rows = [[r.stage, r.action, r.snp, r.model_size] for r in trace.records]
            digest.update(json.dumps(rows).encode() + b"\n")
            stepwise.update(r.action for r in trace.records if r.stage == "stepwise")
    assert stepwise["add"] and stepwise["drop"]
    assert digest.hexdigest() == DESK_TRACE_DIGEST


def test_desk_searches_sweep_the_forward_model_down_once(desk):
    # the path is as long as the longer walk of the two, not their sum:
    # each walk reads its drops and the step that stops it
    cfgs = desk[3]
    for rep in range(3):
        dsy, scan = desk_replicate(desk, rep)
        walks = {}
        shared = forward_stage(dsy, cfgs["mbic"], scan)
        for kind, cfg in cfgs.items():
            own = forward_stage(dsy, cfg, scan)
            _, _, trace = select_model(dsy, cfg, scan=scan, _state=own)
            walks[kind] = len(own._paths.popitem()[1].steps)
            assert walks[kind] == len(trace.accepted("backward")) + 1
            select_model(dsy, cfg, scan=scan, _state=shared)
        steps = len(shared._paths.popitem()[1].steps)
        assert steps == max(walks.values()) < sum(walks.values())


# sha256 of (stage, action, snp, model_size) of every record and the model of
# the mBIC and mBIC2 selects of desk replicates 0-4 at refinement_trigger 32,
# where every select refines on the exhaustive path (at trigger 12 every desk
# select takes the backward fallback).
DESK_EXHAUSTIVE_DIGEST = "8b12b7d81fe5628078073c4e37a1d658b60d6f314654b52703e5b280a58d6d17"


def test_desk_exhaustive_refinement_is_pinned(desk):
    cfgs = {kind: dataclasses.replace(cfg, refinement_trigger=32)
            for kind, cfg in desk[3].items()}
    digest = hashlib.sha256()
    fallbacks = 0
    for rep in range(5):
        dsy, scan = desk_replicate(desk, rep)
        state = forward_stage(dsy, cfgs["mbic"], scan)
        for cfg in cfgs.values():
            model, _, trace = select_model(dsy, cfg, scan=scan, _state=state)
            rows = [[r.stage, r.action, r.snp, r.model_size] for r in trace.records]
            digest.update(json.dumps([rows, list(model.snp_indices)]).encode() + b"\n")
            fallbacks += trace.stats["refine_fallbacks"]
    assert fallbacks == 0
    assert digest.hexdigest() == DESK_EXHAUSTIVE_DIGEST


@pytest.mark.parametrize("rep", [0, 4])
def test_default_mbic_refines_a_25_snp_incumbent(desk, rep):
    # with the default trigger, mBIC ends these replicates at 25 SNPs, whose
    # 2^25 subsets a predicted-count budget refused
    dsy, scan = desk_replicate(desk, rep)
    cfg = SearchConfig(criterion=desk[3]["mbic"].criterion)
    model, _, trace = select_model(dsy, cfg, scan=scan)
    stats = trace.stats
    assert model.size == 25 and stats["refine_fallbacks"] == 0
    assert stats["subsets_scored"] < 10**4
    # no extras: one walk over every subset of the incumbent
    assert stats["subsets_scored"] + stats["subsets_skipped_by_bound"] == 2**25


@pytest.mark.parametrize("limit", [1, 2])  # the cap reached on an add, on a drop
def test_stepwise_truncates_at_the_iteration_cap(desk, limit):
    cfg = desk[3]["mbic2"]
    dsy, scan = desk_replicate(desk, 10)
    _, _, full = select_model(dsy, cfg, scan=scan)
    moves = [(r.action, r.snp, r.criterion_value) for r in full.accepted("stepwise")]
    assert [m[0] for m in moves] == ["add", "drop", "drop"] and not full.truncated

    with search_constants(MAX_STEPWISE_ITERATIONS=limit):
        _, _, trace = select_model(dsy, cfg, scan=scan)
    steps = [(r.action, r.snp, r.criterion_value) for r in trace.records
             if r.stage == "stepwise"]
    assert steps == moves[:limit] + [("truncated", None, moves[limit - 1][2])]
    assert trace.truncated


def test_stepwise_recovers_from_a_collinear_pick(desk, monkeypatch):
    # the workspace refuses the first stepwise pick as collinear
    cfg = desk[3]["mbic2"]
    dsy, scan = desk_replicate(desk, 10)
    state = forward_stage(dsy, cfg, scan)
    refused = []
    add_snp = FitWorkspace.add_snp

    def refuse_first(self, j):
        if not refused:
            refused.append(j)
            raise CollinearityError(j)
        return add_snp(self, j)

    monkeypatch.setattr(FitWorkspace, "add_snp", refuse_first)
    _, _, trace = select_model(dsy, cfg, scan=scan, _state=state)
    monkeypatch.undo()
    steps = [(r.action, r.snp) for r in trace.records if r.stage == "stepwise"]
    assert refused == [2116]  # mBIC2's first stepwise add on this replicate
    assert [s for s in steps if s[0] == "skip_collinear"] == [("skip_collinear", 2116)]
    first_drop = next((i for i, s in enumerate(steps) if s[0] == "drop"), len(steps))
    assert ("add", 2116) not in steps[:first_drop]
    assert not trace.truncated
