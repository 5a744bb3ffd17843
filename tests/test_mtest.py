import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import mpmath
from scipy.stats import kstest

from gwasel.errors import CollinearityError
from gwasel.mtest import (
    SCAN_BLOCK,
    ScanEngine,
    _scan_blocks,
    ScanResult,
    benjamini_hochberg,
    bonferroni,
    scan_to_tsv,
    single_marker_scan,
)
from gwasel.regress import FitWorkspace, ModelSpec, fit
from gwasel.simulate import synthetic_dataset

from conftest import dataset_from_values, random_genotypes
from oracles import projected_residual_norms, scan_one_product


def scan_of(p_values):
    p = np.asarray(p_values, dtype=np.float64)
    return ScanResult(
        p_values=p,
        f_statistics=np.zeros_like(p),
        order=np.argsort(p, kind="stable").astype(np.int64),
        degenerate=np.zeros(p.shape, dtype=bool),
    )


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_perfect_predictor_gets_minimum_p():
    rng = np.random.default_rng(0)
    values = random_genotypes(rng, 40, 10)
    y = values[:, 4].astype(float)
    ds = dataset_from_values(values, trait=y)
    scan = single_marker_scan(ds)
    assert scan.order[0] == 4
    assert scan.p_values[4] == 0.0


def overflowing_trait():
    """A 30 x 8 panel and the trait x1 + N(0, 1) scaled by 1e200, whose
    centred sum of squares overflows float64."""
    ds = synthetic_dataset(30, 8, seed=1)
    y = ds.genotypes.values[:, 1] + np.random.default_rng(2).normal(size=30)
    return ds, 1e200 * y


def test_scan_and_workspace_refuse_a_trait_whose_sum_of_squares_overflows():
    ds, y = overflowing_trait()
    engine = ScanEngine(ds)
    with pytest.raises(ValueError, match="sum of squares is not finite"):
        engine.scan(y)
    with pytest.raises(ValueError, match="sum of squares is not finite"):
        FitWorkspace(ds.with_trait(y))
    # 1e150 squared and summed stays finite: scanned as at unit scale
    small = engine.scan(y * 1e-50)
    unit = engine.scan(y * 1e-200)
    assert np.array_equal(small.order, unit.order)
    np.testing.assert_allclose(small.p_values, unit.p_values, rtol=1e-9)


def test_scan_and_workspace_refuse_a_trait_whose_squares_may_underflow():
    ds = synthetic_dataset(30, 8, seed=1)
    y = ds.genotypes.values[:, 1] + np.random.default_rng(2).normal(size=30)
    engine = ScanEngine(ds)
    for scale in (2.0**-600, 1e-200, 2.0**-1000):
        with pytest.raises(ValueError, match="squares may underflow"):
            engine.scan(scale * y)
        with pytest.raises(ValueError, match="squares may underflow"):
            FitWorkspace(ds.with_trait(scale * y))
    # an all-zero trait is scanned as before: F = 0 and p = 1 for every SNP
    zero = engine.scan(np.zeros_like(y))
    assert np.all(zero.f_statistics == 0.0) and np.all(zero.p_values == 1.0)
    assert FitWorkspace(ds.with_trait(np.zeros_like(y))).rss_base == 0.0


def test_scan_null_uniform():
    rng = np.random.default_rng(1)
    values = random_genotypes(rng, 100, 1000)
    ds = dataset_from_values(values, trait=rng.normal(size=100))
    scan = single_marker_scan(ds)
    assert kstest(scan.p_values, "uniform").pvalue > 0.01


def test_scan_matches_per_snp_fits():
    rng = np.random.default_rng(2)
    values = random_genotypes(rng, 50, 20)
    cov = rng.normal(size=(50, 1))
    y = 0.6 * values[:, 3] + cov[:, 0] + rng.normal(size=50)
    ds = dataset_from_values(values, trait=y, covariates=cov)
    scan = single_marker_scan(ds)
    for j in range(20):
        res = fit(ds, ModelSpec((j,), forced_indices=(0,)))
        assert scan.f_statistics[j] == pytest.approx(res.f_statistic, rel=1e-9)
        assert scan.p_values[j] == pytest.approx(res.p_value, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("column", [np.full(200, 3.0), np.zeros(200)])
def test_scan_refuses_covariate_collinear_with_the_intercept(column):
    ds = synthetic_dataset(200, 50, seed=1)
    rng = np.random.default_rng(1)
    good = rng.normal(size=200)
    ds = dataset_from_values(ds.genotypes.values, trait=rng.normal(size=200),
                             covariates=np.column_stack([good, column]))
    with pytest.raises(CollinearityError, match="covariate 1 is collinear") as err:
        single_marker_scan(ds)
    assert err.value.column == 1


def test_scan_degenerate_column_flagged_not_fatal():
    rng = np.random.default_rng(3)
    values = random_genotypes(rng, 30, 5)
    values[:, 2] = 1
    ds = dataset_from_values(values, trait=rng.normal(size=30))
    scan = single_marker_scan(ds)
    assert scan.degenerate[2]
    assert scan.p_values[2] == 1.0
    assert not scan.degenerate[[0, 1, 3, 4]].any()


def test_scan_order_breaks_ties_by_index():
    scan = scan_of([0.5, 0.2, 0.5, 0.1])
    assert scan.order.tolist() == [3, 1, 0, 2]


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------


def test_bonferroni_paper_threshold():
    thr = 0.05 / 309788
    scan = scan_of([thr * 0.999, thr * 1.001, 0.5])
    rej = bonferroni(scan, 0.05, 309788)
    assert rej.tolist() == [0]
    assert thr == pytest.approx(1.614e-7, rel=1e-3)


def test_bonferroni_all_ones_empty():
    assert bonferroni(scan_of([1.0, 1.0, 1.0]), 0.05, 3).size == 0


def test_bonferroni_single_marker_plain_alpha():
    scan = scan_of([0.04])
    assert bonferroni(scan, 0.05, 1).tolist() == [0]
    assert bonferroni(scan_of([0.06]), 0.05, 1).size == 0


def test_bh_step_up_hand_case():
    rej = benjamini_hochberg(scan_of([0.001, 0.02, 0.03, 0.9]), 0.05)
    assert rej.tolist() == [0, 1, 2]


def test_bh_none_below_alpha():
    assert benjamini_hochberg(scan_of([0.2, 0.6, 0.9]), 0.05).size == 0


def test_bh_single_p_equals_bonferroni():
    for p in (0.04, 0.06):
        scan = scan_of([p])
        assert benjamini_hochberg(scan, 0.05).tolist() == bonferroni(scan, 0.05, 1).tolist()


def test_bh_rejects_ties_at_cutoff():
    scan = scan_of([0.01, 0.01, 0.9, 0.9])
    rej = benjamini_hochberg(scan, 0.05)
    assert rej.tolist() == [0, 1]


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.floats(0.01, 0.3))
@settings(max_examples=300, deadline=None)
def test_bonferroni_subset_of_bh(ps, alpha):
    scan = scan_of(ps)
    bonf = set(bonferroni(scan, alpha, len(ps)).tolist())
    bh = set(benjamini_hochberg(scan, alpha).tolist())
    assert bonf <= bh


@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
    st.integers(0, 39),
    st.floats(0.01, 0.3),
)
@settings(max_examples=300, deadline=None)
def test_monotone_in_p(ps, pos, alpha):
    pos = pos % len(ps)
    lowered = list(ps)
    lowered[pos] = lowered[pos] / 2.0
    for proc in (
        lambda s: bonferroni(s, alpha, len(ps)),
        lambda s: benjamini_hochberg(s, alpha),
    ):
        before = set(proc(scan_of(ps)).tolist())
        after = set(proc(scan_of(lowered)).tolist())
        assert before <= after


def test_null_fwer_bonferroni():
    rng = np.random.default_rng(9)
    values = random_genotypes(rng, 60, 200)
    ds = dataset_from_values(values, trait=np.zeros(60))
    engine = ScanEngine(ds)
    hits = 0
    reps = 1000
    for _ in range(reps):
        scan = engine.scan(rng.normal(size=60))
        if bonferroni(scan, 0.05, 200).size:
            hits += 1
    fwer = hits / reps
    se = np.sqrt(0.05 * 0.95 / reps)
    assert fwer <= 0.05 + 2 * se


def test_tsv_export():
    scan = scan_of([0.5, 0.1])
    text = scan_to_tsv(scan, ["a", "b"])
    lines = text.strip().split("\n")
    assert lines[0] == "snp_id\tf\tp\trank"
    assert lines[1].startswith("a\t") and lines[1].endswith("\t2")
    assert lines[2].startswith("b\t") and lines[2].endswith("\t1")


def test_engine_residual_norms_match_two_temporary_projection():
    # 4096-column blocks: 5000 columns span two, the second one partial
    rng = np.random.default_rng(10)
    n, p = 24, 5000
    values = random_genotypes(rng, n, p)
    ds = dataset_from_values(values, trait=rng.normal(size=n), covariates=rng.normal(size=(n, 2)))
    from gwasel.mtest import ScanEngine

    engine = ScanEngine(ds)
    X = ds.float_values
    want = np.empty(p)
    for start in range(0, p, 4096):
        block = X[:, start : start + 4096]
        z = block - engine.Q0 @ (engine.Q0.T @ block)
        want[start : start + 4096] = np.einsum("ij,ij->j", z, z)
    assert engine.m0 == 3
    assert np.array_equal(engine.s, want)


# ---------------------------------------------------------------------------
# the intercept-only engine against the explicit projection
# ---------------------------------------------------------------------------


@st.composite
def scan_panels(draw):
    """int8 panels mixing random, constant, single-minor-call and duplicated
    columns, with a seed for the trait."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "constant", "single", "duplicate"]),
                          min_size=1, max_size=12))
    cols = []
    for kind in kinds:
        if kind == "duplicate" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
            continue
        if kind == "random":
            col = random_genotypes(rng, n, 1)[:, 0]
        else:
            col = np.full(n, draw(st.sampled_from([-1, 0, 1])), dtype=np.int8)
            if kind == "single":
                col[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, 0, 1]))
        cols.append(col)
    return np.column_stack(cols).astype(np.int8), int(rng.integers(2**32))


def check_engine_against_oracle(values, trait_seed):
    n = values.shape[0]
    ds = dataset_from_values(values, trait=np.random.default_rng(trait_seed).normal(size=n))
    if n < 3:
        with pytest.raises(ValueError, match="too few observations"):
            ScanEngine(ds)
        return
    engine = ScanEngine(ds)
    want_s, want_degenerate = projected_residual_norms(ds, engine.Q0)
    assert np.array_equal(engine.degenerate, want_degenerate)
    codes = values.astype(np.int64)
    sx2 = (codes * codes).sum(axis=0).tolist()
    sx = codes.sum(axis=0).tolist()
    exact = [float(Fraction(n * a - b * b, n)) for a, b in zip(sx2, sx)]
    assert engine.s.tolist() == exact
    assert np.all(np.abs(engine.s - want_s) <= 1e-12 * np.array(sx2))
    scan = engine.scan(ds.trait)
    assert np.all(scan.p_values[engine.degenerate] == 1.0)
    for j in np.flatnonzero(~engine.degenerate):
        want_p = exact_scan_p(values[:, j], ds.trait)
        assert scan.p_values[j] == pytest.approx(want_p, rel=1e-9, abs=0.0)


def exact_scan_p(column, trait):
    """p of the F test of ``column`` in [1 | column] on ``trait``: F exact,
    in ``Fraction``s of the float inputs, and its tail from mpmath."""
    n = len(trait)
    x = [Fraction(int(v)) for v in column]
    y = [Fraction(float(v)) for v in trait]
    xm, ym = sum(x) / n, sum(y) / n
    sxx = sum((a - xm) ** 2 for a in x)
    sxy = sum((a - xm) * (b - ym) for a, b in zip(x, y))
    syy = sum((b - ym) ** 2 for b in y)
    mss = sxy * sxy / sxx
    rss = syy - mss
    if mss == 0:
        return 1.0
    if rss == 0:
        return 0.0
    df2 = n - 2
    f = mss * df2 / rss
    with mpmath.workdps(50):
        x = mpmath.mpf(df2) / (df2 + mpmath.mpf(f.numerator) / f.denominator)
        return float(mpmath.betainc(mpmath.mpf(df2) / 2, 0.5, 0, x, regularized=True))


@given(scan_panels())
@settings(max_examples=200, deadline=None)
def test_engine_closed_form_matches_projection_oracle(panel):
    check_engine_against_oracle(*panel)


def test_scan_p_stays_exact_at_a_near_perfect_fit():
    # Columns 0 and 1 span one space with the intercept and explain all but
    # ~6e-9 of the trait: rss0 - t²/s cancels there, so the scan takes
    # their RSS from the residual itself.
    values = np.array([[1, 0, -1, -1], [0, 1, 0, -1], [1, 0, 0, 0]], dtype=np.int8)
    trait = np.random.default_rng(918401227).normal(size=3)
    engine = ScanEngine(dataset_from_values(values, trait=trait))
    scan = engine.scan(trait)
    want = 5.0937040910386675e-05
    assert exact_scan_p(values[:, 0], trait) == pytest.approx(want, rel=1e-15)
    assert scan.p_values[:2] == pytest.approx([want, want], rel=1e-12, abs=0.0)
    assert_same_scan(scan, scan_one_product(engine, trait))
    check_engine_against_oracle(values, 918401227)


def test_engine_counts_stay_exact_past_int8_and_int16():
    # The counts add int8 sums of _COUNT_ROWS rows; 2^15 + 1 rows take
    # columns of ones and minus ones past both int8 and int16.
    n = 2**15 + 1
    values = np.zeros((n, 3), dtype=np.int8)
    values[:, 0] = 1
    values[:-1, 1] = -1
    values[::2, 2] = 1
    engine = ScanEngine(dataset_from_values(values, trait=np.zeros(n)))
    codes = values.astype(np.int64)
    sx2, sx = (codes * codes).sum(axis=0).tolist(), codes.sum(axis=0).tolist()
    assert engine.s.tolist() == [float(Fraction(n * a - b * b, n)) for a, b in zip(sx2, sx)]
    assert engine.degenerate.tolist() == [True, False, False]


def test_engine_closed_form_matches_projection_oracle_past_one_block():
    # 4097 columns: the oracle projects two blocks, the second of one column
    rng = np.random.default_rng(11)
    n = 30
    values = random_genotypes(rng, n, 4097)
    values[:, 7] = 1
    values[:, 4096] = 0
    values[:, 100] = -1
    values[5, 100] = 0  # a single minor call
    values[:, 2000] = values[:, 3]
    check_engine_against_oracle(values, 12)


def test_engine_without_covariates_leaves_float_copy_unbuilt():
    rng = np.random.default_rng(13)
    ds = dataset_from_values(random_genotypes(rng, 50, 300), trait=rng.normal(size=50))
    ScanEngine(ds)
    assert "float_values" not in ds.__dict__
    single_marker_scan(ds)
    assert "float_values" not in ds.__dict__


# ---------------------------------------------------------------------------
# the blocked scan against one product over the whole panel
# ---------------------------------------------------------------------------


@st.composite
def blocked_scan_cases(draw):
    """(values, trait, covariates) of p = SCAN_BLOCK·k + r columns, r = 0..3:
    the scan's last block is whole, or a tail that joins the block before."""
    n = draw(st.one_of(st.integers(5, 12), st.integers(300, 700)))
    p = SCAN_BLOCK * draw(st.integers(1, 2)) + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = random_genotypes(rng, n, p)
    values[:, draw(st.integers(0, p - 1))] = 0  # a degenerate column
    covariates = rng.normal(size=(n, draw(st.integers(1, 2)))) if draw(st.booleans()) else None
    return values, rng.normal(size=n), covariates


def blocked_scans(values, trait, covariates):
    """(engine, yt, scan) without and then with the float cache, the first
    checked to leave the cache unbuilt."""
    out = []
    for warm in (False, True):
        ds = dataset_from_values(values, trait=trait, covariates=covariates)
        if warm:
            ds.float_values
        engine = ScanEngine(ds)
        yt = trait - engine.Q0 @ (engine.Q0.T @ trait)
        out.append((engine, yt, engine.scan(trait)))
        assert warm or "float_values" not in ds.__dict__
    return out


def assert_same_scan(got, want):
    for name in ("f_statistics", "p_values", "order", "degenerate"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@given(blocked_scan_cases())
@settings(max_examples=30, deadline=None)
def test_blocked_scan_is_the_same_with_and_without_float_cache(case):
    (cold, cold_yt, cold_scan), (warm, warm_yt, warm_scan) = blocked_scans(*case)
    assert np.array_equal(cold.s, warm.s)
    assert np.array_equal(cold._t(cold_yt), warm._t(warm_yt))
    assert_same_scan(cold_scan, warm_scan)


@given(blocked_scan_cases())
@settings(max_examples=30, deadline=None, database=None)
def blocked_scan_equals_one_product(case):
    for engine, yt, scan in blocked_scans(*case):
        assert np.array_equal(engine._t(yt), engine.dataset.float_values.T @ yt)
        assert_same_scan(scan, scan_one_product(engine, case[1]))


def test_blocked_scan_equals_one_product_on_one_blas_thread():
    # With BLAS on several threads, one product over all columns and the
    # blocks split their columns between the threads at different places,
    # so the bit-for-bit comparison runs in a child on one thread.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                                                 str(here)]))
    script = "import test_mtest; test_mtest.blocked_scan_equals_one_product()"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]


@pytest.mark.parametrize("tail", [1, 2, 3])
def test_scan_tail_joins_the_block_before(tail):
    p = 2 * SCAN_BLOCK + tail
    assert _scan_blocks(p) == [(0, SCAN_BLOCK), (SCAN_BLOCK, p)]
    assert _scan_blocks(p + 4 - tail)[-1] == (2 * SCAN_BLOCK, p + 4 - tail)
    assert _scan_blocks(tail) == [(0, tail)]
