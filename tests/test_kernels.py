"""The numpy kernels against the per-column and per-subset kernels they
replaced, which stay as their references in ``oracles.py``, and the subset
kernel against a direct itertools + lstsq enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwasel import _kernels
from gwasel.cluster import cluster_snps
from gwasel.errors import BudgetError
from gwasel.genotype import impute_missing
from gwasel.regress import _gate

from conftest import dataset_from_values, unpruned
from oracles import _best_subset_numpy, _impute_fill_numpy, _leader_cluster_numpy


def subset_rss(z, y, subset):
    cols = z[:, list(subset)]
    if cols.shape[1] == 0:
        return float(y @ y)
    beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
    r = y - cols @ beta
    return float(r @ r)


def criterion(pen, log_mode, n_obs, sigma2=1.7, floor=1e-12):
    """``values(rss, size)`` of the subset kernels: n*log(rss) or rss/sigma2, plus pen[size]."""
    def values(rss, size):
        if log_mode:
            return n_obs * np.log(np.maximum(rss, floor)) + pen[size]
        return rss / sigma2 + pen[size]

    return values


NO_BUDGET = 10**9


def subset_inputs(seed, s, cap, columns, log_mode):
    """Positional arguments of the subset kernels for a random problem, with
    nothing to beat and no budget."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(s + 5, 50))
    z = rng.normal(size=(n, s))
    if columns == "duplicate" and s >= 2:
        z[:, -1] = z[:, int(rng.integers(0, s - 1))]
    elif columns == "combination" and s >= 3:
        z[:, 2] = z[:, 0] - 0.5 * z[:, 1]
    y = z @ rng.normal(size=s) * rng.uniform(0.0, 1.5) + rng.normal(size=n)
    # the forced base (intercept) is already projected out
    z -= z.mean(axis=0)
    y -= y.mean()
    orig_norm2 = np.einsum("ij,ij->j", z, z) * rng.uniform(1.0, 2.0)
    pen = np.arange(s + 1) * rng.uniform(0.5, 6.0)
    return (z, y, float(y @ y), _gate(orig_norm2), min(cap, s),
            criterion(pen, log_mode, float(n)), math.inf, NO_BUDGET)


subset_problems = (
    st.integers(0, 2**32 - 1),
    st.sampled_from(["independent", "duplicate", "combination"]),
    st.booleans(),
)


@given(st.integers(1, 9), st.integers(0, 5), *subset_problems)
@settings(max_examples=300, deadline=None)
def test_best_subset_qr_matches_gram_schmidt(s, cap, seed, columns, log_mode):
    args = subset_inputs(seed, s, cap, columns, log_mode)
    z, y = args[:2]

    val_gs, idx_gs, n_gs, _ = _best_subset_numpy(*args)
    with unpruned():
        val_qr, idx_qr, n_qr, n_pruned = _kernels.best_subset(*args)

    assert (n_qr, n_pruned) == (n_gs, 0)
    assert val_qr == pytest.approx(val_gs, rel=1e-9)
    if list(idx_qr) != list(idx_gs):
        # only subsets spanning the same space tie exactly, and rounding
        # decides those ties in both kernels
        assert columns != "independent"
        assert len(idx_qr) == len(idx_gs)
        assert subset_rss(z, y, idx_qr) == pytest.approx(subset_rss(z, y, idx_gs), rel=1e-9)


def enumerate_subsets(z, y, cap, values):
    """Every full-rank subset of up to ``cap`` columns, scored by lstsq.

    Returns the (value, size, subset) minimum and the number scored.
    """
    best, n_eval = None, 0
    for size in range(cap + 1):
        for subset in itertools.combinations(range(z.shape[1]), size):
            if size and np.linalg.matrix_rank(z[:, subset]) < size:
                continue
            n_eval += 1
            key = (float(values(subset_rss(z, y, subset), size)), size, subset)
            if best is None or key < best:
                best = key
    return best, n_eval


@given(st.integers(1, 7), st.integers(0, 4), *subset_problems)
@settings(max_examples=200, deadline=None)
def test_best_subset_matches_itertools_lstsq_enumeration(s, cap, seed, columns, log_mode):
    args = subset_inputs(seed, s, cap, columns, log_mode)
    z, y, _, _, cap, values, _, _ = args
    val, idx, n_scored, n_pruned = _kernels.best_subset(*args)
    (want_val, want_size, want_subset), want_eval = enumerate_subsets(z, y, cap, values)

    # the bound counts every subset of a skipped subtree, collinear or not
    assert n_scored + n_pruned >= want_eval
    assert val == pytest.approx(want_val, rel=1e-9)
    assert len(idx) == want_size
    if columns == "independent":
        assert tuple(idx) == want_subset
        assert n_scored + n_pruned == want_eval


@given(st.integers(1, 9), st.integers(0, 5), *subset_problems,
       st.sampled_from(["inf", "above", "below"]))
@settings(max_examples=300, deadline=None)
def test_pruned_best_subset_matches_the_oracle(s, cap, seed, columns, log_mode, beat):
    args = subset_inputs(seed, s, cap, columns, log_mode)
    z, y = args[:2]
    want_val, want_idx, n_all, _ = _best_subset_numpy(*args)
    delta = 1e-7 * max(abs(want_val), 1.0)
    to_beat = {"inf": math.inf, "above": want_val + delta, "below": want_val - delta}[beat]
    val, idx, n_scored, n_pruned = _kernels.best_subset(*args[:6], to_beat, NO_BUDGET)

    # the budget counts the subsets the pruned walk scores beyond the empty one
    if n_scored > 1:
        with pytest.raises(BudgetError, match=f"scored more than {n_scored - 1} subsets"):
            _kernels.best_subset(*args[:6], to_beat, n_scored - 1)
    assert _kernels.best_subset(*args[:6], to_beat, n_scored)[2] == n_scored
    if beat == "below":
        # nothing beats to_beat, so the walk may stop short of the minimum,
        # but never returns a value below it
        assert val >= want_val - 1e-9 * abs(want_val)
        return
    with unpruned():
        full = _kernels.best_subset(*args)
    assert (val, list(idx)) == (full[0], list(full[1]))
    assert n_scored <= full[2]
    assert val == pytest.approx(want_val, rel=1e-9)
    if columns == "independent":
        assert list(idx) == list(want_idx)
        assert n_scored + n_pruned == n_all
    elif list(idx) != list(want_idx):
        assert len(idx) == len(want_idx)
        assert subset_rss(z, y, idx) == pytest.approx(subset_rss(z, y, want_idx), rel=1e-9)


def test_best_subset_qr_skips_exact_duplicate():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(30, 4))
    z[:, 3] = z[:, 1]
    y = 2.0 * z[:, 1] + 0.1 * rng.normal(size=30)
    args = (z, y, float(y @ y), _gate(np.einsum("ij,ij->j", z, z)), 4,
            criterion(np.arange(5.0), True, 30.0), math.inf, NO_BUDGET)
    with unpruned():
        _, _, n_eval, _ = _kernels.best_subset(*args)
    # 16 subsets of four columns; the 4 holding both copies are skipped
    assert n_eval == 16 - 4
    assert n_eval == _best_subset_numpy(*args)[2]


@pytest.mark.parametrize("cap, pen, expected", [
    (2, [0.0, 0.1, 100.0], [0]),      # {0}, {1}, {2} tie: siblings
    (2, [0.0, 100.0, 0.1], [0, 1]),   # every pair ties: siblings and cousins
    (3, [0.0, 100.0, 0.1, 100.0], [0, 1]),
])
def test_best_subset_exact_ties_go_to_smallest_subset(cap, pen, expected):
    z = np.zeros((5, 3))
    z[0, 0] = z[1, 1] = z[2, 2] = 1.0
    y = np.array([1.0, 1.0, 1.0, 0.5, 0.0])
    args = (z, y, float(y @ y), _gate(np.ones(3)), cap, criterion(np.asarray(pen), True, 5.0),
            math.inf, NO_BUDGET)
    for kernel in (_best_subset_numpy, _kernels.best_subset):
        assert list(kernel(*args)[1]) == expected


def ld_codes(rng, n, p, codes=(-1, 0, 1), keep=0.8):
    """Genotype codes where each column copies most of the previous one."""
    values = rng.choice(np.array(codes, dtype=np.int8), size=(n, p))
    for j in range(1, p):
        copy = rng.random(n) < keep
        values[copy, j] = values[copy, j - 1]
    return values


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 45),
    st.sampled_from([1, 2, 3, 6, 1000]),
    st.sampled_from([1, 2, 4, 7, 40]),
    st.sampled_from([1, 3, 64]),
    st.floats(0.0, 0.6),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_impute_fill_grouped_matches_reference(seed, n, p, window, n_predictors, chunk,
                                               missing, sparse, junk, two_codes,
                                               mostly_complete):
    rng = np.random.default_rng(seed)
    # two codes per column make code ties and exact |corr| ties common
    values = ld_codes(rng, n, p, codes=(0, 1) if two_codes else (-1, 0, 1))
    observed = rng.random((n, p)) >= missing
    if mostly_complete:
        # a random majority of columns has no missing call, as in a real
        # panel: the kernel's sums treat complete and incomplete columns apart
        observed[:, rng.permutation(p)[:int(rng.integers(p // 2 + 1, p + 1))]] = True
    if sparse:
        one = rng.integers(0, p)
        observed[:, one] = False
        observed[rng.integers(0, n), one] = True  # one observed call
        if rng.random() < 0.5:
            observed[:, rng.integers(0, p)] = False  # nothing to impute from
    if junk:
        values[~observed] = rng.integers(-128, 128, size=int((~observed).sum()))
    else:
        values[~observed] = 0

    ref, ref_bad = _impute_fill_numpy(values, ~observed, window, n_predictors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_IMPUTE_CHUNK", chunk)
        out, bad = _kernels.impute_fill(values, ~observed, window, n_predictors)

    assert bad == ref_bad
    assert np.array_equal(out, ref)


def impute_both(values, observed, window, n_predictors):
    ref = _impute_fill_numpy(values, ~observed, window, n_predictors)
    out = _kernels.impute_fill(values, ~observed, window, n_predictors)
    assert out[1] == ref[1]
    assert np.array_equal(out[0], ref[0])
    return out


@pytest.mark.parametrize("chunk", [1, 64])
def test_impute_fill_grouped_target_with_a_complete_window(chunk, monkeypatch):
    # column 20's window, 17..23, has no missing call but in column 20
    # itself; the columns far outside it have many
    monkeypatch.setattr(_kernels, "_IMPUTE_CHUNK", chunk)
    rng = np.random.default_rng(21)
    values = ld_codes(rng, 60, 41)
    observed = rng.random(values.shape) >= 0.2
    observed[:, 17:24] = True
    observed[rng.choice(60, size=9, replace=False), 20] = False
    out, bad = impute_both(values, observed, 3, 2)
    assert bad == -1
    assert np.array_equal(out[observed], values[observed])


@pytest.mark.parametrize("chunk", [1, 64])
def test_impute_fill_grouped_every_column_has_a_missing_call(chunk, monkeypatch):
    monkeypatch.setattr(_kernels, "_IMPUTE_CHUNK", chunk)
    rng = np.random.default_rng(22)
    values = ld_codes(rng, 50, 30)
    observed = rng.random(values.shape) >= 0.05
    observed[rng.integers(0, 50, size=30), np.arange(30)] = False
    assert (~observed).any(axis=0).all()
    out, bad = impute_both(values, observed, 4, 3)
    assert bad == -1


@pytest.mark.parametrize("n_predictors", [1, 2, 3, 4, 5])
def test_impute_fill_ranks_ties_at_the_predictor_cutoff(n_predictors):
    # Columns 1, 3, 4, 10, 12 and 13 are the same near-copy of the target
    # column 7, each with a different pair of rows swapped where the target
    # agrees, so over the target's observed rows all six have the same
    # integer sums and the same |corr|, the strongest in the window, but
    # different codes.  Columns 3 and 10 miss calls only where the target
    # does, which leaves their sums as they are.  The n_predictors-th
    # complete column of the ranking then lies inside this tie, which file
    # distance and index break.
    rng = np.random.default_rng(5)
    n, p, j = 48, 15, 7
    values = rng.integers(-1, 2, size=(n, p)).astype(np.int8)
    observed = np.ones((n, p), dtype=bool)
    target_missing = np.arange(0, n, 8)
    observed[target_missing, j] = False
    y = values[:, j]
    near_copy = y.copy()
    near_copy[rng.choice(n, size=10, replace=False)] = rng.integers(-1, 2, size=10)
    rows = np.setdiff1d(np.arange(n), target_missing)
    tied = (1, 3, 4, 10, 12, 13)
    for c in tied:
        col = near_copy.copy()
        a, b = next((a, b) for a, b in itertools.combinations(rng.permutation(rows), 2)
                    if y[a] == y[b] and col[a] != col[b])
        col[[a, b]] = col[[b, a]]
        values[:, c] = col
    for c in (3, 10):
        observed[target_missing[c % 4::2], c] = False
    sums = {(int(values[rows, c].sum()), int((values[rows, c] ** 2).sum()),
             int(values[rows, c].astype(int) @ y[rows])) for c in tied}
    assert len(sums) == 1
    assert len({values[:, c].tobytes() for c in tied}) == len(tied)
    values[~observed] = 0
    out, bad = impute_both(values, observed, 7, n_predictors)
    assert bad == -1


def test_impute_fill_grouped_keys_wide_predictor_sets():
    # Every one of 40 predictors counts in the pattern, beyond what a packed
    # base-4 int64 key could hold (32 digits).  The 32 best predictors copy
    # the target's one 1 and are 0 elsewhere, so every row agrees there;
    # only rows 2-4 also agree with row 0 on the 8 random predictors after
    # them, and they vote -1.
    rng = np.random.default_rng(13)
    values = np.zeros((40, 41), dtype=np.int8)
    values[1, :32] = values[1, 40] = 1
    values[:, 32:40] = rng.integers(-1, 2, size=(40, 8))
    values[2:5, 32:40] = values[0, 32:40]
    values[2:5, 40] = -1
    observed = np.ones_like(values, dtype=bool)
    observed[0, 40] = False
    ref = _impute_fill_numpy(values, ~observed, 1000, 40)
    out = _kernels.impute_fill(values, ~observed, 1000, 40)
    assert out[1] == ref[1] == -1
    assert ref[0][0, 40] == -1
    assert np.array_equal(out[0], ref[0])


@pytest.mark.parametrize("n_predictors", [1, 31, 32, 33, 40])
def test_impute_fill_vote_keys_across_the_compaction_boundary(n_predictors):
    # Rows copy one of six haplotypes over all 41 columns, so long predictor
    # patterns repeat and votes count real matches; 3% of the calls are
    # missing, which puts digit 3 in some keys.  A key holds 31 base-4
    # digits; past that the kernel ranks the keys and appends the rest.
    rng = np.random.default_rng(31)
    n, p = 120, 41
    haplotypes = rng.integers(-1, 2, size=(6, p)).astype(np.int8)
    values = haplotypes[rng.integers(0, 6, size=n)]
    noisy = rng.random((n, p)) < 0.1
    values[noisy] = rng.integers(-1, 2, size=int(noisy.sum()))
    observed = rng.random((n, p)) >= 0.03
    observed[rng.choice(n, size=15, replace=False), 20] = False
    values[~observed] = 0
    out, bad = impute_both(values, observed, 1000, n_predictors)
    assert bad == -1


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 30),
    st.integers(1, 60),
    st.sampled_from([1, 2, 5, 20, 1000]),
    st.sampled_from([1, 4, 16, 128]),
    st.sampled_from([0.2, 0.45, 0.7, 0.85, 1.0]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_leader_cluster_blocked_matches_reference(seed, n, p, window, block, threshold,
                                                  duplicates, degenerate):
    rng = np.random.default_rng(seed)
    values = ld_codes(rng, n, p, keep=rng.uniform(0.5, 0.95))
    if duplicates and p > 1:
        for j in rng.integers(1, p, size=p // 4 + 1):
            src = rng.integers(0, j)
            values[:, j] = values[:, src] * rng.choice(np.array([-1, 1], dtype=np.int8))
    if degenerate:
        values[:, rng.integers(0, p, size=p // 5 + 1)] = rng.integers(-1, 2)

    ref = _leader_cluster_numpy(values.astype(np.float64), threshold, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_CLUSTER_BLOCK", block)
        out = _kernels.leader_cluster(values, threshold, window)

    for got, want in zip(out, ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("threshold, clusters", [(0.5, [0, 1]), (np.nextafter(0.5, 0.0), [0, 0])])
def test_leader_cluster_correlation_at_the_threshold(threshold, clusters):
    # |R| of these two columns is 1/2 exactly: 4 * num**2 == vx * vy.  In
    # float64, centred and normalised, their product rounds to
    # 0.5000000000000001, which would join them at threshold 0.5.
    values = np.array([[1, 0], [0, -1], [-1, -1], [0, 0], [1, 1], [1, -1]], dtype=np.int8)
    x, y = values.T.astype(np.int64)
    n = values.shape[0]
    num = n * (x @ y) - x.sum() * y.sum()
    assert 4 * num * num == (n * (x @ x) - x.sum() ** 2) * (n * (y @ y) - y.sum() ** 2)
    for kernel in (_leader_cluster_numpy, _kernels.leader_cluster):
        cluster_id, reps, _ = kernel(values, threshold, 5)
        assert cluster_id.tolist() == clusters
        assert reps.tolist() == sorted(set(clusters))


def test_kernels_refuse_rows_past_float32_exactness(monkeypatch):
    monkeypatch.setattr(_kernels, "_EXACT_ROWS", 8)
    values = np.zeros((8, 3), dtype=np.int8)
    with pytest.raises(ValueError, match="fewer than 8"):
        _kernels.leader_cluster(values, 0.5, 5)
    with pytest.raises(ValueError, match="fewer than 8"):
        _kernels.impute_fill(values, np.zeros(values.shape, dtype=bool), 5, 4)
    _kernels.leader_cluster(values[:7], 0.5, 5)


def test_impute_fill_uses_grouped_kernel(monkeypatch):
    calls = []
    kernel = _kernels.impute_fill

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "impute_fill", spy)
    rng = np.random.default_rng(14)
    values = ld_codes(rng, 30, 8)
    mask = rng.random(values.shape) < 0.1
    values[mask] = 0
    ds = dataset_from_values(values, mask=mask)
    done = impute_missing(ds, window=3)
    assert len(calls) == 1
    assert done.genotypes.complete
    # the kernel converts and copies nothing: it gets the dataset's own
    # int8 codes and missing mask
    codes, missing = calls[0][:2]
    assert codes is ds.genotypes.values and codes.dtype == np.int8
    assert missing is ds.genotypes.missing_mask and missing.dtype == np.bool_
    assert codes.flags.c_contiguous and missing.flags.c_contiguous


def test_leader_cluster_uses_blocked_kernel_on_int8_codes(monkeypatch):
    calls = []
    kernel = _kernels.leader_cluster

    def spy(x, threshold, window):
        calls.append(x)
        return kernel(x, threshold, window)

    monkeypatch.setattr(_kernels, "leader_cluster", spy)
    ds = dataset_from_values(ld_codes(np.random.default_rng(15), 30, 12))
    cluster_snps(ds, 0.7, window=5)
    assert len(calls) == 1
    # the codes go in as they are: no float64 copy of the panel
    assert calls[0].dtype == np.int8
    assert "float_values" not in ds.__dict__
