import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chi2, t as t_dist

from gwasel.criteria import CriterionConfig
from gwasel.errors import CollinearityError, DegenerateColumnError
from gwasel.regress import (
    REORTH_BELOW,
    FitWorkspace,
    ModelSpec,
    f_pvalue,
    fit,
    noncentrality_single_marker,
    workspace_for,
)
from gwasel.search import _CriterionEval, _drop_rss, _project

from conftest import dataset_from_values, hadamard_codes, random_genotypes
from oracles import _best_drop, lstsq_design, lstsq_rss


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_hand_example():
    ds = dataset_from_values(np.array([[-1], [0], [0], [1]]), trait=[1, 2, 3, 4])
    res = fit(ds, ModelSpec((0,)))
    assert res.intercept == pytest.approx(2.5)
    assert res.snp_coefficients[0] == pytest.approx(1.5)
    assert res.rss == pytest.approx(0.5)
    assert res.mss == pytest.approx(4.5)
    assert res.f_statistic == pytest.approx(18.0)
    assert res.df_model == 1 and res.df_resid == 2


def test_fit_constant_trait():
    ds = dataset_from_values(np.array([[-1], [0], [1], [0]]), trait=[3, 3, 3, 3])
    res = fit(ds, ModelSpec((0,)))
    assert res.mss == pytest.approx(0.0)
    assert res.f_statistic == 0.0
    assert res.p_value == 1.0


def test_fit_duplicate_column_collinear():
    rng = np.random.default_rng(0)
    values = random_genotypes(rng, 30, 4)
    values[:, 3] = values[:, 1]
    ds = dataset_from_values(values, trait=rng.normal(size=30))
    with pytest.raises(CollinearityError) as err:
        fit(ds, ModelSpec((1, 3)))
    assert err.value.column == 3


def test_fit_snp_collinear_with_a_forced_covariate():
    rng = np.random.default_rng(18)
    values = random_genotypes(rng, 40, 2)
    cov = np.column_stack([values[:, 0].astype(float), rng.normal(size=40)])
    ds = dataset_from_values(values, trait=rng.normal(size=40), covariates=cov)
    with pytest.raises(CollinearityError) as err:
        fit(ds, ModelSpec((0,), forced_indices=(0, 1)))
    assert err.value.column == 0


@pytest.mark.parametrize("j", [-1, 4])
def test_fit_refuses_snps_outside_the_panel(j):
    # -1 would otherwise fit column p - 1 and 4 end in a bare IndexError
    rng = np.random.default_rng(1)
    ds = dataset_from_values(random_genotypes(rng, 30, 4), trait=rng.normal(size=30))
    with pytest.raises(ValueError, match=rf"SNP {j} is outside \[0, 4\)"):
        fit(ds, ModelSpec((j,)))


@pytest.mark.parametrize("forced, bad", [((-1,), -1), ((2,), 2), ((0, -2), -2)])
def test_workspace_refuses_forced_covariates_outside_the_design(forced, bad):
    # with 2 covariates, -1 would otherwise fit covariate 1, 2 end in a bare
    # IndexError and (0, -2) be refused as collinear
    rng = np.random.default_rng(2)
    ds = dataset_from_values(random_genotypes(rng, 30, 4), trait=rng.normal(size=30),
                             covariates=rng.normal(size=(30, 2)))
    with pytest.raises(ValueError, match=rf"forced covariate {bad} is outside \[0, 2\)"):
        fit(ds, ModelSpec((3,), forced))
    with pytest.raises(ValueError, match=rf"forced covariate {bad} is outside \[0, 2\)"):
        FitWorkspace(ds, forced)


def test_fit_perfect_flag():
    values = np.array([[-1], [0], [1], [0]], dtype=np.int8)
    y = 2.0 * values[:, 0] + 1.0
    ds = dataset_from_values(values, trait=y)
    res = fit(ds, ModelSpec((0,)))
    assert res.perfect_fit
    assert res.p_value == 0.0


def test_pythagorean_identity():
    rng = np.random.default_rng(5)
    ds = dataset_from_values(random_genotypes(rng, 40, 6), trait=rng.normal(size=40))
    res = fit(ds, ModelSpec((0, 2, 5)))
    tss = float(((ds.trait - ds.trait.mean()) ** 2).sum())
    assert res.mss + res.rss == pytest.approx(tss, rel=1e-8)


def test_trait_rescaling_leaves_f_and_p():
    rng = np.random.default_rng(6)
    values = random_genotypes(rng, 50, 5)
    y = rng.normal(size=50)
    a = fit(dataset_from_values(values, trait=y), ModelSpec((0, 3)))
    b = fit(dataset_from_values(values, trait=7.5 * y), ModelSpec((0, 3)))
    assert b.f_statistic == pytest.approx(a.f_statistic, rel=1e-12)
    assert b.p_value == pytest.approx(a.p_value, rel=1e-12)


def test_mss_against_forced_null():
    rng = np.random.default_rng(8)
    values = random_genotypes(rng, 60, 4)
    cov = rng.normal(size=(60, 2))
    y = cov @ np.array([1.0, -2.0]) + rng.normal(size=60)
    ds = dataset_from_values(values, trait=y, covariates=cov)
    res = fit(ds, ModelSpec((1,), forced_indices=(0, 1)))
    rss_null, _ = lstsq_rss(ds, (), forced=(0, 1))
    assert res.mss == pytest.approx(rss_null - res.rss, rel=1e-9)
    assert res.df_resid == 60 - 1 - 2 - 1


# ---------------------------------------------------------------------------
# f_pvalue
# ---------------------------------------------------------------------------


def test_f_pvalue_endpoints():
    assert f_pvalue(0.0, 3, 10) == 1.0
    assert f_pvalue(math.inf, 3, 10) == 0.0
    with pytest.raises(ValueError):
        f_pvalue(math.nan, 1, 1)


def test_f_pvalue_t_identity():
    # with df1=1, P(F > f) = 2 P(T_df2 > sqrt(f))
    expected = 2.0 * t_dist.sf(math.sqrt(18.0), 2)
    assert f_pvalue(18.0, 1, 2) == pytest.approx(expected, abs=1e-14)
    assert f_pvalue(18.0, 1, 2) == pytest.approx(0.0513, abs=5e-5)


def test_f_pvalue_chi2_limit():
    for k in (1, 2, 5, 9):
        assert f_pvalue(1.0, k, 10**6) == pytest.approx(chi2.sf(k, k), abs=1e-3)


# ---------------------------------------------------------------------------
# incremental refits
# ---------------------------------------------------------------------------


def test_refit_roundtrip_and_oracle():
    rng = np.random.default_rng(12)
    values = random_genotypes(rng, 50, 10)
    y = values[:, 2] * 0.8 + rng.normal(size=50)
    ds = dataset_from_values(values, trait=y)
    model = ModelSpec((1, 2, 5))
    base = fit(ds, model)

    ws = workspace_for(ds, model)
    ws.add_snp(7)
    rss_oracle, _ = lstsq_rss(ds, (1, 2, 5, 7))
    assert ws.result().rss == pytest.approx(rss_oracle, rel=1e-8)

    ws.drop_snp(7)
    assert ws.rss == pytest.approx(base.rss, rel=1e-8)

    ws = workspace_for(ds, model)
    ws.drop_snp(5)
    rss_oracle, _ = lstsq_rss(ds, (1, 2))
    assert ws.result().rss == pytest.approx(rss_oracle, rel=1e-8)


def test_refit_many_updates_stay_accurate():
    rng = np.random.default_rng(13)
    values = random_genotypes(rng, 80, 30)
    y = rng.normal(size=80)
    ds = dataset_from_values(values, trait=y)
    ws = FitWorkspace(ds)
    live = []
    for step in range(120):
        if live and rng.random() < 0.4:
            j = int(rng.choice(live))
            ws.drop_snp(j)
            live.remove(j)
        else:
            free = [j for j in range(30) if j not in live]
            if not free:
                continue
            j = int(rng.choice(free))
            try:
                ws.add_snp(j)
            except CollinearityError:
                continue
            live.append(j)
    rss_oracle, _ = lstsq_rss(ds, tuple(sorted(live)))
    assert ws.rss == pytest.approx(rss_oracle, rel=1e-8)


def test_rss_if_dropped_matches_actual_drop():
    rng = np.random.default_rng(14)
    values = random_genotypes(rng, 40, 8)
    ds = dataset_from_values(values, trait=rng.normal(size=40))
    ws = workspace_for(ds, ModelSpec((0, 2, 4, 6)))
    for j in (0, 2, 4, 6):
        predicted = ws.rss_if_dropped(j)
        rss_oracle, _ = lstsq_rss(ds, tuple(k for k in (0, 2, 4, 6) if k != j))
        assert predicted == pytest.approx(rss_oracle, rel=1e-9)


def assert_drop_rss_oracles(ws, ds):
    """_drop_rss from inverse_gram() against the Givens reference and a
    from-scratch lstsq."""
    drops = _drop_rss(ws.rss, *ws.inverse_gram(), slice(ws.m - len(ws.snps), None))
    assert drops.shape == (len(ws.snps),)
    for k, j in enumerate(ws.snps):
        assert drops[k] == pytest.approx(ws.rss_if_dropped(j), rel=1e-9)
        rest = tuple(sorted(i for i in ws.snps if i != j))
        rss_oracle, _ = lstsq_rss(ds, rest, forced=ws.forced_indices)
        assert drops[k] == pytest.approx(rss_oracle, rel=1e-8)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_drop_rss_matches_oracles_with_forced_covariates(seed, n_forced, q):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(q + n_forced + 12, 60)), 12
    values = random_genotypes(rng, n, p)
    cov = rng.normal(size=(n, 2))
    y = values[:, :3] @ rng.normal(size=3) + cov[:, 0] + rng.normal(size=n)
    ds = dataset_from_values(values, trait=y, covariates=cov)
    snps = tuple(sorted(rng.choice(p, size=q, replace=False).tolist()))
    try:
        ws = workspace_for(ds, ModelSpec(snps, tuple(range(n_forced))))
    except CollinearityError:
        assume(False)
    assert_drop_rss_oracles(ws, ds)


@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_drop_rss_matches_oracles_after_add_drop_sequence(seed, moves):
    rng = np.random.default_rng(seed)
    n, p = 50, 15
    values = random_genotypes(rng, n, p)
    ds = dataset_from_values(values, trait=rng.normal(size=n),
                             covariates=rng.normal(size=(n, 1)))
    ws = FitWorkspace(ds, (0,))
    for drop in moves:
        if drop and ws.snps:
            ws.drop_snp(int(rng.choice(ws.snps)))
            continue
        free = [j for j in range(p) if j not in ws.snps]
        if free:
            try:
                ws.add_snp(int(rng.choice(free)))
            except CollinearityError:
                pass
    assume(ws.snps)
    assert_drop_rss_oracles(ws, ds)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.lists(st.sampled_from(["add", "drop", "rebuild"]), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_workspace_add_drop_rebuild_sequence_matches_lstsq(seed, n_forced, moves):
    rng = np.random.default_rng(seed)
    n, p = 40, 15
    values = random_genotypes(rng, n, p)
    values[:, 14] = values[:, 3]  # a duplicate the workspace must refuse
    ds = dataset_from_values(values, trait=rng.normal(size=n),
                             covariates=rng.normal(size=(n, 2)))
    forced = tuple(range(n_forced))
    ws = FitWorkspace(ds, forced)
    for move in moves:
        if move == "add":
            free = [j for j in range(p) if j not in ws.snps]
            try:
                ws.add_snp(int(rng.choice(free)))
            except CollinearityError:
                pass
        elif move == "drop" and ws.snps:
            ws.drop_snp(int(rng.choice(ws.snps)))
        elif move == "rebuild":
            ws.rebuild([int(j) for j in rng.permutation(ws.snps)])
        rss, beta = lstsq_rss(ds, ws.snps, forced)
        assert ws.rss == pytest.approx(rss, rel=1e-9)
        np.testing.assert_allclose(ws.coefficients(), beta, rtol=1e-8, atol=1e-10)
        residual = ds.trait - lstsq_design(ds, ws.snps, forced) @ beta
        np.testing.assert_allclose(ws.residual, residual, rtol=0, atol=1e-9)


class _FixedDrops:
    """Workspace stand-in whose drop scores are given exactly.

    With S = diag(drops), beta = drops and RSS 0, each drop's RSS
    beta_j^2 / S_jj is drops[j] to the last bit.
    """

    def __init__(self, snps, drops):
        self.snps = list(snps)
        self.m = len(self.snps)  # no intercept or forced columns
        self.rss = 0.0
        self.drops = np.asarray(drops, dtype=np.float64)

    def inverse_gram(self):
        return np.diag(self.drops), self.drops.copy()


@pytest.mark.parametrize("log_mode", [True, False])
def test_best_drop_ties_drop_largest_index(log_mode):
    crit = CriterionConfig("mbic", n=100, p_effective=1000, sigma=None if log_mode else 1.0)
    ev = _CriterionEval(crit, rss_base=50.0)
    snps = [7, 2, 9, 4, 11]
    ws = _FixedDrops(snps, [30.0, 20.0, 20.0, 20.0, 25.0])
    assert _drop_rss(ws.rss, *ws.inverse_gram(), slice(0, None)).tolist() == ws.drops.tolist()
    val, j = _best_drop(ws, ev)
    assert j == 9
    assert val == ev.value(20.0, 4)
    # the rule it encodes: the lexicographically smallest remaining model
    tied = [k for k, d in zip(snps, ws.drops) if d == 20.0]
    assert j == min(tied, key=lambda k: sorted(i for i in snps if i != k))


def test_refit_add_collinear_column_raises():
    rng = np.random.default_rng(15)
    values = random_genotypes(rng, 30, 5)
    values[:, 4] = values[:, 0]
    ds = dataset_from_values(values, trait=rng.normal(size=30))
    with pytest.raises(CollinearityError):
        workspace_for(ds, ModelSpec((0, 1))).add_snp(4)


def rank_mod_prime(columns, x, p=2**31 - 1):
    """Whether integer column x lies outside the span of ``columns``,
    exactly over the rationals but for a negligible chance: by Gaussian
    elimination modulo a large prime."""
    basis = []  # (pivot row, column scaled to 1 there)
    for c in [*columns, x]:
        v = np.asarray(c, dtype=np.int64) % p
        for piv, b in basis:
            v = (v - v[piv] * b) % p
        nz = np.flatnonzero(v)
        if not nz.size:
            if c is x:
                return False
            continue
        piv = int(nz[0])
        basis.append((piv, v * pow(int(v[piv]), p - 2, p) % p))
    return True


@st.composite
def push_designs(draw):
    """(n x k int8 codes, kinds): a rare column (all -1 but one call, close
    to the intercept) first, then columns of MAF down to 0.01, near
    duplicates (one call moved by one), exact duplicates and columns in the
    model's span (constant, or minus an earlier column)."""
    n = draw(st.integers(8, 60))
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols, kinds = [np.full(n, -1, dtype=np.int8)], ["rare"]
    cols[0][rng.integers(n)] = 0
    for _ in range(k):
        kind = draw(st.sampled_from(["maf", "maf", "near", "dup", "span"]))
        src = cols[int(rng.integers(len(cols)))]
        if kind == "maf":
            maf = draw(st.floats(0.01, 0.5))
            col = (rng.binomial(2, maf, size=n) - 1).astype(np.int8)
        elif kind == "near":
            col = src.copy()
            i = int(rng.integers(n))
            col[i] = col[i] + 1 if col[i] < 1 else 0
        elif kind == "dup":
            col = src.copy()
        else:
            col = (-src if rng.integers(2) else np.full(n, int(rng.integers(-1, 2)))
                   ).astype(np.int8)
        cols.append(col)
        kinds.append(kind)
    return np.column_stack(cols), kinds


@given(push_designs(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_push_keeps_an_orthonormal_basis_and_refuses_the_span(design, seed):
    values, kinds = design
    n, p = values.shape
    y = np.random.default_rng(seed).normal(size=n)
    ds = dataset_from_values(values, trait=y)
    ws = FitWorkspace(ds)
    second_pass = []
    for j in range(p):
        x = values[:, j].astype(np.float64)
        first = x - ws.basis @ (ws.basis.T @ x)
        outside = rank_mod_prime([np.ones(n, dtype=np.int64), *(values[:, i] for i in ws.snps)],
                                 values[:, j])
        if kinds[j] in ("dup", "span"):
            assert not outside
        try:
            ws.add_snp(j)
        except CollinearityError:
            assert not outside, (j, kinds[j])
            continue
        assert outside, (j, kinds[j])
        second_pass.append(math.sqrt(first @ first) <= REORTH_BELOW * math.sqrt(x @ x))
    # the rare column lies within one call of the intercept, so its first
    # pass cancels and the second one runs
    assert second_pass[0]
    Q = ws.basis
    assert np.abs(Q.T @ Q - np.eye(ws.m)).max() <= 1e-13
    rss, beta = lstsq_rss(ds, ws.snps)
    scale = float(y @ y)
    assert abs(ws.rss - rss) <= 1e-10 * max(rss, 1e-10 * scale)
    np.testing.assert_allclose(ws.coefficients(), beta, rtol=1e-10,
                               atol=1e-10 * np.abs(beta).max())


@pytest.mark.parametrize("eps", [1e-4, 1e-7, 1e-9])
def test_push_projects_twice_where_the_first_pass_cancels(eps):
    # a forced covariate within eps of the intercept keeps ~eps of its norm
    # after one pass, which alone would leave Q orthogonal only to ~1e-16/eps
    rng = np.random.default_rng(23)
    n = 50
    cov = (1.0 + eps * rng.normal(size=n))[:, None]
    values = random_genotypes(rng, n, 6)
    ds = dataset_from_values(values, trait=rng.normal(size=n), covariates=cov)
    ws = workspace_for(ds, ModelSpec((0, 1, 2, 3, 4, 5), (0,)))
    m = ws.m
    Q = ws.basis
    assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-13
    D = lstsq_design(ds, ws.snps, (0,))
    np.testing.assert_allclose(Q @ ws._R[:m, :m], D, rtol=0, atol=1e-13 * math.sqrt(n))


@given(push_designs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_push_given_its_projection_matches_a_push_without(design, seed):
    values, _ = design
    n, p = values.shape
    ds = dataset_from_values(values, trait=np.random.default_rng(seed).normal(size=n))
    given_ws, plain = FitWorkspace(ds), FitWorkspace(ds)
    cols = values.astype(np.float64)
    for j in range(p):
        # Q'x as forward holds it: from one product over a block of columns
        proj = _project(given_ws, cols, np.einsum("ij,ij->j", cols, cols))[2][:, j]
        try:
            plain.add_snp(j)
        except CollinearityError:
            with pytest.raises(CollinearityError):
                given_ws.add_snp(j, _proj=proj)
            continue
        given_ws.add_snp(j, _proj=proj)
        m = plain.m
        np.testing.assert_allclose(given_ws.basis, plain.basis, rtol=0, atol=1e-13)
        R = plain._R[:m, :m]
        np.testing.assert_allclose(given_ws._R[:m, :m], R, rtol=0,
                                   atol=1e-13 * np.abs(R).max())
        qty = plain._qty[:m]
        np.testing.assert_allclose(given_ws._qty[:m], qty, rtol=0,
                                   atol=1e-13 * np.abs(qty).max())


# ---------------------------------------------------------------------------
# noncentrality
# ---------------------------------------------------------------------------


def test_noncentrality_orthogonal_matches_closed_form():
    n = 64
    ds = dataset_from_values(hadamard_codes(n, 1), trait=np.zeros(n))  # zero mean, x'x = n
    beta, sigma = 0.7, 1.3
    pair = noncentrality_single_marker(ds, (0,), np.array([beta]), sigma, 0)
    assert pair.nu_m == pytest.approx(n * beta**2 / sigma**2, rel=1e-10)
    assert pair.nu_r == pytest.approx(0.0, abs=1e-9)


def test_noncentrality_zero_effects():
    rng = np.random.default_rng(20)
    ds = dataset_from_values(random_genotypes(rng, 30, 4), trait=np.zeros(30))
    pair = noncentrality_single_marker(ds, (0, 1), np.zeros(2), 1.0, 2)
    assert pair.nu_m == 0.0 and pair.nu_r == 0.0


def test_noncentrality_dense_projection_oracle():
    rng = np.random.default_rng(21)
    n, k = 100, 5
    values = random_genotypes(rng, n, k + 2)
    ds = dataset_from_values(values, trait=np.zeros(n))
    causal = (0, 1, 2, 3, 4)
    beta = rng.normal(size=k)
    sigma = 0.9
    j = 6
    pair = noncentrality_single_marker(ds, causal, beta, sigma, j)

    # explicit projection-matrix oracle
    X = ds.float_values
    ones = np.ones(n)
    Xj = np.column_stack([ones, X[:, j]])
    P = Xj @ np.linalg.inv(Xj.T @ Xj) @ Xj.T
    E = np.outer(ones, ones) / n
    g = X[:, list(causal)] @ beta
    nu_m = float(g @ (P - E) @ g) / sigma**2
    nu_r = float(g @ (np.eye(n) - P) @ g) / sigma**2
    assert pair.nu_m == pytest.approx(nu_m, rel=1e-9)
    assert pair.nu_r == pytest.approx(nu_r, rel=1e-9)


@pytest.mark.parametrize("j, causal, message", [
    (-1, (5,), "SNP -1"), (10, (5,), "SNP 10"),
    (5, (-1,), "causal index -1"), (5, (-1, 5), "causal index -1"), (5, (10,), "causal index 10"),
])
def test_noncentrality_refuses_indices_outside_the_panel(j, causal, message):
    # -1 would otherwise alias column 9 and 10 end in a bare IndexError
    rng = np.random.default_rng(3)
    ds = dataset_from_values(random_genotypes(rng, 40, 10))
    with pytest.raises(ValueError, match=rf"{message} is outside \[0, 10\)"):
        noncentrality_single_marker(ds, causal, np.ones(len(causal)), 1.0, j)


def test_noncentrality_degenerate_column():
    values = np.zeros((10, 2), dtype=np.int8)
    values[:, 0] = np.resize([-1, 0, 1], 10)
    ds = dataset_from_values(values, trait=np.zeros(10))
    with pytest.raises(DegenerateColumnError):
        noncentrality_single_marker(ds, (0,), np.array([1.0]), 1.0, 1)


def test_sqrt_nu_m_decomposition():
    # sqrt(nu_m) splits into the direct term plus the correlation spillover
    rng = np.random.default_rng(22)
    n, k = 80, 6
    values = random_genotypes(rng, n, k)
    ds = dataset_from_values(values, trait=np.zeros(n))
    causal = tuple(range(k))
    beta = rng.uniform(0.2, 0.8, size=k)
    sigma = 1.1
    X = ds.float_values
    C = X - X.mean(axis=0)
    S = C.T @ C
    for j in range(k):
        pair = noncentrality_single_marker(ds, causal, beta, sigma, j)
        direct = beta[j] * math.sqrt(S[j, j]) / sigma
        cross = sum(beta[l] * S[j, l] for l in range(k) if l != j) / (
            sigma * math.sqrt(S[j, j])
        )
        assert math.sqrt(pair.nu_m) == pytest.approx(abs(direct + cross), abs=1e-10)


def test_cochran_moments_small():
    # empirical means of MSS and RSS match their noncentral expectations
    rng = np.random.default_rng(23)
    n, p = 200, 10
    values = random_genotypes(rng, n, p)
    ds = dataset_from_values(values, trait=np.zeros(n))
    causal = (0, 1, 2, 3, 4)
    beta = np.array([0.5, -0.3, 0.4, 0.2, -0.6])
    sigma = 1.3
    j = 7
    pair = noncentrality_single_marker(ds, causal, beta, sigma, j)

    X = ds.float_values
    g = X[:, list(causal)] @ beta
    xj = X[:, j] - X[:, j].mean()
    u = xj / np.linalg.norm(xj)
    draws = 20_000
    Y = g[:, None] + sigma * rng.standard_normal((n, draws))
    mss = (u @ Y) ** 2
    rss = (Y**2).sum(axis=0) - n * Y.mean(axis=0) ** 2 - mss
    assert mss.mean() / sigma**2 == pytest.approx(1.0 + pair.nu_m, rel=0.03)
    assert rss.mean() / sigma**2 == pytest.approx(n - 2 + pair.nu_r, rel=0.03)
    assert abs(np.corrcoef(mss, rss)[0, 1]) < 0.03
