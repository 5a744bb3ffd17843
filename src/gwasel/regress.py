"""Least-squares machinery for additive marker models.

A model is the design ``[1 | forced covariates | selected SNPs]``.  The
model sum of squares is measured against the intercept-plus-forced null,
so the F statistic tests joint nullity of the selected SNP block only.

:class:`FitWorkspace` keeps an orthonormal basis of the design and adds one
column in O(n*q); dropping a column rebuilds the basis from the remaining
columns in O(n*q^2).  The search scores every drop at once from the
inverse Gram matrix of :meth:`FitWorkspace.inverse_gram`; backward
elimination drops many columns in a row by sweep downdates of it instead,
rebuilding once at the end.  :meth:`FitWorkspace.drop_direction` gives the
unit vector a drop takes out of the model's span, from which the stepwise
search updates its candidates' statistics.  A workspace is single-owner;
:meth:`FitWorkspace.copy` forks an independent one, and independent
workspaces over the same dataset may run in parallel.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc

from gwasel.errors import CollinearityError, DegenerateColumnError
from gwasel.genotype import Dataset

RANK_TOL = 1e-10  # column is collinear when its residual norm falls below tol * original
# A difference of squares below this fraction of its first term has lost
# digits to cancellation, so the search's s and the scan's RSS are then
# taken from an explicit projection instead.
REPROJECT_BELOW = 1e-6


def _gate(norm2: np.ndarray) -> np.ndarray:
    """Collinearity gate on squared norms: a column whose squared residual
    norm s is at or below this, for original squared norm ``norm2``, is
    collinear with the columns it was projected off."""
    return RANK_TOL * RANK_TOL * np.maximum(norm2, 1e-300)


@dataclass(frozen=True)
class ModelSpec:
    """Selected SNP columns plus always-included covariate columns."""

    snp_indices: tuple[int, ...] = ()
    forced_indices: tuple[int, ...] = ()

    def __post_init__(self):
        # snp_indices address genotype columns, forced_indices covariate columns
        snps = tuple(int(j) for j in self.snp_indices)
        forced = tuple(int(j) for j in self.forced_indices)
        if any(b <= a for a, b in zip(snps, snps[1:])):
            raise ValueError("snp_indices must be strictly increasing")
        if len(set(forced)) != len(forced):
            raise ValueError("forced_indices must be distinct")
        object.__setattr__(self, "snp_indices", snps)
        object.__setattr__(self, "forced_indices", forced)

    @property
    def size(self) -> int:
        return len(self.snp_indices)


@dataclass(frozen=True)
class FitResult:
    """Summary of one least-squares fit."""

    rss: float
    mss: float
    intercept: float
    snp_coefficients: np.ndarray  # aligned with the model's sorted snp_indices
    forced_coefficients: np.ndarray
    f_statistic: float
    p_value: float
    df_model: int
    df_resid: int
    perfect_fit: bool = False


@dataclass(frozen=True)
class NoncentralityPair:
    """Noncentrality of the model and residual sums of squares."""

    nu_m: float
    nu_r: float


def f_pvalue(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the central F distribution.

    Computed through the regularized incomplete beta function:
    P(F > f) = I_x(df2/2, df1/2) with x = df2 / (df2 + df1 * f).
    """
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isnan(f):
        raise ValueError("F statistic is NaN")
    if f == math.inf:
        return 0.0
    if f < 0.0:
        raise ValueError("F statistic must be nonnegative")
    if f == 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


class FitWorkspace:
    """Incrementally updatable least-squares fit over one dataset.

    Columns are held as an orthonormal basis Q with R upper triangular and
    qty = Q'y, in the order [intercept, forced..., SNPs by insertion].

    Drop scoring is closed form: with S = (R'R)^-1 and beta = R^-1 qty,
    removing column j raises the RSS by beta_j^2 / S_jj (Miller, Subset
    Selection in Regression, 2002).  :meth:`inverse_gram` gives S and beta
    from one triangular solve, from which the search scores every SNP;
    :meth:`rss_if_dropped` computes one drop by Givens rotations and serves
    as its reference.

    A pushed column is refused as collinear (``CollinearityError``) when its
    residual norm is at or below ``RANK_TOL`` times its own norm.  The scan,
    the search stages and the subset kernel hold squared norms and test them
    against :func:`_gate`, the squared form of the same rule; the workspace
    keeps the unsquared test, since the two forms may round apart at the
    boundary.
    """

    def __init__(self, dataset: Dataset, forced_indices: tuple[int, ...] = ()):
        y = dataset.trait
        if y is None:
            raise ValueError("dataset has no trait")
        self.dataset = dataset
        self.X = dataset.float_values
        self.y = y
        self.forced_indices = tuple(int(j) for j in forced_indices)
        n = y.shape[0]
        cap = max(8, 2 + len(self.forced_indices))
        self._Q = np.empty((n, cap))
        self._R = np.zeros((cap, cap))
        self._qty = np.empty(cap)
        self._m = 0
        self._r = y.copy()
        self.snps: list[int] = []

        self._push(np.ones(n), label=-1)
        if self.forced_indices:
            cov = dataset.covariates
            if cov is None:
                raise ValueError("model names forced covariate columns but dataset has none")
            for j in self.forced_indices:
                if not 0 <= j < cov.shape[1]:
                    raise ValueError(f"forced covariate {j} is outside [0, {cov.shape[1]})")
                self._push(cov[:, j], label=j)
        self.rss_base = self.rss
        self._r_base = self._r

    # -- core updates -------------------------------------------------

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self._m

    @property
    def basis(self) -> np.ndarray:
        return self._Q[:, : self._m]

    @property
    def residual(self) -> np.ndarray:
        return self._r

    @property
    def rss(self) -> float:
        return float(self._r @ self._r)

    @property
    def base_residual(self) -> np.ndarray:
        """Trait residual after the intercept and forced columns alone."""
        return self._r_base

    def _grow(self):
        cap = self._Q.shape[1] * 2
        n = self._Q.shape[0]
        q = np.empty((n, cap))
        q[:, : self._m] = self._Q[:, : self._m]
        r = np.zeros((cap, cap))
        r[: self._m, : self._m] = self._R[: self._m, : self._m]
        qty = np.empty(cap)
        qty[: self._m] = self._qty[: self._m]
        self._Q, self._R, self._qty = q, r, qty

    def _push(self, col: np.ndarray, label: int):
        if self._m == self._Q.shape[1]:
            self._grow()
        m = self._m
        v = np.asarray(col, dtype=np.float64).copy()
        orig = float(np.sqrt(v @ v))
        h = np.zeros(m)
        for _ in range(2):  # re-orthogonalize once for stability over many updates
            if m:
                g = self._Q[:, :m].T @ v
                v -= self._Q[:, :m] @ g
                h += g
        nrm = float(np.sqrt(v @ v))
        if nrm <= RANK_TOL * max(orig, 1e-300):
            raise CollinearityError(label)
        u = v / nrm
        self._Q[:, m] = u
        self._R[:m, m] = h
        self._R[m, m] = nrm
        d = float(u @ self._r)
        self._qty[m] = d
        self._r = self._r - d * u
        self._m = m + 1
        return u, d

    def add_snp(self, j: int):
        """Append genotype column j; returns (new basis vector, its y load)."""
        self.dataset.check_snps((j,))
        if j in self.snps:
            raise ValueError(f"SNP {j} already in model")
        u, d = self._push(self.X[:, j], label=j)
        self.snps.append(j)
        return u, d

    def drop_snp(self, j: int) -> None:
        """Remove genotype column j by rebuilding from the remaining SNPs."""
        rest = list(self.snps)
        rest.remove(j)
        self.rebuild(rest)

    def drop_direction(self, j: int) -> tuple[np.ndarray, float]:
        """(w, w'y) for model SNP j: the unit vector of the model's span
        orthogonal to every other column, so that dropping j adds w w' to
        the residual projector.

        w = Q R^-T e_k / sqrt(S_kk) and w'y = beta_k / sqrt(S_kk) for j at
        position k; R^-T e_k is zero ahead of k, so one triangular solve over
        the trailing block gives it.
        """
        pos = self._base + self.snps.index(j)
        m = self._m
        e = np.zeros(m - pos)
        e[0] = 1.0
        v = solve_triangular(self._R[pos:m, pos:m], e, trans="T")
        v /= math.sqrt(v @ v)
        return self._Q[:, pos:m] @ v, float(v @ self._qty[pos:m])

    def rebuild(self, snps) -> None:
        """Reset to the intercept and forced columns, then push ``snps`` in order."""
        b = self._base
        self._R[:, b:] = 0.0
        self._R[b:, :] = 0.0
        self._m = b
        self._r = self._r_base
        self.snps = []
        for j in snps:
            self._push(self.X[:, j], label=j)
            self.snps.append(j)

    def copy(self) -> FitWorkspace:
        """Independent workspace in the same state; dataset and trait are shared."""
        new = copy.copy(self)
        new._Q, new._R, new._qty = self._Q.copy(), self._R.copy(), self._qty.copy()
        new._r = self._r.copy()
        new.snps = list(self.snps)
        return new

    def rss_if_dropped(self, j: int) -> float:
        """RSS after removing SNP j, without touching the workspace state."""
        pos = self._base + self.snps.index(j)
        m = self._m
        k = m - pos
        sub = self._R[pos:m, pos + 1 : m].copy()
        qty = self._qty[pos:m].copy()
        for t in range(k - 1):
            c, s = _givens(sub[t, t], sub[t + 1, t])
            row0 = sub[t, t:].copy()
            row1 = sub[t + 1, t:].copy()
            sub[t, t:] = c * row0 + s * row1
            sub[t + 1, t:] = -s * row0 + c * row1
            y0, y1 = qty[t], qty[t + 1]
            qty[t] = c * y0 + s * y1
            qty[t + 1] = -s * y0 + c * y1
        return self.rss + float(qty[k - 1] ** 2)

    def inverse_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, beta) with S = (X'X)^-1 = R^-1 R^-T and beta = R^-1 Q'y.

        Rows and columns follow the workspace order [intercept, forced...,
        SNPs by insertion].
        """
        m = self._m
        r_inv = solve_triangular(self._R[:m, :m], np.eye(m))
        return r_inv @ r_inv.T, r_inv @ self._qty[:m]

    @property
    def _base(self) -> int:
        return 1 + len(self.forced_indices)

    # -- results -------------------------------------------------------

    def model(self) -> ModelSpec:
        return ModelSpec(tuple(sorted(self.snps)), self.forced_indices)

    def coefficients(self) -> np.ndarray:
        m = self._m
        return solve_triangular(self._R[:m, :m], self._qty[:m])

    def result(self) -> FitResult:
        n = self.n
        q = len(self.snps)
        c = len(self.forced_indices)
        if q + c + 1 >= n:
            raise ValueError("model has as many parameters as observations")
        rss = self.rss
        mss = max(self.rss_base - rss, 0.0)
        df_model = q
        df_resid = n - q - c - 1
        beta = self.coefficients()
        intercept = float(beta[0])
        forced_coef = beta[1 : 1 + c].copy()
        snp_order = np.argsort(np.asarray(self.snps, dtype=np.int64), kind="stable")
        snp_coef = beta[1 + c :][snp_order].copy()

        scale = max(self.rss_base, float(self.y @ self.y), 1.0)
        perfect = rss <= 1e-24 * scale
        if df_model == 0 or mss <= 0.0:
            f_stat, p = 0.0, 1.0
            perfect = False
        elif perfect:
            f_stat, p = math.inf, 0.0
        else:
            f_stat = (df_resid * mss) / (df_model * rss)
            p = f_pvalue(f_stat, df_model, df_resid)
        return FitResult(
            rss=rss,
            mss=mss,
            intercept=intercept,
            snp_coefficients=snp_coef,
            forced_coefficients=forced_coef,
            f_statistic=f_stat,
            p_value=p,
            df_model=df_model,
            df_resid=df_resid,
            perfect_fit=perfect,
        )


def _givens(a: float, b: float) -> tuple[float, float]:
    if b == 0.0:
        return 1.0, 0.0
    h = math.hypot(a, b)
    return a / h, b / h


def workspace_for(dataset: Dataset, model: ModelSpec) -> FitWorkspace:
    ws = FitWorkspace(dataset, model.forced_indices)
    for j in model.snp_indices:
        ws.add_snp(j)
    return ws


def fit(dataset: Dataset, model: ModelSpec) -> FitResult:
    """Least-squares fit of [1 | forced | selected SNPs] on the trait."""
    return workspace_for(dataset, model).result()


def block_f_test(dataset: Dataset, model: ModelSpec, block: tuple[int, ...]) -> tuple[float, float]:
    """Partial F test of a block of forced covariates.

    Compares the full model against the model with the block removed from
    the forced set; df2 is the full model's residual degrees of freedom.
    """
    block = tuple(int(b) for b in block)
    if not block:
        raise ValueError("block must be nonempty")
    if not set(block) <= set(model.forced_indices):
        raise ValueError("block must be a subset of the forced covariates")
    full = fit(dataset, model)
    reduced_forced = tuple(j for j in model.forced_indices if j not in block)
    reduced = fit(dataset, ModelSpec(model.snp_indices, reduced_forced))
    df1 = len(block)
    df2 = full.df_resid
    num = max(reduced.rss - full.rss, 0.0) / df1
    if full.rss <= 0.0:
        return math.inf, 0.0
    f = num / (full.rss / df2)
    return f, f_pvalue(f, df1, df2)


def _centered(dataset: Dataset, j: int) -> np.ndarray:
    col = dataset.float_values[:, j]
    return col - col.mean()


def noncentrality_single_marker(
    dataset: Dataset,
    causal_indices: tuple[int, ...],
    effects: np.ndarray,
    sigma: float,
    j: int,
) -> NoncentralityPair:
    """Noncentrality of MSS and RSS for the single-marker test of column j.

    Let S(a, b) denote centered cross-product sums (x_a - mean)'(x_b - mean);
    then nu_m = (sum_l beta_l S(j, l))^2 / (sigma^2 S(j, j)) and nu_r is the
    quadratic form of the effects in S(l, r) - S(l, j) S(r, j) / S(j, j)
    over causal markers other than j.  These equal the exact quadratic forms
    beta'X'(P_j - E/n)X beta / sigma^2 and beta'X'(I - P_j)X beta / sigma^2.
    """
    effects = np.asarray(effects, dtype=np.float64)
    causal = tuple(int(c) for c in causal_indices)
    if len(causal) != effects.shape[0]:
        raise ValueError("causal_indices and effects must have equal length")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    dataset.check_snps((j,))
    dataset.check_snps(causal, "causal index")
    cj = _centered(dataset, j)
    sjj = float(cj @ cj)
    if sjj <= 0.0:
        raise DegenerateColumnError(f"column {j} has zero variance")
    if not causal:
        return NoncentralityPair(0.0, 0.0)
    C = dataset.float_values[:, list(causal)]
    C = C - C.mean(axis=0)
    s_j = cj @ C  # S(j, l) over causal l
    nu_m = float(s_j @ effects) ** 2 / (sigma**2 * sjj)

    keep = [t for t, c in enumerate(causal) if c != j]
    if keep:
        B = C[:, keep]
        w = effects[keep]
        resid = B - np.outer(cj, (cj @ B) / sjj)
        v = resid @ w
        nu_r = float(v @ v) / sigma**2
    else:
        nu_r = 0.0
    return NoncentralityPair(max(nu_m, 0.0), max(nu_r, 0.0))
