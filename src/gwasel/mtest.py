"""Single-marker scan and multiple-testing corrections."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from gwasel.errors import CollinearityError
from gwasel.genotype import Dataset
from gwasel.regress import _gate

@dataclass(frozen=True)
class ScanResult:
    """Per-SNP F statistics and p-values of the single-marker scan."""

    p_values: np.ndarray
    f_statistics: np.ndarray
    order: np.ndarray  # permutation sorting p ascending, ties by column index
    degenerate: np.ndarray  # True where the SNP column carried no variation

    def __post_init__(self):
        if not (
            self.p_values.shape
            == self.f_statistics.shape
            == self.order.shape
            == self.degenerate.shape
        ):
            raise ValueError("scan arrays must share one length")

    @property
    def n_snps(self) -> int:
        return self.p_values.shape[0]

    def ranks(self) -> np.ndarray:
        """1-based rank of each SNP in ascending-p order."""
        ranks = np.empty(self.n_snps, dtype=np.int64)
        ranks[self.order] = np.arange(1, self.n_snps + 1)
        return ranks


class ScanEngine:
    """Reusable scan state for one dataset.

    The projection of every genotype column against the intercept-and-
    covariates base is trait independent, so repeated scans over simulated
    traits only cost one matrix-vector product each.
    """

    def __init__(self, dataset: Dataset):
        if dataset.genotypes.missing_mask.any():
            raise ValueError("scan requires complete genotypes; impute first")
        self.dataset = dataset
        n = dataset.n_individuals
        base = [np.ones(n)]
        if dataset.covariates is not None:
            base.extend(dataset.covariates[:, j] for j in range(dataset.n_covariates))
        B = np.column_stack(base)
        self.Q0, R0 = np.linalg.qr(B)
        # |R0[k, k]| is column k's residual norm after the columns before it
        bad = np.flatnonzero(np.diag(R0) ** 2 <= _gate(np.einsum("ij,ij->j", B, B)))
        if bad.size:
            j = int(bad[0]) - 1  # column 0 is the intercept
            raise CollinearityError(
                j, f"covariate {j} is collinear with the intercept and the covariates before it")
        self.m0 = self.Q0.shape[1]
        # s = squared norm of each column's residual after base projection
        if dataset.covariates is None:
            # Intercept alone: s = (n·Σx² - (Σx)²)/n.  On -1/0/1 codes Σx² is
            # the count of nonzero calls and both numerator terms are exact
            # integers, so s is rounded once and nothing cancels.  Column
            # sums of n calls fit int32 (twice as fast to accumulate as int64).
            V = dataset.genotypes.values
            xnorm2 = (V != 0).sum(axis=0, dtype=np.int32).astype(np.int64)
            sm = V.sum(axis=0, dtype=np.int32).astype(np.int64)
            self.s = (n * xnorm2 - sm * sm) / n
        else:
            # xnorm2 - ‖Qᵀx‖² would cancel for a column inside the covariate
            # span (s ≈ 1e-16·xnorm2, no degenerate flag), so project the
            # columns explicitly.
            X = dataset.float_values
            xnorm2 = np.einsum("ij,ij->j", X, X)
            self.s = np.empty(dataset.n_snps)
            for start in range(0, dataset.n_snps, 4096):
                block = X[:, start : start + 4096]
                z = self.Q0 @ (self.Q0.T @ block)
                np.subtract(block, z, out=z)  # one n x 4096 temporary, not two
                self.s[start : start + 4096] = np.einsum("ij,ij->j", z, z)
        self.degenerate = self.s <= _gate(xnorm2)
        self.df2 = n - self.m0 - 1
        if self.df2 < 1:
            raise ValueError("too few observations for a single-marker scan")

    def scan(self, trait: np.ndarray) -> ScanResult:
        y = np.asarray(trait, dtype=np.float64)
        yt = y - self.Q0 @ (self.Q0.T @ y)
        rss0 = float(yt @ yt)
        t = self.dataset.float_values.T @ yt
        with np.errstate(invalid="ignore", divide="ignore"):
            delta = np.where(self.degenerate, 0.0, (t * t) / self.s)
            rss1 = np.maximum(rss0 - delta, 0.0)
            f = np.where(rss1 > 0.0, delta * self.df2 / rss1, np.inf)
        f = np.where(self.degenerate | (delta == 0.0), 0.0, f)
        with np.errstate(invalid="ignore", divide="ignore"):
            x = self.df2 / (self.df2 + f)
        p = np.where(np.isinf(f), 0.0, betainc(self.df2 / 2.0, 0.5, x))
        p = np.where(f == 0.0, 1.0, p)
        order = np.argsort(p, kind="stable")
        return ScanResult(
            p_values=p,
            f_statistics=f,
            order=order.astype(np.int64),
            degenerate=self.degenerate.copy(),
        )


def single_marker_scan(dataset: Dataset) -> ScanResult:
    """F test of each SNP in the model [1 | covariates | SNP].

    Zero-variance columns are reported with p=1 and a degeneracy flag rather
    than aborting the scan.
    """
    if dataset.trait is None:
        raise ValueError("dataset has no trait")
    return ScanEngine(dataset).scan(dataset.trait)


def bonferroni(scan: ScanResult, alpha: float, p_effective: int) -> np.ndarray:
    """Indices rejected at family-wise level alpha over p_effective markers."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if p_effective < 1:
        raise ValueError("p_effective must be >= 1")
    return np.nonzero(scan.p_values <= alpha / p_effective)[0]


def benjamini_hochberg(scan: ScanResult, alpha: float) -> np.ndarray:
    """Step-up FDR control: largest i with p_(i) <= i*alpha/m, reject below."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m = scan.n_snps
    p_sorted = scan.p_values[scan.order]
    below = np.nonzero(p_sorted <= alpha * np.arange(1, m + 1) / m)[0]
    if below.size == 0:
        return np.empty(0, dtype=np.int64)
    cutoff = p_sorted[below[-1]]
    return np.nonzero(scan.p_values <= cutoff)[0]


def scan_to_tsv(scan: ScanResult, snp_ids: Sequence[str]) -> str:
    """Render the scan as TSV with columns snp_id, f, p, rank."""
    ranks = scan.ranks()
    lines = ["snp_id\tf\tp\trank"]
    for i in range(scan.n_snps):
        lines.append(
            f"{snp_ids[i]}\t{scan.f_statistics[i]:.10g}\t{scan.p_values[i]:.10g}\t{ranks[i]}"
        )
    return "\n".join(lines) + "\n"
