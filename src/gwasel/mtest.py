"""Single-marker scan and multiple-testing corrections.

``ScanEngine`` reads the genotypes in blocks of ``SCAN_BLOCK`` columns: it
counts the int8 codes of a block, and takes its float64 values through
``Dataset.columns``, a strided slice of the float cache when a caller has
built it (``run_study`` does), else a contiguous conversion of only that
block, so the engine never makes the n x p float64 copy itself.  Each block's
t = X'y is one BLAS matrix-vector product.  With BLAS on one thread that
gives the same bits as one product over all columns (each column keeps its
place in the kernel's groups of four, since ``SCAN_BLOCK`` is a multiple
of four), except in a last block narrower than ``_MIN_TAIL`` columns: BLAS
takes other paths there (a dot product for one column), which differ
between a slice and a copy and can move t, or the covariate projection's
s, by an ulp.  Such a tail joins the block before it.  With BLAS on
several threads, each product splits its columns between the threads, and
one product and the blocks split at different columns, so t can differ by
an ulp from one product where a split falls.

A scan takes each column's RSS as rss0 - t²/s, except where that falls below
``REPROJECT_BELOW`` of rss0 (a near-perfect fit, where the difference
cancels): there it takes the squared norm of the residual itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from gwasel.errors import CollinearityError
from gwasel.genotype import Dataset
from gwasel.regress import REPROJECT_BELOW, _check_trait_scale, _gate

SCAN_BLOCK = 4096  # columns per block of ScanEngine
_MIN_TAIL = 4  # a narrower last block joins the block before it
# Rows per int8 column sum of the codes: no partial sum of 127 calls in
# [-1, 1] leaves int8, and numpy adds int8 rows several times as fast as it
# casts them to a wider accumulator.
_COUNT_ROWS = 127


def _scan_blocks(p: int) -> list[tuple[int, int]]:
    """(start, stop) of ScanEngine's column blocks."""
    starts = list(range(0, p, SCAN_BLOCK))
    if len(starts) > 1 and p - starts[-1] < _MIN_TAIL:
        starts.pop()
    return list(zip(starts, starts[1:] + [p]))


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
        xnorm2 = np.empty(dataset.n_snps)
        self.s = np.empty(dataset.n_snps)
        for start, stop in _scan_blocks(dataset.n_snps):
            if dataset.covariates is None:
                # Intercept alone: s = (n·Σx² - (Σx)²)/n.  On -1/0/1 codes Σx²
                # is the count of nonzero calls, Σ|x|, and both numerator
                # terms are exact integers, so s is rounded once and nothing
                # cancels.
                codes = dataset.genotypes.values[:, start:stop]
                count = np.zeros(stop - start, dtype=np.int64)
                total = np.zeros(stop - start, dtype=np.int64)
                for row in range(0, n, _COUNT_ROWS):
                    chunk = codes[row:row + _COUNT_ROWS]
                    count += np.abs(chunk).sum(axis=0, dtype=np.int8)
                    total += chunk.sum(axis=0, dtype=np.int8)
                xnorm2[start:stop] = count
                self.s[start:stop] = (n * count - total * total) / n
            else:
                # xnorm2 - ‖Qᵀx‖² would cancel for a column inside the
                # covariate span (s ≈ 1e-16·xnorm2, no degenerate flag), so
                # project the columns explicitly.
                block = dataset.columns(slice(start, stop))
                xnorm2[start:stop] = np.einsum("ij,ij->j", block, block)
                z = self.Q0 @ (self.Q0.T @ block)
                np.subtract(block, z, out=z)  # one n x 4096 temporary, not two
                self.s[start:stop] = np.einsum("ij,ij->j", z, z)
        self.degenerate = self.s <= _gate(xnorm2)
        self.df2 = n - self.m0 - 1
        if self.df2 < 1:
            raise ValueError("too few observations for a single-marker scan")

    def _t(self, yt: np.ndarray) -> np.ndarray:
        """X'yt, one product per block of ``_scan_blocks``."""
        t = np.empty(self.dataset.n_snps)
        for start, stop in _scan_blocks(self.dataset.n_snps):
            t[start:stop] = self.dataset.columns(slice(start, stop)).T @ yt
        return t

    def scan(self, trait: np.ndarray) -> ScanResult:
        y = np.asarray(trait, dtype=np.float64)
        yt = y - self.Q0 @ (self.Q0.T @ y)
        with np.errstate(over="ignore"):  # an overflow is refused just below
            rss0 = float(yt @ yt)
        _check_trait_scale(y.shape[0], rss0)
        t = self._t(yt)
        with np.errstate(invalid="ignore", divide="ignore"):
            delta = np.where(self.degenerate, 0.0, (t * t) / self.s)
            rss1 = np.maximum(rss0 - delta, 0.0)
        # rss0 - delta cancels where a column explains nearly all of yt, so
        # there rss1 is the squared norm of the residual yt - (t/s)·x̃ itself,
        # with x̃ the column projected off the base; a residual within the
        # collinearity gate of yt is a perfect fit (F = inf).
        near = np.flatnonzero((rss1 < REPROJECT_BELOW * rss0) & ~self.degenerate)
        if near.size:
            xt = self.dataset.columns(near)
            # not in place: r is then laid out, and r2 summed, as for float_values[:, near]
            xt = xt - self.Q0 @ (self.Q0.T @ xt)
            r = yt[:, None] - xt * (t[near] / self.s[near])
            r2 = np.einsum("ij,ij->j", r, r)
            rss1[near] = np.where(r2 <= _gate(rss0), 0.0, r2)
        with np.errstate(invalid="ignore", divide="ignore"):
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
