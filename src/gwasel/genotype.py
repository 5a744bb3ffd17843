"""Genotype datasets: loading, validation, imputation, column statistics.

Genotype codes are -1/0/1 (minor-allele count minus one).  Text inputs use
whitespace-separated rows, one per individual; ``NA`` or ``.`` marks a
missing call and any other unrecognized token is treated as missing too.

A dataset names its columns by one tuple of distinct SNP ids: the header
row of the genotype file, or the first field of each row of a
``snp_id chromosome position`` sidecar, whose chromosomes and positions are
checked but not kept.  Without either, column j is named ``snp{j}``; this
module is the only place that default is decided.  Repeated ids are refused.

A regular genotype file whose rows hold only the tokens ``-1 0 1 NA .``,
separated by spaces and tabs, ended by ``\n`` and all of one width, after an
optional ASCII header line of SNP ids, is parsed from its bytes in blocks of
whole rows, about 256 KiB each, written straight into the code and mask
arrays; no copy of the whole text is made.  Every other file (other tokens,
other whitespace or line endings, non-ASCII bytes, ragged rows, no rows, a
pipe) goes through the token parser, which raises every parse error; on the
files the byte path takes, both give the same codes, mask and header.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from gwasel import _kernels
from gwasel.errors import (
    DegenerateColumnError,
    DimensionError,
    ImputationError,
    ParseError,
)

_MISSING_TOKENS = frozenset({"NA", "na", "Na", "nA", "."})
_CODE_TOKENS = {"-1": -1, "0": 0, "1": 1}

# The byte path reads whole rows in blocks of about ``_BLOCK`` bytes.  In each
# block ``-1`` becomes NUL ``2`` and ``NA`` becomes NUL ``3``, so that every call
# is one byte other than NUL, space, tab and newline.
_BLOCK = 1 << 18
_NUL = 0
_NEWLINE, _SPACE, _DASH, _DOT, _ZERO, _ONE, _TWO, _THREE, _A, _N = b"\n -.0123AN"


@dataclass(frozen=True)
class GenotypeMatrix:
    """n x p matrix of genotype codes with a parallel missing-value mask."""

    values: np.ndarray  # int8, missing entries hold 0 and are masked
    missing_mask: np.ndarray  # bool, True where the call is missing

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.int8)
        mask = np.ascontiguousarray(self.missing_mask, dtype=np.bool_)
        if values.ndim != 2 or mask.shape != values.shape:
            raise ValueError("values and missing_mask must be 2-D with equal shape")
        if values.shape[0] < 2 or values.shape[1] < 1:
            raise ValueError("need at least 2 individuals and 1 SNP")
        # min/max allocate nothing; the masked range test runs only when they fail
        if values.min() < -1 or values.max() > 1:
            if not (((values >= -1) & (values <= 1)) | mask).all():
                raise ValueError("non-missing genotype codes must be -1, 0 or 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing_mask", mask)

    @property
    def n_individuals(self) -> int:
        return self.values.shape[0]

    @property
    def n_snps(self) -> int:
        return self.values.shape[1]

    @property
    def complete(self) -> bool:
        return not self.missing_mask.any()


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of genotypes, SNP ids, trait and covariates.

    ``snp_ids`` names each column, ``snp0`` to ``snp{p-1}`` when not given;
    the ids must be distinct.  All read operations are safe to run
    concurrently; derived datasets (imputation, trait swaps) are new objects
    sharing the genotype arrays, but not the float cache of the parent.
    Blocks of float64 columns are read through :meth:`columns`; the model
    workspace converts the int8 codes of each column it adds itself.
    """

    genotypes: GenotypeMatrix
    snp_ids: tuple[str, ...] | None = None  # a tuple once constructed
    trait: np.ndarray | None = None
    covariates: np.ndarray | None = None

    def __post_init__(self):
        p = self.genotypes.n_snps
        ids = self.snp_ids
        if ids is None:
            ids = _CheckedIds(f"snp{j}" for j in range(p))
        elif not isinstance(ids, _CheckedIds):  # ids a derived dataset keeps are checked
            ids = tuple(ids)
            repeated = _repeated_id(ids)
            if repeated is not None:
                raise ValueError(f"SNP id {repeated!r} appears more than once")
            ids = _CheckedIds(ids)
        if len(ids) != p:
            raise DimensionError(f"{len(ids)} SNP ids against {p} columns")
        object.__setattr__(self, "snp_ids", ids)
        if self.trait is not None:
            trait = np.ascontiguousarray(self.trait, dtype=np.float64)
            if trait.ndim != 1 or trait.shape[0] != self.genotypes.n_individuals:
                raise DimensionError(
                    f"trait length {trait.shape[0]} against "
                    f"{self.genotypes.n_individuals} individuals"
                )
            object.__setattr__(self, "trait", trait)
        if self.covariates is not None:
            cov = np.ascontiguousarray(self.covariates, dtype=np.float64)
            if cov.ndim != 2 or cov.shape[0] != self.genotypes.n_individuals:
                raise DimensionError("covariate rows must match individuals")
            object.__setattr__(self, "covariates", cov)

    @property
    def n_individuals(self) -> int:
        return self.genotypes.n_individuals

    @property
    def n_snps(self) -> int:
        return self.genotypes.n_snps

    def check_snps(self, indices, what: str = "SNP") -> None:
        """Raise ``ValueError`` naming the first of ``indices`` outside [0, n_snps)."""
        for j in indices:
            if not 0 <= j < self.n_snps:
                raise ValueError(f"{what} {j} is outside [0, {self.n_snps})")

    @property
    def n_covariates(self) -> int:
        return 0 if self.covariates is None else self.covariates.shape[1]

    @cached_property
    def float_values(self) -> np.ndarray:
        """float64 copy of the whole panel, n x p, built on first read.

        No library call reads it but through :meth:`columns`, and only
        ``run_study``, which scans one panel for every replicate, builds it.
        """
        return self.genotypes.values.astype(np.float64)

    def columns(self, idx) -> np.ndarray:
        """float64 codes of columns ``idx``: a slice, a list or array of indices, or one index.

        A slice or one index is read from ``float_values`` when that cache is
        built (a strided view for a slice, which is what the scan reads),
        else converted from the int8 codes of those columns only.  Indices
        are gathered from the int8 codes whether or not the cache is built,
        which moves an eighth of the bytes.  int8 -> float64 is exact, so
        every read gives the same numbers in the same layout: that of
        ``float_values[:, idx]``, a Fortran-ordered block for indices, whose
        layout decides the last bits of a product with it.
        """
        if isinstance(idx, (slice, int, np.integer)):
            src = self.__dict__.get("float_values", self.genotypes.values)
            return src[:, idx].astype(np.float64, copy=False)
        # the layout of float_values[:, idx], by a gather twice as fast on unsorted indices
        return np.take(self.genotypes.values, idx, axis=1).astype(np.float64, order="F")

    def with_trait(self, trait: np.ndarray) -> "Dataset":
        """New dataset sharing the genotype arrays, with a replaced trait."""
        return replace(self, trait=np.ascontiguousarray(trait, dtype=np.float64))


class _CheckedIds(tuple):
    """SNP ids already found distinct, so a derived dataset skips the check."""


def _repeated_id(ids: Sequence[str]) -> str | None:
    """The first id of ``ids`` seen a second time, or None when all differ."""
    if len(set(ids)) < len(ids):  # the walk runs only when some id repeats
        seen: set[str] = set()
        for snp_id in ids:
            if snp_id in seen:
                return snp_id
            seen.add(snp_id)
    return None


def _is_header(tokens: list[str]) -> bool:
    """A first row with any non-genotype token is a header of SNP ids."""
    return any(t not in _CODE_TOKENS and t not in _MISSING_TOKENS for t in tokens)


def _parse_genotype_bytes(path: Path) -> tuple[np.ndarray, np.ndarray, list[str] | None] | None:
    """Codes, mask and header of a conforming genotype file, else None.

    The result equals ``_parse_genotype_text``'s on every file it accepts.
    A file it declines (see the module docstring) is left to that parser,
    which also raises every error.
    """
    if not path.is_file():  # a pipe can be read once only, by the token parser
        return None
    with path.open("rb") as f:
        size = os.fstat(f.fileno()).st_size
        line = f.readline()
        while line and not line.translate(None, b" \t\n"):  # blank lines hold no calls
            line = f.readline()
        try:
            first = line.rstrip(b"\n").decode("ascii")
        except UnicodeDecodeError:
            return None
        if first.splitlines() != [first]:  # no line, or \r, \v, \f, \x1c-\x1e inside it
            return None
        header = first.split()
        if not header:  # only bytes that split() drops, such as \x1f
            return None
        width = len(header)  # a first row holds only genotype tokens, so splits the same
        if _is_header(header):
            line = b""
        else:
            header = None
        # a row of w calls takes at least 2w - 1 bytes and a line break; the
        # rows past the last one read are never written, so take no memory
        bound = (size + 1) // (2 * width)
        codes = np.empty((bound, width), dtype=np.int8)
        mask = np.empty((bound, width), dtype=np.bool_)
        rows = 0
        block = bytearray(max(_BLOCK, len(line)))
        block[:len(line)] = line  # a first line of calls is the first row
        have = len(line)
        while True:
            if have == len(block):  # a row longer than the block
                block.extend(bytes(len(block)))
            got = f.readinto(memoryview(block)[have:])
            have += got
            end = block.rfind(b"\n", 0, have) + 1 if got else have
            if end:
                rows = _parse_rows(block[:end], width, codes, mask, rows)
                if rows is None:
                    return None
                block[:have - end] = block[end:have]
                have -= end
            if not got:
                break
    if rows == 0:
        return None
    return codes[:rows], mask[:rows], header


def _parse_rows(text: bytearray, width: int, codes: np.ndarray, mask: np.ndarray,
                row: int) -> int | None:
    """Write the rows of ``text``, whole lines, into ``codes`` and ``mask`` from ``row``.

    Returns the next free row, or None when ``text`` does not conform.
    """
    if b"\0" in text or b"2" in text or b"3" in text:  # bytes the rewrites produce
        return None
    u = np.frombuffer(text, dtype=np.uint8)  # rewritten in place
    head, tail = u[:-1], u[1:]
    minus = (head == _DASH) & (tail == _ONE)
    na = (head == _N) & (tail == _A)
    # neither pattern can overlap itself or the other, so the rewrites are exact
    tail += minus  # 1 -> 2
    tail -= na.view(np.uint8) * np.uint8(_A - _THREE)  # A -> 3
    head *= ~(minus | na)  # the opener -> NUL
    call = u > _SPACE  # a call, or a byte the translate below refuses
    if (call[:-1] & (call[1:] | (tail == _NUL))).any():
        return None  # two calls run together, such as 00, -10 or 1NA
    lines = text.translate(None, b"\0 \t")  # one byte per call, rows ended by \n
    u = np.frombuffer(lines, dtype=np.uint8)
    newline = u == _NEWLINE
    if not (newline | (u - _ZERO <= _THREE - _ZERO) | (u == _DOT)).all():
        return None  # a -, N or A left over, or a foreign byte
    breaks = np.flatnonzero(newline)
    widths = np.diff(breaks, prepend=-1, append=len(lines)) - 1
    widths = widths[widths > 0]  # blank lines hold no calls
    stop = row + widths.size
    if (widths != width).any() or stop > codes.shape[0]:  # ragged, or the file grew
        return None
    if breaks.size == widths.size and lines.endswith(b"\n"):  # no blank line: read in place
        calls = u.reshape(widths.size, width + 1)[:, :width]
    else:
        calls = np.frombuffer(lines.translate(None, b"\n"), dtype=np.uint8).reshape(-1, width)
    np.subtract(calls == _ONE, calls == _TWO, dtype=np.int8, out=codes[row:stop])
    np.logical_or(calls == _THREE, calls == _DOT, out=mask[row:stop])
    return stop


def _parse_genotype_text(text: str, path: str) -> tuple[np.ndarray, np.ndarray, list[str] | None]:
    rows: list[list[int]] = []
    mask_rows: list[list[bool]] = []
    header: list[str] | None = None
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if width is None and header is None:
            if _is_header(tokens):
                header = tokens
                continue
        if width is None:
            width = len(tokens)
            if header is not None and len(header) != width:
                raise ParseError(
                    f"{path}: header names {len(header)} SNPs but row {lineno} has {width}"
                )
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: row {lineno} has {len(tokens)} fields, expected {width}"
            )
        codes = []
        miss = []
        for t in tokens:
            code = _CODE_TOKENS.get(t)
            if code is None:
                codes.append(0)  # unknown token becomes a missing entry
                miss.append(True)
            else:
                codes.append(code)
                miss.append(False)
        rows.append(codes)
        mask_rows.append(miss)
    if not rows:
        raise ParseError(f"{path}: no genotype rows found")
    return (
        np.asarray(rows, dtype=np.int8),
        np.asarray(mask_rows, dtype=np.bool_),
        header,
    )


def _parse_sidecar_ids(text: str, path: str) -> list[str]:
    """The SNP ids of a sidecar; its chromosomes and positions are checked, not kept."""
    ids = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise ParseError(f"{path}: row {lineno} needs snp_id, chromosome, position")
        try:
            position = int(tokens[2])
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno} has non-integer position") from exc
        if position < 0:
            raise ParseError(f"{path}: row {lineno} has a negative position")
        ids.append(tokens[0])
    return ids


def _parse_reals(line: str, path: str | Path, lineno: int, what: str) -> list[float]:
    """The finite reals of one text row; NaN and infinities are rejected."""
    try:
        row = [float(t) for t in line.split()]
    except ValueError as exc:
        raise ParseError(f"{path}: row {lineno} has a non-numeric {what}") from exc
    if not all(math.isfinite(v) for v in row):
        raise ParseError(f"{path}: row {lineno} has a non-finite {what}")
    return row


def load_dataset(
    genotype_path: str | Path,
    trait_path: str | Path | None = None,
    covariate_path: str | Path | None = None,
    meta_path: str | Path | None = None,
) -> Dataset:
    """Load a dataset from whitespace-separated text files.

    The genotype file may start with a header row of SNP ids; a metadata
    sidecar (snp_id, chromosome, position per line) overrides it, and its
    chromosomes and positions are checked but not kept.  Repeated ids are
    refused.  Without either, column j is named ``snp{j}``.  Trait is
    one real per line, covariates one whitespace-separated row per
    individual.
    """
    genotype_path = Path(genotype_path)
    parsed = _parse_genotype_bytes(genotype_path)
    if parsed is None:
        parsed = _parse_genotype_text(genotype_path.read_text(), str(genotype_path))
    values, mask, header = parsed
    n, p = values.shape
    if header is not None and len(header) != p:
        raise ParseError(f"{genotype_path}: header width {len(header)} against {p} columns")

    snp_ids, source = header, genotype_path
    if meta_path is not None:
        snp_ids = _parse_sidecar_ids(Path(meta_path).read_text(), str(meta_path))
        source = meta_path
        if len(snp_ids) != p:
            raise DimensionError(
                f"{meta_path}: {len(snp_ids)} metadata rows against {p} SNP columns"
            )
    if snp_ids is not None:
        repeated = _repeated_id(snp_ids)
        if repeated is not None:
            raise ParseError(f"{source}: SNP id {repeated!r} appears more than once")
        snp_ids = _CheckedIds(snp_ids)

    trait = None
    if trait_path is not None:
        text = Path(trait_path).read_text()
        trait = np.asarray([v for lineno, line in enumerate(text.splitlines(), start=1)
                            for v in _parse_reals(line, trait_path, lineno, "trait value")],
                           dtype=np.float64)
        if trait.shape[0] != n:
            raise DimensionError(
                f"trait file has {trait.shape[0]} values against {n} genotype rows"
            )

    covariates = None
    if covariate_path is not None:
        cov_rows = []
        text = Path(covariate_path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            row = _parse_reals(line, covariate_path, lineno, "covariate value")
            if row:
                cov_rows.append(row)
        covariates = np.asarray(cov_rows, dtype=np.float64)
        if covariates.ndim != 2 or covariates.shape[0] != n:
            raise DimensionError(
                f"covariate file has {covariates.shape[0]} rows against {n} genotype rows"
            )

    return Dataset(
        genotypes=GenotypeMatrix(values, mask), snp_ids=snp_ids, trait=trait,
        covariates=covariates,
    )


def impute_missing(dataset: Dataset, window: int = 500, n_predictors: int = 4) -> Dataset:
    """Fill every missing genotype call from its best local predictors.

    For each missing entry, the ``n_predictors`` markers within ``window``
    file positions with the largest absolute pairwise-complete correlation
    to the target column, and observed for that individual, define a
    matching pattern; the most frequent target value among individuals
    matching the pattern exactly is imputed, falling back to the column
    majority when no individual matches.  Ties pick the smaller code;
    predictor ties prefer smaller file distance, then smaller index.
    Observed entries are never altered and the pass is idempotent.
    """
    if window < 1 or n_predictors < 1:
        raise ValueError("window and n_predictors must be >= 1")
    gm = dataset.genotypes
    if gm.complete:
        return dataset
    filled, bad = _kernels.impute_fill(
        gm.values, gm.missing_mask, int(window), int(n_predictors)
    )
    if bad >= 0:
        raise ImputationError(
            f"SNP {dataset.snp_ids[bad]} (column {int(bad)}) has no observed genotypes"
        )
    # np.zeros, not zeros_like: its pages stay unmapped until written, so
    # the all-False mask adds nothing to the peak beside the filled codes
    new_gm = GenotypeMatrix(filled, np.zeros(gm.missing_mask.shape, dtype=np.bool_))
    return replace(dataset, genotypes=new_gm)


def minor_allele_frequency(column: np.ndarray) -> float:
    """MAF of one complete genotype column, in [0, 0.5].

    With codes read as minor-allele count minus one, the allele frequency
    is ``(sum(x) + n) / (2n)``; the minor side is ``min(f, 1 - f)``.
    """
    col = np.asarray(column)
    if np.isnan(col.astype(np.float64)).any():
        raise ValueError("column contains missing values")
    n = col.shape[0]
    f = (float(col.sum()) + n) / (2.0 * n)
    return min(f, 1.0 - f)


def sample_correlation(col_a: np.ndarray, col_b: np.ndarray) -> float:
    """Pearson correlation of two complete columns (n-1 denominator)."""
    a = np.asarray(col_a, dtype=np.float64)
    b = np.asarray(col_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("columns must be 1-D with equal length")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("columns contain missing values")
    ac = a - a.mean()
    bc = b - b.mean()
    va = float(ac @ ac)
    vb = float(bc @ bc)
    if va <= 0.0 or vb <= 0.0:
        raise DegenerateColumnError("zero-variance column in correlation")
    return float(ac @ bc) / np.sqrt(va * vb)
