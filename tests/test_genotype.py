import os
import re
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from gwasel import genotype
from gwasel.errors import (
    DegenerateColumnError,
    DimensionError,
    ImputationError,
    ParseError,
)
from gwasel.genotype import (
    Dataset,
    GenotypeMatrix,
    impute_missing,
    load_dataset,
    minor_allele_frequency,
    sample_correlation,
)

from conftest import dataset_from_values


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_maps_tokens_and_missing(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("-1 0\n1 NA\n0 0\n")
    ds = load_dataset(g)
    assert ds.genotypes.values[0].tolist() == [-1, 0]
    assert ds.genotypes.missing_mask[1, 1]
    assert not ds.genotypes.missing_mask[1, 0]
    assert ds.n_individuals == 3 and ds.n_snps == 2


def test_load_accepts_dot_and_unknown_tokens_as_missing(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("-1 .\n1 0\n0 2\n")
    ds = load_dataset(g)
    assert ds.genotypes.missing_mask[0, 1]
    assert ds.genotypes.missing_mask[2, 1]  # "2" is not a genotype code


def test_load_header_row(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("rs1 rs2\n-1 0\n1 0\n")
    ds = load_dataset(g)
    assert ds.snp_ids == ("rs1", "rs2")


def test_trait_length_mismatch(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("-1 0\n1 0\n0 0\n-1 1\n")
    t = tmp_path / "t.txt"
    t.write_text("1\n2\n3\n4\n5\n")
    with pytest.raises(DimensionError):
        load_dataset(g, trait_path=t)


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity"])
def test_non_finite_trait_and_covariate_name_file_and_row(tmp_path, token):
    g = tmp_path / "g.txt"
    g.write_text("-1 0\n1 0\n0 1\n")
    t = tmp_path / "t.txt"
    t.write_text(f"1.5\n{token}\n2\n")
    with pytest.raises(ParseError, match=r"t\.txt: row 2 has a non-finite trait value"):
        load_dataset(g, trait_path=t)
    c = tmp_path / "c.txt"
    c.write_text(f"1 0\n0 1\n0 {token}\n")
    with pytest.raises(ParseError, match=r"c\.txt: row 3 has a non-finite covariate value"):
        load_dataset(g, covariate_path=c)


def test_empty_genotype_file(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("")
    with pytest.raises(ParseError):
        load_dataset(g)


def test_ragged_row_reports_line(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("-1 0\n1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(g)


def test_meta_sidecar(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("rs1 rs2\n-1 0\n1 0\n")
    m = tmp_path / "m.txt"
    m.write_text("rsA 1 100\nrsB 2 250\n")
    ds = load_dataset(g, meta_path=m)
    assert ds.snp_ids == ("rsA", "rsB")  # the sidecar overrides the header


@pytest.mark.parametrize("rows, message", [
    ("rsA 1 100\nrsB 2\n", "row 2 needs snp_id, chromosome, position"),
    ("rsA 1 100\nrsB 2 x\n", "row 2 has non-integer position"),
    ("rsA 1 100\nrsB 1 -5\n", "row 2 has a negative position"),
    ("rsA 1 100\nrsA 2 250\n", "SNP id 'rsA' appears more than once"),
])
def test_bad_sidecar_row_names_file_and_row(tmp_path, rows, message):
    g = tmp_path / "g.txt"
    g.write_text("-1 0\n1 0\n")
    m = tmp_path / "m.txt"
    m.write_text(rows)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{m}: {message}')}$"):
        load_dataset(g, meta_path=m)


def test_repeated_header_id_is_refused(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("rsA rsA rsB rsC\n-1 0 1 0\n1 0 0 1\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(g))}: SNP id 'rsA' appears"):
        load_dataset(g)


def test_dataset_snp_ids():
    gm = GenotypeMatrix(np.zeros((2, 3), dtype=np.int8), np.zeros((2, 3), dtype=bool))
    assert Dataset(gm).snp_ids == ("snp0", "snp1", "snp2")
    assert Dataset(gm, snp_ids=["a", "b", "c"]).snp_ids == ("a", "b", "c")
    with pytest.raises(ValueError, match="SNP id 'b' appears more than once"):
        Dataset(gm, snp_ids=("a", "b", "b"))
    with pytest.raises(DimensionError):
        Dataset(gm, snp_ids=("a", "b"))


def test_derived_datasets_keep_checked_ids(monkeypatch):
    calls = []
    real = genotype._repeated_id
    monkeypatch.setattr(genotype, "_repeated_id", lambda ids: calls.append(1) or real(ids))
    values = np.array([[0, 1, -1], [1, 0, 0], [-1, 1, 1]], dtype=np.int8)
    mask = np.zeros(values.shape, dtype=bool)
    mask[0, 0] = True
    ds = Dataset(GenotypeMatrix(values, mask), snp_ids=["a", "b", "c"])
    assert len(calls) == 1
    derived = ds.with_trait(np.ones(3)).with_trait(np.zeros(3))
    completed = impute_missing(derived, window=2, n_predictors=1)
    assert len(calls) == 1
    assert derived.snp_ids == completed.snp_ids == ("a", "b", "c")
    with pytest.raises(ValueError, match="SNP id 'a' appears more than once"):
        replace(ds, snp_ids=("a", "b", "a"))
    with pytest.raises(DimensionError):
        replace(ds, genotypes=GenotypeMatrix(values[:, :2], mask[:, :2]))


@pytest.mark.parametrize("idx", [slice(3, 9), [7, 2, 2, 5], np.array([0, 11]), 4],
                         ids=["slice", "list", "array", "int"])
def test_columns_equal_the_float_copy_bit_for_bit(idx):
    rng = np.random.default_rng(14)
    ds = dataset_from_values(rng.integers(-1, 2, size=(9, 12), dtype=np.int8))
    cold = ds.columns(idx)
    assert "float_values" not in ds.__dict__  # converted from the int8 codes alone
    want = ds.float_values[:, idx]
    warm = ds.columns(idx)
    for got in (cold, warm):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
    if not isinstance(idx, (slice, int)):  # a gather is Fortran-ordered either way
        assert cold.strides == warm.strides == want.strides and want.flags.f_contiguous
    # the cache serves slices and single columns; index gathers read the codes
    ds.__dict__["float_values"] = ds.float_values + 0.5
    from_cache = isinstance(idx, (slice, int))
    assert np.array_equal(ds.columns(idx), want + 0.5 if from_cache else want)
    # a derived dataset does not inherit the copy
    assert "float_values" not in ds.with_trait(np.zeros(9)).__dict__


def test_covariates_loaded(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("-1 0\n1 0\n0 1\n")
    c = tmp_path / "c.txt"
    c.write_text("1 0\n0 1\n0 0\n")
    ds = load_dataset(g, covariate_path=c)
    assert ds.covariates.shape == (3, 2)


def test_matrix_invariants():
    with pytest.raises(ValueError):
        GenotypeMatrix(np.array([[2]], dtype=np.int8), np.array([[False]]))
    with pytest.raises(ValueError):
        GenotypeMatrix(np.array([[1, 0]], dtype=np.int8), np.array([[False, False]]))
    every_code = np.arange(-128, 128, dtype=np.int8).reshape(2, 128)
    masked = (every_code < -1) | (every_code > 1)
    GenotypeMatrix(every_code, masked)  # any code under the mask is accepted
    GenotypeMatrix(every_code, np.ones_like(masked))
    for code in (-2, 2, -128, 127):
        values = np.array([[0, code], [1, -1]], dtype=np.int8)
        with pytest.raises(ValueError, match="must be -1, 0 or 1"):
            GenotypeMatrix(values, np.zeros_like(values, dtype=bool))
        observed = every_code == code
        with pytest.raises(ValueError, match="must be -1, 0 or 1"):
            GenotypeMatrix(every_code, masked & ~observed)


# ---------------------------------------------------------------------------
# byte path against the token parser
# ---------------------------------------------------------------------------

_CONFORMING = ["-1", "0", "1", "NA", "."]
_OTHER = ["na", "2", "4", "-10", "00", "1NA", "N", "-", "rs7"]


@st.composite
def genotype_files(draw):
    """(text, conforming): genotype text of the byte path's shape, or bent
    out of it in one way; ``conforming`` when unbent and holding a row."""
    bend = draw(st.sampled_from([None, None, None, "token", "merge", "sep", "eol", "ragged",
                                 "header", "byte"]))
    width = draw(st.integers(1, 5))
    odd = [draw(st.sampled_from(_OTHER))] * 3 if bend == "token" else []
    token = st.sampled_from(_CONFORMING + odd)
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\t\t"] + ([" \x0b"] if bend == "sep" else []))
    pad = st.sampled_from(["", "", "", " ", "\t", " \t "])

    def row(n, merge=False):
        tokens = draw(st.lists(token, min_size=n, max_size=n))
        seps = [draw(sep) for _ in tokens[1:]]
        if merge and seps:  # two calls run together: one token fewer, as many bytes
            seps[draw(st.integers(0, len(seps) - 1))] = ""
        return draw(pad) + tokens[0] + "".join(map(str.__add__, seps, tokens[1:])) + draw(pad)

    lines = []
    header = draw(st.sampled_from(
        ["wide", "narrow", "mixed", "non-ascii", "split"] if bend == "header" else [None, "ids"]))
    if header in ("ids", "wide", "narrow"):
        names = width + {"ids": 0, "wide": 1, "narrow": -1}[header]
        lines.append(" ".join(f"rs{j}" for j in range(names)))
    elif header == "split":  # a line break of the token parser inside the header line
        brk = draw(st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]))
        lines.append("rs0" + brk + " ".join(f"rs{j}" for j in range(1, width)))
    elif header == "mixed":
        lines.append("\t".join(["rs0"] + ["1"] * (width - 1)))
    elif header == "non-ascii":
        lines.append(" ".join(f"rs\u00e9{j}" for j in range(width)))
    n_rows = draw(st.integers(0, 6))
    for i in range(n_rows):
        ragged = bend == "ragged" and draw(st.booleans())
        lines.append(row(draw(st.integers(1, 6)) if ragged else width,
                         merge=bend == "merge" and i > 0))
    if bend == "byte" and n_rows:  # a byte the byte path's rewrites make, or a \r, in a row
        i = draw(st.integers(len(lines) - n_rows, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(["\0", "3", "\r"])) + lines[i][at:]
    for _ in range(draw(st.integers(0, 2))):  # blank lines anywhere, the first included
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))
    eol = draw(st.sampled_from(["\r\n", "\r"] if bend == "eol" else ["\n"]))
    text = eol.join(lines) + (eol if lines and draw(st.booleans()) else "")
    return text.encode(), bend is None and n_rows > 0


def _outcome(load):
    try:
        ds = load()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    gm = ds.genotypes
    return gm.values.tolist(), gm.missing_mask.tolist(), ds.snp_ids


_BLOCKS = (1, 2, 7, genotype._BLOCK)  # rows straddle the edges of all but the default


@settings(max_examples=500, deadline=None)
@given(data=genotype_files())
@example(data=(b"1 1 0\n0 4 1\n", False))  # a digit past the codes, in a row
def test_byte_path_matches_token_parser(tmp_path_factory, data):
    data, conforming = data
    path = tmp_path_factory.mktemp("diff") / "g.txt"
    path.write_bytes(data)
    with mock.patch.object(genotype, "_parse_genotype_bytes", return_value=None):
        expected = _outcome(lambda: load_dataset(path))
    declined = set()
    for block in _BLOCKS:
        with mock.patch.object(genotype, "_BLOCK", block):
            fast = genotype._parse_genotype_bytes(path)
            declined.add(fast is None)
            if fast is not None:
                values, mask, header = genotype._parse_genotype_text(path.read_text(), str(path))
                assert fast[0].dtype == np.int8 and fast[1].dtype == np.bool_
                assert np.array_equal(fast[0], values) and np.array_equal(fast[1], mask)
                assert fast[2] == header
            assert _outcome(lambda: load_dataset(path)) == expected
    assert len(declined) == 1  # the block size never decides whether a file conforms
    assert not (conforming and declined == {True})  # and a conforming file takes the byte path
    event("token parser" if declined.pop() else "byte path")


@pytest.mark.parametrize("token", ["1-1", "-1-1", "NANA", "0NA", "N-1A"])
def test_calls_run_together_decline(tmp_path, token):
    g = tmp_path / "g.txt"
    g.write_text(f"0 1\n{token} 1\n")
    assert genotype._parse_genotype_bytes(g) is None
    ds = load_dataset(g)  # the token parser reads the token as one unknown call
    assert ds.genotypes.missing_mask.tolist() == [[False, False], [True, False]]


def test_conforming_file_takes_byte_path(tmp_path, monkeypatch):
    text_parse = genotype._parse_genotype_text

    def no_text_parse(text, path):
        raise AssertionError("the token parser ran on a conforming file")

    monkeypatch.setattr(genotype, "_parse_genotype_text", no_text_parse)
    g = tmp_path / "g.txt"
    g.write_text("\n  \n rs1\trs2  rs3\n-1 NA 1\n\n0\t.   -1\n\t1 1 NA \n")
    ds = load_dataset(g)
    assert ds.snp_ids == ("rs1", "rs2", "rs3")
    assert ds.genotypes.values.tolist() == [[-1, 0, 1], [0, 0, -1], [1, 1, 0]]
    assert ds.genotypes.missing_mask.tolist() == [
        [False, True, False], [False, True, False], [False, False, True]]

    rng = np.random.default_rng(5)
    for n, p in ((500, 600), (3, 150_000)):  # many rows per block, then rows longer than one
        calls = rng.choice(["-1", "0", "1", "NA", "."], size=(n, p), p=[0.3, 0.3, 0.3, 0.05, 0.05])
        lines = [("\t" if i % 2 else " ").join(row) for i, row in enumerate(calls)]
        for i in range(n, 0, -50):
            lines.insert(i, " \t" if i % 100 else "")
        text = "\n".join(lines) + "\n"
        assert len(text) > 2 * genotype._BLOCK
        g.write_text(text)
        ds = load_dataset(g)
        values, mask, header = text_parse(text, str(g))
        assert header is None and ds.genotypes.values.shape == (n, p)
        assert np.array_equal(ds.genotypes.values, values)
        assert np.array_equal(ds.genotypes.missing_mask, mask)


def test_pipe_is_read_once_by_the_token_parser(tmp_path):
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    loaded = []
    reader = threading.Thread(target=lambda: loaded.append(load_dataset(fifo)), daemon=True)
    reader.start()
    fifo.write_text("-1 0\n1 NA\n")  # returns once the reader has opened the pipe
    reader.join(timeout=30)
    assert not reader.is_alive() and len(loaded) == 1
    assert loaded[0].genotypes.values.tolist() == [[-1, 0], [1, 0]]
    assert loaded[0].genotypes.missing_mask.tolist() == [[False, False], [False, True]]


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def test_impute_identity_when_complete(tiny_dataset):
    assert impute_missing(tiny_dataset) is tiny_dataset


def test_impute_unanimous_neighbors():
    # rows 1..4 agree on the predictor pattern of row 0 and all carry 1
    values = np.array(
        [
            [0, 1, 0, 0],
            [0, 1, 0, 1],
            [0, 1, 0, 1],
            [1, -1, 1, 0],
            [-1, 0, 1, -1],
        ],
        dtype=np.int8,
    )
    mask = np.zeros_like(values, dtype=bool)
    mask[0, 3] = True
    ds = dataset_from_values(values, mask=mask)
    out = impute_missing(ds, window=3, n_predictors=3)
    assert out.genotypes.values[0, 3] == 1
    assert out.genotypes.complete


def test_impute_majority_fallback_hand_case():
    # 4x6 toy: row 0 matches nobody on its predictors, column 5 observed
    # values are (1, 1, 0), so the column majority 1 is imputed
    values = np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [-1, 0, 0, 0, 0, 1],
            [0, -1, 0, 0, 0, 1],
            [0, 0, -1, 0, 0, 0],
        ],
        dtype=np.int8,
    )
    mask = np.zeros_like(values, dtype=bool)
    mask[0, 5] = True
    ds = dataset_from_values(values, mask=mask)
    out = impute_missing(ds, window=500, n_predictors=4)
    assert out.genotypes.values[0, 5] == 1


def test_impute_all_missing_column_fails():
    values = np.zeros((3, 2), dtype=np.int8)
    mask = np.zeros_like(values, dtype=bool)
    mask[:, 1] = True
    ds = dataset_from_values(values, mask=mask)
    with pytest.raises(ImputationError, match="snp1"):
        impute_missing(ds)


def test_impute_idempotent_and_preserves_observed():
    rng = np.random.default_rng(7)
    values = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(20, 12))
    mask = rng.random((20, 12)) < 0.15
    mask[:, 0] = False  # keep at least one fully observed column
    ds = dataset_from_values(values, mask=mask)
    once = impute_missing(ds, window=6, n_predictors=3)
    twice = impute_missing(once, window=6, n_predictors=3)
    assert np.array_equal(once.genotypes.values, twice.genotypes.values)
    observed = ~mask
    assert np.array_equal(once.genotypes.values[observed], values[observed])
    assert once.genotypes.complete


def test_impute_tie_prefers_smaller_code():
    # no predictors carry information (all constant), column has a 50/50 split
    values = np.array(
        [
            [0, -1],
            [0, -1],
            [0, 1],
            [0, 1],
            [0, 0],
        ],
        dtype=np.int8,
    )
    mask = np.zeros_like(values, dtype=bool)
    mask[4, 1] = True
    values[4, 1] = 0
    ds = dataset_from_values(values, mask=mask)
    out = impute_missing(ds, window=1, n_predictors=2)
    assert out.genotypes.values[4, 1] == -1


# ---------------------------------------------------------------------------
# column statistics
# ---------------------------------------------------------------------------


def test_maf_examples():
    assert minor_allele_frequency(np.zeros(6, dtype=np.int8)) == 0.5
    assert minor_allele_frequency(-np.ones(5, dtype=np.int8)) == 0.0
    assert minor_allele_frequency(np.array([-1, -1, 0, 1], dtype=np.int8)) == pytest.approx(0.375)


def test_maf_range_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        col = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=rng.integers(2, 40))
        assert 0.0 <= minor_allele_frequency(col) <= 0.5


def test_correlation_examples():
    col = np.array([-1, 0, 1, 0], dtype=np.float64)
    assert sample_correlation(col, col) == pytest.approx(1.0)
    a = np.array([-1, 1, -1, 1], dtype=np.float64)
    assert sample_correlation(a, -a) == pytest.approx(-1.0)
    b = np.array([-1, 1, 0, 0], dtype=np.float64)
    assert sample_correlation(col, b) == pytest.approx(0.5)


def test_correlation_symmetry_and_affine_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        r = sample_correlation(a, b)
        assert sample_correlation(b, a) == pytest.approx(r)
        scale, shift = rng.uniform(0.1, 5.0), rng.normal()
        assert sample_correlation(scale * a + shift, b) == pytest.approx(r)


def test_correlation_degenerate():
    with pytest.raises(DegenerateColumnError):
        sample_correlation(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))
