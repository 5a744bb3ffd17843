"""The QR-compressed subset kernel against the per-subset Gram-Schmidt one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwasel import _kernels


def subset_rss(z, y, subset):
    cols = z[:, list(subset)]
    if cols.shape[1] == 0:
        return float(y @ y)
    beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
    r = y - cols @ beta
    return float(r @ r)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.integers(0, 5),
    st.sampled_from(["independent", "duplicate", "combination"]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_best_subset_qr_matches_gram_schmidt(seed, s, cap, columns, log_mode):
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
    cap = min(cap, s)
    args = (z, y, float(y @ y), orig_norm2, pen, cap,
            log_mode, float(n), 1.7, 1e-12, 1e-20)

    val_gs, idx_gs, n_gs = _kernels._best_subset_numpy(*args)
    val_qr, idx_qr, n_qr = _kernels._best_subset_qr(*args)

    assert n_qr == n_gs
    assert val_qr == pytest.approx(val_gs, rel=1e-9)
    if list(idx_qr) != list(idx_gs):
        # only subsets spanning the same space tie exactly, and rounding
        # decides those ties in both kernels
        assert columns != "independent"
        assert len(idx_qr) == len(idx_gs)
        assert subset_rss(z, y, idx_qr) == pytest.approx(subset_rss(z, y, idx_gs), rel=1e-9)


def test_best_subset_qr_skips_exact_duplicate():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(30, 4))
    z[:, 3] = z[:, 1]
    y = 2.0 * z[:, 1] + 0.1 * rng.normal(size=30)
    args = (z, y, float(y @ y), np.einsum("ij,ij->j", z, z), np.arange(5.0),
            4, True, 30.0, 1.0, 1e-12, 1e-20)
    _, _, n_eval = _kernels._best_subset_qr(*args)
    # 16 subsets of four columns; the 4 holding both copies are skipped
    assert n_eval == 16 - 4
    assert n_eval == _kernels._best_subset_numpy(*args)[2]


@pytest.mark.parametrize("cap, pen, expected", [
    (2, [0.0, 0.1, 100.0], [0]),      # {0}, {1}, {2} tie: siblings
    (2, [0.0, 100.0, 0.1], [0, 1]),   # every pair ties: siblings and cousins
    (3, [0.0, 100.0, 0.1, 100.0], [0, 1]),
])
def test_best_subset_exact_ties_go_to_smallest_subset(cap, pen, expected):
    z = np.zeros((5, 3))
    z[0, 0] = z[1, 1] = z[2, 2] = 1.0
    y = np.array([1.0, 1.0, 1.0, 0.5, 0.0])
    args = (z, y, float(y @ y), np.ones(3), np.asarray(pen), cap,
            True, 5.0, 1.0, 1e-12, 1e-20)
    for kernel in (_kernels._best_subset_numpy, _kernels._best_subset_qr):
        assert list(kernel(*args)[1]) == expected


def test_best_subset_uses_qr_kernel_without_numba(monkeypatch):
    monkeypatch.setenv("GWASEL_BACKEND", "numpy")
    rng = np.random.default_rng(5)
    z = rng.normal(size=(40, 6))
    y = z[:, 2] + rng.normal(size=40)
    out = _kernels.best_subset(z, y, float(y @ y), np.einsum("ij,ij->j", z, z),
                               np.arange(7.0) * 3.0, 3, log_mode=True, n_obs=40,
                               sigma2=1.0, floor=1e-12, tol=1e-10)
    ref = _kernels._best_subset_qr(z, y, float(y @ y), np.einsum("ij,ij->j", z, z),
                                   np.arange(7.0) * 3.0, 3, True, 40.0, 1.0, 1e-12, 1e-20)
    assert out[0] == ref[0] and list(out[1]) == list(ref[1]) and out[2] == ref[2]
