"""Slow reference implementations that the tests compare fast paths against."""

import numpy as np

from gwasel.search import SearchTrace, _best_drop


def lstsq_design(dataset, snps, forced=()):
    """[1 | forced | snps] in the workspace's column order."""
    n = dataset.n_individuals
    cols = [np.ones(n)]
    if dataset.covariates is not None:
        cols.extend(dataset.covariates[:, j] for j in forced)
    cols.extend(dataset.float_values[:, j] for j in snps)
    return np.column_stack(cols)


def lstsq_rss(dataset, snps, forced=()):
    """(RSS, coefficients) of a from-scratch least-squares fit."""
    D = lstsq_design(dataset, snps, forced)
    beta, *_ = np.linalg.lstsq(D, dataset.trait, rcond=None)
    r = dataset.trait - D @ beta
    return float(r @ r), beta


def backward_by_drops(ws, ev, trace: SearchTrace, stage: str = "backward"):
    """Backward elimination one workspace drop at a time.

    Every step scores all drops from a fresh triangular inverse of the
    workspace (``_best_drop``) and applies the best with ``drop_snp``.
    """
    cur_val = ev.value(ws.rss, len(ws.snps))
    while ws.snps:
        val, j = _best_drop(ws, ev)
        if val >= cur_val:
            break
        ws.drop_snp(j)
        cur_val = val
        trace.append(stage, "drop", j, cur_val, len(ws.snps))
    return ws.model()
