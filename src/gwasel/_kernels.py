"""Hot numeric kernels.

Three kernels dominate runtime on large panels:

* ``impute_fill``    -- nearest-predictor genotype imputation
* ``leader_cluster`` -- greedy windowed correlation clustering
* ``best_subset``    -- depth-first subset scoring pruned by leaps and bounds

The per-column and per-subset kernels these replaced,
``_impute_fill_numpy``, ``_leader_cluster_numpy`` and
``_best_subset_numpy``, run only in the tests: they live in
``tests/oracles.py``, and ``tests/test_kernels.py`` checks each kernel
against its reference.  ``impute_fill`` gives the same integers as its
reference on every input.  ``leader_cluster`` does too, except where a
correlation lies within rounding (~1e-12) of the threshold: a matrix
product and a matrix-vector product may round it to opposite sides.
``best_subset`` scores each subset its reference scores, less those in
subtrees its bound rules out, and, when the minimum lies at or below the
value it is asked to beat, finds the same subset unless two subsets span
the same column space (duplicated or linearly dependent columns):
their values then tie exactly and rounding picks one.  ``best_subset``
takes the collinearity gate and the criterion from its caller, so the
search and the kernel share one of each; it owns the bound and the budget
on subsets scored.
"""
from __future__ import annotations

import math

import numpy as np

from gwasel.errors import BudgetError

_IMPUTE_CHUNK = 64  # target columns whose window sums share one product
_CLUSTER_BLOCK = 128  # columns correlated per product in leader clustering

# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def impute_fill(values, observed, window, n_predictors):
    """Fill missing genotype codes; returns (filled, failed_column or -1).

    ``values`` holds the int8 codes and ``observed`` is True at observed
    calls.  All imputed values are computed from the original observed
    entries, so the result does not depend on column visiting order.
    """
    # Same imputations as _impute_fill_numpy.  The pairwise-complete sums of
    # up to _IMPUTE_CHUNK target columns t against the columns c of the span
    # of their windows come from one matrix product, sxy = Y'X, with Y and
    # X zero at missing calls, and from corrections over missing calls only:
    # sx and sxx are the span's column sums of x and x*x less their sums over
    # t's missing rows, n_ok = n_obs(t) - n_miss(c) + |miss(t) & miss(c)|,
    # and sy, syy are t's totals less Y'M and (Y*Y)'M, where M flags the
    # missing calls of the span columns that have one.  Every sum is an
    # integer, exact in float64 in any order, so the correlations are
    # bit-identical.  Each column's window is ranked once, only as far as
    # any row can reach; a missing row's predictors are the first
    # n_predictors of that ranking it has observed, and the rows that share
    # a predictor set are voted on together.
    n, p = values.shape
    out = values.copy()
    n_obs = observed.sum(axis=0)
    targets = np.nonzero(n_obs < n)[0]
    empty = targets[n_obs[targets] == 0]
    bad = int(empty[0]) if empty.size else -1
    if bad >= 0:  # fill up to the first column with nothing to impute from
        targets = targets[targets < bad]
    start = 0
    while start < targets.size:
        cur = targets[start:start + _IMPUTE_CHUNK]
        cur = cur[cur <= cur[0] + 2 * window]  # span at most 4 * window + 1 columns
        start += cur.size
        s0 = max(0, int(cur[0]) - window)
        s1 = min(p, int(cur[-1]) + window + 1)
        obs_span = observed[:, s0:s1]
        x = (values[:, s0:s1] * obs_span).astype(np.float64)
        y = (values[:, cur] * observed[:, cur]).T.astype(np.float64)
        sxy = y @ x
        sum_x = x.sum(axis=0)
        sum_xx = np.einsum("ij,ij->j", x, x)
        n_miss = n - n_obs[s0:s1]
        sy = np.repeat(y.sum(axis=1)[:, None], s1 - s0, axis=1)
        syy = np.repeat(np.einsum("ij,ij->i", y, y)[:, None], s1 - s0, axis=1)
        holed = np.nonzero(n_miss)[0]  # span columns with a missing call
        by_miss = np.vstack([y, y * y]) @ (~obs_span[:, holed]).astype(np.float64)
        sy[:, holed] -= by_miss[:cur.size]
        syy[:, holed] -= by_miss[cur.size:]
        for t, j in enumerate(cur.tolist()):
            lo, hi = max(0, j - window), min(p - 1, j + window)
            w = slice(lo - s0, hi + 1 - s0)
            rows = np.nonzero(~observed[:, j])[0]
            x_miss = x[rows, w]
            n_ok = n_obs[j] - n_miss[w] + (~obs_span[rows, w]).sum(axis=0)
            sx = sum_x[w] - x_miss.sum(axis=0)
            sxx = sum_xx[w] - np.einsum("ij,ij->j", x_miss, x_miss)
            with np.errstate(invalid="ignore", divide="ignore"):
                vx = sxx - sx * sx / n_ok
                vy = syy[t, w] - sy[t, w] * sy[t, w] / n_ok
                cors = (sxy[t, w] - sx * sy[t, w] / n_ok) / np.sqrt(vx * vy)
            cols = np.arange(lo, hi + 1)
            defined = (n_ok >= 2) & (vx > 0.0) & (vy > 0.0) & np.isfinite(cors) & (cols != j)
            pool = cols[defined]
            strength = np.abs(cors[defined])
            # every row observes the complete columns, so its predictors lie
            # at or before the n_predictors-th of them in the ranking, and
            # only columns with |corr| at or above that one's need ranking
            full = n_obs[pool] == n
            if np.count_nonzero(full) >= n_predictors:
                cut = -np.partition(-strength[full], n_predictors - 1)[n_predictors - 1]
                near = strength >= cut
                pool, strength = pool[near], strength[near]
            # by |corr| desc, then file distance asc, then index
            ranked = pool[np.lexsort((pool, np.abs(pool - j), -strength))]
            complete = np.flatnonzero(n_obs[ranked] == n)
            if complete.size >= n_predictors:
                ranked = ranked[:complete[n_predictors - 1] + 1]
            _impute_column(out, values, observed, j, rows, ranked, n_predictors)
    return out, bad


def _impute_column(out, values, observed, j, rows, ranked, n_predictors):
    obs_j = observed[:, j]
    codes = values[obs_j, j].astype(np.int64) + 1
    majority = int(np.argmax(np.bincount(codes, minlength=3))) - 1  # smaller code on ties
    avail = observed[np.ix_(rows, ranked)]
    take = avail & (np.cumsum(avail, axis=1) <= n_predictors)
    groups: dict[bytes, list[int]] = {}
    for r, row in enumerate(np.packbits(take, axis=1)):
        groups.setdefault(row.tobytes(), []).append(r)
    for members in groups.values():
        preds = ranked[take[members[0]]]
        members = rows[members]
        if preds.size == 0:
            out[members, j] = majority
            continue
        # rows keyed by their predictor codes, 3 where missing: sorted, a
        # row opens a new key where its codes differ from the row before
        digits = np.where(observed[:, preds], values[:, preds], 3)
        order = np.lexsort(digits.T)
        sorted_digits = digits[order]
        opens = np.ones(digits.shape[0], np.int64)
        opens[1:] = (sorted_digits[1:] != sorted_digits[:-1]).any(axis=1)
        key = np.empty_like(opens)
        key[order] = np.cumsum(opens) - 1
        counts = np.bincount(key[obs_j] * 3 + codes, minlength=3 * (key.max() + 1))
        counts = counts.reshape(-1, 3)[key[members]]
        out[members, j] = np.where(counts.any(axis=1), counts.argmax(axis=1) - 1, majority)


# ---------------------------------------------------------------------------
# greedy leader clustering
# ---------------------------------------------------------------------------


def _normalise(block):
    x = np.array(block, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cnorm = np.sqrt((centered * centered).sum(axis=0))
    degenerate = cnorm <= 0.0
    normed = np.where(degenerate[None, :], 0.0, centered / np.where(degenerate, 1.0, cnorm)[None, :])
    return normed, degenerate


def leader_cluster(x, threshold, window):
    """Greedy file-order leader clustering on complete genotype columns.

    A column joins the earliest-founded cluster whose representative lies
    within ``window`` file positions and correlates above ``threshold`` in
    absolute value; otherwise it founds a new cluster.  ``x`` may hold the
    int8 codes: one block of columns at a time is converted to float64.
    ``threshold`` must be >= 0; zero-variance columns found singletons.
    Returns ``(cluster_id, representatives, degenerate)``.
    """
    # Same clusters as _leader_cluster_numpy, a block of columns at a time.
    # One matrix product correlates the block with every representative
    # founded before it and still in reach; representatives are founded in
    # file order, so the first hit is the earliest-founded.  The columns
    # without a hit found their clusters in the block's own Gram matrix,
    # one founder at a time.  Degenerate columns are normalised to zero, so
    # for threshold >= 0 they neither join nor attract.
    n, p = x.shape
    cluster_id = np.empty(p, np.int64)
    degenerate = np.empty(p, np.bool_)
    reps: list[int] = []
    near = np.empty(0, np.int64)  # in-reach representatives, ascending
    near_cols = np.empty((n, 0))
    for a in range(0, p, _CLUSTER_BLOCK):
        b = min(a + _CLUSTER_BLOCK, p)
        normed, degenerate[a:b] = _normalise(x[:, a:b])
        keep = near >= a - window
        near, near_cols = near[keep], near_cols[:, keep]
        cols = np.arange(a, b)
        loc = cols - a
        if near.size:
            hit = (np.abs(normed.T @ near_cols) > threshold) & (cols[:, None] - near <= window)
            has = hit.any(axis=1)
            cluster_id[cols[has]] = cluster_id[near[hit[has].argmax(axis=1)]]
            loc = loc[~has]
        sub = normed[:, loc]
        joins_gram = np.abs(sub.T @ sub) > threshold
        pending = np.arange(loc.size)
        founded = []
        while pending.size:
            f, rest = pending[0], pending[1:]
            joins = joins_gram[rest, f] & (loc[rest] - loc[f] <= window)
            cluster_id[a + loc[f]] = cluster_id[a + loc[rest[joins]]] = len(reps)
            reps.append(a + int(loc[f]))
            founded.append(loc[f])
            pending = rest[~joins]
        near = np.concatenate([near, a + np.asarray(founded, np.int64)])
        near_cols = np.hstack([near_cols, normed[:, founded]])
    return cluster_id, np.asarray(reps, dtype=np.int64), degenerate


# ---------------------------------------------------------------------------
# pruned subset scoring
# ---------------------------------------------------------------------------

# a subtree is ruled out only when its bound clears the value to beat by this
# relative margin, which absorbs the rounding of the values it would score
BOUND_MARGIN = 1e-9


def best_subset(z, y_resid, rss0, gate, max_size, values, to_beat, budget):
    """Best subset of the columns of ``z`` up to ``max_size``, by leaps and bounds.

    ``z`` and ``y_resid`` must already be orthogonal to the forced part of
    the design (intercept and covariates), so a subset's RSS is
    ``rss0 - ||proj||^2``.  A branch is skipped as collinear where the
    squared residual norm of its last column is at or below ``gate`` of
    that column.  ``values(rss, size)`` is the criterion of an array of
    RSS values at one subset size.  A subtree of the depth-first walk is
    skipped unscored when a lower bound on each of its subsets' values
    exceeds the best value so far, or ``to_beat`` if lower, by
    ``BOUND_MARGIN`` (Furnival & Wilson, Technometrics 1974).  Returns
    ``(best_value, best_column_indices, n_scored, n_pruned)``, ties broken
    toward smaller, then lexicographically smaller, subsets; ``n_pruned``
    counts the subsets of the skipped subtrees.  When the minimum lies at or
    below ``to_beat`` it is returned exactly, as a full enumeration finds
    it; otherwise the value returned is no lower than the minimum.  The
    empty subset is always scored.  Raises ``BudgetError`` once more than
    ``budget`` subsets have been scored in the walk.
    """
    # Same scores and tie order as _best_subset_numpy, on the coordinates of
    # z in its own QR basis (s x s instead of n x s).  A node of the walk
    # holds the chosen set S and the residualised block of its open columns
    # U = start..s-1, and scores all of its children at once: the pivot of
    # a column is its squared norm in the block, its y load block'c /
    # sqrt(pivot).  The children's blocks are made together, each as the
    # parent block with the child's direction projected out twice; a node
    # one level above the leaves scores all of its grandchildren in one step.
    s = z.shape[1]
    best_val = float(values(rss0, 0))
    best_idx: list[int] = []
    n_eval, n_pruned = 1, 0
    if max_size <= 0 or s == 0:
        return best_val, np.empty(0, np.int64), n_eval, n_pruned

    q, r = np.linalg.qr(z)
    c = q.T @ y_resid
    chosen: list[int] = []
    eps = np.finfo(np.float64).eps

    def ruled_out(block, rss, reach):
        # Every subset below the node is S + V with V a subset of U.  With
        # beta U's coefficients in the fit of S + U and lam the smallest
        # eigenvalue of U's block once S is projected off,
        # RSS(S + V) >= RSS(S + U) + lam * (sum of the |U| - |V| smallest
        # beta^2).  lam is lowered by the backward error of the SVD and
        # clamped at 0, so an ill-conditioned block is never ruled out on a
        # rounded bound.
        k = block.shape[1]
        u, sig, vt = np.linalg.svd(block, full_matrices=False)
        load = u.T @ c
        rss_all = max(rss - float(load @ load), 0.0)
        lam = max(sig[-1] ** 2 - 2 * k * eps * sig[0] ** 2, 0.0)
        smallest = np.zeros(k + 1)  # smallest[j] = sum of the j smallest beta^2
        if lam > 0.0:
            np.cumsum(np.sort((vt.T @ (load / sig)) ** 2), out=smallest[1:])
        ref = min(best_val, to_beat)
        limit = ref + BOUND_MARGIN * abs(ref)
        return all(values(rss_all + lam * smallest[k - j], len(chosen) + j) > limit
                   for j in range(1, reach + 1))

    def score(blocks, start, first, rss, size, prefixes):
        # blocks[a] holds columns start.. of sibling node a, whose children
        # are its columns from local index first[a] on; siblings come in
        # lexicographic order, so the first minimum is the tie winner
        nonlocal best_val, best_idx, n_eval
        piv = np.einsum("akj,akj->aj", blocks, blocks)
        ok = piv > gate[start:]  # collinear branches are skipped
        ok[np.arange(piv.shape[1]) < first[:, None]] = False
        root = np.sqrt(np.where(ok, piv, 1.0))
        ty = (c @ blocks) / root
        rss_new = np.maximum(rss[:, None] - ty * ty, 0.0)
        vals = np.where(ok, values(rss_new, size), np.inf)
        n_ok = int(np.count_nonzero(ok))
        n_eval += n_ok
        if n_eval > budget:
            raise BudgetError(f"subset refinement scored more than {budget} subsets; "
                              "lower refinement_trigger")
        if n_ok:
            a, j = np.unravel_index(np.argmin(vals), vals.shape)
            val = float(vals[a, j])
            cand = prefixes[a] + [start + int(j)]
            if val < best_val or (val == best_val and (
                size < len(best_idx) or (size == len(best_idx) and cand < best_idx)
            )):
                best_val, best_idx = val, cand
        return ok[0], root[0], rss_new[0]

    def descend(block, start, rss):
        nonlocal n_pruned
        reach = min(block.shape[1], max_size - len(chosen))
        if ruled_out(block, rss, reach):
            n_pruned += sum(math.comb(block.shape[1], j) for j in range(1, reach + 1))
            return
        size = len(chosen) + 1
        ok, root, rss_new = score(block[None], start, np.zeros(1, np.int64),
                                  np.array([rss]), size, [chosen])
        if size == max_size:
            return
        kid = np.nonzero(ok[:-1])[0]  # the last column has no children
        if kid.size == 0:
            return
        u = (block[:, kid] / root[kid]).T
        kids = block[None] - u[:, :, None] * (u @ block)[:, None, :]
        kids -= u[:, :, None] * np.einsum("ak,akj->aj", u, kids)[:, None, :]
        if size + 1 == max_size:
            score(kids, start, kid + 1, rss_new[kid], size + 1,
                  [chosen + [start + int(i)] for i in kid])
            return
        for a, i in enumerate(kid):
            chosen.append(start + int(i))
            descend(kids[a][:, i + 1:], start + int(i) + 1, float(rss_new[i]))
            chosen.pop()

    descend(r, 0, rss0)
    return best_val, np.asarray(best_idx, dtype=np.int64), n_eval, n_pruned
