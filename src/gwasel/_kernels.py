"""Hot numeric kernels.

Three kernels dominate runtime on large panels:

* ``impute_fill``    -- nearest-predictor genotype imputation
* ``leader_cluster`` -- greedy windowed correlation clustering
* ``best_subset``    -- depth-first subset scoring pruned by leaps and bounds

The per-column and per-subset kernels these replaced,
``_impute_fill_numpy``, ``_leader_cluster_numpy`` and
``_best_subset_numpy``, run only in the tests: they live in
``tests/oracles.py``, and ``tests/test_kernels.py`` checks each kernel
against its reference.  ``impute_fill`` and ``leader_cluster`` give the
same integers as their references on every input.  Both take their sums of
-1/0/1 code products from float32 matrix products, which are exact in any
order for fewer than 2**24 individuals; both refuse more with a
``ValueError``.  ``leader_cluster`` then tests |r| > c on integers that
float64 holds exactly for fewer than ~9,000 individuals (n**4 < 2**53), so
only c**2 times the variance product is rounded, the same way in the
kernel and its reference.  ``best_subset`` scores each subset its reference scores, less those in
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
from scipy import sparse

from gwasel.errors import BudgetError

_IMPUTE_CHUNK = 64  # target columns whose window sums share one product
_CLUSTER_BLOCK = 128  # columns correlated per product in leader clustering
_EXACT_ROWS = 1 << 24  # float32 holds every integer below 2**24 exactly


def _check_rows(n):
    if n >= _EXACT_ROWS:
        raise ValueError(f"{n} individuals: the genotype kernels sum codes exactly "
                         f"only for fewer than {_EXACT_ROWS}")


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def impute_fill(values, missing, window, n_predictors):
    """Fill missing genotype codes; returns (filled, failed_column or -1).

    ``values`` holds the int8 codes and ``missing`` is True at missing
    calls; it is read as it is, and only the slices in use are negated.
    All imputed values are computed from the original observed entries, so
    the result does not depend on column visiting order.
    """
    # Same imputations as _impute_fill_numpy.  The pairwise-complete sums of
    # up to _IMPUTE_CHUNK target columns t against the columns c of the span
    # of their windows come from float32 products of codes zeroed at missing
    # calls (X, and Y its target columns) and of missing-call flags (M for
    # the span columns that have one, G for the targets' rows): sxy = Y'X,
    # sx and sxx are the span's column sums of x and x*x less G'X and
    # G'(X*X), n_ok = n_obs(t) - n_miss(c) + G'M, and sy, syy are t's totals
    # less Y'M and (Y*Y)'M.  Every sum is an integer below 2**24, exact in float32 in
    # any order, so the correlations are bit-identical.  Each target's
    # window is ranked only as far as any row can reach, all targets of a
    # chunk at once; a missing row's predictors are the first n_predictors
    # of that ranking it has observed, and the rows that share a predictor
    # set are voted on together.
    n, p = values.shape
    _check_rows(n)
    out = values.copy()
    n_obs = n - missing.sum(axis=0)
    complete = n_obs == n
    targets = np.flatnonzero(~complete)
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
        x = (values[:, s0:s1] * ~missing[:, s0:s1]).astype(np.float32)
        xx = np.abs(x)  # x * x for -1/0/1 codes
        holed = np.flatnonzero(~complete[s0:s1])  # span columns with a missing call
        m = missing[:, s0 + holed].astype(np.float32)
        y = x[:, cur - s0]
        cells = np.nonzero(missing[:, cur].T)  # (target, row) of each missing call
        # G flags each target's missing rows; a last row of ones takes the totals
        g = sparse.csr_matrix((np.ones(cells[0].size + n, np.float32),
                               (np.r_[cells[0], np.full(n, cur.size)],
                                np.r_[cells[1], np.arange(n)])))
        sxy = y.T @ x
        gx, gxx = g @ x, g @ xx
        sx = np.subtract(gx[-1], gx[:-1], dtype=np.float64)
        sxx = gxx[-1] - gxx[:-1]
        # a complete column's pairs miss just the target's missing rows, so
        # n_ok, sy and syy are the target's own; the holed columns' (the
        # targets among them) are less their sums over their missing rows
        n_ok = n_obs[cur][:, None].astype(np.float64)
        sy = y.sum(axis=0, dtype=np.float64)[:, None]
        syy = (y * y).sum(axis=0, dtype=np.float64)[:, None]
        by_miss = np.hstack([y, y * y]).T @ m
        del x, xx, y  # free the n x span blocks before the k x span float64 work
        cors, defined = _correlations(sxy, sx, sxx, sy, syy, n_ok)
        h = np.s_[:, holed]
        cors[h], defined[h] = _correlations(sxy[h], sx[h], sxx[h], sy - by_miss[:cur.size],
                                            syy - by_miss[cur.size:],
                                            n_ok - (n - n_obs[s0 + holed]) + (g @ m)[:-1])
        dist = np.abs(np.arange(s0, s1) - cur[:, None])
        defined &= (dist <= window) & (dist > 0)
        strength = np.where(defined, np.abs(cors), -1.0)
        # every row observes the complete columns, so its predictors lie at
        # or before the n_predictors-th of them in the ranking, and only
        # columns with |corr| at or above that one's need ranking; a target
        # with fewer defined complete columns cuts at -1, below them all
        full = strength[:, complete[s0:s1]]
        if full.shape[1] >= n_predictors:
            rank = full.shape[1] - n_predictors
            cut = np.partition(full, rank, axis=1)[:, rank]
            defined &= strength >= cut[:, None]
        t, c = np.nonzero(defined)
        # by target, then |corr| desc, file distance asc, index
        order = np.lexsort((c, dist[t, c], -strength[t, c], t))
        t, c = t[order], c[order] + s0
        # each ranking ends at its n_predictors-th complete column
        whole = complete[c]
        before = np.cumsum(whole) - whole
        reach = before - before[np.searchsorted(t, t)] < n_predictors
        _vote(out, values, missing, cur, cells, (t[reach], c[reach]), n_predictors)
    return out, bad


def _correlations(sxy, sx, sxx, sy, syy, n_ok):
    """Pairwise-complete correlations of exact integer sums, and where they are defined."""
    with np.errstate(invalid="ignore", divide="ignore"):
        vx = sxx - sx * sx / n_ok
        vy = syy - sy * sy / n_ok
        cors = (sxy - sx * sy / n_ok) / np.sqrt(vx * vy)
    return cors, (n_ok >= 2) & (vx > 0.0) & (vy > 0.0) & np.isfinite(cors)


def _vote(out, values, missing, cur, cells, ranking, n_predictors):
    """Impute the missing ``cells`` (target, row) of the targets ``cur``.

    ``ranking`` holds (target, column) pairs, by target and in rank order.
    """
    tc, rc = cells
    rt, col = ranking
    bounds = np.searchsorted(rt, np.arange(cur.size + 1))
    # each cell's ranking, flat; its predictors are the first n_predictors
    # columns its row has observed
    per = (bounds[1:] - bounds[:-1])[tc]
    start = np.cumsum(per) - per
    cell = np.repeat(np.arange(tc.size), per)
    col = col[np.arange(cell.size) - start[cell] + bounds[tc][cell]]
    avail = ~missing[rc[cell], col]
    slot = np.cumsum(avail)
    slot -= np.concatenate([[0], slot])[start][cell]
    take = avail & (slot <= n_predictors)
    preds = np.full((tc.size, int(slot[take].max(initial=0))), -1, np.int64)
    preds[cell[take], slot[take] - 1] = col[take]
    # the cells of one target that share a predictor set vote together: the
    # rows keyed by their codes on it, 3 where missing, pad digits 0; a cell
    # takes the most frequent target code among the observed rows of its key
    keys = np.column_stack([tc, preds])
    order = np.lexsort(keys.T)
    keys = keys[order]
    opens = np.ones(tc.size, np.bool_)
    opens[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    member = np.empty(tc.size, np.int64)
    member[order] = np.cumsum(opens) - 1
    target, preds = cur[keys[opens, 0]], keys[opens, 1:]
    digits = np.where(missing[:, preds], 3, values[:, preds] + 1)
    digits[:, preds < 0] = 0
    ids = _pair_ids(_row_keys(digits))
    seen = ~missing[:, target]
    codes = values[:, target][seen] + 1
    counts = np.bincount(ids[seen] * 3 + codes, minlength=3 * int(ids.max()) + 3).reshape(-1, 3)
    counts = counts[ids[rc, member]]
    # no observed row shares the key: the column majority, smaller code on ties
    lost = np.flatnonzero(~counts.any(axis=1))
    if lost.size:
        j = cur[tc[lost]]
        counts[lost] = np.stack([((values[:, j] == v) & ~missing[:, j]).sum(axis=0)
                                 for v in (-1, 0, 1)], axis=1)
    out[rc, cur[tc]] = counts.argmax(axis=1) - 1


def _row_keys(digits):
    """One int64 per row of base-4 ``digits`` (the last axis), equal exactly where the rows are."""
    key = np.zeros(digits.shape[:-1], np.int64)
    bits = 0
    for q in range(digits.shape[-1]):
        if bits > 60:  # past 31 digits, rank the keys so far
            key = np.unique(key, return_inverse=True)[1].reshape(key.shape)
            bits = int(key.max()).bit_length()
        key = key * 4 + digits[..., q]
        bits += 2
    return key


def _pair_ids(key):
    """Ids below ``key.size`` that are equal where the (key, column) pairs are."""
    g = key.shape[1]
    if int(key.max()) >= np.iinfo(np.int64).max // g:
        key = np.unique(key, return_inverse=True)[1].reshape(key.shape)
    ids = key * g + np.arange(g)
    if int(ids.max()) >= ids.size:
        ids = np.unique(ids, return_inverse=True)[1].reshape(ids.shape)
    return ids


# ---------------------------------------------------------------------------
# greedy leader clustering
# ---------------------------------------------------------------------------


def leader_cluster(x, threshold, window):
    """Greedy file-order leader clustering on complete genotype columns.

    A column joins the earliest-founded cluster whose representative lies
    within ``window`` file positions and correlates above ``threshold`` in
    absolute value; otherwise it founds a new cluster.  ``x`` holds the int8
    -1/0/1 codes: one block of columns at a time is converted to float32.
    ``threshold`` must be >= 0; zero-variance columns found singletons.
    Returns ``(cluster_id, representatives, degenerate)``.
    """
    # Same clusters as _leader_cluster_numpy, a block of columns at a time.
    # With sums sx, sy, sxy and variances vx = n*sxx - sx**2 (sxx counts the
    # nonzero codes), |r| > c is tested as num**2 > c**2 * vx * vy, where
    # num = n*sxy - sx*sy; sxy comes from a float32 product, exact for
    # n < 2**24, and num**2 and vx * vy are exact in float64 for n < ~9,000,
    # so only c**2 * vx * vy is rounded.  One product correlates the block
    # with every representative founded before it and still in reach, which
    # live in a buffer whose start moves past those out of reach;
    # representatives are founded in file order, so the first hit is the
    # earliest-founded.  The columns without a hit found their clusters from
    # the block's own Gram matrix, in file order, each column's joins held
    # as a bitset.  Degenerate columns have vx = 0 and num = 0, so they
    # neither join nor attract.
    n, p = x.shape
    _check_rows(n)
    sums = np.empty(p)  # sx and vx of each column, filled a block at a time
    var = np.empty(p)
    c2 = threshold * threshold

    def hits(gram, a, b):
        num = np.multiply(gram, n, dtype=np.float64) - np.multiply.outer(sums[a], sums[b])
        return num * num > c2 * np.multiply.outer(var[a], var[b])

    cluster_id = np.empty(p, np.int64)
    reps: list[int] = []
    cap = 2 * min(p, window + _CLUSTER_BLOCK)
    buf = np.empty((cap, n), np.float32)  # live representatives' codes, one a row
    near = np.empty(cap, np.int64)  # their columns, ascending
    lo = hi = 0  # the live rows are buf[lo:hi]
    for a in range(0, p, _CLUSTER_BLOCK):
        b = min(a + _CLUSTER_BLOCK, p)
        block = x[:, a:b].astype(np.float32).T
        sums[a:b] = block.sum(axis=1)
        var[a:b] = n * np.count_nonzero(block, axis=1) - sums[a:b] * sums[a:b]
        lo += int(np.searchsorted(near[lo:hi], a - window))
        cols = np.arange(a, b)
        loc = cols - a
        if hi > lo:
            hit = hits(block @ buf[lo:hi].T, cols, near[lo:hi])
            hit &= cols[:, None] - near[lo:hi] <= window
            has = hit.any(axis=1)
            cluster_id[cols[has]] = cluster_id[near[lo:hi][hit[has].argmax(axis=1)]]
            loc = loc[~has]
        sub = block[loc]
        joins = hits(sub @ sub.T, a + loc, a + loc) & (np.abs(loc[:, None] - loc) <= window)
        size = (loc.size + 7) // 8
        packed = np.packbits(joins, axis=1, bitorder="little").tobytes()
        masks = [int.from_bytes(packed[i * size:(i + 1) * size], "little") for i in range(loc.size)]
        pending, founders, owned = (1 << loc.size) - 1, [], []
        while pending:
            f = (pending & -pending).bit_length() - 1
            mine = masks[f] & pending | 1 << f
            pending &= ~mine
            founders.append(f)
            owned.append(mine.to_bytes(size, "little"))
        founded = loc[founders]
        if founders:
            own = np.unpackbits(np.frombuffer(b"".join(owned), np.uint8).reshape(len(owned), size),
                                axis=1, count=loc.size, bitorder="little")
            cluster_id[a + loc] = len(reps) + own.argmax(axis=0)
            reps.extend((a + founded).tolist())
        if hi + founded.size > cap:  # move the live rows to the front
            buf[:hi - lo], near[:hi - lo] = buf[lo:hi], near[lo:hi]
            lo, hi = 0, hi - lo
        buf[hi:hi + founded.size] = block[founded]
        near[hi:hi + founded.size] = a + founded
        hi += founded.size
    return cluster_id, np.asarray(reps, dtype=np.int64), var == 0.0


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
