"""Slow reference implementations that the tests compare fast paths against."""

import numpy as np
from scipy.special import betainc

from gwasel.errors import CollinearityError
from gwasel.mtest import ScanResult
from gwasel.regress import REPROJECT_BELOW, _gate
from gwasel.search import (
    SWEEP_LOSS,
    SearchTrace,
    _best_drop,
    _downdate,
    _drop_rss,
    _max_snps,
    _pick_drop,
    _project,
)


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


def projected_residual_norms(dataset, Q0):
    """(s, degenerate) of every column by explicit projection against the base.

    Each 4096-column block of the float panel is projected against the
    orthonormal base ``Q0`` and s is the squared norm of what is left: the
    reference for ``ScanEngine``, which projects this way only when there
    are covariates and takes s from integer column counts otherwise.
    """
    X = dataset.float_values
    xnorm2 = np.einsum("ij,ij->j", X, X)
    s = np.empty(dataset.n_snps)
    for start in range(0, dataset.n_snps, 4096):
        block = X[:, start : start + 4096]
        z = Q0 @ (Q0.T @ block)
        np.subtract(block, z, out=z)
        s[start : start + 4096] = np.einsum("ij,ij->j", z, z)
    return s, s <= _gate(xnorm2)


def scan_one_product(engine, trait):
    """The scan of ``trait`` with t = X'y from one product over the whole
    float panel: the reference for ``ScanEngine.scan``, which takes t in
    column blocks and converts only the block it reads."""
    y = np.asarray(trait, dtype=np.float64)
    yt = y - engine.Q0 @ (engine.Q0.T @ y)
    rss0 = float(yt @ yt)
    t = engine.dataset.float_values.T @ yt
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = np.where(engine.degenerate, 0.0, (t * t) / engine.s)
        rss1 = np.maximum(rss0 - delta, 0.0)
    # near-perfect fits: the RSS is the squared norm of the residual itself
    near = np.flatnonzero((rss1 < REPROJECT_BELOW * rss0) & ~engine.degenerate)
    if near.size:
        xt = engine.dataset.float_values[:, near]
        xt = xt - engine.Q0 @ (engine.Q0.T @ xt)
        r = yt[:, None] - xt * (t[near] / engine.s[near])
        r2 = np.einsum("ij,ij->j", r, r)
        rss1[near] = np.where(r2 <= _gate(rss0), 0.0, r2)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(rss1 > 0.0, delta * engine.df2 / rss1, np.inf)
    f = np.where(engine.degenerate | (delta == 0.0), 0.0, f)
    with np.errstate(invalid="ignore", divide="ignore"):
        x = engine.df2 / (engine.df2 + f)
    p = np.where(np.isinf(f), 0.0, betainc(engine.df2 / 2.0, 0.5, x))
    p = np.where(f == 0.0, 1.0, p)
    order = np.argsort(p, kind="stable")
    return ScanResult(p_values=p, f_statistics=f, order=order.astype(np.int64),
                      degenerate=engine.degenerate.copy())


def genotype_rows_one_string(values):
    """Tab-separated rows of -1/0/1 codes, each ended by a newline, as one
    string: the reference for ``cli._genotype_rows``, which yields chunks."""
    cells = np.empty(values.shape + (2,), dtype=np.uint8)  # a code byte, then its separator
    cells[:, :, 0] = values + ord("0")  # -1 lands on "/", the byte before "0"
    cells[:, :, 1] = ord("\t")
    cells[:, -1, 1] = ord("\n")
    return cells.tobytes().replace(b"/", b"-1").decode("ascii")


def project_two_products(ws, cols):
    """(s, t) of the candidate columns ``cols`` against the model of ``ws``
    by explicit projection: z = cols - Q(Q'cols), s = ||z||^2, t = cols'r.

    The reference for ``search._project``, which takes s = ||x||^2 - ||Q'x||^2
    from one product and projects explicitly only where that cancels.
    """
    Q = ws.basis
    z = cols - Q @ (Q.T @ cols)
    return np.einsum("ij,ij->j", z, z), cols.T @ ws.residual


def backward_by_deletes(ws, ev, trace: SearchTrace, stage: str = "backward"):
    """``search._backward`` on compacted S and beta: each sweep deletes the
    dropped row and column (``np.delete``), where the search sweeps in place
    over the live positions.  The arithmetic on every surviving entry is the
    same, so the drops and their values must be bit-identical.
    """
    live = list(ws.snps)
    base = ws.m - len(live)
    cur_val = ev.value(ws.rss, len(live))
    S, beta = ws.inverse_gram()
    rss = ws.rss
    ref = S.diagonal()[base:].copy()
    while live:
        drops = _drop_rss(rss, S, beta, slice(base, None))
        val, pos = _pick_drop(drops, np.asarray(live, dtype=np.int64), ev)
        if val >= cur_val:
            break
        k = base + pos
        col = S[:, k] / S[k, k]
        beta = np.delete(beta - col * beta[k], k)
        S = np.delete(np.delete(S - np.outer(col, S[k]), k, axis=0), k, axis=1)
        ref = np.delete(ref, pos)
        rss = float(drops[pos])
        j = live.pop(pos)
        cur_val = val
        trace.append(stage, "drop", j, cur_val, len(live))
        if not np.all(S.diagonal()[base:] > SWEEP_LOSS * ref):
            ws.rebuild(live)
            S, beta = ws.inverse_gram()
            rss = ws.rss
            ref = S.diagonal()[base:].copy()
    if len(live) < len(ws.snps):
        ws.rebuild(live)
    return ws.model()


def backward_by_drops(ws, ev, trace: SearchTrace, stage: str = "backward"):
    """Backward elimination one workspace drop at a time.

    Every step scores all drops from a fresh ``inverse_gram`` of the
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


def forward_by_pushes(ws, idx, cols, norm2, config, ev, trace: SearchTrace) -> None:
    """The forward stage with every screened candidate updated on every add.

    s and t of all candidates come from one projection at the start
    (``_project``), and each accepted candidate's basis vector is pushed
    into all of them (``_downdate``), where ``search._forward`` projects a
    block at a time.
    """
    q_cap = min(config.max_forward_size, _max_snps(ws))
    if q_cap < 1:
        return
    gate = _gate(norm2)
    s, t = _project(ws, cols, norm2)
    cur_rss = ws.rss
    cur_val = None
    for pos in range(idx.size):
        if len(ws.snps) >= q_cap:
            break
        j = int(idx[pos])
        if s[pos] <= gate[pos]:
            trace.append("forward", "skip_collinear", j, None, len(ws.snps))
            continue
        new_rss = max(cur_rss - t[pos] ** 2 / s[pos], 0.0)
        if cur_val is None:
            accept = True  # the stage starts from the best single marker
        else:
            accept = ev.value(new_rss, len(ws.snps) + 1) < cur_val
        if accept:
            try:
                u, d = ws.add_snp(j)
            except CollinearityError:
                trace.append("forward", "skip_collinear", j, None, len(ws.snps))
                continue
            _downdate(ws, cols, norm2, s, t, u, d)
            cur_rss = new_rss
            cur_val = ev.value(cur_rss, len(ws.snps))
            trace.append("forward", "add", j, cur_val, len(ws.snps))


# The per-column and per-subset kernels that gwasel._kernels replaced; each
# takes the same positional arguments as the kernel checked against it.


def _impute_fill_numpy(values, observed, window, n_predictors):
    n, p = values.shape
    out = values.copy()
    vals = values.astype(np.float64)
    for j in range(p):
        obs_j = observed[:, j]
        missing_rows = np.nonzero(~obs_j)[0]
        if missing_rows.size == 0:
            continue
        observed_col = values[obs_j, j]
        if observed_col.size == 0:
            return out, j
        col_counts = np.bincount(observed_col.astype(np.int64) + 1, minlength=3)
        majority = int(np.argmax(col_counts)) - 1  # argmax keeps the smaller code on ties

        lo = max(0, j - window)
        hi = min(p - 1, j + window)
        cols = np.arange(lo, hi + 1)
        cols = cols[cols != j]
        window_obs = observed[:, cols]
        both = obs_j[:, None] & window_obs
        n_ok = both.sum(axis=0)
        xw = np.where(both, vals[:, cols], 0.0)
        yw = np.where(both, vals[:, j][:, None], 0.0)
        sx = xw.sum(axis=0)
        sy = yw.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            vx = (xw * xw).sum(axis=0) - sx * sx / n_ok
            vy = (yw * yw).sum(axis=0) - sy * sy / n_ok
            cors = ((xw * yw).sum(axis=0) - sx * sy / n_ok) / np.sqrt(vx * vy)
        defined = (n_ok >= 2) & (vx > 0.0) & (vy > 0.0) & np.isfinite(cors)
        dist = np.abs(cols - j)

        for i in missing_rows:
            usable = defined & window_obs[i]
            if not usable.any():
                out[i, j] = majority
                continue
            pool = np.nonzero(usable)[0]
            order = np.lexsort((cols[pool], dist[pool], -np.abs(cors[pool])))
            predictors = cols[pool[order[:n_predictors]]]
            match = obs_j & np.all(
                observed[:, predictors] & (values[:, predictors] == values[i, predictors]),
                axis=1,
            )
            if not match.any():
                out[i, j] = majority
            else:
                counts = np.bincount(values[match, j].astype(np.int64) + 1, minlength=3)
                out[i, j] = int(np.argmax(counts)) - 1
    return out, -1



def _leader_cluster_numpy(x, threshold, window):
    n, p = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    cnorm = np.sqrt((centered * centered).sum(axis=0))
    degenerate = cnorm <= 0.0
    normed = np.where(degenerate[None, :], 0.0, centered / np.where(degenerate, 1.0, cnorm)[None, :])

    cluster_id = np.empty(p, np.int64)
    reps: list[int] = []
    for j in range(p):
        if degenerate[j]:
            cluster_id[j] = len(reps)
            reps.append(j)
            continue
        rep_arr = np.asarray(reps, dtype=np.int64)
        in_window = np.nonzero(np.abs(rep_arr - j) <= window)[0] if rep_arr.size else rep_arr
        assigned = -1
        if in_window.size:
            cand = rep_arr[in_window]
            cors = normed[:, cand].T @ normed[:, j]
            hits = np.nonzero(np.abs(cors) > threshold)[0]
            if hits.size:
                assigned = int(in_window[hits[0]])
        if assigned >= 0:
            cluster_id[j] = assigned
        else:
            cluster_id[j] = len(reps)
            reps.append(j)
    return cluster_id, np.asarray(reps, dtype=np.int64), degenerate



def _best_subset_numpy(z, y_resid, rss0, gate, max_size, values, to_beat, budget):
    """Every subset up to ``max_size``, unpruned: ``to_beat`` and ``budget``
    are accepted for the kernel's signature and ignored, so ``n_pruned`` is 0."""
    n, s = z.shape
    best = [values(rss0, 0), 0, np.empty(0, np.int64)]
    n_eval = 1
    basis = np.empty((n, max_size))
    chosen = np.empty(max_size, np.int64)

    def consider(val, size):
        nonlocal n_eval
        n_eval += 1
        idx = chosen[:size]
        better = val < best[0] or (
            val == best[0]
            and (size < best[1] or (size == best[1] and list(idx) < list(best[2])))
        )
        if better:
            best[0] = val
            best[1] = size
            best[2] = idx.copy()

    def descend(depth, start, rss):
        for t in range(start, s):
            work = z[:, t].copy()
            for _ in range(2):
                if depth:
                    work -= basis[:, :depth] @ (basis[:, :depth].T @ work)
            nrm2 = float(work @ work)
            if nrm2 <= gate[t]:
                continue
            u = work / np.sqrt(nrm2)
            ty = float(u @ y_resid)
            rss_new = max(rss - ty * ty, 0.0)
            basis[:, depth] = u
            chosen[depth] = t
            consider(values(rss_new, depth + 1), depth + 1)
            if depth + 1 < max_size:
                descend(depth + 1, t + 1, rss_new)

    if max_size > 0 and s > 0:
        descend(0, 0, rss0)
    return best[0], best[2], n_eval, 0
