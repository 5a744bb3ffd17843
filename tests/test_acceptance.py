"""Acceptance suite: every release gate runs here at its stated tolerance.

Each check prints one PASS/FAIL line so a full run reads as a scorecard:

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.stats import f as f_dist, ncf, spearmanr

from gwasel.criteria import DEFAULT_D, CriterionConfig, evaluate, penalty
from gwasel.genotype import impute_missing
from gwasel.mtest import ScanEngine, ScanResult, benjamini_hochberg, bonferroni
from gwasel.regress import f_pvalue, noncentrality_single_marker
from gwasel.search import SearchConfig, select_model
from gwasel.simulate import (
    MethodSpec,
    SimulationConfig,
    classify_detections,
    effect_grid,
    power_curve_noncentral,
    run_study,
    simulate_trait,
    synthetic_dataset,
)
from gwasel.cluster import cluster_snps

from conftest import dataset_from_values


def report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. noncentral sampling replicates the analytic k=1 power curve
# ---------------------------------------------------------------------------


def test_criterion_1_power_curve():
    n, alpha, draws = 2000, 1e-6, 100_000
    taus = tuple(float(t) for t in np.arange(0.0, 61.0, 4.0))
    table = power_curve_noncentral([1, 30], taus, n=n, alpha=alpha,
                                   n_draws=draws, seed=0)
    crit = f_dist.isf(alpha, 1, n - 2)
    p1, p30 = table.power
    analytic = np.array([ncf.sf(crit, 1, n - 2, t) if t > 0 else alpha for t in taus])
    se = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-12) / draws)
    dev = np.abs(p1 - analytic) / np.maximum(se, 1e-12)
    within = float(dev.max()) <= 3.0
    loss_point = bool(np.any((p1 >= 0.6) & (p30 < 0.5 * p1)))
    report(
        "1 noncentral power curve",
        within and loss_point,
        f"max |dev| = {dev.max():.2f} MC-SE, k=30 half-power point exists: {loss_point}",
    )


# ---------------------------------------------------------------------------
# 2. moments of MSS and RSS under an omitted-effects fit
# ---------------------------------------------------------------------------


def test_criterion_2_cochran_moments():
    rng = np.random.default_rng(41)
    n, p = 200, 10
    values = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(n, p))
    ds = dataset_from_values(values, trait=np.zeros(n))
    causal = (0, 1, 2, 3, 4)
    beta = np.array([0.5, -0.3, 0.4, 0.2, -0.6])
    sigma = 1.3
    j = 7
    pair = noncentrality_single_marker(ds, causal, beta, sigma, j)

    X = ds.float_values
    g = X[:, list(causal)] @ beta
    xj = X[:, j] - X[:, j].mean()
    u = xj / np.linalg.norm(xj)
    draws = 100_000
    mss_sum = rss_sum = 0.0
    mss_all = np.empty(draws)
    rss_all = np.empty(draws)
    for start in range(0, draws, 20_000):
        b = min(20_000, draws - start)
        Y = g[:, None] + sigma * rng.standard_normal((n, b))
        mss = (u @ Y) ** 2
        rss = (Y * Y).sum(axis=0) - n * Y.mean(axis=0) ** 2 - mss
        mss_all[start : start + b] = mss
        rss_all[start : start + b] = rss
    m_err = abs(mss_all.mean() / sigma**2 - (1.0 + pair.nu_m)) / (1.0 + pair.nu_m)
    r_err = abs(rss_all.mean() / sigma**2 - (n - 2 + pair.nu_r)) / (n - 2 + pair.nu_r)
    corr = float(np.corrcoef(mss_all, rss_all)[0, 1])
    report(
        "2 Cochran moment check",
        m_err < 0.01 and r_err < 0.01 and abs(corr) < 0.01,
        f"MSS err {m_err:.4f}, RSS err {r_err:.4f}, corr {corr:+.4f}",
    )


# ---------------------------------------------------------------------------
# 3. the staged search finds the exhaustive minimizer at p=12
# ---------------------------------------------------------------------------


def test_criterion_3_exhaustive_oracle():
    def exhaustive_min(ds, crit):
        X = ds.float_values
        y = ds.trait
        n = len(y)
        best = None
        for size in range(13):
            for sub in itertools.combinations(range(12), size):
                D = np.column_stack([np.ones(n)] + [X[:, c] for c in sub])
                beta, _, rank, _ = np.linalg.lstsq(D, y, rcond=None)
                if rank < D.shape[1]:
                    continue
                r = y - D @ beta
                rss = float(r @ r)
                if rss <= 0.0:
                    continue
                key = (evaluate(crit, rss, size), size, sub)
                if best is None or key < best:
                    best = key
        return best

    rng = np.random.default_rng(2024)
    matches = 0
    for inst in range(100):
        k = inst % 4
        ds = synthetic_dataset(100, 12, seed=1000 + inst)
        causal = tuple(sorted(rng.choice(12, size=k, replace=False).tolist()))
        effects = tuple(rng.uniform(0.4, 1.2, size=k).tolist())
        sim = SimulationConfig(causal, effects, sigma=1.0, seed=500 + inst)
        dsy = ds.with_trait(simulate_trait(ds, sim, 0))
        crit = CriterionConfig("mbic2", n=100, p_effective=12)
        # at p=12 nothing needs screening out, so the gate is left open
        model, _, _ = select_model(dsy, SearchConfig(criterion=crit, screen_threshold=1.0))
        if model.snp_indices == exhaustive_min(dsy, crit)[2]:
            matches += 1
    report("3 exhaustive-search oracle", matches >= 95, f"{matches}/100 matched")


# ---------------------------------------------------------------------------
# 4. desk-scale power/FDR study
# ---------------------------------------------------------------------------


# sha256 of the desk study's detections, the ROADMAP fingerprint
DESK_FINGERPRINT = "05b9aa0196d7f7993b412465b32b0de1fbb0c5adf3b772acd8c32236a4236588"


@pytest.fixture(scope="module")
def desk_study():
    n, p, k = 600, 10_000, 30
    ds = synthetic_dataset(n, p, seed=42)
    causal = tuple(np.linspace(0, p - 1, k).astype(int).tolist())
    sim = SimulationConfig(causal, tuple(effect_grid(k)), sigma=1.0,
                           n_replicates=100, seed=7, tp_thresholds=(0.7, 0.9))

    def selection_method(kind):
        crit = CriterionConfig(kind, n=n, p_effective=p)
        # a tight refinement trigger keeps the final enumeration bounded at
        # the ~25-SNP models this design produces
        cfg = SearchConfig(criterion=crit, refinement_trigger=12)
        return MethodSpec(kind=kind, search=cfg)

    methods = [MethodSpec("bonferroni"), MethodSpec("bh"),
               selection_method("mbic"), selection_method("mbic2")]
    report_obj = run_study(ds, sim, methods)
    return ds, sim, report_obj


def test_desk_fingerprint(desk_study):
    _, _, rep = desk_study
    digest = hashlib.sha256(json.dumps(rep.detections, sort_keys=True).encode()).hexdigest()
    report("desk fingerprint", digest == DESK_FINGERPRINT, digest)


def test_criterion_4a_power_ordering(desk_study):
    _, _, rep = desk_study
    ok = True
    detail = []
    for thr in (0.7, 0.9):
        p2 = rep.mean_power("mbic2", thr)
        p1 = rep.mean_power("mbic", thr)
        pb = rep.mean_power("bh", thr)
        ok = ok and (p2 >= p1 >= pb)
        detail.append(f"|R|>{thr}: mBIC2 {p2:.3f} >= mBIC {p1:.3f} >= BH {pb:.3f}")
    report("4a power ordering", ok, "; ".join(detail))


def test_criterion_4b_mbic2_fdr(desk_study):
    _, _, rep = desk_study
    fdr = rep.mean_fdr("mbic2", 0.7)
    report("4b mBIC2 FDR at |R|=0.7", fdr <= 0.10, f"mean FDR {fdr:.4f}")


def test_criterion_4c_bonferroni_fwer_null(desk_study):
    ds, _, _ = desk_study
    sim0 = SimulationConfig((), (), sigma=1.0, n_replicates=200, seed=99)
    engine = ScanEngine(ds)
    hits = sum(
        1
        for rep_i in range(200)
        if bonferroni(engine.scan(simulate_trait(ds, sim0, rep_i)), 0.05, ds.n_snps).size
    )
    fwer = hits / 200
    bound = 0.05 + 2 * math.sqrt(fwer * (1 - fwer) / 200 + 1e-12)
    report("4c Bonferroni null FWER", fwer <= bound, f"FWER {fwer:.3f} <= {bound:.3f}")


def test_criterion_4d_power_tracks_noncentrality(desk_study):
    ds, sim, rep = desk_study
    power = rep.power_for("bh", 0.7)
    effects = np.asarray(sim.effects)
    xs, nus, h2s = [], [], []
    from gwasel.simulate import individual_heritability

    for pos, j in enumerate(sim.causal_indices):
        pair = noncentrality_single_marker(ds, sim.causal_indices, effects, sim.sigma, j)
        xs.append(power[j])
        nus.append(math.sqrt(pair.nu_m))
        h2s.append(individual_heritability(ds, sim, pos))
    rho_nu = spearmanr(xs, nus).statistic
    rho_h2 = spearmanr(xs, h2s).statistic
    report(
        "4d power tracks sqrt-noncentrality",
        rho_nu > rho_h2,
        f"spearman vs sqrt(nu): {rho_nu:.3f}, vs h2: {rho_h2:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. closed-form unit values
# ---------------------------------------------------------------------------


def test_criterion_5_closed_forms():
    thr = 0.05 / 309_788
    exact = mpmath.mpf("0.05") / 309_788
    ulp_ok = abs(thr - float(exact)) <= math.ulp(thr)
    approx_ok = abs(thr - 1.614e-7) < 1e-10

    cfg = CriterionConfig("mbic", n=649, p_effective=309_788, d=DEFAULT_D)
    with mpmath.workdps(50):
        expected = mpmath.log(649) + 2 * mpmath.log(309_788) - 2 * mpmath.log(4)
    pen_ok = abs(penalty(cfg, 1) - float(expected)) <= 1e-3 and \
        abs(penalty(cfg, 1) - 28.990) <= 1e-3

    bic = CriterionConfig("bic", n=300, p_effective=4000)
    ebic1 = CriterionConfig("ebic", n=300, p_effective=4000, kappa=1.0)
    ebic_ok = all(
        evaluate(ebic1, 7.3, q) == pytest.approx(evaluate(bic, 7.3, q), abs=1e-9)
        for q in range(0, 30)
    )
    m1 = CriterionConfig("mbic", n=300, p_effective=4000)
    m2 = CriterionConfig("mbic2", n=300, p_effective=4000)
    mbic2_ok = evaluate(m2, 7.3, 1) == evaluate(m1, 7.3, 1)

    report(
        "5 closed-form unit values",
        ulp_ok and approx_ok and pen_ok and ebic_ok and mbic2_ok,
        f"threshold {thr:.4e}, per-SNP penalty {penalty(cfg, 1):.4f}",
    )


# ---------------------------------------------------------------------------
# 6. F-tail accuracy against an mpmath quadrature oracle
# ---------------------------------------------------------------------------


def test_criterion_6_f_tail_accuracy():
    def oracle_upper_tail(fval, d1, d2):
        with mpmath.workdps(40):
            d1m, d2m = mpmath.mpf(d1), mpmath.mpf(d2)
            c = (
                mpmath.gamma((d1m + d2m) / 2)
                / (mpmath.gamma(d1m / 2) * mpmath.gamma(d2m / 2))
                * (d1m / d2m) ** (d1m / 2)
            )

            def density(u):
                return c * u ** (d1m / 2 - 1) * (1 + d1m * u / d2m) ** (-(d1m + d2m) / 2)

            return float(mpmath.quad(density, [mpmath.mpf(fval), mpmath.inf]))

    targets = (1e-12, 1e-6, 1e-2, 0.5, 0.9)
    worst = 0.0
    for d1 in range(1, 11):
        for d2 in (2, 30, 600):
            for p_target in targets:
                fval = float(f_dist.isf(p_target, d1, d2))
                got = f_pvalue(fval, d1, d2)
                want = oracle_upper_tail(fval, d1, d2)
                worst = max(worst, abs(got - want))
            assert f_pvalue(0.0, d1, d2) == 1.0  # p = 1 endpoint
    report("6 F p-value accuracy", worst <= 1e-10, f"worst abs error {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. null calibration of the full pipeline
# ---------------------------------------------------------------------------


def test_criterion_7_null_calibration():
    n, p = 600, 5000
    ds = synthetic_dataset(n, p, seed=11)
    sim = SimulationConfig((), (), sigma=1.0, n_replicates=200, seed=13)
    engine = ScanEngine(ds)
    crit = CriterionConfig("mbic", n=n, p_effective=p)
    cfg = SearchConfig(criterion=crit, refinement_trigger=12)
    nonempty = 0
    for rep_i in range(200):
        y = simulate_trait(ds, sim, rep_i)
        scan = engine.scan(y)
        model, _, _ = select_model(ds.with_trait(y), cfg, scan=scan)
        if model.size:
            nonempty += 1
    rate = nonempty / 200
    report("7 null calibration of mBIC", rate <= 0.06, f"nonempty rate {rate:.3f}")


# ---------------------------------------------------------------------------
# 8. invariant suites on 1000 randomized instances each
# ---------------------------------------------------------------------------


def scan_of(p_values):
    p = np.asarray(p_values, dtype=np.float64)
    return ScanResult(
        p_values=p,
        f_statistics=np.zeros_like(p),
        order=np.argsort(p, kind="stable").astype(np.int64),
        degenerate=np.zeros(p.shape, dtype=bool),
    )


def test_criterion_8a_imputation_idempotence():
    rng = np.random.default_rng(88)
    codes = np.array([-1, 0, 1], dtype=np.int8)
    for _ in range(1000):
        n = int(rng.integers(4, 10))
        p = int(rng.integers(2, 7))
        values = rng.choice(codes, size=(n, p))
        mask = rng.random((n, p)) < 0.2
        mask[0] = False
        ds = dataset_from_values(np.where(mask, 0, values), mask=mask)
        once = impute_missing(ds, window=3, n_predictors=2)
        twice = impute_missing(once, window=3, n_predictors=2)
        assert np.array_equal(once.genotypes.values, twice.genotypes.values)
    report("8a imputation idempotence", True, "1000 instances")


def test_criterion_8b_bonferroni_subset_of_bh():
    rng = np.random.default_rng(89)
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        scan = scan_of(rng.random(m))
        alpha = float(rng.uniform(0.01, 0.3))
        assert set(bonferroni(scan, alpha, m)) <= set(benjamini_hochberg(scan, alpha))
    report("8b Bonferroni subset of BH", True, "1000 instances")


def test_criterion_8c_criterion_monotonicity():
    rng = np.random.default_rng(90)
    for _ in range(1000):
        n = int(rng.integers(2, 10**5))
        p = int(rng.integers(2, 10**6))
        cfg = CriterionConfig("mbic", n=n, p_effective=p)
        if math.log(n) + 2 * math.log(p) + DEFAULT_D <= 0:
            continue
        q = int(rng.integers(0, 30))
        rss = float(rng.uniform(0.5, 100.0))
        assert evaluate(cfg, rss, q + 1) > evaluate(cfg, rss, q)
    report("8c criterion monotonicity", True, "1000 instances")


def test_criterion_8d_trace_monotone_decrease():
    rng = np.random.default_rng(91)
    for inst in range(1000):
        ds = synthetic_dataset(30, 8, seed=3000 + inst)
        k = inst % 3
        causal = tuple(sorted(rng.choice(8, size=k, replace=False).tolist()))
        sim = SimulationConfig(causal, tuple(rng.uniform(0.3, 1.2, size=k)), seed=inst)
        dsy = ds.with_trait(simulate_trait(ds, sim, 0))
        crit = CriterionConfig("mbic2", n=30, p_effective=8)
        _, _, trace = select_model(dsy, SearchConfig(criterion=crit))
        per_stage = {}
        for rec in trace.accepted():
            per_stage.setdefault(rec.stage, []).append(rec.criterion_value)
        for stage, vals in per_stage.items():
            if stage == "forward":
                continue
            assert all(b < a for a, b in zip(vals, vals[1:]))
    report("8d trace monotone decrease", True, "1000 instances")


def test_criterion_8e_classification_threshold_monotonicity():
    rng = np.random.default_rng(92)
    for inst in range(1000):
        ds = synthetic_dataset(15, 6, seed=4000 + inst)
        sim = SimulationConfig((0,), (1.0,), seed=inst)
        detected = sorted(rng.choice(6, size=int(rng.integers(1, 6)), replace=False).tolist())
        t1, t2 = sorted(rng.uniform(0.05, 1.0, size=2))
        low = classify_detections(detected, ds, sim, float(t1))
        high = classify_detections(detected, ds, sim, float(t2))
        assert len(high.fp_list) >= len(low.fp_list)
    report("8e classification threshold monotonicity", True, "1000 instances")


def test_criterion_8f_clustering_threshold_monotonicity():
    # Known to fail: greedy leader clustering is not threshold-monotone.
    # Lowering the threshold can absorb a would-be representative into an
    # earlier cluster, stranding later columns that correlate only with it
    # (correlation is not transitive).  The check is kept as specified.
    rng = np.random.default_rng(88)
    violations = []
    for inst in range(1000):
        ds = synthetic_dataset(12, 8, seed=5000 + inst)
        t1, t2 = sorted(rng.uniform(0.1, 1.0, size=2))
        lo = cluster_snps(ds, float(t1), window=8).effective_count
        hi = cluster_snps(ds, float(t2), window=8).effective_count
        if lo > hi:
            violations.append((inst, float(t1), float(t2), lo, hi))
    report(
        "8f clustering threshold monotonicity",
        not violations,
        f"{len(violations)} violations in 1000 instances; first: {violations[:1]}",
    )
