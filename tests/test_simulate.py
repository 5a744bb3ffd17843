import json
import math

import numpy as np
import pytest
from scipy.stats import f as f_dist, ncf

from gwasel.simulate import (
    MethodSpec,
    SimulationConfig,
    classify_detections,
    effect_grid,
    genetic_component,
    individual_heritability,
    ncp_diagnostics,
    overall_heritability,
    power_curve_noncentral,
    rng_stream,
    run_study,
    simulate_trait,
    synthetic_dataset,
)

from conftest import dataset_from_values


# ---------------------------------------------------------------------------
# streams and traits
# ---------------------------------------------------------------------------


def test_rng_stream_reproducible_and_separated():
    a = rng_stream(5, 3, "trait").normal(size=8)
    b = rng_stream(5, 3, "trait").normal(size=8)
    c = rng_stream(5, 4, "trait").normal(size=8)
    d = rng_stream(5, 3, "genotype").normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("n, p, seed, maf_range", [
    (600, 5000, 11, (0.3, 0.5)),
    (200, 400, 42, (0.3, 0.5)),
    (65, 129, 3, (0.3, 0.5)),
    (128, 7, 5, (0.05, 0.5)),
    (7, 3, 1, (0.5, 0.5)),
])
def test_synthetic_dataset_matches_one_whole_draw(n, p, seed, maf_range):
    # the codes of a single (n, p) uniform draw, as the panel was first defined
    rng = rng_stream(seed, 0, "genotype")
    maf = rng.uniform(*maf_range, size=p)
    u = rng.random(size=(n, p))
    p_low = (1.0 - maf) ** 2
    p_mid = p_low + 2.0 * maf * (1.0 - maf)
    expected = np.where(u < p_low, -1, np.where(u < p_mid, 0, 1)).astype(np.int8)
    values = synthetic_dataset(n, p, maf_range=maf_range, seed=seed).genotypes.values
    assert values.dtype == np.int8
    assert np.array_equal(values, expected)


def test_trait_bitwise_reproducible():
    ds = synthetic_dataset(50, 10, seed=1)
    cfg = SimulationConfig((2, 7), (0.5, -0.4), sigma=1.2, seed=9)
    y1 = simulate_trait(ds, cfg, 3)
    y2 = simulate_trait(ds, cfg, 3)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, simulate_trait(ds, cfg, 4))


def test_trait_noiseless_limit():
    ds = synthetic_dataset(30, 5, seed=2)
    cfg = SimulationConfig((1,), (0.8,), sigma=1e-12, seed=0)
    y = simulate_trait(ds, cfg, 0)
    assert np.allclose(y, 0.8 * ds.float_values[:, 1], atol=1e-9)


def test_trait_null_variance():
    ds = synthetic_dataset(10_000, 2, seed=3)
    cfg = SimulationConfig((), (), sigma=1.5, seed=4)
    y = simulate_trait(ds, cfg, 0)
    assert y.var() == pytest.approx(1.5**2, rel=0.05)


def test_trait_bad_causal_index():
    ds = synthetic_dataset(20, 4, seed=5)
    cfg = SimulationConfig((9,), (1.0,), seed=0)
    with pytest.raises(ValueError):
        simulate_trait(ds, cfg, 0)


def test_effect_grid_endpoints():
    g = effect_grid(40)
    assert g[0] == pytest.approx(0.27) and g[-1] == pytest.approx(0.66)
    assert np.allclose(np.diff(g), np.diff(g)[0])


# ---------------------------------------------------------------------------
# heritability
# ---------------------------------------------------------------------------


def test_heritability_zero_effects():
    ds = synthetic_dataset(40, 6, seed=6)
    cfg = SimulationConfig((), (), seed=0)
    assert overall_heritability(ds, cfg) == 0.0


def test_heritability_single_snp_closed_form():
    # column with sample variance exactly 0.5 gives 0.5 / 1.5
    values = np.array([[-1], [0], [0], [0], [1]], dtype=np.int8)
    ds = dataset_from_values(values)
    cfg = SimulationConfig((0,), (1.0,), sigma=1.0, seed=0)
    assert overall_heritability(ds, cfg) == pytest.approx(1.0 / 3.0)
    assert individual_heritability(ds, cfg, 0) == pytest.approx(1.0 / 3.0)


def test_heritability_matches_reported_study_design():
    # 40 effects on the 0.27..0.66 grid over common markers: H2 near 0.81,
    # per-SNP shares roughly 0.006..0.037
    ds = synthetic_dataset(649, 2000, seed=7)
    causal = tuple(np.linspace(0, 1999, 40).astype(int).tolist())
    cfg = SimulationConfig(causal, tuple(effect_grid(40)), sigma=1.0, seed=0)
    h2 = overall_heritability(ds, cfg)
    assert h2 == pytest.approx(0.81, abs=0.03)
    shares = [individual_heritability(ds, cfg, l) for l in range(40)]
    assert min(shares) == pytest.approx(0.006, abs=0.003)
    assert max(shares) == pytest.approx(0.037, abs=0.008)


@pytest.mark.parametrize("causal", [(-1,), (10,), (-1, 5)])
def test_variance_helpers_refuse_causal_indices_outside_the_panel(causal):
    # -1 would otherwise alias column 9 and 10 end in a bare IndexError
    ds = synthetic_dataset(40, 10, seed=8)
    cfg = SimulationConfig(causal, (0.5,) * len(causal), seed=0)
    message = rf"causal index {causal[0]} is outside \[0, 10\)"
    for call in (lambda: overall_heritability(ds, cfg),
                 lambda: individual_heritability(ds, cfg, 0),
                 lambda: genetic_component(ds, cfg),
                 lambda: simulate_trait(ds, cfg, 0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_repeated_thresholds_are_refused():
    # a repeated |R| threshold would count each hit once per repeat: power 2.0
    with pytest.raises(ValueError, match="thresholds must not repeat"):
        SimulationConfig((3, 20), (1.0, 1.0), n_replicates=3, tp_thresholds=(0.7, 0.7))


def test_heritability_increases_with_effect_magnitude_orthogonal():
    rng = np.random.default_rng(30)
    n, k = 50, 3
    raw = rng.normal(size=(n, k))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    ds = dataset_from_values(np.zeros((n, k), dtype=np.int8))
    ds.__dict__["float_values"] = q * 1.5
    lows = SimulationConfig((0, 1, 2), (0.4, 0.6, -0.2), sigma=1.0, seed=0)
    grown = SimulationConfig((0, 1, 2), (0.4, 0.9, -0.2), sigma=1.0, seed=0)
    assert overall_heritability(ds, grown) > overall_heritability(ds, lows)


def test_individual_heritability_sums_to_overall_when_orthogonal():
    rng = np.random.default_rng(8)
    n, k = 60, 4
    raw = rng.normal(size=(n, k))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    ds = dataset_from_values(np.zeros((n, k), dtype=np.int8))
    ds.__dict__["float_values"] = q * 2.0  # exactly uncorrelated columns
    cfg = SimulationConfig(tuple(range(k)), (0.5, -0.7, 0.3, 0.9), sigma=1.0, seed=0)
    total = overall_heritability(ds, cfg)
    parts = sum(individual_heritability(ds, cfg, l) for l in range(k))
    assert parts == pytest.approx(total, rel=1e-9)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_exact_causal_set():
    ds = synthetic_dataset(50, 8, seed=9)
    cfg = SimulationConfig((1, 4), (0.5, 0.5), seed=0)
    cls = classify_detections([1, 4], ds, cfg, threshold=0.7)
    assert cls.tp_count == 2
    assert cls.fp_list == ()


def test_classify_two_proxies_one_true_positive():
    rng = np.random.default_rng(10)
    causal = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=40)
    a = causal.copy()
    a[0] = 1 if causal[0] != 1 else -1
    b = causal.copy()
    b[5] = 1 if causal[5] != 1 else -1
    values = np.column_stack([causal, a, b])
    ds = dataset_from_values(values)
    cfg = SimulationConfig((0,), (1.0,), seed=0)
    from gwasel.genotype import sample_correlation

    assert abs(sample_correlation(values[:, 1], causal)) > 0.9
    assert abs(sample_correlation(values[:, 2], causal)) > 0.9
    cls = classify_detections([1, 2], ds, cfg, threshold=0.9)
    assert cls.tp_count == 1
    assert cls.fp_list == ()


def test_classify_weakly_correlated_is_fp():
    ds = synthetic_dataset(60, 20, seed=11)
    cfg = SimulationConfig((0,), (1.0,), seed=0)
    # find a column with max |R| to the causal SNP below 0.3
    from gwasel.genotype import sample_correlation

    x0 = ds.float_values[:, 0]
    weak = next(
        j for j in range(1, 20) if abs(sample_correlation(ds.float_values[:, j], x0)) < 0.3
    )
    cls = classify_detections([weak], ds, cfg, threshold=0.7)
    assert cls.tp_count == 0
    assert len(cls.fp_list) == 1
    assert cls.fp_list[0][0] == weak
    assert cls.fp_list[0][1] < 0.3


def test_classify_identical_fp_columns_counted_once():
    rng = np.random.default_rng(12)
    col = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=30)
    causal = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=30)
    values = np.column_stack([causal, col, col.copy()])
    ds = dataset_from_values(values)
    cfg = SimulationConfig((0,), (1.0,), seed=0)
    cls = classify_detections([1, 2], ds, cfg, threshold=0.99)
    assert len(cls.fp_list) == 1


@pytest.mark.parametrize("detected", [[-1], [3, 15]])
def test_classify_refuses_detections_outside_the_panel(detected):
    ds = synthetic_dataset(40, 15, seed=13)
    cfg = SimulationConfig((3, 8), (0.5, 0.5), seed=0)
    with pytest.raises(ValueError, match=r"detection -?\d+ is outside \[0, 15\)"):
        classify_detections(detected, ds, cfg, threshold=0.7)


def test_classify_threshold_monotone():
    ds = synthetic_dataset(40, 15, seed=13)
    cfg = SimulationConfig((3, 8), (0.5, 0.5), seed=0)
    detected = list(range(15))
    sizes = [
        len(classify_detections(detected, ds, cfg, t).fp_list)
        for t in (0.2, 0.5, 0.7, 0.9, 1.0)
    ]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("causal, detected", [
    ((), [9, 2, 5]),  # no causal SNPs
    ((3, 8), []),  # no detections
    ((3, 8), [8, 1]),  # a detection that is itself causal
    ((3, 8), [14, 13, 0, 3]),  # columns 13 and 14 are one false positive
    ((0, 3, 8, 11), list(range(15))),
])
def test_classify_with_precomputed_match_equals_its_own(causal, detected):
    from gwasel.simulate import _causal_block, _match_causal

    ds = synthetic_dataset(40, 15, seed=13)
    values = ds.genotypes.values.copy()
    values[:, 14] = values[:, 13]
    ds = dataset_from_values(values)
    cfg = SimulationConfig(causal, (0.5,) * len(causal), seed=0)
    ordered = sorted(detected)
    block = _causal_block(ds, cfg) if causal else None
    match = _match_causal(ds, cfg, ordered, block) if ordered else None
    for threshold in (0.7, 0.9):
        want = classify_detections(detected, ds, cfg, threshold)
        assert classify_detections(detected, ds, cfg, threshold, _match=match) == want
        fps = {j for j, _ in want.fp_list}
        assert not {13, 14} <= fps  # one genotype column is one false positive
        assert (8 in want.tp_causal) == (8 in detected and 8 in causal)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def test_run_study_single_strong_signal_all_methods():
    ds = synthetic_dataset(300, 40, seed=14)
    cfg = SimulationConfig((12,), (2.0,), sigma=1.0, n_replicates=5, seed=15,
                           tp_thresholds=(0.7,))
    methods = [MethodSpec("bonferroni"), MethodSpec("bh"), MethodSpec("mbic"),
               MethodSpec("mbic2")]
    report = run_study(ds, cfg, methods)
    for m in ("bonferroni", "bh", "mbic", "mbic2"):
        assert report.mean_power(m, 0.7) == 1.0
        assert np.all(report.stats[m][0.7].fdr >= 0.0)
        assert np.all(report.stats[m][0.7].fdr <= 1.0)


def test_run_study_null_zero_detection_fdr():
    ds = synthetic_dataset(50, 20, seed=16)
    cfg = SimulationConfig((), (), sigma=1.0, n_replicates=4, seed=17,
                           tp_thresholds=(0.7,))
    report = run_study(ds, cfg, [MethodSpec("bonferroni", alpha=0.01)])
    fdr = report.stats["bonferroni"][0.7].fdr
    detections = report.detections["bonferroni"]
    for rep, det in enumerate(detections):
        if not det:
            assert fdr[rep] == 0.0


@pytest.mark.parametrize("kind, criterion", [
    ("mbic", "mbic2"), ("mbic2", "bic"), ("bonferroni", "mbic"), ("bh", "mbic2"),
])
def test_method_search_must_match_its_kind(kind, criterion):
    from gwasel.criteria import CriterionConfig
    from gwasel.search import SearchConfig

    search = SearchConfig(criterion=CriterionConfig(criterion, n=50, p_effective=20))
    with pytest.raises(ValueError, match=f"method '{kind}' cannot take a '{criterion}' search"):
        MethodSpec(kind, search=search)
    matching = SearchConfig(criterion=CriterionConfig("mbic", n=50, p_effective=20))
    assert MethodSpec("mbic", search=matching).search is matching


def test_report_json_and_fp_table():
    ds = synthetic_dataset(120, 30, seed=18)
    cfg = SimulationConfig((5,), (1.0,), sigma=1.0, n_replicates=3, seed=19,
                           tp_thresholds=(0.7, 0.9))
    report = run_study(ds, cfg, [MethodSpec("bh", alpha=0.2)])
    payload = json.loads(report.to_json(ds.snp_ids))
    assert payload["n_replicates"] == 3
    assert "bh" in payload["methods"]
    table = report.fp_table("bh", 0.7, ds.snp_ids)
    assert table.splitlines()[0] == "snp_id\tfrequency\tmax_abs_r"


# ---------------------------------------------------------------------------
# noncentral power curves
# ---------------------------------------------------------------------------


def test_power_curve_null_is_alpha():
    table = power_curve_noncentral([1, 10], [0.0], n=500, alpha=0.05,
                                   n_draws=40_000, seed=0)
    for i in range(2):
        assert table.power[i, 0] == pytest.approx(0.05, abs=0.005)


def test_power_curve_k1_monotone_to_one():
    taus = [0.0, 5.0, 15.0, 30.0, 60.0]
    table = power_curve_noncentral([1], taus, n=500, alpha=0.01,
                                   n_draws=30_000, seed=1)
    p = table.power[0]
    assert all(b >= a - 0.01 for a, b in zip(p, p[1:]))
    assert p[-1] > 0.99


def test_power_curve_k1_matches_analytic_tail():
    n, alpha, draws = 500, 1e-3, 50_000
    taus = [4.0, 12.0, 24.0]
    table = power_curve_noncentral([1], taus, n=n, alpha=alpha, n_draws=draws, seed=2)
    crit = f_dist.isf(alpha, 1, n - 2)
    for b, tau in enumerate(taus):
        exact = ncf.sf(crit, 1, n - 2, tau)
        se = math.sqrt(exact * (1 - exact) / draws)
        assert abs(table.power[0, b] - exact) <= 3 * se


def test_power_curve_deterministic():
    a = power_curve_noncentral([1, 5], [2.0, 8.0], n=300, alpha=0.01,
                               n_draws=5_000, seed=3)
    b = power_curve_noncentral([1, 5], [2.0, 8.0], n=300, alpha=0.01,
                               n_draws=5_000, seed=3)
    assert np.array_equal(a.power, b.power)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_ncp_diagnostics_zero_effects():
    ds = synthetic_dataset(50, 6, seed=20)
    cfg = SimulationConfig((1, 3), (0.0, 0.0), seed=0)
    rows = ncp_diagnostics(ds, cfg)
    assert all(r.sqrt_nu_m == 0.0 for r in rows)


def test_ncp_diagnostics_orthogonal_ranking_matches_h2():
    rng = np.random.default_rng(21)
    n, k = 80, 5
    raw = rng.normal(size=(n, k))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    ds = dataset_from_values(np.zeros((n, k), dtype=np.int8))
    ds.__dict__["float_values"] = q * math.sqrt(n)
    cfg = SimulationConfig(tuple(range(k)), (0.2, 0.9, 0.4, 0.6, 0.05), sigma=1.0, seed=0)
    rows = ncp_diagnostics(ds, cfg)
    by_nu = np.argsort([r.sqrt_nu_m for r in rows])
    by_h2 = np.argsort([r.h2 for r in rows])
    assert by_nu.tolist() == by_h2.tolist()


def test_ncp_diagnostics_joins_power():
    ds = synthetic_dataset(100, 10, seed=22)
    cfg = SimulationConfig((2,), (1.5,), sigma=1.0, n_replicates=2, seed=23,
                           tp_thresholds=(0.7,))
    report = run_study(ds, cfg, [MethodSpec("bh")])
    rows = ncp_diagnostics(ds, cfg, power_by_snp=report.power_for("bh", 0.7))
    assert rows[0].power is not None
