"""Trait simulation, power/FDR studies and noncentrality diagnostics.

Random streams are counter-based (Philox) and indexed by
``(seed, replicate, purpose)``, so every analysis method sees the same
simulated traits and paired comparisons stay low-variance.

The F critical value of ``power_curve_noncentral`` comes from
``scipy.special.fdtri``, the inverse F CDF that ``scipy.stats.f.isf``
evaluates at 1 - alpha, so the value is the same to the bit; importing
``scipy.stats`` would roughly double the start-up time and add ~36 MB to
every process that imports gwasel.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import fdtri

from gwasel.criteria import DEFAULT_D, CriterionConfig
from gwasel.genotype import Dataset, GenotypeMatrix
from gwasel.mtest import ScanEngine, benjamini_hochberg, bonferroni
from gwasel.regress import noncentrality_single_marker
from gwasel.search import SearchConfig, forward_stage, select_model

_PURPOSES = {"trait": 0, "genotype": 1, "mc": 2}


def rng_stream(seed: int, replicate: int = 0, purpose: str = "trait") -> np.random.Generator:
    """Deterministic counter-based stream for (seed, replicate, purpose)."""
    code = _PURPOSES[purpose]
    seq = np.random.SeedSequence(int(seed), spawn_key=(code, int(replicate)))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SimulationConfig:
    """Causal model and replication plan of one simulation study."""

    causal_indices: tuple[int, ...]
    effects: tuple[float, ...]
    sigma: float = 1.0
    n_replicates: int = 100
    seed: int = 0
    tp_thresholds: tuple[float, ...] = (0.7, 0.9)

    def __post_init__(self):
        causal = tuple(int(j) for j in self.causal_indices)
        effects = tuple(float(b) for b in self.effects)
        if any(b <= a for a, b in zip(causal, causal[1:])):
            raise ValueError("causal_indices must be strictly increasing")
        if len(causal) != len(effects):
            raise ValueError("effects must align with causal_indices")
        if not all(math.isfinite(b) for b in effects):
            raise ValueError("effects must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not all(0.0 < t <= 1.0 for t in self.tp_thresholds):
            raise ValueError("thresholds must lie in (0, 1]")
        if len(set(self.tp_thresholds)) != len(self.tp_thresholds):
            raise ValueError("thresholds must not repeat")  # each would count its hits again
        object.__setattr__(self, "causal_indices", causal)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "tp_thresholds", tuple(self.tp_thresholds))

    @property
    def k(self) -> int:
        return len(self.causal_indices)


def effect_grid(k: int, low: float = 0.27, high: float = 0.66) -> np.ndarray:
    """Arithmetic grid of k effect sizes, endpoints included for k >= 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return np.linspace(low, high, k)


_DRAW_ROWS = 64  # rows of uniforms drawn at a time by synthetic_dataset


def synthetic_dataset(n_individuals: int, n_snps: int,
                      maf_range: tuple[float, float] = (0.3, 0.5),
                      seed: int = 0) -> Dataset:
    """Independent genotype columns at Hardy-Weinberg proportions.

    Each column draws its minor-allele frequency uniformly from
    ``maf_range``; codes are the minor-allele count minus one.
    """
    lo, hi = maf_range
    if not 0.0 < lo <= hi <= 0.5:
        raise ValueError("maf_range must satisfy 0 < low <= high <= 0.5")
    rng = rng_stream(seed, 0, "genotype")
    maf = rng.uniform(lo, hi, size=n_snps)
    p_low = (1.0 - maf) ** 2
    p_mid = p_low + 2.0 * maf * (1.0 - maf)
    values = np.empty((n_individuals, n_snps), dtype=np.int8)
    # row blocks read the uniform stream in the C order of one whole draw
    for r0 in range(0, n_individuals, _DRAW_ROWS):
        u = rng.random(size=(min(_DRAW_ROWS, n_individuals - r0), n_snps))
        block = values[r0 : r0 + u.shape[0]]
        np.add(u >= p_low, u >= p_mid, out=block, dtype=np.int8)
        block -= 1
    gm = GenotypeMatrix(values, np.zeros_like(values, dtype=np.bool_))
    return Dataset(genotypes=gm)


def simulate_trait(dataset: Dataset, config: SimulationConfig,
                   replicate_index: int, *, _g: np.ndarray | None = None) -> np.ndarray:
    """One trait draw y = X beta + noise (zero intercept).

    ``_g`` is ``genetic_component(dataset, config)`` to use instead of
    computing it, so that a study computes it once for all its replicates.
    """
    g = genetic_component(dataset, config) if _g is None else _g
    rng = rng_stream(config.seed, replicate_index, "trait")
    return g + rng.normal(0.0, config.sigma, size=dataset.n_individuals)


def genetic_component(dataset: Dataset, config: SimulationConfig) -> np.ndarray:
    """X beta over the causal columns; a causal index outside [0, p), or a
    missing call in a causal column, raises ``ValueError``."""
    dataset.check_snps(config.causal_indices, "causal index")
    if not config.causal_indices:
        return np.zeros(dataset.n_individuals)
    if dataset.genotypes.missing_mask[:, list(config.causal_indices)].any():
        raise ValueError("causal columns contain missing genotypes")
    X = dataset.columns(list(config.causal_indices))
    return X @ np.asarray(config.effects)


def _genetic_variance(dataset: Dataset, config: SimulationConfig) -> float:
    g = genetic_component(dataset, config)
    return float(g.var(ddof=1)) if config.k else 0.0


def overall_heritability(dataset: Dataset, config: SimulationConfig) -> float:
    """Share of trait variance carried by the genetic component."""
    v = _genetic_variance(dataset, config)
    return v / (config.sigma**2 + v)


def individual_heritability(dataset: Dataset, config: SimulationConfig, l: int) -> float:
    """Variance share of the l-th causal effect (position in the causal list)."""
    if not 0 <= l < config.k:
        raise ValueError(f"causal position {l} outside [0, {config.k})")
    v = _genetic_variance(dataset, config)
    col = dataset.columns(config.causal_indices[l])
    return config.effects[l] ** 2 * float(col.var(ddof=1)) / (config.sigma**2 + v)


@dataclass(frozen=True)
class ClassificationResult:
    """Detections split into true and false positives at one |R| threshold."""

    tp_count: int
    fp_list: tuple[tuple[int, float], ...]  # (snp index, max |R| to any causal)
    tp_causal: tuple[int, ...]  # causal indices credited with a detection


def _causal_block(dataset: Dataset, config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The causal columns, centred, and their norms: built once per study."""
    C = dataset.columns(list(config.causal_indices))
    C = C - C.mean(axis=0)
    return C, np.sqrt(np.einsum("ij,ij->j", C, C))


def _match_causal(dataset: Dataset, config: SimulationConfig, detected: list[int],
                  block: tuple[np.ndarray, np.ndarray] | None = None):
    """(position of the causal SNP of largest |R|, that |R|) for each of the
    sorted, non-empty ``detected``; the position is None without causal SNPs.
    ``block`` is ``_causal_block(dataset, config)``, built here when not given."""
    if not config.causal_indices:
        return None, np.zeros(len(detected))
    C, cn = _causal_block(dataset, config) if block is None else block
    D = dataset.columns(detected)
    D = D - D.mean(axis=0)
    dn = np.sqrt(np.einsum("ij,ij->j", D, D))
    with np.errstate(invalid="ignore", divide="ignore"):
        R = (D.T @ C) / np.outer(dn, cn)
    R = np.nan_to_num(np.abs(R), nan=0.0)
    best_causal = np.argmax(R, axis=1)  # ties resolve to the smaller index
    return best_causal, R[np.arange(len(detected)), best_causal]


def classify_detections(detected, dataset: Dataset, config: SimulationConfig,
                        threshold: float, *, _match=None) -> ClassificationResult:
    """Match detections to causal SNPs by maximal absolute correlation.

    A detection is a true positive for the causal SNP of largest |R| when
    that |R| exceeds the threshold; several detections matched to one causal
    SNP count as a single true positive.  False positives with identical
    genotype columns are counted once, each reported with its max |R|.

    ``_match`` is ``_match_causal`` of these detections, sorted, to use
    instead of computing it, so that a study computes it once for all its
    thresholds.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    detected = sorted(int(j) for j in detected)
    dataset.check_snps(detected, "detection")
    if not detected:
        return ClassificationResult(0, (), ())
    best_causal, max_r = _match_causal(dataset, config, detected) if _match is None else _match

    tp_causal: set[int] = set()
    fp: list[tuple[int, float]] = []
    seen_columns: set[bytes] = set()
    for pos, j in enumerate(detected):
        if config.causal_indices and max_r[pos] > threshold:
            tp_causal.add(int(config.causal_indices[int(best_causal[pos])]))
        else:
            key = dataset.genotypes.values[:, j].tobytes()
            if key in seen_columns:
                continue
            seen_columns.add(key)
            fp.append((j, float(max_r[pos])))
    return ClassificationResult(len(tp_causal), tuple(fp), tuple(sorted(tp_causal)))


METHOD_KINDS = ("bonferroni", "bh", "mbic", "mbic2")


@dataclass(frozen=True)
class MethodSpec:
    """One analysis method to run inside a study."""

    kind: str  # bonferroni | bh | mbic | mbic2
    alpha: float = 0.05
    d: float = DEFAULT_D
    p_effective: int | None = None
    search: SearchConfig | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method {self.kind!r}")
        # a scan method has no search, and a search must use the method's criterion
        if self.search is not None and self.search.criterion.kind != self.kind:
            raise ValueError(f"method {self.kind!r} cannot take a "
                             f"{self.search.criterion.kind!r} search config")

    def search_config(self, dataset: Dataset) -> SearchConfig:
        if self.search is not None:
            return self.search
        crit = CriterionConfig(
            self.kind,
            n=dataset.n_individuals,
            p_effective=self.p_effective or dataset.n_snps,
            d=self.d,
        )
        return SearchConfig(criterion=crit)


@dataclass
class MethodStats:
    """Aggregates of one method at one threshold."""

    power: np.ndarray  # per causal SNP, proportion over replicates
    fdr: np.ndarray  # per replicate
    fp_counts: dict[int, int] = field(default_factory=dict)
    fp_max_r: dict[int, float] = field(default_factory=dict)


@dataclass
class DetectionReport:
    """Everything a power/FDR study produced, aggregation order independent."""

    causal_indices: tuple[int, ...]
    thresholds: tuple[float, ...]
    n_replicates: int
    methods: tuple[str, ...]
    detections: dict[str, list[list[int]]]
    stats: dict[str, dict[float, MethodStats]]

    def power_for(self, method: str, threshold: float) -> dict[int, float]:
        s = self.stats[method][threshold]
        return {j: float(s.power[i]) for i, j in enumerate(self.causal_indices)}

    def mean_power(self, method: str, threshold: float) -> float:
        p = self.stats[method][threshold].power
        return float(p.mean()) if p.size else 0.0

    def mean_fdr(self, method: str, threshold: float) -> float:
        return float(self.stats[method][threshold].fdr.mean())

    def fp_table(self, method: str, threshold: float, snp_ids: Sequence[str]) -> str:
        """TSV of false-positive frequencies: snp_id, frequency, max |R|."""
        s = self.stats[method][threshold]
        rows = sorted(s.fp_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        lines = ["snp_id\tfrequency\tmax_abs_r"]
        for j, count in rows:
            lines.append(f"{snp_ids[j]}\t{count}\t{s.fp_max_r[j]:.4f}")
        return "\n".join(lines) + "\n"

    def to_json(self, snp_ids: Sequence[str]) -> str:
        payload = {
            "causal": [snp_ids[j] for j in self.causal_indices],
            "thresholds": list(self.thresholds),
            "n_replicates": self.n_replicates,
            "methods": {},
        }
        for method in self.methods:
            per_thr = {}
            for thr in self.thresholds:
                s = self.stats[method][thr]
                per_thr[str(thr)] = {
                    "power": {snp_ids[j]: float(s.power[i])
                              for i, j in enumerate(self.causal_indices)},
                    "mean_power": self.mean_power(method, thr),
                    "fdr_per_replicate": [float(x) for x in s.fdr],
                    "mean_fdr": self.mean_fdr(method, thr),
                    "false_positives": [
                        {"snp": snp_ids[j], "frequency": c, "max_abs_r": s.fp_max_r[j]}
                        for j, c in sorted(s.fp_counts.items(), key=lambda kv: (-kv[1], kv[0]))
                    ],
                }
            payload["methods"][method] = per_thr
        return json.dumps(payload, indent=2)


def run_study(dataset: Dataset, config: SimulationConfig,
              methods: list[MethodSpec]) -> DetectionReport:
    """Simulate traits and score every method at every |R| threshold.

    All methods see identical traits per replicate and share the
    single-marker scan, which reads ``dataset.float_values``: the study
    builds that n x p float64 copy, the only library call that does.  The
    genetic component X beta is computed and the causal block centred once
    per study, and the |R| of each method's detections to that block once
    per replicate for all thresholds.  Searches that agree on
    ``screen_threshold`` and ``max_forward_size`` also share one forward
    stage per replicate, which does not depend on the criterion, and the
    backward path from it.  A replicate with no detections contributes
    FDR 0.
    """
    names = [m.kind for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("duplicate method kinds in one study")
    dataset.float_values  # the one float64 panel copy: every replicate's scan reads it
    engine = ScanEngine(dataset)
    block = _causal_block(dataset, config) if config.causal_indices else None
    # power holds hit counts until the replicates are done
    stats = {m: {t: MethodStats(power=np.zeros(config.k), fdr=np.zeros(config.n_replicates))
                 for t in config.tp_thresholds} for m in names}
    detections: dict[str, list[list[int]]] = {m: [] for m in names}
    causal_pos = {j: i for i, j in enumerate(config.causal_indices)}
    searches = {m.kind: m.search_config(dataset) for m in methods if m.kind in ("mbic", "mbic2")}
    forward_users = Counter((c.screen_threshold, c.max_forward_size) for c in searches.values())

    g = genetic_component(dataset, config)
    for rep in range(config.n_replicates):
        y = simulate_trait(dataset, config, rep, _g=g)
        ds_rep = dataset.with_trait(y)
        scan = engine.scan(y)
        shared = {}  # forward stages of this replicate used by more than one search
        for spec in methods:
            if spec.kind == "bonferroni":
                detected = bonferroni(scan, spec.alpha, spec.p_effective or dataset.n_snps)
            elif spec.kind == "bh":
                detected = benjamini_hochberg(scan, spec.alpha)
            else:
                cfg = searches[spec.kind]
                key = (cfg.screen_threshold, cfg.max_forward_size)
                if forward_users[key] > 1 and key not in shared:
                    shared[key] = forward_stage(ds_rep, cfg, scan)
                model, _, _ = select_model(ds_rep, cfg, scan=scan, _state=shared.get(key))
                detected = np.asarray(model.snp_indices, dtype=np.int64)
            detected_list = [int(j) for j in detected]
            detections[spec.kind].append(detected_list)
            ordered = sorted(detected_list)
            match = _match_causal(dataset, config, ordered, block) if ordered else None
            for thr in config.tp_thresholds:
                s = stats[spec.kind][thr]
                cls = classify_detections(detected_list, dataset, config, thr, _match=match)
                for j in cls.tp_causal:
                    s.power[causal_pos[j]] += 1.0
                n_det = cls.tp_count + len(cls.fp_list)
                s.fdr[rep] = len(cls.fp_list) / n_det if n_det else 0.0
                for j, r in cls.fp_list:
                    s.fp_counts[j] = s.fp_counts.get(j, 0) + 1
                    s.fp_max_r[j] = max(s.fp_max_r.get(j, 0.0), r)

    for per_threshold in stats.values():
        for s in per_threshold.values():
            s.power /= max(config.n_replicates, 1)
    return DetectionReport(
        causal_indices=config.causal_indices,
        thresholds=config.tp_thresholds,
        n_replicates=config.n_replicates,
        methods=tuple(names),
        detections=detections,
        stats=stats,
    )


@dataclass(frozen=True)
class PowerTable:
    """Monte-Carlo power of the single-marker F test under shared effects."""

    k_values: tuple[int, ...]
    tau_grid: tuple[float, ...]
    power: np.ndarray  # shape (len(k_values), len(tau_grid))

    def at(self, k: int, tau: float) -> float:
        return float(self.power[self.k_values.index(k), self.tau_grid.index(tau)])


def power_curve_noncentral(k_values, tau_grid, n: int, alpha: float,
                           n_draws: int, seed: int = 0) -> PowerTable:
    """Sample the two noncentral chi-square components of the F statistic.

    Under an orthogonal design with k equal effects of scaled size tau, the
    tested marker contributes noncentrality tau to the model sum of squares
    while the k-1 omitted effects inflate the residual with (k-1)*tau; power
    is the rejection rate of the level-alpha single-marker F test.
    """
    k_values = tuple(int(k) for k in k_values)
    tau_grid = tuple(float(t) for t in tau_grid)
    if any(k < 1 for k in k_values):
        raise ValueError("k values must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if not all(t >= 0.0 for t in tau_grid):
        raise ValueError("tau values must be >= 0")
    crit = float(fdtri(1, n - 2, 1.0 - alpha))
    rng = rng_stream(seed, 0, "mc")
    power = np.empty((len(k_values), len(tau_grid)))
    for a, k in enumerate(k_values):
        for b, tau in enumerate(tau_grid):
            mss = _noncentral_chi2(rng, 1, tau, n_draws)
            rss = _noncentral_chi2(rng, n - 2, (k - 1) * tau, n_draws)
            f_stat = (n - 2) * mss / rss
            power[a, b] = float(np.mean(f_stat > crit))
    return PowerTable(k_values, tau_grid, power)


def _noncentral_chi2(rng: np.random.Generator, df: int, nonc: float, size: int) -> np.ndarray:
    if nonc <= 0.0:
        return rng.chisquare(df, size)
    return rng.noncentral_chisquare(df, nonc, size)


@dataclass(frozen=True)
class NcpRow:
    snp_index: int
    sqrt_nu_m: float
    h2: float
    power: float | None


def ncp_diagnostics(dataset: Dataset, config: SimulationConfig, snp_set=None,
                    power_by_snp: dict[int, float] | None = None) -> list[NcpRow]:
    """Join sqrt-noncentrality and heritability per SNP with observed power.

    ``power_by_snp`` usually comes from ``DetectionReport.power_for``.
    """
    if snp_set is None:
        snp_set = config.causal_indices
    effects = np.asarray(config.effects)
    causal_pos = {j: i for i, j in enumerate(config.causal_indices)}
    rows = []
    for j in snp_set:
        j = int(j)
        pair = noncentrality_single_marker(
            dataset, config.causal_indices, effects, config.sigma, j
        )
        h2 = individual_heritability(dataset, config, causal_pos[j]) if j in causal_pos else 0.0
        power = None if power_by_snp is None else power_by_snp.get(j)
        rows.append(NcpRow(j, math.sqrt(pair.nu_m), h2, power))
    return rows
