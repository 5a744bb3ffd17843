"""gwasel: sparse model selection and multiple testing for marker scans."""

from gwasel.cluster import ClusterAssignment, cluster_snps
from gwasel.criteria import DEFAULT_D, CriterionConfig, evaluate, penalty
from gwasel.genotype import Dataset, GenotypeMatrix, impute_missing, load_dataset
from gwasel.mtest import (
    ScanEngine,
    ScanResult,
    benjamini_hochberg,
    bonferroni,
    single_marker_scan,
)
from gwasel.regress import (
    FitResult,
    FitWorkspace,
    ModelSpec,
    NoncentralityPair,
    f_pvalue,
    fit,
    noncentrality_single_marker,
)
from gwasel.search import (
    SearchConfig,
    SearchTrace,
    refine_subsets,
    screen,
    select_model,
)
from gwasel.simulate import (
    DetectionReport,
    MethodSpec,
    SimulationConfig,
    classify_detections,
    effect_grid,
    individual_heritability,
    ncp_diagnostics,
    overall_heritability,
    power_curve_noncentral,
    rng_stream,
    run_study,
    simulate_trait,
    synthetic_dataset,
)

__version__ = "0.1.0"
