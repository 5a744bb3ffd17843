import numpy as np
import pytest

from gwasel.cluster import cluster_snps, deduplicate
from gwasel.simulate import synthetic_dataset

from conftest import dataset_from_values, random_genotypes


def test_identical_columns_one_cluster():
    col = np.resize(np.array([-1, 0, 1], dtype=np.int8), 12)
    values = np.column_stack([col] * 5)
    ds = dataset_from_values(values)
    assignment = cluster_snps(ds, 0.7, window=10)
    assert assignment.effective_count == 1
    assert set(assignment.cluster_id.tolist()) == {0}


def test_uncorrelated_columns_stay_singletons():
    ds = synthetic_dataset(400, 12, seed=1)
    corr = np.corrcoef(ds.float_values.T)
    assert np.abs(corr - np.eye(12)).max() < 0.7
    assignment = cluster_snps(ds, 0.7, window=20)
    assert assignment.effective_count == 12


def test_two_duplicate_pairs_collapse_to_four():
    rng = np.random.default_rng(2)
    base = random_genotypes(rng, 200, 4)
    values = np.column_stack(
        [base[:, 0], base[:, 0], base[:, 1], base[:, 2], base[:, 2], base[:, 3]]
    )
    ds = dataset_from_values(values)
    assignment = cluster_snps(ds, 0.7, window=10)
    assert assignment.effective_count == 4
    assert assignment.cluster_id[1] == assignment.cluster_id[0]
    assert assignment.cluster_id[4] == assignment.cluster_id[3]


def test_degenerate_column_is_flagged_singleton():
    rng = np.random.default_rng(3)
    values = random_genotypes(rng, 50, 4)
    values[:, 2] = 0
    ds = dataset_from_values(values)
    assignment = cluster_snps(ds, 0.7, window=10)
    assert assignment.degenerate[2]
    assert (assignment.cluster_id == assignment.cluster_id[2]).sum() == 1


def test_threshold_monotonicity():
    ds = synthetic_dataset(60, 40, seed=4)
    counts = [
        cluster_snps(ds, c, window=40).effective_count for c in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert counts == sorted(counts)


def test_representatives_recluster_to_themselves():
    ds = synthetic_dataset(80, 30, seed=5)
    assignment = cluster_snps(ds, 0.25, window=30)
    reps = assignment.representatives.tolist()
    sub = dataset_from_values(ds.genotypes.values[:, reps])
    again = cluster_snps(sub, 0.25, window=30)
    assert again.effective_count == assignment.effective_count


def test_window_limits_merging():
    col = np.resize(np.array([-1, 0, 1], dtype=np.int8), 30)
    filler = synthetic_dataset(30, 6, seed=6).genotypes.values
    values = np.column_stack([col, filler[:, :5], col])  # duplicates 6 apart
    ds = dataset_from_values(values)
    near = cluster_snps(ds, 0.7, window=10)
    far = cluster_snps(ds, 0.7, window=3)
    assert near.cluster_id[6] == near.cluster_id[0]
    assert far.cluster_id[6] != far.cluster_id[0]


def test_tsv_export():
    ds = synthetic_dataset(40, 3, seed=7)
    text = cluster_snps(ds, 0.7, window=3).to_tsv(ds.snp_ids)
    lines = text.strip().splitlines()
    assert lines[0] == "snp_id\tcluster_id\trepresentative_id"
    assert len(lines) == 4


def test_deduplicate_identity():
    ds = synthetic_dataset(50, 8, seed=8)
    out, mapping = deduplicate(ds)
    assert mapping == {}
    assert out.n_snps == 8


def test_deduplicate_removes_second_copy():
    rng = np.random.default_rng(9)
    base = random_genotypes(rng, 40, 3)
    values = np.column_stack([base[:, 0], base[:, 1], base[:, 0], base[:, 2]])
    ds = dataset_from_values(values)
    out, mapping = deduplicate(ds)
    assert out.n_snps == 3
    assert mapping == {2: 0}
    assert out.snp_ids == ("snp0", "snp1", "snp3")


def test_deduplicate_idempotent():
    rng = np.random.default_rng(10)
    base = random_genotypes(rng, 30, 4)
    values = np.column_stack([base, base[:, 1]])
    ds = dataset_from_values(values)
    once, _ = deduplicate(ds)
    twice, mapping = deduplicate(once)
    assert mapping == {}
    assert np.array_equal(once.genotypes.values, twice.genotypes.values)


def test_dedup_then_cluster_same_effective_count():
    rng = np.random.default_rng(11)
    base = random_genotypes(rng, 120, 10)
    dup = np.column_stack([base, base[:, 3], base[:, 7]])
    ds = dataset_from_values(dup)
    direct = cluster_snps(ds, 0.7, window=dup.shape[1]).effective_count
    reduced, _ = deduplicate(ds)
    after = cluster_snps(reduced, 0.7, window=reduced.n_snps).effective_count
    assert direct == after
