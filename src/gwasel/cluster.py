"""Correlation clustering of markers and the effective marker count.

The effective number of markers, used in place of raw p inside selection
penalties, is the number of greedy leader clusters at an |R| threshold.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from gwasel import _kernels
from gwasel.genotype import Dataset


@dataclass(frozen=True)
class ClusterAssignment:
    cluster_id: np.ndarray  # cluster of each SNP
    representatives: np.ndarray  # founding SNP of each cluster, creation order
    degenerate: np.ndarray  # True for zero-variance singleton columns

    @property
    def effective_count(self) -> int:
        return int(self.representatives.shape[0])

    def to_tsv(self, snp_ids: Sequence[str]) -> str:
        lines = ["snp_id\tcluster_id\trepresentative_id"]
        for j in range(self.cluster_id.shape[0]):
            cid = int(self.cluster_id[j])
            lines.append(f"{snp_ids[j]}\t{cid}\t{snp_ids[int(self.representatives[cid])]}")
        return "\n".join(lines) + "\n"


def cluster_snps(dataset: Dataset, c_threshold: float = 0.7,
                 window: int = 1000) -> ClusterAssignment:
    """Greedy leader clustering in file order.

    A SNP joins the earliest cluster whose representative lies within
    ``window`` file positions and has absolute correlation above
    ``c_threshold`` with it; otherwise it founds a new cluster.
    Zero-variance columns become flagged singletons.
    """
    if not 0.0 < c_threshold <= 1.0:
        raise ValueError("c_threshold must lie in (0, 1]")
    if window < 1:
        raise ValueError("window must be >= 1")
    if dataset.genotypes.missing_mask.any():
        raise ValueError("clustering requires complete genotypes; impute first")
    cluster_id, reps, degenerate = _kernels.leader_cluster(
        dataset.genotypes.values, float(c_threshold), int(window)
    )
    return ClusterAssignment(cluster_id, reps, degenerate)
