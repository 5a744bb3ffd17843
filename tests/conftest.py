import math
from unittest import mock

import numpy as np
import pytest

from gwasel import _kernels, search
from gwasel.genotype import Dataset, GenotypeMatrix


def dataset_from_values(values, trait=None, covariates=None, mask=None):
    values = np.asarray(values, dtype=np.int8)
    if mask is None:
        mask = np.zeros_like(values, dtype=bool)
    gm = GenotypeMatrix(values, np.asarray(mask, dtype=bool))
    return Dataset(
        genotypes=gm,
        trait=None if trait is None else np.asarray(trait, dtype=np.float64),
        covariates=None if covariates is None else np.asarray(covariates, dtype=np.float64),
    )


@pytest.fixture
def tiny_dataset():
    # y = 2.5 + 1.5 * x0 with a small residual; x1 is noise
    values = np.array(
        [[-1, 0], [0, 1], [0, -1], [1, 0]], dtype=np.int8
    )
    return dataset_from_values(values, trait=[1.0, 2.0, 3.0, 4.0])


def hadamard_codes(n, k):
    """Columns 1..k of the Sylvester-Hadamard matrix of order ``n``, a power
    of two: -1/1 genotype codes with zero mean and X'X = n I, exactly."""
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    assert h.shape[0] == n and 1 <= k < n
    return h[:, 1:k + 1]


def random_genotypes(rng, n, p):
    return rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(n, p))


def unpruned():
    """The subset kernel with its bound switched off: the same arithmetic, no skipped subtree."""
    return mock.patch.object(_kernels, "BOUND_MARGIN", math.inf)


def search_constants(**values):
    """``gwasel.search`` module constants (``EXHAUSTIVE_SIZE_CAP``,
    ``MAX_STEPWISE_ITERATIONS``) set to ``values`` inside a ``with`` block.

    ``SearchConfig`` checks ``refinement_trigger`` against the cap when it is
    built, so build configs inside the block.
    """
    return mock.patch.multiple(search, **values)
