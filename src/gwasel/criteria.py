"""Penalized-likelihood selection criteria: BIC, mBIC, mBIC2, EBIC.

All values are on the -2 log-likelihood scale and are minimized.  With
unknown noise the base term is n*ln(RSS); with known noise it is RSS/sigma^2.
Penalties count selected SNPs only; the intercept and forced covariates are
fixed a priori and never penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from gwasel.errors import PerfectFitError

KINDS = ("bic", "mbic", "mbic2", "ebic")

# standard choice: minus two times the log of the a-priori expected number
# of causal markers, with that expectation set to 4
DEFAULT_D = -2.0 * math.log(4.0)


@dataclass(frozen=True)
class CriterionConfig:
    """Which criterion to evaluate and its constants."""

    kind: str
    n: int
    p_effective: int
    d: float = DEFAULT_D
    kappa: float = 0.0
    sigma: float | None = None

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}, expected one of {KINDS}")
        object.__setattr__(self, "kind", kind)
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.p_effective < 1:
            raise ValueError("p_effective must be >= 1")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if self.sigma is not None and self.sigma <= 0.0:
            raise ValueError("sigma must be positive when given")


def log_binomial(p: int, q: int) -> float:
    """ln C(p, q) through log-gamma, safe for large p."""
    return float(gammaln(p + 1) - gammaln(q + 1) - gammaln(p - q + 1))


def penalty(config: CriterionConfig, q: int) -> float:
    """Model-size penalty for q selected SNPs."""
    if q < 0 or q > config.p_effective:
        raise ValueError(f"q={q} outside [0, p_effective={config.p_effective}]")
    ln_n = math.log(config.n)
    if config.kind == "bic":
        return q * ln_n
    if config.kind == "mbic":
        return q * (ln_n + 2.0 * math.log(config.p_effective) + config.d)
    if config.kind == "mbic2":
        base = q * (ln_n + 2.0 * math.log(config.p_effective) + config.d)
        return base - 2.0 * float(gammaln(q + 1))
    # ebic
    return q * ln_n + 2.0 * (1.0 - config.kappa) * log_binomial(config.p_effective, q)


def evaluate(config: CriterionConfig, rss: float, q: int) -> float:
    """Criterion value (to minimize) for a fit with the given RSS and size q."""
    if config.sigma is None:
        if rss <= 0.0:
            raise PerfectFitError(
                "RSS must be positive when sigma is unknown (saturated model)"
            )
        base = config.n * math.log(rss)
    else:
        if rss < 0.0:
            raise ValueError("RSS must be nonnegative")
        base = rss / config.sigma**2
    return base + penalty(config, q)

