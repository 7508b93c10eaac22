"""Fusion stage: decide whether historical controls may be pooled.

Two variants:

* ``equivalence_fusion``: equivalence test of H0: D(Qc, Qh) >= theta.
  Rejecting H0 (p <= alpha_f, p the share of bootstrap draws at or above
  theta - D) is evidence the arms are within theta of each other, so
  rejection means *merge*.  The reference distribution is the Efron
  bootstrap of D(Qc^m, Qc) + D(Qh^l, Qh) via centered multinomial weights.
* ``classic_fusion``: point-null permutation two-sample test of
  H0: Qc = Qh.  Here *failure* to reject (p > alpha_f) means merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .causality import two_sample_permutation
from .errors import ConfigError, SampleTooSmall
from .estimators import Counts, batched_quad, mmd2_slices, resample_weights
from .kernels import GramCache
from .quantile import monte_carlo


class FusionMode(str, Enum):
    EQUIVALENCE = "equivalence"
    CLASSIC_PERMUTATION = "classic"


@dataclass(frozen=True)
class FusionConfig:
    theta: float = 0.4
    alpha_f: float = 0.05
    num_bootstrap: int = 1000
    mode: FusionMode = FusionMode.EQUIVALENCE
    seed: object = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_f < 1.0:
            raise ConfigError(f"alpha_f must be in (0, 1), got {self.alpha_f}")
        if self.num_bootstrap < 0:
            raise ConfigError("num_bootstrap must be >= 0")
        if self.mode is FusionMode.EQUIVALENCE and self.num_bootstrap < 1:
            raise ConfigError("equivalence mode needs at least one bootstrap draw")
        # theta = inf is the always-merge limit; NaN can never merge.
        if np.isnan(self.theta):
            raise ConfigError("theta must be a number, got nan")
        if self.mode is FusionMode.EQUIVALENCE and self.theta < 0:
            raise ConfigError("theta must be nonnegative in equivalence mode")


@dataclass(frozen=True)
class FusionOutcome:
    statistic: float
    critical_value: float
    p_value: float
    merged: bool
    mode: FusionMode
    resamples_used: int


def bootstrap_plan(m: int, l: int) -> tuple:
    """The count plan of the equivalence bootstrap: each control arm resampled from itself."""
    return Counts(m, m), Counts(l, l)


def _bootstrap_root_terms(k_block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sqrt(max(D^2_W, 0)) with D^2_W = (1/s^2) (W-1)' K (W-1) per weight row.

    ``weights`` are the stored counts; centring them makes the one float
    array of the bootstrap.
    """
    s = k_block.shape[0]
    centered = np.subtract(weights, 1.0, dtype=float)
    d2 = batched_quad(k_block, centered, centered) / s**2
    return np.sqrt(np.clip(d2, 0.0, None))


def equivalence_fusion(gram: GramCache, cfg: FusionConfig) -> FusionOutcome:
    """MMD equivalence fusion test; merged iff statistic > critical value, iff p <= alpha_f.

    The statistic uses the V-statistic: it needs the non-squared MMD, and
    the U-statistic's square root is not always defined.
    """
    if cfg.mode is not FusionMode.EQUIVALENCE:
        raise ConfigError("equivalence_fusion requires mode=equivalence")
    if gram.m < 2 or gram.l < 2:
        raise SampleTooSmall("equivalence fusion needs >= 2 points per control arm")
    d = mmd2_slices(gram, gram.current_slice, gram.historical_slice).root
    statistic = cfg.theta - d

    b = cfg.num_bootstrap
    w_c, w_h = resample_weights(cfg.seed, b, *bootstrap_plan(gram.m, gram.l))
    s = _bootstrap_root_terms(gram.k_cc, w_c) + _bootstrap_root_terms(gram.k_hh, w_h)
    decision = monte_carlo(statistic, s, cfg.alpha_f, observed_joins=False)
    return FusionOutcome(float(statistic), *decision, cfg.mode, resamples_used=b)


def classic_fusion(gram: GramCache, cfg: FusionConfig) -> FusionOutcome:
    """Permutation two-sample test of Qc = Qh; merged iff it fails to reject, iff p > alpha_f."""
    if cfg.mode is not FusionMode.CLASSIC_PERMUTATION:
        raise ConfigError("classic_fusion requires mode=classic")
    if gram.m < 1 or gram.l < 1:
        raise SampleTooSmall("classic fusion needs nonempty control arms")
    p = gram.m + gram.l
    statistic, critical, p_value, reject = two_sample_permutation(
        gram.matrix[:p, :p], gram.m, gram.l, cfg.alpha_f, cfg.num_bootstrap, cfg.seed
    )
    return FusionOutcome(statistic, critical, p_value, not reject, cfg.mode, cfg.num_bootstrap)
