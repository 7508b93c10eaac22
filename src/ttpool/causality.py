"""Causality stage: test H0: Qc = Qt, with or without merged historical controls.

Four methods, plus the classic baseline:

* ``standard_permutation_test``: classic two-sample permutation test of
  current vs treatment, ignoring historicals (no-merge branch).
* ``pooled_permutation_test``: the naive-pooling test of classic TTP
  (Viele et al., 2014, Pharm. Stat. 13:41): the same two-sample
  permutation test with the fused control (current || historical) in
  place of the current arm.  It treats the merged historicals as
  concurrent controls, so it does not hold its level when Qh != Qc.
* ``partial_bootstrap_test``: statistic Delta = sqrt(n)(D^2(Qf, Qt) -
  D^2(Qf, Qc)); reference draws bootstrap both the null-treatment and
  the current-control resamples from the current control arm, and the
  historical resample separately, preserving the null dependence
  structure even when Qh != Qc.
* ``partial_permutation_test``: statistic T = D^2(Qf, Qt); only the
  pooled current + treatment observations are permuted, historicals stay
  fixed as an ancillary sample.  Finite-sample valid.
* ``normal_approx_test``: Delta against the plug-in limiting normal
  N(0, 4(1 + 1/c1) sigma_c^2).

All resampling operates on weight vectors over Gram positions; no kernel
is re-evaluated inside the B-loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.stats import norm

from .errors import ConfigError, SampleTooSmall
from .estimators import (
    Estimator,
    batched_quad,
    bootstrap_counts,
    mmd2,
    mmd2_fused,
    permutation_masks,
)
from .kernels import GramCache
from .quantile import inf_quantile


class Method(str, Enum):
    STANDARD_PERMUTATION = "standard_permutation"
    PARTIAL_BOOTSTRAP = "partial_bootstrap"
    PARTIAL_PERMUTATION = "partial_permutation"
    NORMAL_APPROX = "normal_approx"


@dataclass(frozen=True)
class CausalityConfig:
    alpha: float = 0.05
    num_resamples: int = 1000
    method: Method = Method.PARTIAL_BOOTSTRAP
    estimator: Estimator = Estimator.VSTAT
    seed: object = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.num_resamples < 0:
            raise ConfigError("num_resamples must be >= 0")


@dataclass(frozen=True)
class CausalityOutcome:
    statistic: float
    critical_value: float
    reject: bool
    method: Method
    merged_analysis: bool


@dataclass(frozen=True)
class DiagnosticsReport:
    d_hat_ch: float
    d_hat_ct: float
    gamma: float
    lam: float
    sufficient_consistency: bool


def decide(statistic: float, critical_value: float) -> bool:
    """Shared decision rule: reject iff the statistic exceeds the critical value."""
    return bool(statistic > critical_value)


def delta_statistic(gram: GramCache, estimator: Estimator = Estimator.VSTAT) -> float:
    """Delta = sqrt(n) (D^2(Qf, Qt) - D^2(Qf, Qc)) on the observed data."""
    t_full = mmd2_fused(gram, gram.current, gram.historical, gram.treatment, estimator)
    t_center = mmd2_fused(gram, gram.current, gram.historical, gram.current, estimator)
    return float(np.sqrt(gram.n) * (t_full.squared - t_center.squared))


# ---------------------------------------------------------------------------
# Standard permutation (no-merge branch) and naive pooling (classic merge).
# ---------------------------------------------------------------------------


def _mask_sums(k: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Within-a, cross and within-b sums of ``k`` for 0/1 group-a membership rows.

    The cross sum is each row total of ``masks @ k`` minus its within-a
    part, so no complement mask array is built.
    """
    rowsum = masks @ k
    s_aa = np.einsum("bq,bq->b", rowsum, masks)
    s_ab = rowsum.sum(axis=1) - s_aa
    return s_aa, s_ab, k.sum() - s_aa - 2.0 * s_ab


def permutation_two_sample_stats(
    k_pooled: np.ndarray,
    masks: np.ndarray,
    size_a: int,
    size_b: int,
    estimator: Estimator,
) -> np.ndarray:
    """Batched two-sample MMD^2 statistics for 0/1 group-a membership rows."""
    s_aa, s_ab, s_bb = _mask_sums(k_pooled, masks)
    cross = -2.0 * s_ab / (size_a * size_b)
    if estimator is Estimator.USTAT:
        diag = np.diag(k_pooled)
        d_a = masks @ diag
        d_b = diag.sum() - d_a
        return (
            (s_aa - d_a) / (size_a * (size_a - 1))
            + (s_bb - d_b) / (size_b * (size_b - 1))
            + cross
        )
    return s_aa / size_a**2 + s_bb / size_b**2 + cross


def two_sample_permutation(
    k_pooled: np.ndarray,
    size_a: int,
    size_b: int,
    alpha: float,
    num_resamples: int,
    rng: np.random.Generator,
    estimator: Estimator = Estimator.VSTAT,
) -> tuple[float, float]:
    """Permutation test over a pooled matrix whose first ``size_a`` rows are group a.

    The observed statistic is included in the reference set (B+1
    convention).  Returns (statistic, critical_value).
    """
    a = np.arange(size_a)
    b = np.arange(size_a, size_a + size_b)
    statistic = mmd2(k_pooled, a, b, estimator).squared
    if num_resamples > 0:
        masks = permutation_masks(rng, size_a + size_b, size_a, num_resamples)
        perm = permutation_two_sample_stats(k_pooled, masks, size_a, size_b, estimator)
    else:
        perm = np.empty(0)
    reference = np.concatenate([[statistic], perm])
    return float(statistic), inf_quantile(reference, 1.0 - alpha)


def standard_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Two-sample test of current vs treatment on the two-arm-bandwidth matrix."""
    min_size = 2 if cfg.estimator is Estimator.USTAT else 1
    if gram.m < min_size or gram.n < min_size:
        raise SampleTooSmall("standard permutation needs nonempty current and treatment")
    rng = np.random.default_rng(cfg.seed)
    statistic, critical = two_sample_permutation(
        gram.matrix_nomerge, gram.m, gram.n, cfg.alpha, cfg.num_resamples, rng, cfg.estimator
    )
    return CausalityOutcome(
        statistic=statistic,
        critical_value=critical,
        reject=decide(statistic, critical),
        method=Method.STANDARD_PERMUTATION,
        merged_analysis=False,
    )


def pooled_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Naive pooling: fused control (current || historical) vs treatment.

    Permutation test on the three-arm-bandwidth matrix; the merged
    historicals are exchanged with treatment as if they were concurrent.
    """
    min_size = 2 if cfg.estimator is Estimator.USTAT else 1
    if gram.m + gram.l < min_size or gram.n < min_size:
        raise SampleTooSmall("naive pooling needs nonempty fused control and treatment")
    rng = np.random.default_rng(cfg.seed)
    statistic, critical = two_sample_permutation(
        gram.matrix, gram.m + gram.l, gram.n, cfg.alpha, cfg.num_resamples, rng, cfg.estimator
    )
    return CausalityOutcome(
        statistic=statistic,
        critical_value=critical,
        reject=decide(statistic, critical),
        method=Method.STANDARD_PERMUTATION,
        merged_analysis=True,
    )


# ---------------------------------------------------------------------------
# Partial bootstrap.
# ---------------------------------------------------------------------------


def partial_bootstrap_draws(
    gram: GramCache,
    num_resamples: int,
    rng: np.random.Generator,
    estimator: Estimator = Estimator.VSTAT,
) -> np.ndarray:
    """Reference draws Delta*_b of the partial bootstrap.

    Per draw: m and n index draws with replacement from the current arm
    (Q_{c,b}, Q_{t,b}), l draws from the historical arm (Q_{h,b});
    Delta* = sqrt(n)(D^2(Q_{f,b}, Q_{t,b}) - D^2(Q_{f,b}, Q_{c,b})).
    """
    m, l, n = gram.m, gram.l, gram.n
    big = m + l
    k_cc, k_ch, k_hh = gram.k_cc, gram.k_ch, gram.k_hh
    u = bootstrap_counts(rng, m, m, num_resamples)  # current resample, counts over cur
    v = bootstrap_counts(rng, n, m, num_resamples)  # null-treatment resample, over cur
    w = bootstrap_counts(rng, l, l, num_resamples)  # historical resample, over hist

    cc_uu = batched_quad(k_cc, u, u)
    cc_vv = batched_quad(k_cc, v, v)
    cc_uv = batched_quad(k_cc, u, v)
    ch_uw = batched_quad(k_ch, u, w)
    ch_vw = batched_quad(k_ch, v, w)
    hh_ww = batched_quad(k_hh, w, w)

    within_f = cc_uu + 2.0 * ch_uw + hh_ww
    within_t = cc_vv
    within_c = cc_uu
    if estimator is Estimator.USTAT:
        d_cc = np.diag(k_cc)
        d_hh = np.diag(k_hh)
        within_f = (within_f - u @ d_cc - w @ d_hh) / (big * (big - 1))
        within_t = (within_t - v @ d_cc) / (n * (n - 1))
        within_c = (within_c - u @ d_cc) / (m * (m - 1))
    else:
        within_f = within_f / big**2
        within_t = within_t / n**2
        within_c = within_c / m**2

    cross_t = cc_uv + ch_vw
    cross_c = cc_uu + ch_uw
    t_full = within_f + within_t - 2.0 * cross_t / (big * n)
    t_center = within_f + within_c - 2.0 * cross_c / (big * m)
    return np.sqrt(n) * (t_full - t_center)


def partial_bootstrap_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    min_size = 2 if cfg.estimator is Estimator.USTAT else 1
    if gram.m < min_size or gram.l < min_size or gram.n < min_size:
        raise SampleTooSmall("partial bootstrap needs all three arms nonempty")
    statistic = delta_statistic(gram, cfg.estimator)
    rng = np.random.default_rng(cfg.seed)
    draws = partial_bootstrap_draws(gram, cfg.num_resamples, rng, cfg.estimator)
    critical = inf_quantile(draws, 1.0 - cfg.alpha)
    return CausalityOutcome(
        statistic=statistic,
        critical_value=critical,
        reject=decide(statistic, critical),
        method=Method.PARTIAL_BOOTSTRAP,
        merged_analysis=True,
    )


# ---------------------------------------------------------------------------
# Partial permutation.
# ---------------------------------------------------------------------------


def partial_permutation_draws(
    gram: GramCache,
    num_resamples: int,
    rng: np.random.Generator,
    estimator: Estimator = Estimator.VSTAT,
) -> np.ndarray:
    """Reference draws T^b: permute pooled current + treatment, historicals fixed."""
    m, l, n = gram.m, gram.l, gram.n
    big = m + l
    pos_ct = np.concatenate([gram.current, gram.treatment])
    k_ct = gram.matrix[np.ix_(pos_ct, pos_ct)]
    hrow = gram.matrix[np.ix_(pos_ct, gram.historical)].sum(axis=1)
    hh_sum = gram.k_hh.sum()

    masks = permutation_masks(rng, m + n, m, num_resamples)  # 1 = permuted-current
    cc, ct, tt = _mask_sums(k_ct, masks)
    ch = masks @ hrow
    th = hrow.sum() - ch

    within_f = cc + 2.0 * ch + hh_sum
    within_t = tt
    if estimator is Estimator.USTAT:
        d_ct = np.diag(k_ct)
        d_c = masks @ d_ct
        within_f = (within_f - d_c - np.trace(gram.k_hh)) / (big * (big - 1))
        within_t = (within_t - (d_ct.sum() - d_c)) / (n * (n - 1))
    else:
        within_f = within_f / big**2
        within_t = within_t / n**2
    cross = ct + th
    return within_f + within_t - 2.0 * cross / (big * n)


def partial_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    min_size = 2 if cfg.estimator is Estimator.USTAT else 1
    if gram.m < min_size or gram.l < min_size or gram.n < min_size:
        raise SampleTooSmall("partial permutation needs all three arms nonempty")
    statistic = mmd2_fused(
        gram, gram.current, gram.historical, gram.treatment, cfg.estimator
    ).squared
    rng = np.random.default_rng(cfg.seed)
    if cfg.num_resamples > 0:
        perm = partial_permutation_draws(gram, cfg.num_resamples, rng, cfg.estimator)
    else:
        perm = np.empty(0)
    reference = np.concatenate([[statistic], perm])
    critical = inf_quantile(reference, 1.0 - cfg.alpha)
    return CausalityOutcome(
        statistic=float(statistic),
        critical_value=critical,
        reject=decide(statistic, critical),
        method=Method.PARTIAL_PERMUTATION,
        merged_analysis=True,
    )


# ---------------------------------------------------------------------------
# Normal approximation.
# ---------------------------------------------------------------------------


def estimate_sigma_c_squared(gram: GramCache) -> float:
    """Plug-in estimate of the asymptotic variance component sigma_c^2.

    g_i averages the kernel row of each current-control point against the
    historical arm minus its leave-one-out average against the current
    arm; the variance of g over current points is scaled by (1 - gamma)^2.
    """
    m, l = gram.m, gram.l
    if m < 2:
        raise SampleTooSmall("variance estimation needs m >= 2")
    k_cc, k_ch = gram.k_cc, gram.k_ch
    g = k_ch.mean(axis=1) - (k_cc.sum(axis=1) - np.diag(k_cc)) / (m - 1)
    gamma = m / (m + l)
    centered = g - g.mean()
    return float((1.0 - gamma) ** 2 / (m - 1) * np.sum(centered**2))


def normal_approx_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Delta against the (1 - alpha)-quantile of N(0, 4(1 + 1/c1) sigma_c^2).

    The factor 4 comes from the limiting law of Delta; c1 = m/n.
    """
    statistic = delta_statistic(gram, cfg.estimator)
    sigma2 = estimate_sigma_c_squared(gram)
    variance = 4.0 * (1.0 + gram.n / gram.m) * sigma2
    critical = float(norm.ppf(1.0 - cfg.alpha) * np.sqrt(variance))
    return CausalityOutcome(
        statistic=statistic,
        critical_value=critical,
        reject=decide(statistic, critical),
        method=Method.NORMAL_APPROX,
        merged_analysis=True,
    )


_MERGED_TESTS = {
    Method.PARTIAL_BOOTSTRAP: partial_bootstrap_test,
    Method.PARTIAL_PERMUTATION: partial_permutation_test,
    Method.NORMAL_APPROX: normal_approx_test,
}


def run_causality(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Dispatch on cfg.method."""
    if cfg.method is Method.STANDARD_PERMUTATION:
        return standard_permutation_test(gram, cfg)
    return _MERGED_TESTS[cfg.method](gram, cfg)


def consistency_diagnostics(gram: GramCache) -> DiagnosticsReport:
    """Conservative sufficient-consistency check: 2(1 - gamma) D(Qc, Qh) < D(Qc, Qt)."""
    d_ch = mmd2(gram, gram.current, gram.historical).root
    d_ct = mmd2(gram, gram.current, gram.treatment).root
    gamma = gram.m / (gram.m + gram.l)
    lam = gram.n / (gram.m + gram.n)
    return DiagnosticsReport(
        d_hat_ch=d_ch,
        d_hat_ct=d_ct,
        gamma=gamma,
        lam=lam,
        sufficient_consistency=bool(2.0 * (1.0 - gamma) * d_ch < d_ct),
    )
