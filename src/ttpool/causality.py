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

Observed statistics are sums over views of the Gram cache: every arm,
and the fused control current || historical, is a contiguous range of
it, so no block is copied.  All resampling operates on weight vectors
over Gram positions; no kernel is re-evaluated inside the B-loop.
The fused control's within-sample sum cancels in Delta, so Delta and its
bootstrap draws never compute it, nor read the historical-historical block.
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
    block_total,
    bootstrap_counts,
    mmd2_from_sums,
    mmd2_slices,
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


def _outcome(
    statistic: float, critical: float, method: Method, merged_analysis: bool = True
) -> CausalityOutcome:
    """A test's outcome, its reject flag set by the shared rule ``decide``."""
    return CausalityOutcome(
        statistic=float(statistic),
        critical_value=critical,
        reject=decide(statistic, critical),
        method=method,
        merged_analysis=merged_analysis,
    )


def _check_sizes(estimator: Estimator, name: str, *sizes: int) -> None:
    """Every sample must be nonempty, and hold two points for the U-statistic."""
    min_size = 2 if estimator is Estimator.USTAT else 1
    if min(sizes) < min_size:
        raise SampleTooSmall(f"{name} needs at least {min_size} point(s) per sample")


def _delta_from_sums(s_tt, s_ft, s_cc, s_fc, diag_t, diag_c, gram: GramCache, estimator):
    """Delta = sqrt(n) (D^2(Qf, Qt) - D^2(Qf, Qc)) from the sums that do not cancel.

    The within-treatment, fused x treatment, within-current and fused x
    current sums, then the two within sums' diagonal totals; arrays give
    one Delta per draw.  The fused within sum is the same in both terms,
    so it is passed as zero.
    """
    big, m, n = gram.m + gram.l, gram.m, gram.n
    t_full = mmd2_from_sums(0.0, s_tt, s_ft, 0.0, diag_t, big, n, estimator)
    t_center = mmd2_from_sums(0.0, s_cc, s_fc, 0.0, diag_c, big, m, estimator)
    return np.sqrt(n) * (t_full - t_center)


def delta_statistic(gram: GramCache, estimator: Estimator = Estimator.VSTAT) -> float:
    """Delta on the observed data, from block totals over views of the Gram matrix."""
    _check_sizes(estimator, "Delta", gram.m, gram.l, gram.n)
    k, f, c, t = gram.matrix, gram.fused_slice, gram.current_slice, gram.treatment_slice
    sums = [block_total(block) for block in (k[t, t], k[f, t], k[c, c], k[f, c])]
    return float(_delta_from_sums(*sums, k[t, t].trace(), k[c, c].trace(), gram, estimator))


def t_statistic(gram: GramCache, estimator: Estimator = Estimator.VSTAT) -> float:
    """T = D^2(Qf, Qt) on the observed data: fused control against treatment."""
    _check_sizes(estimator, "T", gram.m, gram.l, gram.n)
    return mmd2_slices(gram, gram.fused_slice, gram.treatment_slice, estimator).squared


# ---------------------------------------------------------------------------
# Standard permutation (no-merge branch) and naive pooling (classic merge).
# ---------------------------------------------------------------------------


def _mask_sums(k: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Within-a, cross and within-b sums of ``k`` for 0/1 group-a membership rows.

    Then come the within-a and within-b diagonal totals.  The cross sum is
    each row total of ``masks @ k`` minus its within-a part, so no
    complement mask array is built.
    """
    rowsum = masks @ k
    s_aa = np.einsum("bq,bq->b", rowsum, masks)
    s_ab = rowsum.sum(axis=1) - s_aa
    diag = np.diag(k)
    d_a = masks @ diag
    return s_aa, s_ab, k.sum() - s_aa - 2.0 * s_ab, d_a, diag.sum() - d_a


def permutation_two_sample_stats(
    k_pooled: np.ndarray,
    masks: np.ndarray,
    size_a: int,
    size_b: int,
    estimator: Estimator,
) -> np.ndarray:
    """Batched two-sample MMD^2 statistics for 0/1 group-a membership rows."""
    s_aa, s_ab, s_bb, d_a, d_b = _mask_sums(k_pooled, masks)
    return mmd2_from_sums(s_aa, s_bb, s_ab, d_a, d_b, size_a, size_b, estimator)


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
    a, b = slice(0, size_a), slice(size_a, size_a + size_b)
    statistic = mmd2_slices(k_pooled, a, b, estimator).squared
    masks = permutation_masks(rng, size_a + size_b, size_a, num_resamples)
    perm = permutation_two_sample_stats(k_pooled, masks, size_a, size_b, estimator)
    reference = np.concatenate([[statistic], perm])
    return float(statistic), inf_quantile(reference, 1.0 - alpha)


def _two_sample_test(
    k_pooled: np.ndarray, size_a: int, size_b: int, cfg: CausalityConfig, merged_analysis: bool
) -> CausalityOutcome:
    _check_sizes(cfg.estimator, "a two-sample permutation test", size_a, size_b)
    rng = np.random.default_rng(cfg.seed)
    statistic, critical = two_sample_permutation(
        k_pooled, size_a, size_b, cfg.alpha, cfg.num_resamples, rng, cfg.estimator
    )
    return _outcome(statistic, critical, Method.STANDARD_PERMUTATION, merged_analysis)


def standard_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Two-sample test of current vs treatment on the two-arm-bandwidth matrix."""
    return _two_sample_test(gram.matrix_nomerge, gram.m, gram.n, cfg, merged_analysis=False)


def pooled_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Naive pooling: fused control (current || historical) vs treatment.

    Permutation test on the three-arm-bandwidth matrix; the merged
    historicals are exchanged with treatment as if they were concurrent.
    """
    return _two_sample_test(gram.matrix, gram.m + gram.l, gram.n, cfg, merged_analysis=True)


# ---------------------------------------------------------------------------
# Partial bootstrap.
# ---------------------------------------------------------------------------


def _row_dots(product: np.ndarray, *rows: np.ndarray) -> list:
    """Row-wise dot products of one stacked (B, p) product with each (B, p) array."""
    return [np.einsum("bq,bq->b", product, r) for r in rows]


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
    The fused within sum, which holds w' K_hh w, cancels, so K_hh is not
    read; the historical counts enter only the cross sums.
    """
    m, l, n = gram.m, gram.l, gram.n
    k_cc, k_ch = gram.k_cc, gram.k_ch
    u = bootstrap_counts(rng, m, m, num_resamples)  # current resample, counts over cur
    v = bootstrap_counts(rng, n, m, num_resamples)  # null-treatment resample, over cur
    w = bootstrap_counts(rng, l, l, num_resamples)  # historical resample, over hist

    # One product per left factor, each freed before the next is made.
    cc_uu, cc_uv = _row_dots(u @ k_cc, u, v)
    cc_vv = batched_quad(k_cc, v, v)
    ch_uw, ch_vw = _row_dots(w @ k_ch.T, u, v)

    d_cc = np.diag(k_cc)
    return _delta_from_sums(
        cc_vv, cc_uv + ch_vw, cc_uu, cc_uu + ch_uw, v @ d_cc, u @ d_cc, gram, estimator
    )


def partial_bootstrap_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    statistic = delta_statistic(gram, cfg.estimator)
    rng = np.random.default_rng(cfg.seed)
    draws = partial_bootstrap_draws(gram, cfg.num_resamples, rng, cfg.estimator)
    critical = inf_quantile(draws, 1.0 - cfg.alpha)
    return _outcome(statistic, critical, Method.PARTIAL_BOOTSTRAP)


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
    k_xh = gram.matrix[:, gram.historical_slice]
    hrow = np.concatenate([k_xh[:m].sum(axis=1), k_xh[big:].sum(axis=1)])

    masks = permutation_masks(rng, m + n, m, num_resamples)  # 1 = permuted-current
    cc, ct, tt, d_c, d_t = _mask_sums(k_ct, masks)
    ch = masks @ hrow
    th = hrow.sum() - ch

    within_f = cc + 2.0 * ch + gram.k_hh.sum()
    diag_f = d_c + gram.k_hh.trace()
    return mmd2_from_sums(within_f, tt, ct + th, diag_f, d_t, big, n, estimator)


def partial_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    statistic = t_statistic(gram, cfg.estimator)
    rng = np.random.default_rng(cfg.seed)
    perm = partial_permutation_draws(gram, cfg.num_resamples, rng, cfg.estimator)
    reference = np.concatenate([[statistic], perm])
    critical = inf_quantile(reference, 1.0 - cfg.alpha)
    return _outcome(statistic, critical, Method.PARTIAL_PERMUTATION)


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


def normal_scale(gram: GramCache) -> float:
    """Standard deviation sqrt(4(1 + 1/c1) sigma_c^2) of Delta's limiting normal law.

    The factor 4 comes from the limiting law of Delta; c1 = m/n.
    """
    return np.sqrt(4.0 * (1.0 + gram.n / gram.m) * estimate_sigma_c_squared(gram))


def normal_approx_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Delta against the (1 - alpha)-quantile of N(0, 4(1 + 1/c1) sigma_c^2)."""
    statistic = delta_statistic(gram, cfg.estimator)
    critical = float(norm.ppf(1.0 - cfg.alpha) * normal_scale(gram))
    return _outcome(statistic, critical, Method.NORMAL_APPROX)


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


# Each merged-branch method's statistic and reference law, for the null study.
# Both look up this module's functions at call time, so a wrapper bound over one
# of them after import still sees the call.


def statistic_for(method: Method):
    """The observed statistic ``method`` tests: T for partial permutation, else Delta."""
    return t_statistic if method is Method.PARTIAL_PERMUTATION else delta_statistic


def reference_draws(gram: GramCache, method: Method, num_resamples: int, rng, estimator):
    """``num_resamples`` draws from the law ``method`` compares its statistic with."""
    if method is Method.PARTIAL_BOOTSTRAP:
        return partial_bootstrap_draws(gram, num_resamples, rng, estimator)
    if method is Method.PARTIAL_PERMUTATION:
        return partial_permutation_draws(gram, num_resamples, rng, estimator)
    return normal_scale(gram) * rng.standard_normal(num_resamples)


def consistency_diagnostics(gram: GramCache) -> DiagnosticsReport:
    """Conservative sufficient-consistency check: 2(1 - gamma) D(Qc, Qh) < D(Qc, Qt)."""
    d_ch = mmd2_slices(gram, gram.current_slice, gram.historical_slice).root
    d_ct = mmd2_slices(gram, gram.current_slice, gram.treatment_slice).root
    gamma = gram.m / (gram.m + gram.l)
    lam = gram.n / (gram.m + gram.n)
    return DiagnosticsReport(
        d_hat_ch=d_ch,
        d_hat_ct=d_ct,
        gamma=gamma,
        lam=lam,
        sufficient_consistency=bool(2.0 * (1.0 - gamma) * d_ch < d_ct),
    )
