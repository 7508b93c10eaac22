"""Causality stage: test H0: Qc = Qt, with or without merged historical controls.

``run_causality`` runs the test that ``CausalityConfig.method`` names,
one of four ``Method`` members; the classic baseline has its own test:

* ``STANDARD_PERMUTATION`` (``standard_permutation_test``): classic
  two-sample permutation test of current vs treatment, ignoring
  historicals (no-merge branch).
* ``pooled_permutation_test``: the naive-pooling test of classic TTP
  (Viele et al., 2014, Pharm. Stat. 13:41): the same two-sample
  permutation test with the fused control (current || historical) in
  place of the current arm.  It treats the merged historicals as
  concurrent controls, so it does not hold its level when Qh != Qc.
* ``PARTIAL_BOOTSTRAP``: statistic Delta = sqrt(n)(D^2(Qf, Qt) -
  D^2(Qf, Qc)); reference draws bootstrap both the null-treatment and
  the current-control resamples from the current control arm, and the
  historical resample separately.  It is meant to keep the null
  dependence structure when Qh != Qc, but there it rejects above its
  level: with every replicate merged at 100/50/100 (bandwidth 1, B =
  500, 3,000 replicates, alpha = 0.05) it rejected 0.035, 0.067, 0.100
  and 0.109 at historical shifts 0, 0.2, 0.35 and 0.5.
* ``PARTIAL_PERMUTATION``: statistic T = D^2(Qf, Qt); only the pooled
  current + treatment observations are permuted, historicals stay
  fixed as an ancillary sample.  Finite-sample valid.
* ``NORMAL_APPROX``: Delta against the (1 - alpha)-quantile of the
  plug-in limiting normal N(0, 4(1 + 1/c1) sigma_c^2).

Observed statistics are sums over views of the Gram cache: every arm,
and the fused control current || historical, is a contiguous range of
it, so no block is copied.  All resampling operates on weight vectors
over Gram positions; no kernel is re-evaluated inside the B-loop.
Each test takes its weights from ``estimators.resample_weights``, given
its seed and its draw plan, and decides through ``quantile.monte_carlo``
or ``quantile.normal_decision``, which give its p-value too.  All that
tells the last three, the merged-branch methods, apart is ``merged_record``.
The fused control's within-sample sum cancels in Delta, so Delta and its
bootstrap draws never compute it, nor read the historical-historical block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, SampleTooSmall
from .estimators import (
    Counts,
    Estimator,
    Masks,
    SharedSeed,
    batched_quad,
    block_total,
    mmd2_from_sums,
    mmd2_slices,
    product_row_dots,
    resample_weights,
)
from .kernels import GramCache
from .quantile import monte_carlo, normal_decision


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
    p_value: float
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


def _mask_sums(k: np.ndarray, masks: np.ndarray, estimator: Estimator) -> tuple[np.ndarray, ...]:
    """Within-a, cross and within-b sums of ``k`` for 0/1 group-a membership rows.

    Then come the within-a and within-b diagonal totals, which only the
    U-statistic reads; for the V-statistic they are not computed and are
    passed as zero.  The cross sum is each row total of ``masks @ k``
    minus its within-a part, so no complement mask array is built.
    ``product_row_dots`` makes the product in row blocks.  ``masks`` may
    be ``bool``; the diagonal totals convert them where they read them.
    """
    s_aa, total = product_row_dots(masks, k, masks, totals=True)
    s_ab = total - s_aa
    s_bb = k.sum() - s_aa - 2.0 * s_ab
    if estimator is not Estimator.USTAT:
        return s_aa, s_ab, s_bb, 0.0, 0.0
    diag = np.diag(k)
    d_a = masks.astype(float) @ diag
    return s_aa, s_ab, s_bb, d_a, diag.sum() - d_a


def permutation_two_sample_stats(
    k_pooled: np.ndarray,
    masks: np.ndarray,
    size_a: int,
    size_b: int,
    estimator: Estimator,
) -> np.ndarray:
    """Batched two-sample MMD^2 statistics for 0/1 group-a membership rows."""
    s_aa, s_ab, s_bb, d_a, d_b = _mask_sums(k_pooled, masks, estimator)
    return mmd2_from_sums(s_aa, s_bb, s_ab, d_a, d_b, size_a, size_b, estimator)


def permutation_plan(size_a: int, size_b: int) -> tuple:
    """The mask plan of a permutation test: ``size_a`` of the pooled points join group a."""
    return (Masks(size_a + size_b, size_a),)


def two_sample_permutation(
    k_pooled: np.ndarray,
    size_a: int,
    size_b: int,
    alpha: float,
    num_resamples: int,
    seed,
    estimator: Estimator = Estimator.VSTAT,
) -> tuple[float, float, float, bool]:
    """Permutation test over a pooled matrix whose first ``size_a`` rows are group a.

    The masks come from ``seed``, and the observed statistic joins the
    reference set (B+1 convention).  Returns the statistic, then the
    critical value, p-value and decision of ``quantile.monte_carlo``.
    """
    a, b = slice(0, size_a), slice(size_a, size_a + size_b)
    statistic = mmd2_slices(k_pooled, a, b, estimator).squared
    (masks,) = resample_weights(seed, num_resamples, *permutation_plan(size_a, size_b))
    perm = permutation_two_sample_stats(k_pooled, masks, size_a, size_b, estimator)
    return (statistic, *monte_carlo(statistic, perm, alpha, observed_joins=True))


def _two_sample_test(
    k_pooled: np.ndarray, size_a: int, size_b: int, cfg: CausalityConfig, merged_analysis: bool
) -> CausalityOutcome:
    _check_sizes(cfg.estimator, "a two-sample permutation test", size_a, size_b)
    statistic, *decision = two_sample_permutation(
        k_pooled, size_a, size_b, cfg.alpha, cfg.num_resamples, cfg.seed, cfg.estimator
    )
    return CausalityOutcome(statistic, *decision, Method.STANDARD_PERMUTATION, merged_analysis)


def standard_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Two-sample test of current vs treatment on the two-arm-bandwidth matrix.

    With a ``SharedSeed`` ``cfg.seed`` the outcome is kept in its store
    (``SharedSeed.kept``), keyed by all the test reads: the seed's mask
    draw, B, α, the estimator, the kernel and the current and treatment
    points.  So the cells of a campaign replicate that share those run it
    once, as the no-borrowing test or as a compare method, whatever their
    historical arm or fusion settings; the later cells neither build the
    two-arm Gram nor draw the masks.  Any other seed runs the test.
    """
    m, n = gram.m, gram.n

    def run() -> CausalityOutcome:
        return _two_sample_test(gram.matrix_nomerge, m, n, cfg, merged_analysis=False)

    if not isinstance(cfg.seed, SharedSeed):
        return run()
    arms = (gram.points[:m], gram.points[m + gram.l :])
    reads = (Method.STANDARD_PERMUTATION, cfg.alpha, cfg.estimator, gram.kernel)
    reads += tuple((arm.dtype.str, arm.shape, arm.tobytes()) for arm in arms)
    return cfg.seed.kept(run, cfg.num_resamples, permutation_plan(m, n), *reads)


def pooled_permutation_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """Naive pooling: fused control (current || historical) vs treatment.

    Permutation test on the three-arm-bandwidth matrix; the merged
    historicals are exchanged with treatment as if they were concurrent.
    Its outcome names ``Method.STANDARD_PERMUTATION`` with
    ``merged_analysis`` set, as a classic-mode merge's report shows it.
    """
    return _two_sample_test(gram.matrix, gram.m + gram.l, gram.n, cfg, merged_analysis=True)


# ---------------------------------------------------------------------------
# Partial bootstrap.
# ---------------------------------------------------------------------------


def partial_bootstrap_plan(m: int, l: int, n: int) -> tuple:
    """The count plan of the partial bootstrap, in draw order.

    m and n picks from the current arm (the current and the null-treatment
    resample), then l picks from the historical arm.
    """
    return Counts(m, m), Counts(n, m), Counts(l, l)


def partial_bootstrap_draws(
    gram: GramCache,
    num_resamples: int,
    seed,
    estimator: Estimator = Estimator.VSTAT,
) -> np.ndarray:
    """Reference draws Delta*_b of the partial bootstrap, with counts from ``seed``.

    Per draw: m and n index draws with replacement from the current arm
    (Q_{c,b}, Q_{t,b}), l draws from the historical arm (Q_{h,b});
    Delta* = sqrt(n)(D^2(Q_{f,b}, Q_{t,b}) - D^2(Q_{f,b}, Q_{c,b})).
    The fused within sum, which holds w' K_hh w, cancels, so K_hh is not
    read; the historical counts enter only the cross sums.
    """
    m, l, n = gram.m, gram.l, gram.n
    k_cc, k_ch = gram.k_cc, gram.k_ch
    # u: the current resample and v: the null-treatment resample, both counts
    # over the current arm; w: the historical resample, over the historical arm.
    u, v, w = resample_weights(seed, num_resamples, *partial_bootstrap_plan(m, l, n))

    # One product per left factor, reduced block by block.
    cc_uu, cc_uv = product_row_dots(u, k_cc, u, v)
    cc_vv = batched_quad(k_cc, v, v)
    ch_uw, ch_vw = product_row_dots(w, k_ch.T, u, v)

    diag_t = diag_c = 0.0  # the V-statistic does not read the diagonal totals
    if estimator is Estimator.USTAT:
        d_cc = np.diag(k_cc)
        diag_t, diag_c = v.astype(float) @ d_cc, u.astype(float) @ d_cc
    return _delta_from_sums(
        cc_vv, cc_uv + ch_vw, cc_uu, cc_uu + ch_uw, diag_t, diag_c, gram, estimator
    )


# ---------------------------------------------------------------------------
# Partial permutation.
# ---------------------------------------------------------------------------


def partial_permutation_draws(
    gram: GramCache,
    num_resamples: int,
    seed,
    estimator: Estimator = Estimator.VSTAT,
) -> np.ndarray:
    """Reference draws T^b: permute pooled current + treatment, historicals fixed.

    The masks come from ``seed``.  The current || treatment block is
    copied from its four contiguous views into one array; an ``np.ix_``
    gather of the same block is several times slower.
    """
    m, l, n = gram.m, gram.l, gram.n
    big = m + l
    k, c, t = gram.matrix, gram.current_slice, gram.treatment_slice
    k_ct = np.empty((m + n, m + n))
    k_ct[:m, :m], k_ct[:m, m:] = k[c, c], k[c, t]
    k_ct[m:, :m], k_ct[m:, m:] = k[t, c], k[t, t]
    k_xh = k[:, gram.historical_slice]
    hrow = np.concatenate([k_xh[:m].sum(axis=1), k_xh[big:].sum(axis=1)])

    (masks,) = resample_weights(seed, num_resamples, *permutation_plan(m, n))  # 1 = permuted-current
    cc, ct, tt, d_c, d_t = _mask_sums(k_ct, masks, estimator)
    ch = masks.astype(float) @ hrow
    th = hrow.sum() - ch

    within_f = cc + 2.0 * ch + gram.k_hh.sum()
    diag_f = d_c + gram.k_hh.trace()
    return mmd2_from_sums(within_f, tt, ct + th, diag_f, d_t, big, n, estimator)


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


def normal_draws(gram: GramCache, num_resamples: int, seed, estimator=None) -> np.ndarray:
    """Draws of Delta's limiting normal law from ``seed``, which the null study reads."""
    return normal_scale(gram) * np.random.default_rng(seed).standard_normal(num_resamples)


class MergedMethod(NamedTuple):
    statistic: Callable  # (gram, estimator) -> Delta or T
    draws: Callable  # (gram, num_resamples, seed, estimator) -> reference draws
    observed_joins: Optional[bool]  # None: the test decides against the normal law
    plan: Optional[Callable]  # (m, l, n) -> the count plan the draws read, if any


def merged_record(method: Method) -> Optional[MergedMethod]:
    """``method``'s record, or ``None`` if it has none (the standard permutation).

    All that tells the merged-branch methods apart.  It is built from this
    module's functions at each call, so a wrapper bound over one of them
    after import still sees the call.
    """
    if method is Method.PARTIAL_BOOTSTRAP:
        return MergedMethod(delta_statistic, partial_bootstrap_draws, False, partial_bootstrap_plan)
    if method is Method.PARTIAL_PERMUTATION:
        return MergedMethod(t_statistic, partial_permutation_draws, True, None)
    if method is Method.NORMAL_APPROX:
        return MergedMethod(delta_statistic, normal_draws, None, None)
    return None


MERGED_METHODS = tuple(method for method in Method if merged_record(method))


def run_causality(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """``cfg.method``'s test: its statistic against its reference draws or normal law."""
    record = merged_record(cfg.method)
    if record is None:
        return standard_permutation_test(gram, cfg)
    statistic = record.statistic(gram, cfg.estimator)
    if record.observed_joins is None:
        decision = normal_decision(statistic, normal_scale(gram), cfg.alpha)
    else:
        draws = record.draws(gram, cfg.num_resamples, cfg.seed, cfg.estimator)
        decision = monte_carlo(statistic, draws, cfg.alpha, observed_joins=record.observed_joins)
    return CausalityOutcome(float(statistic), *decision, cfg.method, merged_analysis=True)


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
