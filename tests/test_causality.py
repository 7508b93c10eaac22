"""Causality tests: resampling oracles, variance oracle, decision layer."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import norm

from conftest import ALL_FAMILIES, oracle_kernel, ulps
from ttpool.causality import (
    CausalityConfig,
    Method,
    consistency_diagnostics,
    delta_statistic,
    estimate_sigma_c_squared,
    normal_scale,
    partial_bootstrap_draws,
    partial_permutation_draws,
    permutation_two_sample_stats,
    pooled_permutation_test,
    run_causality,
    standard_permutation_test,
    two_sample_permutation,
)
from ttpool.errors import ConfigError, SampleTooSmall
from ttpool.estimators import (
    PRODUCT_ROWS,
    Counts,
    Estimator,
    Masks,
    batched_quad,
    bootstrap_counts,
    mmd2,
    mmd2_from_sums,
    permutation_masks,
    resample_weights,
)
from ttpool.fusion import FusionConfig, FusionMode, classic_fusion, equivalence_fusion
from ttpool.kernels import Arm, KernelFamily, KernelSpec, Sample, build_gram, kernel_matrix
from ttpool.quantile import monte_carlo
from ttpool import causality
from ttpool.simulate import MeanShift, Scenario, draw_arms, null_study_sweep


def fused_mmd2(gram, current, historical, other, estimator=Estimator.VSTAT):
    """D^2 between the fused control current || historical and ``other``, gathered."""
    return mmd2(gram, np.concatenate([current, historical]), other, estimator).squared


def make_gram(rng, m=12, l=15, n=14, shift_h=0.0, shift_t=0.0, spec=None):
    return build_gram(
        spec or KernelSpec(),
        Sample(rng.normal(size=(m, 1)), Arm.CURRENT),
        Sample(shift_h + rng.normal(size=(l, 1)), Arm.HISTORICAL),
        Sample(shift_t + rng.normal(size=(n, 1)), Arm.TREATMENT),
    )


class TestDecisionLayer:
    def test_shared_rule(self):
        # The 0.75-quantile of the draws is 0.5; a tie with it does not reject.
        draws = np.array([0.6, 0.2, 0.5, 0.4])
        assert monte_carlo(1.0, draws, 0.25, observed_joins=False) == (0.5, 0.0, True)
        assert monte_carlo(0.5, draws, 0.25, observed_joins=False) == (0.5, 0.5, False)
        assert monte_carlo(0.4, draws, 0.25, observed_joins=False) == (0.5, 0.75, False)

    def test_empty_reference_is_a_config_error(self, rng):
        # The partial bootstrap's reference set is its draws alone.
        with pytest.raises(ConfigError, match="empty reference set"):
            run_causality(
                make_gram(rng),
                CausalityConfig(method=Method.PARTIAL_BOOTSTRAP, num_resamples=0, seed=1),
            )
        with pytest.raises(ConfigError, match="empty reference set"):
            monte_carlo(0.0, np.empty(0), 0.05, observed_joins=False)

    def test_outcomes_follow_rule(self, rng):
        gram = make_gram(rng, shift_t=1.5)
        for method in Method:
            cfg = CausalityConfig(method=method, num_resamples=100, seed=5)
            out = run_causality(gram, cfg)
            assert out.reject == (out.statistic > out.critical_value)
            assert out.method is method


class TestDecisionIdentity:
    """reject <=> p <= alpha, on whole numbers.

    With N reference values, c of them at or above the statistic and
    k = ceil((1 - alpha) N), a test rejects iff c <= N - k.  ``Fraction``
    makes k exact.
    """

    ALPHAS = (0.025, 0.05, 0.1)

    def check(self, reject, p_value, size, alpha):
        count = round(p_value * size)
        assert p_value == count / size
        k = math.ceil((1 - Fraction(str(alpha))) * size)
        assert reject == (count <= size - k)
        assert reject == (p_value <= alpha)

    @pytest.mark.parametrize("joins", [False, True])
    def test_monte_carlo_at_every_count(self, joins):
        for b in (199, 300):
            draws = np.random.default_rng(b).permutation(b).astype(float)
            # Every count from 0 to N, each on a tie with a draw and in a gap.
            for statistic in np.arange(-0.5, b + 0.5, 0.5):
                for alpha in self.ALPHAS:
                    _, p_value, reject = monte_carlo(statistic, draws, alpha, joins)
                    self.check(reject, p_value, b + joins, alpha)

    @pytest.mark.parametrize("b", [199, 300, 1000])
    def test_campaign_every_method_both_fusions(self, b):
        seen = {"reject": set(), "equivalence": set(), "classic": set()}
        for rep, shift in enumerate((0.0, 0.3, 0.6, 1.5)):
            scn = Scenario(MeanShift(mu_c_minus_mu_t=shift, mu_h_minus_mu_c=shift), 25, 20, 30)
            gram = build_gram(KernelSpec(), *draw_arms(scn, rep))
            for alpha in self.ALPHAS:
                cfg = CausalityConfig(alpha=alpha, num_resamples=b, seed=rep)
                partial_permutation = dataclasses.replace(cfg, method=Method.PARTIAL_PERMUTATION)
                permutation = (
                    standard_permutation_test(gram, cfg),
                    pooled_permutation_test(gram, cfg),
                    run_causality(gram, partial_permutation),
                )
                for out in permutation:
                    self.check(out.reject, out.p_value, b + 1, alpha)
                    seen["reject"].add(out.reject)
                out = run_causality(gram, dataclasses.replace(cfg, method=Method.PARTIAL_BOOTSTRAP))
                self.check(out.reject, out.p_value, b, alpha)
                # The normal p-value (erfc) and critical value (inv_cdf) are two
                # approximations, which may round apart at the critical value.
                out = run_causality(gram, dataclasses.replace(cfg, method=Method.NORMAL_APPROX))
                if abs(out.statistic - out.critical_value) > 1e-9:
                    assert out.reject == (out.p_value <= alpha)
                # At theta = 0.6 these arms merge in some cells and not in others.
                fusion = FusionConfig(theta=0.6, alpha_f=alpha, num_bootstrap=b, seed=rep)
                out = equivalence_fusion(gram, fusion)
                self.check(out.merged, out.p_value, b, alpha)
                assert out.merged == (out.p_value <= alpha)
                seen["equivalence"].add(out.merged)
                classic = dataclasses.replace(fusion, mode=FusionMode.CLASSIC_PERMUTATION)
                out = classic_fusion(gram, classic)
                self.check(not out.merged, out.p_value, b + 1, alpha)
                assert out.merged == (out.p_value > alpha)
                seen["classic"].add(out.merged)
        assert all(flags == {False, True} for flags in seen.values())


class TestDeltaStatistic:
    def test_zero_when_treatment_equals_current(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 1))
        gram = build_gram(
            KernelSpec(),
            Sample(pts, Arm.CURRENT),
            Sample(rng.normal(size=(8, 1)) + 1.0, Arm.HISTORICAL),
            Sample(pts, Arm.TREATMENT),
        )
        assert delta_statistic(gram) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        gram = make_gram(rng, shift_t=0.7)
        want = np.sqrt(gram.n) * (
            fused_mmd2(gram, gram.current, gram.historical, gram.treatment)
            - fused_mmd2(gram, gram.current, gram.historical, gram.current)
        )
        assert delta_statistic(gram) == pytest.approx(want, abs=1e-12)


class TestStandardPermutation:
    def test_identical_multisets_do_not_reject(self):
        pts = np.arange(8.0).reshape(-1, 1)
        gram = build_gram(
            KernelSpec(),
            Sample(pts, Arm.CURRENT),
            Sample(pts + 1, Arm.HISTORICAL),
            Sample(pts, Arm.TREATMENT),
        )
        out = standard_permutation_test(gram, CausalityConfig(seed=0, num_resamples=50))
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert not out.reject
        assert not out.merged_analysis

    def test_uses_two_arm_bandwidth_matrix(self, rng):
        gram = make_gram(rng, shift_h=5.0)
        out = standard_permutation_test(gram, CausalityConfig(seed=0, num_resamples=10))
        want = mmd2(
            gram.matrix_nomerge, np.arange(gram.m), np.arange(gram.m, gram.m + gram.n)
        ).squared
        assert out.statistic == pytest.approx(want, abs=1e-15)

    def test_power_under_large_shift(self):
        rejects = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(5000 + rep)
            gram = build_gram(
                KernelSpec(),
                Sample(rng.normal(size=(50, 1)), Arm.CURRENT),
                Sample(rng.normal(size=(10, 1)), Arm.HISTORICAL),
                Sample(0.8 + rng.normal(size=(100, 1)), Arm.TREATMENT),
            )
            cfg = CausalityConfig(num_resamples=200, seed=rep)
            rejects += standard_permutation_test(gram, cfg).reject
        assert rejects / reps >= 0.5


class TestResamplingScratch:
    """A permutation test's scratch is a few product blocks, not B x N float copies."""

    def test_two_sample_permutation_scratch_is_bounded(self):
        size_a, size_b, batch = 400, 600, 1000
        total = size_a + size_b
        pts = np.random.default_rng(7).normal(size=(total, 1))
        k = kernel_matrix(KernelSpec(), 1.0, pts, pts)
        # Two float64 product blocks (a block of mask rows and its product),
        # the bool masks, and 1 MiB for the mask blocks' uniforms and the rest.
        bound = 2 * PRODUCT_ROWS * total * 8 + batch * total + (1 << 20)
        tracemalloc.start()
        try:
            two_sample_permutation(k, size_a, size_b, 0.05, batch, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


class TestPooledPermutation:
    def test_fused_control_vs_treatment_on_three_arm_matrix(self, rng):
        gram = make_gram(rng, shift_h=0.5, shift_t=0.4)
        out = pooled_permutation_test(gram, CausalityConfig(seed=3, num_resamples=50))
        fused = np.concatenate([gram.current, gram.historical])
        want = mmd2(gram.matrix, fused, gram.treatment).squared
        assert out.statistic == pytest.approx(want, abs=1e-15)
        assert out.reject == (out.statistic > out.critical_value) == (out.p_value <= 0.05)
        assert out.merged_analysis


class TestPartialBootstrapOracle:
    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    def test_batched_draws_match_index_multiset_recomputation(self, rng, estimator):
        gram = make_gram(rng, shift_h=0.6, shift_t=0.4)
        m, l, n = gram.m, gram.l, gram.n
        batch = 20
        seed = 77

        got = partial_bootstrap_draws(
            gram, batch, np.random.default_rng(seed), estimator
        )

        # Replay the identical count draws, then recompute each Delta*
        # through the index-multiset estimators.
        rng2 = np.random.default_rng(seed)
        u = bootstrap_counts(rng2, m, m, batch)
        v = bootstrap_counts(rng2, n, m, batch)
        w = bootstrap_counts(rng2, l, l, batch)
        for b in range(batch):
            c_b = np.repeat(gram.current, u[b].astype(int))
            t_b = np.repeat(gram.current, v[b].astype(int))
            h_b = np.repeat(gram.historical, w[b].astype(int))
            t_full = fused_mmd2(gram, c_b, h_b, t_b, estimator)
            t_center = fused_mmd2(gram, c_b, h_b, c_b, estimator)
            want = np.sqrt(n) * (t_full - t_center)
            assert got[b] == pytest.approx(want, abs=1e-10)

    def test_deterministic_given_seed(self, rng):
        gram = make_gram(rng)
        cfg = CausalityConfig(method=Method.PARTIAL_BOOTSTRAP, num_resamples=100, seed=9)
        assert run_causality(gram, cfg) == run_causality(gram, cfg)

    def test_merged_analysis_flag(self, rng):
        gram = make_gram(rng)
        cfg = CausalityConfig(method=Method.PARTIAL_BOOTSTRAP, num_resamples=50, seed=0)
        out = run_causality(gram, cfg)
        assert out.merged_analysis


class TestPartialPermutationOracle:
    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    def test_batched_draws_match_index_recomputation(self, rng, estimator):
        gram = make_gram(rng, shift_h=0.6, shift_t=0.4)
        batch = 20
        seed = 78

        got = partial_permutation_draws(
            gram, batch, np.random.default_rng(seed), estimator
        )

        rng2 = np.random.default_rng(seed)
        pos_ct = np.concatenate([gram.current, gram.treatment])
        masks = permutation_masks(rng2, gram.m + gram.n, gram.m, batch)
        for b in range(batch):
            perm_c = pos_ct[masks[b] == 1.0]
            perm_t = pos_ct[masks[b] == 0.0]
            want = fused_mmd2(gram, perm_c, gram.historical, perm_t, estimator)
            assert got[b] == pytest.approx(want, abs=1e-10)

    def test_observed_statistic_in_reference(self, rng):
        # B+1 convention: with zero resamples the critical value equals
        # the observed statistic and the test cannot reject.
        gram = make_gram(rng, shift_t=2.0)
        cfg = CausalityConfig(
            method=Method.PARTIAL_PERMUTATION, num_resamples=0, seed=0
        )
        out = run_causality(gram, cfg)
        assert out.critical_value == out.statistic
        assert out.p_value == 1.0
        assert not out.reject

    def test_statistic_is_fused_mmd(self, rng):
        gram = make_gram(rng, shift_t=0.5)
        cfg = CausalityConfig(method=Method.PARTIAL_PERMUTATION, num_resamples=20, seed=0)
        out = run_causality(gram, cfg)
        want = fused_mmd2(gram, gram.current, gram.historical, gram.treatment)
        assert out.statistic == pytest.approx(want, abs=1e-15)


def _complement_two_sample_stats(k, masks, size_a, size_b, estimator):
    """The permutation statistics written with the complement mask ``1 - masks``."""
    rowsum = masks @ k
    s_aa = np.einsum("bq,bq->b", rowsum, masks)
    s_ab = np.einsum("bq,bq->b", rowsum, 1.0 - masks)
    s_bb = k.sum() - s_aa - 2.0 * s_ab
    cross = -2.0 * s_ab / (size_a * size_b)
    if estimator is Estimator.USTAT:
        diag = np.diag(k)
        d_a = masks @ diag
        d_b = diag.sum() - d_a
        return (
            (s_aa - d_a) / (size_a * (size_a - 1))
            + (s_bb - d_b) / (size_b * (size_b - 1))
            + cross
        )
    return s_aa / size_a**2 + s_bb / size_b**2 + cross


def _complement_partial_permutation_draws(gram, masks, estimator):
    """Partial-permutation draws written with the complement mask ``1 - masks``."""
    m, l, n = gram.m, gram.l, gram.n
    big = m + l
    pos_ct = np.concatenate([gram.current, gram.treatment])
    k_ct = gram.matrix[np.ix_(pos_ct, pos_ct)]
    hrow = gram.matrix[np.ix_(pos_ct, gram.historical)].sum(axis=1)
    rowsum = masks @ k_ct
    cc = np.einsum("bq,bq->b", rowsum, masks)
    ct = np.einsum("bq,bq->b", rowsum, 1.0 - masks)
    tt = k_ct.sum() - cc - 2.0 * ct
    ch = masks @ hrow
    within_f = cc + 2.0 * ch + gram.k_hh.sum()
    within_t = tt
    if estimator is Estimator.USTAT:
        d_ct = np.diag(k_ct)
        within_f = (within_f - masks @ d_ct - np.trace(gram.k_hh)) / (big * (big - 1))
        within_t = (within_t - (1.0 - masks) @ d_ct) / (n * (n - 1))
    else:
        within_f = within_f / big**2
        within_t = within_t / n**2
    return within_f + within_t - 2.0 * (ct + hrow.sum() - ch) / (big * n)


def assert_close_to_scale(got, want, rel=1e-12):
    """Agreement within ``rel`` of the largest |draw|: draws near zero are
    differences of O(1) kernel sums, so only their absolute error is bounded."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


class TestMaskSums:
    """The cross sum taken as row total minus within sum agrees with ``1 - masks``."""

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("sizes", [(12, 15, 14), (50, 100, 100), (3, 2, 40)])
    def test_two_sample_stats_match_complement_formula(self, estimator, sizes):
        rng = np.random.default_rng(sum(sizes))
        gram = make_gram(rng, *sizes, shift_h=0.3, shift_t=0.5)
        size_a, size_b = gram.m + gram.l, gram.n
        masks = permutation_masks(rng, size_a + size_b, size_a, 300)
        got = permutation_two_sample_stats(gram.matrix, masks, size_a, size_b, estimator)
        want = _complement_two_sample_stats(gram.matrix, masks, size_a, size_b, estimator)
        assert_close_to_scale(got, want)

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("sizes", [(12, 15, 14), (50, 100, 100), (3, 2, 40)])
    def test_partial_permutation_draws_match_complement_formula(self, estimator, sizes):
        gram = make_gram(np.random.default_rng(sum(sizes)), *sizes, shift_h=0.6)
        got = partial_permutation_draws(gram, 300, np.random.default_rng(9), estimator)
        masks = permutation_masks(np.random.default_rng(9), gram.m + gram.n, gram.m, 300)
        want = _complement_partial_permutation_draws(gram, masks, estimator)
        assert_close_to_scale(got, want)


def _gather_mmd2(k, a, b, estimator):
    """Squared MMD of index arrays ``a`` and ``b``, each block gathered through ``np.ix_``."""
    s_aa, s_bb, s_ab = k[np.ix_(a, a)].sum(), k[np.ix_(b, b)].sum(), k[np.ix_(a, b)].sum()
    if estimator is Estimator.USTAT:
        s_aa -= k[a, a].sum()
        s_bb -= k[b, b].sum()
        norm_a, norm_b = a.size * (a.size - 1), b.size * (b.size - 1)
    else:
        norm_a, norm_b = a.size**2, b.size**2
    return s_aa / norm_a + s_bb / norm_b - 2.0 * s_ab / (a.size * b.size)


class TestBlockSums:
    """Observed statistics summed over views equal the ``np.ix_`` gather of their blocks."""

    @staticmethod
    def _gram(family, sizes):
        rng = np.random.default_rng([ALL_FAMILIES.index(family), *sizes])
        epsilon = 0.5 if family is KernelFamily.LINEAR_PLUS_RBF else 0.0
        spec = KernelSpec(family=family, epsilon=epsilon)
        m, l, n = sizes
        return build_gram(
            spec,
            Sample(1.0 + rng.normal(size=(m, 2)), Arm.CURRENT),
            Sample(1.3 + rng.normal(size=(l, 2)), Arm.HISTORICAL),
            Sample(1.6 + rng.normal(size=(n, 2)), Arm.TREATMENT),
        )

    @staticmethod
    def _atol(k, arms):
        """1e-12 of the largest |mean| over the arm blocks of ``k``."""
        return 1e-12 * max(abs(k[np.ix_(a, b)].mean()) for a in arms for b in arms)

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 7, 5), (40, 25, 60)])
    def test_statistics_match_gather_reference(self, estimator, family, sizes):
        gram = self._gram(family, sizes)
        k, cur, hist, trt = gram.matrix, gram.current, gram.historical, gram.treatment
        fused = np.concatenate([cur, hist])
        atol = self._atol(k, (cur, hist, trt))
        cfg = CausalityConfig(num_resamples=20, seed=1, estimator=estimator)

        want_delta = np.sqrt(gram.n) * (
            _gather_mmd2(k, fused, trt, estimator) - _gather_mmd2(k, fused, cur, estimator)
        )
        assert abs(delta_statistic(gram, estimator) - want_delta) <= np.sqrt(gram.n) * atol
        want_t = _gather_mmd2(k, fused, trt, estimator)
        partial_permutation = dataclasses.replace(cfg, method=Method.PARTIAL_PERMUTATION)
        assert abs(run_causality(gram, partial_permutation).statistic - want_t) <= atol
        assert abs(pooled_permutation_test(gram, cfg).statistic - want_t) <= atol

        k2 = gram.matrix_nomerge
        cur2, trt2 = np.arange(gram.m), np.arange(gram.m, gram.m + gram.n)
        want_std = _gather_mmd2(k2, cur2, trt2, estimator)
        got_std = standard_permutation_test(gram, cfg).statistic
        assert abs(got_std - want_std) <= self._atol(k2, (cur2, trt2))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 2), (3, 7, 5), (40, 25, 60)])
    def test_vstat_roots_match_gather_reference(self, family, sizes):
        gram = self._gram(family, sizes)
        k, cur, hist, trt = gram.matrix, gram.current, gram.historical, gram.treatment
        atol = self._atol(k, (cur, hist, trt))
        d2_ch = _gather_mmd2(k, cur, hist, Estimator.VSTAT)
        d2_ct = _gather_mmd2(k, cur, trt, Estimator.VSTAT)
        diag = consistency_diagnostics(gram)
        assert abs(diag.d_hat_ch**2 - max(d2_ch, 0.0)) <= atol
        assert abs(diag.d_hat_ct**2 - max(d2_ct, 0.0)) <= atol
        if gram.m >= 2 and gram.l >= 2:
            cfg = FusionConfig(theta=0.4, num_bootstrap=10, seed=1)
            d_hat = cfg.theta - equivalence_fusion(gram, cfg).statistic
            assert abs(d_hat**2 - max(d2_ch, 0.0)) <= atol
        fused = np.concatenate([cur, hist])
        want_delta = np.sqrt(gram.n) * (
            _gather_mmd2(k, fused, trt, Estimator.VSTAT)
            - _gather_mmd2(k, fused, cur, Estimator.VSTAT)
        )
        assert abs(delta_statistic(gram) - want_delta) <= np.sqrt(gram.n) * atol


class TestSizeGuards:
    """The merged-branch tests refuse U-statistic arms of one point."""

    @pytest.mark.parametrize("sizes", [(1, 5, 5), (5, 5, 1), (5, 1, 5)])
    def test_ustat_single_point_arm_raises(self, rng, sizes):
        gram = make_gram(rng, *sizes)
        with pytest.raises(SampleTooSmall):
            delta_statistic(gram, Estimator.USTAT)
        for method in (Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX):
            cfg = CausalityConfig(method=method, estimator=Estimator.USTAT, num_resamples=10)
            with pytest.raises(SampleTooSmall):
                run_causality(gram, cfg)


def _six_quad_partial_bootstrap(gram, num_resamples, rng, estimator):
    """Partial-bootstrap draws with one ``batched_quad`` per quadratic form."""
    m, l, n = gram.m, gram.l, gram.n
    big = m + l
    k_cc, k_ch, k_hh = gram.k_cc, gram.k_ch, gram.k_hh
    u = bootstrap_counts(rng, m, m, num_resamples)
    v = bootstrap_counts(rng, n, m, num_resamples)
    w = bootstrap_counts(rng, l, l, num_resamples)
    cc_uu = batched_quad(k_cc, u, u)
    cc_vv = batched_quad(k_cc, v, v)
    cc_uv = batched_quad(k_cc, u, v)
    ch_uw = batched_quad(k_ch, u, w)
    ch_vw = batched_quad(k_ch, v, w)
    hh_ww = batched_quad(k_hh, w, w)
    within_f, within_t, within_c = cc_uu + 2.0 * ch_uw + hh_ww, cc_vv, cc_uu
    if estimator is Estimator.USTAT:
        d_cc, d_hh = np.diag(k_cc), np.diag(k_hh)
        within_f = (within_f - u @ d_cc - w @ d_hh) / (big * (big - 1))
        within_t = (within_t - v @ d_cc) / (n * (n - 1))
        within_c = (within_c - u @ d_cc) / (m * (m - 1))
    else:
        within_f, within_t, within_c = within_f / big**2, within_t / n**2, within_c / m**2
    t_full = within_f + within_t - 2.0 * (cc_uv + ch_vw) / (big * n)
    t_center = within_f + within_c - 2.0 * (cc_uu + ch_uw) / (big * m)
    return np.sqrt(n) * (t_full - t_center)


class TestSharedProducts:
    """The partial bootstrap's shared matrix products against one product per form."""

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("sizes", [(2, 2, 2), (12, 15, 14), (50, 100, 100), (30, 10, 80)])
    def test_draws_match_six_quad_reference(self, estimator, sizes):
        gram = make_gram(np.random.default_rng(sum(sizes)), *sizes, shift_h=0.4, shift_t=0.3)
        got = partial_bootstrap_draws(gram, 300, np.random.default_rng(4), estimator)
        want = _six_quad_partial_bootstrap(gram, 300, np.random.default_rng(4), estimator)
        assert_close_to_scale(got, want)

    def test_peak_memory_not_above_reference(self):
        gram = make_gram(np.random.default_rng(3), 50, 100, 100, shift_h=0.4)

        def peak(draws):
            tracemalloc.start()
            try:
                draws(gram, 1000, np.random.default_rng(4), Estimator.VSTAT)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Both peaks include small Python objects (plans, lists), not only
        # arrays, so a strict <= fails on a few hundred bytes of bookkeeping.
        # 4 KiB is half of one length-B float64 vector at B = 1000: any extra
        # B-sized array still fails the test.
        slack = 4096
        assert peak(partial_bootstrap_draws) <= peak(_six_quad_partial_bootstrap) + slack


def _diag_mask_sums(k, masks):
    """``_mask_sums`` that always computes the diagonal totals."""
    rowsum = masks @ k
    s_aa = np.einsum("bq,bq->b", rowsum, masks)
    s_ab = rowsum.sum(axis=1) - s_aa
    diag = np.diag(k)
    d_a = masks @ diag
    return s_aa, s_ab, k.sum() - s_aa - 2.0 * s_ab, d_a, diag.sum() - d_a


def _gather_partial_permutation_draws(gram, num_resamples, seed, estimator):
    """Partial-permutation draws over the ``np.ix_`` gather of current || treatment."""
    m, l, n = gram.m, gram.l, gram.n
    big = m + l
    pos_ct = np.concatenate([gram.current, gram.treatment])
    k_ct = gram.matrix[np.ix_(pos_ct, pos_ct)]
    k_xh = gram.matrix[:, gram.historical_slice]
    hrow = np.concatenate([k_xh[:m].sum(axis=1), k_xh[big:].sum(axis=1)])
    (masks,) = resample_weights(seed, num_resamples, Masks(m + n, m))
    cc, ct, tt, d_c, d_t = _diag_mask_sums(k_ct, masks)
    ch = masks @ hrow
    th = hrow.sum() - ch
    within_f = cc + 2.0 * ch + gram.k_hh.sum()
    diag_f = d_c + gram.k_hh.trace()
    return mmd2_from_sums(within_f, tt, ct + th, diag_f, d_t, big, n, estimator)


def _diag_partial_bootstrap_draws(gram, num_resamples, seed, estimator):
    """Partial-bootstrap draws that always compute the diagonal totals."""
    m, l, n = gram.m, gram.l, gram.n
    k_cc, k_ch = gram.k_cc, gram.k_ch
    u, v, w = resample_weights(seed, num_resamples, Counts(m, m), Counts(n, m), Counts(l, l))
    uk = u @ k_cc
    cc_uu, cc_uv = np.einsum("bq,bq->b", uk, u), np.einsum("bq,bq->b", uk, v)
    cc_vv = batched_quad(k_cc, v, v)
    wk = w @ k_ch.T
    ch_uw, ch_vw = np.einsum("bq,bq->b", wk, u), np.einsum("bq,bq->b", wk, v)
    d_cc = np.diag(k_cc)
    big = m + l
    t_full = mmd2_from_sums(0.0, cc_vv, cc_uv + ch_vw, 0.0, v @ d_cc, big, n, estimator)
    t_center = mmd2_from_sums(0.0, cc_uu, cc_uu + ch_uw, 0.0, u @ d_cc, big, m, estimator)
    return np.sqrt(n) * (t_full - t_center)


class TestExactSpeedups:
    """The copy from four views and the skipped V diagonal totals change no bit."""

    SIZES = [(50, 100, 100), (7, 12, 5)]

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_partial_permutation_equals_gather_construction(self, estimator, sizes):
        gram = make_gram(np.random.default_rng(sum(sizes)), *sizes, shift_h=0.4, shift_t=0.2)
        got = partial_permutation_draws(gram, 500, 12, estimator)
        want = _gather_partial_permutation_draws(gram, 500, 12, estimator)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_partial_bootstrap_equals_diagonal_formula(self, estimator, sizes):
        gram = make_gram(np.random.default_rng(sum(sizes)), *sizes, shift_h=0.4, shift_t=0.2)
        got = partial_bootstrap_draws(gram, 500, 13, estimator)
        want = _diag_partial_bootstrap_draws(gram, 500, 13, estimator)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_permutation_stats_equal_diagonal_formula(self, estimator, sizes):
        rng = np.random.default_rng(sum(sizes))
        gram = make_gram(rng, *sizes, shift_h=0.4, shift_t=0.2)
        size_a, size_b = gram.m, gram.n
        (masks,) = resample_weights(14, 500, Masks(size_a + size_b, size_a))
        k2 = gram.matrix_nomerge
        got = permutation_two_sample_stats(k2, masks, size_a, size_b, estimator)
        s_aa, s_ab, s_bb, d_a, d_b = _diag_mask_sums(k2, masks)
        want = mmd2_from_sums(s_aa, s_bb, s_ab, d_a, d_b, size_a, size_b, estimator)
        assert got.tobytes() == want.tobytes()

    def test_ustat_draws_subtract_the_diagonal_totals(self):
        # The same draws differ between the estimators only through the
        # diagonal totals and the normalisation, so U must not equal V.
        gram = make_gram(np.random.default_rng(5), 7, 12, 5)
        for draws in (partial_bootstrap_draws, partial_permutation_draws):
            v = draws(gram, 50, 3, Estimator.VSTAT)
            u = draws(gram, 50, 3, Estimator.USTAT)
            assert not np.allclose(u, v)


class TestDeltaSkipsHistoricalBlock:
    """Delta, its bootstrap draws and the normal approximation never read K_hh."""

    @pytest.mark.parametrize("estimator", [Estimator.VSTAT, Estimator.USTAT])
    def test_nan_historical_block_leaves_results_bitwise_equal(self, estimator):
        gram = make_gram(np.random.default_rng(8), shift_h=0.5, shift_t=0.3)
        matrix = gram.matrix.copy()
        matrix[gram.historical_slice, gram.historical_slice] = np.nan
        poisoned = dataclasses.replace(gram, matrix=matrix)

        def draws(g):
            return partial_bootstrap_draws(g, 50, np.random.default_rng(3), estimator)

        cfg = CausalityConfig(method=Method.NORMAL_APPROX, estimator=estimator)
        assert delta_statistic(poisoned, estimator) == delta_statistic(gram, estimator)
        assert draws(poisoned).tobytes() == draws(gram).tobytes()
        assert run_causality(poisoned, cfg) == run_causality(gram, cfg)


class TestNormalApprox:
    def test_sigma_matches_raw_point_oracle(self, rng):
        spec = KernelSpec()
        c = rng.normal(size=(10, 2))
        h = rng.normal(size=(12, 2)) + 0.5
        t = rng.normal(size=(9, 2))
        gram = build_gram(
            spec,
            Sample(c, Arm.CURRENT),
            Sample(h, Arm.HISTORICAL),
            Sample(t, Arm.TREATMENT),
        )
        bw = gram.bandwidth_pooled3
        m, l = len(c), len(h)
        g = []
        for i in range(m):
            hist_avg = sum(oracle_kernel(spec, bw, c[i], h[j]) for j in range(l)) / l
            loo = sum(
                oracle_kernel(spec, bw, c[i], c[j]) for j in range(m) if j != i
            ) / (m - 1)
            g.append(hist_avg - loo)
        gbar = sum(g) / m
        gamma = m / (m + l)
        want = (1 - gamma) ** 2 / (m - 1) * sum((gi - gbar) ** 2 for gi in g)
        assert estimate_sigma_c_squared(gram) == pytest.approx(want, abs=1e-12)

    def test_constant_rows_give_zero_variance(self):
        pts = np.array([[0.0], [4.0]])
        # Linear kernel in 1-D with symmetric current points: not needed;
        # instead use identical current points via a fixed-bandwidth RBF
        # (median heuristic would degenerate).
        gram = build_gram(
            KernelSpec(bandwidth=1.0),
            Sample(np.zeros((3, 1)), Arm.CURRENT),
            Sample(np.ones((3, 1)), Arm.HISTORICAL),
            Sample(pts, Arm.TREATMENT),
        )
        assert estimate_sigma_c_squared(gram) == pytest.approx(0.0, abs=1e-15)
        out = run_causality(gram, CausalityConfig(method=Method.NORMAL_APPROX))
        assert out.critical_value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05, 0.1, 0.2])
    def test_critical_value_formula(self, rng, alpha):
        gram = make_gram(rng)
        out = run_causality(gram, CausalityConfig(method=Method.NORMAL_APPROX, alpha=alpha))
        sigma2 = estimate_sigma_c_squared(gram)
        scale = normal_scale(gram)
        assert scale == pytest.approx(np.sqrt(4.0 * (1.0 + gram.n / gram.m) * sigma2), abs=1e-12)
        # The normal approximation takes its quantile from the standard library's
        # NormalDist, a few ulps from the norm.ppf of SciPy.
        assert out.critical_value == -NormalDist().inv_cdf(alpha) * scale
        assert ulps(out.critical_value, norm.ppf(1.0 - alpha) * scale) <= 8


class TestDiagnostics:
    def test_ratio_arithmetic(self, rng):
        gram = make_gram(rng, m=50, l=100, n=100)
        d = consistency_diagnostics(gram)
        assert d.gamma == pytest.approx(1 / 3, abs=1e-15)
        assert d.lam == pytest.approx(2 / 3, abs=1e-15)

    def test_equal_controls_gamma_half(self, rng):
        gram = make_gram(rng, m=20, l=20)
        assert consistency_diagnostics(gram).gamma == 0.5

    def test_identical_controls_satisfy_condition(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 1))
        gram = build_gram(
            KernelSpec(),
            Sample(pts, Arm.CURRENT),
            Sample(pts, Arm.HISTORICAL),
            Sample(pts + 1.0, Arm.TREATMENT),
        )
        d = consistency_diagnostics(gram)
        assert d.d_hat_ch == pytest.approx(0.0, abs=1e-7)
        assert d.d_hat_ct > 0
        assert d.sufficient_consistency


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            CausalityConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            CausalityConfig(alpha=1.5)

    def test_negative_resamples(self):
        with pytest.raises(ConfigError):
            CausalityConfig(num_resamples=-1)


LOOKED_UP = (
    "delta_statistic",
    "t_statistic",
    "partial_bootstrap_draws",
    "partial_permutation_draws",
    "estimate_sigma_c_squared",
)


def _counting(monkeypatch) -> dict:
    """Bind a counting wrapper over each of ``LOOKED_UP`` in ``causality``; its call counts."""
    calls = dict.fromkeys(LOOKED_UP, 0)

    def wrap(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in LOOKED_UP:
        monkeypatch.setattr(causality, name, wrap(name, getattr(causality, name)))
    return calls


def test_run_causality_looks_its_functions_up_at_call_time(monkeypatch, rng):
    # A wrapper bound after import, as a tracer binds its spans, sees every call.
    gram = make_gram(rng)
    calls = _counting(monkeypatch)
    for method in (Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX):
        run_causality(gram, CausalityConfig(num_resamples=20, method=method, seed=1))
    assert all(calls[name] > 0 for name in LOOKED_UP), calls


def test_null_study_looks_its_functions_up_at_call_time(monkeypatch):
    scn = Scenario(generator=MeanShift(0.0, 0.0), n=14, m=12, l=15, replicates=1)
    calls = _counting(monkeypatch)
    null_study_sweep([(scn, None)], probe_levels=(0.9,), ref_draws=5)
    assert all(calls[name] > 0 for name in LOOKED_UP), calls
