"""Equivalence and classic fusion tests."""

import numpy as np
import pytest

from ttpool.errors import ConfigError
from ttpool.estimators import bootstrap_counts, mmd2_v
from ttpool.fusion import (
    FusionConfig,
    FusionMode,
    _bootstrap_root_terms,
    classic_fusion,
    equivalence_fusion,
)
from ttpool.kernels import Arm, KernelSpec, Sample, build_gram


def make_gram(rng, m=20, l=25, n=30, shift_h=0.0, shift_t=0.0, spec=None):
    return build_gram(
        spec or KernelSpec(),
        Sample(rng.normal(size=(m, 1)), Arm.CURRENT),
        Sample(shift_h + rng.normal(size=(l, 1)), Arm.HISTORICAL),
        Sample(shift_t + rng.normal(size=(n, 1)), Arm.TREATMENT),
    )


class TestFusionConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            FusionConfig(alpha_f=0.0)
        with pytest.raises(ConfigError):
            FusionConfig(alpha_f=1.0)

    def test_negative_theta_rejected_in_equivalence_mode(self):
        with pytest.raises(ConfigError):
            FusionConfig(theta=-0.1)
        FusionConfig(theta=-0.1, mode=FusionMode.CLASSIC_PERMUTATION)

    def test_equivalence_needs_bootstrap_draws(self):
        with pytest.raises(ConfigError):
            FusionConfig(num_bootstrap=0)
        FusionConfig(num_bootstrap=0, mode=FusionMode.CLASSIC_PERMUTATION)


class TestBootstrapWeights:
    def test_weights_sum_to_sample_size(self, rng):
        w = bootstrap_counts(rng, draws=17, size=17, batch=40)
        assert np.array_equal(w.sum(axis=1), np.full(40, 17.0))

    def test_root_terms_nonnegative(self, rng):
        gram = make_gram(rng)
        w = bootstrap_counts(rng, gram.m, gram.m, 200)
        terms = _bootstrap_root_terms(gram.k_cc, w)
        assert (terms >= 0).all()

    def test_root_terms_match_loop_oracle(self, rng):
        gram = make_gram(rng, m=8, l=8, n=8)
        w = bootstrap_counts(rng, gram.m, gram.m, 5)
        got = _bootstrap_root_terms(gram.k_cc, w)
        for b in range(5):
            d2 = 0.0
            for i in range(gram.m):
                for j in range(gram.m):
                    d2 += (w[b, i] - 1) * (w[b, j] - 1) * gram.k_cc[i, j]
            d2 /= gram.m**2
            assert got[b] == pytest.approx(np.sqrt(max(d2, 0.0)), abs=1e-12)


class TestEquivalenceFusion:
    def test_theta_zero_never_merges(self, rng):
        for _ in range(10):
            gram = make_gram(rng, shift_h=rng.uniform(-1, 1))
            out = equivalence_fusion(gram, FusionConfig(theta=0.0, seed=1))
            assert not out.merged
            assert out.statistic <= 0.0 <= out.critical_value

    def test_huge_theta_always_merges(self, rng):
        # theta = inf is the always-merge limit, and a valid setting.
        for theta in (1e6, np.inf):
            for _ in range(10):
                gram = make_gram(rng, shift_h=rng.uniform(-2, 2))
                out = equivalence_fusion(gram, FusionConfig(theta=theta, seed=1))
                assert out.merged

    def test_statistic_is_theta_minus_root_mmd(self, rng):
        gram = make_gram(rng, shift_h=0.5)
        cfg = FusionConfig(theta=0.4, seed=3)
        out = equivalence_fusion(gram, cfg)
        d = mmd2_v(gram, gram.current, gram.historical).root
        assert out.statistic == pytest.approx(0.4 - d, abs=1e-15)

    def test_monotone_in_theta_with_fixed_seed(self, rng):
        gram = make_gram(rng, shift_h=0.3)
        outs = [
            equivalence_fusion(gram, FusionConfig(theta=t, seed=42))
            for t in (0.1, 0.3, 0.5, 0.8)
        ]
        # Critical value does not depend on theta; statistic increases.
        crits = {o.critical_value for o in outs}
        assert len(crits) == 1
        merges = [o.merged for o in outs]
        assert merges == sorted(merges)

    def test_deterministic_given_seed(self, rng):
        gram = make_gram(rng)
        a = equivalence_fusion(gram, FusionConfig(seed=123))
        b = equivalence_fusion(gram, FusionConfig(seed=123))
        assert a == b

    def test_merges_under_close_arms(self):
        # Qc = Qh: D below theta, merge rate should be near one.
        merges = 0
        reps = 60
        for rep in range(reps):
            rng = np.random.default_rng(900 + rep)
            gram = build_gram(
                KernelSpec(),
                Sample(rng.normal(size=(150, 1)), Arm.CURRENT),
                Sample(rng.normal(size=(150, 1)), Arm.HISTORICAL),
                Sample(rng.normal(size=(150, 1)), Arm.TREATMENT),
            )
            cfg = FusionConfig(theta=0.4, num_bootstrap=300, seed=rep)
            merges += equivalence_fusion(gram, cfg).merged
        assert merges / reps >= 0.95

    def test_rarely_merges_under_distant_arms(self):
        # Qh = N(2, 1): D far above theta, merge rate at most alpha + slack.
        merges = 0
        reps = 60
        for rep in range(reps):
            rng = np.random.default_rng(1700 + rep)
            gram = build_gram(
                KernelSpec(),
                Sample(rng.normal(size=(80, 1)), Arm.CURRENT),
                Sample(2.0 + rng.normal(size=(80, 1)), Arm.HISTORICAL),
                Sample(rng.normal(size=(80, 1)), Arm.TREATMENT),
            )
            cfg = FusionConfig(theta=0.3, num_bootstrap=300, seed=rep)
            merges += equivalence_fusion(gram, cfg).merged
        assert merges / reps <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps)


class TestClassicFusion:
    def test_identical_arms_merge(self):
        pts = np.arange(6.0).reshape(-1, 1)
        gram = build_gram(
            KernelSpec(),
            Sample(pts, Arm.CURRENT),
            Sample(pts, Arm.HISTORICAL),
            Sample(pts + 0.5, Arm.TREATMENT),
        )
        cfg = FusionConfig(mode=FusionMode.CLASSIC_PERMUTATION, seed=0)
        out = classic_fusion(gram, cfg)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.merged

    def test_zero_resamples_degenerate(self, rng):
        gram = make_gram(rng)
        cfg = FusionConfig(mode=FusionMode.CLASSIC_PERMUTATION, num_bootstrap=0, seed=0)
        out = classic_fusion(gram, cfg)
        assert out.critical_value == out.statistic
        assert out.merged

    def test_separated_arms_rarely_merge(self):
        merges = 0
        reps = 40
        for rep in range(reps):
            rng = np.random.default_rng(3100 + rep)
            gram = build_gram(
                KernelSpec(),
                Sample(rng.normal(size=(100, 1)), Arm.CURRENT),
                Sample(2.0 + rng.normal(size=(100, 1)), Arm.HISTORICAL),
                Sample(rng.normal(size=(50, 1)), Arm.TREATMENT),
            )
            cfg = FusionConfig(mode=FusionMode.CLASSIC_PERMUTATION, num_bootstrap=200, seed=rep)
            merges += classic_fusion(gram, cfg).merged
        assert merges / reps <= 0.05

    def test_mode_mismatch_raises(self, rng):
        gram = make_gram(rng)
        with pytest.raises(ConfigError):
            classic_fusion(gram, FusionConfig())
        with pytest.raises(ConfigError):
            equivalence_fusion(gram, FusionConfig(mode=FusionMode.CLASSIC_PERMUTATION))
