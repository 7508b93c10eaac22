"""End-to-end pipeline: branch selection, seed replay, limit identities."""

from dataclasses import fields, replace

import numpy as np
import pytest

from ttpool import fusion
from ttpool.causality import (
    MERGED_METHODS,
    CausalityConfig,
    Method,
    run_causality,
    standard_permutation_test,
)
from ttpool.errors import ConfigError, DataError
from ttpool.fusion import FusionConfig, FusionMode
from ttpool.kernels import Arm, KernelSpec, Sample, build_gram
from ttpool.pipeline import TTPConfig, derive_stage_seeds, run_report
from ttpool.simulate import MeanShift, Scenario, run_sweep


def make_arms(seed, m=25, l=30, n=35, shift_h=0.0, shift_t=0.0):
    rng = np.random.default_rng(seed)
    return (
        Sample(rng.normal(size=(m, 1)), Arm.CURRENT),
        Sample(shift_h + rng.normal(size=(l, 1)), Arm.HISTORICAL),
        Sample(shift_t + rng.normal(size=(n, 1)), Arm.TREATMENT),
    )


def small_cfg(theta=0.4, mode=FusionMode.EQUIVALENCE, method=Method.PARTIAL_BOOTSTRAP):
    return TTPConfig(
        fusion=FusionConfig(theta=theta, num_bootstrap=200, mode=mode),
        causality=CausalityConfig(num_resamples=200, method=method),
    )


class TestConfigValidation:
    def test_merged_method_cannot_be_standard_permutation(self):
        with pytest.raises(ConfigError):
            TTPConfig(causality=CausalityConfig(method=Method.STANDARD_PERMUTATION))

    def test_merged_method_is_read_from_causality_method(self):
        assert [f.name for f in fields(TTPConfig)] == ["kernel", "fusion", "causality"]
        with pytest.raises(TypeError):
            TTPConfig(merged_method=Method.NORMAL_APPROX)
        cfg = TTPConfig(causality=CausalityConfig(method=Method.NORMAL_APPROX))
        assert cfg.merged_method is Method.NORMAL_APPROX

    def test_partial_bootstrap_needs_a_resample_under_equivalence_fusion(self):
        no_draws = CausalityConfig(num_resamples=0)
        with pytest.raises(ConfigError, match="at least one resample"):
            TTPConfig(causality=no_draws)
        # A classic-mode merge runs naive pooling, and the permutation
        # tests' reference sets hold the observed statistic.
        TTPConfig(fusion=FusionConfig(mode=FusionMode.CLASSIC_PERMUTATION), causality=no_draws)
        for method in (Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX):
            TTPConfig(causality=CausalityConfig(num_resamples=0, method=method))

    def test_stage_seed_refused(self):
        # run_report derives both stage seeds from master_seed, and run_ttp
        # sets them from its own arguments, so no run reads a configured one.
        for stage in ({"fusion": FusionConfig(seed=1)}, {"causality": CausalityConfig(seed=1)}):
            with pytest.raises(ConfigError, match="derives its stage seeds from master_seed"):
                TTPConfig(**stage)


# TestConfigValidation refuses the standard permutation as causality.method.
@pytest.mark.parametrize("method", MERGED_METHODS)
def test_causality_method_is_the_method_that_runs(method):
    fusion = FusionConfig(theta=np.inf, num_bootstrap=50)
    cfg = TTPConfig(fusion=fusion, causality=CausalityConfig(num_resamples=50, method=method))
    arms = make_arms(4, shift_t=0.5)
    report = run_report(*arms, cfg, master_seed=6)
    assert report.fusion.merged and report.causality.method is method
    _, (causality_seed,) = derive_stage_seeds([6])
    gram = build_gram(cfg.kernel, *arms)
    assert report.causality == run_causality(gram, replace(cfg.causality, seed=causality_seed))
    scn = Scenario(MeanShift(0.5, 0.0), n=12, m=10, l=11, ttp=cfg, replicates=2, master_seed=6)
    (result,) = run_sweep((scn,))
    assert next(iter(result.per_method_rates)) == method.value


class TestBranchConsistency:
    def test_merged_analysis_tracks_fusion(self):
        for seed in range(8):
            arms = make_arms(seed, shift_h=0.3 * (seed % 3))
            report = run_report(*arms, small_cfg(), master_seed=seed)
            assert report.causality.merged_analysis == report.fusion.merged
            assert report.bandwidth_used == (
                "pooled3" if report.fusion.merged else "pooled2"
            )

    def test_merged_branch_uses_requested_method(self):
        arms = make_arms(3)  # Qh = Qc: merge very likely
        for method in (Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX):
            report = run_report(
                *arms, small_cfg(theta=1e6, method=method), master_seed=1
            )
            assert report.fusion.merged
            assert report.causality.method is method

    def test_no_merge_branch_is_standard_permutation(self):
        arms = make_arms(5, shift_h=3.0)
        report = run_report(*arms, small_cfg(theta=0.0), master_seed=2)
        assert not report.fusion.merged
        assert report.causality.method is Method.STANDARD_PERMUTATION


class TestSeedReplay:
    def test_bitwise_identical_reports(self):
        arms = make_arms(7, shift_h=0.2, shift_t=0.4)
        a = run_report(*arms, small_cfg(), master_seed=99)
        b = run_report(*arms, small_cfg(), master_seed=99)
        assert a.fusion == b.fusion
        assert a.causality == b.causality
        assert a.diagnostics == b.diagnostics

    def test_seed_record_describes_master(self):
        arms = make_arms(7)
        report = run_report(*arms, small_cfg(), master_seed=42)
        assert report.seeds["master"] == 42
        assert report.seeds["fusion"] is not None
        assert report.seeds["causality"] is not None

    def test_a_drawn_master_seed_is_recorded_and_replays_the_report(self):
        # With no master seed, the report recorded None, and two calls gave
        # different critical values that no seed could replay.
        arms = make_arms(7, shift_h=0.2, shift_t=0.4)
        first = run_report(*arms, small_cfg())
        master = first.seeds["master"]
        assert isinstance(master, int) and master >= 0
        assert run_report(*arms, small_cfg(), master_seed=master) == first

    @pytest.mark.parametrize("master_seed", [-1, 1.5, "abc", [3, -1], [3, 0.5], []])
    def test_bad_master_seed_is_a_config_error(self, master_seed):
        # -1 raised NumPy's ValueError, 1.5 and "abc" a TypeError.
        with pytest.raises(ConfigError, match="master_seed must be an integer >= 0"):
            run_report(*make_arms(7), small_cfg(), master_seed=master_seed)


class TestThetaLimits:
    def test_theta_zero_equals_standalone_two_sample(self):
        for seed in range(5):
            arms = make_arms(seed, shift_t=0.5)
            report = run_report(*arms, small_cfg(theta=0.0), master_seed=seed)
            assert not report.fusion.merged

            gram = build_gram(KernelSpec(), *arms)
            _, (causality_seed,) = derive_stage_seeds([seed])
            standalone = standard_permutation_test(
                gram,
                CausalityConfig(
                    num_resamples=200,
                    method=Method.STANDARD_PERMUTATION,
                    seed=causality_seed,
                ),
            )
            assert report.causality.statistic == standalone.statistic
            assert report.causality.critical_value == standalone.critical_value
            assert report.causality.reject == standalone.reject

    def test_huge_theta_always_merges(self):
        for seed in range(5):
            arms = make_arms(seed, shift_h=1.0)
            report = run_report(*arms, small_cfg(theta=1e6), master_seed=seed)
            assert report.fusion.merged

    def test_theta_monotone_merge_decision(self):
        for seed in range(6):
            arms = make_arms(seed, shift_h=0.4)
            merges = []
            for theta in (0.05, 0.2, 0.4, 0.7, 1.2):
                report = run_report(
                    *arms, small_cfg(theta=theta), master_seed=seed
                )
                merges.append(report.fusion.merged)
            assert merges == sorted(merges)


class TestClassicPipeline:
    def test_identical_arms_merge_and_accept(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(15, 1))
        arms = (
            Sample(pts, Arm.CURRENT),
            Sample(pts, Arm.HISTORICAL),
            Sample(pts, Arm.TREATMENT),
        )
        report = run_report(
            *arms, small_cfg(mode=FusionMode.CLASSIC_PERMUTATION), master_seed=0
        )
        assert report.fusion.merged
        assert not report.causality.reject
        assert report.causality.merged_analysis

    def test_distant_historical_rarely_merges(self):
        arms = make_arms(13, m=60, l=60, shift_h=2.5)
        report = run_report(
            *arms, small_cfg(mode=FusionMode.CLASSIC_PERMUTATION), master_seed=1
        )
        assert not report.fusion.merged
        assert report.causality.method is Method.STANDARD_PERMUTATION

    def test_merged_branch_pools_controls(self):
        # Qh = Qc: classic fusion merges, causality runs fused-vs-treatment.
        arms = make_arms(17, shift_t=2.0)
        report = run_report(
            *arms, small_cfg(mode=FusionMode.CLASSIC_PERMUTATION), master_seed=3
        )
        if report.fusion.merged:
            assert report.causality.merged_analysis
            assert report.causality.reject  # large treatment shift


def test_nan_point_under_a_fixed_bandwidth_is_refused():
    # With a fixed bandwidth no median sees the NaN, and the report came
    # back with NaN statistics, merged=False and reject=False.
    rng = np.random.default_rng(4)
    cfg = TTPConfig(
        kernel=KernelSpec(bandwidth=1.0),
        fusion=FusionConfig(num_bootstrap=50),
        causality=CausalityConfig(num_resamples=50),
    )
    historical = rng.normal(size=(30, 1))
    historical[7, 0] = np.nan
    with pytest.raises(DataError, match="historical arm has a non-finite point"):
        run_report(
            Sample(rng.normal(size=(25, 1)), Arm.CURRENT),
            Sample(historical, Arm.HISTORICAL),
            Sample(rng.normal(size=(35, 1)), Arm.TREATMENT),
            cfg,
        )


def test_one_dimensional_arms_are_columns_of_points():
    # A 1-D array was read as one point with a coordinate per value, so
    # three arms of different lengths raised DimensionMismatch.
    columns = make_arms(5, shift_h=0.2, shift_t=0.4)
    flat = [Sample(s.points[:, 0], s.arm) for s in columns]
    assert [s.points.shape for s in flat] == [(25, 1), (30, 1), (35, 1)]
    a = run_report(*flat, small_cfg(), master_seed=3)
    b = run_report(*columns, small_cfg(), master_seed=3)
    assert a.fusion == b.fusion
    assert a.causality == b.causality
    assert a.bandwidth_pooled3 == b.bandwidth_pooled3


def test_fusion_tests_are_looked_up_at_call_time(monkeypatch):
    # A wrapper bound over a fusion test after import, as a tracer binds
    # its spans, sees the report's and a campaign replicate's calls.
    calls = {"equivalence_fusion": 0, "classic_fusion": 0}

    def wrap(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(fusion, name, wrap(name, getattr(fusion, name)))
    run_report(*make_arms(3), small_cfg(), master_seed=3)
    assert calls == {"equivalence_fusion": 1, "classic_fusion": 0}
    scn = Scenario(
        generator=MeanShift(0.0, 0.0), n=14, m=12, l=15, replicates=1,
        ttp=small_cfg(mode=FusionMode.CLASSIC_PERMUTATION),
    )
    run_sweep([scn])
    assert calls == {"equivalence_fusion": 1, "classic_fusion": 1}
