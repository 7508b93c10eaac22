"""Simulation harness: generators, seeding, aggregation, worker invariance."""

import dataclasses
import logging

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from ttpool.causality import (
    CausalityConfig,
    Method,
    normal_scale,
    partial_bootstrap_draws,
    partial_permutation_draws,
    run_causality,
)
from ttpool.errors import ConfigError, SampleTooSmall
from ttpool.estimators import Estimator
from ttpool.fusion import FusionConfig, FusionMode
from ttpool.kernels import build_gram
from ttpool import simulate
from ttpool.pipeline import TTPConfig, run_classic_ttp, run_equivalence_ttp
from ttpool.simulate import (
    CampaignResult,
    MeanShift,
    Scenario,
    VarShift,
    _ks_distance,
    _map_replicates,
    _null_replicate,
    _numpy_openblas,
    _run_replicate,
    draw_arms,
    null_distribution_study,
    run_campaign,
    worker_pool,
)


def tiny_scenario(reps=6, seed=0, **kwargs):
    defaults = dict(
        generator=MeanShift(0.0, 0.0),
        n=20,
        m=15,
        l=18,
        ttp=TTPConfig(
            fusion=FusionConfig(num_bootstrap=60),
            causality=CausalityConfig(num_resamples=60),
        ),
        replicates=reps,
        master_seed=seed,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestGenerators:
    def test_mean_shift_marginals(self):
        rng = np.random.default_rng(1)
        gen = MeanShift(mu_c_minus_mu_t=0.4, mu_h_minus_mu_c=0.2)
        c, h, t = gen.draw(rng, n=4000, m=4000, l=4000)
        band = 4 / np.sqrt(4000)
        assert abs(t.mean() - 0.0) < band
        assert abs(c.mean() - 0.4) < band
        assert abs(h.mean() - 0.6) < band
        for arr in (c, h, t):
            assert abs(arr.std() - 1.0) < band

    def test_var_shift_marginals(self):
        rng = np.random.default_rng(2)
        gen = VarShift(var_c_over_var_t=1.0, var_h_over_var_c=1.5)
        c, h, t = gen.draw(rng, n=4000, m=4000, l=4000)
        band = 4 / np.sqrt(4000)
        assert abs(t.var() - 1.0) < 3 * band
        assert abs(c.var() - 1.0) < 3 * band
        assert abs(h.var() - 1.5) < 3 * band
        assert abs(h.mean()) < band

    def test_shapes(self):
        rng = np.random.default_rng(3)
        c, h, t = MeanShift().draw(rng, n=7, m=5, l=6)
        assert c.shape == (5, 1) and h.shape == (6, 1) and t.shape == (7, 1)


class TestScenarioValidation:
    def test_minimum_sizes(self):
        with pytest.raises(ConfigError):
            tiny_scenario(m=1)
        with pytest.raises(ConfigError):
            tiny_scenario(reps=0)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ConfigError, match="master_seed must be >= 0"):
            tiny_scenario(seed=-1)

    @pytest.mark.parametrize(
        "compare",
        [
            (Method.PARTIAL_BOOTSTRAP,),
            (Method.PARTIAL_PERMUTATION, Method.PARTIAL_PERMUTATION),
        ],
    )
    def test_repeated_method_rejected(self, compare):
        # Rates are keyed by method name, so a repeat would report one
        # column twice, computed with the later method's seed.
        with pytest.raises(ConfigError, match="distinct"):
            tiny_scenario(compare_methods=compare)


def _blas_threads(_rep):
    return _numpy_openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def no_process(monkeypatch):
    """Fail the test if a process pool is opened."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", refuse)


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, no_process, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_campaign(tiny_scenario(reps=2), workers=workers)
        with pytest.raises(ConfigError, match="workers"):
            null_distribution_study(tiny_scenario(reps=2), workers=workers)
        with pytest.raises(ConfigError, match="workers"):
            with worker_pool(workers):
                pass

    def test_serial_run_opens_no_pool(self, no_process):
        with worker_pool(1) as pool:
            assert pool is None
            run_campaign(tiny_scenario(reps=2), workers=1, pool=pool)

    @pytest.mark.skipif(
        _numpy_openblas() is None,
        reason="NumPy's bundled OpenBLAS (scipy_openblas64_) was not found",
    )
    def test_pool_workers_run_one_blas_thread(self):
        before = _blas_threads(None)
        assert _map_replicates(_blas_threads, 5, 2) == [1] * 5
        assert _blas_threads(None) == before

    def test_pool_logs_the_pinned_library(self, caplog, monkeypatch):
        found = _numpy_openblas() is not None
        # Opening a forked pool starts no process until its first map.
        with caplog.at_level(logging.DEBUG, logger="ttpool.simulate"):
            with worker_pool(2):
                pass
            monkeypatch.setattr(simulate, "_numpy_openblas", lambda: None)
            with worker_pool(2):
                pass
        messages = [r.getMessage() for r in caplog.records]
        if found:
            assert "scipy_openblas64_" in messages[0] and "saved count" in messages[0]
        assert messages[-1].startswith("no NumPy OpenBLAS found")


class TestSeeding:
    def test_draws_depend_only_on_master_seed_and_replicate(self):
        scn_a = tiny_scenario(seed=5)
        scn_b = tiny_scenario(seed=5, reps=9)  # replicate count must not matter
        for rep in (0, 3):
            arms_a = draw_arms(scn_a, rep)
            arms_b = draw_arms(scn_b, rep)
            for sa, sb in zip(arms_a, arms_b):
                assert np.array_equal(sa.points, sb.points)

    def test_different_replicates_differ(self):
        scn = tiny_scenario()
        a = draw_arms(scn, 0)[0].points
        b = draw_arms(scn, 1)[0].points
        assert not np.array_equal(a, b)


class TestCampaign:
    def test_single_replicate_rates_are_indicator(self):
        res = run_campaign(tiny_scenario(reps=1))
        assert res.merge_rate in (0.0, 1.0)
        assert res.reject_rate in (0.0, 1.0)
        assert res.stderr_merge == 0.0
        assert res.stderr_reject == 0.0

    def test_rates_are_exact_counts(self):
        res = run_campaign(tiny_scenario(reps=7))
        assert (res.merge_rate * 7) == pytest.approx(round(res.merge_rate * 7))
        assert res.rng_algorithm

    def test_worker_count_invariance(self):
        scn = tiny_scenario(reps=8, seed=21)
        seq = run_campaign(scn, workers=1)
        par = run_campaign(scn, workers=3)
        for field in dataclasses.fields(CampaignResult):
            if field.name in ("wall_time",):
                continue
            assert getattr(seq, field.name) == getattr(par, field.name), field.name

    def test_compare_methods_reported(self):
        scn = tiny_scenario(
            reps=4, compare_methods=(Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX)
        )
        res = run_campaign(scn)
        assert set(res.per_method_rates) == {
            "partial_bootstrap",
            "partial_permutation",
            "normal_approx",
        }
        assert res.reject_rate == res.per_method_rates["partial_bootstrap"]

    def test_deterministic_rerun(self):
        scn = tiny_scenario(reps=5, seed=33)
        a = run_campaign(scn)
        b = run_campaign(scn)
        assert a.merge_rate == b.merge_rate
        assert a.per_method_rates == b.per_method_rates


class TestReplicateMatchesPipeline:
    """A campaign replicate and the library run the same test on the same arms and seeds."""

    @pytest.mark.parametrize("mode", [FusionMode.EQUIVALENCE, FusionMode.CLASSIC_PERMUTATION])
    def test_replicate_equals_pipeline(self, mode):
        scn = tiny_scenario(
            reps=40,
            seed=8,
            generator=MeanShift(0.6, 0.2),
            ttp=TTPConfig(
                fusion=FusionConfig(theta=0.6, num_bootstrap=60, mode=mode),
                causality=CausalityConfig(num_resamples=60),
            ),
            compare_methods=(Method.PARTIAL_PERMUTATION,),
        )
        runner = run_equivalence_ttp if mode is FusionMode.EQUIVALENCE else run_classic_ttp
        branches = set()
        for rep in range(scn.replicates):
            row = _run_replicate(scn, rep)
            cfg = dataclasses.replace(
                scn.ttp,
                fusion=dataclasses.replace(
                    scn.ttp.fusion, seed=np.random.SeedSequence([scn.master_seed, rep, 1])
                ),
                causality=dataclasses.replace(
                    scn.ttp.causality,
                    seed=np.random.SeedSequence([scn.master_seed, rep, 2]).spawn(1)[0],
                ),
            )
            report = runner(*draw_arms(scn, rep), cfg)
            assert row["merged"] == report.fusion.merged, rep
            assert row["rejects"]["partial_bootstrap"] == report.causality.reject, rep
            if mode is FusionMode.CLASSIC_PERMUTATION:
                # One naive-pooling (or no-merge) outcome fills every method column.
                assert row["rejects"]["partial_permutation"] == report.causality.reject, rep
            branches.add(row["merged"])
        assert branches == {True, False}


class TestKSDistance:
    def test_matches_scipy(self, rng):
        a = rng.normal(size=80)
        b = rng.normal(size=60) + 0.3
        assert _ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_identical_samples_zero(self, rng):
        a = rng.normal(size=50)
        assert _ks_distance(a, a.copy()) == 0.0


class TestNullStudy:
    def test_degenerate_two_replicates_well_formed(self):
        scn = tiny_scenario(reps=2)
        rows = null_distribution_study(scn, probe_levels=(0.9,), ref_draws=5)
        assert len(rows) == 3  # three methods, one level
        for row in rows:
            assert 0.0 <= row.ks_distance <= 1.0
            assert row.level == 0.9

    def test_probe_generator_changes_reference_only(self):
        scn = tiny_scenario(reps=3)
        base = null_distribution_study(
            scn, probe_levels=(0.9,), ref_draws=5, methods=(Method.PARTIAL_BOOTSTRAP,)
        )
        probed = null_distribution_study(
            scn,
            probe_levels=(0.9,),
            ref_draws=5,
            probe_generator=MeanShift(1.0, 0.0),
            methods=(Method.PARTIAL_BOOTSTRAP,),
        )
        assert base[0].true_quantile == probed[0].true_quantile
        assert base[0].reference_quantile != probed[0].reference_quantile

    def test_reused_gram_equals_rebuilt_probe_gram(self):
        # Without a probe generator the replicate's own Gram is reused; naming
        # the null generator as the probe rebuilds it from the same arms.
        scn = tiny_scenario(reps=4, seed=5)
        reused = null_distribution_study(scn, ref_draws=7)
        rebuilt = null_distribution_study(scn, ref_draws=7, probe_generator=scn.generator)
        assert reused == rebuilt

    def test_worker_count_invariance(self):
        scn = tiny_scenario(reps=5, seed=2)
        serial = null_distribution_study(scn, ref_draws=6, workers=1)
        pooled = null_distribution_study(scn, ref_draws=6, workers=2)
        assert serial == pooled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ref_draws": 0},
            {"ref_draws": -2},
            {"probe_levels": (1.5,)},
            {"probe_levels": (0.9, 1.0)},
            {"probe_levels": (0.0,)},
            {"methods": (Method.PARTIAL_BOOTSTRAP, Method.STANDARD_PERMUTATION)},
        ],
    )
    def test_bad_settings_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            null_distribution_study(tiny_scenario(reps=2), **kwargs)

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_replicate_uses_the_tests_statistics_and_scale(self, estimator):
        ttp = TTPConfig(causality=CausalityConfig(num_resamples=10, estimator=estimator))
        scn = tiny_scenario(reps=1, seed=3, ttp=ttp)
        methods = (Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX)
        out = _null_replicate(scn, None, 9, methods, 0)
        gram = build_gram(scn.ttp.kernel, *draw_arms(scn, 0))
        for method in methods:
            cfg = dataclasses.replace(scn.ttp.causality, method=method, seed=0)
            assert out[method][0] == run_causality(gram, cfg).statistic

        # The methods draw in order from one generator; the normal draws are
        # the normal test's scale times that generator's standard normals.
        cfg = dataclasses.replace(scn.ttp.causality, method=Method.NORMAL_APPROX)
        scale = normal_scale(gram)
        critical = run_causality(gram, cfg).critical_value
        assert critical == float(norm.ppf(1.0 - cfg.alpha) * scale)
        rng = np.random.default_rng(np.random.SeedSequence([scn.master_seed, 0, 3]))
        want_pb = partial_bootstrap_draws(gram, 9, rng, estimator)
        want_pp = partial_permutation_draws(gram, 9, rng, estimator)
        assert np.array_equal(out[Method.PARTIAL_BOOTSTRAP][1], want_pb)
        assert np.array_equal(out[Method.PARTIAL_PERMUTATION][1], want_pp)
        assert np.array_equal(out[Method.NORMAL_APPROX][1], scale * rng.standard_normal(9))

    @pytest.mark.parametrize("arm", ["m", "n"])
    def test_ustat_single_point_arm_raises(self, monkeypatch, arm):
        ttp = TTPConfig(causality=CausalityConfig(num_resamples=10, estimator=Estimator.USTAT))
        with pytest.raises(ConfigError):
            tiny_scenario(reps=2, ttp=ttp, **{arm: 1})
        # Past the scenario check, the statistics themselves refuse the arm.
        monkeypatch.setattr(Scenario, "__post_init__", lambda self: None)
        with pytest.raises(SampleTooSmall):
            null_distribution_study(tiny_scenario(reps=2, ttp=ttp, **{arm: 1}), ref_draws=5)
