"""Simulation harness: generators, seeding, aggregation, worker invariance."""

import dataclasses
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

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
from ttpool.estimators import Counts, Estimator, Masks, SharedSeed, resample_weights
from ttpool.fusion import FusionConfig, FusionMode
from ttpool.kernels import build_gram
from ttpool import causality, cli, estimators, fusion, kernels, simulate
from ttpool.pipeline import TTPConfig, run_report
from ttpool.simulate import (
    CampaignResult,
    MeanShift,
    Scenario,
    VarShift,
    _ks_distance,
    _map_replicates,
    _null_replicate,
    _numpy_openblas,
    _one_blas_thread,
    _run_replicate,
    draw_arms,
    null_distribution_study,
    run_campaign,
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


def _double(rep):
    return 2 * rep


@pytest.fixture
def no_process(monkeypatch):
    """Fail the test if a pool is opened."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", refuse)


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, no_process, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_campaign(tiny_scenario(reps=2), workers=workers)
        with pytest.raises(ConfigError, match="workers"):
            null_distribution_study(tiny_scenario(reps=2), workers=workers)

    def test_serial_run_opens_no_pool(self, no_process):
        run_campaign(tiny_scenario(reps=2), workers=1)
        null_distribution_study(tiny_scenario(reps=2), ref_draws=3, workers=1)

    def test_pool_opens_no_more_processes_than_replicates(self, monkeypatch):
        sizes = []

        def recording(max_workers, **kwargs):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording)
        assert _map_replicates(_double, 2, 4) == [0, 2]
        assert _map_replicates(_double, 3, 2) == [0, 2, 4]
        assert sizes == [2, 2]

    def test_more_threads_than_cores_under_fast_switching(self):
        # The pool threads share the process; with the interpreter switching
        # threads every microsecond, a sweep on more threads than cores
        # still gives the serial rates.
        scn = tiny_scenario(reps=8, seed=3)
        serial = run_campaign(scn, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_campaign(scn, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert dataclasses.replace(pooled, seconds=0.0) == dataclasses.replace(serial, seconds=0.0)

    @pytest.mark.skipif(
        _numpy_openblas() is None,
        reason="NumPy's bundled OpenBLAS (scipy_openblas64_) was not found",
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_workers_run_one_blas_thread(self, workers):
        before = _blas_threads(None)
        assert _map_replicates(_blas_threads, 5, workers) == [1] * 5
        assert _blas_threads(None) == before

    @pytest.mark.skipif(
        _numpy_openblas() is None,
        reason="NumPy's bundled OpenBLAS (scipy_openblas64_) was not found",
    )
    def test_failing_replicate_restores_the_blas_thread_count(self):
        counts = []

        def fail_at_two(rep):
            if rep == 2:
                raise SampleTooSmall("replicate 2 failed")
            counts.append(_blas_threads(rep))

        before = _blas_threads(None)
        with pytest.raises(SampleTooSmall, match="replicate 2"):
            _map_replicates(fail_at_two, 4, 1)
        assert counts == [1, 1]
        assert _blas_threads(None) == before

    def test_pool_logs_the_pinned_library(self, caplog, monkeypatch):
        found = _numpy_openblas() is not None
        with caplog.at_level(logging.DEBUG, logger="ttpool.simulate"):
            with _one_blas_thread():
                pass
            monkeypatch.setattr(simulate, "_numpy_openblas", lambda: None)
            with _one_blas_thread():
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
            if field.name in ("seconds",):
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


class TestSharedDraws:
    """A sweep draws each replicate's resampling weights once for all its cells."""

    @pytest.fixture
    def draw_calls(self, monkeypatch):
        """Count calls of the count and mask draws, through every package binding."""
        calls = []
        for name in ("bootstrap_counts", "permutation_masks"):
            original = getattr(estimators, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            for module in (estimators, fusion, causality):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_sweep_draws_each_plan_once_per_replicate(self, tmp_path, draw_calls):
        # Per replicate: 2 fusion count draws, 3 partial-bootstrap count draws,
        # 1 partial-permutation and 1 standard-permutation mask draw.
        reps = 3
        argv = [
            "simulate", "--out", str(tmp_path / "s.txt"),
            "--set", f"replicates={reps}",
            "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
            "--set", "fusion.num_bootstrap=40", "--set", "causality.num_resamples=40",
            "--set", "fusion.theta=0.8",
            "--set", "scenario.mu_h_minus_mu_c=0,0.2,0.4,0.8",
            "--set", "scenario.mu_c_minus_mu_t=0,0.4",
            "--set", "compare_methods=partial_permutation,normal_approx",
        ]
        assert cli.main(argv) == 0
        assert 0 < len(draw_calls) <= 7 * reps

    def test_single_cell_draws_as_before(self, draw_calls):
        ttp = TTPConfig(
            fusion=FusionConfig(theta=0.6, num_bootstrap=60),
            causality=CausalityConfig(num_resamples=60),
        )
        compare = (Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX)
        scn = tiny_scenario(
            reps=6, seed=2, generator=MeanShift(0.6, 0.2), ttp=ttp, compare_methods=compare
        )
        res = run_campaign(scn)
        merged = round(res.merge_rate * scn.replicates)
        assert 0 < merged < scn.replicates
        # Fusion draws twice; a merge runs 3 + 1 draws, no merge 1.
        assert len(draw_calls) == 2 * scn.replicates + 4 * merged + (scn.replicates - merged)

    def test_shared_draws_are_the_fresh_bytes(self):
        def seed():
            return np.random.SeedSequence([3, 1, 2]).spawn(2)[1]

        plan = (Counts(7, 5), Masks(9, 4), Counts(300, 5))
        fresh = resample_weights(seed(), 11, *plan)
        store = {}
        first = resample_weights(SharedSeed(seed(), store), 11, *plan)
        again = resample_weights(SharedSeed(seed(), store), 11, *plan)
        assert len(store) == 1
        for want, *got in zip(fresh, first, again):
            assert want.dtype == float
            for weights in got:
                assert weights.dtype == float and weights.tobytes() == want.tobytes()
        assert again[0] is not first[0]

    def test_sweep_results_equal_campaigns(self):
        scns = [tiny_scenario(reps=4, seed=9, generator=MeanShift(c, 0.2)) for c in (0.0, 0.5)]
        scns.append(tiny_scenario(reps=4, seed=9, n=11))
        swept = simulate.run_sweep(scns)
        for scn, result in zip(scns, swept):
            alone = run_campaign(scn)
            assert dataclasses.replace(result, seconds=0) == dataclasses.replace(alone, seconds=0)

    def test_cells_need_one_replicate_count(self, no_process):
        with pytest.raises(ConfigError, match="one replicate count"):
            simulate.run_sweep([tiny_scenario(reps=2), tiny_scenario(reps=3)])


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
        branches = set()
        for rep in range(scn.replicates):
            fusion_outcome, outcomes = _run_replicate(scn, rep, {})
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
            report = run_report(*draw_arms(scn, rep), cfg)
            assert fusion_outcome == report.fusion, rep
            assert outcomes[0] == report.causality, rep
            if mode is FusionMode.CLASSIC_PERMUTATION:
                # One naive-pooling (or no-merge) outcome fills every method column.
                assert outcomes[1] == report.causality, rep
            branches.add(fusion_outcome.merged)
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

    @pytest.mark.parametrize("generator", [MeanShift(0.4, 0.0), VarShift(2.0, 1.0)])
    def test_non_null_generator_is_a_config_error(self, no_process, generator):
        with pytest.raises(ConfigError, match="requires Qc = Qt"):
            null_distribution_study(tiny_scenario(reps=2, generator=generator), workers=2)

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
        out = _null_replicate(scn, None, 9, methods, 0, {})
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


class TestTwoArmBuiltOnFirstRead:
    """A replicate builds only the side of the Gram cache that its branch reads."""

    TWO_ARM_ROWS = 15 + 20  # m + n of tiny_scenario

    @pytest.fixture
    def two_arm_builds(self, monkeypatch):
        """Two-arm builds: matrices by ``_pool_gram``, lone bandwidths by ``resolve_bandwidth``."""
        builds = {"matrix": 0, "bandwidth": 0}

        def counting(name, fn):
            def wrapper(spec, pooled):
                if pooled.shape[0] == self.TWO_ARM_ROWS:
                    builds[name] += 1
                return fn(spec, pooled)

            return wrapper

        monkeypatch.setattr(kernels, "_pool_gram", counting("matrix", kernels._pool_gram))
        monkeypatch.setattr(
            kernels, "resolve_bandwidth", counting("bandwidth", kernels.resolve_bandwidth)
        )
        return builds

    @staticmethod
    def _scenario(theta, compare=()):
        ttp = TTPConfig(
            fusion=FusionConfig(theta=theta, num_bootstrap=60),
            causality=CausalityConfig(num_resamples=60),
        )
        return tiny_scenario(reps=2, ttp=ttp, compare_methods=compare)

    def test_merged_replicate_builds_no_two_arm_side(self, two_arm_builds):
        # theta = inf always merges.
        scn = self._scenario(np.inf, (Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX))
        assert _run_replicate(scn, 0, {})[0].merged
        assert two_arm_builds == {"matrix": 0, "bandwidth": 0}

    def test_null_study_replicate_builds_no_two_arm_side(self, two_arm_builds):
        methods = (Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX)
        _null_replicate(self._scenario(0.4), MeanShift(1.0, 0.0), 5, methods, 0, {})
        assert two_arm_builds == {"matrix": 0, "bandwidth": 0}

    def test_merged_report_builds_the_two_arm_bandwidth_only(self, two_arm_builds):
        scn = self._scenario(np.inf)
        report = run_report(*draw_arms(scn, 0), scn.ttp, master_seed=0)
        assert report.fusion.merged
        assert report.bandwidth_pooled2 > 0
        assert two_arm_builds == {"matrix": 0, "bandwidth": 1}

    def test_unmerged_replicate_builds_the_two_arm_side_once(self, two_arm_builds):
        # theta = 0 never merges; the standard permutation reads the two-arm matrix.
        scn = self._scenario(0.0)
        assert not _run_replicate(scn, 0, {})[0].merged
        assert two_arm_builds == {"matrix": 1, "bandwidth": 0}

    def test_unmerged_report_resolves_the_two_arm_median_once(self, two_arm_builds):
        scn = self._scenario(0.0)
        report = run_report(*draw_arms(scn, 0), scn.ttp, master_seed=0)
        assert not report.fusion.merged
        assert two_arm_builds == {"matrix": 1, "bandwidth": 0}
