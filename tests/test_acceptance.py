"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion N] PASS|FAIL` line with the
measured numbers, then asserts.  Monte Carlo criteria pin their master
seeds so the whole suite is deterministic.
"""

import time

import numpy as np
import pytest

from conftest import oracle_mmd2_u, oracle_mmd2_v, random_spec
from ttpool.causality import (
    CausalityConfig,
    Method,
    run_causality,
    standard_permutation_test,
)
from ttpool.cli import main
from ttpool.estimators import Estimator, mmd2, mmd2_v
from ttpool.fusion import FusionConfig, FusionMode
from ttpool.kernels import Arm, KernelFamily, KernelSpec, Sample, build_gram, kernel_matrix
from ttpool.pipeline import TTPConfig, derive_stage_seeds, run_report
from ttpool.simulate import MeanShift, Scenario, VarShift, draw_arms, null_study_sweep, run_sweep


def report(num, checks):
    """Print one pass/fail line; checks = [(label, ok, detail), ...]."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label}={'ok' if good else 'FAIL'} ({d})" for label, good, d in checks)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def stderr(p, reps):
    return float(np.sqrt(p * (1 - p) / reps))


# ---------------------------------------------------------------------------
# 1. Estimator oracle equivalence.
# ---------------------------------------------------------------------------


def test_criterion_01_estimator_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        spec = random_spec(rng)
        d = int(rng.integers(1, 4))
        na = int(rng.integers(2, 21))
        nb = int(rng.integers(2, 21))
        pts = rng.normal(size=(na + nb, d))
        k = kernel_matrix(spec, spec.bandwidth, pts, pts)
        a = np.arange(na)
        b = np.arange(na, na + nb)
        ev = abs(mmd2_v(k, a, b).squared - oracle_mmd2_v(spec, spec.bandwidth, pts[a], pts[b]))
        u = mmd2(k, a, b, Estimator.USTAT).squared
        eu = abs(u - oracle_mmd2_u(spec, spec.bandwidth, pts[a], pts[b]))
        worst = max(worst, ev, eu)
    elapsed = time.perf_counter() - start
    report(1, [
        ("max_abs_error<=1e-12", worst <= 1e-12, f"{worst:.2e}"),
        ("runtime<10s", elapsed < 10, f"{elapsed:.1f}s"),
    ])


# ---------------------------------------------------------------------------
# 2. Linear-kernel ATE reduction.
# ---------------------------------------------------------------------------


def test_criterion_02_linear_kernel_ate_reduction():
    rng = np.random.default_rng(102)
    spec = KernelSpec(family=KernelFamily.LINEAR)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        na = int(rng.integers(2, 40))
        nb = int(rng.integers(2, 40))
        pts = rng.normal(size=(na + nb, d)) * rng.uniform(0.5, 3.0)
        k = pts @ pts.T
        a = np.arange(na)
        b = np.arange(na, na + nb)
        got = mmd2_v(k, a, b).squared
        want = float(np.sum((pts[a].mean(axis=0) - pts[b].mean(axis=0)) ** 2))
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(2, [
        ("max_abs_error<=1e-10", worst <= 1e-10, f"{worst:.2e}"),
        ("runtime<5s", elapsed < 5, f"{elapsed:.1f}s"),
    ])


# ---------------------------------------------------------------------------
# 3 & 4. Causality-test validity under Qc = Qt, distant historical arm.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def validity_rates():
    scn = Scenario(generator=MeanShift(0.0, 2.0), n=100, m=50, l=100,
                   ttp=TTPConfig(), replicates=1000, master_seed=3)
    start = time.perf_counter()
    pb = pp = 0
    for rep in range(1000):
        gram = build_gram(KernelSpec(), *draw_arms(scn, rep))
        seeds = np.random.SeedSequence([3, rep, 2]).spawn(2)
        pb += run_causality(
            gram,
            CausalityConfig(num_resamples=500, seed=seeds[0], method=Method.PARTIAL_BOOTSTRAP),
        ).reject
        pp += run_causality(
            gram,
            CausalityConfig(num_resamples=500, seed=seeds[1], method=Method.PARTIAL_PERMUTATION),
        ).reject
    return pb / 1000, pp / 1000, time.perf_counter() - start


def test_criterion_03_partial_permutation_validity(validity_rates):
    _, rate, elapsed = validity_rates
    bound = 0.05 + 3 * stderr(0.05, 1000)
    report(3, [
        ("rate<=0.05+3se", rate <= bound, f"{rate:.4f} vs {bound:.4f}"),
        ("runtime<180s", elapsed < 180, f"{elapsed:.0f}s"),
    ])


def test_criterion_04_partial_bootstrap_validity(validity_rates):
    rate, _, elapsed = validity_rates
    report(4, [
        ("rate in [0.02,0.08]", 0.02 <= rate <= 0.08, f"{rate:.4f}"),
        ("runtime<180s", elapsed < 180, f"{elapsed:.0f}s"),
    ])


# ---------------------------------------------------------------------------
# 5. Merge / rejection rate table, median-heuristic row.
# ---------------------------------------------------------------------------


def _table_campaign(mu_c_minus_mu_t, mode=FusionMode.EQUIVALENCE, seed=7,
                    compare=(Method.PARTIAL_PERMUTATION,), B=500, reps=500,
                    mu_h_minus_mu_c=0.2):
    ttp = TTPConfig(
        fusion=FusionConfig(theta=0.4, num_bootstrap=B, mode=mode),
        causality=CausalityConfig(num_resamples=B),
    )
    scn = Scenario(generator=MeanShift(mu_c_minus_mu_t, mu_h_minus_mu_c),
                   n=100, m=50, l=100, ttp=ttp, replicates=reps,
                   master_seed=seed, compare_methods=compare)
    return run_sweep((scn,), workers=4)[0]


def test_criterion_05_rate_table_median_heuristic_row():
    start = time.perf_counter()
    null_col = _table_campaign(0.0)
    alt_col = _table_campaign(0.4)
    elapsed = time.perf_counter() - start
    checks = [
        ("null merge ~0.307+-0.05",
         abs(null_col.merge_rate - 0.307) <= 0.05, f"{null_col.merge_rate:.3f}"),
        ("alt merge ~0.272+-0.05",
         abs(alt_col.merge_rate - 0.272) <= 0.05, f"{alt_col.merge_rate:.3f}"),
        ("null reject(bootstrap) ~0.064+-0.06",
         abs(null_col.per_method_rates["partial_bootstrap"] - 0.064) <= 0.06,
         f"{null_col.per_method_rates['partial_bootstrap']:.3f}"),
        ("null reject(permutation) ~0.051+-0.06",
         abs(null_col.per_method_rates["partial_permutation"] - 0.051) <= 0.06,
         f"{null_col.per_method_rates['partial_permutation']:.3f}"),
        ("alt reject(bootstrap) ~0.572+-0.07",
         abs(alt_col.per_method_rates["partial_bootstrap"] - 0.572) <= 0.07,
         f"{alt_col.per_method_rates['partial_bootstrap']:.3f}"),
        ("alt reject(permutation) ~0.535+-0.07",
         abs(alt_col.per_method_rates["partial_permutation"] - 0.535) <= 0.07,
         f"{alt_col.per_method_rates['partial_permutation']:.3f}"),
        ("runtime<600s", elapsed < 600, f"{elapsed:.0f}s"),
    ]
    report(5, checks)


# ---------------------------------------------------------------------------
# 6. Classic-TTP Type-I inflation vs equivalence-TTP control.
# ---------------------------------------------------------------------------


def test_criterion_06_classic_inflation_vs_equivalence_control():
    start = time.perf_counter()
    threshold = 0.05 + 3 * stderr(0.05, 500)
    rows = []
    for shift in (0.2, 0.4):
        classic = _table_campaign(0.0, mode=FusionMode.CLASSIC_PERMUTATION,
                                  compare=(), mu_h_minus_mu_c=shift)
        equiv = _table_campaign(0.0, compare=(), mu_h_minus_mu_c=shift)
        rows.append((shift, classic.reject_rate, equiv.reject_rate))
    elapsed = time.perf_counter() - start
    hit = any(
        classic_rate > threshold and 0.02 <= equiv_rate <= 0.08
        for _, classic_rate, equiv_rate in rows
    )
    detail = ", ".join(
        f"shift={s}: classic={c:.3f} equiv={e:.3f}" for s, c, e in rows
    )
    report(6, [
        (f"some shift has classic>{threshold:.3f} and equiv in [0.02,0.08]", hit, detail),
        ("runtime<480s", elapsed < 480, f"{elapsed:.0f}s"),
    ])


# ---------------------------------------------------------------------------
# 7. Power ordering vs the no-fusion test under paired seeds.
# ---------------------------------------------------------------------------


def test_criterion_07_power_ordering_vs_no_fusion():
    start = time.perf_counter()
    fused = _table_campaign(0.4, seed=11, compare=())
    scn = Scenario(generator=MeanShift(0.4, 0.2), n=100, m=50, l=100,
                   ttp=TTPConfig(), replicates=500, master_seed=11)
    nofuse = 0
    for rep in range(500):
        gram = build_gram(KernelSpec(), *draw_arms(scn, rep))
        seed = np.random.SeedSequence([11, rep, 2]).spawn(1)[0]
        nofuse += standard_permutation_test(
            gram,
            CausalityConfig(num_resamples=500, seed=seed, method=Method.STANDARD_PERMUTATION),
        ).reject
    nofuse_rate = nofuse / 500
    elapsed = time.perf_counter() - start
    report(7, [
        ("ttp_power >= nofusion_power + 0.05",
         fused.reject_rate >= nofuse_rate + 0.05,
         f"ttp={fused.reject_rate:.3f} nofusion={nofuse_rate:.3f}"),
        ("runtime<480s", elapsed < 480, f"{elapsed:.0f}s"),
    ])


# ---------------------------------------------------------------------------
# 8. Null-approximation quality orderings.
# ---------------------------------------------------------------------------


def test_criterion_08_null_approximation_orderings():
    start = time.perf_counter()
    scn = Scenario(generator=MeanShift(0.0, 2.0), n=600, m=300, l=300,
                   ttp=TTPConfig(), replicates=300, master_seed=5)
    (rows,) = null_study_sweep(
        ((scn, MeanShift(1.0, 2.0)),), probe_levels=(0.9, 0.95), ref_draws=20,
        methods=(Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION),
    )
    by = {(r.method, r.level): r for r in rows}
    quantile_checks = []
    for level in (0.9, 0.95):
        pb = by[("partial_bootstrap", level)]
        pp = by[("partial_permutation", level)]
        gap_pb = abs(pb.reference_quantile - pb.true_quantile)
        gap_pp = abs(pp.reference_quantile - pp.true_quantile)
        quantile_checks.append((
            f"bootstrap closer at {level}", gap_pb < gap_pp,
            f"|ref-true| {gap_pb:.4f} vs {gap_pp:.4f}",
        ))
    ks_ok = (
        "bootstrap KS < permutation KS",
        by[("partial_bootstrap", 0.9)].ks_distance < by[("partial_permutation", 0.9)].ks_distance,
        f"{by[('partial_bootstrap', 0.9)].ks_distance:.4f} vs "
        f"{by[('partial_permutation', 0.9)].ks_distance:.4f}",
    )

    na_ks = []
    for n in (100, 300, 600):
        scn_n = Scenario(generator=MeanShift(0.0, 2.0), n=n, m=n // 2, l=n,
                         ttp=TTPConfig(), replicates=300, master_seed=5)
        (na_rows,) = null_study_sweep(
            ((scn_n, None),), probe_levels=(0.95,), ref_draws=20, methods=(Method.NORMAL_APPROX,)
        )
        na_ks.append(na_rows[0].ks_distance)
    na_ok = all(na_ks[i + 1] <= na_ks[i] + 0.02 for i in range(2))
    elapsed = time.perf_counter() - start
    report(8, quantile_checks + [
        ks_ok,
        ("normal-approx KS nonincreasing (0.02 slack)", na_ok,
         " -> ".join(f"{k:.4f}" for k in na_ks)),
        ("runtime<900s", elapsed < 900, f"{elapsed:.0f}s"),
    ])


# ---------------------------------------------------------------------------
# 9. Linear-kernel variance blindness.
# ---------------------------------------------------------------------------


def test_criterion_09_linear_kernel_variance_blindness():
    start = time.perf_counter()
    ttp = TTPConfig(
        kernel=KernelSpec(family=KernelFamily.LINEAR),
        fusion=FusionConfig(theta=1.0, num_bootstrap=500),
        causality=CausalityConfig(num_resamples=500),
    )
    rates = []
    for var_shift in (1.5,):
        scn = Scenario(generator=VarShift(1.0, var_shift), n=100, m=50, l=100,
                       ttp=ttp, replicates=300, master_seed=7)
        rates.append((var_shift, run_sweep((scn,), workers=4)[0].reject_rate))
    elapsed = time.perf_counter() - start
    ok = all(0.01 <= r <= 0.09 for _, r in rates)
    report(9, [
        ("reject in [0.01,0.09] at every probed shift", ok,
         ", ".join(f"shift={s}: {r:.3f}" for s, r in rates)),
        ("runtime<300s", elapsed < 300, f"{elapsed:.0f}s"),
    ])


# ---------------------------------------------------------------------------
# 10. Campaign determinism across worker counts.
# ---------------------------------------------------------------------------


def test_criterion_10_determinism_any_worker_count(tmp_path):
    args = [
        "simulate",
        "--set", "replicates=6",
        "--set", "sizes.n=20", "--set", "sizes.m=15", "--set", "sizes.l=18",
        "--set", "fusion.num_bootstrap=80", "--set", "causality.num_resamples=80",
        "--seed", "12",
    ]
    outputs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.txt"
        rc = main(args + ["--out", str(out), "--workers", str(workers)])
        assert rc == 0
        outputs.append((tmp_path / f"w{workers}.txt.tsv").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(10, [
        ("bitwise-identical serialized output for workers 1/2/4", identical,
         f"{len(outputs[0])} bytes"),
    ])


# ---------------------------------------------------------------------------
# 11. Theta-limit identities.
# ---------------------------------------------------------------------------


def test_criterion_11_theta_limit_identities():
    cfg0 = TTPConfig(
        fusion=FusionConfig(theta=0.0, num_bootstrap=200),
        causality=CausalityConfig(num_resamples=200),
    )
    cfg_inf = TTPConfig(
        fusion=FusionConfig(theta=1e6, num_bootstrap=200),
        causality=CausalityConfig(num_resamples=200),
    )
    never_merge = always_merge = exact_match = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        arms = (
            Sample(rng.normal(size=(25, 1)), Arm.CURRENT),
            Sample(0.5 * (seed % 3) + rng.normal(size=(30, 1)), Arm.HISTORICAL),
            Sample(0.4 + rng.normal(size=(35, 1)), Arm.TREATMENT),
        )
        r0 = run_report(*arms, cfg0, master_seed=seed)
        never_merge &= not r0.fusion.merged

        gram = build_gram(KernelSpec(), *arms)
        _, causality_seed = derive_stage_seeds(seed)
        standalone = standard_permutation_test(
            gram,
            CausalityConfig(num_resamples=200, method=Method.STANDARD_PERMUTATION,
                            seed=causality_seed),
        )
        exact_match &= (
            r0.causality.statistic == standalone.statistic
            and r0.causality.critical_value == standalone.critical_value
            and r0.causality.reject == standalone.reject
        )

        r_inf = run_report(*arms, cfg_inf, master_seed=seed)
        always_merge &= r_inf.fusion.merged
    report(11, [
        ("theta=0 never merges", never_merge, "10 datasets"),
        ("theta=0 equals standalone test exactly", exact_match, "10 datasets"),
        ("theta=1e6 always merges", always_merge, "10 datasets"),
    ])
