"""Properties that hold by construction, checked with Hypothesis at fixed seeds.

(a) At a fixed seed every decision is monotone in its level, and the
equivalence fusion's also in theta, bit for bit: no reference draw reads
theta or a level.  (b)-(d) are invariances of a whole ``run_report``:
an affine map of the data under the median bandwidth, the row order
within an arm, and the swap of the current and treatment arms.

Arms hold 8-20 points and every test draws 50 resamples.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ttpool.causality import MERGED_METHODS, CausalityConfig, Method, run_causality
from ttpool.estimators import Estimator
from ttpool.fusion import FusionConfig, FusionMode, classic_fusion, equivalence_fusion
from ttpool.kernels import Arm, KernelFamily, KernelSpec, Sample, build_gram
from ttpool.pipeline import TTPConfig, run_report

PROPERTY = settings(max_examples=40, deadline=None, database=None)
RESAMPLES = 50
SEEDS = st.integers(0, 2**32 - 1)
# Two distinct levels in (0, 1), the smaller first.
LEVELS = st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def datasets(draw, dims=(1,)):
    """Current, historical and treatment points: 8-20 normal rows each, arms shifted apart."""
    rng = np.random.default_rng(draw(SEEDS))
    d = draw(st.sampled_from(dims))
    m, l, n = (draw(st.integers(8, 20)) for _ in range(3))
    shift_h, shift_t = (draw(st.sampled_from((0.0, 0.3, 1.0))) for _ in range(2))
    return (
        rng.normal(size=(m, d)),
        shift_h + rng.normal(size=(l, d)),
        shift_t + rng.normal(size=(n, d)),
    )


def samples(current, historical, treatment):
    return (
        Sample(current, Arm.CURRENT),
        Sample(historical, Arm.HISTORICAL),
        Sample(treatment, Arm.TREATMENT),
    )


def config(kernel=KernelSpec(), theta=0.4, mode=FusionMode.EQUIVALENCE, **causality):
    return TTPConfig(
        kernel=kernel,
        fusion=FusionConfig(theta=theta, num_bootstrap=RESAMPLES, mode=mode),
        causality=CausalityConfig(num_resamples=RESAMPLES, **causality),
    )


def near(value, reference, rel):
    """``value`` is within ``rel`` of ``reference``, relative to it; equal infinities are near."""
    return value == reference or abs(value - reference) <= rel * abs(reference)


# ---------------------------------------------------------------------------
# (a) Monotone decisions at a fixed seed.
# ---------------------------------------------------------------------------


@seed(1501)
@PROPERTY
@given(datasets(), SEEDS, st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2).map(sorted), LEVELS)
def test_equivalence_merge_is_monotone_in_theta_and_alpha_f(data, draws, thetas, alphas):
    gram = build_gram(KernelSpec(), *samples(*data))

    def fuse(theta, alpha_f):
        cfg = FusionConfig(theta=theta, alpha_f=alpha_f, num_bootstrap=RESAMPLES, seed=draws)
        return equivalence_fusion(gram, cfg)

    base = fuse(thetas[0], alphas[0])
    wider, looser = fuse(thetas[1], alphas[0]), fuse(thetas[0], alphas[1])
    assert wider.critical_value == base.critical_value  # the bootstrap reads no theta
    assert (looser.statistic, looser.p_value) == (base.statistic, base.p_value)
    if base.merged:
        assert wider.merged and looser.merged


@seed(1502)
@PROPERTY
@given(datasets(), SEEDS, LEVELS, st.floats(0.0, 2.0))
def test_classic_merge_is_monotone_in_alpha_f_and_reads_no_theta(data, draws, alphas, theta):
    gram = build_gram(KernelSpec(), *samples(*data))

    def fuse(alpha_f, theta=0.4):
        mode = FusionMode.CLASSIC_PERMUTATION
        cfg = FusionConfig(theta, alpha_f, num_bootstrap=RESAMPLES, mode=mode, seed=draws)
        return classic_fusion(gram, cfg)

    strict, loose = fuse(alphas[0]), fuse(alphas[1])
    assert (loose.statistic, loose.p_value) == (strict.statistic, strict.p_value)
    if loose.merged:
        assert strict.merged
    assert fuse(alphas[0], theta) == strict


@pytest.mark.parametrize("method", list(Method), ids=lambda method: method.value)
@seed(1503)
@PROPERTY
@given(datasets(), SEEDS, LEVELS, st.sampled_from(list(Estimator)))
def test_rejection_is_monotone_in_alpha(method, data, draws, alphas, estimator):
    gram = build_gram(KernelSpec(), *samples(*data))
    strict, loose = (
        run_causality(gram, CausalityConfig(alpha, RESAMPLES, method, estimator, seed=draws))
        for alpha in alphas
    )
    assert (loose.statistic, loose.p_value) == (strict.statistic, strict.p_value)
    if strict.reject:
        assert loose.reject


# ---------------------------------------------------------------------------
# (b)-(d) Invariances of a whole report.
# ---------------------------------------------------------------------------

# theta, fusion mode and merged method of a report.
REPORTS = st.tuples(
    st.sampled_from((0.2, 0.4, np.inf)),
    st.sampled_from(list(FusionMode)),
    st.sampled_from(MERGED_METHODS),
)


# A linear kernel is not scale-invariant: x -> a x scales it by a^2, and it
# has no bandwidth to absorb that.  So only RBF and IMQ are checked.
@pytest.mark.parametrize("family", [KernelFamily.RBF, KernelFamily.IMQ], ids=lambda f: f.value)
@seed(1504)
@PROPERTY
@given(
    datasets(dims=(1, 2)),
    st.floats(0.1, 10.0),
    st.booleans(),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    REPORTS,
    SEEDS,
)
def test_report_is_affine_invariant_under_the_median_bandwidth(
    family, data, scale, flip, offset, ttp, master
):
    # The median bandwidth scales with a^2, so every kernel value, and so
    # every statistic, stays the same up to rounding.
    a = -scale if flip else scale
    b = np.asarray(offset[: data[0].shape[1]])
    theta, mode, method = ttp
    cfg = config(KernelSpec(family=family), theta, mode, method=method)
    base = run_report(*samples(*data), cfg, master_seed=master)
    moved = run_report(*samples(*(a * arm + b for arm in data)), cfg, master_seed=master)

    assert near(moved.bandwidth_pooled3, a**2 * base.bandwidth_pooled3, 1e-10)
    assert near(moved.bandwidth_pooled2, a**2 * base.bandwidth_pooled2, 1e-10)
    for name in ("d_hat_ch", "d_hat_ct"):
        assert near(getattr(moved.diagnostics, name), getattr(base.diagnostics, name), 1e-10)
    # A decision may flip only where its statistic ties its critical value;
    # a flipped fusion decision also changes the branch.
    for stage in ("fusion", "causality"):
        got, want = getattr(moved, stage), getattr(base, stage)
        assert near(got.statistic, want.statistic, 1e-10), stage
        assert near(got.critical_value, want.critical_value, 1e-10), stage
        if near(want.statistic, want.critical_value, 1e-9):
            return
        decision = "merged" if stage == "fusion" else "reject"
        assert getattr(got, decision) == getattr(want, decision), stage


@seed(1505)
@PROPERTY
@given(datasets(dims=(1, 2)), SEEDS, REPORTS, SEEDS)
def test_report_statistics_do_not_read_row_order(data, order, ttp, master):
    # The resampling draws attach to row positions, so a shuffle changes
    # which rows each draw picks: critical values and decisions may move.
    # The observed statistics, the diagnostics and the bandwidths may not.
    rng = np.random.default_rng(order)
    theta, mode, method = ttp
    cfg = config(theta=theta, mode=mode, method=method)
    base = run_report(*samples(*data), cfg, master_seed=master)
    shuffled_arms = (rng.permutation(arm) for arm in data)
    shuffled = run_report(*samples(*shuffled_arms), cfg, master_seed=master)

    assert near(shuffled.fusion.statistic, base.fusion.statistic, 1e-10)
    for name in ("d_hat_ch", "d_hat_ct"):
        assert near(getattr(shuffled.diagnostics, name), getattr(base.diagnostics, name), 1e-10)
    assert near(shuffled.bandwidth_pooled3, base.bandwidth_pooled3, 1e-12)
    assert near(shuffled.bandwidth_pooled2, base.bandwidth_pooled2, 1e-12)
    if shuffled.fusion.merged == base.fusion.merged:
        assert near(shuffled.causality.statistic, base.causality.statistic, 1e-10)


@seed(1506)
@PROPERTY
@given(datasets(dims=(1, 2)), st.sampled_from(list(Estimator)), SEEDS)
def test_standard_permutation_statistic_is_symmetric_in_current_and_treatment(
    data, estimator, master
):
    # theta = 0 never merges, so each report runs the standard permutation.
    current, historical, treatment = data
    cfg = config(theta=0.0, estimator=estimator)
    base = run_report(*samples(current, historical, treatment), cfg, master_seed=master)
    swapped = run_report(*samples(treatment, historical, current), cfg, master_seed=master)
    assert base.causality.method is swapped.causality.method is Method.STANDARD_PERMUTATION
    assert near(swapped.causality.statistic, base.causality.statistic, 1e-12)
