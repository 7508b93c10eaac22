"""Kernel evaluation, bandwidth selection, and Gram construction."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FAMILIES, oracle_median_sq_distance, random_spec
from ttpool.errors import ConfigError, DegenerateSample, DimensionMismatch
from ttpool.kernels import (
    Arm,
    KernelFamily,
    KernelSpec,
    Sample,
    build_gram,
    eval_kernel,
    kernel_matrix,
    resolve_bandwidth,
)


class TestKernelSpec:
    def test_fixed_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ConfigError):
            KernelSpec(bandwidth=-1.0)

    def test_combined_kernel_requires_epsilon(self):
        with pytest.raises(ConfigError):
            KernelSpec(family=KernelFamily.LINEAR_PLUS_RBF, epsilon=0.0)
        KernelSpec(family=KernelFamily.LINEAR_PLUS_RBF, epsilon=0.5)

    def test_characteristic_flags(self):
        assert KernelSpec(family=KernelFamily.RBF).characteristic
        assert KernelSpec(family=KernelFamily.IMQ).characteristic
        assert not KernelSpec(family=KernelFamily.LINEAR).characteristic


class TestSample:
    def test_points_are_read_only(self):
        s = Sample([[1.0], [2.0]], Arm.CURRENT)
        with pytest.raises(ValueError):
            s.points[0, 0] = 9.0

    def test_one_dimensional_input_promoted(self):
        s = Sample([1.0, 2.0, 3.0], Arm.TREATMENT)
        assert s.points.shape == (1, 3) or s.points.shape == (3, 1)
        assert s.dim in (1, 3)


class TestResolveBandwidth:
    def test_three_point_median_by_hand(self):
        # pairwise squared distances of {0, 1, 3}: {1, 9, 4} -> median 4
        spec = KernelSpec()
        pts = np.array([[0.0], [1.0], [3.0]])
        assert resolve_bandwidth(spec, pts) == pytest.approx(4.0, abs=0)

    def test_fixed_policy_passthrough(self):
        spec = KernelSpec(bandwidth=1.5)
        pts = np.array([[0.0], [100.0]])
        assert resolve_bandwidth(spec, pts) == 1.5

    def test_degenerate_identical_points(self):
        spec = KernelSpec()
        with pytest.raises(DegenerateSample):
            resolve_bandwidth(spec, np.zeros((3, 1)))

    def test_matches_sorting_oracle(self, rng):
        spec = KernelSpec()
        for _ in range(30):
            size = int(rng.integers(2, 60))
            d = int(rng.integers(1, 4))
            pts = rng.normal(size=(size, d))
            got = resolve_bandwidth(spec, pts)
            want = oracle_median_sq_distance(pts)
            assert got == pytest.approx(want, rel=1e-12)

    def test_even_pair_count_averages_central_pair(self):
        # {0, 1, 3, 4}: sq distances {1, 9, 16, 4, 9, 1} sorted
        # {1, 1, 4, 9, 9, 16} -> (4 + 9) / 2
        pts = np.array([[0.0], [1.0], [3.0], [4.0]])
        assert resolve_bandwidth(KernelSpec(), pts) == pytest.approx(6.5, abs=1e-15)

    def test_equals_numpy_median_with_ties(self, rng):
        # Integer points give many tied distances, odd and even pair counts.
        for size in range(2, 40):
            pts = rng.integers(0, 4, size=(size, 1)).astype(float)
            want = float(np.median(pdist(pts, metric="sqeuclidean")))
            if want > 0:
                assert resolve_bandwidth(KernelSpec(), pts) == want

    def test_nan_point_is_degenerate(self):
        pts = np.array([[0.0], [1.0], [3.0], [np.nan]])
        with pytest.raises(DegenerateSample, match="NaN"):
            resolve_bandwidth(KernelSpec(), pts)


class TestEvalKernel:
    def test_rbf_at_zero_distance(self):
        spec = KernelSpec()
        assert eval_kernel(spec, 1.0, [0.7], [0.7]) == 1.0

    def test_linear_dot_product(self):
        spec = KernelSpec(family=KernelFamily.LINEAR)
        assert eval_kernel(spec, None, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_rbf_hand_value(self):
        spec = KernelSpec()
        got = eval_kernel(spec, 2.0, [0.0], [2.0])
        assert got == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_imq_hand_value(self):
        spec = KernelSpec(family=KernelFamily.IMQ)
        got = eval_kernel(spec, 1.0, [0.0], [1.0])
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_kernel(KernelSpec(), 1.0, [0.0], [0.0, 1.0])

    def test_symmetry_all_families(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            assert eval_kernel(spec, spec.bandwidth, x, y) == eval_kernel(
                spec, spec.bandwidth, y, x
            )

    def test_rbf_imq_range(self, rng):
        for fam in (KernelFamily.RBF, KernelFamily.IMQ):
            spec = KernelSpec(family=fam, bandwidth=1.0)
            for _ in range(50):
                x = rng.normal(size=2)
                y = rng.normal(size=2)
                v = eval_kernel(spec, 1.0, x, y)
                assert 0.0 < v <= 1.0
                if np.array_equal(x, y):
                    assert v == 1.0


@given(
    x=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    y=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    bw=st.floats(0.2, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_rbf_symmetry_property(x, y, bw):
    spec = KernelSpec(bandwidth=bw)
    assert eval_kernel(spec, bw, x, y) == eval_kernel(spec, bw, y, x)


class TestBuildGram:
    def test_identical_points_all_ones(self):
        spec = KernelSpec(bandwidth=1.0)
        s = lambda arm: Sample([[0.5]], arm)
        gram = build_gram(
            spec, s(Arm.CURRENT), s(Arm.HISTORICAL), s(Arm.TREATMENT)
        )
        assert np.array_equal(gram.matrix, np.ones((3, 3)))

    def test_linear_products_matrix(self):
        spec = KernelSpec(family=KernelFamily.LINEAR)
        gram = build_gram(
            spec,
            Sample([[1.0]], Arm.CURRENT),
            Sample([[2.0]], Arm.HISTORICAL),
            Sample([[3.0]], Arm.TREATMENT),
        )
        want = np.array([[1.0, 2, 3], [2, 4, 6], [3, 6, 9]])
        assert np.array_equal(gram.matrix, want)

    def test_linear_zero_products_are_positive_zero(self):
        # -0.0 times a positive coordinate is -0.0; the Gram stores +0.0.
        spec = KernelSpec(family=KernelFamily.LINEAR)
        gram = build_gram(
            spec,
            Sample([[-0.0]], Arm.CURRENT),
            Sample([[2.0]], Arm.HISTORICAL),
            Sample([[3.0]], Arm.TREATMENT),
        )
        want = np.array([[0.0, 0, 0], [0, 4, 6], [0, 6, 9]])
        assert np.array_equal(gram.matrix, want)
        assert np.array_equal(gram.matrix_nomerge, want[np.ix_([0, 2], [0, 2])])
        for k in (gram.matrix, gram.matrix_nomerge):
            assert not np.signbit(k).any()

    def test_matrix_exactly_symmetric(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            gram = build_gram(
                spec,
                Sample(rng.normal(size=(5, 2)), Arm.CURRENT),
                Sample(rng.normal(size=(4, 2)), Arm.HISTORICAL),
                Sample(rng.normal(size=(6, 2)), Arm.TREATMENT),
            )
            assert np.array_equal(gram.matrix, gram.matrix.T)
            assert np.array_equal(gram.matrix_nomerge, gram.matrix_nomerge.T)

    def test_entries_match_pointwise_eval(self, rng):
        spec = random_spec(rng)
        c = rng.normal(size=(3, 2))
        h = rng.normal(size=(2, 2))
        t = rng.normal(size=(3, 2))
        gram = build_gram(
            spec,
            Sample(c, Arm.CURRENT),
            Sample(h, Arm.HISTORICAL),
            Sample(t, Arm.TREATMENT),
        )
        pooled = np.vstack([c, h, t])
        for i in range(len(pooled)):
            for j in range(i, len(pooled)):
                want = eval_kernel(spec, gram.bandwidth_pooled3, pooled[i], pooled[j])
                assert gram.matrix[i, j] == want

    def test_dual_bandwidths_resolved_on_their_pools(self, rng):
        spec = KernelSpec()
        c = rng.normal(size=(4, 1))
        h = rng.normal(size=(5, 1)) + 3.0
        t = rng.normal(size=(4, 1))
        gram = build_gram(
            spec,
            Sample(c, Arm.CURRENT),
            Sample(h, Arm.HISTORICAL),
            Sample(t, Arm.TREATMENT),
        )
        assert gram.bandwidth_pooled3 == pytest.approx(
            oracle_median_sq_distance(np.vstack([c, h, t])), rel=1e-12
        )
        assert gram.bandwidth_pooled2 == pytest.approx(
            oracle_median_sq_distance(np.vstack([c, t])), rel=1e-12
        )
        assert gram.bandwidth_pooled3 != gram.bandwidth_pooled2

    def test_dimension_mismatch_across_arms(self):
        with pytest.raises(DimensionMismatch):
            build_gram(
                KernelSpec(),
                Sample([[0.0, 1.0]], Arm.CURRENT),
                Sample([[0.0]], Arm.HISTORICAL),
                Sample([[0.0, 1.0]], Arm.TREATMENT),
            )

    def test_partitions_cover_matrix(self):
        gram = build_gram(
            KernelSpec(bandwidth=1.0),
            Sample(np.zeros((2, 1)), Arm.CURRENT),
            Sample(np.ones((3, 1)), Arm.HISTORICAL),
            Sample(2 * np.ones((4, 1)), Arm.TREATMENT),
        )
        joined = np.concatenate([gram.current, gram.historical, gram.treatment])
        assert np.array_equal(joined, np.arange(9))
        assert gram.size == 9

    def test_matrices_are_read_only(self):
        gram = build_gram(
            KernelSpec(bandwidth=1.0),
            Sample(np.zeros((2, 1)), Arm.CURRENT),
            Sample(np.ones((2, 1)), Arm.HISTORICAL),
            Sample(2 * np.ones((2, 1)), Arm.TREATMENT),
        )
        with pytest.raises(ValueError):
            gram.matrix[0, 0] = 5.0


def test_kernel_matrix_cross_block(rng):
    spec = KernelSpec(bandwidth=0.7)
    x = rng.normal(size=(3, 2))
    y = rng.normal(size=(4, 2))
    k = kernel_matrix(spec, 0.7, x, y)
    assert k.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert k[i, j] == pytest.approx(
                eval_kernel(spec, 0.7, x[i], y[j]), abs=1e-15
            )


def _reference_gram(spec, c, h, t):
    """The two-cdist construction: pdist medians, kernel_matrix, triu mirror."""

    def bandwidth(pooled):
        if spec.family is KernelFamily.LINEAR:
            return None
        if spec.bandwidth is not None:
            return spec.bandwidth
        return float(np.median(pdist(pooled, metric="sqeuclidean")))

    def mirrored(bw, pooled):
        k = kernel_matrix(spec, bw, pooled)
        upper = np.triu(k, 1)
        return upper + upper.T + np.diag(np.diag(k))

    pooled3, pooled2 = np.vstack([c, h, t]), np.vstack([c, t])
    bw3, bw2 = bandwidth(pooled3), bandwidth(pooled2)
    return mirrored(bw3, pooled3), mirrored(bw2, pooled2), bw3, bw2


class TestSinglePassGram:
    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("bandwidth", [None, 0.8])
    def test_equals_reference_construction(self, family, dim, bandwidth):
        rng = np.random.default_rng([dim, int(bandwidth is None)])
        eps = 0.3 if family is KernelFamily.LINEAR_PLUS_RBF else 0.0
        spec = KernelSpec(family=family, bandwidth=bandwidth, epsilon=eps)
        for m, l, n in [(7, 12, 5), (30, 3, 41), (1, 1, 2), (50, 100, 100)]:
            c = rng.normal(size=(m, dim))
            h = 0.5 + 2.0 * rng.normal(size=(l, dim))
            t = rng.normal(size=(n, dim))
            gram = build_gram(
                spec,
                Sample(c, Arm.CURRENT),
                Sample(h, Arm.HISTORICAL),
                Sample(t, Arm.TREATMENT),
            )
            matrix, nomerge, bw3, bw2 = _reference_gram(spec, c, h, t)
            assert np.array_equal(gram.matrix, matrix)
            assert np.array_equal(gram.matrix_nomerge, nomerge)
            assert gram.bandwidth_pooled3 == bw3
            assert gram.bandwidth_pooled2 == bw2

    def test_constant_two_arm_pool_is_degenerate(self, rng):
        # The three-arm median is positive, but every current || treatment
        # pair coincides, so the two-arm median is zero.
        c = np.full((3, 1), 2.0)
        h = rng.normal(size=(20, 1))
        t = np.full((3, 1), 2.0)
        assert np.median(pdist(np.vstack([c, h, t]), metric="sqeuclidean")) > 0
        with pytest.raises(DegenerateSample):
            build_gram(
                KernelSpec(),
                Sample(c, Arm.CURRENT),
                Sample(h, Arm.HISTORICAL),
                Sample(t, Arm.TREATMENT),
            )
