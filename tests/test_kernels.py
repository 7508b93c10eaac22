"""Kernel evaluation, bandwidth selection, and Gram construction."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FAMILIES, oracle_median_sq_distance, random_spec
from ttpool import kernels
from ttpool.errors import ConfigError, DataError, DegenerateSample, DimensionMismatch
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
        assert s.points.shape == (3, 1)
        assert s.dim == 1

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_is_a_data_error(self, value):
        with pytest.raises(DataError, match="historical arm has a non-finite point"):
            Sample([[0.0, 1.0], [2.0, value]], Arm.HISTORICAL)

    def test_infinite_point_is_refused_before_the_median(self):
        # An inf point made inf and NaN distances whose median was finite,
        # so a finite Gram was built from it without a word.
        pts = np.array([[0.0], [1.0], [3.0], [np.inf], [4.0], [6.0]])
        assert np.isfinite(np.median(pdist(pts, metric="sqeuclidean")))
        with pytest.raises(DataError, match="treatment"):
            Sample(pts, Arm.TREATMENT)

    def test_zero_width_sample_is_a_dimension_mismatch(self):
        # (n, 0) arms under a fixed bandwidth made an all-ones Gram.
        with pytest.raises(DimensionMismatch, match="d >= 1"):
            Sample(np.empty((3, 0)), Arm.CURRENT)

    def test_zero_width_raw_points_are_refused(self):
        with pytest.raises(DimensionMismatch):
            kernel_matrix(KernelSpec(), 1.0, np.empty((3, 0)))
        with pytest.raises(DimensionMismatch):
            resolve_bandwidth(KernelSpec(), np.empty((3, 0)))

    def test_one_dimensional_raw_points_are_a_column(self):
        flat = np.array([0.0, 1.0, 3.0, 7.0])
        column = flat[:, None]
        assert resolve_bandwidth(KernelSpec(), flat) == resolve_bandwidth(KernelSpec(), column)
        want = kernel_matrix(KernelSpec(), 0.7, column, column[:2])
        assert want.shape == (4, 2)
        assert np.array_equal(kernel_matrix(KernelSpec(), 0.7, flat, flat[:2]), want)


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

    @pytest.mark.parametrize(
        "pts",
        [
            # Finite points whose squared distances exceed the float range.
            [[0.0], [1e200], [-1e200], [2e200]],
            # A finite median of about 1.2e308, twice which the RBF kernel divides by.
            [[0.0], [1.1e154], [2.2e154]],
        ],
        ids=["median-inf", "twice-median-inf"],
    )
    def test_overflowing_median_is_degenerate(self, pts):
        with pytest.raises(DegenerateSample, match="overflows the float range"):
            resolve_bandwidth(KernelSpec(), np.array(pts))


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

    def test_replace_builds_its_own_two_arm_side(self, rng):
        # The two-arm side is cached on the instance, not a field, so a
        # replaced cache does not carry it across.
        gram = build_gram(
            KernelSpec(),
            Sample(rng.normal(size=(4, 1)), Arm.CURRENT),
            Sample(rng.normal(size=(5, 1)), Arm.HISTORICAL),
            Sample(rng.normal(size=(6, 1)), Arm.TREATMENT),
        )
        nomerge, bw2 = gram.matrix_nomerge, gram.bandwidth_pooled2
        replaced = dataclasses.replace(gram, matrix=np.zeros_like(gram.matrix))
        assert "matrix_nomerge" not in vars(replaced)
        assert "bandwidth_pooled2" not in vars(replaced)
        assert replaced.matrix_nomerge is not nomerge
        assert np.array_equal(replaced.matrix_nomerge, nomerge)
        assert replaced.bandwidth_pooled2 == bw2

    def test_matrices_are_read_only(self):
        gram = build_gram(
            KernelSpec(bandwidth=1.0),
            Sample(np.zeros((2, 1)), Arm.CURRENT),
            Sample(np.ones((2, 1)), Arm.HISTORICAL),
            Sample(2 * np.ones((2, 1)), Arm.TREATMENT),
        )
        for k in (gram.matrix, gram.matrix_nomerge, gram.points):
            with pytest.raises(ValueError):
                k[0, 0] = 5.0


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

    @pytest.mark.parametrize(
        "family", [KernelFamily.RBF, KernelFamily.IMQ, KernelFamily.LINEAR_PLUS_RBF]
    )
    def test_median_as_fixed_bandwidth_gives_the_median_build(self, family, rng):
        eps = 0.3 if family is KernelFamily.LINEAR_PLUS_RBF else 0.0
        arms = [Sample(rng.normal(size=(size, 3)), arm) for size, arm in zip((300, 40, 500), Arm)]
        median = build_gram(KernelSpec(family=family, epsilon=eps), *arms)
        fixed_spec = KernelSpec(family=family, bandwidth=median.bandwidth_pooled3, epsilon=eps)
        fixed = build_gram(fixed_spec, *arms)
        assert fixed.bandwidth_pooled3 == median.bandwidth_pooled3
        assert fixed.matrix.tobytes() == median.matrix.tobytes()

    def test_fixed_bandwidth_build_collects_no_pair(self, rng):
        # No median is resolved, so the build holds the kept 1200×1200
        # matrix and a distance block or two, not also the n(n-1)/2 pair
        # distances (half the matrix again).
        arms = [Sample(rng.normal(size=(400, 2)), arm) for arm in Arm]
        tracemalloc.start()
        try:
            gram = build_gram(KernelSpec(bandwidth=1), *arms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * gram.matrix.nbytes
        assert type(gram.bandwidth_pooled3) is float and gram.bandwidth_pooled3 == 1.0

    def test_constant_two_arm_pool_is_degenerate(self, rng):
        # The three-arm median is positive, but every current || treatment
        # pair coincides, so the two-arm median is zero.  The two-arm side
        # is built on first read, so whichever of its attributes is read
        # first raises, and so does every later read.
        c = np.full((3, 1), 2.0)
        h = rng.normal(size=(20, 1))
        t = np.full((3, 1), 2.0)
        assert np.median(pdist(np.vstack([c, h, t]), metric="sqeuclidean")) > 0
        for first in ("bandwidth_pooled2", "matrix_nomerge"):
            gram = build_gram(
                KernelSpec(),
                Sample(c, Arm.CURRENT),
                Sample(h, Arm.HISTORICAL),
                Sample(t, Arm.TREATMENT),
            )
            assert gram.bandwidth_pooled3 > 0
            for name in (first, "bandwidth_pooled2", "matrix_nomerge"):
                with pytest.raises(DegenerateSample, match="median pairwise distance is zero"):
                    getattr(gram, name)


_DISTANCE_FAMILIES = [f for f in KernelFamily if f is not KernelFamily.LINEAR]


def _spec(family):
    return KernelSpec(family=family, epsilon=0.3 if family is KernelFamily.LINEAR_PLUS_RBF else 0.0)


class TestSciPyOracle:
    """Distances, medians and kernels match SciPy's ``pdist``/``cdist`` bit for bit.

    The package computes distances in NumPy row blocks, summing
    (x_k - y_k)**2 over the dimensions in SciPy's order.  Sizes 250 and
    1500 take one and several row blocks.
    """

    @pytest.fixture(params=[1, 2, 3, 7], ids=lambda d: f"d{d}")
    def dim(self, request):
        return request.param

    @pytest.fixture(params=[2, 3, 250, 1500], ids=lambda n: f"n{n}")
    def points(self, request, dim):
        rng = np.random.default_rng([request.param, dim])
        return rng.normal(size=(request.param, dim)) * rng.uniform(0.1, 10.0, size=dim)

    def test_squared_distances(self, points):
        n = len(points)
        want = pdist(points, metric="sqeuclidean")
        square = np.empty((n, n))
        pairs = kernels._pair_distances(points, square)
        assert np.array_equal(np.sort(pairs), np.sort(want))
        assert np.array_equal(square[np.triu_indices(n, 1)], want)
        assert np.array_equal(np.sort(kernels._pair_distances(points)), np.sort(want))

    def test_median_and_bandwidths(self, points):
        want = float(np.median(pdist(points, metric="sqeuclidean")))
        assert kernels._median_bandwidth(kernels._pair_distances(points)) == want
        assert resolve_bandwidth(KernelSpec(), points) == want
        assert kernels._pool_gram(KernelSpec(), points)[1] == want

    @pytest.mark.parametrize("family", _DISTANCE_FAMILIES)
    def test_pool_gram(self, points, family):
        spec = _spec(family)
        matrix, bandwidth = kernels._pool_gram(spec, points)
        linear = points @ points.T if family is KernelFamily.LINEAR_PLUS_RBF else None
        if linear is not None:
            linear = np.triu(linear) + np.triu(linear, 1).T + 0.0
        sq = squareform(pdist(points, metric="sqeuclidean"))
        assert np.array_equal(matrix, kernels._apply_kernel(spec, bandwidth, sq, linear))

    @pytest.mark.parametrize("family", _DISTANCE_FAMILIES)
    def test_kernel_matrix_between_two_sets(self, points, family):
        rng = np.random.default_rng(len(points))
        other = rng.normal(size=(len(points) // 2 + 1, points.shape[1]))
        spec = _spec(family)
        linear = points @ other.T if family is KernelFamily.LINEAR_PLUS_RBF else None
        want = kernels._apply_kernel(spec, 0.7, cdist(points, other, metric="sqeuclidean"), linear)
        assert np.array_equal(kernel_matrix(spec, 0.7, points, other), want)

    @pytest.mark.parametrize("size", [3, 4, 20, 23, 300])
    def test_tied_integer_points(self, size):
        # 3 and 23 points have an odd number of pairs; 4, 20 and 300 an even one.
        rng = np.random.default_rng(size)
        points = rng.integers(0, 3, size=(size, 2)).astype(float)
        points[:2] = [[0.0, 0.0], [2.0, 1.0]]
        want = pdist(points, metric="sqeuclidean")
        assert np.array_equal(np.sort(kernels._pair_distances(points)), np.sort(want))
        assert resolve_bandwidth(KernelSpec(), points) == float(np.median(want))
