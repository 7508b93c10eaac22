"""MMD estimators against brute-force oracles and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_mmd2_u, oracle_mmd2_v, population_mmd2_gaussian_rbf, random_spec
from ttpool import estimators
from ttpool.blas import helper_thread, one_blas_thread
from ttpool.errors import IndexOutOfRange, SampleTooSmall
from ttpool.estimators import (
    PRODUCT_ROWS,
    Estimator,
    batched_quad,
    bootstrap_counts,
    mmd2,
    mmd2_slices,
    mmd2_v,
    permutation_masks,
    product_row_dots,
)
from ttpool.kernels import KernelFamily, KernelSpec, kernel_matrix


def _full_matrix(spec, pts):
    return kernel_matrix(spec, spec.bandwidth, pts, pts)


class TestVStatistic:
    def test_identical_index_sets_zero(self, rng):
        spec = random_spec(rng)
        pts = rng.normal(size=(6, 2))
        k = _full_matrix(spec, pts)
        idx = np.array([0, 2, 4])
        assert abs(mmd2_v(k, idx, idx).squared) < 1e-12

    def test_two_single_points_closed_form(self, rng):
        spec = KernelSpec(bandwidth=1.0)
        pts = rng.normal(size=(2, 1))
        k = _full_matrix(spec, pts)
        want = 2.0 - 2.0 * np.exp(-((pts[0, 0] - pts[1, 0]) ** 2) / 2.0)
        got = mmd2_v(k, [0], [1]).squared
        assert got == pytest.approx(want, abs=1e-12)

    def test_linear_kernel_mean_difference_toy(self):
        # points 1, 2, 3 in R^1; a = {1, 3}, b = {2, 2}: means equal -> 0
        spec = KernelSpec(family=KernelFamily.LINEAR)
        pts = np.array([[1.0], [2.0], [3.0]])
        k = _full_matrix(spec, pts)
        assert abs(mmd2_v(k, [0, 2], [1, 1]).squared) < 1e-12

    def test_symmetry_exact(self, rng):
        spec = random_spec(rng)
        pts = rng.normal(size=(8, 2))
        k = _full_matrix(spec, pts)
        a = rng.integers(0, 8, size=4)
        b = rng.integers(0, 8, size=5)
        assert mmd2_v(k, a, b).squared == mmd2_v(k, b, a).squared

    def test_duplicates_contribute_with_multiplicity(self, rng):
        spec = random_spec(rng)
        pts = rng.normal(size=(4, 1))
        k = _full_matrix(spec, pts)
        got = mmd2_v(k, [0, 0, 1], [2, 3]).squared
        want = oracle_mmd2_v(
            spec, spec.bandwidth, [pts[0], pts[0], pts[1]], [pts[2], pts[3]]
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegativity_mass_property(self, rng):
        spec = KernelSpec(bandwidth=1.0)
        pts = rng.normal(size=(12, 2))
        k = _full_matrix(spec, pts)
        for _ in range(10_000):
            a = rng.integers(0, 12, size=rng.integers(1, 8))
            b = rng.integers(0, 12, size=rng.integers(1, 8))
            assert mmd2_v(k, a, b).squared >= -1e-12

    def test_index_out_of_range(self, rng):
        k = _full_matrix(KernelSpec(bandwidth=1.0), rng.normal(size=(3, 1)))
        with pytest.raises(IndexOutOfRange):
            mmd2_v(k, [0, 3], [1])
        with pytest.raises(IndexOutOfRange):
            mmd2_v(k, [], [1])

    def test_mask_or_float_indices_refused(self, rng):
        # Cast to integers, a mask reads positions 1, 0, 1, 0 and floats truncate.
        k = _full_matrix(KernelSpec(bandwidth=1.0), rng.normal(size=(12, 1)))
        for a in ([True, False, True, False], [0.9, 2.2]):
            with pytest.raises(IndexOutOfRange, match="integer dtype"):
                mmd2(k, a, [4, 5])
        with pytest.raises(IndexOutOfRange, match="nonempty"):
            mmd2(k, [], [4, 5])


class TestUStatistic:
    def test_all_same_point_zero(self):
        spec = KernelSpec(bandwidth=1.0)
        pts = np.array([[0.3], [0.3]])
        k = _full_matrix(spec, pts)
        assert abs(mmd2(k, [0, 1], [0, 1], Estimator.USTAT).squared) < 1e-12

    def test_matches_loop_oracle_random_sets(self, rng):
        for _ in range(100):
            spec = random_spec(rng)
            pts = rng.normal(size=(10, 2))
            k = _full_matrix(spec, pts)
            a = rng.integers(0, 10, size=5)
            b = rng.integers(0, 10, size=5)
            got = mmd2(k, a, b, Estimator.USTAT).squared
            want = oracle_mmd2_u(spec, spec.bandwidth, pts[a], pts[b])
            assert got == pytest.approx(want, abs=1e-12)

    def test_negative_values_occur_under_the_null(self, rng):
        spec = KernelSpec(bandwidth=1.0)
        negatives = 0
        for _ in range(200):
            pts = rng.normal(size=(100, 1))
            k = _full_matrix(spec, pts)
            if mmd2(k, np.arange(50), np.arange(50, 100), Estimator.USTAT).squared < 0:
                negatives += 1
        assert negatives > 0

    def test_sample_too_small(self, rng):
        k = _full_matrix(KernelSpec(bandwidth=1.0), rng.normal(size=(3, 1)))
        with pytest.raises(SampleTooSmall):
            mmd2(k, [0], [1, 2], Estimator.USTAT)

    def test_u_v_gap_shrinks_with_sample_size(self, rng):
        spec = KernelSpec(bandwidth=1.0)
        pts = rng.normal(size=(800, 1))
        k = _full_matrix(spec, pts)
        gaps = []
        for size in (25, 100, 400):
            a = np.arange(size)
            b = np.arange(400, 400 + size)
            gaps.append(abs(mmd2_v(k, a, b).squared - mmd2(k, a, b, Estimator.USTAT).squared))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 25 / 400 * gaps[0] * 5  # roughly O(1/n)


class TestFused:
    def test_empty_historical_reduces_to_plain(self, rng):
        spec = random_spec(rng)
        pts = rng.normal(size=(8, 1))
        k = _full_matrix(spec, pts)
        got = mmd2(k, [0, 1, 2] + [], [5, 6, 7]).squared
        want = mmd2_v(k, [0, 1, 2], [5, 6, 7]).squared
        assert got == want

    def test_fused_copy_of_other_is_zero(self, rng):
        spec = random_spec(rng)
        pts = rng.normal(size=(6, 1))
        k = _full_matrix(spec, pts)
        got = mmd2(k, [0, 1, 2] + [0, 1, 2], [0, 1, 2, 0, 1, 2]).squared
        assert abs(got) < 1e-12

    def test_matches_hand_expanded_mixture(self, rng):
        # m = l = 2 fused against n = 3, linear kernel: expand the
        # mixture (m/(m+l)) Qc + (l/(m+l)) Qh by brute-force sums.
        spec = KernelSpec(family=KernelFamily.LINEAR)
        pts = rng.normal(size=(7, 1))
        k = _full_matrix(spec, pts)
        cur, hist, other = [0, 1], [2, 3], [4, 5, 6]
        got = mmd2(k, cur + hist, other).squared
        fused_pts = [pts[i] for i in cur + hist]
        other_pts = [pts[i] for i in other]
        want = oracle_mmd2_v(spec, None, fused_pts, other_pts)
        assert got == pytest.approx(want, abs=1e-12)

    def test_fused_equals_explicit_weighting(self, rng):
        # Concatenation equals the size-weighted mixture of embeddings.
        spec = KernelSpec(bandwidth=1.0)
        pts = rng.normal(size=(9, 1))
        k = _full_matrix(spec, pts)
        cur, hist, other = [0, 1, 2], [3, 4], [5, 6, 7, 8]
        m, l = len(cur), len(hist)
        w_c, w_h = m / (m + l), l / (m + l)
        k_cc = k[np.ix_(cur, cur)].mean()
        k_ch = k[np.ix_(cur, hist)].mean()
        k_hh = k[np.ix_(hist, hist)].mean()
        k_co = k[np.ix_(cur, other)].mean()
        k_ho = k[np.ix_(hist, other)].mean()
        k_oo = k[np.ix_(other, other)].mean()
        want = (
            w_c**2 * k_cc
            + 2 * w_c * w_h * k_ch
            + w_h**2 * k_hh
            + k_oo
            - 2 * (w_c * k_co + w_h * k_ho)
        )
        got = mmd2(k, cur + hist, other).squared
        assert got == pytest.approx(want, abs=1e-12)


class TestSlices:
    def test_overlapping_ranges_equal_index_arrays(self, rng):
        spec = random_spec(rng)
        k = _full_matrix(spec, rng.normal(size=(9, 2)))
        for estimator in Estimator:
            got = mmd2_slices(k, slice(0, 6), slice(2, 5), estimator).squared
            want = mmd2(k, np.arange(6), np.arange(2, 5), estimator).squared
            assert got == pytest.approx(want, abs=1e-12)

    def test_bad_ranges_rejected(self, rng):
        k = _full_matrix(KernelSpec(bandwidth=1.0), rng.normal(size=(6, 1)))
        for bad in (slice(0, 7), slice(3, 3), slice(-1, 2), slice(0, 4, 2)):
            with pytest.raises(IndexOutOfRange):
                mmd2_slices(k, bad, slice(0, 2))

    @pytest.mark.parametrize("bad", [slice(None, 2), slice(2, None), slice(None)])
    def test_open_ranges_rejected(self, rng, bad):
        # Each side needs an explicit start and stop; an open end once
        # escaped as a TypeError from the range comparison.
        k = _full_matrix(KernelSpec(bandwidth=1.0), rng.normal(size=(6, 1)))
        with pytest.raises(IndexOutOfRange, match="nonempty range"):
            mmd2_slices(k, bad, slice(2, 4))
        with pytest.raises(IndexOutOfRange, match="nonempty range"):
            mmd2_slices(k, slice(2, 4), bad)

    def test_ustat_needs_two_points(self, rng):
        k = _full_matrix(KernelSpec(bandwidth=1.0), rng.normal(size=(4, 1)))
        with pytest.raises(SampleTooSmall):
            mmd2_slices(k, slice(0, 1), slice(1, 4), Estimator.USTAT)


class TestPopulationOracle:
    """Block-sum estimates against the closed-form MMD^2 of N(0.5, 1) vs N(0, 1).

    Seeds, sizes, replicate counts and bounds were fixed before the first run.
    """

    BANDWIDTH, SHIFT = 1.0, 0.5
    SIZES, REPLICATES = (50, 200, 800), (400, 100, 40)

    @pytest.fixture(scope="class")
    def estimates(self):
        spec = KernelSpec(bandwidth=self.BANDWIDTH)
        out = {}
        for size, reps in zip(self.SIZES, self.REPLICATES):
            a, b = slice(0, size), slice(size, 2 * size)
            draws = {Estimator.VSTAT: [], Estimator.USTAT: []}
            for rep in range(reps):
                rng = np.random.default_rng([2718, size, rep])
                shifted = self.SHIFT + rng.normal(size=(size, 1))
                pts = np.vstack([shifted, rng.normal(size=(size, 1))])
                k = kernel_matrix(spec, spec.bandwidth, pts)
                for estimator, values in draws.items():
                    values.append(mmd2_slices(k, a, b, estimator).squared)
            out[size] = {estimator: np.array(values) for estimator, values in draws.items()}
        return out

    def test_ustat_mean_within_four_standard_errors(self, estimates):
        want = population_mmd2_gaussian_rbf(self.SHIFT, self.BANDWIDTH)
        for size in self.SIZES:
            u = estimates[size][Estimator.USTAT]
            se = u.std(ddof=1) / np.sqrt(u.size)
            assert abs(u.mean() - want) <= 4.0 * se, size

    def test_vstat_error_shrinks_as_sizes_grow(self, estimates):
        want = population_mmd2_gaussian_rbf(self.SHIFT, self.BANDWIDTH)
        rmse = [
            np.sqrt(np.mean((estimates[size][Estimator.VSTAT] - want) ** 2))
            for size in self.SIZES
        ]
        assert rmse[0] > rmse[1] > rmse[2]


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_vstat_oracle_agreement_property(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    size = int(rng.integers(2, 10))
    pts = rng.normal(size=(size, int(rng.integers(1, 3))))
    k = _full_matrix(spec, pts)
    a = rng.integers(0, size, size=int(rng.integers(1, 6)))
    b = rng.integers(0, size, size=int(rng.integers(1, 6)))
    got = mmd2_v(k, a, b).squared
    want = oracle_mmd2_v(spec, spec.bandwidth, pts[a], pts[b])
    assert got == pytest.approx(want, abs=1e-12)


class TestResamplingHelpers:
    def test_batched_quad_matches_loop(self, rng):
        k = rng.normal(size=(6, 7))
        u = rng.normal(size=(4, 6))
        v = rng.normal(size=(4, 7))
        got = batched_quad(k, u, v)
        for b in range(4):
            assert got[b] == pytest.approx(u[b] @ k @ v[b], rel=1e-12)

    def test_bootstrap_counts_sum_to_draws(self, rng):
        for draws, size in [(13, 5), (1, 1), (50, 50), (100, 50), (3, 40)]:
            counts = bootstrap_counts(rng, draws, size, batch=50)
            assert counts.dtype == np.float64
            assert counts.shape == (50, size)
            assert (counts >= 0).all()
            assert np.array_equal(counts, np.round(counts))
            assert np.array_equal(counts.sum(axis=1), np.full(50, float(draws)))

    def test_bootstrap_counts_of_no_row(self, rng):
        assert bootstrap_counts(rng, 7, 5, batch=0).shape == (0, 5)

    def test_permutation_masks_row_sums(self, rng):
        masks = permutation_masks(rng, total=9, size_a=4, batch=40)
        assert masks.shape == (40, 9)
        assert np.array_equal(masks.sum(axis=1), np.full(40, 4.0))
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_permutation_masks_vary(self, rng):
        masks = permutation_masks(rng, total=10, size_a=5, batch=30)
        assert len({tuple(row) for row in masks}) > 1

    @pytest.mark.parametrize(
        "total,size_a,batch",
        [(1, 1, 5), (5, 0, 4), (9, 1, 40), (9, 9, 40), (10, 4, 50), (150, 50, 64), (300, 299, 16)],
    )
    def test_permutation_masks_match_full_sort_reference(self, total, size_a, batch):
        def reference(rng):
            order = np.argsort(rng.random((batch, total)), axis=1)
            masks = np.zeros((batch, total))
            masks[np.arange(batch)[:, None], order[:, :size_a]] = 1.0
            return masks

        for seed in range(20):
            got = permutation_masks(np.random.default_rng(seed), total, size_a, batch)
            want = reference(np.random.default_rng(seed))
            assert np.array_equal(got, want)
            assert np.array_equal(got.sum(axis=1), np.full(batch, float(size_a)))

    @pytest.mark.parametrize("tied_value", [0.0, 0.5])
    def test_permutation_masks_tied_uniforms_keep_group_size(self, tied_value):
        class TiedUniforms:
            def random(self, shape):
                r = np.random.default_rng(3).random(shape)
                r[:, : shape[1] // 2] = tied_value
                return r

        masks = permutation_masks(TiedUniforms(), total=12, size_a=4, batch=25)
        assert np.array_equal(masks.sum(axis=1), np.full(25, 4.0))
        assert set(np.unique(masks)) <= {0.0, 1.0}

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_permutation_masks_across_row_blocks(self, blocks, extra):
        # 250 slots give blocks of 262 rows; the batch ends one row short
        # of, on, or one row past a block boundary.
        total = 250
        rows = estimators._COUNT_BLOCK // total
        batch = blocks * rows + extra

        def one_shot(rng, size_a):
            r = rng.random((batch, total))
            if size_a == 0:
                return np.zeros((batch, total), bool)
            return r <= np.partition(r, size_a - 1, axis=1)[:, size_a - 1 : size_a]

        for size_a in (0, 1, total - 1, total):
            got_rng, want_rng = np.random.default_rng(size_a), np.random.default_rng(size_a)
            got = permutation_masks(got_rng, total, size_a, batch, bool)
            assert got.dtype == bool
            assert np.array_equal(got, one_shot(want_rng, size_a))
            # Every call takes batch * total uniforms, size_a = 0 too.
            assert got_rng.random() == want_rng.random()

    @staticmethod
    def _one_flat_bincount(rng, draws, size, batch):
        """The counts as one int64 ``integers`` call and one flat ``bincount`` make them."""
        picks = rng.integers(0, size, (batch, draws))
        picks += size * np.arange(batch)[:, None]
        return np.bincount(picks.ravel(), minlength=batch * size).reshape(batch, size)

    @pytest.mark.parametrize(
        "draws,size,batch",
        [(50, 50, 1000), (100, 50, 1000), (100, 100, 1000), (1000, 1000, 1000), (1000, 500, 600)],
        ids=["paper-m", "paper-n", "paper-l", "1000x1000", "large-n"],
    )
    def test_bootstrap_counts_equal_one_flat_bincount(self, draws, size, batch):
        # Row blocks of picks give the counts of one draw of every pick.
        for seed in range(3):
            want = self._one_flat_bincount(np.random.default_rng(seed), draws, size, batch)
            for dtype in (float, np.uint16):
                got = bootstrap_counts(np.random.default_rng(seed), draws, size, batch, dtype)
                assert got.dtype == dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [60, 21 * 7], ids=["3-rows", "7-rows"])
    def test_bootstrap_counts_in_many_blocks(self, monkeypatch, block):
        # Blocks of 3 or 7 rows, the last one short and some of an odd
        # number of picks, continue one stream.
        want = self._one_flat_bincount(np.random.default_rng(9), 41, 20, 100)
        monkeypatch.setattr(estimators, "_COUNT_BLOCK", block)
        assert np.array_equal(bootstrap_counts(np.random.default_rng(9), 41, 20, 100), want)

    @pytest.mark.parametrize("batch", [1, PRODUCT_ROWS, 2 * PRODUCT_ROWS + 76])
    def test_product_row_dots_equal_one_product_on_either_schedule(self, rng, batch):
        left = rng.integers(0, 4, (batch, 60)).astype(float)
        right = rng.normal(size=(60, 70))
        other = rng.normal(size=(batch, 70))
        with one_blas_thread():
            product = left @ right
            want = [np.einsum("bq,bq->b", product, other), product.sum(axis=1)]
            serial = product_row_dots(left, right, other, totals=True)
            with helper_thread():
                shared = product_row_dots(left, right, other, totals=True)
        for got in (serial, shared):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("columns", [250, 1000])
    def test_product_row_dots_same_bytes_on_either_schedule(self, columns):
        # Rows of one block may round differently in a GEMM of another row
        # count, so only the fixed partition, not the schedule, sets the bits.
        rng = np.random.default_rng(columns)
        x = rng.standard_normal((columns, 1))
        k = np.exp(-((x - x.T) ** 2) / 2)
        u = rng.integers(0, 3, (1000, columns)).astype(np.uint8)
        with one_blas_thread():
            serial = product_row_dots(u, k, u, totals=True)
            with helper_thread():
                shared = product_row_dots(u, k, u, totals=True)
        assert all(s.tobytes() == h.tobytes() for s, h in zip(serial, shared))

    def test_bootstrap_counts_multinomial_moments(self):
        # multinomial(draws; 1/s, ...): mean draws/s, variance
        # draws(1/s)(1-1/s), covariance -draws/s^2.  Here these are 5,
        # 4.17 and -0.83; their standard errors over B rows are about
        # 0.005, 0.013 and 0.010, and each tolerance is at least 5 of them.
        draws, size, batch = 30, 6, 200_000
        counts = bootstrap_counts(np.random.default_rng(20240817), draws, size, batch)
        p = 1.0 / size
        mean, var, cov = draws * p, draws * p * (1 - p), -draws * p * p
        emp_cov = np.cov(counts, rowvar=False)
        off_diag = emp_cov[~np.eye(size, dtype=bool)]
        assert np.abs(counts.mean(axis=0) - mean).max() < 0.03
        assert np.abs(np.diag(emp_cov) - var).max() < 0.08
        assert np.abs(off_diag - cov).max() < 0.05


def test_dispatch_selects_estimator(rng):
    spec = KernelSpec(bandwidth=1.0)
    pts = rng.normal(size=(6, 1))
    k = _full_matrix(spec, pts)
    a, b = np.arange(3), np.arange(3, 6)
    assert mmd2(k, a, b, Estimator.VSTAT).squared == mmd2_v(k, a, b).squared
    want_u = oracle_mmd2_u(spec, spec.bandwidth, pts[a], pts[b])
    assert mmd2(k, a, b, Estimator.USTAT).squared == pytest.approx(want_u, abs=1e-12)
