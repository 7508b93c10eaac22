"""Kernel functions, bandwidth selection, and Gram-matrix construction.

The Gram cache holds two kernel matrices: one over all three arms
(current || historical || treatment) with the bandwidth resolved on the
three-arm pool, and one over current || treatment with the bandwidth
resolved on the two-arm pool.  The no-merge analysis path uses the
latter; everything else uses the former.

``build_gram`` builds the three-arm matrix and bandwidth only.  The
two-arm bandwidth and matrix are built on first read, because a merged
analysis never reads the matrix and a campaign replicate that merges
reads neither.

Squared distances come from one NumPy routine, ``_distance_blocks``,
which works in row blocks of about 512 KiB.  Each entry sums
(x_k - y_k)**2 over the dimensions in order, as SciPy's ``sqeuclidean``
does, so every distance, median and kernel value has the bits that
``pdist``/``cdist`` gave.  A pool's Gram is made by one helper: its
blocks cover the upper triangle, written straight into the N×N matrix.
Under the median heuristic their strict upper triangle is collected and
partitioned in place; a fixed bandwidth collects nothing.  The kernel
is then applied block by block, and the columns left of each diagonal
block are copied from the rows above, so the matrix is exactly
symmetric with a zero-distance diagonal.  Only the ``x @ x.T`` term of
the linear kernels is mirrored on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .blas import share
from .errors import (
    ConfigError,
    DataError,
    DegenerateSample,
    DimensionMismatch,
    ZeroBandwidth,
)


class KernelFamily(str, Enum):
    RBF = "rbf"
    LINEAR = "linear"
    IMQ = "imq"
    LINEAR_PLUS_RBF = "linear+rbf"


#: Families whose mean-embedding map is injective, as ``KernelSpec.characteristic``
#: reports it.  No statistical test consults it; the CLI warns on stderr when a
#: run's family is not characteristic.
CHARACTERISTIC = {
    KernelFamily.RBF: True,
    KernelFamily.IMQ: True,
    KernelFamily.LINEAR: False,
    KernelFamily.LINEAR_PLUS_RBF: True,
}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth policy.

    ``bandwidth=None`` selects the median heuristic (median of pairwise
    squared Euclidean distances of the pooled data); a positive number is
    a fixed bandwidth.  ``epsilon`` is the mixing weight of the RBF part
    for the combined linear+RBF kernel and is ignored otherwise.
    """

    family: KernelFamily = KernelFamily.RBF
    bandwidth: Optional[float] = None
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth is not None and not 0 < self.bandwidth < np.inf:
            raise ConfigError(f"fixed bandwidth must be finite and > 0, got {self.bandwidth}")
        if not np.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")
        if self.family is KernelFamily.LINEAR_PLUS_RBF and not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0 for the linear+rbf kernel")

    @property
    def characteristic(self) -> bool:
        return CHARACTERISTIC[self.family]


class Arm(str, Enum):
    CURRENT = "current"
    HISTORICAL = "historical"
    TREATMENT = "treatment"


@dataclass(frozen=True)
class Sample:
    """Observations from one arm, shape (size, d); a 1-D array is (size, 1).

    Raises:
        DimensionMismatch: unless the points form a (size, d) array with
            size >= 1 and d >= 1.
        DataError: if a coordinate is NaN or infinite.
    """

    points: np.ndarray
    arm: Arm

    def __post_init__(self) -> None:
        pts = _as_points(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionMismatch("sample must be a (size, d) array with size >= 1 and d >= 1")
        if not np.isfinite(pts).all():
            raise DataError(f"{Arm(self.arm).value} arm has a non-finite point")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def resolve_bandwidth(spec: KernelSpec, pooled: np.ndarray) -> float:
    """Resolve the bandwidth on a pooled point set.

    Median heuristic: median of all pairwise squared Euclidean distances
    over distinct unordered pairs (even counts average the two central
    order statistics).

    Raises:
        DegenerateSample: if the median distance is zero (no valid
            bandwidth exists, e.g. all points identical) or overflows
            (finite points too far apart to square).
    """
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    pooled = _check_dim(_as_points(pooled))
    if pooled.shape[0] < 2:
        raise DegenerateSample("median heuristic needs at least two points")
    return _median_bandwidth(_pair_distances(pooled))


def _median_bandwidth(pair_sq: np.ndarray) -> float:
    """The bandwidth from the squared distances of all distinct pairs.

    ``pair_sq`` holds one value per unordered pair, in any order, and
    is reordered in place.  One ``partition`` places the upper
    central order statistic; for an even count the lower one is the
    largest value below it, and the two are averaged as ``np.median``
    averages them.  ``np.median`` partitions at two or three positions,
    which NumPy does several times slower than at one.
    """
    half = pair_sq.size // 2
    pair_sq.partition(half)
    upper = pair_sq[half]
    # Python floats: a sum that overflows is inf without a NumPy warning.
    med = float(upper) if pair_sq.size % 2 else (float(pair_sq[:half].max()) + float(upper)) / 2.0
    if np.isnan(pair_sq[half:].max()):
        raise DegenerateSample("pairwise distances include NaN; points must be finite")
    if med <= 0.0:
        raise ZeroBandwidth("median pairwise distance is zero; no valid bandwidth")
    # The RBF kernel divides by 2 * bandwidth, which must stay finite too.
    if 2.0 * med == np.inf:
        raise DegenerateSample(
            "median pairwise distance overflows the float range; these points are too "
            "far apart to square"
        )
    return med


#: Entries in one row block of a distance matrix: 512 KiB of float64, so
#: that the several passes over a block run in cache.
_BLOCK = 1 << 16


def _rows_per_block(cols: int) -> int:
    return max(1, _BLOCK // max(cols, 1))


def _as_points(points) -> np.ndarray:
    """``points`` as a float array of rows; a 1-D array is one column, one point per value."""
    pts = np.asarray(points, dtype=float)
    return pts.reshape(-1, 1) if pts.ndim < 2 else pts


def _check_dim(points: np.ndarray) -> np.ndarray:
    if points.shape[1] < 1:
        raise DimensionMismatch("points need at least one coordinate")
    return points


def _distance_blocks(
    x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None, upper: bool = False
):
    """Yield ``(lo, hi, block)``: the squared distances from rows ``lo:hi`` of ``x`` to ``y``.

    Each entry is ((x_1 - y_1)**2 + (x_2 - y_2)**2) + ..., summed over
    the dimensions in order from zero, as SciPy's ``sqeuclidean`` sums
    them.  ``block`` is ``out[lo:hi]`` when ``out`` is given, else one
    reused buffer block.  With ``upper`` (``y`` is ``x``) it holds
    columns ``lo:`` only: the diagonal block and everything right of it.
    A block has about ``_BLOCK`` entries, and one more buffer block holds
    each later dimension's term.  The coordinates are read from
    transposed copies, so every pass runs over contiguous rows.
    """
    rows, cols = x.shape[0], y.shape[0]
    step = _rows_per_block(cols)
    buffer = np.empty(step * cols) if out is None else None
    term = np.empty(step * cols) if x.shape[1] > 1 else None
    xt = x.T.copy()
    yt = xt if y is x else y.T.copy()
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        first = lo if upper else 0
        if out is None:
            block = buffer[: (hi - lo) * (cols - first)].reshape(hi - lo, cols - first)
        else:
            block = out[lo:hi, first:]
        np.subtract.outer(xt[0, lo:hi], yt[0, first:], out=block)
        np.square(block, out=block)
        for k in range(1, x.shape[1]):
            t = term[: block.size].reshape(block.shape)
            np.subtract.outer(xt[k, lo:hi], yt[k, first:], out=t)
            np.square(t, out=t)
            block += t
        yield lo, hi, block


@lru_cache(maxsize=8)
def _strict_upper(size: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of a size×size block.

    Kept between calls because making it is a visible share of a
    paper-shape build; a mask is at most one block's 64 Ki entries.
    """
    mask = np.less.outer(np.arange(size), np.arange(size))
    mask.setflags(write=False)
    return mask


def _pair_distances(points: np.ndarray, square: Optional[np.ndarray] = None) -> np.ndarray:
    """The squared distance of every pair i < j of ``points``, as one vector.

    The values are those of ``pdist(points, "sqeuclidean")``, grouped by
    row block rather than in its order.  With ``square`` (N×N) the
    blocks of ``_distance_blocks(..., upper=True)`` are written into it,
    leaving its strict lower triangle outside the diagonal blocks unset.
    """
    n = points.shape[0]
    pairs, pos = None, 0
    # Far-apart finite points overflow to inf here; the median check refuses that.
    with np.errstate(over="ignore"):
        for lo, hi, block in _distance_blocks(points, points, square, upper=True):
            if hi - lo == n:  # one block holds every pair
                return block[_strict_upper(n)]
            if pairs is None:
                pairs = np.empty(n * (n - 1) // 2)
            diagonal = block[:, : hi - lo][_strict_upper(hi - lo)]
            pairs[pos : pos + diagonal.size] = diagonal
            pos += diagonal.size
            right = block[:, hi - lo :]
            pairs[pos : pos + right.size].reshape(right.shape)[...] = right
            pos += right.size
    return pairs


def _apply_kernel(
    spec: KernelSpec,
    bandwidth: Optional[float],
    sq: np.ndarray,
    linear: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Overwrite the squared distances ``sq`` with kernel values and return them.

    ``linear`` is the ``x @ y.T`` term that the linear+RBF kernel adds to
    its RBF part.
    """
    fam = spec.family
    if bandwidth is None or not bandwidth > 0:
        raise ConfigError(f"kernel family {fam.value} requires a positive bandwidth")
    if fam is KernelFamily.IMQ:
        sq /= bandwidth
        sq += 1.0
        np.sqrt(sq, out=sq)
        return np.divide(1.0, sq, out=sq)
    sq /= -2.0 * bandwidth
    np.exp(sq, out=sq)
    if fam is KernelFamily.LINEAR_PLUS_RBF:
        sq *= spec.epsilon
        sq += linear
    return sq


def kernel_matrix(
    spec: KernelSpec,
    bandwidth: Optional[float],
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate the kernel between all rows of ``x`` and ``y``."""
    x = _check_dim(_as_points(x))
    y = x if y is None else _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"dimensions differ: {x.shape[1]} vs {y.shape[1]}")
    if spec.family is KernelFamily.LINEAR:
        return x @ y.T
    linear = x @ y.T if spec.family is KernelFamily.LINEAR_PLUS_RBF else None
    out = np.empty((x.shape[0], y.shape[0]))
    for lo, hi, block in _distance_blocks(x, y, out):
        _apply_kernel(spec, bandwidth, block, None if linear is None else linear[lo:hi])
    return out


def eval_kernel(
    spec: KernelSpec, bandwidth: Optional[float], x: np.ndarray, y: np.ndarray
) -> float:
    """Single kernel evaluation k(x, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    return float(kernel_matrix(spec, bandwidth, x[None, :], y[None, :])[0, 0])


def _mirrored_product(x: np.ndarray) -> np.ndarray:
    """``x @ x.T`` with its strict upper triangle copied onto the lower one.

    Adding 0.0 turns every -0.0 (a zero product with a negative factor)
    into +0.0.  The row loop works in place: ``np.triu(k) + np.triu(k, 1).T``
    gives the same bits but is slower and makes two more N×N arrays.
    """
    k = x @ x.T
    for i in range(1, k.shape[0]):
        k[i, :i] = k[:i, i]
    k += 0.0
    return k


def _pool_gram(
    spec: KernelSpec, pooled: np.ndarray, bandwidth: Optional[float] = None
) -> tuple[np.ndarray, Optional[float]]:
    """The kernel matrix of one pool and the bandwidth resolved on it.

    Distance-based kernels take one pass of ``_distance_blocks``, which
    writes the upper row blocks of the squared-distance matrix that the
    kernel overwrites.  For the median heuristic ``_pair_distances``
    makes that pass and collects the pairs, which are partitioned in
    place after it.  A fixed ``spec.bandwidth``, or a ``bandwidth``
    already resolved on this pool, is used as it is, and no pair is
    collected.  The kernel is then applied to those blocks, and then the
    columns left of each diagonal block are copied from the rows above;
    ``blas.share`` runs both passes, so a helper thread takes blocks too.
    The linear kernel has no bandwidth.

    Raises:
        DegenerateSample: if the median bandwidth is zero.
    """
    if spec.family is KernelFamily.LINEAR:
        return _mirrored_product(pooled), None
    n = pooled.shape[0]
    gram = np.empty((n, n))
    if bandwidth is None and spec.bandwidth is None:
        bandwidth = _median_bandwidth(_pair_distances(pooled, gram))
    else:
        bandwidth = float(spec.bandwidth if bandwidth is None else bandwidth)
        with np.errstate(over="ignore"):  # as in _pair_distances
            for _ in _distance_blocks(pooled, pooled, gram, upper=True):
                pass
    linear = _mirrored_product(pooled) if spec.family is KernelFamily.LINEAR_PLUS_RBF else None
    step = _rows_per_block(n)
    blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def apply(block: tuple[int, int]) -> None:
        lo, hi = block
        strip = None if linear is None else linear[lo:hi, lo:]
        _apply_kernel(spec, bandwidth, gram[lo:hi, lo:], strip)

    def mirror(block: tuple[int, int]) -> None:
        lo, hi = block
        gram[lo:hi, :lo] = gram[:lo, lo:hi].T

    share(apply, blocks)
    share(mirror, blocks[1:])
    return gram, bandwidth


@dataclass(frozen=True)
class GramCache:
    """Kernel matrices over the pooled arms.

    ``matrix`` is (N, N) over current || historical || treatment with the
    three-arm bandwidth ``bandwidth_pooled3``; ``points`` are the N pooled
    points it was built from.  ``matrix_nomerge`` is (m+n, m+n) over
    current || treatment with the two-arm bandwidth ``bandwidth_pooled2``.

    First-read rule: the two-arm side is built from ``points`` when it is
    first read and kept on the instance.  Reading ``bandwidth_pooled2``
    resolves the bandwidth without building the matrix; reading
    ``matrix_nomerge`` resolves the bandwidth first if it is not yet
    known.  A degenerate two-arm pool therefore raises
    ``DegenerateSample`` at that first read, not in ``build_gram``.
    ``dataclasses.replace`` makes a new instance, which builds its own
    two-arm side.  Every matrix is read-only and safe to share across
    resampling workers.
    """

    kernel: KernelSpec
    matrix: np.ndarray
    points: np.ndarray
    m: int
    l: int
    n: int
    bandwidth_pooled3: Optional[float]

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)
        self.points.setflags(write=False)

    @property
    def _pooled2(self) -> np.ndarray:
        return np.concatenate([self.points[: self.m], self.points[self.m + self.l :]])

    @cached_property
    def bandwidth_pooled2(self) -> Optional[float]:
        if self.kernel.family is KernelFamily.LINEAR:
            return None
        return resolve_bandwidth(self.kernel, self._pooled2)

    @cached_property
    def matrix_nomerge(self) -> np.ndarray:
        matrix, _ = _pool_gram(self.kernel, self._pooled2, bandwidth=self.bandwidth_pooled2)
        matrix.setflags(write=False)
        return matrix

    @property
    def size(self) -> int:
        return self.m + self.l + self.n

    # Index partitions into ``matrix``.
    @property
    def current(self) -> np.ndarray:
        return np.arange(self.m)

    @property
    def historical(self) -> np.ndarray:
        return np.arange(self.m, self.m + self.l)

    @property
    def treatment(self) -> np.ndarray:
        return np.arange(self.m + self.l, self.size)

    # Contiguous index ranges of ``matrix``; the fused control is current || historical.
    @property
    def current_slice(self) -> slice:
        return slice(0, self.m)

    @property
    def historical_slice(self) -> slice:
        return slice(self.m, self.m + self.l)

    @property
    def treatment_slice(self) -> slice:
        return slice(self.m + self.l, self.size)

    @property
    def fused_slice(self) -> slice:
        return slice(0, self.m + self.l)

    # Contiguous block views of ``matrix``.
    @property
    def k_cc(self) -> np.ndarray:
        return self.matrix[self.current_slice, self.current_slice]

    @property
    def k_ch(self) -> np.ndarray:
        return self.matrix[self.current_slice, self.historical_slice]

    @property
    def k_hh(self) -> np.ndarray:
        return self.matrix[self.historical_slice, self.historical_slice]


def build_gram(
    spec: KernelSpec,
    current: Sample,
    historical: Sample,
    treatment: Sample,
) -> GramCache:
    """Build the Gram cache for three dimension-consistent samples.

    Only the three-arm matrix and bandwidth are built here; the two-arm
    side is built on first read (see ``GramCache``).

    Raises:
        DegenerateSample: if the three-arm median bandwidth is zero.
    """
    if not (current.dim == historical.dim == treatment.dim):
        raise DimensionMismatch(
            f"arm dimensions differ: {current.dim}, {historical.dim}, {treatment.dim}"
        )
    pooled = np.vstack([current.points, historical.points, treatment.points])
    matrix, bandwidth = _pool_gram(spec, pooled)
    return GramCache(
        kernel=spec,
        matrix=matrix,
        points=pooled,
        m=current.size,
        l=historical.size,
        n=treatment.size,
        bandwidth_pooled3=bandwidth,
    )
