"""Kernel functions, bandwidth selection, and Gram-matrix construction.

The Gram cache holds two kernel matrices: one over all three arms
(current || historical || treatment) with the bandwidth resolved on the
three-arm pool, and one over current || treatment with the bandwidth
resolved on the two-arm pool.  The no-merge analysis path uses the
latter; everything else uses the former.

A Gram build makes one pass over the squared distances: the three-arm
pairwise distances give the three-arm median and, expanded to a square
matrix, both kernel matrices (the two-arm one is a block slice of it).
Each kernel is applied in place on its distance matrix, which is exactly
symmetric with a zero diagonal, so only the ``x @ x.T`` term of the
linear kernels is mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DegenerateSample, DimensionMismatch, ConfigError


class KernelFamily(str, Enum):
    RBF = "rbf"
    LINEAR = "linear"
    IMQ = "imq"
    LINEAR_PLUS_RBF = "linear+rbf"


#: Families whose mean-embedding map is injective, as ``KernelSpec.characteristic``
#: reports it.  No statistical test consults it, and none warns about it.
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
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigError(f"fixed bandwidth must be > 0, got {self.bandwidth}")
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
    """Observations from one arm, shape (size, d)."""

    points: np.ndarray
    arm: Arm

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatch("sample must be a nonempty (size, d) array")
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
            bandwidth exists, e.g. all points identical).
    """
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    pooled = np.atleast_2d(np.asarray(pooled, dtype=float))
    if pooled.shape[0] < 2:
        raise DegenerateSample("median heuristic needs at least two points")
    return _median_bandwidth(spec, pdist(pooled, metric="sqeuclidean"))


def _median_bandwidth(spec: KernelSpec, pair_sq: np.ndarray) -> float:
    """The bandwidth from condensed pairwise squared distances.

    ``pair_sq`` is reordered in place.  One ``partition`` places the upper
    central order statistic; for an even count the lower one is the
    largest value below it, and the two are averaged as ``np.median``
    averages them.  ``np.median`` partitions at two or three positions,
    which NumPy does several times slower than at one.
    """
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    half = pair_sq.size // 2
    pair_sq.partition(half)
    upper = pair_sq[half]
    med = float(upper if pair_sq.size % 2 else (pair_sq[:half].max() + upper) / 2.0)
    if np.isnan(pair_sq[half:].max()):
        raise DegenerateSample("pairwise distances include NaN; points must be finite")
    if med <= 0.0:
        raise DegenerateSample("median pairwise distance is zero; no valid bandwidth")
    return med


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
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = x if y is None else np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"dimensions differ: {x.shape[1]} vs {y.shape[1]}")
    if spec.family is KernelFamily.LINEAR:
        return x @ y.T
    linear = x @ y.T if spec.family is KernelFamily.LINEAR_PLUS_RBF else None
    return _apply_kernel(spec, bandwidth, cdist(x, y, metric="sqeuclidean"), linear)


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


@dataclass(frozen=True)
class GramCache:
    """Precomputed kernel matrices over the pooled arms.

    ``matrix`` is (N, N) over current || historical || treatment with the
    three-arm bandwidth; ``matrix_nomerge`` is (m+n, m+n) over
    current || treatment with the two-arm bandwidth.  Both are immutable
    and safe to share across resampling workers.
    """

    kernel: KernelSpec
    matrix: np.ndarray
    matrix_nomerge: np.ndarray
    m: int
    l: int
    n: int
    bandwidth_pooled3: Optional[float]
    bandwidth_pooled2: Optional[float]

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)
        self.matrix_nomerge.setflags(write=False)

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
    spec: KernelSpec, current: Sample, historical: Sample, treatment: Sample
) -> GramCache:
    """Build the Gram cache for three dimension-consistent samples.

    Distance-based kernels take one ``pdist`` over the three-arm pool: it
    gives the three-arm median and, through ``squareform``, the full
    squared-distance matrix, whose current || treatment block is the
    two-arm one.  The two-arm median is a ``pdist`` over the two-arm
    pool.  Each kernel is then applied in place.  Only the linear term
    is mirrored, because ``x @ x.T`` need not be exactly symmetric.

    Raises:
        DegenerateSample: if a median bandwidth is zero.
    """
    if not (current.dim == historical.dim == treatment.dim):
        raise DimensionMismatch(
            f"arm dimensions differ: {current.dim}, {historical.dim}, {treatment.dim}"
        )
    m, l, n = current.size, historical.size, treatment.size
    pooled3 = np.vstack([current.points, historical.points, treatment.points])
    pooled2 = np.vstack([current.points, treatment.points])
    bw3 = bw2 = None
    if spec.family is KernelFamily.LINEAR:
        matrix = _mirrored_product(pooled3)
        matrix_nomerge = _mirrored_product(pooled2)
    else:
        pair_sq = pdist(pooled3, metric="sqeuclidean")
        sq3 = squareform(pair_sq)
        bw3 = _median_bandwidth(spec, pair_sq)
        del pair_sq
        bw2 = resolve_bandwidth(spec, pooled2)
        two_arm = np.r_[0:m, m + l : m + l + n]
        sq2 = sq3[np.ix_(two_arm, two_arm)]
        with_linear = spec.family is KernelFamily.LINEAR_PLUS_RBF
        matrix = _apply_kernel(
            spec, bw3, sq3, _mirrored_product(pooled3) if with_linear else None
        )
        matrix_nomerge = _apply_kernel(
            spec, bw2, sq2, _mirrored_product(pooled2) if with_linear else None
        )
    return GramCache(
        kernel=spec,
        matrix=matrix,
        matrix_nomerge=matrix_nomerge,
        m=m,
        l=l,
        n=n,
        bandwidth_pooled3=bw3,
        bandwidth_pooled2=bw2,
    )
