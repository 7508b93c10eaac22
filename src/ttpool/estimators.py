"""Squared-MMD estimators over index subsets of a Gram matrix.

Every estimator takes a :class:`~ttpool.kernels.GramCache` (its
three-arm matrix is used) or a raw square kernel matrix.  ``mmd2_slices``
compares two contiguous ranges by summing views, with no copy; each arm
of the Gram cache, and the fused control current || historical, is such
a range.  ``mmd2`` gathers the blocks of two index arrays.  Duplicate
indices contribute with multiplicity, as a bootstrap draw with
replacement needs, and a fused index set is a concatenation, whose
empirical measure is the sample-size-weighted mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import IndexOutOfRange, SampleTooSmall
from .kernels import GramCache


class Estimator(str, Enum):
    VSTAT = "v"
    USTAT = "u"


@dataclass(frozen=True)
class MMDValue:
    squared: float
    estimator: Estimator

    @property
    def root(self) -> float:
        """Non-squared MMD, clamping tiny negative V-statistic noise to zero."""
        return float(np.sqrt(max(self.squared, 0.0)))


MatrixLike = Union[GramCache, np.ndarray]


def _as_matrix(gram: MatrixLike) -> np.ndarray:
    if isinstance(gram, GramCache):
        return gram.matrix
    return np.asarray(gram, dtype=float)


def _check_indices(k: np.ndarray, idx: np.ndarray) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size == 0:
        raise IndexOutOfRange("index set must be nonempty")
    if idx.min() < 0 or idx.max() >= k.shape[0]:
        raise IndexOutOfRange(
            f"index out of range [0, {k.shape[0]}): min={idx.min()}, max={idx.max()}"
        )
    return idx


def mmd2_from_sums(
    s_aa, s_bb, s_ab, diag_a, diag_b, size_a: int, size_b: int, estimator: Estimator
):
    """Squared MMD from the within-a, within-b and cross kernel sums.

    ``diag_a`` and ``diag_b`` are the parts of the within sums that pair
    a position with itself (the sums of the kernel diagonal over each
    sample, with multiplicity).  The U-statistic drops them and
    normalises by the number of ordered pairs of distinct positions; the
    V-statistic keeps them.  This is the only place that makes the U
    correction.  The sums may be arrays, one entry per resampling draw,
    so the observed statistics and the batched draws share it.
    """
    if estimator is Estimator.USTAT:
        s_aa, s_bb = s_aa - diag_a, s_bb - diag_b
        norm_a, norm_b = size_a * (size_a - 1), size_b * (size_b - 1)
    else:
        norm_a, norm_b = size_a**2, size_b**2
    return s_aa / norm_a + s_bb / norm_b - 2.0 * s_ab / (size_a * size_b)


def block_total(block: np.ndarray) -> float:
    """A kernel block's sum, taken as the total of its row sums.

    That is about 1.5x faster than one full reduction on a strided view.
    """
    return block.sum(axis=1).sum()


def _mmd2_blocks(
    k_aa: np.ndarray, k_bb: np.ndarray, k_ab: np.ndarray, estimator: Estimator
) -> MMDValue:
    """Squared MMD from the within-a, within-b and cross kernel blocks."""
    size_a, size_b = k_ab.shape
    if estimator is Estimator.USTAT and (size_a < 2 or size_b < 2):
        raise SampleTooSmall("U-statistic needs at least two observations per sample")
    s_aa, s_bb, s_ab = (block_total(block) for block in (k_aa, k_bb, k_ab))
    val = mmd2_from_sums(s_aa, s_bb, s_ab, k_aa.trace(), k_bb.trace(), size_a, size_b, estimator)
    return MMDValue(squared=float(val), estimator=estimator)


def mmd2(gram: MatrixLike, a, b, estimator: Estimator = Estimator.VSTAT) -> MMDValue:
    """Squared MMD between two index multisets, gathering their blocks.

    Duplicate index positions count as distinct observations; the
    U-statistic excludes only pairs of identical positions from the
    within-sample sums.
    """
    k = _as_matrix(gram)
    a = _check_indices(k, a)
    b = _check_indices(k, b)
    return _mmd2_blocks(k[np.ix_(a, a)], k[np.ix_(b, b)], k[np.ix_(a, b)], estimator)


def mmd2_v(gram: MatrixLike, a, b) -> MMDValue:
    """Plug-in (biased, nonnegative) squared-MMD V-statistic."""
    return mmd2(gram, a, b, Estimator.VSTAT)


def mmd2_slices(
    gram: MatrixLike, a: slice, b: slice, estimator: Estimator = Estimator.VSTAT
) -> MMDValue:
    """Squared MMD between two contiguous index ranges, from sums over views.

    ``a`` and ``b`` are slices with explicit start and stop; they may
    overlap.  No block is copied.  Equals ``mmd2`` on the same ranges up
    to the order of the floating-point sums.
    """
    k = _as_matrix(gram)
    for rows in (a, b):
        if not 0 <= rows.start < rows.stop <= k.shape[0] or rows.step not in (None, 1):
            raise IndexOutOfRange(f"need a nonempty range in [0, {k.shape[0]}), got {rows}")
    return _mmd2_blocks(k[a, a], k[b, b], k[a, b], estimator)


# ---------------------------------------------------------------------------
# Batched quadratic-form helpers for the resampling loops.  A bootstrap
# draw with replacement is represented by its count vector over the
# source positions; a permutation by a 0/1 membership vector.  Sums over
# a resampled index multiset then become quadratic forms, so no kernel
# value is ever re-evaluated (or even re-gathered) inside the B-loop.
# ---------------------------------------------------------------------------


def batched_quad(k_block: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u_b' K v_b for stacked weight vectors u (B, p), v (B, q)."""
    return np.einsum("bq,bq->b", u @ k_block, v)


def bootstrap_counts(rng: np.random.Generator, draws: int, size: int, batch: int) -> np.ndarray:
    """Efron-bootstrap count vectors, shape (batch, size), as whole-number floats.

    Each row is an independent multinomial(draws; 1/size, ..., 1/size)
    draw: the counts of ``draws`` uniform picks among ``size`` positions.
    All picks come from one ``rng.integers`` call, shifted by a per-row
    offset so that one flat ``bincount`` counts every row at once.  The
    rows are a function of ``rng``'s state alone, so a seeded generator
    gives the same counts on every run.
    """
    picks = rng.integers(0, size, (batch, draws))
    picks += size * np.arange(batch)[:, None]
    counts = np.bincount(picks.ravel(), minlength=batch * size)
    return counts.reshape(batch, size).astype(float)


def permutation_masks(rng: np.random.Generator, total: int, size_a: int, batch: int) -> np.ndarray:
    """0/1 membership rows assigning exactly ``size_a`` of ``total`` slots to group a.

    Each row is a uniformly random ``size_a``-subset: one uniform per
    slot, and the ``size_a`` smallest join group a.  Only the
    ``size_a``-th smallest value of a row is needed, so ``np.partition``
    finds it and a comparison marks the subset.  The masks are the same
    as ranking the uniforms with a full sort, for the same ``rng``.  A
    row whose boundary value is tied keeps exactly ``size_a`` ones.
    """
    r = rng.random((batch, total))
    if size_a == 0:
        return np.zeros((batch, total))
    kth = np.partition(r, size_a - 1, axis=1)[:, size_a - 1 : size_a]
    chosen = r <= kth
    tied = np.flatnonzero(np.count_nonzero(chosen, axis=1) != size_a)
    if tied.size:
        rows = np.argpartition(r[tied], size_a - 1, axis=1)[:, :size_a]
        chosen[tied] = False
        chosen[tied[:, None], rows] = True
    return chosen.astype(float)
