"""Squared-MMD estimators over index subsets of a Gram matrix.

All estimators take either a :class:`~ttpool.kernels.GramCache` (its
three-arm matrix is used) or a raw square kernel matrix, plus index
arrays into it.  Duplicate indices are allowed and contribute with
multiplicity, which is exactly what a bootstrap draw with replacement
needs.  Fused (pooled-control) measures are represented by index
concatenation; the empirical measure of the concatenation equals the
sample-size-weighted mixture.
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


def mmd2_v(gram: MatrixLike, a, b) -> MMDValue:
    """Plug-in (biased, nonnegative) squared-MMD V-statistic."""
    k = _as_matrix(gram)
    a = _check_indices(k, a)
    b = _check_indices(k, b)
    kaa = k[np.ix_(a, a)].sum()
    kbb = k[np.ix_(b, b)].sum()
    kab = k[np.ix_(a, b)].sum()
    val = kaa / a.size**2 + kbb / b.size**2 - 2.0 * kab / (a.size * b.size)
    return MMDValue(squared=float(val), estimator=Estimator.VSTAT)


def mmd2_u(gram: MatrixLike, a, b) -> MMDValue:
    """Diagonal-excluded (unbiased, possibly negative) squared-MMD U-statistic.

    Duplicate index positions count as distinct observations; only pairs
    of identical positions are excluded from the within-sample sums.
    """
    k = _as_matrix(gram)
    a = _check_indices(k, a)
    b = _check_indices(k, b)
    if a.size < 2 or b.size < 2:
        raise SampleTooSmall("U-statistic needs at least two observations per sample")
    kaa = k[np.ix_(a, a)].sum() - k[a, a].sum()
    kbb = k[np.ix_(b, b)].sum() - k[b, b].sum()
    kab = k[np.ix_(a, b)].sum()
    val = (
        kaa / (a.size * (a.size - 1))
        + kbb / (b.size * (b.size - 1))
        - 2.0 * kab / (a.size * b.size)
    )
    return MMDValue(squared=float(val), estimator=Estimator.USTAT)


def mmd2(gram: MatrixLike, a, b, estimator: Estimator = Estimator.VSTAT) -> MMDValue:
    if estimator is Estimator.USTAT:
        return mmd2_u(gram, a, b)
    return mmd2_v(gram, a, b)


def mmd2_v_fused(gram: MatrixLike, current, historical, other) -> MMDValue:
    """V-statistic between the pooled (current || historical) measure and ``other``.

    The pooled empirical measure with weights m/(m+l), l/(m+l) is the
    empirical measure of the concatenated index list, so no explicit
    weighting is needed.  An empty ``historical`` reduces to
    ``mmd2_v(current, other)``.
    """
    historical = np.asarray(historical, dtype=np.intp)
    fused = np.concatenate([np.asarray(current, dtype=np.intp), historical])
    return mmd2_v(gram, fused, other)


def mmd2_fused(
    gram: MatrixLike, current, historical, other, estimator: Estimator = Estimator.VSTAT
) -> MMDValue:
    historical = np.asarray(historical, dtype=np.intp)
    fused = np.concatenate([np.asarray(current, dtype=np.intp), historical])
    return mmd2(gram, fused, other, estimator)


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
