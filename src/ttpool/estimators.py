"""Squared-MMD estimators over index subsets of a Gram matrix.

Every estimator takes a :class:`~ttpool.kernels.GramCache` (its
three-arm matrix is used) or a raw square kernel matrix.  ``mmd2_slices``
compares two contiguous ranges by summing views, with no copy; each arm
of the Gram cache, and the fused control current || historical, is such
a range.  ``mmd2`` gathers the blocks of two index arrays.  Duplicate
indices contribute with multiplicity, and a fused index set is a
concatenation, whose empirical measure is the sample-size-weighted
mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .blas import share, submit
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
    idx = np.asarray(idx)
    if idx.size == 0:
        raise IndexOutOfRange("index set must be nonempty")
    if idx.dtype.kind not in "iu":
        raise IndexOutOfRange(f"indices must have an integer dtype, got {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
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
    within-sample sums.  An index set must be a nonempty array of
    in-range integers; a boolean mask or a float array is an
    ``IndexOutOfRange``.
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

    Raises:
        IndexOutOfRange: for an empty, open, stepped or out-of-bounds range.
    """
    k = _as_matrix(gram)
    for rows in (a, b):
        explicit = rows.start is not None and rows.stop is not None
        in_range = explicit and 0 <= rows.start < rows.stop <= k.shape[0]
        if not in_range or rows.step not in (None, 1):
            raise IndexOutOfRange(f"need a nonempty range in [0, {k.shape[0]}), got {rows}")
    return _mmd2_blocks(k[a, a], k[b, b], k[a, b], estimator)


# ---------------------------------------------------------------------------
# Batched quadratic-form helpers for the resampling loops.  A bootstrap
# draw with replacement is represented by its count vector over the
# source positions; a permutation by a 0/1 membership vector.  Sums over
# a resampled index multiset then become quadratic forms, so no kernel
# value is ever re-evaluated (or even re-gathered) inside the B-loop.
# ---------------------------------------------------------------------------


#: Rows of one block of a resampling product.  Its bits are a function of B and
#: this fixed partition, never of the thread; a new value may move output bits.
PRODUCT_ROWS = 512


def product_row_dots(
    left: np.ndarray, right: np.ndarray, *others: np.ndarray, totals: bool = False
) -> list[np.ndarray]:
    """Per row b of ``left @ right``: its dot with row b of each of ``others``, then its total.

    The total comes last and only with ``totals``.  Every B-row
    resampling product is made here, in blocks of ``PRODUCT_ROWS`` rows
    that ``blas.share`` runs; each block's product is freed once its
    rows are reduced.  ``left`` and ``others`` may hold whole numbers in
    any dtype, such as stored counts or masks: a block converts its rows
    of ``left`` to float64 once, reuses them for an operand that is
    ``left`` itself, and converts its rows of any other operand, so no
    B-row float copy is made.  The conversion is exact.  A row's dots
    and total may depend on the block the fixed partition puts it in
    (OpenBLAS does not promise otherwise), never on the thread.
    """
    rows = left.shape[0]
    outs = [np.empty(rows) for _ in range(len(others) + totals)]

    def block(s: slice) -> None:
        part = left[s].astype(float, copy=False)
        product = part @ right
        for out, other in zip(outs, others):
            mine = part if other is left else other[s].astype(float, copy=False)
            out[s] = np.einsum("bq,bq->b", product, mine)
        if totals:
            outs[-1][s] = product.sum(axis=1)

    share(block, [slice(lo, lo + PRODUCT_ROWS) for lo in range(0, rows, PRODUCT_ROWS)])
    return outs


def batched_quad(k_block: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u_b' K v_b for stacked weight vectors u (B, p), v (B, q)."""
    (quad,) = product_row_dots(u, k_block, v)
    return quad


#: Entries of one row block of ``bootstrap_counts`` and ``permutation_masks``:
#: 512 KiB of 64-bit counts or uniforms, so that each block runs in cache.
_COUNT_BLOCK = 1 << 16


def bootstrap_counts(
    rng: np.random.Generator, draws: int, size: int, batch: int, dtype=float
) -> np.ndarray:
    """Efron-bootstrap count vectors, shape (batch, size), as whole numbers of ``dtype``.

    Each row is an independent multinomial(draws; 1/size, ..., 1/size)
    draw: the counts of ``draws`` uniform picks among ``size`` positions.
    The rows are drawn in blocks of about ``_COUNT_BLOCK`` counts.  A
    block's picks come from one ``rng.integers`` call, shifted by each
    row's offset in the block, and one flat ``bincount`` counts them.
    Successive calls continue one stream, so the picks are those of a
    single call for all rows, and only one block of picks is held at a
    time.  The rows are a function of ``rng``'s state alone, so a seeded
    generator gives the same counts on every run.
    """
    rows = max(1, min(batch, _COUNT_BLOCK // size))
    offsets = size * np.arange(rows)[:, None]
    counts = np.empty((batch, size), dtype)
    for lo in range(0, batch, rows):
        block = rng.integers(0, size, (min(rows, batch - lo), draws))
        block += offsets[: block.shape[0]]
        found = np.bincount(block.ravel(), minlength=block.shape[0] * size)
        counts[lo : lo + rows] = found.reshape(block.shape[0], size)
    return counts


def permutation_masks(
    rng: np.random.Generator, total: int, size_a: int, batch: int, dtype=float
) -> np.ndarray:
    """0/1 membership rows of ``dtype`` assigning exactly ``size_a`` of ``total`` slots to group a.

    Each row is a uniformly random ``size_a``-subset: one uniform per
    slot, and the ``size_a`` smallest join group a.  Only the
    ``size_a``-th smallest value of a row is needed, so ``np.partition``
    finds it and a comparison marks the subset.  The masks are the same
    as ranking the uniforms with a full sort, for the same ``rng``.  A
    row whose boundary value is tied keeps exactly ``size_a`` ones.
    The rows are drawn in blocks of about ``_COUNT_BLOCK`` uniforms, and
    only one block of uniforms is held at a time.  Successive
    ``rng.random`` calls continue one stream, so the masks are those of
    a single draw for all rows, and ``size_a = 0`` still takes
    ``batch * total`` uniforms from ``rng``.
    """
    rows = max(1, min(batch, _COUNT_BLOCK // max(total, 1)))
    masks = np.zeros((batch, total), dtype)
    for lo in range(0, batch, rows):
        r = rng.random((min(rows, batch - lo), total))
        if size_a:
            masks[lo : lo + rows] = _smallest(r, size_a)
    return masks


def _smallest(r: np.ndarray, size_a: int) -> np.ndarray:
    """Per row of uniforms ``r``, a ``bool`` mask of its ``size_a`` smallest values."""
    kth = np.partition(r, size_a - 1, axis=1)[:, size_a - 1 : size_a]
    chosen = r <= kth
    tied = np.flatnonzero(np.count_nonzero(chosen, axis=1) != size_a)
    if tied.size:
        rows = np.argpartition(r[tied], size_a - 1, axis=1)[:, :size_a]
        chosen[tied] = False
        chosen[tied[:, None], rows] = True
    return chosen


# ---------------------------------------------------------------------------
# Resampling weights from a seed and a draw plan.  Every resampling test
# draws its weights here, so the draws of a seed depend only on the seed,
# the batch size and the plan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counts:
    """Bootstrap count rows: ``draws`` picks with replacement among ``size`` positions."""

    draws: int
    size: int


@dataclass(frozen=True)
class Masks:
    """Permutation rows: ``size_a`` of ``total`` slots join group a."""

    total: int
    size_a: int


@dataclass(frozen=True)
class SharedSeed:
    """A ``SeedSequence`` whose draws ``resample_weights`` keeps in ``store``.

    Each (seed, batch, plan) is drawn once; a later call with an equal
    seed, batch and plan gets the stored arrays themselves, which are
    the bytes a fresh draw would give.  Counts are stored as the smallest
    unsigned integers that hold them and masks as ``bool``, so the store
    stays small, and the arrays are read-only, so no reader can change
    another's draws.  A campaign sweep gives each replicate one store,
    which its cells share, because they have the same stage seeds;
    ``pipeline.run_ttp`` keeps the no-borrowing test's outcome there too,
    under a key that starts with the seed's ``key`` of its mask draw.
    The store holds keys, draws and outcomes, never a ``SharedSeed``, so
    it is freed with the replicate.
    ``defer_weights`` stores a draw that is still being made, for one
    reader: the first ``resample_weights`` of it takes it out of the store.
    """

    seed: np.random.SeedSequence
    store: dict

    def key(self, batch: int, plan: tuple) -> tuple:
        ss = self.seed
        # A SeedSequence's stream depends on these three fields alone.
        return (repr(ss.entropy), ss.spawn_key, ss.pool_size, batch, plan)

    def draw(self, batch: int, plan: tuple) -> list[np.ndarray]:
        rng = np.random.default_rng(self.seed)
        return [_draw(rng, batch, spec) for spec in plan]


def _draw(rng: np.random.Generator, batch: int, spec) -> np.ndarray:
    """One plan entry's rows, read-only.

    Masks come as ``bool`` and counts as the smallest unsigned integers
    that hold them.
    """
    if isinstance(spec, Counts):
        dtype = np.min_scalar_type(spec.draws)
        weights = bootstrap_counts(rng, spec.draws, spec.size, batch, dtype)
        # A position is rarely picked 256 times, so wider counts mostly fit bytes.
        if dtype != np.uint8 and weights.max(initial=0) <= 255:
            weights = weights.astype(np.uint8)
    else:
        weights = permutation_masks(rng, spec.total, spec.size_a, batch, bool)
    weights.flags.writeable = False
    return weights


def defer_weights(seed: SharedSeed, batch: int, *plan) -> None:
    """Draw ``resample_weights(seed, batch, *plan)`` on the helper thread (``blas.submit``).

    The first later ``resample_weights`` of the same draw waits for it and
    takes it out of the store, so its counts are freed with that reader's
    products.  A draw already stored is not drawn again.
    """
    key = seed.key(batch, plan)
    if key not in seed.store:
        seed.store[key] = submit(seed.draw, batch, plan)


def resample_weights(seed, batch: int, *plan) -> list[np.ndarray]:
    """Weight rows, ``batch`` per entry of ``plan``, drawn in order from ``seed``.

    ``seed`` is a ``SharedSeed`` or anything ``np.random.default_rng``
    takes; a ``Generator`` is used as it is, so its state moves on.  Each
    entry of ``plan`` is a ``Counts`` or ``Masks``.  The rows come as
    drawn and read-only: counts as the smallest unsigned integers that
    hold them, masks as ``bool``.  A reader converts them to float64 in
    the blocks it reads (``product_row_dots``), which is exact.
    """
    if not isinstance(seed, SharedSeed):
        rng = np.random.default_rng(seed)
        return [_draw(rng, batch, spec) for spec in plan]
    key = seed.key(batch, plan)
    stored = seed.store.get(key)
    if stored is None:
        stored = seed.store[key] = seed.draw(batch, plan)
    elif not isinstance(stored, list):  # a deferred draw
        stored = seed.store.pop(key).result()
    return list(stored)
