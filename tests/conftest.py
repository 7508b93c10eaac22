"""Shared test fixtures and independent brute-force oracles.

The oracles recompute every quantity from raw points with plain Python
loops and scalar math, sharing no code path with the package, so any
agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ttpool.kernels import KernelFamily, KernelSpec


def oracle_kernel(spec: KernelSpec, bandwidth, x, y) -> float:
    """Scalar kernel evaluation from raw coordinates, loop arithmetic only."""
    sq = 0.0
    for xi, yi in zip(x, y):
        sq += (float(xi) - float(yi)) ** 2
    dot = 0.0
    for xi, yi in zip(x, y):
        dot += float(xi) * float(yi)
    if spec.family is KernelFamily.LINEAR:
        return dot
    if spec.family is KernelFamily.RBF:
        return math.exp(-sq / (2.0 * bandwidth))
    if spec.family is KernelFamily.IMQ:
        return 1.0 / math.sqrt(1.0 + sq / bandwidth)
    if spec.family is KernelFamily.LINEAR_PLUS_RBF:
        return dot + spec.epsilon * math.exp(-sq / (2.0 * bandwidth))
    raise AssertionError(f"unhandled family {spec.family}")


def oracle_mmd2_v(spec: KernelSpec, bandwidth, pts_a, pts_b) -> float:
    """Quadruple-loop V-statistic from raw points."""
    na, nb = len(pts_a), len(pts_b)
    s_aa = sum(
        oracle_kernel(spec, bandwidth, pts_a[i], pts_a[j])
        for i in range(na)
        for j in range(na)
    )
    s_bb = sum(
        oracle_kernel(spec, bandwidth, pts_b[i], pts_b[j])
        for i in range(nb)
        for j in range(nb)
    )
    s_ab = sum(
        oracle_kernel(spec, bandwidth, pts_a[i], pts_b[j])
        for i in range(na)
        for j in range(nb)
    )
    return s_aa / na**2 + s_bb / nb**2 - 2.0 * s_ab / (na * nb)


def oracle_mmd2_u(spec: KernelSpec, bandwidth, pts_a, pts_b) -> float:
    """Quadruple-loop U-statistic: within-sample same-position pairs excluded."""
    na, nb = len(pts_a), len(pts_b)
    s_aa = sum(
        oracle_kernel(spec, bandwidth, pts_a[i], pts_a[j])
        for i in range(na)
        for j in range(na)
        if i != j
    )
    s_bb = sum(
        oracle_kernel(spec, bandwidth, pts_b[i], pts_b[j])
        for i in range(nb)
        for j in range(nb)
        if i != j
    )
    s_ab = sum(
        oracle_kernel(spec, bandwidth, pts_a[i], pts_b[j])
        for i in range(na)
        for j in range(nb)
    )
    return (
        s_aa / (na * (na - 1))
        + s_bb / (nb * (nb - 1))
        - 2.0 * s_ab / (na * nb)
    )


def oracle_median_sq_distance(points) -> float:
    """Median pairwise squared distance by materializing and sorting all pairs."""
    pts = [list(map(float, p)) for p in points]
    dists = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dists.append(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])))
    dists.sort()
    k = len(dists)
    if k % 2 == 1:
        return dists[k // 2]
    return 0.5 * (dists[k // 2 - 1] + dists[k // 2])


def population_mmd2_gaussian_rbf(shift: float, bandwidth: float) -> float:
    """Population MMD^2 between N(a, 1) and N(b, 1), a - b = ``shift``.

    Kernel exp(-d^2 / (2 h)) with h = ``bandwidth``: the difference of two
    independent draws is normal with variance 2 (same arm) or mean
    ``shift`` and variance 2 (across arms), and E exp(-Z^2 / (2 h)) for
    Z ~ N(mu, 2) is sqrt(h / (h + 2)) exp(-mu^2 / (2 (h + 2))).
    """
    h = bandwidth
    return 2.0 * math.sqrt(h / (h + 2.0)) * (1.0 - math.exp(-(shift**2) / (2.0 * (h + 2.0))))


def ulps(got, want):
    """Distance of ``got`` from ``want`` in units in the last place of ``want``."""
    return np.abs(np.subtract(got, want)) / np.spacing(np.abs(want))


ALL_FAMILIES = (
    KernelFamily.RBF,
    KernelFamily.LINEAR,
    KernelFamily.IMQ,
    KernelFamily.LINEAR_PLUS_RBF,
)


def random_spec(rng: np.random.Generator, family=None) -> KernelSpec:
    fam = family or ALL_FAMILIES[rng.integers(len(ALL_FAMILIES))]
    eps = float(rng.uniform(0.1, 2.0)) if fam is KernelFamily.LINEAR_PLUS_RBF else 0.0
    bw = None
    if fam is not KernelFamily.LINEAR:
        bw = float(rng.uniform(0.3, 3.0))
    return KernelSpec(family=fam, bandwidth=bw, epsilon=eps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
