"""Independent NumPy oracle for the RBF / median-heuristic statistics.

Uses explicit pairwise differences only: no ttpool code and no
scipy.spatial.  Work is done in row blocks so the oracle's own memory
stays well below the program's at the large shape and does not set the
peak RSS the benchmark reports.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
_BLOCK = 256


def _sq_block(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    return (diff * diff).sum(axis=2)


def median_bandwidth(points: np.ndarray) -> float:
    """Median of squared distances over distinct unordered pairs."""
    parts = []
    for i in range(0, len(points), _BLOCK):
        block = _sq_block(points[i : i + _BLOCK], points)
        rows = np.arange(i, min(i + _BLOCK, len(points)))[:, None]
        parts.append(block[rows < np.arange(len(points))[None, :]])
    return float(np.median(np.concatenate(parts)))


def rbf_matrix(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-_sq_block(x, y) / (2.0 * bandwidth))


def rbf_sum(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    return float(
        sum(rbf_matrix(x[i : i + _BLOCK], y, bandwidth).sum() for i in range(0, len(x), _BLOCK))
    )


def mmd2_v(a: np.ndarray, b: np.ndarray, bandwidth: float) -> float:
    return (
        rbf_sum(a, a, bandwidth) / len(a) ** 2
        + rbf_sum(b, b, bandwidth) / len(b) ** 2
        - 2.0 * rbf_sum(a, b, bandwidth) / (len(a) * len(b))
    )


def analysis(current, historical, treatment, theta: float) -> dict:
    """Every report value of one equivalence TTP run that is seed-free."""
    bw3 = median_bandwidth(np.vstack([current, historical, treatment]))
    bw2 = median_bandwidth(np.vstack([current, treatment]))
    fused = np.vstack([current, historical])
    d_hat_ch = float(np.sqrt(max(mmd2_v(current, historical, bw3), 0.0)))
    delta = np.sqrt(len(treatment)) * (
        mmd2_v(fused, treatment, bw3) - mmd2_v(fused, current, bw3)
    )
    return {
        "bandwidth_pooled3": bw3,
        "bandwidth_pooled2": bw2,
        "d_hat_ch": d_hat_ch,
        "d_hat_ct": float(np.sqrt(max(mmd2_v(current, treatment, bw3), 0.0))),
        "fusion_statistic": theta - d_hat_ch,
        "delta": float(delta),
        "nomerge_statistic": mmd2_v(current, treatment, bw2),
    }


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + 1e-300


def gram_mismatches(gram, mmd2_ch: float, current, historical, treatment) -> list[str]:
    """Compare a built Gram cache and its mmd2_v(current, historical) to the oracle."""
    pooled3 = np.vstack([current, historical, treatment])
    pooled2 = np.vstack([current, treatment])
    bw3 = median_bandwidth(pooled3)
    bw2 = median_bandwidth(pooled2)
    bad = [
        f"{label} {got!r} != oracle {want!r}"
        for label, got, want in (
            ("bandwidth_pooled3", gram.bandwidth_pooled3, bw3),
            ("bandwidth_pooled2", gram.bandwidth_pooled2, bw2),
            ("mmd2_v(current, historical)", mmd2_ch, mmd2_v(current, historical, bw3)),
        )
        if not close(got, want)
    ]
    for label, got, want in (
        ("matrix", gram.matrix, rbf_matrix(pooled3, pooled3, bw3)),
        ("matrix_nomerge", gram.matrix_nomerge, rbf_matrix(pooled2, pooled2, bw2)),
    ):
        if got.shape != want.shape:
            bad.append(f"{label} shape {got.shape} != oracle {want.shape}")
            continue
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        if err > RTOL:
            bad.append(f"{label} entries differ from the oracle (max rel err {err:.3g})")
    return bad
