"""The ROADMAP "Baseline at this re-anchor" layer table, measured again.

Each row calls one public function on arms drawn from the run's seed, at
the paper shape (n, m, l = 100, 50, 100) and the large shape
(1000, 500, 1000), with B = 1000.  Rows are timed round-robin and the
median is kept.  ``classic_fusion`` is not in the ROADMAP table; it is
measured so the classic path has a layer number too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ttpool.causality import CausalityConfig, Method, run_causality, standard_permutation_test
from ttpool.fusion import FusionConfig, FusionMode, classic_fusion, equivalence_fusion
from ttpool.kernels import Arm, KernelSpec, Sample, build_gram

#: (n, m, l) and timed calls per row.
SHAPES = {"paper": ((100, 50, 100), 15), "large": ((1000, 500, 1000), 3)}
#: ROADMAP values in ms as (low, high) per shape; None where it gives none.
ROADMAP_MS = {
    "build_gram": ((2.8, 2.8), (238, 285)),
    "equivalence_fusion": ((12.5, 12.5), (127, 127)),
    "classic_fusion": (None, None),
    "partial_bootstrap": ((17.7, 17.7), (237, 237)),
    "partial_permutation": ((6.0, 6.0), (138, 138)),
    "standard_permutation": ((4.9, 4.9), (99, 99)),
    "normal_approx": ((0.5, 0.5), (51, 51)),
}
#: A row disagrees when it is further than this share outside the ROADMAP range.
TOLERANCE = 0.15


def _rows(arms, gram, seed):
    spec = KernelSpec()

    def causality(method):
        return lambda: run_causality(gram, CausalityConfig(method=method, seed=seed))

    return {
        "build_gram": lambda: build_gram(spec, *arms),
        "equivalence_fusion": lambda: equivalence_fusion(gram, FusionConfig(seed=seed)),
        "classic_fusion": lambda: classic_fusion(
            gram, FusionConfig(mode=FusionMode.CLASSIC_PERMUTATION, seed=seed)
        ),
        "partial_bootstrap": causality(Method.PARTIAL_BOOTSTRAP),
        "partial_permutation": causality(Method.PARTIAL_PERMUTATION),
        "standard_permutation": lambda: standard_permutation_test(
            gram, CausalityConfig(method=Method.STANDARD_PERMUTATION, seed=seed)
        ),
        "normal_approx": causality(Method.NORMAL_APPROX),
    }


def measure(seed: int) -> dict:
    """{shape: {row: median ms}}."""
    result = {}
    for shape, ((n, m, l), repeats) in SHAPES.items():
        rng = np.random.default_rng([seed, n])
        arms = (
            Sample(rng.standard_normal((m, 1)), Arm.CURRENT),
            Sample(rng.standard_normal((l, 1)), Arm.HISTORICAL),
            Sample(rng.standard_normal((n, 1)), Arm.TREATMENT),
        )
        rows = _rows(arms, build_gram(KernelSpec(), *arms), seed)
        times = {row: [] for row in rows}
        for _ in range(repeats):
            for row, call in rows.items():
                start = time.perf_counter()
                call()
                times[row].append(1e3 * (time.perf_counter() - start))
        result[shape] = {row: statistics.median(t) for row, t in times.items()}
    return result


def _note(value: float, ref) -> str:
    if ref is None:
        return "not in ROADMAP"
    low, high = ref
    if low / (1 + TOLERANCE) <= value <= high * (1 + TOLERANCE):
        return "agrees"
    return "DISAGREES"


def table(measured: dict) -> list[str]:
    lines = [
        f"ROADMAP baseline (median ms; paper x{SHAPES['paper'][1]}, large x{SHAPES['large'][1]} calls)",
        f"  {'layer':<22}{'paper':>9}{'ROADMAP':>10}  {'':<15}{'large':>9}{'ROADMAP':>10}  note",
    ]
    for row, refs in ROADMAP_MS.items():
        cols = []
        for shape, ref in zip(SHAPES, refs):
            value = measured[shape][row]
            text = "-" if ref is None else (f"{ref[0]:g}" if ref[0] == ref[1] else f"{ref[0]:g}-{ref[1]:g}")
            cols.append(f"{value:>9.2f}{text:>10}  {_note(value, ref):<15}")
        lines.append(f"  {row:<22}" + "".join(cols))
    return lines
