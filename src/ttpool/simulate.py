"""Monte Carlo campaign runner for the synthetic studies.

Replicates are embarrassingly parallel and seeded per replicate from the
campaign master seed, and every run makes its matrix products on one
BLAS thread per worker, so runs on any worker count agree bit for bit.
``_sweep`` runs the cells of either study replicate-major through
``_map_replicates``: on the calling thread for one worker, otherwise in
one pool of threads of this process.  Data generation uses numpy's
PCG64 Generator (``standard_normal`` scaled and shifted), recorded in
the result for replay.
"""

from __future__ import annotations

import ctypes
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import causality
from .causality import Method
from .errors import ConfigError, TTPoolError
from .estimators import SharedSeed
from .kernels import Arm, Sample, build_gram
from .pipeline import TTPConfig, run_ttp
from .quantile import inf_quantile

RNG_ALGORITHM = "numpy.random.Generator(PCG64).standard_normal"

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MeanShift:
    """Qt = N(0,1), Qc = N(mu_c - mu_t, 1), Qh = N((mu_h - mu_c) + (mu_c - mu_t), 1)."""

    mu_c_minus_mu_t: float = 0.0
    mu_h_minus_mu_c: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu_c_minus_mu_t", "mu_h_minus_mu_c"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")

    def draw(self, rng: np.random.Generator, n: int, m: int, l: int):
        mu_c = self.mu_c_minus_mu_t
        mu_h = self.mu_h_minus_mu_c + mu_c
        t = rng.standard_normal((n, 1))
        c = mu_c + rng.standard_normal((m, 1))
        h = mu_h + rng.standard_normal((l, 1))
        return c, h, t


@dataclass(frozen=True)
class VarShift:
    """Qt = N(0,1), Qc = N(0, r_ct), Qh = N(0, r_hc * r_ct)."""

    var_c_over_var_t: float = 1.0
    var_h_over_var_c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("var_c_over_var_t", "var_h_over_var_c"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")

    def draw(self, rng: np.random.Generator, n: int, m: int, l: int):
        var_c = self.var_c_over_var_t
        var_h = self.var_h_over_var_c * var_c
        t = rng.standard_normal((n, 1))
        c = np.sqrt(var_c) * rng.standard_normal((m, 1))
        h = np.sqrt(var_h) * rng.standard_normal((l, 1))
        return c, h, t


Generator = Union[MeanShift, VarShift]


@dataclass(frozen=True)
class Scenario:
    generator: Generator
    n: int
    m: int
    l: int
    ttp: TTPConfig = field(default_factory=TTPConfig)
    replicates: int = 1000
    master_seed: int = 0
    compare_methods: tuple = ()

    def __post_init__(self) -> None:
        if min(self.n, self.m, self.l) < 2:
            raise ConfigError("all arm sizes must be >= 2")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        methods = [self.ttp.merged_method, *self.compare_methods]
        if len(set(methods)) < len(methods):
            raise ConfigError(
                "merged_method and compare_methods must name distinct methods, got "
                f"{[m.value for m in methods]}"
            )
        self.ttp.check_resamples(self.compare_methods)


@dataclass(frozen=True)
class CampaignResult:
    """Rates of one campaign cell.

    ``seconds`` is the wall time this cell's replicates took, summed over
    replicates; on a pool thread that includes its waits for the
    interpreter lock.  In a sweep, the first cell of a replicate to need a
    draw makes it; the later cells copy it.
    """

    scenario: Scenario
    merge_rate: float
    reject_rate: float
    stderr_merge: float
    stderr_reject: float
    per_method_rates: dict
    seconds: float
    rng_algorithm: str = RNG_ALGORITHM


def _binomial_stderr(p: float, reps: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / reps))


def draw_arms(scn: Scenario, rep: int):
    """Arm samples for replicate ``rep``; depends only on (master_seed, rep)."""
    data_ss = np.random.SeedSequence([int(scn.master_seed), rep, 0])
    rng = np.random.default_rng(data_ss)
    c, h, t = scn.generator.draw(rng, scn.n, scn.m, scn.l)
    return (
        Sample(c, Arm.CURRENT),
        Sample(h, Arm.HISTORICAL),
        Sample(t, Arm.TREATMENT),
    )


def _replicate_seeds(scn: Scenario, rep: int, n_methods: int, store: dict):
    """The fusion seed and one causality seed per method, as ``SharedSeed``s over ``store``."""
    fusion_ss = np.random.SeedSequence([int(scn.master_seed), rep, 1])
    causality_seeds = np.random.SeedSequence([int(scn.master_seed), rep, 2]).spawn(n_methods)
    return SharedSeed(fusion_ss, store), [SharedSeed(ss, store) for ss in causality_seeds]


def _run_replicate(scn: Scenario, rep: int, store: dict) -> tuple:
    """One TTP replicate: ``pipeline.run_ttp``'s ``(fusion, outcomes)``, with replicate seeds.

    ``outcomes`` holds one causality outcome per method of ``(merged_method,
    *compare_methods)``.  The methods only differ after an
    equivalence-mode merge; otherwise one test runs (standard permutation
    without a merge, naive pooling after a classic-mode merge) and every
    method slot carries its outcome.  The resampling draws are kept in
    ``store`` for the other cells of the replicate.
    """
    current, historical, treatment = draw_arms(scn, rep)
    try:
        gram = build_gram(scn.ttp.kernel, current, historical, treatment)
        fusion_ss, causality_seeds = _replicate_seeds(
            scn, rep, 1 + len(scn.compare_methods), store
        )
        return run_ttp(gram, scn.ttp, fusion_ss, causality_seeds, scn.compare_methods)
    except TTPoolError as exc:
        raise TTPoolError(
            f"replicate {rep} (master_seed={scn.master_seed}) failed: {exc}"
        ) from exc


@cache
def _numpy_openblas() -> Optional[ctypes.CDLL]:
    """NumPy's bundled ``scipy_openblas64_`` library, or ``None`` where it is not found.

    Loading the file NumPy already loaded returns the same library, so its
    thread setter acts on NumPy's own BLAS calls.
    """
    numpy_dir = Path(np.__file__).parent
    for lib_dir in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs"):
        for path in sorted(lib_dir.glob("*scipy_openblas64_*")):
            try:
                lib = ctypes.CDLL(str(path))
                lib.scipy_openblas_get_num_threads64_.argtypes = []
                lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
                lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
                lib.scipy_openblas_set_num_threads64_.restype = None
            except (OSError, AttributeError):
                continue
            return lib
    return None


#: glibc ``mallopt`` parameters (malloc.h), and the bound ``keep_freed_heap``
#: gives both: 32 MiB, glibc's 64-bit ceiling for its own dynamic mmap threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_BLOCK_LIMIT = 32 << 20


def keep_freed_heap() -> bool:
    """Keep freed heap pages in this process; True if glibc took both settings.

    By default glibc maps each block above its dynamic threshold (128 KiB
    at start) afresh and unmaps it on free, so every replicate
    page-faults its count, mask and product scratch in again.  Here
    blocks up to 32 MiB come from the heap, and the heap top is trimmed
    only once more than 32 MiB of it is free, so a replicate's freed
    scratch stays in the process for the next one.  Larger blocks, such as
    a large-shape Gram, are still mapped and returned when freed.  Both
    are set: setting either one turns the dynamic threshold off and
    leaves the other at its 128 KiB default.  Trimming is bounded, not
    off: with it off, the free heap pages of a large-shape command stayed
    resident while its next Gram was mapped, which raised peak RSS.
    The setting is process-wide, so pool threads share it.  Where
    ``mallopt`` is missing, nothing changes.  The CLI calls this; library
    functions leave the allocator to their caller.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        _log.debug("no C library mallopt found; freed heap pages go back to the system")
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    params = (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD)
    return all([mallopt(param, _HEAP_BLOCK_LIMIT) for param in params])


@contextmanager
def _one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread; restore the saved count after.

    The count is process-wide: while it is 1, each thread that calls into
    OpenBLAS runs its product on itself, with no helper threads.  NumPy's
    OpenBLAS rounds a product on 1 and on 2 threads apart once its inner
    dimension reaches about 400, so a fixed count is what makes a
    campaign's bytes independent of its worker count.
    """
    lib = _numpy_openblas()
    if lib is None:
        _log.debug("no NumPy OpenBLAS found; replicates keep the default BLAS threading")
        yield
        return
    saved = lib.scipy_openblas_get_num_threads64_()
    _log.debug("pinning OpenBLAS %s to 1 thread for the replicates (saved count %d)",
               lib._name, saved)
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(saved)


def check_workers(workers: int) -> None:
    """Refuse a worker count below 1."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def _map_replicates(run, replicates: int, workers: int) -> list:
    """``[run(rep) for rep in range(replicates)]``, on ``workers`` threads if > 1.

    Every worker count runs inside ``_one_blas_thread``, so each OpenBLAS
    call runs on its calling thread alone: products round the same way on
    any worker count, and pool threads do not compete with OpenBLAS
    helper threads for the cores.  The saved count is restored once the
    replicates are done.  One worker runs the loop on the calling thread;
    a one-thread pool would move its scratch into a second malloc arena,
    which raised a serial benchmark sweep's peak RSS from 47.9 to 51.1 MB.
    More open a pool of ``min(workers, replicates)`` threads of this
    process for this call and close it after; the rows come back in
    replicate order either way.  NumPy releases the interpreter lock in
    the products, the random fills and large ufuncs, which is where a
    replicate spends its time, so the threads run side by side there.  An
    exception in ``run`` reaches the caller after every thread has stopped.
    """
    check_workers(workers)
    reps = range(replicates)
    with _one_blas_thread():
        if workers == 1:
            return [run(rep) for rep in reps]
        with ThreadPoolExecutor(min(workers, replicates)) as pool:
            return list(pool.map(run, reps))


def _sweep_item(runs: tuple, rep: int) -> list[tuple[object, float]]:
    """Replicate ``rep`` of every cell: per cell, ``run(rep, store)`` and its seconds.

    Cells with the same master seed have the same stage seeds, so their
    draws of one plan are the same bytes.  The cells share one store for
    the item: each (seed, plan) is drawn once and copied to the later
    cells.  A single cell stores its draws too; that measured no slower
    than drawing without a store.
    """
    store = {}
    out = []
    for run in runs:
        start = time.perf_counter()
        result = run(rep, store)
        out.append((result, time.perf_counter() - start))
    return out


def _sweep(runs, scenarios, workers: int) -> list[list[tuple[object, float]]]:
    """Per cell, the ``(result, seconds)`` of ``runs[cell](rep, store)`` in replicate order.

    The cells' ``scenarios`` must have one replicate count.  All items run
    in one ``_map_replicates`` map, so a sweep opens at most one pool.
    """
    counts = {scn.replicates for scn in scenarios}
    if len(counts) != 1:
        raise ConfigError(
            f"a sweep needs cells with one replicate count, got {sorted(counts)}"
        )
    items = _map_replicates(partial(_sweep_item, tuple(runs)), counts.pop(), workers)
    return [[item[cell] for item in items] for cell in range(len(runs))]


def _cell_result(scn: Scenario, timed_rows: list) -> CampaignResult:
    """Aggregate one cell's ((fusion, outcomes), seconds) pairs, in replicate order."""
    runs = [run for run, _ in timed_rows]
    merge_rate = sum(fusion.merged for fusion, _ in runs) / scn.replicates
    methods = (scn.ttp.merged_method, *scn.compare_methods)
    per_method = {
        method.value: sum(outcomes[i].reject for _, outcomes in runs) / scn.replicates
        for i, method in enumerate(methods)
    }
    reject_rate = per_method[scn.ttp.merged_method.value]
    return CampaignResult(
        scenario=scn,
        merge_rate=merge_rate,
        reject_rate=reject_rate,
        stderr_merge=_binomial_stderr(merge_rate, scn.replicates),
        stderr_reject=_binomial_stderr(reject_rate, scn.replicates),
        per_method_rates=per_method,
        seconds=sum(seconds for _, seconds in timed_rows),
    )


def run_sweep(scenarios, workers: int = 1) -> list[CampaignResult]:
    """Run every cell of a sweep and aggregate each cell's merge / rejection rates.

    ``_sweep`` of each cell's ``_run_replicate``, on ``workers`` threads.
    The cells of a replicate share its resampling draws; they were the
    same draws before, so each result equals ``run_campaign`` of its cell
    alone.
    """
    scenarios = tuple(scenarios)
    runs = [partial(_run_replicate, scn) for scn in scenarios]
    return list(map(_cell_result, scenarios, _sweep(runs, scenarios, workers)))


def run_campaign(scn: Scenario, workers: int = 1) -> CampaignResult:
    """Run all replicates of one cell and aggregate merge / rejection rates.

    ``run_sweep`` of the one cell.  Replicates run on ``workers``
    threads; ``workers < 1`` is a ``ConfigError``.
    """
    (result,) = run_sweep((scn,), workers)
    return result


# ---------------------------------------------------------------------------
# Null-distribution study (reference-approximation quality).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullStudyRow:
    method: str
    level: float
    reference_quantile: float
    true_quantile: float
    ks_distance: float


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    pooled = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), pooled, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _null_replicate(
    scn: Scenario,
    probe_generator: Optional[Generator],
    ref_draws: int,
    methods: tuple,
    rep: int,
    store: dict,
):
    """One null-study replicate: per method, its true-null statistic and reference draws.

    Both come from ``causality``, which defines each method's statistic
    and reference law once.  The reference draws are taken on the
    replicate's own Gram, or on arms drawn from ``probe_generator`` with
    the replicate's data seed; the methods share one generator, in order.
    ``store`` is unused: that generator is the replicate's own, not a
    stage seed that other cells could share.
    """
    estimator = scn.ttp.causality.estimator
    gram = build_gram(scn.ttp.kernel, *draw_arms(scn, rep))
    probe_gram = gram
    if probe_generator is not None:
        probe_arms = draw_arms(replace(scn, generator=probe_generator), rep)
        probe_gram = build_gram(scn.ttp.kernel, *probe_arms)
    rng = np.random.default_rng(np.random.SeedSequence([int(scn.master_seed), rep, 3]))
    truths, out = {}, {}
    for method in methods:
        statistic = causality.statistic_for(method)
        if statistic not in truths:
            truths[statistic] = statistic(gram, estimator)
        draws = causality.reference_draws(probe_gram, method, ref_draws, rng, estimator)
        out[method] = (truths[statistic], draws)
    return out


def _null_rows(per_rep: list, probe_levels, methods) -> list[NullStudyRow]:
    """Aggregate one cell's ``_null_replicate`` outputs, in replicate order."""
    rows = []
    for method in methods:
        truth = np.array([rep_out[method][0] for rep_out in per_rep])
        reference = np.concatenate([rep_out[method][1] for rep_out in per_rep])
        ks = _ks_distance(reference, truth)
        for level in probe_levels:
            rows.append(
                NullStudyRow(
                    method=method.value,
                    level=float(level),
                    reference_quantile=inf_quantile(reference, level),
                    true_quantile=inf_quantile(truth, level),
                    ks_distance=ks,
                )
            )
    return rows


_NULL_METHODS = (Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX)


def null_study_sweep(
    cells, probe_levels, ref_draws: int, methods=_NULL_METHODS, workers: int = 1
) -> list[list[NullStudyRow]]:
    """``null_distribution_study`` of each ``(scenario, probe_generator)`` cell, in one ``_sweep``.

    Each setting but a probe generator is checked (``ConfigError``) before a replicate runs.
    """
    cells = tuple(cells)
    for scn, _ in cells:
        generator = scn.generator
        if isinstance(generator, MeanShift) and generator.mu_c_minus_mu_t != 0.0:
            raise ConfigError("null-study requires Qc = Qt (scenario.mu_c_minus_mu_t = 0)")
        if isinstance(generator, VarShift) and generator.var_c_over_var_t != 1.0:
            raise ConfigError("null-study requires Qc = Qt (scenario.var_c_over_var_t = 1)")
    if ref_draws < 1:
        raise ConfigError(f"ref_draws must be >= 1, got {ref_draws}")
    if not all(0.0 < level < 1.0 for level in probe_levels):
        raise ConfigError(f"probe levels must lie in (0, 1), got {list(probe_levels)}")
    if Method.STANDARD_PERMUTATION in methods:
        raise ConfigError("the null study compares merged-branch methods only")
    runs = [partial(_null_replicate, scn, probe, ref_draws, methods) for scn, probe in cells]
    per_cell = _sweep(runs, [scn for scn, _ in cells], workers)
    return [_null_rows([out for out, _ in rows], probe_levels, methods) for rows in per_cell]


def null_distribution_study(
    scn: Scenario,
    probe_levels=(0.9, 0.95),
    probe_generator: Optional[Generator] = None,
    ref_draws: int = 20,
    methods=_NULL_METHODS,
    workers: int = 1,
) -> list[NullStudyRow]:
    """Compare per-method reference distributions against true-null Monte Carlo.

    ``scn.generator`` must fix Qc = Qt, else this is a ``ConfigError``; it
    supplies the true null draws of the test statistics (Delta for
    bootstrap / normal approximation, T for partial permutation).
    Reference draws are computed on data from ``probe_generator``
    (default: the null generator itself, whose replicate Gram is then
    reused), pooling ``ref_draws`` resamples per replicate across
    replicates.  ``null_study_sweep`` of the one cell, on ``workers``
    threads.
    """
    (rows,) = null_study_sweep(((scn, probe_generator),), probe_levels, ref_draws, methods, workers)
    return rows
