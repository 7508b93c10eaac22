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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from . import causality
from .blas import one_blas_thread
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
        mu_h = self.mu_h_minus_mu_c + self.mu_c_minus_mu_t
        if not np.isfinite(mu_h):
            raise ConfigError(f"mu_h_minus_mu_c + mu_c_minus_mu_t must be finite, got {mu_h}")

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
        var_h = self.var_h_over_var_c * self.var_c_over_var_t
        if not 0 < var_h < np.inf:
            raise ConfigError(
                f"var_h_over_var_c * var_c_over_var_t must be finite and > 0, got {var_h}"
            )

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
        if self.ttp.fusion.seed is not None or self.ttp.causality.seed is not None:
            raise ConfigError(
                "a campaign derives its stage seeds from master_seed; "
                "leave fusion.seed and causality.seed unset"
            )
        self.ttp.check_resamples(self.compare_methods)


@dataclass(frozen=True)
class CampaignResult:
    """Rates of one campaign cell.

    ``seconds`` is the wall time this cell's replicates took, summed over
    replicates; on a pool thread that includes its waits for the
    interpreter lock.  In a sweep, the first cell of a replicate to need a
    draw makes it; the later cells copy it.  Likewise the first cell of a
    replicate that does not merge runs the standard permutation test, and
    the later unmerged cells with its arms and test settings take its
    outcome, so their seconds leave that test out.
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


@contextmanager
def _replicate_arms(scn: Scenario, rep: int):
    """Replicate ``rep``'s arms; a ``TTPoolError`` in the block names the replicate.

    The error is re-raised as its own type, so the CLI gives it the exit
    code and hint of that type, with the replicate and the master seed
    in front of its message.
    """
    try:
        yield draw_arms(scn, rep)
    except TTPoolError as exc:
        raise type(exc)(f"replicate {rep} (master_seed={scn.master_seed}) failed: {exc}") from exc


def _run_replicate(scn: Scenario, rep: int, store: dict) -> tuple:
    """One TTP replicate: ``pipeline.run_ttp``'s ``(fusion, outcomes)``, with replicate seeds.

    ``outcomes`` holds one causality outcome per method of ``(merged_method,
    *compare_methods)``, as ``run_ttp`` gives them.  The resampling draws
    are kept in ``store`` for the other cells of the replicate.
    """
    with _replicate_arms(scn, rep) as arms:
        gram = build_gram(scn.ttp.kernel, *arms)
        fusion_ss, causality_seeds = _replicate_seeds(
            scn, rep, 1 + len(scn.compare_methods), store
        )
        return run_ttp(gram, scn.ttp, fusion_ss, causality_seeds, scn.compare_methods)


#: glibc ``mallopt`` parameters (malloc.h), and the bound ``keep_freed_heap``
#: gives the first two: 32 MiB, glibc's 64-bit ceiling for its own dynamic
#: mmap threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_BLOCK_LIMIT = 32 << 20


def keep_freed_heap() -> bool:
    """Keep freed heap pages in this process, in one arena; True if glibc took every setting.

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
    Every thread allocates from one malloc arena, so helper and pool
    threads reuse the pages the calling thread freed: ten large-shape
    ``ttpool test`` commands in one process peaked at 127.0 MB with a
    second arena for the helper thread, against 122.1 MB with one.  The
    settings are process-wide, so pool threads share them.  Where ``mallopt`` is missing, nothing changes.  The CLI
    calls this; library functions leave the allocator to their caller.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        _log.debug("no C library mallopt found; freed heap pages go back to the system")
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    settings = (
        (_M_MMAP_THRESHOLD, _HEAP_BLOCK_LIMIT),
        (_M_TRIM_THRESHOLD, _HEAP_BLOCK_LIMIT),
        (_M_ARENA_MAX, 1),
    )
    return all([mallopt(param, value) for param, value in settings])


def check_workers(workers: int) -> None:
    """Refuse a worker count below 1."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def _map_replicates(run, replicates: int, workers: int) -> list:
    """``[run(rep) for rep in range(replicates)]``, on ``workers`` threads if > 1.

    Every worker count runs inside ``blas.one_blas_thread``, so each OpenBLAS
    call runs on its calling thread alone: products round the same way on
    any worker count, and pool threads do not compete with OpenBLAS
    helper threads for the cores.  The saved count is restored once the
    replicates are done.  One worker runs the loop on the calling thread;
    a one-thread pool would move its scratch into a second malloc arena,
    which raised a serial benchmark sweep's peak RSS from 47.9 to 51.1 MB.
    More open a pool of ``min(workers, replicates)`` threads of this
    process for this call and close it after, and never more threads
    than ``_cpus()``: each thread holds a replicate's scratch at once,
    and the rows do not depend on the thread count.  The rows come back
    in replicate order either way.  NumPy releases the interpreter lock
    in the products, the random fills and large ufuncs, which is where a
    replicate spends its time, so the threads run side by side there.  An
    exception in ``run`` reaches the caller after every thread has stopped.
    """
    check_workers(workers)
    reps = range(replicates)
    with one_blas_thread():
        if workers == 1:
            return [run(rep) for rep in reps]
        with ThreadPoolExecutor(min(workers, replicates, _cpus())) as pool:
            return list(pool.map(run, reps))


def _cpus() -> int:
    """The CPUs this process may run on, or the machine's count where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_item(runs: tuple, rep: int) -> list[tuple[object, float]]:
    """Replicate ``rep`` of every cell: per cell, ``run(rep, store)`` and its seconds.

    Cells with the same master seed have the same stage seeds, so their
    draws of one plan are the same bytes.  The cells share one store for
    the item: each (seed, plan) is drawn once and read by the later
    cells.  A single cell stores its draws too; that measured no slower
    than drawing without a store.  The store also keeps the outcome of
    the no-borrowing test (``pipeline.run_ttp``): cells that differ only
    in the historical arm or the fusion settings have the same current
    and treatment arms, so the first of them to need it runs it.  The
    store lives as long as the item, on the thread that runs it.
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
    The cells of a replicate share its resampling draws, and the outcome
    of the no-borrowing test among cells with its arms and settings; they
    were the same bytes before, so each result equals ``run_sweep`` of
    its cell alone.  ``workers < 1`` is a ``ConfigError``.
    """
    scenarios = tuple(scenarios)
    runs = [partial(_run_replicate, scn) for scn in scenarios]
    return list(map(_cell_result, scenarios, _sweep(runs, scenarios, workers)))


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
    with _replicate_arms(scn, rep) as arms:
        gram = build_gram(scn.ttp.kernel, *arms)
        probe_gram = gram
        if probe_generator is not None:
            probe_arms = draw_arms(replace(scn, generator=probe_generator), rep)
            probe_gram = build_gram(scn.ttp.kernel, *probe_arms)
        rng = np.random.default_rng(np.random.SeedSequence([int(scn.master_seed), rep, 3]))
        truths, out = {}, {}
        for method in methods:
            statistic, draws, *_ = causality.merged_record(method)
            if statistic not in truths:
                truths[statistic] = statistic(gram, estimator)
            out[method] = (truths[statistic], draws(probe_gram, ref_draws, rng, estimator))
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


def null_study_sweep(
    cells, probe_levels, ref_draws: int, methods=causality.MERGED_METHODS, workers: int = 1
) -> list[list[NullStudyRow]]:
    """Compare per-method reference distributions against true-null Monte Carlo.

    Per ``(scenario, probe_generator)`` cell, in one ``_sweep`` on
    ``workers`` threads.  A scenario's generator must fix Qc = Qt; it
    supplies the true null draws of the test statistics (Delta for
    bootstrap / normal approximation, T for partial permutation).
    Reference draws are computed on data from the cell's probe generator
    (``None``: the null generator itself, whose replicate Gram is then
    reused), pooling ``ref_draws`` resamples per replicate across
    replicates.  Each setting but a probe generator is checked
    (``ConfigError``) before a replicate runs.
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
    if any(causality.merged_record(method) is None for method in methods):
        raise ConfigError("the null study compares merged-branch methods only")
    runs = [partial(_null_replicate, scn, probe, ref_draws, methods) for scn, probe in cells]
    per_cell = _sweep(runs, [scn for scn, _ in cells], workers)
    return [_null_rows([out for out, _ in rows], probe_levels, methods) for rows in per_cell]
