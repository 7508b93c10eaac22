"""Monte Carlo campaign runner for the synthetic studies.

Replicates are embarrassingly parallel and seeded per replicate from the
campaign master seed, so results are bitwise identical for any worker
count.  ``worker_pool`` opens the one process pool that a command's
campaigns share; each of its workers runs one BLAS thread.  Data
generation uses numpy's PCG64 Generator (``standard_normal`` scaled and
shifted), recorded in the result for replay.
"""

from __future__ import annotations

import ctypes
import logging
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import causality
from .causality import Method
from .errors import ConfigError, TTPoolError
from .kernels import Arm, Sample, build_gram
from .pipeline import TTPConfig, run_ttp
from .quantile import inf_quantile

RNG_ALGORITHM = "numpy.random.Generator(PCG64).standard_normal"

_log = logging.getLogger(__name__)

#: Workers are forked where the platform can, so that they inherit the
#: parent's one-thread BLAS setting (see ``_map_replicates``).
_POOL_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


@dataclass(frozen=True)
class MeanShift:
    """Qt = N(0,1), Qc = N(mu_c - mu_t, 1), Qh = N((mu_h - mu_c) + (mu_c - mu_t), 1)."""

    mu_c_minus_mu_t: float = 0.0
    mu_h_minus_mu_c: float = 0.0

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


@dataclass(frozen=True)
class CampaignResult:
    scenario: Scenario
    merge_rate: float
    reject_rate: float
    stderr_merge: float
    stderr_reject: float
    per_method_rates: dict
    wall_time: float
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


def _replicate_seeds(scn: Scenario, rep: int, n_methods: int):
    fusion_ss = np.random.SeedSequence([int(scn.master_seed), rep, 1])
    causality_ss = np.random.SeedSequence([int(scn.master_seed), rep, 2])
    return fusion_ss, causality_ss.spawn(n_methods)


def _run_replicate(scn: Scenario, rep: int) -> dict:
    """One TTP replicate through ``pipeline.run_ttp``, with replicate-derived seeds.

    Reports the merge flag and a reject flag for the primary method
    (``merged_method``) and each of ``compare_methods``.  The methods
    only differ after an equivalence-mode merge; otherwise one test
    runs (standard permutation without a merge, naive pooling after a
    classic-mode merge) and every method column carries its outcome.
    """
    current, historical, treatment = draw_arms(scn, rep)
    try:
        gram = build_gram(scn.ttp.kernel, current, historical, treatment)
        fusion_ss, causality_seeds = _replicate_seeds(
            scn, rep, 1 + len(scn.compare_methods)
        )
        fusion, outcomes = run_ttp(
            gram, scn.ttp, fusion_ss, causality_seeds, scn.compare_methods
        )
    except TTPoolError as exc:
        raise TTPoolError(
            f"replicate {rep} (master_seed={scn.master_seed}) failed: {exc}"
        ) from exc
    methods = (scn.ttp.merged_method, *scn.compare_methods)
    rejects = {method.value: o.reject for method, o in zip(methods, outcomes)}
    return {"merged": fusion.merged, "rejects": rejects}


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


@contextmanager
def _one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread; restore the saved count after."""
    lib = _numpy_openblas()
    if lib is None:
        _log.debug("no NumPy OpenBLAS found; pool workers keep the default BLAS threading")
        yield
        return
    saved = lib.scipy_openblas_get_num_threads64_()
    _log.debug("pinning OpenBLAS %s to 1 thread for the pool (saved count %d)", lib._name, saved)
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(saved)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


@contextmanager
def worker_pool(workers: int):
    """The process pool that every campaign of one command shares.

    Yields ``None`` for ``workers == 1``: serial runs keep the default BLAS
    threading, which large matrix products need.  Otherwise yields a
    ``ProcessPoolExecutor`` of ``workers`` processes, open while NumPy's
    OpenBLAS runs one thread; the saved thread count is restored once the
    pool has closed.  Pass it as ``pool`` to ``run_campaign`` or
    ``null_distribution_study``.
    """
    _check_workers(workers)
    if workers == 1:
        yield None
        return
    with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=_POOL_CONTEXT) as pool:
        yield pool


def _map_replicates(run, replicates: int, workers: int, pool=None) -> list:
    """``[run(rep) for rep in range(replicates)]``, on ``workers`` processes if > 1.

    ``run`` must be picklable (a module-level function or a ``partial``
    of one); the rows come back in replicate order either way.  ``pool``
    is an open ``worker_pool(workers)``; without one, this call opens its
    own.  The replicates go out in chunks of ``ceil(replicates / workers)``,
    one per worker.

    Workers fork at the pool's first map, while ``worker_pool`` holds the
    parent's OpenBLAS at one thread, so each worker starts with one BLAS
    thread.  Setting the count inside a worker after the fork is not
    enough: OpenBLAS has started its helper threads by then, and they keep
    competing with the other workers for the cores.  In a forked worker on
    a 2-vCPU VM, 20 products of 1000×150 by 150×150 took 30–33 ms pinned
    before the fork, 65–73 ms pinned after it and 87–147 ms unpinned.
    """
    _check_workers(workers)
    reps = range(replicates)
    if workers == 1:
        return [run(rep) for rep in reps]
    if pool is None:
        with worker_pool(workers) as own_pool:
            return _map_replicates(run, replicates, workers, own_pool)
    return list(pool.map(run, reps, chunksize=math.ceil(replicates / workers)))


def run_campaign(scn: Scenario, workers: int = 1, pool=None) -> CampaignResult:
    """Run all replicates and aggregate merge / rejection rates.

    Replicates run on ``workers`` processes, in ``pool`` (an open
    ``worker_pool(workers)``) when given; ``workers < 1`` is a ``ConfigError``.
    """
    start = time.perf_counter()
    rows = _map_replicates(partial(_run_replicate, scn), scn.replicates, workers, pool)

    merges = sum(r["merged"] for r in rows)
    methods = (scn.ttp.merged_method,) + tuple(scn.compare_methods)
    per_method = {
        method.value: sum(r["rejects"][method.value] for r in rows) / scn.replicates
        for method in methods
    }
    merge_rate = merges / scn.replicates
    reject_rate = per_method[scn.ttp.merged_method.value]
    return CampaignResult(
        scenario=scn,
        merge_rate=merge_rate,
        reject_rate=reject_rate,
        stderr_merge=_binomial_stderr(merge_rate, scn.replicates),
        stderr_reject=_binomial_stderr(reject_rate, scn.replicates),
        per_method_rates=per_method,
        wall_time=time.perf_counter() - start,
    )


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
):
    """One null-study replicate: per method, its true-null statistic and reference draws.

    Both come from ``causality``, which defines each method's statistic
    and reference law once.  The reference draws are taken on the
    replicate's own Gram, or on arms drawn from ``probe_generator`` with
    the replicate's data seed; the methods share one generator, in order.
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


def null_distribution_study(
    scn: Scenario,
    probe_levels=(0.9, 0.95),
    probe_generator: Optional[Generator] = None,
    ref_draws: int = 20,
    methods=(Method.PARTIAL_BOOTSTRAP, Method.PARTIAL_PERMUTATION, Method.NORMAL_APPROX),
    workers: int = 1,
    pool=None,
) -> list[NullStudyRow]:
    """Compare per-method reference distributions against true-null Monte Carlo.

    ``scn.generator`` must fix Qc = Qt; it supplies the true null draws of
    the test statistics (Delta for bootstrap / normal approximation, T
    for partial permutation).  Reference draws are computed on data from
    ``probe_generator`` (default: the null generator itself, whose
    replicate Gram is then reused), pooling ``ref_draws`` resamples per
    replicate across replicates.  Replicates run on ``workers``
    processes, in ``pool`` (an open ``worker_pool(workers)``) when given;
    the rows are bitwise identical for any worker count.
    """
    if ref_draws < 1:
        raise ConfigError(f"ref_draws must be >= 1, got {ref_draws}")
    if not all(0.0 < level < 1.0 for level in probe_levels):
        raise ConfigError(f"probe levels must lie in (0, 1), got {list(probe_levels)}")
    if Method.STANDARD_PERMUTATION in methods:
        raise ConfigError("the null study compares merged-branch methods only")
    per_rep = _map_replicates(
        partial(_null_replicate, scn, probe_generator, ref_draws, methods),
        scn.replicates,
        workers,
        pool,
    )
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
