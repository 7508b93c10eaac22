"""End-to-end test-then-pool runs: fusion decision, branch, causality, report."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .blas import helper_thread, one_blas_thread, submit
from .causality import (
    CausalityConfig,
    CausalityOutcome,
    DiagnosticsReport,
    Method,
    consistency_diagnostics,
    merged_record,
    run_causality,
    standard_permutation_test,
)
from .errors import ConfigError
from .estimators import Masks, SharedSeed, defer_weights
from .fusion import FusionConfig, FusionOutcome, fusion_record
from .kernels import GramCache, KernelSpec, Sample, build_gram


@dataclass(frozen=True)
class TTPConfig:
    """Settings of one test-then-pool run.

    ``causality.method``, read as ``merged_method``, is the causality
    test run on the fused control after a merge whose fusion record
    (``fusion.fusion_record``) runs the merged-branch methods; a merge
    whose record names its own test runs that test, whatever
    ``causality.method`` says.
    """

    kernel: KernelSpec = field(default_factory=KernelSpec)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    causality: CausalityConfig = field(default_factory=CausalityConfig)

    def __post_init__(self) -> None:
        if merged_record(self.merged_method) is None:
            raise ConfigError("merged_method must be a merged-branch method")
        self.check_resamples((self.merged_method,))

    @property
    def merged_method(self) -> Method:
        """The merged-branch method a merge runs: ``causality.method``."""
        return self.causality.method

    def check_resamples(self, methods) -> None:
        """Refuse a method among ``methods`` whose reference set, with no draw, is empty.

        Only a merge whose fusion record runs the merged-branch methods
        runs it.  The permutation tests' sets also hold the observed
        statistic; the normal approximation has a law, not a set.
        """
        runs_methods = fusion_record(self.fusion.mode).merged_test is None
        if runs_methods and self.causality.num_resamples < 1:
            for method in methods:
                record = merged_record(method)
                if record and record.observed_joins is False:
                    name = method.value.replace("_", " ")
                    raise ConfigError(f"the {name} needs at least one resample")


@dataclass(frozen=True)
class TTPReport:
    fusion: FusionOutcome
    causality: CausalityOutcome
    diagnostics: DiagnosticsReport
    config: TTPConfig
    bandwidth_pooled3: Optional[float]
    bandwidth_pooled2: Optional[float]
    bandwidth_used: str
    seeds: dict


def derive_stage_seeds(master_seed) -> tuple:
    """Labeled substreams (fusion, causality) from one master seed."""
    fusion_ss, causality_ss = np.random.SeedSequence(master_seed).spawn(2)
    return fusion_ss, causality_ss


def _stage_seeds(cfg: TTPConfig, master_seed) -> tuple:
    """Configured stage seeds; a stage without one takes its master substream."""
    fusion_seed, causality_seed = cfg.fusion.seed, cfg.causality.seed
    if fusion_seed is None or causality_seed is None:
        derived_fusion, derived_causality = derive_stage_seeds(master_seed)
        if fusion_seed is None:
            fusion_seed = derived_fusion
        if causality_seed is None:
            causality_seed = derived_causality
    return fusion_seed, causality_seed


def _seed_record(master_seed, fusion_seed, causality_seed) -> dict:
    def describe(s):
        if isinstance(s, np.random.SeedSequence):
            return {"entropy": s.entropy, "spawn_key": list(s.spawn_key)}
        return s

    return {
        "master": describe(master_seed),
        "fusion": describe(fusion_seed),
        "causality": describe(causality_seed),
    }


def _no_borrowing_test(gram: GramCache, cfg: CausalityConfig) -> CausalityOutcome:
    """``standard_permutation_test``, kept in the store of a ``SharedSeed`` ``cfg.seed``.

    The outcome depends only on its key: the seed's mask stream, α, B,
    the estimator, the kernel and the current and treatment points.  So
    the cells of a campaign replicate, which share those, run it once,
    whatever their historical arm or fusion settings; the later cells
    neither build the two-arm Gram nor draw the masks.  Any other seed
    runs the test.
    """
    seed = cfg.seed
    if not isinstance(seed, SharedSeed):
        return standard_permutation_test(gram, cfg)
    m, n = gram.m, gram.n
    arms = (gram.points[:m], gram.points[m + gram.l :])
    key = (
        Method.STANDARD_PERMUTATION,
        seed.key(cfg.num_resamples, (Masks(m + n, m),)),
        cfg.alpha,
        cfg.estimator,
        gram.kernel,
        *((arm.dtype.str, arm.shape, arm.tobytes()) for arm in arms),
    )
    outcome = seed.store.get(key)
    if outcome is None:
        outcome = seed.store[key] = standard_permutation_test(gram, cfg)
    return outcome


def run_ttp(
    gram: GramCache,
    cfg: TTPConfig,
    fusion_seed,
    causality_seeds,
    compare_methods=(),
) -> tuple[FusionOutcome, tuple[CausalityOutcome, ...]]:
    """Fusion -> branch -> causality on a built Gram cache, as the fusion mode's record says.

    Returns the fusion outcome and one causality outcome per method of
    ``(cfg.merged_method, *compare_methods)``; ``causality_seeds`` holds
    one seed per method.  The fusion test is the record's ``test``.

    * Not merged: standard permutation of current vs treatment on the
      two-arm bandwidth, seeded by the first seed.  With a ``SharedSeed``
      the outcome is kept in its store, and a later cell of the replicate
      with the same current and treatment arms and test settings takes it
      from there (``_no_borrowing_test``).
    * Merged, and the record has no ``merged_test``: each method on the
      fused control vs treatment with the three-arm bandwidth, each with
      its own seed.
    * Merged otherwise: the record's ``merged_test``, seeded by the first
      seed.  ``merged_method`` and ``compare_methods`` do not choose it.

    When one test runs, every method slot carries its outcome.  The
    products run inside ``blas.one_blas_thread``.
    """
    methods = (cfg.merged_method, *compare_methods)
    if len(causality_seeds) != len(methods):
        raise ConfigError(f"need {len(methods)} causality seeds, got {len(causality_seeds)}")
    record = fusion_record(cfg.fusion.mode)
    with one_blas_thread():
        fusion = record.test(gram, replace(cfg.fusion, seed=fusion_seed))
        if fusion.merged and record.merged_test is None:
            outcomes = tuple(
                run_causality(gram, replace(cfg.causality, method=method, seed=seed))
                for method, seed in zip(methods, causality_seeds)
            )
            return fusion, outcomes
        test = record.merged_test if fusion.merged else _no_borrowing_test
        outcome = test(gram, replace(cfg.causality, seed=causality_seeds[0]))
    return fusion, (outcome,) * len(methods)


def run_report(
    current: Sample,
    historical: Sample,
    treatment: Sample,
    cfg: TTPConfig,
    master_seed=None,
) -> TTPReport:
    """One test-then-pool analysis of a dataset, in the fusion mode ``cfg`` names.

    Builds the Gram cache, runs ``run_ttp``, which picks the branch and
    its test, with the configured stage seeds (a stage without one takes
    its substream of ``master_seed``) and reports the outcomes, the
    consistency diagnostics, both bandwidths and the seeds.

    The analysis runs inside ``blas.one_blas_thread``, as a campaign
    replicate does, and on two threads: this one and a helper that
    ``blas.helper_thread`` opens for the call and stops before it
    returns.  The helper first draws the counts of the fusion record's
    plan, and of the merged method's when a merge runs the merged-branch
    methods, into a ``SharedSeed`` store while this thread computes the
    pairwise distances and the three-arm median; the helper takes kernel
    blocks once it is free.  Then this thread resolves the two-arm median while
    the helper finishes its draws and makes the diagnostics, and both
    share the row blocks of the resampling products.  Draws, blocks and
    bandwidths have the bits they have on one thread, so the outcomes
    equal a campaign replicate's on the same arms and seeds.
    """
    fusion_seed, causality_seed = _stage_seeds(cfg, master_seed)
    store = {}
    fusion_draws, causality_draws = (
        SharedSeed(seed, store) if isinstance(seed, np.random.SeedSequence) else seed
        for seed in (fusion_seed, causality_seed)
    )
    m, l, n = current.size, historical.size, treatment.size
    record = fusion_record(cfg.fusion.mode)
    deferred = [(fusion_draws, cfg.fusion.num_bootstrap, record.plan)]
    if record.merged_test is None:
        plan = merged_record(cfg.merged_method).plan
        deferred.append((causality_draws, cfg.causality.num_resamples, plan))
    with one_blas_thread(), helper_thread():
        for draws, batch, plan in deferred:
            if plan is not None and isinstance(draws, SharedSeed):
                defer_weights(draws, batch, *plan(m, l, n))
        gram = build_gram(cfg.kernel, current, historical, treatment)
        diagnostics = submit(consistency_diagnostics, gram)
        bandwidth_pooled2 = gram.bandwidth_pooled2
        fusion, (causality,) = run_ttp(gram, cfg, fusion_draws, (causality_draws,))
        return TTPReport(
            fusion=fusion,
            causality=causality,
            diagnostics=diagnostics.result(),
            config=cfg,
            bandwidth_pooled3=gram.bandwidth_pooled3,
            bandwidth_pooled2=bandwidth_pooled2,
            bandwidth_used="pooled3" if fusion.merged else "pooled2",
            seeds=_seed_record(master_seed, fusion_seed, causality_seed),
        )
