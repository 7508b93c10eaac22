"""End-to-end test-then-pool runs: fusion decision, branch, causality, report."""

from __future__ import annotations

import secrets
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
from .estimators import SharedSeed, defer_weights
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

    A run derives its stage seeds from its key alone (``derive_stage_seeds``),
    so ``fusion.seed`` and ``causality.seed`` stay unset here; ``run_ttp``
    sets them from its own arguments.
    """

    kernel: KernelSpec = field(default_factory=KernelSpec)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    causality: CausalityConfig = field(default_factory=CausalityConfig)

    def __post_init__(self) -> None:
        if self.fusion.seed is not None or self.causality.seed is not None:
            raise ConfigError(
                "a run derives its stage seeds from master_seed; "
                "leave fusion.seed and causality.seed unset"
            )
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


#: The stages of a run, in the order the seed rule numbers them (``derive_stage_seeds``).
_STAGES = ("data", "fusion", "causality", "reference")


def stage_seed(key, stage: str) -> np.random.SeedSequence:
    """The seed of the stage named ``stage`` of the run keyed ``key``."""
    return np.random.SeedSequence([*key, _STAGES.index(stage)])


def derive_stage_seeds(key, n_methods: int = 1) -> tuple:
    """The fusion seed and one causality seed per method of the run keyed ``key``.

    The one seed rule: stage ``s`` of the run keyed ``K`` draws from
    ``SeedSequence([*K, s])`` (``stage_seed``).  0 is the data, 1 the
    fusion, 2 the causality stage, spawned once per method, and 3 the
    null-study reference.  ``run_report`` keys its run ``[master_seed]``
    and campaign replicate ``rep`` keys its run ``[master_seed, rep]``,
    so ``run_report(*draw_arms(scn, rep), scn.ttp, master_seed=[scn.master_seed, rep])``
    is the replicate.  NumPy pads a ``SeedSequence``'s entropy with zero
    words, so ``[7, 1]`` and ``[7, 1, 0]`` give one stream: the fusion
    counts of ``ttpool test --seed 7`` come from the data stream of
    replicate 1 of ``simulate --seed 7``.  No run reads both; a key that
    carried its length would part them, and move every stream.
    """
    return stage_seed(key, "fusion"), stage_seed(key, "causality").spawn(n_methods)


def is_seed_word(word) -> bool:
    """Whether ``word`` may be a word of a run key: an integer >= 0."""
    return isinstance(word, (int, np.integer)) and word >= 0


def _run_key(master_seed) -> tuple:
    """``master_seed`` as ``run_report`` records it, and the key of its run.

    ``None`` draws 128 bits of entropy once, so the report records a
    master seed that replays it.  Anything but an integer >= 0, or a
    non-empty list of them, is a ``ConfigError``.
    """
    if master_seed is None:
        master_seed = secrets.randbits(128)
    listed = isinstance(master_seed, (list, tuple))
    words = list(master_seed) if listed else [master_seed]
    if not words or not all(map(is_seed_word, words)):
        raise ConfigError(
            f"master_seed must be an integer >= 0 or a list of them, got {master_seed!r}"
        )
    key = [int(w) for w in words]
    return (key if listed else key[0]), key


def _seed_record(master_seed, fusion_seed, causality_seed) -> dict:
    stages = {"fusion": fusion_seed, "causality": causality_seed}
    seeds = {k: {"entropy": s.entropy, "spawn_key": list(s.spawn_key)} for k, s in stages.items()}
    return {"master": master_seed, **seeds}


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
      the test keeps its outcome in the seed's store, and a later cell of
      the replicate with the same current and treatment arms and test
      settings takes it from there (``standard_permutation_test``); so
      does a compare-method ``standard_permutation`` after a merge.
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
        test = record.merged_test if fusion.merged else standard_permutation_test
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
    its test, and reports the outcomes, the consistency diagnostics, both
    bandwidths and the seeds.  The stage seeds are those of the run keyed
    ``[master_seed]``, or ``master_seed`` itself when it is a list
    (``derive_stage_seeds``), so ``master_seed=[scn.master_seed, rep]``
    on ``simulate.draw_arms(scn, rep)`` replays campaign replicate ``rep``.
    ``None`` draws a master seed once and records it in ``seeds["master"]``.
    A negative or non-integer master seed is a ``ConfigError``.  ``cfg``
    sets no stage seed (``TTPConfig``).

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
    equal those of the campaign replicate with the same key.
    """
    master_seed, key = _run_key(master_seed)
    fusion_seed, (causality_seed,) = derive_stage_seeds(key)
    store = {}
    fusion_draws, causality_draws = (SharedSeed(s, store) for s in (fusion_seed, causality_seed))
    m, l, n = current.size, historical.size, treatment.size
    record = fusion_record(cfg.fusion.mode)
    deferred = [(fusion_draws, cfg.fusion.num_bootstrap, record.plan)]
    if record.merged_test is None:
        plan = merged_record(cfg.merged_method).plan
        deferred.append((causality_draws, cfg.causality.num_resamples, plan))
    with one_blas_thread(), helper_thread():
        for draws, batch, plan in deferred:
            if plan is not None:
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
