"""Equivalence test-then-pool with kernel MMD two-sample tests."""

from .causality import (
    CausalityConfig,
    CausalityOutcome,
    DiagnosticsReport,
    Method,
    consistency_diagnostics,
    pooled_permutation_test,
    run_causality,
    standard_permutation_test,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSample,
    DimensionMismatch,
    IndexOutOfRange,
    SampleTooSmall,
    TTPoolError,
    ZeroBandwidth,
)
from .estimators import Estimator, MMDValue, mmd2, mmd2_slices, mmd2_v
from .fusion import FusionConfig, FusionMode, FusionOutcome, classic_fusion, equivalence_fusion
from .kernels import (
    Arm,
    GramCache,
    KernelFamily,
    KernelSpec,
    Sample,
    build_gram,
    eval_kernel,
    resolve_bandwidth,
)
from .pipeline import (
    TTPConfig,
    TTPReport,
    derive_stage_seeds,
    run_report,
    run_ttp,
)
from .simulate import (
    CampaignResult,
    MeanShift,
    NullStudyRow,
    Scenario,
    VarShift,
    null_study_sweep,
    run_sweep,
)

__version__ = "0.1.0"
