"""Numerical workbench for sesquilinear forms defined by one or two
sequences in a truncated Hilbert space: classification (Bessel, frame,
semi-frame, Riesz), 0-closedness of pair forms, dual systems and weak
reconstruction, plus an executable catalog of worked scenarios."""

from .core import (
    DEFAULT_TOL,
    CoeffVector,
    ConvergenceVerdict,
    Tolerances,
    TruncationLadder,
    WeightVector,
    inner_product,
    partial_sum_trend,
    probe_series,
    weighted_norm,
)
from .errors import (
    DegenerateNormWarning,
    DenseTooLarge,
    DimensionMismatch,
    NotLowerSemiFrame,
    NotPositiveDefinite,
    NotZeroClosed,
    ScaleOutOfRange,
    SeqFormsError,
    SupportOverflow,
    UnknownScenario,
)
from .sequences import (
    DiagonalWeights,
    ExplicitColumns,
    FiniteDifference,
    Interleave,
    OperatorImage,
    PairedDouble,
    ScalarRule,
    Scaled,
    SequenceSpec,
    TriplePattern,
    materialize,
    spec_from_json,
    term,
)
from .operators import (
    FrameSpectrum,
    OperatorBundle,
    build_bundle,
    bundle_from_columns,
    complement_basis,
    direct_sum_check,
    frame_spectrum,
    operator_image_bundle,
    principal_angles,
    pseudo_inverse,
    range_basis,
)
from .classify import (
    AsymptoticDiagnosis,
    WeightedFrameBounds,
    check_biorthogonal,
    classify_finite,
    diagnose_asymptotic,
    weighted_space_frame,
)
from .forms import (
    FormAssessment,
    InfSupConstants,
    LambdaVerdict,
    ShiftResult,
    eval_form_pair,
    eval_gram_form,
    infsup_constants,
    lambda_region_weighted,
    solvability_shift,
    weighted_riesz_associated,
    zero_closed_check,
    zero_closed_from_bundles,
)
from .reconstruct import (
    DualSystem,
    canonical_dual,
    max_residual,
    reconstruct_with,
    reproducing_pair_duals,
)
from .scenarios import ClaimResult, ScenarioReport, run_scenario, scenario_ids

__version__ = "0.1.0"
