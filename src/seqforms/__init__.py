"""Numerical workbench for sesquilinear forms defined by one or two
sequences in a truncated Hilbert space: classification (Bessel, frame,
semi-frame, Riesz), 0-closedness of pair forms, dual systems and weak
reconstruction, plus an executable catalog of worked scenarios."""

from .core import (
    DEFAULT_TOL,
    ConvergenceVerdict,
    Tolerances,
    TruncationLadder,
    partial_sum_trend,
    probe_series,
)
from .errors import (
    DenseTooLarge,
    DimensionMismatch,
    NotLowerSemiFrame,
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
    PairedDouble,
    ScalarRule,
    Scaled,
    SequenceSpec,
    TriplePattern,
    materialize,
    spec_from_json,
)
from .operators import (
    OperatorBundle,
    build_bundle,
    bundle_from_columns,
    complement_basis,
    direct_sum_check,
    principal_angles,
    range_basis,
)
from .classify import (
    AsymptoticDiagnosis,
    FrameSpectrum,
    classify_finite,
    diagnose_asymptotic,
    frame_spectrum,
)
from .forms import (
    FormAssessment,
    InfSupConstants,
    LambdaVerdict,
    ShiftResult,
    infsup_constants,
    lambda_region_weighted,
    solvability_shift,
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
