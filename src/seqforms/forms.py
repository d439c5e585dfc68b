"""Sesquilinear forms of two sequences: inf-sup constants, 0-closedness
and the weighted lambda-closedness region.

The two-sequence form is Omega(f, g) = sum_n <f, xi_n> <eta_n, g>. At a
truncation its 0-closedness is decided twice: via the subspace route (both
sequences injective-analysis plus a direct-sum condition on the analysis
ranges) and via invertibility of the associated matrix C_eta^H C_xi; the
two verdicts must agree.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import classify_finite
from .core import DEFAULT_TOL, Tolerances, json_pairs, json_scalar
from .errors import DimensionMismatch
from .operators import (
    OperatorBundle,
    _direct_sum_verdict,
    _rank,
    blocks_of,
    build_bundle,
    cosines_and_angles,
    matmul,
    rank_cutoff,
    svdvals,
)
from .sequences import SequenceSpec

__all__ = [
    "FormAssessment",
    "InfSupConstants",
    "LambdaVerdict",
    "ShiftResult",
    "infsup_constants",
    "zero_closed_check",
    "zero_closed_from_bundles",
    "lambda_region_weighted",
    "solvability_shift",
]


@dataclass(frozen=True)
class InfSupConstants:
    c1: float
    c2: float
    angles: np.ndarray


def infsup_constants(
    bundle_xi: OperatorBundle,
    bundle_eta: OperatorBundle,
    tol: Tolerances = DEFAULT_TOL,
) -> InfSupConstants:
    """Inf-sup constants of the pair form in the graph-equivalent norms
    ||f||_xi = ||C_xi f||, ||g||_eta = ||C_eta g||.

    c1 = inf over unit u in R(C_xi) of ||P_{R(C_eta)} u||, i.e. the smallest
    singular value of Q_eta^H Q_xi (the cosine of the largest principal
    angle when the ranges have equal dimension); c2 is symmetric. When
    either range is all of l2 (rank = count), every cosine of the other is
    exactly 1 and no basis is taken.
    """
    if bundle_xi.count != bundle_eta.count:
        raise DimensionMismatch("bundles must share the l2 truncation (count)")
    r_xi, r_eta = bundle_xi.rank(tol), bundle_eta.rank(tol)
    if r_xi == 0 or r_eta == 0:
        return InfSupConstants(0.0, 0.0, np.empty(0))
    if bundle_xi.count in (r_xi, r_eta):
        cos_min, angles = 1.0, np.zeros(min(r_xi, r_eta))
    else:
        s, angles = cosines_and_angles(
            bundle_xi.range_basis(tol), bundle_eta.range_basis(tol)
        )
        cos_min = float(s[-1])
    # min cosine over the smaller range is c1 or c2
    c1 = cos_min if r_xi <= r_eta else 0.0
    c2 = cos_min if r_eta <= r_xi else 0.0
    return InfSupConstants(c1, c2, angles)


@dataclass(frozen=True)
class FormAssessment:
    """Two-sequence form diagnostics at a fixed truncation."""

    null_dim_left: int  # equals the right null dim: the matrix is square
    c1: float
    c2: float
    max_principal_angle: float
    direct_sum: str
    zero_closed: bool
    associated_operator: np.ndarray
    assoc_invertible: bool
    assoc_inverse_norm: Optional[float]
    lower_xi: bool
    lower_eta: bool
    lower_bound_xi: float
    lower_bound_eta: float
    dim: int
    count: int

    def to_dict(self, include_matrix: bool = True) -> dict:
        """The fields in order, the matrix last and only when asked for."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        matrix = d.pop("associated_operator")
        d = {"null_dim_left": d.pop("null_dim_left"),
             "null_dim_right": self.null_dim_left, **d}
        d["finite_truncation"] = True  # verdicts hold at this truncation only
        if include_matrix:
            d["associated_operator"] = json_pairs(matrix)
        return d


def zero_closed_check(
    spec_xi: SequenceSpec,
    spec_eta: SequenceSpec,
    dim: int,
    count: int,
    tol: Tolerances = DEFAULT_TOL,
) -> FormAssessment:
    bundle_xi = build_bundle(spec_xi, dim, count)
    bundle_eta = build_bundle(spec_eta, dim, count)
    return zero_closed_from_bundles(bundle_xi, bundle_eta, tol)


def zero_closed_from_bundles(
    bundle_xi: OperatorBundle,
    bundle_eta: OperatorBundle,
    tol: Tolerances = DEFAULT_TOL,
) -> FormAssessment:
    if bundle_xi.dim != bundle_eta.dim or bundle_xi.count != bundle_eta.count:
        raise DimensionMismatch("bundles must share (dim, count)")
    dim, count = bundle_xi.dim, bundle_xi.count

    spectrum_xi = classify_finite(bundle_xi, tol)
    spectrum_eta = classify_finite(bundle_eta, tol)
    r_xi, r_eta = spectrum_xi.rank, spectrum_eta.rank

    isc = infsup_constants(bundle_xi, bundle_eta, tol)
    max_angle = float(np.max(isc.angles)) if isc.angles.size else 0.0

    # route (b): lower semi-frames plus R(C_xi) (+) R(C_eta)^perp = l2. With
    # equal ranks the smallest angle between the summands is pi/2 minus the
    # largest one between R(C_xi) and R(C_eta), whose cosine is c1.
    c = isc.c1
    half_tan = c / (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) if 0 < r_xi < count else 1.0
    ds = _direct_sum_verdict(r_xi - r_eta, half_tan, tol)
    route_b = spectrum_xi.frame and spectrum_eta.frame and ds == "holds"

    # route (a'): invertibility of the associated matrix C_eta^H C_xi
    assoc = matmul(bundle_eta.columns_op, bundle_xi.C_op)
    s_assoc = svdvals(assoc, blocks_of(assoc))
    rank_assoc = _rank(s_assoc, tol)
    assoc_invertible = rank_assoc == dim
    assoc_inverse_norm = 1.0 / float(s_assoc[-1]) if assoc_invertible else None

    return FormAssessment(
        null_dim_left=dim - rank_assoc,
        c1=isc.c1,
        c2=isc.c2,
        max_principal_angle=max_angle,
        direct_sum=ds,
        zero_closed=route_b,
        associated_operator=assoc,
        assoc_invertible=assoc_invertible,
        assoc_inverse_norm=assoc_inverse_norm,
        lower_xi=spectrum_xi.frame,
        lower_eta=spectrum_eta.frame,
        lower_bound_xi=spectrum_xi.lower_bound,
        lower_bound_eta=spectrum_eta.lower_bound,
        dim=dim,
        count=count,
    )


@dataclass(frozen=True)
class LambdaVerdict:
    lam: complex
    distance: float  # distance from lam to the weight set + accumulation pts
    lambda_closed: bool
    resolvent_invertible: bool  # sigma_min(H - lam I) above the rank cutoff
    sigma_min: float

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {"lambda": json_scalar(d.pop("lam")), **d}


def lambda_region_weighted(
    alpha: Sequence[complex],
    H: np.ndarray,
    lambdas: Sequence[complex],
    tol: Tolerances = DEFAULT_TOL,
    accumulation_points: Sequence[complex] = (),
) -> list:
    """Per-probe lambda-closedness of the weighted Riesz form with weights
    alpha and associated matrix H, e.g. the associated_operator of
    zero_closed_from_bundles on the pair {V e_n}, {alpha_n (V^-1)^H e_n}.

    lambda-closed iff the distance from lambda to the weight values (plus the
    declared accumulation points; closures of infinite sets are not inferred)
    exceeds eq_tol; cross-checked against invertibility of H - lambda I at
    the truncation.
    """
    alpha = np.asarray(alpha, dtype=complex).ravel()
    if H.shape != (alpha.size, alpha.size):
        raise DimensionMismatch("H must be square of size len(alpha)")
    spectrum = np.concatenate(
        [alpha, np.asarray(list(accumulation_points), dtype=complex)]
    )
    out = []
    for lam in lambdas:
        lam = complex(lam)
        dist = float(np.min(np.abs(spectrum - lam)))
        shifted = H - lam * np.eye(alpha.size)
        s = svdvals(shifted, blocks_of(shifted))
        out.append(
            LambdaVerdict(
                lam=lam,
                distance=dist,
                lambda_closed=dist > tol.eq_tol,
                resolvent_invertible=_rank(s, tol) == alpha.size,
                sigma_min=float(s[-1]),
            )
        )
    return out


@dataclass(frozen=True)
class ShiftResult:
    sigma: np.ndarray
    shifted: np.ndarray  # alpha + sigma
    min_shifted_modulus: float
    shifted_zero_closed: bool


def solvability_shift(
    alpha: Sequence[complex], tol: Tolerances = DEFAULT_TOL
) -> ShiftResult:
    """Bounded shift making the weighted form 0-closed:
    sigma_n = 1 - alpha_n when |alpha_n| <= 1, else 0; then
    |alpha_n + sigma_n| >= 1 for every n."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    sigma = np.where(np.abs(alpha) <= 1.0, 1.0 - alpha, 0.0 + 0j)
    shifted = alpha + sigma
    moduli = np.abs(shifted)
    # the singular values of diag(alpha + sigma) are its moduli
    min_mod = float(np.min(moduli))
    return ShiftResult(
        sigma=sigma,
        shifted=shifted,
        min_shifted_modulus=min_mod,
        shifted_zero_closed=min_mod > rank_cutoff(float(np.max(moduli)), tol),
    )
