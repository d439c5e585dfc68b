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

from .core import DEFAULT_TOL, Tolerances, json_pairs, json_scalar
from .errors import DimensionMismatch
from .operators import (
    OperatorBundle,
    _direct_sum_verdict,
    build_bundle,
    cosines_and_angles,
    lower_frame_data,
    rank_cutoff,
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
    "weighted_riesz_associated",
]


@dataclass(frozen=True)
class InfSupConstants:
    c1: float
    c2: float
    angles: np.ndarray
    degenerate_xi: bool  # C_xi has a nontrivial kernel at this truncation
    degenerate_eta: bool


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
    deg_xi = r_xi < bundle_xi.dim
    deg_eta = r_eta < bundle_eta.dim
    if r_xi == 0 or r_eta == 0:
        return InfSupConstants(0.0, 0.0, np.empty(0), deg_xi, deg_eta)
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
    return InfSupConstants(c1, c2, angles, deg_xi, deg_eta)


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

    _, sigma_xi, r_xi, lower_xi = lower_frame_data(
        bundle_xi.singular_values, dim, count, tol
    )
    _, sigma_eta, r_eta, lower_eta = lower_frame_data(
        bundle_eta.singular_values, dim, count, tol
    )

    isc = infsup_constants(bundle_xi, bundle_eta, tol)
    max_angle = float(np.max(isc.angles)) if isc.angles.size else 0.0

    # route (b): lower semi-frames plus R(C_xi) (+) R(C_eta)^perp = l2. With
    # equal ranks the smallest angle between the summands is pi/2 minus the
    # largest one between R(C_xi) and R(C_eta), whose cosine is c1.
    c = isc.c1
    half_tan = c / (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) if 0 < r_xi < count else 1.0
    ds = _direct_sum_verdict(r_xi - r_eta, half_tan, tol)
    route_b = lower_xi and lower_eta and ds == "holds"

    # route (a'): invertibility of the associated matrix C_eta^H C_xi
    assoc = bundle_eta.C.conj().T @ bundle_xi.C
    s_assoc = np.linalg.svd(assoc, compute_uv=False)
    _, smin_assoc, rank_assoc, assoc_invertible = lower_frame_data(
        s_assoc, dim, dim, tol
    )
    assoc_inverse_norm = 1.0 / smin_assoc if assoc_invertible else None

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
        lower_xi=lower_xi,
        lower_eta=lower_eta,
        lower_bound_xi=sigma_xi**2,
        lower_bound_eta=sigma_eta**2,
        dim=dim,
        count=count,
    )


def weighted_riesz_associated(
    alpha: Sequence[complex], V: Optional[np.ndarray] = None
) -> np.ndarray:
    """Associated matrix of the weighted pair xi = {V e_n},
    eta = {alpha_n (V^{-1})^H e_n}: similar to diag(alpha), so its spectrum
    is exactly {alpha_n}."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    N = alpha.size
    if V is None:
        return np.diag(alpha)
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    if V.shape != (N, N):
        raise DimensionMismatch("V must be square of size len(alpha)")
    Vh = V.conj().T
    return np.linalg.solve(Vh, np.diag(alpha) @ Vh)


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
    lambdas: Sequence[complex],
    tol: Tolerances = DEFAULT_TOL,
    V: Optional[np.ndarray] = None,
    accumulation_points: Sequence[complex] = (),
) -> list:
    """Per-probe lambda-closedness of the weighted Riesz form.

    lambda-closed iff the distance from lambda to the weight values (plus the
    declared accumulation points; closures of infinite sets are not inferred)
    exceeds eq_tol; cross-checked against invertibility of H - lambda I at
    the truncation.
    """
    alpha = np.asarray(alpha, dtype=complex).ravel()
    H = weighted_riesz_associated(alpha, V)
    spectrum = np.concatenate(
        [alpha, np.asarray(list(accumulation_points), dtype=complex)]
    )
    out = []
    for lam in lambdas:
        lam = complex(lam)
        dist = float(np.min(np.abs(spectrum - lam)))
        s = np.linalg.svd(H - lam * np.eye(alpha.size), compute_uv=False)
        _, smin, _, invertible = lower_frame_data(s, alpha.size, alpha.size, tol)
        out.append(
            LambdaVerdict(
                lam=lam,
                distance=dist,
                lambda_closed=dist > tol.eq_tol,
                resolvent_invertible=invertible,
                sigma_min=smin,
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
