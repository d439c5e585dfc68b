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
from functools import cached_property
from typing import Sequence

import numpy as np

from .classify import classify_finite
from .core import DEFAULT_TOL, Tolerances, json_pairs, json_scalar
from .errors import DimensionMismatch
from .operators import (
    OperatorBundle,
    build_bundle,
    cosines_and_angles,
    direct_sum_verdict,
    factor_cosines,
    rank,
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
    max_angle: float  # the largest principal angle


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
    exactly 1 and no basis is taken; else factor_cosines, or QR or SVD
    bases.
    """
    if bundle_xi.count != bundle_eta.count:
        raise DimensionMismatch("bundles must share the l2 truncation (count)")
    r_xi, r_eta = (rank(b.singular_values, tol) for b in (bundle_xi, bundle_eta))
    if r_xi == 0 or r_eta == 0:
        return InfSupConstants(0.0, 0.0, 0.0)
    cos, angles = [1.0], [0.0]
    if bundle_xi.count not in (r_xi, r_eta):
        complete = r_xi == r_eta == bundle_xi.dim == bundle_eta.dim
        cos = factor_cosines(bundle_xi, bundle_eta) if complete else None
        # the arccos of the smallest cosine alone: a larger one may round above 1
        cos, angles = (cos, np.arccos(cos[-1:])) if cos is not None else (
            cosines_and_angles(bundle_xi.range_basis(tol), bundle_eta.range_basis(tol)))
    # min cosine over the smaller range is c1 or c2
    c1 = float(cos[-1]) if r_xi <= r_eta else 0.0
    c2 = float(cos[-1]) if r_eta <= r_xi else 0.0
    return InfSupConstants(c1, c2, float(angles[-1]))


@dataclass(frozen=True)
class FormAssessment:
    """Two-sequence form diagnostics at a fixed truncation; route (a'), from
    the associated matrix's singular values, is computed on first read."""

    c1: float
    c2: float
    max_principal_angle: float
    direct_sum: str
    zero_closed: bool
    associated_operator: object  # dense, or sparse when both bundles hold entries
    lower_xi: bool
    lower_eta: bool
    lower_bound_xi: float
    lower_bound_eta: float
    dim: int
    count: int
    tol: Tolerances  # of route (a')'s rank

    @cached_property
    def _route_a(self) -> tuple:
        """Its null dim (left and right: it is square), its inverse's norm."""
        s = svdvals(self.associated_operator)
        null = self.dim - rank(s, self.tol)
        return null, None if null else 1.0 / float(s[-1])

    null_dim_left = property(lambda self: self._route_a[0])
    assoc_invertible = property(lambda self: self._route_a[0] == 0)
    assoc_inverse_norm = property(lambda self: self._route_a[1])

    def to_dict(self, include_matrix: bool = True) -> dict:
        """The fields in order but tol, route (a') in the matrix's place,
        and the matrix last, only when asked for."""
        d = {"null_dim_left": self.null_dim_left, "null_dim_right": self.null_dim_left}
        for f in dataclasses.fields(self):
            if f.name == "associated_operator":
                d["assoc_invertible"] = self.assoc_invertible
                d["assoc_inverse_norm"] = self.assoc_inverse_norm
            elif f.name != "tol":
                d[f.name] = getattr(self, f.name)
        d["finite_truncation"] = True  # verdicts hold at this truncation only
        if include_matrix:
            d["associated_operator"] = json_pairs(self.associated_operator)
        return d


def zero_closed_check(
    spec_xi: SequenceSpec,
    spec_eta: SequenceSpec,
    dim: int,
    count: int,
    tol: Tolerances = DEFAULT_TOL,
) -> FormAssessment:
    bundles = (build_bundle(spec, dim, count) for spec in (spec_xi, spec_eta))
    return zero_closed_from_bundles(*bundles, tol)


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
    # route (b): lower semi-frames plus R(C_xi) (+) R(C_eta)^perp = l2. With
    # equal ranks the smallest angle between the summands is pi/2 minus the
    # largest one between R(C_xi) and R(C_eta), whose cosine is c1.
    c = isc.c1
    half_tan = c / (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) if 0 < r_xi < count else 1.0
    ds = direct_sum_verdict(r_xi - r_eta, half_tan, tol)
    route_b = spectrum_xi.frame and spectrum_eta.frame and ds == "holds"

    return FormAssessment(
        c1=isc.c1,
        c2=isc.c2,
        max_principal_angle=isc.max_angle,
        direct_sum=ds,
        zero_closed=route_b,
        # route (a'): invertibility of the associated matrix C_eta^H C_xi
        associated_operator=bundle_eta.columns @ bundle_xi.C,
        lower_xi=spectrum_xi.frame,
        lower_eta=spectrum_eta.frame,
        lower_bound_xi=spectrum_xi.lower_bound,
        lower_bound_eta=spectrum_eta.lower_bound,
        dim=dim,
        count=count,
        tol=tol,
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
        s = svdvals(H - lam * np.eye(alpha.size))
        out.append(
            LambdaVerdict(
                lam=lam,
                distance=dist,
                lambda_closed=dist > tol.eq_tol,
                resolvent_invertible=rank(s, tol) == alpha.size,
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
    # the singular values of diag(alpha + sigma) are its moduli
    moduli = np.sort(np.abs(shifted))[::-1]
    return ShiftResult(
        sigma=sigma,
        shifted=shifted,
        min_shifted_modulus=float(np.min(moduli)),
        shifted_zero_closed=rank(moduli, tol) == moduli.size,
    )
