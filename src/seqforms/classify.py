"""Sequence classification: exact finite-dimensional verdicts and ladder
diagnostics of the infinite-dimensional class.

At a fixed truncation the frame bounds are the extreme squared singular
values of the analysis matrix (operators.frame_spectrum picks a dense or a
banded backend for them); the infinite-dimensional class can only be
diagnosed, by tracking how the bounds move along a truncation ladder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .core import DEFAULT_TOL, ConvergenceVerdict, Tolerances, TruncationLadder
from .core import json_scalar, partial_sum_trend
from .errors import DenseTooLarge, NotPositiveDefinite
from .operators import FrameSpectrum, OperatorBundle, frame_spectrum
from .sequences import SequenceSpec

__all__ = [
    "AsymptoticDiagnosis",
    "WeightedFrameBounds",
    "classify_finite",
    "diagnose_asymptotic",
    "check_biorthogonal",
    "weighted_space_frame",
]


@dataclass(frozen=True)
class AsymptoticDiagnosis:
    """Trend of the frame bounds along a ladder, with the inferred class.

    Heuristic: a finite ladder cannot certify an infinite-dimensional class.
    """

    bessel_trend: ConvergenceVerdict
    lower_trend: ConvergenceVerdict
    inferred_class: str
    sizes: tuple = ()
    upper_bounds: tuple = ()
    lower_bounds: tuple = ()
    spectra: tuple = ()  # FrameSpectrum per rung, for meta; not in the body

    def to_dict(self) -> dict:
        return {
            "inferred_class": self.inferred_class,
            "heuristic": True,
            "sizes": list(self.sizes),
            "upper_bounds": list(self.upper_bounds),
            "lower_bounds": list(self.lower_bounds),
            "bessel_trend": _verdict_dict(self.bessel_trend),
            "lower_trend": _verdict_dict(self.lower_trend),
        }


def _verdict_dict(v: ConvergenceVerdict) -> dict:
    d = {"kind": v.kind}
    if v.growth_exponent is not None:
        d["growth_exponent"] = v.growth_exponent
    if v.cauchy_gap is not None:
        d["cauchy_gap"] = v.cauchy_gap
    if v.limit_estimate is not None and np.isscalar(v.limit_estimate):
        d["limit_estimate"] = json_scalar(v.limit_estimate)
    return d


def classify_finite(
    bundle: OperatorBundle, tol: Tolerances = DEFAULT_TOL
) -> FrameSpectrum:
    """Exact classification at the truncation from the singular values of C."""
    return FrameSpectrum.from_singular_values(
        bundle.singular_values, bundle.dim, bundle.count, tol
    )


def diagnose_asymptotic(
    spec: SequenceSpec, ladder: TruncationLadder, tol: Tolerances = DEFAULT_TOL
) -> AsymptoticDiagnosis:
    """Track frame bounds with dim = N and count = arity * N along the ladder."""
    sizes = ladder.sizes
    spectra = []
    for N in sizes:
        try:
            spectra.append(frame_spectrum(spec, N, spec.arity * N, tol))
        except DenseTooLarge as exc:
            raise DenseTooLarge(f"ladder rung N={N}: {exc}", rung=N, **exc.details)
    uppers = [sp.bessel_bound for sp in spectra]
    lowers = [sp.lower_bound for sp in spectra]

    bessel_trend = partial_sum_trend(sizes, [complex(b) for b in uppers], tol)
    lower_trend = partial_sum_trend(sizes, [complex(a) for a in lowers], tol)

    slope_b = bessel_trend.growth_exponent
    slope_a = lower_trend.growth_exponent

    b_bounded = slope_b is not None and slope_b < tol.growth_min
    a_positive = (
        all(a > 0 for a in lowers)
        and slope_a is not None
        and slope_a > -tol.growth_min
    )

    if slope_a is None and slope_b is None:
        inferred = "Inconclusive"
    elif a_positive and b_bounded:
        flat = abs(slope_a) < tol.growth_min and abs(slope_b) < tol.growth_min
        inferred = "RieszBasis" if (flat and spec.arity == 1) else "Frame"
    elif a_positive and not b_bounded:
        inferred = "LowerSemiFrame"
    elif b_bounded and not a_positive:
        inferred = "UpperSemiFrame" if all(sp.complete for sp in spectra) else "Bessel"
    else:
        inferred = "None"

    return AsymptoticDiagnosis(
        bessel_trend=bessel_trend,
        lower_trend=lower_trend,
        inferred_class=inferred,
        sizes=tuple(sizes),
        upper_bounds=tuple(uppers),
        lower_bounds=tuple(lowers),
        spectra=tuple(spectra),
    )


def check_biorthogonal(
    specA: SequenceSpec,
    specB: SequenceSpec,
    dim: int,
    count: int,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """True iff <xi_n, eta_m> = delta_{n,m} on the leading count x count window."""
    XA = specA.materialize(dim, count)
    XB = specB.materialize(dim, count)
    cross = XA.T @ XB.conj()  # cross[i, j] = <xi_{i+1}, eta_{j+1}>
    return bool(np.max(np.abs(cross - np.eye(count))) <= tol.eq_tol)


@dataclass(frozen=True)
class WeightedFrameBounds:
    """Frame bounds of {R^{-1} xi_n} in the inner product <f, R g>."""

    lower: float
    upper: float
    identity_error: float  # max deviation of <f, xi_n> = <f, xi'_n>_+

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def weighted_space_frame(
    spec: SequenceSpec,
    R: np.ndarray,
    dim: int,
    count: int,
    tol: Tolerances = DEFAULT_TOL,
    rng: Optional[np.random.Generator] = None,
) -> WeightedFrameBounds:
    """Bounds A+, B+ with A+ ||f||_+^2 <= sum |<f, xi'_n>_+|^2 <= B+ ||f||_+^2,
    where xi'_n = R^{-1} xi_n and <f, g>_+ = <f, R g>.

    Since <f, xi'_n>_+ = <f, xi_n>, the extreme values are the generalized
    eigenvalue extremes of (S, R) with S the frame matrix of xi.
    """
    R = np.atleast_2d(np.asarray(R, dtype=complex))
    if R.shape != (dim, dim):
        raise NotPositiveDefinite(f"R must be {dim}x{dim} Hermitian positive definite")
    if np.max(np.abs(R - R.conj().T)) > tol.eq_tol * max(1.0, np.max(np.abs(R))):
        raise NotPositiveDefinite("R is not Hermitian")
    eigs = np.linalg.eigvalsh(R)
    if eigs[0] <= tol.rank_tol * max(eigs[-1], 0.0):
        raise NotPositiveDefinite("R has a nonpositive (or negligible) eigenvalue")

    X = spec.materialize(dim, count)
    S = X @ X.conj().T
    gen = scipy.linalg.eigh(S, R, eigvals_only=True)
    lower, upper = float(gen[0]), float(gen[-1])

    # spot-check the defining identity <f, xi_n> = <f, R (R^{-1} xi_n)>
    rng = rng or np.random.default_rng(0)
    Xp = np.linalg.solve(R, X)
    F = rng.standard_normal((dim, 8)) + 1j * rng.standard_normal((dim, 8))
    lhs = X.conj().T @ F  # <f, xi_n> for every f column
    rhs = (R @ Xp).conj().T @ F
    identity_error = float(np.max(np.abs(lhs - rhs))) if F.size else 0.0

    return WeightedFrameBounds(lower=lower, upper=upper, identity_error=identity_error)
