"""Sequence classification: exact finite-dimensional verdicts and ladder
diagnostics of the infinite-dimensional class.

At a fixed truncation the frame bounds are the extreme squared singular
values of the analysis matrix. classify_finite is the one place that turns
those singular values into a FrameSpectrum; frame_spectrum calls it, or
takes the extremes from a banded eigensolver of S when S is banded and
large. The infinite-dimensional class can only be diagnosed, by tracking
how the bounds move along a truncation ladder.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import DEFAULT_TOL, GROWTH_MIN, ConvergenceVerdict, Tolerances, sp
from .core import TruncationLadder, json_scalar, partial_sum_trend
from .errors import DenseTooLarge, ScaleOutOfRange
from .operators import BANDED_MIN_SIZE, GUARD_FACTOR, OperatorBundle, build_bundle
from .operators import bundle_from_columns, rank
from .sequences import SequenceSpec

__all__ = [
    "AsymptoticDiagnosis",
    "FrameSpectrum",
    "classify_finite",
    "diagnose_asymptotic",
    "frame_spectrum",
]


# The widest band of S whose extremes frame_spectrum takes from the banded
# eigensolver (about 0.5 ms at 256 x 256), from BANDED_MIN_SIZE on.
BANDED_MAX_WIDTH = 8


@dataclass(frozen=True)
class FrameSpectrum:
    """Exact classification of a sequence at one truncation.

    bessel_bound is B = sigma_max^2, lower_bound is A = sigma_dim^2 (0 when
    count < dim), riesz_fischer_bound is the smallest squared singular value
    above the rank cutoff. backend is "dense" or "blockwise" (SVD of C, whole
    or block by block, 1 x k blocks by their norms) or "banded" (extremes of
    S or G).
    bandwidth is the bound w read off the supports and guard_margin is
    log10(lambda_min / (GUARD_FACTOR (w + 1) eps lambda_max)); both are None
    where they were not computed, the margin also when lambda_min <= 0.
    """

    dim: int
    count: int
    bessel_bound: float
    lower_bound: float
    rank: int
    riesz_fischer_bound: float
    backend: str = "dense"
    bandwidth: Optional[int] = None
    guard_margin: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.rank == self.dim

    # sigma_dim (0 when count < dim) clears the cutoff exactly when all dim
    # singular values do, so at a finite truncation frame == complete
    frame = complete

    @property
    def riesz_basis(self) -> bool:
        return self.frame and self.count == self.dim

    @property
    def riesz_fischer_possible(self) -> bool:
        """False for overcomplete truncations."""
        return self.count <= self.dim

    def to_dict(self) -> dict:
        notes = []
        if self.frame:
            # finite-dim fact: ||S^{-1}|| = 1/A; inverse-norm bound stated in
            # terms of 1/A (the literal A-form degenerates dimensionally)
            notes.append(f"frame_inverse_norm_bound=1/A={1.0 / self.lower_bound:.6g}")
        return {
            "complete": self.complete,
            "bessel_bound": self.bessel_bound,
            "lower_bound": self.lower_bound,
            "frame": self.frame,
            "riesz_fischer_bound": self.riesz_fischer_bound,
            "riesz_fischer_possible": self.riesz_fischer_possible,
            "riesz_basis": self.riesz_basis,
            "dim": self.dim,
            "count": self.count,
            "notes": notes,
        }

    def provenance(self) -> dict:
        return {
            "backend": self.backend,
            "bandwidth": self.bandwidth,
            "guard_margin": self.guard_margin,
        }


def classify_finite(
    bundle: OperatorBundle, tol: Tolerances = DEFAULT_TOL
) -> FrameSpectrum:
    """Exact classification at the truncation from the descending singular
    values s of C: B = s[0]^2, A = s[dim - 1]^2 (0 when count < dim) and the
    rank and Riesz-Fischer bound against the rank cutoff. ScaleOutOfRange
    when a singular value above the cutoff squares to 0."""
    s, dim, count = bundle.singular_values, bundle.dim, bundle.count
    smax = float(s[0]) if s.size else 0.0
    sigma_dim = float(s[dim - 1]) if count >= dim else 0.0
    r = rank(s, tol)
    rf_bound = float(s[r - 1] ** 2) if r else 0.0
    if r and rf_bound == 0:
        raise ScaleOutOfRange(f"singular value {s[r - 1]:.6g} is above the rank "
                              "cutoff, but its square underflowed to 0")
    backend = "dense" if isinstance(bundle.held, np.ndarray) else "blockwise"
    return FrameSpectrum(dim, count, smax**2, sigma_dim**2, r, rf_bound, backend)


def frame_spectrum(
    spec: SequenceSpec, dim: int, count: int, tol: Tolerances = DEFAULT_TOL
) -> FrameSpectrum:
    """B, A, rank and Riesz-Fischer bound of spec at dim x count.

    Below count * dim = BANDED_MIN_SIZE, or when no entry is zero, this is
    classify_finite. Above it, M = S (G = X^H X when count < dim, which
    holds the same nonzero eigenvalues) has (M)_ij != 0 only where one
    column of X (of X^H) has entries at both i and j, so its bandwidth w is
    at most the largest spread of rows within a column. When w <=
    BANDED_MAX_WIDTH and some column of X has two entries (else its rows are
    its blocks, and their norms its singular values), the extremes of M come
    from LAPACK ?sbevx (?hbevx when M is complex) in band storage, and stand
    when lambda_min clears the accuracy guard and sqrt(lambda_min) the rank
    cutoff (then rank = min(dim, count)). Anything else is classify_finite
    of the bundle of the same sparse matrix, which raises DenseTooLarge
    above the dense cap.
    """
    if dim * count < BANDED_MIN_SIZE or spec.full(dim, count):
        return classify_finite(build_bundle(spec, dim, count), tol)
    found = {}
    X = spec.materialize_sparse(dim, count)  # CSC of the nonzero entries
    if np.diff(X.indptr).max() > 1:
        Y = X if count >= dim else X.conj().T.tocsc()
        w = found["bandwidth"] = _column_spread(Y)
        if w <= BANDED_MAX_WIDTH:
            lo, hi = _extreme_eigenvalues(Y, w)
            margin = found["guard_margin"] = _guard_margin(lo, hi, w)
            if margin is not None and margin >= 0 and rank(np.sqrt([hi, lo]), tol) == 2:
                return FrameSpectrum(dim, count, hi, lo if count >= dim else 0.0,
                                     min(dim, count), lo, "banded", w, margin)
    try:
        bundle = bundle_from_columns(X)
    except DenseTooLarge as exc:
        raise DenseTooLarge(
            f"{exc} (bandwidth {found.get('bandwidth')}, guard margin "
            f"{found.get('guard_margin')})", **exc.details, **found,
        ) from None
    spectrum = classify_finite(bundle, tol)
    return dataclasses.replace(spectrum, **found) if found else spectrum


def _column_spread(Y: sp.csc_matrix) -> int:
    """Largest (max row - min row) over the nonempty columns of Y (it has
    one): a bound on the bandwidth of Y Y^H."""
    starts = Y.indptr[:-1][np.diff(Y.indptr) > 0]
    top = np.maximum.reduceat(Y.indices, starts)
    return int((top - np.minimum.reduceat(Y.indices, starts)).max())


def _extreme_eigenvalues(Y: sp.csc_matrix, w: int) -> Tuple[float, float]:
    """(lambda_min, lambda_max) of M = Y Y^H, whose bandwidth is at most w."""
    n = Y.shape[0]
    import scipy.linalg  # here, not at the top: about 50 ms and 8 MB
    M = (Y @ Y.conj().T).tocsr()
    ab = np.zeros((w + 1, n), dtype=M.dtype)  # real M: ?sbevx, else ?hbevx
    for k in range(w + 1):
        # upper band storage: ab[w + i - j, j] = M[i, j]
        ab[w - k, k:] = M.diagonal(k)
    lo, hi = (
        scipy.linalg.eig_banded(ab, eigvals_only=True, select="i", select_range=(i, i))
        for i in (0, n - 1)
    )
    return float(lo[0]), float(hi[0])


def _guard_margin(lo: float, hi: float, w: int) -> Optional[float]:
    """log10 of lambda_min over the guard GUARD_FACTOR (w + 1) eps lambda_max;
    None when lambda_min <= 0."""
    if lo <= 0 or hi <= 0:
        return None
    return math.log10(lo / (GUARD_FACTOR * (w + 1) * np.finfo(float).eps * hi))


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
    d["cauchy_gap"] = v.cauchy_gap  # partial_sum_trend always sets it
    if v.limit_estimate is not None and np.isscalar(v.limit_estimate):
        d["limit_estimate"] = json_scalar(v.limit_estimate)
    return d


def diagnose_asymptotic(
    spec: SequenceSpec, ladder: TruncationLadder, tol: Tolerances = DEFAULT_TOL,
    known: Optional[FrameSpectrum] = None,
) -> AsymptoticDiagnosis:
    """Track frame bounds with dim = N and count = arity * N along the
    ladder, reusing known, a spectrum of spec at tol, at the rung it is of."""
    sizes = ladder.sizes
    spectra = []
    for N in sizes:
        count = spec.arity * N
        try:
            reuse = known is not None and (known.dim, known.count) == (N, count)
            spectra.append(known if reuse else frame_spectrum(spec, N, count, tol))
        except DenseTooLarge as exc:
            raise DenseTooLarge(f"ladder rung N={N}: {exc}", rung=N, **exc.details)
    uppers = [s.bessel_bound for s in spectra]
    lowers = [s.lower_bound for s in spectra]

    bessel_trend = partial_sum_trend(sizes, [complex(b) for b in uppers])
    lower_trend = partial_sum_trend(sizes, [complex(a) for a in lowers])

    slope_b = bessel_trend.growth_exponent
    slope_a = lower_trend.growth_exponent

    b_bounded = slope_b is not None and slope_b < GROWTH_MIN
    # a growth exponent is fitted only when every bound is positive
    a_positive = slope_a is not None and slope_a > -GROWTH_MIN

    if slope_a is None and slope_b is None:
        inferred = "Inconclusive"
    elif a_positive and b_bounded:
        flat = abs(slope_a) < GROWTH_MIN and abs(slope_b) < GROWTH_MIN
        inferred = "RieszBasis" if (flat and spec.arity == 1) else "Frame"
    elif a_positive and not b_bounded:
        inferred = "LowerSemiFrame"
    elif b_bounded and not a_positive:
        inferred = "UpperSemiFrame" if all(s.complete for s in spectra) else "Bessel"
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
