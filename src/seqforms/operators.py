"""Analysis/synthesis/frame/Gram matrices and subspace geometry.

Conventions: for columns xi_n (dim x count matrix X), the analysis matrix is
C = X^H, so (C f)_n = <f, xi_n> including the complex conjugation; the
synthesis matrix is D = C^H = X; the frame matrix is S = D C and the Gram
matrix is G = C D. Rank decisions use a singular-value cutoff relative to
the largest singular value. A basis of a subspace is a plain array with
orthonormal columns; its rows are the ambient space.

Classification reads only the extremes of the spectrum of S (or of G when
count < dim), and frame_spectrum takes them from a banded eigensolver when S
is banded and large, instead of a dense SVD of C.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .core import DEFAULT_TOL, Tolerances
from .errors import DenseTooLarge, DimensionMismatch
from .sequences import SequenceSpec

__all__ = [
    "OperatorBundle",
    "lower_frame_data",
    "rank_cutoff",
    "FrameSpectrum",
    "frame_spectrum",
    "build_bundle",
    "bundle_from_columns",
    "range_basis",
    "complement_basis",
    "cosines_and_angles",
    "principal_angles",
    "direct_sum_check",
]


def rank_cutoff(
    top: float, tol: Tolerances = DEFAULT_TOL, squared: bool = False
) -> float:
    """The value at or below which a singular value counts as zero, for the
    largest singular value top; squared, the same cutoff on eigenvalues of
    S or G, whose top is sigma_max^2."""
    return (tol.rank_tol**2 if squared else tol.rank_tol) * top


def _rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of the descending singular values s above rank_tol * s[0]."""
    smax = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > rank_cutoff(smax, tol))) if smax > 0 else 0


def lower_frame_data(
    s: np.ndarray, dim: int, count: int, tol: Tolerances = DEFAULT_TOL
) -> Tuple[float, float, int, bool]:
    """(sigma_max, sigma_dim, rank, is_lower) from the descending singular
    values s of a count x dim matrix: sigma_dim is 0 when count < dim, and
    rank and is_lower compare with the cutoff rank_tol * sigma_max."""
    smax = float(s[0]) if s.size else 0.0
    sigma_dim = float(s[dim - 1]) if count >= dim else 0.0
    is_lower = smax > 0 and sigma_dim > rank_cutoff(smax, tol)
    return smax, sigma_dim, _rank(s, tol), is_lower


@dataclass(frozen=True)
class OperatorBundle:
    """Materialized operators of one sequence at a fixed truncation.

    Only the columns are stored. The other operators and the singular
    values of C are computed on first use and cached, so a verdict that
    needs singular values alone never pays for singular vectors.
    """

    columns: np.ndarray  # dim x count, column n is xi_n

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def C(self) -> np.ndarray:
        return self.columns.conj().T

    @property
    def D(self) -> np.ndarray:
        return self.columns

    @cached_property
    def S(self) -> np.ndarray:
        return self.D @ self.C

    @cached_property
    def G(self) -> np.ndarray:
        return self.C @ self.D

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of C, descending, without singular vectors."""
        return np.linalg.svd(self.C, compute_uv=False)

    def rank(self, tol: Tolerances = DEFAULT_TOL) -> int:
        return _rank(self.singular_values, tol)

    def range_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal columns spanning R(C): Q of a reduced QR when C has
        full column rank, the leading left singular vectors of a thin SVD
        only when C is rank-deficient."""
        r = self.rank(tol)
        if r == self.dim:
            return np.linalg.qr(self.C)[0]
        return np.linalg.svd(self.C, full_matrices=False)[0][:, :r]


def bundle_from_columns(X: np.ndarray) -> OperatorBundle:
    return OperatorBundle(np.atleast_2d(np.asarray(X, dtype=complex)))


# The largest count * dim that is materialized and factorized densely
# (256 MB of complex).
DENSE_MAX_SIZE = 4096 * 4096


def build_bundle(spec: SequenceSpec, dim: int, count: int) -> OperatorBundle:
    """The bundle of spec at dim x count; DenseTooLarge, before anything is
    materialized, when dim * count is above DENSE_MAX_SIZE."""
    if dim * count > DENSE_MAX_SIZE:
        raise DenseTooLarge(
            f"a {dim} x {count} truncation needs a dense factorization of "
            f"{dim * count} entries, above the cap of {DENSE_MAX_SIZE}",
            dim=dim, count=count, cap=DENSE_MAX_SIZE,
        )
    return bundle_from_columns(spec.materialize(dim, count))


# Backends of frame_spectrum. A dense complex SVD takes about 0.3 ms at
# 128 x 128 and 13.5 ms at 256 x 256, the banded extremes about 1.5 ms, so
# the banded path starts at count * dim = 256^2 (one BLAS thread).
BANDED_MIN_SIZE = 256 * 256
BANDED_MAX_WIDTH = 8
# S squares the condition number of C, so a banded verdict stands only when
# lambda_min >= GUARD_FACTOR * (w + 1) * eps * lambda_max.
GUARD_FACTOR = 1e4


@dataclass(frozen=True)
class FrameSpectrum:
    """Exact classification of a sequence at one truncation.

    bessel_bound is B = sigma_max^2, lower_bound is A = sigma_dim^2 (0 when
    count < dim), riesz_fischer_bound is the smallest squared singular value
    above the rank cutoff. backend is "dense" (SVD of C), "diagonal" or
    "banded" (extreme eigenvalues of S, or of G when count < dim).
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

    @classmethod
    def from_singular_values(
        cls, s: np.ndarray, dim: int, count: int, tol: Tolerances = DEFAULT_TOL
    ) -> "FrameSpectrum":
        smax, sigma_dim, rank, _ = lower_frame_data(s, dim, count, tol)
        rf_bound = float(s[rank - 1] ** 2) if rank else 0.0
        return cls(dim, count, smax**2, sigma_dim**2, rank, rf_bound)

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


def frame_spectrum(
    spec: SequenceSpec, dim: int, count: int, tol: Tolerances = DEFAULT_TOL
) -> FrameSpectrum:
    """B, A, rank and Riesz-Fischer bound of spec at dim x count.

    Below count * dim = BANDED_MIN_SIZE this is the dense SVD of C. Above
    it, M = S (G = X^H X when count < dim, which holds the same nonzero
    eigenvalues) has (M)_ij != 0 only where one column of X (of X^H) has
    entries at both i and j, so its bandwidth w is at most the largest spread
    of rows within a column. When w <= BANDED_MAX_WIDTH the extremes of M
    come from its diagonal (w = 0) or from LAPACK ?hbevx in band storage,
    and stand when lambda_min clears the accuracy guard and the rank cutoff
    (then rank = min(dim, count)). Anything else is dense, up to
    DENSE_MAX_SIZE; beyond it DenseTooLarge is raised.
    """
    found = {}
    if dim * count >= BANDED_MIN_SIZE:
        X = spec.materialize_sparse(dim, count)
        Y = X if count >= dim else X.conj().T.tocsc()
        w = found["bandwidth"] = _column_spread(Y)
        if w <= BANDED_MAX_WIDTH:
            lo, hi = _extreme_eigenvalues(Y, w)
            margin = found["guard_margin"] = _guard_margin(lo, hi, w)
            if margin is not None and margin >= 0:
                if lo > rank_cutoff(hi, tol, squared=True):
                    return FrameSpectrum(
                        dim, count, hi, lo if count >= dim else 0.0,
                        min(dim, count), lo, "banded" if w else "diagonal", w, margin,
                    )
    try:
        s = build_bundle(spec, dim, count).singular_values
    except DenseTooLarge as exc:
        raise DenseTooLarge(
            f"{exc} (bandwidth {found.get('bandwidth')}, guard margin "
            f"{found.get('guard_margin')})", **exc.details, **found,
        ) from None
    return dataclasses.replace(
        FrameSpectrum.from_singular_values(s, dim, count, tol), **found
    )


def _column_spread(Y: sp.csc_matrix) -> int:
    """Largest (max row - min row) over the nonempty columns of Y: a bound
    on the bandwidth of Y Y^H."""
    starts = Y.indptr[:-1][np.diff(Y.indptr) > 0]
    if starts.size == 0:
        return 0
    top = np.maximum.reduceat(Y.indices, starts)
    return int((top - np.minimum.reduceat(Y.indices, starts)).max())


def _extreme_eigenvalues(Y: sp.csc_matrix, w: int) -> Tuple[float, float]:
    """(lambda_min, lambda_max) of M = Y Y^H, whose bandwidth is at most w."""
    n = Y.shape[0]
    if w == 0:
        d = np.bincount(Y.indices, Y.data.real**2 + Y.data.imag**2, minlength=n)
        return float(d.min()), float(d.max())
    M = (Y @ Y.conj().T).tocsr()
    ab = np.zeros((w + 1, n), dtype=complex)
    for k in range(w + 1):
        # upper band storage: ab[w + i - j, j] = M[i, j]
        ab[w - k, k:] = M.diagonal(k)
    if not ab.imag.any():
        ab = ab.real  # real symmetric: ?sbevx
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


# No report reads the four subspace helpers range_basis, complement_basis,
# principal_angles and direct_sum_check; they stay because the property
# tests use them as independent references and the benchmark's tracer wraps
# them by name.


def range_basis(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of M, by SVD with relative cutoff."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, : _rank(s, tol)]


def complement_basis(
    M: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column space."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    return U[:, _rank(s, tol) :]


def _check_ambient(U: np.ndarray, W: np.ndarray) -> None:
    if U.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"ambient dims differ: {U.shape[0]} vs {W.shape[0]}")


def cosines_and_angles(
    U: np.ndarray, W: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Principal angles between the spans of two bases: their cosines,
    descending, and the angles, ascending in [0, pi/2].

    A cosine within rounding of 1 cannot tell an angle below 1e-8 from 0, so
    every angle up to pi/4 comes from its sine instead: the length outside
    the larger subspace of the smaller one's principal vector (Knyazev &
    Argentati, SIAM J. Sci. Comput. 2002). When the larger subspace is the
    whole space every sine is 0 and no principal vectors are needed; else
    they come from the cosines' own SVD, so no second factorization is taken.
    """
    _check_ambient(U, W)
    if U.shape[1] == 0 or W.shape[1] == 0:
        return np.empty(0), np.empty(0)
    M = U.conj().T @ W
    u_smaller = U.shape[1] <= W.shape[1]
    big = W if u_smaller else U
    if big.shape[1] == U.shape[0]:
        cos = np.linalg.svd(M, compute_uv=False)
        sin = np.zeros_like(cos)
    else:
        Y, cos, Zh = np.linalg.svd(M, full_matrices=False)
        V = U @ Y if u_smaller else W @ Zh.conj().T
        sin = np.linalg.norm(V - big @ (big.conj().T @ V), axis=0)
    from_sin = np.arcsin(np.minimum(sin, 1.0))
    angles = np.where(cos**2 >= 0.5, from_sin, np.arccos(np.clip(cos, 0.0, 1.0)))
    return cos, np.sort(angles)


def principal_angles(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2]."""
    return cosines_and_angles(U, W)[1]


def _direct_sum_verdict(excess: int, half_tan: float, tol: Tolerances) -> str:
    """Direct-sum verdict on U (+) W from excess = dim U + dim W - ambient dim
    and, when excess is 0, half_tan = tan(phi/2) of the smallest principal
    angle phi between U and W (1 when one is trivial). That is sigma_min /
    sigma_max of the stacked bases [U W], whose singular values are
    sqrt(1 +- cos phi_i) and 1 (Bjorck & Golub, Math. Comp. 1973)."""
    if excess < 0:
        return "fails_span"
    if excess == 0 and half_tan > tol.rank_tol:
        return "holds"
    # overfull, or the pieces meet at an angle below the cutoff
    return "fails_intersection"


def direct_sum_check(
    U: np.ndarray, W: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> str:
    """Whether U and W decompose the ambient space as a direct sum, from
    their smallest principal angle (see _direct_sum_verdict).

    Returns "holds", "fails_intersection" or "fails_span".
    """
    _check_ambient(U, W)
    excess = U.shape[1] + W.shape[1] - U.shape[0]
    half_tan = 1.0
    if excess == 0 and U.shape[1] and W.shape[1]:
        half_tan = float(np.tan(principal_angles(U, W)[0] / 2))
    return _direct_sum_verdict(excess, half_tan, tol)
