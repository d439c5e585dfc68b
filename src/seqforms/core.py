"""Coefficient vectors, tolerances and series convergence diagnostics.

Vectors are coefficient lists over the canonical orthonormal basis of the
truncation, so the plain Euclidean inner product is the Hilbert-space one.
Series are always summed in increasing index order; partial sums are probed
on a ladder of truncation sizes and classified as converged, diverged or
inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CoeffVector",
    "TruncationLadder",
    "ConvergenceVerdict",
    "Tolerances",
    "DEFAULT_TOL",
    "probe_series",
    "partial_sum_trend",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used everywhere.

    rank_tol is relative to the largest singular value of the matrix at hand.
    growth_min is the smallest fitted log-log exponent that counts as growth.
    """

    eq_tol: float = 1e-10
    rank_tol: float = 1e-10
    cauchy_tol: float = 1e-6
    growth_min: float = 0.25

    def __post_init__(self):
        for name in ("eq_tol", "rank_tol", "cauchy_tol", "growth_min"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


def json_scalar(z):
    """A complex number for JSON: real when its imaginary part is 0, else [re, im]."""
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def json_pairs(M) -> list:
    """A complex matrix for JSON, every entry an [re, im] pair."""
    M = np.asarray(M)
    return np.stack([M.real, M.imag], axis=-1).tolist()


@dataclass(frozen=True)
class CoeffVector:
    """A vector given by its coefficients relative to the canonical ONB."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex).ravel()
        object.__setattr__(self, "coeffs", arr)
        if arr.size == 0:
            raise ValueError("CoeffVector needs at least one coefficient")

    @property
    def dim(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class TruncationLadder:
    """Strictly increasing truncation sizes; at least three rungs."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("ladder needs at least three rungs")
        if sizes[0] < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("ladder sizes must be strictly increasing positives")

    @property
    def top(self) -> int:
        return self.sizes[-1]


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of probing a series on a truncation ladder."""

    kind: str  # "Converged" | "Diverged" | "Inconclusive"
    limit_estimate: Optional[Union[complex, np.ndarray]] = None
    growth_exponent: Optional[float] = None
    cauchy_gap: Optional[float] = None
    last_partial: Optional[Union[complex, np.ndarray]] = field(
        default=None, repr=False
    )


def _magnitude(a) -> float:
    if isinstance(a, np.ndarray):
        return float(np.linalg.norm(a))
    return abs(a)


def partial_sum_trend(
    sizes: Sequence[int], sums: Sequence, tol: Tolerances = DEFAULT_TOL
) -> ConvergenceVerdict:
    """Classify a ladder of partial sums (scalars or vectors).

    Diverged: partial-sum magnitudes grow with fitted log-log exponent at
    least growth_min, or the Cauchy gaps stay bounded away from zero across
    the whole ladder. Converged: the top gap is below cauchy_tol, or the
    gaps decay geometrically (ratio <= 1/2 rung to rung), in which case the
    limit estimate carries a geometric tail correction.
    """
    sizes = np.asarray(sizes, dtype=float)
    if len(sums) != sizes.size or len(sums) < 3:
        raise ValueError("need one partial sum per ladder rung, at least three")
    norms = np.array([_magnitude(s) for s in sums])
    gaps = np.array([_magnitude(b - a) for a, b in zip(sums, sums[1:])])

    growth = None
    if np.all(norms > 0):
        growth = float(np.polyfit(np.log(sizes), np.log(norms), 1)[0])

    def verdict(kind, gap, limit=None):
        return ConvergenceVerdict(
            kind, limit_estimate=limit, growth_exponent=growth,
            cauchy_gap=float(gap), last_partial=sums[-1],
        )

    if growth is not None and growth >= tol.growth_min and norms[-1] > norms[0]:
        return verdict("Diverged", gaps[-1])

    gmax = float(gaps.max())
    if gaps.min() >= tol.cauchy_tol and gaps[-1] >= 0.5 * gmax:
        # persistent gap: successive rungs keep moving by about the same amount
        return verdict("Diverged", gaps.min())

    if gaps[-1] < tol.cauchy_tol and gaps[-1] <= gmax * (1 + 1e-12):
        return verdict("Converged", gaps[-1], limit=sums[-1])

    if np.all(gaps[:-1] > 0):
        ratios = gaps[1:] / gaps[:-1]
        if np.all(ratios <= 0.5):
            # clear geometric decay: extrapolate the tail
            r = float(ratios[-1])
            limit = sums[-1] + (sums[-1] - sums[-2]) * (r / (1.0 - r))
            return verdict("Converged", gaps[-1], limit=limit)

    return verdict("Inconclusive", gaps[-1])


# Rows per block of column_prefix_fsums: its two block buffers take 1.6 MB
# at 100 columns, whatever the number of rows.
FSUM_BLOCK_ROWS = 1024


def column_prefix_fsums(mats: Sequence[np.ndarray], stops) -> list:
    """math.fsum of column prefixes, bit for bit, in whole-array passes.

    mats are real float matrices with the same columns and at least stops[-1]
    rows, whose columns have finite sums of absolute values; stops is
    strictly increasing. out[i][k, j] is fsum(m[:stops[k], j] for m in
    mats[:i + 1], chained): each later entry adds one more matrix's rows.

    Each block of rows is split level by level into exact high parts (Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 2008). With sigma a power of two at
    least 2^b max|x| per column, where 2^b >= rows + 2, q = (sigma + x) -
    sigma and x - q are exact, every q is a multiple of 2^-53 sigma, and so
    every sum of the q of one column is an exact float. The level sums of
    each ladder segment (rows stops[k-1] to stops[k]) are kept apart until
    one fsum over those of segments 0..k, the only rounding. Where sigma
    would overflow, the same split is taken by truncation, q = x -
    fmod(x, 2^-53 sigma), which is exact too but far slower.
    """
    stops = np.asarray(stops)
    top, cols = int(stops[-1]), mats[0].shape[1]
    buf = np.empty((2, FSUM_BLOCK_ROWS, cols))
    pieces, segments, out = [np.zeros((1, cols))], [np.zeros(1, int)], []
    for M in mats:
        for r0 in range(0, top, FSUM_BLOCK_ROWS):
            r1 = min(r0 + FSUM_BLOCK_ROWS, top)
            x, q = buf[:, : r1 - r0]
            x[...] = M[r0:r1]
            starts = np.concatenate(([r0], stops[(stops > r0) & (stops < r1)]))
            segment = np.searchsorted(stops, starts, side="right")
            bits = math.ceil(math.log2(r1 - r0 + 2))
            mu = np.abs(x, out=q).max(axis=0)
            while (mu > 0).any():  # False on NaN: no endless loop
                e = np.frexp(mu)[1] + bits  # sigma = 2^e >= 2^bits mu
                if e.max() <= 1023:
                    sigma = np.ldexp(1.0, e)
                    np.add(x, sigma, out=q)
                    q -= sigma
                else:
                    np.fmod(x, np.ldexp(1.0, np.maximum(e - 53, -1074)), out=q)
                    np.subtract(x, q, out=q)
                x -= q
                pieces.append(np.add.reduceat(q, starts - r0, axis=0))
                segments.append(segment)
                mu = np.abs(x, out=q).max(axis=0)
        parts, segment = np.concatenate(pieces), np.concatenate(segments)
        out.append(np.array([
            [math.fsum(col) for col in parts[segment <= k].T.tolist()]
            for k in range(stops.size)
        ]))
    return out


def probe_series(
    terms, ladder: TruncationLadder, tol: Tolerances = DEFAULT_TOL
) -> ConvergenceVerdict:
    """Sum a series in increasing index order and classify its partial sums
    at the ladder rungs.

    terms holds at least ladder.top terms: a 1-D array of scalars, summed by
    one sequential cumulative sum, or a matrix (dense or scipy sparse) whose
    column n is the n-th vector term, where the partial sum at rung N adds
    the first N columns of each row in column order.
    """
    rungs = ladder.sizes
    if not sp.issparse(terms):
        terms = np.asarray(terms, dtype=complex)
    if terms.shape[-1] < ladder.top:
        raise ValueError(f"need {ladder.top} terms, got {terms.shape[-1]}")
    if terms.ndim == 1:
        sums = np.cumsum(terms)[np.array(rungs) - 1].tolist()
    else:
        T = sp.csr_matrix(terms, dtype=complex)
        ones = np.ones(ladder.top)
        sums = [T[:, :N] @ ones[:N] for N in rungs]
    return partial_sum_trend(rungs, sums, tol)
