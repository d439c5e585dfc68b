"""Tolerances and series convergence diagnostics.

Vectors are coefficient arrays over the canonical orthonormal basis of the
truncation, so the plain Euclidean inner product is the Hilbert-space one.
Series are always summed in increasing index order; partial sums are probed
on a ladder of truncation sizes and classified as converged, diverged or
inconclusive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "TruncationLadder",
    "ConvergenceVerdict",
    "Tolerances",
    "DEFAULT_TOL",
    "CAUCHY_TOL",
    "GROWTH_MIN",
    "probe_series",
    "partial_sum_trend",
]


@dataclass(frozen=True)
class Tolerances:
    """The numeric thresholds a caller can set.

    rank_tol is relative to the largest singular value of the matrix at hand;
    eq_tol is the distance below which two scalars count as equal.
    """

    eq_tol: float = 1e-10
    rank_tol: float = 1e-10

    def __post_init__(self):
        for name in ("eq_tol", "rank_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


class _SparseOnFirstUse:
    """scipy.sparse, imported when one of its names is first read; issparse
    is False, with no import, while it is unloaded: no sparse matrix exists."""

    def __getattr__(self, name):
        import scipy.sparse
        return getattr(scipy.sparse, name)

    def issparse(self, M) -> bool:
        return "scipy.sparse" in sys.modules and sys.modules["scipy.sparse"].issparse(M)


sp = _SparseOnFirstUse()  # the one handle on scipy.sparse of every module

# Ladder thresholds: a Cauchy gap below CAUCHY_TOL has settled, and
# GROWTH_MIN is the smallest fitted log-log exponent that counts as growth.
CAUCHY_TOL = 1e-6
GROWTH_MIN = 0.25


def json_scalar(z):
    """A complex number for JSON: real when its imaginary part is 0, else [re, im]."""
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def json_pairs(M) -> list:
    """A complex matrix, dense or sparse, for JSON: [re, im] per entry."""
    M = M.toarray() if sp.issparse(M) else np.asarray(M)
    return np.stack([M.real, M.imag], axis=-1).tolist()


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


def partial_sum_trend(sizes: Sequence[int], sums: Sequence) -> ConvergenceVerdict:
    """Classify a ladder of partial sums (scalars or vectors).

    Diverged: partial-sum magnitudes grow with fitted log-log exponent at
    least GROWTH_MIN, or the Cauchy gaps stay bounded away from zero across
    the whole ladder. Converged: the top gap is below CAUCHY_TOL, or the
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

    if growth is not None and growth >= GROWTH_MIN and norms[-1] > norms[0]:
        return verdict("Diverged", gaps[-1])

    gmax = float(gaps.max())
    if gaps.min() >= CAUCHY_TOL and gaps[-1] >= 0.5 * gmax:
        # persistent gap: successive rungs keep moving by about the same amount
        return verdict("Diverged", gaps.min())

    if gaps[-1] < CAUCHY_TOL and gaps[-1] <= gmax * (1 + 1e-12):
        return verdict("Converged", gaps[-1], limit=sums[-1])

    if np.all(gaps[:-1] > 0):
        ratios = gaps[1:] / gaps[:-1]
        if np.all(ratios <= 0.5):
            # clear geometric decay: extrapolate the tail
            r = float(ratios[-1])
            limit = sums[-1] + (sums[-1] - sums[-2]) * (r / (1.0 - r))
            return verdict("Converged", gaps[-1], limit=limit)

    return verdict("Inconclusive", gaps[-1])


# Rows per block of column_prefix_fsums: it asks its caller for this many
# rows of every summand at a time, and its two block buffers take 1.6 MB at
# 100 columns, whatever the number of rows.
FSUM_BLOCK_ROWS = 1024


def column_prefix_fsums(rows, stops, groups) -> list:
    """math.fsum of column prefixes, bit for bit, one row block at a time.

    rows(r0, r1) returns the rows r0:r1 of every summand, as a tuple of real
    float arrays with the same columns. It is called once per block of
    FSUM_BLOCK_ROWS rows, in order, up to stops[-1], so no summand need
    exist whole. Every column of every summand has a finite sum of absolute
    values, and stops is strictly increasing. out[i][k, j] is
    fsum(m[:stops[k], j] for the summands m at the positions groups[i],
    chained): one split of each summand serves every group it is in.

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
    top = int(stops[-1])
    for r0 in range(0, top, FSUM_BLOCK_ROWS):
        r1 = min(r0 + FSUM_BLOCK_ROWS, top)
        block = rows(r0, r1)
        if r0 == 0:
            cols = block[0].shape[1]
            buf = np.empty((2, FSUM_BLOCK_ROWS, cols))
            # per summand: its level sums, and the segment of each
            pieces = [[np.zeros((1, cols))] for _ in block]
            segments = [[np.zeros(1, int)] for _ in block]
        starts = np.concatenate(([r0], stops[(stops > r0) & (stops < r1)]))
        segment = np.searchsorted(stops, starts, side="right")
        bits = math.ceil(math.log2(r1 - r0 + 2))
        for p, M in enumerate(block):
            x, q = buf[:, : r1 - r0]
            x[...] = M
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
                pieces[p].append(np.add.reduceat(q, starts - r0, axis=0))
                segments[p].append(segment)
                mu = np.abs(x, out=q).max(axis=0)
        del block, M  # free this block before rows builds the next
    out = []
    for group in groups:
        parts = np.concatenate([a for p in group for a in pieces[p]])
        segment = np.concatenate([s for p in group for s in segments[p]])
        out.append(np.array([
            [math.fsum(col) for col in parts[segment <= k].T.tolist()]
            for k in range(stops.size)
        ]))
    return out


def probe_series(terms, ladder: TruncationLadder) -> ConvergenceVerdict:
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
    return partial_sum_trend(rungs, sums)
