"""Coefficient vectors, weighted norms and series convergence diagnostics.

Vectors are coefficient lists over the canonical orthonormal basis of the
truncation, so the plain Euclidean inner product is the Hilbert-space one.
Series are always summed in increasing index order; partial sums are probed
on a ladder of truncation sizes and classified as converged, diverged or
inconclusive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "CoeffVector",
    "WeightVector",
    "TruncationLadder",
    "ConvergenceVerdict",
    "Tolerances",
    "DEFAULT_TOL",
    "SparseTerm",
    "inner_product",
    "weighted_norm",
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class WeightVector:
    """Weights alpha_n defining the weighted space with norm
    (sum |alpha_n| |c_n|^2)^(1/2)."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "weights", np.asarray(self.weights, dtype=complex).ravel()
        )


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


class SparseTerm(NamedTuple):
    """Sparse vector term for probe_series: values at given 0-based indices."""

    indices: np.ndarray
    values: np.ndarray
    dim: int


def inner_product(f: CoeffVector, g: CoeffVector) -> complex:
    """Inner product, conjugate-linear in the second argument."""
    if f.dim != g.dim:
        raise DimensionMismatch(f"dims differ: {f.dim} vs {g.dim}")
    return complex(np.vdot(g.coeffs, f.coeffs))


def weighted_norm(c: Sequence[complex], w: WeightVector) -> float:
    c = np.asarray(c, dtype=complex).ravel()
    if c.size > w.weights.size:
        raise DimensionMismatch(
            f"coefficient list ({c.size}) longer than weights ({w.weights.size})"
        )
    return float(np.sqrt(np.sum(np.abs(w.weights[: c.size]) * np.abs(c) ** 2)))


def _dist(a, b) -> float:
    d = a - b
    if isinstance(d, np.ndarray):
        return float(np.linalg.norm(d))
    return abs(d)


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
    gaps = np.array([_dist(sums[i + 1], sums[i]) for i in range(len(sums) - 1)])

    growth = None
    if np.all(norms > 0):
        growth = float(np.polyfit(np.log(sizes), np.log(norms), 1)[0])

    if growth is not None and growth >= tol.growth_min and norms[-1] > norms[0]:
        return ConvergenceVerdict(
            "Diverged",
            growth_exponent=growth,
            cauchy_gap=float(gaps[-1]),
            last_partial=sums[-1],
        )

    gmax = float(gaps.max())
    if gaps.min() >= tol.cauchy_tol and gaps[-1] >= 0.5 * gmax:
        # persistent gap: successive rungs keep moving by about the same amount
        return ConvergenceVerdict(
            "Diverged",
            growth_exponent=growth,
            cauchy_gap=float(gaps.min()),
            last_partial=sums[-1],
        )

    if gaps[-1] < tol.cauchy_tol and gaps[-1] <= gmax * (1 + 1e-12):
        return ConvergenceVerdict(
            "Converged",
            limit_estimate=sums[-1],
            growth_exponent=growth,
            cauchy_gap=float(gaps[-1]),
            last_partial=sums[-1],
        )

    if np.all(gaps[:-1] > 0):
        ratios = gaps[1:] / gaps[:-1]
        if np.all(ratios <= 0.5):
            # clear geometric decay: extrapolate the tail
            r = float(ratios[-1])
            limit = sums[-1] + (sums[-1] - sums[-2]) * (r / (1.0 - r))
            return ConvergenceVerdict(
                "Converged",
                limit_estimate=limit,
                growth_exponent=growth,
                cauchy_gap=float(gaps[-1]),
                last_partial=sums[-1],
            )

    return ConvergenceVerdict(
        "Inconclusive",
        growth_exponent=growth,
        cauchy_gap=float(gaps[-1]),
        last_partial=sums[-1],
    )


def probe_series(
    term_generator: Callable[[int], object],
    ladder: TruncationLadder,
    tol: Tolerances = DEFAULT_TOL,
) -> ConvergenceVerdict:
    """Sum terms in increasing index order and classify the partial sums.

    The generator may return scalars, CoeffVector, 1-D ndarrays, or
    SparseTerm entries; all terms of one series must be of the same kind.
    """
    acc = None
    sums = []
    rungs = ladder.sizes
    next_rung = 0
    for n in range(1, rungs[-1] + 1):
        term = term_generator(n)
        if isinstance(term, CoeffVector):
            term = term.coeffs
        if isinstance(term, SparseTerm):
            if acc is None:
                acc = np.zeros(term.dim, dtype=complex)
            if len(term.indices):
                np.add.at(acc, np.asarray(term.indices), np.asarray(term.values))
        elif isinstance(term, np.ndarray):
            if acc is None:
                acc = np.zeros_like(term, dtype=complex)
            acc = acc + term
        elif isinstance(term, numbers.Number):
            acc = complex(term) if acc is None else acc + complex(term)
        else:
            raise TypeError(f"unsupported term type: {type(term)!r}")
        if n == rungs[next_rung]:
            sums.append(acc.copy() if isinstance(acc, np.ndarray) else acc)
            next_rung += 1
    return partial_sum_trend(rungs, sums, tol)
