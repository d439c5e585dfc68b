"""Canonical duals and weak reconstruction formulas.

A canonical dual of a truncated lower semi-frame is {S^{-1} xi_n}; for a
0-closed two-sequence form with associated matrix T the left/right duals
{(T^{-1})^H xi_n} and {T^{-1} eta_n} reconstruct the identity against eta
and xi respectively.

A DualSystem holds the inverse that forms its dual, not the dual's columns:
a reconstruction applies it once to the dim x k block X (analysis F), and
the columns are formed only when a report prints them or a bound needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Tuple

import numpy as np

from .core import DEFAULT_TOL, Tolerances, json_pairs
from .errors import DenseTooLarge, DimensionMismatch, NotLowerSemiFrame, NotZeroClosed
from .classify import classify_finite
from .forms import FormAssessment
from .operators import (
    DENSE_MAX_SIZE, OperatorBundle, blocks_of, cho_solve, inv, matmul, svdvals,
)

__all__ = [
    "DualSystem",
    "canonical_dual",
    "reconstruct_with",
    "max_residual",
    "reproducing_pair_duals",
]


@dataclass(frozen=True)
class DualSystem:
    """A dual as the inverse that forms it, its primal family and the
    analysis matrix of its coefficient partner.

    The dual columns are solve(primal.columns): S^-1 X_xi for the canonical
    dual, T^-H X_xi for the left dual and T^-1 X_eta for the right one.
    reconstruct_with computes sum_n <f, partner_n> dual_n =
    solve(X (analysis f)). analysis is the partner bundle's cached C
    operand (C_op, sparse when C splits): the primal family's own for the
    canonical dual, C_eta for the left dual and C_xi for the right one.
    """

    solve: Callable[[np.ndarray], np.ndarray]  # dim x k block -> dim x k
    primal: OperatorBundle
    analysis: object  # count x dim, dense or sparse
    kind: str  # canonical_lower | reproducing_left | reproducing_right
    bessel_bound_of_dual: float

    @property
    def dual(self) -> np.ndarray:
        """The dim x count dual columns, formed on each read."""
        return self.solve(self.primal.columns)

    def to_dict(self, include_columns: bool = True) -> dict:
        d = {
            "kind": self.kind,
            "bessel_bound_of_dual": self.bessel_bound_of_dual,
            "dim": self.primal.dim,
            "count": self.primal.count,
        }
        if include_columns:
            d["dual_columns"] = json_pairs(self.dual)
        return d


def canonical_dual(
    bundle: OperatorBundle, tol: Tolerances = DEFAULT_TOL
) -> DualSystem:
    """The canonical dual S^{-1} xi_n of a truncated lower semi-frame.

    Its solve is a Cholesky solve with S, on S's blocks found here once. The
    reported Bessel bound of the dual is sigma_max(C S^{-1})^2, which equals
    1/sigma_dim(C)^2 = 1/A.
    """
    spectrum = classify_finite(bundle, tol)
    if not spectrum.frame:
        raise NotLowerSemiFrame(
            "frame matrix is singular at this truncation (A = 0)"
        )
    solve = partial(cho_solve, bundle.S, blocks=blocks_of(bundle.S))
    return DualSystem(solve, bundle, bundle.C_op, "canonical_lower",
                      1.0 / spectrum.lower_bound)


def reconstruct_with(
    dual_system: DualSystem, F: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """sum_n <f, partner_n> dual_n and the Euclidean residual ||sum - f||.

    F is one dim vector, or a dim x k block whose k columns are
    reconstructed by one solve on X (analysis F); the residual is one float
    for a vector and one per column for a block.
    """
    C, primal = dual_system.analysis, dual_system.primal
    F = np.asarray(F)
    if F.shape[0] != C.shape[1]:
        raise DimensionMismatch(
            f"vector dim {F.shape[0]} does not match system dim {C.shape[1]}"
        )
    coeffs = matmul(C, F.reshape(F.shape[0], -1))  # <f, partner_n>
    synth = matmul(primal.columns_op, coeffs)
    recon = dual_system.solve(synth).reshape(F.shape)
    return recon, np.linalg.norm(recon - F, axis=0)


def _probe_draws(trials: int, dim: int, seed: int) -> np.ndarray:
    """trials x dim complex Gaussians from default_rng(seed): row t holds the
    real and then the imaginary parts drawn for probe t, the same stream as
    drawing them one probe at a time."""
    z = np.random.default_rng(seed).standard_normal((trials, 2, dim))
    return z[:, 0] + 1j * z[:, 1]


def max_residual(systems: Sequence[DualSystem], trials: int, seed: int) -> float:
    """Largest reconstruct_with residual over trials random unit probes drawn
    from default_rng(seed), all reconstructed by one solve per system.

    DenseTooLarge, before any probe is drawn, when the trials x dim block of
    probes or the count x trials block of their coefficients would be above
    DENSE_MAX_SIZE.
    """
    dim, count = systems[0].primal.dim, systems[0].primal.count
    if trials * max(dim, count) > DENSE_MAX_SIZE:
        raise DenseTooLarge(
            f"{trials} probes of dim {dim} and their coefficients against "
            f"{count} vectors need {trials * max(dim, count)} entries, "
            f"above the cap of {DENSE_MAX_SIZE}",
            trials=trials, dim=dim, count=count, cap=DENSE_MAX_SIZE,
        )
    z = _probe_draws(trials, dim, seed)
    F = (z / np.linalg.norm(z, axis=1, keepdims=True)).T
    return max(float(reconstruct_with(system, F)[1].max()) for system in systems)


def reproducing_pair_duals(
    assessment: FormAssessment,
    bundle_xi: OperatorBundle,
    bundle_eta: OperatorBundle,
) -> Tuple[DualSystem, DualSystem]:
    """Left dual {(T^{-1})^H xi_n} paired against eta, and right dual
    {T^{-1} eta_n} paired against xi, with T the associated matrix.

    Their solves are products with T^-H and T^-1, CSR when T splits. Each
    dual's Bessel bound is sigma_max of its own columns, squared: the
    analysis matrices C_xi T^{-1} and C_eta T^{-H} of the two duals are the
    conjugate transposes of those columns. When count = dim both families
    are frames of square invertible X (route (b) holds), so T = X_eta X_xi^H
    gives the left dual X_eta^-H and the right dual X_xi^-H: the bounds are
    1/A_eta and 1/A_xi, read off the assessment with no columns formed.
    """
    if not assessment.zero_closed:
        raise NotZeroClosed("the pair form is not 0-closed at this truncation")
    T = assessment.associated_operator
    T_inv = inv(T, blocks_of(T))
    solve_left = partial(matmul, T_inv.conj().T)
    solve_right = partial(matmul, T_inv)
    if assessment.count == assessment.dim:
        bound_left = 1.0 / assessment.lower_bound_eta
        bound_right = 1.0 / assessment.lower_bound_xi
    else:
        bound_left, bound_right = (
            float(svdvals(D, blocks_of(D))[0]) ** 2
            for D in (solve_left(bundle_xi.columns), solve_right(bundle_eta.columns)))
    return (
        DualSystem(solve_left, bundle_xi, bundle_eta.C_op, "reproducing_left",
                   bound_left),
        DualSystem(solve_right, bundle_eta, bundle_xi.C_op, "reproducing_right",
                   bound_right),
    )
