"""Canonical duals and weak reconstruction formulas.

A canonical dual of a truncated lower semi-frame is {S^{-1} xi_n}; for a
0-closed two-sequence form with associated matrix T the left/right duals
{(T^{-1})^H xi_n} and {T^{-1} eta_n} reconstruct the identity against eta
and xi respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

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
    """Dual columns and the analysis matrix of their coefficient partner.

    reconstruct_with computes sum_n <f, partner_n> dual_n = dual (analysis f).
    analysis is the partner bundle's cached C: the primal family's own for
    the canonical dual.
    """

    dual: np.ndarray  # dim x count
    analysis: np.ndarray  # count x dim
    kind: str  # canonical_lower | reproducing_left | reproducing_right
    bessel_bound_of_dual: float

    def to_dict(self, include_columns: bool = True) -> dict:
        d = {
            "kind": self.kind,
            "bessel_bound_of_dual": self.bessel_bound_of_dual,
            "dim": int(self.dual.shape[0]),
            "count": int(self.dual.shape[1]),
        }
        if include_columns:
            d["dual_columns"] = json_pairs(self.dual)
        return d


def canonical_dual(
    bundle: OperatorBundle, tol: Tolerances = DEFAULT_TOL
) -> DualSystem:
    """Dual columns S^{-1} xi_n of a truncated lower semi-frame.

    The columns solve S D = X by Cholesky. The reported Bessel bound of the
    dual is sigma_max(C S^{-1})^2, which equals 1/sigma_dim(C)^2.
    """
    spectrum = classify_finite(bundle, tol)
    if not spectrum.frame:
        raise NotLowerSemiFrame(
            "frame matrix is singular at this truncation (A = 0)"
        )
    dual = cho_solve(bundle.S, bundle.columns, blocks_of(bundle.S))
    return DualSystem(dual, bundle.C, "canonical_lower", 1.0 / spectrum.lower_bound)


def reconstruct_with(
    dual_system: DualSystem, F: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """sum_n <f, partner_n> dual_n and the Euclidean residual ||sum - f||.

    F is one dim vector, or a dim x k block whose k columns are
    reconstructed in one product; the residual is one float for a vector
    and one per column for a block.
    """
    C = dual_system.analysis
    F = np.asarray(F)
    if F.shape[0] != C.shape[1]:
        raise DimensionMismatch(
            f"vector dim {F.shape[0]} does not match system dim {C.shape[1]}"
        )
    recon = dual_system.dual @ (C @ F)  # coefficients <f, partner_n>
    return recon, np.linalg.norm(recon - F, axis=0)


def _probe_draws(trials: int, dim: int, seed: int) -> np.ndarray:
    """trials x dim complex Gaussians from default_rng(seed): row t holds the
    real and then the imaginary parts drawn for probe t, the same stream as
    drawing them one probe at a time."""
    z = np.random.default_rng(seed).standard_normal((trials, 2, dim))
    return z[:, 0] + 1j * z[:, 1]


def max_residual(systems: Sequence[DualSystem], trials: int, seed: int) -> float:
    """Largest reconstruct_with residual over trials random unit probes drawn
    from default_rng(seed), all reconstructed by one product per system.

    DenseTooLarge, before any probe is drawn, when the trials x dim block of
    probes would be above DENSE_MAX_SIZE.
    """
    dim = systems[0].dual.shape[0]
    if trials * dim > DENSE_MAX_SIZE:
        raise DenseTooLarge(
            f"{trials} probes of dim {dim} need {trials * dim} entries, "
            f"above the cap of {DENSE_MAX_SIZE}",
            trials=trials, dim=dim, cap=DENSE_MAX_SIZE,
        )
    z = _probe_draws(trials, dim, seed)
    F = (z / np.linalg.norm(z, axis=1, keepdims=True)).T
    return max(float(reconstruct_with(system, F)[1].max()) for system in systems)


def _sigma_max(M: np.ndarray) -> float:
    return float(svdvals(M, blocks_of(M))[0])


def reproducing_pair_duals(
    assessment: FormAssessment,
    bundle_xi: OperatorBundle,
    bundle_eta: OperatorBundle,
) -> Tuple[DualSystem, DualSystem]:
    """Left dual {(T^{-1})^H xi_n} paired against eta, and right dual
    {T^{-1} eta_n} paired against xi, with T the associated matrix.

    Each dual's Bessel bound is sigma_max of its own columns, squared: the
    analysis matrices C_xi T^{-1} and C_eta T^{-H} of the two duals are the
    conjugate transposes of those columns.
    """
    if not assessment.zero_closed:
        raise NotZeroClosed("the pair form is not 0-closed at this truncation")
    T = assessment.associated_operator
    blocks = blocks_of(T)  # T^-1 and T^-H split when T does
    T_inv = inv(T, blocks)
    left = matmul(T_inv.conj().T, bundle_xi.columns, blocks, bundle_xi.blocks)
    right = matmul(T_inv, bundle_eta.columns, blocks, bundle_eta.blocks)
    return (
        DualSystem(left, bundle_eta.C, "reproducing_left", _sigma_max(left) ** 2),
        DualSystem(right, bundle_xi.C, "reproducing_right", _sigma_max(right) ** 2),
    )
