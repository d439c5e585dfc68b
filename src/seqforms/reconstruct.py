"""Canonical duals and weak reconstruction formulas.

A canonical dual of a truncated lower semi-frame is {S^{-1} xi_n}; for a
0-closed two-sequence form with associated matrix T the left/right duals
{(T^{-1})^H xi_n} and {T^{-1} eta_n} reconstruct the identity against eta
and xi respectively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import DEFAULT_TOL, CoeffVector, Tolerances, json_pairs
from .errors import DimensionMismatch, NotLowerSemiFrame, NotZeroClosed
from .classify import classify_finite
from .forms import FormAssessment
from .operators import (
    OperatorBundle, blocks_of, cho_solve, inv, matmul, svdvals,
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
    """A primal family with its dual columns and the coefficient partner.

    reconstruct_with computes sum_n <f, partner_n> dual_n; for the canonical
    dual the partner is the primal family itself.
    """

    primal: np.ndarray  # dim x count
    dual: np.ndarray  # dim x count
    kind: str  # canonical_lower | reproducing_left | reproducing_right
    bessel_bound_of_dual: float
    partner: Optional[np.ndarray] = None

    @functools.cached_property
    def coefficient_adjoint(self) -> np.ndarray:
        """partner^H, copied once per system; every reconstruct_with call on
        the system reuses it."""
        partner = self.primal if self.partner is None else self.partner
        return partner.conj().T

    def to_dict(self, include_columns: bool = True) -> dict:
        d = {
            "kind": self.kind,
            "bessel_bound_of_dual": self.bessel_bound_of_dual,
            "dim": int(self.primal.shape[0]),
            "count": int(self.primal.shape[1]),
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
    return DualSystem(
        primal=bundle.columns,
        dual=dual,
        kind="canonical_lower",
        bessel_bound_of_dual=1.0 / spectrum.lower_bound,
    )


def reconstruct_with(
    dual_system: DualSystem, f: Union[CoeffVector, np.ndarray]
) -> Tuple[Union[CoeffVector, np.ndarray], Union[float, np.ndarray]]:
    """sum_n <f, partner_n> dual_n and the Euclidean residual ||sum - f||.

    f is one CoeffVector, or a dim x k array whose k columns are
    reconstructed in one product; then the reconstructions come back as a
    dim x k array and the residuals as one per column.
    """
    PH = dual_system.coefficient_adjoint
    F = f.coeffs if isinstance(f, CoeffVector) else np.asarray(f)
    if F.shape[0] != PH.shape[1]:
        raise DimensionMismatch(
            f"vector dim {F.shape[0]} does not match system dim {PH.shape[1]}"
        )
    recon = dual_system.dual @ (PH @ F)  # coefficients <f, partner_n>
    residual = np.linalg.norm(recon - F, axis=0)
    if isinstance(f, CoeffVector):
        return CoeffVector(recon), float(residual)
    return recon, residual


def _probe_draws(trials: int, dim: int, seed: int) -> np.ndarray:
    """trials x dim complex Gaussians from default_rng(seed): row t holds the
    real and then the imaginary parts drawn for probe t, the same stream as
    drawing them one probe at a time."""
    z = np.random.default_rng(seed).standard_normal((trials, 2, dim))
    return z[:, 0] + 1j * z[:, 1]


def max_residual(systems: Sequence[DualSystem], trials: int, seed: int) -> float:
    """Largest reconstruct_with residual over trials random unit probes drawn
    from default_rng(seed), all reconstructed by one product per system."""
    z = _probe_draws(trials, systems[0].primal.shape[0], seed)
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
    {T^{-1} eta_n} paired against xi, with T the associated matrix."""
    if not assessment.zero_closed:
        raise NotZeroClosed("the pair form is not 0-closed at this truncation")
    T = assessment.associated_operator
    blocks = blocks_of(T)  # T^-1 and T^-H split when T does
    T_inv = inv(T, blocks)
    T_inv_h = T_inv.conj().T
    xi, eta = bundle_xi.blocks, bundle_eta.blocks
    left_cols = matmul(T_inv_h, bundle_xi.columns, blocks, xi)
    right_cols = matmul(T_inv, bundle_eta.columns, blocks, eta)
    left_bound = _sigma_max(matmul(bundle_xi.C, T_inv, xi, blocks)) ** 2
    right_bound = _sigma_max(matmul(bundle_eta.C, T_inv_h, eta, blocks)) ** 2
    left = DualSystem(
        primal=bundle_xi.columns,
        dual=left_cols,
        kind="reproducing_left",
        bessel_bound_of_dual=left_bound,
        partner=bundle_eta.columns,
    )
    right = DualSystem(
        primal=bundle_eta.columns,
        dual=right_cols,
        kind="reproducing_right",
        bessel_bound_of_dual=right_bound,
        partner=bundle_xi.columns,
    )
    return left, right
