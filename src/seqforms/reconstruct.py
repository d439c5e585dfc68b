"""Canonical duals and weak reconstruction formulas.

A canonical dual of a truncated lower semi-frame is {S^{-1} xi_n}; for a
0-closed two-sequence form with associated matrix T the left/right duals
{(T^{-1})^H xi_n} and {T^{-1} eta_n} reconstruct the identity against eta
and xi respectively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import DEFAULT_TOL, CoeffVector, Tolerances, json_pairs
from .errors import DimensionMismatch, NotLowerSemiFrame, NotZeroClosed
from .forms import FormAssessment
from .operators import OperatorBundle, lower_frame_data

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

    The reported Bessel bound of the dual is sigma_max(C S^{-1})^2, which
    equals 1/sigma_dim(C)^2.
    """
    _, sigma_dim, _, is_lower = lower_frame_data(
        bundle.singular_values, bundle.dim, bundle.count, tol
    )
    if not is_lower:
        raise NotLowerSemiFrame(
            "frame matrix is singular at this truncation (A = 0)"
        )
    dual = np.linalg.inv(bundle.S) @ bundle.columns
    bound = 1.0 / sigma_dim**2
    return DualSystem(
        primal=bundle.columns,
        dual=dual,
        kind="canonical_lower",
        bessel_bound_of_dual=bound,
    )


def reconstruct_with(
    dual_system: DualSystem, f: CoeffVector
) -> Tuple[CoeffVector, float]:
    """sum_n <f, partner_n> dual_n and the Euclidean residual ||sum - f||."""
    PH = dual_system.coefficient_adjoint
    if f.dim != PH.shape[1]:
        raise DimensionMismatch(
            f"vector dim {f.dim} does not match system dim {PH.shape[1]}"
        )
    coeffs = PH @ f.coeffs  # <f, partner_n>
    recon = dual_system.dual @ coeffs
    residual = float(np.linalg.norm(recon - f.coeffs))
    return CoeffVector(recon), residual


def max_residual(systems: Sequence[DualSystem], trials: int, seed: int) -> float:
    """Largest reconstruct_with residual over trials random unit probes drawn
    from default_rng(seed), each reconstructed by every system in turn."""
    dim = systems[0].primal.shape[0]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        f = CoeffVector(z / np.linalg.norm(z))
        for system in systems:
            worst = max(worst, reconstruct_with(system, f)[1])
    return worst


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
    T_inv = np.linalg.inv(T)
    left_cols = T_inv.conj().T @ bundle_xi.columns
    right_cols = T_inv @ bundle_eta.columns
    left_bound = float(np.linalg.norm(bundle_xi.C @ T_inv, 2) ** 2)
    right_bound = float(np.linalg.norm(bundle_eta.C @ T_inv.conj().T, 2) ** 2)
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
