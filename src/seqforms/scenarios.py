"""Executable catalog of named worked examples, checked at desk scale.

Each scenario produces a report whose claims carry a machine-checked status:
"pass"/"fail" for exact finite statements, "diagnostic" for ladder-based
witnesses of inherently infinite-dimensional behaviour (convergence or
divergence of a series, domain membership).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .classify import classify_finite
from .core import (
    DEFAULT_TOL,
    Tolerances,
    TruncationLadder,
    column_prefix_fsums,
    json_scalar,
    partial_sum_trend,
    probe_series,
)
from .errors import UnknownScenario, UsageError
from .forms import (
    lambda_region_weighted,
    solvability_shift,
    weighted_riesz_associated,
    zero_closed_from_bundles,
)
from .operators import build_bundle, bundle_from_columns, operator_image_bundle
from .reconstruct import max_residual, reproducing_pair_duals
from .sequences import (
    DiagonalWeights,
    FiniteDifference,
    Interleave,
    PairedDouble,
    ScalarRule,
    TriplePattern,
)

__all__ = ["ScenarioReport", "ClaimResult", "run_scenario", "scenario_ids"]

DEFAULT_LADDER = TruncationLadder((100, 1000, 10000))


@dataclass(frozen=True)
class ClaimResult:
    description: str
    reference: str  # stable claim identifier within the scenario
    status: str  # "pass" | "fail" | "diagnostic"
    evidence: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        if self.status == "fail":
            return True
        return self.status == "diagnostic" and not self.evidence.get("as_expected", True)

    def to_dict(self) -> dict:
        evidence = {k: _jsonable(v) for k, v in self.evidence.items()}
        return {**dataclasses.asdict(self), "evidence": evidence}


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return json_scalar(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    claims: tuple
    runtime: float

    @property
    def all_ok(self) -> bool:
        return not any(c.failed for c in self.claims)

    def to_dict(self) -> dict:
        """The report body; the runtime goes to the CLI's meta block."""
        return {
            "scenario_id": self.scenario_id,
            "all_ok": self.all_ok,
            "claims": [c.to_dict() for c in self.claims],
        }


def _claim(description, reference, ok, evidence=None, diagnostic=False):
    evidence = dict(evidence or {})
    if diagnostic:
        evidence["as_expected"] = bool(ok)
        return ClaimResult(description, reference, "diagnostic", evidence)
    return ClaimResult(description, reference, "pass" if ok else "fail", evidence)


def _verdict_evidence(v):
    ev = {"verdict": v.kind}
    if v.cauchy_gap is not None:
        ev["cauchy_gap"] = float(v.cauchy_gap)
    if v.growth_exponent is not None:
        ev["growth_exponent"] = float(v.growth_exponent)
    return ev


# ---------------------------------------------------------------------------
# finite-difference: xi_1 = e_1, xi_n = n(e_n - e_{n-1})


def _scenario_finite_difference(ladder, tol, params):
    spec = FiniteDifference()
    dim = ladder.top
    f = (1.0 / np.arange(1, dim + 1)).astype(complex)
    Xs = spec.materialize_sparse(dim, dim)
    coeffs = Xs.conj().T.dot(f)  # <f, xi_n>; equals -1/(n-1) for n >= 2

    claims: List[ClaimResult] = []

    # (1) sum |<f, xi_n>|^2 converges to 1 + pi^2/6
    target = 1.0 + math.pi**2 / 6.0
    norm_verdict = probe_series(np.abs(coeffs) ** 2, ladder, tol)
    limit = norm_verdict.limit_estimate
    err = abs(complex(limit).real - target) if limit is not None else None
    claims.append(
        _claim(
            "squared analysis coefficients of f_n = 1/n sum to 1 + pi^2/6",
            "finite-difference/analysis-norm",
            norm_verdict.kind == "Converged" and err < 1e-3,
            {**_verdict_evidence(norm_verdict), "limit_error": err},
        )
    )

    # (2) the frame-operator partial sums do not settle: the trailing basis
    # coefficient -k/(k-1) moves to a fresh coordinate at every step
    series_verdict = probe_series(Xs.multiply(coeffs), ladder, tol)
    gap = series_verdict.cauchy_gap or 0.0
    claims.append(
        _claim(
            "vector partial sums sum_n <f, xi_n> xi_n keep a persistent gap",
            "finite-difference/frame-series-diverges",
            series_verdict.kind == "Diverged" and gap >= 0.5,
            _verdict_evidence(series_verdict),
            diagnostic=True,
        )
    )

    # (3) the weak functionals g -> sum <f, xi_n><xi_n, g> stay bounded on
    # smooth test vectors
    rng = np.random.default_rng(11)
    bounded = True
    max_abs = 0.0
    for _ in range(10):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        g = z / np.arange(1, dim + 1) ** 2
        g = g / np.linalg.norm(g)
        d = Xs.conj().T.dot(g)
        terms = coeffs * np.conj(d)
        sums = np.cumsum(terms)[np.array(ladder.sizes) - 1]
        v = partial_sum_trend(ladder.sizes, list(sums), tol)
        bounded = bounded and v.kind != "Diverged"
        max_abs = max(max_abs, float(np.max(np.abs(sums))))
    claims.append(
        _claim(
            "weak functionals of f stay bounded on smooth unit vectors",
            "finite-difference/weak-functional-bounded",
            bounded,
            {"max_partial_modulus": max_abs},
            diagnostic=True,
        )
    )
    return claims


# ---------------------------------------------------------------------------
# interleaved-lower: {e_1, xi_1, e_2, xi_2, ...}


def _scenario_interleaved_lower(ladder, tol, params):
    base = FiniteDifference()
    onb = DiagonalWeights(ScalarRule("constant", 1.0))
    inter = Interleave(onb, base)
    dim = ladder.top
    rng = np.random.default_rng(5)
    n_vecs = int(params.get("vectors", 100))
    F = rng.standard_normal((dim, n_vecs)) + 1j * rng.standard_normal((dim, n_vecs))

    Xs = inter.materialize_sparse(dim, 2 * dim)
    A2 = np.abs(Xs.conj().T.dot(F)) ** 2  # (2*dim) x n_vecs
    fnorm2 = np.abs(F) ** 2

    claims: List[ClaimResult] = []
    # exact sums: the odd rows of A2 are ||C f||^2 and all 2N rows ||C' f||^2
    base_part, total = column_prefix_fsums([A2[1::2], A2[::2]], ladder.sizes)
    (norm_part,) = column_prefix_fsums([fnorm2], ladder.sizes)
    worst = float(np.max(
        np.abs(total - base_part - norm_part) / np.maximum(1.0, total), initial=0.0
    ))
    claims.append(
        _claim(
            "norm split: ||C' f||^2 = ||C f||^2 + ||f||^2 at matched truncations",
            "interleaved-lower/norm-identity",
            worst < 1e-12,
            {"max_relative_defect": worst},
        )
    )

    # lower bound A >= 1: exact SVD where feasible
    exact_sizes = [N for N in ladder.sizes if N <= 600]
    min_A = float("inf")
    for N in exact_sizes:
        spectrum = classify_finite(build_bundle(inter, N, 2 * N), tol)
        min_A = min(min_A, spectrum.lower_bound)
    ok_exact = (not exact_sizes) or min_A >= 1.0 - 1e-9
    claims.append(
        _claim(
            "lower frame bound at least 1 (exact SVD at small rungs)",
            "interleaved-lower/lower-bound-exact",
            ok_exact,
            {"min_lower_bound": min_A if exact_sizes else None,
             "sizes": list(exact_sizes)},
        )
    )

    # sampled witness at every rung: sum over 2N terms >= ||f||_N^2
    ratios = []
    for N in ladder.sizes:
        tot = A2[: 2 * N, :].sum(axis=0)
        nrm = fnorm2[:N, :].sum(axis=0)
        ratios.append(float(np.min(tot / nrm, initial=np.inf)))
    claims.append(
        _claim(
            "sampled ratio sum |<f, xi'_n>|^2 / ||f||^2 >= 1 at every rung",
            "interleaved-lower/lower-bound-sampled",
            min(ratios) >= 1.0 - 1e-9,
            {"min_ratio": min(ratios) if n_vecs else None},
            diagnostic=True,
        )
    )
    return claims


# ---------------------------------------------------------------------------
# dc-vs-s: xi = {e_1, e_1, e_2, 2e_2, ...}, eta = {e_1, 0, e_2, 0, ...}


def _scenario_dc_vs_s(ladder, tol, params):
    xi = PairedDouble("xi")
    eta = PairedDouble("eta")
    dim = (ladder.top + 1) // 2
    f = (1.0 / np.arange(1, dim + 1)).astype(complex)
    coeffs = xi.materialize_sparse(dim, ladder.top).conj().T @ f  # <f, xi_n>

    claims: List[ClaimResult] = []

    # reconstruction series sum <f, xi_n> eta_n converges to f
    Xeta = eta.materialize_sparse(dim, ladder.top)
    v_rec = probe_series(Xeta.multiply(coeffs), ladder, tol)
    resid = float(np.linalg.norm(v_rec.last_partial - f))
    claims.append(
        _claim(
            "multiplier series sum <f, xi_n> eta_n reproduces f",
            "dc-vs-s/multiplier-identity",
            v_rec.kind == "Converged" and resid < 1e-10,
            {**_verdict_evidence(v_rec), "residual_at_top": resid},
        )
    )

    # ||C_xi f||^2 partial sums grow linearly: f is outside dom(xi)
    v_norm = probe_series(np.abs(coeffs) ** 2, ladder, tol)
    exponent = v_norm.growth_exponent or 0.0
    claims.append(
        _claim(
            "squared analysis coefficients of xi grow linearly (f outside dom)",
            "dc-vs-s/analysis-diverges",
            v_norm.kind == "Diverged" and abs(exponent - 1.0) < 0.15,
            _verdict_evidence(v_norm),
            diagnostic=True,
        )
    )
    return claims


# ---------------------------------------------------------------------------
# telescoping-pair: xi = {e_1, e_1, -e_1, e_2, ...}, eta = {e_1, e_1, e_1, e_2, ...}


def _scenario_telescoping(ladder, tol, params):
    # each rung s is also read at the mid-group rung 3 (s // 3) - 1
    groups = [s // 3 for s in ladder.sizes]
    if groups[0] < 1 or any(b <= a for a, b in zip(groups, groups[1:])):
        raise UsageError(
            "telescoping-pair needs every ladder rung >= 3, each in a different "
            f"group of three (3k to 3k+2); got {ladder.sizes}"
        )
    xi = TriplePattern("xi")
    eta = TriplePattern("eta")
    dim = ladder.top // 3 + 1
    rng = np.random.default_rng(17)
    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    f /= np.linalg.norm(f)
    g /= np.linalg.norm(g)

    # vector series below are read at mid-group rungs
    mid_rungs = TruncationLadder(tuple(3 * (s // 3) - 1 for s in ladder.sizes))
    rungs3 = np.array(list(dict.fromkeys(3 * (s // 3) for s in ladder.sizes)))
    XxiH = xi.materialize_sparse(dim, rungs3[-1]).conj().T
    Xeta = eta.materialize_sparse(dim, rungs3[-1])

    claims: List[ClaimResult] = []
    pair = np.cumsum((XxiH @ f) * np.conj(Xeta.conj().T @ g))[rungs3 - 1]
    exact = np.array([np.vdot(g[:k], f[:k]) for k in rungs3 // 3])
    worst = float(np.max(np.abs(pair - exact)))
    claims.append(
        _claim(
            "pair form partial sums at full groups equal the truncated <f, g>",
            "telescoping-pair/form-is-identity",
            worst < 1e-12,
            {"max_defect": worst},
        )
    )

    # vector series for f = e_1 keeps oscillating at mid-group rungs
    e1 = np.zeros(dim, dtype=complex)
    e1[0] = 1.0
    v_e1 = probe_series(Xeta.multiply(XxiH @ e1), mid_rungs, tol)
    claims.append(
        _claim(
            "multiplier partial sums for e_1 oscillate (e_1 outside its domain)",
            "telescoping-pair/domain-defect-e1",
            v_e1.kind == "Diverged",
            _verdict_evidence(v_e1),
            diagnostic=True,
        )
    )

    # ... while a decaying vector orthogonal to e_1 is reproduced
    h = np.zeros(dim, dtype=complex)
    h[1:] = 1.0 / np.arange(2, dim + 1)
    h /= np.linalg.norm(h)
    v_h = probe_series(Xeta.multiply(XxiH @ h), mid_rungs, tol)
    claims.append(
        _claim(
            "multiplier partial sums converge for decaying input orthogonal to e_1",
            "telescoping-pair/domain-ok-orthogonal",
            v_h.kind == "Converged",
            _verdict_evidence(v_h),
            diagnostic=True,
        )
    )

    # eta is Bessel with bound 3; the identity form then forces a lower
    # bound 1/3 for xi -- witnessed at a moderate truncation
    N = 64
    B_eta = classify_finite(build_bundle(eta, N, 3 * N), tol).bessel_bound
    A_xi = classify_finite(build_bundle(xi, N, 3 * N), tol).lower_bound
    claims.append(
        _claim(
            "partner Bessel bound 3 forces lower bound at least 1/3 for xi",
            "telescoping-pair/bessel-dual-inequality",
            abs(B_eta - 3.0) < 1e-9 and A_xi >= 1.0 / B_eta - 1e-9,
            {"bessel_bound_eta": B_eta, "lower_bound_xi": A_xi},
            diagnostic=True,
        )
    )
    return claims


# ---------------------------------------------------------------------------
# weight-inverse-pair: xi = {n e_n}, eta = {e_n / n}


def _scenario_weight_inverse(ladder, tol, params):
    xi = DiagonalWeights(ScalarRule("n"))
    eta = DiagonalWeights(ScalarRule("1/n"))
    sizes = [s for s in ladder.sizes if s <= 512] or [8, 16, 32]
    if 32 not in sizes:
        sizes.append(32)

    claims: List[ClaimResult] = []
    worst_t = 0.0
    all_closed = True
    for N in sizes:
        b_xi = build_bundle(xi, N, N)
        b_eta = build_bundle(eta, N, N)
        fa = zero_closed_from_bundles(b_xi, b_eta, tol)
        if N == 32:
            at_32 = fa, b_xi, b_eta
        worst_t = max(
            worst_t, float(np.max(np.abs(fa.associated_operator - np.eye(N))))
        )
        all_closed = all_closed and fa.zero_closed
    claims.append(
        _claim(
            "associated matrix is the identity at every truncation",
            "weight-inverse-pair/associated-identity",
            worst_t < 1e-12,
            {"max_defect": worst_t, "sizes": sizes},
        )
    )
    claims.append(
        _claim(
            "pair form is 0-closed at every truncation",
            "weight-inverse-pair/zero-closed",
            all_closed,
            {"sizes": sizes},
        )
    )

    worst_res = max_residual(reproducing_pair_duals(*at_32), trials=20, seed=23)
    claims.append(
        _claim(
            "left and right weak reconstructions are exact",
            "weight-inverse-pair/reconstruction",
            worst_res < 1e-12,
            {"max_residual": worst_res, "dim": 32},
        )
    )
    return claims


# ---------------------------------------------------------------------------
# weighted-riesz: phi = V e_n, psi its canonical dual, eta = {alpha_n psi_n}


def _random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _scenario_weighted_riesz(ladder, tol, params):
    dim = int(params.get("dim", 16))
    alpha = np.asarray(
        params.get("alpha", np.arange(1, dim + 1)), dtype=complex
    ).ravel()
    dim = alpha.size
    V = params.get("V")
    if V is None:
        V = _random_unitary(dim, np.random.default_rng(7))
    V = np.asarray(V, dtype=complex)
    unitary = bool(
        np.max(np.abs(V.conj().T @ V - np.eye(dim))) < 1e-10
    )

    H = weighted_riesz_associated(alpha, V)
    claims: List[ClaimResult] = []

    eigs = np.linalg.eigvals(H)
    order = np.lexsort((eigs.imag, eigs.real))
    aorder = np.lexsort((alpha.imag, alpha.real))
    spec_err = float(np.max(np.abs(eigs[order] - alpha[aorder])))
    claims.append(
        _claim(
            "spectrum of the associated matrix equals the weight multiset",
            "weighted-riesz/spectrum",
            spec_err < 1e-8 if unitary else spec_err < 1e-6,
            {"max_eigenvalue_defect": spec_err, "unitary": unitary},
        )
    )

    reals = np.abs(alpha)
    probes = [
        complex(reals.min()) - 0.5,
        complex(alpha[min(2, dim - 1)]) + 0.5 if dim > 1 else 0.5,
        complex(alpha[min(2, dim - 1)]),
        complex(reals.max()) + 0.5,
    ]
    verdicts = lambda_region_weighted(alpha, probes, tol, V=V)
    agree = all(v.lambda_closed == v.resolvent_invertible for v in verdicts)
    claims.append(
        _claim(
            "lambda probes: distance-to-weights rule matches resolvent invertibility",
            "weighted-riesz/lambda-region",
            agree,
            {"probes": [v.to_dict() for v in verdicts]},
        )
    )

    shift = solvability_shift(alpha, tol)
    claims.append(
        _claim(
            "bounded shift pushes every weight to modulus at least 1",
            "weighted-riesz/solvability-shift",
            shift.min_shifted_modulus >= 1.0 - 1e-12 and shift.shifted_zero_closed,
            {"min_shifted_modulus": shift.min_shifted_modulus},
        )
    )

    if np.min(np.abs(alpha)) > tol.rank_tol:
        Phi = V
        Psi = np.linalg.inv(V).conj().T
        rng = np.random.default_rng(29)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        fvec = z / np.linalg.norm(z)
        H_inv = np.linalg.inv(H)
        f1 = Psi @ (alpha * (Phi.conj().T @ (H_inv @ fvec)))
        f2 = Phi @ (np.conj(alpha) * (Psi.conj().T @ (H_inv.conj().T @ fvec)))
        res = max(
            float(np.linalg.norm(f1 - fvec)), float(np.linalg.norm(f2 - fvec))
        )
        claims.append(
            _claim(
                "both weighted reconstruction formulas reproduce f",
                "weighted-riesz/reconstruction",
                res < 1e-8,
                {"max_residual": res},
            )
        )
    return claims


# ---------------------------------------------------------------------------
# operator-image: xi_n = V e_n, eta_n = Z e_n


def _scenario_operator_image(ladder, tol, params):
    dim = int(params.get("dim", 8))
    trials = int(params.get("trials", 20))
    rng = np.random.default_rng(31)
    worst_c = worst_s = worst_pair = 0.0
    for _ in range(trials):
        V = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        res = operator_image_bundle(V)
        worst_c = max(worst_c, res.analysis_error)
        worst_s = max(worst_s, res.frame_error)
        assoc = bundle_from_columns(Z).C.conj().T @ res.bundle.C
        worst_pair = max(
            worst_pair, float(np.max(np.abs(assoc - Z @ V.conj().T)))
        )
    claims = [
        _claim(
            "analysis matrix is the adjoint of the defining operator",
            "operator-image/analysis-adjoint",
            worst_c < 1e-10,
            {"max_defect": worst_c, "trials": trials},
        ),
        _claim(
            "frame matrix equals V V^*",
            "operator-image/frame-product",
            worst_s < 1e-10,
            {"max_defect": worst_s},
        ),
        _claim(
            "pair associated matrix equals Z V^*",
            "operator-image/pair-associated",
            worst_pair < 1e-10,
            {"max_defect": worst_pair},
        ),
    ]
    return claims


_SCENARIOS: Dict[str, Callable] = {
    "finite-difference": _scenario_finite_difference,
    "interleaved-lower": _scenario_interleaved_lower,
    "dc-vs-s": _scenario_dc_vs_s,
    "telescoping-pair": _scenario_telescoping,
    "weight-inverse-pair": _scenario_weight_inverse,
    "weighted-riesz": _scenario_weighted_riesz,
    "operator-image": _scenario_operator_image,
}


def scenario_ids() -> List[str]:
    return sorted(_SCENARIOS)


def run_scenario(
    scenario_id: str,
    ladder: Optional[TruncationLadder] = None,
    tol: Tolerances = DEFAULT_TOL,
    params: Optional[dict] = None,
) -> ScenarioReport:
    if scenario_id not in _SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; known: {', '.join(scenario_ids())}"
        )
    ladder = ladder or DEFAULT_LADDER
    t0 = time.perf_counter()
    claims = _SCENARIOS[scenario_id](ladder, tol, params or {})
    runtime = time.perf_counter() - t0
    return ScenarioReport(
        scenario_id=scenario_id, claims=tuple(claims), runtime=runtime
    )
