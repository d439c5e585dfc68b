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
from typing import List, Optional

import numpy as np

from .classify import classify_finite
from .core import (
    DEFAULT_TOL,
    Tolerances,
    TruncationLadder,
    column_prefix_fsums,
    partial_sum_trend,
    probe_series,
)
from .errors import DenseTooLarge, UnknownScenario, UsageError
from .forms import lambda_region_weighted, solvability_shift, zero_closed_from_bundles
from .operators import build_bundle, bundle_from_columns
from .reconstruct import max_residual, reproducing_pair_duals
from .sequences import (
    DiagonalWeights,
    ExplicitColumns,
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
        return (self.status == "diagnostic"
                and not self.evidence.get("as_expected", True))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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


# reference -> (description, diagnostic). A scenario reports exactly its own
# claims, in this order. A diagnostic claim is a ladder witness: its status
# stays "diagnostic" and its evidence says whether it came out as expected.
_CLAIMS = {
    "finite-difference/analysis-norm": (
        "squared analysis coefficients of f_n = 1/n sum to 1 + pi^2/6", False),
    "finite-difference/frame-series-diverges": (
        "vector partial sums sum_n <f, xi_n> xi_n keep a persistent gap", True),
    "finite-difference/weak-functional-bounded": (
        "weak functionals of f stay bounded on smooth unit vectors", True),
    "interleaved-lower/norm-identity": (
        "norm split: ||C' f||^2 = ||C f||^2 + ||f||^2 at matched truncations",
        False),
    "interleaved-lower/lower-bound-exact": (
        "lower frame bound at least 1 (exact SVD at small rungs)", False),
    "interleaved-lower/lower-bound-sampled": (
        "sampled ratio sum |<f, xi'_n>|^2 / ||f||^2 >= 1 at every rung", True),
    "dc-vs-s/multiplier-identity": (
        "multiplier series sum <f, xi_n> eta_n reproduces f", False),
    "dc-vs-s/analysis-diverges": (
        "squared analysis coefficients of xi grow linearly (f outside dom)", True),
    "telescoping-pair/form-is-identity": (
        "pair form partial sums at full groups equal the truncated <f, g>", False),
    "telescoping-pair/domain-defect-e1": (
        "multiplier partial sums for e_1 oscillate (e_1 outside its domain)",
        True),
    "telescoping-pair/domain-ok-orthogonal": (
        "multiplier partial sums converge for decaying input orthogonal to e_1",
        True),
    "telescoping-pair/bessel-dual-inequality": (
        "partner Bessel bound 3 forces lower bound at least 1/3 for xi", True),
    "weight-inverse-pair/associated-identity": (
        "associated matrix is the identity at every truncation", False),
    "weight-inverse-pair/zero-closed": (
        "pair form is 0-closed at every truncation", False),
    "weight-inverse-pair/reconstruction": (
        "left and right weak reconstructions are exact", False),
    "weighted-riesz/spectrum": (
        "spectrum of the associated matrix equals the weight multiset", False),
    "weighted-riesz/lambda-region": (
        "lambda probes: distance-to-weights rule matches resolvent invertibility",
        False),
    "weighted-riesz/solvability-shift": (
        "bounded shift pushes every weight to modulus at least 1", False),
    "weighted-riesz/reconstruction": (
        "both weighted reconstruction formulas reproduce f", False),
    "operator-image/analysis-adjoint": (
        "analysis matrix is the adjoint of the defining operator", False),
    "operator-image/frame-product": ("frame matrix equals V V^*", False),
    "operator-image/pair-associated": (
        "pair associated matrix equals Z V^*", False),
}


def _claim(reference, ok, evidence):
    description, diagnostic = _CLAIMS[reference]
    if diagnostic:
        evidence = {**evidence, "as_expected": bool(ok)}
        return ClaimResult(description, reference, "diagnostic", evidence)
    return ClaimResult(description, reference, "pass" if ok else "fail", evidence)


def _verdict_evidence(v):
    ev = {"verdict": v.kind}
    if v.cauchy_gap is not None:
        ev["cauchy_gap"] = float(v.cauchy_gap)
    if v.growth_exponent is not None:
        ev["growth_exponent"] = float(v.growth_exponent)
    return ev


def _gaussian(rng, shape):
    """Standard complex Gaussians, real parts drawn first, in one array."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def _unit(v):
    return v / np.linalg.norm(v)


def _scenario_finite_difference(ladder, tol):
    """xi_1 = e_1, xi_n = n(e_n - e_{n-1}), against f_n = 1/n."""
    dim = ladder.top
    f = (1.0 / np.arange(1, dim + 1)).astype(complex)
    Xs = FiniteDifference().materialize_sparse(dim, dim)
    coeffs = Xs.conj().T.dot(f)  # <f, xi_n>; equals -1/(n-1) for n >= 2

    # sum |<f, xi_n>|^2 converges to 1 + pi^2/6
    target = 1.0 + math.pi**2 / 6.0
    norm_verdict = probe_series(np.abs(coeffs) ** 2, ladder)
    limit = norm_verdict.limit_estimate
    err = abs(complex(limit).real - target) if limit is not None else None

    # the frame-operator partial sums do not settle: the trailing basis
    # coefficient -k/(k-1) moves to a fresh coordinate at every step
    series_verdict = probe_series(Xs.multiply(coeffs), ladder)
    gap = series_verdict.cauchy_gap or 0.0

    # the weak functionals g -> sum <f, xi_n><xi_n, g> stay bounded on
    # smooth test vectors
    rng = np.random.default_rng(11)
    bounded = True
    max_abs = 0.0
    for _ in range(10):
        g = _unit(_gaussian(rng, dim) / np.arange(1, dim + 1) ** 2)
        d = Xs.conj().T.dot(g)
        terms = coeffs * np.conj(d)
        sums = np.cumsum(terms)[np.array(ladder.sizes) - 1]
        v = partial_sum_trend(ladder.sizes, list(sums))
        bounded = bounded and v.kind != "Diverged"
        max_abs = max(max_abs, float(np.max(np.abs(sums))))
    return {
        "analysis-norm": (norm_verdict.kind == "Converged" and err < 1e-3,
                          {**_verdict_evidence(norm_verdict), "limit_error": err}),
        "frame-series-diverges": (series_verdict.kind == "Diverged" and gap >= 0.5,
                                  _verdict_evidence(series_verdict)),
        "weak-functional-bounded": (bounded, {"max_partial_modulus": max_abs}),
    }


def _scenario_interleaved_lower(ladder, tol):
    """{e_1, xi_1, e_2, xi_2, ...} with xi the finite-difference sequence."""
    inter = Interleave(DiagonalWeights(ScalarRule("constant", 1.0)), FiniteDifference())
    dim = ladder.top
    F = _gaussian(np.random.default_rng(5), (dim, 100))

    Xs = inter.materialize_sparse(dim, 2 * dim)
    A2 = np.abs(Xs.conj().T.dot(F)) ** 2  # (2*dim) x 100
    fnorm2 = np.abs(F) ** 2

    # exact sums: the odd rows of A2 are ||C f||^2 and all 2N rows ||C' f||^2
    base_part, total = column_prefix_fsums([A2[1::2], A2[::2]], ladder.sizes)
    (norm_part,) = column_prefix_fsums([fnorm2], ladder.sizes)
    worst = float(np.max(
        np.abs(total - base_part - norm_part) / np.maximum(1.0, total)
    ))

    # lower bound A >= 1: exact SVD where feasible
    exact_sizes = [N for N in ladder.sizes if N <= 600]
    min_A = float("inf")
    for N in exact_sizes:
        spectrum = classify_finite(build_bundle(inter, N, 2 * N), tol)
        min_A = min(min_A, spectrum.lower_bound)
    ok_exact = (not exact_sizes) or min_A >= 1.0 - 1e-9

    # sampled witness at every rung: sum over 2N terms >= ||f||_N^2
    min_ratio = float(np.min(total / norm_part))
    return {
        "norm-identity": (worst < 1e-12, {"max_relative_defect": worst}),
        "lower-bound-exact": (ok_exact, {
            "min_lower_bound": min_A if exact_sizes else None,
            "sizes": list(exact_sizes)}),
        "lower-bound-sampled": (min_ratio >= 1.0 - 1e-9,
                                {"min_ratio": min_ratio}),
    }


def _scenario_dc_vs_s(ladder, tol):
    """xi = {e_1, e_1, e_2, 2e_2, ...}, eta = {e_1, 0, e_2, 0, ...}."""
    xi = PairedDouble("xi")
    eta = PairedDouble("eta")
    dim = (ladder.top + 1) // 2
    f = (1.0 / np.arange(1, dim + 1)).astype(complex)
    coeffs = xi.materialize_sparse(dim, ladder.top).conj().T @ f  # <f, xi_n>

    # reconstruction series sum <f, xi_n> eta_n converges to f
    Xeta = eta.materialize_sparse(dim, ladder.top)
    v_rec = probe_series(Xeta.multiply(coeffs), ladder)
    resid = float(np.linalg.norm(v_rec.last_partial - f))

    # ||C_xi f||^2 partial sums grow linearly: f is outside dom(xi)
    v_norm = probe_series(np.abs(coeffs) ** 2, ladder)
    exponent = v_norm.growth_exponent or 0.0
    return {
        "multiplier-identity": (v_rec.kind == "Converged" and resid < 1e-10,
                                {**_verdict_evidence(v_rec), "residual_at_top": resid}),
        "analysis-diverges": (v_norm.kind == "Diverged" and abs(exponent - 1.0) < 0.15,
                              _verdict_evidence(v_norm)),
    }


def _scenario_telescoping(ladder, tol):
    """xi = {e_1, e_1, -e_1, e_2, ...}, eta = {e_1, e_1, e_1, e_2, ...}."""
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
    f = _unit(_gaussian(rng, dim))
    g = _unit(_gaussian(rng, dim))

    # vector series below are read at mid-group rungs
    mid_rungs = TruncationLadder(tuple(3 * (s // 3) - 1 for s in ladder.sizes))
    rungs3 = np.array(list(dict.fromkeys(3 * (s // 3) for s in ladder.sizes)))
    XxiH = xi.materialize_sparse(dim, rungs3[-1]).conj().T
    Xeta = eta.materialize_sparse(dim, rungs3[-1])

    pair = np.cumsum((XxiH @ f) * np.conj(Xeta.conj().T @ g))[rungs3 - 1]
    exact = np.array([np.vdot(g[:k], f[:k]) for k in rungs3 // 3])
    worst = float(np.max(np.abs(pair - exact)))

    # vector series for f = e_1 keeps oscillating at mid-group rungs
    e1 = np.zeros(dim, dtype=complex)
    e1[0] = 1.0
    v_e1 = probe_series(Xeta.multiply(XxiH @ e1), mid_rungs)

    # ... while a decaying vector orthogonal to e_1 is reproduced
    h = np.zeros(dim, dtype=complex)
    h[1:] = 1.0 / np.arange(2, dim + 1)
    v_h = probe_series(Xeta.multiply(XxiH @ _unit(h)), mid_rungs)

    # eta is Bessel with bound 3; the identity form then forces a lower
    # bound 1/3 for xi -- witnessed at a moderate truncation
    N = 64
    B_eta = classify_finite(build_bundle(eta, N, 3 * N), tol).bessel_bound
    A_xi = classify_finite(build_bundle(xi, N, 3 * N), tol).lower_bound
    return {
        "form-is-identity": (worst < 1e-12, {"max_defect": worst}),
        "domain-defect-e1": (v_e1.kind == "Diverged", _verdict_evidence(v_e1)),
        "domain-ok-orthogonal": (v_h.kind == "Converged", _verdict_evidence(v_h)),
        "bessel-dual-inequality": (
            abs(B_eta - 3.0) < 1e-9 and A_xi >= 1.0 / B_eta - 1e-9,
            {"bessel_bound_eta": B_eta, "lower_bound_xi": A_xi}),
    }


def _scenario_weight_inverse(ladder, tol):
    """xi = {n e_n}, eta = {e_n / n}."""
    xi = DiagonalWeights(ScalarRule("n"))
    eta = DiagonalWeights(ScalarRule("1/n"))
    sizes = [s for s in ladder.sizes if s <= 512] or [8, 16, 32]
    if 32 not in sizes:
        sizes.append(32)

    worst_t = 0.0
    all_closed = True
    for N in sizes:
        b_xi = build_bundle(xi, N, N)
        b_eta = build_bundle(eta, N, N)
        fa = zero_closed_from_bundles(b_xi, b_eta, tol)
        if N == 32:
            at_32 = fa, b_xi, b_eta
        defect = float(np.max(np.abs(fa.associated_operator - np.eye(N))))
        worst_t = max(worst_t, defect)
        all_closed = all_closed and fa.zero_closed
    res = None  # the duals exist only for a 0-closed form
    if at_32[0].zero_closed:
        res = max_residual(reproducing_pair_duals(*at_32), trials=20, seed=23)
    return {
        "associated-identity": (worst_t < 1e-12,
                                {"max_defect": worst_t, "sizes": sizes}),
        "zero-closed": (all_closed, {"sizes": sizes}),
        "reconstruction": (res is not None and res < 1e-12,
                           {"max_residual": res, "dim": 32}),
    }


def _scenario_weighted_riesz(ladder, tol):
    """phi = V e_n, psi its canonical dual, eta = {alpha_n psi_n}."""
    dim = 16
    alpha = np.arange(1, dim + 1, dtype=complex)
    q, r = np.linalg.qr(_gaussian(np.random.default_rng(7), (dim, dim)))
    V = q * (np.diag(r) / np.abs(np.diag(r)))  # a random unitary
    unitary = bool(np.max(np.abs(V.conj().T @ V - np.eye(dim))) < 1e-10)

    # the pair {phi_n}, {alpha_n psi_n} has the associated matrix
    # H = V^-H diag(alpha) V^H, similar to diag(alpha), and its reproducing
    # duals are the two weighted reconstruction formulas. They hold for any
    # rank cutoff, so the pair is assessed at the default one.
    b_phi = bundle_from_columns(V)
    b_eta = bundle_from_columns(np.linalg.inv(V).conj().T * alpha)
    fa = zero_closed_from_bundles(b_phi, b_eta)
    H = fa.associated_operator
    eigs = np.linalg.eigvals(H)
    order = np.lexsort((eigs.imag, eigs.real))
    aorder = np.lexsort((alpha.imag, alpha.real))
    spec_err = float(np.max(np.abs(eigs[order] - alpha[aorder])))

    reals = np.abs(alpha)
    probes = [
        complex(reals.min()) - 0.5,
        complex(alpha[2]) + 0.5,
        complex(alpha[2]),
        complex(reals.max()) + 0.5,
    ]
    verdicts = lambda_region_weighted(alpha, H, probes, tol)
    agree = all(v.lambda_closed == v.resolvent_invertible for v in verdicts)

    shift = solvability_shift(alpha, tol)
    res = max_residual(reproducing_pair_duals(fa, b_phi, b_eta), trials=1, seed=29)
    return {
        "spectrum": (spec_err < 1e-8 if unitary else spec_err < 1e-6,
                     {"max_eigenvalue_defect": spec_err, "unitary": unitary}),
        "lambda-region": (agree, {"probes": [v.to_dict() for v in verdicts]}),
        "solvability-shift": (
            shift.min_shifted_modulus >= 1.0 - 1e-12 and shift.shifted_zero_closed,
            {"min_shifted_modulus": shift.min_shifted_modulus}),
        "reconstruction": (res < 1e-8, {"max_residual": res}),
    }


def _scenario_operator_image(ladder, tol):
    """xi_n = V e_n, eta_n = Z e_n."""
    dim, trials = 8, 20
    rng = np.random.default_rng(31)
    worst_c = worst_s = worst_pair = 0.0
    for _ in range(trials):
        V = _gaussian(rng, (dim, dim))
        Z = _gaussian(rng, (dim, dim))
        bundle = build_bundle(ExplicitColumns(V), dim, dim)
        worst_c = max(worst_c, float(np.max(np.abs(bundle.C - V.conj().T))))
        worst_s = max(worst_s, float(np.max(np.abs(bundle.S - V @ V.conj().T))))
        assoc = zero_closed_from_bundles(
            bundle, bundle_from_columns(Z), tol).associated_operator
        worst_pair = max(
            worst_pair, float(np.max(np.abs(assoc - Z @ V.conj().T)))
        )
    return {
        "analysis-adjoint": (worst_c < 1e-10,
                             {"max_defect": worst_c, "trials": trials}),
        "frame-product": (worst_s < 1e-10, {"max_defect": worst_s}),
        "pair-associated": (worst_pair < 1e-10, {"max_defect": worst_pair}),
    }


# scenario id -> (function, cap on the ladder top). The capped scenarios hold
# arrays of the top's size, interleaved-lower a top x 100 probe block; at its
# cap one run takes about 1.5 s and 700 MB. The others have fixed sizes.
_SCENARIOS = {
    "finite-difference": (_scenario_finite_difference, 10**6),
    "interleaved-lower": (_scenario_interleaved_lower, 10**5),
    "dc-vs-s": (_scenario_dc_vs_s, 10**6),
    "telescoping-pair": (_scenario_telescoping, 10**6),
    "weight-inverse-pair": (_scenario_weight_inverse, None),
    "weighted-riesz": (_scenario_weighted_riesz, None),
    "operator-image": (_scenario_operator_image, None),
}


def scenario_ids() -> List[str]:
    return sorted(_SCENARIOS)


def run_scenario(
    scenario_id: str,
    ladder: Optional[TruncationLadder] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> ScenarioReport:
    """The report of one catalog scenario: every claim _CLAIMS lists for it.

    DenseTooLarge, before anything is allocated, when the ladder top is above
    the scenario's cap."""
    if scenario_id not in _SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; known: {', '.join(scenario_ids())}"
        )
    ladder = ladder or DEFAULT_LADDER
    scenario, cap = _SCENARIOS[scenario_id]
    if cap is not None and ladder.top > cap:
        raise DenseTooLarge(
            f"scenario {scenario_id} holds arrays of the ladder top "
            f"{ladder.top}, above its cap of {cap}",
            top=ladder.top, cap=cap,
        )
    t0 = time.perf_counter()
    results = scenario(ladder, tol)
    claims = tuple(
        _claim(reference, *results[reference.split("/")[1]])
        for reference in _CLAIMS if reference.startswith(scenario_id + "/")
    )
    return ScenarioReport(scenario_id, claims, time.perf_counter() - t0)
