"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL line.

Sampled oracles are kept independent of the library code paths they check
(raw numpy on brute-force unit vectors). Random instances are real-valued so
that a 1e5-point sphere sample can actually approach the extremizers at the
stated 2% tolerance; for real matrices the complex and real Rayleigh
extremes coincide.
"""

import math

import numpy as np
import pytest

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    FiniteDifference,
    Interleave,
    ScalarRule,
    TruncationLadder,
    build_bundle,
    bundle_from_columns,
    canonical_dual,
    classify_finite,
    infsup_constants,
    lambda_region_weighted,
    reconstruct_with,
    reproducing_pair_duals,
    run_scenario,
    solvability_shift,
    zero_closed_check,
    zero_closed_from_bundles,
)

ONB = DiagonalWeights(ScalarRule("constant", 1.0))
LADDER = TruncationLadder((100, 1000, 10000))


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} ({label}) failed"


def _well_conditioned_instance(rng, max_dim, max_count):
    """Random real columns with count >= dim and A >= 0.05 B, so the
    sampled oracle can resolve the lower bound."""
    while True:
        dim = int(rng.integers(1, max_dim + 1))
        count = int(rng.integers(dim, max_count + 1))
        X = rng.standard_normal((dim, count))
        s = np.linalg.svd(X, compute_uv=False)
        if s[-1] ** 2 >= 0.05 * s[0] ** 2:
            return X


def test_criterion_01_onb_parseval(capsys):
    rep = classify_finite(build_bundle(ONB, 64, 64))
    ok = (
        abs(rep.bessel_bound - 1.0) <= 1e-12
        and abs(rep.lower_bound - 1.0) <= 1e-12
        and rep.riesz_basis
    )
    _report(capsys, 1, "orthonormal basis has A = B = 1", ok)


def test_criterion_02_frame_bounds_vs_sampled_oracle(capsys):
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        X = _well_conditioned_instance(rng, 3, 6)
        dim = X.shape[0]
        rep = classify_finite(bundle_from_columns(X))
        F = rng.standard_normal((dim, 100_000))
        F /= np.linalg.norm(F, axis=0)
        q = np.sum(np.abs(X.T @ F) ** 2, axis=0)
        ok = ok and abs(q.max() - rep.bessel_bound) <= 0.02 * rep.bessel_bound
        ok = ok and abs(q.min() - rep.lower_bound) <= 0.02 * rep.lower_bound
    _report(capsys, 2, "frame bounds match brute-force sampling within 2%", ok)


def test_criterion_03_zero_closed_routes_agree(capsys):
    rng = np.random.default_rng(103)
    disagreements = 0
    instances = 0

    def check(X, Y):
        nonlocal disagreements, instances
        fa = zero_closed_from_bundles(bundle_from_columns(X), bundle_from_columns(Y))
        instances += 1
        if fa.zero_closed != fa.assoc_invertible:
            disagreements += 1

    for _ in range(180):
        dim = int(rng.integers(1, 6))
        count = int(rng.integers(1, 9))
        X = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
        Y = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
        check(X, Y)
    # adversarial: rank-deficient, duplicated, zero and badly scaled columns
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        count = int(rng.integers(dim, 9))
        X = rng.standard_normal((dim, count))
        Y = rng.standard_normal((dim, count))
        stunt = rng.integers(0, 4)
        if stunt == 0:
            X[:, -1] = 0.0
        elif stunt == 1:
            X[:, -1] = X[:, 0]
            Y[:, -1] = Y[:, 0]
        elif stunt == 2:
            Y[dim - 1, :] = 0.0  # analysis range misses a coordinate
        else:
            X *= 1e6
            Y *= 1e-6
        check(X, Y)
    ok = instances >= 200 and disagreements == 0
    _report(capsys, 3, "subspace and invertibility 0-closed routes agree", ok)


def test_criterion_04_infsup_vs_sampled_oracle(capsys):
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(20):
        X = _well_conditioned_instance(rng, 4, 7)
        dim, count = X.shape
        while True:
            Y = rng.standard_normal((dim, count))
            s = np.linalg.svd(Y, compute_uv=False)
            if s[-1] ** 2 >= 0.05 * s[0] ** 2:
                break
        bx = bundle_from_columns(X)
        by = bundle_from_columns(Y)
        c1 = infsup_constants(bx, by).c1
        # oracle: sample unit vectors of R(C_xi), project onto R(C_eta) via QR
        Qx, _ = np.linalg.qr(bx.C)
        Qe, _ = np.linalg.qr(by.C)
        W = rng.standard_normal((Qx.shape[1], 100_000))
        W /= np.linalg.norm(W, axis=0)
        sampled = np.linalg.norm(Qe.conj().T @ (Qx @ W), axis=0)
        # c1 is a cosine in [0, 1]; 2% of that scale. The sampled minimum
        # can only overshoot the true infimum, never undershoot it.
        ok = ok and sampled.min() >= c1 - 1e-9
        ok = ok and abs(sampled.min() - c1) <= 0.02
    _report(capsys, 4, "inf-sup constant matches sampled oracle within 2%", ok)


def test_criterion_05_canonical_dual_reconstruction(capsys):
    rng = np.random.default_rng(105)
    systems = [canonical_dual(build_bundle(DiagonalWeights(ScalarRule("n")), 16, 16))]
    for _ in range(5):
        dim = int(rng.integers(3, 8))
        count = int(rng.integers(dim, dim + 5))
        X = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
        systems.append(canonical_dual(bundle_from_columns(X)))
    worst = 0.0
    for ds in systems:
        dim = ds.dual.shape[0]
        for _ in range(100):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            f = z / np.linalg.norm(z)
            _, residual = reconstruct_with(ds, f)
            worst = max(worst, residual)
    _report(capsys, 5, "canonical dual reconstruction residual < 1e-10", worst < 1e-10)


def test_criterion_06_reproducing_pair_identity(capsys):
    xi = DiagonalWeights(ScalarRule("n"))
    eta = DiagonalWeights(ScalarRule("1/n"))
    fa = zero_closed_check(xi, eta, 32, 32)
    exact = np.array_equal(fa.associated_operator.toarray(), np.eye(32))
    left, right = reproducing_pair_duals(
        fa, build_bundle(xi, 32, 32), build_bundle(eta, 32, 32)
    )
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        f = z / np.linalg.norm(z)
        _, res_l = reconstruct_with(left, f)
        _, res_r = reconstruct_with(right, f)
        worst = max(worst, res_l, res_r)
    scenario_ok = run_scenario("weight-inverse-pair", TruncationLadder((8, 16, 32))).all_ok
    ok = exact and worst < 1e-12 and scenario_ok
    _report(capsys, 6, "weight-inverse pair: T = I, reconstructions < 1e-12", ok)


def test_criterion_07_finite_difference_ladder(capsys):
    rep = run_scenario("finite-difference", LADDER)
    by_ref = {c.reference: c for c in rep.claims}
    norm_claim = by_ref["finite-difference/analysis-norm"]
    series_claim = by_ref["finite-difference/frame-series-diverges"]
    ok = (
        norm_claim.status == "pass"
        and norm_claim.evidence["verdict"] == "Converged"
        and norm_claim.evidence["limit_error"] < 1e-3
        and series_claim.evidence["verdict"] == "Diverged"
        and series_claim.evidence["cauchy_gap"] >= 0.5
    )
    _report(capsys, 7, "finite-difference ladder: 1 + pi^2/6 and divergence", ok)


def test_criterion_08_weighted_riesz_spectrum(capsys):
    rng = np.random.default_rng(108)
    Z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    V, _ = np.linalg.qr(Z)
    alpha = np.arange(1, 17, dtype=float)
    Vh = V.conj().T
    H = np.linalg.solve(Vh, np.diag(alpha) @ Vh)  # V^-H diag(alpha) V^H
    eigs = np.sort(np.linalg.eigvals(H).real)
    spectrum_ok = np.max(np.abs(eigs - alpha)) <= 1e-8

    probes = [0.5, 3.0, 3.5, 16.5, 100.0]
    verdicts = lambda_region_weighted(alpha, H, probes)
    rule = [float(np.min(np.abs(alpha - lam))) > 1e-10 for lam in probes]
    lambda_ok = [v.lambda_closed for v in verdicts] == rule

    shift = solvability_shift(alpha)
    shift_ok = np.min(np.abs(shift.shifted)) >= 1.0 - 1e-12

    _report(
        capsys, 8, "weighted Riesz: spectrum, lambda probes, shift",
        spectrum_ok and lambda_ok and shift_ok,
    )


def test_criterion_09_interleave_identity(capsys):
    inter = Interleave(ONB, FiniteDifference())
    base = FiniteDifference()
    dim = LADDER.top
    rng = np.random.default_rng(109)
    F = rng.standard_normal((dim, 100)) + 1j * rng.standard_normal((dim, 100))
    Ai = np.abs(inter.materialize_sparse(dim, 2 * dim).conj().T.dot(F)) ** 2
    fn = np.abs(F) ** 2
    worst = 0.0
    for N in LADDER.sizes:
        for j in range(F.shape[1]):
            total = math.fsum(Ai[: 2 * N, j])
            split = math.fsum(Ai[1 : 2 * N : 2, j]) + math.fsum(fn[:N, j])
            worst = max(worst, abs(total - split) / max(1.0, total))
    _report(capsys, 9, "interleave norm identity exact (1e-12)", worst <= 1e-12)


def test_criterion_10_operator_image_identities(capsys):
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        V = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        Z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b_v = bundle_from_columns(V)
        b_z = bundle_from_columns(Z)
        worst = max(worst, float(np.max(np.abs(b_v.C - V.conj().T))))
        worst = max(worst, float(np.max(np.abs(b_v.S - V @ V.conj().T))))
        assoc = b_z.C.conj().T @ b_v.C
        worst = max(worst, float(np.max(np.abs(assoc - Z @ V.conj().T))))
    _report(capsys, 10, "analysis/frame/pair operator identities (1e-10)", worst <= 1e-10)
