import numpy as np
import pytest

from seqforms import (
    CoeffVector,
    DiagonalWeights,
    ExplicitColumns,
    ScalarRule,
    build_bundle,
    canonical_dual,
    max_residual,
    reconstruct_with,
    reproducing_pair_duals,
    zero_closed_check,
)
from seqforms.errors import DimensionMismatch, NotLowerSemiFrame, NotZeroClosed
from seqforms.reconstruct import _probe_draws

ONB = DiagonalWeights(ScalarRule("constant", 1.0))


def random_vec(dim, rng):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return CoeffVector(z / np.linalg.norm(z))


def test_onb_is_self_dual():
    ds = canonical_dual(build_bundle(ONB, 5, 5))
    assert np.allclose(ds.dual, ds.primal)
    assert ds.bessel_bound_of_dual == pytest.approx(1.0)


def test_weighted_canonical_dual_columns():
    ds = canonical_dual(build_bundle(DiagonalWeights(ScalarRule("n")), 4, 4))
    assert np.allclose(ds.dual, np.diag([1.0, 0.5, 1 / 3, 0.25]))
    assert ds.bessel_bound_of_dual == pytest.approx(1.0)


def test_redundant_frame_dual():
    X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ds = canonical_dual(build_bundle(ExplicitColumns(X), 2, 3))
    assert np.allclose(ds.dual, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    f = CoeffVector([3.0, 5.0])
    recon, residual = reconstruct_with(ds, f)
    assert residual < 1e-12
    assert np.allclose(recon.coeffs, [3.0, 5.0])


def test_canonical_dual_requires_lower_semi_frame():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    with pytest.raises(NotLowerSemiFrame):
        canonical_dual(build_bundle(ExplicitColumns(X), 2, 2))


def test_reconstruction_residual_random_frames():
    rng = np.random.default_rng(9)
    for _ in range(5):
        X = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        ds = canonical_dual(build_bundle(ExplicitColumns(X), 6, 9))
        for _ in range(10):
            _, residual = reconstruct_with(ds, random_vec(6, rng))
            assert residual < 1e-10


def test_weak_reconstruction_identity_against_test_vectors():
    # <sum_n <f, xi_n> dual_n, g> = <f, g>
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 6))
    ds = canonical_dual(build_bundle(ExplicitColumns(X), 4, 6))
    for _ in range(100):
        f, g = random_vec(4, rng), random_vec(4, rng)
        recon, _ = reconstruct_with(ds, f)
        lhs = np.vdot(g.coeffs, recon.coeffs)
        assert lhs == pytest.approx(np.vdot(g.coeffs, f.coeffs), abs=1e-10)


def test_dual_of_dual_returns_original():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    ds = canonical_dual(build_bundle(ExplicitColumns(X), 5, 7))
    ds2 = canonical_dual(build_bundle(ExplicitColumns(ds.dual), 5, 7))
    assert np.allclose(ds2.dual, X, atol=1e-10)


def test_bessel_bound_dominates_sampled_ratios():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    ds = canonical_dual(build_bundle(ExplicitColumns(X), 4, 7))
    for _ in range(1000):
        f = random_vec(4, rng)
        ratio = float(np.sum(np.abs(ds.dual.conj().T @ f.coeffs) ** 2))
        assert ratio <= ds.bessel_bound_of_dual + 1e-10


def test_reproducing_pair_duals_weight_inverse():
    xi = DiagonalWeights(ScalarRule("n"))
    eta = DiagonalWeights(ScalarRule("1/n"))
    fa = zero_closed_check(xi, eta, 8, 8)
    left, right = reproducing_pair_duals(
        fa, build_bundle(xi, 8, 8), build_bundle(eta, 8, 8)
    )
    # T = I: duals coincide with the original families
    assert np.allclose(left.dual, build_bundle(xi, 8, 8).columns)
    assert np.allclose(right.dual, build_bundle(eta, 8, 8).columns)
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = random_vec(8, rng)
        rec_l, res_l = reconstruct_with(left, f)
        rec_r, res_r = reconstruct_with(right, f)
        assert res_l < 1e-12 and res_r < 1e-12
        assert np.allclose(rec_l.coeffs, rec_r.coeffs, atol=1e-12)


def test_reproducing_pair_duals_small_redundant_pair():
    # xi = {e_1, e_1, e_2}, eta = {e_1, 0, e_2} in dim 2: T = I
    xi = ExplicitColumns(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    eta = ExplicitColumns(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    fa = zero_closed_check(xi, eta, 2, 3)
    assert np.allclose(fa.associated_operator, np.eye(2))
    left, _ = reproducing_pair_duals(
        fa, build_bundle(xi, 2, 3), build_bundle(eta, 2, 3)
    )
    f = CoeffVector([2.0, -1.5])
    recon, residual = reconstruct_with(left, f)
    assert residual < 1e-12
    assert np.allclose(recon.coeffs, f.coeffs)


def test_reproducing_pair_requires_zero_closed():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    bad = ExplicitColumns(X)
    fa = zero_closed_check(bad, ONB, 2, 2)
    with pytest.raises(NotZeroClosed):
        reproducing_pair_duals(
            fa, build_bundle(bad, 2, 2), build_bundle(ONB, 2, 2)
        )


def test_dimension_mismatch_on_reconstruct():
    ds = canonical_dual(build_bundle(ONB, 4, 4))
    with pytest.raises(DimensionMismatch):
        reconstruct_with(ds, CoeffVector([1.0, 2.0]))


def test_probe_block_matches_per_trial_draws():
    rng = np.random.default_rng(2024)
    per_trial = []
    for _ in range(7):
        re = rng.standard_normal(5)
        per_trial.append(re + 1j * rng.standard_normal(5))
    assert _probe_draws(7, 5, 2024).tobytes() == np.array(per_trial).tobytes()


@pytest.mark.parametrize("seed", [23, 2024])
def test_max_residual_is_the_largest_per_probe_residual(seed):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    xi, eta = ExplicitColumns(X), ExplicitColumns(X @ rng.standard_normal((9, 9)))
    b_xi, b_eta = build_bundle(xi, 6, 9), build_bundle(eta, 6, 9)
    systems = [
        canonical_dual(b_xi),
        *reproducing_pair_duals(zero_closed_check(xi, eta, 6, 9), b_xi, b_eta),
    ]
    # the reference: one probe at a time, drawn and normalized one by one
    draws = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(11):
        z = draws.standard_normal(6) + 1j * draws.standard_normal(6)
        f = CoeffVector(z / np.linalg.norm(z))
        for system in systems:
            recon, residual = reconstruct_with(system, f)
            block, residuals = reconstruct_with(system, f.coeffs[:, None])
            assert np.max(np.abs(block[:, 0] - recon.coeffs)) < 1e-15
            assert abs(residuals[0] - residual) < 1e-15
            worst = max(worst, residual)
    assert worst > 0
    assert abs(max_residual(systems, 11, seed) - worst) < 1e-15
