import numpy as np
import pytest

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    ScalarRule,
    build_bundle,
    bundle_from_columns,
    canonical_dual,
    max_residual,
    reconstruct_with,
    reproducing_pair_duals,
    zero_closed_check,
    zero_closed_from_bundles,
)
from seqforms.errors import DimensionMismatch, NotLowerSemiFrame, NotZeroClosed
from seqforms.reconstruct import _probe_draws

ONB = DiagonalWeights(ScalarRule("constant", 1.0))


def random_vec(dim, rng):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def test_onb_is_self_dual():
    bundle = build_bundle(ONB, 5, 5)
    ds = canonical_dual(bundle)
    assert np.allclose(ds.dual, bundle.columns)
    assert ds.analysis is bundle.C  # the bundle's cached C, not a copy
    assert ds.bessel_bound_of_dual == pytest.approx(1.0)


def test_weighted_canonical_dual_columns():
    ds = canonical_dual(build_bundle(DiagonalWeights(ScalarRule("n")), 4, 4))
    assert np.allclose(ds.dual, np.diag([1.0, 0.5, 1 / 3, 0.25]))
    assert ds.bessel_bound_of_dual == pytest.approx(1.0)


def test_redundant_frame_dual():
    X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ds = canonical_dual(build_bundle(ExplicitColumns(X), 2, 3))
    assert np.allclose(ds.dual, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    recon, residual = reconstruct_with(ds, np.array([3.0, 5.0]))
    assert residual < 1e-12
    assert np.allclose(recon, [3.0, 5.0])


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
        lhs = np.vdot(g, recon)
        assert lhs == pytest.approx(np.vdot(g, f), abs=1e-10)


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
        ratio = float(np.sum(np.abs(ds.dual.conj().T @ f) ** 2))
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
        assert np.allclose(rec_l, rec_r, atol=1e-12)


def test_reproducing_pair_duals_small_redundant_pair():
    # xi = {e_1, e_1, e_2}, eta = {e_1, 0, e_2} in dim 2: T = I
    xi = ExplicitColumns(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    eta = ExplicitColumns(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    fa = zero_closed_check(xi, eta, 2, 3)
    assert np.allclose(fa.associated_operator, np.eye(2))
    left, _ = reproducing_pair_duals(
        fa, build_bundle(xi, 2, 3), build_bundle(eta, 2, 3)
    )
    f = np.array([2.0, -1.5])
    recon, residual = reconstruct_with(left, f)
    assert residual < 1e-12
    assert np.allclose(recon, f)


@pytest.mark.parametrize("pair", [
    lambda rng: [rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
                 for _ in range(2)],
    lambda rng: [rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
                 for _ in range(2)],
    # {n e_n} / {e_n / n}: T = I, the blocks split, the bounds are 256^2 and 1
    lambda rng: [np.diag(np.arange(1.0, 257)), np.diag(1 / np.arange(1.0, 257))],
], ids=["square", "redundant", "weights-256"])
def test_reproducing_dual_bounds_match_the_analysis_products(pair):
    """The Bessel bound of each reproducing dual, read off its own columns,
    is sigma_max of its analysis matrix C_xi T^-1 or C_eta T^-H, squared."""
    b_xi, b_eta = map(bundle_from_columns, pair(np.random.default_rng(15)))
    fa = zero_closed_from_bundles(b_xi, b_eta)
    left, right = reproducing_pair_duals(fa, b_xi, b_eta)
    assert left.analysis is b_eta.C and right.analysis is b_xi.C
    T_inv = np.linalg.inv(fa.associated_operator)
    want_left = np.linalg.norm(b_xi.C @ T_inv, 2) ** 2
    want_right = np.linalg.norm(b_eta.C @ T_inv.conj().T, 2) ** 2
    assert left.bessel_bound_of_dual == pytest.approx(want_left, rel=1e-12)
    assert right.bessel_bound_of_dual == pytest.approx(want_right, rel=1e-12)
    if b_xi.dim == 256:
        assert b_xi.blocks is not None  # the blockwise path
        assert (want_left, want_right) == pytest.approx((256.0**2, 1.0), rel=1e-12)


@pytest.mark.parametrize("X", [
    np.diag(np.arange(1.0, 257)),
    np.random.default_rng(16).standard_normal((5, 9)),
], ids=["weights-256", "redundant"])
def test_canonical_dual_bound_is_sigma_max_of_the_dual_squared(X):
    ds = canonical_dual(bundle_from_columns(X))
    want = np.linalg.norm(ds.dual, 2) ** 2
    assert ds.bessel_bound_of_dual == pytest.approx(want, rel=1e-12)


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
        reconstruct_with(ds, np.array([1.0, 2.0]))


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
        f = z / np.linalg.norm(z)
        for system in systems:
            recon, residual = reconstruct_with(system, f)
            block, residuals = reconstruct_with(system, f[:, None])
            assert np.max(np.abs(block[:, 0] - recon)) < 1e-15
            assert abs(residuals[0] - residual) < 1e-15
            worst = max(worst, residual)
    assert worst > 0
    assert abs(max_residual(systems, 11, seed) - worst) < 1e-15
