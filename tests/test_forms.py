import numpy as np
import pytest

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    ScalarRule,
    build_bundle,
    infsup_constants,
    lambda_region_weighted,
    principal_angles,
    range_basis,
    solvability_shift,
    weighted_riesz_associated,
    zero_closed_check,
)

ONB = DiagonalWeights(ScalarRule("constant", 1.0))


def test_infsup_equal_ranges_give_c1_one():
    b = build_bundle(ONB, 6, 6)
    isc = infsup_constants(b, b)
    assert isc.c1 == pytest.approx(1.0, abs=1e-12)
    assert isc.c2 == pytest.approx(1.0, abs=1e-12)
    assert not isc.degenerate_xi


def test_infsup_known_plane_angle():
    theta = 0.4
    # analysis ranges spanned by rotated coordinate lines inside l2 of dim 2
    X1 = np.array([[1.0], [0.0]])  # dim 1, count 2: C rows live in C^2
    X2 = np.array([[np.cos(theta)], [np.sin(theta)]])
    b1 = build_bundle(ExplicitColumns(X1.T), 1, 2)
    b2 = build_bundle(ExplicitColumns(X2.T), 1, 2)
    isc = infsup_constants(b1, b2)
    assert isc.c1 == pytest.approx(np.cos(theta), abs=1e-12)
    assert isc.angles[-1] == pytest.approx(theta, abs=1e-12)


@pytest.mark.parametrize("rank_xi,rank_eta", [(4, 4), (3, 4), (4, 2)])
def test_infsup_one_svd_matches_three_svd_formula(rank_xi, rank_eta):
    rng = np.random.default_rng(10 * rank_xi + rank_eta)

    def columns(rank):
        A = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        B = rng.standard_normal((rank, 10)) + 1j * rng.standard_normal((rank, 10))
        return A @ B

    b_xi = build_bundle(ExplicitColumns(columns(rank_xi)), 4, 10)
    b_eta = build_bundle(ExplicitColumns(columns(rank_eta)), 4, 10)
    Qxi, Qeta = range_basis(b_xi.C), range_basis(b_eta.C)

    def min_projection(src, dst):
        if src.shape[1] > dst.shape[1]:
            return 0.0
        return np.linalg.svd(dst.conj().T @ src, compute_uv=False)[-1]

    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.c1 - min_projection(Qxi, Qeta)) < 1e-14
    assert abs(isc.c2 - min_projection(Qeta, Qxi)) < 1e-14
    assert np.max(np.abs(isc.angles - principal_angles(Qxi, Qeta))) < 1e-14
    assert isc.degenerate_xi == (rank_xi < 4)
    assert isc.degenerate_eta == (rank_eta < 4)


def test_full_range_pair_has_no_principal_angle():
    # both analysis ranges are all of C^12: the largest angle is exactly 0
    rng = np.random.default_rng(14)
    V, Z = (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            for _ in range(2))
    fa = zero_closed_check(ExplicitColumns(V), ExplicitColumns(Z), 12, 12)
    assert fa.max_principal_angle == 0.0


def test_infsup_small_angle_from_sines():
    # R(C_xi) = span(e_1), R(C_eta) = span(cos t e_1 + sin t e_2) in C^2
    theta = 1e-9
    b_xi = build_bundle(ExplicitColumns(np.array([[1.0, 0.0]])), 1, 2)
    b_eta = build_bundle(
        ExplicitColumns(np.array([[np.cos(theta), np.sin(theta)]])), 1, 2
    )
    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.angles[-1] - theta) <= 1e-15 * theta
    assert isc.c1 == pytest.approx(1.0)


def test_zero_closed_weight_inverse_pair():
    fa = zero_closed_check(
        DiagonalWeights(ScalarRule("n")), DiagonalWeights(ScalarRule("1/n")), 8, 8
    )
    assert fa.zero_closed and fa.assoc_invertible
    assert fa.direct_sum == "holds"
    assert np.allclose(fa.associated_operator, np.eye(8))
    assert fa.null_dim_left == 0


def test_zero_closed_fails_for_rank_deficient_pair():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    fa = zero_closed_check(ExplicitColumns(X), ONB, 2, 2)
    assert not fa.zero_closed and not fa.assoc_invertible
    assert not fa.lower_xi
    assert fa.null_dim_left == 1


def test_zero_closed_routes_agree_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(1, 7))
        X = rng.standard_normal((dim, count))
        Y = rng.standard_normal((dim, count))
        if rng.random() < 0.3:  # adversarial: force rank deficiency
            X[:, -1] = X[:, 0] if count > 1 else 0.0
        fa = zero_closed_check(ExplicitColumns(X), ExplicitColumns(Y), dim, count)
        assert fa.zero_closed == fa.assoc_invertible


def test_weighted_riesz_associated_similarity():
    alpha = np.array([1.0, 2.0, 3.0])
    assert np.allclose(weighted_riesz_associated(alpha), np.diag(alpha))
    rng = np.random.default_rng(3)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = weighted_riesz_associated(alpha, V)
    eigs = np.sort(np.linalg.eigvals(H).real)
    assert np.allclose(eigs, alpha, atol=1e-8)


def test_lambda_region_matches_resolvent():
    alpha = np.arange(1, 9, dtype=float)
    verdicts = lambda_region_weighted(alpha, [0.0, 3.0, 3.5, 100.0])
    closed = [v.lambda_closed for v in verdicts]
    assert closed == [True, False, True, True]
    for v in verdicts:
        assert v.lambda_closed == v.resolvent_invertible


def test_lambda_region_accumulation_point():
    alpha = 1.0 / np.arange(1, 20)
    # 0 is an accumulation point of {1/n}; it must be declared explicitly
    free = lambda_region_weighted(alpha, [0.0])[0]
    assert free.lambda_closed  # finite window alone cannot see the closure
    pinned = lambda_region_weighted(alpha, [0.0], accumulation_points=[0.0])[0]
    assert not pinned.lambda_closed


def test_solvability_shift_pushes_weights_out():
    alpha = np.array([0.5, -0.2 + 0.1j, 1.0, 3.0])
    res = solvability_shift(alpha)
    assert res.min_shifted_modulus >= 1.0 - 1e-12
    assert res.shifted_zero_closed
    # weights already outside the unit disc are untouched
    assert res.sigma[3] == 0
