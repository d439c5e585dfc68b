import numpy as np
import pytest
import scipy.sparse as sp

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    OperatorBundle,
    PairedDouble,
    ScalarRule,
    TriplePattern,
    build_bundle,
    bundle_from_columns,
    infsup_constants,
    lambda_region_weighted,
    principal_angles,
    range_basis,
    solvability_shift,
    zero_closed_check,
    zero_closed_from_bundles,
)
from seqforms.errors import DenseTooLarge
from seqforms.operators import (
    DENSE_MAX_SIZE,
    cosines_and_angles,
    dense,
    factor_cosines,
)

ONB = DiagonalWeights(ScalarRule("constant", 1.0))


def test_infsup_equal_ranges_give_c1_one():
    b = build_bundle(ONB, 6, 6)
    isc = infsup_constants(b, b)
    assert isc.c1 == pytest.approx(1.0, abs=1e-12)
    assert isc.c2 == pytest.approx(1.0, abs=1e-12)


def test_infsup_known_plane_angle():
    theta = 0.4
    # analysis ranges spanned by rotated coordinate lines inside l2 of dim 2
    X1 = np.array([[1.0], [0.0]])  # dim 1, count 2: C rows live in C^2
    X2 = np.array([[np.cos(theta)], [np.sin(theta)]])
    b1 = build_bundle(ExplicitColumns(X1.T), 1, 2)
    b2 = build_bundle(ExplicitColumns(X2.T), 1, 2)
    isc = infsup_constants(b1, b2)
    assert isc.c1 == pytest.approx(np.cos(theta), abs=1e-12)
    assert isc.max_angle == pytest.approx(theta, abs=1e-12)


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
    assert abs(isc.max_angle - principal_angles(Qxi, Qeta)[-1]) < 1e-14


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
    assert abs(isc.max_angle - theta) <= 1e-15 * theta
    assert isc.c1 == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [8, 32, 128, 512])
def test_cholesky_cosines_match_range_bases_on_the_triple_pair(dim):
    """The triple pair takes the Cholesky path at every dim (its cosines lie
    in [0.018, 0.578]); each of its members has one nonzero coordinate, so its
    bundles are sparse at every dim.
    The cosines, the largest angle, c1 and c2 match those of thin-SVD range
    bases of the dense C to 1e-13."""
    b_xi, b_eta = (build_bundle(TriplePattern(kind), dim, 3 * dim)
                   for kind in ("xi", "eta"))
    assert sp.issparse(b_xi.columns) and sp.issparse(b_eta.columns)
    cos, angles = cosines_and_angles(
        *(range_basis(dense(b.C, dim, 3 * dim)) for b in (b_xi, b_eta)))
    got = factor_cosines(b_xi, b_eta)
    assert got is not None
    assert np.max(np.abs(got - cos)) < 1e-13
    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.c1 - cos[-1]) < 1e-13 and abs(isc.c2 - cos[-1]) < 1e-13
    assert isc.max_angle == np.arccos(got[-1])
    assert abs(isc.max_angle - angles[-1]) < 1e-13


def test_split_pair_above_the_cap_in_count_x_dim_takes_the_factors():
    """X_xi = [I ... I] (17 copies of I_1000) and X_eta the same copies
    weighted +1, -1, ..., +1 split into 1 x 17 blocks. Their count x dim
    range bases would need 1.7e7 entries, above the dense cap, but the
    factors of S need only dim^2 = 1e6: every cosine is 1/17."""
    dim, k = 1000, 17
    X_xi = sp.hstack([sp.eye_array(dim)] * k, format="csr")
    X_eta = X_xi @ sp.diags_array(np.repeat((-1.0) ** np.arange(k), dim))
    b_xi, b_eta = bundle_from_columns(X_xi), bundle_from_columns(X_eta)
    with pytest.raises(DenseTooLarge):
        b_xi.range_basis()
    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.c1 - 1 / k) < 1e-13 and abs(isc.c2 - 1 / k) < 1e-13
    assert abs(isc.max_angle - np.arccos(1 / k)) < 1e-13


@pytest.mark.parametrize("spec,arity,c1", [
    (TriplePattern, 3, lambda N: 1 / np.sqrt(3 * (2 * N + 1))),
    (PairedDouble, 2, lambda N: 1 / np.sqrt(1 + N**2)),
], ids=["triple", "paired"])
def test_paper_pairs_at_ten_thousand_read_c1_off_the_blockwise_factors(
    monkeypatch, spec, arity, c1
):
    """At N = 10^4 the triple and paired pairs split and their frame matrices
    are diagonal: route (b) takes no range basis, and c1 = c2 is the closed
    form to 1e-15 relative, with the largest angle its arccos."""
    def refuse(self, tol=None):
        raise AssertionError("took a range basis")

    monkeypatch.setattr(OperatorBundle, "range_basis", refuse)
    N = 10**4
    fa = zero_closed_check(spec("xi"), spec("eta"), N, arity * N)
    assert fa.zero_closed and fa.assoc_invertible
    assert abs(fa.c1 - c1(N)) <= 1e-15 * c1(N) and fa.c2 == fa.c1
    assert fa.max_principal_angle == np.arccos(fa.c1)


def test_split_pair_with_a_connected_cosine_matrix_above_the_cap_is_refused():
    """Row i of X_xi holds ones at columns 2i and 2i + 1, row i of X_eta at
    2i + 1 and 2i + 2: both frame matrices are diagonal, but X_eta X_xi^H
    is bidiagonal, so the matrix whose singular values are route (b)'s
    cosines is one dim x dim block. At dim 4097 that block is above the
    dense cap, and it is refused before it is allocated."""
    dim = 4097
    rows = np.repeat(np.arange(dim), 2)
    cols = 2 * rows + np.tile([0, 1], dim)
    b_xi, b_eta = (bundle_from_columns(sp.csr_array(
        (np.ones(2 * dim), (rows, cols + shift)), shape=(dim, 2 * dim + 1)))
        for shift in (0, 1))
    assert b_xi.factor_error < 1 and b_eta.factor_error < 1
    with pytest.raises(DenseTooLarge) as err:
        zero_closed_from_bundles(b_xi, b_eta)
    assert err.value.details == {"dim": dim, "count": dim, "cap": DENSE_MAX_SIZE}


def test_zero_closed_weight_inverse_pair():
    fa = zero_closed_check(
        DiagonalWeights(ScalarRule("n")), DiagonalWeights(ScalarRule("1/n")), 8, 8
    )
    assert fa.zero_closed and fa.assoc_invertible
    assert fa.direct_sum == "holds"
    assert np.allclose(dense(fa.associated_operator, 8, 8), np.eye(8))
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


def weighted_pair_associated(alpha, V):
    """The associated matrix of the pair {V e_n}, {alpha_n (V^-1)^H e_n}."""
    b_xi = bundle_from_columns(V)
    b_eta = bundle_from_columns(np.linalg.inv(V).conj().T * alpha)
    return zero_closed_from_bundles(b_xi, b_eta).associated_operator


@pytest.mark.parametrize("unitary", [True, False])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_weighted_pair_associated_matches_the_similarity(unitary, seed):
    """H = V^-H diag(alpha) V^H, against numpy's solve, with eigenvalues alpha."""
    rng = np.random.default_rng(seed)
    alpha = np.arange(1.0, 7.0) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    V = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    if unitary:
        V = np.linalg.qr(V)[0]
    Vh = V.conj().T
    reference = np.linalg.solve(Vh, np.diag(alpha) @ Vh)
    H = weighted_pair_associated(alpha, V)
    assert np.linalg.norm(H - reference) <= 1e-12 * np.linalg.norm(reference)
    eigs = np.linalg.eigvals(H)
    assert np.allclose(eigs[np.argsort(np.abs(eigs))], alpha, atol=1e-8)


def test_weighted_pair_associated_at_the_identity_is_diag_alpha():
    alpha = np.array([1.0, 2.0 - 1j, 3.0])
    H = dense(weighted_pair_associated(alpha, np.eye(3)), 3, 3)
    assert np.array_equal(H, np.diag(alpha))


def test_lambda_region_matches_resolvent():
    alpha = np.arange(1, 9, dtype=float)
    verdicts = lambda_region_weighted(alpha, np.diag(alpha), [0.0, 3.0, 3.5, 100.0])
    closed = [v.lambda_closed for v in verdicts]
    assert closed == [True, False, True, True]
    for v in verdicts:
        assert v.lambda_closed == v.resolvent_invertible


def test_lambda_region_accumulation_point():
    alpha = 1.0 / np.arange(1, 20)
    # 0 is an accumulation point of {1/n}; it must be declared explicitly
    free = lambda_region_weighted(alpha, np.diag(alpha), [0.0])[0]
    assert free.lambda_closed  # finite window alone cannot see the closure
    pinned = lambda_region_weighted(alpha, np.diag(alpha), [0.0],
                                    accumulation_points=[0.0])[0]
    assert not pinned.lambda_closed


def test_solvability_shift_pushes_weights_out():
    alpha = np.array([0.5, -0.2 + 0.1j, 1.0, 3.0])
    res = solvability_shift(alpha)
    assert res.min_shifted_modulus >= 1.0 - 1e-12
    assert res.shifted_zero_closed
    # weights already outside the unit disc are untouched
    assert res.sigma[3] == 0
