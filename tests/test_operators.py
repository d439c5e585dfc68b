import numpy as np
import pytest
import scipy.linalg

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    OperatorImage,
    ScalarRule,
    build_bundle,
    bundle_from_columns,
    classify_finite,
    complement_basis,
    direct_sum_check,
    principal_angles,
    range_basis,
    zero_closed_check,
)
from seqforms.errors import DimensionMismatch


def random_columns(dim, count, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))


def test_bundle_conventions():
    X = random_columns(4, 6, 0)
    b = bundle_from_columns(X)
    assert b.dim == 4 and b.count == 6
    assert np.allclose(b.C, X.conj().T)
    assert np.allclose(b.D, b.C.conj().T)
    assert np.allclose(b.S, X @ X.conj().T)
    assert np.allclose(b.G, X.conj().T @ X)
    # (C f)_n = <f, xi_n>
    f = random_columns(4, 1, 1).ravel()
    coeffs = b.C @ f
    for n in range(6):
        assert coeffs[n] == pytest.approx(np.vdot(X[:, n], f))


def test_gram_and_frame_share_nonzero_spectrum():
    X = random_columns(3, 5, 2)
    b = bundle_from_columns(X)
    eig_S = np.sort(np.linalg.eigvalsh(b.S))
    eig_G = np.sort(np.linalg.eigvalsh(b.G))[-3:]
    assert np.allclose(eig_S, eig_G, atol=1e-10)


def test_build_bundle_from_rule():
    b = build_bundle(DiagonalWeights(ScalarRule("n")), 4, 4)
    assert np.allclose(b.S, np.diag([1.0, 4.0, 9.0, 16.0]))
    assert b.rank() == 4


def test_range_and_complement_bases():
    X = np.zeros((5, 3), dtype=complex)
    X[0, 0] = 1.0
    X[1, 1] = 2.0
    X[1, 2] = -1.0  # third column dependent
    R = range_basis(X)
    N = complement_basis(X)
    assert R.shape == (5, 2) and N.shape == (5, 3)
    assert np.allclose(R.conj().T @ N, 0, atol=1e-12)
    stacked = np.hstack([R, N])
    assert np.allclose(stacked.conj().T @ stacked, np.eye(5), atol=1e-12)


def test_principal_angles_known_plane():
    theta = 0.3
    U = range_basis(np.array([[1.0], [0.0]]))
    W = range_basis(np.array([[np.cos(theta)], [np.sin(theta)]]))
    angles = principal_angles(U, W)
    assert angles[0] == pytest.approx(theta, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        principal_angles(U, range_basis(np.eye(3)))


def test_principal_angles_full_range_pair_is_exactly_zero():
    # two random bases of the whole space: every angle is 0, not rounding noise
    U = range_basis(random_columns(24, 24, 6))
    W = range_basis(random_columns(24, 24, 7))
    assert np.all(principal_angles(U, W) == 0.0)


@pytest.mark.parametrize("theta", [1e-9, 0.3, 1.2])
def test_principal_angles_small_plane_angle(theta):
    # planes in C^3 sharing e_1, with dihedral angle theta
    U = range_basis(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    W = range_basis(
        np.array([[1.0, 0.0], [0.0, np.cos(theta)], [0.0, np.sin(theta)]])
    )
    angles = principal_angles(U, W)
    assert abs(angles[0]) < 1e-15
    assert abs(angles[1] - theta) <= 1e-15 * max(1.0, theta)
    reference = np.sort(scipy.linalg.subspace_angles(U, W))
    assert np.allclose(angles, reference, atol=1e-14)


def test_direct_sum_check_cases():
    e = np.eye(3)
    span01 = range_basis(e[:, :2])
    span2 = range_basis(e[:, 2:])
    span12 = range_basis(e[:, 1:])
    assert direct_sum_check(span01, span2) == "holds"
    assert direct_sum_check(span01, span12) == "fails_intersection"
    assert direct_sum_check(span2, span2) == "fails_span"


def test_operator_image_identities():
    V = random_columns(6, 6, 4)
    b = build_bundle(OperatorImage(V), 6, 6)
    assert np.max(np.abs(b.C - V.conj().T)) < 1e-12
    assert np.max(np.abs(b.S - V @ V.conj().T)) < 1e-12


def _count_svds(monkeypatch):
    """Record (function, compute_uv, shape) for every SVD taken through numpy
    or scipy, and ("numpy.qr", True, shape) for every numpy QR."""
    calls = []

    def counted(name, fn, uv_default):
        def wrapper(*args, **kwargs):
            uv = bool(kwargs.get("compute_uv", uv_default))
            calls.append((name, uv, np.shape(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("numpy.svd", np.linalg.svd, True))
    monkeypatch.setattr(scipy.linalg, "svd", counted("scipy.svd", scipy.linalg.svd, True))
    monkeypatch.setattr(
        scipy.linalg, "svdvals", counted("scipy.svdvals", scipy.linalg.svdvals, False)
    )
    monkeypatch.setattr(np.linalg, "qr", counted("numpy.qr", np.linalg.qr, True))
    return calls


def test_one_factorization_per_operator(monkeypatch):
    calls = _count_svds(monkeypatch)
    xi = ExplicitColumns(random_columns(6, 9, 10))
    eta = ExplicitColumns(random_columns(6, 9, 11))
    zero_closed_check(xi, eta, 6, 9)
    # values-only SVDs of both bundles and of the associated matrix, one SVD
    # of the inf-sup cosines, and a QR per bundle for its range basis (both
    # have full column rank); the direct sum is read off the cosines, so no
    # 9 x 9 SVD of the stacked bases is taken
    qrs = [c for c in calls if c[0] == "numpy.qr"]
    assert len(calls) - len(qrs) == 4
    assert qrs == [("numpy.qr", True, (9, 6))] * 2
    assert all(shape != (9, 9) for _, _, shape in calls)
    calls.clear()
    classify_finite(build_bundle(xi, 6, 9))
    assert calls == [("numpy.svd", False, (9, 6))]


def test_square_full_rank_pair_takes_values_only_svds(monkeypatch):
    calls = _count_svds(monkeypatch)
    xi = ExplicitColumns(random_columns(7, 7, 15))
    eta = ExplicitColumns(random_columns(7, 7, 16))
    fa = zero_closed_check(xi, eta, 7, 7)
    # both ranges are all of l2: no basis, no QR and no cosine SVD
    assert calls == [("numpy.svd", False, (7, 7))] * 3
    assert fa.c1 == fa.c2 == 1.0 and fa.max_principal_angle == 0.0


def test_rank_deficient_bundle_keeps_the_thin_svd(monkeypatch):
    calls = _count_svds(monkeypatch)
    b = bundle_from_columns(random_columns(6, 2, 17) @ random_columns(2, 9, 18))
    R = b.range_basis()
    assert R.shape == (9, 2)
    assert calls == [("numpy.svd", False, (9, 6)), ("numpy.svd", True, (9, 6))]


@pytest.mark.parametrize("dim,count,rank", [(5, 8, 3), (8, 5, 3), (6, 6, 4), (4, 7, 0)])
def test_bundle_bases_match_standalone_bases(dim, count, rank):
    X = random_columns(dim, rank, 12) @ random_columns(rank, count, 13)
    b = bundle_from_columns(X)
    R, N = b.range_basis(), complement_basis(b.C)

    def projector(basis):
        return basis @ basis.conj().T

    assert R.shape[1] == rank and N.shape[1] == count - rank
    assert np.max(np.abs(projector(R) - projector(range_basis(b.C)))) < 1e-12
    # the bundle's range and the standalone complement split the whole space
    assert np.max(np.abs(projector(R) + projector(N) - np.eye(count))) < 1e-12
