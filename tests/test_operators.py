import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import seqforms.operators as operators
from seqforms import (
    DEFAULT_TOL,
    DiagonalWeights,
    ExplicitColumns,
    FiniteDifference,
    Interleave,
    PairedDouble,
    ScalarRule,
    Tolerances,
    TriplePattern,
    build_bundle,
    bundle_from_columns,
    classify_finite,
    complement_basis,
    direct_sum_check,
    frame_spectrum,
    lambda_region_weighted,
    principal_angles,
    range_basis,
    solvability_shift,
    zero_closed_check,
    zero_closed_from_bundles,
)
from seqforms.cli import main
from seqforms.errors import DimensionMismatch
from seqforms.operators import GUARD_FACTOR, rank


def random_columns(dim, count, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))


def test_bundle_conventions():
    X = random_columns(4, 6, 0)
    b = bundle_from_columns(X)
    assert b.dim == 4 and b.count == 6
    assert np.allclose(b.C, X.conj().T)
    assert np.allclose(b.S, X @ X.conj().T)
    # (C f)_n = <f, xi_n>
    f = random_columns(4, 1, 1).ravel()
    coeffs = b.C @ f
    for n in range(6):
        assert coeffs[n] == pytest.approx(np.vdot(X[:, n], f))


def test_build_bundle_from_rule():
    b = build_bundle(DiagonalWeights(ScalarRule("n")), 4, 4)
    assert np.allclose(b.S.toarray(), np.diag([1.0, 4.0, 9.0, 16.0]))
    assert rank(b.singular_values) == 4


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
    b = build_bundle(ExplicitColumns(V), 6, 6)
    assert np.max(np.abs(b.C - V.conj().T)) < 1e-12
    assert np.max(np.abs(b.S - V @ V.conj().T)) < 1e-12


def _count_svds(monkeypatch):
    """Record (function, compute_uv, shape, dtype) for every SVD taken through
    numpy or scipy, and ("numpy.qr", True, shape, dtype) for every numpy QR."""
    calls = []

    def counted(name, fn, uv_default):
        def wrapper(*args, **kwargs):
            uv = bool(kwargs.get("compute_uv", uv_default))
            calls.append((name, uv, np.shape(args[0]), np.asarray(args[0]).dtype))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("numpy.svd", np.linalg.svd, True))
    monkeypatch.setattr(scipy.linalg, "svd", counted("scipy.svd", scipy.linalg.svd, True))
    monkeypatch.setattr(
        scipy.linalg, "svdvals", counted("scipy.svdvals", scipy.linalg.svdvals, False)
    )
    monkeypatch.setattr(np.linalg, "qr", counted("numpy.qr", np.linalg.qr, True))
    return calls


def _count_lapack(monkeypatch):
    """_count_svds, and ("numpy.cholesky" or "numpy.inv", False, shape, dtype)
    for every Cholesky factor and inverse taken through numpy."""
    calls = _count_svds(monkeypatch)
    for name in ("cholesky", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, _n=name, _fn=fn: calls.append(
            (f"numpy.{_n}", False, a.shape, a.dtype)) or _fn(a))
    return calls


def test_one_factorization_per_operator(monkeypatch):
    calls = _count_svds(monkeypatch)
    xi = ExplicitColumns(random_columns(6, 9, 10))
    eta = ExplicitColumns(random_columns(6, 9, 11))
    zero_closed_check(xi, eta, 6, 9).to_dict()
    # values-only SVDs of both bundles and of the associated matrix, one SVD
    # of the inf-sup cosines, and a QR per bundle for its range basis (both
    # have full column rank); the direct sum is read off the cosines, so no
    # 9 x 9 SVD of the stacked bases is taken
    qrs = [c for c in calls if c[0] == "numpy.qr"]
    assert len(calls) - len(qrs) == 4
    assert qrs == [("numpy.qr", True, (9, 6), complex)] * 2
    assert all(shape != (9, 9) for _, _, shape, _ in calls)
    # complex columns keep every factorization complex
    assert {dtype for *_, dtype in calls} == {np.dtype(complex)}
    calls.clear()
    classify_finite(build_bundle(xi, 6, 9))
    assert calls == [("numpy.svd", False, (9, 6), complex)]


def test_real_pair_factorizes_in_real_arithmetic(monkeypatch):
    """The interleavings of the onb and the finite differences, each way
    round, have real entries and do not split, so every factorization of
    their zero_closed_check is a LAPACK call on float64: the values-only SVDs
    of both bundles, of the associated matrix and of the inf-sup cosines,
    and the Cholesky factors of both frame matrices, which replace the range
    bases' QRs, and their inverses."""
    calls = _count_lapack(monkeypatch)
    onb = DiagonalWeights(ScalarRule("constant", 1.0))
    fa = zero_closed_check(Interleave(onb, FiniteDifference()),
                           Interleave(FiniteDifference(), onb), 6, 12)
    assert fa.zero_closed and fa.assoc_invertible
    assert sorted(calls, key=str) == (
        [("numpy.cholesky", False, (6, 6), np.dtype(float))] * 2
        + [("numpy.inv", False, (6, 6), np.dtype(float))] * 2
        + [("numpy.svd", False, (12, 6), np.dtype(float))] * 2
        + [("numpy.svd", False, (6, 6), np.dtype(float))] * 2)
    assert {dtype for *_, dtype in calls} == {np.dtype(float)}


@pytest.mark.parametrize("dim", [6, 300])
def test_the_triple_pair_takes_no_lapack_call(monkeypatch, dim):
    """Each member of the triple pair has one nonzero coordinate, so its C
    splits into r x 1 blocks, S and L are diagonal and T = I at every dim:
    their singular values are norms, the factors square roots and the
    inverses reciprocals, with no SVD, QR, Cholesky or inverse taken."""
    calls = _count_lapack(monkeypatch)
    fa = zero_closed_check(TriplePattern("xi"), TriplePattern("eta"), dim, 3 * dim)
    assert fa.zero_closed and fa.c1 == pytest.approx(1 / np.sqrt(3 * (2 * dim + 1)))
    assert calls == []


def _count_union_finds(monkeypatch):
    """The graph size of each operators._components call, in order."""
    calls = []
    components = operators._components

    def counted(u, v, size):
        calls.append(size)
        return components(u, v, size)

    monkeypatch.setattr(operators, "_components", counted)
    return calls


# name: (arity, rules of xi and eta)
PAPER_PAIRS = {
    "triple": (3, [{"rule": "triple", "params": {"kind": k}} for k in ("xi", "eta")]),
    "paired": (2, [{"rule": "paired_double", "params": {"kind": k}}
                   for k in ("xi", "eta")]),
    "diagonal": (1, [{"rule": "diagonal", "params": {"weight": {"kind": k}}}
                     for k in ("n", "1/n")]),
}


def _pair_calls(tmp_path, rules, size):
    """The classify calls of both rules, their form-assess and their pair
    reconstruct, each exiting 0; the reports are dropped."""
    paths = []
    for name, rule in zip(("left", "right"), rules):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(rule))
    left, right = map(str, paths)
    for argv in (["classify", "--spec", left], ["classify", "--spec", right],
                 ["form-assess", "--left", left, "--right", right],
                 ["reconstruct", "--left", left, "--right", right]):
        assert main([*argv, *size]) == 0


@pytest.mark.parametrize("dim", [8, 300, 10**4])
@pytest.mark.parametrize("pair", PAPER_PAIRS)
def test_the_paper_pairs_take_no_union_find(tmp_path, capsys, monkeypatch, pair, dim):
    """Every member of the triple, paired and diagonal pairs has one nonzero
    coordinate, so a bundle's blocks are its rows, and S, L, T, the cosine
    matrix and T^-H L and T^-1 L hold one entry per row and column at most:
    blocks_of reads their blocks off the pattern. classify, form-assess and
    pair reconstruct at count = arity * dim (above dim for the triple and
    paired pairs) take no union-find."""
    calls = _count_union_finds(monkeypatch)
    arity, rules = PAPER_PAIRS[pair]
    _pair_calls(tmp_path, rules, ["--dim", str(dim), "--count", str(arity * dim)])
    capsys.readouterr()
    assert calls == []


def test_only_blocks_larger_than_one_entry_take_a_union_find(tmp_path, capsys,
                                                             monkeypatch):
    """The tiled pair X = [I_64 ... I_64] (16 copies) and X diag(1..1024) of
    tools/compare_reports.py has one entry per column, and diagonal S, L and
    T: no union-find. The 256 x 256 identity plus e_8 e_9^T, invertible, has
    two entries in column 9, so rows 8 and 9 are one 2 x 2 block: its
    bundle's blocks come from the union-find at birth, and so do those of T
    and S."""
    calls = _count_union_finds(monkeypatch)
    tiled = np.tile(np.eye(64), 16)
    rules = [{"rule": "explicit", "params": {"matrix": X.tolist()}}
             for X in (tiled, tiled * np.arange(1.0, 1025))]
    _pair_calls(tmp_path, rules, ["--dim", "64", "--count", "1024"])
    assert calls == []
    X = np.eye(256)
    X[8, 9] = 1
    _pair_calls(tmp_path, [{"rule": "explicit", "params": {"matrix": X.tolist()}}] * 2,
                ["--dim", "256"])
    capsys.readouterr()
    assert calls and set(calls) == {512}


@pytest.mark.parametrize("d_min,factored", [(1e-5, True), (1e-6, False)])
def test_cholesky_factor_stands_only_under_the_guard(d_min, factored):
    """X = D Q^H with orthonormal Q has kappa(C) = 1 / d_min: the guard
    GUARD_FACTOR dim eps kappa^2 is 0.09 at 1e-5, where L L^H = S with L
    lower triangular, and 8.9 at 1e-6, where there is no factor. A bundle
    with count < dim has none either."""
    Q = np.linalg.qr(random_columns(9, 4, 21))[0]
    X = np.diag([1.0, 0.5, 0.25, d_min]) @ Q.conj().T
    L = bundle_from_columns(X).cholesky
    assert (L is not None) == factored
    if factored:
        assert np.array_equal(L, np.tril(L))
        assert np.allclose(L @ L.conj().T, X @ X.conj().T, rtol=0, atol=1e-15)
    assert bundle_from_columns(X[:, :3]).cholesky is None


def _planted_pair(dim, count, angles, seed):
    """Columns of xi and eta whose analysis ranges are orthonormal bases U
    and V = U cos(angles) + W sin(angles), W orthonormal and orthogonal to U:
    complete pairs, kappa = 1, with the given principal angles."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((count, count)))[0]
    U, W = Q[:, :dim], Q[:, dim : 2 * dim]
    return U.T, (U * np.cos(angles) + W * np.sin(angles)).T


@pytest.mark.parametrize("pair,cos_min", [
    # c1 = 1e-11, below the factors' error bound 1e4 * 6 * eps * 2 = 2.7e-11
    (tuple(map(ExplicitColumns, _planted_pair(
        6, 12, [0.9, 1.0, 1.1, 1.2, 1.3, np.pi / 2 - 1e-11], 12))), 1e-11),
], ids=["planted-1e-11"])
def test_pairs_at_the_cholesky_gate_keep_their_two_qrs(monkeypatch, pair, cos_min):
    """The pair is complete with count = 2 dim, so both frame matrices have
    Cholesky factors; but its smallest cosine is within the factors' error
    bound of 0, so route (b) takes today's two QR range bases."""
    assert all(build_bundle(spec, 6, 12).cholesky is not None for spec in pair)
    calls = _count_svds(monkeypatch)
    fa = zero_closed_check(*pair, 6, 12)
    qrs = [c for c in calls if c[0] == "numpy.qr"]
    assert qrs == [("numpy.qr", True, (12, 6), np.dtype(float))] * 2
    assert fa.c1 == pytest.approx(cos_min, rel=1e-6)


def test_the_paired_pair_takes_the_factors_though_its_largest_cosine_is_1_over_sqrt_2(
    monkeypatch
):
    """The paired pair's cosines are 1/sqrt(1 + k^2), the largest exactly
    1/sqrt 2; the gate reads only the smallest, 1/sqrt 37 at dim 6, so route
    (b) takes no QR and its largest angle is the arccos of c1."""
    calls = _count_svds(monkeypatch)
    fa = zero_closed_check(PairedDouble("xi"), PairedDouble("eta"), 6, 12)
    assert not [c for c in calls if c[0] == "numpy.qr"]
    assert fa.c1 == pytest.approx(1 / np.sqrt(37), rel=1e-14)
    assert fa.max_principal_angle == np.arccos(fa.c1)


def _diagonal_columns(weights, count):
    """dim x count CSR columns: row i holds weights[i] at column i and 1 at
    column i + dim."""
    dim = len(weights)
    return sp.hstack([sp.diags_array(np.asarray(weights, dtype=float)),
                      sp.eye_array(dim, count - dim)], format="csr")


def test_factor_error_of_a_diagonal_frame_matrix_is_guard_eps_per_row_entry():
    """S = diag(w_i^2 + 1) splits into 1 x 1 blocks, each with kappa 1; the
    bound grows with the longest row of X, 2 entries here."""
    b = bundle_from_columns(_diagonal_columns(np.arange(1.0, 301), 600))
    assert sp.issparse(b.S)
    assert b.factor_error == GUARD_FACTOR * 2 * np.finfo(float).eps
    assert sp.issparse(b.cholesky)
    assert np.allclose(b.cholesky.toarray() ** 2, b.S.toarray(), rtol=1e-15, atol=0)


def test_factor_error_of_a_split_frame_matrix_with_a_2x2_block_is_the_whole_bound():
    """One 2 x 2 block in S: the whole-matrix bound GUARD_FACTOR dim eps
    kappa(C)^2, and the CSR factor holds that block's lower triangle."""
    X = _diagonal_columns(np.arange(1.0, 301), 600).tolil()
    X[0, 1] = 0.5
    b = bundle_from_columns(X.tocsr())
    assert sp.issparse(b.S)
    s = b.singular_values
    want = GUARD_FACTOR * 300 * np.finfo(float).eps * (s[0] / s[-1]) ** 2
    assert b.factor_error == pytest.approx(want, rel=1e-15)
    L = b.cholesky.toarray()
    assert np.array_equal(L, np.tril(L)) and L[1, 0] != 0
    assert np.allclose(L @ L.T, b.S.toarray(), rtol=0, atol=1e-10)


@pytest.mark.parametrize("X", [
    _diagonal_columns(np.arange(1.0, 301), 600)[:, :299],  # count < dim
    _diagonal_columns([1.0] * 299 + [0.0], 600)[:, :300],  # a zero row
], ids=["count-below-dim", "zero-row"])
def test_factor_error_is_inf_without_a_factor(X):
    b = bundle_from_columns(X)
    assert b.factor_error == np.inf and b.cholesky is None


def test_square_full_rank_pair_takes_values_only_svds(monkeypatch):
    calls = _count_svds(monkeypatch)
    xi = ExplicitColumns(random_columns(7, 7, 15))
    eta = ExplicitColumns(random_columns(7, 7, 16))
    fa = zero_closed_check(xi, eta, 7, 7)
    assert fa.assoc_invertible  # route (a') is taken on first read
    # both ranges are all of l2: no basis, no QR and no cosine SVD
    assert calls == [("numpy.svd", False, (7, 7), complex)] * 3
    assert fa.c1 == fa.c2 == 1.0 and fa.max_principal_angle == 0.0


def test_square_pair_reconstruct_takes_no_svd_of_dual_columns(
    tmp_path, capsys, monkeypatch
):
    """A square dense pair reconstruct takes the values-only SVDs of C_xi
    and C_eta, none of T, whose route (a') the duals do not read, and none
    of its duals: their bounds are 1/A_eta and 1/A_xi."""
    rng = np.random.default_rng(20)
    paths = []
    for name in ("xi.json", "eta.json"):
        path = tmp_path / name
        matrix = rng.standard_normal((80, 80)).tolist()
        path.write_text(json.dumps({"rule": "explicit", "params": {"matrix": matrix}}))
        paths.append(str(path))
    calls = _count_svds(monkeypatch)
    argv = ["reconstruct", "--left", paths[0], "--right", paths[1], "--dim", "80"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"]["max_residual"] < 1e-10
    # the real matrices are factorized in real arithmetic
    assert calls == [("numpy.svd", False, (80, 80), float)] * 2


def test_rank_deficient_bundle_keeps_the_thin_svd(monkeypatch):
    calls = _count_svds(monkeypatch)
    b = bundle_from_columns(random_columns(6, 2, 17) @ random_columns(2, 9, 18))
    R = b.range_basis()
    assert R.shape == (9, 2)
    assert calls == [("numpy.svd", False, (9, 6), complex),
                     ("numpy.svd", True, (9, 6), complex)]


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


@pytest.mark.parametrize("tol", [Tolerances(rank_tol=0.5), DEFAULT_TOL],
                         ids=["rank_tol=0.5", "default"])
@pytest.mark.parametrize("above", [False, True], ids=["at", "one-ulp-above"])
def test_a_singular_value_at_the_cutoff_counts_as_zero(tol, above):
    """diag(big, ..., big, small) at 256 x 256 with small at rank_tol * big,
    or one ulp above it: every verdict that reads the rank cutoff agrees.
    frame_spectrum reads the singular values off the 1 x 1 blocks as their
    moduli, exactly, and accepts one ulp above."""
    big = 4 / tol.rank_tol
    cut = tol.rank_tol * big
    small = float(np.nextafter(cut, np.inf)) if above else cut
    weights = [big] * 255 + [small]
    xi = DiagonalWeights(ScalarRule("table", values=tuple(weights)))
    r = 256 if above else 255
    b_xi = build_bundle(xi, 256, 256)
    assert rank(b_xi.singular_values, tol) == classify_finite(b_xi, tol).rank == r
    spectrum = frame_spectrum(xi, 256, 256, tol)
    assert spectrum.rank == r
    assert spectrum.backend == "blockwise"
    # route (a'): C_eta^H C_xi with eta the identity is diag(weights)
    b_eta = build_bundle(DiagonalWeights(ScalarRule("constant")), 256, 256)
    fa = zero_closed_from_bundles(b_xi, b_eta, tol)
    assert fa.assoc_invertible == above and fa.null_dim_left == 256 - r
    probe, = lambda_region_weighted(weights, fa.associated_operator, [0.0], tol)
    assert probe.resolvent_invertible == above
    # every weight has modulus above 1, so the shift leaves them as they are
    assert solvability_shift(weights, tol).shifted_zero_closed == above
