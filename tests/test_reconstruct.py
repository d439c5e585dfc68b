import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import seqforms.reconstruct as reconstruct
from seqforms import (
    DiagonalWeights,
    DualSystem,
    ExplicitColumns,
    ScalarRule,
    TriplePattern,
    build_bundle,
    bundle_from_columns,
    canonical_dual,
    classify_finite,
    max_residual,
    reconstruct_with,
    reproducing_pair_duals,
    zero_closed_check,
    zero_closed_from_bundles,
)
from seqforms.cli import main
from seqforms.errors import DimensionMismatch, NotLowerSemiFrame, NotZeroClosed
from seqforms.operators import dense, svdvals
from seqforms.reconstruct import _probe_draws

ONB = DiagonalWeights(ScalarRule("constant", 1.0))


def random_vec(dim, rng):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def test_onb_is_self_dual():
    bundle = build_bundle(ONB, 5, 5)
    ds = canonical_dual(bundle)
    assert np.allclose(ds.dual, dense(bundle.columns, 5, 5))
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
    assert np.allclose(left.dual, xi.materialize(8, 8))
    assert np.allclose(right.dual, eta.materialize(8, 8))
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
    assert np.allclose(dense(fa.associated_operator, 2, 3), np.eye(2))
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
    """The Bessel bound of each reproducing dual, 1/A of its partner for a
    square pair and read off its own columns otherwise, is sigma_max of its
    analysis matrix C_xi T^-1 or C_eta T^-H, squared."""
    b_xi, b_eta = map(bundle_from_columns, pair(np.random.default_rng(15)))
    fa = zero_closed_from_bundles(b_xi, b_eta)
    left, right = reproducing_pair_duals(fa, b_xi, b_eta)
    assert left.analysis is b_eta.C and right.analysis is b_xi.C
    T = fa.associated_operator
    T_inv = np.linalg.inv(T.toarray() if sp.issparse(T) else T)
    want_left = np.linalg.norm(b_xi.C @ T_inv, 2) ** 2
    want_right = np.linalg.norm(b_eta.C @ T_inv.conj().T, 2) ** 2
    assert left.bessel_bound_of_dual == pytest.approx(want_left, rel=1e-12)
    assert right.bessel_bound_of_dual == pytest.approx(want_right, rel=1e-12)
    if b_xi.dim == 256:
        assert sp.issparse(b_xi.columns)  # the blockwise path
        assert (want_left, want_right) == pytest.approx((256.0**2, 1.0), rel=1e-12)


def _triple_pair(dim):
    return [build_bundle(TriplePattern(kind), dim, 3 * dim) for kind in ("xi", "eta")]


def _random_pair(dim, count):
    rng = np.random.default_rng(dim * count)
    return [bundle_from_columns(rng.standard_normal((dim, count))
                                + 1j * rng.standard_normal((dim, count)))
            for _ in range(2)]


@pytest.mark.parametrize("pair", [
    *(pytest.param(lambda dim=dim: _triple_pair(dim), id=f"triple-{dim}")
      for dim in (8, 32, 128, 512)),
    pytest.param(lambda: _random_pair(5, 9), id="complex-5x9"),
    pytest.param(lambda: _random_pair(6, 20), id="complex-6x20"),
])
def test_count_above_dim_bounds_match_the_formed_dual_columns(pair):
    """Above count = dim a dual bound comes from the dim x dim product with
    the Cholesky factor, CSR for a split bundle (the triple pair, whose
    members have one nonzero coordinate each, at every dim); each is
    sigma_max of the formed dual columns, squared, to 1e-12 relative."""
    b_xi, b_eta = pair()
    assert sp.issparse(b_xi.columns) == (b_xi.count == 3 * b_xi.dim)
    assert b_xi.cholesky is not None and b_eta.cholesky is not None
    fa = zero_closed_from_bundles(b_xi, b_eta)
    for system in reproducing_pair_duals(fa, b_xi, b_eta):
        want = float(svdvals(system.solve(system.primal.columns))[0]) ** 2
        assert system.bessel_bound_of_dual == pytest.approx(want, rel=1e-12)


def test_triple_pair_dual_bounds_are_2n_plus_1_and_3():
    """At N = 10^4 the triple pair's bounds are read off its CSR factors:
    2N + 1 for the left dual and 3 for the right one."""
    N = 10**4
    b_xi, b_eta = _triple_pair(N)
    assert sp.issparse(b_xi.cholesky) and sp.issparse(b_eta.cholesky)
    left, right = reproducing_pair_duals(
        zero_closed_from_bundles(b_xi, b_eta), b_xi, b_eta)
    assert left.bessel_bound_of_dual == pytest.approx(2 * N + 1, rel=1e-14)
    assert right.bessel_bound_of_dual == pytest.approx(3, rel=1e-14)


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


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    return np.linalg.qr(_gaussian(rng, n, n))[0]


@st.composite
def square_pairs(draw):
    """Two dim x dim column matrices U diag(s) V^H with random unitary U, V
    and singular values s in [1/2, 2]."""
    dim = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [_unitary(rng, dim) @ np.diag(rng.uniform(0.5, 2.0, dim))
            @ _unitary(rng, dim) for _ in range(2)]


def _blocked_pair(rng):
    """{n e_n} at dim 256 against 128 diagonally dominant 2 x 2 blocks:
    both split, and so does T."""
    blocks = _gaussian(rng, 128, 2, 2) + 3 * np.eye(2)
    return [np.diag(np.arange(1.0, 257)).astype(complex),
            scipy.linalg.block_diag(*blocks)]


@settings(max_examples=60, deadline=None)
@given(square_pairs())
@example(_blocked_pair(np.random.default_rng(41)))
def test_square_pair_bounds_are_one_over_the_partners_lower_bound(pair):
    """For count = dim the left dual is X_eta^-H and the right X_xi^-H, so
    their bounds are 1/A_eta and 1/A_xi: equal to sigma_max^2 of the formed
    columns, and exchanged exactly when the two families are swapped."""
    b_xi, b_eta = map(bundle_from_columns, pair)
    fa = zero_closed_from_bundles(b_xi, b_eta)
    left, right = reproducing_pair_duals(fa, b_xi, b_eta)
    assert left.bessel_bound_of_dual == 1 / classify_finite(b_eta).lower_bound
    assert right.bessel_bound_of_dual == 1 / classify_finite(b_xi).lower_bound
    for system in (left, right):
        want = np.linalg.norm(system.dual, 2) ** 2
        assert system.bessel_bound_of_dual == pytest.approx(want, rel=1e-10)
    s_eta, s_xi = map(bundle_from_columns, pair[::-1])
    swapped = reproducing_pair_duals(zero_closed_from_bundles(s_eta, s_xi),
                                     s_eta, s_xi)
    assert [s.bessel_bound_of_dual for s in swapped] == [
        right.bessel_bound_of_dual, left.bessel_bound_of_dual]
    if b_xi.dim == 256:
        assert sp.issparse(b_xi.columns) and sp.issparse(b_eta.columns)
        assert sp.issparse(fa.associated_operator)


PAIRS = {
    "dense-square": lambda rng: [_gaussian(rng, 6, 6) for _ in range(2)],
    "dense-redundant": lambda rng: [
        X := _gaussian(rng, 5, 9), X @ _gaussian(rng, 9, 9)],
    "blocked-weights": lambda rng: [np.diag(np.arange(1.0, 257)),
                                    np.diag(1 / np.arange(1.0, 257))],
    "blocked-2x2": _blocked_pair,
    "triple": lambda rng: [TriplePattern(kind).materialize(8, 24)
                           for kind in ("xi", "eta")],
}


def _formed_duals(X_xi, X_eta):
    """kind -> (dual columns D, partner analysis C), by plain numpy."""
    C_xi, C_eta = X_xi.conj().T, X_eta.conj().T
    T_inv = np.linalg.inv(X_eta @ C_xi)
    return {
        "canonical_lower": (np.linalg.solve(X_xi @ C_xi, X_xi), C_xi),
        "reproducing_left": (T_inv.conj().T @ X_xi, C_eta),
        "reproducing_right": (T_inv @ X_eta, C_xi),
    }


@pytest.mark.parametrize("k", [None, 4], ids=["vector", "block"])
@pytest.mark.parametrize("pair", PAIRS)
def test_solves_on_the_probe_block_match_the_formed_duals(pair, k):
    rng = np.random.default_rng(17)
    X_xi, X_eta = (np.asarray(X, dtype=complex) for X in PAIRS[pair](rng))
    b_xi, b_eta = bundle_from_columns(X_xi), bundle_from_columns(X_eta)
    assert sp.issparse(b_xi.columns) == (pair.startswith("blocked") or pair == "triple")
    fa = zero_closed_from_bundles(b_xi, b_eta)
    systems = [canonical_dual(b_xi), *reproducing_pair_duals(fa, b_xi, b_eta)]
    formed = _formed_duals(X_xi, X_eta)
    F = _gaussian(rng, b_xi.dim) if k is None else _gaussian(rng, b_xi.dim, k)
    for system in systems:
        D, C = formed[system.kind]
        got, residual = reconstruct_with(system, F)
        want = D @ (C @ F)
        assert got.shape == F.shape and np.shape(residual) == F.shape[1:]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _explicit(tmp_path, name, X):
    path = tmp_path / name
    path.write_text(json.dumps({"rule": "explicit", "params": {"matrix": X.tolist()}}))
    return str(path)


def test_reconstruct_above_dim_64_never_forms_the_dual_columns(
    tmp_path, capsys, monkeypatch
):
    """The canonical Cholesky solve runs once, on the dim x trials block, and
    no DualSystem.dual is read when the body prints no columns."""
    def refuse(self):
        raise AssertionError("formed the dual columns")

    rhs = []

    def recorded(S, B):
        rhs.append(np.shape(B))
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), B)

    monkeypatch.setattr(DualSystem, "dual", property(refuse))
    monkeypatch.setattr(reconstruct, "cho_solve", recorded)
    rng = np.random.default_rng(19)
    xi = _explicit(tmp_path, "xi.json", rng.standard_normal((80, 80)))
    eta = _explicit(tmp_path, "eta.json", rng.standard_normal((80, 80)))
    size = ["--dim", "80", "--trials", "7"]
    for argv in (["--spec", xi], ["--left", xi, "--right", eta]):
        assert main(["reconstruct", *argv, *size]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert "dual_columns" not in report["systems"][0]
    assert rhs == [(80, 7)]
