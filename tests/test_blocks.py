"""Block-by-block factorization against the whole-matrix numpy and scipy
calls: property tests of operators.svdvals, inv and cho_solve on sparse
copies of block-diagonal matrices under random row and column
permutations, of the representation a bundle is born with, and the
{n e_n}/{e_n/n} form, pair reconstruction and canonical dual of {n e_n}
at dims 256 and 300 against the one-block path."""

import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import seqforms.cli as cli
import seqforms.operators as operators
from seqforms.classify import classify_finite, frame_spectrum
from seqforms.cli import main
from seqforms.forms import zero_closed_check
from seqforms.sequences import ExplicitColumns, SequenceSpec
from seqforms.operators import blocks_of, bundle_from_columns, cho_solve, inv, svdvals

# gaussian blocks are r x c; a square one is made diagonally dominant, so
# well conditioned. rank_one blocks are u v^T with entries +-1, +-2, exactly
# singular (an exact zero pivot) once r, c >= 2. A zero row is a 1 x 0
# block, a zero column a 0 x 1 block.
KINDS = ("gaussian", "rank_one", "zero_row", "zero_col")


def _block(rng, kind, r, c):
    if kind == "zero_row":
        return np.zeros((1, 0), dtype=complex)
    if kind == "zero_col":
        return np.zeros((0, 1), dtype=complex)
    if kind == "rank_one":
        u = rng.choice([-2.0, -1.0, 1.0, 2.0], r)
        v = rng.choice([-2.0, -1.0, 1.0, 2.0], c)
        return np.outer(u, v).astype(complex)
    G = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    return G + 2 * r * np.eye(r) if r == c else G


@st.composite
def block_matrices(draw, kinds=KINDS, square_blocks=False):
    """(P diag(B_1, ..., B_k) Q, the blocks) for random permutations P, Q;
    square_blocks draws every block square."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        r = draw(st.integers(1, 4))
        c = r if square_blocks else draw(st.integers(1, 4))
        blocks.append(_block(rng, kind, r, c))
    M = scipy.linalg.block_diag(*blocks).astype(complex)
    M = M[rng.permutation(M.shape[0])][:, rng.permutation(M.shape[1])]
    return M, blocks


def _holds_entries(blocks):
    return sum(b.size > 0 for b in blocks)


def _splitting():
    """Every matrix is looked at for blocks, however small."""
    return mock.patch.object(operators, "BANDED_MIN_SIZE", 0)


def _every_entry_stored(M):
    """A CSR copy of M that stores its zero entries too."""
    return sp.coo_array((M.ravel(), np.indices(M.shape).reshape(2, -1)),
                        M.shape).tocsr()


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_blockwise_singular_values_match_the_dense_svd(drawn):
    M, blocks = drawn
    # dense, CSR or CSC columns: one representation, one spectrum
    with _splitting():
        bundles = [bundle_from_columns(X)
                   for X in (M, sp.csr_array(M), sp.csc_matrix(M))]
    for bundle in bundles:
        assert sp.issparse(bundle.columns) == (_holds_entries(blocks) >= 2)
        assert np.array_equal(bundle.singular_values, bundles[0].singular_values)
    dense = np.linalg.svd(M, compute_uv=False)
    top = dense[0] if dense.size else 0.0
    # stored zeros are no entries: they neither join blocks nor fill them
    stored = _every_entry_stored(M)
    found, found_stored = blocks_of(sp.csr_array(M)), blocks_of(stored)
    assert found_stored.keys() == found.keys()
    for key, (rows, cols) in found_stored.items():
        assert np.array_equal(rows, found[key][0])
        assert np.array_equal(cols, found[key][1])
    for sparse in (sp.csr_array(M), stored):
        s = svdvals(sparse)
        assert s.shape == dense.shape
        assert np.all(np.abs(s - dense) <= 1e-13 * top)


def _components_reference(P):
    """{(r, c): (rows, cols)} of the boolean pattern P as blocks_of has
    them, from scipy's connected_components of the bipartite graph of rows
    and columns: blocks ordered by their smallest vertex (rows first), and
    shapes ascending."""
    from scipy.sparse.csgraph import connected_components
    m, n = P.shape
    A = np.zeros((m + n, m + n))  # rows are vertices 0..m-1, columns m..m+n-1
    A[:m, m:] = P
    k, labels = connected_components(A, directed=False)
    vertices = sorted((np.flatnonzero(labels == label) for label in range(k)),
                      key=lambda v: v[0])
    found = {}
    for v in vertices:
        rows, cols = v[v < m], v[v >= m] - m
        found.setdefault((rows.size, cols.size), []).append((rows, cols))
    return {(r, c): tuple(np.array(side, dtype=int).reshape(len(side), k)
                          for side, k in zip(zip(*found[r, c]), (r, c)))
            for r, c in sorted(found)}


@st.composite
def one_per_row_and_column(draw):
    """(M, stored): a random m x n matrix, real or complex, with one nonzero
    entry per row and per column at most, so zero rows and zero columns, and
    a COO copy of it that also stores exact zeros, in rows and columns that
    hold an entry too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(0, min(m, n)))
    rows, cols = rng.permutation(m)[:k], rng.permutation(n)[:k]
    vals = rng.standard_normal(k) * 2.0 ** rng.integers(-3, 4, k)
    if draw(st.booleans()):
        vals = vals * np.exp(2j * np.pi * rng.random(k))
    M = np.zeros((m, n), dtype=vals.dtype)
    M[rows, cols] = vals
    zeros = np.flatnonzero(M.ravel() == 0)
    zeros = rng.choice(zeros, draw(st.integers(0, zeros.size)), replace=False)
    i, j = np.divmod(np.concatenate([rows * n + cols, zeros]), n)
    stored = sp.coo_array((np.concatenate([vals, np.zeros(zeros.size)]), (i, j)), M.shape)
    return M, stored


@settings(max_examples=300, deadline=None)
@given(one_per_row_and_column())
def test_one_entry_per_row_and_column_reads_the_blocks_off_the_pattern(drawn):
    """Each entry is a 1 x 1 block, each zero row a 1 x 0 block and each
    zero column a 0 x 1 block: blocks_of finds them, shape by shape and in
    the union-find's order, in CSR, CSC or COO with stored zeros, and never
    runs the union-find."""
    M, stored = drawn
    want = _components_reference(M != 0)
    unused = mock.patch.object(operators, "_components",
                               side_effect=AssertionError("ran the union-find"))
    with unused:
        found = [blocks_of(X) for X in (sp.csr_array(M), sp.csc_array(M), stored)]
    for got in found:
        assert list(got) == list(want)
        for shape, (rows, cols) in want.items():
            assert got[shape][0].shape == rows.shape and got[shape][1].shape == cols.shape
            assert np.array_equal(got[shape][0], rows)
            assert np.array_equal(got[shape][1], cols)


def _fixed(*blocks):
    """Blocks laid out with a fixed row and column permutation."""
    M = scipy.linalg.block_diag(*blocks).astype(complex)
    rng = np.random.default_rng(0)
    return M[rng.permutation(M.shape[0])][:, rng.permutation(M.shape[1])], blocks


@settings(max_examples=300, deadline=None)
@given(block_matrices())
# a zero row and a zero column beside square nonsingular blocks
@example(_fixed(_block(np.random.default_rng(1), "gaussian", 2, 2),
                _block(None, "zero_row", 1, 0), _block(None, "zero_col", 0, 1)))
def test_blockwise_inverse_matches_and_fails_where_the_dense_one_does(drawn):
    M, blocks = drawn
    assume(M.shape[0] == M.shape[1])
    singular = any(
        b.shape[0] != b.shape[1] or np.linalg.matrix_rank(b) < b.shape[0]
        for b in blocks
    )
    try:
        dense = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        dense = None
    assert (dense is None) == singular
    if singular:
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            inv(sp.csr_array(M))
        return
    # the inverse of a sparse matrix is assembled sparse, never held dense
    blockwise = inv(sp.csr_array(M))
    assert sp.issparse(blockwise)
    blockwise = blockwise.toarray()
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(blockwise - dense)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(block_matrices(kinds=("gaussian",), square_blocks=True), st.booleans())
def test_blockwise_cholesky_solve_matches_the_dense_one(drawn, zero_index):
    A, _ = drawn
    # P diag(B_k) Q times its adjoint is P diag(B_k B_k^H) P^T: Hermitian
    # positive definite, with the blocks on its diagonal
    S = A @ A.conj().T
    rng = np.random.default_rng(S.shape[0])
    B = rng.standard_normal((S.shape[0], 3)) * np.exp(2j * rng.random((S.shape[0], 3)))
    if zero_index:
        # a zero row and column: S is singular, and both calls refuse it
        S[0, :] = S[:, 0] = 0
        with pytest.raises(np.linalg.LinAlgError):
            cho_solve(sp.csr_array(S), B)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(S)
        return
    dense = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), B)
    X = cho_solve(sp.csr_array(S), B)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(X - dense)) <= 1e-12 * scale


def test_blockwise_cholesky_refuses_blocks_off_the_diagonal():
    """A Hermitian S whose 1 x 1 blocks sit off the diagonal, as S[0, 2]
    does, is not positive definite: both calls refuse it, though each such
    block alone has a Cholesky factor."""
    S = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(S)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cho_solve(sp.csr_array(S), np.eye(3))


W_N = {"rule": "diagonal", "params": {"weight": {"kind": "n"}}}
W_INV = {"rule": "diagonal", "params": {"weight": {"kind": "1/n"}}}


def _report(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["report"]


def _close(a, b):
    """Equal verdicts, counts and strings; floats to rounding."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and not isinstance(b, bool):
        return b == pytest.approx(a, rel=1e-12, abs=1e-14)
    return type(a) is type(b) and a == b


def _numpy_report(command, dim):
    """The body fields of {n e_n}/{e_n/n} at dim that a dense numpy SVD
    decides, with no seqforms code: both families are bases, T = I."""
    n = np.arange(1.0, dim + 1)
    X_xi, X_eta = np.diag(n), np.diag(1 / n)
    A_xi, A_eta = (np.linalg.svd(X, compute_uv=False)[-1] ** 2 for X in (X_xi, X_eta))
    s_T = np.linalg.svd(X_eta @ X_xi.T, compute_uv=False)
    if command == "form-assess":
        return {"null_dim_left": 0, "null_dim_right": 0, "c1": 1.0, "c2": 1.0,
                "max_principal_angle": 0.0, "direct_sum": "holds",
                "zero_closed": True, "assoc_invertible": True,
                "assoc_inverse_norm": 1 / s_T[-1], "lower_xi": True,
                "lower_eta": True, "lower_bound_xi": A_xi, "lower_bound_eta": A_eta,
                "dim": dim, "count": dim, "finite_truncation": True}
    bounds = [1 / A_eta, 1 / A_xi] if command == "reconstruct" else [1 / A_xi]
    kinds = (["reproducing_left", "reproducing_right"] if command == "reconstruct"
             else ["canonical_lower"])
    return {"systems": [{"kind": kind, "bessel_bound_of_dual": bound, "dim": dim,
                         "count": dim} for kind, bound in zip(kinds, bounds)],
            "trials": 50, "dim": dim, "count": dim}


@pytest.mark.parametrize("command", ["form-assess", "reconstruct", "canonical"])
@pytest.mark.parametrize("dim", [256, 300])
def test_weight_inverse_pair_reports_match_the_one_block_path(
    tmp_path, capsys, monkeypatch, command, dim
):
    """Every member of {n e_n} and {e_n/n} has one nonzero coordinate, so
    each bundle splits into 1 x 1 blocks at every size and no call reaches
    LAPACK; the bodies match the one-block answer, numpy's SVDs of the dense
    matrices, to rounding."""
    left, right = tmp_path / "n.json", tmp_path / "inv.json"
    left.write_text(json.dumps(W_N))
    right.write_text(json.dumps(W_INV))
    if command == "canonical":  # the canonical dual of {n e_n} alone
        argv = ["reconstruct", "--spec", str(left), "--dim", str(dim)]
    else:
        argv = [command, "--left", str(left), "--right", str(right), "--dim", str(dim)]
    shapes = []
    for name in ("svd", "inv", "qr", "cholesky", "solve"):
        fn = getattr(np.linalg, name)

        def spy(M, *args, _fn=fn, **kwargs):
            shapes.append(np.shape(M))
            return _fn(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    blockwise = _report(capsys, argv)
    assert shapes == []
    assert blockwise.pop("max_residual", 0.0) < 1e-12
    monkeypatch.undo()
    assert _close(_numpy_report(command, dim), blockwise)


@pytest.mark.parametrize("command, dim", [
    ("reconstruct", 256),
    ("canonical", 384),
    ("form-assess", 256),
])
def test_no_split_rule_is_materialized_dense(
    tmp_path, capsys, monkeypatch, command, dim
):
    """At and above 256^2 entries a bundle is born from the rule's sparse
    entries: a family that splits never has a dense dim x count array."""
    left, right = tmp_path / "n.json", tmp_path / "inv.json"
    left.write_text(json.dumps(W_N))
    right.write_text(json.dumps(W_INV))
    if command == "canonical":
        argv = ["reconstruct", "--spec", str(left), "--dim", str(dim)]
    else:
        argv = [command, "--left", str(left), "--right", str(right), "--dim", str(dim)]

    def refuse(self, dim, count):
        raise AssertionError(f"materialized a dense {dim} x {count} matrix")

    monkeypatch.setattr(SequenceSpec, "materialize", refuse)
    _report(capsys, argv)


def test_a_split_pair_keeps_C_S_and_T_sparse(tmp_path, capsys, monkeypatch):
    """After a pair reconstruct of {n e_n}/{e_n/n}, the associated matrix
    and both bundles' columns, C and frame matrices are sparse."""
    left, right = tmp_path / "n.json", tmp_path / "inv.json"
    left.write_text(json.dumps(W_N))
    right.write_text(json.dumps(W_INV))
    calls = []

    def spy(fa, *bundles, _duals=cli.reproducing_pair_duals):
        calls.append((fa, bundles))
        return _duals(fa, *bundles)

    monkeypatch.setattr(cli, "reproducing_pair_duals", spy)
    _report(capsys, ["reconstruct", "--left", str(left), "--right", str(right),
                     "--dim", "256"])
    [(fa, bundles)] = calls
    assert sp.issparse(fa.associated_operator)
    for b in bundles:
        assert sp.issparse(b.columns) and sp.issparse(b.C) and sp.issparse(b.S)


EPS = np.finfo(float).eps


def _numpy_rank(s, tol=1e-10):
    return int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0


@st.composite
def one_per_column(draw, size=None):
    """A dim x count matrix whose columns hold one nonzero entry each at
    most: zero members and zero rows, real or complex entries of modulus
    2^-3 to 2^3, count below, at or above dim, and dim x count on either side
    of BANDED_MIN_SIZE = 256^2 (or the given size)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if size is None:
        near = draw(st.booleans())
        size = (draw(st.integers(240, 272) if near else st.integers(1, 12)),
                draw(st.integers(240, 272) if near else st.integers(1, 30)))
    dim, count = size
    used = rng.choice(dim, int(rng.integers(1, dim + 1)), replace=False)
    rows = used[rng.integers(0, used.size, count)]
    live = rng.random(count) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    vals = 2.0 ** rng.uniform(-3, 3, count) * rng.choice([-1.0, 1.0], count)
    if draw(st.booleans()):
        vals = vals * np.exp(2j * np.pi * rng.random(count))
    X = np.zeros((dim, count), dtype=vals.dtype)
    X[rows[live], np.flatnonzero(live)] = vals[live]
    return X


@settings(max_examples=150, deadline=None)
@given(one_per_column())
def test_one_per_column_families_match_the_dense_svd(X):
    """Such a family's singular values are the norms of its rows: within 4
    ulps of sigma_max of math.hypot's, row by row. sigma, B, A, the rank and
    the Riesz-Fischer bound of its bundle and of frame_spectrum match
    numpy's SVD of the dense matrix within 32 ulps of sigma_max (and B), as
    that SVD itself errs by up to 17 at these sizes."""
    dim, count = X.shape
    s = np.linalg.svd(X, compute_uv=False)
    r = _numpy_rank(s)
    rows_held = np.count_nonzero(np.any(X != 0, axis=1))
    bundle = bundle_from_columns(X)
    assert sp.issparse(bundle.columns) == (rows_held >= 2)
    top = s[0] if s[0] > 0 else 1.0
    norms = sorted((math.hypot(*np.abs(row)) for row in X), reverse=True)
    assert np.max(np.abs(bundle.singular_values - norms[: s.size])) <= 4 * EPS * top
    assert np.max(np.abs(bundle.singular_values - s)) <= 32 * EPS * top
    spec = ExplicitColumns(X)
    for got in (classify_finite(bundle), frame_spectrum(spec, dim, count)):
        assert got.rank == r
        assert got.backend == ("blockwise" if rows_held >= 2 else "dense")
        want = (s[0] ** 2, s[dim - 1] ** 2 if count >= dim else 0.0,
                s[r - 1] ** 2 if r else 0.0)
        for value, ref in zip((got.bessel_bound, got.lower_bound,
                               got.riesz_fischer_bound), want):
            assert abs(value - ref) <= 64 * EPS * top**2


def _numpy_zero_closed(X_xi, X_eta, tol=1e-10):
    """Route (b) and route (a') by numpy SVDs of the dense matrices: both
    families lower semi-frames and R(C_xi) + R(C_eta)^perp direct, with the
    half tangent of its smallest angle; and the rank of T = C_eta^H C_xi."""
    dim, count = X_xi.shape
    bases, lower = [], []
    for X in (X_xi, X_eta):
        U, s, _ = np.linalg.svd(X.conj().T, full_matrices=False)
        bases.append(U[:, :_numpy_rank(s)])
        lower.append(count >= dim and s[dim - 1] > tol * s[0] > 0)
    (Q_xi, Q_eta), half_tan = bases, 1.0
    if 0 < Q_xi.shape[1] < count and Q_eta.shape[1]:
        c = np.linalg.svd(Q_eta.conj().T @ Q_xi, compute_uv=False)[-1]
        half_tan = c / (1 + np.sqrt(max(0.0, 1 - c * c)))
    holds = Q_xi.shape[1] == Q_eta.shape[1] and half_tan > tol
    rank_T = _numpy_rank(np.linalg.svd(X_eta @ X_xi.conj().T, compute_uv=False))
    return all(lower) and holds, rank_T, half_tan


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 10), st.integers(1, 24)).flatmap(
    lambda size: st.tuples(one_per_column(size), one_per_column(size))))
def test_one_per_column_pairs_match_a_dense_reference(pair):
    """zero_closed_check of two such families, whose bundles split at every
    size: both routes' verdicts match numpy's on the dense matrices."""
    X_xi, X_eta = pair
    dim, count = X_xi.shape
    zero_closed, rank_T, half_tan = _numpy_zero_closed(X_xi, X_eta)
    assume(abs(half_tan / 1e-10 - 1) > 1e-3)
    fa = zero_closed_check(ExplicitColumns(X_xi), ExplicitColumns(X_eta), dim, count)
    assert fa.zero_closed == zero_closed
    assert (fa.null_dim_left, fa.assoc_invertible) == (dim - rank_T, rank_T == dim)


@settings(max_examples=100, deadline=None)
@given(one_per_column())
def test_one_per_column_bundles_read_their_norms_off_the_entries(X):
    """Such a bundle, from dense or sparse columns, holds their entries and
    takes its singular values from them with no sparse matrix: bit for bit
    the row norms of its CSC columns, summed in their stored order."""
    bundle = bundle_from_columns(X)
    assume(isinstance(bundle.held, operators._Entries))
    assert "columns" not in vars(bundle)  # no CSC made yet
    s = bundle.singular_values
    Y = bundle.columns
    assert Y.format == "csc" and (Y != sp.csc_array(X)).nnz == 0
    norms = np.sqrt(np.bincount(Y.indices, np.abs(Y.data) ** 2, X.shape[0]))
    assert np.array_equal(s, np.sort(norms)[::-1][: min(X.shape)])
    from_sparse = bundle_from_columns(sp.csc_matrix(X))
    assert isinstance(from_sparse.held, operators._Entries)
    assert np.array_equal(from_sparse.singular_values, s)


def test_a_bundle_of_sparse_columns_with_unknown_blocks_finds_them():
    """OperatorBundle(X) of a sparse X says nothing of X's blocks, so its
    singular values come from the blocks of C found then: those of [[1, 1],
    [0, 1]] are the golden ratio and its inverse, not its row norms."""
    X = sp.csr_array(np.array([[1.0, 1.0], [0.0, 1.0]]))
    bundle = operators.OperatorBundle(X)
    phi = (1 + 5**0.5) / 2
    np.testing.assert_allclose(bundle.singular_values, [phi, 1 / phi], rtol=1e-15)
    assert classify_finite(bundle).backend == "blockwise"
