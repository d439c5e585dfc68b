"""Block-by-block factorization against the whole-matrix numpy and scipy
calls: property tests of operators.svdvals, inv and cho_solve on
block-diagonal matrices under random row and column permutations, of
matmul on every mix of dense and sparse operands, and the
{n e_n}/{e_n/n} form, pair reconstruction and canonical dual of {n e_n}
at dims 256 and 300 against the one-block path."""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import seqforms.operators as operators
from seqforms.cli import main
from seqforms.operators import blocks_of, cho_solve, inv, matmul, svdvals

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


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_blockwise_singular_values_match_the_dense_svd(drawn):
    M, blocks = drawn
    with _splitting():
        found = blocks_of(M)
    s = svdvals(M, found)
    split = found is not None
    assert split == (_holds_entries(blocks) >= 2)
    dense = np.linalg.svd(M, compute_uv=False)
    assert s.shape == dense.shape
    top = dense[0] if dense.size else 0.0
    assert np.all(np.abs(s - dense) <= 1e-13 * top)


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
    with _splitting():
        found = blocks_of(M)
    if singular:
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            inv(M, found)
        return
    blockwise = inv(M, found)
    # a split inverse is assembled sparse, never held as a dense array
    assert sp.issparse(blockwise) == (found is not None)
    if found is not None:
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
        with _splitting():
            blocks = blocks_of(S)
        with pytest.raises(np.linalg.LinAlgError):
            cho_solve(S, B, blocks)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(S)
        return
    dense = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), B)
    with _splitting():
        X = cho_solve(S, B, blocks_of(S))
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(X - dense)) <= 1e-12 * scale


def test_blockwise_cholesky_refuses_blocks_off_the_diagonal():
    """A Hermitian S whose 1 x 1 blocks sit off the diagonal, as S[0, 2]
    does, is not positive definite: both calls refuse it, though each such
    block alone has a Cholesky factor."""
    S = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(S)
    with _splitting():
        blocks = blocks_of(S)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cho_solve(S, np.eye(3), blocks)


OPERANDS = ("dense", "csr", "csr_adjoint")


def _operand(M, kind):
    """M as a product operand: itself, a CSR copy, or the conjugate
    transpose of a CSR copy of M^H (the form a bundle's C operand takes)."""
    if kind == "dense":
        return M
    if kind == "csr":
        return sp.csr_array(M)
    return sp.csr_array(M.conj().T).conj().T


@settings(max_examples=200, deadline=None)
@given(block_matrices(), st.sampled_from(["split", "dense_right", "dense_left"]),
       st.sampled_from(OPERANDS), st.sampled_from(OPERANDS))
def test_products_on_split_operands_match_the_dense_product(
    drawn, other, left_kind, right_kind
):
    A = drawn[0]
    rng = np.random.default_rng(A.size)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    left, right = {
        "split": (A.conj().T, A),
        "dense_right": (A, gaussian(A.shape[1], 5)),
        "dense_left": (gaussian(5, A.shape[0]), A),
    }[other]
    out = matmul(_operand(left, left_kind), _operand(right, right_kind))
    assert isinstance(out, np.ndarray)
    reference = left @ right
    assert out.shape == reference.shape
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    assert np.max(np.abs(out - reference), initial=0.0) <= 1e-13 * scale


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


@pytest.mark.parametrize("command", ["form-assess", "reconstruct", "canonical"])
@pytest.mark.parametrize("dim", [256, 300])
def test_weight_inverse_pair_reports_match_the_one_block_path(
    tmp_path, capsys, monkeypatch, command, dim
):
    left, right = tmp_path / "n.json", tmp_path / "inv.json"
    left.write_text(json.dumps(W_N))
    right.write_text(json.dumps(W_INV))
    if command == "canonical":  # the canonical dual of {n e_n} alone
        argv = ["reconstruct", "--spec", str(left), "--dim", str(dim)]
    else:
        argv = [command, "--left", str(left), "--right", str(right), "--dim", str(dim)]

    with mock.patch.object(operators, "BANDED_MIN_SIZE", 10**12):
        whole = _report(capsys, argv)
    shapes = []
    for name in ("svd", "inv", "qr", "cholesky", "solve"):
        fn = getattr(np.linalg, name)

        def spy(M, *args, _fn=fn, **kwargs):
            shapes.append(np.shape(M))
            return _fn(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    blockwise = _report(capsys, argv)
    assert _close(whole, blockwise)
    # the diagonal pair splits into 1 x 1 blocks: no dense factorization
    assert shapes and all(shape[-2:] == (1, 1) for shape in shapes)


@pytest.mark.parametrize("command, dim, conversions", [
    # one CSR copy of each bundle's columns; T^-1 is assembled sparse and
    # the probes' products reuse the copies
    ("reconstruct", 256, 2),
    ("canonical", 384, 1),
    ("form-assess", 256, 2),
])
def test_each_split_operand_is_converted_to_csr_once(
    tmp_path, capsys, monkeypatch, command, dim, conversions
):
    left, right = tmp_path / "n.json", tmp_path / "inv.json"
    left.write_text(json.dumps(W_N))
    right.write_text(json.dumps(W_INV))
    if command == "canonical":
        argv = ["reconstruct", "--spec", str(left), "--dim", str(dim)]
    else:
        argv = [command, "--left", str(left), "--right", str(right), "--dim", str(dim)]
    shapes = []

    def spy(M, _csr=operators._csr):
        shapes.append(M.shape)
        return _csr(M)

    monkeypatch.setattr(operators, "_csr", spy)
    _report(capsys, argv)
    assert shapes == [(dim, dim)] * conversions
