import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    FiniteDifference,
    Interleave,
    PairedDouble,
    ScalarRule,
    Scaled,
    TriplePattern,
    materialize,
    spec_from_json,
)
from seqforms.cli import main
from seqforms.errors import SupportOverflow
from seqforms.sequences import (
    SequenceSpec,
    _as_complex,
    _matrix_from_json,
    _uniform_matrix,
)


def term(spec, n, dim):
    """xi_n as a dim vector, scattered from the rule's checked entries."""
    rows, _, vals = spec._coo(np.array([n]), dim)
    out = np.zeros(dim, dtype=complex)
    out[rows] = vals
    return out


def test_scalar_rules():
    assert ScalarRule("constant", 2.5)(7) == 2.5
    assert ScalarRule("n")(4) == 4
    assert ScalarRule("1/n")(4) == 0.25
    table = ScalarRule("table", values=(1.0, [0.0, 1.0]))
    assert table(2) == 1j
    with pytest.raises(SupportOverflow):
        table(3)
    with pytest.raises(ValueError):
        ScalarRule("log n")
    for bad in (float("nan"), complex(1.0, float("inf"))):
        with pytest.raises(ValueError):
            ScalarRule("constant", bad)
        with pytest.raises(ValueError):
            ScalarRule("table", values=(1.0, bad))


def test_diagonal_weights_terms():
    spec = DiagonalWeights(ScalarRule("n"))
    t = term(spec, 3, 5)
    assert np.allclose(t, [0, 0, 3, 0, 0])
    with pytest.raises(SupportOverflow):
        term(spec, 6, 5)


def test_finite_difference_terms():
    spec = FiniteDifference()
    assert np.allclose(term(spec, 1, 4), [1, 0, 0, 0])
    assert np.allclose(term(spec, 3, 4), [0, -3, 3, 0])
    X = materialize(spec, 4, 4)
    assert X.shape == (4, 4)
    assert np.allclose(X[:, 1], [-2, 2, 0, 0])


def test_interleave_alternates():
    spec = Interleave(DiagonalWeights(ScalarRule("constant", 1.0)), FiniteDifference())
    assert spec.arity == 2
    assert np.allclose(term(spec, 1, 4), [1, 0, 0, 0])  # e_1
    assert np.allclose(term(spec, 4, 4), [-2, 2, 0, 0])  # xi_2
    assert np.allclose(term(spec, 5, 4), [0, 0, 1, 0])  # e_3


def test_triple_pattern():
    xi = TriplePattern("xi")
    eta = TriplePattern("eta")
    # group 2 of xi is (e_2, e_1, -e_1); of eta is (e_2, e_2, e_2)
    assert np.allclose(term(xi, 4, 3), [0, 1, 0])
    assert np.allclose(term(xi, 5, 3), [1, 0, 0])
    assert np.allclose(term(xi, 6, 3), [-1, 0, 0])
    for n in (4, 5, 6):
        assert np.allclose(term(eta, n, 3), [0, 1, 0])
    with pytest.raises(ValueError):
        TriplePattern("zeta")


def test_paired_double():
    xi = PairedDouble("xi")
    eta = PairedDouble("eta")
    assert np.allclose(term(xi, 3, 3), [0, 1, 0])  # e_2
    assert np.allclose(term(xi, 4, 3), [0, 2, 0])  # 2 e_2
    assert np.allclose(term(eta, 4, 3), [0, 0, 0])  # zero member
    assert np.allclose(term(eta, 3, 3), [0, 1, 0])


def test_operator_image_and_explicit_columns():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    image = spec_from_json({"rule": "operator_image",
                            "params": {"matrix": np.stack([V.real, V.imag], -1).tolist()}})
    assert type(image) is ExplicitColumns
    assert np.allclose(materialize(image, 4, 4), V)
    assert np.allclose(materialize(ExplicitColumns(V), 4, 4), V)
    with pytest.raises(SupportOverflow):
        materialize(ExplicitColumns(V), 4, 5)


def test_scaled_spec():
    spec = Scaled(FiniteDifference(), ScalarRule("1/n"))
    # (1/3) * 3 (e_3 - e_2)
    assert np.allclose(term(spec, 3, 4), [0, -1, 1, 0])
    assert spec.arity == 1


def test_materialize_sparse_matches_dense():
    for spec in (FiniteDifference(), TriplePattern("xi"), PairedDouble("eta")):
        dense = materialize(spec, 10, 10 * spec.arity)
        sparse = spec.materialize_sparse(10, 10 * spec.arity)
        assert np.allclose(sparse.toarray(), dense)


def test_spec_from_json_rejects_unknown_rule():
    with pytest.raises(ValueError):
        spec_from_json({"rule": "mystery", "params": {}})


@pytest.mark.parametrize(
    "rows",
    [
        [[[1.5, -0.0], [0.0, 2.0]], [[-3.0, 0.25], [1e-300, -1e300]]],  # pairs
        [[1.5, -0.0, 3], [0.0, -2.5, 1e-300]],  # real entries
        [[1.0, [0.0, 2.0]], [3, [-0.0, -1.0]]],  # mixed scalars and pairs
        [[]],
    ],
)
def test_matrix_from_json_matches_per_entry_conversion(rows):
    per_entry = np.array([[_as_complex(v) for v in row] for row in rows], dtype=complex)
    M = _matrix_from_json(rows)
    assert M.dtype == per_entry.dtype and M.shape == per_entry.shape
    assert M.tobytes() == per_entry.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 48)])
@pytest.mark.parametrize("pairs", [True, False])
def test_flat_read_matches_per_entry_conversion(shape, pairs):
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    if pairs:
        M = M + 1j * rng.standard_normal(shape)
        M[0, 0] = complex(-0.0, -0.0)
        rows = json.loads(json.dumps(np.stack([M.real, M.imag], axis=-1).tolist()))
    else:
        M[0, 0] = -0.0
        rows = json.loads(json.dumps(M.tolist()))
    flat = _uniform_matrix(rows)
    per_entry = np.array([[_as_complex(v) for v in row] for row in rows], dtype=complex)
    assert flat is not None and flat.shape == shape
    assert flat.tobytes() == per_entry.tobytes() == M.astype(complex).tobytes()
    assert _matrix_from_json(rows).tobytes() == per_entry.tobytes()


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 2.0], [3.0]],  # ragged real rows
        [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]],  # ragged pair rows
        [[[1.0, 0.0, 5.0], [2.0, 0.0]]],  # a pair of three
        [[[1.0], [2.0]]],  # pairs of one
        [[[1.0, 0.0], [2.0]]],  # a short pair after a whole one
        [["one", 2.0]],  # not a number
        [[[1.0, "i"], [2.0, 0.0]]],  # not a number inside a pair
        [[[[1.0, 0.0], [0.0, 1.0]]]],  # a matrix where a pair should be
    ],
)
def test_malformed_matrix_is_rejected(rows, tmp_path, capsys):
    assert _uniform_matrix(rows) is None
    with pytest.raises((TypeError, ValueError)):
        spec_from_json({"rule": "explicit", "params": {"matrix": rows}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rule": "operator_image", "params": {"matrix": rows}}))
    assert main(["classify", "--spec", str(path), "--dim", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load sequence rule")


@pytest.mark.parametrize("rule", ["explicit", "operator_image"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), [0.0, float("-inf")]])
def test_spec_from_json_rejects_non_finite_matrix(rule, bad):
    with pytest.raises(ValueError):
        spec_from_json({"rule": rule, "params": {"matrix": [[1.0, bad], [0.0, 1.0]]}})


def _outcome(build):
    try:
        return build()
    except SupportOverflow as exc:
        return f"SupportOverflow: {exc}"


signed_parts = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(st.tuples(signed_parts, signed_parts),
                           min_size=r * c, max_size=r * c).map(
            lambda parts: np.array([complex(*p) for p in parts]).reshape(r, c)))),
    st.integers(1, 8),
    st.integers(0, 8),
)
def test_matrix_rules_slice_like_the_coo_path(M, dim, count):
    """Slicing the stored matrix gives the COO scatter's dense and sparse
    matrices bit for bit (-0 parts turned +0) and its SupportOverflow
    messages, for truncations that cut, pad or overrun the matrix."""
    spec = ExplicitColumns(M)
    sliced = _outcome(lambda: spec.materialize(dim, count))
    scattered = _outcome(lambda: SequenceSpec.materialize(spec, dim, count))
    if isinstance(scattered, str):
        assert sliced == scattered
        assert _outcome(lambda: spec.materialize_sparse(dim, count)) == scattered
        return
    assert sliced.dtype == scattered.dtype and sliced.shape == scattered.shape
    assert sliced.tobytes() == scattered.tobytes()
    sparse = spec.materialize_sparse(dim, count)
    reference = SequenceSpec.materialize_sparse(spec, dim, count)
    assert sparse.shape == reference.shape
    assert np.array_equal(sparse.indptr, reference.indptr)
    assert np.array_equal(sparse.indices, reference.indices)
    assert sparse.data.tobytes() == reference.data.tobytes()
