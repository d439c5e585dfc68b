"""Property tests of the batch term path over random rule trees drawn from
the JSON vocabulary of spec_from_json."""

import numpy as np
from hypothesis import given, settings, strategies as st

from seqforms import materialize, spec_from_json, term
from seqforms.errors import SupportOverflow

small = st.integers(-3, 3).map(float)
scalar_value = st.one_of(small, st.tuples(small, small).map(list))
scalar_rules = st.one_of(
    st.sampled_from([{"kind": "n"}, {"kind": "1/n"}]),
    scalar_value.map(lambda v: {"kind": "constant", "value": v}),
    st.lists(scalar_value, min_size=1, max_size=8).map(
        lambda vs: {"kind": "table", "values": vs}
    ),
)
matrices = st.integers(1, 6).flatmap(
    lambda rows: st.lists(
        st.lists(scalar_value, min_size=rows, max_size=rows), min_size=1, max_size=10
    ).map(lambda cols: [list(r) for r in zip(*cols)])
)
leaves = st.one_of(
    st.just({"rule": "finite_difference"}),
    scalar_rules.map(lambda w: {"rule": "diagonal", "params": {"weight": w}}),
    st.sampled_from(["triple", "paired_double"]).flatmap(
        lambda tag: st.sampled_from(["xi", "eta"]).map(
            lambda kind: {"rule": tag, "params": {"kind": kind}}
        )
    ),
    st.tuples(st.sampled_from(["explicit", "operator_image"]), matrices).map(
        lambda t: {"rule": t[0], "params": {"matrix": t[1]}}
    ),
)


def rule_trees(depth):
    """Rule trees of at most depth + 1 levels."""
    if depth == 0:
        return leaves
    inner = rule_trees(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(inner, inner).map(
            lambda t: {"rule": "interleave", "params": {"first": t[0], "second": t[1]}}
        ),
        st.tuples(inner, scalar_rules).map(
            lambda t: {"rule": "scaled", "params": {"base": t[0], "factor": t[1]}}
        ),
    )


sizes = st.tuples(st.integers(1, 10), st.integers(1, 24))


def outcome(build):
    """The matrix build() returns, or "overflow" when it raises SupportOverflow."""
    try:
        return build()
    except SupportOverflow:
        return "overflow"


def same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(rule_trees(2), sizes)
def test_json_round_trip_materializes_identically(rule, size):
    spec = spec_from_json(rule)
    back = spec_from_json(spec.to_json())
    assert back.to_json() == spec.to_json()
    assert same(outcome(lambda: materialize(back, *size)),
                outcome(lambda: materialize(spec, *size)))


@settings(max_examples=150, deadline=None)
@given(rule_trees(2), sizes)
def test_dense_and_sparse_agree_bit_for_bit(rule, size):
    spec = spec_from_json(rule)
    dense = outcome(lambda: spec.materialize(*size))
    sparse = outcome(lambda: spec.materialize_sparse(*size).toarray())
    assert same(dense, sparse)


@settings(max_examples=150, deadline=None)
@given(rule_trees(2), sizes)
def test_columns_are_single_terms(rule, size):
    spec = spec_from_json(rule)
    dim, count = size
    X = outcome(lambda: spec.materialize(dim, count))
    if isinstance(X, str):
        return
    for n in range(1, count + 1):
        assert term(spec, n, dim).coeffs.tobytes() == X[:, n - 1].tobytes()
