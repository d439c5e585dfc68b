"""Property tests of the batch term path and of the frame bounds over
random rule trees drawn from the JSON vocabulary of spec_from_json, of the
direct-sum verdict against the singular values of the stacked bases, of the
bundle's range bases against thin-SVD ones, and of the exact column sums
against math.fsum."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import seqforms.core as core
import seqforms.operators as operators
from seqforms import (
    DEFAULT_TOL,
    bundle_from_columns,
    complement_basis,
    direct_sum_check,
    frame_spectrum,
    materialize,
    range_basis,
    spec_from_json,
    term,
)
from seqforms.errors import SupportOverflow
from seqforms.forms import infsup_constants, zero_closed_from_bundles
from seqforms.operators import cosines_and_angles, lower_frame_data

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


def rule_trees(depth, leaves=leaves):
    """Rule trees of at most depth + 1 levels."""
    if depth == 0:
        return leaves
    inner = rule_trees(depth - 1, leaves)
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

# leaves without tables or explicit matrices fit any truncation, and their
# interleavings with finite differences give a frame matrix of bandwidth 1
structured_leaves = st.one_of(
    st.just({"rule": "finite_difference"}),
    st.sampled_from([{"kind": "n"}, {"kind": "1/n"}, {"kind": "constant", "value": 2.0}])
    .map(lambda w: {"rule": "diagonal", "params": {"weight": w}}),
    leaves,
)


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


@pytest.mark.parametrize("crossover", [0, operators.BANDED_MIN_SIZE])
@settings(max_examples=300, deadline=None)
@given(
    rule_trees(2, structured_leaves),
    st.integers(1, 10),
    st.one_of(st.none(), st.integers(1, 24)),
    st.integers(0, 2**32 - 1),
)
def test_frame_bounds_bracket_the_analysis_energy(crossover, rule, dim, count, seed):
    """A ||f||^2 <= ||C f||^2 <= B ||f||^2 to 1e-10 B, for random unit f and
    for the extreme eigenvectors of S, through the banded backend (crossover
    0) and the dense one. count None is a ladder rung: arity * dim."""
    spec = spec_from_json(rule)
    count = count or spec.arity * dim
    X = outcome(lambda: spec.materialize(dim, count))
    if isinstance(X, str):
        return
    with mock.patch.object(operators, "BANDED_MIN_SIZE", crossover):
        sp = frame_spectrum(spec, dim, count)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((dim, 16)) + 1j * rng.standard_normal((dim, 16))
    _, eigenvectors = np.linalg.eigh(X @ X.conj().T)
    F = np.hstack([F / np.linalg.norm(F, axis=0), eigenvectors[:, [0, -1]]])
    energy = np.sum(np.abs(X.conj().T @ F) ** 2, axis=0)
    slack = 1e-10 * sp.bessel_bound
    assert np.all(sp.lower_bound - slack <= energy)
    assert np.all(energy <= sp.bessel_bound + slack)


def stacked_direct_sum(U, W, tol=DEFAULT_TOL):
    """Reference rule: U (+) W is the whole space iff the dimensions add up
    and sigma_min / sigma_max of the stacked bases [U W] clears rank_tol.
    Returns the verdict and that ratio (None when the dimensions decide)."""
    total = U.shape[1] + W.shape[1]
    if total != U.shape[0]:
        return ("fails_span" if total < U.shape[0] else "fails_intersection"), None
    s = np.linalg.svd(np.hstack([U, W]), compute_uv=False)
    ratio = s[-1] / s[0]
    return ("holds" if ratio > tol.rank_tol else "fails_intersection"), ratio


def orthonormal(Z):
    return np.linalg.qr(Z)[0] if Z.shape[1] else Z


@st.composite
def planted_pairs(draw):
    """Columns of xi and eta whose analysis ranges R_xi and R_eta^perp meet
    at a planted smallest angle 10^-13 .. 10^-1 when their dimensions add up
    to count; ranks run from 0 (a zero sequence) to count, below dim or not."""
    count = draw(st.integers(2, 12))
    top = min(count, 8)
    r_xi = draw(st.one_of(st.integers(1, min(count - 1, 8)), st.sampled_from([0, top])))
    r_eta = draw(st.one_of(st.just(r_xi), st.integers(0, top)))
    dim = draw(st.integers(max(r_xi, r_eta, 1), 8))
    # half the angles fall within a factor 2.5 of the cutoff angle 2e-10
    theta = 10.0 ** -draw(st.one_of(st.floats(1, 13), st.floats(9.3, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    Q = orthonormal(gaussian(count, count))
    m = count - r_eta
    U = Q[:, :r_xi]
    if 0 < r_xi < count and r_xi + m == count:
        w = np.cos(theta) * Q[:, :1] + np.sin(theta) * Q[:, r_xi : r_xi + 1]
        W = np.hstack([w, Q[:, r_xi + 1 :]])
    else:
        W = orthonormal(gaussian(count, m))
    # mix each basis within its span
    U = U @ orthonormal(gaussian(r_xi, r_xi))
    W = W @ orthonormal(gaussian(m, m))
    V = np.linalg.qr(W, mode="complete")[0][:, m:]  # basis of R_eta
    C_xi = U @ gaussian(r_xi, dim)
    C_eta = V @ gaussian(r_eta, dim)
    return U, W, C_xi, C_eta


def near_cutoff(ratio, tol=DEFAULT_TOL):
    return ratio is not None and abs(ratio / tol.rank_tol - 1.0) < 1e-3


@settings(max_examples=300, deadline=None)
@given(planted_pairs())
def test_direct_sum_matches_stacked_basis_svd(pair):
    U, W, C_xi, C_eta = pair
    expected, ratio = stacked_direct_sum(U, W)
    if not near_cutoff(ratio):
        assert direct_sum_check(U, W) == expected

    b_xi = bundle_from_columns(C_xi.conj().T)
    b_eta = bundle_from_columns(C_eta.conj().T)
    R_xi, R_eta_perp = b_xi.range_basis(), complement_basis(b_eta.C)
    expected, ratio = stacked_direct_sum(R_xi, R_eta_perp)
    if not near_cutoff(ratio):
        assert direct_sum_check(R_xi, R_eta_perp) == expected
        assert zero_closed_from_bundles(b_xi, b_eta).direct_sum == expected


@st.composite
def shaped_pairs(draw):
    """Columns (dim x count) of xi and eta, both square with full rank, both
    of full column rank with count > dim, or each of any rank up to
    min(dim, count), so mostly rank-deficient. The nonzero singular values
    lie in [0.1, 1], so every rank is far from the cutoff."""
    shape = draw(st.sampled_from(["square", "tall", "any rank"]))
    dim = draw(st.integers(1, 8))
    counts = {"square": st.just(dim), "tall": st.integers(dim + 1, 12)}
    count = draw(counts.get(shape, st.integers(1, 12)))
    full = min(dim, count)
    ranks = [full, full]
    if shape == "any rank":
        ranks = draw(st.lists(st.integers(0, full), min_size=2, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def columns(rank):
        U, W = orthonormal(gaussian(dim, rank)), orthonormal(gaussian(count, rank))
        return (U * rng.uniform(0.1, 1.0, rank)) @ W.conj().T

    return columns(ranks[0]), columns(ranks[1])


def thin_svd_reference(b_xi, b_eta, tol=DEFAULT_TOL):
    """c1, c2, the principal angles, the direct-sum verdict with its stacked
    ratio, and 0-closedness, all from thin-SVD range bases."""
    Q_xi, Q_eta = range_basis(b_xi.C), range_basis(b_eta.C)
    r_xi, r_eta = Q_xi.shape[1], Q_eta.shape[1]
    cos, angles = np.zeros(1), np.empty(0)
    if r_xi and r_eta:
        cos, angles = cosines_and_angles(Q_xi, Q_eta)
    c1 = float(cos[-1]) if r_xi <= r_eta else 0.0
    c2 = float(cos[-1]) if r_eta <= r_xi else 0.0
    verdict, ratio = stacked_direct_sum(Q_xi, complement_basis(b_eta.C))
    lower = [
        lower_frame_data(np.linalg.svd(b.C, full_matrices=False)[1], b.dim, b.count)[3]
        for b in (b_xi, b_eta)
    ]
    return c1, c2, angles, verdict, ratio, all(lower) and verdict == "holds"


@settings(max_examples=300, deadline=None)
@given(shaped_pairs())
def test_range_bases_match_thin_svd_bases(pair):
    b_xi, b_eta = (bundle_from_columns(X) for X in pair)
    c1, c2, angles, verdict, ratio, zero_closed = thin_svd_reference(b_xi, b_eta)
    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.c1 - c1) < 1e-12 and abs(isc.c2 - c2) < 1e-12
    assert isc.angles.shape == angles.shape
    assert np.all(np.abs(isc.angles - angles) < 1e-12)
    if not near_cutoff(ratio):
        fa = zero_closed_from_bundles(b_xi, b_eta)
        assert fa.direct_sum == verdict
        assert fa.zero_closed == zero_closed


# zeros, subnormals, 1e-300 to 1.7e308, and powers of two from 2^-1074 to
# 2^1023, which meet rounding ties; either sign
fsum_magnitudes = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(1e-300, 1.7e308),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
)
fsum_values = st.tuples(fsum_magnitudes, st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0]
)


@st.composite
def prefix_sum_cases(draw):
    """(mats, stops, block rows): one or two matrices of equal shape, maybe
    with an all-zero column, and stops that may split a block of rows."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 3))
    mats = [
        np.array(draw(st.lists(fsum_values, min_size=rows * cols, max_size=rows * cols)))
        .reshape(rows, cols)
        for _ in range(draw(st.integers(1, 2)))
    ]
    if draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for m in mats:
            m[:, zero] = 0.0
    stops = sorted(draw(st.sets(st.integers(1, rows), min_size=1, max_size=4)))
    return mats, stops, draw(st.sampled_from([1, 2, 3, 5, core.FSUM_BLOCK_ROWS]))


def heavy_tailed(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))


def near_max(rows, cols, seed):
    """Values just below their power of two: the sum of a block's high parts
    then comes close to sigma."""
    return np.random.default_rng(seed).uniform(0.99, 1.0, (rows, cols))


@settings(max_examples=250, deadline=None)
@given(prefix_sum_cases())
@example(([heavy_tailed(2500, 3, 1), heavy_tailed(2500, 3, 2)], [1, 1000, 1500, 2500],
          core.FSUM_BLOCK_ROWS))
@example(([near_max(2500, 3, 3)], [1000, 2500], core.FSUM_BLOCK_ROWS))
def test_column_prefix_fsums_are_fsum_bit_for_bit(case):
    mats, stops, block = case
    for col in np.abs(np.concatenate(mats)).T:
        try:
            math.fsum(col)
        except OverflowError:
            assume(False)  # outside the stated domain: a column sum overflows
    with mock.patch.object(core, "FSUM_BLOCK_ROWS", block):
        got = core.column_prefix_fsums(mats, stops)
    for i, out in enumerate(got):
        expected = [
            [math.fsum(itertools.chain(*(m[:s, j] for m in mats[: i + 1])))
             for j in range(mats[0].shape[1])]
            for s in stops
        ]
        assert out.tobytes() == np.array(expected).tobytes()
