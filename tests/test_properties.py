"""Property tests of the batch term path and of the frame bounds over
random rule trees drawn from the JSON vocabulary of spec_from_json, of the
direct-sum verdict against the singular values of the stacked bases, of the
bundle's range bases against thin-SVD ones, of real against complex
arithmetic on real rules, and of the exact column sums against math.fsum."""

import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import seqforms.classify as classify
import seqforms.core as core
from seqforms import (
    DEFAULT_TOL,
    bundle_from_columns,
    classify_finite,
    complement_basis,
    direct_sum_check,
    frame_spectrum,
    range_basis,
    reproducing_pair_duals,
    spec_from_json,
)
from seqforms.errors import SupportOverflow
from seqforms.forms import infsup_constants, zero_closed_from_bundles
from seqforms.operators import cosines_and_angles, dense, factor_cosines

small = st.integers(-3, 3).map(float)
scalar_value = st.one_of(small, st.tuples(small, small).map(list))


def scalar_rules_of(value):
    return st.one_of(
        st.sampled_from([{"kind": "n"}, {"kind": "1/n"}]),
        value.map(lambda v: {"kind": "constant", "value": v}),
        st.lists(value, min_size=1, max_size=8).map(
            lambda vs: {"kind": "table", "values": vs}
        ),
    )


def leaves_of(value):
    """Every leaf rule, its scalars and matrix entries drawn from value."""
    matrices = st.integers(1, 6).flatmap(
        lambda rows: st.lists(
            st.lists(value, min_size=rows, max_size=rows), min_size=1, max_size=10
        ).map(lambda cols: [list(r) for r in zip(*cols)])
    )
    return st.one_of(
        st.just({"rule": "finite_difference"}),
        scalar_rules_of(value).map(
            lambda w: {"rule": "diagonal", "params": {"weight": w}}
        ),
        st.sampled_from(["triple", "paired_double"]).flatmap(
            lambda tag: st.sampled_from(["xi", "eta"]).map(
                lambda kind: {"rule": tag, "params": {"kind": kind}}
            )
        ),
        st.tuples(st.sampled_from(["explicit", "operator_image"]), matrices).map(
            lambda t: {"rule": t[0], "params": {"matrix": t[1]}}
        ),
    )


scalar_rules = scalar_rules_of(scalar_value)
leaves = leaves_of(scalar_value)


def rule_trees(depth, leaves=leaves, factors=scalar_rules):
    """Rule trees of at most depth + 1 levels."""
    if depth == 0:
        return leaves
    inner = rule_trees(depth - 1, leaves, factors)
    return st.one_of(
        leaves,
        st.tuples(inner, inner).map(
            lambda t: {"rule": "interleave", "params": {"first": t[0], "second": t[1]}}
        ),
        st.tuples(inner, factors).map(
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
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(rule_trees(2), sizes)
def test_dense_and_sparse_agree_bit_for_bit(rule, size):
    """Both are float64 exactly when every entry of the truncation has a
    zero imaginary part, else complex128, and hold the same bytes."""
    spec = spec_from_json(rule)
    dense = outcome(lambda: spec.materialize(*size))
    sparse = outcome(lambda: spec.materialize_sparse(*size).toarray())
    assert same(dense, sparse)
    if not isinstance(dense, str):
        vals = spec.entries(np.arange(1, size[1] + 1))[2]
        real = not np.asarray(vals, dtype=complex).imag.any()
        assert dense.dtype == (np.float64 if real else np.complex128)


@settings(max_examples=150, deadline=None)
@given(rule_trees(2), sizes)
def test_columns_are_single_terms(rule, size):
    spec = spec_from_json(rule)
    dim, count = size
    X = outcome(lambda: spec.materialize(dim, count))
    if isinstance(X, str):
        return
    for n in range(1, count + 1):
        rows, _, vals = spec.entries(np.array([n]))
        live = vals != 0  # a zero entry may lie past dim; materialize drops it
        terms = vals[live] + 0  # + 0 makes a -0 part +0, as there
        if X.dtype == float:
            assert not terms.imag.any()  # a real X drops only zero parts
            terms = terms.real
        column = np.zeros(dim, dtype=X.dtype)
        column[rows[live]] = terms
        assert column.tobytes() == X[:, n - 1].tobytes()


@pytest.mark.parametrize("crossover", [0, classify.BANDED_MIN_SIZE])
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
    with mock.patch.object(classify, "BANDED_MIN_SIZE", crossover):
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
def shaped_pairs(draw, shapes=("square", "tall", "any rank")):
    """Columns (dim x count) of xi and eta, of one of shapes: both square with
    full rank ("square"), both of full column rank with count > dim ("tall"),
    or each of any rank up to min(dim, count), so mostly rank-deficient. The
    nonzero singular values lie in [0.1, 1], so every rank is far from the
    cutoff."""
    shape = draw(st.sampled_from(shapes))
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
    lower = []
    for b in (b_xi, b_eta):
        s = np.linalg.svd(b.C, full_matrices=False)[1]
        lower.append(b.count >= b.dim and s[b.dim - 1] > tol.rank_tol * s[0])
    return c1, c2, angles, verdict, ratio, all(lower) and verdict == "holds"


@settings(max_examples=200, deadline=None)
@given(shaped_pairs(shapes=("tall",)))
def test_cholesky_cosines_match_thin_svd_bases(pair):
    """On complete complex pairs with count > dim, factor_cosines declines
    when 2 dim > count, and otherwise only when the smallest cosine is within
    1e-8 of 0 or above 1/sqrt 2 - 1e-8: its error bound is at most 4e-9 here
    (kappa <= 10). Where it gives the cosines, they, the largest angle and
    c1, c2 match thin-SVD range bases to 1e-13."""
    b_xi, b_eta = (bundle_from_columns(X) for X in pair)
    cos, angles = cosines_and_angles(range_basis(b_xi.C), range_basis(b_eta.C))
    got = factor_cosines(b_xi, b_eta)
    if 2 * b_xi.dim > b_xi.count or got is None:
        assert 2 * b_xi.dim > b_xi.count or (
            cos[-1] < 1e-8 or cos[-1] > 0.5**0.5 - 1e-8)
        return
    assert np.max(np.abs(got - cos)) < 1e-13
    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.c1 - cos[-1]) < 1e-13 and abs(isc.c2 - cos[-1]) < 1e-13
    assert isc.max_angle == np.arccos(got[-1])
    assert abs(isc.max_angle - angles[-1]) < 1e-13


@settings(max_examples=300, deadline=None)
@given(shaped_pairs())
def test_range_bases_match_thin_svd_bases(pair):
    b_xi, b_eta = (bundle_from_columns(X) for X in pair)
    c1, c2, angles, verdict, ratio, zero_closed = thin_svd_reference(b_xi, b_eta)
    isc = infsup_constants(b_xi, b_eta)
    assert abs(isc.c1 - c1) < 1e-12 and abs(isc.c2 - c2) < 1e-12
    assert abs(isc.max_angle - (angles[-1] if angles.size else 0.0)) < 1e-12
    if not near_cutoff(ratio):
        fa = zero_closed_from_bundles(b_xi, b_eta)
        assert fa.direct_sum == verdict
        assert fa.zero_closed == zero_closed


real_rules = rule_trees(1, leaves_of(small), scalar_rules_of(small))


@settings(max_examples=300, deadline=None)
@given(real_rules, st.one_of(st.none(), real_rules), st.integers(1, 8),
       st.integers(1, 16))
def test_real_arithmetic_matches_complex_arithmetic(rule_xi, rule_eta, dim, count):
    """A pair of real rules (eta None pairs xi with itself, 0-closed exactly
    when xi is a frame) gives the same ranks and verdicts, and the same
    floats to the property tests' tolerances, whether its bundles are real
    or are built from the same columns cast to complex. Pairs with a
    statistic within 1e-3 (relative) of its cutoff are skipped."""
    specs = [spec_from_json(rule) for rule in (rule_xi, rule_eta or rule_xi)]
    columns = [outcome(lambda: spec.materialize(dim, count)) for spec in specs]
    if any(isinstance(X, str) for X in columns):
        return
    assert all(X.dtype == np.float64 for X in columns)
    real = [bundle_from_columns(X) for X in columns]
    cplx = [bundle_from_columns(X.astype(complex)) for X in columns]
    assert all(b.columns.dtype == np.complex128 for b in cplx)
    fa_real, fa_cplx = (zero_closed_from_bundles(*b) for b in (real, cplx))
    T, T_cplx = (dense(fa.associated_operator, dim, dim) for fa in (fa_real, fa_cplx))
    assert T.dtype == np.float64
    s_T = np.linalg.svd(T, compute_uv=False)
    ratios = [b.singular_values / max(b.singular_values[0], 1e-300) for b in real]
    ratios.append(s_T / max(s_T[0], 1e-300))
    c = fa_real.c1
    half_tan = c / (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    if any(near_cutoff(r) for r in np.concatenate([*ratios, [half_tan]])):
        return

    for b_real, b_cplx in zip(real, cplx):
        a, b = classify_finite(b_real), classify_finite(b_cplx)
        assert (a.rank, a.complete, a.frame, a.riesz_basis) == (
            b.rank, b.complete, b.frame, b.riesz_basis)
        slack = 1e-10 * a.bessel_bound
        for field in ("bessel_bound", "lower_bound", "riesz_fischer_bound"):
            assert abs(getattr(a, field) - getattr(b, field)) <= slack

    d_real, d_cplx = fa_real.to_dict(), fa_cplx.to_dict()
    for key in ("null_dim_left", "direct_sum", "zero_closed", "assoc_invertible",
                "lower_xi", "lower_eta"):
        assert d_real[key] == d_cplx[key]
    for key in ("c1", "c2", "max_principal_angle"):
        assert abs(d_real[key] - d_cplx[key]) < 1e-12
    assert np.max(np.abs(T - T_cplx)) <= 1e-12 * max(1.0, s_T[0])
    if fa_real.assoc_invertible:
        s_min = 1 / fa_real.assoc_inverse_norm
        assert abs(s_min - 1 / fa_cplx.assoc_inverse_norm) <= 1e-10 * s_T[0]

    if not fa_real.zero_closed:
        return
    for a, b in zip(reproducing_pair_duals(fa_real, *real),
                    reproducing_pair_duals(fa_cplx, *cplx)):
        assert a.kind == b.kind
        bound = pytest.approx(b.bessel_bound_of_dual, rel=1e-10)
        assert a.bessel_bound_of_dual == bound
        assert a.dual.dtype == np.float64 and b.dual.dtype == np.complex128
        scale = max(1.0, np.max(np.abs(b.dual)))
        assert np.max(np.abs(a.dual - b.dual)) <= 1e-12 * scale


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
    asked = []

    def rows(r0, r1):
        asked.append((r0, r1))
        return tuple(m[r0:r1] for m in mats)

    # every chain of summands from the first, and the last summand alone
    groups = [range(i + 1) for i in range(len(mats))] + [(len(mats) - 1,)]
    with mock.patch.object(core, "FSUM_BLOCK_ROWS", block):
        got = core.column_prefix_fsums(rows, stops, groups)
    assert asked == [(r0, min(r0 + block, stops[-1]))
                     for r0 in range(0, stops[-1], block)]
    assert len(got) == len(groups)
    for group, out in zip(groups, got):
        expected = [
            [math.fsum(itertools.chain(*(mats[p][:s, j] for p in group)))
             for j in range(mats[0].shape[1])]
            for s in stops
        ]
        assert out.tobytes() == np.array(expected).tobytes()


def test_column_prefix_fsums_frees_each_block_before_asking_for_the_next():
    """Only one block of rows is alive at a time: the arrays rows returned
    last are dead when it is called again, and the sums stay fsum's."""
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((10, 3)) for _ in range(2)]
    last = []

    def rows(r0, r1):
        assert all(ref() is None for ref in last)
        block = tuple(m[r0:r1].copy() for m in mats)
        last[:] = [weakref.ref(a) for a in block]
        return block

    with mock.patch.object(core, "FSUM_BLOCK_ROWS", 3):
        [got] = core.column_prefix_fsums(rows, [4, 10], [(0, 1)])
    expected = [[math.fsum(np.concatenate([m[:s, j] for m in mats]).tolist())
                 for j in range(3)] for s in (4, 10)]
    assert got.tobytes() == np.array(expected).tobytes()
