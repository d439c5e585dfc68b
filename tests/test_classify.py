import numpy as np
import pytest

from seqforms import (
    DiagonalWeights,
    ExplicitColumns,
    FiniteDifference,
    Interleave,
    PairedDouble,
    ScalarRule,
    TriplePattern,
    TruncationLadder,
    build_bundle,
    check_biorthogonal,
    classify_finite,
    diagnose_asymptotic,
    weighted_space_frame,
)
from seqforms.errors import NotPositiveDefinite

ONB = DiagonalWeights(ScalarRule("constant", 1.0))


def test_onb_classification():
    rep = classify_finite(build_bundle(ONB, 8, 8))
    assert rep.frame and rep.riesz_basis and rep.complete
    assert rep.bessel_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.lower_bound == pytest.approx(1.0, abs=1e-12)


def test_overcomplete_frame_is_not_riesz_basis():
    # {e_1, e_1, e_2} in dim 2: frame with A = 1, B = 2
    X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rep = classify_finite(build_bundle(ExplicitColumns(X), 2, 3))
    assert rep.frame and not rep.riesz_basis
    assert rep.bessel_bound == pytest.approx(2.0)
    assert rep.lower_bound == pytest.approx(1.0)
    assert not rep.riesz_fischer_possible


def test_incomplete_sequence():
    X = np.zeros((3, 2))
    X[0, 0] = 1.0
    X[1, 1] = 1.0
    rep = classify_finite(build_bundle(ExplicitColumns(X), 3, 2))
    assert not rep.complete and not rep.frame
    assert rep.lower_bound == 0.0


def test_frame_bounds_match_rayleigh_quotient_extremes():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    bundle = build_bundle(ExplicitColumns(X), 3, 5)
    rep = classify_finite(bundle)
    for _ in range(200):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = z / np.linalg.norm(z)
        q = float(np.sum(np.abs(bundle.C @ f) ** 2))
        assert rep.lower_bound - 1e-10 <= q <= rep.bessel_bound + 1e-10


def test_diagnose_weighted_lower_semi_frame():
    ladder = TruncationLadder((8, 32, 128))
    diag = diagnose_asymptotic(DiagonalWeights(ScalarRule("n")), ladder)
    assert diag.inferred_class == "LowerSemiFrame"
    assert diag.upper_bounds[-1] == pytest.approx(128.0**2)


def test_diagnose_weighted_bessel_only():
    ladder = TruncationLadder((8, 32, 128))
    diag = diagnose_asymptotic(DiagonalWeights(ScalarRule("1/n")), ladder)
    # complete at every truncation, upper bound 1, lower bound -> 0
    assert diag.inferred_class == "UpperSemiFrame"


def test_diagnose_onb_riesz_basis():
    ladder = TruncationLadder((8, 32, 128))
    diag = diagnose_asymptotic(ONB, ladder)
    assert diag.inferred_class == "RieszBasis"


def test_diagnose_interleaved_is_frame_not_riesz():
    inter = Interleave(ONB, ONB)  # each e_n listed twice: frame, A = B = 2
    ladder = TruncationLadder((8, 16, 32))
    diag = diagnose_asymptotic(inter, ladder)
    assert diag.inferred_class == "Frame"


def test_diagnose_paired_double_unbounded_above():
    ladder = TruncationLadder((8, 32, 128))
    diag = diagnose_asymptotic(PairedDouble("xi"), ladder)
    assert diag.inferred_class == "LowerSemiFrame"


def test_biorthogonal_weights():
    assert check_biorthogonal(
        DiagonalWeights(ScalarRule("n")), DiagonalWeights(ScalarRule("1/n")), 6, 6
    )
    assert not check_biorthogonal(
        DiagonalWeights(ScalarRule("n")), DiagonalWeights(ScalarRule("n")), 6, 6
    )


def test_weighted_space_frame_diagonal():
    # xi = ONB, R = diag(1..4): bounds are extremes of 1/r_n
    R = np.diag([1.0, 2.0, 3.0, 4.0])
    wb = weighted_space_frame(ONB, R, 4, 4)
    assert wb.lower == pytest.approx(0.25)
    assert wb.upper == pytest.approx(1.0)
    assert wb.identity_error < 1e-10


def test_weighted_space_frame_rejects_bad_metric():
    with pytest.raises(NotPositiveDefinite):
        weighted_space_frame(ONB, np.diag([1.0, -1.0]), 2, 2)
    with pytest.raises(NotPositiveDefinite):
        weighted_space_frame(ONB, np.array([[1.0, 1.0], [0.0, 1.0]]), 2, 2)


def test_finite_difference_bounds_spread():
    # the square truncation sees both bounds degenerate: B grows without
    # bound while A decays (constant vectors have tiny analysis norm), so
    # no one-sided class fits the window
    ladder = TruncationLadder((8, 32, 128))
    diag = diagnose_asymptotic(FiniteDifference(), ladder)
    assert diag.inferred_class == "None"
    assert diag.upper_bounds[-1] > diag.upper_bounds[0]
    assert diag.lower_bounds[-1] < diag.lower_bounds[0]


def test_interleave_arity_follows_its_parts():
    eta = TriplePattern("eta")
    assert Interleave(eta, eta).arity == 6
    assert Interleave(ONB, eta).arity == 2
    assert Interleave(ONB, FiniteDifference()).arity == 2


def test_interleaved_triple_patterns_are_a_tight_frame():
    # at count 6N every e_k appears three times in each half: A = B = 6
    eta = TriplePattern("eta")
    diag = diagnose_asymptotic(Interleave(eta, eta), TruncationLadder((16, 32, 64)))
    assert diag.inferred_class == "Frame"
    assert np.allclose(diag.lower_bounds, 6.0, atol=1e-12)
    assert np.allclose(diag.upper_bounds, 6.0, atol=1e-12)
