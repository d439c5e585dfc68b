import numpy as np
import pytest
import scipy.sparse as sp

from seqforms import (
    DEFAULT_TOL,
    Tolerances,
    TruncationLadder,
    partial_sum_trend,
    probe_series,
)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(eq_tol=0.0)
    assert DEFAULT_TOL.eq_tol == 1e-10


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tolerances_must_be_finite(value):
    for name in ("eq_tol", "rank_tol", "cauchy_tol", "growth_min"):
        with pytest.raises(ValueError):
            Tolerances(**{name: value})


def test_ladder_validation():
    with pytest.raises(ValueError):
        TruncationLadder((10, 20))
    with pytest.raises(ValueError):
        TruncationLadder((10, 10, 20))
    assert TruncationLadder((10, 20, 40)).top == 40


def test_probe_series_sums_in_index_order():
    rng = np.random.default_rng(4)
    terms = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    acc = 0j
    for t in terms:
        acc += t
    v = probe_series(terms, TruncationLadder((5, 15, 40)))
    assert complex(v.last_partial) == acc


def test_probe_series_inverse_squares_converges():
    ladder = TruncationLadder((100, 1000, 10000))
    v = probe_series(1.0 / np.arange(1, 10001) ** 2, ladder)
    assert v.kind == "Converged"
    assert complex(v.limit_estimate).real == pytest.approx(np.pi**2 / 6, abs=1e-3)


def test_probe_series_harmonic_is_not_converged():
    ladder = TruncationLadder((100, 1000, 10000))
    v = probe_series(1.0 / np.arange(1, 10001), ladder)
    assert v.kind != "Converged"


def test_probe_series_linear_growth_diverges():
    ladder = TruncationLadder((10, 100, 1000))
    v = probe_series(np.ones(1000), ladder)
    assert v.kind == "Diverged"
    assert v.growth_exponent == pytest.approx(1.0, abs=0.05)


def test_probe_series_finite_support_converges_exactly():
    ladder = TruncationLadder((5, 10, 20))
    v = probe_series(np.where(np.arange(1, 21) <= 3, 2.5, 0.0), ladder)
    assert v.kind == "Converged"
    assert complex(v.limit_estimate) == pytest.approx(7.5)


def test_probe_series_all_zero_terms():
    ladder = TruncationLadder((3, 6, 12))
    v = probe_series(np.zeros(12), ladder)
    assert v.kind == "Converged"
    assert complex(v.limit_estimate) == 0


def test_probe_series_oscillating_vector_partial_sums():
    # partial sums hop between distant unit vectors: persistent gap
    dim, top = 50, 45
    n = np.arange(1, top + 1)
    T = np.zeros((dim, top), dtype=complex)
    T[n % dim, n - 1] = 1.0
    T[(n[1:] - 1) % dim, n[1:] - 1] = -1.0

    ladder = TruncationLadder((10, 25, 45))
    v = probe_series(T, ladder)
    assert v.kind == "Diverged"


def test_probe_series_sparse_terms_match_dense():
    rng = np.random.default_rng(8)
    T = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
    T[rng.random(T.shape) < 0.7] = 0.0
    ladder = TruncationLadder((5, 15, 40))
    dense = probe_series(T, ladder)
    sparse = probe_series(sp.csc_matrix(T), ladder)
    assert dense.kind == sparse.kind
    acc = np.zeros(30, dtype=complex)
    for n in range(40):
        acc = acc + T[:, n]
    assert dense.last_partial.tobytes() == sparse.last_partial.tobytes()
    assert sparse.last_partial.tobytes() == acc.tobytes()


def test_probe_series_needs_a_term_per_index():
    with pytest.raises(ValueError):
        probe_series(np.ones(11), TruncationLadder((3, 6, 12)))


def test_partial_sum_trend_needs_three_rungs():
    with pytest.raises(ValueError):
        partial_sum_trend([1, 2], [1.0, 2.0])
