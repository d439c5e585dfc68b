import numpy as np
import pytest

from seqforms import (
    CoeffVector,
    DEFAULT_TOL,
    SparseTerm,
    Tolerances,
    TruncationLadder,
    WeightVector,
    inner_product,
    partial_sum_trend,
    probe_series,
    weighted_norm,
)
from seqforms.errors import DimensionMismatch


def test_inner_product_is_conjugate_linear_in_second_argument():
    f = CoeffVector([1 + 1j, 2.0])
    g = CoeffVector([0.0, 1j])
    # <f, i*g> = -i <f, g>
    gi = CoeffVector(1j * g.coeffs)
    assert inner_product(f, gi) == pytest.approx(-1j * inner_product(f, g))


def test_parseval_identity_random(rng=np.random.default_rng(3)):
    for _ in range(20):
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = CoeffVector(z)
        assert inner_product(f, f) == pytest.approx(np.sum(np.abs(z) ** 2), abs=1e-10)


def test_inner_product_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(CoeffVector([1.0]), CoeffVector([1.0, 2.0]))


def test_weighted_norm_diagonal_weights():
    w = WeightVector(np.arange(1, 6))
    c = [1.0, 1.0, 0.0, 0.0, 2.0]
    assert weighted_norm(c, w) == pytest.approx(np.sqrt(1 + 2 + 20))
    with pytest.raises(DimensionMismatch):
        weighted_norm(np.ones(7), w)


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


def test_probe_series_inverse_squares_converges():
    ladder = TruncationLadder((100, 1000, 10000))
    v = probe_series(lambda n: 1.0 / n**2, ladder)
    assert v.kind == "Converged"
    assert complex(v.limit_estimate).real == pytest.approx(np.pi**2 / 6, abs=1e-3)


def test_probe_series_harmonic_is_not_converged():
    ladder = TruncationLadder((100, 1000, 10000))
    v = probe_series(lambda n: 1.0 / n, ladder)
    assert v.kind != "Converged"


def test_probe_series_linear_growth_diverges():
    ladder = TruncationLadder((10, 100, 1000))
    v = probe_series(lambda n: 1.0, ladder)
    assert v.kind == "Diverged"
    assert v.growth_exponent == pytest.approx(1.0, abs=0.05)


def test_probe_series_finite_support_converges_exactly():
    ladder = TruncationLadder((5, 10, 20))
    v = probe_series(lambda n: 2.5 if n <= 3 else 0.0, ladder)
    assert v.kind == "Converged"
    assert complex(v.limit_estimate) == pytest.approx(7.5)


def test_probe_series_all_zero_terms():
    ladder = TruncationLadder((3, 6, 12))
    v = probe_series(lambda n: 0.0, ladder)
    assert v.kind == "Converged"
    assert complex(v.limit_estimate) == 0


def test_probe_series_oscillating_vector_partial_sums():
    # partial sums hop between distant unit vectors: persistent gap
    dim = 50

    def term(n):
        out = np.zeros(dim, dtype=complex)
        out[n % dim] = 1.0
        out[(n - 1) % dim] = -1.0 if n > 1 else 0.0
        return out

    ladder = TruncationLadder((10, 25, 45))
    v = probe_series(term, ladder)
    assert v.kind == "Diverged"


def test_probe_series_sparse_terms_match_dense():
    dim = 30
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(dim) / np.arange(1, dim + 1) ** 2

    def sparse(n):
        if n <= dim:
            return SparseTerm(np.array([n - 1]), np.array([vals[n - 1]]), dim)
        return SparseTerm(np.empty(0, dtype=int), np.empty(0), dim)

    ladder = TruncationLadder((5, 15, 40))
    v = probe_series(sparse, ladder)
    assert np.allclose(v.last_partial, vals.astype(complex))


def test_partial_sum_trend_needs_three_rungs():
    with pytest.raises(ValueError):
        partial_sum_trend([1, 2], [1.0, 2.0])
