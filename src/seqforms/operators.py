"""Analysis and frame matrices, the rank cutoff and subspace geometry.

Conventions: for columns xi_n (dim x count matrix X), the analysis matrix is
C = X^H, so (C f)_n = <f, xi_n> including the complex conjugation; the
synthesis matrix is C^H = X, the columns themselves, and the frame matrix is
S = X C. The columns are float64 when the sequence's entries are all real
(see sequences) and complex128 otherwise, and every operator, basis and
factorization below inherits that dtype. Every rank and invertibility
verdict, here and in classify and forms, is rank, the one place the cutoff
is spelled. A basis of a subspace is a plain array with orthonormal
columns; its rows are the ambient space. Verdicts about a sequence (frame
bounds, completeness, the class) live in classify.

A sparse operator has one entry per row and column, or it is dense. A
bundle holds the entries of columns none of which holds two, as it decides
once, at its birth; its C, S, Cholesky factor and their products stay
sparse, and in the paper's diagonal, onb, triple and paired pairs S, L,
L^-1, the associated matrix, the cosine matrix and T^-H L all hold one
entry per row and column at most. The values-only SVD, the inverse, the
Cholesky factor and solve take no LAPACK call on such a matrix: its
singular values are the moduli of its entries, its inverse and factor
their reciprocals and square roots. Any other matrix takes one numpy or
scipy call, made dense under the cap DENSE_MAX_SIZE, and so do range bases.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .core import DEFAULT_TOL, Tolerances, sp
from .errors import DenseTooLarge, DimensionMismatch
from .sequences import SequenceSpec

__all__ = [
    "OperatorBundle",
    "rank",
    "svdvals",
    "inv",
    "cho_solve",
    "dense",
    "build_bundle",
    "bundle_from_columns",
    "range_basis",
    "complement_basis",
    "cosines_and_angles",
    "factor_cosines",
    "principal_angles",
    "direct_sum_verdict",
    "direct_sum_check",
]


def rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of the descending singular values s above rank_tol * s[0]: one
    at or below that cutoff counts as zero."""
    smax = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > tol.rank_tol * smax)) if smax > 0 else 0


# Below count * dim = 256^2 a dense factorization is cheaper than a look
# for structure (sparse entries, a band in classify.frame_spectrum): a
# values-only SVD takes 5.2 ms real and 9.8 ms complex at 256 x 256 (one
# BLAS thread). A family whose members hold one nonzero coordinate each is
# the exception: its entries are read off at every size.
BANDED_MIN_SIZE = 256 * 256
# S = C^H C squares kappa(C), so a verdict read off S (a banded eigensolve, a
# Cholesky factor) stands only when GUARD_FACTOR * n * eps * kappa(C)^2 < 1.
GUARD_FACTOR = 1e4


def _entries(M):
    """(rows, cols, values) of the entries of a sparse M stored with a
    nonzero value (a product may store exact zeros) when no row or column
    holds two; None when one does, or when M is dense."""
    if not sp.issparse(M):
        return None
    M = M.tocoo()
    live = M.data != 0
    i, j = M.row[live], M.col[live]
    if np.bincount(i).max(initial=0) > 1 or np.bincount(j).max(initial=0) > 1:
        return None
    return i, j, M.data[live]


def _row_norms(row: np.ndarray, data: np.ndarray, m: int) -> np.ndarray:
    """The 2-norm of each of m rows, data[k] in row row[k], from the squares
    of the entries summed in the order given, or, where one could under- or
    overflow, of their ratios to the row's largest modulus."""
    a, f = np.abs(data), np.finfo(float)
    if not a.size or np.sqrt(f.tiny) <= a.min() <= a.max() <= np.sqrt(f.max / a.size):
        return np.sqrt(np.bincount(row, a * a, m))
    top = np.zeros(m)
    np.maximum.at(top, row, a)
    scale = np.where(top > 0, top, 1.0)
    return top * np.sqrt(np.bincount(row, (a / scale[row]) ** 2, m))


def svdvals(M) -> np.ndarray:
    """The singular values of M, descending: of a sparse M with one entry
    per row and column at most, the moduli of its entries, with no LAPACK
    call; else numpy's of M, made dense under the cap."""
    E = _entries(M)
    if E is None:
        return np.linalg.svd(dense(M, *M.shape), compute_uv=False)
    s = np.sort(np.abs(E[2]))[::-1]
    return np.concatenate([s, np.zeros(min(M.shape) - s.size)])


def _entrywise(M, fn, one):
    """Of a sparse M with one entry per row and column at most, one of each
    entry, put at its transposed place as an inverse has it, in CSR, with no
    LAPACK call; else fn of M, made dense under the cap. LinAlgError when
    such a sparse M has a zero row or column."""
    E = _entries(M)
    if E is None:
        return fn(dense(M, *M.shape))
    i, j, v = E
    if (i.size, i.size) != M.shape:
        raise np.linalg.LinAlgError("Singular matrix")
    return sp.csr_array((one(v), (j, i)), M.shape)


def inv(M):
    """The inverse of M, CSR when M is sparse with one entry per row and
    column; LinAlgError if singular."""
    return _entrywise(M, np.linalg.inv, np.reciprocal)


def cho_solve(S, B: np.ndarray) -> np.ndarray:
    """X with S X = B for a Hermitian positive definite S: dense, scipy's
    cho_factor and cho_solve; sparse, L^-H L^-1 B, L^-1 the reciprocal square
    roots of its entries, or the inverse factor of S made dense under the cap
    when S has a row of two entries. LinAlgError unless positive definite."""
    if not sp.issparse(S):
        import scipy.linalg  # here, not at the top: about 50 ms and 8 MB
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), B)
    # a positive diagonal puts every entry of a one-entry row on it
    if not np.all(S.diagonal().real > 0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    L_inv = _entrywise(S, lambda A: inv(np.linalg.cholesky(A)),
                       lambda a: 1 / np.sqrt(a))
    return L_inv.conj().T @ (L_inv @ B)


# The most entries held dense (128 MB of float, 256 MB of complex).
DENSE_MAX_SIZE = 4096 * 4096


def dense(M, dim: int, count: int) -> np.ndarray:
    """M of a dim x count truncation as an array, refused above the cap."""
    if sp.issparse(M):
        if dim * count > DENSE_MAX_SIZE:
            raise DenseTooLarge(
                f"a {dim} x {count} truncation needs a dense factorization of "
                f"{dim * count} entries, above the cap of {DENSE_MAX_SIZE}",
                dim=dim, count=count, cap=DENSE_MAX_SIZE)
        M = M.toarray()
    return M


# Columns none of which holds two nonzero entries, as their CSC arrays: the
# matrix is made only when an operator other than the singular values needs it.
_Entries = namedtuple("_Entries", "data indices indptr shape")


@dataclass(frozen=True)
class OperatorBundle:
    """Materialized operators of one sequence at a fixed truncation.

    held is dense, the _Entries of columns none of which holds two entries,
    or, built by hand, sparse. All else is computed on first use and cached,
    so a verdict that needs singular values alone pays for no singular
    vectors, nor, for _Entries, for a sparse matrix.
    """

    held: object  # dim x count, column n is xi_n

    @property
    def dim(self) -> int:
        return self.held.shape[0]

    @property
    def count(self) -> int:
        return self.held.shape[1]

    @cached_property
    def columns(self):
        """The dim x count columns: held, or the CSC matrix of its _Entries."""
        X = self.held
        return sp.csc_array(X[:3], X.shape) if isinstance(X, _Entries) else X

    @cached_property
    def C(self):
        return self.columns.conj().T

    @cached_property
    def S(self):
        """The frame matrix, sparse when the columns are."""
        return self.columns @ self.C

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of C, descending, without singular vectors: the
        norms of the rows of _Entries, else svdvals of C."""
        if isinstance(self.held, _Entries):
            (dim, count), X = self.held.shape, self.held
            return np.sort(_row_norms(X.indices, X.data, dim))[::-1][: min(dim, count)]
        return svdvals(self.C)

    @property
    def entrywise(self) -> bool:
        """Whether the singular values are read off entries, with no SVD."""
        return isinstance(self.held, _Entries) or _entries(self.held) is not None

    @cached_property
    def factor_error(self) -> float:
        """Error bound of the CholeskyQR basis C L^-H: GUARD_FACTOR w eps for
        a sparse diagonal S, w the most entries in a row of X (the rounding of
        the inner products that form S grows with it), else GUARD_FACTOR dim
        eps kappa(C)^2; inf when count < dim or sigma_dim = 0."""
        s, S, eps = self.singular_values, self.S, float(np.finfo(float).eps)
        if self.count < self.dim or s[-1] == 0:
            return np.inf
        if sp.issparse(S) and S.count_nonzero() == np.count_nonzero(S.diagonal()):
            return GUARD_FACTOR * eps * float(self.columns.count_nonzero(axis=1).max())
        kappa = float(s[0]) / float(s[-1])  # Python floats: inf, not an error
        return GUARD_FACTOR * self.dim * eps * kappa * kappa

    @cached_property
    def cholesky(self):
        """L of S = L L^H, sparse when S is, so that C = (C L^-H) L^H is a QR
        of C (CholeskyQR); None when factor_error >= 1."""
        if self.factor_error >= 1:
            return None
        return _entrywise(self.S, np.linalg.cholesky, np.sqrt)

    def range_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal columns spanning R(C): Q of a reduced QR when C has
        full column rank, the leading left singular vectors of a thin SVD
        only when C is rank-deficient."""
        r = rank(self.singular_values, tol)
        C = dense(self.C, self.dim, self.count)
        if r == self.dim:
            return np.linalg.qr(C)[0]
        return np.linalg.svd(C, full_matrices=False)[0][:, :r]


def bundle_from_columns(X) -> OperatorBundle:
    """The bundle of the dim x count columns X, dense or sparse, complex
    when X is, else float: the _Entries of X, at any size, when each column
    holds one nonzero entry at most and two rows hold entries; else dense,
    and DenseTooLarge when that is above the cap."""
    X = X if sp.issparse(X) else np.atleast_2d(X)
    X = X.astype(complex if np.iscomplexobj(X) else float, copy=False)
    dim, count = X.shape
    nz = None if sp.issparse(X) else X != 0
    live = X.count_nonzero(axis=0) if nz is None else nz.sum(axis=0)
    if live.max(initial=0) <= 1 < live.sum():
        if nz is None:
            Y = sp.csc_array(X)
            rows = Y.indices[Y.data != 0]
            Y = _Entries(Y.data, Y.indices, Y.indptr, X.shape)
        else:  # read off X, with no sparse matrix
            rows = nz.argmax(axis=0)[live > 0]
            indptr = np.concatenate([[0], np.cumsum(live)])
            Y = _Entries(X[rows, np.flatnonzero(live)], rows, indptr, X.shape)
        if rows.min() < rows.max():  # two of them hold entries
            return OperatorBundle(Y)
    return OperatorBundle(dense(X, dim, count))


def build_bundle(spec: SequenceSpec, dim: int, count: int) -> OperatorBundle:
    """The bundle of spec at dim x count, materialized once: dense below
    BANDED_MIN_SIZE entries or when the rule knows none is zero, else from
    its sparse entries."""
    small = dim * count < BANDED_MIN_SIZE or spec.full(dim, count)
    X = spec.materialize(dim, count) if small else spec.materialize_sparse(dim, count)
    return bundle_from_columns(X)


# No report reads the four subspace helpers range_basis, complement_basis,
# principal_angles and direct_sum_check; they stay because the property
# tests use them as independent references and the benchmark's tracer wraps
# them by name.


def range_basis(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of M, by SVD with relative cutoff."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, : rank(s, tol)]


def complement_basis(
    M: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column space."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    return U[:, rank(s, tol) :]


def _check_ambient(U: np.ndarray, W: np.ndarray) -> None:
    if U.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"ambient dims differ: {U.shape[0]} vs {W.shape[0]}")


def cosines_and_angles(
    U: np.ndarray, W: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Principal angles between the spans of two bases: their cosines,
    descending, and the angles, ascending in [0, pi/2].

    A cosine within rounding of 1 cannot tell an angle below 1e-8 from 0, so
    every angle up to pi/4 comes from its sine instead: the length outside
    the larger subspace of the smaller one's principal vector (Knyazev &
    Argentati, SIAM J. Sci. Comput. 2002). When the larger subspace is the
    whole space every sine is 0 and no principal vectors are needed; else
    they come from the cosines' own SVD, so no second factorization is taken.
    """
    _check_ambient(U, W)
    if U.shape[1] == 0 or W.shape[1] == 0:
        return np.empty(0), np.empty(0)
    M = U.conj().T @ W
    u_smaller = U.shape[1] <= W.shape[1]
    big = W if u_smaller else U
    if big.shape[1] == U.shape[0]:
        cos = np.linalg.svd(M, compute_uv=False)
        sin = np.zeros_like(cos)
    else:
        Y, cos, Zh = np.linalg.svd(M, full_matrices=False)
        V = U @ Y if u_smaller else W @ Zh.conj().T
        sin = np.linalg.norm(V - big @ (big.conj().T @ V), axis=0)
    from_sin = np.arcsin(np.minimum(sin, 1.0))
    angles = np.where(cos**2 >= 0.5, from_sin, np.arccos(np.clip(cos, 0.0, 1.0)))
    return cos, np.sort(angles)


def factor_cosines(bundle_xi: OperatorBundle, bundle_eta: OperatorBundle):
    """Cosines of the ranges of two injective C, descending, by CholeskyQR:
    the singular values of L_eta^-1 (X_eta X_xi^H) L_xi^-H = Q_eta^H Q_xi.
    None unless 2 dim <= count and the smallest cosine clears 0 and 1/sqrt 2
    (where cosines_and_angles turns to sines) by the factors' summed error."""
    err = bundle_xi.factor_error + bundle_eta.factor_error
    if 2 * bundle_xi.dim > bundle_xi.count or err >= 1:
        return None
    L_xi, L_eta = (inv(b.cholesky) for b in (bundle_xi, bundle_eta))
    cos = svdvals(L_eta @ (bundle_eta.columns @ bundle_xi.C) @ L_xi.conj().T)
    return cos if err < min(cos[-1], 0.5**0.5 - cos[-1]) else None


def principal_angles(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2]."""
    return cosines_and_angles(U, W)[1]


def direct_sum_verdict(excess: int, half_tan: float, tol: Tolerances) -> str:
    """Direct-sum verdict on U (+) W from excess = dim U + dim W - ambient dim
    and, when excess is 0, half_tan = tan(phi/2) of the smallest principal
    angle phi between U and W (1 when one is trivial). That is sigma_min /
    sigma_max of the stacked bases [U W], whose singular values are
    sqrt(1 +- cos phi_i) and 1 (Bjorck & Golub, Math. Comp. 1973)."""
    if excess < 0:
        return "fails_span"
    # half_tan is already the ratio that rank compares with rank_tol
    if excess == 0 and half_tan > tol.rank_tol:
        return "holds"
    # overfull, or the pieces meet at an angle below the cutoff
    return "fails_intersection"


def direct_sum_check(
    U: np.ndarray, W: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> str:
    """Whether U and W decompose the ambient space as a direct sum, from
    their smallest principal angle (see direct_sum_verdict).

    Returns "holds", "fails_intersection" or "fails_span".
    """
    _check_ambient(U, W)
    excess = U.shape[1] + W.shape[1] - U.shape[0]
    half_tan = 1.0
    if excess == 0 and U.shape[1] and W.shape[1]:
        half_tan = float(np.tan(principal_angles(U, W)[0] / 2))
    return direct_sum_verdict(excess, half_tan, tol)
